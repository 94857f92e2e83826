//! Pins how often, and for how much, the serve hot path goes to the
//! allocator: once its thread has run a call, a kernel call allocates its
//! result and nothing else — at any tile grid, vector level, depth,
//! orientation, or size not above the thread's largest so far — and
//! `encode_a` makes the same four allocations, their bytes sized by the
//! operand's shape and non-zeros; `encode_b` and the weights' decode make
//! the same few at any tile count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dsstc_formats::TwoLevelBitmapMatrix;
use dsstc_kernels::bitmap_spgemm::{BitmapSpGemm, SimdLevel};
use dsstc_sim::GpuConfig;
use dsstc_tensor::{Matrix, SparsityPattern};

thread_local! {
    /// Allocations (`alloc`, `alloc_zeroed`, `realloc`) made by this thread
    /// and the bytes they asked for, so tests running on other threads do
    /// not disturb a count.
    static ALLOCATED: Cell<(usize, usize)> = const { Cell::new((0, 0)) };
}

struct CountingAllocator;

fn count(bytes: usize) {
    // Fails only during thread teardown, when nothing is being measured.
    let _ = ALLOCATED.try_with(|n| n.set((n.get().0 + 1, n.get().1 + bytes)));
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract the caller already upholds; the counter bump touches only a
// const-initialised, destructor-free thread-local and never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded; see the impl comment.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded; see the impl comment.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: forwarded; see the impl comment.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded; see the impl comment.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `f` and returns its result with the allocations this thread made
/// meanwhile and their bytes.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, (usize, usize)) {
    let before = ALLOCATED.with(Cell::get);
    let result = f();
    let after = ALLOCATED.with(Cell::get);
    (result, (after.0 - before.0, after.1 - before.1))
}

/// What a warm kernel call may allocate: `out`, once.
fn only(out: &Matrix) -> (usize, usize) {
    (1, std::mem::size_of_val(out.as_slice()))
}

fn operands(m: usize, k: usize, n: usize) -> (Matrix, Matrix) {
    (
        Matrix::random_sparse(m, k, 0.5, SparsityPattern::Uniform, 1),
        Matrix::random_sparse(k, n, 0.7, SparsityPattern::Uniform, 2),
    )
}

#[test]
fn execute_encoded_allocates_the_same_few_buffers_at_any_tile_count() {
    // The expansion and the accumulator block are the thread's, and the A
    // operand is read as `encode_a` built it, so once the thread has run its
    // largest GEMM a call's one allocation is the result: at 256 and 1024
    // warp tiles of B, at every vector level,
    // on both native tilings (a V100 + A100 pool runs both), and for a small
    // ragged GEMM between two large ones, which must not size anything down.
    // The weights are the sparser operand, so the 128-row and the ragged
    // call run transposed (no more block passes that way); the warm-up runs
    // the largest call of each orientation.
    for config in [GpuConfig::v100(), GpuConfig::a100()] {
        let kernel = BitmapSpGemm::for_device(config);
        let encoded = |(m, k, n)| {
            let (a, b) = operands(m, k, n);
            (kernel.encode_a(&a), kernel.encode_b(&b))
        };
        for shape in [(64, 512, 512), (128, 512, 512)] {
            let (a_enc, b_enc) = encoded(shape);
            let _warm_up = kernel.execute_encoded(&a_enc, &b_enc);
        }
        for level in SimdLevel::available() {
            let plain = [(64, 256, 256), (64, 512, 512)];
            for shape in plain.into_iter().chain([(40, 100, 70), (128, 512, 512)]).chain(plain) {
                let (a_enc, b_enc) = encoded(shape);
                let (out, counted) =
                    allocations_in(|| kernel.execute_encoded_at(&a_enc, &b_enc, level));
                assert_eq!(counted, only(&out), "{level:?}: {shape:?}");
            }
        }
    }
}

#[test]
fn a_transposed_call_allocates_its_output_and_nothing_else() {
    // Against 99 %-sparse weights a 128 x 512 x 512 call runs as
    // D^T = B^T * A^T: B's bands are read where they lie and A is expanded
    // into the buffer B's expansion uses, so once the thread has run a
    // transposed call that size a warm one allocates its result alone — at
    // every vector level, and with plain calls (50 % weights) in between,
    // which must not size anything down.
    let kernel = BitmapSpGemm::new(GpuConfig::v100());
    let a = Matrix::random_sparse(128, 512, 0.9, SparsityPattern::Uniform, 5);
    let a_enc = kernel.encode_a(&a);
    let [transposed, plain] = [(0.99, 6), (0.5, 7)].map(|(sparsity, seed)| {
        kernel.encode_b(&Matrix::random_sparse(512, 512, sparsity, SparsityPattern::Uniform, seed))
    });
    let _warm_up = kernel.execute_encoded(&a_enc, &transposed);
    let _warm_up = kernel.execute_encoded(&a_enc, &plain);
    for level in SimdLevel::available() {
        for (i, b_enc) in [&transposed, &plain, &transposed, &transposed, &plain].iter().enumerate()
        {
            let (out, counted) = allocations_in(|| kernel.execute_encoded_at(&a_enc, b_enc, level));
            assert_eq!(counted, only(&out), "{level:?}: call {i}");
        }
    }
}

#[test]
fn encode_a_allocates_a_constant_few_buffers_sized_by_its_non_zeros() {
    // The emitter writes into the thread's workspace arena, which holds the
    // dense bound; the operand is its four arrays copied out at their exact
    // length: per band and step a column word and a start (and one more
    // start), per band a base, per kept value a half. Once the thread has
    // encoded its largest operand, that is every allocation, at any tile
    // count and vector level. The warm-up call pays for the arena, whose
    // buffers then only grow: it is the largest operand of the loop, so no
    // measured call grows one. A 512 x 512 operand at 90 % sparsity keeps
    // one value in ten.
    let kernel = BitmapSpGemm::new(GpuConfig::v100());
    let (wm, wk) = kernel.tiling().a_tile();
    let shapes = [(64, 256), (64, 512), (512, 512)];
    let operand = |(m, k)| Matrix::random_sparse(m, k, 0.9, SparsityPattern::Uniform, 4);
    for level in SimdLevel::available() {
        let _warm_up = kernel.encode_a_at(&operand((512, 512)), level);
        for (m, k) in shapes {
            let a = operand((m, k));
            let (a_enc, counted) = allocations_in(|| kernel.encode_a_at(&a, level));
            let nnz = a_enc.nnz();
            assert!(nnz > 0 && nnz < m * k / 5, "{level:?} {m}x{k}: {nnz} kept");
            let (bands, steps) = (m.div_ceil(wm), k.div_ceil(wk) * wk);
            let bytes = 8 * bands * steps + 4 * bands * (steps + 1) + 8 * bands + 2 * nnz;
            assert_eq!(counted, (4, bytes), "{level:?} {m}x{k}: (allocations, bytes)");
        }
    }
}

#[test]
fn weights_encode_and_decode_in_a_constant_few_allocations() {
    // The weights lie in four flat arrays: `encode_b` allocates the step
    // words, the starts and band bases, and the values, each once at its
    // final size; `from_bytes` reads the words and the values in bulk and
    // rebuilds the starts and bases. The same few allocations at 16 warp
    // tiles and at 1024, none per tile.
    let kernel = BitmapSpGemm::new(GpuConfig::v100()); // 16 x 32 B tiles
    let counts = [(64, 128), (256, 256), (512, 1024)].map(|(k, n)| {
        let b = Matrix::random_sparse(k, n, 0.8, SparsityPattern::Uniform, 8);
        let (b_enc, (encoded, _)) = allocations_in(|| kernel.encode_b(&b));
        let bytes = b_enc.to_bytes();
        let (back, (decoded, _)) = allocations_in(|| TwoLevelBitmapMatrix::from_bytes(&bytes));
        assert_eq!(back.expect("own bytes decode"), b_enc, "{k}x{n}");
        (encoded, decoded)
    });
    assert!(counts.iter().all(|&c| c == counts[0] && c.0 <= 4 && c.1 <= 4), "{counts:?}");
}

#[test]
fn forward_allocates_the_same_few_buffers_at_any_depth() {
    // The two arenas and the B expansion are the thread's too, so a 13-layer
    // stack (the ResNet-50 proxy's depth) allocates what a 2-layer one does:
    // the result. A 4-row batch after the 64-row one (a serve worker's batch
    // height changes on every batch) fits in what is held. `EncodedModel::
    // forward` adds one allocation per call above this, its `Vec` of layer
    // refs (`crates/serve/src/model.rs`); it is left there rather than
    // cached.
    let kernel = BitmapSpGemm::new(GpuConfig::v100());
    let (input, weights) = operands(64, 256, 256);
    let small = Matrix::random_sparse(4, 256, 0.5, SparsityPattern::Uniform, 3);
    let weights = kernel.encode_b(&weights);
    for level in SimdLevel::available() {
        let _warm_up = kernel.forward_at(&input, &[(&weights, true); 2], level);
        for (input, depth) in [(&input, 2), (&input, 13), (&small, 13), (&input, 2)] {
            let layers = vec![(&weights, true); depth];
            let (out, counted) = allocations_in(|| kernel.forward_at(input, &layers, level));
            assert_eq!(counted, only(&out), "{level:?}: {} rows, depth {depth}", input.rows());
        }
    }
    // 1024 rows are 32 bands x 8 tile columns, 256 output tiles per layer:
    // a grid that size runs on the calling thread too, and once the thread
    // holds arenas that tall it allocates its result alone.
    let tall = Matrix::random_sparse(1024, 256, 0.5, SparsityPattern::Uniform, 4);
    let layers = [(&weights, true); 3];
    let _warm_up = kernel.forward(&tall, &layers);
    for level in SimdLevel::available() {
        let (out, counted) = allocations_in(|| kernel.forward_at(&tall, &layers, level));
        assert_eq!(counted, only(&out), "{level:?}: 1024 rows, depth 3");
    }
}
