//! Pins how often, and for how much, the serve hot path goes to the
//! allocator: once its thread has run a call, a kernel call allocates its
//! result and nothing else — at any tile grid, vector level, depth, or size
//! not above the thread's largest so far — and `encode_a` makes the same few
//! allocations at any size, their bytes sized by the operand's non-zeros.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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
    for config in [GpuConfig::v100(), GpuConfig::a100()] {
        let kernel = BitmapSpGemm::for_device(config).with_execute_threads(1);
        let encoded = |(m, k, n)| {
            let (a, b) = operands(m, k, n);
            (kernel.encode_a(&a), kernel.encode_b(&b))
        };
        let (a_enc, b_enc) = encoded((64, 512, 512));
        let _warm_up = kernel.execute_encoded(&a_enc, &b_enc);
        for level in SimdLevel::available() {
            for shape in [(64, 256, 256), (64, 512, 512), (40, 100, 70), (64, 512, 512)] {
                let (a_enc, b_enc) = encoded(shape);
                let (out, counted) =
                    allocations_in(|| kernel.execute_encoded_at(&a_enc, &b_enc, level));
                assert_eq!(counted, only(&out), "{level:?}: {shape:?}");
            }
        }
    }
}

#[test]
fn auto_thread_count_costs_no_allocation_per_call() {
    // `with_execute_threads(0)` asks the OS for the core count, which reads
    // cgroup files (4 allocations, ≈ 13 µs); it must do so when the kernel
    // is built, never per GEMM. 16 output tiles stay under the threading
    // threshold, so both kernels run the same serial path.
    let (a, b) = operands(64, 256, 256);
    let counts = [1, 1, 0].map(|threads| {
        let kernel = BitmapSpGemm::new(GpuConfig::v100()).with_execute_threads(threads);
        let (a_enc, b_enc) = (kernel.encode_a(&a), kernel.encode_b(&b));
        allocations_in(|| kernel.execute_encoded(&a_enc, &b_enc)).1 .0
    });
    // The first call is the thread's warm-up.
    assert_eq!(counts[2], counts[1], "threads 0 vs threads 1");
}

#[test]
fn encode_a_allocates_a_constant_few_buffers_sized_by_its_non_zeros() {
    // Column words, starts and band bases are sized by the shape, the values
    // by a count pass, and the emitter writes every band's values in place:
    // the same allocations at any tile count and vector level, and bytes
    // within 4 per kept value, 16 per step and one emitter tile column of
    // slack. A 512 x 512 operand at 90 % sparsity holds no dense bound, not
    // even one band's.
    let kernel = BitmapSpGemm::new(GpuConfig::v100());
    let (wm, wk) = kernel.tiling().a_tile();
    for level in SimdLevel::available() {
        let counts = [(64, 256), (64, 512), (512, 512)].map(|(m, k)| {
            let a = Matrix::random_sparse(m, k, 0.9, SparsityPattern::Uniform, 4);
            let (a_enc, (count, bytes)) = allocations_in(|| kernel.encode_a_at(&a, level));
            let nnz = a_enc.nnz();
            assert!(nnz > 0 && nnz < m * k / 5, "{level:?} {m}x{k}: {nnz} kept");
            let steps = m.div_ceil(wm) * k.div_ceil(wk) * wk;
            let bound = 4 * (nnz + 32) + 16 * steps;
            assert!(bytes <= bound, "{level:?} {m}x{k}: {bytes} bytes, bound {bound}");
            count
        });
        assert!(counts.iter().all(|&c| c == counts[0] && c <= 8), "{level:?}: {counts:?}");
    }
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
    let kernel = BitmapSpGemm::new(GpuConfig::v100()).with_execute_threads(1);
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
}
