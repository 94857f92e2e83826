//! Pins how often the serve hot path goes to the allocator: the kernel's
//! count must not depend on the tile grid, the vector level or an auto-sized
//! thread count, the encoder's must stay at three per non-empty tile, and a
//! fused `forward`'s must not depend on how many layers it runs.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dsstc_kernels::bitmap_spgemm::{BitmapSpGemm, SimdLevel};
use dsstc_sim::GpuConfig;
use dsstc_tensor::{Matrix, SparsityPattern};

thread_local! {
    /// Allocations (`alloc`, `alloc_zeroed`, `realloc`) made by this thread,
    /// so tests running on other threads do not disturb a count.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

struct CountingAllocator;

fn count_one() {
    // Fails only during thread teardown, when nothing is being measured.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract the caller already upholds; the counter bump touches only a
// const-initialised, destructor-free thread-local and never allocates.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded; see the impl comment.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded; see the impl comment.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
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
/// meanwhile.
fn allocations_in<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATIONS.with(Cell::get);
    let result = f();
    (result, ALLOCATIONS.with(Cell::get) - before)
}

fn operands(m: usize, k: usize, n: usize) -> (Matrix, Matrix) {
    (
        Matrix::random_sparse(m, k, 0.5, SparsityPattern::Uniform, 1),
        Matrix::random_sparse(k, n, 0.7, SparsityPattern::Uniform, 2),
    )
}

#[test]
fn execute_encoded_allocates_the_same_few_buffers_at_any_tile_count() {
    // 256 and 1024 warp tiles of B: the flat expansion, the output, and the
    // per-call accumulator and A-word buffers — never one buffer per tile,
    // at any vector level.
    let kernel = BitmapSpGemm::new(GpuConfig::v100()).with_execute_threads(1);
    for level in SimdLevel::available() {
        let counts = [(64, 256, 256), (64, 512, 512)].map(|(m, k, n)| {
            let (a, b) = operands(m, k, n);
            let (a_enc, b_enc) = (kernel.encode_a(&a), kernel.encode_b(&b));
            allocations_in(|| kernel.execute_encoded_at(&a_enc, &b_enc, level)).1
        });
        assert_eq!(counts[0], counts[1], "{level:?}: allocations grow with the tile grid");
        assert!(counts[0] <= 8, "{level:?}: {} allocations per execute_encoded", counts[0]);
    }
}

#[test]
fn auto_thread_count_costs_no_allocation_per_call() {
    // `with_execute_threads(0)` asks the OS for the core count, which reads
    // cgroup files (4 allocations, ≈ 13 µs); it must do so when the kernel
    // is built, never per GEMM. 16 output tiles stay under the threading
    // threshold, so both kernels run the same serial path.
    let (a, b) = operands(64, 256, 256);
    let counts = [1, 0].map(|threads| {
        let kernel = BitmapSpGemm::new(GpuConfig::v100()).with_execute_threads(threads);
        let (a_enc, b_enc) = (kernel.encode_a(&a), kernel.encode_b(&b));
        allocations_in(|| kernel.execute_encoded(&a_enc, &b_enc)).1
    });
    assert_eq!(counts[1], counts[0], "threads 0 vs threads 1");
}

#[test]
fn encode_a_allocates_three_buffers_per_non_empty_tile() {
    // Bitmap words, offsets and values per tile, plus the two-level
    // container's own vectors (incl. the tile list's amortised growth).
    let kernel = BitmapSpGemm::new(GpuConfig::v100());
    for (m, k) in [(64, 256), (64, 512)] {
        let (a, _) = operands(m, k, 1);
        let (a_enc, count) = allocations_in(|| kernel.encode_a(&a));
        let non_empty = a_enc.tile_count() - a_enc.empty_tiles();
        assert!(count <= 3 * non_empty + 16, "{count} allocations for {non_empty} tiles");
    }
}

#[test]
fn forward_allocates_the_same_few_buffers_at_any_depth() {
    // Two arenas of three buffers, the B expansion's two, one accumulator
    // block and the output (10): sized once for the largest layer, so a
    // 13-layer stack (the ResNet-50 proxy's depth) costs what a 2-layer one
    // does.
    let kernel = BitmapSpGemm::new(GpuConfig::v100()).with_execute_threads(1);
    let (input, weights) = operands(64, 256, 256);
    let weights = kernel.encode_b(&weights);
    for level in SimdLevel::available() {
        let counts = [2, 13].map(|depth| {
            let layers = vec![(&weights, true); depth];
            allocations_in(|| kernel.forward_at(&input, &layers, level)).1
        });
        assert_eq!(counts[0], counts[1], "{level:?}: allocations grow with the depth");
        assert!(counts[0] <= 16, "{level:?}: {} allocations per forward", counts[0]);
    }
}
