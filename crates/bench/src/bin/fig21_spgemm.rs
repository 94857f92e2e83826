//! Regenerates **Figure 21**: SpGEMM execution time on a 4096x4096x4096
//! problem as matrix A's sparsity sweeps from 0 % to 99.9 %, for several
//! matrix B sparsities, compared against the CUTLASS dense baseline, the
//! fixed-ratio single-side Sparse Tensor Core, and a cuSparse-style CSR
//! SpGEMM.
//!
//! Every number printed here is **modelled** (the `dsstc-sim` timing
//! model of a V100); measured kernel times come from `benchmark/`
//! (`BENCHMARK.json`) and the Criterion cells in `benches/spgemm.rs`.
//!
//! Run with `cargo run --release -p dsstc-bench --bin fig21_spgemm`.

#![deny(unsafe_code)]

use dsstc::DualSideSparseTensorCore;
use dsstc_formats::CsrMatrix;
use dsstc_kernels::csr_spgemm::CsrSpGemm;
use dsstc_sim::GpuConfig;
use dsstc_tensor::{GemmShape, Matrix, SparsityPattern};

fn main() {
    let engine = DualSideSparseTensorCore::v100();
    let shape = GemmShape::new(4096, 4096, 4096);
    let a_sparsities = [0.0, 0.10, 0.25, 0.40, 0.50, 0.60, 0.75, 0.90, 0.95, 0.99, 0.999];
    let b_sparsities = [0.0, 0.20, 0.40, 0.60, 0.80, 0.90, 0.99, 0.999];

    // Baselines that do not depend on A's sparsity.
    let dense_us = engine.compare_schemes(shape, 0.0, 0.0).dense_us;
    let vector_us = engine.compare_schemes(shape, 0.0, 0.75).vector_sparse_us;

    println!("Figure 21: SpGEMM execution time (us), 4096x4096x4096");
    println!("CUTLASS dense baseline: {dense_us:.1} us");
    println!(
        "Sparse Tensor Core [72] (fixed 75% weight sparsity): {vector_us:.1} us ({:.2}x)",
        dense_us / vector_us
    );
    println!();

    // Our method: one curve per B sparsity. Each cell is modelled once
    // (the estimate is the expensive part); both tables print from it.
    let modelled_us: Vec<Vec<f64>> = a_sparsities
        .iter()
        .map(|&a| {
            b_sparsities.iter().map(|&b| engine.estimate_spgemm(shape, a, b).time_us()).collect()
        })
        .collect();
    let print_grid = |corner: &str, cell: &dyn Fn(f64) -> String| {
        print!("{corner:<16}");
        for &b in &b_sparsities {
            print!("{:>14}", format!("B={:.1}%", b * 100.0));
        }
        println!();
        for (&a, row) in a_sparsities.iter().zip(&modelled_us) {
            print!("{:<16}", format!("{:.1}", a * 100.0));
            for &us in row {
                print!("{:>14}", cell(us));
            }
            println!();
        }
        println!();
    };
    print_grid("A sparsity (%)", &|us| format!("{us:.1}"));
    // Speedup over CUTLASS for the same grid.
    print_grid("speedup vs dense", &|us| format!("{:.2}x", dense_us / us));

    // cuSparse curve (B fixed at 99%, A from 90%): evaluated at a reduced
    // 1024^3 size to keep CSR materialisation cheap, then scaled by the
    // dense-GEMM work ratio, matching how the paper presents it as a
    // reference curve.
    println!("cuSparse-style CSR SpGEMM (B = 99%):");
    let small_shape = GemmShape::new(1024, 1024, 1024);
    let scale = shape.macs() as f64 / small_shape.macs() as f64;
    let cusparse_kernel = CsrSpGemm::new(GpuConfig::v100());
    for &a in &[0.90, 0.95, 0.99, 0.999] {
        let a_mat = Matrix::random_sparse(1024, 1024, a, SparsityPattern::Uniform, 7);
        let b_mat = Matrix::random_sparse(1024, 1024, 0.99, SparsityPattern::Uniform, 8);
        let profile =
            cusparse_kernel.profile(&CsrMatrix::encode(&a_mat), &CsrMatrix::encode(&b_mat));
        let us = engine.timing_model().estimate(&profile).time_us() * scale;
        println!("  A={:>6.1}%  {:>10.1} us   ({:.2}x vs CUTLASS)", a * 100.0, us, dense_us / us);
    }
    println!();
    println!(
        "(paper reference points: ours 13.4x at A=0%/B=99%, 23x at A=99.9%/B=99%; \
              cuSparse only beats CUTLASS above ~95% A sparsity)"
    );
}
