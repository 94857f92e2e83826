//! Criterion bench of the functional warp-level SpGEMM step (paper Fig. 5/7)
//! across sparsity levels.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dsstc_formats::{TwoLevelBitmapMatrix, VectorLayout};
use dsstc_kernels::bitmap_spgemm::warp::warp_spgemm;
use dsstc_tensor::{Matrix, SparsityPattern};
use std::hint::black_box;

fn bench_warp_spgemm_functional(c: &mut Criterion) {
    let mut group = c.benchmark_group("warp_spgemm_32x32x16");
    for &sparsity in &[0.0, 0.5, 0.9] {
        let a = Matrix::random_sparse(32, 16, sparsity, SparsityPattern::Uniform, 3);
        let b = Matrix::random_sparse(16, 32, sparsity, SparsityPattern::Uniform, 4);
        // One warp tile each.
        let a_enc = TwoLevelBitmapMatrix::encode(&a, 32, 16, VectorLayout::ColumnMajor);
        let b_enc = TwoLevelBitmapMatrix::encode(&b, 16, 32, VectorLayout::RowMajor);
        let (a_tile, b_tile) = (a_enc.tile(0, 0).unwrap(), b_enc.tile(0, 0).unwrap());
        group.bench_with_input(BenchmarkId::from_parameter(sparsity), &sparsity, |bench, _| {
            bench.iter(|| {
                let mut acc = Matrix::zeros(32, 32);
                warp_spgemm(a_tile, b_tile, &mut acc);
                black_box(acc)
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_warp_spgemm_functional);
criterion_main!(benches);
