//! Criterion bench behind Figure 21: modelled SpGEMM cost-evaluation across
//! schemes, plus the functional warp-level SpGEMM kernel itself.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dsstc::DualSideSparseTensorCore;
use dsstc_kernels::bitmap_spgemm::{BitmapSpGemm, SimdLevel};
use dsstc_kernels::dense_gemm::DenseGemm;
use dsstc_models::networks::{bert_base, resnet50};
use dsstc_models::prune_magnitude;
use dsstc_sim::GpuConfig;
use dsstc_tensor::{GemmShape, Matrix, RandomMatrixBuilder, SparsityPattern};
use std::hint::black_box;

fn bench_scheme_estimation(c: &mut Criterion) {
    let engine = DualSideSparseTensorCore::v100();
    let shape = GemmShape::new(2048, 2048, 2048);
    let mut group = c.benchmark_group("fig21_estimation");
    group.sample_size(10);
    for &(a, b) in &[(0.0, 0.0), (0.5, 0.5), (0.9, 0.99)] {
        group.bench_with_input(
            BenchmarkId::new("dual_side_estimate", format!("a{a}_b{b}")),
            &(a, b),
            |bench, &(a, b)| bench.iter(|| black_box(engine.estimate_spgemm(shape, a, b))),
        );
    }
    group.finish();
}

fn bench_functional_spgemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("functional_spgemm_256");
    group.sample_size(10);
    let dense_kernel = DenseGemm::new(GpuConfig::v100());
    let bitmap_kernel = BitmapSpGemm::new(GpuConfig::v100());
    for &sparsity in &[0.5, 0.9, 0.99] {
        let a = Matrix::random_sparse(256, 256, sparsity, SparsityPattern::Uniform, 1);
        let b = Matrix::random_sparse(256, 256, sparsity, SparsityPattern::Uniform, 2);
        group.bench_with_input(
            BenchmarkId::new("dense_reference", sparsity),
            &(&a, &b),
            |bench, (a, b)| bench.iter(|| black_box(dense_kernel.execute(a, b))),
        );
        group.bench_with_input(
            BenchmarkId::new("bitmap_outer_product", sparsity),
            &(&a, &b),
            |bench, (a, b)| bench.iter(|| black_box(bitmap_kernel.execute(a, b))),
        );
    }
    group.finish();
}

/// The retained scalar reference against the word-parallel execution path
/// over identical pre-built encodings, under Criterion's statistics, and
/// `encode_a` of the same A. The last pair, A 90 % / B 99 % sparse, is the
/// operand pair of `benchmark/`'s `gemm_extreme` workload, so the
/// micro-cells and the end-to-end number name the same point; its A is also
/// encoded pinned to each vector level this host has (`encode_a_at`). The
/// word kernel keeps its staging buffers per thread, so every
/// `word_parallel` cell is a warm-workspace number: a call allocates its
/// output only.
fn bench_word_vs_scalar(c: &mut Criterion) {
    let mut group = c.benchmark_group("spgemm_word_vs_scalar_512");
    group.sample_size(10);
    let kernel = BitmapSpGemm::new(GpuConfig::v100());
    for &(a_sparsity, b_sparsity) in &[(0.5, 0.5), (0.9, 0.9), (0.9, 0.99)] {
        let a = Matrix::random_sparse(512, 512, a_sparsity, SparsityPattern::Uniform, 21);
        let b = Matrix::random_sparse(512, 512, b_sparsity, SparsityPattern::Uniform, 42);
        let a_enc = kernel.encode_a(&a);
        let b_enc = kernel.encode_b(&b);
        group.bench_with_input(
            BenchmarkId::new("encode_a", format!("a{a_sparsity}_b{b_sparsity}")),
            &a,
            |bench, a| bench.iter(|| black_box(kernel.encode_a(a))),
        );
        group.bench_with_input(
            BenchmarkId::new("scalar_reference", format!("a{a_sparsity}_b{b_sparsity}")),
            &(&a_enc, &b_enc),
            |bench, (a_enc, b_enc)| {
                bench.iter(|| black_box(kernel.execute_encoded_scalar(a_enc, b_enc)))
            },
        );
        group.bench_with_input(
            BenchmarkId::new("word_parallel", format!("a{a_sparsity}_b{b_sparsity}")),
            &(&a_enc, &b_enc),
            |bench, (a_enc, b_enc)| bench.iter(|| black_box(kernel.execute_encoded(a_enc, b_enc))),
        );
    }
    let a = Matrix::random_sparse(512, 512, 0.9, SparsityPattern::Uniform, 21);
    for level in SimdLevel::available() {
        group.bench_with_input(
            BenchmarkId::new("encode_a_at", level.name()),
            &level,
            |bench, &level| bench.iter(|| black_box(kernel.encode_a_at(&a, level))),
        );
    }
    group.finish();
}

/// The serve hot path — per-batch encode-A plus execute against resident
/// encoded weights, exactly what a `dsstc-serve` worker pays per batch.
fn bench_serve_hot_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("serve_hot_path_256x64x64");
    group.sample_size(10);
    let kernel = BitmapSpGemm::new(GpuConfig::v100());
    let a = Matrix::random_sparse(256, 64, 0.4, SparsityPattern::Uniform, 21);
    let b = Matrix::random_sparse(64, 64, 0.8, SparsityPattern::Uniform, 42);
    let b_enc = kernel.encode_b(&b);
    group.bench_function("encode_a_plus_scalar", |bench| {
        bench.iter(|| {
            let a_enc = kernel.encode_a(&a);
            black_box(kernel.execute_encoded_scalar(&a_enc, &b_enc))
        })
    });
    group.bench_function("encode_a_plus_word", |bench| {
        bench.iter(|| {
            let a_enc = kernel.encode_a(&a);
            black_box(kernel.execute_encoded(&a_enc, &b_enc))
        })
    });
    group.finish();
}

/// One layer of the `forward_batch` benchmark workload: a 64-row batch
/// against 256x256 weights at the ResNet-50 proxy's mean sparsities
/// (activations 49 %, weights 68 %), split into its two kernel calls, plus
/// the multiply pinned to each vector level this host has
/// (`execute_encoded` itself runs at the last one listed), plus the same
/// layer fused: `fused_layer` is what `forward` pays for it — the dense
/// input emitted into the flat A operand, the multiply, and an output pass
/// that applies ReLU and emits the next layer's A operand — so it stands
/// against `encode_a` + `execute_encoded_at` (whose ReLU is not even timed).
fn bench_forward_hot_path(c: &mut Criterion) {
    let mut group = c.benchmark_group("forward_hot_path_64x256x256");
    group.sample_size(10);
    let kernel = BitmapSpGemm::new(GpuConfig::v100());
    let a = Matrix::random_sparse(64, 256, 0.49, SparsityPattern::Uniform, 21);
    let b = Matrix::random_sparse(256, 256, 0.68, SparsityPattern::Uniform, 42);
    let (a_enc, b_enc) = (kernel.encode_a(&a), kernel.encode_b(&b));
    group.bench_function("encode_a", |bench| bench.iter(|| black_box(kernel.encode_a(&a))));
    group.bench_function("execute_encoded", |bench| {
        bench.iter(|| black_box(kernel.execute_encoded(&a_enc, &b_enc)))
    });
    for level in SimdLevel::available() {
        group.bench_with_input(
            BenchmarkId::new("execute_encoded_at", level.name()),
            &level,
            |bench, &level| {
                bench.iter(|| black_box(kernel.execute_encoded_at(&a_enc, &b_enc, level)))
            },
        );
    }
    // Only an inner layer's output pass emits, and `forward_at` is the one
    // way in: a one-tile-wide all-zero layer follows, which skips every step
    // and costs under a microsecond.
    let tail = kernel.encode_b(&Matrix::zeros(256, 32));
    for level in SimdLevel::available() {
        group.bench_with_input(
            BenchmarkId::new("fused_layer", level.name()),
            &level,
            |bench, &l| {
                bench
                    .iter(|| black_box(kernel.forward_at(&a, &[(&b_enc, true), (&tail, false)], l)))
            },
        );
    }
    group.finish();
}

/// One layer of the `serve_wire` benchmark workload: a 4-row batch against
/// the 64-wide proxy's weights. Almost no MACs, so this is what a call pays
/// before its first one — B expansion, the band loop's step tests, the
/// output's allocation.
fn bench_tiny_call(c: &mut Criterion) {
    let mut group = c.benchmark_group("tiny_call_4x64x64");
    group.sample_size(200); // a 3 µs call: samples are cheap, a quiet one is rare
    let kernel = BitmapSpGemm::new(GpuConfig::v100());
    let a = Matrix::random_sparse(4, 64, 0.49, SparsityPattern::Uniform, 21);
    let b = Matrix::random_sparse(64, 64, 0.68, SparsityPattern::Uniform, 42);
    let (a_enc, b_enc) = (kernel.encode_a(&a), kernel.encode_b(&b));
    group.bench_function("execute_encoded", |bench| {
        bench.iter(|| black_box(kernel.execute_encoded(&a_enc, &b_enc)))
    });
    group.finish();
}

/// A 4-row serve batch through a whole 64-wide proxy model, as a
/// `dsstc-serve` worker runs it (`EncodedModel::forward`): every layer's
/// band is ragged, so this is what a small batch pays per layer for the rows
/// it does not have. ResNet-50 (13 layers, ReLU) and BERT (4, none).
fn bench_tiny_forward(c: &mut Criterion) {
    let mut group = c.benchmark_group("tiny_forward_4x64");
    group.sample_size(100);
    let kernel = BitmapSpGemm::new(GpuConfig::v100());
    let input = Matrix::random_sparse(4, 64, 0.49, SparsityPattern::Uniform, 21);
    for (name, network, relu) in [("resnet50", resnet50(), true), ("bert", bert_base(), false)] {
        let weights: Vec<_> = (network.layers().iter().enumerate())
            .map(|(i, layer)| {
                let dense = RandomMatrixBuilder::new(64, 64)
                    .seed(42 + i as u64)
                    .value_range(-0.5, 0.5)
                    .build();
                kernel.encode_b(&prune_magnitude(&dense, layer.weight_sparsity))
            })
            .collect();
        let layers: Vec<_> = weights.iter().map(|w| (w, relu)).collect();
        group.bench_function(name, |bench| {
            bench.iter(|| black_box(kernel.forward(&input, &layers)))
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_scheme_estimation,
    bench_functional_spgemm,
    bench_word_vs_scalar,
    bench_serve_hot_path,
    bench_forward_hot_path,
    bench_tiny_call,
    bench_tiny_forward
);
criterion_main!(benches);
