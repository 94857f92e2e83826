//! Ablation benches for the design choices DESIGN.md calls out:
//! one-level vs two-level bitmap encoding, and operand collector on/off.
//! Each bench reports the modelled kernel time (in nanoseconds of *model
//! evaluation*; the printed summary of modelled microseconds is what the
//! ablation is about and is emitted once at start-up).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dsstc_kernels::bitmap_spgemm::{BitmapSpGemm, BitmapSpGemmOptions, SyntheticGemmSpec};
use dsstc_sim::{GpuConfig, GpuTimingModel};
use dsstc_tensor::GemmShape;
use std::hint::black_box;

fn options(collector: bool, two_level: bool) -> BitmapSpGemmOptions {
    BitmapSpGemmOptions { operand_collector: collector, two_level }
}

fn print_ablation_summary() {
    let model = GpuTimingModel::v100();
    let shape = GemmShape::new(2048, 2048, 2048);
    let spec = SyntheticGemmSpec::new(shape, 0.9, 0.9);
    println!("Ablation (modelled time, 2048^3, 90%/90% sparsity):");
    for (name, opts) in [
        ("full design", options(true, true)),
        ("no operand collector", options(false, true)),
        ("one-level bitmap", options(true, false)),
    ] {
        let kernel = BitmapSpGemm::new(GpuConfig::v100()).with_options(opts);
        let (profile, _) = kernel.profile_synthetic(&spec);
        println!("  {:<22} {:>10.1} us", name, model.estimate(&profile).time_us());
    }
}

fn bench_ablations(c: &mut Criterion) {
    print_ablation_summary();
    let shape = GemmShape::new(1024, 1024, 1024);
    let spec = SyntheticGemmSpec::new(shape, 0.9, 0.9);
    let mut group = c.benchmark_group("spgemm_ablations");
    group.sample_size(10);
    for (name, opts) in [
        ("full_design", options(true, true)),
        ("no_operand_collector", options(false, true)),
        ("one_level_bitmap", options(true, false)),
    ] {
        let kernel = BitmapSpGemm::new(GpuConfig::v100()).with_options(opts);
        group.bench_with_input(BenchmarkId::from_parameter(name), &spec, |b, spec| {
            b.iter(|| black_box(kernel.profile_synthetic(spec)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_ablations);
criterion_main!(benches);
