//! The four workloads. Each module offers the same two entry points:
//! `measure` (untraced: the end-to-end metrics) and `traced` (spans around
//! every public layer call: the per-layer metrics).

pub mod forward_batch;
pub mod gemm_extreme;
pub mod serve_wire;
pub mod store_churn;

use dsstc_kernels::bitmap_spgemm::{BitmapSpGemm, SpGemmStats};
use dsstc_sim::GpuTimingModel;
use dsstc_tensor::Matrix;

use crate::harness::{EndToEnd, Refusal};
use crate::report::Traced;

/// Workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = ["forward_batch", "gemm_extreme", "serve_wire", "store_churn"];

/// What one invocation was asked to do.
#[derive(Clone, Copy, Debug)]
pub struct RunConfig {
    /// Every input — operands, request pool, arrival schedule, key
    /// sequence — derives from this.
    pub seed: u64,
    /// Length of the measured phase.
    pub seconds: f64,
    /// Self-test only: corrupt one expected output so the correctness gate
    /// must fire.
    pub doctor_expected: bool,
    /// Whether a tripped sizing guard refuses the run (`--strict`) or only
    /// warns on standard error.
    pub strict: bool,
}

impl RunConfig {
    /// A sizing guard tripped: the run's numbers may not mean what their
    /// names say. Most guards follow the clock, so on a shared host a burst
    /// from a neighbour can trip one on a correctly sized workload; the
    /// driver's runs (never `--strict`) therefore warn and still report.
    pub fn sizing_guard(&self, why: String) -> Result<(), Refusal> {
        if self.strict {
            return Err(Refusal(why));
        }
        eprintln!("warning (a refusal under --strict): {why}");
        Ok(())
    }

    /// Operations of a traced sub-phase: a quarter of what the measured
    /// phase completes at `per_second` nominal operations per second. A
    /// fixed count, so the program's own counters repeat exactly for a seed.
    pub fn traced_ops(&self, per_second: f64) -> u64 {
        ((self.seconds * per_second / 4.0).round() as u64).max(1)
    }
}

fn unknown(workload: &str) -> Refusal {
    Refusal(format!("unknown workload {workload:?}; one of {NAMES:?}"))
}

/// Self-test only: flips the lowest bit of the first expected value, so the
/// first pooled input's operations must all fail the correctness gate.
pub fn doctor(expected: &mut [Matrix]) {
    let cell = &mut expected[0].as_mut_slice()[0];
    *cell = f32::from_bits(cell.to_bits() ^ 1);
}

pub fn measure(workload: &str, config: RunConfig) -> Result<EndToEnd, Refusal> {
    match workload {
        "forward_batch" => forward_batch::measure(config),
        "gemm_extreme" => gemm_extreme::measure(config),
        "serve_wire" => serve_wire::measure(config),
        "store_churn" => store_churn::measure(config),
        other => Err(unknown(other)),
    }
}

pub fn traced(workload: &str, config: RunConfig) -> Result<Traced, Refusal> {
    match workload {
        "forward_batch" => forward_batch::traced(config),
        "gemm_extreme" => gemm_extreme::traced(config),
        "serve_wire" => serve_wire::traced(config),
        "store_churn" => store_churn::traced(config),
        other => Err(unknown(other)),
    }
}

/// Repeats a workload's set-up [`crate::harness::SETUP_REPS`] times, timing
/// each, and keeps the last state for the measured phase. Earlier states
/// are dropped (servers shut down, store directories removed) before the
/// next repetition starts.
pub fn repeat_setup<S>(mut setup: impl FnMut() -> S) -> (S, Vec<f64>) {
    let mut times = Vec::with_capacity(crate::harness::SETUP_REPS);
    let mut state = None;
    for _ in 0..crate::harness::SETUP_REPS {
        drop(state.take());
        let started = std::time::Instant::now();
        state = Some(setup());
        times.push(started.elapsed().as_secs_f64());
    }
    (state.expect("at least one set-up repetition"), times)
}

/// The paper's counts over a sequence of GEMMs: mean activation (A) and
/// weight (B) sparsity, the skipped-work shares the kernel's
/// profile reports, and the simulated V100 time of the same GEMMs.
pub struct PaperCounts {
    pub activation_sparsity_mean: f64,
    pub weight_sparsity_mean: f64,
    pub stats: SpGemmStats,
    pub modelled_us: f64,
}

impl PaperCounts {
    pub fn report(&self, traced: &mut Traced) {
        let share =
            |part: u64, whole: u64| if whole == 0 { 0.0 } else { part as f64 / whole as f64 };
        traced.set("kernels.spgemm.activation_sparsity_mean", self.activation_sparsity_mean);
        traced.set("kernels.spgemm.weight_sparsity_mean", self.weight_sparsity_mean);
        traced.set(
            "kernels.spgemm.skipped_ohmma_share",
            share(self.stats.skipped_ohmma, self.stats.dense_ohmma),
        );
        traced.set(
            "kernels.spgemm.skipped_warp_tile_share",
            share(self.stats.skipped_warp_tiles, self.stats.total_warp_tiles),
        );
        traced.set("sim.modelled_us", self.modelled_us);
    }
}

/// Folds the profile of each `(A, B)` GEMM of a sequence into one
/// [`PaperCounts`].
pub fn paper_counts<'a>(
    kernel: &BitmapSpGemm,
    gemms: impl Iterator<Item = (&'a Matrix, &'a Matrix)>,
) -> PaperCounts {
    let model = GpuTimingModel::v100();
    let mut counts = PaperCounts {
        activation_sparsity_mean: 0.0,
        weight_sparsity_mean: 0.0,
        stats: SpGemmStats::default(),
        modelled_us: 0.0,
    };
    let mut layers = 0usize;
    for (a, b) in gemms {
        let (profile, stats) = kernel.profile_with_stats(a, b);
        counts.activation_sparsity_mean += a.sparsity();
        counts.weight_sparsity_mean += b.sparsity();
        counts.stats.skipped_warp_tiles += stats.skipped_warp_tiles;
        counts.stats.total_warp_tiles += stats.total_warp_tiles;
        counts.stats.skipped_ohmma += stats.skipped_ohmma;
        counts.stats.dense_ohmma += stats.dense_ohmma;
        counts.modelled_us += model.estimate(&profile).total_us;
        layers += 1;
    }
    counts.activation_sparsity_mean /= layers.max(1) as f64;
    counts.weight_sparsity_mean /= layers.max(1) as f64;
    counts
}
