//! `gemm_extreme` — closed loop, one caller: `encode_a` + `execute_encoded`
//! on a 512-cubed GEMM with A 90 % and B 99 % sparse (B pre-encoded).
//!
//! Why: the paper's "order of magnitude" corner. Almost no MACs survive, so
//! `encode_a`, the bitmap-AND floor and the 1 MiB output allocation do the
//! work — the same kernel layer used the opposite way from `forward_batch`,
//! so a multiply speed-up bought with a dearer encode or scan shows here as
//! a loss.

use std::hint::black_box;
use std::time::Instant;

use dsstc_formats::TwoLevelBitmapMatrix;
use dsstc_kernels::bitmap_spgemm::BitmapSpGemm;
use dsstc_sim::GpuConfig;
use dsstc_tensor::{Matrix, SparsityPattern};

use crate::harness::{
    bits_equal, closed_loop, end_to_end, out_dir, sub_seed, Budget, EndToEnd, OpResult, Refusal,
};
use crate::report::Traced;
use crate::stats::p50;
use crate::trace::Tracer;
use crate::workloads::{paper_counts, repeat_setup, RunConfig};

const DIM: usize = 512;
const A_SPARSITY: f64 = 0.90;
const B_SPARSITY: f64 = 0.99;
/// Distinct A operands per run, cycled.
const POOL: usize = 4;
/// Operations of the warm-up that `setup_s` includes.
const WARMUP_OPS: u64 = 200;
/// Latency limit of `slo_met_share`.
const LIMIT_MS: f64 = 10.0;
/// Operations per second this container completes; sizes the traced run.
const NOMINAL_OPS_PER_S: f64 = 280.0;

/// The model-versus-measured cell's second point, and how often it runs.
const MODERATE_SPARSITY: f64 = 0.50;
const MODERATE_OPS: u64 = 100;
/// Operations per thread setting of the informational threads comparison.
const THREADS_OPS: u64 = 100;

struct State {
    kernel: BitmapSpGemm,
    a: Vec<Matrix>,
    b: Matrix,
    b_enc: TwoLevelBitmapMatrix,
}

fn operand(sparsity: f64, seed: u64) -> Matrix {
    Matrix::random_sparse(DIM, DIM, sparsity, SparsityPattern::Uniform, seed)
}

/// `encode_a` + `execute_encoded`, timed together.
fn gemm(kernel: &BitmapSpGemm, a: &Matrix, b_enc: &TwoLevelBitmapMatrix) -> (Matrix, f64) {
    let started = Instant::now();
    let a_enc = kernel.encode_a(a);
    let output = kernel.execute_encoded(&a_enc, b_enc);
    (output, started.elapsed().as_secs_f64() * 1e3)
}

impl State {
    /// Operand generation, the one `encode_b`, and the warm-up operations.
    fn setup(seed: u64) -> State {
        let kernel = BitmapSpGemm::new(GpuConfig::v100()).with_execute_threads(1);
        let a = (0..POOL as u64).map(|i| operand(A_SPARSITY, sub_seed(seed, 2, i))).collect();
        let b = operand(B_SPARSITY, sub_seed(seed, 3, 0));
        let b_enc = kernel.encode_b(&b);
        let state = State { kernel, a, b, b_enc };
        closed_loop(Budget::Ops(WARMUP_OPS), LIMIT_MS, |i| {
            let (output, ms) = state.op(i);
            black_box(&output);
            OpResult { ms, ok: true }
        });
        state
    }

    fn op(&self, i: u64) -> (Matrix, f64) {
        gemm(&self.kernel, &self.a[i as usize % POOL], &self.b_enc)
    }

    /// The retained scalar kernel's product for every pooled A; the word
    /// kernel is checked against it once here and on every operation after.
    fn expected(&self, doctor: bool) -> Vec<Matrix> {
        let mut expected: Vec<Matrix> = self
            .a
            .iter()
            .map(|a| self.kernel.execute_encoded_scalar(&self.kernel.encode_a(a), &self.b_enc))
            .collect();
        if doctor {
            crate::workloads::doctor(&mut expected);
        }
        expected
    }

    fn verified_op(&self, i: u64, expected: &[Matrix]) -> OpResult {
        let (output, ms) = self.op(i);
        OpResult { ms, ok: bits_equal(output.as_slice(), expected[i as usize % POOL].as_slice()) }
    }
}

pub fn measure(config: RunConfig) -> Result<EndToEnd, Refusal> {
    let (state, setup_s) = repeat_setup(|| State::setup(config.seed));
    let expected = state.expected(config.doctor_expected);
    let phase =
        closed_loop(Budget::Seconds(config.seconds), LIMIT_MS, |i| state.verified_op(i, &expected));
    end_to_end(&phase, &setup_s, &config)
}

pub fn traced(config: RunConfig) -> Result<Traced, Refusal> {
    let state = State::setup(config.seed);
    let expected = state.expected(config.doctor_expected);
    let ops = config.traced_ops(NOMINAL_OPS_PER_S);

    // Untraced and traced operations alternate, so drift over the run
    // cannot pose as tracing overhead.
    let mut tracer = Tracer::new(Instant::now());
    let mut plain_ms = Vec::with_capacity(ops as usize);
    let phase = closed_loop(Budget::Ops(2 * ops), LIMIT_MS, |i| {
        if i % 2 == 0 {
            let result = state.verified_op(i / 2, &expected);
            plain_ms.push(result.ms);
            return result;
        }
        let i = i / 2;
        let started = Instant::now();
        let op = tracer.begin("op", None, i);
        let span = tracer.begin("kernels.encode_a", Some(op), i);
        let a_enc = state.kernel.encode_a(&state.a[i as usize % POOL]);
        tracer.end(span);
        let span = tracer.begin("kernels.spgemm", Some(op), i);
        let output = state.kernel.execute_encoded(&a_enc, &state.b_enc);
        tracer.end(span);
        tracer.end(op);
        let ms = started.elapsed().as_secs_f64() * 1e3;
        OpResult { ms, ok: bits_equal(output.as_slice(), expected[i as usize % POOL].as_slice()) }
    });
    tracer
        .write_chrome_trace(&out_dir().join("trace_gemm_extreme.json"))
        .map_err(|e| Refusal(format!("cannot write the chrome trace: {e}")))?;

    let op_ms = p50(tracer.durations_us("op")) / 1e3;
    let spgemm_ms = p50(tracer.durations_us("kernels.spgemm")) / 1e3;
    let encode_a_ms = p50(tracer.durations_us("kernels.encode_a")) / 1e3;
    if ((spgemm_ms + encode_a_ms) / op_ms - 1.0).abs() > 0.10 {
        config.sizing_guard(format!(
            "layer spans do not reconcile: their p50s sum to {:.3} ms, the traced operation's \
             p50 is {op_ms:.3} ms",
            spgemm_ms + encode_a_ms
        ))?;
    }
    let plain_op_ms = p50(plain_ms);

    let mut traced = Traced::new(phase.attempted, phase.failed);
    traced.set("kernels.spgemm.ms_per_op", spgemm_ms);
    traced.set("kernels.spgemm.share", spgemm_ms / op_ms);
    traced.set("kernels.encode_a.ms_per_op", encode_a_ms);
    traced.set("kernels.encode_a.share", encode_a_ms / op_ms);
    traced.set("trace.overhead_share", op_ms / plain_op_ms - 1.0);
    let extreme = paper_counts(&state.kernel, std::iter::once((&state.a[0], &state.b)));
    extreme.report(&mut traced);

    // Model versus measured: the same GEMM at moderate sparsity on both
    // sides. Does measured time fall with sparsity the way the simulated
    // V100's does?
    let moderate_a = operand(MODERATE_SPARSITY, sub_seed(config.seed, 4, 0));
    let moderate_b = operand(MODERATE_SPARSITY, sub_seed(config.seed, 5, 0));
    let moderate_b_enc = state.kernel.encode_b(&moderate_b);
    let moderate_ms = p50((0..MODERATE_OPS)
        .map(|_| {
            let (output, ms) = gemm(&state.kernel, &moderate_a, &moderate_b_enc);
            black_box(&output);
            ms
        })
        .collect());
    let moderate = paper_counts(&state.kernel, std::iter::once((&moderate_a, &moderate_b)));
    let measured_ratio = moderate_ms / plain_op_ms;
    let modelled_ratio = moderate.modelled_us / extreme.modelled_us;
    traced.set("kernels.spgemm.moderate_ms_p50", moderate_ms);
    traced.set("scaling.measured_ratio", measured_ratio);
    traced.set("sim.modelled_ratio", modelled_ratio);
    traced.set("scaling.gap", measured_ratio / modelled_ratio);

    // Informational: what the kernel's own thread fan-out buys on this
    // machine for the moderate GEMM (1 thread over one per available core).
    let auto_kernel = state.kernel.clone().with_execute_threads(0);
    let moderate_a_enc = state.kernel.encode_a(&moderate_a);
    let execute_ms = |kernel: &BitmapSpGemm| {
        p50((0..THREADS_OPS)
            .map(|_| {
                let started = Instant::now();
                black_box(kernel.execute_encoded(&moderate_a_enc, &moderate_b_enc));
                started.elapsed().as_secs_f64() * 1e3
            })
            .collect())
    };
    traced.set(
        "kernels.spgemm.threads0_speedup",
        execute_ms(&state.kernel) / execute_ms(&auto_kernel),
    );
    Ok(traced)
}
