//! `forward_batch` — closed loop, one caller: a repository hit plus
//! `EncodedModel::forward` of the ResNet-50 proxy on a 128-row batch.
//!
//! Why: the paper's dual-side case with *ReLU-made* activation sparsity over
//! the whole layer stack, and the serve hot path exactly as a device worker
//! runs it. `execute_encoded` is about three quarters of the operation and
//! `encode_a` about a fifth, so MAC/gather and workspace optimisations show
//! here first.

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use dsstc_kernels::bitmap_spgemm::BitmapSpGemm;
use dsstc_serve::{EncodedModel, ModelId, ModelKey, ModelRepository};
use dsstc_sim::GpuConfig;
use dsstc_tensor::{Matrix, RandomMatrixBuilder};

use crate::harness::{
    bits_equal, closed_loop, end_to_end, out_dir, sub_seed, Budget, EndToEnd, OpResult, Refusal,
};
use crate::report::Traced;
use crate::stats::p50;
use crate::trace::Tracer;
use crate::workloads::{paper_counts, repeat_setup, RunConfig};

const PROXY_DIM: usize = 256;
const ROWS: usize = 64;
const INPUT_SPARSITY: f64 = 0.4;
/// Input features are uniform in `±INPUT_SCALE`. The proxy's activations
/// grow about threefold per layer at this width; features of order 1 pass
/// FP16's largest value at layer 11 of 13, after which the outputs are
/// infinities and NaNs (on which the word and scalar kernels do not agree).
/// At this scale the last layer peaks below 1e3.
const INPUT_SCALE: f32 = 1e-3;
/// Distinct input batches per run, cycled, so one seed's draw of the first
/// layer's activations does not set the run's latency.
const POOL: usize = 8;
/// Operations of the warm-up that `setup_s` includes.
const WARMUP_OPS: u64 = 80;
/// Latency limit of `slo_met_share`.
const LIMIT_MS: f64 = 40.0;
/// Operations per second this container completes; sizes the traced run.
const NOMINAL_OPS_PER_S: f64 = 120.0;

struct State {
    repository: ModelRepository,
    kernel: BitmapSpGemm,
    key: ModelKey,
    inputs: Vec<Matrix>,
}

impl State {
    /// Operand generation, the one fresh prune + `encode_b` of the model,
    /// and the warm-up operations.
    fn setup(seed: u64) -> State {
        let repository = ModelRepository::new(GpuConfig::v100(), PROXY_DIM);
        let kernel = repository.kernel().clone().with_execute_threads(1);
        let inputs = (0..POOL as u64)
            .map(|i| {
                RandomMatrixBuilder::new(ROWS, PROXY_DIM)
                    .sparsity(INPUT_SPARSITY)
                    .value_range(-INPUT_SCALE, INPUT_SCALE)
                    .seed(sub_seed(seed, 1, i))
                    .build()
            })
            .collect();
        let state =
            State { repository, kernel, key: ModelKey::new(ModelId::ResNet50, None), inputs };
        closed_loop(Budget::Ops(WARMUP_OPS), LIMIT_MS, |i| {
            let (output, ms) = state.op(i);
            black_box(&output);
            OpResult { ms, ok: true }
        });
        state
    }

    fn input(&self, i: u64) -> &Matrix {
        &self.inputs[i as usize % POOL]
    }

    /// The operation: look the model up (a memory hit after set-up) and run
    /// the batch through every layer.
    fn op(&self, i: u64) -> (Matrix, f64) {
        let started = Instant::now();
        let model = self.repository.get(self.key);
        let output = model.forward(&self.kernel, self.input(i));
        (output, started.elapsed().as_secs_f64() * 1e3)
    }

    /// The harness's own reference forward: the same layer walk on the
    /// retained scalar kernel. Computed once per pooled input.
    fn expected(&self, doctor: bool) -> Vec<Matrix> {
        let model = self.repository.get(self.key);
        let mut expected: Vec<Matrix> = self
            .inputs
            .iter()
            .map(|input| {
                let mut x = input.clone();
                for layer in &model.layers {
                    x = self
                        .kernel
                        .execute_encoded_scalar(&self.kernel.encode_a(&x), &layer.weights);
                    if layer.relu {
                        x = x.relu();
                    }
                }
                x
            })
            .collect();
        if doctor {
            crate::workloads::doctor(&mut expected);
        }
        expected
    }

    /// One operation checked against the reference.
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

/// The traced operation: the harness's own walk over `EncodedModel::layers`
/// with a span around every public layer call. Returns the final features.
fn traced_forward(
    state: &State,
    model: &Arc<EncodedModel>,
    input: &Matrix,
    tracer: &mut Tracer,
    parent: usize,
    op: u64,
) -> Matrix {
    let mut x = input.clone();
    for layer in &model.layers {
        let span = tracer.begin("kernels.encode_a", Some(parent), op);
        let a_enc = state.kernel.encode_a(&x);
        tracer.end(span);
        let span = tracer.begin("kernels.spgemm", Some(parent), op);
        x = state.kernel.execute_encoded(&a_enc, &layer.weights);
        tracer.end(span);
        if layer.relu {
            let span = tracer.begin("tensor.relu", Some(parent), op);
            x = x.relu();
            tracer.end(span);
        }
    }
    x
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
        let span = tracer.begin("serve.repository.get", Some(op), i);
        let model = state.repository.get(state.key);
        tracer.end(span);
        let forward = tracer.begin("forward", Some(op), i);
        let output = traced_forward(&state, &model, state.input(i), &mut tracer, forward, i);
        tracer.end(forward);
        tracer.end(op);
        let ms = started.elapsed().as_secs_f64() * 1e3;
        // Bit-identical to `forward`, which the reference already pins.
        let want = &expected[i as usize % POOL];
        OpResult { ms, ok: bits_equal(output.as_slice(), want.as_slice()) }
    });
    tracer
        .write_chrome_trace(&out_dir().join("trace_forward_batch.json"))
        .map_err(|e| Refusal(format!("cannot write the chrome trace: {e}")))?;

    let p50_ms = |us: Vec<f64>| p50(us) / 1e3;
    let op_ms = p50_ms(tracer.durations_us("op"));
    let spgemm_ms = p50_ms(tracer.per_op_sum_us("kernels.spgemm"));
    let encode_a_ms = p50_ms(tracer.per_op_sum_us("kernels.encode_a"));
    let relu_ms = p50_ms(tracer.per_op_sum_us("tensor.relu"));
    let get_ms = p50_ms(tracer.per_op_sum_us("serve.repository.get"));
    let covered = spgemm_ms + encode_a_ms + relu_ms + get_ms;
    if (covered / op_ms - 1.0).abs() > 0.10 {
        config.sizing_guard(format!(
            "layer spans do not reconcile: their p50s sum to {covered:.3} ms, the traced \
             operation's p50 is {op_ms:.3} ms"
        ))?;
    }
    let plain_op_ms = p50(plain_ms);

    let mut traced = Traced::new(phase.attempted, phase.failed);
    traced.set("kernels.spgemm.ms_per_op", spgemm_ms);
    traced.set("kernels.spgemm.share", spgemm_ms / op_ms);
    traced.set("kernels.encode_a.ms_per_op", encode_a_ms);
    traced.set("kernels.encode_a.share", encode_a_ms / op_ms);
    traced.set("tensor.relu.ms_per_op", relu_ms);
    // What `forward` spends outside any layer call: the input clone, the
    // per-layer drops and the loop itself.
    traced.set("forward.residual_ms", p50_ms(tracer.self_times_of_us("forward")));
    traced.set("trace.overhead_share", op_ms / plain_op_ms - 1.0);

    // Paper counts: the first pooled input's activations, layer by layer.
    let model = state.repository.get(state.key);
    let counting_kernel = state.repository.kernel();
    let mut activations = Vec::with_capacity(model.layers.len());
    let mut x = state.inputs[0].clone();
    for layer in &model.layers {
        let next = state.kernel.execute_encoded(&state.kernel.encode_a(&x), &layer.weights);
        activations.push(x);
        x = if layer.relu { next.relu() } else { next };
    }
    let weights: Vec<Matrix> = model.layers.iter().map(|l| l.weights.decode()).collect();
    paper_counts(counting_kernel, activations.iter().zip(&weights)).report(&mut traced);
    Ok(traced)
}
