//! `store_churn` — closed loop, one caller: a seeded sequence of
//! `ModelRepository::get_for_traced` over 12 keys with a two-entry memory
//! tier and a disk store smaller than the key set.
//!
//! Why: the repository used as writes beside reads. Memory hits, disk
//! restores, fresh prune + `encode_b` + persist and manifest GC all occur in
//! one run, which is what a split of `repository.rs` into a `store/` module
//! must hold. The kernel layers do nothing here, so this is the bypass
//! workload for kernel changes.
//!
//! The key sequence keeps each reported percentile inside one outcome class
//! (see [`KeySequence`]): a percentile that sits on the boundary between a
//! microsecond hit and a millisecond restore would read as noise.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dsstc_formats::serialize::fnv1a;
use dsstc_formats::TwoLevelBitmapMatrix;
use dsstc_kernels::EncodingSpec;
use dsstc_models::prune_magnitude;
use dsstc_serve::{
    CacheBudget, CacheOutcome, EncodeCacheStats, EncodedModel, ModelId, ModelKey, ModelRepository,
};
use dsstc_sim::GpuConfig;
use dsstc_tensor::RandomMatrixBuilder;

use crate::harness::{
    closed_loop, end_to_end, out_dir, sub_seed, Budget, EndToEnd, OpResult, Refusal, SplitMix64,
};
use crate::report::Traced;
use crate::stats::p50;
use crate::trace::Tracer;
use crate::workloads::{repeat_setup, RunConfig};

const PROXY_DIM: usize = 128;
/// Uniform weight sparsity of every model's second key.
const OVERRIDE_SPARSITY: f64 = 0.9;
/// 6 models x {table sparsities, 0.9}.
const KEYS: usize = 12;
/// The first `HOT_KEYS` keys take `HOT_SHARE` of the draws.
const HOT_KEYS: usize = 8;
const HOT_SHARE: f64 = 0.9;
/// Share of draws that ask for the previous key again — the memory hits.
const REPEAT_SHARE: f64 = 0.03;
/// Memory tier: the two most recently used artifacts.
const MEMORY_ENTRIES: usize = 2;
/// Disk tier: below the key set, so cold keys are collected and re-encoded.
const STORE_ENTRIES: usize = 9;
/// Operations of the warm-up that `setup_s` includes.
const WARMUP_OPS: u64 = 300;
/// Latency limit of `slo_met_share`.
const LIMIT_MS: f64 = 100.0;
/// Operations per second this container completes; sizes the traced run.
const NOMINAL_OPS_PER_S: f64 = 250.0;

/// Every key of the workload; the first [`HOT_KEYS`] are the hot ones.
pub fn keys() -> Vec<ModelKey> {
    let mut keys: Vec<ModelKey> = Vec::with_capacity(KEYS);
    for sparsity in [None, Some(OVERRIDE_SPARSITY)] {
        keys.extend(ModelId::ALL.iter().map(|&model| ModelKey::new(model, sparsity)));
    }
    // Interleave so hot and cold sets both mix table and overridden keys.
    (0..KEYS).map(|i| keys[(i % 2) * ModelId::ALL.len() + i / 2]).collect()
}

/// The seeded key sequence: indices into [`keys`].
///
/// A draw repeats the previous key with probability [`REPEAT_SHARE`] (a
/// memory hit). Every other draw takes a hot key with probability
/// [`HOT_SHARE`], a cold one otherwise, and never one of the two most
/// recently used keys — so it always misses the two-entry memory tier and
/// lands on the disk store (a restore) or, when the store has collected the
/// key, on a fresh encode. Hits therefore stay near 3 % of operations, well
/// below p10, and fresh encodes well above 5 %, so p10/p50 read the restore
/// path and p95 the fresh path on every seed.
#[derive(Clone, Debug)]
pub struct KeySequence {
    rng: SplitMix64,
    /// Most recent first.
    recent: [usize; MEMORY_ENTRIES],
}

impl KeySequence {
    pub fn new(seed: u64) -> Self {
        KeySequence { rng: SplitMix64::new(seed), recent: [0, 1] }
    }
}

impl Iterator for KeySequence {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.rng.next_f64() < REPEAT_SHARE {
            return Some(self.recent[0]);
        }
        let key = loop {
            let key = if self.rng.next_f64() < HOT_SHARE {
                self.rng.below(HOT_KEYS)
            } else {
                HOT_KEYS + self.rng.below(KEYS - HOT_KEYS)
            };
            if !self.recent.contains(&key) {
                break key;
            }
        };
        self.recent = [key, self.recent[0]];
        Some(key)
    }
}

/// Checksum of a model's serialised layer encodings — what a restored
/// artifact is compared with.
fn model_checksum(model: &EncodedModel) -> u64 {
    let mut bytes = Vec::new();
    for layer in &model.layers {
        layer.weights.write_to(&mut bytes).expect("writing to a Vec cannot fail");
    }
    fnv1a(&bytes)
}

struct State {
    repository: ModelRepository,
    spec: EncodingSpec,
    keys: Vec<ModelKey>,
    sequence: KeySequence,
    dir: PathBuf,
}

impl Drop for State {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// One operation's outcome as the repository reported it.
struct Got {
    model: Arc<EncodedModel>,
    outcome: CacheOutcome,
    started: Instant,
    done: Instant,
}

impl Got {
    fn ms(&self) -> f64 {
        (self.done - self.started).as_secs_f64() * 1e3
    }
}

impl State {
    /// Store population (every key encoded and persisted once, the store
    /// collected back under its budget) and the warm-up operations.
    fn setup(seed: u64) -> State {
        static DIRS: AtomicU64 = AtomicU64::new(0);
        let dir = out_dir().join(format!(
            "store-{}-{}",
            std::process::id(),
            DIRS.fetch_add(1, Ordering::Relaxed)
        ));
        let repository = ModelRepository::new(GpuConfig::v100(), PROXY_DIM)
            .with_disk_cache(&dir)
            .with_budget(CacheBudget { max_entries: MEMORY_ENTRIES, max_bytes: u64::MAX })
            .with_store_budget(CacheBudget { max_entries: STORE_ENTRIES, max_bytes: u64::MAX });
        let spec = repository.default_spec();
        let keys = keys();
        // Cold keys first: the hot set is the most recently persisted and
        // survives the population's own GC.
        for &key in keys.iter().rev() {
            repository.get_for(key, spec);
        }
        let mut state =
            State { repository, spec, keys, sequence: KeySequence::new(sub_seed(seed, 6, 0)), dir };
        for _ in 0..WARMUP_OPS {
            state.op();
        }
        state
    }

    /// The operation: the next key of the sequence, looked up.
    fn op(&mut self) -> (usize, Got) {
        let index = self.sequence.next().expect("the key sequence is endless");
        let started = Instant::now();
        let (model, outcome) = self.repository.get_for_traced(self.keys[index], self.spec);
        (index, Got { model, outcome, started, done: Instant::now() })
    }

    /// Whether the sizing guard's four outcome classes all occurred.
    fn require_every_outcome(
        config: &RunConfig,
        before: &EncodeCacheStats,
        after: &EncodeCacheStats,
    ) -> Result<(), Refusal> {
        let classes = [
            ("Hit", after.hits - before.hits),
            ("MissRestored", after.disk_loads - before.disk_loads),
            ("MissFresh", after.fresh_encodes - before.fresh_encodes),
            ("store_gc_removed", after.store_gc_removed - before.store_gc_removed),
        ];
        match classes.iter().find(|(_, count)| *count == 0) {
            Some((class, _)) => config.sizing_guard(format!(
                "outcome class {class} never occurred; the run is too short for the key sequence"
            )),
            None => Ok(()),
        }
    }
}

/// A fresh encode of every key from a memory-only repository: the reference
/// artifacts, and the checksum of each one's serialised bytes.
struct Reference {
    models: Vec<Arc<EncodedModel>>,
    checksums: Vec<u64>,
}

impl Reference {
    fn build(doctor: bool) -> Reference {
        let repository = ModelRepository::new(GpuConfig::v100(), PROXY_DIM)
            .with_budget(CacheBudget::unbounded());
        let models: Vec<Arc<EncodedModel>> =
            keys().into_iter().map(|k| repository.get(k)).collect();
        let mut checksums: Vec<u64> = models.iter().map(|m| model_checksum(m)).collect();
        if doctor {
            checksums[0] ^= 1;
        }
        Reference { models, checksums }
    }

    /// A hit returns an artifact already verified when it entered memory;
    /// a restored or freshly encoded one is serialised and compared.
    fn verify(&self, index: usize, got: &Got, keys: &[ModelKey]) -> bool {
        got.model.key == keys[index]
            && (got.outcome == CacheOutcome::Hit
                || model_checksum(&got.model) == self.checksums[index])
    }
}

pub fn measure(config: RunConfig) -> Result<EndToEnd, Refusal> {
    let (mut state, setup_s) = repeat_setup(|| State::setup(config.seed));
    let reference = Reference::build(config.doctor_expected);
    let before = state.repository.counters();
    let phase = closed_loop(Budget::Seconds(config.seconds), LIMIT_MS, |_| {
        let (index, got) = state.op();
        OpResult { ms: got.ms(), ok: reference.verify(index, &got, &state.keys) }
    });
    if phase.failed == 0 {
        State::require_every_outcome(&config, &before, &state.repository.counters())?;
    }
    end_to_end(&phase, &setup_s, &config)
}

/// Times `f` `reps` times and returns the median, ms.
fn p50_ms_of(reps: usize, mut f: impl FnMut(usize)) -> f64 {
    p50((0..reps)
        .map(|i| {
            let started = Instant::now();
            f(i);
            started.elapsed().as_secs_f64() * 1e3
        })
        .collect())
}

pub fn traced(config: RunConfig) -> Result<Traced, Refusal> {
    let mut state = State::setup(config.seed);
    let reference = Reference::build(config.doctor_expected);
    let ops = config.traced_ops(NOMINAL_OPS_PER_S);

    // Untraced and traced operations alternate, so drift over the run
    // cannot pose as tracing overhead; the counters cover both.
    let before = state.repository.counters();
    let mut tracer = Tracer::new(Instant::now());
    let (mut plain_ms, mut spanned_ms) = (Vec::new(), Vec::new());
    let phase = closed_loop(Budget::Ops(2 * ops), LIMIT_MS, |i| {
        let (index, got) = state.op();
        let ok = reference.verify(index, &got, &state.keys);
        // The tracing overhead is read on the restore path, which is most
        // operations; hits and fresh encodes would only widen both medians.
        let restored = got.outcome == CacheOutcome::MissRestored;
        if i % 2 == 0 {
            if restored {
                plain_ms.push(got.ms());
            }
            return OpResult { ms: got.ms(), ok };
        }
        let name = match got.outcome {
            CacheOutcome::Hit => "serve.repository.get.hit",
            CacheOutcome::MissRestored => "serve.repository.get.restore",
            CacheOutcome::MissFresh => "serve.repository.get.fresh",
        };
        let started = Instant::now();
        let op = tracer.record("op", got.started, got.done, None, i);
        tracer.record(name, got.started, got.done, Some(op), i);
        if restored {
            // Recording happens after the call returns, so its cost is
            // added to the operation it belongs to.
            spanned_ms.push(got.ms() + started.elapsed().as_secs_f64() * 1e3);
        }
        OpResult { ms: got.ms(), ok }
    });
    let after = state.repository.counters();
    State::require_every_outcome(&config, &before, &after)?;
    tracer
        .write_chrome_trace(&out_dir().join("trace_store_churn.json"))
        .map_err(|e| Refusal(format!("cannot write the chrome trace: {e}")))?;

    let mut traced = Traced::new(phase.attempted, phase.failed);
    traced.set(
        "serve.repository.restore_ms_p50",
        p50(tracer.durations_us("serve.repository.get.restore")) / 1e3,
    );
    traced.set(
        "serve.repository.fresh_ms_p50",
        p50(tracer.durations_us("serve.repository.get.fresh")) / 1e3,
    );
    traced.set("serve.repository.hits", (after.hits - before.hits) as f64);
    traced.set("serve.repository.restores", (after.disk_loads - before.disk_loads) as f64);
    traced
        .set("serve.repository.fresh_encodes", (after.fresh_encodes - before.fresh_encodes) as f64);
    traced.set("serve.repository.evictions", (after.evictions - before.evictions) as f64);
    traced.set(
        "serve.repository.store_gc_removed",
        (after.store_gc_removed - before.store_gc_removed) as f64,
    );
    traced.set("serve.repository.hit_rate", after.hit_rate());
    traced.set("trace.overhead_share", p50(spanned_ms) / p50(plain_ms) - 1.0);

    // The store's lifecycle calls, on the directory the run left behind.
    traced.set(
        "serve.repository.gc_store_ms_p50",
        p50_ms_of(20, |_| {
            state.repository.gc_store();
        }),
    );
    let rebooted = ModelRepository::new(GpuConfig::v100(), PROXY_DIM)
        .with_disk_cache(&state.dir)
        .with_budget(CacheBudget::unbounded())
        .with_store_budget(CacheBudget { max_entries: STORE_ENTRIES, max_bytes: u64::MAX });
    let started = Instant::now();
    let report = rebooted.warm_boot(&[state.spec], 1);
    traced.set("serve.repository.warm_boot_s", started.elapsed().as_secs_f64());
    if report.warmed() == 0 {
        return Err(Refusal("warm boot restored nothing from the populated store".to_string()));
    }

    // The layers a restore and a fresh encode are made of, on their own.
    let serialised: Vec<Vec<Vec<u8>>> = reference
        .models
        .iter()
        .map(|m| m.layers.iter().map(|l| l.weights.to_bytes()).collect())
        .collect();
    traced.set(
        "formats.serialize.to_bytes_ms_p50",
        p50_ms_of(KEYS, |i| {
            for layer in &reference.models[i].layers {
                std::hint::black_box(layer.weights.to_bytes());
            }
        }),
    );
    traced.set(
        "formats.serialize.from_bytes_ms_p50",
        p50_ms_of(KEYS, |i| {
            for bytes in &serialised[i] {
                std::hint::black_box(
                    TwoLevelBitmapMatrix::from_bytes(bytes).expect("own bytes decode"),
                );
            }
        }),
    );
    let total_bytes: usize = serialised.iter().flatten().map(Vec::len).sum();
    traced.set("formats.serialize.bytes_per_model", total_bytes as f64 / KEYS as f64);
    let dense: Vec<_> = (0..16u64)
        .map(|i| {
            RandomMatrixBuilder::new(PROXY_DIM, PROXY_DIM)
                .seed(sub_seed(config.seed, 7, i))
                .value_range(-0.5, 0.5)
                .build()
        })
        .collect();
    traced.set(
        "models.prune.ms_p50",
        p50_ms_of(dense.len(), |i| {
            std::hint::black_box(prune_magnitude(&dense[i], 0.8));
        }),
    );
    let pruned: Vec<_> = dense.iter().map(|d| prune_magnitude(d, 0.8)).collect();
    let kernel = state.repository.kernel();
    traced.set(
        "kernels.encode_b.ms_p50",
        p50_ms_of(pruned.len(), |i| {
            std::hint::black_box(kernel.encode_b(&pruned[i]));
        }),
    );
    Ok(traced)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_sequence_repeats_for_a_seed_and_differs_across_seeds() {
        let draw = |seed| KeySequence::new(seed).take(2000).collect::<Vec<_>>();
        assert_eq!(draw(11), draw(11));
        assert_ne!(draw(11), draw(12));
    }

    #[test]
    fn key_sequence_keeps_its_shares() {
        let draws: Vec<usize> = KeySequence::new(5).take(20_000).collect();
        assert!(draws.iter().all(|&k| k < KEYS));
        let hot = draws.iter().filter(|&&k| k < HOT_KEYS).count() as f64 / draws.len() as f64;
        assert!((hot - HOT_SHARE).abs() < 0.03, "hot share {hot}");
        // Only a deliberate repeat may touch one of the two most recent keys.
        let mut recent = [0usize, 1];
        let mut repeats = 0usize;
        for &key in &draws {
            if key == recent[0] {
                repeats += 1;
            } else {
                assert_ne!(key, recent[1], "a non-repeat draw hit the memory tier");
                recent = [key, recent[0]];
            }
        }
        let share = repeats as f64 / draws.len() as f64;
        assert!((share - REPEAT_SHARE).abs() < 0.01, "repeat share {share}");
    }

    #[test]
    fn the_key_set_is_twelve_distinct_keys_with_both_kinds_hot_and_cold() {
        let keys = keys();
        assert_eq!(keys.len(), KEYS);
        for (i, key) in keys.iter().enumerate() {
            assert!(!keys[..i].contains(key));
        }
        let table =
            |slice: &[ModelKey]| slice.iter().filter(|k| k.sparsity_permille.is_none()).count();
        assert_eq!(table(&keys[..HOT_KEYS]), 4);
        assert_eq!(table(&keys[HOT_KEYS..]), 2);
    }
}
