//! The pre-encoded model repository: a two-tier (memory + disk) cache of
//! device-parameterised weight encodings.
//!
//! The paper encodes pruned weights into the bitmap format **offline**
//! (Section III-A): weight sparsity is static, so re-encoding per request is
//! pure waste. [`ModelRepository`] reproduces that at the serving layer and
//! extends it in two directions:
//!
//! * **per-device encodings** — an encoded artifact is only executable on a
//!   kernel whose warp tiling it was built for, so the cache is keyed by
//!   `(ModelKey, EncodingSpec)`: a heterogeneous pool (V100 + A100) holds
//!   one artifact per device tiling and every batch executes the encoding
//!   native to the device it was dispatched to; and
//! * **persistence** — with [`ModelRepository::with_disk_cache`], every
//!   fresh prune+encode is serialised into the versioned, checksummed
//!   container of [`dsstc_formats::serialize`]. A restarted server restores
//!   the artifact from disk instead of re-encoding, so the warm-up cost is
//!   paid once per artifact *ever*, not once per process.
//!
//! One job per file: `memory` is the bounded LRU tier with its single-flight
//! set, `disk` the artifact store (naming, persist, restore, LRU-by-mtime GC
//! under a cross-process `flock`), `warm` the boot-time warmer, this file
//! the facade over them. Operational reference: `docs/ENCODING_CACHE.md`.

mod disk;
mod memory;
mod warm;

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use dsstc_kernels::bitmap_spgemm::BitmapSpGemm;
use dsstc_kernels::EncodingSpec;
use dsstc_sim::GpuConfig;

use self::disk::DiskStore;
use self::memory::MemoryTier;
pub use self::warm::WarmBootReport;
use crate::model::EncodedModel;
use crate::request::ModelKey;
use crate::telemetry::CacheOutcome;

/// Bound on one encode-cache tier. The cache LRU-evicts past either limit;
/// `Arc`s handed out keep evicted models alive for batches already holding
/// them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheBudget {
    /// Most `(model, encoding)` artifacts held at once.
    pub max_entries: usize,
    /// Most bytes held at once: modelled encoded bytes (see
    /// [`EncodedModel::encoded_bytes`]) in memory, **file** bytes on disk.
    pub max_bytes: u64,
}

impl CacheBudget {
    /// An effectively unbounded budget.
    pub fn unbounded() -> Self {
        CacheBudget { max_entries: usize::MAX, max_bytes: u64::MAX }
    }

    /// The default bound of the on-disk store tier: wider than the
    /// in-memory default (disk is cheap, artifacts are small), but still
    /// finite so a long-lived shared `--encode-cache-dir` cannot grow
    /// without bound.
    pub fn store_default() -> Self {
        CacheBudget { max_entries: 256, max_bytes: 4 << 30 }
    }
}

impl Default for CacheBudget {
    /// 64 artifacts / 512 MiB: far above any test or demo working set,
    /// while still bounding a pathological many-sparsity catalogue.
    fn default() -> Self {
        CacheBudget { max_entries: 64, max_bytes: 512 << 20 }
    }
}

/// Point-in-time counters of the two cache tiers, consumed by
/// [`crate::ServerStats`].
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct EncodeCacheStats {
    /// Lookups served from the in-memory tier.
    pub hits: u64,
    /// Lookups that missed memory (each becomes a disk load or a fresh
    /// encode).
    pub misses: u64,
    /// Misses restored from the on-disk store.
    pub disk_loads: u64,
    /// Misses that paid the full prune+encode.
    pub fresh_encodes: u64,
    /// Artifacts LRU-evicted from the in-memory tier so far.
    pub evictions: u64,
    /// Cumulative wall-clock milliseconds spent prune+encoding.
    pub fresh_encode_ms: f64,
    /// Cumulative wall-clock milliseconds spent restoring from disk.
    pub disk_load_ms: f64,
    /// Artifacts the boot warmer restored intact from the store.
    pub warm_restored: u64,
    /// Stale-spec artifacts the boot warmer re-encoded for the current
    /// device pool (and removed from the store).
    pub warm_reencoded: u64,
    /// Corrupt artifacts the boot warmer healed via a fresh encode and
    /// rewrite.
    pub warm_healed: u64,
    /// Artifacts in the store directory at its last scan (gauge).
    pub store_entries: u64,
    /// File bytes of those artifacts (gauge).
    pub store_bytes: u64,
    /// Artifacts removed by store GC so far (budget evictions plus orphan
    /// and corrupt-name sweeps).
    pub store_gc_removed: u64,
}

impl EncodeCacheStats {
    /// Fraction of lookups served from the in-memory tier.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Loads, prunes and pre-encodes models, caching the result per
/// `(model, sparsity, encoding)` key across an in-memory LRU tier and an
/// optional on-disk store.
///
/// `get` / `get_for` are cheap after the first call for a key; the counters
/// feed the server's encode-cache metrics.
#[derive(Debug)]
pub struct ModelRepository {
    proxy_dim: usize,
    base_gpu: GpuConfig,
    default_spec: EncodingSpec,
    kernel: BitmapSpGemm,
    memory: MemoryTier,
    store_budget: CacheBudget,
    disk: Option<DiskStore>,
    /// Event counters; [`Self::counters`] overlays the tiers' own gauges.
    stats: Mutex<EncodeCacheStats>,
}

impl ModelRepository {
    /// Creates an empty repository whose **default** encodings match `gpu`'s
    /// native kernel tiling and whose proxies are `proxy_dim` wide. Other
    /// devices' encodings are served through [`Self::get_for`].
    ///
    /// # Panics
    /// Panics if `proxy_dim` is zero.
    pub fn new(gpu: GpuConfig, proxy_dim: usize) -> Self {
        assert!(proxy_dim > 0, "proxy dimension must be non-zero");
        ModelRepository {
            proxy_dim,
            default_spec: EncodingSpec::for_gpu(&gpu),
            kernel: BitmapSpGemm::for_device(gpu.clone()),
            base_gpu: gpu,
            memory: MemoryTier::default(),
            store_budget: CacheBudget::store_default(),
            disk: None,
            stats: Mutex::default(),
        }
    }

    /// Enables the on-disk tier under `dir` (created if missing): fresh
    /// encodes are persisted, and later repositories pointed at the same
    /// directory restore them instead of re-encoding.
    pub fn with_disk_cache(mut self, dir: impl Into<PathBuf>) -> Self {
        self.disk = Some(DiskStore::new(dir.into(), self.proxy_dim, self.store_budget));
        self
    }

    /// Overrides the in-memory cache budget.
    pub fn with_budget(mut self, budget: CacheBudget) -> Self {
        self.memory.budget = budget;
        self
    }

    /// Overrides the on-disk store budget (entries + **file** bytes).
    /// Enforced by [`Self::gc_store`], by [`Self::warm_boot`], and on every
    /// store touch (restore or persist).
    pub fn with_store_budget(mut self, budget: CacheBudget) -> Self {
        self.store_budget = budget;
        if let Some(disk) = &mut self.disk {
            disk.budget = budget;
        }
        self
    }

    /// Feature width requests must supply.
    pub fn input_dim(&self) -> usize {
        self.proxy_dim
    }

    /// The on-disk store directory, if persistence is enabled.
    pub fn disk_cache_dir(&self) -> Option<&Path> {
        self.disk.as_ref().map(|disk| disk.dir.as_path())
    }

    /// The default encoding identity (the primary device's).
    pub fn default_spec(&self) -> EncodingSpec {
        self.default_spec
    }

    /// The SpGEMM kernel matching the default encoding spec.
    pub fn kernel(&self) -> &BitmapSpGemm {
        &self.kernel
    }

    /// A kernel able to produce and execute encodings under `spec` (cheap
    /// to build; per-device workers hold their own).
    pub fn kernel_for(&self, spec: EncodingSpec) -> BitmapSpGemm {
        BitmapSpGemm::new(self.base_gpu.clone()).with_tiling(spec.tiling)
    }

    /// Returns the encoded model for `key` under the default spec (see
    /// [`Self::get_for`]).
    pub fn get(&self, key: ModelKey) -> Arc<EncodedModel> {
        self.get_for(key, self.default_spec)
    }

    /// Returns the model encoded for `spec`, loading it on the first
    /// request (a cache **miss**: restored from disk when the store has it,
    /// freshly prune+encoded otherwise) and reusing the cached artifact on
    /// every later one (a **hit**).
    ///
    /// The cache lock is **not** held while encoding: a miss marks the key
    /// in-flight, drops the lock, loads, then publishes. Concurrent callers
    /// for the same key block until the single load finishes (counted as
    /// hits — they are served from the cache); callers for other keys are
    /// unaffected.
    pub fn get_for(&self, key: ModelKey, spec: EncodingSpec) -> Arc<EncodedModel> {
        self.get_for_traced(key, spec).0
    }

    /// [`Self::get_for`], additionally reporting how the lookup was
    /// satisfied — an in-memory [`CacheOutcome::Hit`], a miss restored
    /// from the on-disk store, or a miss that paid the full prune+encode —
    /// so workers can stamp the outcome onto the request trace.
    pub fn get_for_traced(
        &self,
        key: ModelKey,
        spec: EncodingSpec,
    ) -> (Arc<EncodedModel>, CacheOutcome) {
        let (model, hit) = self.memory.get_or_load(key, spec, || {
            self.count(|stats| stats.misses += 1);
            self.load(key, spec)
        });
        if hit {
            self.count(|stats| stats.hits += 1);
            return (model, CacheOutcome::Hit);
        }
        let outcome =
            if model.from_disk { CacheOutcome::MissRestored } else { CacheOutcome::MissFresh };
        (model, outcome)
    }

    /// The slow path behind a memory miss: restore from the disk store when
    /// possible, prune+encode (and persist) otherwise.
    fn load(&self, key: ModelKey, spec: EncodingSpec) -> EncodedModel {
        if let Some(model) = self.disk.as_ref().and_then(|disk| disk.restore(key, spec).ok()) {
            self.count(|stats| {
                stats.disk_loads += 1;
                stats.disk_load_ms += model.encode_ms;
            });
            return model;
        }
        // Missing, stale-version or corrupt artifact (or no disk tier): a
        // fresh encode, which rewrites the file.
        let model = EncodedModel::encode_fresh(&self.kernel_for(spec), key, self.proxy_dim);
        self.count(|stats| {
            stats.fresh_encodes += 1;
            stats.fresh_encode_ms += model.encode_ms;
        });
        if let Some(disk) = &self.disk {
            // Best effort: a failed persist only costs the next restart its
            // warm start.
            let _ = disk.persist(&model);
        }
        model
    }

    fn count(&self, bump: impl FnOnce(&mut EncodeCacheStats)) {
        bump(&mut self.stats.lock().expect("no holder of the stats mutex panics"));
    }

    /// Garbage-collects the on-disk store back under its budget right now
    /// and returns how many artifacts were removed. No-op without a disk
    /// tier.
    pub fn gc_store(&self) -> u64 {
        self.disk.as_ref().and_then(|disk| disk.locked(|entries| disk.gc(entries))).unwrap_or(0)
    }

    /// Fraction of `get` calls served from the in-memory cache.
    pub fn hit_rate(&self) -> f64 {
        self.counters().hit_rate()
    }

    /// A snapshot of every cache counter.
    pub fn counters(&self) -> EncodeCacheStats {
        let (store_entries, store_bytes, store_gc_removed) =
            self.disk.as_ref().map_or((0, 0, 0), DiskStore::gauges);
        EncodeCacheStats {
            evictions: self.memory.usage().2,
            store_entries,
            store_bytes,
            store_gc_removed,
            ..*self.stats.lock().expect("no holder of the stats mutex panics")
        }
    }

    /// Number of distinct artifacts currently held in memory.
    pub fn len(&self) -> usize {
        self.memory.usage().0
    }

    /// Whether no artifact is held in memory.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Modelled bytes currently held by the in-memory tier.
    pub fn cached_bytes(&self) -> u64 {
        self.memory.usage().1
    }
}

#[cfg(test)]
pub(crate) use self::disk::{artifact_name, lock_store, parse_artifact_name};
