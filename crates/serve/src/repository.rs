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
//! The in-memory tier is bounded: past a configurable entry/byte
//! [`CacheBudget`], least-recently-used artifacts are evicted (in-flight
//! `Arc`s keep evicted models alive for their current batches).
//!
//! The disk tier has a **lifecycle** of its own (see
//! `docs/ENCODING_CACHE.md`): a checksummed `MANIFEST.dsstcm` tracks every
//! artifact's size and last-restore time; the store is GC'd back under its
//! own [`CacheBudget`] (LRU by last restore) whenever it is touched;
//! [`ModelRepository::warm_boot`] walks the store at startup with bounded
//! worker threads, restoring artifacts into the memory tier (healing
//! corrupt ones via a fresh encode and re-encoding stale-spec ones for the
//! current device pool) so the first request after a restart is a memory
//! hit; and every store mutation runs under a cross-process `flock` so two
//! servers sharing a directory cannot interleave GC with writes.
//!
//! Each served model carries two representations:
//!
//! * a **functional proxy** — one `proxy_dim x proxy_dim` GEMM per network
//!   layer whose weights are deterministically generated, magnitude-pruned
//!   to the layer's weight sparsity and pre-encoded. Request features flow
//!   through it on the actual dual-side SpGEMM kernel, so responses carry
//!   real outputs; and
//! * the **real layer table** — used by [`crate::BatchTimingModel`] to
//!   charge the modelled GPU time of the full-size network at the batch's
//!   size.

use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use dsstc_formats::serialize::fnv1a;
use dsstc_formats::{CodecError, TwoLevelBitmapMatrix};
use dsstc_kernels::bitmap_spgemm::BitmapSpGemm;
use dsstc_kernels::EncodingSpec;
use dsstc_models::{prune_magnitude, Layer, Network};
use dsstc_sim::GpuConfig;
use dsstc_tensor::{Matrix, RandomMatrixBuilder};

use crate::request::ModelKey;
use crate::telemetry::CacheOutcome;

/// Magic of the on-disk encoded-model artifact (a thin header over the
/// per-layer containers of [`dsstc_formats::serialize`]).
const STORE_MAGIC: [u8; 4] = *b"DSMR";

/// Version of the artifact header. Bump on layout change; mismatches fall
/// back to a fresh encode (and overwrite the stale file).
const STORE_VERSION: u16 = 1;

/// Filename of the store manifest that tracks every artifact's size and
/// last-restore time (the GC's LRU key). Deliberately not `.dsstc` so
/// store scans never mistake it for an artifact.
const MANIFEST_NAME: &str = "MANIFEST.dsstcm";

/// First line of a valid manifest; the trailing integer is the format
/// version. Unknown versions (or any parse/checksum failure) cause a
/// rebuild from a directory scan, never an error.
const MANIFEST_HEADER: &str = "dsstc-store-manifest 1";

/// Filename of the zero-length file the cross-process store lock is taken
/// on (`flock`, advisory — see [`store_lock`]).
const STORE_LOCK_NAME: &str = ".dsstc-store.lock";

/// Monotonic per-process sequence for unique temp-file names (artifacts and
/// manifests share it).
static WRITE_SEQ: AtomicU64 = AtomicU64::new(0);

/// One layer of a served model: the pre-encoded proxy weights plus the real
/// layer descriptor the timing model charges.
#[derive(Clone, Debug)]
pub struct EncodedLayer {
    /// Layer name (from the network table).
    pub name: String,
    /// Proxy weights in the kernel's two-level bitmap B-operand layout,
    /// encoded once at load time.
    pub weights: TwoLevelBitmapMatrix,
    /// Whether ReLU follows this layer in the functional proxy.
    pub relu: bool,
    /// The real layer (shape + sparsities, with any uniform override
    /// applied) used for modelled timing.
    pub layer: Layer,
}

/// A fully loaded model: pruned, encoded, ready to serve.
#[derive(Clone, Debug)]
pub struct EncodedModel {
    /// The cache key this model was loaded under.
    pub key: ModelKey,
    /// The encoding identity (device tiling + operand layouts) the weights
    /// were encoded for; only a kernel with the same spec can execute them.
    pub spec: EncodingSpec,
    /// The real network table (with any sparsity override applied).
    pub network: Network,
    /// Feature width requests must supply.
    pub input_dim: usize,
    /// Pre-encoded layers in execution order.
    pub layers: Vec<EncodedLayer>,
    /// Wall-clock milliseconds spent obtaining the artifact — a fresh
    /// prune+encode on the cold path, a disk restore on the warm path (the
    /// cost the two cache tiers amortise away).
    pub encode_ms: f64,
    /// Whether the artifact was restored from the on-disk store instead of
    /// freshly encoded.
    pub from_disk: bool,
}

impl EncodedModel {
    /// Runs `input` (rows = samples, `input_dim` columns) through every
    /// pre-encoded proxy layer on the dual-side SpGEMM kernel and returns
    /// the final features.
    ///
    /// # Panics
    /// Panics if `input` does not have `input_dim` columns or `kernel`'s
    /// encoding spec differs from the one the weights were encoded for.
    pub fn forward(&self, kernel: &BitmapSpGemm, input: &Matrix) -> Matrix {
        assert_eq!(input.cols(), self.input_dim, "feature width mismatch");
        assert_eq!(
            kernel.encoding_spec(),
            self.spec,
            "kernel encoding spec does not match the model's"
        );
        let mut x: Option<Matrix> = None;
        for layer in &self.layers {
            let a_enc = kernel.encode_a(x.as_ref().unwrap_or(input));
            let mut y = kernel.execute_encoded(&a_enc, &layer.weights);
            if layer.relu {
                y.relu_in_place();
            }
            x = Some(y);
        }
        x.unwrap_or_else(|| input.clone())
    }

    /// Total non-zeros stored across the encoded proxy weights.
    pub fn encoded_nnz(&self) -> usize {
        self.layers.iter().map(|l| l.weights.nnz()).sum()
    }

    /// Modelled storage footprint of the encoded weights in bytes (FP16
    /// values + bitmaps) — what the in-memory cache budget charges.
    pub fn encoded_bytes(&self) -> u64 {
        self.layers.iter().map(|l| l.weights.storage().total()).sum()
    }
}

/// Bound on the in-memory encode-cache tier. The cache LRU-evicts past
/// either limit; `Arc`s handed out keep evicted models alive for batches
/// already holding them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheBudget {
    /// Most `(model, encoding)` artifacts held at once.
    pub max_entries: usize,
    /// Most modelled encoded bytes (see [`EncodedModel::encoded_bytes`])
    /// held at once.
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
    /// without bound. Here `max_bytes` counts **file** bytes, not modelled
    /// encoded bytes.
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
    /// Artifacts currently tracked by the store manifest (gauge).
    pub store_entries: u64,
    /// File bytes currently tracked by the store manifest (gauge).
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

/// What [`ModelRepository::warm_boot`] did: how many artifacts it restored,
/// re-encoded for the current pool, healed after corruption, skipped, and
/// garbage-collected.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct WarmBootReport {
    /// Artifacts restored intact into the memory tier.
    pub restored: u64,
    /// Stale-spec artifacts re-encoded for the current device pool and
    /// removed from the store.
    pub reencoded: u64,
    /// Corrupt artifacts healed via a fresh encode (the store copy is
    /// rewritten in place).
    pub healed: u64,
    /// Artifacts left on disk untouched (foreign proxy width — they still
    /// count against the store budget but cannot serve this repository).
    pub skipped: u64,
    /// Files swept because they are not valid artifacts (leftover temp
    /// files, unparseable names).
    pub orphans_removed: u64,
    /// Artifacts LRU-evicted to bring the store back under its budget.
    pub gc_removed: u64,
    /// Wall-clock milliseconds the warm boot took end to end.
    pub elapsed_ms: f64,
}

impl WarmBootReport {
    /// Artifacts the warmer materialised into the memory tier (restored +
    /// re-encoded + healed).
    pub fn warmed(&self) -> u64 {
        self.restored + self.reencoded + self.healed
    }
}

/// One artifact tracked by the store manifest.
#[derive(Clone, Debug, PartialEq, Eq)]
struct ManifestEntry {
    /// Artifact filename (no directory component; artifact names never
    /// contain whitespace, which keeps the manifest line format trivial).
    file: String,
    /// File size in bytes at the last manifest update.
    bytes: u64,
    /// Microseconds since the Unix epoch of the last restore (or persist)
    /// of this artifact — the GC's LRU key.
    last_restore_us: u64,
    /// The encoding-spec id recorded in the artifact name; compared against
    /// the device pool's specs to detect stale encodings at warm boot.
    spec_id: String,
}

/// A warm-boot work item: either restore an artifact for a spec the current
/// pool uses, or re-encode a stale-spec artifact's model for the pool.
enum WarmJob {
    Restore { key: ModelKey, spec: EncodingSpec },
    Reencode { key: ModelKey, file: String },
}

/// Microseconds since the Unix epoch (0 if the clock is before it).
fn unix_now_us() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_micros() as u64)
}

/// Parses an artifact filename (`{slug}-{s####|table}-d{dim}-{spec}.dsstc`)
/// back into its identity. `None` for anything that is not a well-formed
/// artifact name — those are orphans the warm-boot sweep removes.
fn parse_artifact_name(name: &str) -> Option<(ModelKey, usize, &str)> {
    let stem = name.strip_suffix(".dsstc")?;
    let mut parts = stem.splitn(4, '-');
    let slug = parts.next()?;
    let sparsity = parts.next()?;
    let dim = parts.next()?;
    let spec_id = parts.next()?;
    let model = crate::request::ModelId::ALL.into_iter().find(|m| m.slug() == slug)?;
    let sparsity_permille = if sparsity == "table" {
        None
    } else {
        let permille: u16 = sparsity.strip_prefix('s')?.parse().ok()?;
        if permille > 1000 {
            return None;
        }
        Some(permille)
    };
    let proxy_dim: usize = dim.strip_prefix('d')?.parse().ok()?;
    if proxy_dim == 0 || spec_id.is_empty() {
        return None;
    }
    Some((ModelKey { model, sparsity_permille }, proxy_dim, spec_id))
}

/// Reads and verifies the manifest. `None` on any missing file, bad
/// header, parse failure or checksum mismatch — callers rebuild from a
/// directory scan, so a corrupt manifest self-heals instead of erroring.
fn read_manifest(dir: &Path) -> Option<Vec<ManifestEntry>> {
    let text = std::fs::read_to_string(dir.join(MANIFEST_NAME)).ok()?;
    let (body, checksum_line) = text.rsplit_once("fnv ")?;
    let want = u64::from_str_radix(checksum_line.trim(), 16).ok()?;
    if fnv1a(body.as_bytes()) != want {
        return None;
    }
    let mut lines = body.lines();
    if lines.next()? != MANIFEST_HEADER {
        return None;
    }
    let mut entries = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let mut fields = line.split_whitespace();
        let last_restore_us = fields.next()?.parse().ok()?;
        let bytes = fields.next()?.parse().ok()?;
        let spec_id = fields.next()?.to_string();
        let file = fields.next()?.to_string();
        if fields.next().is_some() {
            return None;
        }
        entries.push(ManifestEntry { file, bytes, last_restore_us, spec_id });
    }
    Some(entries)
}

/// Serialises and atomically replaces the manifest (temp + rename, like
/// artifact writes, so a crash mid-write never publishes a torn manifest).
fn write_manifest(dir: &Path, entries: &[ManifestEntry]) -> std::io::Result<()> {
    let mut body = String::new();
    body.push_str(MANIFEST_HEADER);
    body.push('\n');
    for e in entries {
        body.push_str(&format!("{} {} {} {}\n", e.last_restore_us, e.bytes, e.spec_id, e.file));
    }
    let text = format!("{body}fnv {:016x}\n", fnv1a(body.as_bytes()));
    let path = dir.join(MANIFEST_NAME);
    let tmp = path.with_extension(format!(
        "dsstcm.tmp-{}-{}",
        std::process::id(),
        WRITE_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let result = std::fs::write(&tmp, text.as_bytes()).and_then(|()| std::fs::rename(&tmp, &path));
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
    result
}

/// Rebuilds manifest entries from a directory scan: every `.dsstc` file,
/// sized from its metadata, last-restore approximated by mtime, spec id
/// parsed from the name (empty when unparseable — the warm-boot sweep
/// removes those). This is the self-healing path behind a missing or
/// corrupt manifest.
fn scan_store(dir: &Path) -> Vec<ManifestEntry> {
    let mut entries = Vec::new();
    let Ok(read_dir) = std::fs::read_dir(dir) else {
        return entries;
    };
    for entry in read_dir.flatten() {
        let Ok(name) = entry.file_name().into_string() else {
            continue;
        };
        if !name.ends_with(".dsstc") {
            continue;
        }
        let Ok(meta) = entry.metadata() else {
            continue;
        };
        let modified_us = meta
            .modified()
            .ok()
            .and_then(|t| t.duration_since(std::time::UNIX_EPOCH).ok())
            .map_or(0, |d| d.as_micros() as u64);
        let spec_id =
            parse_artifact_name(&name).map_or(String::new(), |(_, _, spec)| spec.to_string());
        entries.push(ManifestEntry {
            file: name,
            bytes: meta.len(),
            last_restore_us: modified_us,
            spec_id,
        });
    }
    entries.sort_by(|a, b| a.file.cmp(&b.file));
    entries
}

/// Sum of manifest file sizes.
fn manifest_bytes(entries: &[ManifestEntry]) -> u64 {
    entries.iter().map(|e| e.bytes).sum()
}

#[derive(Debug)]
struct CacheEntry {
    model: Arc<EncodedModel>,
    bytes: u64,
    last_used: u64,
}

/// Cache map plus the set of keys currently being encoded, so the mutex is
/// never held across a (slow) load: concurrent `get`s for *other* keys
/// proceed, and only same-key callers wait.
#[derive(Debug, Default)]
struct CacheState {
    models: HashMap<(ModelKey, EncodingSpec), CacheEntry>,
    in_flight: HashSet<(ModelKey, EncodingSpec)>,
    tick: u64,
    total_bytes: u64,
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
    budget: CacheBudget,
    store_budget: CacheBudget,
    disk_dir: Option<PathBuf>,
    cache: Mutex<CacheState>,
    loaded: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
    disk_loads: AtomicU64,
    fresh_encodes: AtomicU64,
    evictions: AtomicU64,
    fresh_encode_us: AtomicU64,
    disk_load_us: AtomicU64,
    warm_restored: AtomicU64,
    warm_reencoded: AtomicU64,
    warm_healed: AtomicU64,
    store_gc_removed: AtomicU64,
    store_entries: AtomicU64,
    store_bytes: AtomicU64,
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
            budget: CacheBudget::default(),
            store_budget: CacheBudget::store_default(),
            disk_dir: None,
            cache: Mutex::new(CacheState::default()),
            loaded: Condvar::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            disk_loads: AtomicU64::new(0),
            fresh_encodes: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            fresh_encode_us: AtomicU64::new(0),
            disk_load_us: AtomicU64::new(0),
            warm_restored: AtomicU64::new(0),
            warm_reencoded: AtomicU64::new(0),
            warm_healed: AtomicU64::new(0),
            store_gc_removed: AtomicU64::new(0),
            store_entries: AtomicU64::new(0),
            store_bytes: AtomicU64::new(0),
        }
    }

    /// Enables the on-disk tier under `dir` (created if missing): fresh
    /// encodes are persisted, and later repositories pointed at the same
    /// directory restore them instead of re-encoding.
    pub fn with_disk_cache(mut self, dir: impl Into<PathBuf>) -> Self {
        let dir = dir.into();
        let _ = std::fs::create_dir_all(&dir); // best effort; store() retries
        self.disk_dir = Some(dir);
        self
    }

    /// Overrides the in-memory cache budget.
    pub fn with_budget(mut self, budget: CacheBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Overrides the on-disk store budget (entries + **file** bytes).
    /// Enforced by [`Self::gc_store`], by [`Self::warm_boot`], and on every
    /// store touch (restore or persist).
    pub fn with_store_budget(mut self, budget: CacheBudget) -> Self {
        self.store_budget = budget;
        self
    }

    /// Feature width requests must supply.
    pub fn input_dim(&self) -> usize {
        self.proxy_dim
    }

    /// The in-memory budget in force.
    pub fn budget(&self) -> CacheBudget {
        self.budget
    }

    /// The on-disk store budget in force.
    pub fn store_budget(&self) -> CacheBudget {
        self.store_budget
    }

    /// Last-known `(entries, file bytes)` of the on-disk store, from the
    /// most recent manifest update (both 0 until the store is touched).
    pub fn store_usage(&self) -> (u64, u64) {
        (self.store_entries.load(Ordering::Relaxed), self.store_bytes.load(Ordering::Relaxed))
    }

    /// The on-disk store directory, if persistence is enabled.
    pub fn disk_cache_dir(&self) -> Option<&Path> {
        self.disk_dir.as_deref()
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
        let cache_key = (key, spec);
        let mut cache = self.cache.lock().expect("repository mutex poisoned");
        loop {
            cache.tick += 1;
            let tick = cache.tick;
            if let Some(entry) = cache.models.get_mut(&cache_key) {
                entry.last_used = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return (Arc::clone(&entry.model), CacheOutcome::Hit);
            }
            if cache.in_flight.insert(cache_key) {
                break; // this caller owns the load
            }
            // Someone else is encoding this key; wait for them to publish.
            cache = self.loaded.wait(cache).expect("repository mutex poisoned");
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        drop(cache);
        let model = Arc::new(self.load(key, spec));
        let outcome =
            if model.from_disk { CacheOutcome::MissRestored } else { CacheOutcome::MissFresh };
        let mut cache = self.cache.lock().expect("repository mutex poisoned");
        cache.tick += 1;
        let entry = CacheEntry {
            bytes: model.encoded_bytes(),
            last_used: cache.tick,
            model: Arc::clone(&model),
        };
        cache.total_bytes += entry.bytes;
        cache.models.insert(cache_key, entry);
        self.evict_over_budget(&mut cache);
        cache.in_flight.remove(&cache_key);
        self.loaded.notify_all();
        (model, outcome)
    }

    /// Evicts least-recently-used entries until the budget holds, keeping
    /// at least one entry (the most recent insert always survives its own
    /// arrival).
    fn evict_over_budget(&self, cache: &mut CacheState) {
        while cache.models.len() > 1
            && (cache.models.len() > self.budget.max_entries
                || cache.total_bytes > self.budget.max_bytes)
        {
            let victim = cache
                .models
                .iter()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(&k, _)| k)
                .expect("non-empty cache");
            if let Some(entry) = cache.models.remove(&victim) {
                cache.total_bytes -= entry.bytes;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Cache hits so far.
    pub fn hit_count(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cache misses (= disk loads + fresh encodes) so far.
    pub fn miss_count(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Fraction of `get` calls served from the in-memory cache.
    pub fn hit_rate(&self) -> f64 {
        self.counters().hit_rate()
    }

    /// A snapshot of every cache counter.
    pub fn counters(&self) -> EncodeCacheStats {
        EncodeCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            disk_loads: self.disk_loads.load(Ordering::Relaxed),
            fresh_encodes: self.fresh_encodes.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            fresh_encode_ms: self.fresh_encode_us.load(Ordering::Relaxed) as f64 / 1e3,
            disk_load_ms: self.disk_load_us.load(Ordering::Relaxed) as f64 / 1e3,
            warm_restored: self.warm_restored.load(Ordering::Relaxed),
            warm_reencoded: self.warm_reencoded.load(Ordering::Relaxed),
            warm_healed: self.warm_healed.load(Ordering::Relaxed),
            store_entries: self.store_entries.load(Ordering::Relaxed),
            store_bytes: self.store_bytes.load(Ordering::Relaxed),
            store_gc_removed: self.store_gc_removed.load(Ordering::Relaxed),
        }
    }

    /// Number of distinct artifacts currently held in memory.
    pub fn len(&self) -> usize {
        self.cache.lock().expect("repository mutex poisoned").models.len()
    }

    /// Whether no artifact is held in memory.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Modelled bytes currently held by the in-memory tier.
    pub fn cached_bytes(&self) -> u64 {
        self.cache.lock().expect("repository mutex poisoned").total_bytes
    }

    /// The slow path behind a memory miss: restore from the disk store when
    /// possible, prune+encode (and persist) otherwise.
    fn load(&self, key: ModelKey, spec: EncodingSpec) -> EncodedModel {
        if let Some(dir) = &self.disk_dir {
            let path = self.artifact_path(dir, key, spec);
            let started = Instant::now();
            if let Ok(model) = self.restore(&path, key, spec) {
                let us = started.elapsed().as_micros() as u64;
                self.disk_loads.fetch_add(1, Ordering::Relaxed);
                self.disk_load_us.fetch_add(us, Ordering::Relaxed);
                self.note_store_touch(dir, &path);
                return model;
            }
            // Missing, stale-version or corrupt artifact: fall through to a
            // fresh encode, which rewrites the file below.
        }
        let started = Instant::now();
        let model = self.encode_fresh(key, spec);
        let us = started.elapsed().as_micros() as u64;
        self.fresh_encodes.fetch_add(1, Ordering::Relaxed);
        self.fresh_encode_us.fetch_add(us, Ordering::Relaxed);
        if let Some(dir) = &self.disk_dir {
            // Best effort: a failed persist only costs the next restart its
            // warm start.
            if self.persist(dir, &model).is_ok() {
                let path = self.artifact_path(dir, key, spec);
                self.note_store_touch(dir, &path);
            }
        }
        model
    }

    /// Prunes + encodes one model for `spec` (the cold path).
    fn encode_fresh(&self, key: ModelKey, spec: EncodingSpec) -> EncodedModel {
        let started = Instant::now();
        let kernel = self.kernel_for(spec);
        // The real layer table with the uniform sparsity override applied,
        // so both the proxy weights and the timing model see it.
        let network = key.network();
        let layers_effective: Vec<Layer> = network.layers().to_vec();
        let relu = key.model.uses_relu();
        let layers = layers_effective
            .into_iter()
            .enumerate()
            .map(|(i, layer)| {
                let dense = RandomMatrixBuilder::new(self.proxy_dim, self.proxy_dim)
                    .seed(proxy_seed(key, i))
                    .value_range(-0.5, 0.5)
                    .build();
                let pruned = prune_magnitude(&dense, layer.weight_sparsity);
                EncodedLayer {
                    name: layer.name.clone(),
                    weights: kernel.encode_b(&pruned),
                    relu,
                    layer,
                }
            })
            .collect();
        EncodedModel {
            key,
            spec,
            network,
            input_dim: self.proxy_dim,
            layers,
            encode_ms: started.elapsed().as_secs_f64() * 1e3,
            from_disk: false,
        }
    }

    /// The on-disk artifact path for one `(model, sparsity, proxy,
    /// encoding)` identity.
    fn artifact_path(&self, dir: &Path, key: ModelKey, spec: EncodingSpec) -> PathBuf {
        let sparsity = match key.sparsity_permille {
            Some(p) => format!("s{p:04}"),
            None => "table".to_string(),
        };
        dir.join(format!(
            "{}-{}-d{}-{}.dsstc",
            key.model.slug(),
            sparsity,
            self.proxy_dim,
            spec.id()
        ))
    }

    /// Restores one artifact from disk, fully validating the header and
    /// every per-layer container against the expected identity.
    fn restore(
        &self,
        path: &Path,
        key: ModelKey,
        spec: EncodingSpec,
    ) -> Result<EncodedModel, CodecError> {
        let started = Instant::now();
        let file = std::fs::File::open(path)?;
        let mut reader = std::io::BufReader::new(file);
        let mut header = [0u8; 4 + 2 + 4];
        std::io::Read::read_exact(&mut reader, &mut header)?;
        if header[..4] != STORE_MAGIC {
            return Err(CodecError::BadMagic([header[0], header[1], header[2], header[3]]));
        }
        let version = u16::from_le_bytes([header[4], header[5]]);
        if version != STORE_VERSION {
            return Err(CodecError::UnsupportedVersion(version));
        }
        let layer_count = u32::from_le_bytes([header[6], header[7], header[8], header[9]]);
        let network = key.network();
        if layer_count as usize != network.layers().len() {
            return Err(CodecError::Malformed("layer count does not match the network table"));
        }
        let relu = key.model.uses_relu();
        let mut layers = Vec::with_capacity(layer_count as usize);
        for layer in network.layers() {
            let weights = TwoLevelBitmapMatrix::read_from(&mut reader)?;
            if weights.rows() != self.proxy_dim || weights.cols() != self.proxy_dim {
                return Err(CodecError::Malformed("weight shape does not match the proxy"));
            }
            if !spec.matches_b(&weights) {
                return Err(CodecError::Malformed("weight encoding does not match the spec"));
            }
            layers.push(EncodedLayer {
                name: layer.name.clone(),
                weights,
                relu,
                layer: layer.clone(),
            });
        }
        Ok(EncodedModel {
            key,
            spec,
            network,
            input_dim: self.proxy_dim,
            layers,
            encode_ms: started.elapsed().as_secs_f64() * 1e3,
            from_disk: true,
        })
    }

    /// Persists one artifact: written to a temporary sibling first, then
    /// atomically renamed into place so a crash mid-write never leaves a
    /// half-artifact under the final name. The temp name is unique per
    /// process and write, so concurrent writers sharing one cache dir never
    /// interleave into (and then publish) one file — the last complete
    /// rename wins, every published artifact is internally consistent.
    fn persist(&self, dir: &Path, model: &EncodedModel) -> Result<(), CodecError> {
        std::fs::create_dir_all(dir)?;
        let path = self.artifact_path(dir, model.key, model.spec);
        let tmp = path.with_extension(format!(
            "tmp-{}-{}",
            std::process::id(),
            WRITE_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let write = || -> Result<(), CodecError> {
            let file = std::fs::File::create(&tmp)?;
            let mut writer = std::io::BufWriter::new(file);
            writer.write_all(&STORE_MAGIC)?;
            writer.write_all(&STORE_VERSION.to_le_bytes())?;
            writer.write_all(&(model.layers.len() as u32).to_le_bytes())?;
            for layer in &model.layers {
                layer.weights.write_to(&mut writer)?;
            }
            writer.flush()?;
            std::fs::rename(&tmp, &path)?;
            Ok(())
        };
        let result = write();
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        result
    }

    /// Records a restore/persist of `path` in the store manifest (upserting
    /// the entry as most-recently-used) and GCs the store back under its
    /// budget, all under the cross-process store lock. Best effort: a
    /// failed lock or manifest write costs bookkeeping, never correctness.
    fn note_store_touch(&self, dir: &Path, path: &Path) {
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            return;
        };
        let Some(_lock) = store_lock::StoreLock::acquire(dir) else {
            return;
        };
        let mut entries = read_manifest(dir).unwrap_or_else(|| scan_store(dir));
        entries.retain(|e| dir.join(&e.file).exists());
        let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
        // Strictly-greater-than-everything timestamp so LRU order is exact
        // even under coarse (or backwards-stepping) system clocks.
        let now = unix_now_us()
            .max(entries.iter().map(|e| e.last_restore_us).max().unwrap_or(0).saturating_add(1));
        let spec_id =
            parse_artifact_name(name).map_or(String::new(), |(_, _, spec)| spec.to_string());
        match entries.iter_mut().find(|e| e.file == name) {
            Some(entry) => {
                entry.bytes = bytes;
                entry.last_restore_us = now;
            }
            None => entries.push(ManifestEntry {
                file: name.to_string(),
                bytes,
                last_restore_us: now,
                spec_id,
            }),
        }
        self.gc_entries(dir, &mut entries);
        let _ = write_manifest(dir, &entries);
        self.update_store_gauges(&entries);
    }

    /// Evicts artifacts until the store budget holds (keeping at least
    /// one, mirroring the memory tier), deleting both the file and its
    /// manifest entry. **Foreign-proxy-width artifacts go first**: warm
    /// boot skips them (this repository can never restore them) yet their
    /// bytes still count against the budget, so they must not be able to
    /// squeeze out artifacts this process actually serves from. Within
    /// each class eviction is least-recently-restored, with timestamp ties
    /// broken by filename so GC order is deterministic. Returns how many
    /// were removed. Caller holds the store lock.
    fn gc_entries(&self, dir: &Path, entries: &mut Vec<ManifestEntry>) -> u64 {
        let native = |e: &ManifestEntry| {
            parse_artifact_name(&e.file).is_some_and(|(_, dim, _)| dim == self.proxy_dim)
        };
        let mut removed = 0;
        while entries.len() > 1
            && (entries.len() > self.store_budget.max_entries
                || manifest_bytes(entries) > self.store_budget.max_bytes)
        {
            let victim = entries
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    native(a)
                        .cmp(&native(b))
                        .then_with(|| a.last_restore_us.cmp(&b.last_restore_us))
                        .then_with(|| a.file.cmp(&b.file))
                })
                .map(|(i, _)| i)
                .expect("non-empty entries");
            let entry = entries.remove(victim);
            let _ = std::fs::remove_file(dir.join(&entry.file));
            removed += 1;
        }
        self.store_gc_removed.fetch_add(removed, Ordering::Relaxed);
        removed
    }

    /// Publishes the manifest's entry/byte totals to the store gauges.
    fn update_store_gauges(&self, entries: &[ManifestEntry]) {
        self.store_entries.store(entries.len() as u64, Ordering::Relaxed);
        self.store_bytes.store(manifest_bytes(entries), Ordering::Relaxed);
    }

    /// Garbage-collects the on-disk store back under its budget right now
    /// (reading — or rebuilding — the manifest under the store lock) and
    /// returns how many artifacts were removed. No-op without a disk tier.
    pub fn gc_store(&self) -> u64 {
        let Some(dir) = self.disk_dir.clone() else {
            return 0;
        };
        let Some(_lock) = store_lock::StoreLock::acquire(&dir) else {
            return 0;
        };
        let mut entries = read_manifest(&dir).unwrap_or_else(|| scan_store(&dir));
        entries.retain(|e| dir.join(&e.file).exists());
        let removed = self.gc_entries(&dir, &mut entries);
        let _ = write_manifest(&dir, &entries);
        self.update_store_gauges(&entries);
        removed
    }

    /// Removes one artifact (and its manifest entry) from the store, under
    /// the store lock. Used when warm boot re-encodes a stale-spec
    /// artifact: the replacement was persisted under its own name.
    fn remove_store_entry(&self, dir: &Path, file: &str) {
        let Some(_lock) = store_lock::StoreLock::acquire(dir) else {
            return;
        };
        let mut entries = read_manifest(dir).unwrap_or_else(|| scan_store(dir));
        entries.retain(|e| e.file != file);
        entries.retain(|e| dir.join(&e.file).exists());
        let _ = std::fs::remove_file(dir.join(file));
        let _ = write_manifest(dir, &entries);
        self.update_store_gauges(&entries);
    }

    /// Walks the on-disk store at startup with at most `threads` worker
    /// threads (0 = the host's available parallelism) and restores every
    /// artifact usable under one of `specs` into the memory tier, so the
    /// first request after a restart is a memory **hit**.
    ///
    /// Before any restore, under the cross-process store lock: leftover
    /// temp files and unparseable artifact names are swept, the manifest is
    /// read (or rebuilt from a directory scan if missing/corrupt), and the
    /// store is GC'd back under its budget. Then, lock released, the
    /// surviving artifacts are processed oldest-first (so the most recently
    /// used end up most recent in the memory LRU):
    ///
    /// * artifacts whose spec id matches one of `specs` are **restored**
    ///   (a corrupt payload self-heals through the normal fresh-encode
    ///   fallback and is counted as **healed**);
    /// * artifacts for this proxy width whose spec no device uses any more
    ///   are **re-encoded** for every wanted spec and the stale file is
    ///   removed (re-encode-on-spec-change);
    /// * artifacts for a different proxy width are **skipped** (another
    ///   server's working set; they stay on disk and in the budget).
    ///
    /// Returns what happened; the same counts feed the
    /// `dsstc_cache_warm_*` metric family via [`Self::counters`]. No-op
    /// without a disk tier.
    pub fn warm_boot(&self, specs: &[EncodingSpec], threads: usize) -> WarmBootReport {
        let started = Instant::now();
        let mut report = WarmBootReport::default();
        let Some(dir) = self.disk_dir.clone() else {
            return report;
        };
        let mut wanted: Vec<EncodingSpec> = Vec::new();
        for &spec in specs {
            if !wanted.contains(&spec) {
                wanted.push(spec);
            }
        }
        let wanted_ids: Vec<String> = wanted.iter().map(|s| s.id()).collect();

        // Phase 1, under the store lock: sweep, read-or-rebuild, GC.
        let mut jobs: Vec<WarmJob> = Vec::new();
        {
            let Some(_lock) = store_lock::StoreLock::acquire(&dir) else {
                return report;
            };
            if let Ok(read_dir) = std::fs::read_dir(&dir) {
                for entry in read_dir.flatten() {
                    let name = entry.file_name().to_string_lossy().into_owned();
                    if name.contains(".tmp-") {
                        let _ = std::fs::remove_file(entry.path());
                        report.orphans_removed += 1;
                    }
                }
            }
            let mut entries = read_manifest(&dir).unwrap_or_else(|| scan_store(&dir));
            entries.retain(|e| dir.join(&e.file).exists());
            // Pick up artifacts the manifest missed (e.g. written by a
            // process that crashed between rename and manifest update).
            for scanned in scan_store(&dir) {
                if !entries.iter().any(|e| e.file == scanned.file) {
                    entries.push(scanned);
                }
            }
            entries.retain(|e| {
                if parse_artifact_name(&e.file).is_some() {
                    true
                } else {
                    let _ = std::fs::remove_file(dir.join(&e.file));
                    report.orphans_removed += 1;
                    false
                }
            });
            report.gc_removed = self.gc_entries(&dir, &mut entries);
            let _ = write_manifest(&dir, &entries);
            self.update_store_gauges(&entries);
            // Oldest first: most-recently-restored artifacts are published
            // into the memory LRU last and survive a tight memory budget.
            entries.sort_by(|a, b| {
                a.last_restore_us.cmp(&b.last_restore_us).then_with(|| a.file.cmp(&b.file))
            });
            for entry in &entries {
                let Some((key, proxy_dim, spec_id)) = parse_artifact_name(&entry.file) else {
                    continue;
                };
                if proxy_dim != self.proxy_dim {
                    report.skipped += 1;
                    continue;
                }
                match wanted_ids.iter().position(|id| id == spec_id) {
                    Some(i) => jobs.push(WarmJob::Restore { key, spec: wanted[i] }),
                    None => jobs.push(WarmJob::Reencode { key, file: entry.file.clone() }),
                }
            }
        } // lock released: restore/persist paths re-acquire it per touch

        // Phase 2: bounded workers drain the queue through the normal
        // get_for path, which restores, heals and publishes.
        let restored = AtomicU64::new(0);
        let reencoded = AtomicU64::new(0);
        let healed = AtomicU64::new(0);
        let workers = if threads == 0 {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        } else {
            threads
        }
        .min(jobs.len().max(1));
        // Workers pop from the back; reverse so the oldest job runs first.
        jobs.reverse();
        let queue = Mutex::new(jobs);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let job = queue.lock().expect("warm-boot queue poisoned").pop();
                    let Some(job) = job else {
                        break;
                    };
                    match job {
                        WarmJob::Restore { key, spec } => {
                            let (_, outcome) = self.get_for_traced(key, spec);
                            match outcome {
                                CacheOutcome::MissFresh => {
                                    // Corrupt on disk: the fresh encode
                                    // already rewrote the artifact.
                                    healed.fetch_add(1, Ordering::Relaxed);
                                }
                                CacheOutcome::Hit | CacheOutcome::MissRestored => {
                                    restored.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                        WarmJob::Reencode { key, file } => {
                            for &spec in &wanted {
                                let _ = self.get_for(key, spec);
                            }
                            self.remove_store_entry(&dir, &file);
                            reencoded.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                });
            }
        });
        report.restored = restored.into_inner();
        report.reencoded = reencoded.into_inner();
        report.healed = healed.into_inner();
        report.elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
        self.warm_restored.fetch_add(report.restored, Ordering::Relaxed);
        self.warm_reencoded.fetch_add(report.reencoded, Ordering::Relaxed);
        self.warm_healed.fetch_add(report.healed, Ordering::Relaxed);
        self.store_gc_removed.fetch_add(report.orphans_removed, Ordering::Relaxed);
        report
    }
}

/// Cross-process advisory locking of the store directory.
///
/// GC, manifest updates and the warm-boot sweep mutate shared files, so two
/// servers pointed at one `--encode-cache-dir` take `flock(LOCK_EX)` on a
/// dedicated lock file first — one process's GC can no longer interleave
/// with another's manifest rewrite. Artifact *payload* writes stay safe
/// without the lock (unique temp name + atomic rename), so the hot restore
/// path never blocks on it; only the brief manifest touch afterwards does.
///
/// The lock is advisory and held on an open file descriptor: dropping the
/// guard (or crashing) releases it, so a dead server never wedges the
/// store. Note `flock` locks are per open-file-description — two handles
/// *within one process* exclude each other too, which is why no store-lock
/// guard is ever held across `get_for` (its persist path re-acquires).
mod store_lock {
    use std::fs::File;
    use std::path::Path;

    /// Holds `flock(LOCK_EX)` on the store's lock file until dropped.
    #[derive(Debug)]
    pub(super) struct StoreLock {
        _file: File,
    }

    impl StoreLock {
        /// Blocks until the exclusive lock is held. `None` when the lock
        /// file cannot even be created — store mutations then proceed
        /// without bookkeeping, matching the store's best-effort posture.
        pub(super) fn acquire(dir: &Path) -> Option<StoreLock> {
            Self::lock(dir, false)
        }

        /// Non-blocking variant: `None` when another holder (process or
        /// file handle) has the lock right now.
        #[cfg(test)]
        pub(super) fn try_acquire(dir: &Path) -> Option<StoreLock> {
            Self::lock(dir, true)
        }

        fn lock(dir: &Path, nonblocking: bool) -> Option<StoreLock> {
            let file = File::options()
                .create(true)
                .truncate(false)
                .write(true)
                .open(dir.join(super::STORE_LOCK_NAME))
                .ok()?;
            crate::sys::lock_exclusive(&file, nonblocking).then_some(StoreLock { _file: file })
        }
    }
}

/// Deterministic per-layer weight seed so repeated loads (and separate
/// server instances) produce identical proxies. Deliberately independent of
/// the encoding spec: every device encodes the *same* pruned weights, just
/// tiled for its own kernel.
fn proxy_seed(key: ModelKey, layer_index: usize) -> u64 {
    let mut seed: u64 = 0x5EED_0F00;
    for b in key.model.name().bytes() {
        seed = seed.rotate_left(7) ^ u64::from(b).wrapping_mul(0x100_0000_01B3);
    }
    seed ^ (u64::from(key.sparsity_permille.map_or(0xFFFF, |p| p)) << 40)
        ^ ((layer_index as u64) << 8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ModelId;

    fn repo() -> ModelRepository {
        ModelRepository::new(GpuConfig::v100(), 64)
    }

    /// A unique, self-cleaning temp directory for disk-cache tests.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> Self {
            let dir = std::env::temp_dir().join(format!(
                "dsstc-repo-{tag}-{}-{:?}",
                std::process::id(),
                std::thread::current().id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            TempDir(dir)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn first_get_misses_then_hits() {
        let r = repo();
        assert!(r.is_empty());
        let key = ModelKey::new(ModelId::BertBase, None);
        let m1 = r.get(key);
        assert_eq!((r.hit_count(), r.miss_count()), (0, 1));
        let m2 = r.get(key);
        assert_eq!((r.hit_count(), r.miss_count()), (1, 1));
        assert!(Arc::ptr_eq(&m1, &m2));
        assert_eq!(r.len(), 1);
        assert!((r.hit_rate() - 0.5).abs() < 1e-12);
        // No disk tier: the miss was a fresh encode.
        let counters = r.counters();
        assert_eq!(counters.fresh_encodes, 1);
        assert_eq!(counters.disk_loads, 0);
        assert!(counters.fresh_encode_ms >= 0.0);
        assert!(!m1.from_disk);
    }

    #[test]
    fn distinct_sparsities_are_distinct_cache_entries() {
        let r = repo();
        let _ = r.get(ModelKey::new(ModelId::RnnLm, Some(0.8)));
        let _ = r.get(ModelKey::new(ModelId::RnnLm, Some(0.95)));
        let _ = r.get(ModelKey::new(ModelId::RnnLm, None));
        assert_eq!(r.len(), 3);
        assert_eq!(r.miss_count(), 3);
    }

    #[test]
    fn distinct_specs_are_distinct_cache_entries_with_matching_tilings() {
        let r = repo();
        let key = ModelKey::new(ModelId::BertBase, Some(0.9));
        let v100 = r.get_for(key, EncodingSpec::for_gpu(&GpuConfig::v100()));
        let a100 = r.get_for(key, EncodingSpec::for_gpu(&GpuConfig::a100()));
        assert_eq!(r.len(), 2);
        assert_eq!(r.miss_count(), 2);
        assert_ne!(v100.spec, a100.spec);
        for (lv, la) in v100.layers.iter().zip(&a100.layers) {
            assert!(v100.spec.matches_b(&lv.weights));
            assert!(a100.spec.matches_b(&la.weights));
            // Same pruned weights under both tilings.
            assert_eq!(lv.weights.decode(), la.weights.decode(), "{}", lv.name);
        }
        // Each spec's model executes on its own kernel and agrees with the
        // other device's result.
        let input = Matrix::random_sparse(4, 64, 0.5, dsstc_tensor::SparsityPattern::Uniform, 1);
        let out_v = v100.forward(r.kernel(), &input);
        let out_a = a100.forward(&r.kernel_for(a100.spec), &input);
        assert!(out_v.approx_eq(&out_a, 1e-3));
    }

    #[test]
    fn encoded_layers_match_table_and_override() {
        let r = repo();
        let m = r.get(ModelKey::new(ModelId::BertBase, Some(0.9)));
        assert_eq!(m.layers.len(), ModelId::BertBase.network().layers().len());
        for layer in &m.layers {
            assert!((layer.weights.sparsity() - 0.9).abs() < 0.02, "{}", layer.name);
            assert_eq!(layer.layer.weight_sparsity, 0.9);
            assert!(!layer.relu);
        }
        assert!(m.encoded_nnz() > 0);
        assert!(m.encoded_bytes() > 0);
        assert!(m.encode_ms >= 0.0);
    }

    #[test]
    fn forward_matches_decoded_dense_reference() {
        let r = ModelRepository::new(GpuConfig::v100(), 32);
        let m = r.get(ModelKey::new(ModelId::ResNet18, Some(0.85)));
        let input = Matrix::random_sparse(8, 32, 0.5, dsstc_tensor::SparsityPattern::Uniform, 3);
        let out = m.forward(r.kernel(), &input);
        // Dense reference: decode each encoded layer and replay the chain.
        let mut reference = input.clone();
        for layer in &m.layers {
            reference = reference.matmul(&layer.weights.decode());
            reference = reference.relu();
        }
        assert_eq!(out.rows(), 8);
        assert_eq!(out.cols(), 32);
        assert!(out.approx_eq(&reference, 5e-2));
    }

    #[test]
    fn forward_matches_the_scalar_layer_walk_bitwise_once_activations_overflow() {
        // At width 256 the proxy's activations grow about threefold per
        // layer, so order-1 features pass FP16's largest value before the
        // last layer and the tail of the walk runs on infinities and NaNs —
        // where the word kernel must still issue exactly the scalar
        // reference's MACs.
        let r = ModelRepository::new(GpuConfig::v100(), 256);
        let m = r.get(ModelKey::new(ModelId::ResNet50, None));
        let input = dsstc_tensor::RandomMatrixBuilder::new(4, 256).sparsity(0.4).seed(1).build();
        let out = m.forward(r.kernel(), &input);
        let mut reference = input.clone();
        for layer in &m.layers {
            let a_enc = r.kernel().encode_a(&reference);
            reference = r.kernel().execute_encoded_scalar(&a_enc, &layer.weights);
            if layer.relu {
                reference = reference.relu();
            }
        }
        let non_finite = reference.as_slice().iter().filter(|x| !x.is_finite()).count();
        assert!(non_finite > 0, "the walk must end on non-finite features");
        assert_eq!((out.rows(), out.cols()), (reference.rows(), reference.cols()));
        for (i, (a, b)) in out.as_slice().iter().zip(reference.as_slice()).enumerate() {
            // Any NaN matches any NaN (docs/ARCHITECTURE.md, "Bit-identity
            // contract").
            assert!(a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()), "{i}: {a} vs {b}");
        }
    }

    #[test]
    fn concurrent_gets_for_one_key_encode_exactly_once() {
        let r = std::sync::Arc::new(repo());
        let key = ModelKey::new(ModelId::ResNet50, None);
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let r = std::sync::Arc::clone(&r);
                std::thread::spawn(move || r.get(key))
            })
            .collect();
        let models: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(r.miss_count(), 1, "one caller loads, the rest wait and hit");
        assert_eq!(r.hit_count(), 3);
        for m in &models[1..] {
            assert!(Arc::ptr_eq(&models[0], m), "all callers share one artifact");
        }
    }

    #[test]
    fn a_slow_load_does_not_block_gets_for_other_keys() {
        // Thread A encodes VGG-16 (the most layers); thread B's BERT get
        // must complete while A may still be loading — i.e. without ever
        // waiting on A. We can't control interleaving exactly, but both
        // finishing with two misses and no deadlock exercises the
        // in-flight path under concurrency.
        let r = std::sync::Arc::new(repo());
        let a = {
            let r = std::sync::Arc::clone(&r);
            std::thread::spawn(move || r.get(ModelKey::new(ModelId::Vgg16, None)))
        };
        let b = {
            let r = std::sync::Arc::clone(&r);
            std::thread::spawn(move || r.get(ModelKey::new(ModelId::BertBase, None)))
        };
        a.join().unwrap();
        b.join().unwrap();
        assert_eq!(r.miss_count(), 2);
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn proxies_are_deterministic_across_repositories() {
        let key = ModelKey::new(ModelId::ResNet50, None);
        let a = repo().get(key);
        let b = repo().get(key);
        for (la, lb) in a.layers.iter().zip(&b.layers) {
            assert_eq!(la.weights.decode(), lb.weights.decode(), "{}", la.name);
        }
    }

    #[test]
    #[should_panic(expected = "feature width mismatch")]
    fn forward_rejects_wrong_width() {
        let r = repo();
        let m = r.get(ModelKey::new(ModelId::BertBase, None));
        let _ = m.forward(r.kernel(), &Matrix::zeros(2, 63));
    }

    #[test]
    #[should_panic(expected = "encoding spec does not match")]
    fn forward_rejects_a_foreign_kernel() {
        let r = repo();
        let m = r.get(ModelKey::new(ModelId::BertBase, None));
        let foreign = r.kernel_for(EncodingSpec::for_gpu(&GpuConfig::a100()));
        let _ = m.forward(&foreign, &Matrix::zeros(2, 64));
    }

    #[test]
    fn lru_evicts_past_the_entry_budget() {
        let r = repo().with_budget(CacheBudget { max_entries: 2, max_bytes: u64::MAX });
        let k1 = ModelKey::new(ModelId::RnnLm, Some(0.8));
        let k2 = ModelKey::new(ModelId::RnnLm, Some(0.9));
        let k3 = ModelKey::new(ModelId::RnnLm, Some(0.95));
        let _ = r.get(k1);
        let _ = r.get(k2);
        let _ = r.get(k1); // k1 is now more recently used than k2
        let _ = r.get(k3); // evicts k2
        assert_eq!(r.len(), 2);
        assert_eq!(r.counters().evictions, 1);
        let misses_before = r.miss_count();
        let _ = r.get(k1);
        let _ = r.get(k3);
        assert_eq!(r.miss_count(), misses_before, "survivors still hit");
        let _ = r.get(k2);
        assert_eq!(r.miss_count(), misses_before + 1, "the evicted key re-encodes");
    }

    #[test]
    fn byte_budget_bounds_the_cache_and_keeps_the_newest_entry() {
        // A budget below one artifact still keeps the latest insert alive.
        let r = repo().with_budget(CacheBudget { max_entries: usize::MAX, max_bytes: 1 });
        let m = r.get(ModelKey::new(ModelId::BertBase, None));
        assert_eq!(r.len(), 1);
        assert!(r.cached_bytes() >= m.encoded_bytes());
        let _ = r.get(ModelKey::new(ModelId::RnnLm, None));
        assert_eq!(r.len(), 1, "over-budget cache holds only the newest artifact");
        assert_eq!(r.counters().evictions, 1);
    }

    #[test]
    fn disk_store_round_trips_and_survives_a_restart() {
        let dir = TempDir::new("roundtrip");
        let key = ModelKey::new(ModelId::BertBase, Some(0.9));
        let cold = {
            let r = ModelRepository::new(GpuConfig::v100(), 32).with_disk_cache(dir.path());
            let m = r.get(key);
            assert!(!m.from_disk);
            assert_eq!(r.counters().fresh_encodes, 1);
            m
        };
        // "Restart": a fresh repository over the same directory.
        let r2 = ModelRepository::new(GpuConfig::v100(), 32).with_disk_cache(dir.path());
        let warm = r2.get(key);
        assert!(warm.from_disk, "second process restores from disk");
        let counters = r2.counters();
        assert_eq!(counters.disk_loads, 1);
        assert_eq!(counters.fresh_encodes, 0);
        assert!(counters.disk_load_ms >= 0.0);
        assert_eq!(warm.layers.len(), cold.layers.len());
        for (c, w) in cold.layers.iter().zip(&warm.layers) {
            assert_eq!(c.weights, w.weights, "{}", c.name);
            assert_eq!(c.name, w.name);
        }
        // The restored artifact serves identical outputs.
        let input = Matrix::random_sparse(2, 32, 0.4, dsstc_tensor::SparsityPattern::Uniform, 5);
        assert!(
            cold.forward(r2.kernel(), &input).approx_eq(&warm.forward(r2.kernel(), &input), 0.0),
            "bit-identical outputs"
        );
    }

    #[test]
    fn disk_artifacts_are_keyed_per_spec_and_proxy_dim() {
        let dir = TempDir::new("keys");
        let key = ModelKey::new(ModelId::RnnLm, Some(0.9));
        let r = ModelRepository::new(GpuConfig::v100(), 32).with_disk_cache(dir.path());
        let _ = r.get_for(key, EncodingSpec::for_gpu(&GpuConfig::v100()));
        let _ = r.get_for(key, EncodingSpec::for_gpu(&GpuConfig::a100()));
        // A different proxy width writes a third artifact.
        let r64 = ModelRepository::new(GpuConfig::v100(), 64).with_disk_cache(dir.path());
        let _ = r64.get(key);
        let files = artifact_names(dir.path());
        assert_eq!(files.len(), 3, "one artifact per (spec, proxy): {files:?}");
        assert!(files.iter().all(|f| f.starts_with("rnnlm-s0900")), "{files:?}");
        // The lifecycle bookkeeping rides along: a manifest tracks all
        // three artifacts.
        let entries = read_manifest(dir.path()).expect("manifest is present and verifies");
        assert_eq!(entries.len(), 3);
    }

    #[test]
    fn corrupt_or_stale_artifacts_fall_back_to_a_fresh_encode() {
        let dir = TempDir::new("corrupt");
        let key = ModelKey::new(ModelId::BertBase, None);
        {
            let r = ModelRepository::new(GpuConfig::v100(), 32).with_disk_cache(dir.path());
            let _ = r.get(key);
        }
        // Truncate the artifact to garbage.
        let file = dir.path().join(&artifact_names(dir.path())[0]);
        std::fs::write(&file, b"DSMRgarbage").unwrap();
        let r = ModelRepository::new(GpuConfig::v100(), 32).with_disk_cache(dir.path());
        let m = r.get(key);
        assert!(!m.from_disk, "corrupt artifact must not be served");
        let counters = r.counters();
        assert_eq!((counters.disk_loads, counters.fresh_encodes), (0, 1));
        // The fresh encode rewrote the artifact; a third repository warms.
        let r3 = ModelRepository::new(GpuConfig::v100(), 32).with_disk_cache(dir.path());
        assert!(r3.get(key).from_disk, "rewritten artifact restores cleanly");
    }

    /// Artifact filenames in `dir`, sorted (skips the manifest + lock).
    fn artifact_names(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|f| f.ends_with(".dsstc"))
            .collect();
        names.sort();
        names
    }

    #[test]
    fn parse_artifact_name_round_trips_every_model_and_sparsity() {
        let r = ModelRepository::new(GpuConfig::v100(), 32);
        let dir = PathBuf::from("/store");
        for model in ModelId::ALL {
            for sparsity in [None, Some(0.9)] {
                let key = ModelKey::new(model, sparsity);
                for gpu in [GpuConfig::v100(), GpuConfig::a100()] {
                    let spec = EncodingSpec::for_gpu(&gpu);
                    let path = r.artifact_path(&dir, key, spec);
                    let name = path.file_name().unwrap().to_str().unwrap();
                    let (parsed_key, dim, spec_id) =
                        parse_artifact_name(name).unwrap_or_else(|| panic!("parse {name}"));
                    assert_eq!(parsed_key, key, "{name}");
                    assert_eq!(dim, 32, "{name}");
                    assert_eq!(spec_id, spec.id(), "{name}");
                }
            }
        }
    }

    #[test]
    fn parse_artifact_name_rejects_malformed_names() {
        for name in [
            "",
            "MANIFEST.dsstcm",
            ".dsstc-store.lock",
            "rnnlm-s0900-d32",               // no suffix
            "nonesuch-s0900-d32-spec.dsstc", // unknown slug
            "rnnlm-x0900-d32-spec.dsstc",    // bad sparsity field
            "rnnlm-s1500-d32-spec.dsstc",    // sparsity over 1000 permille
            "rnnlm-s0900-32-spec.dsstc",     // bad dim field
            "rnnlm-s0900-d0-spec.dsstc",     // zero dim
            "rnnlm-s0900-d32-.dsstc",        // empty spec id
            "rnnlm-s0900.dsstc",             // too few fields
            "vgg16-table-dxx-spec.dsstc",    // non-numeric dim
        ] {
            assert!(parse_artifact_name(name).is_none(), "{name:?} must not parse");
        }
    }

    #[test]
    fn manifest_round_trips_and_detects_tampering() {
        let dir = TempDir::new("manifest");
        std::fs::create_dir_all(dir.path()).unwrap();
        let entries = vec![
            ManifestEntry {
                file: "a.dsstc".into(),
                bytes: 100,
                last_restore_us: 7,
                spec_id: "b128x128x16-w32x32x16-cm-rm".into(),
            },
            ManifestEntry {
                file: "b.dsstc".into(),
                bytes: 2,
                last_restore_us: 9,
                spec_id: "x".into(),
            },
        ];
        write_manifest(dir.path(), &entries).unwrap();
        assert_eq!(read_manifest(dir.path()).unwrap(), entries);
        // Flip one byte anywhere in the file: the checksum must catch it.
        let path = dir.path().join(MANIFEST_NAME);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x20;
        std::fs::write(&path, &bytes).unwrap();
        assert!(read_manifest(dir.path()).is_none(), "tampered manifest must not verify");
        // An empty manifest round-trips too.
        write_manifest(dir.path(), &[]).unwrap();
        assert_eq!(read_manifest(dir.path()).unwrap(), Vec::new());
    }

    #[test]
    fn a_missing_manifest_rebuilds_from_a_directory_scan() {
        let dir = TempDir::new("rebuild");
        let key = ModelKey::new(ModelId::RnnLm, Some(0.9));
        {
            let r = ModelRepository::new(GpuConfig::v100(), 32).with_disk_cache(dir.path());
            let _ = r.get(key);
        }
        std::fs::remove_file(dir.path().join(MANIFEST_NAME)).unwrap();
        let scanned = scan_store(dir.path());
        assert_eq!(scanned.len(), 1);
        assert_eq!(scanned[0].file, artifact_names(dir.path())[0]);
        assert!(scanned[0].bytes > 0);
        // warm_boot regenerates the manifest from the scan.
        let r = ModelRepository::new(GpuConfig::v100(), 32).with_disk_cache(dir.path());
        let report = r.warm_boot(&[EncodingSpec::for_gpu(&GpuConfig::v100())], 1);
        assert_eq!(report.restored, 1);
        assert_eq!(read_manifest(dir.path()).unwrap().len(), 1);
    }

    #[test]
    fn warm_boot_restores_artifacts_so_the_first_request_hits() {
        let dir = TempDir::new("warmboot");
        let spec = EncodingSpec::for_gpu(&GpuConfig::v100());
        let k1 = ModelKey::new(ModelId::RnnLm, Some(0.9));
        let k2 = ModelKey::new(ModelId::BertBase, None);
        {
            let r = ModelRepository::new(GpuConfig::v100(), 32).with_disk_cache(dir.path());
            let _ = r.get(k1);
            let _ = r.get(k2);
        }
        // "Restart": warm boot restores both artifacts into memory.
        let r = ModelRepository::new(GpuConfig::v100(), 32).with_disk_cache(dir.path());
        let report = r.warm_boot(&[spec], 2);
        assert_eq!(report.restored, 2);
        assert_eq!(report.warmed(), 2);
        assert_eq!((report.healed, report.reencoded, report.skipped), (0, 0, 0));
        assert!(report.elapsed_ms >= 0.0);
        let counters = r.counters();
        assert_eq!(counters.fresh_encodes, 0, "warm boot never re-encodes intact artifacts");
        assert_eq!(counters.disk_loads, 2);
        assert_eq!(counters.warm_restored, 2);
        assert_eq!(counters.store_entries, 2);
        assert!(counters.store_bytes > 0);
        // The first request after restart is a memory hit.
        let hits_before = r.hit_count();
        let m = r.get(k1);
        assert_eq!(r.hit_count(), hits_before + 1, "first request after warm boot hits");
        assert!(m.from_disk);
    }

    #[test]
    fn warm_boot_without_a_disk_tier_is_a_no_op() {
        let r = repo();
        let report = r.warm_boot(&[r.default_spec()], 4);
        assert_eq!(report, WarmBootReport { elapsed_ms: report.elapsed_ms, ..Default::default() });
        assert!(r.is_empty());
    }

    #[test]
    fn warm_boot_heals_a_corrupt_artifact_in_place() {
        let dir = TempDir::new("heal");
        let spec = EncodingSpec::for_gpu(&GpuConfig::v100());
        let key = ModelKey::new(ModelId::BertBase, None);
        {
            let r = ModelRepository::new(GpuConfig::v100(), 32).with_disk_cache(dir.path());
            let _ = r.get(key);
        }
        let file = dir.path().join(&artifact_names(dir.path())[0]);
        std::fs::write(&file, b"DSMR\x01\x00garbage").unwrap();
        let r = ModelRepository::new(GpuConfig::v100(), 32).with_disk_cache(dir.path());
        let report = r.warm_boot(&[spec], 1);
        assert_eq!((report.restored, report.healed), (0, 1));
        assert_eq!(r.counters().fresh_encodes, 1, "healing pays one fresh encode");
        // The rewrite is durable: a third repository restores cleanly.
        let r3 = ModelRepository::new(GpuConfig::v100(), 32).with_disk_cache(dir.path());
        assert!(r3.get(key).from_disk);
    }

    #[test]
    fn warm_boot_reencodes_stale_spec_artifacts_for_the_current_pool() {
        let dir = TempDir::new("respec");
        let a100 = EncodingSpec::for_gpu(&GpuConfig::a100());
        let v100 = EncodingSpec::for_gpu(&GpuConfig::v100());
        let key = ModelKey::new(ModelId::RnnLm, Some(0.9));
        {
            let r = ModelRepository::new(GpuConfig::v100(), 32).with_disk_cache(dir.path());
            let _ = r.get_for(key, a100);
        }
        // The pool changed: only V100 encodings are wanted now.
        let r = ModelRepository::new(GpuConfig::v100(), 32).with_disk_cache(dir.path());
        let report = r.warm_boot(&[v100], 1);
        assert_eq!(report.reencoded, 1);
        assert_eq!(report.restored, 0);
        let files = artifact_names(dir.path());
        assert_eq!(files.len(), 1, "stale artifact replaced, not accumulated: {files:?}");
        assert!(files[0].contains(&v100.id()), "{files:?}");
        // The re-encoded model is already resident: the next get hits.
        let hits_before = r.hit_count();
        let _ = r.get_for(key, v100);
        assert_eq!(r.hit_count(), hits_before + 1);
    }

    #[test]
    fn warm_boot_skips_artifacts_of_a_foreign_proxy_width() {
        let dir = TempDir::new("foreign");
        let spec = EncodingSpec::for_gpu(&GpuConfig::v100());
        let key = ModelKey::new(ModelId::RnnLm, None);
        {
            let r = ModelRepository::new(GpuConfig::v100(), 64).with_disk_cache(dir.path());
            let _ = r.get(key);
        }
        let r = ModelRepository::new(GpuConfig::v100(), 32).with_disk_cache(dir.path());
        let report = r.warm_boot(&[spec], 1);
        assert_eq!(report.skipped, 1);
        assert_eq!(report.warmed(), 0);
        assert!(r.is_empty(), "foreign-width artifacts are not loaded");
        assert_eq!(artifact_names(dir.path()).len(), 1, "and not deleted");
    }

    #[test]
    fn warm_boot_sweeps_temp_files_and_unparseable_names() {
        let dir = TempDir::new("sweep");
        let spec = EncodingSpec::for_gpu(&GpuConfig::v100());
        let key = ModelKey::new(ModelId::BertBase, None);
        {
            let r = ModelRepository::new(GpuConfig::v100(), 32).with_disk_cache(dir.path());
            let _ = r.get(key);
        }
        std::fs::write(dir.path().join("bertbase-table-d32-x.dsstc.tmp-99-0"), b"half").unwrap();
        std::fs::write(dir.path().join("nonesuch-s0900-d32-spec.dsstc"), b"junk").unwrap();
        let r = ModelRepository::new(GpuConfig::v100(), 32).with_disk_cache(dir.path());
        let report = r.warm_boot(&[spec], 1);
        assert_eq!(report.orphans_removed, 2);
        assert_eq!(report.restored, 1);
        assert_eq!(artifact_names(dir.path()).len(), 1, "only the real artifact survives");
        assert!(!dir.path().join("nonesuch-s0900-d32-spec.dsstc").exists());
    }

    #[test]
    fn gc_store_evicts_least_recently_restored_artifacts_past_the_budget() {
        let dir = TempDir::new("gc");
        let keys: Vec<ModelKey> = [800, 900, 950]
            .iter()
            .map(|&p| ModelKey::new(ModelId::RnnLm, Some(p as f64 / 1e3)))
            .collect();
        {
            let r = ModelRepository::new(GpuConfig::v100(), 32).with_disk_cache(dir.path());
            for &k in &keys {
                let _ = r.get(k);
            }
        }
        assert_eq!(artifact_names(dir.path()).len(), 3);
        // Budget of two entries: the oldest (s0800, persisted first) goes.
        let r = ModelRepository::new(GpuConfig::v100(), 32)
            .with_disk_cache(dir.path())
            .with_store_budget(CacheBudget { max_entries: 2, max_bytes: u64::MAX });
        let removed = r.gc_store();
        assert_eq!(removed, 1);
        let files = artifact_names(dir.path());
        assert_eq!(files.len(), 2);
        assert!(!files.iter().any(|f| f.contains("s0800")), "LRU artifact evicted: {files:?}");
        let (entries, bytes) = r.store_usage();
        assert_eq!(entries, 2);
        assert!(bytes > 0);
        assert_eq!(r.counters().store_gc_removed, 1);
    }

    #[test]
    fn gc_store_honours_the_byte_budget_but_keeps_at_least_one_artifact() {
        let dir = TempDir::new("gcbytes");
        {
            let r = ModelRepository::new(GpuConfig::v100(), 32).with_disk_cache(dir.path());
            let _ = r.get(ModelKey::new(ModelId::RnnLm, Some(0.8)));
            let _ = r.get(ModelKey::new(ModelId::RnnLm, Some(0.9)));
        }
        let r = ModelRepository::new(GpuConfig::v100(), 32)
            .with_disk_cache(dir.path())
            .with_store_budget(CacheBudget { max_entries: usize::MAX, max_bytes: 1 });
        assert_eq!(r.gc_store(), 1, "over a 1-byte budget, all but one artifact go");
        assert_eq!(artifact_names(dir.path()).len(), 1);
        assert!(!dir.path().join(MANIFEST_NAME).exists() || read_manifest(dir.path()).is_some());
    }

    #[test]
    fn restores_refresh_lru_order_in_the_store_manifest() {
        let dir = TempDir::new("lrutouch");
        let k1 = ModelKey::new(ModelId::RnnLm, Some(0.8));
        let k2 = ModelKey::new(ModelId::RnnLm, Some(0.9));
        {
            let r = ModelRepository::new(GpuConfig::v100(), 32).with_disk_cache(dir.path());
            let _ = r.get(k1);
            let _ = r.get(k2); // k2 persisted last: most recent so far
        }
        {
            // Restoring k1 makes it the most recently used on disk.
            let r = ModelRepository::new(GpuConfig::v100(), 32).with_disk_cache(dir.path());
            assert!(r.get(k1).from_disk);
        }
        let r = ModelRepository::new(GpuConfig::v100(), 32)
            .with_disk_cache(dir.path())
            .with_store_budget(CacheBudget { max_entries: 1, max_bytes: u64::MAX });
        assert_eq!(r.gc_store(), 1);
        let files = artifact_names(dir.path());
        assert!(files[0].contains("s0800"), "the freshly-restored artifact survives: {files:?}");
    }

    #[test]
    #[cfg(unix)]
    fn store_lock_excludes_a_second_holder() {
        let dir = TempDir::new("lock");
        std::fs::create_dir_all(dir.path()).unwrap();
        let first = store_lock::StoreLock::try_acquire(dir.path());
        assert!(first.is_some(), "uncontended lock acquires");
        // flock is per open-file-description, so a second handle in this
        // process stands in for a second server sharing the store.
        assert!(
            store_lock::StoreLock::try_acquire(dir.path()).is_none(),
            "held lock excludes a second holder"
        );
        drop(first);
        assert!(store_lock::StoreLock::try_acquire(dir.path()).is_some(), "drop releases");
    }
}
