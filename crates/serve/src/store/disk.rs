//! The on-disk tier: one checksummed artifact file per `(model, sparsity,
//! proxy width, encoding spec)`, indexed by nothing but its own directory.
//!
//! A store entry is what one `read_dir` + `metadata` pass says about a
//! `.dsstc` file: its name (from which the identity is parsed where it is
//! needed), its size, and its mtime — the GC's LRU key, stamped on every
//! restore and persist. Artifact payloads are published by unique temp
//! name + rename and need no lock; the bookkeeping that follows (stamp, GC,
//! the warm-boot sweep) runs under a cross-process file lock so two servers
//! sharing one directory never interleave one's GC with the other's (see
//! [`DiskStore::locked`]).

use std::fs::File;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use dsstc_formats::{CodecError, TwoLevelBitmapMatrix};
use dsstc_kernels::EncodingSpec;

use super::CacheBudget;
use crate::model::{EncodedLayer, EncodedModel};
use crate::request::{ModelId, ModelKey};

/// Magic of the on-disk encoded-model artifact (a thin header over the
/// per-layer containers of [`dsstc_formats::serialize`]).
const STORE_MAGIC: [u8; 4] = *b"DSMR";

/// Version of the artifact header. Bump on layout change; mismatches fall
/// back to a fresh encode (and overwrite the stale file).
const STORE_VERSION: u16 = 1;

/// Filename of the zero-length file the cross-process store lock is taken
/// on. Not `.dsstc`, so scans never mistake it for an artifact.
const STORE_LOCK_NAME: &str = ".dsstc-store.lock";

/// Monotonic per-process sequence for unique temp-file names.
static WRITE_SEQ: AtomicU64 = AtomicU64::new(0);

/// One artifact as the directory describes it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(super) struct StoreEntry {
    /// Artifact filename (no directory component).
    pub(super) file: String,
    /// File size in bytes.
    pub(super) bytes: u64,
    /// The file's mtime in microseconds since the Unix epoch: when the
    /// artifact was last restored or persisted.
    pub(super) mtime_us: u64,
}

/// The store directory, its budget and the gauges of its last scan.
#[derive(Debug)]
pub(super) struct DiskStore {
    pub(super) dir: PathBuf,
    proxy_dim: usize,
    pub(super) budget: CacheBudget,
    entries: AtomicU64,
    bytes: AtomicU64,
    gc_removed: AtomicU64,
}

/// Takes an exclusive [`File::lock`] on the store's lock file, waiting for
/// it unless `nonblocking`; the returned handle holds the lock until
/// dropped. `None` when it is held elsewhere (non-blocking) or the lock
/// file cannot even be created — bookkeeping is then skipped, matching the
/// store's best-effort posture. The lock is advisory and lives on an open
/// file descriptor, so a crashed server never wedges the store; being per
/// open-file-description it also excludes a second handle *within one
/// process*, which is why it is never held across a lookup (whose
/// bookkeeping takes it again).
pub(crate) fn lock_store(dir: &Path, nonblocking: bool) -> Option<File> {
    let file = File::options()
        .create(true)
        .truncate(false)
        .write(true)
        .open(dir.join(STORE_LOCK_NAME))
        .ok()?;
    let locked = if nonblocking { file.try_lock().is_ok() } else { file.lock().is_ok() };
    locked.then_some(file)
}

fn unix_us(time: SystemTime) -> u64 {
    time.duration_since(UNIX_EPOCH).map_or(0, |d| d.as_micros() as u64)
}

/// Sets `path`'s mtime to `us` microseconds past the Unix epoch.
fn set_mtime_us(path: &Path, us: u64) -> std::io::Result<()> {
    let at = UNIX_EPOCH
        .checked_add(Duration::from_micros(us))
        .ok_or(std::io::ErrorKind::InvalidInput)?;
    File::options().write(true).open(path)?.set_modified(at)
}

/// The artifact filename of one identity:
/// `{slug}-{s####|table}-d{dim}-{spec}.dsstc`.
pub(crate) fn artifact_name(key: ModelKey, proxy_dim: usize, spec: EncodingSpec) -> String {
    let sparsity = match key.sparsity_permille {
        Some(p) => format!("s{p:04}"),
        None => "table".to_string(),
    };
    format!("{}-{}-d{}-{}.dsstc", key.model.slug(), sparsity, proxy_dim, spec.id())
}

/// Parses an artifact filename back into `(key, proxy width, spec id)`.
/// `None` for anything that is not a well-formed artifact name — those are
/// orphans the warm-boot sweep removes.
pub(crate) fn parse_artifact_name(name: &str) -> Option<(ModelKey, usize, &str)> {
    let stem = name.strip_suffix(".dsstc")?;
    let mut parts = stem.splitn(4, '-');
    let slug = parts.next()?;
    let sparsity = parts.next()?;
    let dim = parts.next()?;
    let spec_id = parts.next()?;
    let model = ModelId::ALL.into_iter().find(|m| m.slug() == slug)?;
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

/// Every `.dsstc` file in `dir` (empty when the directory cannot be read).
fn scan(dir: &Path) -> Vec<StoreEntry> {
    let mut entries = Vec::new();
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let Ok(file) = entry.file_name().into_string() else {
            continue;
        };
        if !file.ends_with(".dsstc") {
            continue;
        }
        let Ok(meta) = entry.metadata() else {
            continue;
        };
        let mtime_us = meta.modified().map_or(0, unix_us);
        entries.push(StoreEntry { file, bytes: meta.len(), mtime_us });
    }
    entries
}

impl DiskStore {
    /// A store over `dir` (created if missing) for `proxy_dim`-wide models.
    pub(super) fn new(dir: PathBuf, proxy_dim: usize, budget: CacheBudget) -> Self {
        let _ = std::fs::create_dir_all(&dir); // best effort; persist retries
        DiskStore {
            dir,
            proxy_dim,
            budget,
            entries: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            gc_removed: AtomicU64::new(0),
        }
    }

    /// `(artifacts, file bytes)` as of the last scan, and files removed so
    /// far (budget evictions plus swept orphans).
    pub(super) fn gauges(&self) -> (u64, u64, u64) {
        let load = |gauge: &AtomicU64| gauge.load(Ordering::Relaxed);
        (load(&self.entries), load(&self.bytes), load(&self.gc_removed))
    }

    fn artifact_path(&self, key: ModelKey, spec: EncodingSpec) -> PathBuf {
        self.dir.join(artifact_name(key, self.proxy_dim, spec))
    }

    /// Restores one artifact, fully validating the header and every
    /// per-layer container against the expected identity, and marks it
    /// most recently used. The file is read whole, once, and each layer
    /// decoded from its slice of it.
    pub(super) fn restore(
        &self,
        key: ModelKey,
        spec: EncodingSpec,
    ) -> Result<EncodedModel, CodecError> {
        let started = Instant::now();
        let bytes = std::fs::read(self.artifact_path(key, spec))?;
        let (header, mut rest) =
            bytes.split_first_chunk::<{ 4 + 2 + 4 }>().ok_or(CodecError::Truncated)?;
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
            let (weights, after) = TwoLevelBitmapMatrix::take_from_bytes(rest)?;
            rest = after;
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
        let encode_ms = started.elapsed().as_secs_f64() * 1e3;
        self.touch(key, spec);
        Ok(EncodedModel {
            key,
            spec,
            network,
            input_dim: self.proxy_dim,
            layers,
            encode_ms,
            from_disk: true,
        })
    }

    /// Persists one artifact: written to a temporary sibling first, then
    /// atomically renamed into place so a crash mid-write never leaves a
    /// half-artifact under the final name. The temp name is unique per
    /// process and write, so concurrent writers sharing one directory never
    /// interleave into (and then publish) one file — the last complete
    /// rename wins, every published artifact is internally consistent. The
    /// published artifact is marked most recently used.
    pub(super) fn persist(&self, model: &EncodedModel) -> Result<(), CodecError> {
        std::fs::create_dir_all(&self.dir)?;
        let path = self.artifact_path(model.key, model.spec);
        let tmp = path.with_extension(format!(
            "tmp-{}-{}",
            std::process::id(),
            WRITE_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let write = || -> Result<(), CodecError> {
            let mut writer = std::io::BufWriter::new(File::create(&tmp)?);
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
        if result.is_ok() {
            self.touch(model.key, model.spec);
        } else {
            let _ = std::fs::remove_file(&tmp);
        }
        result
    }

    /// Runs `mutate` on a fresh scan of the directory under the store lock,
    /// then publishes what `mutate` left in the list as the store gauges.
    /// `None` (nothing ran) when the lock cannot be taken: bookkeeping is
    /// best effort, a skipped round costs LRU precision, never data.
    pub(super) fn locked<R>(&self, mutate: impl FnOnce(&mut Vec<StoreEntry>) -> R) -> Option<R> {
        let _lock = lock_store(&self.dir, false)?;
        let mut entries = scan(&self.dir);
        let result = mutate(&mut entries);
        self.entries.store(entries.len() as u64, Ordering::Relaxed);
        self.bytes.store(entries.iter().map(|e| e.bytes).sum(), Ordering::Relaxed);
        Some(result)
    }

    /// Marks the artifact of `(key, spec)` most recently used — its mtime
    /// becomes `max(now, newest other artifact + 1 µs)`, so LRU order stays
    /// exact under a coarse or backwards-stepping clock — and GCs the store.
    /// An artifact that vanished since its restore is simply not in the
    /// scan.
    fn touch(&self, key: ModelKey, spec: EncodingSpec) {
        let name = artifact_name(key, self.proxy_dim, spec);
        self.locked(|entries| {
            let newest_other =
                entries.iter().filter(|e| e.file != name).map(|e| e.mtime_us).max().unwrap_or(0);
            let stamp_us = unix_us(SystemTime::now()).max(newest_other.saturating_add(1));
            if let Some(entry) = entries.iter_mut().find(|e| e.file == name) {
                if set_mtime_us(&self.dir.join(&name), stamp_us).is_ok() {
                    entry.mtime_us = stamp_us;
                }
            }
            self.gc(entries);
        });
    }

    /// Removes one artifact by filename (warm boot's stale-spec cleanup).
    pub(super) fn remove(&self, file: &str) {
        self.locked(|entries| {
            let _ = std::fs::remove_file(self.dir.join(file));
            entries.retain(|e| e.file != file);
        });
    }

    /// Removes what is not an artifact — leftover `.tmp-` files of
    /// interrupted writes and `.dsstc` files whose names do not parse — and
    /// returns how many files went. Caller holds the store lock.
    pub(super) fn sweep_orphans(&self, entries: &mut Vec<StoreEntry>) -> u64 {
        let mut removed = 0;
        for entry in std::fs::read_dir(&self.dir).into_iter().flatten().flatten() {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.contains(".tmp-")
                || (name.ends_with(".dsstc") && parse_artifact_name(&name).is_none())
            {
                let _ = std::fs::remove_file(entry.path());
                removed += 1;
            }
        }
        entries.retain(|e| parse_artifact_name(&e.file).is_some());
        self.gc_removed.fetch_add(removed, Ordering::Relaxed);
        removed
    }

    /// Evicts artifacts until the budget holds (keeping at least one,
    /// mirroring the memory tier) and returns how many went.
    /// **Foreign-proxy-width artifacts go first**: warm boot skips them
    /// (this repository can never restore them) yet their bytes still count
    /// against the budget, so they must not be able to squeeze out
    /// artifacts this process actually serves from. Within each class
    /// eviction is least-recently-restored, with mtime ties broken by
    /// filename so GC order is deterministic. Caller holds the store lock.
    pub(super) fn gc(&self, entries: &mut Vec<StoreEntry>) -> u64 {
        let native = |e: &StoreEntry| {
            parse_artifact_name(&e.file).is_some_and(|(_, dim, _)| dim == self.proxy_dim)
        };
        let mut removed = 0;
        while entries.len() > 1
            && (entries.len() > self.budget.max_entries
                || entries.iter().map(|e| e.bytes).sum::<u64>() > self.budget.max_bytes)
        {
            let (victim, _) = entries
                .iter()
                .enumerate()
                .min_by_key(|&(_, e)| (native(e), e.mtime_us, &e.file))
                .expect("non-empty entries");
            let entry = entries.remove(victim);
            let _ = std::fs::remove_file(self.dir.join(&entry.file));
            removed += 1;
        }
        self.gc_removed.fetch_add(removed, Ordering::Relaxed);
        removed
    }
}

#[cfg(test)]
mod tests {
    use dsstc_sim::GpuConfig;

    use super::*;
    use crate::repository::tests::{artifact_names, TempDir};
    use crate::request::ModelId;
    use crate::ModelRepository;

    fn repo(dir: &TempDir) -> ModelRepository {
        ModelRepository::new(GpuConfig::v100(), 32).with_disk_cache(dir.path())
    }

    fn at_most(max_entries: usize) -> CacheBudget {
        CacheBudget { max_entries, max_bytes: u64::MAX }
    }

    fn key(permille: u16) -> ModelKey {
        ModelKey::new(ModelId::RnnLm, Some(f64::from(permille) / 1e3))
    }

    fn mtime_us(dir: &TempDir, file: &str) -> u64 {
        unix_us(std::fs::metadata(dir.path().join(file)).unwrap().modified().unwrap())
    }

    #[test]
    fn the_directory_scan_is_the_store_index() {
        let dir = TempDir::new("scan");
        let _ = repo(&dir).get(key(900));
        let scanned = scan(dir.path());
        assert_eq!(scanned.len(), 1);
        assert_eq!(scanned[0].file, artifact_names(dir.path())[0]);
        assert!(scanned[0].bytes > 0);
        assert_eq!(scanned[0].mtime_us, mtime_us(&dir, &scanned[0].file));
        let r = repo(&dir);
        let report = r.warm_boot(&[r.default_spec()], 1);
        assert_eq!(report.restored, 1);
        // Nothing but the artifact and the lock file is ever written.
        let mut files: Vec<String> = std::fs::read_dir(dir.path())
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        files.sort();
        assert_eq!(files, [STORE_LOCK_NAME.to_string(), scanned[0].file.clone()]);
    }

    #[test]
    fn a_restore_makes_its_artifact_the_last_gc_victim() {
        let dir = TempDir::new("lrutouch");
        {
            let r = repo(&dir);
            let _ = r.get(key(800));
            let _ = r.get(key(900)); // persisted last: most recent so far
        }
        // Restoring s0800 makes it the most recently used on disk.
        assert!(repo(&dir).get(key(800)).from_disk);
        assert_eq!(repo(&dir).with_store_budget(at_most(1)).gc_store(), 1);
        let files = artifact_names(dir.path());
        assert!(files[0].contains("s0800"), "the freshly-restored artifact survives: {files:?}");
    }

    #[test]
    fn the_stamp_is_strictly_newer_than_an_artifact_ahead_of_the_clock() {
        let dir = TempDir::new("stamp");
        {
            let r = repo(&dir);
            let _ = r.get(key(800));
            let _ = r.get(key(900));
        }
        let files = artifact_names(dir.path());
        // s0900 claims a restore an hour from now (a clock that has since
        // stepped back, or another host's).
        let ahead = unix_us(SystemTime::now()) + 3_600_000_000;
        set_mtime_us(&dir.path().join(&files[1]), ahead).unwrap();
        assert!(repo(&dir).get(key(800)).from_disk);
        assert_eq!(mtime_us(&dir, &files[1]), ahead, "other artifacts are not restamped");
        assert_eq!(mtime_us(&dir, &files[0]), ahead + 1, "newest other artifact + 1 us");
        assert_eq!(repo(&dir).with_store_budget(at_most(1)).gc_store(), 1);
        assert_eq!(artifact_names(dir.path()), [files[0].clone()]);
    }

    #[test]
    fn two_repositories_sharing_one_directory_agree_on_the_gc_victim() {
        // Two live repositories stand in for two server processes: each
        // sees the other's touches only through the directory.
        let dir = TempDir::new("shared");
        let a = repo(&dir).with_store_budget(at_most(2));
        let b = repo(&dir).with_store_budget(at_most(2));
        let _ = a.get(key(800));
        let _ = b.get(key(900));
        assert!(b.get(key(800)).from_disk, "b restores what a persisted");
        // a's own last touch of s0800 is the oldest event it knows of, yet
        // its GC must evict s0900: b's restore made s0800 the newer one.
        let _ = a.get(key(950));
        let files = artifact_names(dir.path());
        assert_eq!(files.len(), 2);
        assert!(!files.iter().any(|f| f.contains("s0900")), "LRU across both: {files:?}");
        assert_eq!(a.counters().store_gc_removed, 1);
        assert_eq!(b.gc_store(), 0, "b finds the store already within budget");
        assert_eq!(b.counters().store_entries, a.counters().store_entries);
        assert_eq!(b.counters().store_bytes, a.counters().store_bytes);
    }
}
