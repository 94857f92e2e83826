//! Fault-injection property tests for the on-disk encoding store.
//!
//! Every case doctors a freshly seeded store — truncating, bit-flipping or
//! zeroing an artifact at an arbitrary offset, stamping an older container
//! format version on it, falsifying the artifacts' mtimes (the store's LRU
//! key), planting files that are not artifacts — then proves the lifecycle
//! self-heals: warm boot and lookups never panic, corrupt artifacts fall
//! back to a fresh encode and are rewritten, GC still shrinks the store to
//! its budget, and the bytes served always match a clean encode.
//!
//! Case count honours `PROPTEST_CASES` (CI runs the suite in release mode
//! with 64 cases).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use dsstc_formats::serialize::{FORMAT_VERSION, MAGIC};
use dsstc_serve::{CacheBudget, EncodingSpec, ModelId, ModelKey, ModelRepository};
use dsstc_sim::GpuConfig;
use dsstc_tensor::{Matrix, SparsityPattern};
use proptest::prelude::*;

/// A narrow proxy width keeps each fresh encode cheap enough to run dozens
/// of fault cases.
const PROXY_DIM: usize = 16;

static CASE: AtomicU64 = AtomicU64::new(0);

/// A unique, self-cleaning store directory per fault case.
struct TempStore(PathBuf);

impl TempStore {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "dsstc-faults-{tag}-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create temp store");
        TempStore(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn repo(dir: &Path) -> ModelRepository {
    ModelRepository::new(GpuConfig::v100(), PROXY_DIM).with_disk_cache(dir)
}

fn key() -> ModelKey {
    ModelKey::new(ModelId::RnnLm, Some(0.9))
}

/// The keys a multi-artifact store is seeded with; their artifact names
/// sort in this order.
fn keys() -> [ModelKey; 3] {
    [0.8, 0.9, 0.95].map(|s| ModelKey::new(ModelId::RnnLm, Some(s)))
}

fn spec() -> EncodingSpec {
    EncodingSpec::for_gpu(&GpuConfig::v100())
}

fn probe_input() -> Matrix {
    Matrix::random_sparse(2, PROXY_DIM, 0.4, SparsityPattern::Uniform, 7)
}

/// The output `r` serves for the probe input under `key`.
fn served(r: &ModelRepository, key: ModelKey) -> Vec<f32> {
    r.get_for(key, spec()).forward(r.kernel(), &probe_input()).as_slice().to_vec()
}

/// The output a clean, memory-only encode serves for the probe input.
/// Encoding is deterministic, so any correctly restored or re-encoded
/// artifact must reproduce these bytes exactly.
fn reference_output_for(key: ModelKey) -> Vec<f32> {
    served(&ModelRepository::new(GpuConfig::v100(), PROXY_DIM), key)
}

fn reference_output() -> Vec<f32> {
    reference_output_for(key())
}

/// Seeds `dir` with one persisted artifact and returns its filename.
fn seed_store(dir: &Path) -> String {
    let r = repo(dir);
    let _ = r.get_for(key(), spec());
    artifact_names(dir).pop().expect("seeding persisted an artifact")
}

/// Artifact filenames in `dir`, sorted (skips everything else).
fn artifact_names(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|n| n.ends_with(".dsstc"))
        .collect();
    names.sort();
    names
}

/// Applies one fault to `file`: 0 truncates at `offset`, 1 flips one bit
/// at `offset`, 2 replaces the file with a zero-length write.
fn inject(file: &Path, mode: u8, offset_permille: u32, bit: u8) {
    let bytes = std::fs::read(file).expect("read target");
    let offset = (bytes.len().saturating_sub(1)) * offset_permille as usize / 1000;
    match mode {
        0 => std::fs::write(file, &bytes[..offset]).expect("truncate"),
        1 => {
            let mut bytes = bytes;
            if !bytes.is_empty() {
                bytes[offset] ^= 1 << (bit % 8);
            }
            std::fs::write(file, bytes).expect("bit flip");
        }
        _ => std::fs::write(file, b"").expect("zero-length write"),
    }
}

/// Falsifies the mtime of every artifact in `dir` (the store's LRU key):
/// 0 sends them all to the epoch, 1 a decade ahead of the clock (distinct,
/// ascending by name), 2 makes them all equal.
fn inject_mtimes(dir: &Path, mode: u8) {
    let decade = Duration::from_secs(10 * 365 * 86_400);
    for (i, name) in artifact_names(dir).iter().enumerate() {
        let at = match mode {
            0 => UNIX_EPOCH,
            1 => SystemTime::now() + decade + Duration::from_micros(i as u64),
            _ => UNIX_EPOCH + decade,
        };
        let file = std::fs::File::options().write(true).open(dir.join(name)).expect("open");
        file.set_modified(at).expect("set mtime");
    }
}

/// The retired store index's filename: a directory written by an older
/// build may still hold one, and nothing may read it.
const LEFTOVER_MANIFEST: &str = "MANIFEST.dsstcm";

/// Plants files that are not artifacts: a leftover manifest of `len`
/// arbitrary bytes, an interrupted write's temp file and an unrelated
/// file. Returns the manifest's bytes.
fn plant_foreign_files(dir: &Path, seed: u64, len: usize) -> Vec<u8> {
    let mut state = seed | 1;
    let junk: Vec<u8> = (0..len)
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state as u8
        })
        .collect();
    std::fs::write(dir.join(LEFTOVER_MANIFEST), &junk).expect("plant manifest");
    std::fs::write(dir.join("rnnlm-s0900-d16-x.tmp-1-0"), b"half").expect("plant temp file");
    std::fs::write(dir.join("README"), b"not ours").expect("plant foreign file");
    junk
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Whatever happens to the artifact file, warm boot self-heals: no
    /// panic, the store ends up with a valid artifact again, and the bytes
    /// served match a clean encode exactly.
    #[test]
    fn any_artifact_corruption_self_heals(
        mode in 0u8..3,
        offset_permille in 0u32..=1000,
        bit in 0u8..8,
    ) {
        let store = TempStore::new("artifact");
        let file = seed_store(store.path());
        inject(&store.path().join(&file), mode, offset_permille, bit);

        let r = repo(store.path());
        let report = r.warm_boot(&[spec()], 1);
        // A flipped bit in a slack byte can leave the artifact readable;
        // every outcome must be one of restored-intact or healed-by-fresh-
        // encode — never a crash, never silence.
        prop_assert_eq!(report.restored + report.healed, 1,
            "restored {} healed {}", report.restored, report.healed);
        let m = r.get_for(key(), spec());
        prop_assert_eq!(
            m.forward(r.kernel(), &probe_input()).as_slice().to_vec(),
            reference_output()
        );

        // The heal (or intact restore) is durable: a fresh process restores
        // from disk and serves the same bytes.
        let r2 = repo(store.path());
        let m2 = r2.get_for(key(), spec());
        prop_assert!(m2.from_disk, "rewritten artifact restores cleanly");
        prop_assert_eq!(
            m2.forward(r2.kernel(), &probe_input()).as_slice().to_vec(),
            reference_output()
        );
    }

    /// Whatever the directory claims about its artifacts' ages and whatever
    /// else lies in it, the store keeps working: GC shrinks it to any
    /// budget (name order where the mtimes cannot tell), warm boot restores
    /// the survivors, every lookup serves a clean encode's bytes, and the
    /// foreign files are swept (temp) or never read (the rest).
    #[test]
    fn any_metadata_fault_is_harmless(
        mode in 0u8..3,
        junk_seed in any::<u64>(),
        junk_len in 0usize..=256,
        max_entries in 1usize..=3,
    ) {
        let store = TempStore::new("metadata");
        {
            let r = repo(store.path());
            for k in keys() {
                let _ = r.get_for(k, spec());
            }
        }
        let names = artifact_names(store.path());
        prop_assert_eq!(names.len(), 3);
        inject_mtimes(store.path(), mode);
        let junk = plant_foreign_files(store.path(), junk_seed, junk_len);

        // Every mode orders the artifacts by name (ties fall back to it).
        let gc = repo(store.path())
            .with_store_budget(CacheBudget { max_entries, max_bytes: u64::MAX });
        prop_assert_eq!(gc.gc_store(), (3 - max_entries) as u64);
        prop_assert_eq!(artifact_names(store.path()), names[3 - max_entries..].to_vec());

        let r = repo(store.path());
        let report = r.warm_boot(&[spec()], 1);
        prop_assert_eq!(report.restored, max_entries as u64);
        prop_assert_eq!((report.healed, report.orphans_removed), (0, 1), "only the temp file goes");
        for k in keys() {
            prop_assert_eq!(served(&r, k), reference_output_for(k));
        }
        prop_assert_eq!(r.counters().fresh_encodes, (3 - max_entries) as u64);
        prop_assert_eq!(std::fs::read(store.path().join(LEFTOVER_MANIFEST)).unwrap(), junk);

        // A 1-byte budget still stops at the floor of one artifact.
        let floor = repo(store.path())
            .with_store_budget(CacheBudget { max_entries: usize::MAX, max_bytes: 1 });
        prop_assert_eq!(floor.gc_store(), 2);
        prop_assert_eq!(artifact_names(store.path()).len(), 1);
    }

    /// Corrupting an artifact and falsifying the directory's metadata
    /// together still converges: the artifact heals via a fresh encode and
    /// the next boot is clean.
    #[test]
    fn simultaneous_artifact_and_metadata_faults_converge(
        artifact_mode in 0u8..3,
        mtime_mode in 0u8..3,
        offset_permille in 0u32..=1000,
    ) {
        let store = TempStore::new("both");
        let file = seed_store(store.path());
        inject(&store.path().join(&file), artifact_mode, offset_permille, 3);
        inject_mtimes(store.path(), mtime_mode);
        let _ = plant_foreign_files(store.path(), u64::from(offset_permille), 64);

        let r = repo(store.path());
        let report = r.warm_boot(&[spec()], 1);
        prop_assert_eq!(report.restored + report.healed, 1);
        prop_assert_eq!(served(&r, key()), reference_output());
        // Converged: the next boot is a clean restore with nothing to heal.
        let r2 = repo(store.path());
        let report2 = r2.warm_boot(&[spec()], 1);
        prop_assert_eq!((report2.restored, report2.healed), (1, 0));
    }
}

/// Regression: a foreign-proxy-width artifact (written by a process with a
/// different `proxy_dim`) is skipped by warm boot but still counts against
/// the store byte budget — GC must treat it as a first-class (indeed,
/// preferred) eviction candidate. Before the fix, eviction was strictly
/// LRU, so a *newer* foreign artifact could push the only natively
/// servable artifact out of the store.
#[test]
fn gc_evicts_foreign_width_artifacts_before_native_ones() {
    let store = TempStore::new("foreign");
    // Native artifact first (older last-restore timestamp).
    let _ = seed_store(store.path());
    // A foreign-width artifact lands second, so plain LRU would keep it.
    let foreign =
        ModelRepository::new(GpuConfig::v100(), 2 * PROXY_DIM).with_disk_cache(store.path());
    let _ = foreign.get_for(key(), spec());
    let names = artifact_names(store.path());
    assert_eq!(names.len(), 2, "native + foreign artifacts seeded: {names:?}");

    let gc =
        repo(store.path()).with_store_budget(CacheBudget { max_entries: usize::MAX, max_bytes: 1 });
    assert_eq!(gc.gc_store(), 1, "over-budget store evicts exactly one artifact");
    let survivors = artifact_names(store.path());
    assert_eq!(survivors.len(), 1);
    assert!(
        survivors[0].contains(&format!("-d{PROXY_DIM}-")),
        "the native-width artifact survives, not the newer foreign one: {survivors:?}"
    );

    // The survivor is genuinely servable by this process: a fresh repo
    // restores it from disk.
    let r = repo(store.path());
    assert!(r.get_for(key(), spec()).from_disk, "survivor restores cleanly");
}

/// Lookups (not just warm boot) self-heal too: a poisoned artifact under a
/// live repository falls back to a fresh encode and rewrites the file.
#[test]
fn a_lookup_on_a_poisoned_store_falls_back_and_rewrites() {
    let store = TempStore::new("lookup");
    let file = seed_store(store.path());
    inject(&store.path().join(&file), 2, 0, 0); // zero-length artifact
    let r = repo(store.path());
    let m = r.get_for(key(), spec());
    assert!(!m.from_disk, "a zeroed artifact must not be served");
    assert_eq!(r.counters().fresh_encodes, 1);
    assert_eq!(m.forward(r.kernel(), &probe_input()).as_slice().to_vec(), reference_output());
    let r2 = repo(store.path());
    assert!(r2.get_for(key(), spec()).from_disk, "the fallback rewrote the artifact");
}

/// An artifact written by an older container format is refused and healed
/// by the same path as a corrupt one: the lookup re-encodes, serves the
/// clean bytes and rewrites the file at the current version. Only the
/// container's version field is rewritten to `version`: whatever the bytes
/// behind it, no older version is read.
fn an_old_format_artifact_is_re_encoded_and_rewritten(version: u16) {
    let store = TempStore::new(&format!("v{version}"));
    let path = store.path().join(seed_store(store.path()));
    let container_version = |bytes: &[u8]| {
        let at = bytes.windows(4).position(|w| w == MAGIC).expect("a DSTC container") + 4;
        (at, u16::from_le_bytes([bytes[at], bytes[at + 1]]))
    };
    let mut bytes = std::fs::read(&path).expect("read artifact");
    let (at, current) = container_version(&bytes);
    assert_eq!(current, FORMAT_VERSION);
    bytes[at..at + 2].copy_from_slice(&version.to_le_bytes());
    std::fs::write(&path, &bytes).expect("write old-version artifact");

    let r = repo(store.path());
    let m = r.get_for(key(), spec());
    assert!(!m.from_disk, "a v{version} artifact must not be served");
    assert_eq!(r.counters().fresh_encodes, 1);
    assert_eq!(m.forward(r.kernel(), &probe_input()).as_slice().to_vec(), reference_output());

    let rewritten = std::fs::read(&path).expect("read rewritten artifact");
    assert_eq!(container_version(&rewritten).1, FORMAT_VERSION);
    let r2 = repo(store.path());
    let m2 = r2.get_for(key(), spec());
    assert!(m2.from_disk, "the rewritten artifact restores cleanly");
    assert_eq!(r2.counters().fresh_encodes, 0);
    assert_eq!(m2.forward(r2.kernel(), &probe_input()).as_slice().to_vec(), reference_output());
}

#[test]
fn a_format_v1_artifact_is_re_encoded_and_rewritten() {
    an_old_format_artifact_is_re_encoded_and_rewritten(1);
}

/// Version 2 stored a bitmap per tile; version 3 the flat band-major
/// arrays. No migration: a v2 artifact heals like any stale one.
#[test]
fn a_format_v2_artifact_is_re_encoded_and_rewritten() {
    an_old_format_artifact_is_re_encoded_and_rewritten(2);
}

/// Version 3 stored the values as `f32`; version 4 as the FP16 halves they
/// are. No migration: a v3 artifact heals like any stale one.
#[test]
fn a_format_v3_artifact_is_re_encoded_and_rewritten() {
    assert_eq!(FORMAT_VERSION, 4);
    an_old_format_artifact_is_re_encoded_and_rewritten(3);
}
