//! The boot-time warmer: restores the on-disk store into the memory tier
//! before the first request, so a restart's first lookup is a memory hit.

use std::sync::Mutex;
use std::time::Instant;

use dsstc_kernels::EncodingSpec;

use super::disk::parse_artifact_name;
use super::ModelRepository;
use crate::request::ModelKey;
use crate::telemetry::CacheOutcome;

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

/// A warm-boot work item: either restore an artifact for a spec the current
/// pool uses, or re-encode a stale-spec artifact's model for the pool.
enum WarmJob {
    Restore { key: ModelKey, spec: EncodingSpec },
    Reencode { key: ModelKey, file: String },
}

impl ModelRepository {
    /// Walks the on-disk store at startup with at most `threads` worker
    /// threads (at least one) and restores every artifact usable under one
    /// of `specs` into the memory tier, so the first request after a
    /// restart is a memory **hit**.
    ///
    /// Before any restore, under the cross-process store lock: leftover
    /// temp files and unparseable artifact names are swept and the store is
    /// GC'd back under its budget. Then, lock released, the surviving
    /// artifacts are processed oldest-first (so the most recently used end
    /// up most recent in the memory LRU):
    ///
    /// * artifacts whose spec id matches one of `specs` are **restored**
    ///   (a corrupt payload self-heals through the normal fresh-encode
    ///   fallback and is counted as **healed**);
    /// * artifacts for this proxy width whose spec no device uses any more
    ///   are **re-encoded** for every one of `specs` and the stale file is
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
        let Some(disk) = &self.disk else {
            return report;
        };
        // Phase 1, under the store lock: sweep, GC, queue the survivors.
        let jobs = disk.locked(|entries| {
            report.orphans_removed = disk.sweep_orphans(entries);
            report.gc_removed = disk.gc(entries);
            // Oldest first: most-recently-restored artifacts are published
            // into the memory LRU last and survive a tight memory budget.
            entries.sort_by(|a, b| a.mtime_us.cmp(&b.mtime_us).then_with(|| a.file.cmp(&b.file)));
            let mut jobs: Vec<WarmJob> = Vec::new();
            for entry in entries.iter() {
                let Some((key, proxy_dim, spec_id)) = parse_artifact_name(&entry.file) else {
                    continue;
                };
                if proxy_dim != self.proxy_dim {
                    report.skipped += 1;
                    continue;
                }
                jobs.push(match specs.iter().find(|spec| spec.id() == spec_id) {
                    Some(&spec) => WarmJob::Restore { key, spec },
                    None => WarmJob::Reencode { key, file: entry.file.clone() },
                });
            }
            jobs
        }); // lock released: restore/persist paths re-acquire it per touch
        let Some(mut jobs) = jobs else {
            return report;
        };

        // Phase 2: bounded workers drain the queue through the normal
        // get_for path, which restores, heals and publishes. Workers pop
        // from the back; reverse so the oldest job runs first.
        jobs.reverse();
        let workers = threads.clamp(1, jobs.len().max(1));
        let shared = Mutex::new((jobs, report));
        let lock = || shared.lock().expect("no holder of the warm-boot queue panics");
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let job = lock().0.pop(); // guard dropped: never held across a job
                    match job {
                        None => break,
                        Some(WarmJob::Restore { key, spec }) => {
                            match self.get_for_traced(key, spec).1 {
                                // Corrupt on disk: the fresh encode already
                                // rewrote the artifact.
                                CacheOutcome::MissFresh => lock().1.healed += 1,
                                CacheOutcome::Hit | CacheOutcome::MissRestored => {
                                    lock().1.restored += 1;
                                }
                            }
                        }
                        Some(WarmJob::Reencode { key, file }) => {
                            for &spec in specs {
                                let _ = self.get_for(key, spec);
                            }
                            disk.remove(&file);
                            lock().1.reencoded += 1;
                        }
                    }
                });
            }
        });
        let (_, mut report) = shared.into_inner().expect("no holder of the warm-boot queue panics");
        report.elapsed_ms = started.elapsed().as_secs_f64() * 1e3;
        self.count(|stats| {
            stats.warm_restored += report.restored;
            stats.warm_reencoded += report.reencoded;
            stats.warm_healed += report.healed;
        });
        report
    }
}
