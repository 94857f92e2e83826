//! The in-memory tier: an LRU map of encoded models bounded by a
//! [`CacheBudget`], plus the set of keys being loaded right now so each
//! artifact is loaded once however many callers miss on it together.

use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use dsstc_kernels::EncodingSpec;

use super::CacheBudget;
use crate::model::EncodedModel;
use crate::request::ModelKey;

type CacheKey = (ModelKey, EncodingSpec);

#[derive(Debug)]
struct CacheEntry {
    model: Arc<EncodedModel>,
    last_used: u64,
}

/// Cache map plus the set of keys currently being loaded, so the mutex is
/// never held across a (slow) load: concurrent lookups of *other* keys
/// proceed, and only same-key callers wait.
#[derive(Debug, Default)]
struct CacheState {
    models: HashMap<CacheKey, CacheEntry>,
    in_flight: HashSet<CacheKey>,
    tick: u64,
    total_bytes: u64,
    evictions: u64,
}

#[derive(Debug, Default)]
pub(super) struct MemoryTier {
    pub(super) budget: CacheBudget,
    state: Mutex<CacheState>,
    loaded: Condvar,
}

/// The in-flight marker of one key. Same-key callers wait until it drops —
/// after the load is published, or on unwind when the load panicked, in
/// which case the next caller takes over the load (and panics in turn)
/// rather than waiting for ever.
struct LoadClaim<'a> {
    tier: &'a MemoryTier,
    key: CacheKey,
}

impl MemoryTier {
    fn lock(&self) -> MutexGuard<'_, CacheState> {
        self.state.lock().expect("no holder of the cache mutex panics")
    }

    /// Returns the cached model (refreshing its LRU position) and `true`,
    /// first waiting out a load of the same key already in flight; on a
    /// miss runs `load` — as the key's one loader, lock released — caches
    /// its result as most recently used and returns it with `false`.
    pub(super) fn get_or_load(
        &self,
        key: ModelKey,
        spec: EncodingSpec,
        load: impl FnOnce() -> EncodedModel,
    ) -> (Arc<EncodedModel>, bool) {
        let key = (key, spec);
        let mut state = self.lock();
        loop {
            state.tick += 1;
            let tick = state.tick;
            if let Some(entry) = state.models.get_mut(&key) {
                entry.last_used = tick;
                return (Arc::clone(&entry.model), true);
            }
            if state.in_flight.insert(key) {
                break;
            }
            state = self.loaded.wait(state).expect("no holder of the cache mutex panics");
        }
        drop(state);
        let _claim = LoadClaim { tier: self, key };
        let model = Arc::new(load());
        self.publish(key, &model);
        (model, false)
    }

    /// Inserts `model`, then evicts least-recently-used entries until the
    /// budget holds — keeping at least one, so an insert always survives
    /// its own arrival.
    fn publish(&self, key: CacheKey, model: &Arc<EncodedModel>) {
        let mut state = self.lock();
        state.tick += 1;
        let entry = CacheEntry { last_used: state.tick, model: Arc::clone(model) };
        state.total_bytes += model.encoded_bytes();
        state.models.insert(key, entry);
        while state.models.len() > 1
            && (state.models.len() > self.budget.max_entries
                || state.total_bytes > self.budget.max_bytes)
        {
            let victim = state
                .models
                .iter()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(&k, _)| k)
                .expect("non-empty cache");
            if let Some(entry) = state.models.remove(&victim) {
                state.total_bytes -= entry.model.encoded_bytes();
                state.evictions += 1;
            }
        }
    }

    /// `(artifacts, modelled bytes)` held right now and evictions so far.
    pub(super) fn usage(&self) -> (usize, u64, u64) {
        let state = self.lock();
        (state.models.len(), state.total_bytes, state.evictions)
    }
}

impl Drop for LoadClaim<'_> {
    fn drop(&mut self) {
        // Must not panic (it runs while a failed load unwinds); removing a
        // set element leaves the state valid even behind a poisoned lock.
        let mut state = self.tier.state.lock().unwrap_or_else(PoisonError::into_inner);
        state.in_flight.remove(&self.key);
        drop(state);
        self.tier.loaded.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use std::sync::mpsc::{channel, RecvTimeoutError};
    use std::sync::Arc;
    use std::time::Duration;

    use dsstc_kernels::EncodingSpec;
    use dsstc_sim::GpuConfig;

    use crate::request::{ModelId, ModelKey};
    use crate::ModelRepository;

    #[test]
    fn a_panicking_load_releases_its_in_flight_marker() {
        let r = Arc::new(ModelRepository::new(GpuConfig::v100(), 32));
        let key = ModelKey::new(ModelId::RnnLm, Some(0.9));
        // A block tile that is not a whole number of warp tiles: building
        // the kernel for it panics inside the load.
        let mut tiling = GpuConfig::v100().native_tiling();
        tiling.block_m = 100;
        let bad = EncodingSpec::for_tiling(tiling);
        let first = {
            let r = Arc::clone(&r);
            std::thread::spawn(move || r.get_for(key, bad))
        };
        assert!(first.join().is_err(), "the load panics");
        // The second caller must take over the load and panic too, not wait
        // for a publish that will never come. Its sender drops on unwind.
        let (tx, rx) = channel::<()>();
        let second = std::thread::spawn(move || {
            let _tx = tx;
            r.get_for(key, bad)
        });
        assert_eq!(rx.recv_timeout(Duration::from_secs(20)), Err(RecvTimeoutError::Disconnected));
        assert!(second.join().is_err());
    }
}
