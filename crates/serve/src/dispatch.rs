//! Completion-time-aware batch-to-device dispatch.
//!
//! Every device in the pool has a [`BatchTimingModel`] — one per
//! *distinct* [`dsstc_sim::GpuConfig`], shared by identical pool members,
//! since a price depends on the configuration alone — and its own modelled
//! clock: the instant (in modelled microseconds since server start) at
//! which the work already assigned to it will have finished.
//! Assigning a batch prices it on each candidate device and routes it to
//! the one that would **complete** it first — so a slower V100 still
//! absorbs traffic whenever the faster A100's backlog outweighs its speed
//! advantage, and the pool's modelled makespan stays near the optimum a
//! greedy list scheduler can reach. That is the only policy: the
//! round-robin baseline it is compared against is computed in
//! `tests/serve_slo.rs` from this dispatcher's own prices.

use std::sync::{Arc, Mutex};

use dsstc_kernels::EncodingSpec;

use crate::config::DevicePool;
use crate::request::ModelKey;
use crate::timing::BatchTimingModel;

/// How released batches are assigned to pooled devices. There is one
/// policy; this enum and the second parameter of [`DeviceDispatcher::new`]
/// remain only because `benchmark/src/workloads/serve_wire.rs` names them
/// (the next `[benchmark]` PR drops both).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// Price the batch on every device and pick the one minimising modelled
    /// completion time (modelled backlog + modelled batch time).
    MinCompletionTime,
}

/// One dispatch decision.
#[derive(Clone, Copy, Debug)]
pub struct DeviceAssignment {
    /// Index of the chosen device in the pool.
    pub device: usize,
    /// Modelled time of this batch on the chosen device, µs.
    pub modelled_batch_us: f64,
    /// Modelled instant (µs since start) at which the chosen device will
    /// have finished this batch.
    pub modelled_finish_us: f64,
}

/// A planned (not yet committed) dispatch decision: the chosen device and
/// its modelled batch time, with the modelled clock untouched. The worker
/// pool plans over the devices idle at release and commits at once.
#[derive(Clone, Copy, Debug)]
pub struct DevicePlan {
    /// Index of the chosen device in the pool.
    pub device: usize,
    /// Modelled time of the batch on that device, µs.
    pub modelled_batch_us: f64,
}

/// Routes batches onto a (possibly heterogeneous) device pool.
#[derive(Debug)]
pub struct DeviceDispatcher {
    timings: Vec<Arc<BatchTimingModel>>,
    names: Vec<String>,
    specs: Vec<EncodingSpec>,
    /// Per-device modelled backlog horizon, µs since start.
    busy_until_us: Mutex<Vec<f64>>,
}

impl DeviceDispatcher {
    /// Builds one encoding spec (the device's native tiling) per pooled
    /// device and one timing model per distinct device configuration:
    /// identical devices price every `(model, bucket)` identically, so they
    /// share one model and one cache instead of each computing the table.
    pub fn new(pool: &DevicePool, _policy: DispatchPolicy) -> Self {
        let devices = pool.devices();
        let mut timings: Vec<Arc<BatchTimingModel>> = Vec::with_capacity(devices.len());
        for (i, gpu) in devices.iter().enumerate() {
            let timing = match devices[..i].iter().position(|earlier| earlier == gpu) {
                Some(twin) => Arc::clone(&timings[twin]),
                None => Arc::new(BatchTimingModel::new(gpu.clone())),
            };
            timings.push(timing);
        }
        let specs = devices.iter().map(EncodingSpec::for_gpu).collect();
        DeviceDispatcher {
            timings,
            names: pool.names(),
            specs,
            busy_until_us: Mutex::new(vec![0.0; pool.len()]),
        }
    }

    /// Number of devices.
    pub fn len(&self) -> usize {
        self.timings.len()
    }

    /// Always `false`: dispatchers are built from non-empty pools.
    pub fn is_empty(&self) -> bool {
        self.timings.is_empty()
    }

    /// Device names, in pool order.
    pub fn names(&self) -> &[String] {
        &self.names
    }

    /// The timing model of one device.
    ///
    /// # Panics
    /// Panics if `device` is out of range.
    pub fn timing(&self, device: usize) -> &Arc<BatchTimingModel> {
        &self.timings[device]
    }

    /// The encoding spec one device's batches must execute (its native
    /// tiling) — what the worker pool keys its repository lookups by.
    ///
    /// # Panics
    /// Panics if `device` is out of range.
    pub fn spec(&self, device: usize) -> EncodingSpec {
        self.specs[device]
    }

    /// Per-device encoding specs, in pool order.
    pub fn specs(&self) -> &[EncodingSpec] {
        &self.specs
    }

    /// The per-device price, µs, of `batch` requests of `key` — the pricing
    /// [`Self::plan`] documents. The layer table is built at most once per
    /// returned closure, and only when a device's bucket is not priced yet.
    fn price(&self, key: ModelKey, batch: usize) -> impl FnMut(usize) -> f64 + '_ {
        let mut network = None;
        move |device| {
            let timing = &self.timings[device];
            timing.cached_batched_us(key, batch).unwrap_or_else(|| {
                timing.batched_us_for(key, network.get_or_insert_with(|| key.network()), batch)
            })
        }
    }

    /// Prices a batch of `batch` requests of `key`'s model on every device
    /// marked `eligible` and returns the plan minimising modelled
    /// completion time, without advancing the modelled clock. Returns
    /// `None` when no device is eligible.
    ///
    /// Pricing uses the timing caches, falling back to the key's layer
    /// table (never the encode cache) for cold buckets — a cold model's
    /// slow prune+encode cannot head-of-line block dispatch, and on the
    /// steady-state hot path no layer table is built at all. The modelled
    /// clock's lock is taken only to compare two priced candidates, so
    /// pricing a cold bucket never holds it.
    ///
    /// # Panics
    /// Panics if `batch` is zero or `eligible` does not match the pool
    /// size.
    pub fn plan(&self, key: ModelKey, batch: usize, eligible: &[bool]) -> Option<DevicePlan> {
        assert_eq!(eligible.len(), self.timings.len(), "one eligibility flag per device");
        let mut price = self.price(key, batch);
        (0..eligible.len())
            .filter(|&device| eligible[device])
            .map(|device| (device, price(device)))
            .min_by(|(da, ca), (db, cb)| {
                // Both candidates are priced by now: the lock is held for
                // the comparison alone, never while a cold bucket is priced.
                let busy = self.busy_until_us.lock().expect("dispatch mutex poisoned");
                let (fa, fb) = (busy[*da] + ca, busy[*db] + cb);
                fa.partial_cmp(&fb).expect("modelled times are finite")
            })
            .map(|(device, modelled_batch_us)| DevicePlan { device, modelled_batch_us })
    }

    /// Commits a plan: advances the chosen device's modelled clock and
    /// returns the final assignment.
    pub fn commit(&self, plan: DevicePlan) -> DeviceAssignment {
        let mut busy = self.busy_until_us.lock().expect("dispatch mutex poisoned");
        busy[plan.device] += plan.modelled_batch_us;
        DeviceAssignment {
            device: plan.device,
            modelled_batch_us: plan.modelled_batch_us,
            modelled_finish_us: busy[plan.device],
        }
    }

    /// Plans and immediately commits over the whole pool, idle or not.
    ///
    /// # Panics
    /// Panics if `batch` is zero.
    pub fn assign(&self, key: ModelKey, batch: usize) -> DeviceAssignment {
        let plan =
            self.plan(key, batch, &vec![true; self.timings.len()]).expect("non-empty device pool");
        self.commit(plan)
    }

    /// Per-device modelled backlog horizons, µs since start.
    pub fn busy_until_us(&self) -> Vec<f64> {
        self.busy_until_us.lock().expect("dispatch mutex poisoned").clone()
    }

    /// Modelled makespan of everything assigned so far: the latest device
    /// backlog horizon, µs.
    pub fn makespan_us(&self) -> f64 {
        self.busy_until_us().into_iter().fold(0.0, f64::max)
    }

    /// Modelled microseconds one request of `key` costs on the fastest
    /// pooled device (batch of one): the admission controller's unit price
    /// for turning queue depth into projected queue delay. Same pricing as
    /// [`Self::plan`] — timing caches first, the key's layer table for
    /// cold buckets — so the admission decision is deterministic and never
    /// consults a wall clock.
    pub fn unit_cost_us(&self, key: ModelKey) -> f64 {
        (0..self.timings.len()).map(self.price(key, 1)).fold(f64::INFINITY, f64::min)
    }

    /// Aggregate timing-cache hit rate across the pool's distinct models.
    pub fn timing_hit_rate(&self) -> f64 {
        let (mut hits, mut misses) = (0u64, 0u64);
        for (i, timing) in self.timings.iter().enumerate() {
            // A shared model is counted once, at its first device.
            if !self.timings[..i].iter().any(|earlier| Arc::ptr_eq(earlier, timing)) {
                hits += timing.hit_count();
                misses += timing.miss_count();
            }
        }
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ModelId;
    use dsstc_sim::GpuConfig;

    fn mixed_pool() -> DevicePool {
        DevicePool::new(vec![GpuConfig::v100(), GpuConfig::a100()])
    }

    fn bert() -> ModelKey {
        ModelKey::new(ModelId::BertBase, None)
    }

    #[test]
    fn per_device_specs_follow_the_native_tilings() {
        let d = DeviceDispatcher::new(&mixed_pool(), DispatchPolicy::MinCompletionTime);
        assert_eq!(d.spec(0).tiling, GpuConfig::v100().native_tiling());
        assert_eq!(d.spec(1).tiling, GpuConfig::a100().native_tiling());
        assert_ne!(d.spec(0), d.spec(1), "heterogeneous devices carry distinct encodings");
        assert_eq!(d.specs().len(), d.len());
    }

    #[test]
    fn identical_devices_share_one_timing_model_and_distinct_devices_do_not() {
        let twins = DevicePool::homogeneous(GpuConfig::v100(), 2);
        let d = DeviceDispatcher::new(&twins, DispatchPolicy::MinCompletionTime);
        assert!(Arc::ptr_eq(d.timing(0), d.timing(1)));
        let d = DeviceDispatcher::new(&mixed_pool(), DispatchPolicy::MinCompletionTime);
        assert!(!Arc::ptr_eq(d.timing(0), d.timing(1)));
        // A later twin finds its model past a different device in between.
        let pool = DevicePool::new(vec![GpuConfig::v100(), GpuConfig::a100(), GpuConfig::v100()]);
        let d = DeviceDispatcher::new(&pool, DispatchPolicy::MinCompletionTime);
        assert!(Arc::ptr_eq(d.timing(0), d.timing(2)));
        assert!(!Arc::ptr_eq(d.timing(1), d.timing(2)));
    }

    #[test]
    fn a100_models_faster_than_v100() {
        let d = DeviceDispatcher::new(&mixed_pool(), DispatchPolicy::MinCompletionTime);
        let key = bert();
        let network = key.network();
        let v100 = d.timing(0).batched_us_for(key, &network, 4);
        let a100 = d.timing(1).batched_us_for(key, &network, 4);
        assert!(a100 < v100, "A100 {a100} us should beat V100 {v100} us");
    }

    #[test]
    fn min_completion_time_prefers_the_less_backlogged_faster_device() {
        let d = DeviceDispatcher::new(&mixed_pool(), DispatchPolicy::MinCompletionTime);
        // Full VGG-16 batches show the widest modelled V100/A100 gap, so
        // the balanced split is visibly asymmetric.
        let key = ModelKey::new(ModelId::Vgg16, None);
        // Empty pool: both finish at their own batch cost; the faster A100
        // wins. Its backlog then grows until the idle V100 becomes the
        // earlier finisher, so both devices end up utilised.
        let mut seen = [0usize; 2];
        for _ in 0..12 {
            seen[d.assign(key, 8).device] += 1;
        }
        assert!(seen[0] > 0, "V100 absorbed no work: {seen:?}");
        assert!(seen[1] > seen[0], "A100 should take the larger share: {seen:?}");
        let busy = d.busy_until_us();
        assert!(d.makespan_us() >= busy[0].max(busy[1]) - 1e-9);
    }

    #[test]
    fn plan_respects_eligibility_and_only_commit_advances_the_clock() {
        let d = DeviceDispatcher::new(&mixed_pool(), DispatchPolicy::MinCompletionTime);
        let key = bert();
        let plan = d.plan(key, 2, &[true, true]).expect("some device");
        assert_eq!(d.makespan_us(), 0.0, "planning must not advance the modelled clock");
        // Excluding the planned device forces the fallback to the other.
        let only_other: Vec<bool> = (0..2).map(|i| i != plan.device).collect();
        let fallback = d.plan(key, 2, &only_other).expect("other device");
        assert_ne!(fallback.device, plan.device);
        assert!(d.plan(key, 2, &[false, false]).is_none(), "no eligible device, no plan");
        let committed = d.commit(plan);
        assert_eq!(committed.device, plan.device);
        assert!(committed.modelled_finish_us > 0.0);
        assert!(d.makespan_us() > 0.0);
    }

    #[test]
    fn assignments_advance_the_modelled_clock() {
        let d = DeviceDispatcher::new(&mixed_pool(), DispatchPolicy::MinCompletionTime);
        let a = d.assign(bert(), 2);
        assert!(a.modelled_batch_us > 0.0);
        assert!((a.modelled_finish_us - a.modelled_batch_us).abs() < 1e-9, "idle pool");
        // Each later assignment advances the chosen device's clock, and
        // only it, by the batch's price.
        let mut horizon = d.busy_until_us();
        for _ in 0..3 {
            let next = d.assign(bert(), 2);
            horizon[next.device] += next.modelled_batch_us;
            assert!((next.modelled_finish_us - horizon[next.device]).abs() < 1e-9);
            assert_eq!(d.busy_until_us(), horizon);
        }
        assert!(d.timing_hit_rate() > 0.0, "repeat pricing hits the cache");
    }

    #[test]
    fn unit_cost_is_the_fastest_devices_single_request_price_and_is_stable() {
        let d = DeviceDispatcher::new(&mixed_pool(), DispatchPolicy::MinCompletionTime);
        let key = bert();
        let network = key.network();
        let unit = d.unit_cost_us(key);
        assert!(unit > 0.0 && unit.is_finite());
        let v100 = d.timing(0).batched_us_for(key, &network, 1);
        let a100 = d.timing(1).batched_us_for(key, &network, 1);
        assert!((unit - v100.min(a100)).abs() < 1e-9, "min over devices");
        // Pure pricing: repeated calls agree and never advance the
        // modelled clock (nothing to drain, nothing time-dependent).
        assert_eq!(d.unit_cost_us(key), unit);
        assert_eq!(d.makespan_us(), 0.0);
        // Heavier models price strictly higher.
        let vgg = d.unit_cost_us(ModelKey::new(ModelId::Vgg16, None));
        assert!(vgg > unit, "VGG-16 {vgg} us should out-price BERT {unit} us");
    }
}
