//! Price-aware batch-to-device routing.
//!
//! Every device in the pool has its own [`BatchTimingModel`], which prices
//! a batch in closed form at the batch's own size. A released batch is
//! only ever routed among the devices idle at that moment, and an idle
//! device has no backlog: its modelled completion time is its price. So
//! routing prices the batch on each idle device and picks the cheapest —
//! the faster A100 over an idle V100 — keeping it with the asking worker on
//! a tie, so a pool of identical devices never hands a batch to another
//! thread. Routing keeps no state; what each device ran is counted once, by
//! the telemetry hub (`dsstc_device_modelled_busy_us_total`).

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
    /// Price the batch on every idle device and pick the one minimising
    /// modelled completion time — for an idle device, its price.
    MinCompletionTime,
}

/// One routing decision.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DeviceAssignment {
    /// Index of the chosen device in the pool.
    pub device: usize,
    /// Modelled time of this batch on the chosen device, µs.
    pub modelled_batch_us: f64,
}

/// Routes batches onto a (possibly heterogeneous) device pool.
#[derive(Debug)]
pub struct DeviceDispatcher {
    timings: Vec<BatchTimingModel>,
    names: Vec<String>,
    specs: Vec<EncodingSpec>,
}

impl DeviceDispatcher {
    /// Builds one encoding spec (the device's native tiling) and one timing
    /// model per pooled device.
    pub fn new(pool: &DevicePool, _policy: DispatchPolicy) -> Self {
        let devices = pool.devices();
        let timings = devices.iter().map(|gpu| BatchTimingModel::new(gpu.clone())).collect();
        let specs = devices.iter().map(EncodingSpec::for_gpu).collect();
        DeviceDispatcher { timings, names: pool.names(), specs }
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
    pub fn timing(&self, device: usize) -> &BatchTimingModel {
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

    /// Routes a batch of `batch` requests of `key`'s model that the idle
    /// device `asker` pulled: prices it on `asker` and on every other device
    /// marked `idle`, and returns the cheapest — `asker` itself unless
    /// another idle device is strictly cheaper.
    ///
    /// Pricing reads the key's layer table alone (never the encode cache),
    /// so a cold model's slow prune+encode cannot head-of-line block
    /// routing. A key's first price on a device builds its layers in
    /// closed form; later prices read them.
    ///
    /// # Panics
    /// Panics if `batch` is zero, `idle` does not match the pool size or
    /// `asker` is out of range.
    pub fn route(
        &self,
        key: ModelKey,
        batch: usize,
        idle: &[bool],
        asker: usize,
    ) -> DeviceAssignment {
        assert_eq!(idle.len(), self.timings.len(), "one idle flag per device");
        let price = |device: usize| self.timings[device].batched_us_for(key, batch);
        let mut best = DeviceAssignment { device: asker, modelled_batch_us: price(asker) };
        for device in (0..idle.len()).filter(|&device| idle[device] && device != asker) {
            let modelled_batch_us = price(device);
            if modelled_batch_us < best.modelled_batch_us {
                best = DeviceAssignment { device, modelled_batch_us };
            }
        }
        best
    }

    /// The cheapest device of the whole pool for a batch of `batch`
    /// requests of `key` (the first such device on a tie).
    ///
    /// # Panics
    /// Panics if `batch` is zero.
    pub fn assign(&self, key: ModelKey, batch: usize) -> DeviceAssignment {
        self.route(key, batch, &vec![true; self.timings.len()], 0)
    }

    /// Modelled microseconds one request of `key` costs on the fastest
    /// pooled device (batch of one): the admission controller's unit price
    /// for turning queue depth into projected queue delay. Same pricing as
    /// [`Self::route`], from the key's layer table alone, so the admission
    /// decision is deterministic and never consults a wall clock.
    pub fn unit_cost_us(&self, key: ModelKey) -> f64 {
        self.assign(key, 1).modelled_batch_us
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
    fn identical_devices_price_alike_and_distinct_devices_do_not() {
        // Each device prices on its own model; a price depends on the device
        // configuration alone, so twins agree wherever they sit in the pool.
        let pool = DevicePool::new(vec![GpuConfig::v100(), GpuConfig::a100(), GpuConfig::v100()]);
        let d = DeviceDispatcher::new(&pool, DispatchPolicy::MinCompletionTime);
        for (key, batch) in [(bert(), 1), (bert(), 6), (ModelKey::new(ModelId::ResNet50, None), 3)]
        {
            let [v100, a100, twin] = [0, 1, 2].map(|i| d.timing(i).batched_us_for(key, batch));
            assert_eq!(v100, twin, "{key:?} x{batch}");
            assert_ne!(v100, a100, "{key:?} x{batch}");
        }
    }

    #[test]
    fn a100_models_faster_than_v100() {
        let d = DeviceDispatcher::new(&mixed_pool(), DispatchPolicy::MinCompletionTime);
        let key = bert();
        let v100 = d.timing(0).batched_us_for(key, 4);
        let a100 = d.timing(1).batched_us_for(key, 4);
        assert!(a100 < v100, "A100 {a100} us should beat V100 {v100} us");
    }

    #[test]
    fn a_pulled_batch_runs_on_the_cheapest_idle_device_or_stays_on_a_tie() {
        let (v100, a100) = (0, 1);
        let d = DeviceDispatcher::new(&mixed_pool(), DispatchPolicy::MinCompletionTime);
        let models = [ModelId::BertBase, ModelId::ResNet50, ModelId::Vgg16, ModelId::RnnLm];
        let cases = models.map(|model| (ModelKey::new(model, None), 1));
        for (key, batch) in cases.into_iter().chain([(bert(), 8)]) {
            // Both idle and the V100 asks: the faster A100 runs the batch, at
            // its own price, and so it does when the A100 asks.
            let both = d.route(key, batch, &[true, true], v100);
            let a100_us = d.timing(a100).batched_us_for(key, batch);
            assert_eq!(both, DeviceAssignment { device: a100, modelled_batch_us: a100_us });
            assert_eq!(d.route(key, batch, &[true, true], a100), both);
            assert_eq!(d.assign(key, batch), both, "the cheapest of the whole pool");
            // The A100 busy: the asking V100 runs it.
            let alone = d.route(key, batch, &[true, false], v100);
            assert_eq!(alone.device, v100, "{key:?} x{batch}");
            assert!(alone.modelled_batch_us > both.modelled_batch_us);
            // Routing keeps no state: asking again changes nothing.
            for _ in 0..3 {
                assert_eq!(d.route(key, batch, &[true, true], v100), both);
                assert_eq!(d.route(key, batch, &[true, false], v100), alone);
            }
        }
        // Two identical idle devices tie on every price: the asker runs it.
        let twins = DevicePool::homogeneous(GpuConfig::v100(), 2);
        let d = DeviceDispatcher::new(&twins, DispatchPolicy::MinCompletionTime);
        for asker in 0..2 {
            assert_eq!(d.route(bert(), 4, &[true, true], asker).device, asker);
        }
    }

    #[test]
    fn route_skips_busy_devices_however_cheap() {
        let pool = DevicePool::new(vec![GpuConfig::v100(), GpuConfig::a100(), GpuConfig::a100()]);
        let d = DeviceDispatcher::new(&pool, DispatchPolicy::MinCompletionTime);
        let key = bert();
        // The first A100 is busy: the idle twin runs the batch.
        assert_eq!(d.route(key, 2, &[true, false, true], 0).device, 2);
        // Both A100s busy: the asker is the one candidate left.
        assert_eq!(d.route(key, 2, &[true, false, false], 0).device, 0);
        // An asking A100 keeps the batch over its idle twin.
        assert_eq!(d.route(key, 2, &[true, true, true], 2).device, 2);
    }

    #[test]
    fn unit_cost_is_the_fastest_devices_single_request_price_and_is_stable() {
        let d = DeviceDispatcher::new(&mixed_pool(), DispatchPolicy::MinCompletionTime);
        let key = bert();
        let unit = d.unit_cost_us(key);
        assert!(unit > 0.0 && unit.is_finite());
        let v100 = d.timing(0).batched_us_for(key, 1);
        let a100 = d.timing(1).batched_us_for(key, 1);
        assert!((unit - v100.min(a100)).abs() < 1e-9, "min over devices");
        // Pure pricing: repeated calls agree (nothing time-dependent).
        assert_eq!(d.unit_cost_us(key), unit);
        // Heavier models price strictly higher.
        let vgg = d.unit_cost_us(ModelKey::new(ModelId::Vgg16, None));
        assert!(vgg > unit, "VGG-16 {vgg} us should out-price BERT {unit} us");
    }
}
