//! Modelled GPU latency of a batched network execution.
//!
//! Responses report the dual-side sparse Tensor Core time of the **real**
//! network (not the functional proxy) at the executing batch's size: every
//! layer's lowered GEMM has its M dimension scaled by the number of
//! batched requests and is charged through the same synthetic-profile path
//! `dsstc::InferenceEstimator` uses. Because the profile is deterministic
//! for a `(model, sparsity, batch)` triple, results are memoised — the
//! latency cache sits next to the encode cache as the second artifact the
//! serving layer amortises across requests.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use dsstc_kernels::bitmap_spgemm::{BitmapSpGemm, SyntheticGemmSpec};
use dsstc_models::Network;
use dsstc_sim::{GpuConfig, GpuTimingModel};
use dsstc_tensor::GemmShape;

use crate::model::EncodedModel;
use crate::request::ModelKey;

/// How many M-dimension warp-tile rows each layer's synthetic profile
/// samples. 64 rows keep the per-batch-size pricing under a millisecond per
/// layer while staying within a few percent of the exact profile (the
/// per-tile statistics are i.i.d. across rows).
const M_SAMPLE_TILES: usize = 64;

/// Estimates (and memoises) the modelled time of batched network runs.
#[derive(Debug)]
pub struct BatchTimingModel {
    kernel: BitmapSpGemm,
    model: GpuTimingModel,
    cache: Mutex<HashMap<(ModelKey, usize), f64>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl BatchTimingModel {
    /// Creates the model for one GPU configuration. Batches are priced on
    /// the device's **native** kernel tiling
    /// ([`GpuConfig::native_tiling`]) — the same tiling the device's
    /// encoded weights follow.
    pub fn new(gpu: GpuConfig) -> Self {
        BatchTimingModel {
            kernel: BitmapSpGemm::for_device(gpu.clone()),
            model: GpuTimingModel::new(gpu),
            cache: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Modelled dual-side time, in µs, of running `model`'s real network at
    /// batch size `batch` (each layer's lowered-GEMM M dimension scales with
    /// the batch).
    ///
    /// Batch sizes are **bucketed to the next power of two** for pricing —
    /// the profile is computed at the bucket size and interpolated linearly
    /// down to `batch` — so a server only ever prices
    /// `log2(max_batch) + 1` distinct shapes per model and the cache
    /// converges after the first few batches regardless of traffic shape.
    ///
    /// # Panics
    /// Panics if `batch` is zero.
    pub fn batched_us(&self, model: &EncodedModel, batch: usize) -> f64 {
        self.batched_us_for(model.key, &model.network, batch)
    }

    /// Like [`Self::batched_us`], but priced from the key's layer table
    /// alone — no encoded weights required, so the dispatcher can price a
    /// cold model without paying (or waiting on) its prune+encode.
    ///
    /// # Panics
    /// Panics if `batch` is zero.
    pub fn batched_us_for(&self, key: ModelKey, network: &Network, batch: usize) -> f64 {
        assert!(batch > 0, "batch must be non-empty");
        let bucket = batch.next_power_of_two();
        let bucket_us = self.bucket_us(key, network, bucket);
        bucket_us * batch as f64 / bucket as f64
    }

    /// Cache-only lookup: the modelled batched time if this `(key, batch)`
    /// bucket is already priced, `None` otherwise (no profiling is
    /// performed). Lets the dispatcher skip building the layer table
    /// entirely on the steady-state hot path.
    ///
    /// # Panics
    /// Panics if `batch` is zero.
    pub fn cached_batched_us(&self, key: ModelKey, batch: usize) -> Option<f64> {
        assert!(batch > 0, "batch must be non-empty");
        let bucket = batch.next_power_of_two();
        let us = *self.cache.lock().expect("timing mutex poisoned").get(&(key, bucket))?;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(us * batch as f64 / bucket as f64)
    }

    /// Prices one power-of-two bucket, memoised.
    fn bucket_us(&self, key: ModelKey, network: &Network, bucket: usize) -> f64 {
        let cache_key = (key, bucket);
        if let Some(&us) = self.cache.lock().expect("timing mutex poisoned").get(&cache_key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return us;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let mut total = 0.0;
        for (i, layer) in network.layers().iter().enumerate() {
            let base = layer.kind.lowered_gemm();
            let shape = GemmShape::new(base.m * bucket, base.n, base.k);
            let spec = SyntheticGemmSpec::oriented(
                shape,
                layer.activation_sparsity,
                layer.weight_sparsity,
                None,
                None,
                timing_seed(key, i, bucket),
            );
            let (profile, _) = self.kernel.profile_synthetic_capped(&spec, M_SAMPLE_TILES);
            total += self.model.estimate(&profile).time_us();
        }
        self.cache.lock().expect("timing mutex poisoned").insert(cache_key, total);
        total
    }

    /// Pre-prices every power-of-two bucket up to `max_batch` so no request
    /// pays a pricing miss (used by server warm-up).
    pub fn warm(&self, model: &EncodedModel, max_batch: usize) {
        let mut bucket = 1;
        loop {
            let _ = self.bucket_us(model.key, &model.network, bucket);
            if bucket >= max_batch {
                break;
            }
            bucket *= 2;
        }
    }

    /// Latency-cache hits so far.
    pub fn hit_count(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Latency-cache misses so far.
    pub fn miss_count(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Fraction of lookups served from the cache.
    pub fn hit_rate(&self) -> f64 {
        let hits = self.hit_count();
        let total = hits + self.miss_count();
        if total == 0 {
            0.0
        } else {
            hits as f64 / total as f64
        }
    }
}

/// Deterministic seed for a layer's synthetic profile at one batch size.
fn timing_seed(key: ModelKey, layer_index: usize, batch: usize) -> u64 {
    let mut seed: u64 = 0xBA7C_4ED0;
    for b in key.model.name().bytes() {
        seed = seed.rotate_left(5) ^ u64::from(b).wrapping_mul(0x9E37_79B9);
    }
    seed ^ ((layer_index as u64) << 32)
        ^ ((batch as u64) << 16)
        ^ u64::from(key.sparsity_permille.map_or(0xFFFF, |p| p))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{ModelId, ModelKey};
    use crate::store::ModelRepository;

    fn bert() -> (ModelRepository, BatchTimingModel) {
        (ModelRepository::new(GpuConfig::v100(), 32), BatchTimingModel::new(GpuConfig::v100()))
    }

    #[test]
    fn batched_time_grows_sublinearly_with_batch() {
        let (repo, timing) = bert();
        let m = repo.get(ModelKey::new(ModelId::BertBase, None));
        let one = timing.batched_us(&m, 1);
        let four = timing.batched_us(&m, 4);
        assert!(one > 0.0);
        assert!(four > one, "batch 4 ({four}) should cost more than batch 1 ({one})");
        // Batching amortises weight traffic: 4x the work costs < 4x the time.
        assert!(four < one * 4.0, "batch 4 ({four}) vs 4 x batch 1 ({one})");
    }

    #[test]
    fn repeated_lookups_hit_the_cache_and_agree() {
        let (repo, timing) = bert();
        let m = repo.get(ModelKey::new(ModelId::BertBase, None));
        let a = timing.batched_us(&m, 2);
        let b = timing.batched_us(&m, 2);
        assert_eq!(a, b);
        assert_eq!((timing.hit_count(), timing.miss_count()), (1, 1));
        assert!((timing.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn non_power_of_two_batches_share_their_bucket() {
        let (repo, timing) = bert();
        let m = repo.get(ModelKey::new(ModelId::BertBase, None));
        let five = timing.batched_us(&m, 5);
        let eight = timing.batched_us(&m, 8);
        // 5 is priced off the 8-bucket (one miss total) and interpolated.
        assert_eq!(timing.miss_count(), 1);
        assert!((five - eight * 5.0 / 8.0).abs() < 1e-9);
    }

    #[test]
    fn warm_prices_every_bucket_up_front() {
        let (repo, timing) = bert();
        let m = repo.get(ModelKey::new(ModelId::BertBase, None));
        timing.warm(&m, 8);
        assert_eq!(timing.miss_count(), 4); // buckets 1, 2, 4, 8
        for batch in 1..=8 {
            let _ = timing.batched_us(&m, batch);
        }
        assert_eq!(timing.miss_count(), 4, "warmed buckets absorb all traffic");
    }

    #[test]
    fn cached_lookup_hits_only_after_pricing() {
        let (_, timing) = bert();
        let key = ModelKey::new(ModelId::BertBase, None);
        assert_eq!(timing.cached_batched_us(key, 3), None);
        assert_eq!(timing.hit_count(), 0, "a cache-only miss is not counted");
        let priced = timing.batched_us_for(key, &key.network(), 3);
        let cached = timing.cached_batched_us(key, 3).expect("bucket now priced");
        assert_eq!(priced, cached);
        assert_eq!((timing.hit_count(), timing.miss_count()), (1, 1));
    }

    #[test]
    fn key_only_pricing_agrees_with_encoded_model_pricing() {
        let (repo, timing) = bert();
        let key = ModelKey::new(ModelId::BertBase, Some(0.9));
        // Price from the layer table alone (no encoded weights)...
        let from_key = timing.batched_us_for(key, &key.network(), 4);
        assert_eq!(timing.miss_count(), 1);
        // ...then through the encoded model: same cache entry, same value.
        let m = repo.get(key);
        let from_model = timing.batched_us(&m, 4);
        assert_eq!(from_key, from_model);
        assert_eq!((timing.hit_count(), timing.miss_count()), (1, 1));
    }

    #[test]
    fn sparser_weights_run_faster() {
        let (repo, timing) = bert();
        let dense_ish = repo.get(ModelKey::new(ModelId::RnnLm, Some(0.5)));
        let sparse = repo.get(ModelKey::new(ModelId::RnnLm, Some(0.95)));
        assert!(timing.batched_us(&sparse, 2) < timing.batched_us(&dense_ish, 2));
    }

    #[test]
    #[should_panic(expected = "batch must be non-empty")]
    fn zero_batch_panics() {
        let (repo, timing) = bert();
        let m = repo.get(ModelKey::new(ModelId::BertBase, None));
        let _ = timing.batched_us(&m, 0);
    }
}
