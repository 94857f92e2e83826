//! Modelled GPU latency of a batched network execution.
//!
//! Responses report the dual-side sparse Tensor Core time of the **real**
//! network (not the functional proxy) at the executing batch's own size:
//! every layer's lowered GEMM has its M dimension scaled by the number of
//! batched requests and is priced by the closed-form profile
//! `dsstc::InferenceEstimator` uses
//! ([`BitmapSpGemm::profile_synthetic`]). A batch changes only how many
//! warp-tile lines that dimension has, so each model's layers are turned
//! once into [`BatchedSyntheticGemm`]s — the expected events of a full line
//! and of each remainder line — and every price after that is `O(layers)`
//! arithmetic on them plus the timing model. Nothing is sampled, bucketed
//! or remembered per batch size.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use dsstc_kernels::bitmap_spgemm::{BatchedSyntheticGemm, BitmapSpGemm};
use dsstc_sim::{GpuConfig, GpuTimingModel};

use crate::model::EncodedModel;
use crate::request::ModelKey;

/// Prices batched network runs on one GPU configuration.
#[derive(Debug)]
pub struct BatchTimingModel {
    kernel: BitmapSpGemm,
    model: GpuTimingModel,
    /// Per model, its layers in closed form: built on the model's first
    /// price, immutable after.
    layers: Mutex<HashMap<ModelKey, Arc<[BatchedSyntheticGemm]>>>,
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
            layers: Mutex::new(HashMap::new()),
        }
    }

    /// Modelled dual-side time, in µs, of running `model`'s real network at
    /// batch size `batch` (each layer's lowered-GEMM M dimension scales with
    /// the batch).
    ///
    /// # Panics
    /// Panics if `batch` is zero.
    pub fn batched_us(&self, model: &EncodedModel, batch: usize) -> f64 {
        self.batched_us_for(model.key, batch)
    }

    /// Like [`Self::batched_us`], but priced from the key's layer table
    /// alone — no encoded weights required, so the dispatcher can price a
    /// cold model without paying (or waiting on) its prune+encode.
    ///
    /// The key's first price builds its layers in closed form (a
    /// millisecond or two for the largest networks); every price after that
    /// reads them.
    ///
    /// # Panics
    /// Panics if `batch` is zero.
    pub fn batched_us_for(&self, key: ModelKey, batch: usize) -> f64 {
        assert!(batch > 0, "batch must be non-empty");
        let layers = self.layers(key);
        layers
            .iter()
            .map(|layer| {
                self.model.estimate(&self.kernel.profile_batched(layer, batch).0).time_us()
            })
            .sum()
    }

    /// `key`'s layers in closed form, built on first use.
    fn layers(&self, key: ModelKey) -> Arc<[BatchedSyntheticGemm]> {
        let built = self.layers.lock().expect("timing mutex poisoned").get(&key).cloned();
        built.unwrap_or_else(|| {
            let layers: Arc<[BatchedSyntheticGemm]> = key
                .network()
                .layers()
                .iter()
                .map(|layer| {
                    let gemm = layer.kind.lowered_gemm();
                    self.kernel.batched_synthetic(
                        gemm,
                        layer.activation_sparsity,
                        layer.weight_sparsity,
                    )
                })
                .collect();
            let mut all = self.layers.lock().expect("timing mutex poisoned");
            Arc::clone(all.entry(key).or_insert(layers))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{ModelId, ModelKey};
    use crate::store::ModelRepository;
    use dsstc_kernels::bitmap_spgemm::SyntheticGemmSpec;
    use dsstc_tensor::GemmShape;

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
    fn a_price_is_a_pure_function_of_key_and_batch() {
        let key = ModelKey::new(ModelId::ResNet50, None);
        let (first, second) = (BatchTimingModel::new(GpuConfig::v100()), bert().1);
        for batch in [5, 1, 8, 5] {
            let price = first.batched_us_for(key, batch);
            assert_eq!(first.batched_us_for(key, batch), price, "repeated, batch {batch}");
            assert_eq!(second.batched_us_for(key, batch), price, "another model, batch {batch}");
        }
    }

    #[test]
    fn a_batch_is_priced_at_its_own_size() {
        let (_, timing) = bert();
        for model in [ModelId::BertBase, ModelId::ResNet50] {
            let key = ModelKey::new(model, None);
            let [two, three, four] = [2, 3, 4].map(|batch| timing.batched_us_for(key, batch));
            assert!(two < three && three < four, "{model}: {two} < {three} < {four}");
            assert!((three - four * 0.75).abs() > 1e-6 * four, "{model}: 3 is not 3/4 of 4");
        }
    }

    #[test]
    fn a_price_is_the_closed_form_of_every_batched_layer() {
        // What `InferenceEstimator` charges a layer, summed over the network
        // with each lowered GEMM's M scaled by the batch.
        let timing = BatchTimingModel::new(GpuConfig::a100());
        let kernel = BitmapSpGemm::for_device(GpuConfig::a100());
        let model = GpuTimingModel::new(GpuConfig::a100());
        for id in [ModelId::ResNet50, ModelId::BertBase, ModelId::RnnLm] {
            let key = ModelKey::new(id, Some(0.8));
            for batch in [1, 3, 7] {
                let want: f64 = key
                    .network()
                    .layers()
                    .iter()
                    .map(|layer| {
                        let g = layer.kind.lowered_gemm();
                        let shape = GemmShape::new(g.m * batch, g.n, g.k);
                        let (a, w) = (layer.activation_sparsity, layer.weight_sparsity);
                        let spec = SyntheticGemmSpec::oriented(shape, a, w, None, None);
                        model.estimate(&kernel.profile_synthetic(&spec).0).time_us()
                    })
                    .sum();
                let got = timing.batched_us_for(key, batch);
                assert!((got - want).abs() <= 1e-6 * want, "{id} x{batch}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn each_key_builds_its_layers_once() {
        let (_, timing) = bert();
        let keys = [ModelKey::new(ModelId::BertBase, None), ModelKey::new(ModelId::Vgg16, None)];
        for key in keys {
            let built = timing.layers(key);
            assert_eq!(built.len(), key.network().layers().len());
            for batch in 1..=64 {
                let _ = timing.batched_us_for(key, batch);
            }
            assert!(Arc::ptr_eq(&built, &timing.layers(key)), "{key:?} was rebuilt");
        }
        // One entry per key, however many batch sizes were priced.
        assert_eq!(timing.layers.lock().expect("timing mutex").len(), keys.len());
    }

    #[test]
    fn key_only_pricing_agrees_with_encoded_model_pricing() {
        let (repo, timing) = bert();
        let key = ModelKey::new(ModelId::BertBase, Some(0.9));
        // Price from the layer table alone (no encoded weights)...
        let from_key = timing.batched_us_for(key, 4);
        // ...then through the encoded model: the same layers, the same value.
        let m = repo.get(key);
        assert_eq!(timing.batched_us(&m, 4), from_key);
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
