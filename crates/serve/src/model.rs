//! A served model: pruned, bitmap-encoded proxy weights plus the real layer
//! table, and the forward pass that runs them on the dual-side SpGEMM kernel.
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
//!
//! Caching and persistence of encoded models live in [`crate::store`].

use std::time::Instant;

use dsstc_formats::TwoLevelBitmapMatrix;
use dsstc_kernels::bitmap_spgemm::BitmapSpGemm;
use dsstc_kernels::EncodingSpec;
use dsstc_models::{prune_magnitude, Layer, Network};
use dsstc_tensor::{Matrix, RandomMatrixBuilder};

use crate::request::ModelKey;

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
    /// Prunes + encodes `key`'s `proxy_dim`-wide proxy for `kernel`'s
    /// encoding spec (the cold path behind a miss in both cache tiers).
    ///
    /// Per layer: seeded weights, [`prune_magnitude`] to the layer's weight
    /// sparsity (a linear-time threshold selection) and
    /// [`BitmapSpGemm::encode_b`], three stages of similar cost. The result
    /// is bit for bit what the on-disk store persists and restores for
    /// `key`; the golden checksums in this module's tests pin it.
    pub(crate) fn encode_fresh(kernel: &BitmapSpGemm, key: ModelKey, proxy_dim: usize) -> Self {
        let started = Instant::now();
        // The real layer table with the uniform sparsity override applied,
        // so both the proxy weights and the timing model see it.
        let network = key.network();
        let relu = key.model.uses_relu();
        let layers = network
            .layers()
            .iter()
            .enumerate()
            .map(|(i, layer)| {
                let dense = RandomMatrixBuilder::new(proxy_dim, proxy_dim)
                    .seed(proxy_seed(key, i))
                    .value_range(-0.5, 0.5)
                    .build();
                let pruned = prune_magnitude(&dense, layer.weight_sparsity);
                EncodedLayer {
                    name: layer.name.clone(),
                    weights: kernel.encode_b(&pruned),
                    relu,
                    layer: layer.clone(),
                }
            })
            .collect();
        EncodedModel {
            key,
            spec: kernel.encoding_spec(),
            network,
            input_dim: proxy_dim,
            layers,
            encode_ms: started.elapsed().as_secs_f64() * 1e3,
            from_disk: false,
        }
    }

    /// Runs `input` (rows = samples, `input_dim` columns) through every
    /// pre-encoded proxy layer on the dual-side SpGEMM kernel and returns
    /// the final features ([`BitmapSpGemm::forward`]: activations stay in
    /// the kernel's encoding between layers).
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
        let layers: Vec<_> = self.layers.iter().map(|l| (&l.weights, l.relu)).collect();
        kernel.forward(input, &layers)
    }

    /// Modelled storage footprint of the encoded weights in bytes (FP16
    /// values + bitmaps) — what the in-memory cache budget charges.
    pub fn encoded_bytes(&self) -> u64 {
        self.layers.iter().map(|l| l.weights.storage().total()).sum()
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
    use dsstc_formats::serialize::checksum;
    use dsstc_sim::GpuConfig;

    /// Per model, `serialize::checksum` of its layers' serialised weights
    /// (concatenated in layer order) after a fresh encode at proxy 64 on the
    /// V100 tiling: at the table's sparsities, then at a uniform 90 %.
    /// Recorded at container format version 4 (the band-major payload, its
    /// values FP16 halves); the weights those bytes hold are
    /// [`DECODED_GOLDEN`]'s, unchanged since version 2. A persisted artifact is trusted as if it were a fresh
    /// encode, so a change to generation, pruning or encoding that moves one
    /// byte must move one of these.
    const GOLDEN: [(ModelId, u64, u64); 6] = [
        (ModelId::Vgg16, 0x66b3_e28c_c7bb_12a0, 0x7a9c_8382_c59f_e9d7),
        (ModelId::ResNet18, 0xea7a_48dd_c3d4_3ec8, 0x396c_6379_6e3d_419b),
        (ModelId::ResNet50, 0x89d7_23ab_6f06_24ed, 0xdf78_20a5_c032_ed9c),
        (ModelId::MaskRcnn, 0x5926_5fe8_964c_da04, 0x8d18_de45_4db7_dc79),
        (ModelId::BertBase, 0x0903_bacd_9e8f_b024, 0x8ebf_a63f_e852_c969),
        (ModelId::RnnLm, 0xa49c_80d2_56ad_bfc3, 0x5acd_1872_afef_fef5),
    ];

    #[test]
    fn fresh_encodes_match_the_golden_artifacts() {
        let kernel = BitmapSpGemm::for_device(GpuConfig::v100());
        for (model, table, uniform) in GOLDEN {
            for (sparsity, want) in [(None, table), (Some(0.9), uniform)] {
                let fresh = EncodedModel::encode_fresh(&kernel, ModelKey::new(model, sparsity), 64);
                let bytes: Vec<u8> =
                    fresh.layers.iter().flat_map(|l| l.weights.to_bytes()).collect();
                assert_eq!(checksum(&bytes), want, "{model:?} at sparsity {sparsity:?}");
            }
        }
    }

    /// Per model, as [`GOLDEN`], `serialize::checksum` of its layers'
    /// *decoded* weights (the dense `f32` bits, little-endian, concatenated
    /// in layer order). Independent of the container layout: recorded at
    /// format version 2 and held unchanged by versions 3 and 4 (which stores
    /// the halves the `f32`s were rounded to), so a layout change that moves
    /// one weight bit fails here, not just in [`GOLDEN`].
    const DECODED_GOLDEN: [(ModelId, u64, u64); 6] = [
        (ModelId::Vgg16, 0xed18_193b_2861_4604, 0x0326_6635_1f33_0c5a),
        (ModelId::ResNet18, 0xa8fe_c53d_c6e7_8afe, 0xdc96_edc2_51d1_5b11),
        (ModelId::ResNet50, 0x6b1b_8ef5_fcf1_6682, 0x0f95_ac12_f57e_fe8b),
        (ModelId::MaskRcnn, 0x8459_8382_b9a4_6ddf, 0xd4e9_bffa_05d5_ec3a),
        (ModelId::BertBase, 0xa3c8_8e59_6826_85fc, 0xd82b_620b_9912_2f02),
        (ModelId::RnnLm, 0xa64f_6be6_860a_8974, 0xd9c2_4b39_ab45_0ba1),
    ];

    #[test]
    fn fresh_encodes_decode_to_the_golden_weights() {
        let kernel = BitmapSpGemm::for_device(GpuConfig::v100());
        for (model, table, uniform) in DECODED_GOLDEN {
            for (sparsity, want) in [(None, table), (Some(0.9), uniform)] {
                let fresh = EncodedModel::encode_fresh(&kernel, ModelKey::new(model, sparsity), 64);
                let bytes: Vec<u8> = (fresh.layers.iter())
                    .flat_map(|l| l.weights.decode().as_slice().to_vec())
                    .flat_map(f32::to_le_bytes)
                    .collect();
                assert_eq!(checksum(&bytes), want, "{model:?} at sparsity {sparsity:?}");
            }
        }
    }

    #[test]
    fn the_memory_budget_charges_the_value_bytes_held() {
        // What `encoded_bytes` charges the memory tier for values is what
        // the weights' value array holds: two bytes a value, summed here
        // over the halves every tile's steps lend.
        let kernel = BitmapSpGemm::for_device(GpuConfig::v100());
        for (model, _, _) in GOLDEN {
            for sparsity in [None, Some(0.9)] {
                let fresh = EncodedModel::encode_fresh(&kernel, ModelKey::new(model, sparsity), 64);
                for l in &fresh.layers {
                    let bands = l.weights.bands();
                    let held: usize = (0..bands.count())
                        .flat_map(|b| (0..bands.tiles()).filter_map(move |t| bands.tile(b, t)))
                        .flat_map(|tile| (0..tile.words().len()).map(move |k| tile.step_values(k)))
                        .map(std::mem::size_of_val)
                        .sum();
                    let want = l.weights.nnz() * std::mem::size_of::<dsstc_tensor::f16>();
                    let context = format!("{model:?} at {sparsity:?}, {}", l.name);
                    assert_eq!(held, want, "{context}");
                    assert_eq!(l.weights.storage().value_bytes, want as u64, "{context}");
                }
            }
        }
    }
}
