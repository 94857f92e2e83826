//! Request / response types of the serving runtime.

use std::time::Duration;

use dsstc_kernels::EncodingSpec;
use dsstc_models::{networks, Network};
use dsstc_tensor::Matrix;

use crate::telemetry::RequestTrace;

/// Scheduling priority of a request.
///
/// Priorities order extraction within a batch's compatibility class: when
/// more compatible requests are queued than fit in one batch, higher
/// priorities go out first (FIFO within one priority level). A request's
/// SLO deadline (see [`InferRequest::with_deadline`]) additionally orders
/// it: the class with the most urgent deadline is released first, and a
/// request past its deadline is extracted ahead of higher priorities.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Priority {
    /// Background traffic: batched last, still bounded by the queue
    /// deadline.
    Low,
    /// The default service class.
    #[default]
    Normal,
    /// Latency-critical traffic: extracted first within its model.
    High,
}

impl Priority {
    /// Every priority, lowest first (matches the `Ord` derivation).
    pub const ALL: [Priority; 3] = [Priority::Low, Priority::Normal, Priority::High];

    /// Stable index into per-priority tables (`Low` = 0 .. `High` = 2).
    pub fn index(&self) -> usize {
        match self {
            Priority::Low => 0,
            Priority::Normal => 1,
            Priority::High => 2,
        }
    }

    /// Human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            Priority::Low => "low",
            Priority::Normal => "normal",
            Priority::High => "high",
        }
    }

    /// Stable single-byte tag used by the wire protocol (see
    /// [`crate::net::frame`]). Equals [`Priority::index`] today, but the
    /// wire contract is this function, not the table index.
    pub fn wire_code(&self) -> u8 {
        self.index() as u8
    }

    /// Decodes a wire tag written by [`Priority::wire_code`].
    pub fn from_wire_code(code: u8) -> Option<Priority> {
        Priority::ALL.get(code as usize).copied()
    }
}

impl std::fmt::Display for Priority {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(self.name())
    }
}

/// The served model catalogue: the paper's five evaluated networks plus
/// ResNet-50 (the classic serving workload).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ModelId {
    /// VGG-16 (AGP-pruned CNN).
    Vgg16,
    /// ResNet-18 (AGP-pruned CNN).
    ResNet18,
    /// ResNet-50 (AGP-pruned CNN).
    ResNet50,
    /// Mask R-CNN (AGP-pruned CNN, COCO resolution).
    MaskRcnn,
    /// BERT-base encoder (movement-pruned GEMM stack).
    BertBase,
    /// 2+4-layer LSTM language model (AGP-pruned GEMM stack).
    RnnLm,
}

impl ModelId {
    /// Every served model.
    pub const ALL: [ModelId; 6] = [
        ModelId::Vgg16,
        ModelId::ResNet18,
        ModelId::ResNet50,
        ModelId::MaskRcnn,
        ModelId::BertBase,
        ModelId::RnnLm,
    ];

    /// Human-readable name (matches the underlying network table).
    pub fn name(&self) -> &'static str {
        match self {
            ModelId::Vgg16 => "VGG-16",
            ModelId::ResNet18 => "ResNet-18",
            ModelId::ResNet50 => "ResNet-50",
            ModelId::MaskRcnn => "Mask R-CNN",
            ModelId::BertBase => "BERT-base encoder",
            ModelId::RnnLm => "RNN",
        }
    }

    /// Short filesystem-safe slug, used to name persisted encoded-weight
    /// artifacts.
    pub fn slug(&self) -> &'static str {
        match self {
            ModelId::Vgg16 => "vgg16",
            ModelId::ResNet18 => "resnet18",
            ModelId::ResNet50 => "resnet50",
            ModelId::MaskRcnn => "maskrcnn",
            ModelId::BertBase => "bertbase",
            ModelId::RnnLm => "rnnlm",
        }
    }

    /// Stable single-byte tag used by the wire protocol (see
    /// [`crate::net::frame`]). Matches this model's position in
    /// [`ModelId::ALL`]; new catalogue entries must append, never reorder.
    pub fn wire_code(&self) -> u8 {
        ModelId::ALL.iter().position(|m| m == self).expect("every model is in ALL") as u8
    }

    /// Decodes a wire tag written by [`ModelId::wire_code`].
    pub fn from_wire_code(code: u8) -> Option<ModelId> {
        ModelId::ALL.get(code as usize).copied()
    }

    /// The layer table the timing model charges for this model.
    pub fn network(&self) -> Network {
        match self {
            ModelId::Vgg16 => networks::vgg16(),
            ModelId::ResNet18 => networks::resnet18(),
            ModelId::ResNet50 => networks::resnet50(),
            ModelId::MaskRcnn => networks::mask_rcnn(),
            ModelId::BertBase => networks::bert_base(),
            ModelId::RnnLm => networks::rnn_lm(),
        }
    }

    /// Whether the functional proxy applies ReLU between layers (the CNNs;
    /// the GELU/sigmoid-based NLP models produce near-dense activations).
    pub fn uses_relu(&self) -> bool {
        !matches!(self, ModelId::BertBase | ModelId::RnnLm)
    }
}

impl std::fmt::Display for ModelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(self.name())
    }
}

/// The encode-cache key: a model pruned to one weight-sparsity level.
///
/// Sparsity is stored in permille so the key is `Eq + Hash`; `None` means
/// "the per-layer sparsities of the published table".
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ModelKey {
    /// Which model.
    pub model: ModelId,
    /// Uniform weight-sparsity override in permille, if any.
    pub sparsity_permille: Option<u16>,
}

impl ModelKey {
    /// Builds the key for a model and an optional uniform weight-sparsity
    /// override in `[0, 1]`.
    ///
    /// # Panics
    /// Panics if the override is outside `[0, 1]`.
    pub fn new(model: ModelId, weight_sparsity: Option<f64>) -> Self {
        let sparsity_permille = weight_sparsity.map(|s| {
            assert!((0.0..=1.0).contains(&s), "weight sparsity must be in [0,1]");
            (s * 1000.0).round() as u16
        });
        ModelKey { model, sparsity_permille }
    }

    /// The sparsity override as a fraction, if any.
    pub fn weight_sparsity(&self) -> Option<f64> {
        self.sparsity_permille.map(|p| f64::from(p) / 1000.0)
    }

    /// The real layer table this key serves: the model's published network
    /// with any uniform weight-sparsity override applied. Cheap to build
    /// (no weights are materialised), so schedulers can price batches
    /// without touching the encode cache.
    pub fn network(&self) -> Network {
        let base = self.model.network();
        match self.weight_sparsity() {
            None => base,
            Some(sparsity) => {
                let layers = base
                    .layers()
                    .iter()
                    .map(|layer| {
                        let mut layer = layer.clone();
                        layer.weight_sparsity = sparsity;
                        layer
                    })
                    .collect();
                Network::new(base.name(), layers)
            }
        }
    }
}

/// One inference request.
#[derive(Clone, Debug)]
pub struct InferRequest {
    /// Which model to run.
    pub model: ModelId,
    /// Optional uniform weight-sparsity override (e.g. serve the same model
    /// pruned to several levels); `None` uses the published per-layer table.
    pub weight_sparsity: Option<f64>,
    /// Input features: one row per sample/token, `proxy_dim` columns.
    pub features: Matrix,
    /// Scheduling priority ([`Priority::Normal`] by default).
    pub priority: Priority,
    /// Optional per-request SLO: how long this request may wait in the
    /// batching queue before its batch is flushed early. Effectively capped
    /// at the server's `max_queue_wait`, which remains the upper bound for
    /// every request.
    pub deadline: Option<Duration>,
}

impl InferRequest {
    /// A request against the published sparsity table.
    pub fn new(model: ModelId, features: Matrix) -> Self {
        InferRequest {
            model,
            weight_sparsity: None,
            features,
            priority: Priority::default(),
            deadline: None,
        }
    }

    /// Sets a uniform weight-sparsity override.
    pub fn with_weight_sparsity(mut self, sparsity: f64) -> Self {
        self.weight_sparsity = Some(sparsity);
        self
    }

    /// Sets the scheduling priority.
    pub fn with_priority(mut self, priority: Priority) -> Self {
        self.priority = priority;
        self
    }

    /// Sets the per-request queue-wait SLO.
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// The encode-cache key this request maps to.
    pub fn key(&self) -> ModelKey {
        ModelKey::new(self.model, self.weight_sparsity)
    }
}

/// One completed inference.
#[derive(Clone, Debug)]
pub struct InferResponse {
    /// The id [`crate::InferenceServer::submit`] returned for the request.
    pub id: u64,
    /// Which model ran.
    pub model: ModelId,
    /// Output features (same row count as the request's input).
    pub output: Matrix,
    /// Wall-clock time the request waited in the batching queue, µs.
    pub queue_us: f64,
    /// Wall-clock time the worker spent executing the whole batch, µs.
    pub execute_us: f64,
    /// Modelled dual-side sparse Tensor Core time of the whole batch at the
    /// network's real layer shapes, µs.
    pub modelled_batch_us: f64,
    /// The batch's modelled time divided by its size: this request's
    /// amortised modelled latency, µs.
    pub modelled_request_us: f64,
    /// How many requests were merged into the executing batch.
    pub batch_size: usize,
    /// Index into the server's device pool of the device the batch was
    /// dispatched to (which is also the index of the worker thread that
    /// executed it — workers are pinned 1:1 to devices).
    pub device: usize,
    /// The encoding identity the batch executed: the tiling matches the
    /// chosen device's native [`dsstc_sim::GemmTiling`].
    pub encoding: EncodingSpec,
    /// The priority the request was scheduled at.
    pub priority: Priority,
    /// The request's staged timeline: admitted → enqueued → released →
    /// dispatched → cache resolved → execute start/end → responded (wire
    /// decode/flush stamps are added by the TCP front-end). Every stage up
    /// to `Responded` is populated by the time the response arrives.
    pub trace: RequestTrace,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_names_match_network_tables() {
        for id in ModelId::ALL {
            assert_eq!(id.name(), id.network().name());
        }
    }

    #[test]
    fn slugs_are_filesystem_safe_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for id in ModelId::ALL {
            let slug = id.slug();
            assert!(slug.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit()), "{slug}");
            assert!(seen.insert(slug), "duplicate slug {slug}");
        }
    }

    #[test]
    fn relu_only_for_conv_models() {
        for id in ModelId::ALL {
            assert_eq!(id.uses_relu(), id.network().has_conv_layers(), "{id}");
        }
    }

    #[test]
    fn model_key_quantises_sparsity() {
        let a = ModelKey::new(ModelId::BertBase, Some(0.9004));
        let b = ModelKey::new(ModelId::BertBase, Some(0.9));
        assert_eq!(a, b);
        assert_eq!(a.weight_sparsity(), Some(0.9));
        assert_eq!(ModelKey::new(ModelId::BertBase, None).weight_sparsity(), None);
    }

    #[test]
    #[should_panic(expected = "must be in [0,1]")]
    fn invalid_override_panics() {
        let _ = ModelKey::new(ModelId::Vgg16, Some(1.5));
    }

    #[test]
    fn request_key_reflects_override() {
        let m = Matrix::zeros(4, 64);
        let r = InferRequest::new(ModelId::ResNet50, m.clone());
        assert_eq!(r.key(), ModelKey::new(ModelId::ResNet50, None));
        let r = InferRequest::new(ModelId::ResNet50, m).with_weight_sparsity(0.8);
        assert_eq!(r.key(), ModelKey::new(ModelId::ResNet50, Some(0.8)));
    }

    #[test]
    fn model_key_network_applies_the_override() {
        let plain = ModelKey::new(ModelId::BertBase, None).network();
        let overridden = ModelKey::new(ModelId::BertBase, Some(0.7)).network();
        assert_eq!(plain.layers().len(), overridden.layers().len());
        for layer in overridden.layers() {
            assert_eq!(layer.weight_sparsity, 0.7, "{}", layer.name);
        }
        assert_ne!(
            plain.layers().iter().map(|l| l.weight_sparsity).collect::<Vec<_>>(),
            overridden.layers().iter().map(|l| l.weight_sparsity).collect::<Vec<_>>()
        );
    }

    #[test]
    fn priorities_order_and_index_consistently() {
        assert!(Priority::Low < Priority::Normal);
        assert!(Priority::Normal < Priority::High);
        assert_eq!(Priority::default(), Priority::Normal);
        for (i, p) in Priority::ALL.iter().enumerate() {
            assert_eq!(p.index(), i);
        }
        assert_eq!(Priority::High.to_string(), "high");
    }

    #[test]
    fn request_builders_set_priority_and_deadline() {
        let r = InferRequest::new(ModelId::BertBase, Matrix::zeros(1, 8));
        assert_eq!(r.priority, Priority::Normal);
        assert_eq!(r.deadline, None);
        let r = r.with_priority(Priority::High).with_deadline(Duration::from_millis(3));
        assert_eq!(r.priority, Priority::High);
        assert_eq!(r.deadline, Some(Duration::from_millis(3)));
    }
}
