//! The paper's dual-side sparse GEMM: bitmap encoding + outer product.
//!
//! [`BitmapSpGemm`] is the device-level kernel (Section III-C): the GEMM is
//! tiled into 128x128 thread-block tiles made of 32x32x16 warp tiles, the
//! operands are held in bitmap encodings (the weights two-level, the
//! activations as per-band column words, [`EncodedA`]), warp tiles whose
//! warp-bit is 0 on either side are skipped outright, and every surviving
//! warp tile runs the warp-level algorithm of [`warp`] — predicated OHMMAs
//! on condensed operands plus the gather-accumulate-scatter merge in the
//! OTC accumulation buffer.

mod arena;
mod expected;
#[allow(unsafe_code)]
mod simd;
pub mod warp;
mod word;

/// A CPU vector level [`BitmapSpGemm::encode_a_at`],
/// [`BitmapSpGemm::execute_encoded_at`] and [`BitmapSpGemm::forward_at`] can
/// be pinned to.
/// Not part of the API: exported so the differential tests and the
/// per-level Criterion cells can name one.
#[doc(hidden)]
pub use simd::Level as SimdLevel;

pub use arena::EncodedA;
pub use expected::BatchedSyntheticGemm;

use dsstc_formats::{TwoLevelBitmapMatrix, VectorLayout};
use dsstc_sim::tiling::{GemmTiling, TrafficInputs};
use dsstc_sim::{AccumulationBuffer, GpuConfig, OtcStepCost, WorkloadProfile};
use dsstc_tensor::{GemmShape, Matrix};

use warp::warp_spgemm;

/// Description of a synthetic SpGEMM problem — its shape and the statistics
/// of its operands' non-zeros — used when the matrices are too large to
/// materialise: the Fig. 21 sparsity sweep, the Fig. 22 network layers and
/// the serving layer's batch prices.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SyntheticGemmSpec {
    /// GEMM shape.
    pub shape: GemmShape,
    /// Fraction of zeros in the A (activation) operand.
    pub a_sparsity: f64,
    /// Fraction of zeros in the B (weight) operand.
    pub b_sparsity: f64,
    /// How clustered the A operand's non-zeros are: the fraction of
    /// condensed 32-element vectors that are *entirely empty*, with the
    /// surviving non-zeros concentrated in the remaining vectors so the
    /// overall sparsity is preserved. `0.0` (the default) is the uniform,
    /// pessimistic case; real pruned checkpoints exhibit exactly this kind
    /// of unevenness (paper Fig. 6), which the per-step and warp-level
    /// skipping exploit.
    pub a_clustering: f64,
    /// Clustering of the B operand's non-zeros (same definition).
    pub b_clustering: f64,
    /// Overrides the DRAM footprint of the A operand (e.g. the original
    /// feature map instead of the lowered matrix for implicit im2col).
    pub a_bytes_override: Option<u64>,
    /// Overrides the DRAM footprint of the B operand.
    pub b_bytes_override: Option<u64>,
}

impl SyntheticGemmSpec {
    /// Creates a spec with uniform (unclustered) operands and no footprint
    /// overrides.
    pub fn new(shape: GemmShape, a_sparsity: f64, b_sparsity: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&a_sparsity) && (0.0..=1.0).contains(&b_sparsity),
            "sparsity must be in [0,1]"
        );
        SyntheticGemmSpec {
            shape,
            a_sparsity,
            b_sparsity,
            a_clustering: 0.0,
            b_clustering: 0.0,
            a_bytes_override: None,
            b_bytes_override: None,
        }
    }

    /// Sets the clustering of both operands' non-zeros (see
    /// [`Self::a_clustering`]).
    ///
    /// # Panics
    /// Panics if a clustering is outside `[0, 1)` or would require the
    /// surviving vectors to be denser than 100 %.
    pub fn with_clustering(mut self, a_clustering: f64, b_clustering: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&a_clustering) && (0.0..1.0).contains(&b_clustering),
            "clustering must be in [0,1)"
        );
        assert!(
            (1.0 - self.a_sparsity) <= (1.0 - a_clustering) + 1e-12,
            "A clustering {a_clustering} incompatible with density {}",
            1.0 - self.a_sparsity
        );
        assert!(
            (1.0 - self.b_sparsity) <= (1.0 - b_clustering) + 1e-12,
            "B clustering {b_clustering} incompatible with density {}",
            1.0 - self.b_sparsity
        );
        self.a_clustering = a_clustering;
        self.b_clustering = b_clustering;
        self
    }

    /// Creates a spec with the operands oriented so that the **sparser** one
    /// sits on the column-condensed A side of the outer product.
    ///
    /// The A side skips at 8-element (25 %) granularity and triggers the
    /// whole-step skip when its condensed column is empty, whereas the B side
    /// only skips at 16-element (50 %) granularity (paper Section III-B3), so
    /// a GEMM library built on this kernel computes `D^T = B^T * A^T`
    /// whenever the B operand is the sparser one — as the functional
    /// [`BitmapSpGemm::execute_encoded`] does, from the operands' non-zero
    /// counts (and only where the transposed grid runs no more block
    /// passes). The byte footprints follow their operands through the swap.
    /// The output footprint is `M * N * 4` either way.
    pub fn oriented(
        shape: GemmShape,
        a_sparsity: f64,
        b_sparsity: f64,
        a_bytes: Option<u64>,
        b_bytes: Option<u64>,
    ) -> Self {
        if Self::swaps(a_sparsity, b_sparsity) {
            let swapped = GemmShape::new(shape.n, shape.m, shape.k);
            let spec = Self::new(swapped, b_sparsity, a_sparsity);
            Self { a_bytes_override: b_bytes, b_bytes_override: a_bytes, ..spec }
        } else {
            let spec = Self::new(shape, a_sparsity, b_sparsity);
            Self { a_bytes_override: a_bytes, b_bytes_override: b_bytes, ..spec }
        }
    }

    /// Whether [`Self::oriented`] swaps the operands of a GEMM with these
    /// sparsities.
    fn swaps(a_sparsity: f64, b_sparsity: f64) -> bool {
        b_sparsity > a_sparsity
    }
}

/// Configuration knobs of the dual-side SpGEMM, exposed for the ablation
/// benches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BitmapSpGemmOptions {
    /// Whether the accumulation buffer has the operand collector
    /// (paper Fig. 19/20). Disabling it inflates merge bank conflicts.
    pub operand_collector: bool,
    /// Whether the two-level (warp bitmap) encoding is used. Disabling it
    /// falls back to the one-level encoding of Fig. 8a: no whole-tile
    /// skipping and partial-matrix scatters that spill past the local
    /// accumulation buffer.
    pub two_level: bool,
}

impl Default for BitmapSpGemmOptions {
    fn default() -> Self {
        BitmapSpGemmOptions { operand_collector: true, two_level: true }
    }
}

/// Extra statistics the dual-side SpGEMM reports alongside its profile.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpGemmStats {
    /// Warp-tile x k-slice steps skipped entirely thanks to the warp bitmap.
    pub skipped_warp_tiles: u64,
    /// Total warp-tile x k-slice steps of the launch.
    pub total_warp_tiles: u64,
    /// OHMMA instructions skipped by predication inside surviving tiles.
    pub skipped_ohmma: u64,
    /// OHMMA instructions a dense outer-product execution would have issued.
    pub dense_ohmma: u64,
}

impl SpGemmStats {
    /// Fraction of dense OHMMA work avoided by predication inside surviving
    /// tiles (whole-tile skips avoid their OHMMAs implicitly and are counted
    /// in [`Self::skipped_warp_tiles`]).
    pub fn compute_savings(&self) -> f64 {
        if self.dense_ohmma == 0 {
            return 0.0;
        }
        self.skipped_ohmma as f64 / self.dense_ohmma as f64
    }
}

/// The dual-side sparse GEMM kernel (this paper's method).
#[derive(Clone, Debug)]
pub struct BitmapSpGemm {
    config: GpuConfig,
    tiling: GemmTiling,
    options: BitmapSpGemmOptions,
}

impl BitmapSpGemm {
    /// Creates the kernel with the paper's default options and the paper's
    /// 32x32x16 warp tiling (see [`Self::for_device`] for the
    /// device-native tiling).
    pub fn new(config: GpuConfig) -> Self {
        BitmapSpGemm {
            config,
            tiling: GemmTiling::paper_spgemm(),
            options: BitmapSpGemmOptions::default(),
        }
    }

    /// Creates the kernel running `config`'s **native** tiling
    /// ([`GpuConfig::native_tiling`]) — what a heterogeneous device pool
    /// uses so each device executes encodings shaped for its own Tensor
    /// Cores.
    pub fn for_device(config: GpuConfig) -> Self {
        let tiling = config.native_tiling();
        Self::new(config).with_tiling(tiling)
    }

    /// Overrides the GEMM tiling (and therefore the encoding this kernel
    /// produces and accepts).
    ///
    /// # Panics
    /// Panics if any tile dimension is zero, a warp tile is taller or wider
    /// than 64 (a step's bitmap is one `u64` word; every
    /// [`GpuConfig::native_tiling`] is 32 x 32), or a block dimension is not
    /// a multiple of its warp dimension.
    pub fn with_tiling(mut self, tiling: GemmTiling) -> Self {
        assert!(
            tiling.warp_m > 0 && tiling.warp_n > 0 && tiling.warp_k > 0,
            "warp tile dimensions must be non-zero"
        );
        assert!(
            tiling.warp_m <= 64 && tiling.warp_n <= 64,
            "warp tiles are at most 64 x 64: a step's bitmap is one word"
        );
        assert!(
            tiling.block_m.is_multiple_of(tiling.warp_m)
                && tiling.block_n.is_multiple_of(tiling.warp_n),
            "block tile must be a whole number of warp tiles"
        );
        self.tiling = tiling;
        self
    }

    /// Overrides the ablation options.
    pub fn with_options(mut self, options: BitmapSpGemmOptions) -> Self {
        self.options = options;
        self
    }

    /// Sets nothing, for any `threads`: a kernel call runs on the thread that
    /// makes it. Kept only for `benchmark/`'s calls
    /// (`with_execute_threads(1)` in `workloads/gemm_extreme.rs` and
    /// `workloads/forward_batch.rs`, `with_execute_threads(0)` in
    /// `workloads/gemm_extreme.rs`); the next change to `benchmark/` deletes
    /// them and this builder.
    #[doc(hidden)]
    pub fn with_execute_threads(self, _threads: usize) -> Self {
        self
    }

    /// The options in use.
    pub fn options(&self) -> BitmapSpGemmOptions {
        self.options
    }

    /// The GEMM tiling in use.
    pub fn tiling(&self) -> &GemmTiling {
        &self.tiling
    }

    /// The identity of the encodings this kernel produces and accepts.
    pub fn encoding_spec(&self) -> crate::encoding::EncodingSpec {
        crate::encoding::EncodingSpec::for_tiling(self.tiling)
    }

    /// Builds the workload profile (and skip statistics) of `A * B` for
    /// dense input matrices of arbitrary sparsity: both operands encoded as
    /// [`Self::execute`] encodes them, and every step's non-zero counts read
    /// off their bitmaps, as the `POPC`s of paper Fig. 5 read them. A value
    /// FP16 storage flushes to zero is not encoded, so it is not counted.
    ///
    /// # Panics
    /// Panics if the inner dimensions disagree.
    pub fn profile_with_stats(&self, a: &Matrix, b: &Matrix) -> (WorkloadProfile, SpGemmStats) {
        assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
        self.profile_encoded(&self.encode_a(a), &self.encode_b(b))
    }

    /// Builds only the workload profile of `A * B`.
    pub fn profile(&self, a: &Matrix, b: &Matrix) -> WorkloadProfile {
        self.profile_with_stats(a, b).0
    }

    /// The profile of `A * B` over operands of this kernel's encoding, in
    /// the paper's orientation: the exact walk over the counts read off the
    /// bitmaps, then the shared tail.
    fn profile_encoded(
        &self,
        a_enc: &EncodedA,
        b_enc: &TwoLevelBitmapMatrix,
    ) -> (WorkloadProfile, SpGemmStats) {
        let shape = GemmShape::new(a_enc.rows(), b_enc.cols(), a_enc.cols());
        let (a_counts, b_counts) = step_counts(a_enc, b_enc);
        let (grid_m, grid_k) = (a_enc.bands().count(), a_enc.bands().tiles());
        let a_bytes = encoded_bytes(a_enc.nnz() as u64, shape.m * shape.k, grid_m * grid_k);
        let b_bytes = encoded_bytes(b_enc.nnz() as u64, shape.k * shape.n, b_enc.tile_count());
        let events = self.walk(b_enc.grid_cols(), &a_counts, &b_counts);
        self.finish(format!("bitmap-spgemm-{shape}"), shape, &events, (a_bytes, b_bytes))
    }

    /// Builds the workload profile of a large SpGEMM from a *statistical*
    /// description of its operands instead of materialised matrices: the
    /// **expected** profile of operands whose non-zeros are placed as `spec`
    /// describes (uniformly at random, or clustered), computed in closed
    /// form.
    ///
    /// Every step's non-zero counts are then independent zero-inflated
    /// binomials, so a warp tile of `S` steps is skipped with probability
    /// `zA + zB - zA * zB`, where `zA = P(an A step is empty)^S` and
    /// likewise `zB`, and the expected cost a live tile's step adds to any
    /// field `c` of [`OtcStepCost`] is
    /// `E[c] - zA * E[c(0, b)] - zB * E[c(a, 0)] + zA * zB * c(0, 0)`.
    /// Tiles fall into at most eight classes (full or remainder in M, N and
    /// K), each priced in `O(warp_dim²)`, so the cost does not grow with the
    /// shape. What it returns is the mean of [`Self::profile_with_stats`]
    /// over such operands (rounded to whole events), not a sample of it.
    pub fn profile_synthetic(&self, spec: &SyntheticGemmSpec) -> (WorkloadProfile, SpGemmStats) {
        let lines = expected::Lines::new(self, spec, false);
        let mut events = TileEvents::default();
        for (count, rows) in expected::extents(spec.shape.m, self.tiling.warp_m) {
            events.add_scaled(count as f64, &lines.line(rows));
        }
        let name = format!("bitmap-spgemm-synthetic-{}", spec.shape);
        self.finish(name, spec.shape, &events, self.synthetic_bytes(spec))
    }

    /// The DRAM footprints of a synthetic spec's operands: their overrides,
    /// or their two-level encodings at the spec's densities.
    fn synthetic_bytes(&self, spec: &SyntheticGemmSpec) -> (u64, u64) {
        let GemmShape { m, n, k } = spec.shape;
        let (wm, wn, wk) = (self.tiling.warp_m, self.tiling.warp_n, self.tiling.warp_k);
        let (grid_m, grid_n, grid_k) = (m.div_ceil(wm), n.div_ceil(wn), k.div_ceil(wk));
        let bytes = |elements: usize, sparsity: f64, tiles: usize| {
            encoded_bytes((elements as f64 * (1.0 - sparsity)) as u64, elements, tiles)
        };
        (
            spec.a_bytes_override.unwrap_or_else(|| bytes(m * k, spec.a_sparsity, grid_m * grid_k)),
            spec.b_bytes_override.unwrap_or_else(|| bytes(k * n, spec.b_sparsity, grid_k * grid_n)),
        )
    }

    /// The step-cost table both models price with: the Fig. 5/7 cost of a
    /// step whose condensed A column holds `a` and B row `b` non-zeros.
    fn step_costs(&self) -> StepCosts {
        let dim = self.tiling.warp_m.max(self.tiling.warp_n);
        let otc = &self.config.otc;
        let table = (0..=dim)
            .flat_map(|a| (0..=dim).map(move |b| (a, b)))
            .map(|(a, b)| TileEvents::step(&OtcStepCost::for_vectors(a, b, dim, otc)))
            .collect();
        StepCosts { dim, dense_per_step: OtcStepCost::dense_ohmma_count(dim, otc) as f64, table }
    }

    /// The exact model: every warp tile `(im, kk, jn)` walked and its steps
    /// priced from their counts. `a_counts` holds the per-step non-zero
    /// counts of the A tiles `(im, kk)`, `b_counts` those of the B tiles
    /// `(kk, jn)`, both row-major with `grid_n` tile columns; a tile's steps
    /// are the outer-product steps it covers.
    fn walk(&self, grid_n: usize, a_counts: &[Vec<u16>], b_counts: &[Vec<u16>]) -> TileEvents {
        let costs = self.step_costs();
        let grid_k = b_counts.len() / grid_n.max(1);
        let mut events = TileEvents::default();
        for (i, a_steps) in a_counts.iter().enumerate() {
            let a_empty = a_steps.iter().all(|&c| c == 0);
            let kk = i % grid_k;
            for b_steps in &b_counts[kk * grid_n..(kk + 1) * grid_n] {
                events.dense_ohmma += costs.dense_per_step * a_steps.len() as f64;
                if self.options.two_level && (a_empty || b_steps.iter().all(|&c| c == 0)) {
                    events.skipped_tiles += 1.0;
                    continue;
                }
                for (&a, &b) in a_steps.iter().zip(b_steps) {
                    events.add_scaled(1.0, costs.at(a as usize, b as usize));
                }
            }
        }
        events
    }

    /// The tail both models share: the compute-side `events` of every warp
    /// tile of `shape` rounded to whole events, the merge's bank conflicts,
    /// the DRAM traffic of the two encoded footprints `bytes`, and the launch
    /// geometry.
    fn finish(
        &self,
        name: String,
        shape: GemmShape,
        events: &TileEvents,
        (a_bytes, b_bytes): (u64, u64),
    ) -> (WorkloadProfile, SpGemmStats) {
        let (wm, wn, wk) = (self.tiling.warp_m, self.tiling.warp_n, self.tiling.warp_k);
        let whole = |v: f64| v.round().max(0.0) as u64;
        // Each issued OHMMA delivers up to 16 scattered outputs to the banks.
        let buffer = AccumulationBuffer::from_otc(&self.config.otc);
        let conflict_factor = buffer.conflict_factor_estimate(16, self.options.operand_collector);

        let mut profile = WorkloadProfile::new(name);
        profile.ohmma_instructions = whole(events.ohmma);
        profile.bohmma_instructions = whole(events.bohmma);
        profile.popc_instructions = whole(events.popc);
        profile.merge_cycles = whole(events.merge);
        profile.accum_conflict_cycles = whole((conflict_factor - 1.0) * events.merge);
        let tiles = (shape.m.div_ceil(wm) * shape.n.div_ceil(wn) * shape.k.div_ceil(wk)) as u64;
        // A warp-bitmap check per skipped tile, address generation per live one.
        let live = tiles as f64 - events.skipped_tiles;
        profile.scalar_ops = whole(events.skipped_tiles + 32.0 * live);
        let stats = SpGemmStats {
            skipped_warp_tiles: whole(events.skipped_tiles),
            total_warp_tiles: tiles,
            skipped_ohmma: whole(events.ohmma_skipped),
            dense_ohmma: whole(events.dense_ohmma),
        };

        let d_bytes = (shape.m * shape.n) as u64 * 4;
        let traffic = self.tiling.dram_traffic(&TrafficInputs {
            a_bytes,
            b_bytes,
            d_bytes,
            shape,
            l2_bytes: self.config.l2_bytes as u64,
            concurrent_blocks: (self.config.num_sms * self.config.max_blocks_per_sm) as u64,
        });
        profile.dram_bytes_read = traffic.read_bytes;
        profile.dram_bytes_written = traffic.write_bytes;
        profile.shared_bytes = a_bytes + b_bytes; // staged once per resident tile
        profile.thread_blocks = self.tiling.grid_blocks(&shape);
        if !self.options.two_level {
            // One-level encoding (Fig. 8a): partial-matrix non-zeros scatter
            // beyond the warp's local buffer and have to round-trip through
            // the memory hierarchy.
            let partial_nnz = whole(events.partial_nnz);
            profile.shared_bytes += partial_nnz * 8;
            profile.scalar_ops += partial_nnz * 2;
        }
        (profile, stats)
    }

    /// Encodes the A (activation) operand of an SpGEMM for this kernel's
    /// warp tiling: per `warp_m`-row band and outer-product step one packed
    /// column word, the column-condensed values rounded to FP16 halves as
    /// they are encoded. It is the fused [`Self::forward`]'s input encode:
    /// the same emitter writes it into the calling thread's workspace, and
    /// its four arrays are copied out at their exact length, so it holds
    /// only its non-zeros and stores bit for bit what
    /// `TwoLevelBitmapMatrix::encode(a, warp_m, warp_k, VectorLayout::ColumnMajor)`
    /// does, in four allocations whatever the tile count. Like
    /// [`Self::execute_encoded`], it runs at the widest vector level the CPU
    /// has, chosen once per call.
    pub fn encode_a(&self, a: &Matrix) -> EncodedA {
        self.encode_a_at(a, simd::Level::detect())
    }

    /// [`Self::encode_a`] with the vector level pinned instead of detected,
    /// for tests and benches. Every level stores the same bits.
    #[doc(hidden)]
    pub fn encode_a_at(&self, a: &Matrix, level: SimdLevel) -> EncodedA {
        word::encode_a(a, self.tiling.a_tile(), level)
    }

    /// Encodes the B (weight) operand of an SpGEMM into the two-level bitmap
    /// layout this kernel's warp tiling expects (row-major condensed
    /// vectors, `warp_k x warp_n` tiles), storing values as the FP16 halves
    /// they round to.
    ///
    /// A model-serving stack encodes its pruned weights once with this and
    /// reuses the encoding across requests (the paper encodes weights
    /// offline for the same reason).
    pub fn encode_b(&self, b: &Matrix) -> TwoLevelBitmapMatrix {
        TwoLevelBitmapMatrix::encode(
            b,
            self.tiling.warp_k,
            self.tiling.warp_n,
            VectorLayout::RowMajor,
        )
    }

    /// Checks that encoded operands agree with each other and with this
    /// kernel's [`Self::encoding_spec`]: the A operand's tile shape (its
    /// type is its layout), the B operand's tile shape and layout.
    fn validate_encoded(&self, a_enc: &EncodedA, b_enc: &TwoLevelBitmapMatrix) {
        assert_eq!(a_enc.cols(), b_enc.rows(), "inner dimensions must agree");
        let ((rows, cols), want) = (a_enc.bands().tile_shape(), self.tiling.a_tile());
        assert!(
            (rows, cols) == want,
            "A operand encoding ({rows}x{cols} tiles) does not match the kernel's ({}x{})",
            want.0,
            want.1
        );
        self.validate_b(b_enc);
    }

    /// Checks that `b_enc` is a B operand of this kernel's
    /// [`Self::encoding_spec`]: on a square tiling an A-layout operand has
    /// the B operand's tile shape too.
    fn validate_b(&self, b_enc: &TwoLevelBitmapMatrix) {
        let spec = self.encoding_spec();
        let (rows, cols) = spec.b_tile();
        assert!(
            spec.matches_b(b_enc),
            "B operand encoding ({}x{} tiles, {:?}) does not match the kernel's \
             ({rows}x{cols}, {:?})",
            b_enc.tile_rows(),
            b_enc.tile_cols(),
            b_enc.layout(),
            spec.b_layout
        );
    }

    /// Functionally computes `A * B` over operands that are **already**
    /// encoded (see [`Self::encode_a`] / [`Self::encode_b`]), skipping warp
    /// tiles whose warp-bit is 0 on either side.
    ///
    /// This is the word-parallel hot path (the `word` submodule): per-step bitmaps
    /// are single `u64` words, each A non-zero is decoded once per block of
    /// output tile columns and multiplied into B rows held in registers, the
    /// tile grid is cache-blocked, and every phase runs at the widest vector
    /// level the CPU has (chosen once per call; no level fuses the multiply
    /// and the add). When the weights keep fewer values per output element
    /// than the activations and that costs no more block passes, the call
    /// runs `D^T = B^T * A^T` instead, so that the sparser operand's empty
    /// rows skip whole steps (paper Section III-B3); the operands' non-zero
    /// counts and shapes decide it, per call; transposed, the weights' own
    /// bands are the condensed `B^T`, read where they lie. The call runs on
    /// the calling thread, and what it stages (an expansion, the block
    /// accumulator) is that thread's, grown to its largest call and
    /// reused, so a call allocates only the matrix it returns. Results are
    /// bit-identical to [`Self::execute_encoded_scalar`] either way.
    ///
    /// # Panics
    /// Panics if the operands' inner dimensions disagree or their tile
    /// shapes or layouts do not match this kernel's [`Self::encoding_spec`].
    pub fn execute_encoded(&self, a_enc: &EncodedA, b_enc: &TwoLevelBitmapMatrix) -> Matrix {
        self.execute_encoded_at(a_enc, b_enc, simd::Level::detect())
    }

    /// [`Self::execute_encoded`] with the vector level pinned instead of
    /// detected, so tests and benches can cover every level the host has.
    /// Every level returns the same bits.
    #[doc(hidden)]
    pub fn execute_encoded_at(
        &self,
        a_enc: &EncodedA,
        b_enc: &TwoLevelBitmapMatrix,
        level: SimdLevel,
    ) -> Matrix {
        self.validate_encoded(a_enc, b_enc);
        word::execute(a_enc, b_enc, level)
    }

    /// The retained scalar reference for [`Self::execute_encoded`], which the
    /// differential tests and the `benchmark/` harness call: `a_enc` decoded,
    /// re-encoded by the formats encoder
    /// (`TwoLevelBitmapMatrix::encode(.., VectorLayout::ColumnMajor)`)
    /// and run through the straightforward per-position loop over
    /// [`warp_spgemm`]. Not part of the API.
    ///
    /// # Panics
    /// Panics if the operands' inner dimensions disagree or their tile
    /// shapes or layouts do not match this kernel's [`Self::encoding_spec`].
    #[doc(hidden)]
    pub fn execute_encoded_scalar(&self, a_enc: &EncodedA, b_enc: &TwoLevelBitmapMatrix) -> Matrix {
        self.validate_encoded(a_enc, b_enc);
        let (wm, wk) = self.tiling.a_tile();
        let a_enc =
            TwoLevelBitmapMatrix::encode(&a_enc.decode(), wm, wk, VectorLayout::ColumnMajor);
        self.scalar_product(&a_enc, b_enc)
    }

    /// The loop of [`Self::execute_encoded_scalar`] over a two-level A
    /// operand of this kernel's tiling.
    fn scalar_product(&self, a_enc: &TwoLevelBitmapMatrix, b_enc: &TwoLevelBitmapMatrix) -> Matrix {
        let (wm, wn) = (self.tiling.warp_m, self.tiling.warp_n);
        let (a, b) = (a_enc.bands(), b_enc.bands());
        let mut out = Matrix::zeros(a_enc.rows(), b_enc.cols());
        for im in 0..a.count() {
            for jn in 0..b.count() {
                let mut acc = Matrix::zeros(wm, wn);
                for kk in 0..a.tiles() {
                    let (a_tile, b_tile) = match (a.tile(im, kk), b.tile(jn, kk)) {
                        (Some(a_tile), Some(b_tile)) => (a_tile, b_tile),
                        _ => continue, // warp-bit 0 on either side: skip
                    };
                    warp_spgemm(a_tile, b_tile, &mut acc);
                }
                out.set_tile(im * wm, jn * wn, &acc);
            }
        }
        out
    }

    /// Runs `input` through a stack of layers, each `(weights, relu)`: the
    /// weights a pre-encoded B operand ([`Self::encode_b`]), `relu` whether
    /// `max(x, 0)` follows the product. Returns the last layer's dense
    /// output; with no layers, `input` itself.
    ///
    /// Bit-identical to running, per layer, [`Self::encode_a`] on the
    /// previous activations, [`Self::execute_encoded`] and
    /// [`Matrix::relu`] — but the layer boundary is fused: each layer's
    /// output pass applies ReLU, drops what FP16 storage flushes to zero,
    /// rounds what it keeps and writes column words and condensed values
    /// straight into the flat A operand the next layer's band loop reads
    /// (the `arena` submodule, the format of [`EncodedA`]), so no dense
    /// activation matrix and no separate encode exist between layers.
    /// Like [`Self::execute_encoded`], it stages its operands in buffers the
    /// calling thread keeps from call to call, so once a thread has run its
    /// largest call a call allocates its result and nothing else, at any
    /// depth.
    ///
    /// # Panics
    /// Panics if the inner dimensions along the stack disagree or a layer's
    /// tile shape or layout does not match this kernel's
    /// [`Self::encoding_spec`].
    pub fn forward(&self, input: &Matrix, layers: &[(&TwoLevelBitmapMatrix, bool)]) -> Matrix {
        self.forward_at(input, layers, simd::Level::detect())
    }

    /// [`Self::forward`] with the vector level pinned instead of detected,
    /// for tests and benches. Every level returns the same bits.
    #[doc(hidden)]
    pub fn forward_at(
        &self,
        input: &Matrix,
        layers: &[(&TwoLevelBitmapMatrix, bool)],
        level: SimdLevel,
    ) -> Matrix {
        let mut width = input.cols();
        for &(weights, _) in layers {
            assert_eq!(width, weights.rows(), "inner dimensions must agree");
            self.validate_b(weights);
            width = weights.cols();
        }
        if layers.is_empty() {
            return input.clone();
        }
        word::forward(input, layers, self.tiling.a_tile(), level)
    }

    /// Functionally computes `A * B` with the warp-level outer-product
    /// algorithm over two-level bitmap operands, returning the product and
    /// the profile. Each operand is encoded once; the product and the
    /// profile ([`Self::profile`]'s) both read those encodings. The profile
    /// models the paper's orientation, `A * B`, even where
    /// [`Self::execute_encoded`] ran the call as `D^T = B^T * A^T`.
    ///
    /// # Panics
    /// Panics if the inner dimensions disagree.
    pub fn execute(&self, a: &Matrix, b: &Matrix) -> (Matrix, WorkloadProfile) {
        assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
        let (a_enc, b_enc) = (self.encode_a(a), self.encode_b(b));
        (self.execute_encoded(&a_enc, &b_enc), self.profile_encoded(&a_enc, &b_enc).0)
    }
}

/// Compute-side events of a set of warp tiles, summed over the tiles:
/// counted by the exact walk, expected by the closed form, and turned into a
/// profile by the tail both share. Fractional where they are expected.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
struct TileEvents {
    /// The [`OtcStepCost`] fields, summed over the steps of live tiles.
    ohmma: f64,
    ohmma_skipped: f64,
    bohmma: f64,
    popc: f64,
    partial_nnz: f64,
    merge: f64,
    /// OHMMAs a dense execution of every tile issues.
    dense_ohmma: f64,
    /// Tiles the warp bitmap skipped.
    skipped_tiles: f64,
}

impl TileEvents {
    /// One step's cost, its tile fields zero.
    fn step(c: &OtcStepCost) -> Self {
        TileEvents {
            ohmma: c.ohmma_issued as f64,
            ohmma_skipped: c.ohmma_skipped as f64,
            bohmma: c.bohmma as f64,
            popc: c.popc as f64,
            partial_nnz: c.partial_nnz as f64,
            merge: c.merge_cycles as f64,
            ..Self::default()
        }
    }

    /// `self += w * x`, field by field.
    fn add_scaled(&mut self, w: f64, x: &TileEvents) {
        self.ohmma += w * x.ohmma;
        self.ohmma_skipped += w * x.ohmma_skipped;
        self.bohmma += w * x.bohmma;
        self.popc += w * x.popc;
        self.partial_nnz += w * x.partial_nnz;
        self.merge += w * x.merge;
        self.dense_ohmma += w * x.dense_ohmma;
        self.skipped_tiles += w * x.skipped_tiles;
    }
}

/// The step-cost table of [`BitmapSpGemm::step_costs`].
struct StepCosts {
    /// The warp dimension: counts run `0..=dim` on either side.
    dim: usize,
    /// OHMMAs a dense step issues.
    dense_per_step: f64,
    /// Row-major by the A count, then the B count.
    table: Vec<TileEvents>,
}

impl StepCosts {
    /// The cost of a step whose A column counts `a` and B row `b`.
    fn at(&self, a: usize, b: usize) -> &TileEvents {
        &self.table[a * (self.dim + 1) + b]
    }
}

/// Per-step non-zero counts of warp tiles, a `Vec` a tile.
type StepCounts = Vec<Vec<u16>>;

/// The per-step non-zero counts of every A tile `(im, kk)` and every B tile
/// `(kk, jn)`, row-major: the `POPC` of each step's A column word and B row
/// word, read off both operands' bands, one per step the tile really has
/// (`warp_k`, fewer on a ragged K edge, whose padding steps are not
/// charged). An empty tile's words are zero.
fn step_counts(a_enc: &EncodedA, b_enc: &TwoLevelBitmapMatrix) -> (StepCounts, StepCounts) {
    let (a, b, wk) = (a_enc.bands(), b_enc.bands(), b_enc.tile_rows());
    let counts = |words: &[u64], kk: usize| {
        let steps = wk.min(b_enc.rows() - kk * wk);
        words[kk * wk..][..steps].iter().map(|w| w.count_ones() as u16).collect()
    };
    let a_counts = (0..a.count())
        .flat_map(|im| (0..a.tiles()).map(move |kk| (im, kk)))
        .map(|(im, kk)| counts(a.words(im), kk))
        .collect();
    let b_counts = (0..b.tiles())
        .flat_map(|kk| (0..b.count()).map(move |jn| (kk, jn)))
        .map(|(kk, jn)| counts(b.words(jn), kk))
        .collect();
    (a_counts, b_counts)
}

/// Bytes of a two-level encoded operand of `elements` elements, `nnz` of
/// them kept, in `tiles` warp tiles: FP16 values, the element bitmap and the
/// warp bitmap.
fn encoded_bytes(nnz: u64, elements: usize, tiles: usize) -> u64 {
    nnz * 2 + (elements as u64).div_ceil(8) + (tiles as u64).div_ceil(8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense_gemm::DenseGemm;
    use dsstc_sim::GpuTimingModel;
    use dsstc_tensor::SparsityPattern;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn kernel() -> BitmapSpGemm {
        BitmapSpGemm::new(GpuConfig::v100())
    }

    fn random(m: usize, n: usize, s: f64, seed: u64) -> Matrix {
        Matrix::random_sparse(m, n, s, SparsityPattern::Uniform, seed)
    }

    /// A tiling of single-warp blocks with the given warp tile.
    fn warp_tiling(warp_m: usize, warp_n: usize, warp_k: usize) -> GemmTiling {
        GemmTiling { block_m: warp_m, block_n: warp_n, block_k: warp_k, warp_m, warp_n, warp_k }
    }

    /// Overwrites `count` seed-chosen elements of `m` with seed-chosen
    /// `values`.
    fn seed_values(m: &mut Matrix, count: usize, seed: u64, values: &[f32]) {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..count {
            let (r, c) = (rng.random_range(0..m.rows()), rng.random_range(0..m.cols()));
            m[(r, c)] = values[rng.random_range(0..values.len())];
        }
    }

    /// Overwrites `count` seed-chosen elements of `m` with the values FP16
    /// storage turns non-finite: infinities, NaN, and magnitudes past 65504.
    fn seed_non_finite(m: &mut Matrix, count: usize, seed: u64) {
        const SPECIALS: [f32; 5] = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 70000.0, -1.0e9];
        seed_values(m, count, seed, &SPECIALS);
    }

    /// Overwrites `count` seed-chosen elements of `m` with `-0.0` and with
    /// values on and either side of the two places FP16 rounding changes
    /// regime below 1: 2^-24 (flushed below, kept from there) and 2^-14
    /// (subnormal below, normalised from there).
    fn seed_rounding_edges(m: &mut Matrix, count: usize, seed: u64) {
        let (flush, normal) = (2.0f32.powi(-24), 2.0f32.powi(-14));
        let below = |x: f32| f32::from_bits(x.to_bits() - 1);
        let edges = [
            -0.0,
            flush,
            -flush,
            below(flush),
            -below(flush),
            1.5 * flush, // a tie between two subnormal halves
            2.5 * flush,
            -2.6 * flush,
            normal,
            below(normal), // rounds up into the normalised range
            -below(normal),
            normal * (1.0 + 2.0f32.powi(-11)), // a tie between two normalised halves
        ];
        seed_values(m, count, seed, &edges);
    }

    /// Bit-for-bit equality (`-0.0` is not `+0.0`), except that a NaN matches
    /// any NaN — the comparison `docs/ARCHITECTURE.md`'s bit-identity
    /// contract is stated in.
    fn same_bits(x: &Matrix, y: &Matrix) -> bool {
        (x.rows(), x.cols()) == (y.rows(), y.cols())
            && x.as_slice()
                .iter()
                .zip(y.as_slice())
                .all(|(a, b)| a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()))
    }

    /// What `k` must compute for `a * B`: the scalar loop over the formats
    /// encoder's A operand, so a differential test holds `encode_a` to an
    /// encoder it shares no code with.
    fn reference(k: &BitmapSpGemm, a: &Matrix, b_enc: &TwoLevelBitmapMatrix) -> Matrix {
        let (wm, wk) = k.tiling().a_tile();
        let a_enc = TwoLevelBitmapMatrix::encode(a, wm, wk, VectorLayout::ColumnMajor);
        k.scalar_product(&a_enc, b_enc)
    }

    #[test]
    fn execute_matches_dense_reference_across_sparsities() {
        for (sa, sb) in [(0.0, 0.0), (0.5, 0.5), (0.9, 0.0), (0.0, 0.9), (0.95, 0.95)] {
            let a = random(64, 48, sa, 1);
            let b = random(48, 96, sb, 2);
            let (out, _) = kernel().execute(&a, &b);
            assert!(out.approx_eq(&a.matmul(&b), 1e-2), "sparsity ({sa},{sb})");
        }
    }

    #[test]
    fn execute_handles_ragged_shapes() {
        let a = random(50, 30, 0.7, 3);
        let b = random(30, 70, 0.6, 4);
        let (out, _) = kernel().execute(&a, &b);
        assert!(out.approx_eq(&a.matmul(&b), 1e-2));
    }

    #[test]
    fn dense_inputs_issue_as_many_ohmmas_as_the_inner_product_kernel() {
        let a = random(128, 128, 0.0, 5);
        let b = random(128, 128, 0.0, 6);
        let p = kernel().profile(&a, &b);
        let dense_hmma = (128u64 * 128 * 128) / 128;
        assert_eq!(p.ohmma_instructions, dense_hmma);
        assert_eq!(p.hmma_instructions, 0);
        assert!(p.bohmma_instructions > 0);
    }

    #[test]
    fn sparsity_reduces_issued_ohmmas() {
        let a_dense = random(128, 128, 0.0, 7);
        let b_dense = random(128, 128, 0.0, 8);
        let a_sparse = random(128, 128, 0.9, 7);
        let b_sparse = random(128, 128, 0.9, 8);
        let p_dense = kernel().profile(&a_dense, &b_dense);
        let p_dual = kernel().profile(&a_sparse, &b_sparse);
        assert!(p_dual.ohmma_instructions < p_dense.ohmma_instructions / 4);
    }

    #[test]
    fn skip_stats_track_empty_tiles() {
        // A entirely zero except one 32x16 tile.
        let mut a = Matrix::zeros(64, 32);
        a[(0, 0)] = 1.0;
        let b = random(32, 64, 0.0, 9);
        let (_, stats) = kernel().profile_with_stats(&a, &b);
        assert_eq!(stats.total_warp_tiles, 2 * 2 * 2);
        // 3 of the 4 A tiles are empty; each empty A tile kills grid_n = 2
        // warp tiles.
        assert_eq!(stats.skipped_warp_tiles, 6);
        assert!(stats.compute_savings() > 0.0);
    }

    #[test]
    fn dual_side_speedup_on_99_percent_sparsity_is_large() {
        let model = GpuTimingModel::v100();
        let shape = GemmShape::new(1024, 1024, 1024);
        let dense_est = model.estimate(&DenseGemm::new(GpuConfig::v100()).profile(&shape));
        let a = random(1024, 1024, 0.99, 11);
        let b = random(1024, 1024, 0.99, 12);
        let est = model.estimate(&kernel().profile(&a, &b));
        let speedup = est.speedup_over(&dense_est);
        assert!(speedup > 3.0, "expected a large dual-side speedup, got {speedup}x");
    }

    #[test]
    fn dense_inputs_are_only_modestly_slower_than_cutlass() {
        let model = GpuTimingModel::v100();
        let shape = GemmShape::new(1024, 1024, 1024);
        let dense_est = model.estimate(&DenseGemm::new(GpuConfig::v100()).profile(&shape));
        let a = random(1024, 1024, 0.0, 13);
        let b = random(1024, 1024, 0.0, 14);
        let est = model.estimate(&kernel().profile(&a, &b));
        // Ratio of our time to the dense baseline's: the bitmap/outer-product
        // overheads on fully dense inputs should stay below ~50%.
        let ratio = est.time_us() / dense_est.time_us();
        assert!(ratio > 0.9 && ratio < 1.5, "got {ratio}x of CUTLASS time");
    }

    #[test]
    fn ablation_disabling_two_level_is_never_faster() {
        let a = random(256, 256, 0.95, 15);
        let b = random(256, 256, 0.95, 16);
        let model = GpuTimingModel::v100();
        let base = model.estimate(&kernel().profile(&a, &b));
        let one_level = kernel()
            .with_options(BitmapSpGemmOptions { operand_collector: true, two_level: false });
        let est = model.estimate(&one_level.profile(&a, &b));
        assert!(est.time_us() >= base.time_us());
    }

    #[test]
    fn ablation_disabling_operand_collector_adds_conflicts() {
        let a = random(256, 256, 0.5, 17);
        let b = random(256, 256, 0.5, 18);
        let with = kernel().profile(&a, &b);
        let without = kernel()
            .with_options(BitmapSpGemmOptions { operand_collector: false, two_level: true })
            .profile(&a, &b);
        assert!(without.accum_conflict_cycles > with.accum_conflict_cycles);
    }

    #[test]
    fn profile_and_execute_report_identical_profiles() {
        let a = random(96, 64, 0.8, 19);
        let b = random(64, 96, 0.7, 20);
        let k = kernel();
        let (_, exec_profile) = k.execute(&a, &b);
        let profile = k.profile(&a, &b);
        assert_eq!(exec_profile, profile);
    }

    /// The model's inputs read off the dense operands, one pass over each:
    /// per-step non-zero counts of every warp tile, one per step the tile
    /// really has (fewer than `warp_k` on a ragged K edge), and the two
    /// encoded footprints. The reference the bitmaps' counts
    /// are held to.
    fn dense_counts(
        k: &BitmapSpGemm,
        a: &Matrix,
        b: &Matrix,
    ) -> (StepCounts, StepCounts, (u64, u64)) {
        let (wm, wn, wk) = (k.tiling.warp_m, k.tiling.warp_n, k.tiling.warp_k);
        let (grid_m, grid_n) = (a.rows().div_ceil(wm), b.cols().div_ceil(wn));
        let grid_k = a.cols().div_ceil(wk);
        let steps = |kk: usize| vec![0u16; wk.min(a.cols() - kk * wk)];
        let mut a_counts: StepCounts = (0..grid_m * grid_k).map(|t| steps(t % grid_k)).collect();
        for r in 0..a.rows() {
            for c in (0..a.cols()).filter(|&c| a[(r, c)] != 0.0) {
                a_counts[(r / wm) * grid_k + c / wk][c % wk] += 1;
            }
        }
        let mut b_counts: StepCounts = (0..grid_k * grid_n).map(|t| steps(t / grid_n)).collect();
        for r in 0..b.rows() {
            for c in (0..b.cols()).filter(|&c| b[(r, c)] != 0.0) {
                b_counts[(r / wk) * grid_n + c / wn][r % wk] += 1;
            }
        }
        let bytes = |x: &Matrix, tiles| encoded_bytes(x.nnz() as u64, x.rows() * x.cols(), tiles);
        (a_counts, b_counts, (bytes(a, grid_m * grid_k), bytes(b, grid_k * grid_n)))
    }

    /// What the model makes of [`dense_counts`].
    fn dense_profile(k: &BitmapSpGemm, a: &Matrix, b: &Matrix) -> (WorkloadProfile, SpGemmStats) {
        let (a_counts, b_counts, bytes) = dense_counts(k, a, b);
        let shape = GemmShape::new(a.rows(), b.cols(), a.cols());
        let events = k.walk(shape.n.div_ceil(k.tiling.warp_n), &a_counts, &b_counts);
        k.finish(format!("bitmap-spgemm-{shape}"), shape, &events, bytes)
    }

    #[test]
    fn the_bitmaps_give_the_counts_and_the_profile_the_dense_scan_does() {
        let kernels = [kernel(), BitmapSpGemm::for_device(GpuConfig::a100())];
        for (k, two_level) in kernels.iter().flat_map(|k| [(k, true), (k, false)]) {
            let k =
                k.clone().with_options(BitmapSpGemmOptions { operand_collector: true, two_level });
            for (i, (m, n, kk)) in [(33, 17, 65), (40, 100, 70)].into_iter().enumerate() {
                for (sa, sb) in [(0.6, 0.8), (0.97, 0.9)] {
                    let a = random(m, kk, sa, 60 + i as u64);
                    let b = random(kk, n, sb, 70 + i as u64);
                    let (a_counts, b_counts, _) = dense_counts(&k, &a, &b);
                    let encoded = step_counts(&k.encode_a(&a), &k.encode_b(&b));
                    assert_eq!(encoded, (a_counts, b_counts), "{m}x{n}x{kk} at ({sa},{sb})");
                    assert_eq!(k.profile_with_stats(&a, &b), dense_profile(&k, &a, &b));
                }
            }
        }
    }

    #[test]
    fn a_value_fp16_storage_flushes_is_neither_encoded_nor_counted() {
        let k = kernel();
        let mut a = Matrix::zeros(40, 70);
        a[(5, 3)] = 1e-9;
        let b = random(70, 100, 0.0, 61);
        // The dense scan counts it: one A tile survives, against every B tile.
        let (dense, dense_stats) = dense_profile(&k, &a, &b);
        assert!(dense.ohmma_instructions > 0);
        assert_eq!(dense_stats.skipped_warp_tiles, dense_stats.total_warp_tiles - 4);
        // The kernel never multiplies it, and the model charges nothing for it.
        let (encoded, stats) = k.profile_with_stats(&a, &b);
        assert_eq!(encoded.ohmma_instructions, 0);
        assert_eq!(stats.skipped_warp_tiles, stats.total_warp_tiles);
        assert_eq!((encoded, stats), k.profile_with_stats(&Matrix::zeros(40, 70), &b));
        assert_eq!(k.execute(&a, &b).0, Matrix::zeros(40, 100));
    }

    #[test]
    fn a_warp_bitmap_of_whole_bytes_is_charged_no_extra_byte() {
        // 64^3 at the paper tiling: 2 x 4 warp tiles an operand, one byte of
        // warp bitmap, beside 4096 FP16 values and 512 bytes of element bitmap.
        let k = kernel();
        let shape = GemmShape::new(64, 64, 64);
        let (exact, _) = k.profile_with_stats(&random(64, 64, 0.0, 3), &random(64, 64, 0.0, 4));
        assert_eq!(exact.dram_bytes_read, 2 * (4096 * 2 + 512 + 1));
        assert_eq!(exact.dram_bytes_read, 17_410);
        let (synthetic, _) = k.profile_synthetic(&SyntheticGemmSpec::new(shape, 0.0, 0.0));
        assert_eq!(synthetic.dram_bytes_read, exact.dram_bytes_read);
    }

    /// Every number a profile and its stats report, in one array.
    fn numbers((p, s): &(WorkloadProfile, SpGemmStats)) -> [u64; 15] {
        [
            p.hmma_instructions,
            p.ohmma_instructions,
            p.bohmma_instructions,
            p.popc_instructions,
            p.scalar_ops,
            p.accum_conflict_cycles,
            p.merge_cycles,
            p.dram_bytes_read,
            p.dram_bytes_written,
            p.shared_bytes,
            p.thread_blocks,
            s.skipped_warp_tiles,
            s.total_warp_tiles,
            s.skipped_ohmma,
            s.dense_ohmma,
        ]
    }

    #[test]
    fn synthetic_profiles_price_what_they_always_have() {
        let ragged = SyntheticGemmSpec::new(GemmShape::new(1000, 300, 700), 0.5, 0.9);
        let clustered = SyntheticGemmSpec::new(GemmShape::new(256, 512, 128), 0.9, 0.5)
            .with_clustering(0.3, 0.4);
        let mut overridden = SyntheticGemmSpec::new(GemmShape::new(40, 100, 70), 0.7, 0.3);
        overridden.a_bytes_override = Some(12_345);
        // What the timing model is given: the serve layer and the paper
        // figures price with these calls, so they must not move unnoticed.
        let want: [[[u64; 15]; 3]; 2] = [
            [
                [
                    0, 502187, 210726, 448000, 450560, 0, 213097, 855979, 1200000, 855979, 24, 0,
                    14080, 1289813, 1792000,
                ],
                [
                    0, 14094, 6832, 32768, 32768, 0, 9922, 84400, 524288, 84400, 8, 0, 1024,
                    116978, 131072,
                ],
                [0, 1267, 543, 1120, 1280, 0, 792, 23023, 16000, 23023, 1, 0, 40, 3213, 4480],
            ],
            [
                [
                    0, 502187, 210726, 448000, 225280, 0, 213097, 855864, 1200000, 855864, 24, 0,
                    7040, 1289813, 1792000,
                ],
                [
                    0, 14094, 6832, 32768, 16384, 0, 9922, 84388, 524288, 84388, 8, 0, 512, 116978,
                    131072,
                ],
                [0, 1267, 543, 1120, 768, 0, 792, 23022, 16000, 23022, 1, 0, 24, 3213, 4480],
            ],
        ];
        let specs = [ragged, clustered, overridden];
        let kernels = [kernel(), BitmapSpGemm::for_device(GpuConfig::a100())];
        for (k, want) in kernels.iter().zip(want) {
            for (spec, want) in specs.iter().zip(want) {
                let got = k.profile_synthetic(spec);
                assert_eq!(numbers(&got), want, "{} at {:?}", got.0.name, k.tiling());
            }
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn mismatched_shapes_panic() {
        let _ = kernel().profile(&Matrix::zeros(4, 4), &Matrix::zeros(8, 8));
    }

    /// A `rows x cols` operand drawn as a [`SyntheticGemmSpec`] describes
    /// one side: each condensed vector — `len` elements of a column on the A
    /// side (`a_side`), of a row on the B side — is empty with probability
    /// `clustering`, and otherwise keeps each element with probability
    /// `(1 - sparsity) / (1 - clustering)`.
    fn drawn(
        (rows, cols): (usize, usize),
        (sparsity, clustering): (f64, f64),
        len: usize,
        a_side: bool,
        rng: &mut StdRng,
    ) -> Matrix {
        let keep = (1.0 - sparsity) / (1.0 - clustering);
        let mut m = Matrix::zeros(rows, cols);
        let (vectors, width) = if a_side { (cols, rows) } else { (rows, cols) };
        for v in 0..vectors {
            for start in (0..width).step_by(len) {
                if rng.random_bool(clustering) {
                    continue;
                }
                for i in start..(start + len).min(width) {
                    if rng.random_bool(keep) {
                        let (r, c) = if a_side { (i, v) } else { (v, i) };
                        m[(r, c)] = 1.0;
                    }
                }
            }
        }
        m
    }

    #[test]
    fn synthetic_profile_tracks_materialised_profile() {
        // The closed form is the mean of the exact model over operands drawn
        // as the spec describes, so it is held to the mean of
        // `profile_with_stats` over seeded draws: uniform and clustered, both
        // orientations, most tiles skipped, the one-level encoding, the raw
        // bank-conflict factor, and both device tilings. M, N and K are
        // ragged.
        const DRAWS: u64 = 24;
        let a100 = BitmapSpGemm::for_device(GpuConfig::a100());
        let one_level = BitmapSpGemmOptions { operand_collector: true, two_level: false };
        let no_collector = BitmapSpGemmOptions { operand_collector: false, two_level: true };
        let shape = GemmShape::new(200, 150, 128);
        let cases = [
            (kernel(), shape, (0.7, 0.5), (0.0, 0.0)),
            (kernel(), shape, (0.3, 0.8), (0.0, 0.0)), // `oriented` swaps the operands
            (kernel(), shape, (0.8, 0.6), (0.4, 0.3)),
            (a100.clone(), shape, (0.6, 0.9), (0.5, 0.2)),
            (a100.clone(), GemmShape::new(500, 450, 256), (0.999, 0.99), (0.0, 0.0)),
            (kernel().with_options(one_level), shape, (0.9, 0.8), (0.3, 0.0)),
            (a100.clone().with_options(no_collector), shape, (0.5, 0.7), (0.0, 0.2)),
            (kernel(), GemmShape::new(200, 150, 100), (0.6, 0.7), (0.0, 0.0)),
            (a100.with_options(no_collector), GemmShape::new(90, 70, 100), (0.5, 0.8), (0.2, 0.0)),
        ];
        for (i, (k, shape, (sa, sb), (ca, cb))) in cases.into_iter().enumerate() {
            let spec =
                SyntheticGemmSpec::oriented(shape, sa, sb, None, None).with_clustering(ca, cb);
            let (wm, wn) = (k.tiling().warp_m, k.tiling().warp_n);
            let GemmShape { m, n, k: inner } = spec.shape;
            let mut mean = [0.0; 15];
            let mut rng = StdRng::seed_from_u64(80 + i as u64);
            for _ in 0..DRAWS {
                let a = drawn((m, inner), (spec.a_sparsity, ca), wm, true, &mut rng);
                let b = drawn((inner, n), (spec.b_sparsity, cb), wn, false, &mut rng);
                for (sum, x) in mean.iter_mut().zip(numbers(&k.profile_with_stats(&a, &b))) {
                    *sum += x as f64 / DRAWS as f64;
                }
            }
            let closed = numbers(&k.profile_synthetic(&spec));
            for (field, (&want, got)) in mean.iter().zip(closed).enumerate() {
                let got = got as f64;
                assert!(
                    (got - want).abs() <= 0.03 * want.max(got) + 1.0,
                    "case {i}, field {field}: closed form {got}, mean of the exact model {want}"
                );
            }
        }
    }

    #[test]
    fn synthetic_profile_is_deterministic_and_respects_overrides() {
        let shape = GemmShape::new(256, 256, 256);
        let spec = SyntheticGemmSpec::new(shape, 0.9, 0.9);
        let k = kernel();
        let (p1, s1) = k.profile_synthetic(&spec);
        let (p2, s2) = k.profile_synthetic(&spec);
        assert_eq!(p1, p2);
        assert_eq!(s1, s2);
        let mut small = spec;
        small.a_bytes_override = Some(1024);
        small.b_bytes_override = Some(1024);
        let (p3, _) = k.profile_synthetic(&small);
        assert!(p3.dram_bytes_read < p1.dram_bytes_read);
    }

    #[test]
    fn clustered_weights_skip_more_and_run_faster() {
        // Same overall sparsity, but with 60% of the weight vectors entirely
        // empty (paper Fig. 6's uneven distribution): more OHMMAs are
        // skipped and the modelled time drops.
        use dsstc_sim::GpuTimingModel;
        let shape = GemmShape::new(1024, 1024, 1024);
        let uniform = SyntheticGemmSpec::new(shape, 0.9, 0.0);
        let clustered = SyntheticGemmSpec::new(shape, 0.9, 0.0).with_clustering(0.6, 0.0);
        let k = kernel();
        let (p_uniform, s_uniform) = k.profile_synthetic(&uniform);
        let (p_clustered, s_clustered) = k.profile_synthetic(&clustered);
        assert!(p_clustered.ohmma_instructions < p_uniform.ohmma_instructions);
        assert!(s_clustered.skipped_warp_tiles >= s_uniform.skipped_warp_tiles);
        let model = GpuTimingModel::v100();
        assert!(model.estimate(&p_clustered).time_us() <= model.estimate(&p_uniform).time_us());
    }

    #[test]
    #[should_panic(expected = "incompatible with density")]
    fn clustering_denser_than_possible_panics() {
        let shape = GemmShape::new(64, 64, 64);
        let _ = SyntheticGemmSpec::new(shape, 0.1, 0.0).with_clustering(0.5, 0.0);
    }

    #[test]
    fn batched_profile_is_the_synthetic_profile_of_the_batched_gemm() {
        // Per-request GEMMs whose M (49 = 7 x 7, 196 = 14 x 14, 128) leaves
        // every kind of remainder line, or none, at both tilings and in both
        // orientations (the second and third swap the operands, so a batch
        // scales the oriented N).
        let layers = [
            (GemmShape::new(49, 512, 4608), 0.6, 0.3),
            (GemmShape::new(196, 256, 2304), 0.2, 0.7),
            (GemmShape::new(128, 3072, 768), 0.1, 0.9),
            (GemmShape::new(35, 10, 30), 0.5, 0.5),
        ];
        for k in [kernel(), BitmapSpGemm::for_device(GpuConfig::a100())] {
            for (shape, sa, sb) in layers {
                let layer = k.batched_synthetic(shape, sa, sb);
                for batch in 1..=40 {
                    let batched = GemmShape::new(shape.m * batch, shape.n, shape.k);
                    let spec = SyntheticGemmSpec::oriented(batched, sa, sb, None, None);
                    let (got, want) =
                        (k.profile_batched(&layer, batch), k.profile_synthetic(&spec));
                    for (x, y) in numbers(&got).into_iter().zip(numbers(&want)) {
                        // Lines along N sum in another order than
                        // `profile_synthetic`'s lines along M.
                        assert!(x.abs_diff(y) <= 1, "{shape} x{batch} on {:?}", k.tiling());
                    }
                    if sb <= sa {
                        assert_eq!(numbers(&got), numbers(&want), "{shape} x{batch}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "built for another tiling")]
    fn profile_batched_rejects_a_layer_of_another_tiling() {
        let layer = kernel().batched_synthetic(GemmShape::new(49, 64, 64), 0.5, 0.5);
        let _ = BitmapSpGemm::for_device(GpuConfig::a100()).profile_batched(&layer, 2);
    }

    #[test]
    fn execute_encoded_reuses_a_pre_encoded_weight_operand() {
        // A serving stack encodes the weight matrix once and replays it
        // against many activation batches; the results must match the dense
        // reference every time.
        let k = kernel();
        let b = random(48, 96, 0.8, 21);
        let b_enc = k.encode_b(&b);
        for seed in 0..3 {
            let a = random(64, 48, 0.6, 30 + seed);
            let out = k.execute_encoded(&k.encode_a(&a), &b_enc);
            assert!(out.approx_eq(&a.matmul(&b), 1e-2), "batch seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "does not match the kernel's")]
    fn execute_encoded_rejects_foreign_tilings() {
        let k = kernel();
        let a = kernel().with_tiling(warp_tiling(8, 8, 8)).encode_a(&Matrix::zeros(8, 8));
        let b = k.encode_b(&Matrix::zeros(8, 8));
        let _ = k.execute_encoded(&a, &b);
    }

    #[test]
    fn device_native_tiling_executes_correctly_and_reports_its_spec() {
        // The A100's native 32x32x32 warp tiles are a genuinely different
        // encoding from the paper's 32x32x16 — and must still reproduce the
        // dense reference.
        let k = BitmapSpGemm::for_device(GpuConfig::a100());
        assert_eq!(*k.tiling(), GpuConfig::a100().native_tiling());
        assert_eq!(k.encoding_spec().b_tile(), (32, 32));
        let a = random(64, 48, 0.7, 31);
        let b = random(48, 96, 0.8, 32);
        let out = k.execute_encoded(&k.encode_a(&a), &k.encode_b(&b));
        assert!(out.approx_eq(&a.matmul(&b), 1e-2));
        // The V100 kernel keeps the paper tiling.
        assert_eq!(
            BitmapSpGemm::for_device(GpuConfig::v100()).encoding_spec(),
            crate::encoding::EncodingSpec::paper()
        );
    }

    #[test]
    #[should_panic(expected = "does not match the kernel's")]
    fn encodings_are_not_interchangeable_across_device_tilings() {
        let v100 = kernel();
        let a100 = BitmapSpGemm::for_device(GpuConfig::a100());
        let a = v100.encode_a(&Matrix::zeros(48, 48));
        let b = a100.encode_b(&Matrix::zeros(48, 48));
        let _ = a100.execute_encoded(&a, &b);
    }

    #[test]
    fn an_encoded_a_is_encoded_on_one_thread_and_executed_on_another() {
        // The operand owns its buffers: no thread's workspace is in it.
        let k = kernel();
        let (a, b_enc) = (random(96, 70, 0.6, 35), k.encode_b(&random(70, 90, 0.5, 36)));
        let want = reference(&k, &a, &b_enc);
        let a_enc = std::thread::scope(|s| s.spawn(|| k.encode_a(&a)).join().expect("encoded"));
        assert!(same_bits(&k.execute_encoded(&a_enc, &b_enc), &want), "here");
        let there = std::thread::scope(|s| s.spawn(|| k.execute_encoded(&a_enc, &b_enc)).join());
        assert!(same_bits(&there.expect("executed"), &want), "there");
    }

    // On a square tiling (A100: 32x32x32) both operands have the same tile
    // shape, so only the layout tells a column-major encoding from a B
    // encoding. The word path used to accept the wrong one and return a
    // wrong product. (An A operand is its own type: `EncodedA`'s
    // `compile_fail` doctest.)

    #[test]
    #[should_panic(expected = "B operand encoding (32x32 tiles, ColumnMajor) does not match")]
    fn word_path_rejects_a_column_major_b_operand_on_a_square_tiling() {
        let k = BitmapSpGemm::for_device(GpuConfig::a100());
        let (a, b) = (random(32, 32, 0.5, 33), random(32, 32, 0.5, 34));
        let b = TwoLevelBitmapMatrix::encode(&b, 32, 32, VectorLayout::ColumnMajor);
        let _ = k.execute_encoded(&k.encode_a(&a), &b);
    }

    #[test]
    #[should_panic(expected = "whole number of warp tiles")]
    fn misaligned_block_tiling_panics() {
        let t = GemmTiling { block_m: 100, ..GemmTiling::paper_spgemm() };
        let _ = kernel().with_tiling(t);
    }

    #[test]
    fn word_path_is_bit_identical_to_scalar_reference() {
        // Square, ragged and word-boundary shapes x sparsities including
        // fully dense, fully empty and ~1.0, on both device tilings.
        for (m, kd, n) in [(64, 48, 96), (50, 30, 70), (33, 17, 65)] {
            for (sa, sb) in [(0.0, 0.0), (0.5, 0.5), (0.9, 0.0), (0.99, 0.99), (1.0, 0.5)] {
                let a = random(m, kd, sa, 100);
                let b = random(kd, n, sb, 101);
                for k in [kernel(), BitmapSpGemm::for_device(GpuConfig::a100())] {
                    let (a_enc, b_enc) = (k.encode_a(&a), k.encode_b(&b));
                    let scalar = reference(&k, &a, &b_enc);
                    assert_eq!(k.execute_encoded_scalar(&a_enc, &b_enc), scalar, "decoded");
                    for level in SimdLevel::available() {
                        let word = k.execute_encoded_at(&a_enc, &b_enc, level);
                        assert_eq!(word, scalar, "({m},{kd},{n}) at ({sa},{sb}), {level:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn word_path_on_a_many_band_grid_matches_the_scalar_reference() {
        // 32 bands x 4 (or 6) tile columns: every band of a large grid goes
        // through one band loop and one sink, bit for bit. The native tiling
        // runs register-held blocks, the 24-wide one the in-memory row.
        let a = random(1024, 128, 0.8, 102);
        let b = random(128, 128, 0.7, 103);
        for k in [kernel(), kernel().with_tiling(warp_tiling(32, 24, 16))] {
            let (a_enc, b_enc) = (k.encode_a(&a), k.encode_b(&b));
            let scalar = reference(&k, &a, &b_enc);
            assert!(scalar.approx_eq(&a.matmul(&b), 1e-2));
            for level in SimdLevel::available() {
                let out = k.execute_encoded_at(&a_enc, &b_enc, level);
                assert_eq!(out, scalar, "{:?} {level:?}", k.tiling());
            }
        }
    }

    #[test]
    fn the_execute_threads_builder_changes_nothing() {
        // Kept for callers outside the workspace; any count is the same kernel.
        let k = BitmapSpGemm::for_device(GpuConfig::a100());
        for threads in [0, 1, 7] {
            assert_eq!(format!("{:?}", k.clone().with_execute_threads(threads)), format!("{k:?}"));
        }
    }

    #[test]
    fn every_split_into_blocks_and_remainder_tiles_is_bit_identical() {
        // A block is 1, 2 or 4 tile columns depending on the level, so 1..=9
        // of them cover, at every level: no full block, exactly one, one plus
        // every possible remainder, and two plus a remainder. N, M and K are
        // all ragged. Transposed, the 250 rows are 2 full blocks at AVX-512
        // and 4 at AVX2, over 1..=9 bands.
        let a = random(250, 40, 0.5, 110);
        for grid_n in 1..=9 {
            let b = random(40, 32 * grid_n - 5, 0.6, 111 + grid_n as u64);
            let k = kernel();
            let (a_enc, b_enc) = (k.encode_a(&a), k.encode_b(&b));
            let scalar = reference(&k, &a, &b_enc);
            assert_both_orientations_give(&k, &a_enc, &b_enc, &scalar, &format!("grid_n {grid_n}"));
        }
    }

    #[test]
    fn an_empty_b_row_inside_a_surviving_block_leaves_positive_zeros() {
        // N = 128 is one 4-tile block at AVX-512 and two 2-tile blocks at
        // AVX2. Step 0's B row has values in tiles 0, 2 and 3 and none in
        // tile 1, so the block survives and tile 1's accumulators get
        // `av * 0.0` — with every `av` negative that is `-0.0`, and adding
        // it to `+0.0` must leave `+0.0`, bit for bit, as if no MAC ran.
        let (mut a, mut b) = (Matrix::zeros(32, 16), Matrix::zeros(16, 128));
        for r in 0..32 {
            a[(r, 0)] = -(1.0 + r as f32);
        }
        for c in (0..32).chain(64..128) {
            b[(0, c)] = 1.0 + c as f32;
        }
        let k = kernel();
        let (a_enc, b_enc) = (k.encode_a(&a), k.encode_b(&b));
        let scalar = reference(&k, &a, &b_enc);
        for level in SimdLevel::available() {
            let word = k.execute_encoded_at(&a_enc, &b_enc, level);
            assert!(same_bits(&word, &scalar), "{level:?}");
            for r in 0..32 {
                let untouched = &word.row(r)[32..64];
                assert!(untouched.iter().all(|v| v.to_bits() == 0), "{level:?}: row {r}");
                assert!(word[(r, 0)] < 0.0 && word[(r, 127)] < 0.0, "{level:?}: row {r}");
            }
        }
    }

    #[test]
    fn non_finite_activations_never_meet_the_zero_filled_b_columns() {
        // One infinite A value against a B row with a single non-zero per
        // occupied tile: the scalar reference (and the hardware) issues
        // exactly one MAC per non-zero, so every other output of that row
        // stays zero instead of `inf * 0`. At N = 160 the B row has values
        // in tiles 0 and 4 only: tiles 1..=3 are the empty rows of a
        // surviving block (at AVX-512), tile 4 a remainder tile. Transposed,
        // the infinity is in A's column, which is expanded, and meets B's
        // values only.
        for (n, b_cols) in [(32, vec![7]), (160, vec![7, 128 + 9])] {
            let mut a = Matrix::zeros(32, 16);
            a[(3, 5)] = f32::INFINITY;
            a[(4, 5)] = 2.0;
            let mut b = Matrix::zeros(16, n);
            for &c in &b_cols {
                b[(5, c)] = 1.5;
            }
            let k = kernel();
            let (a_enc, b_enc) = (k.encode_a(&a), k.encode_b(&b));
            for (level, transposed) in
                SimdLevel::available().flat_map(|level| [(level, false), (level, true)])
            {
                let out = word::execute_as(&a_enc, &b_enc, level, transposed);
                let context = format!("N {n} {level:?} transposed {transposed}");
                for &c in &b_cols {
                    assert_eq!(out[(3, c)], f32::INFINITY, "{context}");
                    assert_eq!(out[(4, c)], 3.0, "{context}");
                }
                let macs = 2 * b_cols.len();
                assert_eq!(out.nnz(), macs, "{context}: a NaN beside an infinite product");
            }
        }
    }

    #[test]
    fn no_level_fuses_the_multiply_into_the_add() {
        // x * y = 1 + 2^-10 + 2^-14 + 2^-24 needs 25 significand bits and
        // sits exactly between two floats; rounding it (ties to even) drops
        // the 2^-24. Against an accumulator already holding
        // -(1 + 2^-10 + 2^-14), a rounded multiply then a rounded add
        // therefore gives exactly 0, while a fused multiply-add keeps the
        // product exact and gives 2^-24. The A values are FP16 values, which
        // `encode_a` stores as they are; the B operand is encoded unrounded
        // (FP16 products never need more than 22 bits). Both fill whole rows,
        // so every vector lane of every register of the MAC step is checked.
        let (x, y) = (1.0 + 2.0f32.powi(-10), 1.0 + 2.0f32.powi(-14));
        let p = 1.0 + 2.0f32.powi(-10) + 2.0f32.powi(-14);
        assert_eq!(x * y - p, 0.0);
        assert_eq!(x.mul_add(y, -p), 2.0f32.powi(-24), "the case tells the two apart");

        // N = 32 runs the one-tile block, N = 128 the widest block of every
        // level (4 tiles at AVX-512, 2 at AVX2); transposed, where A's
        // columns are the held rows and B's values the broadcast ones,
        // M = 128 runs the widest block. Through `forward`, M = 8 runs the
        // small-band body at AVX-512, its accumulators held in registers.
        for (m, n) in [(32, 32), (32, 128), (128, 32), (8, 32)] {
            let (mut a, mut b) = (Matrix::zeros(m, 16), Matrix::zeros(16, n));
            for i in 0..m {
                (a[(i, 0)], a[(i, 1)]) = (-1.0, x);
            }
            for j in 0..n {
                // Step 0 plants -p in every accumulator; step 1 is the
                // discriminating MAC.
                (b[(0, j)], b[(1, j)]) = (p, y);
            }
            let k = kernel();
            let a_enc = k.encode_a(&a);
            let b_enc = TwoLevelBitmapMatrix::encode(&b, 16, 32, VectorLayout::RowMajor);
            let scalar = reference(&k, &a, &b_enc);
            assert!(scalar.as_slice().iter().all(|v| v.to_bits() == 0), "reference is +0.0");
            let context = format!("{m}x{n}: a contracted multiply-add");
            assert_both_orientations_give(&k, &a_enc, &b_enc, &scalar, &context);
            for level in SimdLevel::available() {
                let got = k.forward_at(&a, &[(&b_enc, false)], level);
                assert!(same_bits(&got, &scalar), "{context}, forward at {level:?}");
            }
        }
    }

    /// Both orientations of `a * B` at every vector level, each held bit
    /// for bit to `want`.
    fn assert_both_orientations_give(
        k: &BitmapSpGemm,
        a_enc: &EncodedA,
        b_enc: &TwoLevelBitmapMatrix,
        want: &Matrix,
        context: &str,
    ) {
        for level in SimdLevel::available() {
            for transposed in [false, true] {
                let got = word::execute_as(a_enc, b_enc, level, transposed);
                let context =
                    format!("{context}, {:?}, transposed {transposed}, {level:?}", k.tiling());
                assert!(same_bits(&got, want), "{context}");
            }
        }
    }

    #[test]
    fn both_orientations_are_bit_identical_to_the_reference() {
        // `D^T = B^T * A^T` condenses B and expands A: on the native tilings
        // (register-held blocks both ways), a 24-wide one (whose transpose
        // runs register-held blocks of A's 32-row bands over 24-row bands of
        // B's columns) and a 16x64x8 one (64-row bands of B, the in-memory
        // row); ragged in M, K and N, up to several bands and blocks either
        // way; non-finite values on neither side, on A only, on B only and
        // on both, so the masked path runs on the condensed side and
        // non-finite values sit in the expanded rows.
        let tilings = [
            GemmTiling::paper_spgemm(),
            GpuConfig::a100().native_tiling(),
            warp_tiling(32, 24, 16),
            warp_tiling(16, 64, 8),
        ];
        for (i, (m, kd, n)) in
            [(1, 20, 5), (33, 17, 65), (50, 30, 70), (130, 45, 97), (257, 40, 33)]
                .into_iter()
                .enumerate()
        {
            for (specials_a, specials_b) in [(0, 0), (3, 0), (0, 3), (2, 2)] {
                let seed = 300 + i as u64;
                let mut a = random(m, kd, 0.6, seed);
                let mut b = random(kd, n, 0.8, seed ^ 0x9e37);
                seed_non_finite(&mut a, specials_a, seed ^ 0xa);
                seed_non_finite(&mut b, specials_b, seed ^ 0xb);
                for tiling in tilings {
                    let k = kernel().with_tiling(tiling);
                    let (a_enc, b_enc) = (k.encode_a(&a), k.encode_b(&b));
                    let want = reference(&k, &a, &b_enc);
                    let context = format!("{m}x{kd}x{n}, {specials_a}/{specials_b} non-finite");
                    assert_both_orientations_give(&k, &a_enc, &b_enc, &want, &context);
                }
            }
        }
    }

    #[test]
    fn weights_with_empty_tiles_and_ragged_edges_are_read_in_place_both_ways() {
        // A transposed call's condensed operand is B's bands where the
        // weights lie, so their layout's corners meet the band loop as they
        // are: a tile empty inside a band (tile (1, 0)), a band of empty
        // tiles (tile column 1), K and N ending mid-tile (padding steps in
        // every band's last tile, padding bits in the last band), and a last
        // band 7 columns wide. Every level, both orientations, four tilings,
        // against the scalar reference — which reads the same bands, so it
        // is held in turn to a dense loop over the decoded operands that
        // adds the same products in the same `k` order.
        let tilings = [
            GemmTiling::paper_spgemm(),
            GpuConfig::a100().native_tiling(),
            warp_tiling(32, 24, 16),
            warp_tiling(16, 64, 8),
        ];
        for (i, tiling) in tilings.into_iter().enumerate() {
            let k = kernel().with_tiling(tiling);
            let (wn, wk) = (tiling.warp_n, tiling.warp_k);
            for (m, kd, n) in [(40, 3 * wk + 5, 3 * wn + 7), (96, 2 * wk + 1, 2 * wn + 7)] {
                let seed = 400 + i as u64;
                let a = random(m, kd, 0.5, seed);
                let mut b = random(kd, n, 0.7, seed ^ 0x5b);
                for (r, c) in (0..kd).flat_map(|r| (0..n).map(move |c| (r, c))) {
                    if (r / wk == 1 && c < wn) || c / wn == 1 {
                        b[(r, c)] = 0.0;
                    }
                }
                let (a_enc, b_enc) = (k.encode_a(&a), k.encode_b(&b));
                assert!(b_enc.tile(1, 0).is_none() && b_enc.tile(0, 0).is_some());
                assert!((0..b_enc.grid_rows()).all(|kk| b_enc.tile(kk, 1).is_none()));
                let want = reference(&k, &a, &b_enc);
                let (a_kept, b_kept) = (a_enc.decode(), b_enc.decode());
                let mut dense = Matrix::zeros(m, n);
                for (r, c) in (0..m).flat_map(|r| (0..n).map(move |c| (r, c))) {
                    for kk in 0..kd {
                        let (av, bv) = (a_kept[(r, kk)], b_kept[(kk, c)]);
                        if av != 0.0 && bv != 0.0 {
                            dense[(r, c)] += av * bv;
                        }
                    }
                }
                let context = format!("{m}x{kd}x{n}, empty tiles");
                assert!(same_bits(&want, &dense), "{context}: reference vs dense loop");
                assert_both_orientations_give(&k, &a_enc, &b_enc, &want, &context);
            }
        }
    }

    #[test]
    fn an_empty_a_column_inside_a_surviving_transposed_block_leaves_positive_zeros() {
        // The twin of `an_empty_b_row_inside_a_surviving_block_leaves_positive_zeros`
        // for `D^T = B^T * A^T`: M = 128 is one 4-tile block of A^T at
        // AVX-512 and two 2-tile blocks at AVX2. Step 0's A column has
        // values in bands 0, 2 and 3 and none in band 1, so the block
        // survives and the accumulators of D's rows 32..64 get `bv * 0.0` —
        // with every weight negative that is `-0.0`, which must leave `+0.0`.
        let (mut a, mut b) = (Matrix::zeros(128, 16), Matrix::zeros(16, 32));
        for r in (0..32).chain(64..128) {
            a[(r, 0)] = 1.0 + r as f32;
        }
        for c in 0..32 {
            b[(0, c)] = -(1.0 + c as f32);
        }
        let k = kernel();
        let (a_enc, b_enc) = (k.encode_a(&a), k.encode_b(&b));
        let scalar = reference(&k, &a, &b_enc);
        assert_both_orientations_give(&k, &a_enc, &b_enc, &scalar, "empty A column");
        for level in SimdLevel::available() {
            let word = word::execute_as(&a_enc, &b_enc, level, true);
            for c in 0..32 {
                assert!((32..64).all(|r| word[(r, c)].to_bits() == 0), "{level:?}: column {c}");
                assert!(word[(0, c)] < 0.0 && word[(127, c)] < 0.0, "{level:?}: column {c}");
            }
        }
    }

    #[test]
    fn the_sparser_weights_are_condensed_only_where_that_runs_no_more_blocks() {
        // `execute_encoded` runs `D^T = B^T * A^T` when B keeps strictly
        // fewer values per output element and the transposed band loop
        // makes no more block passes (at AVX-512: a pass per 4-tile block
        // and per remainder tile). Each case reports whether B is the
        // sparser operand and which way the rule went.
        let k = kernel();
        let rule = |m, kd, n, sa, sb| {
            let (a, b) = (random(m, kd, sa, 1), random(kd, n, sb, 2));
            let (a_nnz, b_nnz) = (k.encode_a(&a).nnz(), k.encode_b(&b).nnz());
            (b_nnz * m < a_nnz * n, word::transposes((a_nnz, b_nnz), (m, n), (32, 32)))
        };
        // `gemm_extreme`: 512-cubed at A 90 % / B 99 %, 64 passes either way.
        assert_eq!(rule(512, 512, 512, 0.9, 0.99), (true, true));
        // A `forward_batch` layer: B is sparser, but the transposed loop
        // would make 16 passes (8 bands of B's columns, 2 remainder tiles of
        // A's rows each) against 4 (2 bands, 2 blocks).
        assert_eq!(rule(64, 256, 256, 0.49, 0.68), (true, false));
        // One row against 256 columns: 8 passes against 2.
        assert_eq!(rule(1, 256, 256, 0.5, 0.7), (true, false));
        // 200 rows against 400 columns: 13 bands of 1 block and 3 remainder
        // tiles against 7 bands of 3 blocks and 1 remainder tile.
        assert_eq!(rule(200, 300, 400, 0.3, 0.5), (true, false));
        // One row against 64 columns is 2 passes either way.
        assert_eq!(rule(1, 64, 64, 0.0, 0.99), (true, true));
        // A tie in values per output element stays as it is.
        assert!(!word::transposes((1000, 2000), (256, 512), (32, 32)));
        assert!(word::transposes((1000, 1999), (256, 512), (32, 32)));
        // Off the native width every block is one tile, so the passes tie
        // and the values decide; a 24-wide B tiling transposes into 32-wide
        // register-held blocks, so the transposed loop makes fewer.
        assert!(word::transposes((1000, 999), (1, 4096), (16, 64)));
        assert!(word::transposes((1000, 999), (96, 96), (32, 24)));
        assert!(!word::transposes((1000, 1000), (96, 96), (32, 24)));
    }

    #[test]
    #[should_panic(expected = "at most 64 x 64")]
    fn wide_warp_tiles_are_refused() {
        // 65-wide warp tiles exceed one u64 word, which only the reference
        // kernel could run: refused up front, not silently served by it.
        let _ = kernel().with_tiling(warp_tiling(65, 64, 16));
    }

    proptest::proptest! {
        // Differential property: the word-parallel kernel is bit-identical
        // to the retained scalar reference across layouts (the two native
        // 32-wide tilings on register-held blocks — up to 7 tile columns, so
        // a full block plus a remainder at every level; 8-, 24- and 64-wide
        // ones, incl. a non-square 16x8x8, on the in-memory row), sparsities
        // (incl. 0.0 and ~1.0), edge-tile shapes, operands seeded with
        // values FP16 storage turns non-finite, and every vector level the
        // host has. Up to 200 rows, so that calls whose B is the sparser
        // operand also run transposed (at the native tilings, for one, 97 to
        // 128 rows against more than 128 columns).
        #[test]
        fn word_and_scalar_paths_agree_bitwise(
            seed in proptest::any::<u64>(),
            m in 1usize..=200,
            kd in 1usize..=72,
            n in 1usize..=200,
            sa_idx in 0usize..6,
            sb_idx in 0usize..6,
            tiling_idx in 0usize..5,
            non_finite in 0usize..=4,
        ) {
            const SPARSITIES: [f64; 6] = [0.0, 0.3, 0.75, 0.95, 0.999, 1.0];
            let tiling = match tiling_idx {
                0 => GemmTiling::paper_spgemm(),
                1 => GpuConfig::a100().native_tiling(),
                2 => GemmTiling { block_m: 32, block_n: 16, ..warp_tiling(16, 8, 8) },
                3 => warp_tiling(32, 24, 16),
                _ => warp_tiling(16, 64, 8),
            };
            let k = BitmapSpGemm::new(GpuConfig::v100()).with_tiling(tiling);
            let mut a = random(m, kd, SPARSITIES[sa_idx], seed);
            let mut b = random(kd, n, SPARSITIES[sb_idx], seed ^ 0x9e37_79b9);
            seed_non_finite(&mut a, non_finite, seed ^ 0xa);
            seed_non_finite(&mut b, non_finite / 2, seed ^ 0xb);
            let (a_enc, b_enc) = (k.encode_a(&a), k.encode_b(&b));
            let scalar = reference(&k, &a, &b_enc);
            for level in SimdLevel::available() {
                let word = k.execute_encoded_at(&a_enc, &b_enc, level);
                proptest::prop_assert!(same_bits(&word, &scalar), "{:?}", level);
            }
        }
    }

    /// What [`BitmapSpGemm::forward`] must equal bit for bit: per layer,
    /// the formats encoder, the scalar kernel and `relu`.
    fn reference_forward(
        k: &BitmapSpGemm,
        input: &Matrix,
        layers: &[(&TwoLevelBitmapMatrix, bool)],
    ) -> Matrix {
        let mut x = input.clone();
        for &(weights, relu) in layers {
            x = reference(k, &x, weights);
            if relu {
                x = x.relu();
            }
        }
        x
    }

    #[test]
    fn encode_a_stores_what_the_formats_encoder_does_at_every_level() {
        // Ragged bands (1, 4, 15, 16, 17, 31, 33 and 48 rows: a ragged band
        // takes the tile path over zero rows, its live rows either side of
        // a 16-row (AVX-512) or 8-row (AVX2) in-register transpose group),
        // widths below, at and either side of one 16-column tile, and values
        // FP16 storage flushes, rounds on an edge or turns non-finite (a tile
        // holding one takes the plain walk), on 32-row bands and on 16-row
        // ones, which never take the tile path.
        let tilings =
            [GemmTiling::paper_spgemm(), GpuConfig::a100().native_tiling(), warp_tiling(16, 64, 8)];
        for (i, (rows, cols)) in [1, 4, 15, 16, 17, 31, 33, 48, 64]
            .into_iter()
            .flat_map(|rows| [1, 15, 16, 17, 64, 100].map(|cols| (rows, cols)))
            .enumerate()
        {
            let seed = 200 + i as u64;
            for (sparsity, specials) in [(0.0, 0), (0.5, 3), (0.9, 8)] {
                let mut a = random(rows, cols, sparsity, seed);
                seed_rounding_edges(&mut a, specials, seed ^ 0xa);
                seed_non_finite(&mut a, specials / 3, seed ^ 0xb);
                for tiling in tilings {
                    let k = kernel().with_tiling(tiling);
                    let (wm, wk) = k.tiling().a_tile();
                    let want = TwoLevelBitmapMatrix::encode(&a, wm, wk, VectorLayout::ColumnMajor);
                    for level in SimdLevel::available() {
                        let got = k.encode_a_at(&a, level);
                        let context = format!("{rows}x{cols} at {sparsity}, {wm}x{wk}, {level:?}");
                        assert_eq!(got.nnz(), want.nnz(), "{context}");
                        assert!(same_bits(&got.decode(), &want.decode()), "{context}");
                    }
                }
            }
        }
    }

    #[test]
    fn small_batches_forward_as_the_per_layer_reference_does_at_every_level() {
        // A serve batch is a few rows: one ragged band whose block
        // accumulator holds only its live rows and whose output pass emits
        // over a zero-padded tile. Rows 1 to 9 cross the small-band body's
        // bound (8 at AVX-512); 31 and 33 are one band and two. Bit for bit
        // per-layer `encode_a`, `execute_encoded_scalar` and `relu`, on both
        // native tilings, with a `+inf` and a NaN activation and an
        // all-empty weight tile (32 rows cover `warp_k` on both tilings).
        let mut dense =
            [random(64, 96, 0.6, 230), random(96, 64, 0.5, 231), random(64, 40, 0.7, 232)];
        for (r, c) in (0..32).flat_map(|r| (32..64).map(move |c| (r, c))) {
            dense[0][(r, c)] = 0.0;
        }
        for k in [kernel(), BitmapSpGemm::for_device(GpuConfig::a100())] {
            let weights = dense.each_ref().map(|w| k.encode_b(w));
            assert!(weights[0].tile(0, 1).is_none(), "{:?}: tile (0, 1) is empty", k.tiling());
            let layers = [(&weights[0], true), (&weights[1], false), (&weights[2], true)];
            for rows in (1..=9).chain([31, 33]) {
                let mut input = random(rows, 64, 0.4, 233 + rows as u64);
                seed_rounding_edges(&mut input, 4, rows as u64);
                seed_non_finite(&mut input, 1, rows as u64 ^ 0xa);
                input[(0, 5)] = f32::INFINITY;
                input[(rows - 1, 40)] = f32::NAN;
                let mut want = input.clone();
                for &(w, relu) in &layers {
                    want = k.execute_encoded_scalar(&k.encode_a(&want), w);
                    if relu {
                        want = want.relu();
                    }
                }
                for level in SimdLevel::available() {
                    let got = k.forward_at(&input, &layers, level);
                    assert!(same_bits(&got, &want), "{rows} rows, {:?}, {level:?}", k.tiling());
                }
            }
        }
    }

    #[test]
    fn a_dense_band_narrower_than_the_emitter_tile_stays_in_its_segment() {
        // 16-row bands keep every value of a dense output: the band's dense
        // bound has room for its values, not for a 32-row tile column past
        // its last one, so such bands never take the tile path.
        let k = kernel().with_tiling(warp_tiling(16, 64, 8));
        let w = k.encode_b(&Matrix::from_vec(64, 64, vec![1.0; 64 * 64]));
        let input = Matrix::from_vec(32, 64, vec![1.0; 32 * 64]);
        let want = reference_forward(&k, &input, &[(&w, true), (&w, true)]);
        for level in SimdLevel::available() {
            let got = k.forward_at(&input, &[(&w, true), (&w, true)], level);
            assert!(same_bits(&got, &want), "{level:?}");
        }
    }

    #[test]
    fn forward_on_a_many_band_grid_matches_the_reference() {
        // 16 bands x 4 (or 6) tile columns, in the emitting layers as in the
        // last one: every band's values follow the band before in one arena.
        // The 24-wide tiling emits from the in-memory row's blocks.
        let input = random(512, 96, 0.4, 120);
        let dense =
            [random(96, 128, 0.6, 121), random(128, 128, 0.7, 122), random(128, 128, 0.5, 123)];
        for k in [kernel(), kernel().with_tiling(warp_tiling(32, 24, 16))] {
            let weights = dense.each_ref().map(|w| k.encode_b(w));
            let layers = [(&weights[0], true), (&weights[1], false), (&weights[2], true)];
            let want = reference_forward(&k, &input, &layers);
            assert!(want.nnz() > 0, "the stack keeps something alive");
            for level in SimdLevel::available() {
                let got = k.forward_at(&input, &layers, level);
                assert!(same_bits(&got, &want), "{:?} {level:?}", k.tiling());
            }
        }
    }

    #[test]
    fn forward_without_layers_returns_the_input() {
        let mut input = random(5, 7, 0.5, 124);
        input[(0, 0)] = -0.0;
        assert!(same_bits(&kernel().forward(&input, &[]), &input));
    }

    #[test]
    #[should_panic(expected = "inner dimensions must agree")]
    fn forward_rejects_a_stack_whose_widths_do_not_chain() {
        let k = kernel();
        let (w0, w1) = (k.encode_b(&random(8, 12, 0.5, 125)), k.encode_b(&random(16, 4, 0.5, 126)));
        let _ = k.forward(&Matrix::zeros(3, 8), &[(&w0, true), (&w1, false)]);
    }

    #[test]
    #[should_panic(expected = "B operand encoding (32x16 tiles, ColumnMajor) does not match")]
    fn forward_rejects_a_layer_in_the_a_layout() {
        let k = kernel();
        let w = TwoLevelBitmapMatrix::encode(
            &random(8, 8, 0.5, 127),
            32,
            16,
            VectorLayout::ColumnMajor,
        );
        let _ = k.forward(&Matrix::zeros(3, 8), &[(&w, true)]);
    }

    proptest::proptest! {
        // Differential property: the fused forward equals the reference
        // composition bit for bit at every vector level — over depths,
        // ReLU on and off per layer, the two native tilings, one whose
        // `warp_n` is not a multiple of `warp_k` and one with 16-row bands,
        // ragged row and width counts, sparsities from dense to all-zero
        // (an all-zero weight matrix makes the next operand empty), input
        // scales that put the activations in the half-subnormal range, the
        // normalised range and past 65504, and operands seeded with
        // non-finite values, `-0.0` and the rounding edges.
        #[test]
        fn forward_and_the_unfused_composition_agree_bitwise(
            seed in proptest::any::<u64>(),
            depth in 1usize..=4,
            relu_mask in 0usize..16,
            rows in 1usize..=80,
            s_input in 0usize..6,
            scale_idx in 0usize..4,
            tiling_idx in 0usize..4,
            specials in 0usize..=4,
        ) {
            const SPARSITIES: [f64; 6] = [0.0, 0.3, 0.75, 0.95, 0.999, 1.0];
            let tiling = match tiling_idx {
                0 => GemmTiling::paper_spgemm(),
                1 => GpuConfig::a100().native_tiling(),
                2 => warp_tiling(32, 24, 16),
                _ => warp_tiling(16, 64, 8),
            };
            let k = BitmapSpGemm::new(GpuConfig::v100()).with_tiling(tiling);
            let scale = [2.0f32.powi(-20), 2.0f32.powi(-10), 1.0, 4096.0][scale_idx];
            // The width of every operand along the stack, and each layer's
            // weight sparsity.
            let mut rng = StdRng::seed_from_u64(seed ^ 0xd);
            let widths: Vec<usize> = (0..=depth).map(|_| rng.random_range(1..101usize)).collect();
            let s_weights: Vec<usize> = (0..depth).map(|_| rng.random_range(0..6usize)).collect();
            let mut input = random(rows, widths[0], SPARSITIES[s_input], seed);
            input.as_mut_slice().iter_mut().for_each(|x| *x *= scale);
            seed_non_finite(&mut input, specials / 2, seed ^ 0xa);
            seed_rounding_edges(&mut input, specials, seed ^ 0xb);
            let weights: Vec<TwoLevelBitmapMatrix> = (0..depth)
                .map(|i| {
                    let salt = seed ^ (0x9e37_79b9 << i);
                    let mut w = random(widths[i], widths[i + 1], SPARSITIES[s_weights[i]], salt);
                    seed_non_finite(&mut w, specials / 3, salt ^ 0xc);
                    k.encode_b(&w)
                })
                .collect();
            let layers: Vec<(&TwoLevelBitmapMatrix, bool)> =
                weights.iter().enumerate().map(|(i, w)| (w, relu_mask >> i & 1 == 1)).collect();
            let want = reference_forward(&k, &input, &layers);
            for level in SimdLevel::available() {
                let got = k.forward_at(&input, &layers, level);
                proptest::prop_assert!(same_bits(&got, &want), "{:?}", level);
            }
        }
    }

    /// One kernel call as the thread-local workspace sees it: which device's
    /// native tiling, the batch height, the operand widths along the stack
    /// (one weight matrix is a plain `execute_encoded_at`, more are a
    /// `forward_at` with `relu_mask`'s bits per layer) and how sparse the
    /// input and the weights are (a sparser weight matrix may run the plain
    /// call transposed).
    #[derive(Clone, Debug)]
    struct WorkspaceCall {
        a100: bool,
        rows: usize,
        widths: Vec<usize>,
        relu_mask: usize,
        sparsity: f64,
        weight_sparsity: f64,
        specials: usize,
        seed: u64,
    }

    impl WorkspaceCall {
        fn random(rng: &mut StdRng) -> Self {
            const SPARSITIES: [f64; 5] = [0.0, 0.5, 0.9, 0.99, 1.0];
            // Mostly small, sometimes large: a big operand's cells are what
            // a later small one must not see.
            let dim = |rng: &mut StdRng| match rng.random_range(0..3usize) {
                0 => rng.random_range(1..151usize),
                _ => rng.random_range(1..41usize),
            };
            let depth = rng.random_range(1..5usize);
            WorkspaceCall {
                a100: rng.random_bool(0.5),
                rows: dim(rng),
                widths: (0..=depth).map(|_| dim(rng)).collect(),
                relu_mask: rng.random_range(0..16usize),
                sparsity: SPARSITIES[rng.random_range(0..SPARSITIES.len())],
                weight_sparsity: SPARSITIES[rng.random_range(0..SPARSITIES.len())],
                specials: rng.random_range(0..4usize),
                seed: rng.random_range(0..u64::MAX),
            }
        }

        /// Runs the call at every vector level on this thread and compares
        /// each result, bit for bit, with the scalar kernel's on the formats
        /// encoder's A operand (through the unfused walk for a stack); after
        /// each, runs `previous`'s operand again, which must give its bits
        /// again. Before each, encodes the input with `encode_a_at` at the
        /// level, in the workspace arena the call (or level) before has
        /// used, and holds its decode to the formats encoder's. Returns this
        /// call's input, encoded by `encode_a`, for the next call to run
        /// again.
        fn check(&self, previous: Option<&Leftover>) -> Result<Leftover, String> {
            let config = if self.a100 { GpuConfig::a100() } else { GpuConfig::v100() };
            let k = BitmapSpGemm::for_device(config);
            let mut input = random(self.rows, self.widths[0], self.sparsity, self.seed);
            seed_non_finite(&mut input, self.specials / 2, self.seed ^ 0xa);
            seed_rounding_edges(&mut input, self.specials, self.seed ^ 0xb);
            let mut weights: Vec<TwoLevelBitmapMatrix> = self
                .widths
                .windows(2)
                .enumerate()
                .map(|(i, w)| {
                    let seed = self.seed + 1 + i as u64;
                    k.encode_b(&random(w[0], w[1], self.weight_sparsity, seed))
                })
                .collect();
            let layers: Vec<_> = weights
                .iter()
                .enumerate()
                .map(|(i, w)| (w, self.relu_mask >> i & 1 == 1))
                .collect();
            let (a_enc, first) = (k.encode_a(&input), reference(&k, &input, &weights[0]));
            let want = if layers.len() == 1 {
                first.clone()
            } else {
                reference_forward(&k, &input, &layers)
            };
            let (wm, wk) = k.tiling().a_tile();
            let a_want = TwoLevelBitmapMatrix::encode(&input, wm, wk, VectorLayout::ColumnMajor);
            for level in SimdLevel::available() {
                let a_at = k.encode_a_at(&input, level);
                if !same_bits(&a_at.decode(), &a_want.decode()) {
                    return Err(format!("{level:?}: encode_a_at of {self:?}"));
                }
                let got = if layers.len() == 1 {
                    k.execute_encoded_at(&a_at, &weights[0], level)
                } else {
                    k.forward_at(&input, &layers, level)
                };
                if !same_bits(&got, &want) {
                    return Err(format!("{level:?}: {self:?}"));
                }
                let Some(p) = previous else { continue };
                if !same_bits(&p.k.execute_encoded_at(&p.a_enc, &p.weights, level), &p.want) {
                    return Err(format!("{level:?}: the previous operand, run after {self:?}"));
                }
            }
            Ok(Leftover { k, a_enc, weights: weights.swap_remove(0), want: first })
        }
    }

    /// An `EncodedA` a call leaves behind, its kernel and B operand, and
    /// what they must multiply out to.
    struct Leftover {
        k: BitmapSpGemm,
        a_enc: EncodedA,
        weights: TwoLevelBitmapMatrix,
        want: Matrix,
    }

    #[test]
    fn a_small_call_after_a_large_one_sees_nothing_of_it() {
        // One thread, one workspace: a dense 96x130x200 GEMM fills the
        // expansion and the scratch, and the same shape with an all-zero B
        // (every tile empty, a non-finite activation on the masked path)
        // must find none of its step words; the same shape transposed (B's
        // bands read in place, A expanded) and a 64-row stack
        // each find what the other left; then 4-row batches (a serve
        // worker's batch height changes on every batch), the other device's
        // tiling, a tiny GEMM and the big shapes again, plain and
        // transposed, each have to come out as if the thread had never run
        // before — and leave the operand `encode_a` built for the call
        // before them as it was.
        let call = |a100, rows, widths: &[usize], sparsity, seed| WorkspaceCall {
            a100,
            rows,
            widths: widths.to_vec(),
            relu_mask: 0b0101,
            sparsity,
            weight_sparsity: sparsity,
            specials: 3,
            seed,
        };
        // 128 rows (one block) against 97 to 200 columns transpose when B
        // is the sparser.
        let transposed = |a100, widths: &[usize], seed| WorkspaceCall {
            weight_sparsity: 0.95,
            ..call(a100, 128, widths, 0.3, seed)
        };
        let sequence = [
            call(false, 96, &[130, 200], 0.0, 1),
            call(false, 96, &[130, 200], 1.0, 10),
            transposed(false, &[130, 200], 11),
            call(false, 64, &[100, 90, 80], 0.3, 2),
            call(false, 4, &[100, 90, 80], 0.3, 3),
            call(true, 4, &[33, 65, 17, 40], 0.5, 4),
            call(true, 5, &[7, 9], 0.9, 5),
            call(false, 64, &[100, 90, 80], 0.9, 6),
            call(true, 70, &[40, 150, 150, 3], 0.0, 7),
            transposed(true, &[70, 150], 12),
            call(false, 1, &[1, 1], 0.0, 8),
            call(false, 96, &[130, 200], 0.99, 9),
            transposed(false, &[33, 97], 13),
        ];
        let mut previous = None;
        for (i, call) in sequence.iter().enumerate() {
            let left = call.check(previous.as_ref()).unwrap_or_else(|e| panic!("call {i}: {e}"));
            if call.weight_sparsity > call.sparsity {
                let (a_nnz, b_nnz) = (left.a_enc.nnz(), left.weights.nnz());
                let (m, n) = (left.a_enc.rows(), left.weights.cols());
                assert!(word::transposes((a_nnz, b_nnz), (m, n), (32, 32)), "call {i} is plain");
            }
            previous = Some(left);
        }
    }

    #[test]
    fn a_call_that_panics_leaves_the_workspace_usable() {
        // Both entry points refuse mismatched inner dimensions with a panic.
        // The thread's next calls must neither find the workspace borrowed
        // nor see anything of the calls before.
        let before = WorkspaceCall {
            a100: false,
            rows: 80,
            widths: vec![120, 140, 60],
            relu_mask: 1,
            sparsity: 0.2,
            weight_sparsity: 0.2,
            specials: 2,
            seed: 1,
        };
        let mut previous = before.check(None).expect("the warm-up call");
        let k = kernel();
        let (a, w) = (random(8, 9, 0.5, 2), k.encode_b(&random(10, 8, 0.5, 3)));
        let a_enc = k.encode_a(&a);
        let refused = std::panic::catch_unwind(|| k.execute_encoded(&a_enc, &w));
        assert!(refused.is_err(), "9 columns against 10 rows");
        let refused = std::panic::catch_unwind(|| k.forward(&a, &[(&w, true), (&w, false)]));
        assert!(refused.is_err(), "9 columns against 10 rows");
        for (rows, widths) in [(3, vec![20, 30]), (3, vec![20, 30, 10]), (80, vec![120, 140, 60])] {
            let after = WorkspaceCall { rows, widths, seed: 4, ..before.clone() };
            previous = after.check(Some(&previous)).expect("a good call after a refused one");
        }
    }

    proptest::proptest! {
        // Differential property of the per-thread workspace: any sequence of
        // calls on one thread — GEMMs and stacks, both native tilings, every
        // vector level, shapes growing and shrinking in M, K and N, any
        // sparsity, operands seeded with non-finite values and the rounding
        // edges — gives, call by call, the scalar reference's bits, and an
        // `EncodedA` kept from the call before still gives its own. (The
        // cases themselves share the test's thread, so each also runs on
        // what every earlier case left behind.)
        #[test]
        fn any_call_sequence_on_one_thread_agrees_bitwise_with_the_reference(
            seed in proptest::any::<u64>(),
            calls in 2usize..=5,
        ) {
            let (mut rng, mut previous) = (StdRng::seed_from_u64(seed), None);
            for i in 0..calls {
                match WorkspaceCall::random(&mut rng).check(previous.as_ref()) {
                    Ok(left) => previous = Some(left),
                    Err(e) => proptest::prop_assert!(false, "call {} of {}: {}", i, calls, e),
                }
            }
        }
    }
}
