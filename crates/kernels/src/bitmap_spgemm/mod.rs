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

use dsstc_formats::{TwoLevelBitmapMatrix, VectorLayout};
use dsstc_sim::tiling::{GemmTiling, TrafficInputs};
use dsstc_sim::{AccumulationBuffer, GpuConfig, OtcStepCost, WorkloadProfile};
use dsstc_tensor::{GemmShape, Matrix};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use warp::{warp_spgemm, warp_tile_profile};

/// Description of a synthetic (statistically sampled) SpGEMM problem, used
/// when the matrices are too large to materialise — the Fig. 21 sparsity
/// sweep and the Fig. 22 network layers.
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
    /// Seed for the per-tile non-zero count sampling.
    pub seed: u64,
}

impl SyntheticGemmSpec {
    /// Creates a spec with uniform (unclustered) operands and no footprint
    /// overrides.
    pub fn new(shape: GemmShape, a_sparsity: f64, b_sparsity: f64, seed: u64) -> Self {
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
            seed,
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
    pub fn oriented(
        shape: GemmShape,
        a_sparsity: f64,
        b_sparsity: f64,
        a_bytes: Option<u64>,
        b_bytes: Option<u64>,
        seed: u64,
    ) -> Self {
        let mut spec = if b_sparsity > a_sparsity {
            let mut s =
                Self::new(GemmShape::new(shape.n, shape.m, shape.k), b_sparsity, a_sparsity, seed);
            s.a_bytes_override = b_bytes;
            s.b_bytes_override = a_bytes;
            s
        } else {
            let mut s = Self::new(shape, a_sparsity, b_sparsity, seed);
            s.a_bytes_override = a_bytes;
            s.b_bytes_override = b_bytes;
            s
        };
        // The output footprint is M*N*4 either way; nothing else changes.
        spec.seed = seed;
        spec
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
    /// dense input matrices of arbitrary sparsity.
    pub fn profile_with_stats(&self, a: &Matrix, b: &Matrix) -> (WorkloadProfile, SpGemmStats) {
        assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
        let shape = GemmShape::new(a.rows(), b.cols(), a.cols());
        let (wm, wn, wk) = (self.tiling.warp_m, self.tiling.warp_n, self.tiling.warp_k);
        let grid_m = shape.m.div_ceil(wm);
        let grid_n = shape.n.div_ceil(wn);
        let grid_k = shape.k.div_ceil(wk);

        // Per-tile, per-step condensed non-zero counts, gathered in one pass
        // over each operand.
        let mut a_counts = vec![vec![0usize; wk]; grid_m * grid_k];
        let mut a_tile_nnz = vec![0u32; grid_m * grid_k];
        for r in 0..shape.m {
            for c in 0..shape.k {
                if a[(r, c)] != 0.0 {
                    let idx = (r / wm) * grid_k + c / wk;
                    a_counts[idx][c % wk] += 1;
                    a_tile_nnz[idx] += 1;
                }
            }
        }
        let mut b_counts = vec![vec![0usize; wk]; grid_k * grid_n];
        let mut b_tile_nnz = vec![0u32; grid_k * grid_n];
        for r in 0..shape.k {
            for c in 0..shape.n {
                if b[(r, c)] != 0.0 {
                    let idx = (r / wk) * grid_n + c / wn;
                    b_counts[idx][r % wk] += 1;
                    b_tile_nnz[idx] += 1;
                }
            }
        }

        let otc = &self.config.otc;
        let mut profile = WorkloadProfile::new(format!("bitmap-spgemm-{shape}"));
        let mut stats = SpGemmStats {
            total_warp_tiles: (grid_m * grid_n * grid_k) as u64,
            ..Default::default()
        };
        let mut partial_nnz_total: u64 = 0;

        for im in 0..grid_m {
            for kk in 0..grid_k {
                let a_idx = im * grid_k + kk;
                let a_empty = a_tile_nnz[a_idx] == 0;
                for jn in 0..grid_n {
                    let b_idx = kk * grid_n + jn;
                    if self.options.two_level && (a_empty || b_tile_nnz[b_idx] == 0) {
                        stats.skipped_warp_tiles += 1;
                        stats.dense_ohmma += (wk as u64)
                            * dsstc_sim::OtcStepCost::dense_ohmma_count(wm.max(wn), otc);
                        profile.scalar_ops += 1; // warp-bitmap check
                        continue;
                    }
                    let tile = warp_tile_profile(
                        &a_counts[a_idx],
                        &b_counts[b_idx],
                        wm.max(wn),
                        otc,
                        self.options.operand_collector,
                    );
                    profile.ohmma_instructions += tile.cost.steps.ohmma_issued;
                    profile.bohmma_instructions += tile.cost.steps.bohmma;
                    profile.popc_instructions += tile.cost.steps.popc;
                    profile.merge_cycles += tile.cost.steps.merge_cycles;
                    profile.accum_conflict_cycles += tile.conflict_cycles;
                    profile.scalar_ops += 32; // tile address generation
                    partial_nnz_total += tile.cost.steps.partial_nnz;
                    stats.skipped_ohmma += tile.cost.steps.ohmma_skipped;
                    stats.dense_ohmma += tile.cost.dense_ohmma(wm.max(wn), otc);
                }
            }
        }

        // DRAM traffic with the two-level encoded operand footprints.
        let a_nnz: u64 = a_tile_nnz.iter().map(|&x| x as u64).sum();
        let b_nnz: u64 = b_tile_nnz.iter().map(|&x| x as u64).sum();
        let a_bytes =
            a_nnz * 2 + ((shape.m * shape.k) as u64).div_ceil(8) + (grid_m * grid_k) as u64 / 8 + 1;
        let b_bytes =
            b_nnz * 2 + ((shape.k * shape.n) as u64).div_ceil(8) + (grid_k * grid_n) as u64 / 8 + 1;
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
            profile.shared_bytes += partial_nnz_total * 8;
            profile.scalar_ops += partial_nnz_total * 2;
        }

        (profile, stats)
    }

    /// Builds only the workload profile of `A * B`.
    pub fn profile(&self, a: &Matrix, b: &Matrix) -> WorkloadProfile {
        self.profile_with_stats(a, b).0
    }

    /// Builds the workload profile of a large SpGEMM from a *statistical*
    /// description of its operands instead of materialised matrices.
    ///
    /// Per-tile, per-step non-zero counts are drawn from the binomial
    /// distribution implied by the operand sparsities (non-zeros placed
    /// uniformly at random), which is the distribution the materialised path
    /// produces for [`dsstc_tensor::SparsityPattern::Uniform`] data. A
    /// 33x33 lookup table of step costs keeps the warp-tile sweep cheap even
    /// for 4096-cubed problems.
    pub fn profile_synthetic(&self, spec: &SyntheticGemmSpec) -> (WorkloadProfile, SpGemmStats) {
        self.profile_synthetic_capped(spec, usize::MAX)
    }

    /// Like [`Self::profile_synthetic`], but samples at most `max_m_tiles`
    /// warp-tile rows of the M dimension and scales the compute-side events
    /// to the full grid (DRAM traffic and launch geometry stay analytic and
    /// exact).
    ///
    /// The per-tile non-zero counts are i.i.d. across tile rows, so the
    /// scaled profile converges on the exact one while costing
    /// `O(max_m_tiles)` instead of `O(M / warp_m)` — this is what lets a
    /// serving layer price large batched GEMMs per batch size at request
    /// rate.
    ///
    /// # Panics
    /// Panics if `max_m_tiles` is zero.
    pub fn profile_synthetic_capped(
        &self,
        spec: &SyntheticGemmSpec,
        max_m_tiles: usize,
    ) -> (WorkloadProfile, SpGemmStats) {
        assert!(max_m_tiles > 0, "at least one M tile row must be sampled");
        let shape = spec.shape;
        let (wm, wn, wk) = (self.tiling.warp_m, self.tiling.warp_n, self.tiling.warp_k);
        let full_grid_m = shape.m.div_ceil(wm);
        let grid_m = full_grid_m.min(max_m_tiles);
        let grid_n = shape.n.div_ceil(wn);
        let grid_k = shape.k.div_ceil(wk);
        let otc = &self.config.otc;
        let warp_dim = wm.max(wn);
        let mut rng = StdRng::seed_from_u64(spec.seed);

        // Sample per-(im,kk) A-step and per-(kk,jn) B-step non-zero counts.
        let a_density = 1.0 - spec.a_sparsity;
        let b_density = 1.0 - spec.b_sparsity;
        // With clustering `q`, a fraction `q` of condensed vectors is empty
        // and the survivors carry the non-zeros at density `d / (1 - q)`,
        // preserving the overall sparsity (paper Fig. 6's uneven case).
        let sample_counts = |rng: &mut StdRng,
                             vec_len: usize,
                             steps: usize,
                             density: f64,
                             clustering: f64|
         -> Vec<u16> {
            let boosted = (density / (1.0 - clustering)).min(1.0);
            (0..steps)
                .map(|_| {
                    if clustering > 0.0 && rng.random_bool(clustering) {
                        0
                    } else {
                        sample_binomial(rng, vec_len, boosted)
                    }
                })
                .collect()
        };
        let mut a_counts: Vec<Vec<u16>> = Vec::with_capacity(grid_m * grid_k);
        for im in 0..grid_m {
            let rows = wm.min(shape.m - im * wm);
            for kk in 0..grid_k {
                let steps = wk.min(shape.k - kk * wk);
                a_counts.push(sample_counts(&mut rng, rows, steps, a_density, spec.a_clustering));
            }
        }
        let mut b_counts: Vec<Vec<u16>> = Vec::with_capacity(grid_k * grid_n);
        for kk in 0..grid_k {
            let steps = wk.min(shape.k - kk * wk);
            for jn in 0..grid_n {
                let cols = wn.min(shape.n - jn * wn);
                // One count per step; each counts non-zeros across `cols`.
                b_counts.push(sample_counts(&mut rng, cols, steps, b_density, spec.b_clustering));
            }
        }

        // Lookup table of step costs indexed by (a_nnz, b_nnz).
        let table: Vec<OtcStepCost> = (0..=warp_dim)
            .flat_map(|a| (0..=warp_dim).map(move |b| (a, b)))
            .map(|(a, b)| OtcStepCost::for_vectors(a, b, warp_dim, otc))
            .collect();
        let step_cost =
            |a: u16, b: u16| -> &OtcStepCost { &table[a as usize * (warp_dim + 1) + b as usize] };

        let buffer = AccumulationBuffer::from_otc(otc);
        let conflict_factor = buffer.conflict_factor_estimate(16, self.options.operand_collector);

        let mut profile = WorkloadProfile::new(format!("bitmap-spgemm-synthetic-{shape}"));
        let mut stats = SpGemmStats {
            total_warp_tiles: (full_grid_m * grid_n * grid_k) as u64,
            ..Default::default()
        };
        let mut partial_nnz_total = 0u64;
        let dense_per_step = OtcStepCost::dense_ohmma_count(warp_dim, otc);

        for im in 0..grid_m {
            for kk in 0..grid_k {
                let a_steps = &a_counts[im * grid_k + kk];
                let a_empty = a_steps.iter().all(|&c| c == 0);
                for jn in 0..grid_n {
                    let b_steps = &b_counts[kk * grid_n + jn];
                    stats.dense_ohmma += dense_per_step * a_steps.len() as u64;
                    if self.options.two_level && (a_empty || b_steps.iter().all(|&c| c == 0)) {
                        stats.skipped_warp_tiles += 1;
                        profile.scalar_ops += 1;
                        continue;
                    }
                    let mut merge = 0u64;
                    for (&a, &b) in a_steps.iter().zip(b_steps) {
                        let c = step_cost(a, b);
                        profile.ohmma_instructions += c.ohmma_issued;
                        profile.bohmma_instructions += c.bohmma;
                        profile.popc_instructions += c.popc;
                        merge += c.merge_cycles;
                        partial_nnz_total += c.partial_nnz;
                        stats.skipped_ohmma += c.ohmma_skipped;
                    }
                    profile.merge_cycles += merge;
                    profile.accum_conflict_cycles +=
                        ((conflict_factor - 1.0) * merge as f64).round() as u64;
                    profile.scalar_ops += 32;
                }
            }
        }

        // Scale the sampled compute-side events to the full M grid; the
        // memory-side quantities below are analytic over the full shape.
        if grid_m < full_grid_m {
            let scale = full_grid_m as f64 / grid_m as f64;
            let scale_u = |v: u64| (v as f64 * scale).round() as u64;
            profile.ohmma_instructions = scale_u(profile.ohmma_instructions);
            profile.bohmma_instructions = scale_u(profile.bohmma_instructions);
            profile.popc_instructions = scale_u(profile.popc_instructions);
            profile.merge_cycles = scale_u(profile.merge_cycles);
            profile.accum_conflict_cycles = scale_u(profile.accum_conflict_cycles);
            profile.scalar_ops = scale_u(profile.scalar_ops);
            partial_nnz_total = scale_u(partial_nnz_total);
            stats.skipped_warp_tiles = scale_u(stats.skipped_warp_tiles);
            stats.skipped_ohmma = scale_u(stats.skipped_ohmma);
            stats.dense_ohmma = scale_u(stats.dense_ohmma);
        }

        // Encoded operand footprints (values + element bitmap + warp bitmap).
        let a_nnz = ((shape.m * shape.k) as f64 * a_density) as u64;
        let b_nnz = ((shape.k * shape.n) as f64 * b_density) as u64;
        let a_bytes = spec.a_bytes_override.unwrap_or(
            a_nnz * 2
                + ((shape.m * shape.k) as u64).div_ceil(8)
                + ((full_grid_m * grid_k) as u64).div_ceil(8),
        );
        let b_bytes = spec.b_bytes_override.unwrap_or(
            b_nnz * 2
                + ((shape.k * shape.n) as u64).div_ceil(8)
                + ((grid_k * grid_n) as u64).div_ceil(8),
        );
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
        profile.shared_bytes = a_bytes + b_bytes;
        profile.thread_blocks = self.tiling.grid_blocks(&shape);
        if !self.options.two_level {
            profile.shared_bytes += partial_nnz_total * 8;
            profile.scalar_ops += partial_nnz_total * 2;
        }
        (profile, stats)
    }

    /// Encodes the A (activation) operand of an SpGEMM for this kernel's
    /// warp tiling: per `warp_m`-row band and outer-product step one packed
    /// column word, the column-condensed values rounded to FP16 storage
    /// precision as they are encoded. It is written by the emitter the fused
    /// [`Self::forward`] encodes its input with, holds only its non-zeros,
    /// and stores bit for bit what
    /// `TwoLevelBitmapMatrix::encode_f16(a, warp_m, warp_k, VectorLayout::ColumnMajor)`
    /// does, in a constant few allocations whatever the tile count. Like
    /// [`Self::execute_encoded`], it runs at the widest vector level the CPU
    /// has, chosen once per call.
    pub fn encode_a(&self, a: &Matrix) -> EncodedA {
        self.encode_a_at(a, simd::Level::detect())
    }

    /// [`Self::encode_a`] with the vector level pinned instead of detected,
    /// for tests and benches. Every level stores the same bits.
    #[doc(hidden)]
    pub fn encode_a_at(&self, a: &Matrix, level: SimdLevel) -> EncodedA {
        EncodedA::encode(a, self.tiling.a_tile(), level)
    }

    /// Encodes the B (weight) operand of an SpGEMM into the two-level bitmap
    /// layout this kernel's warp tiling expects (row-major condensed
    /// vectors, `warp_k x warp_n` tiles), rounding values to FP16 storage
    /// precision as it encodes.
    ///
    /// A model-serving stack encodes its pruned weights once with this and
    /// reuses the encoding across requests (the paper encodes weights
    /// offline for the same reason).
    pub fn encode_b(&self, b: &Matrix) -> TwoLevelBitmapMatrix {
        TwoLevelBitmapMatrix::encode_f16(
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
        let ((rows, cols), want) = (a_enc.arena().tile_shape(), self.tiling.a_tile());
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
    /// counts and shapes decide it, per call. The call runs on the calling
    /// thread, and what it stages (an expansion, the transposed weights, the
    /// block accumulator) is that thread's, grown to its largest call and
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
    /// (`TwoLevelBitmapMatrix::encode_f16(.., VectorLayout::ColumnMajor)`)
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
            TwoLevelBitmapMatrix::encode_f16(&a_enc.decode(), wm, wk, VectorLayout::ColumnMajor);
        self.scalar_product(&a_enc, b_enc)
    }

    /// The loop of [`Self::execute_encoded_scalar`] over a two-level A
    /// operand of this kernel's tiling.
    fn scalar_product(&self, a_enc: &TwoLevelBitmapMatrix, b_enc: &TwoLevelBitmapMatrix) -> Matrix {
        let (wm, wn) = (self.tiling.warp_m, self.tiling.warp_n);
        let mut out = Matrix::zeros(a_enc.rows(), b_enc.cols());
        for im in 0..a_enc.grid_rows() {
            for jn in 0..b_enc.grid_cols() {
                let mut acc = Matrix::zeros(wm, wn);
                for kk in 0..a_enc.grid_cols() {
                    let (a_tile, b_tile) = match (a_enc.tile(im, kk), b_enc.tile(kk, jn)) {
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
    /// the profile.
    ///
    /// # Panics
    /// Panics if the inner dimensions disagree.
    pub fn execute(&self, a: &Matrix, b: &Matrix) -> (Matrix, WorkloadProfile) {
        assert_eq!(a.cols(), b.rows(), "inner dimensions must agree");
        let out = self.execute_encoded(&self.encode_a(a), &self.encode_b(b));
        let profile = self.profile(a, b);
        (out, profile)
    }
}

/// Samples a `Binomial(n, p)` count: exact Bernoulli summation for small
/// variance, a clamped normal approximation otherwise (fast enough to sweep
/// 4096-cubed problems while keeping the per-tile statistics faithful).
fn sample_binomial(rng: &mut StdRng, n: usize, p: f64) -> u16 {
    if p <= 0.0 || n == 0 {
        return 0;
    }
    if p >= 1.0 {
        return n as u16;
    }
    let variance = n as f64 * p * (1.0 - p);
    if variance < 9.0 {
        let mut c = 0u16;
        for _ in 0..n {
            if rng.random_bool(p) {
                c += 1;
            }
        }
        return c;
    }
    // Box-Muller normal approximation.
    let u1: f64 = rng.random_range(f64::EPSILON..1.0);
    let u2: f64 = rng.random_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
    let value = (n as f64 * p + z * variance.sqrt()).round();
    value.clamp(0.0, n as f64) as u16
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dense_gemm::DenseGemm;
    use dsstc_sim::GpuTimingModel;
    use dsstc_tensor::SparsityPattern;

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
        let a_enc = TwoLevelBitmapMatrix::encode_f16(a, wm, wk, VectorLayout::ColumnMajor);
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

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn mismatched_shapes_panic() {
        let _ = kernel().profile(&Matrix::zeros(4, 4), &Matrix::zeros(8, 8));
    }

    #[test]
    fn synthetic_profile_tracks_materialised_profile() {
        // The synthetic (sampled) path should agree with the exact path to
        // within sampling noise on instruction counts.
        let shape = GemmShape::new(512, 512, 512);
        let a = random(512, 512, 0.7, 41);
        let b = random(512, 512, 0.5, 42);
        let exact = kernel().profile(&a, &b);
        let (synthetic, _) =
            kernel().profile_synthetic(&SyntheticGemmSpec::new(shape, 0.7, 0.5, 43));
        let ratio = synthetic.ohmma_instructions as f64 / exact.ohmma_instructions as f64;
        assert!((0.85..=1.15).contains(&ratio), "OHMMA ratio {ratio}");
        let merge_ratio = synthetic.merge_cycles as f64 / exact.merge_cycles as f64;
        assert!((0.8..=1.2).contains(&merge_ratio), "merge ratio {merge_ratio}");
    }

    #[test]
    fn synthetic_profile_is_deterministic_and_respects_overrides() {
        let shape = GemmShape::new(256, 256, 256);
        let spec = SyntheticGemmSpec::new(shape, 0.9, 0.9, 7);
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
    fn capped_synthetic_profile_tracks_the_exact_one() {
        use dsstc_sim::GpuTimingModel;
        let spec = SyntheticGemmSpec::new(GemmShape::new(4096, 512, 512), 0.7, 0.85, 11);
        let k = kernel();
        let (exact, exact_stats) = k.profile_synthetic(&spec);
        let (capped, capped_stats) = k.profile_synthetic_capped(&spec, 16);
        // Memory-side quantities are analytic and must agree exactly.
        assert_eq!(capped.dram_bytes_read, exact.dram_bytes_read);
        assert_eq!(capped.thread_blocks, exact.thread_blocks);
        assert_eq!(capped_stats.total_warp_tiles, exact_stats.total_warp_tiles);
        // Compute-side quantities are scaled samples: close, not identical.
        let ratio = capped.ohmma_instructions as f64 / exact.ohmma_instructions as f64;
        assert!((0.9..=1.1).contains(&ratio), "OHMMA ratio {ratio}");
        let model = GpuTimingModel::v100();
        let t_ratio = model.estimate(&capped).time_us() / model.estimate(&exact).time_us();
        assert!((0.9..=1.1).contains(&t_ratio), "time ratio {t_ratio}");
        // An uncapped call is bit-identical to profile_synthetic.
        let (uncapped, _) = k.profile_synthetic_capped(&spec, usize::MAX);
        assert_eq!(uncapped, exact);
    }

    #[test]
    #[should_panic(expected = "at least one M tile row")]
    fn zero_cap_panics() {
        let spec = SyntheticGemmSpec::new(GemmShape::new(64, 64, 64), 0.5, 0.5, 1);
        let _ = kernel().profile_synthetic_capped(&spec, 0);
    }

    #[test]
    fn clustered_weights_skip_more_and_run_faster() {
        // Same overall sparsity, but with 60% of the weight vectors entirely
        // empty (paper Fig. 6's uneven distribution): more OHMMAs are
        // skipped and the modelled time drops.
        use dsstc_sim::GpuTimingModel;
        let shape = GemmShape::new(1024, 1024, 1024);
        let uniform = SyntheticGemmSpec::new(shape, 0.9, 0.0, 3);
        let clustered = SyntheticGemmSpec::new(shape, 0.9, 0.0, 3).with_clustering(0.6, 0.0);
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
        let _ = SyntheticGemmSpec::new(shape, 0.1, 0.0, 1).with_clustering(0.5, 0.0);
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
        let b = TwoLevelBitmapMatrix::encode_f16(&b, 32, 32, VectorLayout::ColumnMajor);
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
        // M = 128 runs the widest block.
        for (m, n) in [(32, 32), (32, 128), (128, 32)] {
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
        // Ragged bands (1, 4, 31 and 33 rows: a ragged band takes the tile
        // path over zero rows), widths below, at and either side of one
        // 16-column tile, and values FP16 storage flushes, rounds on an edge
        // or turns non-finite (a tile holding one takes the plain walk), on
        // 32-row bands and on 16-row ones, which never take the tile path.
        let tilings =
            [GemmTiling::paper_spgemm(), GpuConfig::a100().native_tiling(), warp_tiling(16, 64, 8)];
        for (i, (rows, cols)) in [1, 4, 31, 33, 64]
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
                    let want =
                        TwoLevelBitmapMatrix::encode_f16(&a, wm, wk, VectorLayout::ColumnMajor);
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
        // over a zero-padded tile. Bit for bit per-layer `encode_a`,
        // `execute_encoded_scalar` and `relu`, on both native tilings.
        let dense = [random(64, 96, 0.6, 230), random(96, 64, 0.5, 231), random(64, 40, 0.7, 232)];
        for k in [kernel(), BitmapSpGemm::for_device(GpuConfig::a100())] {
            let weights = dense.each_ref().map(|w| k.encode_b(w));
            let layers = [(&weights[0], true), (&weights[1], false), (&weights[2], true)];
            for rows in [1, 4, 31, 33] {
                let mut input = random(rows, 64, 0.4, 233 + rows as u64);
                seed_rounding_edges(&mut input, 4, rows as u64);
                seed_non_finite(&mut input, 1, rows as u64 ^ 0xa);
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
        let w = TwoLevelBitmapMatrix::encode_f16(
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
        /// again. Returns this call's input, encoded by `encode_a`, for the
        /// next call to run again.
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
            for level in SimdLevel::available() {
                let got = if layers.len() == 1 {
                    k.execute_encoded_at(&a_enc, &weights[0], level)
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
        // must find none of its step words; the same shape transposed (B
        // condensed into a forward arena, A expanded) and a 64-row stack
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

    #[test]
    fn sample_binomial_edge_cases_and_mean() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        assert_eq!(sample_binomial(&mut rng, 32, 0.0), 0);
        assert_eq!(sample_binomial(&mut rng, 32, 1.0), 32);
        assert_eq!(sample_binomial(&mut rng, 0, 0.5), 0);
        let n = 32;
        let p = 0.5;
        let mut total = 0u64;
        let trials = 2000;
        for _ in 0..trials {
            let v = sample_binomial(&mut rng, n, p);
            assert!(v <= n as u16);
            total += v as u64;
        }
        let mean = total as f64 / trials as f64;
        assert!((mean - 16.0).abs() < 0.5, "mean {mean}");
    }
}
