//! The cost model's closed form over independent step counts.
//!
//! A synthetic operand is described by its statistics alone: each step's
//! non-zero count on either side is an independent zero-inflated binomial (a
//! clustered vector is empty outright; a surviving one keeps each position
//! at the boosted density). The expected events of a warp tile then follow
//! from the two count distributions and the tile's step count, in
//! `O(warp_dim)` once the step costs are averaged over one side, with no
//! count sampled and no tile walked.
//!
//! The tiles are grouped into *lines* along one dimension: M (the A side's
//! rows) or N (the B side's columns). All tiles of a line share its extent
//! on that side, and a line crosses at most two classes of the other side
//! (full and remainder) and two of K. [`BitmapSpGemm::profile_synthetic`]
//! sums the lines along M. [`BatchedSyntheticGemm`] keeps the lines along
//! the dimension a batch scales, since a batch changes only how many of them
//! there are.

use dsstc_sim::tiling::GemmTiling;
use dsstc_sim::WorkloadProfile;
use dsstc_tensor::GemmShape;

use super::{BitmapSpGemm, SpGemmStats, StepCosts, SyntheticGemmSpec, TileEvents};

/// One dimension of the tile grid as classes of equal tiles: the
/// `(count, extent)` of its full tiles and of its remainder tile, empty
/// classes left out.
pub(super) fn extents(total: usize, tile: usize) -> impl Iterator<Item = (usize, usize)> {
    [(total / tile, tile), (usize::from(!total.is_multiple_of(tile)), total % tile)]
        .into_iter()
        .filter(|&(count, _)| count > 0)
}

/// The distribution of a step's non-zero count over `len` positions, as
/// `dim + 1` probabilities: with probability `clustering` the condensed
/// vector is empty, otherwise each position is kept at
/// `density / (1 - clustering)`, which preserves the overall density (paper
/// Fig. 6's uneven case).
fn count_pmf(len: usize, density: f64, clustering: f64, dim: usize) -> Vec<f64> {
    let mut pmf = vec![0.0; dim + 1];
    binomial(&mut pmf[..=len], (density / (1.0 - clustering)).min(1.0));
    for p in &mut pmf {
        *p *= 1.0 - clustering;
    }
    pmf[0] += clustering;
    pmf
}

/// Writes the `Binomial(n, p)` distribution into `pmf`'s `n + 1` entries,
/// recurring from the end whose term is at least `2^-n`, so nothing that
/// matters underflows.
fn binomial(pmf: &mut [f64], p: f64) {
    let n = pmf.len() - 1;
    if p <= 0.0 || p >= 1.0 {
        pmf[if p <= 0.0 { 0 } else { n }] = 1.0;
        return;
    }
    let odds = p / (1.0 - p);
    if p <= 0.5 {
        pmf[0] = (1.0 - p).powi(n as i32);
        for x in 0..n {
            pmf[x + 1] = pmf[x] * odds * (n - x) as f64 / (x + 1) as f64;
        }
    } else {
        pmf[n] = p.powi(n as i32);
        for x in (0..n).rev() {
            pmf[x] = pmf[x + 1] / odds * (x + 1) as f64 / (n - x) as f64;
        }
    }
}

/// The step costs averaged over one side's count distribution: the side a
/// line crosses, one per class of it.
struct Averaged {
    /// Entry `x`: the expected cost of a step whose line side counts `x`.
    mean: Vec<TileEvents>,
    /// Entry `x`: the cost of a step whose line side counts `x` and whose
    /// averaged side is empty.
    edge: Vec<TileEvents>,
    /// The probability that a step of the averaged side is empty.
    p0: f64,
}

impl Averaged {
    /// Averages `costs` over `pmf`, the count distribution of the B side
    /// (`is_b`) or of the A side.
    fn new(costs: &StepCosts, pmf: &[f64], is_b: bool) -> Self {
        let cost = |line: usize, own: usize| {
            if is_b {
                costs.at(line, own)
            } else {
                costs.at(own, line)
            }
        };
        let mean = (0..=costs.dim)
            .map(|x| {
                let mut e = TileEvents::default();
                for (y, &p) in pmf.iter().enumerate().filter(|&(_, &p)| p > 0.0) {
                    e.add_scaled(p, cost(x, y));
                }
                e
            })
            .collect();
        let edge = (0..=costs.dim).map(|x| *cost(x, 0)).collect();
        Averaged { mean, edge, p0: pmf[0] }
    }

    /// The expected events of one tile of `steps` steps whose line side
    /// counts follow `pmf`.
    fn tile(&self, pmf: &[f64], steps: usize, two_level: bool, dense_per_step: f64) -> TileEvents {
        // The chances that every step of the tile is empty on the line side
        // and on the averaged side; the warp bitmap skips the tile if either
        // is.
        let (z_line, z_own) = if two_level {
            (pmf[0].powi(steps as i32), self.p0.powi(steps as i32))
        } else {
            (0.0, 0.0)
        };
        // A live tile's step: E[c] - z_line E[c(0, .)] - z_own E[c(., 0)]
        // + z_line z_own c(0, 0).
        let mut step = TileEvents::default();
        for (x, &p) in pmf.iter().enumerate().filter(|&(_, &p)| p > 0.0) {
            step.add_scaled(p, &self.mean[x]);
            step.add_scaled(-z_own * p, &self.edge[x]);
        }
        step.add_scaled(-z_line, &self.mean[0]);
        step.add_scaled(z_line * z_own, &self.edge[0]);
        let mut tile = TileEvents {
            dense_ohmma: dense_per_step * steps as f64,
            skipped_tiles: z_line + z_own - z_line * z_own,
            ..TileEvents::default()
        };
        tile.add_scaled(steps as f64, &step);
        tile
    }
}

/// A synthetic GEMM's tile grid as lines along M (`along_n` false) or N.
pub(super) struct Lines {
    /// The classes of the side a line crosses: how many tiles of the class
    /// the line holds, and the step costs averaged over its counts.
    crossed: Vec<(usize, Averaged)>,
    /// The classes of K: how many tiles, and their steps.
    k: Vec<(usize, usize)>,
    /// The line side's density and clustering.
    density: f64,
    clustering: f64,
    dim: usize,
    dense_per_step: f64,
    two_level: bool,
}

impl Lines {
    pub(super) fn new(kernel: &BitmapSpGemm, spec: &SyntheticGemmSpec, along_n: bool) -> Self {
        let costs = kernel.step_costs();
        let t = kernel.tiling;
        let a = (1.0 - spec.a_sparsity, spec.a_clustering);
        let b = (1.0 - spec.b_sparsity, spec.b_clustering);
        let ((density, clustering), (crossed_density, crossed_clustering), crossed_extent) =
            if along_n {
                (b, a, (spec.shape.m, t.warp_m))
            } else {
                (a, b, (spec.shape.n, t.warp_n))
            };
        let crossed = extents(crossed_extent.0, crossed_extent.1)
            .map(|(count, len)| {
                let pmf = count_pmf(len, crossed_density, crossed_clustering, costs.dim);
                (count, Averaged::new(&costs, &pmf, !along_n))
            })
            .collect();
        Lines {
            crossed,
            k: extents(spec.shape.k, t.warp_k).collect(),
            density,
            clustering,
            dim: costs.dim,
            dense_per_step: costs.dense_per_step,
            two_level: kernel.options.two_level,
        }
    }

    /// The expected events of one line whose tiles are `extent` rows (or
    /// columns) wide.
    pub(super) fn line(&self, extent: usize) -> TileEvents {
        let pmf = count_pmf(extent, self.density, self.clustering, self.dim);
        let mut events = TileEvents::default();
        for (count, averaged) in &self.crossed {
            for &(k_count, steps) in &self.k {
                let tile = averaged.tile(&pmf, steps, self.two_level, self.dense_per_step);
                events.add_scaled((count * k_count) as f64, &tile);
            }
        }
        events
    }
}

/// One layer's GEMM in closed form for every batch size at once:
/// [`BitmapSpGemm::profile_synthetic`] of the GEMM that `batch` stacked
/// requests run, at any `batch`.
///
/// A batch scales the layer's M dimension, the rows of its activations. In
/// the orientation [`SyntheticGemmSpec::oriented`] picks, that is M, or N
/// where it swaps the operands, and a batch changes nothing but the number
/// of warp-tile lines along it. So [`BitmapSpGemm::batched_synthetic`]
/// computes once the expected events of a full line and of each remainder
/// line a batch can leave, and [`BitmapSpGemm::profile_batched`] adds them up
/// for one batch before the analytic tail (DRAM traffic, launch geometry).
/// It holds expected events per line, not prices.
#[derive(Clone, Debug)]
pub struct BatchedSyntheticGemm {
    /// One request's GEMM, oriented.
    unit: SyntheticGemmSpec,
    /// Whether a batch scales the oriented N (the operands swapped), not M.
    along_n: bool,
    /// The tiling the events were computed for.
    tiling: GemmTiling,
    /// The expected events of one full line.
    full: TileEvents,
    /// The remainders a batch can leave are the multiples of `step`, the
    /// greatest common divisor of one request's extent and the tile's; entry
    /// `i` holds the line of remainder `(i + 1) * step`.
    remainders: Vec<TileEvents>,
    step: usize,
}

impl BitmapSpGemm {
    /// The [`BatchedSyntheticGemm`] of a layer whose GEMM for one request is
    /// `shape`, over uniform operands at the given sparsities, oriented as
    /// [`SyntheticGemmSpec::oriented`] orients it. Costs `O(warp_dim²)` per
    /// tile class and `O(warp_dim)` per remainder line.
    pub fn batched_synthetic(
        &self,
        shape: GemmShape,
        a_sparsity: f64,
        b_sparsity: f64,
    ) -> BatchedSyntheticGemm {
        let unit = SyntheticGemmSpec::oriented(shape, a_sparsity, b_sparsity, None, None);
        let along_n = SyntheticGemmSpec::swaps(a_sparsity, b_sparsity);
        let (base, tile) = if along_n {
            (unit.shape.n, self.tiling.warp_n)
        } else {
            (unit.shape.m, self.tiling.warp_m)
        };
        let lines = Lines::new(self, &unit, along_n);
        let step = gcd(base, tile);
        BatchedSyntheticGemm {
            unit,
            along_n,
            tiling: self.tiling,
            full: lines.line(tile),
            remainders: (1..tile / step).map(|i| lines.line(i * step)).collect(),
            step,
        }
    }

    /// The profile of `batch` requests through `layer`:
    /// [`Self::profile_synthetic`] of the batched GEMM, in `O(1)`. The
    /// profile is unnamed, so that a call allocates nothing.
    ///
    /// # Panics
    /// Panics if `layer` was built for another tiling.
    pub fn profile_batched(
        &self,
        layer: &BatchedSyntheticGemm,
        batch: usize,
    ) -> (WorkloadProfile, SpGemmStats) {
        assert_eq!(layer.tiling, self.tiling, "the layer was built for another tiling");
        let mut spec = layer.unit;
        let (extent, tile) = if layer.along_n {
            (&mut spec.shape.n, self.tiling.warp_n)
        } else {
            (&mut spec.shape.m, self.tiling.warp_m)
        };
        *extent *= batch;
        let (lines, remainder) = (*extent / tile, *extent % tile);
        let mut events = TileEvents::default();
        events.add_scaled(lines as f64, &layer.full);
        if remainder > 0 {
            events.add_scaled(1.0, &layer.remainders[remainder / layer.step - 1]);
        }
        self.finish(String::new(), spec.shape, &events, self.synthetic_bytes(&spec))
    }
}

/// The greatest common divisor of `a` and `b`.
fn gcd(a: usize, b: usize) -> usize {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_pmf_edge_cases_and_mean() {
        // No positions, no density, full density: one certain count.
        assert_eq!(count_pmf(0, 0.5, 0.0, 4), [1.0, 0.0, 0.0, 0.0, 0.0]);
        assert_eq!(count_pmf(4, 0.0, 0.0, 4), [1.0, 0.0, 0.0, 0.0, 0.0]);
        assert_eq!(count_pmf(3, 1.0, 0.0, 4), [0.0, 0.0, 0.0, 1.0, 0.0]);
        // Clustering moves mass to the empty vector and keeps the density.
        let clustered = count_pmf(4, 0.5, 0.5, 4);
        assert_eq!(clustered, [0.5, 0.0, 0.0, 0.0, 0.5]);
        for (len, density, clustering) in [(32, 0.5, 0.0), (32, 0.01, 0.0), (64, 0.99, 0.0)]
            .into_iter()
            .chain([(17, 0.3, 0.4), (32, 0.001, 0.9)])
        {
            let pmf = count_pmf(len, density, clustering, 64);
            let total: f64 = pmf.iter().sum();
            let mean: f64 = pmf.iter().enumerate().map(|(x, p)| x as f64 * p).sum();
            assert!((total - 1.0).abs() < 1e-12, "{len} at {density}: total {total}");
            let want = len as f64 * density;
            assert!((mean - want).abs() < 1e-9 * want.max(1.0), "{len} at {density}: {mean}");
            assert!(pmf[len + 1..].iter().all(|&p| p == 0.0));
        }
    }

    #[test]
    fn the_remainders_a_batch_leaves_are_the_multiples_of_the_gcd() {
        assert_eq!(gcd(49, 32), 1);
        assert_eq!(gcd(196, 32), 4);
        assert_eq!(gcd(128, 32), 32);
        assert_eq!(gcd(0, 32), 32);
        let kernel = BitmapSpGemm::new(dsstc_sim::GpuConfig::v100());
        let remainders =
            |m| kernel.batched_synthetic(GemmShape::new(m, 64, 64), 0.5, 0.5).remainders.len();
        assert_eq!((remainders(49), remainders(196), remainders(128)), (31, 7, 0));
    }
}
