//! What every workload shares: the seeded generator, the closed-loop
//! driver, the per-run sample record and the arithmetic that turns it into
//! the end-to-end metrics.

use std::path::PathBuf;
use std::time::Instant;

use crate::stats::{median, percentile, samples_beyond, sorted};
use crate::sys;
use crate::workloads::RunConfig;

/// Sub-windows the measured phase is cut into (see [`Windows`]).
pub const WINDOWS: usize = 10;

/// Fewest samples that must lie beyond p95 before it is reported.
pub const MIN_SAMPLES_BEYOND_P95: usize = 50;

/// Times the set-up is repeated in one measured run; `setup_s` is the
/// median repetition.
pub const SETUP_REPS: usize = 3;

/// Where run artefacts (chrome traces, the store workload's disk tier) go:
/// `out/` beside this package's manifest, inside the checkout.
pub fn out_dir() -> PathBuf {
    let manifest_dir = std::env::var("CARGO_MANIFEST_DIR")
        .unwrap_or_else(|_| env!("CARGO_MANIFEST_DIR").to_string());
    PathBuf::from(manifest_dir).join("out")
}

/// SplitMix64: the harness's own seeded generator, so the key sequence and
/// the derived sub-seeds never depend on another crate's RNG.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize
    }
}

/// The `i`-th sub-seed of a run seed (operand `i`, request `i`, ...).
pub fn sub_seed(seed: u64, stream: u64, i: u64) -> u64 {
    SplitMix64::new(seed ^ stream.wrapping_mul(0xa076_1d64_78bd_642f) ^ i.rotate_left(32))
        .next_u64()
}

/// How long a phase runs.
#[derive(Clone, Copy, Debug)]
pub enum Budget {
    /// Until this many seconds have passed (the measured run).
    Seconds(f64),
    /// Exactly this many operations (warm-up and the traced run, whose
    /// counts must repeat exactly for a seed).
    Ops(u64),
}

/// Outcome of one operation, as the workload's closure reports it.
#[derive(Clone, Copy, Debug)]
pub struct OpResult {
    /// Time inside the measured call(s), ms. Verification is excluded.
    pub ms: f64,
    /// Whether the output was bit-for-bit the expected one.
    pub ok: bool,
}

/// What one fixed window of a timed phase observed.
#[derive(Clone, Debug, Default)]
pub struct Window {
    /// Latency (ms) of the correct operations that finished in the window.
    pub lat_ms: Vec<f64>,
    /// Operations counted towards `ops_per_s`: the correct ones, and on the
    /// open-loop workload only those that also met the latency limit.
    pub counted: u64,
    /// Operations of `lat_ms` that met the workload's latency limit.
    pub within_limit: u64,
    /// Process CPU seconds spent while the window was open.
    pub cpu_s: f64,
}

/// Everything one phase observed.
#[derive(Clone, Debug, Default)]
pub struct Phase {
    pub attempted: u64,
    pub failed: u64,
    /// Latency (ms) of every operation that completed correctly.
    pub lat_ms: Vec<f64>,
    /// Correct operations that also met the workload's latency limit.
    pub within_limit: u64,
    /// The full windows of a timed phase (empty for a counted phase).
    pub windows: Vec<Window>,
    pub window_s: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Assigns finished operations to the fixed windows of a timed phase and
/// reads the process CPU clock as each window closes. Every end-to-end
/// timing is the value of the run's best window (see [`end_to_end`]), so a
/// noisy neighbour moves the windows it touches, not the reported number.
#[derive(Debug)]
pub struct Windows {
    window_s: f64,
    windows: Vec<Window>,
    /// Index of the window currently open, and the CPU reading at its start.
    open: usize,
    cpu_at_open: f64,
}

impl Windows {
    pub fn new(seconds: f64) -> Self {
        Windows {
            window_s: seconds / WINDOWS as f64,
            windows: vec![Window::default(); WINDOWS],
            open: 0,
            cpu_at_open: sys::process_cpu_seconds(),
        }
    }

    /// The window `offset_s` into the phase falls in (may be past the last).
    pub fn index_of(&self, offset_s: f64) -> usize {
        (offset_s / self.window_s) as usize
    }

    /// Closes every window before `index`, charging the CPU spent since the
    /// last close to the window that was open (windows skipped entirely —
    /// a stall longer than a window — are charged nothing).
    fn advance_to(&mut self, index: usize) {
        if index > self.open {
            let now = sys::process_cpu_seconds();
            if let Some(window) = self.windows.get_mut(self.open) {
                window.cpu_s += now - self.cpu_at_open;
            }
            self.cpu_at_open = now;
            self.open = index;
        }
    }

    /// Records one correct operation that finished `offset_s` into the
    /// phase; anything finishing after the last window is in no full window.
    pub fn record(&mut self, offset_s: f64, ms: f64, within_limit: bool, counted: bool) {
        let index = self.index_of(offset_s);
        self.advance_to(index);
        if let Some(window) = self.windows.get_mut(index) {
            window.lat_ms.push(ms);
            window.within_limit += u64::from(within_limit);
            window.counted += u64::from(counted);
        }
    }

    pub fn finish(mut self, phase: &mut Phase) {
        self.advance_to(WINDOWS);
        phase.windows = self.windows;
        phase.window_s = self.window_s;
    }
}

/// Runs `op` back to back from one caller — a closed loop: the next
/// operation starts only when the previous one has returned and been
/// verified. `op` receives the operation index.
pub fn closed_loop(budget: Budget, limit_ms: f64, mut op: impl FnMut(u64) -> OpResult) -> Phase {
    let mut phase = Phase::default();
    let mut windows = match budget {
        Budget::Seconds(s) => Some(Windows::new(s)),
        Budget::Ops(_) => None,
    };
    let cpu_before = sys::process_cpu_seconds();
    let started = Instant::now();
    loop {
        let done = match budget {
            Budget::Seconds(s) => started.elapsed().as_secs_f64() >= s,
            Budget::Ops(n) => phase.attempted >= n,
        };
        if done {
            break;
        }
        let result = op(phase.attempted);
        phase.attempted += 1;
        if !result.ok {
            phase.failed += 1;
            continue;
        }
        phase.lat_ms.push(result.ms);
        let within_limit = result.ms <= limit_ms;
        phase.within_limit += u64::from(within_limit);
        if let Some(windows) = windows.as_mut() {
            windows.record(started.elapsed().as_secs_f64(), result.ms, within_limit, true);
        }
    }
    phase.wall_s = started.elapsed().as_secs_f64();
    phase.cpu_s = sys::process_cpu_seconds() - cpu_before;
    if let Some(windows) = windows {
        windows.finish(&mut phase);
    }
    phase
}

/// A run the harness refuses to report: the workload is mis-sized for this
/// machine or `--seconds`, so its numbers would not mean what their names
/// say.
#[derive(Debug)]
pub struct Refusal(pub String);

/// The end-to-end metrics of one measured run, in `BENCHMARK.json` order.
#[derive(Clone, Debug)]
pub struct EndToEnd {
    pub attempted: u64,
    pub failed: u64,
    pub samples: usize,
    /// Printed but not a metric: 95th-percentile latency, ms, of the median
    /// window. No estimator kept it within a 25 % bound from run to run on a
    /// shared host (`README.md`, *Noise findings*).
    pub p95_ms: f64,
    pub values: Vec<(&'static str, f64, &'static str)>,
}

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

const fn spec(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricSpec {
    MetricSpec { name, unit, higher_is_better: higher, bound }
}

/// Every end-to-end metric, in reporting order. A bound holds for the metric
/// on every workload, so the noisiest workload sets it: each is above the
/// widest run-to-run quartile spread any workload showed on the 2-core
/// container the benchmark was sized on (`README.md`, *Noise findings*).
pub const END_TO_END: [MetricSpec; 7] = [
    spec("ops_per_s", "1/s", true, 0.25),
    spec("op_ms_p10", "ms", false, 0.25),
    spec("op_ms_p50", "ms", false, 0.25),
    spec("slo_met_share", "share", true, 0.05),
    spec("cpu_ms_per_op", "ms", false, 0.25),
    spec("peak_rss_mib", "MiB", false, 0.15),
    spec("setup_s", "s", false, 0.25),
];

/// Turns a measured phase and the set-up times into the end-to-end metrics;
/// the sizing guard trips when p95 is not backed by enough samples. A run
/// with wrong outputs is always reported (as incorrect), never refused.
///
/// A timing is the value of the run's **best window**: the highest
/// `ops_per_s`, the lowest latency percentile and CPU per operation any of
/// the ten windows saw. A shared host only ever slows a window down, for
/// seconds at a time, so the best window is the one closest to the program's
/// own speed and the statistic that repeats from run to run; a slower
/// program is slower in every window, the best one included.
pub fn end_to_end(phase: &Phase, setup_s: &[f64], config: &RunConfig) -> Result<EndToEnd, Refusal> {
    let lat = sorted(phase.lat_ms.clone());
    let beyond = samples_beyond(lat.len(), 0.95);
    if phase.failed == 0 && beyond < MIN_SAMPLES_BEYOND_P95 {
        config.sizing_guard(format!(
            "only {beyond} samples beyond p95 ({} correct ops); need {MIN_SAMPLES_BEYOND_P95} — \
             run longer (--seconds)",
            lat.len()
        ))?;
    }
    // Per-window statistics; a counted phase (no windows) falls back to
    // the whole phase.
    let busy: Vec<&Window> = phase.windows.iter().filter(|w| !w.lat_ms.is_empty()).collect();
    let over_windows =
        |whole: f64, pick: &dyn Fn(&[f64]) -> f64, per_window: &dyn Fn(&Window) -> f64| {
            if busy.is_empty() {
                whole
            } else {
                pick(&busy.iter().map(|w| per_window(w)).collect::<Vec<f64>>())
            }
        };
    let lowest = |values: &[f64]| values.iter().copied().fold(f64::INFINITY, f64::min);
    let highest = |values: &[f64]| values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let whole_share = phase.within_limit as f64 / phase.attempted.max(1) as f64;
    let window_percentile = |q: f64, pick: &dyn Fn(&[f64]) -> f64| {
        over_windows(percentile(&lat, q), pick, &|w| percentile(&sorted(w.lat_ms.clone()), q))
    };
    let values = vec![
        over_windows(lat.len() as f64 / phase.wall_s, &highest, &|w| {
            w.counted as f64 / phase.window_s
        }),
        window_percentile(0.10, &lowest),
        window_percentile(0.50, &lowest),
        // A share, not a timing: the median window's. A failed operation is
        // in no window and misses any limit.
        if phase.failed > 0 {
            whole_share
        } else {
            over_windows(whole_share, &median, &|w| w.within_limit as f64 / w.lat_ms.len() as f64)
        },
        over_windows(phase.cpu_s * 1e3 / lat.len().max(1) as f64, &lowest, &|w| {
            w.cpu_s * 1e3 / w.lat_ms.len() as f64
        }),
        sys::peak_rss_mib(),
        median(setup_s),
    ];
    Ok(EndToEnd {
        attempted: phase.attempted,
        failed: phase.failed,
        samples: lat.len(),
        p95_ms: window_percentile(0.95, &median),
        values: END_TO_END
            .iter()
            .zip(values)
            .map(|(spec, value)| (spec.name, value, spec.unit))
            .collect(),
    })
}

/// Bitwise equality of two f32 slices (`-0.0 != 0.0`, `NaN == NaN`): the
/// correctness gate compares outputs the way a checksum would, without
/// paying a byte-serial hash over a 1 MiB output on every operation.
pub fn bits_equal(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_repeats_for_a_seed_and_differs_across_seeds() {
        let draw = |seed| {
            let mut rng = SplitMix64::new(seed);
            (0..32).map(|_| rng.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        let mut rng = SplitMix64::new(1);
        for _ in 0..1000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
            assert!(rng.below(12) < 12);
        }
        assert_ne!(sub_seed(1, 0, 0), sub_seed(1, 0, 1));
        assert_ne!(sub_seed(1, 0, 0), sub_seed(1, 1, 0));
        assert_ne!(sub_seed(1, 0, 0), sub_seed(2, 0, 0));
    }

    #[test]
    fn closed_loop_counts_failures_limits_and_windows() {
        let phase = closed_loop(Budget::Ops(100), 5.0, |i| OpResult {
            ms: if i % 10 == 0 { 9.0 } else { 1.0 },
            ok: i % 25 != 1,
        });
        assert_eq!(phase.attempted, 100);
        assert_eq!(phase.failed, 4);
        assert_eq!(phase.lat_ms.len(), 96);
        assert_eq!(phase.within_limit, 86);
        assert!(phase.windows.is_empty());

        let timed = closed_loop(Budget::Seconds(0.05), 5.0, |_| {
            std::thread::sleep(std::time::Duration::from_micros(200));
            OpResult { ms: 0.2, ok: true }
        });
        assert_eq!(timed.windows.len(), WINDOWS);
        assert!(timed.wall_s >= 0.05);
        let in_windows: u64 = timed.windows.iter().map(|w| w.counted).sum();
        assert!(in_windows <= timed.attempted && in_windows + 2 >= timed.attempted);
        assert!(timed.windows.iter().all(|w| w.lat_ms.len() as u64 == w.counted));
        let window_cpu: f64 = timed.windows.iter().map(|w| w.cpu_s).sum();
        assert!(window_cpu >= 0.0 && window_cpu <= timed.cpu_s + 0.011);
    }

    #[test]
    fn end_to_end_refuses_a_thin_tail_and_reports_the_best_window_otherwise() {
        let config = RunConfig { seed: 1, seconds: 20.0, doctor_expected: false, strict: true };
        let thin = Phase { attempted: 100, lat_ms: vec![1.0; 100], ..Phase::default() };
        assert!(end_to_end(&thin, &[1.0], &config).is_err());
        let lenient = RunConfig { strict: false, ..config };
        assert_eq!(end_to_end(&thin, &[1.0], &lenient).expect("only warns").samples, 100);

        // Ten windows of 200 samples each, but for two. Window 4 is a burst:
        // fewer operations, each five times slower and dearer. Window 7 is
        // the quiet one: a tenth more operations, each a tenth faster.
        let windows: Vec<Window> = (0..10)
            .map(|w| {
                let (n, scale, cpu_s, within_limit) = match w {
                    4 => (20, 5.0, 0.5, 3),
                    7 => (220, 0.9, 0.99, 183),
                    _ => (200, 1.0, 1.0, 150), // against a limit of 150 ms
                };
                Window {
                    lat_ms: (1..=n).map(|i| f64::from(i) * scale * 200.0 / f64::from(n)).collect(),
                    counted: n as u64,
                    within_limit,
                    cpu_s,
                }
            })
            .collect();
        let lat_ms: Vec<f64> = windows.iter().flat_map(|w| w.lat_ms.clone()).collect();
        let phase = Phase {
            attempted: lat_ms.len() as u64,
            failed: 0,
            within_limit: 8 * 150 + 183 + 3,
            lat_ms,
            windows,
            window_s: 2.0,
            wall_s: 20.0,
            cpu_s: 9.49,
        };
        let e2e = end_to_end(&phase, &[0.9, 0.5, 0.7], &config).expect("enough samples");
        let get = |name: &str| e2e.values.iter().find(|v| v.0 == name).expect("metric").1;
        // Timings are the quiet window's; the burst window moves nothing.
        assert_eq!(get("ops_per_s"), 110.0);
        assert!((get("op_ms_p10") - 18.0).abs() < 1e-9);
        assert!((get("op_ms_p50") - 90.0).abs() < 1e-9);
        assert_eq!(get("cpu_ms_per_op"), 4.5);
        // The share and the printed p95 are the median window's.
        assert_eq!(get("slo_met_share"), 0.75);
        assert_eq!(e2e.p95_ms, 190.0);
        assert_eq!(get("setup_s"), 0.7);
        assert_eq!(e2e.values.len(), END_TO_END.len());

        // A failed operation is in no window, so the share is the whole phase's.
        let failing = Phase { attempted: 1841, failed: 1, ..phase.clone() };
        let e2e = end_to_end(&failing, &[1.0], &config).expect("enough samples");
        assert_eq!(e2e.values[3], ("slo_met_share", 1386.0 / 1841.0, "share"));

        // Without windows (a counted phase) the whole phase is used.
        let counted = Phase { windows: Vec::new(), ..phase };
        let e2e = end_to_end(&counted, &[1.0], &config).expect("enough samples");
        let get = |name: &str| e2e.values.iter().find(|v| v.0 == name).expect("metric").1;
        assert_eq!(get("ops_per_s"), 1840.0 / 20.0);
        assert_eq!(get("slo_met_share"), 1386.0 / 1840.0);
        assert_eq!(get("cpu_ms_per_op"), 9490.0 / 1840.0);
    }

    #[test]
    fn bits_equal_is_bitwise() {
        assert!(bits_equal(&[1.0, f32::NAN], &[1.0, f32::NAN]));
        assert!(!bits_equal(&[0.0], &[-0.0]));
        assert!(!bits_equal(&[1.0], &[1.0, 2.0]));
    }
}
