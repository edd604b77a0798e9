//! Robust timing statistics for the throughput harnesses
//! (`vapro-bench-stats`): warmup + many-sample measurement summarised by
//! median and MAD, noise-aware regression tolerances, and the BENCH
//! trend history.
//!
//! The harnesses used to report best-of-3 wall times. On a busy host
//! that is a lottery ticket: two identical builds were observed 40 %
//! apart because one run's "best of 3" landed in a noisy-neighbour
//! burst. Every gated metric now runs a warmup phase (page the code and
//! data in, settle the frequency governor) followed by at least
//! [`MIN_SAMPLES`] timed samples, and reports the **median** — a robust
//! location estimate a few outliers cannot move — together with the
//! **MAD** (median absolute deviation), a robust spread estimate that
//! prices the host's actual noise level into the regression gate:
//! a drop only warns when it exceeds what the measured noise can
//! explain (see [`variance_tolerance`]).
//!
//! Each BENCH_*.json additionally carries a bounded `history` of
//! [`TrendPoint`]s — one per harness run, carried forward from the
//! previous file — so a slow drift that never trips the per-run gate is
//! still visible across runs.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::Instant;

/// Samples the timed phase never goes below, whatever the caller asks
/// for. 30 is the classic small-sample floor: the median of 30 has a
/// well-behaved sampling distribution even on heavy-tailed timing data.
pub const MIN_SAMPLES: usize = 30;

/// Untimed executions before sampling starts: enough to fault the code
/// and data into cache and let the frequency governor settle.
pub const WARMUP_SAMPLES: usize = 3;

/// MAD multiple a regression must exceed before it is believed. The MAD
/// of a normal distribution is ≈ 0.6745 σ, so 4 × MAD ≈ 2.7 σ — a drop
/// inside that band is indistinguishable from the host's measured noise.
pub const NOISE_GATE_MULTIPLIER: f64 = 4.0;

/// Ceiling on the noise-derived tolerance: even on a hopelessly noisy
/// host, a collapse beyond this fraction always warns.
pub const MAX_TOLERANCE: f64 = 0.75;

/// Trend points a BENCH file retains; older points age out first.
pub const MAX_TREND_POINTS: usize = 50;

/// Robust summary of one timed metric's samples.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SampleStats {
    /// Timed samples taken (warmup excluded).
    pub samples: usize,
    /// Median wall time, ns.
    pub median_ns: f64,
    /// Median absolute deviation from the median, ns.
    pub mad_ns: f64,
    /// Fastest sample, ns.
    pub min_ns: f64,
    /// Slowest sample, ns.
    pub max_ns: f64,
}

impl SampleStats {
    /// Relative noise: `mad_ns / median_ns`, the spread the regression
    /// gate prices in. Zero on degenerate (empty / zero-time) inputs.
    pub fn noise_frac(&self) -> f64 {
        if self.median_ns > 0.0 {
            self.mad_ns / self.median_ns
        } else {
            0.0
        }
    }
}

/// Median of a sorted slice (mean of the middle pair on even lengths).
fn median_of_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Summarise raw timing samples: median, MAD, min, max. Sorts in place.
pub fn summarize(times: &mut [f64]) -> SampleStats {
    if times.is_empty() {
        return SampleStats::default();
    }
    times.sort_unstable_by(f64::total_cmp);
    let median_ns = median_of_sorted(times);
    let mut deviations: Vec<f64> = times.iter().map(|t| (t - median_ns).abs()).collect();
    deviations.sort_unstable_by(f64::total_cmp);
    SampleStats {
        samples: times.len(),
        median_ns,
        mad_ns: median_of_sorted(&deviations),
        min_ns: times[0],
        max_ns: times[times.len() - 1],
    }
}

/// One raw wall-time measurement, ns. The building block for callers
/// that need the individual samples (the fleet harness times
/// fleet/bare back-to-back *pairs*, so the pairing — not this function —
/// is the unit the statistics summarise).
pub fn time_ns<R>(f: impl FnOnce() -> R) -> f64 {
    let t = Instant::now();
    std::hint::black_box(f());
    t.elapsed().as_nanos() as f64
}

/// Time `f` with the full methodology: [`WARMUP_SAMPLES`] untimed
/// executions, then `max(samples, MIN_SAMPLES)` timed ones, summarised
/// by median + MAD.
pub fn sample_ns<R>(samples: usize, mut f: impl FnMut() -> R) -> SampleStats {
    let samples = samples.max(MIN_SAMPLES);
    for _ in 0..WARMUP_SAMPLES {
        std::hint::black_box(f());
    }
    let mut times = Vec::with_capacity(samples);
    for _ in 0..samples {
        times.push(time_ns(&mut f));
    }
    summarize(&mut times)
}

/// [`sample_ns`] for two implementations of one job that are reported
/// against each other (a fan-out and its sequential twin): the timed
/// executions alternate, swapping which goes first each round, so both
/// medians summarise the same stretch of wall time. Sampled one after
/// the other instead, a host that changes speed between the two phases
/// (frequency step, a neighbour waking up) reads as a 30 % difference
/// between identical code paths.
pub fn sample_pair_ns<A, B>(
    samples: usize,
    mut f: impl FnMut() -> A,
    mut g: impl FnMut() -> B,
) -> (SampleStats, SampleStats) {
    let samples = samples.max(MIN_SAMPLES);
    for _ in 0..WARMUP_SAMPLES {
        std::hint::black_box(f());
        std::hint::black_box(g());
    }
    let (mut f_times, mut g_times) = (Vec::with_capacity(samples), Vec::with_capacity(samples));
    for round in 0..samples {
        if round % 2 == 0 {
            f_times.push(time_ns(&mut f));
            g_times.push(time_ns(&mut g));
        } else {
            g_times.push(time_ns(&mut g));
            f_times.push(time_ns(&mut f));
        }
    }
    (summarize(&mut f_times), summarize(&mut g_times))
}

/// Steady-state flatness of a chronological per-step timing series:
/// `(median of the last quarter / median of the second quarter, relative
/// MAD of everything past the first quarter)`. The first quarter is
/// treated as warmup (cold caches, first allocations) and excluded from
/// both numbers. A flat series — per-step cost independent of how much
/// history the stream has accumulated — reports ≈1.0; any cost that
/// grows with the stream shows up as a ratio above 1. Series too short
/// to quarter (<8 samples) report `(1.0, 0.0)`.
pub fn steady_state_flatness(per_step_ns: &[f64]) -> (f64, f64) {
    let q = per_step_ns.len() / 4;
    if q < 2 {
        return (1.0, 0.0);
    }
    let early = summarize(&mut per_step_ns[q..2 * q].to_vec());
    let late = summarize(&mut per_step_ns[3 * q..].to_vec());
    let steady = summarize(&mut per_step_ns[q..].to_vec());
    let flatness = if early.median_ns > 0.0 { late.median_ns / early.median_ns } else { 1.0 };
    (flatness, steady.noise_frac())
}

/// The regression tolerance for a metric whose runs measured the given
/// relative noise levels (MAD/median, typically previous and current):
/// the fixed floor [`crate::regression::PERF_REGRESSION_TOLERANCE`]
/// widened to [`NOISE_GATE_MULTIPLIER`] × the worst measured noise,
/// capped at [`MAX_TOLERANCE`]. A report predating the noise fields
/// deserialises them as 0.0 and simply keeps the floor.
pub fn variance_tolerance(noise_fracs: &[f64]) -> f64 {
    let worst = noise_fracs.iter().copied().filter(|f| f.is_finite()).fold(0.0, f64::max);
    (worst * NOISE_GATE_MULTIPLIER).clamp(crate::regression::PERF_REGRESSION_TOLERANCE, MAX_TOLERANCE)
}

/// One harness run's headline numbers, appended to the BENCH file's
/// `history` so cross-run drift stays visible even when every individual
/// step passes the gate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrendPoint {
    /// Seconds since the Unix epoch at measurement time.
    pub at_unix: u64,
    /// Hardware threads on the runner (points from different machines
    /// are not comparable on parallel metrics).
    pub threads: usize,
    /// Headline metric name → value (throughputs in units/second,
    /// ratios dimensionless).
    pub metrics: BTreeMap<String, f64>,
}

/// Build a trend point stamped with the current wall clock.
pub fn trend_point(threads: usize, metrics: &[(&str, f64)]) -> TrendPoint {
    let at_unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    TrendPoint {
        at_unix,
        threads,
        metrics: metrics.iter().map(|&(k, v)| (k.to_string(), v)).collect(),
    }
}

/// The history a fresh report carries: the previous file's points plus
/// this run's, oldest aged out beyond [`MAX_TREND_POINTS`].
pub fn extend_history(previous: Option<&[TrendPoint]>, point: TrendPoint) -> Vec<TrendPoint> {
    let mut history: Vec<TrendPoint> = previous.unwrap_or(&[]).to_vec();
    history.push(point);
    if history.len() > MAX_TREND_POINTS {
        let excess = history.len() - MAX_TREND_POINTS;
        history.drain(..excess);
    }
    history
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarize_is_robust_to_outliers() {
        // 29 quiet samples around 100, one noisy-neighbour burst at 10x.
        let mut times: Vec<f64> = (0..29).map(|i| 100.0 + (i % 5) as f64).collect();
        times.push(1000.0);
        let s = summarize(&mut times);
        assert_eq!(s.samples, 30);
        assert!((s.median_ns - 102.0).abs() < 2.0, "median {}", s.median_ns);
        assert!(s.mad_ns <= 2.0, "mad {}", s.mad_ns);
        assert_eq!(s.min_ns, 100.0);
        assert_eq!(s.max_ns, 1000.0);
        assert!(s.noise_frac() < 0.03);
    }

    #[test]
    fn summarize_handles_degenerate_inputs() {
        assert_eq!(summarize(&mut []), SampleStats::default());
        let one = summarize(&mut [42.0]);
        assert_eq!(one.median_ns, 42.0);
        assert_eq!(one.mad_ns, 0.0);
        assert_eq!(SampleStats::default().noise_frac(), 0.0);
    }

    #[test]
    fn sample_pair_ns_runs_both_sides_equally_often() {
        let (mut f_calls, mut g_calls) = (0usize, 0usize);
        let (f, g) = sample_pair_ns(1, || f_calls += 1, || g_calls += 1);
        assert_eq!(f.samples, MIN_SAMPLES);
        assert_eq!(g.samples, MIN_SAMPLES);
        assert_eq!(f_calls, WARMUP_SAMPLES + MIN_SAMPLES);
        assert_eq!(g_calls, f_calls);
    }

    #[test]
    fn sample_ns_enforces_the_sample_floor() {
        let mut calls = 0usize;
        let s = sample_ns(1, || calls += 1);
        assert_eq!(s.samples, MIN_SAMPLES);
        assert_eq!(calls, MIN_SAMPLES + WARMUP_SAMPLES);
        assert!(s.min_ns <= s.median_ns && s.median_ns <= s.max_ns);
    }

    #[test]
    fn steady_state_flatness_separates_flat_from_growing_series() {
        // Flat series with a noisy warmup quarter: ≈1.0, warmup ignored.
        let mut flat: Vec<f64> = vec![500.0; 10];
        flat.extend(std::iter::repeat_n(100.0, 90));
        let (f, noise) = steady_state_flatness(&flat);
        assert!((f - 1.0).abs() < 1e-9, "flatness {f}");
        assert_eq!(noise, 0.0);
        // Linearly growing cost (an O(history) scan): well above 1.
        let growing: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let (f, _) = steady_state_flatness(&growing);
        assert!(f > 2.0, "growing series reported flat: {f}");
        // Too short to quarter: the neutral report.
        assert_eq!(steady_state_flatness(&[1.0, 2.0, 3.0]), (1.0, 0.0));
    }

    #[test]
    fn variance_tolerance_scales_with_noise_but_stays_bounded() {
        use crate::regression::PERF_REGRESSION_TOLERANCE;
        // Quiet host (or pre-upgrade report with zeroed noise): the floor.
        assert_eq!(variance_tolerance(&[0.0, 0.0]), PERF_REGRESSION_TOLERANCE);
        assert_eq!(variance_tolerance(&[0.01, 0.02]), PERF_REGRESSION_TOLERANCE);
        // Noisy host: the gate widens to 4x the worst measured MAD...
        let t = variance_tolerance(&[0.02, 0.10]);
        assert!((t - 0.40).abs() < 1e-12, "tolerance {t}");
        // ...but a collapse always warns, however noisy the host claims
        // to be, and non-finite noise (corrupt JSON) keeps the floor.
        assert_eq!(variance_tolerance(&[10.0]), MAX_TOLERANCE);
        assert_eq!(variance_tolerance(&[f64::NAN]), PERF_REGRESSION_TOLERANCE);
    }

    #[test]
    fn history_appends_and_ages_out() {
        let p = |at: u64| TrendPoint {
            at_unix: at,
            threads: 1,
            metrics: BTreeMap::new(),
        };
        let fresh = extend_history(None, p(7));
        assert_eq!(fresh.len(), 1);
        assert_eq!(fresh[0].at_unix, 7);

        let full: Vec<TrendPoint> = (0..MAX_TREND_POINTS as u64).map(p).collect();
        let extended = extend_history(Some(&full), p(999));
        assert_eq!(extended.len(), MAX_TREND_POINTS);
        assert_eq!(extended.first().unwrap().at_unix, 1, "oldest point ages out");
        assert_eq!(extended.last().unwrap().at_unix, 999);
    }

    #[test]
    fn trend_point_carries_the_metrics() {
        let t = trend_point(4, &[("a_per_sec", 1.5), ("b_per_sec", 2.5)]);
        assert_eq!(t.threads, 4);
        assert_eq!(t.metrics.len(), 2);
        assert_eq!(t.metrics["a_per_sec"], 1.5);
        let json = serde_json::to_string(&t).expect("serialises");
        let back: TrendPoint = serde_json::from_str(&json).expect("parses");
        assert_eq!(t, back);
    }
}
