//! Between-executions regression detection: the Fig. 1 scenario seen
//! through the baseline-profile comparison. A clean submission's profile
//! is saved; later submissions on the same nodes — some clean, some on a
//! degraded neighbourhood — are compared against it. In-run detection is
//! blind to a *uniform* slowdown (every fragment slows equally, so
//! normalised performance stays 1.0); the cross-run comparison catches
//! exactly that case.

use crate::common::{header, vapro_cf, ExpOpts};
use vapro::harness::run_under_vapro;
use vapro_apps::AppParams;
use vapro_core::BaselineProfile;
use vapro_sim::{NoiseEvent, NoiseKind, NoiseSchedule, SimConfig, TargetSet};

/// Per-submission outcome.
#[derive(Debug, Clone)]
pub struct SubmissionRow {
    /// Submission index.
    pub run: usize,
    /// Was the machine degraded for this submission?
    pub degraded: bool,
    /// In-run detection: computation regions found.
    pub in_run_regions: usize,
    /// Cross-run comparison: overall slowdown vs the baseline.
    pub slowdown: f64,
    /// Regressed states beyond 1.2×.
    pub regressions: usize,
}

/// Run the experiment: one clean baseline, then alternating clean /
/// degraded submissions.
pub fn submissions(opts: &ExpOpts) -> Vec<SubmissionRow> {
    let ranks = opts.resolve_ranks(8, 64);
    let iters = opts.resolve_iters(10);
    let runs = opts.resolve_runs(6);
    let params = AppParams::default().with_iterations(iters);
    let cfg = vapro_cf();

    let run_once = |seed: u64, degraded: bool| {
        let noise = if degraded {
            NoiseSchedule::quiet().with(NoiseEvent::always(
                NoiseKind::MemContention { intensity: 1.5 },
                TargetSet::All,
            ))
        } else {
            NoiseSchedule::quiet()
        };
        run_under_vapro(
            &SimConfig::new(ranks).with_seed(seed).with_noise(noise),
            &cfg,
            |ctx| vapro_apps::npb::cg::run(ctx, &params),
        )
    };

    let baseline_run = run_once(opts.seed, false);
    let baseline = BaselineProfile::build(&baseline_run.stgs, &cfg);

    (0..runs)
        .map(|run| {
            let degraded = run % 2 == 1;
            let r = run_once(opts.seed + 100 + run as u64, degraded);
            let cmp = baseline.compare(&r.stgs, &cfg);
            SubmissionRow {
                run,
                degraded,
                in_run_regions: r.detection.comp_regions.len(),
                slowdown: cmp.overall_slowdown(),
                regressions: cmp.regressions(1.2).len(),
            }
        })
        .collect()
}

/// Run the experiment and format the report.
pub fn run(opts: &ExpOpts) -> String {
    let rows = submissions(opts);
    let mut out = header(
        "Between-executions regression detection",
        "Baseline-profile comparison over repeated CG submissions (the Fig. 1 scenario)",
    );
    out.push_str("run,degraded,in_run_regions,cross_run_slowdown,regressed_states\n");
    for r in &rows {
        out.push_str(&format!(
            "{},{},{},{:.3},{}\n",
            r.run, r.degraded, r.in_run_regions, r.slowdown, r.regressions
        ));
    }
    out.push_str(
        "\n(uniform machine-wide slowdowns are invisible to in-run detection — every\n\
         fragment slows equally — but the cross-run comparison flags them)\n",
    );
    out
}

// ---------------------------------------------------------------------
// Harness-throughput regression gate: the same idea applied to the tool
// itself. The `perf` driver records one `BENCH_*.json` per harness; a
// later run is compared against the previous file and any gated metric
// that dropped beyond what the measured noise can explain is reported.
// Each timed metric carries its relative MAD (see `crate::stats`); the
// gate's tolerance is the fixed floor below, widened on noisy metrics so
// that a drop inside the host's own jitter band never warns — and a real
// regression on a quiet metric still does.

use crate::stats::{self, variance_tolerance, TrendPoint};

/// Relative throughput drop beyond which a warning is emitted on a
/// noise-free metric (20 %) — the floor of the variance-aware tolerance.
pub const PERF_REGRESSION_TOLERANCE: f64 = 0.20;

/// One higher-is-better number the cross-run gate compares.
#[derive(Debug)]
pub struct GatedMetric {
    /// What the warning line calls it.
    pub name: &'static str,
    /// The measured value (a median-derived rate, or an exact ratio).
    pub value: f64,
    /// Printed after the value: `"/s"` for rates, `"x"` for ratios.
    pub unit: &'static str,
    /// Relative MAD of the timing behind `value`; 0 for exact ratios.
    pub noise_frac: f64,
    /// The hardware the value depends on, `[threads, shards]`, zero
    /// where it does not matter. A metric is gated only between runs
    /// whose `env` match: a 1-thread runner is not slower *code* than an
    /// 8-thread one, and "4 shards" and "8 shards" are different
    /// benchmarks.
    pub env: [usize; 2],
}

impl GatedMetric {
    /// A single-threaded rate: gated between any two runs.
    pub fn rate(name: &'static str, value: f64, noise_frac: f64) -> GatedMetric {
        GatedMetric { name, value, unit: "/s", noise_frac, env: [0, 0] }
    }

    /// Gate only between runs on the same `threads` (and `shards`).
    pub fn on(mut self, threads: usize, shards: usize) -> GatedMetric {
        self.env = [threads, shards];
        self
    }
}

/// What the one `perf` driver needs from a harness report: where it is
/// written, what the cross-run gate compares, which acceptance targets
/// fail the run outright, and the headline numbers of its trend point.
/// The serialised field names of every implementor are the
/// `BENCH_*.json` schema.
pub trait PerfReport: serde::Serialize + serde::Deserialize {
    /// The file the driver writes, and loads the previous run from.
    const FILE: &'static str;
    /// The metrics gated against the previous run.
    fn gated(&self) -> Vec<GatedMetric>;
    /// Acceptance targets this run missed, one line each. Enforced on
    /// optimised builds only — debug-mode ratios are not meaningful.
    fn hard_failures(&self) -> Vec<String>;
    /// This run's headline numbers, stamped with its thread count.
    fn trend_point(&self) -> TrendPoint;
    /// The trend history carried from file to file.
    fn history_mut(&mut self) -> &mut Vec<TrendPoint>;
    /// Human summary.
    fn summary(&self) -> String;
}

/// Load the previous harness report of type `T`, if one exists at `path`
/// and parses under the current struct. Anything else — no file, other
/// JSON, a report written by an older layout — is "no baseline": the run
/// seeds a fresh one instead of failing.
pub fn load_previous<T: serde::Deserialize>(path: &str) -> Option<T> {
    serde_json::from_str(&std::fs::read_to_string(path).ok()?).ok()
}

/// Compare a fresh report against the previous one: one warning line
/// per gated metric that dropped more than its variance-aware tolerance
/// (see [`crate::stats::variance_tolerance`] — the floor is
/// [`PERF_REGRESSION_TOLERANCE`], widened by the measured noise of the
/// two runs being compared). Metrics measured on different hardware
/// (see [`GatedMetric::env`]) are skipped rather than flagged. Empty
/// means no regression.
pub fn regression_warnings<R: PerfReport>(previous: &R, current: &R) -> Vec<String> {
    let show = |v: f64| if v >= 100.0 { format!("{v:.0}") } else { format!("{v:.1}") };
    let mut warnings = Vec::new();
    for (prev, cur) in previous.gated().iter().zip(current.gated()) {
        let tolerance = variance_tolerance(&[prev.noise_frac, cur.noise_frac]);
        if prev.env == cur.env && prev.value > 0.0 && cur.value < prev.value * (1.0 - tolerance) {
            warnings.push(format!(
                "{} regressed {:.0}%: {}{u} vs previous {}{u} (tolerance {:.0}%)",
                cur.name,
                (1.0 - cur.value / prev.value) * 100.0,
                show(cur.value),
                show(prev.value),
                tolerance * 100.0,
                u = cur.unit,
            ));
        }
    }
    warnings
}

/// The part of a harness run every report shares: print the summary,
/// enforce the acceptance targets, warn on regressions against the
/// previous file at `out`, carry its trend history forward, and write
/// the fresh report. `Err` is the failure line; nothing is written then.
pub fn finish_run<R: PerfReport>(mut report: R, out: &str) -> Result<(), String> {
    print!("{}", report.summary());
    if !cfg!(debug_assertions) {
        let failures = report.hard_failures();
        if !failures.is_empty() {
            return Err(failures.join("\nFAIL: "));
        }
    }
    let previous = load_previous::<R>(out);
    if let Some(previous) = &previous {
        let warnings = regression_warnings(previous, &report);
        if warnings.is_empty() {
            println!("no throughput regression vs previous {out}");
        }
        for w in &warnings {
            eprintln!("WARNING: {w}");
        }
    }
    let carried = previous.map(|mut p| std::mem::take(p.history_mut()));
    *report.history_mut() = stats::extend_history(carried.as_deref(), report.trend_point());
    let json = serde_json::to_string(&report).map_err(|e| format!("cannot serialise {out}: {e}"))?;
    std::fs::write(out, json).map_err(|e| format!("cannot write {out}: {e}"))?;
    println!("wrote {out}");
    Ok(())
}

/// How far a fan-out may trail its sequential twin at one thread.
pub const ONE_THREAD_FANOUT_FLOOR: f64 = 0.95;

/// With one hardware thread the pool has no workers and every fan-out
/// is a plain loop on the caller, so the "parallel" throughput may fall
/// short of the sequential one by measurement noise only. (With the
/// spawn-per-call executor it was 9.6M against 13.6M fragments/s and
/// 77k against 121k regions/s.) Each side is `(median per second, MAD
/// noise fraction)` from [`crate::stats::sample_pair_ns`]'s alternated
/// samples, and gets the benefit of its own measured noise before the
/// floor applies. Returns the failure line, if any; at more than one
/// thread the pair is a speedup, not a gate.
pub fn one_thread_fanout_failure(
    metric: &str,
    threads: usize,
    fanout: (f64, f64),
    sequential: (f64, f64),
) -> Option<String> {
    let best_fanout = fanout.0 * (1.0 + fanout.1);
    let worst_sequential = sequential.0 * (1.0 - sequential.1);
    (threads == 1 && best_fanout < ONE_THREAD_FANOUT_FLOOR * worst_sequential).then(|| {
        format!(
            "{metric} at one thread runs at {:.2} of its sequential twin \
             ({:.0}/s ±{:.0}% vs {:.0}/s ±{:.0}%, floor {ONE_THREAD_FANOUT_FLOOR})",
            fanout.0 / sequential.0,
            fanout.0,
            fanout.1 * 100.0,
            sequential.0,
            sequential.1 * 100.0,
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnose::DiagnosePerf;
    use crate::fleet::FleetPerf;
    use crate::ingest::IngestPerf;
    use crate::perf::DetectPerf;

    #[test]
    fn uniform_degradation_is_caught_cross_run_only() {
        let opts = ExpOpts {
            ranks: Some(4),
            iterations: Some(8),
            runs: Some(4),
            ..ExpOpts::default()
        };
        let rows = submissions(&opts);
        for r in &rows {
            if r.degraded {
                // In-run detection is blind (uniform slowdown)…
                assert_eq!(r.in_run_regions, 0, "{r:?}");
                // …the baseline comparison is not.
                assert!(r.slowdown > 1.1, "{r:?}");
                assert!(r.regressions > 0, "{r:?}");
            } else {
                assert!((r.slowdown - 1.0).abs() < 0.05, "{r:?}");
                assert_eq!(r.regressions, 0, "{r:?}");
            }
        }
    }

    #[test]
    fn one_thread_fanout_gate_can_fail() {
        // The numbers the spawn-per-call executor produced, at the MAD
        // the harness typically measures.
        let line = one_thread_fanout_failure("parallel detect", 1, (9.6e6, 0.04), (13.6e6, 0.04))
            .expect("a fan-out 30% behind its twin at one thread must fail");
        assert!(line.contains("0.71"), "{line}");
        // 6% behind with 4% noise on each side is within the floor…
        assert!(one_thread_fanout_failure("d", 1, (12.8e6, 0.04), (13.6e6, 0.04)).is_none());
        // …and is not on a quiet machine.
        assert!(one_thread_fanout_failure("d", 1, (12.8e6, 0.0), (13.6e6, 0.0)).is_some());
        // At two threads the same pair is a (bad) speedup, not this gate.
        assert!(one_thread_fanout_failure("d", 2, (9.6e6, 0.0), (13.6e6, 0.0)).is_none());
    }

    fn perf_fixture(seq: f64, par: f64, cluster: f64, threads: usize) -> DetectPerf {
        DetectPerf {
            bench: "detect".to_string(),
            threads,
            ranks: 4,
            fragments: 8000,
            locations: 64,
            samples: 30,
            seq_ns: 1.0,
            par_ns: 1.0,
            seq_fragments_per_sec: seq,
            seq_noise_frac: 0.0,
            par_fragments_per_sec: par,
            par_noise_frac: 0.0,
            speedup: (threads > 1).then_some(seq / par),
            cluster_vectors: 100_000,
            cluster_vectors_per_sec: cluster,
            cluster_noise_frac: 0.0,
            unpruned_cluster_vectors_per_sec: cluster / 2.0,
            pruned_speedup: 2.0,
            history: Vec::new(),
        }
    }

    fn ingest_fixture(encode: f64, decode: f64, ratio: f64, e2e: f64, threads: usize) -> IngestPerf {
        IngestPerf {
            bench: "ingest".to_string(),
            threads,
            ranks: 4,
            fragments: 8000,
            batches: 48,
            windows: 24,
            binary_bytes: 300_000,
            json_bytes: (300_000.0 * ratio) as usize,
            samples: 30,
            binary_bytes_per_fragment: 37.5,
            json_bytes_per_fragment: 37.5 * ratio,
            size_ratio: ratio,
            encode_fragments_per_sec: encode,
            encode_noise_frac: 0.0,
            decode_fragments_per_sec: decode,
            decode_noise_frac: 0.0,
            json_encode_fragments_per_sec: encode / 10.0,
            json_decode_fragments_per_sec: decode / 8.0,
            decode_speedup: 8.0,
            ingest_fragments_per_sec: e2e,
            ingest_noise_frac: 0.0,
            long_stream_periods: 101,
            long_stream_windows: 202,
            steady_state_flatness: 1.02,
            long_stream_noise_frac: 0.0,
            arena_high_water_bytes: 40_000,
            arena_plateau_ratio: 1.05,
            history: Vec::new(),
        }
    }

    fn diagnose_fixture(naive: f64, batch_seq: f64, batch: f64, threads: usize) -> DiagnosePerf {
        DiagnosePerf {
            bench: "diagnose".to_string(),
            threads,
            ranks: 4,
            fragments: 1600,
            locations: 36,
            regions: 34,
            diagnosed: 20,
            samples: 30,
            naive_ns: 1.0,
            batch_seq_ns: 1.0,
            batch_ns: 1.0,
            naive_regions_per_sec: naive,
            naive_noise_frac: 0.0,
            batch_seq_regions_per_sec: batch_seq,
            batch_seq_noise_frac: 0.0,
            batch_regions_per_sec: batch,
            batch_noise_frac: 0.0,
            batch_speedup: batch_seq / naive,
            parallel_speedup: (threads > 1).then_some(batch / batch_seq),
            naive_fragment_clones: 50_000,
            batch_fragment_clones: 0,
            history: Vec::new(),
        }
    }

    fn fleet_fixture(one: f64, n: f64, solo: f64, threads: usize) -> FleetPerf {
        FleetPerf {
            bench: "fleet".to_string(),
            threads,
            shards: 4,
            jobs: 8,
            ranks_per_job: 2,
            fragments: 19_200,
            frames: 160,
            windows: 80,
            samples: 30,
            fleet_1shard_fragments_per_sec: one,
            fleet_1shard_noise_frac: 0.0,
            fleet_nshard_fragments_per_sec: n,
            fleet_nshard_noise_frac: 0.0,
            shard_speedup: (threads >= 4).then_some(n / one),
            bare_fragments_per_sec: solo * 1.02,
            bare_noise_frac: 0.0,
            single_job_fragments_per_sec: solo,
            single_job_noise_frac: 0.0,
            fleet_overhead_frac: 1.0 - 1.0 / 1.02,
            arena_high_water_bytes: 30_000,
            steady_state_flatness: 1.01,
            history: Vec::new(),
        }
    }

    /// `report` with some fields overridden.
    fn with<R>(mut report: R, set: impl FnOnce(&mut R)) -> R {
        set(&mut report);
        report
    }

    #[test]
    fn regression_gate_table() {
        use super::regression_warnings as w;
        let detect = perf_fixture(1_000_000.0, 2_000_000.0, 5_000_000.0, 4);
        let detect_noisy = with(detect.clone(), |p| p.seq_noise_frac = 0.10);
        let seq_30_down = perf_fixture(700_000.0, 2_000_000.0, 5_000_000.0, 4);
        let seq_30_down_noisy = with(seq_30_down.clone(), |p| p.seq_noise_frac = 0.10);
        let detect8 = perf_fixture(1_000_000.0, 4_000_000.0, 5_000_000.0, 8);
        let ingest = ingest_fixture(9e6, 8e6, 6.0, 2e6, 8);
        let diagnose = diagnose_fixture(1_000.0, 20_000.0, 60_000.0, 8);
        let fleet = fleet_fixture(1e6, 2.2e6, 9e5, 8);
        let fleet_collapsed = fleet_fixture(1e6, 1e6, 9e5, 8);
        let fleet_8_shards = with(fleet_collapsed.clone(), |p| p.shards = 8);

        // (case, warnings, the metric each expected warning names, in order)
        let table: Vec<(&str, Vec<String>, &[&str])> = vec![
            // The tolerance floor: 10 % down is silent, 30 % down warns,
            // metric by metric.
            (
                "detect: 10% slower everywhere",
                w(&detect, &perf_fixture(900_000.0, 1_900_000.0, 4_600_000.0, 4)),
                &[],
            ),
            (
                "detect: sequential and clustering 30% down",
                w(&detect, &perf_fixture(700_000.0, 1_900_000.0, 3_400_000.0, 4)),
                &["sequential detect throughput", "clustering throughput"],
            ),
            // Variance-aware tolerance: a 30 % drop on a quiet metric
            // warns; the same drop is silent when either run measured
            // 10 % relative MAD on that metric (4 x 0.10 = 40 %), a
            // collapse beyond even the widened band still warns, and
            // noise on one metric does not loosen the others.
            ("detect: quiet 30% drop", w(&detect, &seq_30_down), &["sequential detect throughput"]),
            ("detect: previous run noisy", w(&detect_noisy, &seq_30_down), &[]),
            ("detect: current run noisy", w(&detect, &seq_30_down_noisy), &[]),
            (
                "detect: collapse beyond the widened band",
                w(&detect_noisy, &perf_fixture(400_000.0, 2_000_000.0, 5_000_000.0, 4)),
                &["tolerance 40%"],
            ),
            (
                "detect: noise elsewhere leaves clustering at the floor",
                w(&detect_noisy, &perf_fixture(1_000_000.0, 2_000_000.0, 3_400_000.0, 4)),
                &["clustering throughput"],
            ),
            // Thread-count skips: an 8-thread baseline replayed on a
            // 1-core runner collapses the parallel rate for environmental
            // reasons; with equal thread counts the same drop gates.
            (
                "detect: fan-out collapse on a smaller runner",
                w(&detect8, &perf_fixture(1_000_000.0, 1_000_000.0, 5_000_000.0, 1)),
                &[],
            ),
            (
                "detect: fan-out collapse on equal threads",
                w(&detect8, &perf_fixture(1_000_000.0, 1_000_000.0, 5_000_000.0, 8)),
                &["parallel detect throughput"],
            ),
            ("ingest: within tolerance", w(&ingest, &ingest_fixture(8e6, 7e6, 5.5, 1.8e6, 8)), &[]),
            (
                "ingest: decode 40% down and the size ratio halved",
                w(&ingest, &ingest_fixture(9e6, 4.8e6, 3.0, 2e6, 8)),
                &["wire decode throughput", "size advantage"],
            ),
            (
                "ingest: end-to-end halved on equal threads",
                w(&ingest, &ingest_fixture(9e6, 8e6, 6.0, 1e6, 8)),
                &["end-to-end ingest throughput"],
            ),
            (
                "ingest: end-to-end halved on another runner",
                w(&ingest, &ingest_fixture(9e6, 8e6, 6.0, 1e6, 2)),
                &[],
            ),
            (
                "diagnose: within tolerance",
                w(&diagnose, &diagnose_fixture(900.0, 17_000.0, 55_000.0, 8)),
                &[],
            ),
            (
                "diagnose: sequential batch 40% down",
                w(&diagnose, &diagnose_fixture(1_000.0, 12_000.0, 60_000.0, 8)),
                &["batched diagnosis throughput"],
            ),
            (
                "diagnose: rayon batch collapse on a smaller runner",
                w(&diagnose, &diagnose_fixture(1_000.0, 20_000.0, 20_000.0, 1)),
                &[],
            ),
            (
                "diagnose: rayon batch collapse on equal threads",
                w(&diagnose, &diagnose_fixture(1_000.0, 20_000.0, 20_000.0, 8)),
                &["parallel batched diagnosis"],
            ),
            ("fleet: within tolerance", w(&fleet, &fleet_fixture(9e5, 2e6, 8.5e5, 8)), &[]),
            ("fleet: a report against itself", w(&fleet, &fleet), &[]),
            (
                "fleet: single-shard aggregate 40% down",
                w(&fleet, &fleet_fixture(6e5, 2.2e6, 9e5, 8)),
                &["fleet 1-shard aggregate"],
            ),
            (
                "fleet: sharded collapse on a smaller runner",
                w(&fleet, &fleet_fixture(1e6, 1e6, 9e5, 1)),
                &[],
            ),
            (
                "fleet: sharded collapse on equal threads",
                w(&fleet, &fleet_collapsed),
                &["fleet sharded aggregate"],
            ),
            // Shard-count skip: a different shard count is a different
            // benchmark.
            ("fleet: sharded collapse at another shard count", w(&fleet, &fleet_8_shards), &[]),
        ];
        for (case, warnings, expected) in table {
            assert_eq!(warnings.len(), expected.len(), "{case}: {warnings:?}");
            for (warning, metric) in warnings.iter().zip(expected) {
                assert!(warning.contains(metric), "{case}: {warning:?} does not name {metric:?}");
            }
        }
    }

    #[test]
    fn hard_failures_name_each_missed_target() {
        // The one-thread fan-out floor reaches the driver through the
        // report: the spawn-per-call executor's numbers fail, a healthy
        // pair and a multi-thread runner do not.
        let slow_fanout = perf_fixture(13.6e6, 9.6e6, 5e6, 1);
        assert_eq!(slow_fanout.hard_failures().len(), 1, "{:?}", slow_fanout.hard_failures());
        assert!(perf_fixture(13.6e6, 13.5e6, 5e6, 1).hard_failures().is_empty());
        assert!(perf_fixture(13.6e6, 9.6e6, 5e6, 2).hard_failures().is_empty());
        assert!(ingest_fixture(9e6, 8e6, 6.0, 2e6, 8).hard_failures().is_empty());
        let bloated = ingest_fixture(9e6, 8e6, 3.0, 2e6, 8);
        assert!(bloated.hard_failures()[0].contains("smaller than JSON"));
        let growing = with(ingest_fixture(9e6, 8e6, 6.0, 2e6, 8), |p| {
            p.steady_state_flatness = 1.5;
            p.arena_plateau_ratio = 2.0;
        });
        assert_eq!(growing.hard_failures().len(), 2, "{:?}", growing.hard_failures());
        assert!(diagnose_fixture(1_000.0, 20_000.0, 60_000.0, 8).hard_failures().is_empty());
        let cloning = with(diagnose_fixture(1_000.0, 4_000.0, 4_000.0, 8), |p| {
            p.batch_fragment_clones = 3;
        });
        assert_eq!(cloning.hard_failures().len(), 2, "{:?}", cloning.hard_failures());
        assert!(fleet_fixture(1e6, 2.2e6, 9e5, 8).hard_failures().is_empty());
        let unscaled = fleet_fixture(1e6, 1.2e6, 9e5, 8);
        assert!(unscaled.hard_failures()[0].contains("shards only"));
        // Fewer threads than shards: the scaling gate is skipped.
        assert!(fleet_fixture(1e6, 1.2e6, 9e5, 1).hard_failures().is_empty());
    }

    #[test]
    fn previous_reports_load_and_anything_else_is_no_baseline() {
        // A missing baseline seeds cleanly: the very first run must not
        // fail for lack of a BENCH file.
        assert!(load_previous::<FleetPerf>("/nonexistent/BENCH_fleet.json").is_none());
        let dir = std::env::temp_dir().join("vapro_bench_gate_test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = |name: &str| dir.join(name).to_str().expect("utf8 path").to_string();
        // Unreadable garbage also seeds cleanly instead of crashing…
        std::fs::write(path("garbage.json"), "{not json").expect("writes");
        assert!(load_previous::<FleetPerf>(&path("garbage.json")).is_none());

        let detect = perf_fixture(1.0, 2.0, 3.0, 4);
        let ingest = ingest_fixture(9e6, 8e6, 6.0, 2e6, 4);
        let diagnose = diagnose_fixture(1.0, 2.0, 3.0, 4);
        let fleet = fleet_fixture(1e6, 2.2e6, 9e5, 8);
        let write = |name: &str, json: String| std::fs::write(path(name), json).expect("writes");
        write("detect.json", serde_json::to_string(&detect).expect("serialises"));
        write("ingest.json", serde_json::to_string(&ingest).expect("serialises"));
        write("diagnose.json", serde_json::to_string(&diagnose).expect("serialises"));
        write("fleet.json", serde_json::to_string(&fleet).expect("serialises"));
        assert_eq!(load_previous::<DetectPerf>(&path("detect.json")), Some(detect));
        assert_eq!(load_previous::<IngestPerf>(&path("ingest.json")), Some(ingest));
        assert_eq!(load_previous::<DiagnosePerf>(&path("diagnose.json")), Some(diagnose));
        assert_eq!(load_previous::<FleetPerf>(&path("fleet.json")), Some(fleet.clone()));
        // …as does a report of another layout (here: another harness's).
        assert!(load_previous::<FleetPerf>(&path("detect.json")).is_none());
    }
}
