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
// itself. The `perf` binary records `BENCH_detect.json`; a later run is
// compared against the previous file and any throughput metric that
// dropped beyond what the measured noise can explain is reported. Each
// timed metric carries its relative MAD (see `crate::stats`); the gate's
// tolerance is the fixed floor below, widened on noisy metrics so that
// a drop inside the host's own jitter band never warns — and a real
// regression on a quiet metric still does.

use crate::diagnose::DiagnosePerf;
use crate::fleet::FleetPerf;
use crate::ingest::IngestPerf;
use crate::perf::DetectPerf;
use crate::stats::variance_tolerance;

/// Relative throughput drop beyond which a warning is emitted on a
/// noise-free metric (20 %) — the floor of the variance-aware tolerance.
pub const PERF_REGRESSION_TOLERANCE: f64 = 0.20;

/// Load the previous harness report of type `T`, if one exists at `path`
/// and parses under the current struct. Anything else — no file, other
/// JSON, a report written by an older layout — is "no baseline": the run
/// seeds a fresh one instead of failing.
pub fn load_previous<T: serde::Deserialize>(path: &str) -> Option<T> {
    serde_json::from_str(&std::fs::read_to_string(path).ok()?).ok()
}

/// One throughput comparison: warn when `cur` dropped more than the
/// variance-aware `tolerance` below `prev` (see
/// [`crate::stats::variance_tolerance`] — the floor is
/// [`PERF_REGRESSION_TOLERANCE`], widened by the measured noise of the
/// two runs being compared).
fn check_drop(warnings: &mut Vec<String>, metric: &str, prev: f64, cur: f64, tolerance: f64) {
    if prev > 0.0 && cur < prev * (1.0 - tolerance) {
        warnings.push(format!(
            "{metric} regressed {:.0}%: {cur:.0}/s vs previous {prev:.0}/s (tolerance {:.0}%)",
            (1.0 - cur / prev) * 100.0,
            tolerance * 100.0
        ));
    }
}

/// Parallel throughput is only comparable between runs with the same
/// hardware parallelism: a 1-thread runner is not slower *code* than an
/// 8-thread one. Both BENCH files record `threads`
/// (`std::thread::available_parallelism` at measurement time); when the
/// counts differ the parallel metrics are skipped rather than flagged.
fn threads_comparable(prev: usize, cur: usize) -> bool {
    prev == cur
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

/// Compare a fresh detection report against the previous one. Returns
/// one warning line per throughput metric that regressed by more than
/// [`PERF_REGRESSION_TOLERANCE`]; empty means no regression.
pub fn perf_regression_warnings(previous: &DetectPerf, current: &DetectPerf) -> Vec<String> {
    let mut warnings = Vec::new();
    check_drop(
        &mut warnings,
        "sequential detect throughput",
        previous.seq_fragments_per_sec,
        current.seq_fragments_per_sec,
        variance_tolerance(&[previous.seq_noise_frac, current.seq_noise_frac]),
    );
    check_drop(
        &mut warnings,
        "clustering throughput",
        previous.cluster_vectors_per_sec,
        current.cluster_vectors_per_sec,
        variance_tolerance(&[previous.cluster_noise_frac, current.cluster_noise_frac]),
    );
    if threads_comparable(previous.threads, current.threads) {
        check_drop(
            &mut warnings,
            "parallel detect throughput",
            previous.par_fragments_per_sec,
            current.par_fragments_per_sec,
            variance_tolerance(&[previous.par_noise_frac, current.par_noise_frac]),
        );
    }
    warnings
}

/// Compare a fresh ingest report against the previous one, same
/// tolerance. Codec throughput and the wire format's size advantage are
/// thread-independent and always gate; the end-to-end ingest rate
/// (windows analysed on rayon) only gates between same-parallelism runs.
pub fn ingest_regression_warnings(previous: &IngestPerf, current: &IngestPerf) -> Vec<String> {
    let mut warnings = Vec::new();
    check_drop(
        &mut warnings,
        "wire encode throughput",
        previous.encode_fragments_per_sec,
        current.encode_fragments_per_sec,
        variance_tolerance(&[previous.encode_noise_frac, current.encode_noise_frac]),
    );
    check_drop(
        &mut warnings,
        "wire decode throughput",
        previous.decode_fragments_per_sec,
        current.decode_fragments_per_sec,
        variance_tolerance(&[previous.decode_noise_frac, current.decode_noise_frac]),
    );
    // The size advantage regresses when the ratio *shrinks* — same 20 %
    // tolerance, applied to json-bytes-over-binary-bytes.
    if previous.size_ratio > 0.0
        && current.size_ratio < previous.size_ratio * (1.0 - PERF_REGRESSION_TOLERANCE)
    {
        warnings.push(format!(
            "wire size advantage regressed: {:.1}x smaller than JSON vs previous {:.1}x",
            current.size_ratio, previous.size_ratio
        ));
    }
    if threads_comparable(previous.threads, current.threads) {
        check_drop(
            &mut warnings,
            "end-to-end ingest throughput",
            previous.ingest_fragments_per_sec,
            current.ingest_fragments_per_sec,
            variance_tolerance(&[previous.ingest_noise_frac, current.ingest_noise_frac]),
        );
    }
    warnings
}

/// Compare a fresh diagnosis report against the previous one, same
/// tolerance. The naive baseline and the sequential batch are
/// single-threaded and always gate; the rayon batch only gates between
/// same-parallelism runs.
pub fn diagnose_regression_warnings(
    previous: &DiagnosePerf,
    current: &DiagnosePerf,
) -> Vec<String> {
    let mut warnings = Vec::new();
    check_drop(
        &mut warnings,
        "naive diagnosis throughput",
        previous.naive_regions_per_sec,
        current.naive_regions_per_sec,
        variance_tolerance(&[previous.naive_noise_frac, current.naive_noise_frac]),
    );
    check_drop(
        &mut warnings,
        "batched diagnosis throughput",
        previous.batch_seq_regions_per_sec,
        current.batch_seq_regions_per_sec,
        variance_tolerance(&[previous.batch_seq_noise_frac, current.batch_seq_noise_frac]),
    );
    if threads_comparable(previous.threads, current.threads) {
        check_drop(
            &mut warnings,
            "parallel batched diagnosis throughput",
            previous.batch_regions_per_sec,
            current.batch_regions_per_sec,
            variance_tolerance(&[previous.batch_noise_frac, current.batch_noise_frac]),
        );
    }
    warnings
}

/// Compare a fresh fleet report against the previous one, same
/// tolerance. The single-shard aggregate rate and the single-job
/// (fleet and bare) rates are effectively single-threaded and always
/// gate; the N-shard aggregate rate only gates between runs on the same
/// hardware parallelism — and only when both measured the same shard
/// count, since "4 shards" and "8 shards" are different benchmarks.
pub fn fleet_regression_warnings(previous: &FleetPerf, current: &FleetPerf) -> Vec<String> {
    let mut warnings = Vec::new();
    check_drop(
        &mut warnings,
        "fleet 1-shard aggregate throughput",
        previous.fleet_1shard_fragments_per_sec,
        current.fleet_1shard_fragments_per_sec,
        variance_tolerance(&[previous.fleet_1shard_noise_frac, current.fleet_1shard_noise_frac]),
    );
    check_drop(
        &mut warnings,
        "single-job fleet throughput",
        previous.single_job_fragments_per_sec,
        current.single_job_fragments_per_sec,
        variance_tolerance(&[previous.single_job_noise_frac, current.single_job_noise_frac]),
    );
    check_drop(
        &mut warnings,
        "bare single-job ingest throughput",
        previous.bare_fragments_per_sec,
        current.bare_fragments_per_sec,
        variance_tolerance(&[previous.bare_noise_frac, current.bare_noise_frac]),
    );
    if threads_comparable(previous.threads, current.threads) && previous.shards == current.shards {
        check_drop(
            &mut warnings,
            "fleet sharded aggregate throughput",
            previous.fleet_nshard_fragments_per_sec,
            current.fleet_nshard_fragments_per_sec,
            variance_tolerance(&[
                previous.fleet_nshard_noise_frac,
                current.fleet_nshard_noise_frac,
            ]),
        );
    }
    warnings
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn perf_gate_warns_only_beyond_tolerance() {
        let prev = perf_fixture(1_000_000.0, 2_000_000.0, 5_000_000.0, 4);
        // 10 % slower: within tolerance, silent.
        let ok = perf_fixture(900_000.0, 1_900_000.0, 4_600_000.0, 4);
        assert!(perf_regression_warnings(&prev, &ok).is_empty());
        // 30 % slower sequential + clustering: two warnings.
        let bad = perf_fixture(700_000.0, 1_900_000.0, 3_400_000.0, 4);
        let warnings = perf_regression_warnings(&prev, &bad);
        assert_eq!(warnings.len(), 2, "{warnings:?}");
        assert!(warnings[0].contains("sequential detect throughput"));
        assert!(warnings[1].contains("clustering throughput"));
    }

    #[test]
    fn perf_gate_tolerance_is_variance_aware() {
        // A 30 % drop on a quiet metric warns (floor is 20 %)…
        let prev = perf_fixture(1_000_000.0, 2_000_000.0, 5_000_000.0, 4);
        let bad = perf_fixture(700_000.0, 2_000_000.0, 5_000_000.0, 4);
        assert_eq!(perf_regression_warnings(&prev, &bad).len(), 1);
        // …but the same drop is silent when the previous run measured
        // 10 % relative MAD on that metric (4 x 0.10 = 40 % tolerance):
        // the drop is inside the host's own jitter band.
        let mut noisy_prev = prev.clone();
        noisy_prev.seq_noise_frac = 0.10;
        assert!(perf_regression_warnings(&noisy_prev, &bad).is_empty());
        // The current run's noise widens the gate symmetrically.
        let mut noisy_bad = bad.clone();
        noisy_bad.seq_noise_frac = 0.10;
        assert!(perf_regression_warnings(&prev, &noisy_bad).is_empty());
        // A collapse beyond even the widened band still warns.
        let collapse = perf_fixture(400_000.0, 2_000_000.0, 5_000_000.0, 4);
        let warnings = perf_regression_warnings(&noisy_prev, &collapse);
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("tolerance 40%"), "{warnings:?}");
        // Noise on one metric does not loosen the others: clustering
        // still gates at the floor.
        let cluster_bad = perf_fixture(1_000_000.0, 2_000_000.0, 3_400_000.0, 4);
        assert_eq!(perf_regression_warnings(&noisy_prev, &cluster_bad).len(), 1);
    }

    #[test]
    fn perf_gate_skips_parallel_metrics_across_thread_counts() {
        // An 8-thread baseline replayed on a 1-core runner: the parallel
        // throughput collapse is environmental, not a code regression —
        // no warning. With equal thread counts the same drop gates.
        let prev = perf_fixture(1_000_000.0, 4_000_000.0, 5_000_000.0, 8);
        let single_core = perf_fixture(1_000_000.0, 1_000_000.0, 5_000_000.0, 1);
        assert!(perf_regression_warnings(&prev, &single_core).is_empty());
        let same_threads = perf_fixture(1_000_000.0, 1_000_000.0, 5_000_000.0, 8);
        let warnings = perf_regression_warnings(&prev, &same_threads);
        assert_eq!(warnings.len(), 1);
        assert!(warnings[0].contains("parallel detect throughput"), "{warnings:?}");
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

    #[test]
    fn ingest_gate_covers_codec_size_and_e2e() {
        let prev = ingest_fixture(9e6, 8e6, 6.0, 2e6, 8);
        // Within tolerance on everything: silent.
        assert!(ingest_regression_warnings(&prev, &ingest_fixture(8e6, 7e6, 5.5, 1.8e6, 8))
            .is_empty());
        // Decode 40 % down + ratio collapsed to 3×: two warnings.
        let bad = ingest_fixture(9e6, 4.8e6, 3.0, 2e6, 8);
        let warnings = ingest_regression_warnings(&prev, &bad);
        assert_eq!(warnings.len(), 2, "{warnings:?}");
        assert!(warnings[0].contains("wire decode throughput"));
        assert!(warnings[1].contains("size advantage"));
        // E2E drop gates on same-thread runs only.
        let slow_e2e = ingest_fixture(9e6, 8e6, 6.0, 1e6, 8);
        assert_eq!(ingest_regression_warnings(&prev, &slow_e2e).len(), 1);
        let other_runner = ingest_fixture(9e6, 8e6, 6.0, 1e6, 2);
        assert!(ingest_regression_warnings(&prev, &other_runner).is_empty());
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

    #[test]
    fn diagnose_gate_is_thread_aware() {
        let prev = diagnose_fixture(1_000.0, 20_000.0, 60_000.0, 8);
        // Within tolerance everywhere: silent.
        assert!(
            diagnose_regression_warnings(&prev, &diagnose_fixture(900.0, 17_000.0, 55_000.0, 8))
                .is_empty()
        );
        // Sequential batch 40 % down: gates regardless of threads.
        let bad = diagnose_fixture(1_000.0, 12_000.0, 60_000.0, 8);
        let warnings = diagnose_regression_warnings(&prev, &bad);
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("batched diagnosis throughput"));
        // The rayon batch collapsing on a smaller runner is environmental…
        let other_runner = diagnose_fixture(1_000.0, 20_000.0, 20_000.0, 1);
        assert!(diagnose_regression_warnings(&prev, &other_runner).is_empty());
        // …the same collapse on equal threads is a code regression.
        let same_threads = diagnose_fixture(1_000.0, 20_000.0, 20_000.0, 8);
        let warnings = diagnose_regression_warnings(&prev, &same_threads);
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("parallel batched diagnosis"));
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

    #[test]
    fn fleet_gate_is_thread_and_shard_aware() {
        let prev = fleet_fixture(1e6, 2.2e6, 9e5, 8);
        // Within tolerance everywhere: silent.
        assert!(fleet_regression_warnings(&prev, &fleet_fixture(9e5, 2e6, 8.5e5, 8)).is_empty());
        // Single-shard aggregate 40 % down: gates regardless of threads.
        let bad = fleet_fixture(6e5, 2.2e6, 9e5, 8);
        let warnings = fleet_regression_warnings(&prev, &bad);
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("fleet 1-shard aggregate"));
        // The sharded rate collapsing on a smaller runner is
        // environmental, not a code regression…
        let small_runner = fleet_fixture(1e6, 1e6, 9e5, 1);
        assert!(fleet_regression_warnings(&prev, &small_runner).is_empty());
        // …the same collapse on equal threads gates.
        let same_threads = fleet_fixture(1e6, 1e6, 9e5, 8);
        let warnings = fleet_regression_warnings(&prev, &same_threads);
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("fleet sharded aggregate"), "{warnings:?}");
        // A different shard count is a different benchmark: skipped.
        let mut other_shards = same_threads.clone();
        other_shards.shards = 8;
        assert!(fleet_regression_warnings(&prev, &other_shards).is_empty());
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
        assert!(fleet_regression_warnings(&fleet, &fleet).is_empty());
        // …as does a report of another layout (here: another harness's).
        assert!(load_previous::<FleetPerf>(&path("detect.json")).is_none());
    }
}
