//! Fleet ingest-plane throughput harness: the numbers behind
//! `BENCH_fleet.json`.
//!
//! Measures the sharded multi-tenant plane ([`FleetIngestor`]) over a
//! synthetic fleet of jobs, each a multi-rank run shipped as periodic
//! frames:
//!
//! * aggregate ingest throughput at 1 shard vs N shards, in
//!   fragments/second — the CI gate requires ≥1.5× at 4 shards on a
//!   multi-core runner;
//! * the fleet plane's single-job overhead against a bare
//!   [`WindowedIngestor`] fed the same frames, as a fraction (target
//!   ≤ 10 % on release builds);
//! * a bit-identity check before any timing: the single-job fleet output
//!   must match the bare ingestor window for window.
//!
//! Every timed metric follows the [`crate::stats`] methodology: warmup,
//! ≥30 samples, median + MAD. The shard comparison and the overhead
//! comparison both run as interleaved back-to-back pairs so machine
//! noise cannot masquerade as a (or hide a real) difference — the same
//! discipline as the seq/par pairs of the detection harness.

use crate::perf::detected_threads;
use crate::regression::{GatedMetric, PerfReport};
use crate::stats::{self, TrendPoint};
use serde::{Deserialize, Serialize};
use vapro_core::detect::window::Window;
use vapro_core::wire::FragmentBatch;
use vapro_core::{FleetConfig, FleetIngestor, Stg, VaproConfig, WindowedIngestor};
use vapro_sim::VirtualTime;
use vapro_vopr::plan::{reports_identical, synthetic_stgs};

/// One harness run, serialised to `BENCH_fleet.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetPerf {
    /// Harness identifier (always `"fleet"`).
    pub bench: String,
    /// Detected hardware threads on the runner.
    pub threads: usize,
    /// Shards in the N-shard measurement (the 1-shard side is fixed).
    pub shards: usize,
    /// Concurrent jobs in the synthetic fleet.
    pub jobs: usize,
    /// Ranks per job.
    pub ranks_per_job: usize,
    /// Total fragments across all jobs.
    pub fragments: usize,
    /// Frames shipped per fleet run.
    pub frames: usize,
    /// Windows the N-shard fleet run closed (all jobs).
    pub windows: usize,
    /// Timed samples per metric (after warmup); at least
    /// [`stats::MIN_SAMPLES`].
    pub samples: usize,
    /// Aggregate fleet ingest throughput at 1 shard, fragments/second.
    pub fleet_1shard_fragments_per_sec: f64,
    /// Relative noise of the 1-shard timing (MAD/median).
    pub fleet_1shard_noise_frac: f64,
    /// Aggregate fleet ingest throughput at `shards` shards.
    pub fleet_nshard_fragments_per_sec: f64,
    /// Relative noise of the N-shard timing (MAD/median).
    pub fleet_nshard_noise_frac: f64,
    /// Best pairwise N-shard over 1-shard speedup, from interleaved
    /// back-to-back pairs. `None` when the runner has fewer hardware
    /// threads than shards — shard scaling is not demonstrable there and
    /// recording a meaningless ratio would poison the regression
    /// baseline (same convention as `DetectPerf::speedup`).
    pub shard_speedup: Option<f64>,
    /// Bare [`WindowedIngestor`] throughput over one job's frames.
    pub bare_fragments_per_sec: f64,
    /// Relative noise of the bare timing (MAD/median).
    pub bare_noise_frac: f64,
    /// Single-job fleet throughput over the same frames (1 shard).
    pub single_job_fragments_per_sec: f64,
    /// Relative noise of the single-job fleet timing (MAD/median).
    pub single_job_noise_frac: f64,
    /// Fractional cost of routing one job through the fleet plane
    /// instead of a bare ingestor: the best (smallest) `1 − bare_ns /
    /// fleet_ns` over interleaved back-to-back pairs, **unclamped** — a
    /// negative value means even the friendliest pairing never saw the
    /// bare path win, i.e. the overhead is below the noise floor. The
    /// release-mode acceptance gate requires `< 0.10`.
    pub fleet_overhead_frac: f64,
    /// Peak per-job arena resident bytes across one instrumented
    /// N-shard fleet run (the worst job): with watermark eviction this
    /// stays O(watermark lag + open windows) per job, not O(stream).
    pub arena_high_water_bytes: u64,
    /// Steady-state flatness of the fleet admission path: the median
    /// per-chunk push cost over the last quarter of the instrumented run
    /// divided by the median over the second quarter (the first quarter
    /// is warmup). ≈1.0 when per-frame cost is independent of how much
    /// history the plane has absorbed.
    pub steady_state_flatness: f64,
    /// One headline point per harness run, carried forward from the
    /// previous BENCH file (bounded; see [`stats::MAX_TREND_POINTS`]).
    pub history: Vec<TrendPoint>,
}

/// Latest fragment end across one job's run, ns.
fn t_end_ns(stgs: &[Stg]) -> u64 {
    stgs.iter()
        .flat_map(|s| {
            s.vertices()
                .iter()
                .flat_map(|v| v.fragments.iter())
                .chain(s.edges().iter().flat_map(|e| e.fragments.iter()))
        })
        .map(|f| f.end.ns())
        .max()
        .unwrap_or(0)
}

/// Slice one job's run into per-rank, per-period frames stamped with
/// the job's routing identity, in period-major order (each rank's
/// sequence numbers stay monotonic — the fleet plane preserves
/// per-job arrival order, so this is the order a live client would
/// ship).
fn job_frames(stgs: &[Stg], periods: usize, tenant: u32, job: u32) -> Vec<Vec<u8>> {
    let t_end = t_end_ns(stgs);
    let period_ns = (t_end / periods.max(1) as u64).max(1);
    let mut out = Vec::new();
    let mut start = 0u64;
    let mut period_index = 0u64;
    while start < t_end {
        let period = Window {
            start: VirtualTime::from_ns(start),
            end: VirtualTime::from_ns(start + period_ns),
        };
        for (rank, stg) in stgs.iter().enumerate() {
            out.push(
                FragmentBatch::from_stg_starting_in(stg, rank, period)
                    .with_seq(period_index + 1)
                    .with_job(tenant, job)
                    .encode_v3(),
            );
        }
        start += period_ns;
        period_index += 1;
    }
    out
}

/// Round-robin merge of the per-job frame streams — the arrival order a
/// shared collector port would see with every job reporting on the same
/// cadence. Within each job the per-rank order (and so each rank's
/// sequence numbering) is preserved.
fn interleave(per_job: &[Vec<Vec<u8>>]) -> Vec<&[u8]> {
    let mut out = Vec::with_capacity(per_job.iter().map(Vec::len).sum());
    let longest = per_job.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..longest {
        for frames in per_job {
            if let Some(f) = frames.get(i) {
                out.push(f.as_slice());
            }
        }
    }
    out
}

/// Tenant id a job index reports under (a few tenants sharing the
/// fleet, none of them the unstamped default).
fn tenant_of(job: usize) -> u32 {
    1 + (job as u32 % 3)
}

/// Run the full measurement: `jobs` concurrent jobs of `nranks ×
/// frags_per_rank` fragments over `sites` call sites, each shipped in
/// `periods` reporting periods; the shard comparison is 1 vs `shards`.
/// `reps` requests the timed samples per metric (floored at
/// [`stats::MIN_SAMPLES`], preceded by a warmup phase).
pub fn measure(
    jobs: usize,
    nranks: usize,
    frags_per_rank: usize,
    sites: usize,
    periods: usize,
    shards: usize,
    reps: usize,
) -> FleetPerf {
    let job_stgs: Vec<Vec<Stg>> = (0..jobs)
        .map(|j| synthetic_stgs(nranks, frags_per_rank, sites, 0xF1EE7 + j as u64))
        .collect();
    let fragments: usize =
        job_stgs.iter().flat_map(|stgs| stgs.iter().map(Stg::total_fragments)).sum();
    let per_job: Vec<Vec<Vec<u8>>> = job_stgs
        .iter()
        .enumerate()
        .map(|(j, stgs)| job_frames(stgs, periods, tenant_of(j), j as u32))
        .collect();
    let frames = interleave(&per_job);
    let cfg = VaproConfig {
        report_period: VirtualTime::from_ns((t_end_ns(&job_stgs[0]) / periods.max(1) as u64).max(1)),
        ..VaproConfig::default()
    };
    let fleet_cfg = |nshards: usize| FleetConfig {
        shards: nshards,
        default_nranks: nranks,
        bins_per_window: 16,
        vapro: cfg.clone(),
        queue_capacity_frames: 16,
        default_tenant_budget_bytes: u64::MAX,
    };
    let new_fleet = |nshards: usize| {
        let mut fleet = FleetIngestor::new(fleet_cfg(nshards));
        for j in 0..jobs {
            fleet.register_tenant(tenant_of(j), u64::MAX);
        }
        fleet
    };

    // The whole-fleet run: every frame admitted, all windows flushed.
    let mut windows = 0usize;
    let run_fleet = |nshards: usize, windows: &mut usize| {
        let mut fleet = new_fleet(nshards);
        let mut closed = 0usize;
        for frame in &frames {
            closed += fleet.push_encoded(frame).expect("own frame admitted").len();
        }
        closed += fleet.finish().len();
        *windows = closed;
        closed
    };

    // Shard scaling, as interleaved back-to-back pairs: each pair sees
    // the same machine state, so a noisy-neighbour burst during one
    // phase cannot masquerade as (or hide) shard-parallel speedup.
    let pairs = reps.max(stats::MIN_SAMPLES);
    for _ in 0..stats::WARMUP_SAMPLES {
        std::hint::black_box(run_fleet(1, &mut windows));
        std::hint::black_box(run_fleet(shards, &mut windows));
    }
    let mut one_times = Vec::with_capacity(pairs);
    let mut n_times = Vec::with_capacity(pairs);
    let mut best_speedup = 0.0f64;
    for _ in 0..pairs {
        let mut w1 = 0usize;
        let one_ns = stats::time_ns(|| run_fleet(1, &mut w1));
        let n_ns = stats::time_ns(|| run_fleet(shards, &mut windows));
        assert_eq!(w1, windows, "shard count changed the windows closed");
        one_times.push(one_ns);
        n_times.push(n_ns);
        best_speedup = best_speedup.max(one_ns / n_ns);
    }
    let one = stats::summarize(&mut one_times);
    let n = stats::summarize(&mut n_times);

    // Single-job overhead vs a bare ingestor, same pairing discipline.
    // Both sides consume job 0's frames; the outputs must be
    // bit-identical before the timing means anything.
    let solo = &per_job[0];
    let bins = fleet_cfg(1).bins_per_window;
    let run_bare = || {
        let mut ingestor = WindowedIngestor::new(nranks, bins, cfg.clone());
        let mut reports = Vec::new();
        for frame in solo {
            reports.extend(ingestor.push_encoded(frame).expect("own frame"));
        }
        reports.extend(ingestor.finish());
        reports
    };
    let run_solo_fleet = || {
        let mut fleet = new_fleet(1);
        let mut reports = Vec::new();
        for frame in solo {
            reports.extend(fleet.push_encoded(frame).expect("own frame admitted"));
        }
        reports.extend(fleet.finish());
        reports.into_iter().map(|w| w.report).collect::<Vec<_>>()
    };
    reports_identical(&run_solo_fleet(), &run_bare())
        .expect("single-job fleet output must be bit-identical to the bare ingestor");
    for _ in 0..stats::WARMUP_SAMPLES {
        std::hint::black_box(run_solo_fleet().len());
        std::hint::black_box(run_bare().len());
    }
    let mut fleet_times = Vec::with_capacity(pairs);
    let mut bare_times = Vec::with_capacity(pairs);
    let mut overhead_frac = f64::INFINITY;
    for _ in 0..pairs {
        let fleet_ns = stats::time_ns(|| run_solo_fleet().len());
        let bare_ns = stats::time_ns(|| run_bare().len());
        fleet_times.push(fleet_ns);
        bare_times.push(bare_ns);
        overhead_frac = overhead_frac.min(1.0 - bare_ns / fleet_ns);
    }
    let solo_fleet = stats::summarize(&mut fleet_times);
    let bare = stats::summarize(&mut bare_times);
    let solo_fragments: usize = job_stgs[0].iter().map(Stg::total_fragments).sum();

    // One instrumented N-shard run for the steady-state metrics: the
    // whole interleaved stream pushed in chronological chunks, each
    // chunk timed, the per-job arena peaks read off the final report.
    let chunk_len = frames.len().div_ceil(40).max(1);
    let mut instrumented = new_fleet(shards);
    let mut per_chunk = Vec::with_capacity(frames.len().div_ceil(chunk_len));
    for chunk in frames.chunks(chunk_len) {
        per_chunk.push(stats::time_ns(|| {
            for frame in chunk {
                std::hint::black_box(
                    instrumented.push_encoded(frame).expect("own frame admitted").len(),
                );
            }
        }));
    }
    let (instrumented_report, _flushed) = instrumented.into_report();
    let arena_high_water_bytes = instrumented_report.arena_high_water_bytes();
    let (steady_state_flatness, _) = stats::steady_state_flatness(&per_chunk);

    let threads = detected_threads();
    let per_sec = |count: usize, ns: f64| count as f64 / (ns / 1e9);
    FleetPerf {
        bench: "fleet".to_string(),
        threads,
        shards,
        jobs,
        ranks_per_job: nranks,
        fragments,
        frames: frames.len(),
        windows,
        samples: one.samples,
        fleet_1shard_fragments_per_sec: per_sec(fragments, one.median_ns),
        fleet_1shard_noise_frac: one.noise_frac(),
        fleet_nshard_fragments_per_sec: per_sec(fragments, n.median_ns),
        fleet_nshard_noise_frac: n.noise_frac(),
        shard_speedup: (threads >= shards).then_some(best_speedup),
        bare_fragments_per_sec: per_sec(solo_fragments, bare.median_ns),
        bare_noise_frac: bare.noise_frac(),
        single_job_fragments_per_sec: per_sec(solo_fragments, solo_fleet.median_ns),
        single_job_noise_frac: solo_fleet.noise_frac(),
        fleet_overhead_frac: overhead_frac,
        arena_high_water_bytes,
        steady_state_flatness,
        history: Vec::new(),
    }
}

impl PerfReport for FleetPerf {
    const FILE: &'static str = "BENCH_fleet.json";

    /// The single-shard aggregate rate and the single-job (fleet and
    /// bare) rates are effectively single-threaded; the N-shard
    /// aggregate rate is only comparable between runs on the same
    /// hardware parallelism that measured the same shard count.
    fn gated(&self) -> Vec<GatedMetric> {
        vec![
            GatedMetric::rate(
                "fleet 1-shard aggregate throughput",
                self.fleet_1shard_fragments_per_sec,
                self.fleet_1shard_noise_frac,
            ),
            GatedMetric::rate(
                "single-job fleet throughput",
                self.single_job_fragments_per_sec,
                self.single_job_noise_frac,
            ),
            GatedMetric::rate(
                "bare single-job ingest throughput",
                self.bare_fragments_per_sec,
                self.bare_noise_frac,
            ),
            GatedMetric::rate(
                "fleet sharded aggregate throughput",
                self.fleet_nshard_fragments_per_sec,
                self.fleet_nshard_noise_frac,
            )
            .on(self.threads, self.shards),
        ]
    }

    /// The fleet-plane targets: single-job overhead < 10 %, and ≥1.5×
    /// aggregate throughput at N shards — `shard_speedup` is `None` on a
    /// runner with fewer threads than shards, where the gate is skipped
    /// rather than failed (the CI bench job runs on 8 cores).
    fn hard_failures(&self) -> Vec<String> {
        let mut failures = Vec::new();
        if let Some(s) = self.shard_speedup.filter(|&s| s < 1.5) {
            failures.push(format!(
                "{} shards only {s:.2}x faster than 1 shard (target >= 1.5x)",
                self.shards
            ));
        }
        if self.fleet_overhead_frac >= 0.10 {
            failures.push(format!(
                "fleet plane costs {:.1}% of bare single-job ingest throughput (target < 10%)",
                self.fleet_overhead_frac * 100.0
            ));
        }
        failures
    }

    fn trend_point(&self) -> TrendPoint {
        stats::trend_point(
            self.threads,
            &[
                ("fleet_1shard_fragments_per_sec", self.fleet_1shard_fragments_per_sec),
                ("fleet_nshard_fragments_per_sec", self.fleet_nshard_fragments_per_sec),
                ("single_job_fragments_per_sec", self.single_job_fragments_per_sec),
                ("fleet_overhead_frac", self.fleet_overhead_frac),
                ("steady_state_flatness", self.steady_state_flatness),
                ("arena_high_water_bytes", self.arena_high_water_bytes as f64),
            ],
        )
    }

    fn history_mut(&mut self) -> &mut Vec<TrendPoint> {
        &mut self.history
    }

    fn summary(&self) -> String {
        let speedup = match self.shard_speedup {
            Some(s) => format!("{s:.2}x (best pair)"),
            None => format!("n/a ({} threads < {} shards)", self.threads, self.shards),
        };
        format!(
            "fleet:  {} jobs x {} ranks / {} fragments / {} frames / {} windows / {} threads / median of {} samples\n\
             1 shard:  {:>10.0} fragments/s aggregate (±{:.1}% MAD)\n\
             {} shards: {:>10.0} fragments/s aggregate (±{:.1}% MAD), shard speedup {}\n\
             solo job: {:>10.0} fragments/s through the fleet vs {:>10.0} fragments/s bare,\n\
                       overhead {:.1}% (best pair, unclamped)\n\
             steady state: worst-job arena high water {} B, admission flatness {:.3}\n",
            self.jobs,
            self.ranks_per_job,
            self.fragments,
            self.frames,
            self.windows,
            self.threads,
            self.samples,
            self.fleet_1shard_fragments_per_sec,
            self.fleet_1shard_noise_frac * 100.0,
            self.shards,
            self.fleet_nshard_fragments_per_sec,
            self.fleet_nshard_noise_frac * 100.0,
            speedup,
            self.single_job_fragments_per_sec,
            self.bare_fragments_per_sec,
            self.fleet_overhead_frac * 100.0,
            self.arena_high_water_bytes,
            self.steady_state_flatness,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_frames_partition_each_job_once() {
        let stgs = synthetic_stgs(3, 200, 8, 7);
        let total: usize = stgs.iter().map(Stg::total_fragments).sum();
        let frames = job_frames(&stgs, 6, 2, 9);
        let shipped: usize = frames
            .iter()
            .map(|f| FragmentBatch::decode(f).expect("own frame").len())
            .sum();
        assert_eq!(shipped, total, "periodic shipping must cover exactly once");
        for f in &frames {
            let b = FragmentBatch::decode(f).expect("own frame");
            assert_eq!((b.tenant_id, b.job_id), (2, 9));
        }
    }

    #[test]
    fn interleave_preserves_per_job_order() {
        let a: Vec<Vec<u8>> = vec![vec![1], vec![2], vec![3]];
        let b: Vec<Vec<u8>> = vec![vec![9]];
        let streams = [a, b];
        let merged = interleave(&streams);
        assert_eq!(merged, vec![&[1u8][..], &[9], &[2], &[3]]);
    }

    #[test]
    fn measure_produces_a_consistent_report() {
        let p = measure(3, 2, 150, 8, 4, 2, 1);
        assert_eq!(p.bench, "fleet");
        assert_eq!(p.jobs, 3);
        assert!(p.fragments >= 3 * 2 * 150);
        assert!(p.windows > 0, "windows: {}", p.windows);
        assert!(p.fleet_1shard_fragments_per_sec > 0.0);
        assert!(p.fleet_nshard_fragments_per_sec > 0.0);
        assert!(p.bare_fragments_per_sec > 0.0);
        assert!(p.single_job_fragments_per_sec > 0.0);
        // The overhead fraction is a ratio of two measured rates; debug
        // builds can't gate the 10 % target but the value must be sane
        // and deliberately NOT clamped at zero.
        assert!(p.fleet_overhead_frac < 1.0, "{}", p.fleet_overhead_frac);
        assert!(p.fleet_overhead_frac.is_finite());
        if let Some(s) = p.shard_speedup {
            assert!(s > 0.0 && s.is_finite(), "speedup {s}");
        }
        assert!(p.samples >= crate::stats::MIN_SAMPLES);
        assert!(p.fleet_nshard_noise_frac.is_finite() && p.fleet_nshard_noise_frac >= 0.0);
        assert!(p.arena_high_water_bytes > 0, "no job registered an arena peak");
        assert!(p.steady_state_flatness.is_finite() && p.steady_state_flatness > 0.0);
    }

    #[test]
    fn report_roundtrips_through_json() {
        let p = measure(2, 2, 80, 4, 3, 2, 1);
        let json = serde_json::to_string(&p).expect("serialisable");
        let back: FleetPerf = serde_json::from_str(&json).expect("parses");
        assert_eq!(p, back);
    }
}
