//! Long-stream soak of the bounded-memory streaming core: thousands of
//! half-overlapped windows pushed through a [`WindowedIngestor`] and a
//! 3-job [`FleetIngestor`], asserting the three steady-state guarantees
//! at once:
//!
//! * **bit-identity** — the streamed report sequence equals the one-shot
//!   `analyze_windows` (and, for the fleet, each job equals its solo
//!   run), with watermark eviction and the pipelined analysis stage both
//!   armed at their defaults;
//! * **bounded memory** — the arena's high-water bytes shrink when the
//!   same data is sliced into more (smaller) windows, which is only
//!   possible if eviction reclaims closed history instead of retaining
//!   the stream;
//! * **zero fragment clones** — the whole admission→seal→analyze path,
//!   pool workers included, never clones a `Fragment`
//!   (`clone_count::in_process()` sees every thread — which is why the
//!   two tests here take [`ONE_AT_A_TIME`]: each one's one-shot
//!   reference analysis clones fragments, and would be counted against
//!   whichever sibling is streaming at that moment).
//!
//! The small variant runs everywhere; the full ≥1000-window variant is
//! `#[ignore]`d under debug builds (it would take minutes unoptimised)
//! and runs in release via `make soak`, with an internal wall-clock cap
//! so a quadratic regression fails loudly instead of hanging CI.

use std::sync::Mutex;
use std::time::{Duration, Instant};
use vapro_vopr::plan::synthetic_stgs;
use vapro_vopr::reference::{analyze_windows, reports_identical, whole_run_batches};
use vapro_core::detect::window::Window;
use vapro_core::fragment::clone_count;
use vapro_core::wire::FragmentBatch;
use vapro_core::{
    FleetConfig, FleetIngestor, FleetWindow, JobKey, Stg, VaproConfig, WindowedIngestor,
};
use vapro_sim::VirtualTime;

/// Held by each test for its whole body: the clone proof is
/// process-wide, so nothing else in the process may clone meanwhile.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

/// Latest fragment end across the run, ns.
fn t_end_ns(stgs: &[Stg]) -> u64 {
    stgs.iter().flat_map(Stg::fragments).map(|f| f.end.ns()).max().unwrap_or(0)
}

/// Per-rank, per-period frames in period-major shipping order. `job`
/// stamps the fleet routing identity; `None` ships unstamped.
fn periodic_frames(stgs: &[Stg], period_ns: u64, job: Option<(u32, u32)>) -> Vec<Vec<u8>> {
    let t_end = t_end_ns(stgs);
    let mut out = Vec::new();
    let mut start = 0u64;
    let mut period_index = 0u64;
    while start < t_end {
        let period = Window {
            start: VirtualTime::from_ns(start),
            end: VirtualTime::from_ns(start + period_ns),
        };
        for (rank, stg) in stgs.iter().enumerate() {
            let batch = FragmentBatch::from_stg_starting_in(stg, rank, period)
                .with_seq(period_index + 1);
            out.push(match job {
                Some((tenant, job)) => batch.with_job(tenant, job),
                None => batch,
            }
            .encode());
        }
        start += period_ns;
        period_index += 1;
    }
    out
}

/// Stream one run sliced into `periods` reporting periods through a
/// default-configured ingestor (eviction + pipelining armed), assert
/// clone-freedom, internal arena consistency and the arena plateau
/// (end-of-stream high water ≤ 1.5× the midpoint's), and prove the report
/// sequence bit-identical to the one-shot analysis. Returns
/// `(windows closed, arena high-water bytes)`.
fn soak_windowed(periods: usize, frags_per_rank: usize) -> (usize, u64) {
    let nranks = 3;
    let stgs = synthetic_stgs(nranks, frags_per_rank, 16, 0x50AC);
    let period_ns = (t_end_ns(&stgs) / periods as u64).max(1);
    let frames = periodic_frames(&stgs, period_ns, None);
    let cfg = VaproConfig {
        report_period: VirtualTime::from_ns(period_ns),
        ..VaproConfig::default()
    };

    let clones_before = clone_count::in_process();
    let mut ingestor = WindowedIngestor::new(nranks, 16, cfg.clone());
    let mut reports = Vec::new();
    let mut high_water_mid = 0;
    for (i, frame) in frames.iter().enumerate() {
        if i == frames.len() / 2 {
            high_water_mid = ingestor.arena().high_water_bytes();
        }
        reports.extend(ingestor.push_encoded(frame).expect("own frame"));
    }
    let resident = ingestor.arena().resident_bytes();
    let high_water = ingestor.arena().high_water_bytes();
    reports.extend(ingestor.finish());
    let clones = clone_count::in_process() - clones_before;
    assert_eq!(clones, 0, "streaming ingest cloned {clones} fragments");
    assert!(resident <= high_water, "resident {resident} above high water {high_water}");
    assert!(high_water > 0, "no arena peak registered");
    // Eviction holds the arena at a plateau after warm-up: the second
    // half of the stream may not push the peak far past the first's.
    assert!(
        high_water as f64 <= 1.5 * high_water_mid as f64,
        "arena high water grew from {high_water_mid} at the midpoint to {high_water}"
    );

    let reference = analyze_windows(&whole_run_batches(&stgs), nranks, 16, &cfg);
    reports_identical(&reports, &reference).expect("soak stream diverged from one-shot");
    (reports.len(), high_water)
}

/// Stream three jobs round-robin through one fleet plane, assert
/// clone-freedom, and prove every job's fleet output bit-identical to a
/// solo ingestor fed the same frames. Returns total windows closed.
fn soak_fleet(periods: usize, frags_per_rank: usize) -> usize {
    let nranks = 2;
    let jobs: [(u32, u32); 3] = [(1, 0), (2, 1), (3, 2)];
    let job_stgs: Vec<Vec<Stg>> = (0..jobs.len())
        .map(|j| synthetic_stgs(nranks, frags_per_rank, 12, 0xF50AC + j as u64))
        .collect();
    let period_ns = (job_stgs.iter().map(|s| t_end_ns(s)).max().unwrap_or(0)
        / periods.max(1) as u64)
        .max(1);
    let streams: Vec<Vec<Vec<u8>>> = job_stgs
        .iter()
        .zip(jobs)
        .map(|(stgs, (tenant, job))| periodic_frames(stgs, period_ns, Some((tenant, job))))
        .collect();
    let cfg = VaproConfig {
        report_period: VirtualTime::from_ns(period_ns),
        ..VaproConfig::default()
    };

    let clones_before = clone_count::in_process();
    let mut fleet = FleetIngestor::new(FleetConfig {
        shards: 2,
        default_nranks: nranks,
        bins_per_window: 16,
        vapro: cfg.clone(),
    });
    for (tenant, job) in jobs {
        fleet.register_tenant(tenant, u64::MAX);
        fleet.register_job(JobKey { tenant, job }, nranks, tenant);
    }
    let mut windows: Vec<FleetWindow> = Vec::new();
    let longest = streams.iter().map(Vec::len).max().unwrap_or(0);
    for i in 0..longest {
        for stream in &streams {
            if let Some(frame) = stream.get(i) {
                windows.extend(fleet.push_encoded(frame).expect("own frame admitted"));
            }
        }
    }
    let (report, flushed) = fleet.into_report();
    windows.extend(flushed);
    let clones = clone_count::in_process() - clones_before;
    assert_eq!(clones, 0, "fleet ingest cloned {clones} fragments");
    assert!(report.arena_high_water_bytes() > 0, "no job registered an arena peak");

    let total = windows.len();
    let mut by_key: std::collections::BTreeMap<JobKey, Vec<_>> = std::collections::BTreeMap::new();
    for w in windows {
        by_key.entry(w.key).or_default().push(w.report);
    }
    for ((tenant, job), stream) in jobs.into_iter().zip(&streams) {
        let key = JobKey { tenant, job };
        let fleet_reports = by_key.remove(&key).unwrap_or_default();
        let mut solo = WindowedIngestor::new(nranks, 16, cfg.clone());
        let mut solo_reports = Vec::new();
        for frame in stream {
            solo_reports.extend(solo.push_encoded(frame).expect("own frame"));
        }
        solo_reports.extend(solo.finish());
        assert!(!solo_reports.is_empty(), "job {key:?} closed no windows");
        reports_identical(&fleet_reports, &solo_reports)
            .unwrap_or_else(|e| panic!("job {key:?} diverged from its solo run: {e}"));
    }
    total
}

/// The always-on variant: a few dozen windows, cheap enough for debug
/// builds, covering the same three guarantees as the full soak.
#[test]
fn soak_small_stream_and_fleet() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let (windows, _) = soak_windowed(25, 1500);
    assert!(windows >= 45, "only {windows} windows closed");
    let fleet_windows = soak_fleet(10, 300);
    assert!(fleet_windows >= 45, "only {fleet_windows} fleet windows closed");
}

/// The full soak: ≥1000 windows through the streaming ingestor plus a
/// ~900-window 3-job fleet, with the eviction bound proven by slicing
/// the same data into 8× more windows and watching the arena peak
/// *shrink*. Release-only (`make soak`); the wall-clock cap turns a
/// super-linear regression into a loud failure.
#[test]
#[cfg_attr(debug_assertions, ignore = "release-only: run via `make soak`")]
fn soak_thousand_windows_bounded_and_identical() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    let started = Instant::now();
    let (windows, hw_long) = soak_windowed(520, 24_000);
    assert!(windows >= 1000, "only {windows} windows closed");
    // Same data, 8× fewer (so 8× larger) windows. The gauge counts what
    // the arena holds (40 B a row plus 8 B per counter value and arg),
    // and what it holds is the rows of about two periods, so the peak
    // scales with the window: 15 888 B against 123 000 B (7.7×) here,
    // 0.4 % and 3 % of the stream. Held to 4×; if eviction were broken
    // both runs would peak at the whole stream, 1×.
    let (_, hw_short) = soak_windowed(65, 24_000);
    assert!(
        4 * hw_long < hw_short,
        "arena peak did not shrink with window size: {hw_long} vs {hw_short}"
    );
    let fleet_windows = soak_fleet(150, 4_000);
    assert!(fleet_windows >= 800, "only {fleet_windows} fleet windows closed");
    let elapsed = started.elapsed();
    assert!(
        elapsed < Duration::from_secs(120),
        "soak took {elapsed:?}: streaming cost is no longer flat"
    );
}
