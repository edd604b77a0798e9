//! No OS thread is created on the window-close path.
//!
//! The only threads the analysis ever uses are the process-wide pool's
//! workers, started once by the first window. After that warm-up the
//! kernel's own census of this process (`/proc/self/task`) must not
//! move — not after hundreds of closes, and not *during* them: the
//! census is also taken after every frame, so a thread that lives only
//! while a window is analysed would still be caught.
//!
//! One `#[test]` on purpose: libtest runs the tests of a binary on
//! threads of its own, and a second test would move the census.
#![cfg(target_os = "linux")]

use vapro_core::detect::ingestor::WindowedIngestor;
use vapro_core::detect::window::Window;
use vapro_core::fleet::{FleetConfig, FleetIngestor, JobKey};
use vapro_core::fragment::{Fragment, FragmentKind};
use vapro_core::stg::{StateKey, Stg};
use vapro_core::wire::FragmentBatch;
use vapro_core::VaproConfig;
use vapro_pmu::{CounterDelta, CounterId};
use vapro_sim::{CallSite, VirtualTime};

/// Threads libtest itself keeps besides the one running the test: its
/// main thread, blocked until the test finishes.
const HARNESS_THREADS: usize = 1;

const PERIOD_NS: u64 = 1_000_000_000;
/// 100 fragments a rank a period: a 2-rank window holds ≈200 rows, above
/// the stage's inline threshold, so it is analysed on the pool.
const FRAGMENT_NS: u64 = 10_000_000;

fn census() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

/// One rank looping over a single site for `periods` report periods.
fn looped_stg(rank: usize, periods: u64) -> Stg {
    let mut stg = Stg::new();
    let start = stg.state(StateKey::Start);
    let site = stg.state(StateKey::Site(CallSite("w:MPI_Barrier")));
    stg.transition(start, site);
    let edge = stg.transition(site, site);
    let mut counters = CounterDelta::default();
    counters.put(CounterId::TotIns, 1000.0);
    for i in 0..periods * PERIOD_NS / FRAGMENT_NS {
        stg.attach_edge_fragment(
            edge,
            Fragment {
                rank,
                kind: FragmentKind::Computation,
                start: VirtualTime::from_ns(i * FRAGMENT_NS),
                end: VirtualTime::from_ns((i + 1) * FRAGMENT_NS - 10),
                counters: counters.clone(),
                args: vec![],
            },
        );
    }
    stg
}

/// Period-major v3 frames of one job.
fn job_frames(nranks: usize, periods: u64, key: JobKey) -> Vec<Vec<u8>> {
    let stgs: Vec<Stg> = (0..nranks).map(|rank| looped_stg(rank, periods)).collect();
    let mut frames = Vec::new();
    for k in 0..periods {
        let window = Window {
            start: VirtualTime::from_ns(PERIOD_NS * k),
            end: VirtualTime::from_ns(PERIOD_NS * (k + 1)),
        };
        for (rank, stg) in stgs.iter().enumerate() {
            frames.push(
                FragmentBatch::from_stg_starting_in(stg, rank, window)
                    .with_seq(k + 1)
                    .with_job(key.tenant, key.job)
                    .encode(),
            );
        }
    }
    frames
}

fn config() -> VaproConfig {
    VaproConfig {
        report_period: VirtualTime::from_ns(PERIOD_NS),
        ..VaproConfig::default()
    }
}

/// Stream one 2-rank job through a default-depth ingestor. Returns the
/// windows closed and the highest census seen after any frame.
fn stream(periods: u64) -> (usize, usize) {
    let mut ingestor = WindowedIngestor::new(2, 8, config());
    let (mut closed, mut peak) = (0, 0);
    for frame in job_frames(2, periods, JobKey::default_job()) {
        closed += ingestor.push_encoded(&frame).expect("valid frame").len();
        peak = peak.max(census());
    }
    closed += ingestor.finish().len();
    (closed, peak.max(census()))
}

/// Stream 12 two-rank jobs of 3 tenants through a 2-shard fleet, their
/// frames interleaved period by period.
fn fleet(periods: u64) -> (usize, usize) {
    let cfg = FleetConfig {
        shards: 2,
        ..FleetConfig::new(config())
    };
    let mut fleet = FleetIngestor::new(cfg);
    let keys: Vec<JobKey> = (0..12)
        .map(|job| JobKey {
            tenant: 1 + job % 3,
            job,
        })
        .collect();
    for key in &keys {
        fleet.register_tenant(key.tenant, u64::MAX);
        fleet.register_job(*key, 2, key.job % 4);
    }
    let per_job: Vec<Vec<Vec<u8>>> = keys
        .iter()
        .map(|key| job_frames(2, periods, *key))
        .collect();
    let (mut closed, mut peak) = (0, 0);
    for i in 0..per_job[0].len() {
        for frames in &per_job {
            closed += fleet.push_encoded(&frames[i]).expect("valid frame").len();
            peak = peak.max(census());
        }
    }
    closed += fleet.into_report().1.len();
    (closed, peak.max(census()))
}

#[test]
fn window_closes_create_no_threads() {
    // Warm-up: the first closes start the pool.
    stream(4);
    let streamed = census();
    fleet(2);
    let before = census();
    assert!(
        before <= rayon::current_num_threads() + HARNESS_THREADS,
        "{before} threads for a {}-thread pool",
        rayon::current_num_threads()
    );
    // Not vacuous: the solo stream's windows did leave the submitting
    // thread, which is what started the pool. (On one core there is no
    // worker to start; every window runs where it was submitted.)
    if rayon::current_num_threads() > 1 {
        assert!(
            streamed > HARNESS_THREADS + 1,
            "no window reached the pool: {streamed} threads after the warm-up stream"
        );
    }

    let (closed, peak) = stream(252);
    assert!(closed >= 500, "only {closed} windows closed");
    assert_eq!(
        peak, before,
        "a thread appeared while the ingestor closed {closed} windows"
    );

    let (closed, peak) = fleet(22);
    assert!(closed >= 500, "only {closed} windows closed");
    assert_eq!(
        peak, before,
        "a thread appeared while the fleet closed {closed} windows"
    );

    assert_eq!(census(), before);
}
