//! Registry mini-apps through the fleet plane: three applications (NPB
//! CG, HPL, PageRank) run under the collector, are sliced into
//! sequenced wire frames, and stream — interleaved, as separate jobs
//! of separate tenants — through one [`FleetIngestor`]. Each
//! job's streamed output must be bit-identical to the one-shot windowed
//! analysis of its own run ([`analyze_windows`]): the fleet
//! plane adds routing and admission, never analysis drift. Run once with
//! context-free collectors (call-site states) and once context-aware
//! with CESM in HPL's place: its component regions give call-path states
//! of two depths, whose labels do not sort like their keys.

use vapro::harness::run_under_vapro;
use vapro_apps::{find_app, AppParams};
use vapro_vopr::plan::reports_identical;
use vapro_core::detect::window::Window;
use vapro_core::wire::FragmentBatch;
use vapro_core::{analyze_windows, FleetConfig, FleetIngestor, JobKey, Stg, VaproConfig};
use vapro_sim::{SimConfig, VirtualTime};

const BINS: usize = 8;

/// Latest fragment end across a run, ns.
fn t_end_ns(stgs: &[Stg]) -> u64 {
    stgs.iter().flat_map(Stg::fragments).map(|f| f.end.ns()).max().unwrap_or(0)
}

/// Slice one app run into sequenced per-rank, per-period frames
/// stamped with the job's routing identity, in period-major order.
fn frames_of(stgs: &[Stg], period_ns: u64, tenant: u32, job: u32) -> Vec<Vec<u8>> {
    let t_end = t_end_ns(stgs);
    let mut out = Vec::new();
    let mut k = 0u64;
    while k * period_ns < t_end {
        let period = Window {
            start: VirtualTime::from_ns(k * period_ns),
            end: VirtualTime::from_ns((k + 1) * period_ns),
        };
        for (rank, stg) in stgs.iter().enumerate() {
            out.push(
                FragmentBatch::from_stg_starting_in(stg, rank, period)
                    .with_seq(k + 1)
                    .with_job(tenant, job)
                    .encode(),
            );
        }
        k += 1;
    }
    out
}

#[test]
fn three_mini_apps_stream_through_the_fleet_bit_identically() {
    stream_three_mini_apps(["CG", "HPL", "PageRank"], VaproConfig::default());
}

#[test]
fn three_context_aware_mini_apps_stream_through_the_fleet_bit_identically() {
    stream_three_mini_apps(["CG", "CESM", "PageRank"], VaproConfig::context_aware());
}

fn stream_three_mini_apps(apps: [&str; 3], collector: VaproConfig) {
    let nranks = 4usize;
    let params = AppParams::default().with_iterations(6);

    // Run each app under the collector on its own simulated cluster.
    let runs: Vec<Vec<Stg>> = apps
        .iter()
        .enumerate()
        .map(|(j, name)| {
            let spec = find_app(name).unwrap_or_else(|| panic!("{name} not in the registry"));
            let sim = SimConfig::new(nranks).with_seed(0x5EED + j as u64);
            run_under_vapro(&sim, &collector, |ctx| (spec.run)(ctx, &params)).stgs
        })
        .collect();

    // One shared analysis cadence for the whole fleet: the longest run
    // split into 6 reporting periods.
    let period_ns =
        (runs.iter().map(|stgs| t_end_ns(stgs)).max().unwrap_or(0) / 6).max(1);
    let cfg = VaproConfig {
        report_period: VirtualTime::from_ns(period_ns),
        ..collector.clone()
    };

    // Each app ships as its own job under its own tenant.
    let streams: Vec<Vec<Vec<u8>>> = runs
        .iter()
        .enumerate()
        .map(|(j, stgs)| frames_of(stgs, period_ns, 1 + j as u32, j as u32))
        .collect();

    let mut fleet = FleetIngestor::new(FleetConfig {
        shards: 3,
        default_nranks: nranks,
        bins_per_window: BINS,
        vapro: cfg.clone(),
    });
    for j in 0..apps.len() {
        let key = JobKey { tenant: 1 + j as u32, job: j as u32 };
        fleet.register_tenant(key.tenant, u64::MAX);
        fleet.register_job(key, nranks, j as u32);
    }

    // Interleave the three jobs' streams round-robin — the arrival order
    // a shared collector port would see — and push everything through.
    let mut windows = Vec::new();
    let longest = streams.iter().map(Vec::len).max().unwrap_or(0);
    let mut pushed = 0usize;
    for i in 0..longest {
        for stream in &streams {
            if let Some(frame) = stream.get(i) {
                windows.extend(fleet.push_encoded(frame).expect("own frame admitted"));
                pushed += 1;
            }
        }
    }
    assert_eq!(pushed, streams.iter().map(Vec::len).sum::<usize>());
    let (report, flushed) = fleet.into_report();
    windows.extend(flushed);

    // Every job's streamed windows equal its one-shot analysis, bit for
    // bit, no matter what the other jobs were doing on the same plane.
    for (j, (name, stgs)) in apps.iter().zip(&runs).enumerate() {
        let key = JobKey { tenant: 1 + j as u32, job: j as u32 };
        let (mine, rest): (Vec<_>, Vec<_>) =
            std::mem::take(&mut windows).into_iter().partition(|w| w.key == key);
        windows = rest;
        let mine_reports: Vec<_> = mine.into_iter().map(|w| w.report).collect();
        let reference = analyze_windows(stgs, nranks, BINS, &cfg);
        reports_identical(&mine_reports, &reference)
            .unwrap_or_else(|e| panic!("{name} diverged from one-shot: {e}"));
        let summary = report
            .jobs
            .iter()
            .find(|s| s.key == key)
            .unwrap_or_else(|| panic!("{name} missing from the fleet report"));
        assert_eq!(summary.windows_closed, mine_reports.len(), "{name} close count");
        assert!(
            report.tenants.iter().any(|t| t.tenant == key.tenant),
            "{name}'s tenant missing from the fleet report"
        );
    }
}
