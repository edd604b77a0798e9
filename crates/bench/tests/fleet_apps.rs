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
use vapro_vopr::reference::{analyze_windows, reports_identical};
use vapro_core::wire::FragmentBatch;
use vapro_core::{FleetConfig, FleetIngestor, JobKey, VaproConfig};
use vapro_sim::{SimConfig, VirtualTime};

const BINS: usize = 8;

/// Latest fragment end across a run's frames, ns.
fn t_end_ns(shipped: &[Vec<FragmentBatch>]) -> u64 {
    shipped.iter().flatten().flat_map(FragmentBatch::fragments).map(|f| f.end.ns()).max().unwrap_or(0)
}

/// A run's frames, sequenced per rank and stamped with the job's
/// routing identity, in period-major order.
fn frames_of(shipped: &[Vec<FragmentBatch>], tenant: u32, job: u32) -> Vec<Vec<u8>> {
    let periods = shipped.iter().map(Vec::len).max().unwrap_or(0);
    let frame = |k: usize, batch: &FragmentBatch| {
        batch.clone().with_seq(k as u64 + 1).with_job(tenant, job).encode()
    };
    (0..periods)
        .flat_map(|k| shipped.iter().filter_map(move |frames| frames.get(k)).map(move |b| frame(k, b)))
        .collect()
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
    let run_all = |cfg: &VaproConfig| -> Vec<Vec<Vec<FragmentBatch>>> {
        apps.iter()
            .enumerate()
            .map(|(j, name)| {
                let spec = find_app(name).unwrap_or_else(|| panic!("{name} not in the registry"));
                let sim = SimConfig::new(nranks).with_seed(0x5EED + j as u64);
                run_under_vapro(&sim, cfg, |ctx| (spec.run)(ctx, &params)).shipped
            })
            .collect()
    };

    // One shared analysis cadence for the whole fleet: the longest run
    // split into 6 reporting periods. The simulated runs do not depend
    // on the report period, so a second pass ships at that cadence.
    let period_ns = (run_all(&collector).iter().map(|run| t_end_ns(run)).max().unwrap_or(0) / 6).max(1);
    let cfg = VaproConfig {
        report_period: VirtualTime::from_ns(period_ns),
        ..collector.clone()
    };
    let runs = run_all(&cfg);

    // Each app ships as its own job under its own tenant.
    let streams: Vec<Vec<Vec<u8>>> = runs
        .iter()
        .enumerate()
        .map(|(j, shipped)| frames_of(shipped, 1 + j as u32, j as u32))
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
    for (j, (name, shipped)) in apps.iter().zip(&runs).enumerate() {
        let key = JobKey { tenant: 1 + j as u32, job: j as u32 };
        let (mine, rest): (Vec<_>, Vec<_>) =
            std::mem::take(&mut windows).into_iter().partition(|w| w.key == key);
        windows = rest;
        let mine_reports: Vec<_> = mine.into_iter().map(|w| w.report).collect();
        let reference = analyze_windows(shipped.iter().flatten(), nranks, BINS, &cfg);
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
