//! Integration: detection → diagnosis across crates — every injected
//! noise kind must be traced back to its true factor through the full
//! pipeline (runtime → collector → clustering → breakdown → drill-down).

use vapro::core::diagnose::{diagnose_progressively, Factor};
use vapro::core::fragment::Fragment;
use vapro::core::{ColumnarPool, PoolView, VaproConfig};
use vapro::harness::run_under_vapro;
use vapro::apps::AppParams;
use vapro::pmu::{events, CounterSet};
use vapro::sim::{NoiseEvent, NoiseKind, NoiseSchedule, SimConfig, TargetSet, VirtualTime};

/// Run CG with a windowed noise on rank 0, collect under `counters`, and
/// progressively diagnose the hottest edge's pooled fragments.
fn diagnose_under(
    noise: NoiseKind,
    counters: CounterSet,
) -> Option<vapro::core::diagnose::DiagnosisReport> {
    let params = AppParams::default().with_iterations(24);
    // Alternate noise windows so clean and dirty executions coexist.
    let mut schedule = NoiseSchedule::quiet();
    for w in 0..300u64 {
        if w % 2 == 1 {
            schedule = schedule.with(NoiseEvent::during(
                noise,
                TargetSet::Ranks(vec![0]),
                VirtualTime::from_ms(w * 30),
                VirtualTime::from_ms((w + 1) * 30),
            ));
        }
    }
    let cfg = SimConfig::new(4).with_noise(schedule);
    let vcfg = VaproConfig::default().with_counters(counters);
    let run = run_under_vapro(&cfg, &vcfg, |ctx| vapro::apps::npb::cg::run(ctx, &params));
    // Rank 0's edge lane with the most total time.
    let pool = ColumnarPool::from_batches(&run.shipped[0], None);
    let busy = |e: &usize| {
        let lane = pool.edge(*e).2;
        (0..lane.len()).map(|i| lane.end(i).saturating_since(lane.start(i)).ns()).sum::<u64>()
    };
    let edge = pool.edge((0..pool.num_edges()).max_by_key(busy)?).2;
    let mut provider = move |set: CounterSet| -> Vec<Fragment> {
        (0..edge.len())
            .map(|i| Fragment {
                rank: edge.rank(i),
                kind: edge.kind(i),
                start: edge.start(i),
                end: edge.end(i),
                counters: edge.project_counters(i, set),
                args: edge.args(i).to_vec(),
            })
            .collect()
    };
    diagnose_progressively(&mut provider)
}

#[test]
fn cpu_contention_traces_to_involuntary_context_switches() {
    let rep = diagnose_under(
        NoiseKind::CpuContention { steal: 0.5 },
        events::full_set(),
    )
    .expect("diagnosis ran");
    assert!(rep.steps[0].report.of(Factor::Suspension).unwrap().major);
    assert!(
        rep.culprits.contains(&Factor::InvoluntaryCs),
        "culprits {:?}",
        rep.culprits
    );
}

#[test]
fn memory_contention_traces_to_dram() {
    let rep = diagnose_under(
        NoiseKind::MemContention { intensity: 2.0 },
        events::full_set(),
    )
    .expect("diagnosis ran");
    assert!(rep.steps[0].report.of(Factor::BackendBound).unwrap().major);
    assert!(
        rep.culprits
            .iter()
            .any(|c| matches!(c, Factor::DramBound | Factor::L3Bound)),
        "culprits {:?}",
        rep.culprits
    );
}

#[test]
fn signal_storm_traces_to_the_signal_factor() {
    // A runaway interval timer delivering ~100k signals/s: suspension is
    // the S1 major, and the S2 stage pins it on signals rather than page
    // faults or context switches.
    let rep = diagnose_under(
        NoiseKind::SignalStorm { signals_per_sec: 100_000.0 },
        events::full_set(),
    )
    .expect("diagnosis ran");
    assert!(rep.steps[0].report.of(Factor::Suspension).unwrap().major);
    assert!(
        rep.culprits.contains(&Factor::Signal),
        "culprits {:?}",
        rep.culprits
    );
    // The sibling suspension factors stay minor.
    let s2 = rep
        .steps
        .iter()
        .find(|s| s.factors.contains(&Factor::Signal))
        .expect("S2 suspension stage ran");
    assert!(!s2.report.of(Factor::PageFault).unwrap().major);
}

#[test]
fn swap_pressure_traces_to_hard_page_faults() {
    let rep = diagnose_under(
        NoiseKind::SwapPressure { faults_per_sec: 400.0 },
        events::full_set(),
    )
    .expect("diagnosis ran");
    assert!(rep.steps[0].report.of(Factor::Suspension).unwrap().major);
    assert!(
        rep.culprits.contains(&Factor::HardPageFault),
        "culprits {:?}",
        rep.culprits
    );
}

#[test]
fn diagnosis_depth_matches_collection_periods() {
    let rep = diagnose_under(
        NoiseKind::MemContention { intensity: 2.0 },
        events::full_set(),
    )
    .expect("diagnosis ran");
    assert_eq!(rep.periods, rep.steps.len());
    assert!(rep.periods >= 2, "memory noise needs ≥ 2 stages, got {}", rep.periods);
    // Counter demand grows monotonically down the stages.
    for w in rep.steps.windows(2) {
        assert!(w[1].counters_used >= w[0].counters_used);
    }
}

#[test]
fn detected_region_feeds_straight_into_region_diagnosis() {
    // The full user journey: run → detect → take the top region →
    // diagnose that region of interest (paper §3.5's "users are able to
    // select regions of interest on the heat map for diagnosis").
    use vapro::core::diagnose::RegionOfInterest;
    use vapro_vopr::reference::diagnose_region;
    let params = AppParams::default().with_iterations(24);
    let mut schedule = NoiseSchedule::quiet();
    for w in 0..300u64 {
        if w % 2 == 1 {
            schedule = schedule.with(NoiseEvent::during(
                NoiseKind::MemContention { intensity: 2.0 },
                TargetSet::Ranks(vec![2]),
                VirtualTime::from_ms(w * 30),
                VirtualTime::from_ms((w + 1) * 30),
            ));
        }
    }
    let cfg = SimConfig::new(4).with_noise(schedule);
    let vcfg = VaproConfig::default().with_counters(events::s3_memory_set());
    let run = vapro::harness::run_under_vapro_binned(&cfg, &vcfg, 32, |ctx| {
        vapro::apps::npb::cg::run(ctx, &params)
    });
    let region = run
        .detection
        .comp_regions
        .iter()
        .find(|r| r.covers_rank(2))
        .expect("memory noise detected on rank 2");
    let roi: RegionOfInterest = region.into();
    let pool = ColumnarPool::from_batches(run.shipped.iter().flatten(), None);
    let rep = diagnose_region(&pool, &roi, &vcfg).expect("region diagnosed");
    assert!(rep.steps[0].report.of(Factor::BackendBound).unwrap().major);
    assert!(
        rep.culprits
            .iter()
            .any(|c| matches!(c, Factor::DramBound | Factor::L3Bound | Factor::MemoryBound)),
        "culprits {:?}",
        rep.culprits
    );
}

#[test]
fn narrow_detection_counters_prevent_deep_diagnosis() {
    // Collected with only TSC+TOT_INS (the plain detection set), the
    // fragments cannot support S1 analysis — the provider returns
    // projected fragments lacking the top-down events.
    let rep = diagnose_under(
        NoiseKind::MemContention { intensity: 2.0 },
        events::detection_set(),
    );
    assert!(rep.is_none(), "diagnosis should not run without S1 events");
}
