//! End-to-end integration: app → runtime → collector → STG → clustering →
//! detection, across every crate of the workspace.

use vapro::apps::{all_apps, AppKind, AppParams};
use vapro::core::VaproConfig;
use vapro::harness::{overhead, run_under_vapro, run_under_vapro_binned};
use vapro::sim::{NoiseEvent, NoiseKind, NoiseSchedule, SimConfig, TargetSet, Topology, VirtualTime};

fn topo_for(app: &vapro::apps::AppSpec, ranks: usize) -> Topology {
    match app.kind {
        AppKind::MultiProcess => Topology::tianhe_like(ranks),
        AppKind::MultiThreaded => Topology::single_node(ranks),
    }
}

#[test]
fn every_registered_app_detects_nothing_on_a_quiet_machine() {
    let params = AppParams::default().with_iterations(8);
    for app in all_apps() {
        let cfg = SimConfig::new(8).with_topology(topo_for(&app, 8));
        let run = run_under_vapro(&cfg, &VaproConfig::default(), |ctx| {
            (app.run)(ctx, &params)
        });
        assert!(
            run.detection.comp_regions.is_empty(),
            "{}: false-positive computation regions {:?}",
            app.name,
            run.detection.comp_regions
        );
        assert!(
            run.detection.coverage > 0.3,
            "{}: coverage {:.2} too low",
            app.name,
            run.detection.coverage
        );
    }
}

#[test]
fn every_app_survives_noise_without_crashing_detection() {
    let params = AppParams::default().with_iterations(6);
    let noise = NoiseSchedule::quiet().with(NoiseEvent::always(
        NoiseKind::CpuContention { steal: 0.4 },
        TargetSet::Ranks(vec![1]),
    ));
    for app in all_apps() {
        let cfg = SimConfig::new(4)
            .with_topology(topo_for(&app, 4))
            .with_noise(noise.clone());
        let run = run_under_vapro(&cfg, &VaproConfig::default(), |ctx| {
            (app.run)(ctx, &params)
        });
        assert!(run.makespan.ns() > 0, "{} produced no time", app.name);
    }
}

#[test]
fn cpu_noise_on_one_rank_is_localised_by_detection() {
    let params = AppParams::default().with_iterations(20);
    let noise = NoiseSchedule::quiet().with(NoiseEvent::during(
        NoiseKind::CpuContention { steal: 0.5 },
        TargetSet::Ranks(vec![3]),
        VirtualTime::from_ms(5),
        VirtualTime::from_secs(1_000),
    ));
    let cfg = SimConfig::new(8).with_noise(noise);
    let run = run_under_vapro_binned(&cfg, &VaproConfig::default(), 32, |ctx| {
        vapro::apps::npb::cg::run(ctx, &params)
    });
    let region = run
        .detection
        .comp_regions
        .first()
        .expect("noise must be detected");
    assert!(region.covers_rank(3));
    assert!(!region.covers_rank(0));
    assert!(region.mean_perf < 0.75, "perf {}", region.mean_perf);
}

#[test]
fn context_modes_agree_on_detection_but_differ_in_cost() {
    let params = AppParams::default().with_iterations(10).with_scale(0.1);
    let cfg = SimConfig::new(4);
    let app = |ctx: &mut vapro::sim::RankCtx| vapro::apps::npb::cg::run(ctx, &params);
    let cf = overhead(&cfg, &VaproConfig::context_free(), app);
    let ca = overhead(&cfg, &VaproConfig::context_aware(), app);
    assert!(ca > cf, "CA {ca} should cost more than CF {cf}");
    assert!(ca < 0.2, "CA overhead {ca} unreasonably high");
}

#[test]
fn network_jitter_shows_up_as_communication_variance_only() {
    // A jittery fabric inflates message transfers: the *communication*
    // category flags it while computation stays clean — the categorical
    // split of the paper's reports.
    let params = AppParams::default().with_iterations(25);
    let noise = NoiseSchedule::quiet().with(NoiseEvent::during(
        NoiseKind::NetworkJitter { amplitude: 60.0 },
        TargetSet::All,
        VirtualTime::from_ms(2),
        VirtualTime::from_secs(1_000),
    ));
    let cfg = SimConfig::new(4).with_noise(noise);
    let run = run_under_vapro_binned(&cfg, &VaproConfig::default(), 32, |ctx| {
        vapro::apps::npb::lu::run(ctx, &params)
    });
    assert!(
        run.detection.comp_regions.is_empty(),
        "computation wrongly flagged: {:?}",
        run.detection.comp_regions.first()
    );
    assert!(
        !run.detection.comm_regions.is_empty(),
        "network jitter not detected in the communication category"
    );
}

#[test]
fn sampling_enabled_detection_still_localises_noise() {
    // With the skip-short back-off active, the long fragments that carry
    // the variance survive, so detection is unimpaired (§3.5's claim).
    let params = AppParams::default().with_iterations(20);
    let noise = NoiseSchedule::quiet().with(NoiseEvent::during(
        NoiseKind::CpuContention { steal: 0.5 },
        TargetSet::Ranks(vec![2]),
        VirtualTime::from_ms(5),
        VirtualTime::from_secs(1_000),
    ));
    let cfg = SimConfig::new(6).with_noise(noise);
    let vcfg = VaproConfig {
        sampling_enabled: true,
        sampling_min_ns: 40_000.0,
        ..VaproConfig::default()
    };
    let run = run_under_vapro_binned(&cfg, &vcfg, 32, |ctx| {
        vapro::apps::npb::cg::run(ctx, &params)
    });
    let region = run
        .detection
        .comp_regions
        .first()
        .expect("noise detected despite sampling");
    assert!(region.covers_rank(2));
    assert!(run.detection.coverage > 0.5, "coverage {}", run.detection.coverage);
}

#[test]
fn detection_is_deterministic() {
    let params = AppParams::default().with_iterations(8);
    let noise = NoiseSchedule::quiet().with(NoiseEvent::always(
        NoiseKind::MemContention { intensity: 1.0 },
        TargetSet::Ranks(vec![0]),
    ));
    let mk = || {
        let cfg = SimConfig::new(4).with_noise(noise.clone()).with_seed(99);
        run_under_vapro(&cfg, &VaproConfig::default(), |ctx| {
            vapro::apps::npb::cg::run(ctx, &params)
        })
    };
    let a = mk();
    let b = mk();
    assert_eq!(a.makespan, b.makespan);
    assert_eq!(a.detection.coverage, b.detection.coverage);
    assert_eq!(a.detection.comp_regions.len(), b.detection.comp_regions.len());
    assert_eq!(a.invocations, b.invocations);
}

#[test]
fn windowed_server_analysis_runs_over_a_long_horizon() {
    use vapro_vopr::reference::analyze_windows;
    let params = AppParams::default().with_iterations(30).with_scale(50.0);
    let cfg = SimConfig::new(4);
    let run = run_under_vapro(&cfg, &VaproConfig::default(), |ctx| {
        vapro::apps::npb::cg::run(ctx, &params)
    });
    // At scale 20 a run spans multiple 15-second reporting periods.
    assert!(run.makespan > VirtualTime::from_secs(15), "makespan {}", run.makespan);
    let reports = analyze_windows(run.shipped.iter().flatten(), 4, 16, &VaproConfig::default());
    assert!(reports.len() >= 2, "only {} windows", reports.len());
    for r in &reports {
        assert!(r.result.comp_regions.is_empty(), "quiet run flagged in {:?}", r.window);
    }
}
