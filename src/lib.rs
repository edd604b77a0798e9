#![warn(missing_docs)]

//! # vapro — performance variance detection and diagnosis
//!
//! A full Rust reproduction of *"Vapro: Performance Variance Detection
//! and Diagnosis for Production-Run Parallel Applications"* (Zheng et
//! al., PPoPP 2022): the Vapro tool itself plus every substrate its
//! evaluation needs — a virtual-time parallel runtime, a simulated PMU,
//! a statistics library, the evaluation applications, and the vSensor /
//! mpiP baselines.
//!
//! This facade crate re-exports the workspace and offers [`harness`], a
//! one-call API that runs an application under Vapro and returns the
//! detection (and optionally diagnosis) results.
//!
//! ```
//! use vapro::harness::{run_under_vapro, VaproRun};
//! use vapro::sim::SimConfig;
//! use vapro::core::VaproConfig;
//! use vapro::apps::AppParams;
//!
//! let run = run_under_vapro(
//!     &SimConfig::new(4),
//!     &VaproConfig::default(),
//!     |ctx| vapro::apps::npb::cg::run(ctx, &AppParams::default().with_iterations(3)),
//! );
//! assert!(run.detection.coverage > 0.3);
//! assert!(run.detection.comp_regions.is_empty()); // quiet machine
//! ```

pub use vapro_apps as apps;
pub use vapro_baselines as baselines;
pub use vapro_core as core;
pub use vapro_pmu as pmu;
pub use vapro_sim as sim;
pub use vapro_stats as stats;

pub mod harness {
    //! The high-level entry point: run an app under Vapro's collector and
    //! analyse the result as an analysis server does, in one window.

    use vapro_core::detect::window::Window;
    use vapro_core::{
        analyze_pool, Collector, ColumnarPool, DetectionResult, FragmentBatch, RegionDiagnosis, Stg,
        VaproConfig, WindowReport, WindowedIngestor,
    };
    use vapro_sim::{run_simulation, Interceptor, RankCtx, SimConfig, SimResult, VirtualTime};

    /// Everything one monitored run produces.
    pub struct VaproRun {
        /// Per-rank STGs built by the collectors: topology and fragment
        /// counts; the fragments themselves went out in `shipped`.
        pub stgs: Vec<Stg>,
        /// Every frame each rank's client shipped, indexed by rank, then
        /// report period.
        pub shipped: Vec<Vec<FragmentBatch>>,
        /// Per-rank execution times.
        pub rank_clocks: Vec<VirtualTime>,
        /// The slowest rank's clock.
        pub makespan: VirtualTime,
        /// Detection output (heat maps, regions, coverage, rare paths).
        pub detection: DetectionResult,
        /// Diagnoses of the top `diagnose_top_k` computation regions.
        pub diagnoses: Vec<RegionDiagnosis>,
        /// Total intercepted invocations.
        pub invocations: u64,
    }

    /// Default number of heat-map time bins.
    pub const DEFAULT_BINS: usize = 64;

    /// Run `app` on the simulated cluster with a Vapro collector in every
    /// rank, then detect and diagnose over the whole run.
    pub fn run_under_vapro(
        sim_cfg: &SimConfig,
        vapro_cfg: &VaproConfig,
        app: impl Fn(&mut RankCtx) + Sync,
    ) -> VaproRun {
        run_under_vapro_binned(sim_cfg, vapro_cfg, DEFAULT_BINS, app)
    }

    /// Like [`run_under_vapro`] with an explicit heat-map bin count.
    pub fn run_under_vapro_binned(
        sim_cfg: &SimConfig,
        vapro_cfg: &VaproConfig,
        bins: usize,
        app: impl Fn(&mut RankCtx) + Sync,
    ) -> VaproRun {
        let result = run_monitored(sim_cfg, vapro_cfg, app);
        let rank_clocks: Vec<VirtualTime> = result.ranks.iter().map(|r| r.clock).collect();
        let makespan = result.makespan();
        let invocations = result.total_invocations();
        let collectors = result.into_tools::<Collector>();
        let (stgs, shipped): (Vec<Stg>, Vec<_>) = collectors.into_iter().map(Collector::finish).unzip();
        // One window covers the run: a period of its last fragment end + 1 ns.
        let t_end = shipped.iter().flatten().flat_map(FragmentBatch::fragments).map(|f| f.end.ns()).max();
        let report_period = VirtualTime::from_ns(t_end.unwrap_or(0) + 1);
        let server_cfg = VaproConfig { report_period, ..vapro_cfg.clone() };
        let reports = serve(&shipped, bins, server_cfg);
        // No fragments, no window: an empty pool's analysis.
        let report = reports.into_iter().last().unwrap_or_else(|| {
            analyze_pool(&ColumnarPool::new(), Window::ALL, stgs.len(), bins, vapro_cfg)
        });
        let (detection, diagnoses) = (report.result, report.diagnoses);
        VaproRun {
            stgs,
            shipped,
            rank_clocks,
            makespan,
            detection,
            diagnoses,
            invocations,
        }
    }

    /// Every rank's shipped frames (indexed by rank, then period) pushed
    /// encoded, period `k` of every rank before `k + 1`, into a
    /// [`WindowedIngestor`] over `cfg`, and every report it emits: the
    /// pushes' and `finish`'s (which of them returns a window depends on
    /// the analysis stage's timing).
    pub fn serve(shipped: &[Vec<FragmentBatch>], bins: usize, cfg: VaproConfig) -> Vec<WindowReport> {
        let periods = shipped.iter().map(Vec::len).max().unwrap_or(0);
        let mut server = WindowedIngestor::new(shipped.len(), bins, cfg);
        let mut reports = Vec::new();
        for batch in (0..periods).flat_map(|k| shipped.iter().filter_map(move |b| b.get(k))) {
            reports.extend(server.push_encoded(&batch.encode()).expect("own frame admitted"));
        }
        reports.extend(server.finish());
        reports
    }

    /// `app` on the simulated cluster with a Vapro collector in every rank.
    fn run_monitored(
        sim_cfg: &SimConfig,
        vapro_cfg: &VaproConfig,
        app: impl Fn(&mut RankCtx) + Sync,
    ) -> SimResult {
        run_simulation(
            sim_cfg,
            |rank| Box::new(Collector::new(rank, vapro_cfg.clone())) as Box<dyn Interceptor>,
            app,
        )
    }

    /// Run the same app bare (null interceptor) — the baseline for
    /// overhead measurement.
    pub fn run_bare(sim_cfg: &SimConfig, app: impl Fn(&mut RankCtx) + Sync) -> VirtualTime {
        run_simulation(
            sim_cfg,
            |_| Box::new(vapro_sim::NullInterceptor) as Box<dyn Interceptor>,
            app,
        )
        .makespan()
    }

    /// Tool overhead: `(monitored − bare) / bare`, the Table 1 metric.
    pub fn overhead(
        sim_cfg: &SimConfig,
        vapro_cfg: &VaproConfig,
        app: impl Fn(&mut RankCtx) + Sync,
    ) -> f64 {
        let bare = run_bare(sim_cfg, &app).ns() as f64;
        let monitored = run_monitored(sim_cfg, vapro_cfg, &app).makespan().ns() as f64;
        (monitored - bare) / bare
    }
}

#[cfg(test)]
mod tests {
    use super::harness::*;
    use vapro_apps::AppParams;
    use vapro_core::detect::window::Window;
    use vapro_core::{
        analyze_pool, ColumnarPool, FragmentBatch, VaproConfig, WindowCoverage, WindowReport,
        WindowedIngestor, WireError,
    };
    use vapro_sim::{NoiseEvent, NoiseKind, NoiseSchedule, SimConfig, TargetSet, VirtualTime};

    /// The whole run gathered straight from the shipped frames into one
    /// pool — no encoding, arena or stage — and analysed as one window:
    /// detection, and its top regions diagnosed over the same pool.
    fn whole_run_reference(run: &VaproRun, cfg: &VaproConfig) -> WindowReport {
        let pool = ColumnarPool::from_batches(run.shipped.iter().flatten(), None);
        analyze_pool(&pool, Window::ALL, run.rank_clocks.len(), DEFAULT_BINS, cfg)
    }

    /// 8-rank CG, 20 iterations (≈313 ms of virtual time).
    fn cg_run(sim: &SimConfig, cfg: &VaproConfig) -> VaproRun {
        run_under_vapro(sim, cfg, |ctx| {
            vapro_apps::npb::cg::run(ctx, &AppParams::default().with_iterations(20))
        })
    }

    #[test]
    fn shipped_replay_equals_the_whole_run_reference() {
        // A memory hog visits rank 3 every other 30 ms: a computation
        // region whose clean and dirty executions diagnosis can contrast.
        let planted = (0..10u64).fold(NoiseSchedule::quiet(), |noise, w| {
            noise.with(NoiseEvent::during(
                NoiseKind::MemContention { intensity: 2.0 },
                TargetSet::Ranks(vec![3]),
                VirtualTime::from_ms(60 * w + 30),
                VirtualTime::from_ms(60 * w + 60),
            ))
        });
        let quiet = SimConfig::new(8);
        let noisy = SimConfig::new(8).with_noise(planted);
        for depth in [0, VaproConfig::default().pipeline_depth] {
            // The quiet run ships one 15 s period; the noisy one ships
            // 50 ms periods, several per rank.
            let quiet_cfg = VaproConfig { pipeline_depth: depth, ..VaproConfig::default() };
            let noisy_cfg = VaproConfig {
                report_period: VirtualTime::from_ms(50),
                ..quiet_cfg.clone().with_counters(vapro_pmu::events::full_set())
            };
            for (sim, cfg, regions) in [(&quiet, quiet_cfg, false), (&noisy, noisy_cfg, true)] {
                let run = cg_run(sim, &cfg);
                let reference = whole_run_reference(&run, &cfg);
                assert_eq!(run.detection, reference.result);
                assert_eq!(run.diagnoses, reference.diagnoses);
                assert_eq!(!reference.result.comp_regions.is_empty(), regions, "depth {depth}");
                assert_eq!(!reference.diagnoses.is_empty(), regions, "depth {depth}");
            }
        }
    }

    #[test]
    fn collector_frames_are_numbered_from_one_per_rank() {
        let cfg = VaproConfig { report_period: VirtualTime::from_ms(50), ..VaproConfig::default() };
        let run = cg_run(&SimConfig::new(8), &cfg);
        for frames in &run.shipped {
            assert!(frames.len() > 1, "{} frames", frames.len());
            let seqs: Vec<u64> = frames.iter().map(|f| f.seq).collect();
            assert_eq!(seqs, (1..=frames.len() as u64).collect::<Vec<_>>());
        }
    }

    #[test]
    fn a_retransmitted_collector_frame_is_rejected() {
        // Every frame arrives twice, as from a client retransmitting after
        // a lost ack: each second copy is a counted duplicate, and the
        // windows are those of a single push.
        let cfg = VaproConfig { report_period: VirtualTime::from_ms(50), ..VaproConfig::default() };
        let run = cg_run(&SimConfig::new(8), &cfg);
        let once = serve(&run.shipped, DEFAULT_BINS, cfg.clone());
        let mut server = WindowedIngestor::new(run.shipped.len(), DEFAULT_BINS, cfg);
        let mut twice = Vec::new();
        let periods = run.shipped.iter().map(Vec::len).max().unwrap_or(0);
        for frame in (0..periods).flat_map(|k| run.shipped.iter().filter_map(move |f| f.get(k))) {
            let bytes = frame.encode();
            twice.extend(server.push_encoded(&bytes).expect("first copy admitted"));
            let dup = server.push_encoded(&bytes).unwrap_err();
            assert_eq!(dup, WireError::DuplicateSequence { rank: frame.rank as u32, seq: frame.seq });
        }
        let sent = run.shipped.iter().map(Vec::len).sum::<usize>() as u64;
        assert_eq!(server.stats().duplicate_frames, sent);
        twice.extend(server.finish());
        assert!(once.len() > 1, "{} windows", once.len());
        assert_eq!(twice.len(), once.len());
        for (got, want) in twice.iter().zip(&once) {
            assert_eq!(got.window, want.window);
            assert_eq!(got.result, want.result);
            assert_eq!(got.diagnoses, want.diagnoses);
            let uncounted = WindowCoverage { duplicate_frames: 0, ..got.coverage.clone() };
            assert_eq!(uncounted, want.coverage);
        }
    }

    #[test]
    fn a_window_closed_by_the_last_push_is_kept() {
        // One period per rank, so every final mark is 15 s, past the run's
        // end: at depth 0 the last push closes the window and analyses it
        // inline, leaving `finish` nothing to return.
        let cfg = VaproConfig { pipeline_depth: 0, ..VaproConfig::default() };
        let run = cg_run(&SimConfig::new(8), &cfg);
        assert!(run.makespan < cfg.report_period, "{}", run.makespan);
        assert!(run.shipped.iter().all(|frames| frames.len() == 1));
        assert!(run.detection.coverage > 0.3, "coverage {}", run.detection.coverage);
        assert_eq!(run.detection, whole_run_reference(&run, &cfg).result);
    }

    #[test]
    fn a_run_without_fragments_detects_nothing() {
        let cfg = VaproConfig::default();
        let run = run_under_vapro(&SimConfig::new(2), &cfg, |_| {});
        assert!(run.stgs.iter().all(|stg| stg.total_fragments() == 0));
        assert!(run.shipped.iter().all(Vec::is_empty));
        assert!(run.detection.series.is_empty());
        assert!(run.detection.comp_regions.is_empty() && run.diagnoses.is_empty());
        assert_eq!(run.detection.coverage, 0.0);
        assert_eq!(run.detection, whole_run_reference(&run, &cfg).result);
    }

    #[test]
    fn harness_runs_cg_end_to_end() {
        let cfg = VaproConfig::default();
        let run = run_under_vapro(&SimConfig::new(4), &cfg, |ctx| {
            vapro_apps::npb::cg::run(ctx, &AppParams::default().with_iterations(4))
        });
        assert_eq!((run.stgs.len(), run.shipped.len()), (4, 4));
        assert!(run.detection.coverage > 0.3);
        assert!(run.invocations > 0);
        let bytes = |frames: &Vec<FragmentBatch>| frames.iter().map(|b| b.encode().len()).sum::<usize>();
        assert!(run.shipped.iter().map(bytes).all(|b| b > 0));
    }

    #[test]
    fn overhead_is_small_but_positive() {
        let oh = overhead(&SimConfig::new(2), &VaproConfig::default(), |ctx| {
            vapro_apps::npb::cg::run(ctx, &AppParams::default().with_iterations(4))
        });
        assert!(oh > 0.0, "overhead {oh}");
        assert!(oh < 0.10, "overhead {oh} too large");
    }
}
