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
    //! analyse the result.

    use vapro_core::detect::pipeline::{detect, DetectionResult};
    use vapro_core::{Collector, Stg, VaproConfig};
    use vapro_sim::{run_simulation, Interceptor, RankCtx, SimConfig, VirtualTime};

    /// Everything one monitored run produces.
    pub struct VaproRun {
        /// Per-rank STGs built by the collectors.
        pub stgs: Vec<Stg>,
        /// Per-rank execution times.
        pub rank_clocks: Vec<VirtualTime>,
        /// The slowest rank's clock.
        pub makespan: VirtualTime,
        /// Detection output (heat maps, regions, coverage, rare paths).
        pub detection: DetectionResult,
        /// Total intercepted invocations.
        pub invocations: u64,
    }

    /// Default number of heat-map time bins.
    pub const DEFAULT_BINS: usize = 64;

    /// Run `app` on the simulated cluster with a Vapro collector in every
    /// rank, then run the full detection pipeline.
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
        let result = run_simulation(
            sim_cfg,
            |rank| Box::new(Collector::new(rank, vapro_cfg.clone())) as Box<dyn Interceptor>,
            app,
        );
        let rank_clocks: Vec<VirtualTime> = result.ranks.iter().map(|r| r.clock).collect();
        let makespan = result.makespan();
        let invocations = result.total_invocations();
        let collectors = result.into_tools::<Collector>();
        let stgs: Vec<Stg> = collectors.into_iter().map(Collector::into_stg).collect();
        let detection = detect(&stgs, rank_clocks.len(), bins, vapro_cfg);
        VaproRun {
            stgs,
            rank_clocks,
            makespan,
            detection,
            invocations,
        }
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
        let monitored = run_under_vapro(sim_cfg, vapro_cfg, &app).makespan.ns() as f64;
        (monitored - bare) / bare
    }
}

#[cfg(test)]
mod tests {
    use super::harness::*;
    use vapro_apps::AppParams;
    use vapro_core::wire::shipped_bytes;
    use vapro_core::VaproConfig;
    use vapro_sim::SimConfig;

    #[test]
    fn harness_runs_cg_end_to_end() {
        let cfg = VaproConfig::default();
        let run = run_under_vapro(&SimConfig::new(4), &cfg, |ctx| {
            vapro_apps::npb::cg::run(ctx, &AppParams::default().with_iterations(4))
        });
        assert_eq!(run.stgs.len(), 4);
        assert!(run.detection.coverage > 0.3);
        assert!(run.invocations > 0);
        let shipped = |(rank, stg)| shipped_bytes(stg, rank, cfg.report_period);
        assert!(run.stgs.iter().enumerate().map(shipped).all(|b| b > 0));
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
