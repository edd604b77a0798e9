//! Between-executions regression detection: the Fig. 1 scenario seen
//! through the baseline-profile comparison. A clean submission's profile
//! is saved; later submissions on the same nodes — some clean, some on a
//! degraded neighbourhood — are compared against it. In-run detection is
//! blind to a *uniform* slowdown (every fragment slows equally, so
//! normalised performance stays 1.0); the cross-run comparison catches
//! exactly that case.

use crate::common::{header, run_pool, vapro_cf, ExpOpts};
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
    let baseline = BaselineProfile::build(&run_pool(&baseline_run.shipped), &cfg);

    (0..runs)
        .map(|run| {
            let degraded = run % 2 == 1;
            let r = run_once(opts.seed + 100 + run as u64, degraded);
            let cmp = baseline.compare(&run_pool(&r.shipped), &cfg);
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
}
