//! Fig. 5: per-execution TOT_INS and TSC of fixed-workload computation
//! fragments in 16-process B-scale CG, under injected computation noise
//! and under memory noise. The paper's point: TOT_INS stays flat (a good
//! workload proxy); TSC inflates (it *is* the variance).

use crate::common::{header, hottest_edge, vapro_cf, ExpOpts};
use vapro::harness::run_under_vapro;
use vapro_apps::AppParams;
use vapro_core::{ColumnarPool, PoolView};
use vapro_pmu::{CounterId, CounterSet};
use vapro_sim::{NoiseKind, SimConfig, TargetSet};

/// Series of (TOT_INS, TSC) per execution of the busiest fixed-workload
/// edge of rank 0, under the given noise kind. The noise is injected
/// *while CG is executing* (paper's wording): a window over the middle of
/// the run, so clean and noisy executions of the same snippet coexist.
pub fn series_under(opts: &ExpOpts, noise: NoiseKind) -> Vec<(f64, f64)> {
    let ranks = opts.resolve_ranks(8, 16);
    let iters = opts.resolve_iters(20);
    let params = AppParams::default().with_iterations(iters);
    let base = SimConfig::new(ranks).with_seed(opts.seed);
    let span = vapro::harness::run_bare(&base, |ctx| {
        vapro_apps::npb::cg::run(ctx, &params)
    });
    let window = vapro_sim::NoiseEvent::during(
        noise,
        TargetSet::Ranks(vec![0]),
        vapro_sim::VirtualTime::from_ns(span.ns() / 3),
        vapro_sim::VirtualTime::from_ns(2 * span.ns() / 3),
    );
    let cfg = base.with_noise(vapro_sim::NoiseSchedule::quiet().with(window));
    let run = run_under_vapro(&cfg, &vapro_cf(), |ctx| {
        vapro_apps::npb::cg::run(ctx, &params)
    });
    let pool = ColumnarPool::from_batches(&run.shipped[0], None);
    // The hottest edge = the dominant repeated fixed-workload snippet.
    let edge = hottest_edge(&pool).expect("CG has edges");
    let set = CounterSet::from_ids(&[CounterId::TotIns, CounterId::Tsc]);
    (0..edge.len())
        .map(|i| {
            let c = edge.project_counters(i, set);
            (c.get_or_zero(CounterId::TotIns), c.get_or_zero(CounterId::Tsc))
        })
        .collect()
}

/// Relative spread (max−min)/mean of a series component.
pub fn rel_spread(xs: &[f64]) -> f64 {
    let mean = vapro_stats::mean(xs);
    if mean == 0.0 {
        return 0.0;
    }
    let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = xs.iter().cloned().fold(0.0f64, f64::max);
    (max - min) / mean
}

/// Run the experiment and format the report.
pub fn run(opts: &ExpOpts) -> String {
    let mut out = header(
        "Figure 5",
        "TOT_INS vs TSC of fixed-workload CG fragments under injected noise",
    );
    for (label, noise) in [
        ("computation noise", NoiseKind::CpuContention { steal: 0.5 }),
        ("memory noise", NoiseKind::MemContention { intensity: 1.5 }),
    ] {
        let series = series_under(opts, noise);
        out.push_str(&format!("-- {label} --\nexec,TOT_INS,TSC\n"));
        for (i, (ins, tsc)) in series.iter().enumerate() {
            out.push_str(&format!("{i},{ins:.0},{tsc:.0}\n"));
        }
        let ins: Vec<f64> = series.iter().map(|s| s.0).collect();
        let tsc: Vec<f64> = series.iter().map(|s| s.1).collect();
        out.push_str(&format!(
            "TOT_INS spread {:.2}%  TSC spread {:.2}%  (stable proxy vs noisy time)\n\n",
            rel_spread(&ins) * 100.0,
            rel_spread(&tsc) * 100.0
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tot_ins_flat_tsc_noisy_under_both_noises() {
        let opts = ExpOpts { ranks: Some(4), iterations: Some(12), ..ExpOpts::default() };
        for noise in [
            NoiseKind::CpuContention { steal: 0.5 },
            NoiseKind::MemContention { intensity: 1.5 },
        ] {
            let series = series_under(&opts, noise);
            assert!(series.len() >= 10, "too few fragments: {}", series.len());
            let ins: Vec<f64> = series.iter().map(|s| s.0).collect();
            let tsc: Vec<f64> = series.iter().map(|s| s.1).collect();
            let ins_spread = rel_spread(&ins);
            let tsc_spread = rel_spread(&tsc);
            // TOT_INS within PMU jitter (≪ 5%); TSC inflated by the noise.
            assert!(ins_spread < 0.03, "TOT_INS spread {ins_spread}");
            assert!(tsc_spread > 0.10, "TSC spread {tsc_spread}");
            assert!(tsc_spread > 5.0 * ins_spread);
        }
    }
}
