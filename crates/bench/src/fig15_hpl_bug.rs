//! Fig. 15 (case study §6.5.1): HPL with 36 processes on a dual
//! 18-core-socket node hit by the Intel L2-eviction hardware bug.
//! Vapro's inter-process comparison of fixed-workload fragments shows
//! the second socket's ranks running slow; progressive diagnosis
//! attributes the slowdown to backend bound (paper: 96.6 %), refined to
//! L2 + DRAM bound (48.2 % + 38.0 %).

use crate::common::{diagnose_hottest_edge, header, run_pool, vapro_cf, ExpOpts};
use vapro::harness::run_under_vapro_binned;
use vapro_apps::AppParams;
use vapro_core::diagnose::{DiagnosisReport, Factor};
use vapro_sim::{NoiseKind, SimConfig, TargetSet, Topology};

/// The Fig. 15 analysis output.
pub struct Fig15Run {
    /// The heat map (socket-1 ranks should be dark).
    pub map: vapro_core::HeatMap,
    /// Ranks on the bugged socket.
    pub bugged_ranks: Vec<usize>,
    /// Mean normalised performance of bugged vs healthy ranks.
    pub bugged_perf: f64,
    /// Healthy ranks' mean performance.
    pub healthy_perf: f64,
    /// The progressive diagnosis.
    pub diagnosis: Option<DiagnosisReport>,
}

/// Run the scenario.
pub fn analyze(opts: &ExpOpts) -> Fig15Run {
    let ranks = opts.resolve_ranks(36, 36);
    let iters = opts.resolve_iters(30);
    let params = AppParams::default().with_iterations(iters);
    let topo = Topology::dual_socket(ranks.div_ceil(2));
    let cfg = SimConfig::new(ranks)
        .with_topology(topo.clone())
        .with_seed(opts.seed)
        .with_noise(crate::common::always(
            // Frequent but moderate firing: evicting a few percent of the
            // L2-resident lines per fragment reproduces the paper's
            // observed ~20-30 % per-rank slowdowns.
            NoiseKind::L2CacheBug { prob: 0.5, severity: 0.12 },
            TargetSet::Sockets(vec![1]),
        ));
    // Collect with the S3 memory events live so the drill-down can reach
    // the L2/DRAM leaves.
    let vcfg = vapro_cf().with_counters(vapro_pmu::events::s3_memory_set());
    let run = run_under_vapro_binned(&cfg, &vcfg, 40, |ctx| {
        vapro_apps::hpl::run(ctx, &params)
    });

    let bugged_ranks = topo.ranks_on_socket(1, ranks);
    let map = run.detection.comp_map;
    let mean_perf = |rs: &[usize]| {
        let mut vals = vec![];
        for &r in rs {
            for b in 0..map.bins {
                if let Some(p) = map.perf(r, b) {
                    vals.push(p);
                }
            }
        }
        vapro_stats::mean(&vals)
    };
    let healthy: Vec<usize> = (0..ranks).filter(|r| !bugged_ranks.contains(r)).collect();
    let bugged_perf = mean_perf(&bugged_ranks);
    let healthy_perf = mean_perf(&healthy);

    // Progressive diagnosis over a bugged rank's DGEMM fragments, pooled
    // with healthy ranks' fragments of the same state (inter-process
    // comparison — the capability the paper stresses perf/vSensor lack).
    let diagnosis = diagnose_hottest_edge(&run_pool(&run.shipped));

    Fig15Run { map, bugged_ranks, bugged_perf, healthy_perf, diagnosis }
}

/// Run the experiment and format the report.
pub fn run(opts: &ExpOpts) -> String {
    let r = analyze(opts);
    let mut out = header(
        "Figure 15 (§6.5.1 hardware-bug case study)",
        "HPL on a dual-socket node with the L2-eviction bug on socket 1",
    );
    out.push_str(&vapro_core::viz::render_heatmap(&r.map, 36));
    out.push_str(&format!(
        "\nsocket-1 ranks {:?}…: mean perf {:.3}; healthy ranks: {:.3}\n",
        &r.bugged_ranks[..r.bugged_ranks.len().min(4)],
        r.bugged_perf,
        r.healthy_perf
    ));
    if let Some(d) = &r.diagnosis {
        out.push_str(&format!("diagnosis culprits: {:?}\n", d.culprits));
        if let Some(be) = d.impact_share(Factor::BackendBound) {
            out.push_str(&format!(
                "backend-bound share of the slowdown: {:.1}% (paper: 96.6%)\n",
                be * 100.0
            ));
        }
        // Taxonomy note: lines the bug evicts from L2 are re-fetched from
        // L3 — the paper's event set books those stalls as "L2 bound"
        // (stalls with an L2 miss outstanding, resolved below L2), which
        // is this model's L3Bound level.
        if let Some(l3) = d.impact_share(Factor::L3Bound) {
            out.push_str(&format!(
                "L2-miss/L3-resolved share: {:.1}% (paper's 'L2 bound': 48.2%)\n",
                l3 * 100.0
            ));
        }
        if let Some(dram) = d.impact_share(Factor::DramBound) {
            out.push_str(&format!(
                "DRAM-bound share: {:.1}% (paper: 38.0%)\n",
                dram * 100.0
            ));
        }
    } else {
        out.push_str("diagnosis: no abnormal/normal split found\n");
    }
    out.push_str(&crate::common::maybe_json(
        opts,
        "fig15_heatmap",
        vapro_core::viz::heatmap_json(&r.map),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bugged_socket_is_slower_and_diagnosed_as_memory() {
        let opts = ExpOpts { ranks: Some(12), iterations: Some(25), ..ExpOpts::default() };
        let r = analyze(&opts);
        assert!(
            r.bugged_perf < r.healthy_perf - 0.05,
            "bugged {} vs healthy {}",
            r.bugged_perf,
            r.healthy_perf
        );
        let d = r.diagnosis.expect("diagnosis ran");
        // Backend is the S1 major…
        assert!(d.steps[0].report.of(Factor::BackendBound).unwrap().major);
        // …and the drill-down lands in the memory hierarchy (L2/L3/DRAM).
        assert!(
            d.culprits.iter().any(|c| matches!(
                c,
                Factor::L2Bound | Factor::L3Bound | Factor::DramBound | Factor::MemoryBound
            )),
            "culprits {:?}",
            d.culprits
        );
    }
}
