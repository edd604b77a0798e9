//! Fig. 17 (case study §6.5.2): 128-process Nekbone with one node whose
//! memory bandwidth is 15.5 % below spec. Vapro locates the slow node's
//! ranks; the breakdown attributes the slowdown to backend bound
//! (paper: 97.2 %), nearly all of it memory bound. Replacing the node
//! gave the paper a 1.24× speedup.

use crate::common::{diagnose_hottest_edge, header, run_pool, vapro_cf, ExpOpts};
use vapro::harness::{run_bare, run_under_vapro_binned};
use vapro_apps::AppParams;
use vapro_core::diagnose::{DiagnosisReport, Factor};
use vapro_sim::{NoiseKind, SimConfig, TargetSet};

/// The Fig. 17 analysis output.
pub struct Fig17Run {
    /// Computation heat map.
    pub map: vapro_core::HeatMap,
    /// Ranks on the degraded node.
    pub slow_ranks: Vec<usize>,
    /// Whether the top detected region covers the slow node.
    pub located: bool,
    /// The diagnosis.
    pub diagnosis: Option<DiagnosisReport>,
    /// Makespan with the bad node present.
    pub slow_makespan_s: f64,
    /// Makespan with the node replaced (healthy machine).
    pub fixed_makespan_s: f64,
}

/// Run the scenario.
pub fn analyze(opts: &ExpOpts) -> Fig17Run {
    let ranks = opts.resolve_ranks(48, 128);
    let iters = opts.resolve_iters(25);
    let params = AppParams::default().with_iterations(iters);
    let base = SimConfig::new(ranks).with_seed(opts.seed);
    let slow_node = base.topology.nodes / 2;
    let slow_ranks = base.topology.ranks_on_node(slow_node, ranks);
    let cfg = base.clone().with_noise(crate::common::always(
        NoiseKind::SlowMemoryNode { bw_factor: 0.845 },
        TargetSet::Nodes(vec![slow_node]),
    ));

    let vcfg = vapro_cf().with_counters(vapro_pmu::events::s3_memory_set());
    let run = run_under_vapro_binned(&cfg, &vcfg, 40, |ctx| {
        vapro_apps::nekbone::run(ctx, &params)
    });
    let located = run
        .detection
        .comp_regions
        .first()
        .is_some_and(|r| slow_ranks.iter().any(|&v| r.covers_rank(v)));

    // Diagnose the pooled hottest edge (inter-process comparison).
    let diagnosis = diagnose_hottest_edge(&run_pool(&run.shipped));

    // The fix: replace the node (run on a healthy machine).
    let fixed = run_bare(&base, |ctx| vapro_apps::nekbone::run(ctx, &params));

    Fig17Run {
        map: run.detection.comp_map,
        slow_ranks,
        located,
        diagnosis,
        slow_makespan_s: run.makespan.as_secs_f64(),
        fixed_makespan_s: fixed.as_secs_f64(),
    }
}

/// Run the experiment and format the report.
pub fn run(opts: &ExpOpts) -> String {
    let r = analyze(opts);
    let mut out = header(
        "Figure 17 (§6.5.2 memory-problem case study)",
        "Nekbone with one degraded-bandwidth node",
    );
    out.push_str(&vapro_core::viz::render_heatmap(&r.map, 24));
    out.push_str(&format!(
        "\nslow-node ranks {:?}… located by Vapro: {}\n",
        &r.slow_ranks[..r.slow_ranks.len().min(4)],
        r.located
    ));
    if let Some(d) = &r.diagnosis {
        if let Some(be) = d.impact_share(Factor::BackendBound) {
            out.push_str(&format!(
                "backend-bound share: {:.1}% (paper: 97.2%)\n",
                be * 100.0
            ));
        }
        if let Some(mem) = d.impact_share(Factor::MemoryBound) {
            out.push_str(&format!(
                "memory-bound share: {:.1}% (paper: nearly all of backend)\n",
                mem * 100.0
            ));
        }
        out.push_str(&format!("culprits: {:?}\n", d.culprits));
    }
    out.push_str(&format!(
        "replacing the node: {:.3}s → {:.3}s = {:.2}x speedup (paper: 1.24x)\n",
        r.slow_makespan_s,
        r.fixed_makespan_s,
        r.slow_makespan_s / r.fixed_makespan_s
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slow_node_is_located_and_memory_bound() {
        // 48 ranks = 2 Tianhe-like nodes; node 1 is degraded.
        let opts = ExpOpts { ranks: Some(48), iterations: Some(20), ..ExpOpts::default() };
        let r = analyze(&opts);
        assert!(r.located, "slow node not located");
        let d = r.diagnosis.expect("diagnosis ran");
        let be = d.impact_share(Factor::BackendBound).expect("backend analysed");
        assert!(be > 0.6, "backend share {be}");
        let mem = d.impact_share(Factor::MemoryBound).expect("memory analysed");
        assert!(mem > 0.5, "memory share {mem}");
        // Replacing the node speeds the job up.
        assert!(r.slow_makespan_s / r.fixed_makespan_s > 1.03);
    }
}
