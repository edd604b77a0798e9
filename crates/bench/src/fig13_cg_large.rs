//! Fig. 13 (and the §6.4 text): large-scale CG under software noises on
//! two computing nodes. Vapro locates the two victim node-bands on the
//! heat map, quantifies the computation performance loss (paper: 42.8 %),
//! and the regression flags involuntary context switches as highly
//! significant (p < 0.001).

use crate::common::{computing_noise, header, hottest_edge, vapro_cf, ExpOpts};
use vapro::harness::{run_bare, run_under_vapro_binned};
use vapro_apps::AppParams;
use vapro_core::diagnose::{ols_impacts, Factor, FactorValues};
use vapro_core::{ColumnarPool, PoolView};
use vapro_pmu::CounterSet;
use vapro_sim::{NoiseSchedule, SimConfig, TargetSet, VirtualTime};

/// The Fig. 13 analysis output.
pub struct Fig13Run {
    /// Vapro's computation heat map.
    pub map: vapro_core::HeatMap,
    /// The victim nodes' rank ranges.
    pub victim_ranks: Vec<usize>,
    /// Mean normalised performance inside the detected regions.
    pub region_perf: Option<f64>,
    /// p-value of involuntary context switches in the OLS regression.
    pub invol_cs_p: Option<f64>,
    /// Detected regions count.
    pub regions: usize,
}

/// Run the scenario.
pub fn analyze(opts: &ExpOpts) -> Fig13Run {
    let ranks = opts.resolve_ranks(96, 2048);
    let iters = opts.resolve_iters(20);
    let params = AppParams::default().with_iterations(iters);
    let base = SimConfig::new(ranks).with_seed(opts.seed);

    // Two victim nodes, noise over the middle of the run.
    let span = run_bare(&base, |ctx| vapro_apps::npb::cg::run(ctx, &params));
    let start = VirtualTime::from_ns(span.ns() / 4);
    let end = VirtualTime::from_ns(3 * span.ns() / 4);
    let nodes = base.topology.nodes;
    let mut victims_nodes = vec![nodes / 3, 2 * nodes / 3];
    victims_nodes.dedup();
    let victim_ranks: Vec<usize> = victims_nodes
        .iter()
        .flat_map(|&n| base.topology.ranks_on_node(n, ranks))
        .collect();
    let noise = NoiseSchedule::quiet().with(computing_noise(
        TargetSet::Nodes(victims_nodes),
        start,
        end,
    ));
    let cfg = base.with_noise(noise);

    // Collect with the suspension counter set live so the regression can
    // see the context-switch counts.
    let vcfg = vapro_cf().with_counters(vapro_pmu::events::s2_suspension_set());
    let run = run_under_vapro_binned(&cfg, &vcfg, 48, |ctx| {
        vapro_apps::npb::cg::run(ctx, &params)
    });

    let region_perf = run
        .detection
        .comp_regions
        .iter()
        .find(|r| victim_ranks.iter().any(|&v| r.covers_rank(v)))
        .map(|r| r.mean_perf);

    // Regression over a victim rank's hottest-edge fragments.
    let invol_cs_p = victim_ranks.first().and_then(|&victim| {
        let pool = ColumnarPool::from_batches(&run.shipped[victim], None);
        let edge = hottest_edge(&pool)?;
        let members: Vec<u32> = (0..edge.len() as u32).collect();
        let factors = [Factor::InvoluntaryCs, Factor::VoluntaryCs, Factor::SoftPageFault];
        let fv = FactorValues::from_members(&edge, &members, CounterSet::all(), &factors)?;
        let (impacts, _) = ols_impacts(&fv)?;
        impacts
            .iter()
            .find(|i| i.factor == Factor::InvoluntaryCs)
            .map(|i| i.p_value)
    });

    Fig13Run {
        regions: run.detection.comp_regions.len(),
        map: run.detection.comp_map,
        victim_ranks,
        region_perf,
        invol_cs_p,
    }
}

/// Run the experiment and format the report.
pub fn run(opts: &ExpOpts) -> String {
    let r = analyze(opts);
    let mut out = header(
        "Figure 13",
        "Large-scale CG with computing noise on two nodes: Vapro detection",
    );
    out.push_str(&vapro_core::viz::render_heatmap(&r.map, 24));
    out.push_str(&format!(
        "\nvictim ranks: {:?}\ndetected regions: {}\nregion performance: {:?} \
         (paper reports a 42.8% computation loss)\n",
        &r.victim_ranks[..r.victim_ranks.len().min(8)],
        r.regions,
        r.region_perf
    ));
    out.push_str(&format!(
        "involuntary context switches: p = {:?} (paper: significant at p < 0.001)\n",
        r.invol_cs_p
    ));
    out.push_str(&crate::common::maybe_json(
        opts,
        "fig13_heatmap",
        vapro_core::viz::heatmap_json(&r.map),
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_node_noise_is_located_and_diagnosed() {
        // 96 ranks = 4 Tianhe-like nodes: victims on nodes 1 and 2,
        // bystanders elsewhere.
        let opts = ExpOpts { ranks: Some(96), iterations: Some(15), ..ExpOpts::default() };
        let r = analyze(&opts);
        let perf = r.region_perf.expect("variance detected on a victim node");
        // ~50% CPU steal → ~0.5 normalised performance (paper: 42.8% loss).
        assert!((perf - 0.5).abs() < 0.25, "region perf {perf}");
        let p = r.invol_cs_p.expect("regression ran");
        assert!(p < 0.001, "involuntary CS p-value {p}");
    }
}
