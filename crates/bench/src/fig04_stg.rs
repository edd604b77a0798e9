//! Fig. 4: the context-free STG of CG's nested communication loop —
//! irecv → send → wait sub-loops inside the outer iteration, collapsing
//! to one vertex per call-site with loop-back edges.

use crate::common::{header, vapro_cf, ExpOpts};
use vapro::harness::run_under_vapro;
use vapro_apps::AppParams;
use vapro_core::VaproConfig;
use vapro_sim::SimConfig;

/// Build CG's STG in both modes; returns (context-free, context-aware).
pub fn build_stgs(opts: &ExpOpts) -> (vapro_core::Stg, vapro_core::Stg) {
    let ranks = opts.resolve_ranks(4, 16);
    let params = AppParams::default().with_iterations(opts.resolve_iters(5));
    let cf = run_under_vapro(&SimConfig::new(ranks), &vapro_cf(), |ctx| {
        vapro_apps::npb::cg::run(ctx, &params)
    });
    let ca = run_under_vapro(&SimConfig::new(ranks), &VaproConfig::context_aware(), |ctx| {
        vapro_apps::npb::cg::run(ctx, &params)
    });
    (
        cf.stgs.into_iter().next().expect("rank 0"),
        ca.stgs.into_iter().next().expect("rank 0"),
    )
}

/// Run the experiment and format the report.
pub fn run(opts: &ExpOpts) -> String {
    let (cf, ca) = build_stgs(opts);
    let mut out = header("Figure 4", "Context-free STG of CG's nested loop (DOT format)");
    out.push_str(&cf.to_dot());
    out.push_str(&format!(
        "\ncontext-free:  {} states, {} edges\n",
        cf.num_states(),
        cf.num_edges()
    ));
    out.push_str(&format!(
        "context-aware: {} states, {} edges (warm-up and timed paths split, \
         as in the paper's §3.2 example)\n",
        ca.num_states(),
        ca.num_edges()
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_aware_splits_warmup_states() {
        let opts = ExpOpts { ranks: Some(2), iterations: Some(3), ..ExpOpts::default() };
        let (cf, ca) = build_stgs(&opts);
        // CF: start + 4 call-sites.
        assert_eq!(cf.num_states(), 5);
        // CA: warm-up and timed paths double the invocation states.
        assert_eq!(ca.num_states(), 9);
        assert!(ca.num_edges() > cf.num_edges());
    }

    #[test]
    fn loop_edges_accumulate_fragments() {
        let opts = ExpOpts { ranks: Some(2), iterations: Some(5), ..ExpOpts::default() };
        let (cf, _) = build_stgs(&opts);
        // Some edge must carry at least `iterations` fragments (the
        // loop-back edge of the repeated sub-loop).
        let max_edge = cf.edges().iter().map(|e| e.count).max().unwrap();
        assert!(max_edge >= 5, "max edge fragments {max_edge}");
    }
}
