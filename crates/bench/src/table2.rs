//! Table 2: verification of the fixed-workload identification algorithm.
//! For CG, FT, EP and PageRank (16 processes/threads), the exact
//! execution paths (ground-truth workload classes) are recorded and
//! compared with Vapro's clustering through completeness (C),
//! homogeneity (H) and V-Measure (V).
//!
//! Expected shape: C = 1.0 everywhere (fragments with the same workload
//! land in the same cluster); H = 1.0 for CG/FT/EP; H < 1 for PageRank,
//! whose threads have *approximately equal* (but genuinely different)
//! partition workloads that the 5 % threshold merges — the paper's 0.74.

use crate::common::{header, run_pool, vapro_cf, ExpOpts};
use vapro::harness::run_under_vapro;
use vapro_apps::{AppKind, AppParams};
use vapro_core::clustering::cluster_pool;
use vapro_core::fragment::DEFAULT_PROXY;
use vapro_core::PoolView;
use vapro_sim::{SimConfig, Topology};
use vapro_stats::{v_measure, VMeasure};

/// One Table 2 row.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Application name.
    pub name: &'static str,
    /// Number of computation fragments evaluated.
    pub fragments: usize,
    /// The clustering-quality scores.
    pub scores: VMeasure,
}

/// How ground truth is labelled for one app's pooled computation
/// fragments.
enum Truth {
    /// Every fragment of one pooled state shares a class
    /// (plus a runtime-class id shared across ranks): CG, FT, EP.
    ByStateAndSharedClass,
    /// Each rank's partition is its own class: PageRank.
    ByStateAndRank,
}

fn evaluate(name: &'static str, truth: Truth, opts: &ExpOpts) -> Table2Row {
    let app = vapro_apps::find_app(name).expect("registered app");
    let ranks = opts.resolve_ranks(16, 16);
    let iters = opts.resolve_iters(12);
    let params = AppParams::default().with_iterations(iters);
    let topo = match app.kind {
        AppKind::MultiProcess => Topology::tianhe_like(ranks),
        AppKind::MultiThreaded => Topology::single_node(ranks),
    };
    let cfg = SimConfig::new(ranks).with_topology(topo).with_seed(opts.seed);
    let run = run_under_vapro(&cfg, &vapro_cf(), |ctx| (app.run)(ctx, &params));

    let pool = run_pool(&run.shipped);
    let mut class_labels: Vec<usize> = Vec::new();
    let mut cluster_labels: Vec<usize> = Vec::new();
    let mut label_base = 0usize;
    let mut cluster_base = 0usize;

    for state_idx in 0..pool.num_edges() {
        // Edge lanes hold computation fragments only (STG Definition 1).
        let comp = pool.edge(state_idx).2;
        if comp.len() < 2 {
            continue;
        }
        // Ground truth per fragment, from the recorded execution paths —
        // i.e. from *structural* knowledge of the app, not from measured
        // counters (which carry PMU jitter):
        for i in 0..comp.len() {
            let class = match truth {
                // CG/FT/EP execute exactly one workload per STG edge (every
                // traversal of the same state transition runs the same
                // instrumented path), so the edge *is* the class.
                Truth::ByStateAndSharedClass => state_idx << 20,
                // PageRank: each thread's graph partition is its own
                // (slightly different) workload.
                Truth::ByStateAndRank => comp.rank(i) ^ (state_idx << 20),
            };
            class_labels.push(class.wrapping_add(label_base));
        }
        // Vapro's clusters over the same pool.
        let outcome = cluster_pool(&comp, &DEFAULT_PROXY, 0.05, 2);
        let labels = outcome.all_labels(comp.len());
        cluster_labels.extend(labels.iter().map(|l| l + cluster_base));
        cluster_base += outcome.usable.len() + outcome.rare.len();
        label_base = label_base.wrapping_add(1 << 24);
    }

    Table2Row {
        name,
        fragments: class_labels.len(),
        scores: v_measure(&class_labels, &cluster_labels),
    }
}

/// Evaluate all four Table 2 applications.
pub fn measure_all(opts: &ExpOpts) -> Vec<Table2Row> {
    vec![
        evaluate("CG", Truth::ByStateAndSharedClass, opts),
        evaluate("FT", Truth::ByStateAndSharedClass, opts),
        evaluate("EP", Truth::ByStateAndSharedClass, opts),
        evaluate("PageRank", Truth::ByStateAndRank, opts),
    ]
}

/// Run the experiment and format the report.
pub fn run(opts: &ExpOpts) -> String {
    let rows = measure_all(opts);
    let mut out = header(
        "Table 2",
        "Fixed-workload identification verified against ground-truth execution paths",
    );
    out.push_str(&format!(
        "{:<10} {:>10} {:>6} {:>6} {:>6}\n",
        "app", "fragments", "C", "H", "V"
    ));
    for r in &rows {
        out.push_str(&format!(
            "{:<10} {:>10} {:>6.2} {:>6.2} {:>6.2}\n",
            r.name,
            r.fragments,
            r.scores.completeness,
            r.scores.homogeneity,
            r.scores.v_measure
        ));
    }
    out.push_str(
        "\n(paper: C=H=V=1.00 for CG/FT/EP; PageRank H=0.74 from near-equal \
         per-thread workloads merged into one cluster)\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cg_ft_ep_cluster_perfectly() {
        let opts = ExpOpts { iterations: Some(8), ..ExpOpts::default() };
        for row in measure_all(&opts).iter().take(3) {
            assert!(
                row.scores.completeness > 0.99,
                "{} C = {}",
                row.name,
                row.scores.completeness
            );
            assert!(
                row.scores.homogeneity > 0.99,
                "{} H = {}",
                row.name,
                row.scores.homogeneity
            );
            assert!(row.fragments > 10, "{} too few fragments", row.name);
        }
    }

    #[test]
    fn pagerank_homogeneity_is_imperfect_but_complete() {
        let opts = ExpOpts { iterations: Some(8), ..ExpOpts::default() };
        let rows = measure_all(&opts);
        let pr = rows.iter().find(|r| r.name == "PageRank").unwrap();
        assert!(
            pr.scores.completeness > 0.95,
            "PageRank C = {}",
            pr.scores.completeness
        );
        assert!(
            pr.scores.homogeneity < 0.97,
            "PageRank H = {} (should be imperfect)",
            pr.scores.homogeneity
        );
        assert!(pr.scores.homogeneity > 0.3, "H = {}", pr.scores.homogeneity);
    }
}
