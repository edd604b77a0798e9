//! The references the server is checked against, and the comparison
//! of their reports. [`analyze_windows`] hands each window, gathered
//! straight from the shipped frames, to the kernel a closed window gets
//! ([`analyze_pool`]) — no encoder, arena, sort, eviction or stage, so
//! it checks everything upstream of the kernel: a `WindowedIngestor`'s
//! reports must equal it bit for bit. [`diagnose_region`] is the naive
//! per-region drill-down (scan every lane, re-cluster the winner) that
//! `DiagnosisBatch` must agree with region for region.

use crate::plan::{plan_config, FaultPlan};
use rayon::prelude::*;
use vapro_core::detect::window::{windows_covering, Window};
use vapro_core::diagnose::diagnose_cluster;
use vapro_core::{
    analyze_pool, cluster_pool, ColumnarPool, DiagnosisReport, FragmentBatch, RegionOfInterest,
    Stg, VaproConfig, WindowReport,
};
use vapro_sim::VirtualTime;

/// Analyse the run in overlapped windows of `cfg.report_period`: each
/// window's fragments (from every batch, taken rank by rank and each
/// rank's in period order) are detected independently; windows run in
/// parallel. Per-window populations are transposed field by field —
/// zero `Fragment` clones.
pub fn analyze_windows<'b, B>(
    batches: B,
    nranks: usize,
    bins_per_window: usize,
    cfg: &VaproConfig,
) -> Vec<WindowReport>
where
    B: IntoIterator<Item = &'b FragmentBatch> + Clone + Sync,
{
    let t_end = batches.clone().into_iter().flat_map(FragmentBatch::fragments).map(|f| f.end).max();
    windows_covering(VirtualTime::ZERO, t_end.unwrap_or(VirtualTime::ZERO), cfg.report_period)
        .into_par_iter()
        .map(|window| {
            let pool = ColumnarPool::from_batches(batches.clone(), Some(window));
            analyze_pool(&pool, window, nranks, bins_per_window, cfg)
        })
        .collect()
}

/// Diagnose one region of interest over a run's pooled fragments: the
/// largest fixed-workload cluster of the region's
/// [`busiest_edge`](RegionOfInterest::busiest_edge), clustered afresh.
/// `None` when the region holds no usable cluster or no contrast.
pub fn diagnose_region(
    pooled: &ColumnarPool,
    roi: &RegionOfInterest,
    cfg: &VaproConfig,
) -> Option<DiagnosisReport> {
    let pool = pooled.edge(roi.busiest_edge(pooled)?).2;
    let (proxy, threshold) = (&cfg.proxy_counters, cfg.cluster_threshold);
    let outcome = cluster_pool(&pool, proxy, threshold, cfg.min_cluster_size);
    let cluster = outcome.usable.iter().max_by_key(|c| c.members.len())?;
    diagnose_cluster(pool, &cluster.members)
}

/// Each rank's STG cut as one frame covering all time — how a fixture
/// built as STGs reaches the references, which read frames.
pub fn whole_run_batches(stgs: &[Stg]) -> Vec<FragmentBatch> {
    let cut = |(rank, stg)| FragmentBatch::from_stg_starting_in(stg, rank, Window::ALL);
    stgs.iter().enumerate().map(cut).collect()
}

/// The one-shot windowed analysis of a plan's full synthetic data — the
/// bit-identity reference for clean streamed runs.
pub fn one_shot_reference(plan: &FaultPlan) -> Vec<WindowReport> {
    let cfg = plan_config(plan.period_ns());
    analyze_windows(&whole_run_batches(&plan.stgs()), plan.total_ranks(), 8, &cfg)
}

/// Equality of one report pair, as a `Result` naming the first
/// diverging field group.
pub fn report_pair_identical(g: &WindowReport, w: &WindowReport) -> Result<(), String> {
    if g.window != w.window {
        return Err(format!("window {:?} vs {:?}", g.window, w.window));
    }
    if g.result != w.result {
        return Err(format!("detection diverged in window {:?}", g.window));
    }
    if g.diagnoses != w.diagnoses {
        return Err(format!("diagnoses diverged in window {:?}", g.window));
    }
    if g.coverage != w.coverage {
        return Err(format!(
            "coverage diverged in window {:?}: {:?} vs {:?}",
            g.window, g.coverage, w.coverage
        ));
    }
    Ok(())
}

/// Equality of two report sequences (streamed vs one-shot, fleet vs
/// solo), as a `Result` so callers can surface the first divergence.
pub fn reports_identical(got: &[WindowReport], want: &[WindowReport]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} reports vs {} expected", got.len(), want.len()));
    }
    for (g, w) in got.iter().zip(want) {
        report_pair_identical(g, w)?;
    }
    Ok(())
}
