//! The end-to-end detection pipeline over one sealed [`ColumnarPool`]
//! (a streamed window, or — as a test reference — per-rank STGs pooled
//! by state label): cluster each edge/vertex lane, normalise, build heat
//! maps per category, and grow variance regions.
//!
//! Because SPMD ranks execute the same code, fragments from the *same
//! state* on *different ranks* belong to the same clustering population —
//! which is exactly what enables the inter-process detection of §3.5 and
//! the cross-process comparisons of the HPL case study (§6.5.1).

use crate::clustering::ClusterTable;
use crate::columnar::{ColumnarPool, LaneView, PoolView};
use crate::config::VaproConfig;
use crate::detect::heatmap::HeatMap;
use crate::detect::normalize::{normalize_cluster_outcome_view, CategorySeries};
use crate::detect::region::{grow_regions, VarianceRegion};
use std::collections::BTreeMap;

/// A rarely-executed path flagged by Algorithm 1's post-processing:
/// few executions but potentially long — the user should check whether it
/// represents abnormal behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct RarePath {
    /// Label of the owning state / transition.
    pub location: String,
    /// Number of fragments.
    pub count: usize,
    /// Total time spent in them, ns.
    pub total_ns: f64,
}

/// Full detection output.
#[derive(Debug)]
pub struct DetectionResult {
    /// Heat map of computation performance.
    pub comp_map: HeatMap,
    /// Heat map of communication performance.
    pub comm_map: HeatMap,
    /// Heat map of IO performance.
    pub io_map: HeatMap,
    /// Variance regions per category, ranked by loss.
    pub comp_regions: Vec<VarianceRegion>,
    /// Communication variance regions.
    pub comm_regions: Vec<VarianceRegion>,
    /// IO variance regions.
    pub io_regions: Vec<VarianceRegion>,
    /// Rare paths flagged for user attention.
    pub rare_paths: Vec<RarePath>,
    /// The merged, normalised series (kept for diagnosis and plotting).
    pub series: CategorySeries,
    /// Detection coverage: fraction of total execution time spent inside
    /// usable fixed-workload fragments (the paper's coverage metric, §6.2).
    pub coverage: f64,
    /// Cluster outcomes of the edge lanes, one table lane per pool edge
    /// (label order). Diagnosis clusters with the same parameters, so a
    /// [`crate::diagnose::DiagnosisBatch`] over the same pool can seed
    /// from these and never re-cluster a lane.
    pub edge_clusters: ClusterTable,
}

/// One pooled location to analyse: a vertex or an edge, tagged with the
/// borrowed label(s) the rare-path labels are built from.
#[derive(Clone, Copy)]
enum Location<'k> {
    Vertex(&'k str),
    Edge(&'k str, &'k str),
}

/// Run detection over a sealed pool — a streamed window, or shipped
/// frames gathered by [`ColumnarPool::from_batches`].
///
/// Locations (vertices, then edges, both in label order) are analysed
/// one after another on the calling thread, each running the cluster →
/// rare-path → normalise chain and appending straight into the window's
/// series and table. What runs in parallel is windows: the analysis
/// stage, `analyze_windows` and the fleet's per-job finish hand whole
/// windows to the pool.
pub fn detect_columnar(
    pool: &ColumnarPool,
    nranks: usize,
    bins: usize,
    cfg: &VaproConfig,
) -> DetectionResult {
    let locations: Vec<(Location<'_>, LaneView<'_>)> = (0..pool.num_vertices())
        .map(|i| {
            let (label, view) = pool.vertex(i);
            (Location::Vertex(label), view)
        })
        .chain((0..pool.num_edges()).map(|i| {
            let (from, to, view) = pool.edge(i);
            (Location::Edge(from, to), view)
        }))
        .collect();
    let mut series = CategorySeries::default();
    let mut rare_paths = Vec::new();
    let mut covered_ns = 0.0f64;
    // The edge locations' clusterings, in location order. Vertex
    // outcomes are not kept (diagnosis pools computation fragments,
    // which live on edges): a vertex lane's clustering is read once and
    // forgotten.
    let mut edge_clusters = ClusterTable::new(cfg.min_cluster_size);
    let mut vertex_clusters = ClusterTable::new(cfg.min_cluster_size);
    for (loc, lane) in &locations {
        let table = match loc {
            Location::Vertex(_) => {
                vertex_clusters.clear();
                &mut vertex_clusters
            }
            Location::Edge(..) => &mut edge_clusters,
        };
        let clusters = table.push_lane(lane, &cfg.proxy_counters, cfg.cluster_threshold);
        // Summed per location first, then into the window total.
        let mut lane_ns = 0.0f64;
        for c in clusters.usable() {
            lane_ns += cluster_time(lane, c.members);
        }
        covered_ns += lane_ns;
        // Rare-path labels are built lazily — only locations that
        // actually have rare clusters pay for label formatting.
        let mut label: Option<String> = None;
        for c in clusters.rare() {
            let label = label.get_or_insert_with(|| match loc {
                Location::Vertex(s) => s.to_string(),
                Location::Edge(f, t) => format!("{f} -> {t}"),
            });
            rare_paths.push(RarePath {
                location: label.clone(),
                count: c.members.len(),
                total_ns: cluster_time(lane, c.members),
            });
        }
        normalize_cluster_outcome_view(lane, &clusters, &mut series, None);
    }

    // Coverage: covered fragment time over total execution time (sum of
    // per-rank makespans). Grouping by the fragments' own rank ids keeps
    // the metric identical whether fragments arrive as per-rank STGs or
    // as one reassembled wire-format graph. Every fragment is in exactly
    // one pool, so walking the pools visits the whole population.
    let total_ns = total_makespan_ns(&locations, nranks);
    let coverage = if total_ns > 0.0 { (covered_ns / total_ns).min(1.0) } else { 0.0 };

    let build = |points: &[crate::detect::normalize::PerfPoint]| {
        if points.is_empty() {
            HeatMap::new(vapro_sim::VirtualTime::ZERO, 1, 1, nranks.max(1))
        } else {
            HeatMap::spanning(points, bins, nranks.max(1))
        }
    };
    let comp_map = build(&series.computation);
    let comm_map = build(&series.communication);
    let io_map = build(&series.io);
    let comp_regions = grow_regions(&comp_map, cfg.perf_threshold);
    let comm_regions = grow_regions(&comm_map, cfg.perf_threshold);
    let io_regions = grow_regions(&io_map, cfg.perf_threshold);

    sort_rare_paths(&mut rare_paths);

    DetectionResult {
        comp_map,
        comm_map,
        io_map,
        comp_regions,
        comm_regions,
        io_regions,
        rare_paths,
        series,
        coverage,
        edge_clusters,
    }
}

/// Sum over ranks of each rank's last fragment end, added in ascending
/// rank order. Rank ids below `nranks` (every admitted frame's) take a
/// dense per-rank lane; anything else — a one-shot caller's sparse ids —
/// falls through to a map whose keys all sort after the dense ones, so
/// the `f64` summation order is ascending rank either way.
fn total_makespan_ns(locations: &[(Location<'_>, LaneView<'_>)], nranks: usize) -> f64 {
    let mut dense = vec![0u64; nranks];
    let mut sparse: BTreeMap<usize, u64> = BTreeMap::new();
    for (_, lane) in locations {
        for i in 0..lane.len() {
            let rank = lane.rank(i);
            let end = match dense.get_mut(rank) {
                Some(end) => end,
                None => sparse.entry(rank).or_insert(0),
            };
            *end = (*end).max(lane.end(i).ns());
        }
    }
    dense.iter().chain(sparse.values()).map(|&e| e as f64).sum()
}

/// Longest total first. `total_cmp`, so a NaN total sorts ahead of the
/// finite ones instead of panicking the pool worker that is analysing
/// the window.
fn sort_rare_paths(paths: &mut [RarePath]) {
    paths.sort_by(|a, b| b.total_ns.total_cmp(&a.total_ns));
}

fn cluster_time<P: PoolView + ?Sized>(pool: &P, members: &[u32]) -> f64 {
    members.iter().map(|&m| pool.duration_ns(m as usize)).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::oneshot::tests::{whole_pool, whole_run};
    use crate::fragment::{Fragment, FragmentKind};
    use crate::stg::{StateKey, Stg};
    use vapro_pmu::{CounterDelta, CounterId};
    use vapro_sim::{CallSite, VirtualTime};

    /// Build a one-rank STG: a loop of invocations at `site` with
    /// computation fragments of the given durations between them.
    fn stg_with_loop(rank: usize, durations: &[u64], ins: f64) -> Stg {
        let mut stg = Stg::new();
        let start = stg.state(StateKey::Start);
        let site = stg.state(StateKey::Site(CallSite("loop:MPI_Allreduce")));
        let _first = stg.transition(start, site);
        let selfloop = stg.transition(site, site);
        let mut t = 0u64;
        for &d in durations {
            // Invocation fragment (constant cost 10ns).
            stg.attach_vertex_fragment(
                site,
                Fragment {
                    rank,
                    kind: FragmentKind::Communication,
                    start: VirtualTime::from_ns(t),
                    end: VirtualTime::from_ns(t + 10),
                    counters: CounterDelta::default(),
                    args: vec![64.0, 1.0],
                },
            );
            t += 10;
            // Computation fragment of duration d.
            let mut c = CounterDelta::default();
            c.put(CounterId::TotIns, ins);
            stg.attach_edge_fragment(
                selfloop,
                Fragment {
                    rank,
                    kind: FragmentKind::Computation,
                    start: VirtualTime::from_ns(t),
                    end: VirtualTime::from_ns(t + d),
                    counters: c,
                    args: vec![],
                },
            );
            t += d;
        }
        stg
    }

    #[test]
    fn quiet_run_detects_nothing() {
        let stgs: Vec<Stg> = (0..4).map(|r| stg_with_loop(r, &[100; 20], 1000.0)).collect();
        let res = whole_run(&stgs, 4, 16, &VaproConfig::default()).result;
        assert!(res.comp_regions.is_empty(), "{:?}", res.comp_regions);
        assert!(res.coverage > 0.5, "coverage {}", res.coverage);
        // One table lane per pooled edge lane, in edge order.
        assert_eq!(res.edge_clusters.num_lanes(), whole_pool(&stgs).num_edges());
    }

    #[test]
    fn slow_rank_is_detected_spatially() {
        // Rank 2 computes 2× slower with the same workload.
        let mut stgs: Vec<Stg> = (0..4).map(|r| stg_with_loop(r, &[100; 20], 1000.0)).collect();
        stgs[2] = stg_with_loop(2, &[200; 20], 1000.0);
        let res = whole_run(&stgs, 4, 8, &VaproConfig::default()).result;
        assert!(!res.comp_regions.is_empty());
        assert!(res.comp_regions[0].covers_rank(2));
        assert!(!res.comp_regions[0].covers_rank(0));
        // ~50% performance in the slow region.
        assert!((res.comp_regions[0].mean_perf - 0.5).abs() < 0.1);
    }

    #[test]
    fn temporal_variance_is_detected_within_one_rank() {
        // One rank: fast for 15 iterations, slow for 5, fast again.
        let mut durs = vec![100u64; 15];
        durs.extend([300; 5]);
        durs.extend([100; 15]);
        let stgs = vec![stg_with_loop(0, &durs, 1000.0)];
        let res = whole_run(&stgs, 1, 35, &VaproConfig::default()).result;
        assert!(!res.comp_regions.is_empty());
        let region = &res.comp_regions[0];
        // The slow window is in the middle of the run.
        assert!(region.bin_range.0 > 0);
        assert!(region.bin_range.1 < 34);
    }

    #[test]
    fn different_workloads_do_not_mask_variance() {
        // Alternating small/large workloads (runtime-fixed, compile-time
        // variable — the AMG situation). Each class is internally stable,
        // so no variance should be reported even though durations differ 10×.
        let mut stg = Stg::new();
        let start = stg.state(StateKey::Start);
        let site = stg.state(StateKey::Site(CallSite("amg:MPI_Waitall")));
        stg.transition(start, site);
        let e = stg.transition(site, site);
        let mut t = 0u64;
        for i in 0..40 {
            let (d, ins) = if i % 2 == 0 { (100u64, 1000.0) } else { (1000u64, 10_000.0) };
            let mut c = CounterDelta::default();
            c.put(CounterId::TotIns, ins);
            stg.attach_edge_fragment(
                e,
                Fragment {
                    rank: 0,
                    kind: FragmentKind::Computation,
                    start: VirtualTime::from_ns(t),
                    end: VirtualTime::from_ns(t + d),
                    counters: c,
                    args: vec![],
                },
            );
            t += d + 10;
        }
        let res = whole_run(&[stg], 1, 16, &VaproConfig::default()).result;
        assert!(res.comp_regions.is_empty(), "{:?}", res.comp_regions);
    }

    #[test]
    fn rare_path_order_survives_a_nan_total() {
        let path = |total_ns: f64| RarePath { location: "x".into(), count: 1, total_ns };
        let mut paths = vec![path(1.0), path(f64::NAN), path(3.0), path(2.0)];
        sort_rare_paths(&mut paths);
        assert!(paths[0].total_ns.is_nan());
        let finite: Vec<f64> = paths[1..].iter().map(|p| p.total_ns).collect();
        assert_eq!(finite, [3.0, 2.0, 1.0]);
    }

    #[test]
    fn rare_paths_are_reported_with_time() {
        let mut stg = stg_with_loop(0, &[100; 10], 1000.0);
        // One huge, once-executed fragment on a separate edge.
        let a = stg.state(StateKey::Site(CallSite("init:read")));
        let b = stg.state(StateKey::Site(CallSite("loop:MPI_Allreduce")));
        let e = stg.transition(a, b);
        let mut c = CounterDelta::default();
        c.put(CounterId::TotIns, 1e9);
        stg.attach_edge_fragment(
            e,
            Fragment {
                rank: 0,
                kind: FragmentKind::Computation,
                start: VirtualTime::ZERO,
                end: VirtualTime::from_secs(1),
                counters: c,
                args: vec![],
            },
        );
        let res = whole_run(&[stg], 1, 8, &VaproConfig::default()).result;
        assert!(!res.rare_paths.is_empty());
        assert!(res.rare_paths[0].total_ns >= 1e9);
        assert_eq!(res.rare_paths[0].count, 1);
    }

    #[test]
    fn stg_lanes_are_sorted_by_label() {
        let stgs: Vec<Stg> = (0..3).map(|r| stg_with_loop(r, &[100; 4], 1000.0)).collect();
        let pool = whole_pool(&stgs);
        let vlabels: Vec<&str> = (0..pool.num_vertices()).map(|i| pool.vertex(i).0).collect();
        assert!(vlabels.is_sorted(), "{vlabels:?}");
        let elabels: Vec<(&str, &str)> = (0..pool.num_edges())
            .map(|i| {
                let (from, to, _) = pool.edge(i);
                (from, to)
            })
            .collect();
        assert!(elabels.is_sorted(), "{elabels:?}");
        // Cross-rank pooling: each vertex lane holds all 3 ranks' fragments.
        for i in 0..pool.num_vertices() {
            assert_eq!(pool.vertex(i).1.len(), 3 * 4);
        }
    }

    #[test]
    fn coverage_reflects_usable_fraction() {
        // All fragments usable (same workload, ≥5 repeats).
        let stgs = vec![stg_with_loop(0, &[1000; 50], 1000.0)];
        let res = whole_run(&stgs, 1, 8, &VaproConfig::default()).result;
        assert!(res.coverage > 0.8, "coverage {}", res.coverage);
        // A run with a single non-repeated fragment has no usable cluster.
        let mut stg = Stg::new();
        let s0 = stg.state(StateKey::Start);
        let s1 = stg.state(StateKey::Site(CallSite("once")));
        let e = stg.transition(s0, s1);
        stg.attach_edge_fragment(
            e,
            Fragment {
                rank: 0,
                kind: FragmentKind::Computation,
                start: VirtualTime::ZERO,
                end: VirtualTime::from_ns(1000),
                counters: CounterDelta::default(),
                args: vec![],
            },
        );
        let res2 = whole_run(&[stg], 1, 8, &VaproConfig::default()).result;
        assert_eq!(res2.coverage, 0.0);
    }
}
