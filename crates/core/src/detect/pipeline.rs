//! The end-to-end detection pipeline over one sealed [`ColumnarPool`]
//! (a streamed window, or — as a test reference — per-rank STGs pooled
//! by state label): cluster each edge/vertex lane, normalise, build heat
//! maps per category, and grow variance regions.
//!
//! Because SPMD ranks execute the same code, fragments from the *same
//! state* on *different ranks* belong to the same clustering population —
//! which is exactly what enables the inter-process detection of §3.5 and
//! the cross-process comparisons of the HPL case study (§6.5.1).
//!
//! A window pays for its rows, not its lanes: the clustering work lanes,
//! the vertex lanes' cluster table and the makespan lane are an
//! `AnalysisScratch` the streaming server recycles beside the sealed
//! pool; the three series are sized once from the kind column; and a
//! rare path shares its lane's interned label ([`RareLocation`]) rather
//! than formatting one.

use crate::clustering::{ClusterScratch, ClusterTable, LaneClusters};
use crate::columnar::{ColumnarPool, LaneView, PoolView};
use crate::config::VaproConfig;
use crate::detect::heatmap::HeatMap;
use crate::detect::normalize::{normalize_cluster_outcome_view, CategorySeries};
use crate::detect::region::{grow_regions, VarianceRegion};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// Where a rare path ran: its lane's interned label, or the two of an
/// edge lane, shared with the sealed window they came from — a rare path
/// costs a reference count, not a string. `Display` writes a vertex's
/// label, and an edge as `from -> to`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RareLocation {
    /// A state (invocation) lane.
    Vertex(Arc<str>),
    /// A transition (computation) lane: from, to.
    Edge(Arc<str>, Arc<str>),
}

impl fmt::Display for RareLocation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RareLocation::Vertex(label) => f.write_str(label),
            RareLocation::Edge(from, to) => write!(f, "{from} -> {to}"),
        }
    }
}

/// A rarely-executed path flagged by Algorithm 1's post-processing:
/// few executions but potentially long — the user should check whether it
/// represents abnormal behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct RarePath {
    /// The owning state / transition.
    pub location: RareLocation,
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

/// The work buffers of one window's detection that its report does not
/// keep: the clustering kernel's lanes, the vertex lanes' cluster table
/// (a vertex lane's clustering is read once and forgotten; diagnosis
/// pools computation fragments, which live on edges) and the per-rank
/// makespan lane. The streaming server recycles one beside each sealed
/// window's [`ColumnarPool`], so a window's analysis allocates for what
/// its report holds, not once per lane.
#[derive(Debug, Default)]
pub(crate) struct AnalysisScratch {
    kernel: ClusterScratch,
    vertex_clusters: ClusterTable,
    rank_ends: Vec<u64>,
}

/// Run detection over a sealed pool — a streamed window, or shipped
/// frames gathered by [`ColumnarPool::from_batches`] — with work buffers
/// of its own.
pub fn detect_columnar(
    pool: &ColumnarPool,
    nranks: usize,
    bins: usize,
    cfg: &VaproConfig,
) -> DetectionResult {
    detect_with(pool, nranks, bins, cfg, &mut AnalysisScratch::default())
}

/// [`detect_columnar`] on recycled work buffers.
///
/// Locations (vertices, then edges, both in label order) are analysed
/// one after another on the calling thread, each running the cluster →
/// rare-path → normalise chain and appending straight into the window's
/// series and table. What runs in parallel is windows: the analysis
/// stage, `analyze_windows` and the fleet's per-job finish hand whole
/// windows to the pool.
pub(crate) fn detect_with(
    pool: &ColumnarPool,
    nranks: usize,
    bins: usize,
    cfg: &VaproConfig,
    scratch: &mut AnalysisScratch,
) -> DetectionResult {
    let AnalysisScratch { kernel, vertex_clusters, rank_ends } = scratch;
    let all = pool.all();
    let mut series = CategorySeries::with_room_for(all.kinds());
    let mut rare_paths = Vec::new();
    let mut covered_ns = 0.0f64;
    let (proxy, threshold) = (&cfg.proxy_counters, cfg.cluster_threshold);
    vertex_clusters.reset(cfg.min_cluster_size);
    for i in 0..pool.num_vertices() {
        let (label, lane) = pool.vertex(i);
        vertex_clusters.clear();
        let clusters = vertex_clusters.push_lane_with(&lane, proxy, threshold, kernel);
        let location = || RareLocation::Vertex(Arc::clone(label));
        covered_ns += analyse_lane(lane, &clusters, location, &mut rare_paths, &mut series);
    }
    // The edge locations' clusterings, in location order.
    let mut edge_clusters = ClusterTable::new(cfg.min_cluster_size);
    let edge_rows = (0..pool.num_edges()).map(|i| pool.edge(i).2.len()).sum();
    edge_clusters.reserve(pool.num_edges(), edge_rows, proxy.len());
    for i in 0..pool.num_edges() {
        let (from, to, lane) = pool.edge(i);
        let clusters = edge_clusters.push_lane_with(&lane, proxy, threshold, kernel);
        let location = || RareLocation::Edge(Arc::clone(from), Arc::clone(to));
        covered_ns += analyse_lane(lane, &clusters, location, &mut rare_paths, &mut series);
    }

    // Coverage: covered fragment time over total execution time (sum of
    // per-rank makespans). Grouping by the fragments' own rank ids keeps
    // the metric identical whether fragments arrive as per-rank STGs or
    // as one reassembled wire-format graph.
    let total_ns = total_makespan_ns(all, nranks, rank_ends);
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

/// One location's share of the window after its clustering: its rare
/// clusters onto `rare_paths` (labelled by `location`, only called when
/// there is one), its usable clusters normalised into `series`; returns
/// the time its usable clusters cover, summed per location first and
/// then into the window total by the caller.
fn analyse_lane(
    lane: LaneView<'_>,
    clusters: &LaneClusters<'_>,
    location: impl Fn() -> RareLocation,
    rare_paths: &mut Vec<RarePath>,
    series: &mut CategorySeries,
) -> f64 {
    let mut lane_ns = 0.0f64;
    for c in clusters.usable() {
        lane_ns += cluster_time(&lane, c.members);
    }
    for c in clusters.rare() {
        rare_paths.push(RarePath {
            location: location(),
            count: c.members.len(),
            total_ns: cluster_time(&lane, c.members),
        });
    }
    normalize_cluster_outcome_view(&lane, clusters, series, None);
    lane_ns
}

/// Sum over ranks of each rank's last fragment end, added in ascending
/// rank order. Rank ids below `nranks` (every admitted frame's) take a
/// dense per-rank lane, `dense`'s (work space, overwritten); anything
/// else — a one-shot caller's sparse ids — falls through to a map whose
/// keys all sort after the dense ones, so the `f64` summation order is
/// ascending rank either way. Every fragment is in exactly one lane, so
/// the whole pool's columns are the whole population.
fn total_makespan_ns(all: LaneView<'_>, nranks: usize, dense: &mut Vec<u64>) -> f64 {
    dense.clear();
    dense.resize(nranks, 0);
    let mut sparse: BTreeMap<usize, u64> = BTreeMap::new();
    for (&rank, &end_ns) in all.ranks().iter().zip(all.ends()) {
        let end = match dense.get_mut(rank as usize) {
            Some(end) => end,
            None => sparse.entry(rank as usize).or_insert(0),
        };
        *end = (*end).max(end_ns);
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
        let path =
            |total_ns: f64| RarePath { location: RareLocation::Vertex("x".into()), count: 1, total_ns };
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
        let vlabels: Vec<&str> = (0..pool.num_vertices()).map(|i| &**pool.vertex(i).0).collect();
        assert!(vlabels.is_sorted(), "{vlabels:?}");
        let elabels: Vec<(&str, &str)> = (0..pool.num_edges())
            .map(|i| {
                let (from, to, _) = pool.edge(i);
                (&**from, &**to)
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
