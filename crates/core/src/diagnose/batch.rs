//! Batched region diagnosis: merge once, index once, cluster once —
//! then diagnose every region.
//!
//! [`diagnose_region`](crate::diagnose::diagnose_region) re-pools all
//! STGs, re-scans every pool and re-clusters the winning pool *per
//! region*, which is affordable for a user clicking one heat-map region
//! but not for a server diagnosing every region of every closed window.
//! [`DiagnosisBatch`] amortises all three costs across regions:
//!
//! * **pool once** — the caller builds (or already has) the sealed
//!   [`ColumnarPool`]; the batch only borrows it;
//! * **interval index** — per edge pool, computation fragments sorted by
//!   start time with a prefix-maximum of end times, so the in-region
//!   time of a pool is a binary search plus a short scan instead of a
//!   full-pool sweep per (region, pool) pair;
//! * **cluster memoisation** — each pool is clustered at most once per
//!   batch (two regions choosing the same pool share the outcome), and
//!   detection's own [`ClusterTable`] of the edge lanes can seed the
//!   cache so the streaming server never re-clusters at all;
//! * **report memoisation** — a region only *selects* a pool; the
//!   drill-down population (the pool's dominant cluster, with its
//!   cross-rank normal reference) and therefore the whole
//!   [`DiagnosisReport`] are functions of the pool alone, so each pool
//!   runs the progressive drill-down at most once per batch no matter
//!   how many regions land on it.
//!
//! The per-region result is bit-identical to `diagnose_region` on the
//! same pool: the in-region time is an order-independent `u64`
//! sum, pool selection keeps the same first-best-wins tie-break, and
//! clustering is deterministic — property-tested in
//! `tests/property_tests.rs`.

use crate::clustering::{ClusterTable, LaneClusters};
use crate::columnar::{ColumnarPool, PoolView};
use crate::config::VaproConfig;
use crate::diagnose::driver::RegionOfInterest;
use crate::diagnose::progressive::{
    diagnose_progressively_with, DiagnosisReport, FragmentProvider,
};
use crate::fragment::{Fragment, FragmentKind};
use std::sync::OnceLock;
use vapro_pmu::CounterSet;

/// Interval index over one edge pool's computation fragments.
///
/// Fragments are sorted by start time; `prefix_max_end[i]` is the
/// maximum end time among the first `i + 1` sorted fragments. A region
/// `[t_start, t_end)` then overlaps exactly the sorted positions in
/// `[lo, ub)` where `ub` bounds `start < t_end` (binary search on the
/// sorted starts) and `lo` bounds `prefix_max_end > t_start` (binary
/// search on the monotone prefix maximum — everything before `lo` ends
/// at or before `t_start`). Only `[lo, ub)` is scanned for the rank
/// filter and the duration sum.
struct PoolIndex {
    starts: Vec<u64>,
    ends: Vec<u64>,
    durations: Vec<u64>,
    ranks: Vec<usize>,
    prefix_max_end: Vec<u64>,
}

impl PoolIndex {
    fn build<V: PoolView>(pool: V) -> PoolIndex {
        let mut rows: Vec<(u64, u64, u64, usize)> = (0..pool.len())
            .filter(|&i| pool.kind(i) == FragmentKind::Computation)
            .map(|i| {
                let (s, e) = (pool.start(i).ns(), pool.end(i).ns());
                (s, e, e.saturating_sub(s), pool.rank(i))
            })
            .collect();
        rows.sort_by_key(|r| r.0);
        let mut prefix_max_end = Vec::with_capacity(rows.len());
        let mut max_end = 0u64;
        for &(_, end, _, _) in &rows {
            max_end = max_end.max(end);
            prefix_max_end.push(max_end);
        }
        PoolIndex {
            starts: rows.iter().map(|r| r.0).collect(),
            ends: rows.iter().map(|r| r.1).collect(),
            durations: rows.iter().map(|r| r.2).collect(),
            ranks: rows.iter().map(|r| r.3).collect(),
            prefix_max_end,
        }
    }

    /// Total time (ns) this pool's computation fragments spend inside the
    /// region. A `u64` sum, so the answer is independent of summation
    /// order — which is what keeps the index bit-identical to the naive
    /// full-pool scan.
    fn in_region_ns(&self, roi: &RegionOfInterest) -> u64 {
        let (t_start, t_end) = (roi.t_start.ns(), roi.t_end.ns());
        let ub = self.starts.partition_point(|&s| s < t_end);
        let lo = self.prefix_max_end[..ub].partition_point(|&m| m <= t_start);
        let mut total = 0u64;
        for i in lo..ub {
            if self.ends[i] > t_start
                && self.ranks[i] >= roi.ranks.0
                && self.ranks[i] <= roi.ranks.1
            {
                total += self.durations[i];
            }
        }
        total
    }
}

/// The drill-down's [`FragmentProvider`]: the chosen cluster's members
/// are *indices* into a [`PoolView`], and each step projects their
/// counter sets into one reused scratch buffer, rebuilding the fragments
/// field by field from the view's accessors — zero full-population
/// [`Fragment`] clones (`Fragment::clone` and its debug counter are
/// bypassed).
pub struct ScratchProvider<'a, V: PoolView> {
    pool: V,
    members: &'a [u32],
    scratch: Vec<Fragment>,
}

impl<'a, V: PoolView> ScratchProvider<'a, V> {
    /// Provider over the cluster `members` of `pool`.
    pub fn new(pool: V, members: &'a [u32]) -> ScratchProvider<'a, V> {
        ScratchProvider { pool, members, scratch: Vec::new() }
    }
}

impl<V: PoolView> FragmentProvider for ScratchProvider<'_, V> {
    fn collect(&mut self, set: CounterSet) -> &[Fragment] {
        self.scratch.clear();
        self.scratch.extend(self.members.iter().map(|&m| m as usize).map(|m| Fragment {
            rank: self.pool.rank(m),
            kind: self.pool.kind(m),
            start: self.pool.start(m),
            end: self.pool.end(m),
            counters: self.pool.project_counters(m, set),
            args: self.pool.args(m).to_vec(), // vapro-lint: allow(R6, arg vector copied into the reusable scratch projection; counters themselves are projected)
        }));
        &self.scratch
    }
}

/// The reusable state of a batch: the sealed pool, one interval index
/// per edge lane, and the memoised cluster outcomes.
pub struct DiagnosisBatch<'m> {
    pools: &'m ColumnarPool,
    cfg: &'m VaproConfig,
    indexes: Vec<PoolIndex>,
    /// Lazily clustered one-lane tables, aligned with the edge pools.
    /// Unused when `seeded` is present.
    clusters: Vec<OnceLock<ClusterTable>>,
    /// Detection's table, one lane per edge pool — exact reuse, since
    /// detection clusters each pool with the same (proxy-counter,
    /// threshold, min-size) parameters.
    seeded: Option<&'m ClusterTable>,
    /// Memoised per-pool drill-down results, aligned with the edge pools.
    reports: Vec<OnceLock<Option<DiagnosisReport>>>,
}

impl<'m> DiagnosisBatch<'m> {
    /// Index the pool for batched diagnosis. Clustering is lazy: a lane
    /// is clustered the first time a region selects it.
    pub fn new(pools: &'m ColumnarPool, cfg: &'m VaproConfig) -> DiagnosisBatch<'m> {
        let n = pools.num_edges();
        let indexes = (0..n).map(|i| PoolIndex::build(pools.edge(i).2)).collect();
        let clusters = (0..n).map(|_| OnceLock::new()).collect();
        let reports = (0..n).map(|_| OnceLock::new()).collect();
        DiagnosisBatch { pools, cfg, indexes, clusters, seeded: None, reports }
    }

    /// Like [`DiagnosisBatch::new`], but reuse cluster outcomes computed
    /// elsewhere — typically
    /// [`DetectionResult::edge_clusters`](crate::detect::pipeline::DetectionResult::edge_clusters)
    /// from a detection pass over the *same* pool, in which case no
    /// lane is ever clustered twice.
    ///
    /// # Panics
    /// When `outcomes` is not aligned with the pool's edge lanes.
    pub fn with_clusters(
        pools: &'m ColumnarPool,
        cfg: &'m VaproConfig,
        outcomes: &'m ClusterTable,
    ) -> DiagnosisBatch<'m> {
        assert_eq!(
            outcomes.num_lanes(),
            pools.num_edges(),
            "cluster outcomes must align with the pool's edge lanes"
        );
        let mut batch = DiagnosisBatch::new(pools, cfg);
        batch.seeded = Some(outcomes);
        batch
    }

    fn outcome(&self, pool_idx: usize) -> LaneClusters<'_> {
        if let Some(seeded) = self.seeded {
            return seeded.lane(pool_idx);
        }
        let table = self.clusters[pool_idx].get_or_init(|| {
            let mut table = ClusterTable::new(self.cfg.min_cluster_size);
            table.push_lane(
                &self.pools.edge(pool_idx).2,
                &self.cfg.proxy_counters,
                self.cfg.cluster_threshold,
            );
            table
        });
        table.lane(0)
    }

    /// Diagnose one region. Same contract as
    /// [`diagnose_region`](crate::diagnose::diagnose_region): the
    /// population is the dominant fixed-workload cluster of the edge
    /// pool with the most in-region computation time; `None` when no
    /// pool overlaps the region or the winner has no usable cluster.
    pub fn diagnose(&self, roi: &RegionOfInterest) -> Option<DiagnosisReport> {
        // First-best-wins on strict improvement, in edge order — the
        // exact tie-break of the naive per-region scan.
        let mut best: Option<(usize, u64)> = None;
        for (i, index) in self.indexes.iter().enumerate() {
            let in_region = index.in_region_ns(roi);
            if in_region > 0 && best.is_none_or(|(_, t)| in_region > t) {
                best = Some((i, in_region));
            }
        }
        let (pool_idx, _) = best?;
        // The region's only contribution was choosing the pool; the
        // drill-down is memoised per pool.
        // vapro-lint: allow(R6, memoised report fan-out; one owned DiagnosisReport per region)
        self.reports[pool_idx].get_or_init(|| self.diagnose_pool(pool_idx)).clone()
    }

    /// The progressive drill-down over one pool's dominant cluster.
    fn diagnose_pool(&self, pool_idx: usize) -> Option<DiagnosisReport> {
        let pool = self.pools.edge(pool_idx).2;
        let outcome = self.outcome(pool_idx);
        let cluster = outcome.usable().max_by_key(|c| c.members.len())?;
        let mut provider = ScratchProvider::new(pool, cluster.members);
        diagnose_progressively_with(
            &mut provider,
            self.cfg.ka_abnormal,
            self.cfg.major_factor_threshold,
            0.05,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diagnose::driver::diagnose_region;
    use crate::diagnose::driver::tests::stgs_with_noise;
    use vapro_sim::VirtualTime;

    fn rois_grid(nranks: usize, t_max: u64, cols: usize) -> Vec<RegionOfInterest> {
        let mut rois = Vec::new();
        for r in 0..nranks {
            for c in 0..cols {
                let w = t_max / cols as u64;
                rois.push(RegionOfInterest {
                    ranks: (r, r),
                    t_start: VirtualTime::from_ns(c as u64 * w),
                    t_end: VirtualTime::from_ns((c as u64 + 1) * w),
                });
            }
        }
        rois
    }

    #[test]
    fn batch_matches_per_region_driver() {
        let stgs = stgs_with_noise(4, 30, 2, (10_000_000, 40_000_000));
        let cfg = VaproConfig::default();
        let mut rois = rois_grid(4, 60_000_000, 4);
        rois.push(RegionOfInterest {
            ranks: (2, 2),
            t_start: VirtualTime::from_ms(10),
            t_end: VirtualTime::from_ms(40),
        });
        let sealed = ColumnarPool::from_stgs(&stgs, None);
        let batch = DiagnosisBatch::new(&sealed, &cfg);
        let mut diagnosed = 0;
        for roi in &rois {
            let got = batch.diagnose(roi);
            assert_eq!(got, diagnose_region(&stgs, roi, &cfg), "roi {roi:?}");
            diagnosed += usize::from(got.is_some());
        }
        assert!(diagnosed > 0);
    }

    #[test]
    fn interval_index_matches_naive_scan() {
        let stgs = stgs_with_noise(3, 20, 1, (0, 20_000_000));
        let sealed = ColumnarPool::from_stgs(&stgs, None);
        for e in 0..sealed.num_edges() {
            let pool = sealed.edge(e).2;
            let index = PoolIndex::build(pool);
            for roi in rois_grid(3, 45_000_000, 7) {
                let naive: u64 = (0..pool.len())
                    .filter(|&i| {
                        pool.kind(i) == FragmentKind::Computation
                            && pool.rank(i) >= roi.ranks.0
                            && pool.rank(i) <= roi.ranks.1
                            && pool.start(i) < roi.t_end
                            && pool.end(i) > roi.t_start
                    })
                    .map(|i| pool.end(i).ns() - pool.start(i).ns())
                    .sum();
                assert_eq!(index.in_region_ns(&roi), naive, "roi {roi:?}");
            }
        }
    }

    #[cfg(any(debug_assertions, feature = "clone-count"))]
    #[test]
    fn batch_diagnosis_clones_no_fragments() {
        use crate::fragment::clone_count;
        let stgs = stgs_with_noise(4, 30, 2, (10_000_000, 40_000_000));
        let cfg = VaproConfig::default();
        let roi = RegionOfInterest {
            ranks: (2, 2),
            t_start: VirtualTime::from_ms(10),
            t_end: VirtualTime::from_ms(40),
        };
        let sealed = ColumnarPool::from_stgs(&stgs, None);
        let before = clone_count::on_this_thread();
        let report = DiagnosisBatch::new(&sealed, &cfg).diagnose(&roi);
        assert!(report.is_some());
        assert_eq!(
            clone_count::on_this_thread() - before,
            0,
            "batched diagnosis must not clone fragments"
        );
    }

    #[test]
    fn seeded_clusters_match_lazy_clustering() {
        let stgs = stgs_with_noise(4, 25, 0, (0, 25_000_000));
        let cfg = VaproConfig::default();
        let sealed = ColumnarPool::from_stgs(&stgs, None);
        let mut outcomes = ClusterTable::new(cfg.min_cluster_size);
        for e in 0..sealed.num_edges() {
            outcomes.push_lane(&sealed.edge(e).2, &cfg.proxy_counters, cfg.cluster_threshold);
        }
        let rois = rois_grid(4, 40_000_000, 3);
        let seeded = DiagnosisBatch::with_clusters(&sealed, &cfg, &outcomes);
        let lazy = DiagnosisBatch::new(&sealed, &cfg);
        for roi in &rois {
            assert_eq!(seeded.diagnose(roi), lazy.diagnose(roi), "roi {roi:?}");
        }
    }
}
