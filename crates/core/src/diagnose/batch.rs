//! Batched region diagnosis: pool once, cluster once — then diagnose
//! every region.
//!
//! [`diagnose_region`](crate::diagnose::diagnose_region) scans the
//! whole pool and re-clusters the winning lane *per region*, which is
//! affordable for a user clicking one heat-map region but not for a
//! server diagnosing every region of every closed window.
//! [`DiagnosisBatch`] amortises both across regions:
//!
//! * **pool once** — the caller builds (or already has) the sealed
//!   [`ColumnarPool`]; the batch only borrows it. A region picks its
//!   lane with one pass over the edge lanes' rank, kind and time
//!   columns — a window is small enough that the scan costs less than
//!   any index over it would;
//! * **cluster once** — the batch borrows a [`ClusterTable`] with one
//!   lane per edge pool, in practice detection's own, so diagnosis never
//!   re-clusters at all;
//! * **report memoisation** — a region only *selects* a lane; the
//!   drill-down population (the lane's dominant cluster, with its
//!   cross-rank normal reference) and therefore the whole
//!   [`DiagnosisReport`] are functions of the lane alone, so each lane
//!   runs the progressive drill-down at most once per batch no matter
//!   how many regions land on it.
//!
//! The per-region result is bit-identical to `diagnose_region` on the
//! same pool: both select the lane with the same scan, and clustering is
//! deterministic — property-tested in `tests/property_tests.rs`.

use crate::clustering::ClusterTable;
use crate::columnar::ColumnarPool;
use crate::config::VaproConfig;
use crate::diagnose::driver::{busiest_edge, RegionOfInterest};
use crate::diagnose::progressive::{diagnose_cluster, DiagnosisReport};
use std::sync::OnceLock;

/// The reusable state of a batch: the sealed pool, its edge lanes'
/// clusterings and the memoised reports, one slot per edge lane.
pub struct DiagnosisBatch<'m> {
    pools: &'m ColumnarPool,
    /// One lane per edge pool — detection's table is exact reuse, since
    /// detection clusters each pool with the same (proxy-counter,
    /// threshold, min-size) parameters.
    clusters: &'m ClusterTable,
    /// Memoised per-pool drill-down results, aligned with the edge pools.
    reports: Vec<OnceLock<Option<DiagnosisReport>>>,
}

impl<'m> DiagnosisBatch<'m> {
    /// A batch over the pool, reusing cluster outcomes computed
    /// elsewhere — typically
    /// [`DetectionResult::edge_clusters`](crate::detect::pipeline::DetectionResult::edge_clusters)
    /// from a detection pass over the *same* pool, so no lane is ever
    /// clustered twice.
    ///
    /// `_cfg` is unread: the drill-down's thresholds are constants. It
    /// stays only because the frozen `benchmark/src/layers.rs` passes it.
    ///
    /// # Panics
    /// When `outcomes` is not aligned with the pool's edge lanes.
    pub fn with_clusters(
        pools: &'m ColumnarPool,
        _cfg: &VaproConfig,
        outcomes: &'m ClusterTable,
    ) -> DiagnosisBatch<'m> {
        assert_eq!(
            outcomes.num_lanes(),
            pools.num_edges(),
            "cluster outcomes must align with the pool's edge lanes"
        );
        let reports = (0..pools.num_edges()).map(|_| OnceLock::new()).collect();
        DiagnosisBatch { pools, clusters: outcomes, reports }
    }

    /// Diagnose one region. Same contract as
    /// [`diagnose_region`](crate::diagnose::diagnose_region): the
    /// population is the dominant fixed-workload cluster of the edge
    /// pool with the most in-region computation time; `None` when no
    /// pool overlaps the region or the winner has no usable cluster.
    pub fn diagnose(&self, roi: &RegionOfInterest) -> Option<DiagnosisReport> {
        let pool_idx = busiest_edge(self.pools, roi)?;
        // The region's only contribution was choosing the pool; the
        // drill-down is memoised per pool.
        self.reports[pool_idx].get_or_init(|| self.diagnose_pool(pool_idx)).clone()
    }

    /// The progressive drill-down over one pool's dominant cluster.
    fn diagnose_pool(&self, pool_idx: usize) -> Option<DiagnosisReport> {
        let pool = self.pools.edge(pool_idx).2;
        let cluster = self.clusters.lane(pool_idx).usable().max_by_key(|c| c.members.len())?;
        diagnose_cluster(pool, cluster.members)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::oneshot::tests::whole_pool;
    use crate::diagnose::driver::diagnose_region;
    use crate::diagnose::driver::tests::stgs_with_noise;
    use vapro_sim::VirtualTime;

    /// The edge lanes' clusterings, as detection computes them.
    fn edge_clusters(sealed: &ColumnarPool, cfg: &VaproConfig) -> ClusterTable {
        let mut table = ClusterTable::new(cfg.min_cluster_size);
        for e in 0..sealed.num_edges() {
            table.push_lane(&sealed.edge(e).2, &cfg.proxy_counters, cfg.cluster_threshold);
        }
        table
    }

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
        let sealed = whole_pool(&stgs);
        let clusters = edge_clusters(&sealed, &cfg);
        let batch = DiagnosisBatch::with_clusters(&sealed, &cfg, &clusters);
        let mut diagnosed = 0;
        for roi in &rois {
            let got = batch.diagnose(roi);
            assert_eq!(got, diagnose_region(&sealed, roi, &cfg), "roi {roi:?}");
            diagnosed += usize::from(got.is_some());
        }
        assert!(diagnosed > 0);
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
        let sealed = whole_pool(&stgs);
        let clusters = edge_clusters(&sealed, &cfg);
        let before = clone_count::on_this_thread();
        let report = DiagnosisBatch::with_clusters(&sealed, &cfg, &clusters).diagnose(&roi);
        assert!(report.is_some());
        assert_eq!(
            clone_count::on_this_thread() - before,
            0,
            "batched diagnosis must not clone fragments"
        );
    }
}
