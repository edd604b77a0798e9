//! Region diagnosis (paper §3.5): a [`RegionOfInterest`] — a detected
//! variance region, or one a user selects on the heat map — and the
//! batch that diagnoses every region of a window: pool once, cluster
//! once, then diagnose.
//!
//! A server diagnoses every region of every closed window, so
//! [`DiagnosisBatch`] amortises the work across regions:
//!
//! * **pool once** — the caller builds (or already has) the sealed
//!   [`ColumnarPool`]; the batch only borrows it. A region picks its
//!   lane with one pass over the edge lanes' rank, kind and time
//!   columns ([`RegionOfInterest::busiest_edge`]) — a window is small
//!   enough that the scan costs less than any index over it would;
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
//! The per-region result is bit-identical to the naive per-region
//! reference (`vapro_vopr::reference::diagnose_region`: scan every
//! lane, re-cluster the winner) on the same pool: both select the lane
//! with the same scan, and clustering is deterministic —
//! property-tested in `tests/property_tests.rs`.

use crate::clustering::ClusterTable;
use crate::columnar::{ColumnarPool, LaneView};
use crate::config::VaproConfig;
use crate::detect::region::VarianceRegion;
use crate::diagnose::progressive::{diagnose_cluster, DiagnosisReport};
use crate::fragment::FragmentKind;
use std::sync::OnceLock;
use vapro_sim::VirtualTime;

/// A region of interest on the heat map: ranks × virtual-time window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegionOfInterest {
    /// Inclusive rank range.
    pub ranks: (usize, usize),
    /// Time window start.
    pub t_start: VirtualTime,
    /// Time window end.
    pub t_end: VirtualTime,
}

impl From<&VarianceRegion> for RegionOfInterest {
    fn from(r: &VarianceRegion) -> Self {
        RegionOfInterest { ranks: r.rank_range, t_start: r.t_start, t_end: r.t_end }
    }
}

impl RegionOfInterest {
    /// Elapsed ns of `lane`'s computation fragments on the region's ranks
    /// whose spans overlap its time window: one pass over the lane's
    /// columns. A `u64` sum, so the scan order cannot perturb it.
    fn claim_on(&self, lane: &LaneView<'_>) -> u64 {
        let (t_start, t_end) = (self.t_start.ns(), self.t_end.ns());
        let ranks = self.ranks.0..=self.ranks.1;
        let rows = lane.kinds().iter().zip(lane.ranks()).zip(lane.starts().iter().zip(lane.ends()));
        rows.filter(|&((&kind, &rank), (&start, &end))| {
            kind == FragmentKind::Computation
                && ranks.contains(&(rank as usize))
                && start < t_end
                && end > t_start
        })
        .map(|(_, (&start, &end))| end.saturating_sub(start))
        .sum()
    }

    /// The edge lane of `pool` the region is diagnosed on: the one its
    /// computation fragments spend the most time in, the first on a tie
    /// (strict improvement, in edge order). `None` when the region
    /// overlaps no edge lane.
    pub fn busiest_edge(&self, pool: &ColumnarPool) -> Option<usize> {
        let mut best: Option<(usize, u64)> = None;
        for e in 0..pool.num_edges() {
            let in_region = self.claim_on(&pool.edge(e).2);
            if in_region > 0 && best.is_none_or(|(_, t)| in_region > t) {
                best = Some((e, in_region));
            }
        }
        best.map(|(e, _)| e)
    }
}

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

    /// Diagnose one region. The population is the dominant
    /// fixed-workload cluster of the edge pool with the most in-region
    /// computation time ([`RegionOfInterest::busiest_edge`]) — it holds
    /// the region's abnormal fragments plus the out-of-region and
    /// other-rank normal ones that give the reference values. `None`
    /// when no pool overlaps the region, the winner has no usable
    /// cluster, or the cluster shows no abnormal/normal contrast.
    pub fn diagnose(&self, roi: &RegionOfInterest) -> Option<DiagnosisReport> {
        let pool_idx = roi.busiest_edge(self.pools)?;
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

    #[test]
    fn roi_converts_from_variance_region() {
        let r = VarianceRegion {
            cells: vec![(1, 2)],
            rank_range: (1, 3),
            bin_range: (2, 4),
            t_start: VirtualTime::from_ms(5),
            t_end: VirtualTime::from_ms(9),
            loss_ns: 1.0,
            mean_perf: 0.5,
        };
        let roi: RegionOfInterest = (&r).into();
        assert_eq!(roi.ranks, (1, 3));
        assert_eq!(roi.t_start, VirtualTime::from_ms(5));
    }
}
