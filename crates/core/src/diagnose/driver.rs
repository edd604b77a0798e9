//! Connecting detection to diagnosis: diagnose a detected variance
//! region (or any user-selected region of interest — the paper's "users
//! are able to select regions of interest on the heat map for diagnosis
//! as well", §3.5).
//!
//! The driver pools the fixed-workload fragments whose spans overlap the
//! region from every rank the region covers, together with the same
//! states' fragments from *unaffected* ranks (the normal reference —
//! the inter-process comparison of the HPL case study), and runs the
//! progressive drill-down over that population.

use crate::clustering::cluster_pool;
use crate::columnar::{ColumnarPool, LaneView};
use crate::config::VaproConfig;
use crate::detect::region::VarianceRegion;
use crate::diagnose::progressive::{diagnose_cluster, DiagnosisReport};
use crate::fragment::FragmentKind;
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
}

/// The edge lane a region is diagnosed on: the one its computation
/// fragments spend the most time in, the first on a tie (strict
/// improvement, in edge order). `None` when the region overlaps no edge
/// lane.
pub(crate) fn busiest_edge(pool: &ColumnarPool, roi: &RegionOfInterest) -> Option<usize> {
    let mut best: Option<(usize, u64)> = None;
    for e in 0..pool.num_edges() {
        let in_region = roi.claim_on(&pool.edge(e).2);
        if in_region > 0 && best.is_none_or(|(_, t)| in_region > t) {
            best = Some((e, in_region));
        }
    }
    best.map(|(e, _)| e)
}

/// Diagnose one region of interest over a run's pooled fragments
/// ([`ColumnarPool::from_batches`] over every shipped frame).
///
/// The fragment population is the largest fixed-workload cluster among
/// computation fragments that (a) overlap the region on affected ranks
/// or (b) belong to the same cluster anywhere else (the normal
/// reference). Returns `None` when the region holds no usable cluster or
/// no abnormal/normal contrast.
///
/// This is the naive per-region driver — pool, scan every lane, cluster
/// the winner — that [`DiagnosisBatch`](crate::diagnose::DiagnosisBatch)
/// is property-tested against; many regions over one run want the batch.
pub fn diagnose_region(
    pooled: &ColumnarPool,
    roi: &RegionOfInterest,
    cfg: &VaproConfig,
) -> Option<DiagnosisReport> {
    let pool = pooled.edge(busiest_edge(pooled, roi)?).2;

    // The diagnosis population: the whole pool's dominant cluster — it
    // contains the region's abnormal fragments plus the out-of-region /
    // other-rank normal ones that give the reference values. The
    // drill-down reads its members in place from the lane's columns.
    let outcome = cluster_pool(
        &pool,
        &cfg.proxy_counters,
        cfg.cluster_threshold,
        cfg.min_cluster_size,
    );
    let cluster = outcome
        .usable
        .iter()
        .max_by_key(|c| c.members.len())?;
    diagnose_cluster(pool, &cluster.members, cfg.ka_abnormal, cfg.major_factor_threshold, 0.05)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::detect::oneshot::tests::whole_pool;
    use crate::diagnose::factor::Factor;
    use crate::fragment::Fragment;
    use crate::stg::{StateKey, Stg};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use vapro_pmu::{events, CpuConfig, CpuModel, JitterModel, NoiseEnv, WorkloadSpec};
    use vapro_sim::CallSite;

    /// Build per-rank STGs: `nranks` ranks run the same fixed workload;
    /// `slow_rank` suffers memory contention inside `[t0, t1)`. Shared
    /// with the batch-diagnosis tests.
    pub(crate) fn stgs_with_noise(
        nranks: usize,
        n: usize,
        slow_rank: usize,
        window: (u64, u64),
    ) -> Vec<Stg> {
        let model = CpuModel::with_jitter(CpuConfig::default(), JitterModel::exact());
        let spec = WorkloadSpec::memory_bound(2e6);
        (0..nranks)
            .map(|rank| {
                let mut rng = ChaCha8Rng::seed_from_u64(rank as u64);
                let mut stg = Stg::new();
                let s0 = stg.state(StateKey::Start);
                let s1 = stg.state(StateKey::Site(CallSite("roi:MPI_Barrier")));
                stg.transition(s0, s1);
                let e = stg.transition(s1, s1);
                let mut t = 0u64;
                for _ in 0..n {
                    let noisy = rank == slow_rank && t >= window.0 && t < window.1;
                    let env = if noisy {
                        NoiseEnv { mem_contention: 2.0, ..NoiseEnv::default() }
                    } else {
                        NoiseEnv::quiet()
                    };
                    let out = model.execute(&spec, &env, &mut rng);
                    let start = VirtualTime::from_ns(t);
                    let end = start + VirtualTime::from_ns_f64(out.wall_ns);
                    t = end.ns() + 500;
                    stg.attach_edge_fragment(
                        e,
                        Fragment {
                            rank,
                            kind: FragmentKind::Computation,
                            start,
                            end,
                            counters: out.counters.project(events::s3_memory_set()),
                            args: vec![],
                        },
                    );
                }
                stg
            })
            .collect()
    }

    #[test]
    fn region_diagnosis_finds_the_injected_factor() {
        let stgs = stgs_with_noise(4, 30, 2, (10_000_000, 40_000_000));
        let roi = RegionOfInterest {
            ranks: (2, 2),
            t_start: VirtualTime::from_ms(10),
            t_end: VirtualTime::from_ms(40),
        };
        let cfg = VaproConfig::default();
        let rep = diagnose_region(&whole_pool(&stgs), &roi, &cfg).expect("diagnosis ran");
        assert!(rep.steps[0].report.of(Factor::BackendBound).unwrap().major);
        assert!(
            rep.culprits
                .iter()
                .any(|c| matches!(c, Factor::DramBound | Factor::L3Bound | Factor::MemoryBound)),
            "culprits {:?}",
            rep.culprits
        );
    }

    #[cfg(any(debug_assertions, feature = "clone-count"))]
    #[test]
    fn region_diagnosis_clones_no_fragments() {
        use crate::fragment::clone_count;
        // Every step reads the members in place from the sealed columns;
        // no step clones the population (driver.rs used to pay
        // 1 + steps full-population clones here).
        let stgs = stgs_with_noise(4, 30, 2, (10_000_000, 40_000_000));
        let roi = RegionOfInterest {
            ranks: (2, 2),
            t_start: VirtualTime::from_ms(10),
            t_end: VirtualTime::from_ms(40),
        };
        let pool = whole_pool(&stgs);
        let before = clone_count::on_this_thread();
        let rep = diagnose_region(&pool, &roi, &VaproConfig::default());
        assert!(rep.is_some());
        assert_eq!(clone_count::on_this_thread() - before, 0);
    }

    #[test]
    fn quiet_region_yields_no_diagnosis() {
        let stgs = stgs_with_noise(4, 20, usize::MAX, (0, 0));
        let roi = RegionOfInterest {
            ranks: (0, 3),
            t_start: VirtualTime::ZERO,
            t_end: VirtualTime::from_secs(10),
        };
        assert!(diagnose_region(&whole_pool(&stgs), &roi, &VaproConfig::default()).is_none());
    }

    #[test]
    fn empty_region_yields_no_diagnosis() {
        let stgs = stgs_with_noise(2, 10, 0, (0, 5_000_000));
        // A time window beyond the run.
        let roi = RegionOfInterest {
            ranks: (0, 1),
            t_start: VirtualTime::from_secs(100),
            t_end: VirtualTime::from_secs(200),
        };
        assert!(diagnose_region(&whole_pool(&stgs), &roi, &VaproConfig::default()).is_none());
    }

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
