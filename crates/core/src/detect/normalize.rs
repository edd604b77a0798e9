//! Per-cluster performance normalisation and cross-cluster merging
//! (paper §3.5, Fig. 7).
//!
//! Inside one fixed-workload cluster, the fastest fragment defines
//! performance 1.0 and every other fragment scores
//! `min_duration / duration` ∈ (0, 1]. Different clusters — different
//! workloads — are normalised separately and then *merged* into one
//! per-category series ("weighted equalization" in Fig. 2): each fragment
//! becomes a time-spanning point weighted by its duration, so long
//! fragments dominate bins the way they dominate real time.

use crate::clustering::LaneClustering;
use crate::columnar::PoolView;
use crate::fragment::FragmentKind;
use vapro_sim::VirtualTime;

/// One normalised observation: a fragment's span and its performance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfPoint {
    /// Originating rank.
    pub rank: usize,
    /// Fragment start.
    pub start: VirtualTime,
    /// Fragment end.
    pub end: VirtualTime,
    /// Normalised performance in (0, 1].
    pub perf: f64,
    /// Excess time versus the cluster's fastest fragment, ns — the
    /// quantified performance loss this fragment represents.
    pub loss_ns: f64,
}

/// Normalised series per reporting category (the paper reports
/// computation, network and IO separately).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CategorySeries {
    /// Computation points (STG edges).
    pub computation: Vec<PerfPoint>,
    /// Communication points (comm vertices).
    pub communication: Vec<PerfPoint>,
    /// IO points (IO vertices).
    pub io: Vec<PerfPoint>,
}

impl CategorySeries {
    /// The series for one category.
    pub fn of(&self, kind: FragmentKind) -> &[PerfPoint] {
        match kind {
            FragmentKind::Computation => &self.computation,
            FragmentKind::Communication | FragmentKind::Other => &self.communication,
            FragmentKind::Io => &self.io,
        }
    }

    /// Empty series with room for one point per row of `kinds` in its
    /// row's category — everything a window's normalisation can append,
    /// so the series are sized once, from one pass over the kind column.
    pub(crate) fn with_room_for(kinds: &[FragmentKind]) -> CategorySeries {
        let (mut computation, mut communication, mut io) = (0usize, 0usize, 0usize);
        for kind in kinds {
            match kind {
                FragmentKind::Computation => computation += 1,
                FragmentKind::Communication | FragmentKind::Other => communication += 1,
                FragmentKind::Io => io += 1,
            }
        }
        CategorySeries {
            computation: Vec::with_capacity(computation),
            communication: Vec::with_capacity(communication),
            io: Vec::with_capacity(io),
        }
    }

    /// Total points across categories.
    pub fn len(&self) -> usize {
        self.computation.len() + self.communication.len() + self.io.len()
    }

    /// No points at all?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Normalise one location's pooled fragments given its clustering. Only
/// usable clusters contribute (rare ones go to the rare-path report).
/// Appends into `out` according to each fragment's kind (a pool's kinds
/// are per-row bytes off the wire and may be mixed); the window's
/// detection sizes `out` once beforehand
/// (`CategorySeries::with_room_for`). `rank_override` replaces every
/// point's rank (only the benchmark's probes pass one).
///
/// Generic over [`PoolView`], like the clustering it follows, and over
/// where that clustering lives: an owned
/// [`ClusterOutcome`](crate::clustering::ClusterOutcome) or a lane view
/// of the window's [`ClusterTable`](crate::clustering::ClusterTable).
pub fn normalize_cluster_outcome_view<P: PoolView + ?Sized, C: LaneClustering + ?Sized>(
    pool: &P,
    outcome: &C,
    out: &mut CategorySeries,
    rank_override: Option<usize>,
) {
    for members in outcome.usable_members() {
        // The fastest fragment in the cluster is the benchmark.
        let mut min_dur = f64::INFINITY;
        for m in members.iter().map(|&m| m as usize) {
            min_dur = min_dur.min(pool.duration_ns(m));
        }
        if !min_dur.is_finite() {
            continue;
        }
        for m in members.iter().map(|&m| m as usize) {
            let dur = pool.duration_ns(m);
            // Zero-duration fragments carry no performance signal.
            if dur <= 0.0 {
                continue;
            }
            let perf = if min_dur <= 0.0 { 1.0 } else { (min_dur / dur).min(1.0) };
            let point = PerfPoint {
                rank: rank_override.unwrap_or(pool.rank(m)),
                start: pool.start(m),
                end: pool.end(m),
                perf,
                loss_ns: (dur - min_dur).max(0.0),
            };
            match pool.kind(m) {
                FragmentKind::Computation => out.computation.push(point),
                FragmentKind::Communication | FragmentKind::Other => {
                    out.communication.push(point)
                }
                FragmentKind::Io => out.io.push(point),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clustering::{cluster_pool, ClusterOutcome};
    use crate::fragment::{Fragment, DEFAULT_PROXY};
    use vapro_pmu::{CounterDelta, CounterId};

    fn frag(kind: FragmentKind, rank: usize, start: u64, dur: u64, ins: f64) -> Fragment {
        let mut counters = CounterDelta::default();
        counters.put(CounterId::TotIns, ins);
        Fragment {
            rank,
            kind,
            start: VirtualTime::from_ns(start),
            end: VirtualTime::from_ns(start + dur),
            counters,
            args: vec![ins],
        }
    }

    /// Cluster `frags` with the default proxy and normalise the outcome.
    fn normalized(frags: &[Fragment]) -> (ClusterOutcome, CategorySeries) {
        let pool = crate::columnar::ColumnarPool::single_lane(frags);
        let outcome = cluster_pool(&pool.all(), &DEFAULT_PROXY, 0.05, 5);
        let mut out = CategorySeries::default();
        normalize_cluster_outcome_view(&pool.all(), &outcome, &mut out, None);
        (outcome, out)
    }

    #[test]
    fn fastest_fragment_scores_one() {
        let frags: Vec<Fragment> = (0..6)
            .map(|i| frag(FragmentKind::Computation, 0, i * 100, 50 + i * 10, 1000.0))
            .collect();
        let (_, out) = normalized(&frags);
        assert_eq!(out.computation.len(), 6);
        let best = out
            .computation
            .iter()
            .map(|p| p.perf)
            .fold(0.0, f64::max);
        assert!((best - 1.0).abs() < 1e-12);
        // The slowest: 50/100.
        let worst = out
            .computation
            .iter()
            .map(|p| p.perf)
            .fold(f64::INFINITY, f64::min);
        assert!((worst - 0.5).abs() < 1e-12);
    }

    #[test]
    fn loss_is_excess_over_fastest() {
        let frags = vec![
            frag(FragmentKind::Computation, 0, 0, 100, 1000.0),
            frag(FragmentKind::Computation, 0, 200, 100, 1000.0),
            frag(FragmentKind::Computation, 0, 400, 100, 1000.0),
            frag(FragmentKind::Computation, 0, 600, 100, 1000.0),
            frag(FragmentKind::Computation, 0, 800, 250, 1000.0),
        ];
        let (_, out) = normalized(&frags);
        let total_loss: f64 = out.computation.iter().map(|p| p.loss_ns).sum();
        assert!((total_loss - 150.0).abs() < 1e-9);
    }

    #[test]
    fn clusters_normalize_independently() {
        // Two workloads with very different base durations; each cluster's
        // fastest is 1.0 even though absolute times differ 10×.
        let mut frags = vec![];
        for i in 0..5 {
            frags.push(frag(FragmentKind::Computation, 0, i * 1000, 100, 1000.0));
        }
        for i in 0..5 {
            frags.push(frag(FragmentKind::Computation, 0, 5000 + i * 1000, 1000, 9000.0));
        }
        let (outcome, out) = normalized(&frags);
        assert_eq!(outcome.usable.len(), 2);
        let perfect = out.computation.iter().filter(|p| p.perf > 0.999).count();
        assert_eq!(perfect, 10);
    }

    #[test]
    fn categories_route_by_kind() {
        let frags = vec![
            frag(FragmentKind::Communication, 0, 0, 10, 64.0),
            frag(FragmentKind::Communication, 0, 20, 10, 64.0),
            frag(FragmentKind::Communication, 0, 40, 10, 64.0),
            frag(FragmentKind::Communication, 0, 60, 10, 64.0),
            frag(FragmentKind::Communication, 0, 80, 10, 64.0),
            frag(FragmentKind::Io, 1, 0, 10, 512.0),
            frag(FragmentKind::Io, 1, 20, 10, 512.0),
            frag(FragmentKind::Io, 1, 40, 10, 512.0),
            frag(FragmentKind::Io, 1, 60, 10, 512.0),
            frag(FragmentKind::Io, 1, 80, 10, 512.0),
        ];
        let (_, out) = normalized(&frags);
        assert_eq!(out.communication.len(), 5);
        assert_eq!(out.io.len(), 5);
        assert!(out.computation.is_empty());
    }

    #[test]
    fn rare_clusters_do_not_contribute_points() {
        let mut frags: Vec<Fragment> = (0..8)
            .map(|i| frag(FragmentKind::Computation, 0, i * 100, 50, 1000.0))
            .collect();
        frags.push(frag(FragmentKind::Computation, 0, 900, 400, 50_000.0));
        let (_, out) = normalized(&frags);
        assert_eq!(out.computation.len(), 8);
    }
}
