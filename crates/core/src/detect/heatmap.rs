//! The rank × time heat map of normalised performance — the paper's
//! primary visualisation (Figs. 9, 12, 13, 15, 17, 18).
//!
//! Each cell aggregates the duration-weighted normalised performance of
//! the fragments overlapping that (rank, time-bin). Cells with no
//! observations are `None` (rendered blank) — the difference between "no
//! coverage" and "performance 1.0" matters for interpreting coverage.

use crate::detect::normalize::PerfPoint;
use rayon::prelude::*;
use vapro_sim::VirtualTime;

/// A dense rank × time grid of aggregated performance.
#[derive(Debug, Clone, PartialEq)]
pub struct HeatMap {
    /// Start of the covered interval.
    pub t0: VirtualTime,
    /// Width of one time bin, ns.
    pub bin_ns: u64,
    /// Number of time bins (columns).
    pub bins: usize,
    /// Number of ranks (rows).
    pub ranks: usize,
    /// Per-cell accumulated weight (ns of fragment time).
    weight: Vec<f64>,
    /// Per-cell accumulated weight × performance.
    weighted_perf: Vec<f64>,
    /// Per-cell accumulated loss (ns).
    loss: Vec<f64>,
}

impl HeatMap {
    /// An empty map over `[t0, t0 + bins·bin_ns)` for `ranks` rows.
    pub fn new(t0: VirtualTime, bin_ns: u64, bins: usize, ranks: usize) -> Self {
        assert!(bin_ns > 0 && bins > 0 && ranks > 0, "degenerate heat map");
        HeatMap {
            t0,
            bin_ns,
            bins,
            ranks,
            weight: vec![0.0; bins * ranks],
            weighted_perf: vec![0.0; bins * ranks],
            loss: vec![0.0; bins * ranks],
        }
    }

    /// Build a map spanning all the given points, with `bins` columns.
    pub fn spanning(points: &[PerfPoint], bins: usize, ranks: usize) -> Self {
        let t0 = points.iter().map(|p| p.start).min().unwrap_or(VirtualTime::ZERO);
        let t1 = points
            .iter()
            .map(|p| p.end)
            .max()
            .unwrap_or(t0 + VirtualTime::from_ns(1));
        let span = (t1.saturating_since(t0)).ns().max(1);
        let bin_ns = span.div_ceil(bins as u64).max(1);
        let mut hm = HeatMap::new(t0, bin_ns, bins, ranks);
        hm.add_points(points);
        hm
    }

    #[inline]
    fn idx(&self, rank: usize, bin: usize) -> usize {
        rank * self.bins + bin
    }

    /// Add one observation, distributing its weight across the bins its
    /// span overlaps.
    pub fn add_point(&mut self, p: &PerfPoint) {
        if p.rank >= self.ranks {
            return;
        }
        let (t0, bin_ns, bins) = (self.t0, self.bin_ns, self.bins);
        let start = p.start.max(t0);
        let end_ns = p.end.ns();
        if end_ns <= start.ns() {
            return;
        }
        let rel_start = start.ns() - t0.ns();
        let rel_end = (end_ns - t0.ns()).min(bin_ns * bins as u64);
        if rel_end <= rel_start {
            return;
        }
        let total = (p.end.ns() - p.start.ns()) as f64;
        let first_bin = (rel_start / bin_ns) as usize;
        let last_bin = (((rel_end - 1) / bin_ns) as usize).min(bins - 1);
        for bin in first_bin..=last_bin {
            let bin_lo = t0.ns() + bin as u64 * bin_ns;
            let bin_hi = bin_lo + bin_ns;
            let overlap = (end_ns.min(bin_hi) - p.start.ns().max(bin_lo)) as f64;
            if overlap <= 0.0 {
                continue;
            }
            let i = self.idx(p.rank, bin);
            self.weight[i] += overlap;
            self.weighted_perf[i] += overlap * p.perf;
            self.loss[i] += p.loss_ns * overlap / total;
        }
    }

    /// Add many observations.
    pub fn add_points(&mut self, points: &[PerfPoint]) {
        for p in points {
            self.add_point(p);
        }
    }

    /// Merge another compatible map into this one (same geometry).
    pub fn merge(&mut self, other: &HeatMap) {
        assert_eq!(
            (self.t0, self.bin_ns, self.bins, self.ranks),
            (other.t0, other.bin_ns, other.bins, other.ranks),
            "merging incompatible heat maps"
        );
        for i in 0..self.weight.len() {
            self.weight[i] += other.weight[i];
            self.weighted_perf[i] += other.weighted_perf[i];
            self.loss[i] += other.loss[i];
        }
    }

    /// Mean normalised performance of a cell; `None` when uncovered.
    pub fn perf(&self, rank: usize, bin: usize) -> Option<f64> {
        let i = self.idx(rank, bin);
        if self.weight[i] > 0.0 {
            Some(self.weighted_perf[i] / self.weight[i])
        } else {
            None
        }
    }

    /// Accumulated loss (ns) attributed to a cell.
    pub fn loss_ns(&self, rank: usize, bin: usize) -> f64 {
        self.loss[self.idx(rank, bin)]
    }

    /// Observation weight (fragment-nanoseconds) in a cell.
    pub fn weight_of(&self, rank: usize, bin: usize) -> f64 {
        self.weight[self.idx(rank, bin)]
    }

    /// Fraction of cells with any coverage.
    pub fn coverage(&self) -> f64 {
        let covered = self.weight.iter().filter(|w| **w > 0.0).count();
        covered as f64 / self.weight.len() as f64
    }

    /// Mean performance over all covered cells (weighted).
    pub fn overall_perf(&self) -> f64 {
        let w: f64 = self.weight.iter().sum();
        if w <= 0.0 {
            return 1.0;
        }
        self.weighted_perf.iter().sum::<f64>() / w
    }
}

/// A tree of aggregation nodes (paper §5: "further optimizations are
/// feasible with data collection frameworks such as MRNet, which
/// organizes servers into a tree-like structure"): leaf servers merge
/// their clients' heat-map slabs; interior nodes merge pairwise up to a
/// single root map, in O(log n) merge depth.
pub fn tree_aggregate(mut maps: Vec<HeatMap>) -> Option<HeatMap> {
    if maps.is_empty() {
        return None;
    }
    // Pairwise reduction; each level halves the population. Levels run
    // in parallel since pair merges are independent.
    while maps.len() > 1 {
        maps = maps
            .par_chunks(2)
            .map(|pair| {
                // vapro-lint: allow(R6, heat-map slab accumulator seeds each pairwise merge; not a fragment population)
                let mut acc = pair[0].clone();
                if let Some(second) = pair.get(1) {
                    acc.merge(second);
                }
                acc
            })
            .collect();
    }
    maps.pop()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pt(rank: usize, start: u64, end: u64, perf: f64) -> PerfPoint {
        PerfPoint {
            rank,
            start: VirtualTime::from_ns(start),
            end: VirtualTime::from_ns(end),
            perf,
            loss_ns: (end - start) as f64 * (1.0 - perf),
        }
    }

    #[test]
    fn empty_cells_are_none() {
        let hm = HeatMap::new(VirtualTime::ZERO, 100, 4, 2);
        assert_eq!(hm.perf(0, 0), None);
        assert_eq!(hm.coverage(), 0.0);
    }

    #[test]
    fn single_point_lands_in_its_bin() {
        let mut hm = HeatMap::new(VirtualTime::ZERO, 100, 4, 2);
        hm.add_point(&pt(1, 210, 260, 0.8));
        assert_eq!(hm.perf(1, 2), Some(0.8));
        assert_eq!(hm.perf(1, 1), None);
        assert_eq!(hm.perf(0, 2), None);
        assert!((hm.weight_of(1, 2) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn spanning_point_distributes_weight() {
        let mut hm = HeatMap::new(VirtualTime::ZERO, 100, 4, 1);
        // 150..350 covers half of bin 1, all of bin 2, half of bin 3.
        hm.add_point(&pt(0, 150, 350, 0.5));
        assert!((hm.weight_of(0, 1) - 50.0).abs() < 1e-9);
        assert!((hm.weight_of(0, 2) - 100.0).abs() < 1e-9);
        assert!((hm.weight_of(0, 3) - 50.0).abs() < 1e-9);
        assert_eq!(hm.perf(0, 2), Some(0.5));
        // Loss distributes proportionally: total 100 ns of loss.
        let total_loss: f64 = (0..4).map(|b| hm.loss_ns(0, b)).sum();
        assert!((total_loss - 100.0).abs() < 1e-9);
    }

    #[test]
    fn cell_mean_is_duration_weighted() {
        let mut hm = HeatMap::new(VirtualTime::ZERO, 100, 1, 1);
        hm.add_point(&pt(0, 0, 80, 1.0)); // 80 ns at 1.0
        hm.add_point(&pt(0, 80, 100, 0.5)); // 20 ns at 0.5
        let expect = (80.0 * 1.0 + 20.0 * 0.5) / 100.0;
        assert!((hm.perf(0, 0).unwrap() - expect).abs() < 1e-12);
    }

    #[test]
    fn spanning_builder_covers_all_points() {
        let pts = vec![pt(0, 0, 100, 1.0), pt(1, 900, 1000, 0.3)];
        let hm = HeatMap::spanning(&pts, 10, 2);
        assert!(hm.coverage() > 0.0);
        assert_eq!(hm.perf(1, 9), Some(0.3));
        assert!(hm.overall_perf() < 1.0);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = HeatMap::new(VirtualTime::ZERO, 100, 2, 1);
        let mut b = a.clone();
        a.add_point(&pt(0, 0, 100, 1.0));
        b.add_point(&pt(0, 0, 100, 0.5));
        a.merge(&b);
        assert!((a.perf(0, 0).unwrap() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn out_of_range_rank_is_ignored() {
        let mut hm = HeatMap::new(VirtualTime::ZERO, 100, 2, 1);
        hm.add_point(&pt(5, 0, 100, 0.5));
        assert_eq!(hm.coverage(), 0.0);
    }

    #[test]
    fn points_beyond_the_window_clip() {
        let mut hm = HeatMap::new(VirtualTime::from_ns(100), 100, 2, 1);
        hm.add_point(&pt(0, 0, 150, 0.5)); // starts before the window
        hm.add_point(&pt(0, 250, 400, 0.5)); // extends past the window
        assert!((hm.weight_of(0, 0) - 50.0).abs() < 1e-9);
        assert!((hm.weight_of(0, 1) - 50.0).abs() < 1e-9);
    }

    #[test]
    fn tree_aggregation_equals_flat_merge() {
        // Five servers each hold a slab; the tree root must equal the
        // flat accumulation.
        let geometry = || HeatMap::new(VirtualTime::ZERO, 100, 8, 4);
        let mut slabs = vec![];
        let mut flat = geometry();
        for s in 0..5usize {
            let mut hm = geometry();
            let p = PerfPoint {
                rank: s % 4,
                start: VirtualTime::from_ns(s as u64 * 100),
                end: VirtualTime::from_ns(s as u64 * 100 + 100),
                perf: 0.2 * (s + 1) as f64,
                loss_ns: 10.0,
            };
            hm.add_point(&p);
            flat.add_point(&p);
            slabs.push(hm);
        }
        let root = tree_aggregate(slabs).unwrap();
        for r in 0..4 {
            for b in 0..8 {
                assert_eq!(root.perf(r, b), flat.perf(r, b), "cell ({r},{b})");
                assert_eq!(root.loss_ns(r, b), flat.loss_ns(r, b));
            }
        }
        assert!(tree_aggregate(vec![]).is_none());
    }
}
