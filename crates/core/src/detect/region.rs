//! Variance locating by region growing (paper §3.5): contiguous
//! heat-map regions whose normalised performance falls below a threshold
//! (0.85) are possible variance, reported ranked by their impact on
//! performance.

use crate::detect::heatmap::HeatMap;
use vapro_sim::VirtualTime;

/// One detected variance region on the heat map.
#[derive(Debug, Clone, PartialEq)]
pub struct VarianceRegion {
    /// Cells in the region as `(rank, bin)` pairs.
    pub cells: Vec<(usize, usize)>,
    /// Inclusive rank range covered.
    pub rank_range: (usize, usize),
    /// Inclusive bin range covered.
    pub bin_range: (usize, usize),
    /// Start time of the region.
    pub t_start: VirtualTime,
    /// End time of the region.
    pub t_end: VirtualTime,
    /// Total quantified performance loss attributed to the region, ns.
    pub loss_ns: f64,
    /// Weighted mean normalised performance inside the region.
    pub mean_perf: f64,
}

impl VarianceRegion {
    /// Number of cells.
    pub fn size(&self) -> usize {
        self.cells.len()
    }

    /// Does the region include this rank? O(1): a 4-connected region's
    /// rank projection is a contiguous interval (any two cells are
    /// linked by unit rank/bin steps through the region), so covering a
    /// rank is exactly containment in `rank_range`.
    pub fn covers_rank(&self, rank: usize) -> bool {
        self.rank_range.0 <= rank && rank <= self.rank_range.1
    }
}

/// Grow regions of cells with `perf < threshold` using 4-connectivity
/// (adjacent ranks, adjacent bins). Returns regions sorted by descending
/// loss — the order the paper reports them to users.
pub fn grow_regions(hm: &HeatMap, threshold: f64) -> Vec<VarianceRegion> {
    let mut visited = vec![false; hm.ranks * hm.bins];
    let below = |r: usize, b: usize| hm.perf(r, b).is_some_and(|p| p < threshold);
    let mut regions = Vec::new();

    for rank in 0..hm.ranks {
        for bin in 0..hm.bins {
            let start_idx = rank * hm.bins + bin;
            if visited[start_idx] || !below(rank, bin) {
                continue;
            }
            // DFS flood fill (`queue` is a stack — `Vec::pop` takes the
            // most recently pushed cell). Kept depth-first on purpose:
            // the visit order fixes `cells` order, and with it the f64
            // summation order of `loss_ns` below, which downstream
            // region ranking depends on bit-for-bit.
            let mut cells = Vec::new();
            let mut queue = vec![(rank, bin)];
            visited[start_idx] = true;
            while let Some((r, b)) = queue.pop() {
                // vapro-lint: allow(R6, a region's cell count is what the flood fill discovers; bounded by ranks x bins)
                cells.push((r, b));
                let mut try_push = |nr: usize, nb: usize, visited: &mut Vec<bool>| {
                    let i = nr * hm.bins + nb;
                    if !visited[i] && below(nr, nb) {
                        visited[i] = true;
                        // vapro-lint: allow(R6, flood-fill frontier; at most four neighbours per popped cell)
                        queue.push((nr, nb));
                    }
                };
                if r > 0 {
                    try_push(r - 1, b, &mut visited);
                }
                if r + 1 < hm.ranks {
                    try_push(r + 1, b, &mut visited);
                }
                if b > 0 {
                    try_push(r, b - 1, &mut visited);
                }
                if b + 1 < hm.bins {
                    try_push(r, b + 1, &mut visited);
                }
            }

            let rank_lo = cells.iter().map(|c| c.0).min().expect("nonempty");
            let rank_hi = cells.iter().map(|c| c.0).max().expect("nonempty");
            let bin_lo = cells.iter().map(|c| c.1).min().expect("nonempty");
            let bin_hi = cells.iter().map(|c| c.1).max().expect("nonempty");
            let loss_ns: f64 = cells.iter().map(|&(r, b)| hm.loss_ns(r, b)).sum();
            let weight: f64 = cells.iter().map(|&(r, b)| hm.weight_of(r, b)).sum();
            let wp: f64 = cells
                .iter()
                .map(|&(r, b)| hm.weight_of(r, b) * hm.perf(r, b).unwrap_or(1.0))
                .sum();
            // vapro-lint: allow(R6, region count is data-dependent; one push per region found, zero on a quiet window)
            regions.push(VarianceRegion {
                rank_range: (rank_lo, rank_hi),
                bin_range: (bin_lo, bin_hi),
                t_start: hm.t0 + VirtualTime::from_ns(bin_lo as u64 * hm.bin_ns),
                t_end: hm.t0 + VirtualTime::from_ns((bin_hi as u64 + 1) * hm.bin_ns),
                loss_ns,
                mean_perf: if weight > 0.0 { wp / weight } else { 1.0 },
                cells,
            });
        }
    }

    regions.sort_by(|a, b| b.loss_ns.total_cmp(&a.loss_ns));
    regions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::normalize::PerfPoint;

    fn map_with(points: &[(usize, u64, u64, f64)]) -> HeatMap {
        let mut hm = HeatMap::new(VirtualTime::ZERO, 100, 10, 4);
        for &(rank, start, end, perf) in points {
            hm.add_point(&PerfPoint {
                rank,
                start: VirtualTime::from_ns(start),
                end: VirtualTime::from_ns(end),
                perf,
                loss_ns: (end - start) as f64 * (1.0 / perf - 1.0),
            });
        }
        hm
    }

    #[test]
    fn quiet_map_has_no_regions() {
        let pts: Vec<_> = (0..4).map(|r| (r, 0, 1000, 1.0)).collect();
        let hm = map_with(&pts);
        assert!(grow_regions(&hm, 0.85).is_empty());
    }

    #[test]
    fn one_slow_cell_is_one_region() {
        let mut pts: Vec<_> = (0..4).map(|r| (r, 0, 1000, 1.0)).collect();
        pts.push((2, 300, 400, 0.4)); // rank 2, bin 3
        let hm = map_with(&pts);
        let regions = grow_regions(&hm, 0.85);
        assert_eq!(regions.len(), 1);
        assert!(regions[0].covers_rank(2));
        assert_eq!(regions[0].bin_range, (3, 3));
        assert!(regions[0].mean_perf < 0.85);
    }

    #[test]
    fn adjacent_slow_cells_merge() {
        // Ranks 1-2, bins 2-5 all slow: one rectangular region.
        let mut pts = vec![];
        for r in 0..4 {
            pts.push((r, 0, 1000, 1.0));
        }
        for r in 1..3usize {
            pts.push((r, 200, 600, 0.3));
        }
        let hm = map_with(&pts);
        let regions = grow_regions(&hm, 0.85);
        assert_eq!(regions.len(), 1);
        assert_eq!(regions[0].rank_range, (1, 2));
        assert_eq!(regions[0].bin_range, (2, 5));
        assert_eq!(regions[0].size(), 8);
    }

    #[test]
    fn disconnected_regions_stay_separate_and_rank_by_loss() {
        let mut pts = vec![];
        for r in 0..4 {
            pts.push((r, 0, 1000, 1.0));
        }
        pts.push((0, 100, 200, 0.5)); // small loss
        pts.push((3, 600, 900, 0.2)); // big loss
        let hm = map_with(&pts);
        let regions = grow_regions(&hm, 0.85);
        assert_eq!(regions.len(), 2);
        assert!(regions[0].loss_ns > regions[1].loss_ns);
        assert!(regions[0].covers_rank(3));
    }

    #[test]
    fn uncovered_cells_break_connectivity() {
        // Two slow spans on the same rank separated by an uncovered gap.
        let pts = vec![(0usize, 0u64, 200u64, 0.5f64), (0, 800, 1000, 0.5)];
        let hm = map_with(&pts);
        let regions = grow_regions(&hm, 0.85);
        assert_eq!(regions.len(), 2);
    }

    #[test]
    fn covers_rank_agrees_with_the_cell_scan() {
        // The O(1) rank_range containment must equal the old O(cells)
        // scan on every grown region — incl. an L-shaped one.
        let mut pts = vec![];
        for r in 0..4 {
            pts.push((r, 0, 1000, 1.0));
        }
        pts.push((1, 200, 500, 0.3));
        pts.push((2, 200, 300, 0.3)); // L: rank 2 only shares bin 2
        pts.push((3, 700, 800, 0.4)); // separate region on rank 3
        let hm = map_with(&pts);
        for region in grow_regions(&hm, 0.85) {
            for rank in 0..4 {
                assert_eq!(
                    region.covers_rank(rank),
                    region.cells.iter().any(|&(r, _)| r == rank),
                    "rank {rank} in {region:?}"
                );
            }
        }
    }

    #[test]
    fn threshold_is_strict() {
        let pts = vec![(0usize, 0u64, 100u64, 0.85f64)];
        let hm = map_with(&pts);
        assert!(grow_regions(&hm, 0.85).is_empty());
        assert_eq!(grow_regions(&hm, 0.86).len(), 1);
    }
}
