//! Visualization (paper Fig. 2 step 7): ASCII heat maps and one-line
//! region summaries for terminals, and a JSON heat-map dump consumed by
//! the experiment harness.

use crate::detect::heatmap::HeatMap;
use crate::detect::region::VarianceRegion;

/// Shade characters from worst (left) to best performance (right).
const SHADES: &[char] = &['#', '@', '%', '+', '=', '-', ':', '.', ' '];

/// Render a heat map as ASCII art: one row per rank (`#` = slow,
/// blank = full speed, `?` = no coverage).
pub fn render_heatmap(hm: &HeatMap, max_rows: usize) -> String {
    let mut out = String::new();
    let row_step = hm.ranks.div_ceil(max_rows.max(1)).max(1);
    for rank in (0..hm.ranks).step_by(row_step) {
        out.push_str(&format!("{rank:>6} |"));
        for bin in 0..hm.bins {
            let ch = match hm.perf(rank, bin) {
                None => '?',
                Some(p) => {
                    let idx = ((p.clamp(0.0, 1.0)) * (SHADES.len() - 1) as f64).round()
                        as usize;
                    SHADES[idx]
                }
            };
            out.push(ch);
        }
        out.push('\n');
    }
    out.push_str(&format!(
        "{:>6} +{}\n",
        "",
        "-".repeat(hm.bins)
    ));
    out.push_str(&format!(
        "{:>6}  t0={} bin={}ns overall={:.3} coverage={:.1}%\n",
        "",
        hm.t0,
        hm.bin_ns,
        hm.overall_perf(),
        hm.coverage() * 100.0
    ));
    out
}

/// Serialise a heat map into a dense JSON object with per-cell
/// performance (null = uncovered).
pub fn heatmap_json(hm: &HeatMap) -> serde_json::Value {
    let cells: Vec<Vec<Option<f64>>> = (0..hm.ranks)
        .map(|r| (0..hm.bins).map(|b| hm.perf(r, b)).collect())
        .collect();
    serde_json::json!({
        "t0_ns": hm.t0.ns(),
        "bin_ns": hm.bin_ns,
        "bins": hm.bins,
        "ranks": hm.ranks,
        "perf": cells,
    })
}

/// A one-line textual summary of a variance region, in the style of the
/// paper's reports.
pub fn describe_region(r: &VarianceRegion) -> String {
    format!(
        "ranks {}..={} between {} and {}: mean performance {:.2}, loss {:.3}s",
        r.rank_range.0,
        r.rank_range.1,
        r.t_start,
        r.t_end,
        r.mean_perf,
        r.loss_ns * 1e-9
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::normalize::PerfPoint;
    use vapro_sim::VirtualTime;

    fn sample_map() -> HeatMap {
        let mut hm = HeatMap::new(VirtualTime::ZERO, 100, 8, 4);
        for r in 0..4 {
            hm.add_point(&PerfPoint {
                rank: r,
                start: VirtualTime::ZERO,
                end: VirtualTime::from_ns(800),
                perf: if r == 2 { 0.3 } else { 1.0 },
                loss_ns: 0.0,
            });
        }
        hm
    }

    #[test]
    fn ascii_render_marks_slow_rows() {
        let s = render_heatmap(&sample_map(), 10);
        let lines: Vec<&str> = s.lines().collect();
        // Rank 2 at perf 0.3 renders a dark shade; full-speed rows are blank.
        assert!(lines[2].contains('%') || lines[2].contains('@'), "{s}");
        assert!(!lines[1].contains('%'), "{s}");
        assert!(lines[0].trim_start().starts_with('0'));
        assert!(s.contains("coverage"));
    }

    #[test]
    fn ascii_render_subsamples_rows() {
        let s = render_heatmap(&sample_map(), 2);
        // 4 ranks at max 2 rows → 2 data rows + 2 footer lines.
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    fn json_dump_has_cells() {
        let j = heatmap_json(&sample_map());
        assert_eq!(j["ranks"], 4);
        assert_eq!(j["bins"], 8);
        assert!(j["perf"][2][0].as_f64().unwrap() < 0.5);
    }

    #[test]
    fn region_description_is_readable() {
        let r = VarianceRegion {
            cells: vec![(2, 1)],
            rank_range: (2, 2),
            bin_range: (1, 1),
            t_start: VirtualTime::from_ns(100),
            t_end: VirtualTime::from_ns(200),
            loss_ns: 5e8,
            mean_perf: 0.4,
        };
        let s = describe_region(&r);
        assert!(s.contains("ranks 2..=2"));
        assert!(s.contains("0.40"));
        assert!(s.contains("0.500s"));
    }
}
