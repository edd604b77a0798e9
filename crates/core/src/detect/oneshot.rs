//! The one-shot windowed analysis — the test reference every stream ≡
//! one-shot test compares the streaming path against (the figures run
//! [`WindowedIngestor`]).
//!
//! [`analyze_windows`] gathers each window straight out of the shipped
//! frames ([`ColumnarPool::from_batches`]) and hands it to the same
//! [`analyze_view_columnar`] the streaming path ends in. Nothing here
//! goes through the encoder, the arena, its sort, eviction or the
//! stage: the whole run is resident, which is what makes it a
//! trustworthy reference for everything upstream of the kernel in
//! [`WindowedIngestor`], whose reports (stream + `finish`) must equal
//! these bit for bit.
//!
//! [`WindowedIngestor`]: crate::detect::ingestor::WindowedIngestor

use crate::columnar::ColumnarPool;
use crate::config::VaproConfig;
use crate::detect::ingestor::{analyze_view_columnar, WindowReport};
use crate::detect::pipeline::AnalysisScratch;
use crate::detect::window::windows_covering;
use crate::report::WindowCoverage;
use crate::wire::FragmentBatch;
use rayon::prelude::*;
use vapro_sim::VirtualTime;

/// Analyse the run in overlapped windows of `cfg.report_period`: each
/// window's fragments (from every batch, taken rank by rank and each
/// rank's in period order) are detected independently; windows run in
/// parallel. Per-window populations are transposed field by field —
/// zero `Fragment` clones.
pub fn analyze_windows<'b, B>(
    batches: B,
    nranks: usize,
    bins_per_window: usize,
    cfg: &VaproConfig,
) -> Vec<WindowReport>
where
    B: IntoIterator<Item = &'b FragmentBatch> + Clone + Sync,
{
    let t_end = batches.clone().into_iter().flat_map(FragmentBatch::fragments).map(|f| f.end).max();
    windows_covering(VirtualTime::ZERO, t_end.unwrap_or(VirtualTime::ZERO), cfg.report_period)
        .into_par_iter()
        .map(|window| {
            let pool = ColumnarPool::from_batches(batches.clone(), Some(window));
            let coverage = WindowCoverage::full(nranks);
            let scratch = &mut AnalysisScratch::default();
            analyze_view_columnar(&pool, window, nranks, bins_per_window, cfg, coverage, scratch)
        })
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::detect::arena::tests::looped_stg;
    use crate::detect::pipeline::DetectionResult;
    use crate::detect::window::Window;
    use crate::fragment::Fragment;
    use crate::stg::Stg;

    /// Each rank's hand-built STG cut as one frame covering all time.
    pub(crate) fn whole_batches(stgs: &[Stg]) -> Vec<FragmentBatch> {
        let cut = |(rank, stg)| FragmentBatch::from_stg_starting_in(stg, rank, Window::ALL);
        stgs.iter().enumerate().map(cut).collect()
    }

    /// Every fragment of the rank-indexed STGs in one pool.
    pub(crate) fn whole_pool(stgs: &[Stg]) -> ColumnarPool {
        ColumnarPool::from_batches(&whole_batches(stgs), None)
    }

    /// The whole run gathered from the STGs into one pool and analysed
    /// as a single window: detection plus the top regions' diagnoses.
    pub(crate) fn whole_run(
        stgs: &[Stg],
        nranks: usize,
        bins: usize,
        cfg: &VaproConfig,
    ) -> WindowReport {
        let pool = whole_pool(stgs);
        let coverage = WindowCoverage::full(nranks);
        analyze_view_columnar(&pool, Window::ALL, nranks, bins, cfg, coverage, &mut AnalysisScratch::default())
    }

    pub(crate) fn assert_results_identical(a: &DetectionResult, b: &DetectionResult) {
        assert_eq!(a.series, b.series);
        assert_eq!(a.rare_paths, b.rare_paths);
        assert_eq!(a.comp_map, b.comp_map);
        assert_eq!(a.comm_map, b.comm_map);
        assert_eq!(a.io_map, b.io_map);
        assert_eq!(a.comp_regions, b.comp_regions);
        assert_eq!(a.comm_regions, b.comm_regions);
        assert_eq!(a.io_regions, b.io_regions);
        assert_eq!(a.coverage.to_bits(), b.coverage.to_bits());
        assert_eq!(a.edge_clusters, b.edge_clusters);
    }

    #[test]
    fn windowed_analysis_localises_variance_in_time() {
        // 40 iterations of ~1s each; iterations 20..25 are slow.
        let cfg = VaproConfig {
            report_period: VirtualTime::from_secs(15),
            ..VaproConfig::default()
        };
        let stgs = vec![looped_stg(0, 40, 1_000_000_000, 20..25)];
        let reports = analyze_windows(&whole_batches(&stgs), 1, 8, &cfg);
        assert!(reports.len() > 2, "windows: {}", reports.len());
        // Windows overlapping the slow span see variance; early ones don't.
        let early = &reports[0];
        assert!(early.result.comp_regions.is_empty());
        let hit = reports
            .iter()
            .any(|r| !r.result.comp_regions.is_empty());
        assert!(hit, "no window detected the slow span");
    }

    /// The pre-refactor reference: restrict an STG to the fragments
    /// overlapping `window` by *cloning* them into a fresh graph.
    fn slice_stg(stg: &Stg, window: Window) -> Stg {
        let keep = |f: &Fragment| window.overlaps(f.start, f.end);
        let mut out = Stg::new();
        let mut ids = Vec::with_capacity(stg.num_states());
        for v in stg.vertices() {
            let id = out.state(v.key.clone());
            ids.push(id);
            for f in v.fragments.iter().filter(|f| keep(f)) {
                out.attach_vertex_fragment(id, f.clone());
            }
        }
        for e in stg.edges() {
            let eid = out.transition(ids[e.from], ids[e.to]);
            for f in e.fragments.iter().filter(|f| keep(f)) {
                out.attach_edge_fragment(eid, f.clone());
            }
        }
        out
    }

    #[test]
    fn window_views_are_bit_identical_to_cloned_slices() {
        // The windowed gather must reproduce the old slice-and-clone
        // pooling exactly, window by window.
        let cfg = VaproConfig {
            report_period: VirtualTime::from_secs(5),
            ..VaproConfig::default()
        };
        let mut stgs: Vec<Stg> = (0..3)
            .map(|r| looped_stg(r, 30, 1_000_000_000, 0..0))
            .collect();
        stgs[1] = looped_stg(1, 30, 1_000_000_000, 10..16);
        let reports = analyze_windows(&whole_batches(&stgs), 3, 8, &cfg);
        let t_end = VirtualTime::from_ns(stgs.iter().flat_map(|s| s.edges()).flat_map(|e| e.fragments.iter()).map(|f| f.end.ns()).max().unwrap());
        let windows = windows_covering(VirtualTime::ZERO, t_end, cfg.report_period);
        assert_eq!(reports.len(), windows.len());
        for (report, window) in reports.iter().zip(windows) {
            assert_eq!(report.window, window);
            let sliced: Vec<Stg> = stgs.iter().map(|s| slice_stg(s, window)).collect();
            let reference = whole_run(&sliced, 3, 8, &cfg).result;
            assert_results_identical(&report.result, &reference);
        }
    }

    #[cfg(any(debug_assertions, feature = "clone-count"))]
    #[test]
    fn window_views_clone_no_fragments() {
        use crate::detect::pipeline::detect_columnar;
        use crate::fragment::clone_count;
        let cfg = VaproConfig {
            report_period: VirtualTime::from_secs(5),
            ..VaproConfig::default()
        };
        let stgs: Vec<Stg> = (0..2)
            .map(|r| looped_stg(r, 20, 1_000_000_000, 5..9))
            .collect();
        let windows =
            windows_covering(VirtualTime::ZERO, VirtualTime::from_secs(25), cfg.report_period);
        let batches = whole_batches(&stgs);
        let large = whole_batches(&(0..4).map(|r| looped_stg(r, 2_100, 1_000, 50..90)).collect::<Vec<_>>());
        // Detection runs on the calling thread whatever the pool's size,
        // so the thread-local clone counter sees every clone it makes —
        // here over small windows and one whole-run pool of 8k+ rows.
        let before = clone_count::on_this_thread();
        for window in windows {
            let _ = detect_columnar(&ColumnarPool::from_batches(&batches, Some(window)), 2, 8, &cfg);
        }
        let pool = ColumnarPool::from_batches(&large, None);
        assert!(pool.len() >= 8_192, "{} rows", pool.len());
        let _ = detect_columnar(&pool, 4, 16, &cfg);
        assert_eq!(clone_count::on_this_thread(), before, "fragment cloned on window path");
    }

    #[test]
    fn diagnosis_can_be_disabled() {
        use crate::diagnose::driver::tests::stgs_with_noise;
        let cfg = VaproConfig {
            report_period: VirtualTime::from_ms(40),
            diagnose_top_k: 0,
            ..VaproConfig::default()
        };
        let stgs = stgs_with_noise(4, 30, 2, (10_000_000, 40_000_000));
        let reports = analyze_windows(&whole_batches(&stgs), 4, 8, &cfg);
        assert!(reports.iter().any(|r| !r.result.comp_regions.is_empty()));
        assert!(reports.iter().all(|r| r.diagnoses.is_empty()));
    }
}
