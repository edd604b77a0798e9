//! The server against its references (`vapro_vopr::reference`).
//!
//! * Streamed windows: `WindowedIngestor` fed start-partitioned frames
//!   through the wire emits exactly the reports of the one-shot
//!   `analyze_windows` over the same STGs — detection and diagnoses,
//!   window for window. These run at the default pipeline depth, so
//!   they exercise the staged, scheduling-dependent path (`make
//!   test-repeat` runs this binary twenty times).
//! * One-shot windows: gathering a window from the frames reproduces
//!   the old slice-and-clone pooling, and localises variance in time.
//! * Regions: a `DiagnosisBatch` returns for each region exactly what
//!   the naive per-region `diagnose_region` returns.

mod common;

use common::{edge_clusters, looped_stg, stg_over, stgs_with_noise, whole_pool};
use vapro_core::detect::window::{windows_covering, Window};
use vapro_core::{
    analyze_pool, DiagnosisBatch, Fragment, FragmentBatch, RegionDiagnosis, RegionOfInterest,
    StateKey, Stg, VaproConfig, WindowReport, WindowedIngestor,
};
use vapro_sim::{CallPath, CallSite, VirtualTime};
use vapro_vopr::reference::{analyze_windows, diagnose_region, whole_run_batches};

/// Three ranks ship `stgs` as start-partitioned 5 s batches through
/// the binary wire; the incremental ingestor's reports must equal the
/// one-shot windowed analysis of the same STGs. Returns them.
fn stream_matching_oneshot(stgs: &[Stg]) -> Vec<WindowReport> {
    let cfg = VaproConfig {
        report_period: VirtualTime::from_secs(5),
        ..VaproConfig::default()
    };
    let reference = analyze_windows(&whole_run_batches(stgs), 3, 8, &cfg);

    // Period-major shipping (every rank ships period k before any
    // rank ships k+1) — the paper's reporting pattern. Pool views
    // keep (rank, time) order, so arrival order doesn't matter for
    // the bit-exactness. Empty batches past the data end ship too:
    // they advance the shipping marks far beyond the watermark, and
    // the closing rule must still not emit windows the one-shot
    // cover lacks.
    let mut ingestor = WindowedIngestor::new(3, 8, cfg.clone());
    let mut reports = Vec::new();
    for k in 0..20u64 {
        let period = Window {
            start: VirtualTime::from_secs(5 * k),
            end: VirtualTime::from_secs(5 * (k + 1)),
        };
        for (rank, stg) in stgs.iter().enumerate() {
            let batch = FragmentBatch::from_stg_starting_in(stg, rank, period).with_seq(k + 1);
            reports.extend(
                ingestor.push_encoded(&batch.encode()).expect("valid frame"),
            );
        }
    }
    reports.extend(ingestor.finish());

    assert_eq!(reports.len(), reference.len());
    for (got, want) in reports.iter().zip(&reference) {
        assert_eq!(got.window, want.window);
        assert_eq!(got.result, want.result);
        assert_eq!(got.diagnoses, want.diagnoses);
    }
    reports
}

#[test]
fn incremental_ingestor_matches_batch_windowing() {
    let mut stgs: Vec<Stg> = (0..3)
        .map(|r| looped_stg(r, 30, 1_000_000_000, 0..0))
        .collect();
    stgs[2] = looped_stg(2, 30, 1_000_000_000, 12..18);
    let reports = stream_matching_oneshot(&stgs);
    // And the variance was actually found in some window.
    assert!(reports.iter().any(|r| !r.result.comp_regions.is_empty()));
}

#[test]
fn call_paths_of_different_depth_stream_like_oneshot() {
    // `StateKey`'s derived order puts the shallower path first
    // (frame lists compare before sites); their labels sort the other
    // way round ("main/solve/a.c…" < "main/z.c…"). A location has one
    // order, its label's, whichever side pooled it.
    let shallow = StateKey::Path(CallPath::new(&["main"], CallSite("z.c:1:X")));
    let deep = StateKey::Path(CallPath::new(&["main", "solve"], CallSite("a.c:2:Y")));
    assert!(shallow < deep && shallow.label() > deep.label());
    let stgs: Vec<Stg> = (0..3)
        .map(|r| {
            let slow = if r == 2 { 12..18 } else { 0..0 };
            stg_over([shallow.clone(), deep.clone()], false, r, 30, 1_000_000_000, slow)
        })
        .collect();
    let reports = stream_matching_oneshot(&stgs);
    assert!(reports.iter().any(|r| !r.result.comp_regions.is_empty()));
}

#[test]
fn a_label_sorting_below_start_streams_like_oneshot() {
    // `StateKey::Start` is the smallest key, but its label `<start>`
    // is not the smallest label: a digit-leading site sorts below it.
    // The entry edge carries a fragment, so both lanes exist.
    let site = StateKey::Site(CallSite("0a.c:1:X"));
    assert!(StateKey::Start < site && StateKey::Start.label() > site.label());
    let stgs: Vec<Stg> = (0..3)
        .map(|r| stg_over([site.clone(), site.clone()], true, r, 30, 1_000_000_000, 0..0))
        .collect();
    let reports = stream_matching_oneshot(&stgs);
    assert!(reports.iter().any(|r| r.result.edge_clusters.num_lanes() == 2));
}

#[test]
fn windows_ship_top_k_diagnoses() {
    // Diagnosable data (full S3 memory counter set, memory contention
    // on rank 2 mid-run): windows overlapping the noise must ship
    // region diagnoses, capped at `diagnose_top_k`, and the streaming
    // ingestor must ship exactly the one-shot reports — detection
    // output unchanged, diagnoses included.
    let cfg = VaproConfig {
        report_period: VirtualTime::from_ms(40),
        ..VaproConfig::default()
    };
    let stgs = stgs_with_noise(4, 30, 2, (10_000_000, 40_000_000));
    let reports = analyze_windows(&whole_run_batches(&stgs), 4, 8, &cfg);
    assert!(reports.iter().all(|r| r.diagnoses.len() <= cfg.diagnose_top_k));
    let diagnosed: Vec<&RegionDiagnosis> =
        reports.iter().flat_map(|r| &r.diagnoses).collect();
    assert!(!diagnosed.is_empty(), "no window shipped a diagnosis");
    for d in &diagnosed {
        assert!(!d.report.culprits.is_empty());
        assert!(d.roi.ranks.0 <= d.roi.ranks.1);
    }

    // Stream the same run through the wire-format ingestor.
    let mut ingestor = WindowedIngestor::new(4, 8, cfg.clone());
    let mut streamed = Vec::new();
    for k in 0..5u64 {
        let period = Window {
            start: VirtualTime::from_ms(20 * k),
            end: VirtualTime::from_ms(20 * (k + 1)),
        };
        for (rank, stg) in stgs.iter().enumerate() {
            let batch = FragmentBatch::from_stg_starting_in(stg, rank, period).with_seq(k + 1);
            streamed.extend(ingestor.push_encoded(&batch.encode()).expect("valid frame"));
        }
    }
    streamed.extend(ingestor.finish());
    assert_eq!(streamed.len(), reports.len());
    for (got, want) in streamed.iter().zip(&reports) {
        assert_eq!(got.window, want.window);
        assert_eq!(got.result, want.result);
        assert_eq!(got.diagnoses, want.diagnoses);
    }
    assert!(streamed.iter().any(|r| !r.diagnoses.is_empty()));
}

#[test]
fn windowed_analysis_localises_variance_in_time() {
    // 40 iterations of ~1s each; iterations 20..25 are slow.
    let cfg = VaproConfig {
        report_period: VirtualTime::from_secs(15),
        ..VaproConfig::default()
    };
    let stgs = vec![looped_stg(0, 40, 1_000_000_000, 20..25)];
    let reports = analyze_windows(&whole_run_batches(&stgs), 1, 8, &cfg);
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
    let reports = analyze_windows(&whole_run_batches(&stgs), 3, 8, &cfg);
    let t_end = VirtualTime::from_ns(stgs.iter().flat_map(|s| s.edges()).flat_map(|e| e.fragments.iter()).map(|f| f.end.ns()).max().unwrap());
    let windows = windows_covering(VirtualTime::ZERO, t_end, cfg.report_period);
    assert_eq!(reports.len(), windows.len());
    for (report, window) in reports.iter().zip(windows) {
        assert_eq!(report.window, window);
        let sliced: Vec<Stg> = stgs.iter().map(|s| slice_stg(s, window)).collect();
        let reference = analyze_pool(&whole_pool(&sliced), Window::ALL, 3, 8, &cfg).result;
        assert_eq!(report.result, reference);
    }
}

#[test]
fn diagnosis_can_be_disabled() {
    let cfg = VaproConfig {
        report_period: VirtualTime::from_ms(40),
        diagnose_top_k: 0,
        ..VaproConfig::default()
    };
    let stgs = stgs_with_noise(4, 30, 2, (10_000_000, 40_000_000));
    let reports = analyze_windows(&whole_run_batches(&stgs), 4, 8, &cfg);
    assert!(reports.iter().any(|r| !r.result.comp_regions.is_empty()));
    assert!(reports.iter().all(|r| r.diagnoses.is_empty()));
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
