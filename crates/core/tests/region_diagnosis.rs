//! Region-of-interest diagnosis on the product path (paper §3.5: "users
//! are able to select regions of interest on the heat map for diagnosis
//! as well"): a [`DiagnosisBatch`] over the run's sealed pool, seeded
//! with the edge lanes' clusterings as detection computes them — what
//! the analysis server runs for every detected region.

mod common;

use common::{edge_clusters, stgs_with_noise, whole_pool};
use vapro_core::diagnose::Factor;
use vapro_core::{ColumnarPool, DiagnosisBatch, DiagnosisReport, RegionOfInterest, VaproConfig};
use vapro_sim::VirtualTime;

/// Diagnose `roi` as the server does: cluster the pool's edge lanes,
/// then ask a batch over them.
fn diagnose(pool: &ColumnarPool, roi: &RegionOfInterest, cfg: &VaproConfig) -> Option<DiagnosisReport> {
    let clusters = edge_clusters(pool, cfg);
    DiagnosisBatch::with_clusters(pool, cfg, &clusters).diagnose(roi)
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
    let rep = diagnose(&whole_pool(&stgs), &roi, &cfg).expect("diagnosis ran");
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
    use vapro_core::fragment::clone_count;
    // Clustering reads the lanes' columns and every drill-down step
    // reads the members in place from them; nothing on the path clones
    // the population.
    let stgs = stgs_with_noise(4, 30, 2, (10_000_000, 40_000_000));
    let roi = RegionOfInterest {
        ranks: (2, 2),
        t_start: VirtualTime::from_ms(10),
        t_end: VirtualTime::from_ms(40),
    };
    let pool = whole_pool(&stgs);
    let before = clone_count::on_this_thread();
    let rep = diagnose(&pool, &roi, &VaproConfig::default());
    assert!(rep.is_some());
    assert_eq!(clone_count::on_this_thread() - before, 0);
}

#[cfg(any(debug_assertions, feature = "clone-count"))]
#[test]
fn batch_diagnosis_clones_no_fragments() {
    use vapro_core::fragment::clone_count;
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

#[test]
fn quiet_region_yields_no_diagnosis() {
    let stgs = stgs_with_noise(4, 20, usize::MAX, (0, 0));
    let roi = RegionOfInterest {
        ranks: (0, 3),
        t_start: VirtualTime::ZERO,
        t_end: VirtualTime::from_secs(10),
    };
    assert!(diagnose(&whole_pool(&stgs), &roi, &VaproConfig::default()).is_none());
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
    assert!(diagnose(&whole_pool(&stgs), &roi, &VaproConfig::default()).is_none());
}
