//! Contribution analysis (paper §4.3): which factor is responsible for
//! how much of the slowdown.
//!
//! Inside one fixed-workload cluster, fragments costing more than
//! `k_a = 1.2` times the fastest are *abnormal*; the rest are *normal*.
//! The mean factor value over normal fragments is the reference. A
//! factor's contribution in an abnormal fragment is its value's excess
//! over the reference; summed over abnormal fragments it becomes the
//! factor's contribution to the variance. Factors contributing more than
//! 25 % of the overall variance are *major* and drive the next diagnosis
//! stage. The report gives each factor's **impact** (share of the total
//! slowdown) and **duration** (time of abnormal fragments whose major
//! factors include it) — the "suspension accounts for 60.3 % of the
//! slowdown and influences 24.2 % of the execution time" style statement.

use crate::diagnose::factor::Factor;
use crate::diagnose::quantify::FactorValues;

/// One factor's contribution summary.
#[derive(Debug, Clone, PartialEq)]
pub struct FactorContribution {
    /// The factor.
    pub factor: Factor,
    /// Summed excess over the reference across abnormal fragments
    /// (ns for time-quantifiable factors, events otherwise).
    pub contribution: f64,
    /// Share of the total slowdown attributed to this factor (time-
    /// quantifiable factors only; count factors report NaN here and are
    /// quantified by OLS instead).
    pub impact_share: f64,
    /// Fraction of cluster execution time in abnormal fragments whose
    /// major factors include this one.
    pub duration_share: f64,
    /// Major factor at this stage?
    pub major: bool,
}

/// The contribution analysis of one cluster at one stage.
#[derive(Debug, Clone, PartialEq)]
pub struct ContributionReport {
    /// Per-factor results, ordered as the input factors.
    pub factors: Vec<FactorContribution>,
    /// Number of abnormal fragments.
    pub abnormal_count: usize,
    /// Number of normal fragments.
    pub normal_count: usize,
    /// Total slowdown: Σ over abnormal fragments of (duration − reference
    /// duration), ns.
    pub total_slowdown_ns: f64,
}

impl ContributionReport {
    /// The major factors, most-contributing first.
    pub fn major_factors(&self) -> Vec<Factor> {
        let mut majors: Vec<&FactorContribution> =
            self.factors.iter().filter(|f| f.major).collect();
        majors.sort_by(|a, b| {
            b.contribution
                .partial_cmp(&a.contribution)
                .expect("finite contribution")
        });
        majors.iter().map(|f| f.factor).collect()
    }

    /// Look up one factor's entry.
    pub fn of(&self, factor: Factor) -> Option<&FactorContribution> {
        self.factors.iter().find(|f| f.factor == factor)
    }
}

/// Run the contribution analysis. `ka` is the abnormality threshold
/// (1.2), `major_threshold` the major-factor share (0.25).
///
/// Returns `None` when the cluster has no abnormal/normal split to
/// compare (everything normal, or everything abnormal).
pub fn analyze_contributions(
    fv: &FactorValues,
    ka: f64,
    major_threshold: f64,
) -> Option<ContributionReport> {
    assert!(ka > 1.0, "ka must exceed 1");
    let n = fv.len();
    if n < 2 {
        return None;
    }
    let min_dur = fv.durations.iter().copied().fold(f64::INFINITY, f64::min);
    let abnormal: Vec<usize> = (0..n)
        .filter(|&i| fv.durations[i] > ka * min_dur)
        .collect();
    let normal: Vec<usize> =
        (0..n).filter(|&i| fv.durations[i] <= ka * min_dur).collect();
    if abnormal.is_empty() || normal.is_empty() {
        return None;
    }

    // Reference: mean of each factor over normal fragments.
    let k = fv.factors.len();
    let mut reference = vec![0.0; k];
    for &i in &normal {
        for (r, v) in reference.iter_mut().zip(&fv.values[i]) {
            *r += v;
        }
    }
    for r in &mut reference {
        *r /= normal.len() as f64;
    }
    let ref_dur: f64 =
        normal.iter().map(|&i| fv.durations[i]).sum::<f64>() / normal.len() as f64;

    // Contributions over abnormal fragments.
    let mut contributions = vec![0.0; k];
    let total_slowdown_ns: f64 = abnormal
        .iter()
        .map(|&i| (fv.durations[i] - ref_dur).max(0.0))
        .sum();
    for &i in &abnormal {
        for j in 0..k {
            contributions[j] += fv.values[i][j] - reference[j];
        }
    }

    // Per-abnormal-fragment major factor (the marker in Fig. 11): the
    // time-quantifiable factor with the largest excess.
    let mut duration_by_factor = vec![0.0f64; k];
    let total_time: f64 = fv.durations.iter().sum();
    for &i in &abnormal {
        // A fragment's majors: factors whose excess clears the threshold
        // share of this fragment's own slowdown.
        let slow = (fv.durations[i] - ref_dur).max(0.0);
        if slow <= 0.0 {
            continue;
        }
        for j in 0..k {
            if !fv.factors[j].time_quantifiable() {
                continue;
            }
            let excess = fv.values[i][j] - reference[j];
            if excess > major_threshold * slow {
                duration_by_factor[j] += fv.durations[i];
            }
        }
    }

    let factors = (0..k)
        .map(|j| {
            let f = fv.factors[j];
            let impact_share = if f.time_quantifiable() && total_slowdown_ns > 0.0 {
                contributions[j] / total_slowdown_ns
            } else {
                f64::NAN
            };
            let major = if f.time_quantifiable() {
                total_slowdown_ns > 0.0
                    && contributions[j] > major_threshold * total_slowdown_ns
            } else {
                // Count factors become major when their relative excess is
                // large (they cannot be compared in time directly).
                let ref_j = reference[j].max(1e-9);
                contributions[j] / abnormal.len() as f64 > 0.5 * ref_j
            };
            FactorContribution {
                factor: f,
                contribution: contributions[j],
                impact_share,
                duration_share: if total_time > 0.0 {
                    duration_by_factor[j] / total_time
                } else {
                    0.0
                },
                major,
            }
        })
        .collect();

    Some(ContributionReport {
        factors,
        abnormal_count: abnormal.len(),
        normal_count: normal.len(),
        total_slowdown_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-built factor values: `k` factors, durations, per-fragment rows.
    fn fv(factors: Vec<Factor>, rows: Vec<(f64, Vec<f64>)>) -> FactorValues {
        FactorValues {
            factors,
            durations: rows.iter().map(|r| r.0).collect(),
            values: rows.into_iter().map(|r| r.1).collect(),
        }
    }

    #[test]
    fn clean_cluster_has_no_split() {
        let v = fv(
            vec![Factor::BackendBound],
            (0..10).map(|_| (100.0, vec![60.0])).collect(),
        );
        assert!(analyze_contributions(&v, 1.2, 0.25).is_none());
    }

    #[test]
    fn slow_fragments_are_abnormal_and_attributed() {
        // 8 normal at 100ns (backend 60), 2 abnormal at 200ns
        // (backend 160 — the slowdown is backend-bound).
        let mut rows: Vec<(f64, Vec<f64>)> = (0..8).map(|_| (100.0, vec![60.0])).collect();
        rows.push((200.0, vec![160.0]));
        rows.push((200.0, vec![160.0]));
        let v = fv(vec![Factor::BackendBound], rows);
        let rep = analyze_contributions(&v, 1.2, 0.25).unwrap();
        assert_eq!(rep.abnormal_count, 2);
        assert_eq!(rep.normal_count, 8);
        assert!((rep.total_slowdown_ns - 200.0).abs() < 1e-9);
        let be = rep.of(Factor::BackendBound).unwrap();
        assert!(be.major);
        // All of the slowdown is backend: impact share = 200/200.
        assert!((be.impact_share - 1.0).abs() < 1e-9);
        assert_eq!(rep.major_factors(), vec![Factor::BackendBound]);
    }

    #[test]
    fn minor_factor_is_not_major() {
        // Slowdown of 100ns per abnormal fragment: 90 from backend,
        // 10 from suspension → suspension below the 0.25 threshold.
        let mut rows: Vec<(f64, Vec<f64>)> =
            (0..8).map(|_| (100.0, vec![60.0, 5.0])).collect();
        rows.push((200.0, vec![150.0, 15.0]));
        rows.push((200.0, vec![150.0, 15.0]));
        let v = fv(vec![Factor::BackendBound, Factor::Suspension], rows);
        let rep = analyze_contributions(&v, 1.2, 0.25).unwrap();
        assert!(rep.of(Factor::BackendBound).unwrap().major);
        assert!(!rep.of(Factor::Suspension).unwrap().major);
        let shares: f64 = rep
            .factors
            .iter()
            .map(|f| f.impact_share)
            .sum();
        assert!((shares - 1.0).abs() < 0.01, "impact shares {shares}");
    }

    #[test]
    fn duration_share_tracks_affected_time() {
        // 2 of 10 fragments abnormal with backend as the major factor:
        // duration share = 400 / total.
        let mut rows: Vec<(f64, Vec<f64>)> = (0..8).map(|_| (100.0, vec![60.0])).collect();
        rows.push((200.0, vec![160.0]));
        rows.push((200.0, vec![160.0]));
        let v = fv(vec![Factor::BackendBound], rows);
        let rep = analyze_contributions(&v, 1.2, 0.25).unwrap();
        let total: f64 = 8.0 * 100.0 + 2.0 * 200.0;
        let expect = 400.0 / total;
        let got = rep.of(Factor::BackendBound).unwrap().duration_share;
        assert!((got - expect).abs() < 1e-9, "{got} vs {expect}");
    }

    #[test]
    fn count_factors_go_major_on_large_relative_excess() {
        // Involuntary CS: 0 in normal, 50 in abnormal fragments.
        let mut rows: Vec<(f64, Vec<f64>)> = (0..8).map(|_| (100.0, vec![0.0])).collect();
        rows.push((250.0, vec![50.0]));
        rows.push((250.0, vec![50.0]));
        let v = fv(vec![Factor::InvoluntaryCs], rows);
        let rep = analyze_contributions(&v, 1.2, 0.25).unwrap();
        let ics = rep.of(Factor::InvoluntaryCs).unwrap();
        assert!(ics.major);
        assert!(ics.impact_share.is_nan()); // counts aren't time shares
        assert!((ics.contribution - 100.0).abs() < 1e-9);
    }

    #[test]
    fn ka_threshold_splits_exactly() {
        // min = 100; ka=1.2 → abnormal iff > 120.
        let rows = vec![
            (100.0, vec![1.0]),
            (115.0, vec![1.0]),
            (120.0, vec![1.0]),
            (121.0, vec![2.0]),
            (300.0, vec![3.0]),
        ];
        let v = fv(vec![Factor::BackendBound], rows);
        let rep = analyze_contributions(&v, 1.2, 0.25).unwrap();
        assert_eq!(rep.abnormal_count, 2);
        assert_eq!(rep.normal_count, 3);
    }

    #[test]
    fn all_abnormal_cluster_is_rejected() {
        let rows = vec![(100.0, vec![1.0]), (500.0, vec![1.0]), (600.0, vec![1.0])];
        // min = 100, the others > 120 → only one "normal" — fine; but if
        // even the min is the lone fragment and everything else abnormal,
        // analysis still works. True rejection needs an empty side:
        let v = fv(vec![Factor::BackendBound], rows);
        assert!(analyze_contributions(&v, 1.2, 0.25).is_some());
        let lone = fv(vec![Factor::BackendBound], vec![(100.0, vec![1.0])]);
        assert!(analyze_contributions(&lone, 1.2, 0.25).is_none());
    }
}
