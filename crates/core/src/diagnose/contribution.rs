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

/// `k_a`: a fragment is *abnormal* when it costs more than this multiple
/// of the fastest fragment in its cluster (paper §4.3).
pub const ABNORMAL_RATIO: f64 = 1.2;

/// A factor is *major* when it contributes more than this share of the
/// overall slowdown (paper §4.3).
pub const MAJOR_SHARE: f64 = 0.25;

/// One factor's contribution summary.
#[derive(Debug, Clone)]
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

/// Equal when every field is, `f64`s compared by bits: a count factor's
/// `impact_share` is NaN by design, and equality must stay reflexive for
/// reports to be comparable at all.
impl PartialEq for FactorContribution {
    fn eq(&self, other: &FactorContribution) -> bool {
        let key = |c: &FactorContribution| {
            let bits = [c.contribution, c.impact_share, c.duration_share].map(f64::to_bits);
            (c.factor, bits, c.major)
        };
        key(self) == key(other)
    }
}

impl Eq for FactorContribution {}

/// The contribution analysis of one cluster at one stage.
#[derive(Debug, Clone)]
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

/// Field-wise, the slowdown compared by bits (see [`FactorContribution`]).
impl PartialEq for ContributionReport {
    fn eq(&self, other: &ContributionReport) -> bool {
        self.factors == other.factors
            && self.abnormal_count == other.abnormal_count
            && self.normal_count == other.normal_count
            && self.total_slowdown_ns.to_bits() == other.total_slowdown_ns.to_bits()
    }
}

impl Eq for ContributionReport {}

impl ContributionReport {
    /// The major factors, most-contributing first.
    pub fn major_factors(&self) -> Vec<Factor> {
        let mut majors: Vec<&FactorContribution> =
            self.factors.iter().filter(|f| f.major).collect();
        majors.sort_by(|a, b| b.contribution.total_cmp(&a.contribution));
        majors.iter().map(|f| f.factor).collect()
    }

    /// Look up one factor's entry.
    pub fn of(&self, factor: Factor) -> Option<&FactorContribution> {
        self.factors.iter().find(|f| f.factor == factor)
    }
}

/// Run the contribution analysis: fragments past [`ABNORMAL_RATIO`] times
/// the fastest are abnormal, factors past [`MAJOR_SHARE`] are major.
///
/// Returns `None` when the cluster has no abnormal/normal split to
/// compare (everything normal, or everything abnormal).
pub fn analyze_contributions(fv: &FactorValues<'_>) -> Option<ContributionReport> {
    let n = fv.len();
    if n < 2 {
        return None;
    }
    let durations = &fv.durations;
    let min_dur = durations.iter().copied().fold(f64::INFINITY, f64::min);
    let abnormal = |d: f64| d > ABNORMAL_RATIO * min_dur;
    let normal = |d: f64| d <= ABNORMAL_RATIO * min_dur;
    let abnormal_count = durations.iter().filter(|&&d| abnormal(d)).count();
    let normal_count = durations.iter().filter(|&&d| normal(d)).count();
    if abnormal_count == 0 || normal_count == 0 {
        return None;
    }

    let ref_dur: f64 =
        durations.iter().filter(|&&d| normal(d)).sum::<f64>() / normal_count as f64;
    let total_slowdown_ns: f64 = durations
        .iter()
        .filter(|&&d| abnormal(d))
        .map(|&d| (d - ref_dur).max(0.0))
        .sum();
    let total_time: f64 = durations.iter().sum();

    // One pass per column; each sum accumulates in row order.
    let factors = fv
        .factors
        .iter()
        .enumerate()
        .map(|(j, &f)| {
            let column = fv.column(j);
            // Reference: the factor's mean over normal fragments.
            let mut reference = 0.0;
            for (&v, &d) in column.iter().zip(durations) {
                if normal(d) {
                    reference += v;
                }
            }
            reference /= normal_count as f64;
            // Contribution over abnormal fragments, and the time of those
            // whose own majors include this factor (the marker in Fig. 11):
            // its excess clears the threshold share of the fragment's own
            // slowdown.
            let (mut contribution, mut affected) = (0.0, 0.0f64);
            for (&v, &d) in column.iter().zip(durations) {
                if !abnormal(d) {
                    continue;
                }
                contribution += v - reference;
                let slow = (d - ref_dur).max(0.0);
                if f.time_quantifiable() && slow > 0.0 && v - reference > MAJOR_SHARE * slow {
                    affected += d;
                }
            }
            let impact_share = if f.time_quantifiable() && total_slowdown_ns > 0.0 {
                contribution / total_slowdown_ns
            } else {
                f64::NAN
            };
            let major = if f.time_quantifiable() {
                total_slowdown_ns > 0.0 && contribution > MAJOR_SHARE * total_slowdown_ns
            } else {
                // Count factors become major when their relative excess is
                // large (they cannot be compared in time directly).
                let ref_j = reference.max(1e-9);
                contribution / abnormal_count as f64 > 0.5 * ref_j
            };
            FactorContribution {
                factor: f,
                contribution,
                impact_share,
                duration_share: if total_time > 0.0 { affected / total_time } else { 0.0 },
                major,
            }
        })
        .collect();

    Some(ContributionReport { factors, abnormal_count, normal_count, total_slowdown_ns })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hand-built factor values: `k` factors, durations, per-fragment rows.
    fn fv(factors: &[Factor], rows: Vec<(f64, Vec<f64>)>) -> FactorValues<'_> {
        FactorValues {
            factors,
            durations: rows.iter().map(|r| r.0).collect(),
            values: (0..factors.len()).flat_map(|j| rows.iter().map(move |r| r.1[j])).collect(),
        }
    }

    #[test]
    fn clean_cluster_has_no_split() {
        let v = fv(&[Factor::BackendBound], (0..10).map(|_| (100.0, vec![60.0])).collect());
        assert!(analyze_contributions(&v).is_none());
    }

    #[test]
    fn slow_fragments_are_abnormal_and_attributed() {
        // 8 normal at 100ns (backend 60), 2 abnormal at 200ns
        // (backend 160 — the slowdown is backend-bound).
        let mut rows: Vec<(f64, Vec<f64>)> = (0..8).map(|_| (100.0, vec![60.0])).collect();
        rows.push((200.0, vec![160.0]));
        rows.push((200.0, vec![160.0]));
        let v = fv(&[Factor::BackendBound], rows);
        let rep = analyze_contributions(&v).unwrap();
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
        let v = fv(&[Factor::BackendBound, Factor::Suspension], rows);
        let rep = analyze_contributions(&v).unwrap();
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
        let v = fv(&[Factor::BackendBound], rows);
        let rep = analyze_contributions(&v).unwrap();
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
        let v = fv(&[Factor::InvoluntaryCs], rows);
        let rep = analyze_contributions(&v).unwrap();
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
        let v = fv(&[Factor::BackendBound], rows);
        let rep = analyze_contributions(&v).unwrap();
        assert_eq!(rep.abnormal_count, 2);
        assert_eq!(rep.normal_count, 3);
    }

    #[test]
    fn all_abnormal_cluster_is_rejected() {
        let rows = vec![(100.0, vec![1.0]), (500.0, vec![1.0]), (600.0, vec![1.0])];
        // min = 100, the others > 120 → only one "normal" — fine; but if
        // even the min is the lone fragment and everything else abnormal,
        // analysis still works. True rejection needs an empty side:
        let v = fv(&[Factor::BackendBound], rows);
        assert!(analyze_contributions(&v).is_some());
        let lone = fv(&[Factor::BackendBound], vec![(100.0, vec![1.0])]);
        assert!(analyze_contributions(&lone).is_none());
    }
}
