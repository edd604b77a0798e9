//! Progressive diagnosis (paper §4.3): locate major factors stage by
//! stage, widening the active counter set only along the branches that
//! matter, so only a few counters are live at any time.
//!
//! Each step costs one client→server data-shipping period plus one
//! analysis latency; locating an S_n factor takes n periods — cheap
//! against production run times. In a live deployment the server
//! notifies clients to reprogram their PMUs between steps. Here every
//! step reads the cluster's members in place from the sealed columns of
//! one lane ([`diagnose_cluster`]), each member's counters projected
//! onto the step's set: what that member ships with only the set live.
//! A caller that re-simulates the cluster under each set instead hands
//! [`diagnose_progressively`] a closure, whose fragments are sealed
//! into a one-lane pool and read the same way.

use crate::columnar::{ColumnarPool, LaneView};
use crate::diagnose::contribution::{analyze_contributions, ContributionReport};
use crate::diagnose::factor::Factor;
use crate::diagnose::quantify::{ols_impacts, FactorValues, OlsImpact};
use crate::fragment::Fragment;
use vapro_pmu::CounterSet;

/// One stage of the drill-down.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StageStep {
    /// Factors analysed at this step.
    pub factors: Vec<Factor>,
    /// Counter set that had to be active.
    pub counters_used: usize,
    /// Contribution analysis of this step.
    pub report: ContributionReport,
    /// OLS impacts for this step's count factors (empty when all factors
    /// were formula-quantifiable or OLS lacked data).
    pub ols: Vec<OlsImpact>,
}

/// Final output of progressive diagnosis. Equality compares every `f64`
/// by bits, so a report equals its clone even where it holds NaNs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiagnosisReport {
    /// The drill-down trace, one entry per stage analysed.
    pub steps: Vec<StageStep>,
    /// The most fine-grained major factors found (leaves of the descent).
    pub culprits: Vec<Factor>,
    /// Data-shipping periods consumed (the n of "n periods for S_n").
    pub periods: usize,
}

impl DiagnosisReport {
    /// The top culprit, if any.
    pub fn top_culprit(&self) -> Option<Factor> {
        self.culprits.first().copied()
    }

    /// Impact share (fraction of the slowdown) of a factor at the step
    /// where it was analysed.
    pub fn impact_share(&self, f: Factor) -> Option<f64> {
        self.steps
            .iter()
            .rev()
            .find_map(|s| s.report.of(f).map(|c| c.impact_share))
    }
}

/// Run the drill-down over one cluster: `members` index rows of `lane`.
pub fn diagnose_cluster(lane: LaneView<'_>, members: &[u32]) -> Option<DiagnosisReport> {
    descend(|set, frontier| analyze_step(&lane, members, set, frontier))
}

/// Run the drill-down over a cluster re-collected at every step.
/// `provider` returns the cluster's fragments as collected under the
/// given counter set — fragments whose recorded counters don't include
/// the set are unusable and must be re-collected, which is what costs a
/// period per stage.
pub fn diagnose_progressively(
    provider: &mut dyn FnMut(CounterSet) -> Vec<Fragment>,
) -> Option<DiagnosisReport> {
    descend(|set, frontier| {
        let fragments = provider(set);
        let pool = ColumnarPool::single_lane(&fragments);
        let members: Vec<u32> = (0..fragments.len() as u32).collect();
        analyze_step(&pool.all(), &members, set, frontier)
    })
}

/// One step over the columns: the contribution analysis of `frontier`
/// and the OLS of its count factors. Each table keeps its own rows —
/// the members that carry every counter *its* factors read — so the two
/// are one table only when every factor is a count factor.
fn analyze_step(
    lane: &LaneView<'_>,
    members: &[u32],
    set: CounterSet,
    frontier: &[Factor],
) -> Option<(ContributionReport, Vec<OlsImpact>)> {
    let fv = FactorValues::from_members(lane, members, set, frontier)?;
    let report = analyze_contributions(&fv)?;
    let count_factors: Vec<Factor> =
        frontier.iter().copied().filter(|f| !f.time_quantifiable()).collect();
    let ols = if count_factors.is_empty() {
        None
    } else if count_factors.len() == frontier.len() {
        ols_impacts(&fv)
    } else {
        FactorValues::from_members(lane, members, set, &count_factors)
            .and_then(|cfv| ols_impacts(&cfv))
    };
    Some((report, ols.map(|(impacts, _)| impacts).unwrap_or_default()))
}

/// The descent: S1 first, then the children of each major factor, one
/// `step` per stage until the frontier runs out or a step finds no
/// contrast.
fn descend(
    mut step: impl FnMut(CounterSet, &[Factor]) -> Option<(ContributionReport, Vec<OlsImpact>)>,
) -> Option<DiagnosisReport> {
    let mut steps: Vec<StageStep> = Vec::new();
    let mut periods = 0usize;
    let mut frontier: Vec<Factor> = Factor::S1.into();
    let mut culprits: Vec<Factor> = Vec::new();

    while !frontier.is_empty() {
        // One collection period for this stage's counter set.
        let needed = frontier
            .iter()
            .fold(CounterSet::empty(), |acc, f| acc.union(f.required_counters()));
        periods += 1;
        let Some((report, ols)) = step(needed, &frontier) else {
            break;
        };

        let majors = report.major_factors();
        steps.push(StageStep {
            factors: frontier.clone(),
            counters_used: needed.len(),
            report,
            ols,
        });

        // Descend: majors with children are refined next; leaves are
        // final culprits.
        let mut next = Vec::new();
        for m in majors {
            if m.children().is_empty() {
                if !culprits.contains(&m) {
                    culprits.push(m);
                }
            } else {
                next.extend_from_slice(m.children());
            }
        }
        frontier = next;
    }

    if steps.is_empty() {
        return None;
    }
    // If the descent ended with unrefined majors (analysis ran dry), take
    // the last step's majors as culprits.
    if culprits.is_empty() {
        if let Some(last) = steps.last() {
            culprits = last.report.major_factors();
        }
    }
    Some(DiagnosisReport { steps, culprits, periods })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::FragmentKind;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use vapro_pmu::{CpuConfig, CpuModel, JitterModel, NoiseEnv, WorkloadSpec};
    use vapro_sim::VirtualTime;

    /// A provider that simulates a fixed-workload cluster under the given
    /// noise for odd-indexed fragments, projecting counters to the
    /// requested set (modelling PMU reprogramming between periods).
    fn provider_for(
        spec: WorkloadSpec,
        noisy: NoiseEnv,
        n: usize,
    ) -> impl FnMut(CounterSet) -> Vec<Fragment> {
        move |set: CounterSet| {
            let model = CpuModel::with_jitter(CpuConfig::default(), JitterModel::exact());
            let mut rng = ChaCha8Rng::seed_from_u64(5);
            let mut t = 0u64;
            (0..n)
                .map(|i| {
                    let env = if i % 2 == 1 { noisy } else { NoiseEnv::quiet() };
                    let out = model.execute(&spec, &env, &mut rng);
                    let start = VirtualTime::from_ns(t);
                    let end = start + VirtualTime::from_ns_f64(out.wall_ns);
                    t = end.ns() + 100;
                    Fragment {
                        rank: 0,
                        kind: FragmentKind::Computation,
                        start,
                        end,
                        counters: out.counters.project(set),
                        args: vec![],
                    }
                })
                .collect()
        }
    }

    #[test]
    fn memory_noise_descends_to_dram_bound() {
        let mut provider = provider_for(
            WorkloadSpec::memory_bound(4e6),
            NoiseEnv { mem_contention: 2.0, ..NoiseEnv::default() },
            40,
        );
        let rep = diagnose_progressively(&mut provider).unwrap();
        // S1 → backend; S2 → memory; S3 → DRAM.
        assert!(rep.culprits.contains(&Factor::DramBound), "culprits {:?}", rep.culprits);
        assert_eq!(rep.periods, 3);
        assert_eq!(rep.steps[0].factors, Factor::S1.to_vec());
        assert!(rep.steps[0].report.of(Factor::BackendBound).unwrap().major);
    }

    #[test]
    fn cpu_contention_descends_to_involuntary_cs() {
        let mut provider = provider_for(
            WorkloadSpec::compute_bound(3e6),
            NoiseEnv { cpu_steal: 0.5, ..NoiseEnv::default() },
            40,
        );
        let rep = diagnose_progressively(&mut provider).unwrap();
        assert!(
            rep.culprits.contains(&Factor::InvoluntaryCs),
            "culprits {:?}",
            rep.culprits
        );
        // Suspension was the S1 major.
        assert!(rep.steps[0].report.of(Factor::Suspension).unwrap().major);
        // The suspension stage used OLS on the count factors.
        let suspension_step = rep
            .steps
            .iter()
            .find(|s| s.factors.contains(&Factor::ContextSwitch))
            .unwrap();
        assert!(!suspension_step.ols.is_empty());
        // Count factors carry a NaN impact share; the report still equals
        // its own clone.
        let share = suspension_step.report.of(Factor::ContextSwitch).unwrap().impact_share;
        assert!(share.is_nan());
        assert_eq!(rep, rep.clone());
    }

    #[test]
    fn sealed_columns_and_recollection_agree() {
        // The same cluster read in place with its full counters, and
        // re-collected under each step's set: projecting onto the set is
        // what re-collecting does, so the reports are bit-identical.
        let frags = provider_for(
            WorkloadSpec::compute_bound(3e6),
            NoiseEnv { cpu_steal: 0.5, ..NoiseEnv::default() },
            40,
        )(CounterSet::all());
        let pool = ColumnarPool::single_lane(&frags);
        let members: Vec<u32> = (0..frags.len() as u32).collect();
        let in_place = diagnose_cluster(pool.all(), &members).unwrap();
        let mut recollect = provider_for(
            WorkloadSpec::compute_bound(3e6),
            NoiseEnv { cpu_steal: 0.5, ..NoiseEnv::default() },
            40,
        );
        let recollected = diagnose_progressively(&mut recollect).unwrap();
        assert_eq!(in_place, recollected);
        assert!(in_place.steps.len() >= 3);
    }

    #[test]
    fn l2_bug_descends_to_l2_and_dram() {
        // The HPL case study's signature: L2 evictions → L2-miss stalls
        // and extra DRAM traffic.
        let spec = WorkloadSpec {
            instructions: 5e6,
            mem_refs: 1.5e6,
            locality: vapro_pmu::Locality { l1: 0.5, l2: 0.45, l3: 0.04, dram: 0.01 },
            ..WorkloadSpec::default()
        };
        let mut provider = provider_for(
            spec,
            NoiseEnv { l2_bug_prob: 1.0, l2_bug_severity: 0.6, ..NoiseEnv::default() },
            40,
        );
        let rep = diagnose_progressively(&mut provider).unwrap();
        let has_l2_or_dram = rep
            .culprits
            .iter()
            .any(|c| matches!(c, Factor::L2Bound | Factor::L3Bound | Factor::DramBound));
        assert!(has_l2_or_dram, "culprits {:?}", rep.culprits);
        // Backend dominates at S1, as the paper reports (96.6 %).
        let be_share = rep.steps[0].report.of(Factor::BackendBound).unwrap().impact_share;
        assert!(be_share > 0.6, "backend share {be_share}");
    }

    #[test]
    fn quiet_cluster_yields_no_diagnosis() {
        let mut provider =
            provider_for(WorkloadSpec::mixed(1e6), NoiseEnv::quiet(), 30);
        let rep = diagnose_progressively(&mut provider);
        // No abnormal fragments → no report (nothing to diagnose).
        assert!(rep.is_none());
    }

    #[test]
    fn periods_count_matches_stage_depth() {
        let mut provider = provider_for(
            WorkloadSpec::memory_bound(4e6),
            NoiseEnv { mem_contention: 2.0, ..NoiseEnv::default() },
            40,
        );
        let rep = diagnose_progressively(&mut provider).unwrap();
        assert_eq!(rep.periods, rep.steps.len());
        // Counter sets widen down the stages.
        for w in rep.steps.windows(2) {
            assert!(w[1].counters_used >= w[0].counters_used);
        }
    }

    #[test]
    fn impact_share_is_retrievable_from_the_right_step() {
        let mut provider = provider_for(
            WorkloadSpec::memory_bound(4e6),
            NoiseEnv { mem_contention: 2.0, ..NoiseEnv::default() },
            40,
        );
        let rep = diagnose_progressively(&mut provider).unwrap();
        let share = rep.impact_share(Factor::MemoryBound).unwrap();
        assert!(share > 0.5, "memory share {share}");
        assert!(rep.top_culprit().is_some());
    }
}
