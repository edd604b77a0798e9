//! Progressive diagnosis (paper §4.3): locate major factors stage by
//! stage, widening the active counter set only along the branches that
//! matter, so only a few counters are live at any time.
//!
//! Each step costs one client→server data-shipping period plus one
//! analysis latency; locating an S_n factor takes n periods — cheap
//! against production run times. The driver asks a *data provider* for
//! cluster fragments collected under a given counter set (in a live
//! deployment the server notifies clients to reprogram their PMUs; in
//! this reproduction the provider re-projects or re-simulates).

use crate::diagnose::contribution::{analyze_contributions, ContributionReport};
use crate::diagnose::factor::Factor;
use crate::diagnose::quantify::{ols_impacts, FactorValues, OlsImpact};
use crate::fragment::Fragment;
use vapro_pmu::CounterSet;

/// One stage of the drill-down.
#[derive(Debug, Clone, PartialEq)]
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

/// Final output of progressive diagnosis.
#[derive(Debug, Clone, PartialEq)]
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

/// A source of cluster fragments as collected under a given counter set.
///
/// Borrow-based twin of the closure form of [`diagnose_progressively`]:
/// `collect` returns a slice the provider owns, so implementations can
/// project counters into a reused scratch buffer instead of allocating
/// (and cloning) a fresh population at every S1→S3 step. In a live
/// deployment the provider reprograms client PMUs and waits a shipping
/// period; in this reproduction it re-projects or re-simulates.
pub trait FragmentProvider {
    /// The cluster's fragments restricted to `set`. The slice only needs
    /// to live until the next `collect` call.
    fn collect(&mut self, set: CounterSet) -> &[Fragment];
}

/// Adapter giving the closure entry point the borrow-based engine: the
/// closure's fresh `Vec` is parked in `buf` and lent out.
struct FnProvider<'a> {
    f: &'a mut dyn FnMut(CounterSet) -> Vec<Fragment>,
    buf: Vec<Fragment>,
}

impl FragmentProvider for FnProvider<'_> {
    fn collect(&mut self, set: CounterSet) -> &[Fragment] {
        self.buf = (self.f)(set);
        &self.buf
    }
}

/// Run the drill-down over one cluster. `provider` returns the cluster's
/// fragments as collected under the given counter set — fragments whose
/// recorded counters don't include the set are unusable and must be
/// re-collected, which is what costs a period per stage.
pub fn diagnose_progressively(
    provider: &mut dyn FnMut(CounterSet) -> Vec<Fragment>,
    ka: f64,
    major_threshold: f64,
    alpha: f64,
) -> Option<DiagnosisReport> {
    let mut adapter = FnProvider { f: provider, buf: Vec::new() };
    diagnose_progressively_with(&mut adapter, ka, major_threshold, alpha)
}

/// Borrow-based form of [`diagnose_progressively`]: identical descent,
/// but each stage borrows the provider's population instead of taking an
/// owned `Vec`. This is what lets the batched driver reuse one scratch
/// buffer across all steps with zero full-population `Fragment` clones.
pub fn diagnose_progressively_with(
    provider: &mut dyn FragmentProvider,
    ka: f64,
    major_threshold: f64,
    alpha: f64,
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
        let fragments = provider.collect(needed);
        let refs: Vec<&Fragment> = fragments.iter().collect();
        let Some(fv) = FactorValues::compute(&refs, &frontier) else {
            break;
        };
        let Some(report) = analyze_contributions(&fv, ka, major_threshold) else {
            break;
        };
        // OLS for the count factors in this stage.
        let count_factors: Vec<Factor> = frontier
            .iter()
            .copied()
            .filter(|f| !f.time_quantifiable())
            .collect();
        let ols = if count_factors.is_empty() {
            Vec::new()
        } else {
            FactorValues::compute(&refs, &count_factors)
                .and_then(|cfv| ols_impacts(&cfv, alpha))
                .map(|(impacts, _)| impacts)
                .unwrap_or_default()
        };

        let majors = report.major_factors();
        // vapro-lint: allow(R6, one step per breakdown level descended; at most the depth of the factor tree)
        steps.push(StageStep {
            factors: frontier.clone(), // vapro-lint: allow(R6, per-step factor list has at most five entries)
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
                    // vapro-lint: allow(R6, distinct leaf factors; bounded by the factor enum)
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
        let rep = diagnose_progressively(&mut provider, 1.2, 0.25, 0.05).unwrap();
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
        let rep = diagnose_progressively(&mut provider, 1.2, 0.25, 0.05).unwrap();
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
        let rep = diagnose_progressively(&mut provider, 1.2, 0.25, 0.05).unwrap();
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
        let rep = diagnose_progressively(&mut provider, 1.2, 0.25, 0.05);
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
        let rep = diagnose_progressively(&mut provider, 1.2, 0.25, 0.05).unwrap();
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
        let rep = diagnose_progressively(&mut provider, 1.2, 0.25, 0.05).unwrap();
        let share = rep.impact_share(Factor::MemoryBound).unwrap();
        assert!(share > 0.5, "memory share {share}");
        assert!(rep.top_culprit().is_some());
    }
}
