//! Quantifying the time of factors (paper §4.2).
//!
//! Two routes:
//!
//! * **Formula-based** — for factors with well-designed PMU events, a
//!   top-down identity gives the time share directly (e.g. frontend bound
//!   = `IDQ_UOPS_NOT_DELIVERED.CORE / (4·CLK)`). [`factor_value`] returns
//!   the *time in ns* for such factors.
//! * **OLS-based** — OS events (page faults, context switches, signals)
//!   have counts but no time formula. [`ols_impacts`] normalises all
//!   factor values to [0, 1], screens multicollinearity with the
//!   Farrar–Glauber test (removing factors one by one), regresses fragment
//!   execution time on the survivors, keeps significant terms (p < 0.05),
//!   and rescales coefficients back into time impacts. Factors removed as
//!   multicollinear inherit an impact estimate through their strongest
//!   retained correlate.

use crate::diagnose::factor::Factor;
use crate::fragment::Fragment;
use vapro_pmu::{CounterId, TopDown, TopDownL2};
use vapro_stats::describe::variance;
use vapro_stats::fg::remove_multicollinear;
use vapro_stats::OlsFit;

/// Per-fragment values of a factor set: times (ns) for quantifiable
/// factors, raw event counts for the rest.
#[derive(Debug, Clone, PartialEq)]
pub struct FactorValues {
    /// The factors, in column order.
    pub factors: Vec<Factor>,
    /// `values[i][j]` = value of `factors[j]` for fragment `i`.
    pub values: Vec<Vec<f64>>,
    /// Fragment durations (ns), aligned with `values`.
    pub durations: Vec<f64>,
}

/// Evaluate one factor for one fragment. Time-quantifiable factors return
/// nanoseconds; count factors return raw event counts. `None` when the
/// fragment's counter set lacks the required events.
pub fn factor_value(frag: &Fragment, factor: Factor) -> Option<f64> {
    let dur = frag.duration_ns();
    let c = &frag.counters;
    match factor {
        Factor::Retiring | Factor::FrontendBound | Factor::BadSpeculation
        | Factor::BackendBound
        | Factor::Suspension => {
            let td = TopDown::from_delta(c)?;
            let frac = match factor {
                Factor::Retiring => td.retiring,
                Factor::FrontendBound => td.frontend,
                Factor::BadSpeculation => td.bad_speculation,
                Factor::BackendBound => td.backend,
                Factor::Suspension => td.suspension,
                _ => unreachable!(),
            };
            Some(frac * dur)
        }
        Factor::CoreBound | Factor::MemoryBound | Factor::L1Bound | Factor::L2Bound
        | Factor::L3Bound
        | Factor::DramBound => {
            // The level factors require the S3 events to be active.
            if matches!(
                factor,
                Factor::L1Bound | Factor::L2Bound | Factor::L3Bound | Factor::DramBound
            ) {
                c.get(CounterId::StallsL1dMiss)?;
                c.get(CounterId::StallsL2Miss)?;
                c.get(CounterId::StallsL3Miss)?;
            }
            let td = TopDown::from_delta(c)?;
            let l2 = TopDownL2::from_delta(c, td.backend)?;
            let frac = match factor {
                Factor::CoreBound => l2.core_bound,
                Factor::MemoryBound => l2.memory_bound,
                Factor::L1Bound => l2.l1_bound,
                Factor::L2Bound => l2.l2_bound,
                Factor::L3Bound => l2.l3_bound,
                Factor::DramBound => l2.dram_bound,
                _ => unreachable!(),
            };
            Some(frac * dur)
        }
        Factor::PageFault => Some(
            c.get(CounterId::PageFaultsSoft)? + c.get(CounterId::PageFaultsHard)?,
        ),
        Factor::SoftPageFault => c.get(CounterId::PageFaultsSoft),
        Factor::HardPageFault => c.get(CounterId::PageFaultsHard),
        Factor::ContextSwitch => Some(
            c.get(CounterId::CtxSwitchVoluntary)? + c.get(CounterId::CtxSwitchInvoluntary)?,
        ),
        Factor::VoluntaryCs => c.get(CounterId::CtxSwitchVoluntary),
        Factor::InvoluntaryCs => c.get(CounterId::CtxSwitchInvoluntary),
        Factor::Signal => c.get(CounterId::Signals),
    }
}

impl FactorValues {
    /// Evaluate `factors` over a cluster of fragments, skipping fragments
    /// that lack the required counters. Returns `None` when no fragment
    /// qualifies.
    pub fn compute(fragments: &[&Fragment], factors: &[Factor]) -> Option<FactorValues> {
        let mut values = Vec::with_capacity(fragments.len());
        let mut durations = Vec::with_capacity(fragments.len());
        for f in fragments {
            let row: Option<Vec<f64>> =
                factors.iter().map(|&fac| factor_value(f, fac)).collect();
            if let Some(row) = row {
                values.push(row);
                durations.push(f.duration_ns());
            }
        }
        if values.is_empty() {
            return None;
        }
        // vapro-lint: allow(R6, owned copy of the at-most-five requested factors)
        Some(FactorValues { factors: factors.to_vec(), values, durations })
    }

    /// Number of usable fragments.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Empty?
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// One factor's column.
    pub fn column(&self, j: usize) -> Vec<f64> {
        self.values.iter().map(|row| row[j]).collect()
    }
}

/// The OLS-estimated time impact of one factor.
#[derive(Debug, Clone, PartialEq)]
pub struct OlsImpact {
    /// The factor.
    pub factor: Factor,
    /// Estimated time impact in ns: how much execution time varies across
    /// the factor's observed range.
    pub impact_ns: f64,
    /// Two-sided p-value of the coefficient (NaN for factors back-filled
    /// through a multicollinear proxy).
    pub p_value: f64,
    /// 95 % confidence interval of the impact, ns (NaN bounds for
    /// proxy-estimated factors).
    pub ci95_ns: (f64, f64),
    /// Whether the factor survived to the final OLS (false = removed as
    /// multicollinear and estimated through its proxy).
    pub in_model: bool,
}

/// Run the OLS-based estimation over a cluster's factor values.
/// Returns the significant impacts (p < `alpha` among in-model factors,
/// plus proxy estimates for removed ones), the model R², and the indices
/// of factors removed by the Farrar–Glauber screen.
pub fn ols_impacts(
    fv: &FactorValues,
    alpha: f64,
) -> Option<(Vec<OlsImpact>, f64)> {
    let k = fv.factors.len();
    if fv.len() < k + 3 {
        return None;
    }
    // Normalise each factor column to [0, 1] (the paper's preprocessing).
    let mut columns: Vec<Vec<f64>> = (0..k).map(|j| fv.column(j)).collect();
    let mut ranges = Vec::with_capacity(k);
    for col in &mut columns {
        let (lo, hi) = vapro_stats::describe::min_max_normalize(col);
        ranges.push(hi - lo);
    }

    // Farrar–Glauber screen: drop multicollinear factors one at a time.
    let fg = remove_multicollinear(&columns, alpha);
    if fg.kept.is_empty() {
        return None;
    }
    // vapro-lint: allow(R6, kept factor columns are copied once for the OLS design matrix)
    let kept_cols: Vec<Vec<f64>> = fg.kept.iter().map(|&j| columns[j].clone()).collect();
    let fit = OlsFit::fit(&kept_cols, &fv.durations, true)?;
    let terms = fit.var_terms();

    let mut impacts = Vec::new();
    for (pos, &j) in fg.kept.iter().enumerate() {
        let t = &terms[pos];
        // The columns were min-max normalised, so the coefficient *is*
        // the time change across the factor's range.
        impacts.push(OlsImpact {
            factor: fv.factors[j],
            impact_ns: t.coef,
            p_value: t.p_value,
            ci95_ns: t.confidence_interval(0.05, fit.df_resid),
            in_model: true,
        });
    }
    // Back-fill removed factors through their strongest retained correlate
    // ("their coefficients are estimated by their multicollinear
    // relationship", §4.2).
    for removed in &fg.removed {
        if removed.proxy == usize::MAX {
            // Constant column: no variation, no impact.
            impacts.push(OlsImpact {
                factor: fv.factors[removed.index],
                impact_ns: 0.0,
                p_value: f64::NAN,
                ci95_ns: (f64::NAN, f64::NAN),
                in_model: false,
            });
            continue;
        }
        let proxy_impact = impacts
            .iter()
            .find(|i| i.factor == fv.factors[removed.proxy])
            .map_or(0.0, |i| i.impact_ns);
        impacts.push(OlsImpact {
            factor: fv.factors[removed.index],
            impact_ns: removed.correlation * proxy_impact,
            p_value: f64::NAN,
            ci95_ns: (f64::NAN, f64::NAN),
            in_model: false,
        });
    }

    Some((impacts, fit.r_squared))
}

/// Which factors of `fv` carry any signal at all (non-zero variance) —
/// used to skip degenerate columns before diagnosis.
pub fn informative_factors(fv: &FactorValues) -> Vec<Factor> {
    (0..fv.factors.len())
        .filter(|&j| variance(&fv.column(j)) > 0.0)
        .map(|j| fv.factors[j])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::FragmentKind;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use vapro_pmu::{
        CpuConfig, CpuModel, JitterModel, NoiseEnv, WorkloadSpec,
    };
    use vapro_sim::VirtualTime;

    /// Run a fixed workload n times, half under `noisy_env`, producing
    /// realistic fragments with full counters.
    fn make_cluster(n: usize, noisy_env: NoiseEnv) -> Vec<Fragment> {
        let model = CpuModel::with_jitter(CpuConfig::default(), JitterModel::exact());
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let spec = WorkloadSpec::mixed(2e6);
        let mut t = 0u64;
        (0..n)
            .map(|i| {
                let env = if i % 2 == 1 { noisy_env } else { NoiseEnv::quiet() };
                let out = model.execute(&spec, &env, &mut rng);
                let start = VirtualTime::from_ns(t);
                let end = start + VirtualTime::from_ns_f64(out.wall_ns);
                t = end.ns() + 1000;
                Fragment {
                    rank: 0,
                    kind: FragmentKind::Computation,
                    start,
                    end,
                    counters: out.counters,
                    args: vec![],
                }
            })
            .collect()
    }

    #[test]
    fn s1_times_sum_to_duration() {
        let frags = make_cluster(4, NoiseEnv::quiet());
        let f = &frags[0];
        let total: f64 = Factor::S1
            .iter()
            .map(|&fac| factor_value(f, fac).unwrap())
            .sum();
        assert!((total - f.duration_ns()).abs() / f.duration_ns() < 1e-6);
    }

    #[test]
    fn memory_levels_partition_memory_bound() {
        let frags = make_cluster(2, NoiseEnv::quiet());
        let f = &frags[0];
        let mem = factor_value(f, Factor::MemoryBound).unwrap();
        let parts: f64 = [Factor::L1Bound, Factor::L2Bound, Factor::L3Bound, Factor::DramBound]
            .iter()
            .map(|&fac| factor_value(f, fac).unwrap())
            .sum();
        assert!((mem - parts).abs() < 1e-6 * f.duration_ns());
        let core = factor_value(f, Factor::CoreBound).unwrap();
        let be = factor_value(f, Factor::BackendBound).unwrap();
        assert!((core + mem - be).abs() < 1e-6 * f.duration_ns());
    }

    #[test]
    fn cpu_steal_shows_as_suspension_time() {
        let env = NoiseEnv { cpu_steal: 0.5, ..NoiseEnv::default() };
        let frags = make_cluster(8, env);
        // Odd fragments (noisy) have much higher suspension time.
        let quiet_susp = factor_value(&frags[0], Factor::Suspension).unwrap();
        let noisy_susp = factor_value(&frags[1], Factor::Suspension).unwrap();
        assert!(noisy_susp > 10.0 * quiet_susp.max(1.0));
        // And the counts route: involuntary CS.
        assert!(factor_value(&frags[1], Factor::InvoluntaryCs).unwrap() >= 1.0);
        assert_eq!(factor_value(&frags[0], Factor::InvoluntaryCs).unwrap(), 0.0);
    }

    #[test]
    fn missing_counters_yield_none() {
        let mut f = make_cluster(1, NoiseEnv::quiet()).remove(0);
        f.counters = Default::default();
        assert!(factor_value(&f, Factor::BackendBound).is_none());
        assert!(factor_value(&f, Factor::InvoluntaryCs).is_none());
    }

    #[test]
    fn ols_finds_the_injected_factor() {
        // CPU steal inflates duration; involuntary CS is the witness.
        let env = NoiseEnv { cpu_steal: 0.4, ..NoiseEnv::default() };
        let frags = make_cluster(60, env);
        let refs: Vec<&Fragment> = frags.iter().collect();
        let factors = [
            Factor::InvoluntaryCs,
            Factor::VoluntaryCs,
            Factor::SoftPageFault,
        ];
        let fv = FactorValues::compute(&refs, &factors).unwrap();
        let (impacts, r2) = ols_impacts(&fv, 0.05).unwrap();
        assert!(r2 > 0.8, "R² = {r2}");
        let invol = impacts.iter().find(|i| i.factor == Factor::InvoluntaryCs).unwrap();
        assert!(invol.in_model);
        assert!(invol.p_value < 0.001, "p = {}", invol.p_value);
        assert!(invol.impact_ns > 0.0);
        // A significant factor's CI excludes zero and brackets the point
        // estimate.
        let (lo, hi) = invol.ci95_ns;
        assert!(lo > 0.0, "CI ({lo}, {hi}) should exclude 0");
        // A near-exact fit can collapse the interval onto the estimate.
        assert!(lo <= invol.impact_ns && invol.impact_ns <= hi);
    }

    #[test]
    fn ols_and_formula_agree_on_the_dominant_factor() {
        // The §4.2 verification: formula-based suspension share vs the
        // OLS estimate should be consistent.
        let env = NoiseEnv { cpu_steal: 0.5, ..NoiseEnv::default() };
        let frags = make_cluster(60, env);
        let refs: Vec<&Fragment> = frags.iter().collect();

        // Formula: mean suspension share of noisy minus quiet fragments.
        let susp_delta: f64 = {
            let noisy: Vec<f64> = refs
                .iter()
                .skip(1)
                .step_by(2)
                .map(|f| factor_value(f, Factor::Suspension).unwrap())
                .collect();
            let quiet: Vec<f64> = refs
                .iter()
                .step_by(2)
                .map(|f| factor_value(f, Factor::Suspension).unwrap())
                .collect();
            vapro_stats::mean(&noisy) - vapro_stats::mean(&quiet)
        };

        // OLS: impact of suspension time (quantifiable, but the regression
        // must agree with the direct formula).
        let fv = FactorValues::compute(&refs, &[Factor::Suspension]).unwrap();
        let (impacts, _) = ols_impacts(&fv, 0.05).unwrap();
        let ols_est = impacts[0].impact_ns;
        let rel = (ols_est - susp_delta).abs() / susp_delta;
        assert!(rel < 0.2, "formula {susp_delta} vs OLS {ols_est}");
    }

    #[test]
    fn multicollinear_factor_inherits_proxy_impact() {
        // PageFault total = soft + hard; with hard == 0 the total is a
        // perfect alias of soft, so FG removes one of them and back-fills.
        let env = NoiseEnv { cpu_steal: 0.3, ..NoiseEnv::default() };
        let mut frags = make_cluster(40, env);
        // Give fragments varying soft-fault counts correlated with duration.
        for (i, f) in frags.iter_mut().enumerate() {
            let softs = (i % 2) as f64 * 20.0;
            f.counters.put(CounterId::PageFaultsSoft, softs);
            f.counters.put(CounterId::PageFaultsHard, 0.0);
        }
        let refs: Vec<&Fragment> = frags.iter().collect();
        let fv =
            FactorValues::compute(&refs, &[Factor::SoftPageFault, Factor::PageFault]).unwrap();
        let (impacts, _) = ols_impacts(&fv, 0.05).unwrap();
        assert_eq!(impacts.len(), 2);
        let removed: Vec<_> = impacts.iter().filter(|i| !i.in_model).collect();
        assert_eq!(removed.len(), 1);
        let kept = impacts.iter().find(|i| i.in_model).unwrap();
        // Perfect correlation → identical impact magnitude.
        assert!((removed[0].impact_ns.abs() - kept.impact_ns.abs()).abs() < 1e-6);
    }

    #[test]
    fn informative_factors_drops_constants() {
        let frags = make_cluster(20, NoiseEnv::quiet());
        let refs: Vec<&Fragment> = frags.iter().collect();
        let fv = FactorValues::compute(
            &refs,
            &[Factor::Retiring, Factor::HardPageFault],
        )
        .unwrap();
        let inf = informative_factors(&fv);
        assert!(inf.contains(&Factor::Retiring));
        assert!(!inf.contains(&Factor::HardPageFault)); // all zero
    }

    #[test]
    fn too_few_fragments_for_ols_is_none() {
        let frags = make_cluster(4, NoiseEnv::quiet());
        let refs: Vec<&Fragment> = frags.iter().collect();
        let fv = FactorValues::compute(&refs, &[Factor::Retiring, Factor::Suspension]).unwrap();
        assert!(ols_impacts(&fv, 0.05).is_none());
    }
}
