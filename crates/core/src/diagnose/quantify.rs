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

use crate::columnar::{LaneView, PoolView};
use crate::diagnose::factor::Factor;
use vapro_pmu::{CounterDelta, CounterId, CounterSet, TopDown, TopDownL2};
use vapro_stats::fg::remove_multicollinear;
use vapro_stats::{OlsFit, OlsTerm};

/// Per-member values of a factor set, column-major: times (ns) for
/// quantifiable factors, raw event counts for the rest.
#[derive(Debug, Clone)]
pub struct FactorValues<'f> {
    /// The factors, in column order.
    pub factors: &'f [Factor],
    /// One column per factor, each [`FactorValues::len`] long:
    /// `values[j * len + i]` is `factors[j]` for row `i`.
    pub values: Vec<f64>,
    /// Row durations (ns), aligned with every column.
    pub durations: Vec<f64>,
}

/// One counter delta's factor values. The top-down breakdowns are
/// evaluated once and read by every factor asked for.
struct Breakdown<'c> {
    c: &'c CounterDelta,
    dur: f64,
    td: Option<TopDown>,
    l2: Option<TopDownL2>,
}

impl<'c> Breakdown<'c> {
    /// `topdown` false skips the breakdowns, which no count factor reads.
    fn new(c: &'c CounterDelta, dur: f64, topdown: bool) -> Breakdown<'c> {
        let td = if topdown { TopDown::from_delta(c) } else { None };
        let l2 = td.and_then(|td| TopDownL2::from_delta(c, td.backend));
        Breakdown { c, dur, td, l2 }
    }

    fn value(&self, factor: Factor) -> Option<f64> {
        let c = self.c;
        match factor {
            Factor::Retiring | Factor::FrontendBound | Factor::BadSpeculation
            | Factor::BackendBound
            | Factor::Suspension => {
                let td = self.td?;
                let frac = match factor {
                    Factor::Retiring => td.retiring,
                    Factor::FrontendBound => td.frontend,
                    Factor::BadSpeculation => td.bad_speculation,
                    Factor::BackendBound => td.backend,
                    Factor::Suspension => td.suspension,
                    _ => unreachable!(),
                };
                Some(frac * self.dur)
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
                let l2 = self.l2?;
                let frac = match factor {
                    Factor::CoreBound => l2.core_bound,
                    Factor::MemoryBound => l2.memory_bound,
                    Factor::L1Bound => l2.l1_bound,
                    Factor::L2Bound => l2.l2_bound,
                    Factor::L3Bound => l2.l3_bound,
                    Factor::DramBound => l2.dram_bound,
                    _ => unreachable!(),
                };
                Some(frac * self.dur)
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
}

/// Evaluate one factor for one fragment's counters and elapsed time.
/// Time-quantifiable factors return nanoseconds; count factors return
/// raw event counts. `None` when the counter set lacks the required
/// events.
pub fn factor_value(counters: &CounterDelta, duration_ns: f64, factor: Factor) -> Option<f64> {
    Breakdown::new(counters, duration_ns, factor.time_quantifiable()).value(factor)
}

impl<'f> FactorValues<'f> {
    /// Evaluate `factors` over the cluster `members` of a sealed lane,
    /// each member's counters projected onto `set` (what it ships with
    /// only `set` live), in member order, skipping members that lack a
    /// required counter. `None` when no member qualifies.
    pub fn from_members(
        lane: &LaneView<'_>,
        members: &[u32],
        set: CounterSet,
        factors: &'f [Factor],
    ) -> Option<FactorValues<'f>> {
        let (m, k) = (members.len(), factors.len());
        let topdown = factors.iter().any(|f| f.time_quantifiable());
        // Written at stride `m`; a skipped member's partial row is
        // overwritten by the next kept one.
        let mut values = vec![0.0; m * k];
        let mut durations = Vec::with_capacity(m);
        'members: for &i in members {
            let i = i as usize;
            let counters = lane.project_counters(i, set);
            let row = Breakdown::new(&counters, lane.duration_ns(i), topdown);
            let at = durations.len();
            for (j, &f) in factors.iter().enumerate() {
                let Some(v) = row.value(f) else { continue 'members };
                values[j * m + at] = v;
            }
            durations.push(row.dur);
        }
        let n = durations.len();
        if n == 0 {
            return None;
        }
        // Close the skipped members' gaps: stride `m` → stride `n`.
        for j in 1..k {
            values.copy_within(j * m..j * m + n, j * n);
        }
        values.truncate(k * n);
        Some(FactorValues { factors, values, durations })
    }

    /// Number of usable rows.
    pub fn len(&self) -> usize {
        self.durations.len()
    }

    /// Empty?
    pub fn is_empty(&self) -> bool {
        self.durations.is_empty()
    }

    /// One factor's column.
    pub fn column(&self, j: usize) -> &[f64] {
        let n = self.len();
        &self.values[j * n..(j + 1) * n]
    }
}

/// The OLS-estimated time impact of one factor.
#[derive(Debug, Clone)]
pub struct OlsImpact {
    /// The factor.
    pub factor: Factor,
    /// Estimated time impact in ns: how much execution time varies across
    /// the factor's observed range.
    pub impact_ns: f64,
    /// Two-sided p-value of the coefficient (NaN for factors back-filled
    /// through a multicollinear proxy).
    pub p_value: f64,
    /// Standard error of the impact, ns (NaN for proxy-estimated
    /// factors).
    pub std_err_ns: f64,
    /// Residual degrees of freedom of the fit (0 for proxy-estimated
    /// factors).
    pub df_resid: usize,
    /// Whether the factor survived to the final OLS (false = removed as
    /// multicollinear and estimated through its proxy).
    pub in_model: bool,
}

impl OlsImpact {
    /// 95 % confidence interval of the impact, ns (NaN bounds for
    /// proxy-estimated factors). Computed on request: the t quantile
    /// behind it is a bisection the drill-down itself never needs.
    pub fn ci95_ns(&self) -> (f64, f64) {
        if !self.in_model {
            return (f64::NAN, f64::NAN);
        }
        let term = OlsTerm {
            coef: self.impact_ns,
            std_err: self.std_err_ns,
            t_stat: self.impact_ns / self.std_err_ns,
            p_value: self.p_value,
        };
        term.confidence_interval(0.05, self.df_resid)
    }
}

/// Equal when every field is, `f64`s compared by bits: a report holds
/// NaNs by design (p-values of proxy-estimated factors), and equality
/// must stay reflexive for reports to be comparable at all.
impl PartialEq for OlsImpact {
    fn eq(&self, other: &OlsImpact) -> bool {
        let key = |o: &OlsImpact| {
            let bits = [o.impact_ns, o.p_value, o.std_err_ns].map(f64::to_bits);
            (o.factor, bits, o.df_resid, o.in_model)
        };
        key(self) == key(other)
    }
}

impl Eq for OlsImpact {}

/// Run the OLS-based estimation over a cluster's factor values.
/// Returns the significant impacts (p < `alpha` among in-model factors,
/// plus proxy estimates for removed ones), the model R², and the indices
/// of factors removed by the Farrar–Glauber screen.
pub fn ols_impacts(fv: &FactorValues<'_>, alpha: f64) -> Option<(Vec<OlsImpact>, f64)> {
    let k = fv.factors.len();
    if fv.len() < k + 3 {
        return None;
    }
    // Normalise each factor column to [0, 1] (the paper's preprocessing).
    // vapro-lint: allow(R6, one normalised copy per factor column; at most eight a step, whatever the cluster size)
    let mut columns: Vec<Vec<f64>> = (0..k).map(|j| fv.column(j).to_vec()).collect();
    for col in &mut columns {
        vapro_stats::describe::min_max_normalize(col);
    }

    // Farrar–Glauber screen: drop multicollinear factors one at a time.
    let fg = remove_multicollinear(&columns, alpha);
    if fg.kept.is_empty() {
        return None;
    }
    let kept_cols: Vec<Vec<f64>> =
        fg.kept.iter().map(|&j| std::mem::take(&mut columns[j])).collect();
    let fit = OlsFit::fit(&kept_cols, &fv.durations, true)?;
    let terms = fit.var_terms();

    let mut impacts = Vec::with_capacity(k);
    for (pos, &j) in fg.kept.iter().enumerate() {
        let t = &terms[pos];
        // The columns were min-max normalised, so the coefficient *is*
        // the time change across the factor's range.
        impacts.push(OlsImpact {
            factor: fv.factors[j],
            impact_ns: t.coef,
            p_value: t.p_value,
            std_err_ns: t.std_err,
            df_resid: fit.df_resid,
            in_model: true,
        });
    }
    // Back-fill removed factors through their strongest retained correlate
    // ("their coefficients are estimated by their multicollinear
    // relationship", §4.2); a constant column (no proxy) has no variation
    // and no impact.
    for removed in &fg.removed {
        let impact_ns = if removed.proxy == usize::MAX {
            0.0
        } else {
            let proxy_impact = impacts
                .iter()
                .find(|i| i.factor == fv.factors[removed.proxy])
                .map_or(0.0, |i| i.impact_ns);
            removed.correlation * proxy_impact
        };
        impacts.push(OlsImpact {
            factor: fv.factors[removed.index],
            impact_ns,
            p_value: f64::NAN,
            std_err_ns: f64::NAN,
            df_resid: 0,
            in_model: false,
        });
    }

    Some((impacts, fit.r_squared))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::columnar::ColumnarPool;
    use crate::fragment::{Fragment, FragmentKind};
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

    fn value(f: &Fragment, factor: Factor) -> Option<f64> {
        factor_value(&f.counters, f.duration_ns(), factor)
    }

    /// The factor values of a hand-built population, read the way the
    /// drill-down reads a cluster: every member of one sealed lane.
    fn values<'f>(frags: &[Fragment], factors: &'f [Factor]) -> Option<FactorValues<'f>> {
        let pool = ColumnarPool::single_lane(frags);
        let members: Vec<u32> = (0..frags.len() as u32).collect();
        FactorValues::from_members(&pool.all(), &members, CounterSet::all(), factors)
    }

    #[test]
    fn columns_hold_the_kept_members_in_order() {
        // Every third fragment lost its S3 counters: the level factors
        // skip it, the count factors do not.
        let mut frags = make_cluster(12, NoiseEnv { mem_contention: 2.0, ..NoiseEnv::default() });
        for f in frags.iter_mut().step_by(3) {
            f.counters = f.counters.project(vapro_pmu::events::s2_backend_set());
            f.counters.put(CounterId::PageFaultsSoft, 3.0);
        }
        let factors = [Factor::DramBound, Factor::Retiring, Factor::L2Bound];
        let fv = values(&frags, &factors).unwrap();
        let kept: Vec<&Fragment> =
            frags.iter().filter(|f| f.counters.get(CounterId::StallsL1dMiss).is_some()).collect();
        assert_eq!(fv.len(), 8);
        assert_eq!(fv.values.len(), 3 * 8);
        for (j, &factor) in factors.iter().enumerate() {
            let want: Vec<f64> = kept.iter().map(|f| value(f, factor).unwrap()).collect();
            assert_eq!(fv.column(j), &want[..], "{factor}");
        }
        let want: Vec<f64> = kept.iter().map(|f| f.duration_ns()).collect();
        assert_eq!(fv.durations, want);
        assert_eq!(values(&frags, &[Factor::SoftPageFault]).unwrap().len(), 12);
        // Projected away, the counters are missing for every member.
        let pool = ColumnarPool::single_lane(&frags);
        let s1 = vapro_pmu::events::s1_set();
        assert!(FactorValues::from_members(&pool.all(), &[0, 1, 2], s1, &factors).is_none());
    }

    #[test]
    fn s1_times_sum_to_duration() {
        let frags = make_cluster(4, NoiseEnv::quiet());
        let f = &frags[0];
        let total: f64 = Factor::S1
            .iter()
            .map(|&fac| value(f, fac).unwrap())
            .sum();
        assert!((total - f.duration_ns()).abs() / f.duration_ns() < 1e-6);
    }

    #[test]
    fn memory_levels_partition_memory_bound() {
        let frags = make_cluster(2, NoiseEnv::quiet());
        let f = &frags[0];
        let mem = value(f, Factor::MemoryBound).unwrap();
        let parts: f64 = [Factor::L1Bound, Factor::L2Bound, Factor::L3Bound, Factor::DramBound]
            .iter()
            .map(|&fac| value(f, fac).unwrap())
            .sum();
        assert!((mem - parts).abs() < 1e-6 * f.duration_ns());
        let core = value(f, Factor::CoreBound).unwrap();
        let be = value(f, Factor::BackendBound).unwrap();
        assert!((core + mem - be).abs() < 1e-6 * f.duration_ns());
    }

    #[test]
    fn cpu_steal_shows_as_suspension_time() {
        let env = NoiseEnv { cpu_steal: 0.5, ..NoiseEnv::default() };
        let frags = make_cluster(8, env);
        // Odd fragments (noisy) have much higher suspension time.
        let quiet_susp = value(&frags[0], Factor::Suspension).unwrap();
        let noisy_susp = value(&frags[1], Factor::Suspension).unwrap();
        assert!(noisy_susp > 10.0 * quiet_susp.max(1.0));
        // And the counts route: involuntary CS.
        assert!(value(&frags[1], Factor::InvoluntaryCs).unwrap() >= 1.0);
        assert_eq!(value(&frags[0], Factor::InvoluntaryCs).unwrap(), 0.0);
    }

    #[test]
    fn missing_counters_yield_none() {
        let mut f = make_cluster(1, NoiseEnv::quiet()).remove(0);
        f.counters = Default::default();
        assert!(value(&f, Factor::BackendBound).is_none());
        assert!(value(&f, Factor::InvoluntaryCs).is_none());
    }

    #[test]
    fn ols_finds_the_injected_factor() {
        // CPU steal inflates duration; involuntary CS is the witness.
        let env = NoiseEnv { cpu_steal: 0.4, ..NoiseEnv::default() };
        let frags = make_cluster(60, env);
        let factors = [
            Factor::InvoluntaryCs,
            Factor::VoluntaryCs,
            Factor::SoftPageFault,
        ];
        let fv = values(&frags, &factors).unwrap();
        let (impacts, r2) = ols_impacts(&fv, 0.05).unwrap();
        assert!(r2 > 0.8, "R² = {r2}");
        let invol = impacts.iter().find(|i| i.factor == Factor::InvoluntaryCs).unwrap();
        assert!(invol.in_model);
        assert!(invol.p_value < 0.001, "p = {}", invol.p_value);
        assert!(invol.impact_ns > 0.0);
        // A significant factor's CI excludes zero and brackets the point
        // estimate.
        let (lo, hi) = invol.ci95_ns();
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
                .map(|f| value(f, Factor::Suspension).unwrap())
                .collect();
            let quiet: Vec<f64> = refs
                .iter()
                .step_by(2)
                .map(|f| value(f, Factor::Suspension).unwrap())
                .collect();
            vapro_stats::mean(&noisy) - vapro_stats::mean(&quiet)
        };

        // OLS: impact of suspension time (quantifiable, but the regression
        // must agree with the direct formula).
        let fv = values(&frags, &[Factor::Suspension]).unwrap();
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
        let fv = values(&frags, &[Factor::SoftPageFault, Factor::PageFault]).unwrap();
        let (impacts, _) = ols_impacts(&fv, 0.05).unwrap();
        assert_eq!(impacts.len(), 2);
        let removed: Vec<_> = impacts.iter().filter(|i| !i.in_model).collect();
        assert_eq!(removed.len(), 1);
        // A proxy estimate has no interval, and equals itself all the same.
        let (lo, hi) = removed[0].ci95_ns();
        assert!(lo.is_nan() && hi.is_nan());
        assert!(removed[0].p_value.is_nan());
        assert_eq!(removed[0], &removed[0].clone());
        let kept = impacts.iter().find(|i| i.in_model).unwrap();
        // Perfect correlation → identical impact magnitude.
        assert!((removed[0].impact_ns.abs() - kept.impact_ns.abs()).abs() < 1e-6);
    }

    #[test]
    fn too_few_fragments_for_ols_is_none() {
        let frags = make_cluster(4, NoiseEnv::quiet());
        let fv = values(&frags, &[Factor::Retiring, Factor::Suspension]).unwrap();
        assert!(ols_impacts(&fv, 0.05).is_none());
    }
}
