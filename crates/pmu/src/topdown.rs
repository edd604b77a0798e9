//! Formula-based top-down breakdown of a counter delta.
//!
//! This is the "formula-based method" of paper §4.2: well-designed PMU
//! events let execution time be decomposed hierarchically by closed-form
//! formulas (Yasin's top-down method), e.g. on Ivy Bridge
//! frontend-bound = `IDQ_UOPS_NOT_DELIVERED.CORE / (4 · CPU_CLK_UNHALTED)`.
//! Factors that cannot be quantified this way (page faults, context
//! switches) are handled by the OLS statistical method in `vapro-core`.

use crate::counters::{CounterDelta, CounterId};
use crate::PIPELINE_WIDTH;

/// Level-1 + level-2 breakdown of one fragment's wall time, as *fractions
/// of wall-clock time* (all fields sum to 1 up to measurement jitter).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TopDown {
    /// Useful work: slots retiring uops.
    pub retiring: f64,
    /// Frontend bound: fetch/decode starvation.
    pub frontend: f64,
    /// Bad speculation: wasted slots plus recovery.
    pub bad_speculation: f64,
    /// Backend bound: execution + memory stalls.
    pub backend: f64,
    /// Process suspended by the OS (not running on a core).
    pub suspension: f64,
}

/// Level-2/3 refinement of the backend-bound share.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TopDownL2 {
    /// Core bound (non-memory execution stalls), as a fraction of wall time.
    pub core_bound: f64,
    /// Memory bound total.
    pub memory_bound: f64,
    /// L1-resident component of memory bound.
    pub l1_bound: f64,
    /// L2 component.
    pub l2_bound: f64,
    /// L3 component.
    pub l3_bound: f64,
    /// DRAM component.
    pub dram_bound: f64,
}

impl TopDown {
    /// Compute the S1 breakdown from a delta that includes the
    /// [`crate::events::s1_set`] counters. Returns `None` when the required
    /// events are missing (e.g. collected under the narrow detection set) or
    /// the interval is empty.
    pub fn from_delta(c: &CounterDelta) -> Option<TopDown> {
        let tsc = c.get(CounterId::Tsc)?;
        let clk = c.get(CounterId::ClkUnhalted)?;
        let fe = c.get(CounterId::IdqUopsNotDelivered)?;
        let ret = c.get(CounterId::UopsRetiredSlots)?;
        let bad = c.get(CounterId::BadSpeculationSlots)?;
        if tsc <= 0.0 {
            return None;
        }
        let slots = PIPELINE_WIDTH * clk;
        if slots <= 0.0 {
            // Interval with no running time at all: pure suspension.
            return Some(TopDown { suspension: 1.0, ..TopDown::default() });
        }
        let run_frac = (clk / tsc).min(1.0);
        let suspension = 1.0 - run_frac;
        let fe_f = (fe / slots).clamp(0.0, 1.0);
        let ret_f = (ret / slots).clamp(0.0, 1.0);
        let bad_f = (bad / slots).clamp(0.0, 1.0);
        let be_f = (1.0 - fe_f - ret_f - bad_f).max(0.0);
        Some(TopDown {
            retiring: ret_f * run_frac,
            frontend: fe_f * run_frac,
            bad_speculation: bad_f * run_frac,
            backend: be_f * run_frac,
            suspension,
        })
    }

    /// Sum of all fractions (≈ 1 for a well-formed breakdown).
    pub fn total(&self) -> f64 {
        self.retiring + self.frontend + self.bad_speculation + self.backend + self.suspension
    }

    /// The dominant factor's name and share.
    pub fn dominant(&self) -> (&'static str, f64) {
        let mut best = ("retiring", self.retiring);
        for (name, v) in [
            ("frontend", self.frontend),
            ("bad_speculation", self.bad_speculation),
            ("backend", self.backend),
            ("suspension", self.suspension),
        ] {
            if v > best.1 {
                best = (name, v);
            }
        }
        best
    }
}

impl TopDownL2 {
    /// Refine the backend share using the stall-cycle events. The S2
    /// split (core vs memory) needs only `STALLS_CORE` + `STALLS_MEM_ANY`
    /// ([`crate::events::s2_backend_set`]); the per-level refinement
    /// additionally needs the L1/L2/L3 miss-stall events
    /// ([`crate::events::s3_memory_set`]) and reports zeros when they were
    /// not collected. `backend_frac` is the S1 backend share of wall time.
    pub fn from_delta(c: &CounterDelta, backend_frac: f64) -> Option<TopDownL2> {
        let core = c.get(CounterId::StallsCore)?;
        let mem_any = c.get(CounterId::StallsMemAny)?;
        let total = core + mem_any;
        if total <= 0.0 {
            return Some(TopDownL2::default());
        }
        let core_bound = backend_frac * core / total;
        let memory_bound = backend_frac * mem_any / total;
        // Nested events: share at each level is the difference between
        // consecutive stall counters. Only available at S3 collection.
        let levels = (
            c.get(CounterId::StallsL1dMiss),
            c.get(CounterId::StallsL2Miss),
            c.get(CounterId::StallsL3Miss),
        );
        let (l1, l2, l3, dram) = match levels {
            (Some(l1d_miss), Some(l2_miss), Some(l3_miss)) if mem_any > 0.0 => (
                memory_bound * ((mem_any - l1d_miss).max(0.0) / mem_any),
                memory_bound * ((l1d_miss - l2_miss).max(0.0) / mem_any),
                memory_bound * ((l2_miss - l3_miss).max(0.0) / mem_any),
                memory_bound * (l3_miss.max(0.0) / mem_any),
            ),
            _ => (0.0, 0.0, 0.0, 0.0),
        };
        Some(TopDownL2 {
            core_bound,
            memory_bound,
            l1_bound: l1,
            l2_bound: l2,
            l3_bound: l3,
            dram_bound: dram,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::{CpuConfig, CpuModel};
    use crate::jitter::JitterModel;
    use crate::noise_env::NoiseEnv;
    use crate::workload::{Locality, WorkloadSpec};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn run(spec: &WorkloadSpec, env: &NoiseEnv) -> CounterDelta {
        let m = CpuModel::with_jitter(CpuConfig::default(), JitterModel::exact());
        m.execute(spec, env, &mut ChaCha8Rng::seed_from_u64(7)).counters
    }

    #[test]
    fn breakdown_sums_to_one() {
        let c = run(&WorkloadSpec::mixed(1e6), &NoiseEnv::quiet());
        let td = TopDown::from_delta(&c).unwrap();
        assert!((td.total() - 1.0).abs() < 1e-9, "total {}", td.total());
    }

    #[test]
    fn suspension_reflects_cpu_steal() {
        let env = NoiseEnv { cpu_steal: 0.5, ..NoiseEnv::default() };
        let td = TopDown::from_delta(&run(&WorkloadSpec::compute_bound(1e6), &env)).unwrap();
        assert!((td.suspension - 0.5).abs() < 0.02, "suspension {}", td.suspension);
    }

    #[test]
    fn memory_bound_workload_is_backend_dominant() {
        let td =
            TopDown::from_delta(&run(&WorkloadSpec::memory_bound(8e6), &NoiseEnv::quiet()))
                .unwrap();
        assert_eq!(td.dominant().0, "backend");
    }

    #[test]
    fn compute_bound_workload_is_retiring_heavy() {
        let td =
            TopDown::from_delta(&run(&WorkloadSpec::compute_bound(1e7), &NoiseEnv::quiet()))
                .unwrap();
        assert!(td.retiring > td.frontend + td.bad_speculation);
    }

    #[test]
    fn l2_refinement_partitions_backend() {
        let c = run(&WorkloadSpec::memory_bound(8e6), &NoiseEnv::quiet());
        let td = TopDown::from_delta(&c).unwrap();
        let l2 = TopDownL2::from_delta(&c, td.backend).unwrap();
        assert!((l2.core_bound + l2.memory_bound - td.backend).abs() < 1e-9);
        let parts = l2.l1_bound + l2.l2_bound + l2.l3_bound + l2.dram_bound;
        assert!((parts - l2.memory_bound).abs() < 1e-9);
    }

    #[test]
    fn l2_bug_shows_up_as_l2_plus_dram_bound() {
        let spec = WorkloadSpec {
            instructions: 1e7,
            mem_refs: 3e6,
            locality: Locality { l1: 0.5, l2: 0.45, l3: 0.04, dram: 0.01 },
            ..WorkloadSpec::default()
        };
        let quiet = run(&spec, &NoiseEnv::quiet());
        let env = NoiseEnv { l2_bug_prob: 1.0, l2_bug_severity: 0.6, ..NoiseEnv::default() };
        let bug = run(&spec, &env);
        let td_q = TopDown::from_delta(&quiet).unwrap();
        let td_b = TopDown::from_delta(&bug).unwrap();
        let l2_q = TopDownL2::from_delta(&quiet, td_q.backend).unwrap();
        let l2_b = TopDownL2::from_delta(&bug, td_b.backend).unwrap();
        // Evicted lines are re-fetched from L3 (mostly) and DRAM: the
        // below-L2 share of the backend breakdown balloons to dominance.
        let below_l2_q = l2_q.l3_bound + l2_q.dram_bound;
        let below_l2_b = l2_b.l3_bound + l2_b.dram_bound;
        assert!(below_l2_b > below_l2_q * 1.5, "{below_l2_b} vs {below_l2_q}");
        assert!(below_l2_b > 0.7, "below-L2 share {below_l2_b}");
        assert!(td_b.backend > td_q.backend);
    }

    #[test]
    fn missing_events_yield_none() {
        let mut c = CounterDelta::default();
        c.put(CounterId::Tsc, 100.0);
        c.put(CounterId::TotIns, 50.0);
        assert!(TopDown::from_delta(&c).is_none());
    }

    #[test]
    fn empty_interval_yields_none() {
        let mut c = CounterDelta::default();
        for id in crate::events::s1_set().iter() {
            c.put(id, 0.0);
        }
        assert!(TopDown::from_delta(&c).is_none());
    }
}
