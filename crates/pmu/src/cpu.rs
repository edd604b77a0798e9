//! The CPU model: turns a [`WorkloadSpec`] executed under a [`NoiseEnv`]
//! into elapsed time and a full [`CounterDelta`].
//!
//! The model is a slot-accounting machine in the style of Yasin's top-down
//! method (the method the paper's variance-breakdown model is built on):
//! unhalted cycles are decomposed into retiring, frontend-bound,
//! bad-speculation, and backend-bound contributions, backend splits into
//! core-bound and memory-bound, and memory-bound splits across L1/L2/L3/DRAM
//! stall cycles. The identities
//!
//! ```text
//! 4 · CPU_CLK_UNHALTED = retiring + frontend + bad-spec + backend   (slots)
//! STALLS_MEM_ANY ⊇ STALLS_L1D_MISS ⊇ STALLS_L2_MISS ⊇ STALLS_L3_MISS
//! TSC = CPU_CLK_UNHALTED + suspension cycles
//! ```
//!
//! hold exactly (before measurement jitter), so the formula-based breakdown
//! of paper §4.2 recovers the injected ground truth.

use crate::counters::{CounterDelta, CounterId};
use crate::jitter::JitterModel;
use crate::noise_env::NoiseEnv;
use crate::os::OsCosts;
use crate::workload::WorkloadSpec;
use rand::Rng;

/// Static description of the simulated processor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuConfig {
    /// Core frequency in GHz (cycles per nanosecond).
    pub freq_ghz: f64,
    /// L2 hit latency in cycles.
    pub lat_l2: f64,
    /// L3 hit latency in cycles.
    pub lat_l3: f64,
    /// DRAM access latency in cycles.
    pub lat_dram: f64,
    /// Fraction of an L2-hit latency that actually stalls the pipeline
    /// (the rest overlaps with other work).
    pub block_l2: f64,
    /// Blocking fraction for L3 hits.
    pub block_l3: f64,
    /// Blocking fraction for DRAM accesses.
    pub block_dram: f64,
    /// Core-bound stall cycles per instruction (dependency chains, divider).
    pub core_stall_per_ins: f64,
    /// Pipeline-flush penalty per mispredicted branch, in cycles.
    pub branch_miss_penalty: f64,
    /// OS event costs.
    pub os: OsCosts,
}

impl Default for CpuConfig {
    fn default() -> Self {
        // Loosely modelled on the Xeon E5-2692 v2 (Ivy Bridge) nodes of
        // Tianhe-2A used in the paper's evaluation.
        CpuConfig {
            freq_ghz: 2.2,
            lat_l2: 12.0,
            lat_l3: 40.0,
            lat_dram: 200.0,
            block_l2: 0.5,
            block_l3: 0.65,
            block_dram: 0.8,
            core_stall_per_ins: 0.05,
            branch_miss_penalty: 15.0,
            os: OsCosts::default(),
        }
    }
}

/// The result of executing one workload: times plus the raw counter delta.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecOutcome {
    /// Wall-clock duration in nanoseconds (includes suspension).
    pub wall_ns: f64,
    /// Nanoseconds actually running on the core.
    pub run_ns: f64,
    /// Nanoseconds suspended (stolen CPU, fault service, signal delivery).
    pub suspension_ns: f64,
    /// Full counter delta for this execution (all counters populated;
    /// restriction to the active set happens at collection time).
    pub counters: CounterDelta,
}

/// The simulated CPU core a rank executes on.
///
/// Stateless apart from configuration and the jitter model; all randomness
/// flows through the caller-provided RNG so simulations are reproducible.
#[derive(Debug, Clone)]
pub struct CpuModel {
    cfg: CpuConfig,
    jitter: JitterModel,
}

impl CpuModel {
    /// Build a model from a configuration, with the default PMU jitter.
    pub fn new(cfg: CpuConfig) -> Self {
        CpuModel { cfg, jitter: JitterModel::default() }
    }

    /// Build a model with an explicit jitter model (e.g. `JitterModel::exact()`
    /// for unit tests asserting identities).
    pub fn with_jitter(cfg: CpuConfig, jitter: JitterModel) -> Self {
        CpuModel { cfg, jitter }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CpuConfig {
        &self.cfg
    }

    /// Cycles per nanosecond.
    #[inline]
    pub fn cycles_per_ns(&self) -> f64 {
        self.cfg.freq_ghz
    }

    /// Execute `spec` under `env`, returning times and counters.
    pub fn execute<R: Rng + ?Sized>(
        &self,
        spec: &WorkloadSpec,
        env: &NoiseEnv,
        rng: &mut R,
    ) -> ExecOutcome {
        debug_assert!(spec.is_valid(), "invalid workload spec: {spec:?}");
        debug_assert!(env.is_valid(), "invalid noise env: {env:?}");
        let cfg = &self.cfg;
        let loc = spec.locality.normalized();

        // --- memory hierarchy -------------------------------------------------
        let m = spec.mem_refs;
        let l1_hits = m * loc.l1;
        let mut l2_hits = m * loc.l2;
        let mut l3_hits = m * loc.l3;
        let mut dram_refs = m * loc.dram;

        // The L2-eviction hardware bug: with probability `l2_bug_prob`, a
        // fraction of lines that would hit L2 are found evicted. Evicted
        // lines mostly land in L3 (that is where an L2 eviction goes);
        // under pressure a share is pushed out to DRAM — so the bug shows
        // up as elevated L2-miss stalls split between the L3 and DRAM
        // levels, the signature of paper §6.5.1.
        let mut bug_fired = false;
        if env.l2_bug_prob > 0.0 && rng.gen::<f64>() < env.l2_bug_prob {
            bug_fired = true;
            let moved = l2_hits * env.l2_bug_severity;
            l2_hits -= moved;
            // Most evicted lines are still in L3; a minority is pushed all
            // the way out. Time-weighted (DRAM latency ≈ 6× L3), the two
            // destinations contribute comparably — the paper's roughly
            // even L2-level vs DRAM split (48.2 % / 38.0 %).
            l3_hits += moved * 0.85;
            dram_refs += moved * 0.15;
        }

        // Effective latencies under memory-bandwidth effects. Contention by
        // co-running STREAM mostly queues DRAM accesses. A degraded node
        // (low bandwidth) raises loaded latency *super-linearly*: a memory
        // controller near saturation queues requests, so a 15 % bandwidth
        // deficit costs noticeably more than 15 % in latency (the
        // queueing-theory effect behind the Nekbone case study).
        let bw_penalty = (1.0 / env.node_bw_factor).powf(1.5);
        let lat_dram = cfg.lat_dram * (1.0 + env.mem_contention) * bw_penalty;
        let lat_l3 = cfg.lat_l3 * (1.0 + 0.3 * env.mem_contention);

        // Stall-cycle hierarchy (outer events include inner ones, exactly as
        // the CYCLE_ACTIVITY.* events nest on real hardware).
        let stalls_l3_miss = dram_refs * lat_dram * cfg.block_dram;
        let stalls_l2_miss = stalls_l3_miss + l3_hits * lat_l3 * cfg.block_l3;
        let stalls_l1d_miss = stalls_l2_miss + l2_hits * cfg.lat_l2 * cfg.block_l2;
        let stalls_mem_any = stalls_l1d_miss; // L1 hit latency fully hidden.

        // --- pipeline slot accounting ----------------------------------------
        let retire_cycles = spec.instructions / crate::PIPELINE_WIDTH;
        let core_stalls = spec.instructions * cfg.core_stall_per_ins;
        let branches = spec.instructions * spec.branch_fraction;
        let branch_misses = branches * spec.branch_miss_rate;
        let badspec_cycles = branch_misses * cfg.branch_miss_penalty;
        let work_cycles = retire_cycles + core_stalls + stalls_mem_any + badspec_cycles;
        // Frontend pressure is defined as a fraction of total unhalted
        // cycles; solve fe = p * (work + fe).
        let fe_cycles = if spec.frontend_pressure > 0.0 {
            spec.frontend_pressure * work_cycles / (1.0 - spec.frontend_pressure)
        } else {
            0.0
        };
        let unhalted = work_cycles + fe_cycles;
        let run_ns = unhalted / cfg.freq_ghz;

        // --- OS events and suspension -----------------------------------------
        let soft_faults = (spec.fresh_bytes / 4096.0).floor();
        let run_s = run_ns * 1e-9;
        let hard_faults = poisson_like(env.hard_fault_rate * run_s, rng);
        let signals = poisson_like(env.signal_rate * run_s, rng);

        let fault_ns = soft_faults * cfg.os.soft_fault_ns + hard_faults * cfg.os.hard_fault_ns;
        let signal_ns = signals * cfg.os.signal_ns;

        // CPU steal: co-scheduled noise takes `cpu_steal` of wall time, so
        // stolen = run * steal / (1 - steal).
        let stolen_ns = if env.cpu_steal > 0.0 {
            run_ns * env.cpu_steal / (1.0 - env.cpu_steal)
        } else {
            0.0
        };
        let invol_cs = if stolen_ns > 0.0 {
            (stolen_ns / cfg.os.timeslice_ns).ceil()
        } else {
            0.0
        };
        // Fault/signal service also implies a pair of switches occasionally;
        // hard faults always block.
        let vol_cs = hard_faults;

        let suspension_ns = stolen_ns + fault_ns + signal_ns;
        let wall_ns = run_ns + suspension_ns;

        // --- emit counters ------------------------------------------------------
        let mut c = CounterDelta::default();
        let w = crate::PIPELINE_WIDTH;
        c.put(CounterId::Tsc, wall_ns * cfg.freq_ghz);
        c.put(CounterId::TotIns, spec.instructions);
        c.put(CounterId::ClkUnhalted, unhalted);
        c.put(CounterId::IdqUopsNotDelivered, fe_cycles * w);
        c.put(CounterId::UopsRetiredSlots, retire_cycles * w);
        c.put(CounterId::BadSpeculationSlots, badspec_cycles * w);
        c.put(CounterId::StallsMemAny, stalls_mem_any);
        c.put(CounterId::StallsL1dMiss, stalls_l1d_miss);
        c.put(CounterId::StallsL2Miss, stalls_l2_miss);
        c.put(CounterId::StallsL3Miss, stalls_l3_miss);
        c.put(CounterId::StallsCore, core_stalls);
        c.put(CounterId::LoadsL1Hit, l1_hits * (1.0 - spec.store_fraction));
        c.put(CounterId::LoadsL2Hit, l2_hits * (1.0 - spec.store_fraction));
        c.put(CounterId::LoadsL3Hit, l3_hits * (1.0 - spec.store_fraction));
        c.put(CounterId::LoadsDram, dram_refs * (1.0 - spec.store_fraction));
        c.put(CounterId::Stores, m * spec.store_fraction);
        c.put(CounterId::Branches, branches);
        c.put(CounterId::BranchMisses, branch_misses);
        c.put(CounterId::PageFaultsSoft, soft_faults);
        c.put(CounterId::PageFaultsHard, hard_faults);
        c.put(CounterId::CtxSwitchVoluntary, vol_cs);
        c.put(CounterId::CtxSwitchInvoluntary, invol_cs);
        c.put(CounterId::Signals, signals);
        c.put(CounterId::SuspensionNs, suspension_ns);

        self.jitter.apply(&mut c, rng);
        let _ = bug_fired;

        ExecOutcome { wall_ns, run_ns, suspension_ns, counters: c }
    }
}

/// Draw an integer-valued count with the given expectation. For the small
/// expectations we see per fragment a full Poisson sampler is unnecessary;
/// we use the fractional part as a Bernoulli trial, which preserves the
/// mean exactly.
fn poisson_like<R: Rng + ?Sized>(mean: f64, rng: &mut R) -> f64 {
    if mean <= 0.0 {
        return 0.0;
    }
    let base = mean.floor();
    let frac = mean - base;
    base + if rng.gen::<f64>() < frac { 1.0 } else { 0.0 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Locality;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn exact_model() -> CpuModel {
        CpuModel::with_jitter(CpuConfig::default(), JitterModel::exact())
    }

    fn rng() -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(42)
    }

    #[test]
    fn slot_identity_holds_exactly() {
        let m = exact_model();
        let mut r = rng();
        let spec = WorkloadSpec::mixed(1e6);
        let out = m.execute(&spec, &NoiseEnv::quiet(), &mut r);
        let c = &out.counters;
        let slots = 4.0 * c.get_or_zero(CounterId::ClkUnhalted);
        let parts = c.get_or_zero(CounterId::UopsRetiredSlots)
            + c.get_or_zero(CounterId::IdqUopsNotDelivered)
            + c.get_or_zero(CounterId::BadSpeculationSlots)
            + 4.0 * (c.get_or_zero(CounterId::StallsCore)
                + c.get_or_zero(CounterId::StallsMemAny));
        assert!((slots - parts).abs() / slots < 1e-9, "slots {slots} vs parts {parts}");
    }

    #[test]
    fn stall_hierarchy_nests() {
        let m = exact_model();
        let mut r = rng();
        let spec = WorkloadSpec::memory_bound(1e7);
        let c = m.execute(&spec, &NoiseEnv::quiet(), &mut r).counters;
        let any = c.get_or_zero(CounterId::StallsMemAny);
        let l1 = c.get_or_zero(CounterId::StallsL1dMiss);
        let l2 = c.get_or_zero(CounterId::StallsL2Miss);
        let l3 = c.get_or_zero(CounterId::StallsL3Miss);
        assert!(any >= l1 && l1 >= l2 && l2 >= l3 && l3 > 0.0);
    }

    #[test]
    fn tsc_equals_unhalted_plus_suspension() {
        let m = exact_model();
        let mut r = rng();
        let spec = WorkloadSpec::mixed(1e6);
        let env = NoiseEnv { cpu_steal: 0.5, ..NoiseEnv::default() };
        let out = m.execute(&spec, &env, &mut r);
        let c = &out.counters;
        let tsc = c.get_or_zero(CounterId::Tsc);
        let expect = c.get_or_zero(CounterId::ClkUnhalted)
            + out.suspension_ns * m.cycles_per_ns();
        assert!((tsc - expect).abs() / tsc < 1e-9);
    }

    #[test]
    fn cpu_steal_halves_throughput_at_50_percent() {
        let m = exact_model();
        let mut r = rng();
        let spec = WorkloadSpec::compute_bound(1e7);
        let quiet = m.execute(&spec, &NoiseEnv::quiet(), &mut r);
        let noisy = m.execute(
            &spec,
            &NoiseEnv { cpu_steal: 0.5, ..NoiseEnv::default() },
            &mut r,
        );
        let ratio = noisy.wall_ns / quiet.wall_ns;
        assert!((ratio - 2.0).abs() < 0.05, "ratio {ratio}");
        // Preemption shows up as involuntary context switches.
        assert!(noisy.counters.get_or_zero(CounterId::CtxSwitchInvoluntary) >= 1.0);
        assert_eq!(quiet.counters.get_or_zero(CounterId::CtxSwitchInvoluntary), 0.0);
    }

    #[test]
    fn tot_ins_is_noise_invariant() {
        // The crucial paper observation (Fig. 5): TOT_INS depends only on
        // the workload.
        let m = exact_model();
        let mut r = rng();
        let spec = WorkloadSpec::mixed(1e6);
        let a = m.execute(&spec, &NoiseEnv::quiet(), &mut r);
        let b = m.execute(
            &spec,
            &NoiseEnv { cpu_steal: 0.6, mem_contention: 2.0, ..NoiseEnv::default() },
            &mut r,
        );
        assert_eq!(
            a.counters.get_or_zero(CounterId::TotIns),
            b.counters.get_or_zero(CounterId::TotIns)
        );
        assert!(b.wall_ns > a.wall_ns * 1.5);
    }

    #[test]
    fn memory_contention_hurts_memory_bound_more_than_compute_bound() {
        let m = exact_model();
        let mut r = rng();
        let env = NoiseEnv { mem_contention: 1.5, ..NoiseEnv::default() };
        let mb = WorkloadSpec::memory_bound(8e6);
        let cb = WorkloadSpec::compute_bound(1e6);
        let mb_slow = m.execute(&mb, &env, &mut r).wall_ns
            / m.execute(&mb, &NoiseEnv::quiet(), &mut r).wall_ns;
        let cb_slow = m.execute(&cb, &env, &mut r).wall_ns
            / m.execute(&cb, &NoiseEnv::quiet(), &mut r).wall_ns;
        assert!(mb_slow > cb_slow * 1.2, "mem {mb_slow} vs comp {cb_slow}");
    }

    #[test]
    fn l2_bug_inflates_l2_miss_stalls() {
        let m = exact_model();
        let mut r = rng();
        let spec = WorkloadSpec {
            instructions: 1e7,
            mem_refs: 3e6,
            locality: Locality { l1: 0.5, l2: 0.45, l3: 0.04, dram: 0.01 },
            ..WorkloadSpec::default()
        };
        let quiet = m.execute(&spec, &NoiseEnv::quiet(), &mut r).counters;
        let env = NoiseEnv { l2_bug_prob: 1.0, l2_bug_severity: 0.6, ..NoiseEnv::default() };
        let bugged = m.execute(&spec, &env, &mut r).counters;
        assert!(
            bugged.get_or_zero(CounterId::StallsL2Miss)
                > 5.0 * quiet.get_or_zero(CounterId::StallsL2Miss)
        );
        assert!(
            bugged.get_or_zero(CounterId::LoadsDram) > quiet.get_or_zero(CounterId::LoadsDram)
        );
    }

    #[test]
    fn slow_node_increases_dram_latency() {
        let m = exact_model();
        let mut r = rng();
        let spec = WorkloadSpec::memory_bound(8e6);
        let healthy = m.execute(&spec, &NoiseEnv::quiet(), &mut r).wall_ns;
        let degraded = m
            .execute(&spec, &NoiseEnv { node_bw_factor: 0.845, ..NoiseEnv::default() }, &mut r)
            .wall_ns;
        assert!(degraded > healthy * 1.02);
    }

    #[test]
    fn fresh_pages_cause_soft_faults() {
        let m = exact_model();
        let mut r = rng();
        let spec = WorkloadSpec::mixed(1e5).with_fresh_bytes(64.0 * 4096.0);
        let c = m.execute(&spec, &NoiseEnv::quiet(), &mut r).counters;
        assert_eq!(c.get_or_zero(CounterId::PageFaultsSoft), 64.0);
        assert!(c.get_or_zero(CounterId::SuspensionNs) > 0.0);
    }

    #[test]
    fn poisson_like_preserves_mean() {
        let mut r = rng();
        let n = 20_000;
        let mean = 0.37;
        let total: f64 = (0..n).map(|_| poisson_like(mean, &mut r)).sum();
        let emp = total / n as f64;
        assert!((emp - mean).abs() < 0.02, "empirical mean {emp}");
    }

    #[test]
    fn deterministic_under_same_seed() {
        let m = CpuModel::new(CpuConfig::default());
        let spec = WorkloadSpec::mixed(5e5);
        let env = NoiseEnv { mem_contention: 0.4, ..NoiseEnv::default() };
        let a = m.execute(&spec, &env, &mut rng());
        let b = m.execute(&spec, &env, &mut rng());
        assert_eq!(a, b);
    }
}
