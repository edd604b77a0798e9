//! The noise environment seen by one rank during one fragment.
//!
//! `vapro-sim`'s noise scheduler resolves its schedule into a [`NoiseEnv`]
//! for each `(rank, time)` query; the [`crate::CpuModel`] then applies the
//! perturbations. Keeping this type in `vapro-pmu` lets the CPU model stay
//! independent of the runtime.


/// Perturbations active while a fragment executes. The default is a quiet
/// machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseEnv {
    /// Fraction of wall time stolen from the rank by a co-scheduled process
    /// (e.g. `stress` pinned on the same core, paper Fig. 5/12). `0.5`
    /// models the OS splitting the core evenly, doubling wall time.
    pub cpu_steal: f64,
    /// Memory-bandwidth contention factor ≥ 0: scales effective DRAM (and
    /// partially L3) latency by `1 + mem_contention` (STREAM on idle cores).
    pub mem_contention: f64,
    /// Node memory-bandwidth factor; `1.0` is healthy, `< 1.0` is a
    /// degraded node (paper §6.5.2: 15.5 % lower bandwidth → `0.845`).
    pub node_bw_factor: f64,
    /// Probability that this fragment is hit by the Intel L2-eviction
    /// hardware bug, which forcibly evicts L2-resident lines (paper §6.5.1).
    pub l2_bug_prob: f64,
    /// Fraction of L2-resident lines evicted to DRAM when the bug fires.
    pub l2_bug_severity: f64,
    /// Extra hard page faults per second of execution (swapping pressure).
    pub hard_fault_rate: f64,
    /// Extra signals delivered per second of execution.
    pub signal_rate: f64,
}

impl Default for NoiseEnv {
    fn default() -> Self {
        NoiseEnv {
            cpu_steal: 0.0,
            mem_contention: 0.0,
            node_bw_factor: 1.0,
            l2_bug_prob: 0.0,
            l2_bug_severity: 0.0,
            hard_fault_rate: 0.0,
            signal_rate: 0.0,
        }
    }
}

impl NoiseEnv {
    /// A quiet machine: no perturbation at all.
    pub fn quiet() -> Self {
        NoiseEnv::default()
    }

    /// True when no perturbation is active.
    pub fn is_quiet(&self) -> bool {
        *self == NoiseEnv::default()
    }

    /// Merge two environments: steals and contentions add, bandwidth
    /// factors multiply, bug probabilities combine as independent events.
    pub fn combine(&self, other: &NoiseEnv) -> NoiseEnv {
        NoiseEnv {
            cpu_steal: (self.cpu_steal + other.cpu_steal).min(0.95),
            mem_contention: self.mem_contention + other.mem_contention,
            node_bw_factor: self.node_bw_factor * other.node_bw_factor,
            l2_bug_prob: 1.0 - (1.0 - self.l2_bug_prob) * (1.0 - other.l2_bug_prob),
            l2_bug_severity: self.l2_bug_severity.max(other.l2_bug_severity),
            hard_fault_rate: self.hard_fault_rate + other.hard_fault_rate,
            signal_rate: self.signal_rate + other.signal_rate,
        }
    }

    /// Validity: everything finite and within physical ranges.
    pub fn is_valid(&self) -> bool {
        (0.0..1.0).contains(&self.cpu_steal)
            && self.mem_contention >= 0.0
            && self.mem_contention.is_finite()
            && self.node_bw_factor > 0.0
            && self.node_bw_factor.is_finite()
            && (0.0..=1.0).contains(&self.l2_bug_prob)
            && (0.0..=1.0).contains(&self.l2_bug_severity)
            && self.hard_fault_rate >= 0.0
            && self.signal_rate >= 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_quiet_and_valid() {
        let e = NoiseEnv::default();
        assert!(e.is_quiet());
        assert!(e.is_valid());
    }

    #[test]
    fn combine_adds_steal_and_caps_it() {
        let a = NoiseEnv { cpu_steal: 0.6, ..NoiseEnv::default() };
        let b = NoiseEnv { cpu_steal: 0.6, ..NoiseEnv::default() };
        let c = a.combine(&b);
        assert!(c.cpu_steal <= 0.95);
        assert!(c.is_valid());
    }

    #[test]
    fn combine_multiplies_bw_factors() {
        let a = NoiseEnv { node_bw_factor: 0.9, ..NoiseEnv::default() };
        let b = NoiseEnv { node_bw_factor: 0.8, ..NoiseEnv::default() };
        assert!((a.combine(&b).node_bw_factor - 0.72).abs() < 1e-12);
    }

    #[test]
    fn combine_bug_probabilities_as_independent_events() {
        let a = NoiseEnv { l2_bug_prob: 0.5, ..NoiseEnv::default() };
        let b = NoiseEnv { l2_bug_prob: 0.5, ..NoiseEnv::default() };
        assert!((a.combine(&b).l2_bug_prob - 0.75).abs() < 1e-12);
    }
}
