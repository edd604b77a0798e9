//! The noise schedule: which perturbation is active, where, and when.
//!
//! The paper injects noise with `stress` (CPU contention on an
//! application core) and STREAM (memory-bandwidth contention from idle
//! cores), and studies naturally occurring perturbations: the Intel
//! L2-eviction hardware bug on a socket, a node with degraded memory
//! bandwidth, and shared-filesystem interference. Each becomes a
//! [`NoiseKind`]; a [`NoiseEvent`] scopes a kind to a [`TargetSet`] and a
//! virtual-time window, and [`NoiseSchedule::env_for`] resolves the active
//! events into the [`NoiseEnv`] the CPU model consumes.

use crate::time::VirtualTime;
use crate::topology::{Placement, Topology};
use vapro_pmu::NoiseEnv;

/// One kind of performance perturbation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NoiseKind {
    /// A co-scheduled CPU hog on the same core (`stress`): the scheduler
    /// splits the core, stealing `steal` of wall time (0.5 = 50/50 split).
    CpuContention {
        /// Fraction of wall time stolen, in [0, 1).
        steal: f64,
    },
    /// Memory-bandwidth contention from neighbours (STREAM on idle cores):
    /// DRAM latency scales by `1 + intensity`.
    MemContention {
        /// Added DRAM latency factor ≥ 0.
        intensity: f64,
    },
    /// The Intel L2-eviction hardware bug (paper §6.5.1): with probability
    /// `prob` per fragment, a `severity` fraction of L2-resident lines is
    /// evicted to DRAM. Mitigated by huge pages in the paper (lower prob).
    L2CacheBug {
        /// Per-fragment firing probability.
        prob: f64,
        /// Fraction of L2 hits converted to DRAM accesses when fired.
        severity: f64,
    },
    /// A node with degraded memory bandwidth (paper §6.5.2: −15.5 %).
    SlowMemoryNode {
        /// Bandwidth factor in (0, 1].
        bw_factor: f64,
    },
    /// Shared distributed-filesystem interference (paper §6.5.3):
    /// IO latencies inflate by up to `max_slowdown`× with heavy-tailed
    /// draws while active.
    FsInterference {
        /// Maximum multiplicative IO slowdown.
        max_slowdown: f64,
    },
    /// Network latency/bandwidth jitter: communication costs inflate by a
    /// uniform draw in `[1, 1 + amplitude]`.
    NetworkJitter {
        /// Maximum relative slowdown of message transfers.
        amplitude: f64,
    },
    /// Swapping pressure: extra hard page faults per second of execution.
    SwapPressure {
        /// Hard faults per second.
        faults_per_sec: f64,
    },
    /// A signal storm: a co-located daemon (profiler, watchdog, timer
    /// broadcast) delivering signals at a steady rate — each delivery
    /// suspends the victim briefly.
    SignalStorm {
        /// Signals per second of execution.
        signals_per_sec: f64,
    },
}

/// Which ranks a noise event applies to.
#[derive(Debug, Clone, PartialEq)]
pub enum TargetSet {
    /// Every rank.
    All,
    /// An explicit rank list.
    Ranks(Vec<usize>),
    /// All ranks on these node indices.
    Nodes(Vec<usize>),
    /// All ranks on these global socket indices.
    Sockets(Vec<usize>),
}

impl TargetSet {
    /// Does this set include a rank at `place`?
    pub fn matches(&self, rank: usize, place: &Placement) -> bool {
        match self {
            TargetSet::All => true,
            TargetSet::Ranks(rs) => rs.contains(&rank),
            TargetSet::Nodes(ns) => ns.contains(&place.node),
            TargetSet::Sockets(ss) => ss.contains(&place.global_socket),
        }
    }
}

/// A noise kind scoped in space and time.
#[derive(Debug, Clone, PartialEq)]
pub struct NoiseEvent {
    /// What perturbation.
    pub kind: NoiseKind,
    /// Who it hits.
    pub targets: TargetSet,
    /// Active from (inclusive).
    pub start: VirtualTime,
    /// Active until (exclusive). `VirtualTime(u64::MAX)` = forever.
    pub end: VirtualTime,
}

impl NoiseEvent {
    /// An event active for the whole run.
    pub fn always(kind: NoiseKind, targets: TargetSet) -> Self {
        NoiseEvent { kind, targets, start: VirtualTime::ZERO, end: VirtualTime(u64::MAX) }
    }

    /// An event active during `[start, end)`.
    pub fn during(
        kind: NoiseKind,
        targets: TargetSet,
        start: VirtualTime,
        end: VirtualTime,
    ) -> Self {
        assert!(start < end, "empty noise window");
        NoiseEvent { kind, targets, start, end }
    }

    /// Is the event active at `t` for `rank`?
    pub fn active(&self, rank: usize, place: &Placement, t: VirtualTime) -> bool {
        t >= self.start && t < self.end && self.targets.matches(rank, place)
    }
}

/// The full schedule for one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NoiseSchedule {
    /// Events, in no particular order.
    pub events: Vec<NoiseEvent>,
}

impl NoiseSchedule {
    /// The quiet schedule.
    pub fn quiet() -> Self {
        NoiseSchedule::default()
    }

    /// Add an event (builder style).
    pub fn with(mut self, ev: NoiseEvent) -> Self {
        self.events.push(ev);
        self
    }

    /// Resolve the CPU-side noise environment for `rank` at time `t`.
    /// Filesystem and network kinds do not contribute here — they are
    /// consumed by the [`crate::fs`] and [`crate::comm`] cost models via
    /// [`NoiseSchedule::fs_slowdown`] / [`NoiseSchedule::net_amplitude`].
    pub fn env_for(&self, topo: &Topology, rank: usize, t: VirtualTime) -> NoiseEnv {
        let place = topo.place(rank);
        let mut env = NoiseEnv::quiet();
        for ev in &self.events {
            if !ev.active(rank, &place, t) {
                continue;
            }
            let contrib = match ev.kind {
                NoiseKind::CpuContention { steal } => {
                    NoiseEnv { cpu_steal: steal, ..NoiseEnv::default() }
                }
                NoiseKind::MemContention { intensity } => {
                    NoiseEnv { mem_contention: intensity, ..NoiseEnv::default() }
                }
                NoiseKind::L2CacheBug { prob, severity } => NoiseEnv {
                    l2_bug_prob: prob,
                    l2_bug_severity: severity,
                    ..NoiseEnv::default()
                },
                NoiseKind::SlowMemoryNode { bw_factor } => {
                    NoiseEnv { node_bw_factor: bw_factor, ..NoiseEnv::default() }
                }
                NoiseKind::SwapPressure { faults_per_sec } => {
                    NoiseEnv { hard_fault_rate: faults_per_sec, ..NoiseEnv::default() }
                }
                NoiseKind::SignalStorm { signals_per_sec } => {
                    NoiseEnv { signal_rate: signals_per_sec, ..NoiseEnv::default() }
                }
                NoiseKind::FsInterference { .. } | NoiseKind::NetworkJitter { .. } => {
                    continue
                }
            };
            env = env.combine(&contrib);
        }
        env
    }

    /// Maximum filesystem slowdown factor active for `rank` at `t`
    /// (1.0 = none).
    pub fn fs_slowdown(&self, topo: &Topology, rank: usize, t: VirtualTime) -> f64 {
        let place = topo.place(rank);
        self.events
            .iter()
            .filter(|ev| ev.active(rank, &place, t))
            .filter_map(|ev| match ev.kind {
                NoiseKind::FsInterference { max_slowdown } => Some(max_slowdown),
                _ => None,
            })
            .fold(1.0, f64::max)
    }

    /// Network jitter amplitude active for `rank` at `t` (0.0 = none).
    pub fn net_amplitude(&self, topo: &Topology, rank: usize, t: VirtualTime) -> f64 {
        let place = topo.place(rank);
        self.events
            .iter()
            .filter(|ev| ev.active(rank, &place, t))
            .filter_map(|ev| match ev.kind {
                NoiseKind::NetworkJitter { amplitude } => Some(amplitude),
                _ => None,
            })
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::tianhe_like(48)
    }

    #[test]
    fn quiet_schedule_resolves_to_quiet_env() {
        let s = NoiseSchedule::quiet();
        assert!(s.env_for(&topo(), 0, VirtualTime::from_secs(1)).is_quiet());
    }

    #[test]
    fn time_window_is_half_open() {
        let s = NoiseSchedule::quiet().with(NoiseEvent::during(
            NoiseKind::CpuContention { steal: 0.5 },
            TargetSet::All,
            VirtualTime::from_secs(1),
            VirtualTime::from_secs(2),
        ));
        let t = topo();
        assert!(s.env_for(&t, 0, VirtualTime::from_ms(999)).is_quiet());
        assert!(!s.env_for(&t, 0, VirtualTime::from_secs(1)).is_quiet());
        assert!(!s.env_for(&t, 0, VirtualTime::from_ms(1999)).is_quiet());
        assert!(s.env_for(&t, 0, VirtualTime::from_secs(2)).is_quiet());
    }

    #[test]
    fn node_targeting_hits_all_ranks_of_the_node() {
        let s = NoiseSchedule::quiet().with(NoiseEvent::always(
            NoiseKind::SlowMemoryNode { bw_factor: 0.845 },
            TargetSet::Nodes(vec![1]),
        ));
        let t = topo();
        // Node 1 holds ranks 24..48 under block placement.
        assert!(s.env_for(&t, 23, VirtualTime::ZERO).is_quiet());
        let env = s.env_for(&t, 24, VirtualTime::ZERO);
        assert!((env.node_bw_factor - 0.845).abs() < 1e-12);
    }

    #[test]
    fn socket_targeting_for_the_hpl_bug() {
        let t = Topology::dual_socket(18);
        let s = NoiseSchedule::quiet().with(NoiseEvent::always(
            NoiseKind::L2CacheBug { prob: 0.3, severity: 0.5 },
            TargetSet::Sockets(vec![1]),
        ));
        assert!(s.env_for(&t, 0, VirtualTime::ZERO).is_quiet());
        assert!(s.env_for(&t, 20, VirtualTime::ZERO).l2_bug_prob > 0.0);
    }

    #[test]
    fn overlapping_events_combine() {
        let s = NoiseSchedule::quiet()
            .with(NoiseEvent::always(
                NoiseKind::CpuContention { steal: 0.5 },
                TargetSet::Ranks(vec![0]),
            ))
            .with(NoiseEvent::always(
                NoiseKind::MemContention { intensity: 1.0 },
                TargetSet::All,
            ));
        let env = s.env_for(&topo(), 0, VirtualTime::ZERO);
        assert_eq!(env.cpu_steal, 0.5);
        assert_eq!(env.mem_contention, 1.0);
        let other = s.env_for(&topo(), 5, VirtualTime::ZERO);
        assert_eq!(other.cpu_steal, 0.0);
    }

    #[test]
    fn fs_and_net_noise_do_not_pollute_cpu_env() {
        let s = NoiseSchedule::quiet()
            .with(NoiseEvent::always(
                NoiseKind::FsInterference { max_slowdown: 8.0 },
                TargetSet::All,
            ))
            .with(NoiseEvent::always(
                NoiseKind::NetworkJitter { amplitude: 0.4 },
                TargetSet::All,
            ));
        let t = topo();
        assert!(s.env_for(&t, 0, VirtualTime::ZERO).is_quiet());
        assert_eq!(s.fs_slowdown(&t, 0, VirtualTime::ZERO), 8.0);
        assert_eq!(s.net_amplitude(&t, 0, VirtualTime::ZERO), 0.4);
    }

    #[test]
    #[should_panic(expected = "empty noise window")]
    fn during_rejects_empty_window() {
        let _ = NoiseEvent::during(
            NoiseKind::CpuContention { steal: 0.1 },
            TargetSet::All,
            VirtualTime::from_secs(2),
            VirtualTime::from_secs(2),
        );
    }
}
