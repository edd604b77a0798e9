//! An mpiP-style lightweight profiler: per-rank and per-call-site
//! computation vs communication time totals.
//!
//! The paper's Fig. 14 point: under a computing noise, mpiP's summary
//! shows *communication* time rising while computation stays flat —
//! because the slowdown propagates through message dependencies into
//! other ranks' waiting time — which misleads the user toward a network
//! problem. The profiler here is deliberately faithful to that aggregate
//! view: totals only, no time sequence, no workload comparison.

use std::any::Any;
use std::collections::HashMap;
use vapro_sim::{EnterEvent, ExitEvent, Interceptor, InvocationKind, VirtualTime};

/// Per-rank mpiP totals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MpipSummary {
    /// The rank.
    pub rank: usize,
    /// Total wall time observed (ns).
    pub total_ns: f64,
    /// Time inside MPI/IO invocations (ns).
    pub comm_ns: f64,
    /// Time outside invocations (ns).
    pub comp_ns: f64,
    /// Per-operation invocation time totals.
    pub per_op_ns: HashMap<String, f64>,
    /// Per-operation call counts.
    pub per_op_calls: HashMap<String, u64>,
}

impl MpipSummary {
    /// Communication share of wall time.
    pub fn comm_fraction(&self) -> f64 {
        if self.total_ns <= 0.0 {
            0.0
        } else {
            self.comm_ns / self.total_ns
        }
    }
}

/// The per-rank profiler.
pub struct MpipProfiler {
    rank: usize,
    current_enter: Option<(VirtualTime, &'static str)>,
    prev_exit: VirtualTime,
    comm_ns: f64,
    comp_ns: f64,
    per_op_ns: HashMap<&'static str, f64>,
    per_op_calls: HashMap<&'static str, u64>,
    last_time: VirtualTime,
}

impl MpipProfiler {
    /// A profiler for `rank`.
    pub fn new(rank: usize) -> Self {
        MpipProfiler {
            rank,
            current_enter: None,
            prev_exit: VirtualTime::ZERO,
            comm_ns: 0.0,
            comp_ns: 0.0,
            per_op_ns: HashMap::new(),
            per_op_calls: HashMap::new(),
            last_time: VirtualTime::ZERO,
        }
    }

    /// The final summary.
    pub fn summary(&self) -> MpipSummary {
        MpipSummary {
            rank: self.rank,
            total_ns: self.last_time.ns() as f64,
            comm_ns: self.comm_ns,
            comp_ns: self.comp_ns,
            per_op_ns: self
                .per_op_ns
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
            per_op_calls: self
                .per_op_calls
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
        }
    }
}

impl Interceptor for MpipProfiler {
    fn on_enter(&mut self, ev: &EnterEvent) {
        // Time since the previous exit is computation.
        self.comp_ns += ev.time.saturating_since(self.prev_exit).ns() as f64;
        let op = match &ev.kind {
            InvocationKind::Comm { op, .. } => op,
            InvocationKind::Io { op, .. } => op,
            InvocationKind::Thread { op } => op,
            InvocationKind::UserMarker { label } => label,
        };
        self.current_enter = Some((ev.time, op));
        self.last_time = ev.time;
    }

    fn on_exit(&mut self, ev: &ExitEvent) {
        if let Some((t_enter, op)) = self.current_enter.take() {
            let dur = ev.time.saturating_since(t_enter).ns() as f64;
            self.comm_ns += dur;
            *self.per_op_ns.entry(op).or_insert(0.0) += dur;
            *self.per_op_calls.entry(op).or_insert(0) += 1;
        }
        self.prev_exit = ev.time;
        self.last_time = ev.time;
    }

    fn hook_cost_ns(&self) -> f64 {
        100.0
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vapro_apps::AppParams;
    use vapro_sim::{run_simulation, SimConfig};
    use vapro_sim::{NoiseEvent, NoiseKind, NoiseSchedule, TargetSet};

    fn profile_cg(noise: NoiseSchedule, ranks: usize) -> Vec<MpipSummary> {
        let cfg = SimConfig::new(ranks).with_noise(noise);
        let params = AppParams::default().with_iterations(8);
        let res = run_simulation(
            &cfg,
            |rank| Box::new(MpipProfiler::new(rank)) as Box<dyn Interceptor>,
            move |ctx| vapro_apps::npb::cg::run(ctx, &params),
        );
        res.into_tools::<MpipProfiler>()
            .iter()
            .map(|p| p.summary())
            .collect()
    }

    #[test]
    fn totals_partition_wall_time() {
        let s = &profile_cg(NoiseSchedule::quiet(), 4)[0];
        assert!(s.total_ns > 0.0);
        let sum = s.comm_ns + s.comp_ns;
        // Hook costs make a sliver of unattributed time; within 2 %.
        assert!((sum - s.total_ns).abs() / s.total_ns < 0.02, "{s:?}");
        assert!(s.per_op_calls["MPI_Send"] > 0);
        assert!(s.per_op_ns["MPI_Allreduce"] > 0.0);
    }

    #[test]
    fn computing_noise_masquerades_as_communication_time() {
        // The Fig. 14 effect: noise on rank 1 inflates *other* ranks'
        // communication (waiting) time far more than their computation.
        let quiet = profile_cg(NoiseSchedule::quiet(), 4);
        let noisy = profile_cg(
            NoiseSchedule::quiet().with(NoiseEvent::always(
                NoiseKind::CpuContention { steal: 0.5 },
                TargetSet::Ranks(vec![1]),
            )),
            4,
        );
        // Rank 3 is unaffected directly: its computation time barely moves…
        let comp_ratio = noisy[3].comp_ns / quiet[3].comp_ns;
        assert!((comp_ratio - 1.0).abs() < 0.05, "comp ratio {comp_ratio}");
        // …but its communication (waiting) time grows a lot.
        let comm_ratio = noisy[3].comm_ns / quiet[3].comm_ns;
        assert!(comm_ratio > 1.5, "comm ratio {comm_ratio}");
    }

    #[test]
    fn noisy_rank_itself_shows_longer_computation() {
        let noisy = profile_cg(
            NoiseSchedule::quiet().with(NoiseEvent::always(
                NoiseKind::CpuContention { steal: 0.5 },
                TargetSet::Ranks(vec![1]),
            )),
            4,
        );
        let quiet = profile_cg(NoiseSchedule::quiet(), 4);
        let ratio = noisy[1].comp_ns / quiet[1].comp_ns;
        assert!(ratio > 1.7, "victim comp ratio {ratio}");
    }

    #[test]
    fn comm_fraction_is_bounded() {
        for s in profile_cg(NoiseSchedule::quiet(), 2) {
            let f = s.comm_fraction();
            assert!((0.0..=1.0).contains(&f), "fraction {f}");
        }
    }
}
