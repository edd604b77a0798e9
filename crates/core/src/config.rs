//! All tunables in one place, defaulting to the constants the paper's
//! implementation uses (§3.4, §3.5, §4.3, §6.2).

use vapro_pmu::{events, CounterSet};
use vapro_sim::VirtualTime;

/// How running states are keyed when building the STG (paper §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StgMode {
    /// Key by call-site only: cheaper hooks, coarser states. The paper's
    /// Table 1 finds this both faster *and* higher-coverage (workload
    /// clustering compensates for the coarser states), so it is the
    /// default.
    ContextFree,
    /// Key by full call-path: needs a call-stack backtrace per hook
    /// (≈10× the hook cost), finer states.
    ContextAware,
}

/// What the ingestor does with a frame from a rank already declared
/// [`Dead`](crate::detect::admission::RankHealth::Dead) (it revived, or its
/// data was badly delayed in transit).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LateDataPolicy {
    /// Admit the fragments into the arena: still-open windows pick them
    /// up; windows already closed without them stay closed. The default —
    /// data is precious on a production run.
    #[default]
    Readmit,
    /// Discard the frame, counting it in the window coverage as
    /// `dropped_late_frames`. Keeps closed-window provenance simple: a
    /// dead rank stays absent.
    Drop,
}

/// Death and memory policy for the streaming ingest path
/// (`WindowedIngestor`). Everything defaults to **off**: with no horizon
/// set, window closing blocks on the slowest rank exactly as the
/// fault-free equivalence semantics require, and buffering is unbounded.
/// A rank that merely trails is visible in every closed window's
/// [`WindowCoverage`](crate::report::WindowCoverage) (`ranks_complete`,
/// `completeness`); there is no separate early-warning state.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultTolerance {
    /// A rank whose shipping mark trails the fastest rank's by more than
    /// this is declared `Dead` and excluded
    /// from the low-watermark, so windows keep closing without it. Death
    /// is latched: later frames are handled per [`LateDataPolicy`].
    pub dead_horizon: Option<VirtualTime>,
    /// What to do with frames from a rank already declared dead.
    pub late_data: LateDataPolicy,
    /// Cap on bytes buffered for frames arriving *ahead* of the
    /// watermark (a fast rank running away from a straggler), each
    /// charged its [`frame_charge`](crate::detect::frame_charge): the
    /// larger of its wire and arena bytes. Frames past the cap are
    /// dropped and accounted in coverage instead of growing memory
    /// without bound.
    pub max_buffered_bytes: Option<u64>,
}

impl FaultTolerance {
    /// A production-style preset: declare a rank dead after three
    /// periods, drop late data, cap ahead-of-watermark buffering at
    /// 64 MiB.
    pub fn production(period: VirtualTime) -> Self {
        FaultTolerance {
            dead_horizon: Some(VirtualTime::from_ns(period.ns().saturating_mul(3))),
            late_data: LateDataPolicy::Drop,
            max_buffered_bytes: Some(64 << 20),
        }
    }
}

/// Vapro configuration.
#[derive(Debug, Clone)]
pub struct VaproConfig {
    /// STG keying mode.
    pub stg_mode: StgMode,
    /// Relative distance threshold for workload clustering
    /// (paper: 5 %).
    pub cluster_threshold: f64,
    /// Minimum fragments for a cluster to be usable for detection;
    /// smaller clusters are reported as rarely-executed paths
    /// (paper: 5).
    pub min_cluster_size: usize,
    /// Normalised-performance threshold below which a heat-map cell is
    /// variance-suspect (paper: 0.85).
    pub perf_threshold: f64,
    /// A fragment is *abnormal* when it costs more than this multiple of
    /// the fastest fragment in its cluster (paper: 1.2).
    pub ka_abnormal: f64,
    /// A factor is *major* when it contributes more than this share of
    /// the overall variance (paper: 0.25).
    pub major_factor_threshold: f64,
    /// Server reporting period (paper: 15 s).
    pub report_period: VirtualTime,
    /// How many top (by quantified loss) computation regions each closed
    /// streaming window diagnoses. 0 disables in-window diagnosis.
    pub diagnose_top_k: usize,
    /// Counters active during plain detection.
    pub detection_counters: CounterSet,
    /// The computation workload proxy: which counters form the workload
    /// vector for clustering. TOT_INS by default (paper §3.3); users can
    /// add load/store or cache metrics for sharper separation at extra
    /// collection overhead.
    pub proxy_counters: Vec<vapro_pmu::CounterId>,
    /// Per-hook virtual cost in ns. Context-aware mode pays extra for
    /// backtracing on top of this.
    pub hook_cost_ns: f64,
    /// Multiplier on `hook_cost_ns` in context-aware mode (the cost of
    /// unwinding the call stack).
    pub backtrace_cost_factor: f64,
    /// Enable binary-exponential-backoff sampling of short fragments.
    pub sampling_enabled: bool,
    /// Fragments shorter than this are subject to sampling back-off.
    pub sampling_min_ns: f64,
    /// Straggler/death/backpressure policy for streaming ingestion.
    /// Defaults to fully off (block on the slowest rank, buffer without
    /// bound) — the fault-free bit-identical semantics.
    pub fault: FaultTolerance,
    /// How many sealed windows the streaming ingestor may hold in its
    /// pipelined analysis stage at once. With a positive depth,
    /// admission keeps draining frames while clustering runs on the
    /// shared pool; reports are still emitted strictly in window order, so
    /// the union of all reports stays bit-identical to the one-shot
    /// analysis. `0` runs each window's analysis on the admission thread
    /// as it is submitted (same stage, no hand-off — useful when
    /// per-push report latency must be deterministic).
    pub pipeline_depth: usize,
}

impl Default for VaproConfig {
    fn default() -> Self {
        VaproConfig {
            stg_mode: StgMode::ContextFree,
            cluster_threshold: 0.05,
            min_cluster_size: 5,
            perf_threshold: 0.85,
            ka_abnormal: 1.2,
            major_factor_threshold: 0.25,
            report_period: VirtualTime::from_secs(15),
            diagnose_top_k: 3,
            detection_counters: events::detection_set(),
            proxy_counters: vec![vapro_pmu::CounterId::TotIns],
            hook_cost_ns: 250.0,
            backtrace_cost_factor: 2.5,
            sampling_enabled: false,
            sampling_min_ns: 2_000.0,
            fault: FaultTolerance::default(),
            pipeline_depth: 8,
        }
    }
}

impl VaproConfig {
    /// The context-aware preset.
    pub fn context_aware() -> Self {
        VaproConfig { stg_mode: StgMode::ContextAware, ..VaproConfig::default() }
    }

    /// The context-free preset (same as `default`).
    pub fn context_free() -> Self {
        VaproConfig::default()
    }

    /// Effective per-hook cost for the configured mode.
    pub fn effective_hook_cost_ns(&self) -> f64 {
        match self.stg_mode {
            StgMode::ContextFree => self.hook_cost_ns,
            StgMode::ContextAware => self.hook_cost_ns * self.backtrace_cost_factor,
        }
    }

    /// Use a wider counter set during detection (e.g. when diagnosis has
    /// requested finer factors).
    pub fn with_counters(mut self, set: CounterSet) -> Self {
        self.detection_counters = set;
        self
    }

    /// Basic sanity of the thresholds and the report period.
    pub fn is_valid(&self) -> bool {
        self.cluster_threshold > 0.0
            && self.cluster_threshold < 1.0
            && self.min_cluster_size >= 2
            && (0.0..1.0).contains(&self.perf_threshold)
            && self.ka_abnormal > 1.0
            && (0.0..1.0).contains(&self.major_factor_threshold)
            && self.hook_cost_ns >= 0.0
            && self.report_period.ns() > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper_constants() {
        let c = VaproConfig::default();
        assert_eq!(c.cluster_threshold, 0.05);
        assert_eq!(c.min_cluster_size, 5);
        assert_eq!(c.perf_threshold, 0.85);
        assert_eq!(c.ka_abnormal, 1.2);
        assert_eq!(c.major_factor_threshold, 0.25);
        assert_eq!(c.report_period, VirtualTime::from_secs(15));
        assert!(c.is_valid());
    }

    #[test]
    fn fault_tolerance_defaults_to_off() {
        let c = VaproConfig::default();
        assert_eq!(c.fault, FaultTolerance::default());
        assert_eq!(c.fault.dead_horizon, None);
        assert_eq!(c.fault.max_buffered_bytes, None);
        assert_eq!(c.fault.late_data, LateDataPolicy::Readmit);
        let prod = FaultTolerance::production(VirtualTime::from_secs(15));
        assert_eq!(prod.dead_horizon, Some(VirtualTime::from_secs(45)));
        let ok = VaproConfig { fault: prod, ..VaproConfig::default() };
        assert!(ok.is_valid());
    }

    #[test]
    fn a_zero_report_period_is_invalid() {
        let bad = VaproConfig { report_period: VirtualTime::ZERO, ..VaproConfig::default() };
        assert!(!bad.is_valid());
    }

    #[test]
    fn context_aware_hooks_cost_more() {
        // The paper's Table 1: CA ≈ 2× the CF overhead (3.81% vs 1.80%),
        // from the call-stack backtrace each hook must take.
        let cf = VaproConfig::context_free();
        let ca = VaproConfig::context_aware();
        assert!(ca.effective_hook_cost_ns() >= cf.effective_hook_cost_ns() * 2.0);
    }
}
