//! Fragments: the unit of observation.
//!
//! A *fragment* is one execution of a code snippet — either the interval
//! between two consecutive external invocations (a **computation**
//! fragment, attached to an STG edge) or one external invocation itself
//! (a **communication** or **IO** fragment, attached to an STG vertex).
//! Each fragment carries elapsed virtual time, a counter delta restricted
//! to the active counter set, and — for invocations — the
//! workload-identifying argument vector (paper §3.3).

use vapro_pmu::{CounterDelta, CounterId};
use vapro_sim::VirtualTime;

/// Which category a fragment belongs to (the paper reports computation,
/// network and IO performance separately).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FragmentKind {
    /// Computation between invocations (STG edge).
    Computation,
    /// A communication invocation (STG vertex).
    Communication,
    /// An IO invocation (STG vertex).
    Io,
    /// Thread-synchronisation or user-marker invocation (STG vertex);
    /// analysed with the communication category.
    Other,
}

/// Counts [`Fragment`] clones — the instrument behind the zero-clone
/// guarantees of the pooling, windowed-ingestion and batched-diagnosis
/// paths (the server's byte path builds no `Fragment` at all; an owned
/// batch's fragments are copied field by field into arena rows and
/// from there into the sealed pool, never cloned). Compiled in for
/// debug builds and for release builds with the
/// `clone-count` feature (the release soak uses the latter to prove
/// zero clones on the streaming path at optimised speeds); plain
/// release builds compile the counter out entirely.
#[cfg(any(debug_assertions, feature = "clone-count"))]
pub mod clone_count {
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU64, Ordering};

    thread_local! {
        static CLONES: Cell<u64> = const { Cell::new(0) };
    }

    static TOTAL: AtomicU64 = AtomicU64::new(0);

    /// Fragment clones performed *by the current thread* so far. Tests
    /// snapshot this, run a single-threaded pipeline, and assert the
    /// delta — the thread-local keeps concurrently-running tests from
    /// polluting each other's counts.
    ///
    /// Which threads that covers: only the caller. Work the caller hands
    /// to the pool is counted on whichever thread runs it — the
    /// caller's own share of a `collect()`, and any queued job it runs
    /// while waiting on the analysis stage, land here; a pool worker's
    /// share lands on that worker's counter, which lives as long as the
    /// process and is never read. So a zero delta proves a path
    /// clone-free only if the path runs on the caller:
    /// `detect_columnar` and `DiagnosisBatch::diagnose` always do, and
    /// so does a depth-0 ingestor.
    pub fn on_this_thread() -> u64 {
        CLONES.with(Cell::get)
    }

    /// Fragment clones performed by *any* thread in this process so far:
    /// the caller, the long-lived pool workers, and every other test
    /// running in the same binary. Use it where the pipeline under
    /// measurement really is multi-threaded *and* nothing else in the
    /// process clones fragments meanwhile (the soak binary, whose tests
    /// take a lock to run one at a time); a unit test with cloning
    /// siblings wants [`on_this_thread`] around a path that runs on the
    /// caller instead.
    pub fn in_process() -> u64 {
        TOTAL.load(Ordering::Relaxed)
    }

    pub(super) fn record() {
        CLONES.with(|c| c.set(c.get() + 1));
        TOTAL.fetch_add(1, Ordering::Relaxed);
    }
}

/// One observed fragment.
#[derive(Debug, PartialEq)]
pub struct Fragment {
    /// Originating rank.
    pub rank: usize,
    /// Fragment category.
    pub kind: FragmentKind,
    /// Virtual start time.
    pub start: VirtualTime,
    /// Virtual end time.
    pub end: VirtualTime,
    /// Counter delta over the fragment (projected to the active set).
    pub counters: CounterDelta,
    /// Invocation arguments (empty for computation fragments).
    pub args: Vec<f64>,
}

impl Clone for Fragment {
    fn clone(&self) -> Fragment {
        #[cfg(any(debug_assertions, feature = "clone-count"))]
        clone_count::record();
        Fragment {
            rank: self.rank,
            kind: self.kind,
            start: self.start,
            end: self.end,
            counters: self.counters.clone(),
            args: self.args.clone(),
        }
    }
}

impl Fragment {
    /// Elapsed virtual time.
    pub fn duration(&self) -> VirtualTime {
        self.end.saturating_since(self.start)
    }

    /// Elapsed time in nanoseconds as `f64`.
    pub fn duration_ns(&self) -> f64 {
        self.duration().ns() as f64
    }

    /// The workload vector used for fixed-workload clustering:
    ///
    /// * computation — the configured proxy counters (TOT_INS by default,
    ///   §3.3: PMU metrics represent computation workload);
    /// * communication / IO — the invocation arguments (message size, peer,
    ///   fd, mode; PMU values would reflect busy-waiting, not workload).
    pub fn workload_vector(&self, proxy_counters: &[CounterId]) -> Vec<f64> {
        match self.kind {
            FragmentKind::Computation => proxy_counters
                .iter()
                .map(|&id| self.counters.get_or_zero(id))
                .collect(),
            _ => self.args.clone(),
        }
    }

    /// Euclidean norm of a workload vector.
    pub fn vector_norm(v: &[f64]) -> f64 {
        v.iter().map(|x| x * x).sum::<f64>().sqrt()
    }
}

/// The default computation workload proxy: total instructions
/// (paper Fig. 5 shows TOT_INS is stable under noise while TSC is not).
pub const DEFAULT_PROXY: [CounterId; 1] = [CounterId::TotIns];

/// An extended proxy adding memory-reference counts, for workloads whose
/// instruction counts alone are ambiguous (the paper lets users add
/// load/store counts or cache metrics at extra overhead).
pub const EXTENDED_PROXY: [CounterId; 3] =
    [CounterId::TotIns, CounterId::LoadsL1Hit, CounterId::Stores];

#[cfg(test)]
mod tests {
    use super::*;

    fn frag(kind: FragmentKind, ins: f64, args: Vec<f64>) -> Fragment {
        let mut counters = CounterDelta::default();
        counters.put(CounterId::TotIns, ins);
        counters.put(CounterId::Tsc, ins * 2.0);
        Fragment {
            rank: 0,
            kind,
            start: VirtualTime::from_ns(100),
            end: VirtualTime::from_ns(400),
            counters,
            args,
        }
    }

    #[test]
    fn duration_is_end_minus_start() {
        let f = frag(FragmentKind::Computation, 10.0, vec![]);
        assert_eq!(f.duration().ns(), 300);
        assert_eq!(f.duration_ns(), 300.0);
    }

    #[test]
    fn computation_workload_vector_uses_proxy_counters() {
        let f = frag(FragmentKind::Computation, 1234.0, vec![]);
        assert_eq!(f.workload_vector(&DEFAULT_PROXY), vec![1234.0]);
    }

    #[test]
    fn invocation_workload_vector_uses_args() {
        let f = frag(FragmentKind::Communication, 99.0, vec![4096.0, 3.0]);
        assert_eq!(f.workload_vector(&DEFAULT_PROXY), vec![4096.0, 3.0]);
    }

    #[test]
    fn norm_is_euclidean() {
        assert_eq!(Fragment::vector_norm(&[3.0, 4.0]), 5.0);
        assert_eq!(Fragment::vector_norm(&[]), 0.0);
    }
}
