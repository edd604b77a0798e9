//! The pipelined window-analysis stage: a bounded, strictly in-order
//! hand-off between window *sealing* (snapshotting a closed window's
//! fragments into a [`ColumnarPool`] on the admission thread) and window
//! *analysis* (clustering + detection + diagnosis as a task on the
//! process-wide `rayon` pool — the stage owns no thread).
//!
//! The stage exists so admission never serialises behind clustering:
//! `WindowedIngestor::close_ready` seals each ready window, submits it,
//! and immediately returns to draining frames while pool workers
//! analyse in the background. It is the one door every sealed window
//! goes through: at depth 0, and for a window too small to be worth a
//! hand-off (`INLINE_ROWS_MAX`), the same submission runs on the
//! submitting thread instead of the pool — at depth 0 per-push emission
//! is therefore deterministic — and nothing else about the path
//! differs. Three properties make this safe for the repo's load-bearing
//! stream ≡ one-shot bit-identity invariant:
//!
//! * **Sealing is synchronous.** The window view and its columnar
//!   refill happen on the admission thread *before* the arena evicts
//!   anything or absorbs another batch, so a sealed window's input is
//!   exactly the arena's content at close time.
//! * **Emission is in window order.** Every submission gets a dense
//!   sequence number; completed reports park in a reorder buffer and
//!   only the contiguous prefix is ever released. Tasks may finish
//!   out of order, callers never observe it.
//! * **The stage is bounded.** At most `depth` windows are submitted
//!   but not yet handed back to the owner — in flight on the pool *or*
//!   finished and parked behind an unfinished predecessor (one at depth
//!   0, for the duration of the `submit` that analyses it); submission
//!   blocks past that, so one slow window exerts backpressure instead
//!   of letting its successors pile up in the reorder buffer.
//!
//! **Whoever waits, helps.** A thread blocked on the stage (`submit` at
//! depth, `drain`) runs queued pool jobs (`rayon::yield_now`) and parks
//! on `window_done` only when the pool's queue is empty. Only the owner
//! submits to a stage, so an empty queue means every window it waits
//! for is being analysed on another thread right now, and analysis
//! never blocks: the wake-up is certain. A waiter that is itself a pool
//! task (a job finishing inside `FleetIngestor::into_report`'s fan-out)
//! never starves the pool it waits on.
//!
//! Every finished window's [`WindowScratch`] — its [`ColumnarPool`] and
//! the analysis work buffers that travel with it — goes back into the
//! ingestor's shared scratch stack, so steady-state sealing and
//! analysis allocate no new lanes, across threads. The scratch is a
//! value the task owns, not a thread-local: the stage owns no thread,
//! and a window's buffers are wherever its pool is.
//!
//! **Where a report's memory lives.** A [`WindowReport`] is allocated by
//! whichever thread ran `analyze` — a pool worker for every window above
//! `INLINE_ROWS_MAX` at depth > 0 — and freed by whoever drops it after
//! `take_completed`/`drain`: the owner, on the admission thread. Every
//! heap block it owns is therefore one cross-thread free (glibc sends it
//! back to the worker's arena under that arena's lock, and the worker's
//! next `malloc` contends for it), which is why the report is a few flat
//! tables and not a tree of small `Vec`s: ≈17 blocks plus what it found
//! (DESIGN.md §13; `tests/report_heap_shape.rs` holds the count).
//! The clustering work lanes, the vertex lanes' cluster table and the
//! makespan lane are recycled with the window's scratch; what else the
//! analysis allocates — the diagnosis scratch — is born and freed on the
//! analysing thread.

use crate::columnar::ColumnarPool;
use crate::config::VaproConfig;
use crate::detect::ingestor::{analyze_view_columnar, WindowReport};
use crate::detect::pipeline::AnalysisScratch;
use crate::detect::window::Window;
use crate::report::WindowCoverage;
use parking_lot::{Condvar, Mutex, MutexGuard};
use std::any::Any;
use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;
use std::thread;

/// Windows with fewer fragment rows than this are analysed by the thread
/// that submits them, at any depth. Windows are the only unit the
/// analysis runs in parallel — one window is one sequential pass on
/// whichever thread holds it — so this is the path's one size cut.
/// Offering work to a parked pool worker costs ≈13 µs before the worker
/// contributes (futex wake plus the owner waiting out the worker's last
/// item); handing it a whole window costs ≈25 µs (that wake, the queue,
/// the report's trip back through the reorder buffer). Analysis —
/// detection plus diagnosis — costs ≈0.12–0.26 µs a row, so below ≈100
/// rows the hand-off costs more than the work it moves. `fleet_small`'s
/// ≈52-row windows sit below it, every stream workload's (≥ ≈510 rows)
/// above; DESIGN.md §13 has the measurement.
const INLINE_ROWS_MAX: usize = 128;

/// What a window borrows from the ingestor's recycling stack for its
/// seal and analysis, and gives back when its report is done: the
/// columnar pool the seal fills and the analysis work buffers. Both keep
/// their capacity from window to window.
#[derive(Debug, Default)]
pub(crate) struct WindowScratch {
    /// The window's fragments in columnar form, sealed at close time.
    pub(crate) pool: ColumnarPool,
    /// Detection's work buffers (contents overwritten by each window).
    pub(crate) analysis: AnalysisScratch,
}

/// One sealed window travelling through the stage: the immutable
/// analysis input snapshotted at close time. Its sequence number travels
/// beside it, so the `ReorderRelease` canary can release one out of order.
struct SealedWindow {
    window: Window,
    /// Transport-side coverage, snapshotted when the window closed (the
    /// cumulative drop counters must reflect close time, not whenever a
    /// worker happens to run).
    coverage: WindowCoverage,
    /// Deployment width at close time. Travels per window because a
    /// rank born mid-stream widens later windows without retroactively
    /// widening ones already sealed.
    nranks: usize,
    /// The window's sealed pool and the analysis buffers, owned by the
    /// task.
    scratch: WindowScratch,
}

/// Mutable stage state behind one mutex: the reorder buffer and the
/// in-flight count. Together they are the depth bound.
#[derive(Default)]
struct StageState {
    /// Finished windows by sequence number, until the owner harvests the
    /// contiguous prefix. `Err` is the payload of an analysis that
    /// panicked: it takes its window's turn in the order and is
    /// re-raised on the owner when released, so the owner never waits
    /// for a window that cannot complete.
    completed: BTreeMap<u64, thread::Result<WindowReport>>,
    /// Sealed windows submitted but not yet completed (queued on the
    /// pool or running). `in_flight + completed.len()` is bounded by the
    /// configured depth.
    in_flight: usize,
}

/// Re-raise an analysis task's panic on the calling thread, the owner.
fn surface_failure(payload: Box<dyn Any + Send>) -> ! {
    panic::resume_unwind(payload)
}

/// Everything analysis tasks share with the submitting ingestor.
struct StageShared {
    state: Mutex<StageState>,
    /// Signalled when a task completes a window: capacity freed for
    /// submitters, a result possibly available for drainers.
    window_done: Condvar,
    /// Immutable analysis context for [`analyze_view_columnar`].
    cfg: VaproConfig,
    bins: usize,
    /// The ingestor's recycled window scratch: finished windows' pools
    /// and work buffers return here with their capacity intact.
    scratch: Arc<Mutex<Vec<WindowScratch>>>,
}

impl StageShared {
    /// Task body: analyse a sealed window, recycle its scratch, park the
    /// report for in-order release.
    fn analyze(&self, seq: u64, task: SealedWindow) {
        let SealedWindow { window, coverage, nranks, mut scratch } = task;
        let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
            let WindowScratch { pool, analysis } = &mut scratch;
            analyze_view_columnar(pool, window, nranks, self.bins, &self.cfg, coverage, analysis)
        }));
        // Capacity goes back to the sealing side before the report is
        // parked: the next seal can reuse these lanes immediately.
        self.scratch.lock().push(scratch);
        {
            let mut state = self.state.lock();
            state.completed.insert(seq, outcome);
            state.in_flight -= 1;
        }
        self.window_done.notify_all();
    }

    /// Block until `ready` holds, running queued pool jobs meanwhile
    /// (module docs: whoever waits, helps); returns the guard it held under.
    fn wait_until(&self, ready: impl Fn(&StageState) -> bool) -> MutexGuard<'_, StageState> {
        loop {
            let state = self.state.lock();
            if ready(&state) {
                return state;
            }
            drop(state);
            if rayon::yield_now() == Some(rayon::Yield::Executed) {
                continue;
            }
            let mut state = self.state.lock();
            if !ready(&state) {
                self.window_done.wait(&mut state);
            }
        }
    }
}

/// Move the contiguous completed prefix out of the reorder buffer onto
/// the owner's `ready` list, in window order, freeing its slots.
fn harvest_prefix(state: &mut StageState, next_emit: &mut u64, ready: &mut Vec<WindowReport>) {
    ready.reserve(state.completed.len());
    while let Some(outcome) = state.completed.remove(next_emit) {
        *next_emit += 1;
        match outcome {
            Ok(report) => ready.push(report),
            Err(payload) => surface_failure(payload),
        }
    }
}

/// A bounded in-order analysis pipeline owned by one
/// [`WindowedIngestor`](crate::detect::ingestor::WindowedIngestor).
pub(crate) struct AnalysisStage {
    shared: Arc<StageShared>,
    depth: usize,
    /// Next submission sequence number.
    next_seq: u64,
    /// Next sequence number to harvest; everything below has left the
    /// reorder buffer.
    next_emit: u64,
    /// Harvested reports the owner has not collected yet, in window
    /// order: `submit` moves the releasable prefix here to free slots,
    /// `take_completed` hands it over.
    ready: Vec<WindowReport>,
    /// `ReorderRelease` canary state: a parked submission awaiting its
    /// successor, which is then sequenced *before* it — deliberately
    /// breaking the submission-order contract for the VOPR harness to
    /// catch.
    #[cfg(feature = "vopr-canary")]
    canary_parked: Option<SealedWindow>,
}

impl AnalysisStage {
    /// A stage with at most `depth` windows in flight; at depth 0 each
    /// window is analysed on the thread that submits it.
    pub(crate) fn new(
        depth: usize,
        cfg: VaproConfig,
        bins: usize,
        scratch: Arc<Mutex<Vec<WindowScratch>>>,
    ) -> AnalysisStage {
        AnalysisStage {
            shared: Arc::new(StageShared {
                state: Mutex::new(StageState::default()),
                window_done: Condvar::new(),
                cfg,
                bins,
                scratch,
            }),
            depth,
            next_seq: 0,
            next_emit: 0,
            ready: Vec::new(),
            #[cfg(feature = "vopr-canary")]
            canary_parked: None,
        }
    }

    /// Submit one sealed window. While the stage is at depth the caller
    /// analyses queued windows itself — bounded memory beats unbounded
    /// queueing when analysis lags.
    pub(crate) fn submit(
        &mut self,
        window: Window,
        coverage: WindowCoverage,
        nranks: usize,
        scratch: WindowScratch,
    ) {
        let sealed = SealedWindow { window, coverage, nranks, scratch };
        #[cfg(feature = "vopr-canary")]
        if crate::vopr::canary::armed(crate::vopr::canary::Canary::ReorderRelease) {
            // Park every other submission and sequence it *after* its
            // successor: the stage then releases windows out of
            // submission order deterministically, regardless of task
            // timing. The VOPR tiling and pipeline ≡ inline invariants
            // must catch the swap.
            match self.canary_parked.take() {
                None => self.canary_parked = Some(sealed),
                Some(parked) => {
                    self.submit_now(sealed);
                    self.submit_now(parked);
                }
            }
            return;
        }
        self.submit_now(sealed);
    }

    fn submit_now(&mut self, sealed: SealedWindow) {
        // Depth 0 analyses inside `submit`, so its one slot is free
        // again as soon as the previous report is harvested.
        let slots = self.depth.max(1);
        // A finished window at the head of the order frees its slot (and
        // its finished successors') by moving to `ready`, so either
        // disjunct leaves a free slot once the prefix is harvested.
        let next = self.next_emit;
        let mut state = self.shared.wait_until(|s| {
            s.in_flight + s.completed.len() < slots || s.completed.contains_key(&next)
        });
        harvest_prefix(&mut state, &mut self.next_emit, &mut self.ready);
        state.in_flight += 1;
        drop(state);
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.depth == 0 || sealed.scratch.pool.len() < INLINE_ROWS_MAX {
            self.shared.analyze(seq, sealed);
            return;
        }
        let shared = Arc::clone(&self.shared);
        rayon::spawn(move || shared.analyze(seq, sealed));
    }

    /// Release every report whose predecessors have all been released —
    /// the contiguous completed prefix, in window order. Never blocks.
    pub(crate) fn take_completed(&mut self) -> Vec<WindowReport> {
        // The owner asks after every frame; with nothing submitted since
        // the last harvest there is nothing to find, and the state mutex
        // is the one every finishing analysis takes.
        if self.next_seq == self.next_emit && self.ready.is_empty() {
            return Vec::new();
        }
        harvest_prefix(&mut self.shared.state.lock(), &mut self.next_emit, &mut self.ready);
        std::mem::take(&mut self.ready)
    }

    /// Block until every submitted window has been analysed and return
    /// the remaining reports in window order. `finish` joins the stage
    /// through here.
    pub(crate) fn drain(&mut self) -> Vec<WindowReport> {
        // A parked canary submission must flush before the join below,
        // or drain would wait forever on a sequence number never issued.
        #[cfg(feature = "vopr-canary")]
        if let Some(parked) = self.canary_parked.take() {
            self.submit_now(parked);
        }
        // Only the owner submits, so once nothing is in flight every
        // window it submitted is in the reorder buffer and the
        // contiguous prefix is all of them.
        drop(self.shared.wait_until(|s| s.in_flight == 0));
        self.take_completed()
    }

    /// Windows submitted but not yet handed to the owner: in flight,
    /// parked in the reorder buffer awaiting a predecessor, or harvested
    /// and awaiting `take_completed`. The first two are bounded by the
    /// depth; the third is empty after every `take_completed`.
    pub(crate) fn pending(&self) -> u64 {
        self.next_seq - self.next_emit + self.ready.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::arena::tests::looped_stg;
    use crate::detect::arena::IngestArena;
    use crate::wire::FragmentBatch;
    use std::sync::mpsc;
    use std::time::Duration;
    use vapro_sim::VirtualTime;

    /// A window scratch whose pool holds `rows` fragments: one rank
    /// looping over one site.
    fn pool_of(rows: usize) -> WindowScratch {
        let mut arena = IngestArena::new();
        arena.push_batch(FragmentBatch::from_stg_starting_in(&looped_stg(0, rows, 1_000_000, 0..0), 0, Window::ALL));
        WindowScratch { pool: ColumnarPool::from_merged(&arena.full_view()), ..WindowScratch::default() }
    }

    /// Push `n` half-overlapping windows, window `k` holding `rows(k)`
    /// fragments, through a fresh stage and drain it: the window indices
    /// in emission order, and how many pools came back to the scratch
    /// stack.
    fn run_stage(depth: usize, n: u64, rows: fn(u64) -> usize) -> (Vec<u64>, usize) {
        let cfg = VaproConfig::default();
        let half = cfg.report_period.ns() / 2;
        let at = |k: u64| VirtualTime::from_ns(k * half);
        let scratch = Arc::new(Mutex::new(Vec::new()));
        let mut stage = AnalysisStage::new(depth, cfg, 8, Arc::clone(&scratch));
        for k in 0..n {
            let window = Window { start: at(k), end: at(k + 2) };
            stage.submit(window, WindowCoverage::full(2), 2, pool_of(rows(k)));
            // In flight or parked behind a slower predecessor (the mixed
            // case below parks inline windows): never past the depth.
            assert!(stage.next_seq - stage.next_emit <= depth.max(1) as u64);
        }
        let order = stage.drain().iter().map(|r| r.window.start.ns() / half).collect();
        assert_eq!(stage.pending(), 0);
        let recycled = scratch.lock().len();
        (order, recycled)
    }

    /// Windows big enough that a stage with depth hands them to the pool.
    fn pooled(_: u64) -> usize {
        INLINE_ROWS_MAX
    }

    /// The reorder buffer releases only contiguous prefixes: a stage
    /// fed windows that complete out of order must still emit them in
    /// submission order, and every pool comes back.
    #[test]
    fn emission_is_in_submission_order() {
        assert_eq!(run_stage(4, 6, pooled), ((0..6).collect(), 6));
        // Depth 0 goes through the same door, on the submitting thread —
        assert_eq!(run_stage(0, 6, pooled), ((0..6).collect(), 6));
        // — and so does a window below the hand-off threshold at depth.
        assert_eq!(run_stage(4, 6, |_| 0), ((0..6).collect(), 6));
        // Small windows finishing inline while their larger predecessors
        // are still on the pool wait their turn in the reorder buffer.
        let mixed = |k: u64| if k % 3 == 2 { 0 } else { INLINE_ROWS_MAX };
        assert_eq!(run_stage(4, 12, mixed), ((0..12).collect(), 12));
    }

    /// More depth-1 submitters than the pool has workers, each a pool
    /// task: once every worker is inside one, the window tasks they
    /// wait for sit in the queue behind them with no free thread left.
    /// Only a waiter that runs queued jobs itself gets past its second
    /// `submit`; one that parks never does, whatever the interleaving.
    #[test]
    fn submit_at_depth_from_pool_tasks_makes_progress() {
        let submitters = rayon::current_num_threads() + 1;
        let (tx, rx) = mpsc::channel();
        for _ in 0..submitters {
            let tx = tx.clone();
            rayon::spawn(move || tx.send(run_stage(1, 16, pooled)).expect("test alive"));
        }
        for _ in 0..submitters {
            let done = rx
                .recv_timeout(Duration::from_secs(120))
                .expect("a submitter blocked at depth forever: waiters do not run queued jobs");
            assert_eq!(done, ((0..16).collect(), 16));
        }
    }

    /// An analysis panic is re-raised on the owner instead of leaving
    /// it waiting for a window that will never complete.
    #[test]
    fn a_panicking_analysis_reaches_the_owner() {
        // Enough rows that the window is analysed on the pool.
        let pool = pool_of(INLINE_ROWS_MAX);
        // Zero heat-map bins is outside the contract every real caller
        // goes through `WindowedIngestor` for; the heat map asserts on it.
        let cfg = VaproConfig::default();
        let window = Window { start: VirtualTime::ZERO, end: cfg.report_period };
        let mut stage = AnalysisStage::new(2, cfg, 0, Arc::new(Mutex::new(Vec::new())));
        stage.submit(window, WindowCoverage::full(1), 1, pool);
        let caught = panic::catch_unwind(AssertUnwindSafe(|| stage.drain()));
        assert!(caught.is_err(), "drain returned despite a failed window");
    }
}
