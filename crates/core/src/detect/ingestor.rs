//! The streaming ingestor: window bookkeeping, seal, close and finish.
//!
//! [`WindowedIngestor`] admits shipped frames ([`FrameView`]) through its
//! admission plane into the [`IngestArena`], and every window the
//! shipping watermark passes goes through one door: sealed into a
//! recycled [`ColumnarPool`] on the admission thread, submitted to the
//! in-order analysis stage, analysed by `analyze_view_columnar`
//! (detection + [`DiagnosisBatch`]) on the work buffers recycled beside
//! that pool, and emitted as a [`WindowReport`] in window order.
//! [`analyze_pool`] is the same analysis over any other sealed pool.

use crate::columnar::{ColumnarPool, PoolView};
use crate::config::VaproConfig;
use crate::detect::admission::{frame_charge, Admission, IngestStats, RankHealth};
use crate::detect::arena::IngestArena;
use crate::detect::pipeline::{detect_with, AnalysisScratch, DetectionResult};
use crate::detect::stage::{AnalysisStage, WindowScratch};
use crate::detect::window::Window;
use crate::diagnose::batch::{DiagnosisBatch, RegionOfInterest};
use crate::diagnose::progressive::DiagnosisReport;
use crate::report::WindowCoverage;
use crate::vopr::canary;
use crate::wire::{FrameView, WireError};
use parking_lot::Mutex;
use std::sync::Arc;

/// One region's diagnosis attached to a window report.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionDiagnosis {
    /// The diagnosed region of interest (from a detected variance
    /// region of the window).
    pub roi: RegionOfInterest,
    /// The progressive drill-down's outcome.
    pub report: DiagnosisReport,
}

/// The analysis output of one window: detection plus the diagnoses of
/// its top-K (by quantified loss) computation variance regions, and the
/// data provenance the analysis ran on.
#[derive(Debug, PartialEq)]
pub struct WindowReport {
    /// The analysed window.
    pub window: Window,
    /// Detection over the fragments inside the window.
    pub result: DetectionResult,
    /// Diagnoses of the window's top computation regions (at most
    /// `cfg.diagnose_top_k`; regions whose drill-down found no usable
    /// cluster or contrast are skipped).
    pub diagnoses: Vec<RegionDiagnosis>,
    /// Which ranks contributed, what the transport lost, and how
    /// complete this window's data is. One-shot analyses report
    /// [`WindowCoverage::full`]; the streaming ingestor fills in the
    /// straggler/fault picture it observed.
    pub coverage: WindowCoverage,
}

/// Diagnose the top-K computation regions of a detection result over
/// the same sealed pool it was detected on. The [`DiagnosisBatch`]
/// seeds its cluster cache from the detection's own per-edge outcomes,
/// so no pool is clustered twice — diagnosis costs one column scan per
/// region plus the drill-downs themselves.
fn diagnose_top_regions(
    pools: &ColumnarPool,
    result: &DetectionResult,
    cfg: &VaproConfig,
) -> Vec<RegionDiagnosis> {
    if cfg.diagnose_top_k == 0 || result.comp_regions.is_empty() {
        return Vec::new();
    }
    let batch = DiagnosisBatch::with_clusters(pools, cfg, &result.edge_clusters);
    result
        .comp_regions
        .iter()
        .take(cfg.diagnose_top_k)
        .filter_map(|region| {
            let roi = RegionOfInterest::from(region);
            batch.diagnose(&roi).map(|report| RegionDiagnosis { roi, report })
        })
        .collect()
}

/// The per-window census: which of the deployment's ranks contributed
/// no fragment.
fn ranks_absent(nranks: usize, ranks: impl Iterator<Item = usize>) -> Vec<usize> {
    let mut present = vec![false; nranks];
    for r in ranks {
        if let Some(p) = present.get_mut(r) {
            *p = true;
        }
    }
    (0..nranks).filter(|&r| !present[r]).collect()
}

/// Per-window analysis: detection and diagnosis over a sealed window's
/// lanes. Every window the ingestor closes goes through here, and so
/// does every pool [`analyze_pool`] is handed — the one-shot reference
/// gathers its windows from the frames instead of the arena, so the
/// stream ≡ one-shot tests check everything upstream of this call. The
/// caller supplies the coverage and the work buffers (overwritten).
pub(crate) fn analyze_view_columnar(
    pool: &ColumnarPool,
    window: Window,
    nranks: usize,
    bins: usize,
    cfg: &VaproConfig,
    mut coverage: WindowCoverage,
    scratch: &mut AnalysisScratch,
) -> WindowReport {
    let all = pool.all();
    coverage.ranks_absent = ranks_absent(nranks, (0..all.len()).map(|i| all.rank(i)));
    let result = detect_with(pool, nranks, bins, cfg, scratch);
    let diagnoses = diagnose_top_regions(pool, &result, cfg);
    WindowReport { window, result, diagnoses, coverage }
}

/// Analyse one sealed pool as the server analyses a closed window —
/// detection plus the diagnoses of its top-K computation regions —
/// with every rank reporting ([`WindowCoverage::full`]) and work
/// buffers of its own. For a pool gathered some other way than the
/// arena seal, such as [`ColumnarPool::from_batches`] over shipped
/// frames.
pub fn analyze_pool(
    pool: &ColumnarPool,
    window: Window,
    nranks: usize,
    bins: usize,
    cfg: &VaproConfig,
) -> WindowReport {
    let coverage = WindowCoverage::full(nranks);
    analyze_view_columnar(pool, window, nranks, bins, cfg, coverage, &mut AnalysisScratch::default())
}

/// Incremental windowed ingestion: push batches as clients ship them;
/// half-overlapped analysis windows are detected on rayon **as they
/// close**, rather than re-pooling the whole run at every report.
///
/// A window closes when *every* rank has shipped past its end. Each
/// batch's `window_end_ns` declares "this rank has reported every
/// fragment starting before here" (start-partitioned shipping,
/// [`crate::FragmentBatch::from_stg_starting_in`]); the minimum of those
/// per-rank marks is the shipping low-watermark, and a window whose end
/// it passes can no longer gain fragments — one fast client racing ahead
/// never closes a window that slower clients still owe data to.
///
/// When clients ship exactly their data span, the union of all reports
/// (stream + [`WindowedIngestor::finish`]) is bit-identical to the
/// one-shot reference over the same frames
/// (`vapro_vopr::reference::analyze_windows`: [`analyze_pool`] over
/// each window gathered straight from the frames).
///
/// **Fault tolerance** (`cfg.fault`, off by default): with a
/// `dead_horizon` set, a rank whose shipping mark trails the fastest
/// rank's by more than the horizon is declared [`RankHealth::Dead`] and
/// excluded from the low-watermark, so one crashed client can no longer
/// stall window closing forever; its subsequent frames are acknowledged
/// and dropped, counted as `dropped_late_frames`.
/// Sequenced frames are deduplicated and advance the shipping mark only
/// along the contiguous sequence prefix, so reordered delivery can never
/// close a window whose data is still in flight. Every rejected frame is
/// counted in [`IngestStats`] and every closed window carries a
/// [`WindowCoverage`].
pub struct WindowedIngestor {
    arena: IngestArena,
    /// Rank marks, sequence state, liveness and fault accounting.
    admission: Admission,
    bins_per_window: usize,
    cfg: VaproConfig,
    /// Windows emitted so far; window `k` is
    /// [`Window::nth`]`(k, cfg.report_period)`.
    closed: usize,
    /// Recycled per-window scratch: each closing window pops a pool and
    /// its analysis buffers, refills the pool from the arena, and the
    /// analysis pushes both back with capacity intact — steady-state
    /// window close allocates no new lanes. Shared with the stage's pool
    /// tasks, and guarded by the vendored non-poisoning `parking_lot::Mutex`:
    /// recycling can never be silently disabled by a poisoned lock.
    scratch_pools: Arc<Mutex<Vec<WindowScratch>>>,
    /// How many window scratches have ever been allocated (pop found the
    /// stack empty). Bounded by the pipeline depth plus the one being
    /// sealed in steady state — the recycling proof the tests assert.
    scratch_pools_allocated: u64,
    /// The bounded in-order analysis stage every sealed window goes
    /// through, built lazily on the first one. At
    /// `cfg.pipeline_depth` 0 it analyses on the submitting thread.
    stage: Option<AnalysisStage>,
}

impl WindowedIngestor {
    /// A fresh ingestor analysing windows of `cfg.report_period` for a
    /// population of `nranks` clients.
    pub fn new(nranks: usize, bins_per_window: usize, cfg: VaproConfig) -> WindowedIngestor {
        // vapro-lint: allow(R5, fail-fast constructor contract on operator config, before any ingest)
        assert!(nranks > 0, "need at least one client");
        // vapro-lint: allow(R5, fail-fast constructor contract on operator config, before any ingest)
        assert!(cfg.is_valid(), "invalid config (check the report period and thresholds)");
        WindowedIngestor {
            arena: IngestArena::new(),
            admission: Admission::new(nranks, &cfg),
            bins_per_window,
            cfg,
            closed: 0,
            scratch_pools: Arc::new(Mutex::new(Vec::new())),
            scratch_pools_allocated: 0,
            stage: None,
        }
    }

    fn window(&self, k: usize) -> Window {
        Window::nth(k, self.cfg.report_period)
    }

    /// The arena accumulated so far.
    pub fn arena(&self) -> &IngestArena {
        &self.arena
    }

    /// Fault accounting so far.
    pub fn stats(&self) -> &IngestStats {
        &self.admission.stats
    }

    /// Bytes currently buffered ahead of the watermark.
    pub fn buffered_ahead_bytes(&self) -> u64 {
        self.admission.buffered_ahead_bytes()
    }

    /// Per-rank liveness under the configured straggler policy. Without
    /// a `dead_horizon` every rank is [`RankHealth::Live`].
    pub fn rank_health(&self) -> Vec<RankHealth> {
        self.admission.rank_health()
    }

    /// Grow the deployment by one rank mid-stream (elastic membership):
    /// returns the new rank id, which the joining client must stamp on
    /// its frames. The newcomer's shipping mark starts at the current
    /// watermark, so it owes nothing behind what has already closed —
    /// windows at or below the watermark stay closed, later windows
    /// wait for it like any other rank. Its sequence numbering starts
    /// fresh at 1. Windows sealed before the birth keep their original
    /// rank count; windows closing after it analyse with the widened
    /// deployment.
    pub fn add_rank(&mut self) -> usize {
        self.admission.add_rank()
    }

    /// Validate one binary frame, absorb it, analyse every window it
    /// closed. Frames past a rank's last fragment (even empty ones)
    /// still advance its shipping mark. The frame's fragments go from
    /// its bytes straight into arena rows ([`IngestArena::push_frame`])
    /// — no owned batch is built. Parse and admission failures
    /// (duplicates, late data under `Drop`, backpressure) are returned
    /// *and* counted in [`IngestStats`], never panics — a server loop
    /// can log them without bespoke bookkeeping — and leave the arena
    /// untouched: nothing is appended before the last check has passed.
    pub fn push_encoded(&mut self, bytes: &[u8]) -> Result<Vec<WindowReport>, WireError> {
        let frame = match FrameView::parse(bytes) {
            Ok(frame) => frame,
            Err(e) => {
                self.admission.stats.count_decode_error(&e);
                return Err(e);
            }
        };
        self.push_frame(&frame)
    }

    /// [`WindowedIngestor::push_encoded`] past the parse — where the
    /// fleet plane, which parsed the frame itself to route it, comes in.
    /// The one admission door: [`Admission::admit`] with the frame's
    /// [`frame_charge`] (the unit `max_buffered_bytes` and the tenant
    /// budgets are kept in), append to the arena if it let the frame in,
    /// then every window that became due.
    pub(crate) fn push_frame(
        &mut self,
        frame: &FrameView<'_>,
    ) -> Result<Vec<WindowReport>, WireError> {
        if self.admission.admit(&frame.header(), frame_charge(frame))? {
            self.arena.push_frame(frame);
        }
        Ok(self.close_ready())
    }

    /// The shipping low-watermark: the minimum mark over live ranks (the
    /// maximum when every rank is dead, so the stream can still drain).
    pub fn watermark_ns(&self) -> u64 {
        self.admission.watermark_ns()
    }

    /// Seal one closed window: snapshot its fragments out of the arena
    /// into a recycled scratch's columnar pool (a fresh scratch, counted,
    /// when the stack is empty). Sealing must precede both eviction (a ready
    /// window may still need fragments at the reclamation horizon) and
    /// the next admission (the snapshot defines bit-identity), which is
    /// why it stays synchronous with `close_ready` even when the
    /// analysis itself is pipelined.
    fn seal(&mut self, window: Window) -> WindowScratch {
        let recycled = self.scratch_pools.lock().pop();
        let mut scratch = recycled.unwrap_or_else(|| {
            self.scratch_pools_allocated += 1;
            WindowScratch::default()
        });
        scratch.pool.refill_from_merged(&self.arena.window_view(window));
        scratch
    }

    /// How many window scratches (columnar pool plus analysis work
    /// buffers) were ever allocated. Recycling
    /// keeps this bounded by the stage's concurrency, not the window
    /// count — the test-visible proof that a steady-state window close
    /// reuses lanes instead of allocating.
    pub fn scratch_pools_allocated(&self) -> u64 {
        self.scratch_pools_allocated
    }

    /// Seal `windows` on this thread and hand them to the analysis
    /// stage, building it on first use.
    fn seal_into_stage(&mut self, windows: Vec<(Window, WindowCoverage)>) {
        if windows.is_empty() {
            return;
        }
        if self.stage.is_none() {
            self.stage = Some(AnalysisStage::new(
                self.cfg.pipeline_depth,
                self.cfg.clone(),
                self.bins_per_window,
                Arc::clone(&self.scratch_pools),
            ));
        }
        for (window, coverage) in windows {
            let scratch = self.seal(window);
            if let Some(stage) = self.stage.as_mut() {
                // nranks travels per sealed window: a rank born between
                // two closes must widen later windows' heatmaps but not
                // retroactively widen ones already sealed.
                stage.submit(window, coverage, self.admission.nranks(), scratch);
            }
        }
    }

    /// Harvest reports whose analysis completed since the last call,
    /// without blocking — always the contiguous next run of windows, so
    /// concatenating everything `push_encoded`/`poll_reports`/`finish` return
    /// yields reports in exact window order. The fleet plane calls this
    /// on jobs that still had windows on the pool after their last push.
    pub fn poll_reports(&mut self) -> Vec<WindowReport> {
        match self.stage.as_mut() {
            Some(stage) => stage.take_completed(),
            None => Vec::new(),
        }
    }

    /// Windows sealed into the stage but not yet emitted (in flight
    /// on the pool, or finished and parked awaiting an earlier window).
    /// After every push it is at most `cfg.pipeline_depth`, however slow
    /// one window is; 0 at depth 0.
    pub fn pending_windows(&self) -> u64 {
        self.stage.as_ref().map_or(0, AnalysisStage::pending)
    }

    fn close_ready(&mut self) -> Vec<WindowReport> {
        // A window is closeable once no awaited rank owes it fragments
        // (its end is behind the live low-watermark) and it provably
        // belongs to the final cover. `windows_covering(0, t_end)` keeps
        // window k only when it is the first window or window k-1 ends
        // before the data watermark; `seen` only grows, so `prev_end <
        // seen` proves membership now — anything else waits for
        // `finish`, which knows the final watermark. Without this rule a
        // shipping mark rounded up past the data end (a client's last,
        // possibly empty, period) would emit windows the one-shot cover
        // lacks.
        self.admission.update_liveness();
        let low = self.admission.watermark_ns();
        let seen = self.arena.max_end_ns();
        let mut ready = Vec::new();
        loop {
            let w = self.window(self.closed);
            let in_cover = if self.closed == 0 {
                seen > 0
            } else {
                self.window(self.closed - 1).end.ns() < seen
            };
            if w.end.ns() > low || !in_cover {
                break;
            }
            ready.push((w, self.admission.coverage_at_close(w, false)));
            self.closed += 1;
        }
        self.admission.release_passed(low);
        let closed_any = !ready.is_empty();
        if closed_any {
            // One maintenance sort per close, not per frame: sealing
            // then range-scans ordered pools, and a pool is merged once
            // however many frames appended to it since the last close.
            self.arena.ensure_sorted();
        }
        self.seal_into_stage(ready);
        let reports = self.poll_reports();
        // Reclaim fragments no future window can reach. Only after the
        // ready windows were sealed (the stage hand-off copies each
        // window's fragments out first), and only when `closed`
        // advanced — the horizon is monotone, so an unchanged
        // watermark has nothing new to release.
        if closed_any {
            // The `EvictLive` canary (vopr-canary builds only) pushes
            // the reclamation horizon a full window ahead, evicting
            // fragments that open windows still need; the VOPR
            // stream ≡ one-shot identity must flag the data loss.
            let horizon = if canary::armed(canary::Canary::EvictLive) {
                self.window(self.closed).end.ns()
            } else {
                self.window(self.closed).start.ns()
            };
            let resident_before = self.arena.resident_bytes();
            self.arena.evict_before(horizon);
            if self.arena.resident_bytes() < resident_before {
                self.admission.stats.evicting_closes += 1;
            }
        }
        reports
    }

    /// End of stream: analyse the remaining windows. The union of all
    /// reports covers exactly the one-shot reference's windows —
    /// [`windows_covering`](crate::detect::window::windows_covering)
    /// up to the data watermark — **regardless of shipping marks**: a
    /// rank that went silent without ever shipping its final mark cannot
    /// strand the tail windows. An ingestor that saw no fragments reports
    /// nothing.
    pub fn finish(mut self) -> Vec<WindowReport> {
        self.admission.update_liveness();
        let t_end = self.arena.max_end_ns();
        self.arena.ensure_sorted();
        let mut remaining = Vec::new();
        // Emit up to and including the first window whose end reaches
        // `t_end`, mirroring `windows_covering(0, t_end, period)`.
        while t_end > 0
            && (self.closed == 0 || self.window(self.closed - 1).end.ns() < t_end)
        {
            let w = self.window(self.closed);
            remaining.push((w, self.admission.coverage_at_close(w, true)));
            self.closed += 1;
        }
        // Seal the tail, then join the stage: every submitted window —
        // including ones still in flight from earlier pushes — is
        // analysed and emitted in window order before this returns.
        self.seal_into_stage(remaining);
        match self.stage.take() {
            Some(mut stage) => stage.drain(),
            None => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::arena::tests::{looped_stg, period_frames};
    use crate::detect::window::windows_covering;
    use crate::stg::Stg;
    use crate::wire::FragmentBatch;
    use vapro_sim::VirtualTime;

    #[test]
    fn ingestor_closes_windows_incrementally() {
        // Inline analysis (depth 0): per-push emission is deterministic,
        // so the close-as-they-stream property can be asserted exactly.
        // The pipelined default emits the same reports with bounded
        // deferral — `pipelined_reports_match_inline_reports` covers it.
        let cfg = VaproConfig {
            report_period: VirtualTime::from_secs(5),
            pipeline_depth: 0,
            ..VaproConfig::default()
        };
        let stg = looped_stg(0, 30, 1_000_000_000, 0..0);
        let mut ingestor = WindowedIngestor::new(1, 8, cfg);
        let mut closed_during_stream = 0;
        for k in 0..6u64 {
            let period = Window {
                start: VirtualTime::from_secs(5 * k),
                end: VirtualTime::from_secs(5 * (k + 1)),
            };
            let batch = FragmentBatch::from_stg_starting_in(&stg, 0, period).with_seq(k + 1);
            let reports = ingestor.push_encoded(&batch.encode()).expect("valid frame");
            closed_during_stream += reports.len();
        }
        // Most windows close while the stream is still flowing — that is
        // the "analyse as they close" property.
        assert!(closed_during_stream >= 4, "only {closed_during_stream} closed early");
        let tail = ingestor.finish();
        assert!(tail.len() <= 2, "{} windows left to finish", tail.len());
    }

    #[test]
    fn pipelined_reports_match_inline_reports() {
        // Every sealed window goes through the one analysis stage; the
        // pipelined default and depth 0 (analysed on the submitting
        // thread) must emit bit-identical report sequences over the
        // same stream — tasks may finish out of order, the reorder
        // buffer may defer emission across pushes, but the
        // concatenation of everything push + finish return is the same
        // window-ordered sequence. The stage also never holds more than
        // `pipeline_depth` windows.
        //
        // The stream ends in a catch-up burst: rank 2 falls silent after
        // period 6 while the others ship through period 12, then its
        // backlog arrives newest first. Sequenced frames advance the
        // mark only along the contiguous prefix, so the last delivery
        // (the oldest frame) moves the watermark across every window the
        // others were waiting on: one push submits several windows
        // before any is emitted.
        //
        // 50 ms fragments put ≥ 200 rows in every streamed window, above
        // the stage's inline threshold: at depth these windows really
        // are analysed on the pool.
        let period_ns = 5_000_000_000u64;
        let mut stgs: Vec<Stg> =
            (0..3).map(|r| looped_stg(r, 1200, 50_000_000, 0..0)).collect();
        stgs[2] = looped_stg(2, 1200, 50_000_000, 200..400);
        let frames = period_frames(&stgs, 12, period_ns);
        let mut deliveries: Vec<&Vec<u8>> = frames[..6].iter().flatten().collect();
        deliveries.extend(frames[6..].iter().flat_map(|period| &period[..2]));
        let steady = deliveries.len();
        deliveries.extend(frames[6..].iter().rev().map(|period| &period[2]));
        let run = |depth: usize| -> (Vec<WindowReport>, usize) {
            let cfg = VaproConfig {
                report_period: VirtualTime::from_ns(period_ns),
                pipeline_depth: depth,
                ..VaproConfig::default()
            };
            let mut ingestor = WindowedIngestor::new(3, 8, cfg);
            let mut reports = Vec::new();
            let mut burst = 0;
            for (i, frame) in deliveries.iter().enumerate() {
                let closed = ingestor.push_encoded(frame).expect("valid frame");
                if i >= steady {
                    burst = burst.max(closed.len());
                }
                reports.extend(closed);
                assert!(
                    ingestor.pending_windows() <= depth as u64,
                    "stage exceeded its depth bound"
                );
            }
            reports.extend(ingestor.finish());
            (reports, burst)
        };
        let (inline, inline_burst) = run(0);
        let (piped, _) = run(8);
        let (narrow, _) = run(1);
        assert!(!inline.is_empty());
        // At depth 0 every window a push closes is emitted by that push,
        // so the burst is visible exactly: one push closed ≥ 3 windows.
        assert!(inline_burst >= 3, "catch-up push closed only {inline_burst} windows");
        assert_eq!(piped, inline);
        assert_eq!(narrow, inline);
    }

    #[test]
    fn scratch_pools_recycle_across_pipelined_closes() {
        // The poisoning-proof recycling satellite: across many closed
        // windows, pool allocations stay bounded by the stage's
        // concurrency (depth + the one being sealed), not the window
        // count — a lost pool would show up as one extra allocation per
        // window.
        let cfg = VaproConfig {
            report_period: VirtualTime::from_secs(5),
            ..VaproConfig::default()
        };
        let depth = cfg.pipeline_depth as u64;
        // 200 rows a window: above the stage's inline threshold, so the
        // pools really do travel to the workers and back.
        let stg = looped_stg(0, 4000, 25_000_000, 0..0);
        let frames = period_frames(std::slice::from_ref(&stg), 20, 5_000_000_000);
        let mut ingestor = WindowedIngestor::new(1, 8, cfg);
        let mut reports = Vec::new();
        for period in &frames {
            reports.extend(ingestor.push_encoded(&period[0]).expect("valid frame"));
        }
        let allocated = ingestor.scratch_pools_allocated();
        assert!(allocated >= 1, "no pool was ever allocated?");
        assert!(
            allocated <= depth + 1,
            "recycling failed: {allocated} pools allocated for {} closes",
            reports.len()
        );
        reports.extend(ingestor.finish());
        assert!(reports.len() >= 30, "expected a long stream of closes");
    }

    #[test]
    fn finish_flushes_tail_windows_despite_silent_straggler() {
        // Rank 1 never ships a single mark (a silent straggler, no fault
        // policy configured): the stream closes nothing, but `finish`
        // must still emit the full one-shot cover — with the straggler
        // visible in every window's coverage.
        let cfg = VaproConfig {
            report_period: VirtualTime::from_secs(5),
            ..VaproConfig::default()
        };
        let stg = looped_stg(0, 30, 1_000_000_000, 0..0);
        let t_end = stg
            .edges()
            .iter()
            .flat_map(|e| e.fragments.iter())
            .map(|f| f.end)
            .max()
            .unwrap();
        let expected = windows_covering(VirtualTime::ZERO, t_end, cfg.report_period);

        let mut ingestor = WindowedIngestor::new(2, 8, cfg);
        let mut reports = Vec::new();
        for k in 0..6u64 {
            let period = Window {
                start: VirtualTime::from_secs(5 * k),
                end: VirtualTime::from_secs(5 * (k + 1)),
            };
            let batch = FragmentBatch::from_stg_starting_in(&stg, 0, period).with_seq(k + 1);
            reports.extend(ingestor.push_encoded(&batch.encode()).expect("valid frame"));
        }
        // With rank 1's mark stuck at zero nothing closes mid-stream…
        assert!(reports.is_empty(), "watermark ignored the straggler");
        // …but finish flushes every cover window anyway.
        reports.extend(ingestor.finish());
        assert_eq!(reports.len(), expected.len(), "tail windows stranded");
        for (report, window) in reports.iter().zip(expected) {
            assert_eq!(report.window, window);
            assert!(report.coverage.ranks_absent.contains(&1), "straggler not flagged");
            assert!(report.coverage.is_degraded());
        }
    }
}
