//! The admission plane of one streaming ingestor: which frames get in,
//! how far every rank has shipped, who is still alive, and what each
//! closed window's data is worth.
//!
//! [`Admission`] reads frame headers only — rank, sequence number,
//! shipped span, byte size — never fragments, which is what lets
//! `crates/vopr/src/model.rs` model it independently over transport
//! metadata alone and compare outcomes frame by frame. Everything here
//! is total: hostile input is counted in [`IngestStats`] and rejected,
//! never a panic (lint rule R5).

use crate::config::{LateDataPolicy, VaproConfig};
use crate::detect::window::Window;
use crate::report::WindowCoverage;
use crate::vopr::canary;
use crate::detect::arena::frame_resident_bytes;
use crate::wire::{FrameHeader, FrameView, WireError};
use std::collections::BTreeMap;
use std::fmt;

/// Transport-fault accounting of one ingestor: every frame the decode or
/// admission path rejected, counted instead of dropped on the floor, and
/// every rank birth, dead-rank latch and evicting close it handled. The
/// `Display` impl renders the one-line summary a server would log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Frames decoded and admitted into the arena.
    pub frames_admitted: u64,
    /// Frames rejected for a CRC mismatch ([`WireError::BadChecksum`]).
    pub corrupt_frames: u64,
    /// Frames with an unknown version byte ([`WireError::BadVersion`]).
    pub bad_version_frames: u64,
    /// Frames rejected for any other structural decode error.
    pub malformed_frames: u64,
    /// Frames claiming a rank outside the configured deployment
    /// ([`WireError::UnknownRank`]).
    pub unknown_rank_frames: u64,
    /// Retransmitted frames deduplicated by their sequence number.
    pub duplicate_frames: u64,
    /// Frames from dead ranks discarded under [`LateDataPolicy::Drop`].
    pub dropped_late_frames: u64,
    /// Frames dropped by the ahead-of-watermark buffer cap.
    pub dropped_backpressure_frames: u64,
    /// Bytes those backpressure drops were charged ([`frame_charge`]).
    pub dropped_backpressure_bytes: u64,
    /// Frames claiming a tenant the fleet has no registration for
    /// ([`WireError::UnknownTenant`]).
    pub unknown_tenant_frames: u64,
    /// Frames rejected by fleet admission because the tenant's in-flight
    /// bytes would exceed its budget ([`WireError::TenantOverBudget`]).
    pub over_budget_frames: u64,
    /// Bytes those budget rejections were charged ([`frame_charge`]).
    pub over_budget_bytes: u64,
    /// Ranks that joined the deployment mid-stream
    /// ([`WindowedIngestor::add_rank`](crate::WindowedIngestor::add_rank)).
    pub ranks_born: u64,
    /// Ranks latched dead for trailing the fastest by more than
    /// `fault.dead_horizon`.
    pub ranks_declared_dead: u64,
    /// Window closes whose eviction reclaimed arena bytes.
    pub evicting_closes: u64,
}

impl IngestStats {
    /// Total frames rejected for any reason. The membership and
    /// eviction counters count no frames and are not included.
    pub fn frames_rejected(&self) -> u64 {
        self.corrupt_frames
            + self.bad_version_frames
            + self.malformed_frames
            + self.unknown_rank_frames
            + self.duplicate_frames
            + self.dropped_late_frames
            + self.dropped_backpressure_frames
            + self.unknown_tenant_frames
            + self.over_budget_frames
    }

    pub(crate) fn count_decode_error(&mut self, e: &WireError) {
        match e {
            WireError::BadChecksum { .. } => self.corrupt_frames += 1,
            WireError::BadVersion { .. } => self.bad_version_frames += 1,
            WireError::UnknownTenant { .. } => self.unknown_tenant_frames += 1,
            WireError::TenantOverBudget { .. } => self.over_budget_frames += 1,
            _ => self.malformed_frames += 1,
        }
    }
}

impl fmt::Display for IngestStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ingest: {} admitted, {} corrupt, {} bad-version, {} malformed, \
             {} unknown-rank, {} duplicate, {} late-dropped, \
             {} backpressure-dropped ({} B), {} unknown-tenant, \
             {} over-budget ({} B), {} born, {} declared-dead, \
             {} evicting-closes",
            self.frames_admitted,
            self.corrupt_frames,
            self.bad_version_frames,
            self.malformed_frames,
            self.unknown_rank_frames,
            self.duplicate_frames,
            self.dropped_late_frames,
            self.dropped_backpressure_frames,
            self.dropped_backpressure_bytes,
            self.unknown_tenant_frames,
            self.over_budget_frames,
            self.over_budget_bytes,
            self.ranks_born,
            self.ranks_declared_dead,
            self.evicting_closes,
        )
    }
}

/// Liveness of one client rank, as seen by the straggler policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankHealth {
    /// Awaited by the watermark: windows close only once it has shipped
    /// past them.
    Live,
    /// Trailing the fastest rank by more than `dead_horizon`: excluded
    /// from the watermark so windows keep closing. Latched — a dead rank
    /// stays dead; its late frames follow [`LateDataPolicy`].
    Dead,
}

/// Per-rank ingest bookkeeping: the shipping mark, and sequence-number
/// state for deduplication, reorder tolerance and gap detection.
#[derive(Debug, Default)]
struct RankTracker {
    /// Largest `window_end_ns` this rank has *contiguously* shipped.
    mark_ns: u64,
    /// Highest sequence number with every predecessor admitted.
    contig: u64,
    /// Out-of-order admissions ahead of the contiguous prefix:
    /// seq → shipped `window_end_ns`, released into `mark_ns` once the
    /// gap below them fills.
    pending: BTreeMap<u64, u64>,
    /// Latched death flag.
    dead: bool,
}

impl RankTracker {
    fn is_duplicate(&self, seq: u64) -> bool {
        // The `DedupDisabled` canary (vopr-canary builds only) waves
        // every retransmit through; the VOPR delivery-accounting
        // invariant must flag the double admissions.
        if canary::armed(canary::Canary::DedupDisabled) {
            return false;
        }
        seq <= self.contig || self.pending.contains_key(&seq)
    }

    /// Record an admitted frame. The mark advances only along the
    /// contiguous prefix, so a reordered early frame can never be
    /// overtaken by the watermark while still in flight.
    fn admit(&mut self, seq: u64, window_end_ns: u64) {
        self.pending.insert(seq, window_end_ns);
        while let Some(end) = self.pending.remove(&(self.contig + 1)) {
            self.contig += 1;
            self.mark_ns = self.mark_ns.max(end);
        }
    }

    /// Sequence numbers known sent (something later arrived) but never
    /// received — the frames currently missing below the highest seen.
    fn gaps(&self) -> u64 {
        // Saturating: with dedup suppressed (canary builds) `pending`
        // can hold stale seqs at or below `contig`, and a gap count
        // must degrade to zero rather than underflow.
        match self.pending.keys().next_back() {
            Some(&max) => {
                max.saturating_sub(self.contig).saturating_sub(self.pending.len() as u64)
            }
            None => 0,
        }
    }
}

/// What admission charges a frame against `max_buffered_bytes` and a
/// tenant budget: the larger of its length on the wire and the arena
/// bytes its rows expand to ([`frame_resident_bytes`]). A row of elided
/// `+0.0` counters can be one byte on the wire and 232 in the arena, so
/// a cap kept in wire bytes alone would not bound server memory; one
/// kept in arena bytes alone would let empty frames through free.
pub fn frame_charge(frame: &FrameView<'_>) -> u64 {
    (frame.wire_len() as u64).max(frame_resident_bytes(frame))
}

/// Admission state of one ingestor: per-rank shipping marks and
/// sequence state, the fault accounting, and the ahead-of-watermark
/// byte budget, under the configured
/// [`FaultTolerance`](crate::config::FaultTolerance) policy.
pub(crate) struct Admission {
    trackers: Vec<RankTracker>,
    /// Fault accounting across the whole stream.
    pub(crate) stats: IngestStats,
    /// `fault.dead_horizon`, ns: how far behind the fastest rank a rank
    /// may trail before it is latched dead.
    dead_horizon_ns: Option<u64>,
    /// `fault.late_data` is [`LateDataPolicy::Drop`].
    drop_late: bool,
    /// `fault.max_buffered_bytes`.
    max_buffered_bytes: Option<u64>,
    /// The window step (half a report period): how far the
    /// `WatermarkOffByOne` canary skews the watermark.
    step_ns: u64,
    /// Bytes admitted ahead of the watermark, keyed by the shipped
    /// `window_end_ns` that releases them; bounded by
    /// `max_buffered_bytes` when set.
    buffered_ahead: BTreeMap<u64, u64>,
    buffered_ahead_bytes: u64,
}

impl Admission {
    pub(crate) fn new(nranks: usize, cfg: &VaproConfig) -> Admission {
        Admission {
            trackers: (0..nranks).map(|_| RankTracker::default()).collect(),
            stats: IngestStats::default(),
            dead_horizon_ns: cfg.fault.dead_horizon.map(|h| h.ns()),
            drop_late: cfg.fault.late_data == LateDataPolicy::Drop,
            max_buffered_bytes: cfg.fault.max_buffered_bytes,
            step_ns: Window::nth(1, cfg.report_period).start.ns(),
            buffered_ahead: BTreeMap::new(),
            buffered_ahead_bytes: 0,
        }
    }

    /// Ranks in the deployment, births included.
    pub(crate) fn nranks(&self) -> usize {
        self.trackers.len()
    }

    /// Bytes currently buffered ahead of the watermark.
    pub(crate) fn buffered_ahead_bytes(&self) -> u64 {
        self.buffered_ahead_bytes
    }

    /// Per-rank liveness.
    pub(crate) fn rank_health(&self) -> Vec<RankHealth> {
        self.trackers
            .iter()
            .map(|t| if t.dead { RankHealth::Dead } else { RankHealth::Live })
            .collect()
    }

    /// Grow the deployment by one rank, its mark at the current
    /// watermark; returns its id. See `WindowedIngestor::add_rank`.
    pub(crate) fn add_rank(&mut self) -> usize {
        let rank = self.trackers.len();
        self.trackers.push(RankTracker { mark_ns: self.watermark_ns(), ..RankTracker::default() });
        self.stats.ranks_born += 1;
        rank
    }

    /// Admission control over one validated frame's header, charged
    /// `charge` bytes ([`frame_charge`]): rank validation, dedup,
    /// dead-rank late policy, backpressure. `Ok(true)` means absorb the
    /// fragments; `Ok(false)` is a policy drop — acknowledged (the mark
    /// advances) and counted, but its fragments are discarded, and `Ok`
    /// because it is the server's own choice. `Err` for unknown ranks
    /// (hostile or misrouted frames) and duplicates (the one rejection a
    /// sender can act on — stop retransmitting). Total: hostile input is
    /// counted and rejected, never a panic.
    pub(crate) fn admit(
        &mut self,
        frame: &FrameHeader,
        charge: u64,
    ) -> Result<bool, WireError> {
        let (rank, seq) = (frame.rank, frame.seq);
        let nranks = self.trackers.len();
        let ahead = frame.window_start_ns > self.watermark_ns();
        let Some(tracker) = self.trackers.get_mut(rank) else {
            self.stats.unknown_rank_frames += 1;
            return Err(WireError::UnknownRank { rank: rank as u32, nranks: nranks as u32 });
        };
        if tracker.is_duplicate(seq) {
            self.stats.duplicate_frames += 1;
            return Err(WireError::DuplicateSequence { rank: rank as u32, seq });
        }
        // Past here the frame is acknowledged whatever becomes of its
        // data: its sequence number is recorded (retransmits stay
        // duplicates, no gap is reported) and the mark advances — the
        // rank *did* ship this span, and stalling the watermark would
        // turn one overload into permanent blockage.
        let late = tracker.dead && self.drop_late;
        tracker.admit(seq, frame.window_end_ns);
        if late {
            // The windows the data belonged to closed without this rank.
            self.stats.dropped_late_frames += 1;
            return Ok(false);
        }
        if let (true, Some(cap)) = (ahead, self.max_buffered_bytes) {
            if self.buffered_ahead_bytes.saturating_add(charge) > cap {
                // Accounted drop: the fragments are not admitted and the
                // loss is visible in every subsequent window's coverage.
                self.stats.dropped_backpressure_frames += 1;
                self.stats.dropped_backpressure_bytes += charge;
                return Ok(false);
            }
            *self.buffered_ahead.entry(frame.window_end_ns).or_insert(0) += charge;
            self.buffered_ahead_bytes += charge;
        }
        self.stats.frames_admitted += 1;
        Ok(true)
    }

    /// The shipping low-watermark: the minimum mark over live ranks —
    /// or, when every rank is dead, the maximum mark, so the stream can
    /// still drain.
    pub(crate) fn watermark_ns(&self) -> u64 {
        let low = match self.trackers.iter().filter(|t| !t.dead).map(|t| t.mark_ns).min() {
            Some(low) => low,
            None => self.trackers.iter().map(|t| t.mark_ns).max().unwrap_or(0),
        };
        // The `WatermarkOffByOne` canary (vopr-canary builds only) skews
        // the watermark half a report period ahead of what ranks
        // actually shipped, closing windows before their data arrives.
        // The VOPR stream ≡ one-shot and watermark-agreement invariants
        // must flag it.
        if canary::armed(canary::Canary::WatermarkOffByOne) {
            return low.saturating_add(self.step_ns);
        }
        low
    }

    /// Latch `Dead` onto every rank trailing the fastest mark by more
    /// than the configured horizon.
    pub(crate) fn update_liveness(&mut self) {
        let Some(dead_h) = self.dead_horizon_ns else { return };
        let fastest = self.trackers.iter().map(|t| t.mark_ns).max().unwrap_or(0);
        for t in &mut self.trackers {
            if !t.dead && fastest.saturating_sub(t.mark_ns) > dead_h {
                t.dead = true;
                self.stats.ranks_declared_dead += 1;
            }
        }
    }

    /// Frames the watermark `low` has passed are no longer "ahead":
    /// release their bytes from the backpressure budget.
    pub(crate) fn release_passed(&mut self, low: u64) {
        while let Some((&end, _)) = self.buffered_ahead.first_key_value() {
            if end > low {
                break;
            }
            if let Some(bytes) = self.buffered_ahead.remove(&end) {
                self.buffered_ahead_bytes = self.buffered_ahead_bytes.saturating_sub(bytes);
            }
        }
    }

    /// Transport-side coverage of `w` at close time. `ranks_absent` is
    /// filled later from the sealed window itself. At `finish` the stream
    /// is over, so every rank not declared dead has shipped everything
    /// it ever will — its data is complete even if its final mark
    /// rounds below the window end.
    pub(crate) fn coverage_at_close(&self, w: Window, at_finish: bool) -> WindowCoverage {
        let ranks_dead: Vec<usize> = self
            .trackers
            .iter()
            .enumerate()
            .filter(|(_, t)| t.dead)
            .map(|(r, _)| r)
            .collect();
        let ranks_complete = self
            .trackers
            .iter()
            .filter(|t| t.mark_ns >= w.end.ns() || (at_finish && !t.dead))
            .count();
        WindowCoverage {
            nranks: self.trackers.len(),
            ranks_complete,
            ranks_absent: Vec::new(),
            ranks_dead,
            corrupt_frames: self.stats.corrupt_frames,
            duplicate_frames: self.stats.duplicate_frames,
            dropped_late_frames: self.stats.dropped_late_frames,
            dropped_backpressure_frames: self.stats.dropped_backpressure_frames,
            dropped_backpressure_bytes: self.stats.dropped_backpressure_bytes,
            seq_gaps: self.trackers.iter().map(|t| t.gaps()).sum(),
            completeness: ranks_complete as f64 / self.trackers.len() as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::arena::tests::{looped_stg, period_frames};
    use crate::detect::ingestor::{WindowReport, WindowedIngestor};
    use crate::detect::oneshot::tests::assert_results_identical;
    use crate::detect::window::windows_covering;
    use crate::stg::Stg;
    use crate::wire::{FragmentBatch, DEFAULT_TENANT};
    use vapro_sim::VirtualTime;

    #[test]
    fn encoded_frames_from_unknown_ranks_are_rejected() {
        // A frame claiming a rank outside the deployment is a structured
        // rejection — counted, never a panic (hostile input must not be
        // able to kill the server).
        let stg = looped_stg(7, 5, 1_000_000, 0..0);
        let window = Window { start: VirtualTime::ZERO, end: VirtualTime::from_secs(1) };
        let encoded = FragmentBatch::from_stg_starting_in(&stg, 7, window).encode();
        let mut ingestor = WindowedIngestor::new(2, 8, VaproConfig::default());
        let err = ingestor.push_encoded(&encoded).unwrap_err();
        assert_eq!(err, WireError::UnknownRank { rank: 7, nranks: 2 });
        assert!(err.to_string().contains("unknown rank 7"));
        assert_eq!(ingestor.stats().unknown_rank_frames, 1);
        assert_eq!(ingestor.stats().frames_rejected(), 1);
        assert_eq!(ingestor.stats().frames_admitted, 0);
        // The stream stays healthy afterwards: a valid rank still admits.
        let ok = FragmentBatch::from_stg_starting_in(&looped_stg(1, 5, 1_000_000, 0..0), 1, window)
            .with_seq(1);
        let _ = ingestor.push_encoded(&ok.encode()).expect("valid rank admits");
        assert_eq!(ingestor.stats().frames_admitted, 1);
    }

    #[test]
    fn a_frame_numbered_zero_is_never_admitted() {
        // Senders number frames from 1, so 0 sits below every rank's
        // contiguous prefix: a counted duplicate that leaves the arena
        // as it was, before and after the rank's first real frame.
        let stg = looped_stg(0, 5, 1_000_000, 0..0);
        let window = Window { start: VirtualTime::ZERO, end: VirtualTime::from_secs(1) };
        let frame = |seq| FragmentBatch::from_stg_starting_in(&stg, 0, window).with_seq(seq).encode();
        // Rank 1 never ships, so no window closes and nothing is evicted.
        let mut ingestor = WindowedIngestor::new(2, 8, VaproConfig::default());
        for (admitted, first) in [(0, None), (1, Some(frame(1)))] {
            if let Some(first) = first {
                ingestor.push_encoded(&first).expect("seq 1 admits");
            }
            let (rows, bytes) = (ingestor.arena().len(), ingestor.arena().resident_bytes());
            let err = ingestor.push_encoded(&frame(0)).unwrap_err();
            assert_eq!(err, WireError::DuplicateSequence { rank: 0, seq: 0 });
            assert_eq!(ingestor.stats().duplicate_frames, admitted + 1);
            assert_eq!(ingestor.stats().frames_admitted, admitted);
            assert_eq!((ingestor.arena().len(), ingestor.arena().resident_bytes()), (rows, bytes));
        }
        assert!(!ingestor.arena().is_empty());
    }

    #[test]
    fn dead_rank_is_excluded_and_windows_keep_closing() {
        // Acceptance scenario: rank 3 dies after period 3 of 12. With a
        // dead horizon configured, windows past its death keep closing
        // mid-stream, report the rank dead/absent, and completeness
        // drops below 1.0. A late frame from the revived rank is dropped
        // and counted under LateDataPolicy::Drop.
        let period_ns = 5_000_000_000u64;
        let mut cfg = VaproConfig {
            report_period: VirtualTime::from_ns(period_ns),
            ..VaproConfig::default()
        };
        cfg.fault.dead_horizon = Some(VirtualTime::from_ns(3 * period_ns));
        cfg.fault.late_data = LateDataPolicy::Drop;
        let stgs: Vec<Stg> =
            (0..4).map(|r| looped_stg(r, 60, 1_000_000_000, 0..0)).collect();

        let mut ingestor = WindowedIngestor::new(4, 8, cfg.clone());
        let mut reports = Vec::new();
        let frames = period_frames(&stgs, 12, period_ns);
        let mut late_frame = None;
        for (k, period) in frames.into_iter().enumerate() {
            for (rank, frame) in period.into_iter().enumerate() {
                if rank == 3 && k >= 3 {
                    if late_frame.is_none() {
                        late_frame = Some(frame);
                    }
                    continue; // rank 3 died
                }
                reports.extend(ingestor.push_encoded(&frame).expect("valid frame"));
            }
        }
        // Windows past rank 3's data kept closing mid-stream.
        assert_eq!(ingestor.rank_health()[3], RankHealth::Dead);
        assert!(ingestor.rank_health()[..3].iter().all(|&h| h == RankHealth::Live));
        assert!(
            reports.iter().any(|r| r.window.start.ns() >= 3 * period_ns),
            "no window past the death closed mid-stream"
        );
        // The revived rank's late frame is dropped and accounted. The
        // call still harvests whichever windows finished analysis since
        // the last push, like any other.
        reports.extend(
            ingestor
                .push_encoded(&late_frame.unwrap())
                .expect("late frames are a policy drop, not an error"),
        );
        assert_eq!(ingestor.stats().dropped_late_frames, 1);

        reports.extend(ingestor.finish());
        // Full cover emitted; windows past the death report the dead
        // rank absent with completeness < 1.0.
        let t_end = stgs
            .iter()
            .flat_map(|s| s.edges())
            .flat_map(|e| e.fragments.iter())
            .map(|f| f.end)
            .max()
            .unwrap();
        let expected = windows_covering(VirtualTime::ZERO, t_end, cfg.report_period);
        assert_eq!(reports.len(), expected.len());
        // Windows strictly past rank 3's last straddling fragment: dead,
        // absent, incomplete.
        let past_death: Vec<_> = reports
            .iter()
            .filter(|r| r.window.start.ns() > 3 * period_ns)
            .collect();
        assert!(!past_death.is_empty());
        for r in past_death {
            assert!(r.coverage.ranks_dead.contains(&3), "dead rank missing: {:?}", r.coverage);
            assert!(r.coverage.ranks_absent.contains(&3));
            assert!(r.coverage.completeness < 1.0);
            assert!(r.coverage.is_degraded());
        }
        // The late-frame drop reaches the coverage of windows closed
        // after it happened (the tail windows emitted by finish).
        assert_eq!(reports.last().unwrap().coverage.dropped_late_frames, 1);
        // Early windows (closed before the death horizon tripped) were
        // complete.
        assert!(reports[0].coverage.completeness >= 1.0 - 1e-12);
    }

    #[test]
    fn births_deaths_and_evictions_are_counted_but_reject_no_frame() {
        // One ingestor through a birth, a dead-rank latch and evicting
        // closes: each is counted once where it happens, and none of
        // them is a rejected frame.
        let period_ns = 5_000_000_000u64;
        let mut cfg = VaproConfig {
            report_period: VirtualTime::from_ns(period_ns),
            ..VaproConfig::default()
        };
        cfg.fault.dead_horizon = Some(VirtualTime::from_ns(3 * period_ns));
        let stgs: Vec<Stg> = (0..3).map(|r| looped_stg(r, 60, 1_000_000_000, 0..0)).collect();
        let mut ingestor = WindowedIngestor::new(2, 8, cfg);
        assert_eq!(ingestor.add_rank(), 2);
        for (k, period) in period_frames(&stgs, 12, period_ns).into_iter().enumerate() {
            for (rank, frame) in period.into_iter().enumerate() {
                if rank == 1 && k >= 2 {
                    continue; // rank 1 goes silent
                }
                let _ = ingestor.push_encoded(&frame).expect("valid frame");
            }
        }
        assert_eq!(ingestor.rank_health()[1], RankHealth::Dead);
        let stats = ingestor.stats().clone();
        assert_eq!(stats.ranks_born, 1);
        assert_eq!(stats.ranks_declared_dead, 1);
        assert!(stats.evicting_closes > 0, "no close reclaimed arena bytes: {stats}");
        assert_eq!(stats.frames_rejected(), 0);
        assert_eq!(stats.frames_admitted, 12 + 2 + 12);
        let line = stats.to_string();
        assert!(line.contains("1 born, 1 declared-dead"), "{line}");
        assert!(line.ends_with(&format!("{} evicting-closes", stats.evicting_closes)), "{line}");
    }

    #[test]
    fn adversarial_delivery_matches_in_order_reports() {
        // Sequenced frames delivered out of order and with duplicates:
        // the closed-window reports (stream + finish union) must equal
        // in-order delivery bit for bit. The contiguous-prefix mark rule
        // is what makes this safe: a reordered early frame holds the
        // watermark back until it lands.
        let period_ns = 5_000_000_000u64;
        let cfg = VaproConfig {
            report_period: VirtualTime::from_ns(period_ns),
            ..VaproConfig::default()
        };
        let mut stgs: Vec<Stg> =
            (0..3).map(|r| looped_stg(r, 30, 1_000_000_000, 0..0)).collect();
        stgs[2] = looped_stg(2, 30, 1_000_000_000, 12..18);
        let frames = period_frames(&stgs, 6, period_ns);

        let run = |deliveries: Vec<&Vec<u8>>| -> (Vec<WindowReport>, IngestStats) {
            let mut ingestor = WindowedIngestor::new(3, 8, cfg.clone());
            let mut reports = Vec::new();
            for frame in deliveries {
                match ingestor.push_encoded(frame) {
                    Ok(r) => reports.extend(r),
                    Err(WireError::DuplicateSequence { .. }) => {}
                    Err(e) => panic!("unexpected rejection: {e}"),
                }
            }
            let stats = ingestor.stats().clone();
            reports.extend(ingestor.finish());
            (reports, stats)
        };

        let in_order: Vec<&Vec<u8>> = frames.iter().flatten().collect();
        let (reference, ref_stats) = run(in_order);
        assert_eq!(ref_stats.duplicate_frames, 0);

        // Adversarial: reverse periods pairwise per rank, interleave
        // ranks back-to-front, duplicate every third frame.
        let mut adversarial: Vec<&Vec<u8>> = Vec::new();
        for pair in frames.chunks(2) {
            for rank in (0..3).rev() {
                for period in pair.iter().rev() {
                    adversarial.push(&period[rank]);
                }
            }
        }
        let dups: Vec<&Vec<u8>> =
            adversarial.iter().step_by(3).copied().collect();
        for (i, d) in dups.into_iter().enumerate() {
            adversarial.insert(i * 4 + 1, d);
        }
        let (got, got_stats) = run(adversarial);
        assert!(got_stats.duplicate_frames > 0, "duplicates not detected");

        assert_eq!(got.len(), reference.len());
        for (g, w) in got.iter().zip(&reference) {
            assert_eq!(g.window, w.window);
            assert_results_identical(&g.result, &w.result);
            assert_eq!(g.diagnoses, w.diagnoses);
            // Everything in coverage except the duplicate counter (which
            // records the retransmissions themselves) matches.
            assert_eq!(g.coverage.ranks_complete, w.coverage.ranks_complete);
            assert_eq!(g.coverage.ranks_absent, w.coverage.ranks_absent);
            assert_eq!(g.coverage.ranks_dead, w.coverage.ranks_dead);
            assert_eq!(g.coverage.seq_gaps, w.coverage.seq_gaps);
            assert_eq!(g.coverage.completeness.to_bits(), w.coverage.completeness.to_bits());
        }
        assert!(got.iter().any(|r| !r.result.comp_regions.is_empty()));
    }

    #[test]
    fn backpressure_cap_drops_and_accounts_ahead_frames() {
        // Rank 0 races 8 periods ahead of rank 1 under a tiny buffer
        // cap: ahead frames beyond the cap are dropped and accounted,
        // marks keep advancing, and once rank 1 catches up all windows
        // still close (with the loss visible in coverage).
        let period_ns = 5_000_000_000u64;
        let mut cfg = VaproConfig {
            report_period: VirtualTime::from_ns(period_ns),
            ..VaproConfig::default()
        };
        cfg.fault.max_buffered_bytes = Some(600);
        let stgs: Vec<Stg> =
            (0..2).map(|r| looped_stg(r, 40, 1_000_000_000, 0..0)).collect();
        let frames = period_frames(&stgs, 8, period_ns);

        let mut ingestor = WindowedIngestor::new(2, 8, cfg);
        // All of rank 0 first (everything past the first frames is ahead
        // of the zero watermark), then all of rank 1.
        for period in &frames {
            ingestor.push_encoded(&period[0]).expect("rank 0 frame");
        }
        let stats_mid = ingestor.stats().clone();
        assert!(stats_mid.dropped_backpressure_frames > 0, "cap never tripped");
        assert!(stats_mid.dropped_backpressure_bytes > 0);
        assert!(ingestor.buffered_ahead_bytes() <= 600);
        let mut reports = Vec::new();
        for period in &frames {
            reports.extend(ingestor.push_encoded(&period[1]).expect("rank 1 frame"));
        }
        assert!(!reports.is_empty(), "watermark stalled after drops");
        reports.extend(ingestor.finish());
        let last = reports.last().unwrap();
        assert!(last.coverage.dropped_backpressure_frames >= 1);
        assert!(last.coverage.is_degraded());
    }

    #[test]
    fn caps_charge_what_zero_counter_rows_expand_to() {
        // Full-set rows whose counters are all +0.0 write no value: a
        // few bytes a row on the wire, 40 + 24 × 8 in the arena. Both the
        // backpressure cap and a tenant budget charge the arena bytes.
        use crate::fleet::{FleetConfig, FleetIngestor};
        use crate::fragment::{Fragment, FragmentKind};
        use crate::stg::StateKey;
        use vapro_pmu::{CounterDelta, CounterId};
        use vapro_sim::CallSite;
        const ROWS: u64 = 200;
        let period_ns = 1_000_000;
        let mut stg = Stg::new();
        let site = stg.state(StateKey::Site(CallSite("w:MPI_Wait")));
        let edge = stg.transition(site, site);
        let mut zeros = CounterDelta::default();
        for id in CounterId::ALL {
            zeros.put(id, 0.0);
        }
        for i in 0..ROWS {
            let start = VirtualTime::from_ns(period_ns + i * 100);
            stg.attach_edge_fragment(
                edge,
                Fragment {
                    rank: 0,
                    kind: FragmentKind::Computation,
                    start,
                    end: start,
                    counters: zeros.clone(),
                    args: vec![],
                },
            );
        }
        // The second period: ahead of a watermark rank 1 holds at 0.
        let window = Window::nth(2, VirtualTime::from_ns(period_ns));
        let bytes = FragmentBatch::from_stg_starting_in(&stg, 0, window).with_seq(1).encode();
        let frame = FrameView::parse(&bytes).unwrap();
        let arena_bytes = ROWS * (40 + 24 * 8);
        assert_eq!(frame_resident_bytes(&frame), arena_bytes);
        assert_eq!(frame_charge(&frame), arena_bytes);
        assert!(bytes.len() as u64 * 20 < arena_bytes, "{} B on the wire", bytes.len());

        let cap = arena_bytes - 1;
        let mut cfg = VaproConfig {
            report_period: VirtualTime::from_ns(period_ns),
            ..VaproConfig::default()
        };
        cfg.fault.max_buffered_bytes = Some(cap);
        let mut ingestor = WindowedIngestor::new(2, 8, cfg.clone());
        ingestor.push_encoded(&bytes).unwrap();
        let stats = ingestor.stats();
        assert_eq!(stats.frames_admitted, 0);
        assert_eq!(stats.dropped_backpressure_frames, 1);
        assert_eq!(stats.dropped_backpressure_bytes, arena_bytes);
        assert_eq!(ingestor.buffered_ahead_bytes(), 0);

        let mut fleet = FleetIngestor::new(FleetConfig::new(cfg));
        fleet.register_tenant(DEFAULT_TENANT, cap);
        let rejected = fleet.push_encoded(&bytes).unwrap_err();
        let want = WireError::TenantOverBudget {
            tenant: DEFAULT_TENANT,
            budget_bytes: cap,
            requested_bytes: arena_bytes,
        };
        assert_eq!(rejected, want);
    }

    #[test]
    fn decode_rejections_are_counted_not_swallowed() {
        let cfg = VaproConfig {
            report_period: VirtualTime::from_secs(5),
            ..VaproConfig::default()
        };
        let stg = looped_stg(0, 10, 1_000_000_000, 0..0);
        let window = Window { start: VirtualTime::ZERO, end: VirtualTime::from_secs(5) };
        let frame = FragmentBatch::from_stg_starting_in(&stg, 0, window)
            .with_seq(1)
            .encode();

        let mut ingestor = WindowedIngestor::new(1, 8, cfg);
        // Corrupt frame: counted as corrupt, error names the claimed
        // rank and sequence.
        let mut corrupt = frame.clone();
        *corrupt.last_mut().unwrap() ^= 0x01;
        match ingestor.push_encoded(&corrupt) {
            Err(WireError::BadChecksum { rank, seq }) => {
                assert_eq!((rank, seq), (0, 1));
            }
            other => panic!("expected BadChecksum, got {other:?}"),
        }
        // Clean frame admits; its retransmit is a counted duplicate.
        ingestor.push_encoded(&frame).expect("clean frame");
        assert_eq!(
            ingestor.push_encoded(&frame).unwrap_err(),
            WireError::DuplicateSequence { rank: 0, seq: 1 }
        );
        let stats = ingestor.stats();
        assert_eq!(stats.corrupt_frames, 1);
        assert_eq!(stats.duplicate_frames, 1);
        assert_eq!(stats.frames_admitted, 1);
        assert_eq!(stats.frames_rejected(), 2);
        let line = stats.to_string();
        assert!(line.contains("1 corrupt") && line.contains("1 duplicate"), "{line}");
        // The counters reach the next closed window's coverage. The
        // pipeline may defer the first window's report (sealed before
        // the duplicate arrived) to `finish`, so the window that closed
        // *after* the rejections is the last one.
        let reports = ingestor.finish();
        assert!(!reports.is_empty());
        let last = reports.last().unwrap();
        assert_eq!(last.coverage.corrupt_frames, 1);
        assert_eq!(last.coverage.duplicate_frames, 1);
        assert!(last.coverage.is_degraded());
    }
}
