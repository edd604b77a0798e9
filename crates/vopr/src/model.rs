//! The independent admission oracle: a from-scratch reimplementation of
//! the `WindowedIngestor` admission contract — dedup, dead-rank drops,
//! backpressure, liveness latching, and the shipping low-watermark —
//! over transport metadata alone. The oracle never reads the server's
//! bookkeeping and never decodes a frame; it predicts what the server
//! *must* do with each delivery from what the transport says it did to
//! it ([`Delivery`]), and the driver compares prediction against the
//! observed outcome frame by frame. A canary mutation in the server
//! (skipped CRC, skewed watermark, disabled dedup) therefore shows up
//! as a prediction mismatch on the first affected delivery.
//!
//! Every function here is total: no panics, no unwraps, no direct
//! indexing (enforced by the workspace lint: the model's API is an R5 door) — a hostile or
//! nonsensical delivery yields a rejection prediction, never a crash.

use std::collections::BTreeMap;
use vapro_core::VaproConfig;

/// Everything the oracle may know about one delivery: transport-side
/// metadata, never server state. `corrupted`/`malformed` reflect what
/// the fault injector actually did to the bytes — the oracle holds the
/// codec to its contract (a flipped CRC-covered byte MUST be rejected)
/// instead of re-deriving the checksum.
#[derive(Debug, Clone, Copy)]
pub struct Delivery {
    pub rank: usize,
    pub seq: u64,
    pub window_start_ns: u64,
    pub window_end_ns: u64,
    /// What admission charges the frame against the backpressure cap
    /// (`frame_charge`).
    pub charge: u64,
    /// A CRC-covered byte was flipped in transit.
    pub corrupted: bool,
    /// The frame is structurally broken (truncated, garbage).
    pub malformed: bool,
}

/// What the server must do with a delivery, as the oracle predicts it
/// and as the driver classifies the observed behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Decoded, admitted into the arena, mark advanced.
    Admitted,
    /// Rejected at decode with a checksum mismatch.
    RejectedCorrupt,
    /// Rejected at decode as structurally invalid.
    RejectedMalformed,
    /// Decoded, rejected at admission: rank outside the deployment.
    RejectedUnknownRank,
    /// Decoded, rejected at admission: sequence number already seen.
    RejectedDuplicate,
    /// Accepted but discarded because its rank is already latched dead.
    DroppedLate,
    /// Accepted but discarded by the ahead-of-watermark byte cap.
    DroppedBackpressure,
}

/// Stable snake_case name of an outcome, for journals and reports.
pub fn outcome_name(outcome: Outcome) -> &'static str {
    match outcome {
        Outcome::Admitted => "admitted",
        Outcome::RejectedCorrupt => "rejected_corrupt",
        Outcome::RejectedMalformed => "rejected_malformed",
        Outcome::RejectedUnknownRank => "rejected_unknown_rank",
        Outcome::RejectedDuplicate => "rejected_duplicate",
        Outcome::DroppedLate => "dropped_late",
        Outcome::DroppedBackpressure => "dropped_backpressure",
    }
}

/// The oracle's view of one rank: mirror of the server's `RankTracker`
/// semantics, independently maintained.
#[derive(Debug, Default)]
struct RankModel {
    /// Largest window end contiguously shipped.
    mark_ns: u64,
    /// Highest sequence number with every predecessor admitted.
    contig: u64,
    /// Out-of-order admissions ahead of the contiguous prefix.
    pending: BTreeMap<u64, u64>,
    /// Latched death flag.
    dead: bool,
}

impl RankModel {
    /// Record an accepted delivery: the mark advances only along the
    /// contiguous prefix.
    fn accept(&mut self, seq: u64, window_end_ns: u64) {
        self.pending.insert(seq, window_end_ns);
        while let Some(end) = self.pending.remove(&self.contig.saturating_add(1)) {
            self.contig = self.contig.saturating_add(1);
            self.mark_ns = self.mark_ns.max(end);
        }
    }
}

/// The admission oracle. Constructed from the same `VaproConfig` the
/// server under test runs with (policy is the *specification* shared by
/// both; state is not).
#[derive(Debug)]
pub struct AdmissionModel {
    ranks: Vec<RankModel>,
    dead_horizon_ns: Option<u64>,
    cap: Option<u64>,
    /// Ahead-of-watermark bytes, keyed by shipped window end — released
    /// once the watermark passes them, exactly as the server releases
    /// its backpressure budget on window close.
    buffered: BTreeMap<u64, u64>,
    buffered_bytes: u64,
}

impl AdmissionModel {
    pub fn new(nranks: usize, cfg: &VaproConfig) -> AdmissionModel {
        AdmissionModel {
            ranks: (0..nranks).map(|_| RankModel::default()).collect(),
            dead_horizon_ns: cfg.fault.dead_horizon.map(|h| h.ns()),
            cap: cfg.fault.max_buffered_bytes,
            buffered: BTreeMap::new(),
            buffered_bytes: 0,
        }
    }

    /// Predict the server's outcome for one delivery and absorb the
    /// delivery into the oracle's own state. Total over any input.
    pub fn predict(&mut self, d: &Delivery) -> Outcome {
        let outcome = self.classify(d);
        self.absorb(d, outcome);
        outcome
    }

    /// Pure classification against current state, mirroring the server's
    /// decode-then-admit order: structural decode failures first, then
    /// checksum, then rank validation, dedup, the dead-rank drop,
    /// and last the backpressure cap.
    fn classify(&self, d: &Delivery) -> Outcome {
        if d.malformed {
            return Outcome::RejectedMalformed;
        }
        if d.corrupted {
            return Outcome::RejectedCorrupt;
        }
        let Some(rank) = self.ranks.get(d.rank) else {
            return Outcome::RejectedUnknownRank;
        };
        if d.seq <= rank.contig || rank.pending.contains_key(&d.seq) {
            return Outcome::RejectedDuplicate;
        }
        if rank.dead {
            return Outcome::DroppedLate;
        }
        if d.window_start_ns > self.watermark_ns() {
            if let Some(cap) = self.cap {
                if self.buffered_bytes.saturating_add(d.charge) > cap {
                    return Outcome::DroppedBackpressure;
                }
            }
        }
        Outcome::Admitted
    }

    /// Mirror the server's state change for a classified delivery.
    /// Rejections (`Err` returns in the server) change nothing; accepted
    /// deliveries — including policy drops — advance the rank's mark,
    /// and only then does liveness latch and the backpressure budget
    /// release, exactly as the server's post-admission window close.
    fn absorb(&mut self, d: &Delivery, outcome: Outcome) {
        match outcome {
            Outcome::RejectedCorrupt
            | Outcome::RejectedMalformed
            | Outcome::RejectedUnknownRank
            | Outcome::RejectedDuplicate => return,
            Outcome::Admitted | Outcome::DroppedLate | Outcome::DroppedBackpressure => {}
        }
        // "Ahead" is judged against the pre-acceptance watermark, as in
        // the server's admission path.
        let ahead = d.window_start_ns > self.watermark_ns();
        if let Some(rank) = self.ranks.get_mut(d.rank) {
            rank.accept(d.seq, d.window_end_ns);
        }
        if outcome == Outcome::Admitted && ahead && self.cap.is_some() {
            let slot = self.buffered.entry(d.window_end_ns).or_insert(0);
            *slot = slot.saturating_add(d.charge);
            self.buffered_bytes = self.buffered_bytes.saturating_add(d.charge);
        }
        self.update_liveness();
        let low = self.watermark_ns();
        while let Some((&end, _)) = self.buffered.first_key_value() {
            if end > low {
                break;
            }
            if let Some(bytes) = self.buffered.remove(&end) {
                self.buffered_bytes = self.buffered_bytes.saturating_sub(bytes);
            }
        }
    }

    /// A rank joins the deployment: its mark starts at the current
    /// watermark (it owes nothing already closed), its sequence space is
    /// fresh. Returns the rank id the newborn must stamp.
    pub fn record_birth(&mut self) -> usize {
        let rank = self.ranks.len();
        let mark_ns = self.watermark_ns();
        self.ranks.push(RankModel { mark_ns, ..RankModel::default() });
        rank
    }

    /// The shipping low-watermark: minimum mark over live ranks, or the
    /// maximum over all when every rank is dead, `0` with no ranks.
    pub fn watermark_ns(&self) -> u64 {
        match self.ranks.iter().filter(|r| !r.dead).map(|r| r.mark_ns).min() {
            Some(low) => low,
            None => self.ranks.iter().map(|r| r.mark_ns).max().unwrap_or(0),
        }
    }

    /// Latch death onto every rank trailing the fastest mark by more
    /// than the configured horizon.
    fn update_liveness(&mut self) {
        let Some(horizon) = self.dead_horizon_ns else { return };
        let fastest = self.ranks.iter().map(|r| r.mark_ns).max().unwrap_or(0);
        for rank in &mut self.ranks {
            if !rank.dead && fastest.saturating_sub(rank.mark_ns) > horizon {
                rank.dead = true;
            }
        }
    }

    /// Whether the oracle has latched `rank` dead.
    pub fn is_dead(&self, rank: usize) -> bool {
        self.ranks.get(rank).is_some_and(|r| r.dead)
    }

    /// Ranks currently in the oracle's deployment.
    pub fn nranks(&self) -> usize {
        self.ranks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vapro_core::FaultTolerance;
    use vapro_sim::VirtualTime;

    fn cfg(period_ns: u64, cap: Option<u64>) -> VaproConfig {
        VaproConfig {
            report_period: VirtualTime::from_ns(period_ns),
            fault: FaultTolerance {
                dead_horizon: Some(VirtualTime::from_ns(period_ns * 4)),
                max_buffered_bytes: cap,
            },
            ..VaproConfig::default()
        }
    }

    fn frame(rank: usize, seq: u64, start: u64, end: u64) -> Delivery {
        Delivery {
            rank,
            seq,
            window_start_ns: start,
            window_end_ns: end,
            charge: 100,
            corrupted: false,
            malformed: false,
        }
    }

    #[test]
    fn duplicates_unknown_ranks_and_corruption_are_rejected() {
        let mut m = AdmissionModel::new(2, &cfg(100, None));
        assert_eq!(m.predict(&frame(0, 1, 0, 100)), Outcome::Admitted);
        assert_eq!(m.predict(&frame(0, 1, 0, 100)), Outcome::RejectedDuplicate);
        assert_eq!(m.predict(&frame(7, 1, 0, 100)), Outcome::RejectedUnknownRank);
        let corrupt = Delivery { corrupted: true, ..frame(1, 1, 0, 100) };
        assert_eq!(m.predict(&corrupt), Outcome::RejectedCorrupt);
        // Rejections leave no trace: the same frame is then admitted.
        assert_eq!(m.predict(&frame(1, 1, 0, 100)), Outcome::Admitted);
    }

    #[test]
    fn a_silent_rank_latches_dead_and_its_late_data_drops() {
        let mut m = AdmissionModel::new(2, &cfg(100, None));
        for k in 1..=8u64 {
            assert_eq!(m.predict(&frame(0, k, (k - 1) * 100, k * 100)), Outcome::Admitted);
        }
        assert!(m.is_dead(1), "rank 1 never shipped and must latch dead");
        // Dead ranks stop gating the watermark...
        assert_eq!(m.watermark_ns(), 800);
        // ...and their late data is dropped.
        assert_eq!(m.predict(&frame(1, 1, 0, 100)), Outcome::DroppedLate);
    }

    #[test]
    fn the_byte_cap_sheds_ahead_of_watermark_frames() {
        let mut m = AdmissionModel::new(2, &cfg(100, Some(150)));
        // Rank 0 ships ahead while rank 1 holds the watermark at 0.
        assert_eq!(m.predict(&frame(0, 1, 100, 200)), Outcome::Admitted);
        assert_eq!(m.predict(&frame(0, 2, 200, 300)), Outcome::DroppedBackpressure);
        // Rank 1 catches up, the watermark passes, the budget releases.
        assert_eq!(m.predict(&frame(1, 1, 0, 100)), Outcome::Admitted);
        assert_eq!(m.predict(&frame(1, 2, 100, 200)), Outcome::Admitted);
        assert_eq!(m.predict(&frame(0, 3, 200, 300)), Outcome::Admitted);
    }

    #[test]
    fn a_born_rank_starts_at_the_watermark_with_a_fresh_sequence_space() {
        let mut m = AdmissionModel::new(1, &cfg(100, None));
        assert_eq!(m.predict(&frame(0, 1, 0, 100)), Outcome::Admitted);
        assert_eq!(m.predict(&frame(0, 2, 100, 200)), Outcome::Admitted);
        let rank = m.record_birth();
        assert_eq!(rank, 1);
        assert_eq!(m.nranks(), 2);
        // The newborn's seq 1 is valid even though rank 0 is on seq 2.
        assert_eq!(m.predict(&frame(1, 1, 200, 300)), Outcome::Admitted);
    }
}
