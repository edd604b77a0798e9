//! VOPR instrumentation: the fault-point registry and the canary
//! switchboard.
//!
//! The deterministic simulation tester (`crates/vopr`) needs two things
//! from the production code it drives:
//!
//! * **Counted fault points.** Every site where the system *handles* an
//!   injected fault — a CRC reject, a duplicate drop, a dead-rank
//!   latch, an arena eviction, a tenant-budget rejection — registers
//!   itself here with an atomic hit counter. A VOPR run then reports
//!   *coverage*: which handling paths its fault plans actually reached.
//!   A green run that never exercised the backpressure path proves
//!   nothing about backpressure; the counters make that visible and
//!   gateable (≥80% of fault points hit per run).
//! * **Canary mutations.** Five deliberately broken variants of
//!   load-bearing logic, compiled only under the `vopr-canary` feature
//!   and armed one at a time at runtime. The harness MUST flag each
//!   within a bounded number of seeds — the canary-mutation score
//!   (caught/total) is the measured falsification power of the whole
//!   harness. Without the feature, [`canary::armed`] is a
//!   `const false` and every canary branch folds away; production
//!   builds carry zero canary code.
//!
//! The counters are process-global and relaxed: they are coverage
//! tallies, not synchronization. The VOPR driver snapshots them around
//! each run ([`fault_points::snapshot`]) and serialises runs behind a
//! lock, so concurrent tests never corrupt a measurement — they only
//! ever inflate someone else's tally, which coverage gating tolerates.

/// The registry of counted fault-handling points.
pub mod fault_points {
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Every registered fault-handling point in the ingest plane.
    ///
    /// The discriminants index the hit-counter array; keep them dense.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    #[repr(usize)]
    pub enum FaultPoint {
        /// Wire decode rejected a frame whose CRC did not match.
        WireCorruptReject = 0,
        /// Wire decode rejected a structurally malformed frame
        /// (truncation, bad magic or version byte, count mismatch,
        /// trailing bytes...).
        WireStructuralReject = 1,
        /// Admission rejected a duplicate sequence number.
        SeqDuplicateReject = 2,
        /// Admission rejected a rank outside the deployment.
        UnknownRankReject = 3,
        /// Admission discarded late data from a latched-dead rank.
        LateDataDrop = 4,
        /// Admission discarded an ahead-of-watermark frame over the
        /// buffered-bytes cap.
        BackpressureDrop = 5,
        /// Liveness tracking latched a stalled rank as dead.
        DeadRankLatch = 6,
        /// A rank joined the deployment mid-stream.
        RankBirth = 7,
        /// Window close reclaimed arena bytes behind the closed horizon.
        ArenaEviction = 8,
        /// The fleet plane rejected a frame from an unregistered tenant.
        UnknownTenantReject = 9,
        /// The fleet plane rejected a frame over its tenant's byte
        /// budget.
        TenantOverBudgetReject = 10,
    }

    /// Number of registered fault points.
    pub const COUNT: usize = 11;

    /// All fault points, in discriminant order.
    pub const ALL: [FaultPoint; COUNT] = [
        FaultPoint::WireCorruptReject,
        FaultPoint::WireStructuralReject,
        FaultPoint::SeqDuplicateReject,
        FaultPoint::UnknownRankReject,
        FaultPoint::LateDataDrop,
        FaultPoint::BackpressureDrop,
        FaultPoint::DeadRankLatch,
        FaultPoint::RankBirth,
        FaultPoint::ArenaEviction,
        FaultPoint::UnknownTenantReject,
        FaultPoint::TenantOverBudgetReject,
    ];

    static HITS: [AtomicU64; COUNT] = [const { AtomicU64::new(0) }; COUNT];

    /// Stable machine-readable name, used as the report key.
    pub fn name(point: FaultPoint) -> &'static str {
        match point {
            FaultPoint::WireCorruptReject => "wire_corrupt_reject",
            FaultPoint::WireStructuralReject => "wire_structural_reject",
            FaultPoint::SeqDuplicateReject => "seq_duplicate_reject",
            FaultPoint::UnknownRankReject => "unknown_rank_reject",
            FaultPoint::LateDataDrop => "late_data_drop",
            FaultPoint::BackpressureDrop => "backpressure_drop",
            FaultPoint::DeadRankLatch => "dead_rank_latch",
            FaultPoint::RankBirth => "rank_birth",
            FaultPoint::ArenaEviction => "arena_eviction",
            FaultPoint::UnknownTenantReject => "unknown_tenant_reject",
            FaultPoint::TenantOverBudgetReject => "tenant_over_budget_reject",
        }
    }

    /// Record one hit at `point`. Relaxed: a coverage tally, not a
    /// synchronization edge.
    #[inline]
    pub fn hit(point: FaultPoint) {
        if let Some(counter) = HITS.get(point as usize) {
            counter.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Snapshot all hit counters, indexed like [`ALL`].
    pub fn snapshot() -> [u64; COUNT] {
        let mut out = [0u64; COUNT];
        for (slot, counter) in out.iter_mut().zip(HITS.iter()) {
            *slot = counter.load(Ordering::Relaxed);
        }
        out
    }

    /// Reset all hit counters to zero (test/driver setup only).
    pub fn reset() {
        for counter in HITS.iter() {
            counter.store(0, Ordering::Relaxed);
        }
    }
}

/// The canary switchboard: deliberately broken variants the harness
/// must catch, armable only under the `vopr-canary` feature.
pub mod canary {
    /// The shipped canary mutations. Each breaks exactly one
    /// load-bearing piece of ingest logic in a way that a weak harness
    /// would wave through.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    #[repr(usize)]
    pub enum Canary {
        /// Wire decode accepts frames whose CRC does not match.
        SkipCrcCheck = 0,
        /// The watermark reads ahead of what ranks actually reported,
        /// closing windows before their data has arrived.
        WatermarkOffByOne = 1,
        /// Sequence-number dedup is disabled: retransmits are admitted
        /// twice.
        DedupDisabled = 2,
        /// Window-close eviction reclaims fragments still needed by
        /// open windows.
        EvictLive = 3,
        /// The analysis stage releases windows out of submission order.
        ReorderRelease = 4,
    }

    /// Number of shipped canaries.
    pub const COUNT: usize = 5;

    /// All canaries, in discriminant order.
    pub const CANARIES: [Canary; COUNT] = [
        Canary::SkipCrcCheck,
        Canary::WatermarkOffByOne,
        Canary::DedupDisabled,
        Canary::EvictLive,
        Canary::ReorderRelease,
    ];

    /// Stable machine-readable name, used as the report key.
    pub fn name(canary: Canary) -> &'static str {
        match canary {
            Canary::SkipCrcCheck => "skip_crc_check",
            Canary::WatermarkOffByOne => "watermark_off_by_one",
            Canary::DedupDisabled => "dedup_disabled",
            Canary::EvictLive => "evict_live_fragments",
            Canary::ReorderRelease => "reorder_release_out_of_order",
        }
    }

    /// True when canary support is compiled in at all.
    pub const fn compiled() -> bool {
        cfg!(feature = "vopr-canary")
    }

    #[cfg(feature = "vopr-canary")]
    mod armed_state {
        use std::sync::atomic::AtomicUsize;

        /// 0 = disarmed; `c as usize + 1` = canary `c` armed.
        pub(super) static ARMED: AtomicUsize = AtomicUsize::new(0);
    }

    /// Arm one canary (or disarm all with `None`). At most one canary
    /// is live at a time: each measurement must attribute a catch to
    /// exactly one mutation.
    #[cfg(feature = "vopr-canary")]
    pub fn arm(canary: Option<Canary>) {
        let code = match canary {
            None => 0,
            Some(c) => c as usize + 1,
        };
        armed_state::ARMED.store(code, std::sync::atomic::Ordering::SeqCst);
    }

    /// Is this canary currently armed?
    #[cfg(feature = "vopr-canary")]
    #[inline]
    pub fn armed(canary: Canary) -> bool {
        armed_state::ARMED.load(std::sync::atomic::Ordering::Relaxed) == canary as usize + 1
    }

    /// Without the `vopr-canary` feature arming is a no-op...
    #[cfg(not(feature = "vopr-canary"))]
    pub fn arm(_canary: Option<Canary>) {}

    /// ...and every canary branch is statically dead.
    #[cfg(not(feature = "vopr-canary"))]
    #[inline(always)]
    pub fn armed(_canary: Canary) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_point_names_are_unique_and_dense() {
        let mut names: Vec<&str> = fault_points::ALL.iter().map(|&p| fault_points::name(p)).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), fault_points::COUNT);
        for (i, &p) in fault_points::ALL.iter().enumerate() {
            assert_eq!(p as usize, i, "discriminants must index the counter array");
        }
    }

    #[test]
    fn hits_accumulate_per_point() {
        // Use a point no production code path in this test binary hits.
        let before = fault_points::snapshot();
        fault_points::hit(fault_points::FaultPoint::RankBirth);
        fault_points::hit(fault_points::FaultPoint::RankBirth);
        let after = fault_points::snapshot();
        let idx = fault_points::FaultPoint::RankBirth as usize;
        assert!(after[idx] >= before[idx] + 2);
    }

    #[test]
    fn canaries_disarmed_by_default() {
        for &c in canary::CANARIES.iter() {
            assert!(!canary::armed(c), "{} must start disarmed", canary::name(c));
        }
    }
}
