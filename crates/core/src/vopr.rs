//! VOPR instrumentation: the canary switchboard.
//!
//! The deterministic simulation tester (`crates/vopr`) measures its own
//! falsification power with **canary mutations**: five deliberately
//! broken variants of load-bearing ingest logic, compiled only under
//! the `vopr-canary` feature and armed one at a time at runtime. The
//! harness MUST flag each within a bounded number of seeds — the
//! canary-mutation score (caught/total) is the measured falsification
//! power of the whole harness. Without the feature, [`canary::armed`]
//! is a `const false` and every canary branch folds away; production
//! builds carry zero canary code.
//!
//! Which fault-handling paths a run reached is not recorded here: the
//! harness reads it off each driven ingestor's
//! [`IngestStats`](crate::IngestStats), the same
//! counters an operator reads.

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
    fn canaries_disarmed_by_default() {
        for &c in canary::CANARIES.iter() {
            assert!(!canary::armed(c), "{} must start disarmed", canary::name(c));
        }
    }
}
