//! Sampling policies: trading detection coverage for overhead (paper
//! §3.5 "Sampling" and §5's binary exponential backoff).
//!
//! Two mechanisms, both heuristic per the paper:
//!
//! * **skip-short**: fragments shorter than a floor carry little variance
//!   information per unit overhead, so they are the first to be skipped;
//! * **binary exponential backoff** per state: when a state fires at high
//!   frequency, record only every 2^k-th occurrence, doubling the backoff
//!   while the rate stays high and halving it as the rate drops.

use std::collections::HashMap;

/// Per-state exponential backoff sampler.
#[derive(Debug, Default)]
pub(crate) struct BackoffSampler {
    states: HashMap<u64, StateBackoff>,
    /// Fragments shorter than this (ns) are eligible for backoff.
    min_duration_ns: f64,
}

#[derive(Debug, Default)]
struct StateBackoff {
    /// Current backoff exponent: record every 2^k-th occurrence.
    k: u32,
    /// Occurrences since the last recorded one.
    since_recorded: u64,
    /// Consecutive recorded-short streak, drives k upward.
    short_streak: u32,
}

/// Maximum backoff exponent (records at least every 1024th occurrence so
/// coverage never collapses entirely).
const MAX_K: u32 = 10;

impl BackoffSampler {
    /// A sampler skipping fragments shorter than `min_duration_ns`.
    pub(crate) fn new(min_duration_ns: f64) -> Self {
        BackoffSampler { states: HashMap::new(), min_duration_ns }
    }

    /// Decide whether to record this occurrence of `state_hash` whose
    /// previous fragment lasted `duration_ns`. Long fragments are always
    /// recorded and relax the state's backoff; short ones tighten it.
    pub(crate) fn should_record(&mut self, state_hash: u64, duration_ns: f64) -> bool {
        let st = self.states.entry(state_hash).or_default();
        if duration_ns >= self.min_duration_ns {
            // Long fragment: always record, decay the backoff.
            st.short_streak = 0;
            if st.k > 0 {
                st.k -= 1;
            }
            st.since_recorded = 0;
            return true;
        }
        // Short fragment: subject to backoff.
        st.since_recorded += 1;
        if st.since_recorded >= (1u64 << st.k) {
            st.since_recorded = 0;
            st.short_streak += 1;
            // Every 4 recorded shorts in a row, double the backoff.
            if st.short_streak.is_multiple_of(4) && st.k < MAX_K {
                st.k += 1;
            }
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl BackoffSampler {
        /// Current backoff exponent of a state.
        fn backoff_of(&self, state_hash: u64) -> u32 {
            self.states.get(&state_hash).map_or(0, |s| s.k)
        }
    }

    #[test]
    fn long_fragments_are_always_recorded() {
        let mut s = BackoffSampler::new(1_000.0);
        for _ in 0..100 {
            assert!(s.should_record(1, 5_000.0));
        }
        assert_eq!(s.backoff_of(1), 0);
    }

    #[test]
    fn short_fragments_back_off_exponentially() {
        let mut s = BackoffSampler::new(1_000.0);
        let recorded = (0..4096).filter(|_| s.should_record(7, 10.0)).count();
        // Far fewer than all, far more than none.
        assert!(recorded < 400, "recorded {recorded}");
        assert!(recorded > 10, "recorded {recorded}");
        assert!(s.backoff_of(7) > 2);
    }

    #[test]
    fn backoff_relaxes_when_fragments_lengthen() {
        let mut s = BackoffSampler::new(1_000.0);
        for _ in 0..512 {
            s.should_record(3, 10.0);
        }
        let tightened = s.backoff_of(3);
        assert!(tightened > 0);
        for _ in 0..(tightened + 1) {
            s.should_record(3, 10_000.0);
        }
        assert_eq!(s.backoff_of(3), 0);
    }

    #[test]
    fn states_back_off_independently() {
        let mut s = BackoffSampler::new(1_000.0);
        for _ in 0..256 {
            s.should_record(1, 10.0);
        }
        assert!(s.backoff_of(1) > 0);
        assert_eq!(s.backoff_of(2), 0);
        assert!(s.should_record(2, 10.0)); // first occurrence records
    }

    #[test]
    fn backoff_is_capped() {
        let mut s = BackoffSampler::new(1_000.0);
        for _ in 0..2_000_000 {
            s.should_record(9, 1.0);
        }
        assert!(s.backoff_of(9) <= MAX_K);
    }
}
