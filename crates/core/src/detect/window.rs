//! Overlapped sliding analysis windows (paper Fig. 8): servers analyse
//! the last reporting period's data; consecutive windows overlap by half
//! a period so results concatenate without edge artefacts.

use vapro_sim::VirtualTime;

/// One analysis window `[start, end)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// Window start (inclusive).
    pub start: VirtualTime,
    /// Window end (exclusive).
    pub end: VirtualTime,
}

impl Window {
    /// Every start time there is: the window of a whole-run cut.
    pub const ALL: Window = Window { start: VirtualTime::ZERO, end: VirtualTime::from_ns(u64::MAX) };

    /// The `k`-th half-overlapped window of length `period` counted from
    /// time zero: starts advance by `period / 2`. The one place window
    /// geometry is defined — [`windows_covering`] and the streaming
    /// ingestor both number their windows through it.
    pub fn nth(k: usize, period: VirtualTime) -> Window {
        let step = (period.ns() / 2).max(1);
        let start = k as u64 * step;
        Window {
            start: VirtualTime::from_ns(start),
            end: VirtualTime::from_ns(start + period.ns()),
        }
    }

    /// Does `[s, e)` overlap this window?
    pub fn overlaps(&self, s: VirtualTime, e: VirtualTime) -> bool {
        s < self.end && e > self.start
    }

    /// Window length.
    pub fn len(&self) -> VirtualTime {
        self.end.saturating_since(self.start)
    }

    /// Zero-length?
    pub fn is_empty(&self) -> bool {
        self.end <= self.start
    }
}

/// Enumerate half-overlapped windows of length `period` covering
/// `[t0, t1)`: starts advance by `period / 2`.
pub fn windows_covering(t0: VirtualTime, t1: VirtualTime, period: VirtualTime) -> Vec<Window> {
    assert!(period.ns() > 0, "zero analysis period");
    if t1 <= t0 {
        return vec![];
    }
    let mut out = Vec::new();
    for k in 0.. {
        let w = Window::nth(k, period);
        let w = Window { start: t0 + w.start, end: t0 + w.end };
        out.push(w);
        if w.end >= t1 {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_tile_with_half_overlap() {
        let ws = windows_covering(
            VirtualTime::ZERO,
            VirtualTime::from_secs(30),
            VirtualTime::from_secs(15),
        );
        assert_eq!(ws.len(), 3);
        assert_eq!(ws[0].start, VirtualTime::ZERO);
        assert_eq!(ws[1].start, VirtualTime::from_secs(7) + VirtualTime::from_ms(500));
        assert!(ws.last().unwrap().end >= VirtualTime::from_secs(30));
    }

    #[test]
    fn every_instant_is_covered() {
        let ws = windows_covering(
            VirtualTime::from_secs(1),
            VirtualTime::from_secs(100),
            VirtualTime::from_secs(15),
        );
        for t in (1..100).map(VirtualTime::from_secs) {
            assert!(
                ws.iter().any(|w| t >= w.start && t < w.end),
                "uncovered instant {t}"
            );
        }
    }

    #[test]
    fn interior_instants_are_covered_twice() {
        let ws = windows_covering(
            VirtualTime::ZERO,
            VirtualTime::from_secs(60),
            VirtualTime::from_secs(15),
        );
        // An instant well inside the range is in exactly two windows.
        let t = VirtualTime::from_secs(30);
        let n = ws.iter().filter(|w| t >= w.start && t < w.end).count();
        assert_eq!(n, 2);
    }

    #[test]
    fn short_run_gets_one_window() {
        let ws = windows_covering(
            VirtualTime::ZERO,
            VirtualTime::from_secs(3),
            VirtualTime::from_secs(15),
        );
        assert_eq!(ws.len(), 1);
    }

    #[test]
    fn empty_range_yields_nothing() {
        assert!(windows_covering(
            VirtualTime::from_secs(5),
            VirtualTime::from_secs(5),
            VirtualTime::from_secs(15)
        )
        .is_empty());
    }

    #[test]
    fn nth_numbers_the_windows_of_a_cover() {
        // The ingestor closes window `k` as `Window::nth(k, period)`;
        // the one-shot cover enumerates them: same geometry, index by
        // index, for even and odd periods alike.
        for period in [1, 7, 15_000_000_000].map(VirtualTime::from_ns) {
            let t_end = Window::nth(999, period).end;
            let cover = windows_covering(VirtualTime::ZERO, t_end, period);
            assert_eq!(cover.len(), 1000);
            for (k, w) in cover.iter().enumerate() {
                assert_eq!(*w, Window::nth(k, period), "window {k} of period {period}");
            }
        }
    }

    #[test]
    fn overlap_predicate() {
        let w = Window { start: VirtualTime::from_ns(100), end: VirtualTime::from_ns(200) };
        assert!(w.overlaps(VirtualTime::from_ns(150), VirtualTime::from_ns(250)));
        assert!(w.overlaps(VirtualTime::from_ns(0), VirtualTime::from_ns(101)));
        assert!(!w.overlaps(VirtualTime::from_ns(200), VirtualTime::from_ns(300)));
        assert!(!w.overlaps(VirtualTime::from_ns(0), VirtualTime::from_ns(100)));
    }
}
