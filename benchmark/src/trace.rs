//! In-memory spans, a stable hash, and the order statistics every
//! metric is reported with. No `vapro-core` types here.

use std::time::Instant;

/// FNV-1a, 64 bit: the digest of frames, plans and window reports.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    /// The offset basis.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Absorb bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Absorb one word.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest.
    pub fn finish(self) -> u64 {
        self.0
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

/// The span names of the shadow replay, outermost first. A span's name
/// is the layer it charges; `probe.*` spans re-run a sub-layer of
/// `detect` on its own and are not part of the attributed total.
pub const SPAN_NAMES: [&str; 14] = [
    "wire.decode",
    "server.absorb",
    "window",
    "server.sort",
    "server.view",
    "columnar.gather",
    "detect",
    "diagnose",
    "server.evict",
    "probe",
    "probe.clustering",
    "probe.normalize",
    "probe.heatmap",
    "probe.region",
];

/// Index of a span name (panics on a name not in [`SPAN_NAMES`]: a typo
/// in this crate, not input).
pub fn span_id(name: &str) -> u8 {
    SPAN_NAMES
        .iter()
        .position(|n| *n == name)
        .expect("known span name") as u8
}

/// `NONE` marks a span without parent or window.
pub const NONE: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Index into [`SPAN_NAMES`].
    pub name: u8,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created.
    pub end_ns: u64,
    /// The span that caused this one, or [`NONE`].
    pub parent: u32,
    /// Dense id of the window it belongs to, or [`NONE`].
    pub window: u32,
}

/// Spans held in memory until the benchmark exits.
#[derive(Debug)]
pub struct Tracer {
    t0: Instant,
    /// Every span recorded so far.
    pub spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer; its clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Open a span; returns its id for [`Tracer::end`] and as a parent.
    pub fn begin(&mut self, name: u8, parent: u32, window: u32) -> u32 {
        let now = self.t0.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            window,
        });
        (self.spans.len() - 1) as u32
    }

    /// Close a span.
    pub fn end(&mut self, id: u32) {
        self.spans[id as usize].end_ns = self.t0.elapsed().as_nanos() as u64;
    }

    /// Total duration and self time (duration minus the part child spans
    /// cover) per span name, ns.
    pub fn totals(&self) -> Vec<(u64, u64)> {
        let mut self_ns: Vec<i64> = self
            .spans
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as i64)
            .collect();
        for s in &self.spans {
            if s.parent != NONE {
                self_ns[s.parent as usize] -= (s.end_ns - s.start_ns) as i64;
            }
        }
        let mut out = vec![(0u64, 0u64); SPAN_NAMES.len()];
        for (s, own) in self.spans.iter().zip(self_ns) {
            out[s.name as usize].0 += s.end_ns - s.start_ns;
            out[s.name as usize].1 += own.max(0) as u64;
        }
        out
    }

    /// The trace file: a name table plus one `[name, start_ns, end_ns,
    /// parent, window]` row per span (`-1` = none).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 40);
        out.push_str("{\"names\":[");
        for (i, n) in SPAN_NAMES.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{n}\""));
        }
        out.push_str(
            "],\"columns\":[\"name\",\"start_ns\",\"end_ns\",\"parent\",\"window\"],\"spans\":[\n",
        );
        let opt = |v: u32| if v == NONE { -1 } else { v as i64 };
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            out.push_str(&format!(
                "[{},{},{},{},{}]",
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.window)
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

/// The `q`-quantile (0..=1) of unsorted values by linear interpolation;
/// 0.0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The median.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Median absolute deviation from the median.
pub fn mad(values: &[f64]) -> f64 {
    let m = median(values);
    median(&values.iter().map(|v| (v - m).abs()).collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        t.spans.push(Span {
            name: 2,
            start_ns: 0,
            end_ns: 100,
            parent: NONE,
            window: 0,
        });
        t.spans.push(Span {
            name: 6,
            start_ns: 10,
            end_ns: 70,
            parent: 0,
            window: 0,
        });
        let totals = t.totals();
        assert_eq!(totals[2], (100, 40));
        assert_eq!(totals[6], (60, 60));
    }

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(mad(&[1.0, 2.0, 3.0, 4.0, 100.0]), 1.0);
    }
}
