//! Wire-format and ingestion throughput harness: the numbers behind
//! `BENCH_ingest.json`.
//!
//! Measures, on the same synthetic multi-rank run as the detection
//! harness:
//!
//! * encode/decode throughput of the columnar binary wire format, in
//!   fragments/second, beside the same batches through `serde_json` —
//!   a comparator that lives only here, not a transport;
//! * bytes per fragment on each encoding and the binary's size advantage
//!   (the wire format targets ≥4× smaller and ≥5× faster decode than
//!   JSON);
//! * end-to-end server ingestion: periodic start-partitioned batches
//!   pushed through [`WindowedIngestor`], windows analysed as they
//!   close, in fragments/second.
//!
//! Every timed metric follows the [`crate::stats`] methodology: warmup,
//! ≥30 samples, median + MAD. `perf ingest` writes the result
//! as `BENCH_ingest.json`; [`crate::regression`] compares a fresh run
//! against the previous file under the same noise-aware tolerance as the
//! detection gate.

use crate::perf::detected_threads;
use crate::regression::{GatedMetric, PerfReport};
use crate::stats::{self, TrendPoint};
use serde::{Deserialize, Serialize};
use vapro_core::detect::window::Window;
use vapro_core::wire::FragmentBatch;
use vapro_core::{Stg, VaproConfig, WindowedIngestor};
use vapro_sim::VirtualTime;
use vapro_vopr::plan::synthetic_stgs;

/// One harness run, serialised to `BENCH_ingest.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IngestPerf {
    /// Harness identifier (always `"ingest"`).
    pub bench: String,
    /// Detected hardware threads on the runner.
    pub threads: usize,
    /// Ranks (clients) in the synthetic run.
    pub ranks: usize,
    /// Total fragments shipped.
    pub fragments: usize,
    /// Batches (rank × reporting period) shipped.
    pub batches: usize,
    /// Analysis windows the ingestor closed.
    pub windows: usize,
    /// Total bytes of all binary frames.
    pub binary_bytes: usize,
    /// Total bytes of the same batches as JSON.
    pub json_bytes: usize,
    /// Timed samples per metric (after warmup); at least
    /// [`stats::MIN_SAMPLES`]. Zero on reports predating the
    /// multi-sample methodology.
    pub samples: usize,
    /// Binary bytes per fragment.
    pub binary_bytes_per_fragment: f64,
    /// JSON bytes per fragment.
    pub json_bytes_per_fragment: f64,
    /// `json_bytes / binary_bytes` — how much smaller the wire format is.
    pub size_ratio: f64,
    /// Binary encode throughput, fragments/second (from the median).
    pub encode_fragments_per_sec: f64,
    /// Relative noise of the encode timing (MAD/median).
    pub encode_noise_frac: f64,
    /// Binary decode throughput, fragments/second (from the median).
    pub decode_fragments_per_sec: f64,
    /// Relative noise of the decode timing (MAD/median).
    pub decode_noise_frac: f64,
    /// JSON encode throughput, fragments/second.
    pub json_encode_fragments_per_sec: f64,
    /// JSON decode throughput, fragments/second.
    pub json_decode_fragments_per_sec: f64,
    /// Binary over JSON decode throughput.
    pub decode_speedup: f64,
    /// End-to-end ingest (decode + arena + windowed detection),
    /// fragments/second, from the median. Frames are CRC-32 verified
    /// and sequence-deduplicated on admission.
    pub ingest_fragments_per_sec: f64,
    /// Relative noise of the end-to-end timing (MAD/median).
    pub ingest_noise_frac: f64,
    /// Reporting periods in the long-stream steady-state measurement
    /// (the run re-sliced so the stream closes ≥200 half-overlapped
    /// windows).
    pub long_stream_periods: usize,
    /// Windows the long-stream run closed.
    pub long_stream_windows: usize,
    /// Steady-state flatness: the median per-period admission+analysis
    /// cost over the **last** quarter of the long stream divided by the
    /// median over the **second** quarter (the first quarter is warmup).
    /// ≈1.0 when per-window cost is O(window); it grows with the stream
    /// when any per-push cost scales with the total resident history
    /// (full-arena scans, unbounded buffering). The release gate allows
    /// `1 + variance_tolerance(long_stream_noise_frac)` at most.
    pub steady_state_flatness: f64,
    /// Relative noise (MAD/median) of the steady-state per-period
    /// timings (first quarter excluded).
    pub long_stream_noise_frac: f64,
    /// Peak arena resident bytes across the long stream: with watermark
    /// eviction this is O(watermark lag + open windows), not O(stream).
    pub arena_high_water_bytes: u64,
    /// The arena's high water at the end of the stream over its high
    /// water at the midpoint: ≈1.0 when eviction holds the arena at a
    /// plateau after warmup. The release gate requires ≤ 1.5.
    pub arena_plateau_ratio: f64,
    /// One headline point per harness run, carried forward from the
    /// previous BENCH file (bounded; see [`stats::MAX_TREND_POINTS`]).
    pub history: Vec<TrendPoint>,
}

/// Latest fragment end across the run, ns.
fn t_end_ns(stgs: &[Stg]) -> u64 {
    stgs.iter()
        .flat_map(|s| {
            s.vertices()
                .iter()
                .flat_map(|v| v.fragments.iter())
                .chain(s.edges().iter().flat_map(|e| e.fragments.iter()))
        })
        .map(|f| f.end.ns())
        .max()
        .unwrap_or(0)
}

/// Slice the run into per-rank, per-period start-partitioned batches —
/// what each client ships each reporting period, in period-major order.
/// Each rank's batches carry its monotonic sequence number (period
/// index + 1), so the frames exercise the full integrity path:
/// checksum verification plus sequence tracking.
fn periodic_batches(stgs: &[Stg], period_ns: u64) -> Vec<FragmentBatch> {
    let t_end = t_end_ns(stgs);
    let mut out = Vec::new();
    let mut start = 0u64;
    let mut period_index = 0u64;
    while start < t_end {
        let period = Window {
            start: VirtualTime::from_ns(start),
            end: VirtualTime::from_ns(start + period_ns),
        };
        for (rank, stg) in stgs.iter().enumerate() {
            out.push(
                FragmentBatch::from_stg_starting_in(stg, rank, period)
                    .with_seq(period_index + 1),
            );
        }
        start += period_ns;
        period_index += 1;
    }
    out
}

/// Run the full measurement: `nranks × frags_per_rank` fragments over
/// `sites` call sites, shipped in `periods` reporting periods; `reps`
/// requests the timed samples per metric (floored at
/// [`stats::MIN_SAMPLES`], preceded by a warmup phase).
pub fn measure(
    nranks: usize,
    frags_per_rank: usize,
    sites: usize,
    periods: usize,
    reps: usize,
) -> IngestPerf {
    let stgs = synthetic_stgs(nranks, frags_per_rank, sites, 0xBE7C);
    let fragments: usize = stgs.iter().map(Stg::total_fragments).sum();
    let period_ns = (t_end_ns(&stgs) / periods.max(1) as u64).max(1);
    let batches = periodic_batches(&stgs, period_ns);
    let cfg = VaproConfig {
        report_period: VirtualTime::from_ns(period_ns),
        ..VaproConfig::default()
    };

    // Size accounting, once.
    let to_json = |b: &FragmentBatch| serde_json::to_vec(b).expect("serialisable batch");
    let frames: Vec<Vec<u8>> = batches.iter().map(FragmentBatch::encode_v3).collect();
    let jsons: Vec<Vec<u8>> = batches.iter().map(to_json).collect();
    let binary_bytes: usize = frames.iter().map(Vec::len).sum();
    let json_bytes: usize = jsons.iter().map(Vec::len).sum();

    // Decode sanity before timing means anything.
    for (frame, batch) in frames.iter().zip(&batches) {
        assert_eq!(&FragmentBatch::decode(frame).expect("own frame"), batch);
    }

    // Codec throughput: whole shipment per sample, reusing one buffer on
    // the encode side the way a client's sender loop would.
    let encode = stats::sample_ns(reps, || {
        let mut buf = Vec::with_capacity(binary_bytes);
        for b in &batches {
            buf.clear();
            b.encode_into_v3(&mut buf);
        }
        buf.len()
    });
    let decode = stats::sample_ns(reps, || {
        frames
            .iter()
            .map(|f| FragmentBatch::decode(f).expect("own frame").len())
            .sum::<usize>()
    });
    let json_encode = stats::sample_ns(reps, || {
        batches.iter().map(|b| to_json(b).len()).sum::<usize>()
    });
    let json_decode = stats::sample_ns(reps, || {
        jsons
            .iter()
            .map(|j| serde_json::from_slice::<FragmentBatch>(j).expect("own json").len())
            .sum::<usize>()
    });

    // End-to-end: every frame decoded into the arena (checksum verified,
    // sequences tracked), windows analysed as the shipping low-watermark
    // closes them.
    let mut windows = 0usize;
    let ingest = stats::sample_ns(reps, || {
        let mut ingestor = WindowedIngestor::new(nranks, 16, cfg.clone());
        let mut reports = Vec::new();
        for frame in &frames {
            reports.extend(ingestor.push_encoded(frame).expect("own frame"));
        }
        reports.extend(ingestor.finish());
        windows = reports.len();
        reports.len()
    });

    // Long-stream steady state: the same run re-sliced into enough
    // reporting periods for ≥200 half-overlapped windows, streamed once
    // with per-period timing. Flat per-period cost and an arena-byte
    // plateau are what bounded-memory streaming must show: watermark
    // eviction keeps the resident set O(open windows) and the ranged
    // window views keep per-close cost O(window), so neither admission
    // nor analysis may slow down as history accumulates.
    let long_periods = periods.max(101);
    let long_period_ns = (t_end_ns(&stgs) / long_periods as u64).max(1);
    let long_frames: Vec<Vec<u8>> =
        periodic_batches(&stgs, long_period_ns).iter().map(FragmentBatch::encode_v3).collect();
    let long_cfg = VaproConfig {
        report_period: VirtualTime::from_ns(long_period_ns),
        ..VaproConfig::default()
    };
    let mut long_ingestor = WindowedIngestor::new(nranks, 16, long_cfg);
    let nperiods = long_frames.len() / nranks;
    let mut per_period = Vec::with_capacity(nperiods);
    let mut long_windows = 0usize;
    let mut hw_mid = 0u64;
    for (k, chunk) in long_frames.chunks(nranks).enumerate() {
        let mut closed = 0usize;
        per_period.push(stats::time_ns(|| {
            for frame in chunk {
                closed += long_ingestor.push_encoded(frame).expect("own frame").len();
            }
        }));
        long_windows += closed;
        if k + 1 == nperiods / 2 {
            hw_mid = long_ingestor.arena().high_water_bytes();
        }
    }
    let arena_high_water_bytes = long_ingestor.arena().high_water_bytes();
    let arena_plateau_ratio = if hw_mid > 0 {
        arena_high_water_bytes as f64 / hw_mid as f64
    } else {
        1.0
    };
    long_windows += long_ingestor.finish().len();
    let (steady_state_flatness, long_stream_noise_frac) =
        stats::steady_state_flatness(&per_period);

    let per_sec = |count: usize, ns: f64| count as f64 / (ns / 1e9);
    IngestPerf {
        bench: "ingest".to_string(),
        threads: detected_threads(),
        ranks: nranks,
        fragments,
        batches: batches.len(),
        windows,
        binary_bytes,
        json_bytes,
        samples: encode.samples,
        binary_bytes_per_fragment: binary_bytes as f64 / fragments as f64,
        json_bytes_per_fragment: json_bytes as f64 / fragments as f64,
        size_ratio: json_bytes as f64 / binary_bytes as f64,
        encode_fragments_per_sec: per_sec(fragments, encode.median_ns),
        encode_noise_frac: encode.noise_frac(),
        decode_fragments_per_sec: per_sec(fragments, decode.median_ns),
        decode_noise_frac: decode.noise_frac(),
        json_encode_fragments_per_sec: per_sec(fragments, json_encode.median_ns),
        json_decode_fragments_per_sec: per_sec(fragments, json_decode.median_ns),
        decode_speedup: json_decode.median_ns / decode.median_ns,
        ingest_fragments_per_sec: per_sec(fragments, ingest.median_ns),
        ingest_noise_frac: ingest.noise_frac(),
        long_stream_periods: per_period.len(),
        long_stream_windows: long_windows,
        steady_state_flatness,
        long_stream_noise_frac,
        arena_high_water_bytes,
        arena_plateau_ratio,
        history: Vec::new(),
    }
}

impl PerfReport for IngestPerf {
    const FILE: &'static str = "BENCH_ingest.json";

    /// Codec throughput and the wire format's size advantage are
    /// thread-independent; the end-to-end ingest rate (windows analysed
    /// on rayon) is only comparable between same-parallelism runs.
    fn gated(&self) -> Vec<GatedMetric> {
        vec![
            GatedMetric::rate(
                "wire encode throughput",
                self.encode_fragments_per_sec,
                self.encode_noise_frac,
            ),
            GatedMetric::rate(
                "wire decode throughput",
                self.decode_fragments_per_sec,
                self.decode_noise_frac,
            ),
            GatedMetric {
                name: "wire size advantage over JSON",
                value: self.size_ratio,
                unit: "x",
                noise_frac: 0.0,
                env: [0, 0],
            },
            GatedMetric::rate(
                "end-to-end ingest throughput",
                self.ingest_fragments_per_sec,
                self.ingest_noise_frac,
            )
            .on(self.threads, 0),
        ]
    }

    /// The wire-format targets (≥4× smaller than JSON, ≥5× faster
    /// decode) and the bounded-memory streaming targets: the long stream
    /// must be long (≥200 half-overlapped windows), per-period cost must
    /// stay flat — late-quarter median within the host's noise-scaled
    /// tolerance of the early-quarter median — and the arena's high
    /// water must plateau after warmup instead of tracking the stream.
    fn hard_failures(&self) -> Vec<String> {
        let mut failures = Vec::new();
        if self.size_ratio < 4.0 {
            failures.push(format!(
                "binary is only {:.2}x smaller than JSON (target >= 4x)",
                self.size_ratio
            ));
        }
        if self.decode_speedup < 5.0 {
            failures.push(format!(
                "binary decode only {:.2}x faster than JSON (target >= 5x)",
                self.decode_speedup
            ));
        }
        if self.long_stream_windows < 200 {
            failures.push(format!(
                "long stream closed only {} windows (target >= 200)",
                self.long_stream_windows
            ));
        }
        let flatness_limit = 1.0 + stats::variance_tolerance(&[self.long_stream_noise_frac]);
        if self.steady_state_flatness > flatness_limit {
            failures.push(format!(
                "per-period cost grew {:.2}x from early to late stream (limit {:.2}x): \
                 per-window work is not O(window)",
                self.steady_state_flatness, flatness_limit
            ));
        }
        if self.arena_plateau_ratio > 1.5 {
            failures.push(format!(
                "arena high water grew {:.2}x after the stream midpoint (limit 1.5x): \
                 watermark eviction is not holding a plateau",
                self.arena_plateau_ratio
            ));
        }
        failures
    }

    fn trend_point(&self) -> TrendPoint {
        stats::trend_point(
            self.threads,
            &[
                ("encode_fragments_per_sec", self.encode_fragments_per_sec),
                ("decode_fragments_per_sec", self.decode_fragments_per_sec),
                ("ingest_fragments_per_sec", self.ingest_fragments_per_sec),
                ("size_ratio", self.size_ratio),
                ("steady_state_flatness", self.steady_state_flatness),
                ("arena_high_water_bytes", self.arena_high_water_bytes as f64),
                ("arena_plateau_ratio", self.arena_plateau_ratio),
            ],
        )
    }

    fn history_mut(&mut self) -> &mut Vec<TrendPoint> {
        &mut self.history
    }

    fn summary(&self) -> String {
        format!(
            "ingest: {} fragments / {} ranks / {} batches / {} windows / {} threads / median of {} samples\n\
             size:   {:.1} B/fragment binary vs {:.1} B/fragment JSON ({:.1}x smaller)\n\
             encode: {:>10.0} fragments/s binary (±{:.1}% MAD), {:>10.0} fragments/s JSON\n\
             decode: {:>10.0} fragments/s binary (±{:.1}% MAD), {:>10.0} fragments/s JSON ({:.1}x faster)\n\
             ingest: {:>10.0} fragments/s end-to-end (±{:.1}% MAD, decode + windowed detection)\n\
             steady state: {} windows over {} periods, flatness {:.3} (±{:.1}% MAD),\n\
                           arena high water {} B, plateau ratio {:.3}\n",
            self.fragments,
            self.ranks,
            self.batches,
            self.windows,
            self.threads,
            self.samples,
            self.binary_bytes_per_fragment,
            self.json_bytes_per_fragment,
            self.size_ratio,
            self.encode_fragments_per_sec,
            self.encode_noise_frac * 100.0,
            self.json_encode_fragments_per_sec,
            self.decode_fragments_per_sec,
            self.decode_noise_frac * 100.0,
            self.json_decode_fragments_per_sec,
            self.decode_speedup,
            self.ingest_fragments_per_sec,
            self.ingest_noise_frac * 100.0,
            self.long_stream_windows,
            self.long_stream_periods,
            self.steady_state_flatness,
            self.long_stream_noise_frac * 100.0,
            self.arena_high_water_bytes,
            self.arena_plateau_ratio,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn periodic_batches_partition_the_run() {
        let stgs = synthetic_stgs(3, 200, 8, 7);
        let total: usize = stgs.iter().map(Stg::total_fragments).sum();
        let period = (t_end_ns(&stgs) / 10).max(1);
        let batches = periodic_batches(&stgs, period);
        let shipped: usize = batches.iter().map(FragmentBatch::len).sum();
        assert_eq!(shipped, total, "start-partitioned shipping must cover exactly once");
    }

    #[test]
    fn measure_meets_the_wire_format_targets() {
        let p = measure(2, 300, 8, 6, 1);
        assert_eq!(p.bench, "ingest");
        assert!(p.fragments >= 600);
        assert!(p.windows > 2, "windows: {}", p.windows);
        // The headline acceptance target: ≥4× smaller than JSON. (The
        // ≥5× decode-speed target is asserted on the release-mode run of
        // `perf ingest`; debug-build ratios still must favour
        // binary.)
        assert!(p.size_ratio >= 4.0, "binary only {:.2}x smaller", p.size_ratio);
        assert!(p.decode_speedup > 1.0, "decode speedup {:.2}", p.decode_speedup);
        assert!(p.encode_fragments_per_sec > 0.0);
        assert!(p.ingest_fragments_per_sec > 0.0);
        assert!(p.samples >= crate::stats::MIN_SAMPLES);
        assert!(p.ingest_noise_frac.is_finite() && p.ingest_noise_frac >= 0.0);
        // The long stream must actually be long: ≥200 half-overlapped
        // windows, a registered arena peak, and sane steady-state ratios
        // (debug builds can't gate the release thresholds, but the
        // values must be finite and positive).
        assert!(p.long_stream_periods >= 100, "periods {}", p.long_stream_periods);
        assert!(p.long_stream_windows >= 200, "windows {}", p.long_stream_windows);
        assert!(p.arena_high_water_bytes > 0);
        assert!(p.steady_state_flatness.is_finite() && p.steady_state_flatness > 0.0);
        assert!(p.arena_plateau_ratio.is_finite() && p.arena_plateau_ratio > 0.0);
        assert!(p.long_stream_noise_frac.is_finite() && p.long_stream_noise_frac >= 0.0);
    }

    #[test]
    fn report_roundtrips_through_json() {
        let p = measure(2, 120, 4, 4, 1);
        let json = serde_json::to_string(&p).expect("serialisable");
        let back: IngestPerf = serde_json::from_str(&json).expect("parses");
        assert_eq!(p.bench, back.bench);
        assert_eq!(p.fragments, back.fragments);
        assert_eq!(p.binary_bytes, back.binary_bytes);
    }
}
