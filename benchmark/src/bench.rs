//! The two measurements of a workload — `run` (end-to-end metrics,
//! tracing off) and `trace` (per-layer metrics) — and the metric tables
//! `BENCHMARK.json` mirrors.

use crate::drive::{
    close_latencies_ms, failed_frames, failed_windows, percentiles, run_pass, score_planted,
    shadow_replay, solo_jobs_wall_ns, sustainable, Pass, PassMode,
};
use crate::gen::{self, FrameKind, Stream};
use crate::layers;
use crate::trace::{mad, median, quantile, span_id};
use std::time::Instant;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `better` string of `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: name, unit, direction and the share of the
/// parent's median by which it may worsen before `compare` (and the
/// driver) call it a regression. Calibrated on a shared 2-vCPU host
/// that is 5-20 % slower for minutes at a time (README, "Calibration"):
/// the timing bounds sit at the contract's cap.
pub const END_TO_END: [(&str, &str, Better, f64); 5] = [
    ("setup_s", "s", Better::Lower, 0.25),
    ("frags_per_s", "frags/s", Better::Higher, 0.25),
    ("close_p50_ms", "ms", Better::Lower, 0.25),
    ("wire_bytes_per_frag", "B", Better::Lower, 0.05),
    ("arena_peak_mb", "MB", Better::Lower, 0.25),
];

/// Segments an open-loop pass is cut into for its latency percentiles.
const SEGMENTS_PER_PASS: usize = 8;

/// Share of a run's measuring time that goes to the open-loop passes.
const OPEN_SHARE: f64 = 0.55;

/// Time kept back for scoring, printing and process exit, seconds.
const VERIFY_MARGIN_S: f64 = 0.3;

/// Every per-layer metric `trace` reports: name, unit, direction.
pub const PER_LAYER: [(&str, &str, Better); 53] = [
    ("wire.decode_ns_per_frag", "ns", Better::Lower),
    ("wire.encode_ns_per_frag", "ns", Better::Lower),
    ("wire.bytes_per_frag", "B", Better::Lower),
    ("wire.corrupt_rejected_frac", "ratio", Better::Higher),
    ("server.absorb_ns_per_frag", "ns", Better::Lower),
    ("server.sort_ns_per_window", "ns", Better::Lower),
    ("server.view_ns_per_window", "ns", Better::Lower),
    ("server.evict_ns_per_window", "ns", Better::Lower),
    ("server.reject_ns_per_frame", "ns", Better::Lower),
    ("server.frames_admitted", "count", Better::Higher),
    ("server.frames_rejected", "count", Better::Lower),
    ("server.frames_dropped", "count", Better::Lower),
    ("server.arena_high_water_bytes", "B", Better::Lower),
    ("columnar.gather_ns_per_frag", "ns", Better::Lower),
    ("columnar.gather_amplification", "ratio", Better::Lower),
    ("clustering.ns_per_vector", "ns", Better::Lower),
    ("clustering.vectors", "count", Better::Lower),
    ("clustering.clusters_per_window", "count", Better::Lower),
    ("normalize.ns_per_frag", "ns", Better::Lower),
    ("heatmap.ns_per_point", "ns", Better::Lower),
    ("region.ns_per_window", "ns", Better::Lower),
    ("region.regions", "count", Better::Lower),
    ("detect.ns_per_window", "ns", Better::Lower),
    ("detect.fanout_residual_frac", "ratio", Better::Lower),
    ("diagnose.ns_per_region", "ns", Better::Lower),
    ("diagnose.regions_attempted", "count", Better::Lower),
    ("diagnose.diagnosed_frac", "ratio", Better::Higher),
    ("diagnose.region_share_of_inline", "ratio", Better::Lower),
    ("stage.overlap_speedup", "ratio", Better::Higher),
    ("stage.pending_max", "count", Better::Lower),
    ("stage.close_p90_ms", "ms", Better::Lower),
    ("stage.close_p99_ms", "ms", Better::Lower),
    ("fleet.route_ns_per_frame", "ns", Better::Lower),
    ("fleet.drain_ns_per_window", "ns", Better::Lower),
    ("fleet.over_budget_rejected", "count", Better::Lower),
    ("fleet.overhead_frac", "ratio", Better::Lower),
    ("fleet.overhead_mad", "ratio", Better::Lower),
    ("loadgen.late_p99_ms", "ms", Better::Lower),
    ("pipeline.inline_ns_per_frag", "ns", Better::Lower),
    ("pipeline.unattributed_frac", "ratio", Better::Lower),
    ("pipeline.trace_overhead_frac", "ratio", Better::Lower),
    ("pipeline.shadow_ns_per_frag", "ns", Better::Lower),
    ("verify.failed_frac", "ratio", Better::Lower),
    ("verify.planted_recall", "ratio", Better::Higher),
    ("verify.false_regions_per_kwin", "count", Better::Lower),
    (
        "verify.shadow_windows_matched_frac",
        "ratio",
        Better::Higher,
    ),
    ("verify.probe_mismatch_windows", "count", Better::Lower),
    ("self.wire_ns", "ns", Better::Lower),
    ("self.server_ns", "ns", Better::Lower),
    ("self.columnar_ns", "ns", Better::Lower),
    ("self.detect_ns", "ns", Better::Lower),
    ("self.diagnose_ns", "ns", Better::Lower),
    ("self.window_glue_ns", "ns", Better::Lower),
];

/// The exact checks `run` reports beside the end-to-end metrics; they
/// reach the driver through `correct` and `failed`.
pub const CHECKS: [(&str, &str); 3] = [
    ("failed_frac", "ratio"),
    ("planted_recall", "ratio"),
    ("false_regions_per_kwin", "count"),
];

/// Unit of a metric or check by name.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .map(|m| (m.0, m.1))
        .chain(PER_LAYER.iter().map(|m| (m.0, m.1)))
        .chain(CHECKS)
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// What one workload measured.
#[derive(Debug, Clone, Default)]
pub struct WorkloadResult {
    /// Workload name.
    pub name: String,
    /// Named metric values, in table order.
    pub metrics: Vec<(&'static str, f64)>,
    /// Exact checks reported beside the metrics (`run` only).
    pub checks: Vec<(&'static str, f64)>,
    /// Combined digest of every window report of the reference pass.
    pub report_digest: u64,
    /// Operations attempted: frames offered + windows expected, over all
    /// verified passes.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// Every output check held.
    pub correct: bool,
    /// Free-form facts for `result.json`: sizes, rates, pass counts.
    pub facts: Vec<(&'static str, f64)>,
}

fn digest_of(windows: &[layers::WindowFacts]) -> u64 {
    let mut sorted: Vec<_> = windows
        .iter()
        .map(|w| (w.job, w.start_ns, w.analysis, w.transport))
        .collect();
    sorted.sort_unstable();
    let mut h = crate::trace::Fnv::new();
    for (job, start, analysis, transport) in sorted {
        h.u64(job as u64);
        h.u64(start);
        h.u64(analysis);
        h.u64(transport);
    }
    h.finish()
}

fn stream_facts(stream: &Stream) -> Vec<(&'static str, f64)> {
    let p = &stream.params;
    vec![
        ("jobs", p.jobs as f64),
        ("ranks_per_job", p.ranks as f64),
        ("sites", p.sites as f64),
        ("periods", p.periods as f64),
        ("period_virtual_ns", stream.period_ns as f64),
        ("frames_offered", stream.frames.len() as f64),
        ("unique_frags", stream.unique_frags as f64),
        ("windows_expected", stream.expected_windows() as f64),
        ("planted_rects", stream.rects.len() as f64),
        ("offered_frags_per_s", p.offered_frags_per_s),
    ]
}

/// Accumulates attempted/failed over the verified passes of a workload.
struct Tally<'a> {
    stream: &'a Stream,
    attempted: u64,
    failed: u64,
}

impl<'a> Tally<'a> {
    fn new(stream: &'a Stream) -> Self {
        Tally {
            stream,
            attempted: 0,
            failed: 0,
        }
    }

    /// Verify a real pass against the plan and the reference windows.
    fn pass(&mut self, pass: &Pass, reference: Option<&[layers::WindowFacts]>) {
        self.attempted += (self.stream.frames.len() + self.stream.expected_windows()) as u64;
        self.failed += failed_frames(self.stream, pass)
            + failed_windows(self.stream, &pass.windows, reference, true);
    }
}

/// `run`: set-up time, closed-loop throughput, open-loop window-close
/// latency, exact size metrics, and output verification — tracing off.
/// The whole run, set-up included, takes about `seconds`.
pub fn run_workload(name: &str, seed: u64, seconds: f64) -> Option<WorkloadResult> {
    let started = Instant::now();
    let params = gen::params(name)?;
    // Set-up (generator + batch build + encode) five times; the median
    // is `setup_s`, the last stream is the one measured.
    let mut setups = Vec::new();
    let mut stream = None;
    for _ in 0..5 {
        let t0 = Instant::now();
        stream = Some(gen::generate(&params, seed));
        setups.push(t0.elapsed().as_secs_f64());
    }
    let stream = stream?;
    let mut tally = Tally::new(&stream);
    // One closed-loop warm-up pass: the reference every other pass must
    // reproduce, and the first estimate the schedule is planned from.
    let reference = run_pass(&stream, PassMode::default());
    tally.pass(&reference, None);
    let rate = params.offered_frags_per_s;
    let open_s = stream.unique_frags as f64 / rate;
    // `seconds` covers the whole run, set-up and verification too. A
    // little over half of what is left goes to the open-loop passes.
    let left = seconds - started.elapsed().as_secs_f64();
    let open_passes = ((OPEN_SHARE * left / open_s) as usize).max(2);

    // Closed-loop passes (throughput) are spread evenly before, between
    // and after the open-loop passes (latency at the fixed offered rate),
    // so a host stall of a few seconds cannot sit on one metric. Each
    // group is sized from the time left, so a slow host shortens the run
    // of passes, not the deadline.
    let mut closed = Vec::new();
    let mut closed_s = vec![reference.wall_ns as f64 / 1e9];
    let mut arena_peak = reference.totals.arena_peak_bytes;
    let (mut p50, mut p90, mut p99, mut late) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut unsustainable = Vec::new();
    for group in 0..=open_passes {
        let left = seconds
            - started.elapsed().as_secs_f64()
            - (open_passes - group) as f64 * open_s
            - VERIFY_MARGIN_S;
        let share = left / (open_passes + 1 - group) as f64;
        for _ in 0..((share / median(&closed_s)) as usize).max(1) {
            let pass = run_pass(&stream, PassMode::default());
            tally.pass(&pass, Some(&reference.windows));
            arena_peak = arena_peak.max(pass.totals.arena_peak_bytes);
            closed_s.push(pass.wall_ns as f64 / 1e9);
            closed.push(stream.unique_frags as f64 / (pass.wall_ns as f64 / 1e9));
        }
        if group == open_passes {
            break;
        }
        let pass = run_pass(
            &stream,
            PassMode {
                rate: Some(rate),
                ..PassMode::default()
            },
        );
        tally.pass(&pass, Some(&reference.windows));
        let lat = close_latencies_ms(&stream, &pass, rate);
        if !sustainable(&lat) {
            unsustainable.push(lat.len() as u64);
        }
        // Percentiles per segment of consecutive windows: a host stall
        // spoils one segment of the pooled median, not the run.
        for segment in lat.chunks(lat.len().div_ceil(SEGMENTS_PER_PASS).max(1)) {
            let (a, b, _) = percentiles(segment);
            p50.push(a);
            p90.push(b);
        }
        p99.push(percentiles(&lat).2);
        late.push(quantile(
            &pass
                .late_ns
                .iter()
                .map(|&n| n as f64 / 1e6)
                .collect::<Vec<_>>(),
            0.99,
        ));
    }

    // An offered rate above capacity grows latency in every pass; a
    // host stall grows it in one. Only the former fails its windows.
    if unsustainable.len() == open_passes {
        tally.failed += unsustainable.iter().sum::<u64>();
    }

    let (recall, false_per_kwin, regions) = score_planted(&stream, &reference.windows);
    let attempts: u64 = reference
        .windows
        .iter()
        .map(|w| w.diagnoses_attempted as u64)
        .sum();
    let diagnosed: u64 = reference.windows.iter().map(|w| w.diagnosed as u64).sum();
    let diagnosed_frac = if attempts == 0 {
        1.0
    } else {
        diagnosed as f64 / attempts as f64
    };
    // Per-workload acceptance: noise must be found where it was planted
    // and nowhere on the quiet stream; the noisy stream must diagnose.
    let mut correct = tally.failed == 0 && recall >= 0.9;
    match name {
        "stream_quiet" => correct &= regions == 0,
        "stream_noisy" => correct &= diagnosed_frac > 0.9 && attempts > 1000,
        _ => {}
    }

    let mut facts = stream_facts(&stream);
    facts.extend([
        ("closed_passes", closed.len() as f64),
        ("closed_min_frags_per_s", quantile(&closed, 0.0)),
        ("closed_max_frags_per_s", quantile(&closed, 1.0)),
        ("close_p50_ms_min", quantile(&p50, 0.0)),
        ("close_p50_ms_max", quantile(&p50, 1.0)),
        ("open_passes", open_passes as f64),
        ("unsustainable_open_passes", unsustainable.len() as f64),
        ("close_p90_ms", median(&p90)),
        ("close_p99_ms", median(&p99)),
        ("loadgen_late_p99_ms", median(&late)),
        ("regions", regions as f64),
        ("diagnoses_attempted", attempts as f64),
        ("diagnosed_frac", diagnosed_frac),
    ]);
    Some(WorkloadResult {
        name: name.to_string(),
        metrics: vec![
            ("setup_s", median(&setups)),
            ("frags_per_s", median(&closed)),
            ("close_p50_ms", median(&p50)),
            (
                "wire_bytes_per_frag",
                stream.clean_bytes as f64 / stream.unique_frags as f64,
            ),
            ("arena_peak_mb", arena_peak as f64 / (1u64 << 20) as f64),
        ],
        checks: vec![
            ("failed_frac", tally.failed as f64 / tally.attempted as f64),
            ("planted_recall", recall),
            ("false_regions_per_kwin", false_per_kwin),
        ],
        report_digest: digest_of(&reference.windows),
        attempted: tally.attempted,
        failed: tally.failed,
        correct,
        facts,
    })
}

/// `trace`: the per-layer table. An untraced and an observed inline
/// pass, a pipelined pass, an open-loop pass, and the shadow replay with
/// its spans (returned as the JSON of `trace-<workload>.json`).
pub fn trace_workload(name: &str, seed: u64) -> Option<(WorkloadResult, String)> {
    let params = gen::params(name)?;
    let stream = gen::generate(&params, seed);
    let mut tally = Tally::new(&stream);
    let frags = stream.unique_frags as f64;

    let inline = run_pass(
        &stream,
        PassMode {
            inline: true,
            ..PassMode::default()
        },
    );
    tally.pass(&inline, None);
    let reference = Some(inline.windows.as_slice());
    let observed = run_pass(
        &stream,
        PassMode {
            inline: true,
            observe_pushes: true,
            ..PassMode::default()
        },
    );
    tally.pass(&observed, reference);
    let pipelined = run_pass(
        &stream,
        PassMode {
            observe_pushes: true,
            ..PassMode::default()
        },
    );
    tally.pass(&pipelined, reference);
    let rate = params.offered_frags_per_s;
    let open = run_pass(
        &stream,
        PassMode {
            rate: Some(rate),
            ..PassMode::default()
        },
    );
    tally.pass(&open, reference);
    let latencies = close_latencies_ms(&stream, &open, rate);

    let shadow = shadow_replay(&stream, &inline);
    let shadow_bad = failed_windows(&stream, &shadow.windows, reference, false);
    tally.attempted += stream.expected_windows() as u64;
    tally.failed += shadow_bad;

    // Fleet overhead: median paired ratio against the same per-job
    // frames on solo ingestors (both sides at the default depth).
    let (mut overhead, mut overhead_mad) = (0.0, 0.0);
    if params.tenants > 0 {
        let mut ratios = vec![pipelined.wall_ns as f64 / solo_jobs_wall_ns(&stream) as f64 - 1.0];
        for _ in 0..2 {
            let solo = solo_jobs_wall_ns(&stream) as f64;
            let fleet = run_pass(&stream, PassMode::default());
            ratios.push(fleet.wall_ns as f64 / solo - 1.0);
        }
        overhead = median(&ratios);
        overhead_mad = mad(&ratios);
    }

    let clean: Vec<&[u8]> = stream
        .frames
        .iter()
        .filter(|f| f.kind == FrameKind::Clean)
        .step_by(4)
        .map(|f| f.bytes.as_slice())
        .collect();
    let (encode_ns, encode_frags) = layers::time_encode(&clean);

    let totals = shadow.tracer.totals();
    let total = |span: &str| totals[span_id(span) as usize].0 as f64;
    let own = |span: &str| totals[span_id(span) as usize].1 as f64;
    let c = &shadow.counts;
    let per = |ns: f64, n: u64| if n == 0 { 0.0 } else { ns / n as f64 };
    let attributed: f64 = [
        "wire.decode",
        "server.absorb",
        "server.sort",
        "server.view",
        "columnar.gather",
        "detect",
        "diagnose",
        "server.evict",
    ]
    .iter()
    .map(|s| total(s))
    .sum();
    let probes = total("probe.clustering")
        + total("probe.normalize")
        + total("probe.heatmap")
        + total("probe.region");
    let inline_wall = inline.wall_ns as f64;

    // Pushes of the observed inline pass, split by what the plan says
    // the frame was and by whether the fleet drained on it.
    let mean_push = |keep: &dyn Fn(usize) -> bool| {
        let picked: Vec<f64> = (0..stream.frames.len())
            .filter(|&i| keep(i))
            .map(|i| observed.push_ns[i] as f64)
            .collect();
        if picked.is_empty() {
            0.0
        } else {
            picked.iter().sum::<f64>() / picked.len() as f64
        }
    };
    let duplicate_push = mean_push(&|i| stream.frames[i].kind == FrameKind::Duplicate);
    let mut drained_at = vec![false; stream.frames.len()];
    for &i in observed
        .emitted_at
        .iter()
        .filter(|&&i| i != crate::trace::NONE)
    {
        drained_at[i as usize] = true;
    }
    let (route_ns, drain_ns) = if params.tenants > 0 {
        let drain_total: f64 = (0..stream.frames.len())
            .filter(|&i| drained_at[i])
            .map(|i| observed.push_ns[i] as f64)
            .sum::<f64>()
            + (observed.wall_ns - observed.finish_ns) as f64;
        (
            mean_push(&|i| !drained_at[i]),
            per(drain_total, observed.windows.len() as u64),
        )
    } else {
        (0.0, 0.0)
    };

    let (recall, false_per_kwin, _) = score_planted(&stream, &inline.windows);
    let t = &inline.totals;
    let (_, p90, p99) = percentiles(&latencies);
    let late: Vec<f64> = open.late_ns.iter().map(|&n| n as f64 / 1e6).collect();
    let expected_windows = stream.expected_windows() as f64;
    let values: Vec<(&'static str, f64)> = vec![
        (
            "wire.decode_ns_per_frag",
            per(total("wire.decode"), stream.unique_frags),
        ),
        (
            "wire.encode_ns_per_frag",
            per(encode_ns as f64, encode_frags),
        ),
        ("wire.bytes_per_frag", stream.clean_bytes as f64 / frags),
        (
            "wire.corrupt_rejected_frac",
            if shadow.corrupt.1 == 0 {
                1.0
            } else {
                shadow.corrupt.0 as f64 / shadow.corrupt.1 as f64
            },
        ),
        (
            "server.absorb_ns_per_frag",
            per(total("server.absorb"), c.frags_absorbed),
        ),
        (
            "server.sort_ns_per_window",
            per(total("server.sort"), c.windows),
        ),
        (
            "server.view_ns_per_window",
            per(total("server.view"), c.windows),
        ),
        (
            "server.evict_ns_per_window",
            per(total("server.evict"), c.windows),
        ),
        ("server.reject_ns_per_frame", duplicate_push),
        ("server.frames_admitted", t.admitted as f64),
        ("server.frames_rejected", t.rejected as f64),
        ("server.frames_dropped", t.dropped as f64),
        ("server.arena_high_water_bytes", t.arena_peak_bytes as f64),
        (
            "columnar.gather_ns_per_frag",
            per(total("columnar.gather"), c.frags_gathered),
        ),
        (
            "columnar.gather_amplification",
            per(c.frags_gathered as f64, c.frags_absorbed),
        ),
        (
            "clustering.ns_per_vector",
            per(total("probe.clustering"), c.vectors),
        ),
        ("clustering.vectors", c.vectors as f64),
        (
            "clustering.clusters_per_window",
            per(c.clusters as f64, c.windows),
        ),
        (
            "normalize.ns_per_frag",
            per(total("probe.normalize"), c.vectors),
        ),
        (
            "heatmap.ns_per_point",
            per(total("probe.heatmap"), c.points),
        ),
        (
            "region.ns_per_window",
            per(total("probe.region"), c.windows),
        ),
        ("region.regions", c.regions as f64),
        ("detect.ns_per_window", per(total("detect"), c.windows)),
        (
            "detect.fanout_residual_frac",
            1.0 - probes / total("detect").max(1.0),
        ),
        (
            "diagnose.ns_per_region",
            per(total("diagnose"), c.diagnoses_attempted),
        ),
        ("diagnose.regions_attempted", c.diagnoses_attempted as f64),
        (
            "diagnose.diagnosed_frac",
            if c.diagnoses_attempted == 0 {
                1.0
            } else {
                c.diagnosed as f64 / c.diagnoses_attempted as f64
            },
        ),
        (
            "diagnose.region_share_of_inline",
            (total("diagnose") + total("probe.region")) / inline_wall,
        ),
        (
            "stage.overlap_speedup",
            inline_wall / pipelined.wall_ns as f64,
        ),
        ("stage.pending_max", pipelined.pending_max as f64),
        ("stage.close_p90_ms", p90),
        ("stage.close_p99_ms", p99),
        ("fleet.route_ns_per_frame", route_ns),
        ("fleet.drain_ns_per_window", drain_ns),
        ("fleet.over_budget_rejected", t.over_budget as f64),
        ("fleet.overhead_frac", overhead),
        ("fleet.overhead_mad", overhead_mad),
        ("loadgen.late_p99_ms", quantile(&late, 0.99)),
        ("pipeline.inline_ns_per_frag", inline_wall / frags),
        ("pipeline.unattributed_frac", 1.0 - attributed / inline_wall),
        (
            "pipeline.trace_overhead_frac",
            observed.wall_ns as f64 / inline_wall - 1.0,
        ),
        ("pipeline.shadow_ns_per_frag", shadow.wall_ns as f64 / frags),
        (
            "verify.failed_frac",
            tally.failed as f64 / tally.attempted as f64,
        ),
        ("verify.planted_recall", recall),
        ("verify.false_regions_per_kwin", false_per_kwin),
        (
            "verify.shadow_windows_matched_frac",
            1.0 - shadow_bad as f64 / expected_windows,
        ),
        ("verify.probe_mismatch_windows", c.probe_mismatches as f64),
        ("self.wire_ns", own("wire.decode")),
        (
            "self.server_ns",
            own("server.absorb") + own("server.sort") + own("server.view") + own("server.evict"),
        ),
        ("self.columnar_ns", own("columnar.gather")),
        ("self.detect_ns", own("detect")),
        ("self.diagnose_ns", own("diagnose")),
        ("self.window_glue_ns", own("window")),
    ];
    debug_assert_eq!(values.len(), PER_LAYER.len());

    let correct = tally.failed == 0 && c.probe_mismatches == 0 && recall >= 0.9;
    let mut facts = stream_facts(&stream);
    facts.push(("spans", shadow.tracer.spans.len() as f64));
    let result = WorkloadResult {
        name: name.to_string(),
        metrics: values,
        checks: Vec::new(),
        report_digest: digest_of(&inline.windows),
        attempted: tally.attempted,
        failed: tally.failed,
        correct,
        facts,
    };
    Some((result, shadow.tracer.to_json()))
}
