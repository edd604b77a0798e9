//! Driving the program: closed-loop and open-loop passes over a
//! generated stream, the outside-in window-close clock, output
//! verification against the plan, and the shadow replay that feeds the
//! per-layer table.

use crate::gen::{FrameKind, Stream};
use crate::layers::{
    FleetSpec, Program, ProgramSpec, ShadowCounts, ShadowJob, Totals, WindowFacts,
};
use crate::trace::{median, quantile, Tracer, NONE};
use std::collections::BTreeMap;
use std::time::Instant;

/// How one pass drives the program.
#[derive(Debug, Clone, Copy, Default)]
pub struct PassMode {
    /// `pipeline_depth: 0` instead of the default stage.
    pub inline: bool,
    /// Open loop at this many unique fragments per second; `None` is the
    /// closed loop (next frame as soon as the previous push returned).
    pub rate: Option<f64>,
    /// Time every push and watch the pending-window gauge (trace runs).
    pub observe_pushes: bool,
}

/// Everything one pass observed, from outside the program.
#[derive(Debug, Default)]
pub struct Pass {
    /// First push to the return of `finish`, ns.
    pub wall_ns: u64,
    /// When `finish` was called, ns since the first push.
    pub finish_ns: u64,
    /// Window facts in emission order.
    pub windows: Vec<WindowFacts>,
    /// Per window: when the call that returned it returned, ns.
    pub emit_ns: Vec<u64>,
    /// Per window: the frame whose push returned it, or the last frame
    /// pushed before the poll that did ([`NONE`]: `finish`).
    pub emitted_at: Vec<u32>,
    /// Per frame: did its fragments enter an arena?
    pub absorbed: Vec<bool>,
    /// Frames whose outcome differs from the plan's.
    pub bad_outcomes: u64,
    /// End-of-stream accounting.
    pub totals: Totals,
    /// Open loop: per frame, how late the generator sent it, ns.
    pub late_ns: Vec<u64>,
    /// Observed passes: per frame push wall, ns.
    pub push_ns: Vec<u64>,
    /// Observed passes: the largest pending gauge seen after a push.
    pub pending_max: u64,
}

/// Open loop: the waiting client polls for reports this often, ns. Each
/// poll takes the stage's lock, which its workers need too.
const POLL_EVERY_NS: u64 = 5_000;

/// The program a stream is meant for.
pub fn program_spec(stream: &Stream, inline: bool) -> ProgramSpec {
    let p = &stream.params;
    ProgramSpec {
        period_ns: stream.period_ns,
        inline,
        production_faults: p.faulty,
        ranks: p.ranks,
        fleet: (p.tenants > 0).then(|| FleetSpec {
            shards: p.shards,
            tenants: stream.tenants.clone(),
            jobs: stream
                .jobs
                .iter()
                .map(|j| (j.tenant, j.id, j.ranks, j.node))
                .collect(),
        }),
    }
}

/// Push every frame in shipping order, then finish. One generator
/// thread; the program's own workers stay at their defaults.
pub fn run_pass(stream: &Stream, mode: PassMode) -> Pass {
    let mut program = Program::new(&program_spec(stream, mode.inline));
    let mut pass = Pass::default();
    pass.absorbed.reserve(stream.frames.len());
    let mut fresh: Vec<WindowFacts> = Vec::new();
    let mut frags_before = 0u64;
    let t0 = Instant::now();
    let now_ns = || t0.elapsed().as_nanos() as u64;
    let mut next_poll = 0u64;
    for (i, f) in stream.frames.iter().enumerate() {
        if let Some(rate) = mode.rate {
            let due = (frags_before as f64 / rate * 1e9) as u64;
            let mut now = now_ns();
            while now < due {
                // While it waits, the client also polls for the windows
                // in flight, so a report is clocked when it is ready
                // and not at the next frame's push.
                if now >= next_poll && program.pending() > 0 {
                    program.poll(&mut fresh);
                    next_poll = now + POLL_EVERY_NS;
                    for w in fresh.drain(..) {
                        pass.emit_ns.push(now_ns());
                        pass.emitted_at.push(i.saturating_sub(1) as u32);
                        pass.windows.push(w);
                    }
                }
                std::hint::spin_loop();
                now = now_ns();
            }
            pass.late_ns.push(now - due);
        }
        let pushed_at = mode.observe_pushes.then(Instant::now);
        let (outcome, absorbed) = program.push(&f.bytes, f.frags, &mut fresh);
        if mode.rate.is_some() {
            program.poll(&mut fresh);
        }
        if let Some(t) = pushed_at {
            pass.push_ns.push(t.elapsed().as_nanos() as u64);
            pass.pending_max = pass.pending_max.max(program.pending());
        }
        pass.bad_outcomes += (outcome != f.kind.expected()) as u64;
        pass.absorbed.push(absorbed);
        if !fresh.is_empty() {
            let now = now_ns();
            for w in fresh.drain(..) {
                pass.emit_ns.push(now);
                pass.emitted_at.push(i as u32);
                pass.windows.push(w);
            }
        }
        frags_before += f.frags as u64;
    }
    pass.finish_ns = now_ns();
    pass.totals = program.finish(&mut fresh);
    pass.wall_ns = now_ns();
    for w in fresh {
        pass.emit_ns.push(pass.wall_ns);
        pass.emitted_at.push(NONE);
        pass.windows.push(w);
    }
    pass
}

/// Per job, the windows in emission order.
fn by_job<'a>(stream: &Stream, windows: &'a [WindowFacts]) -> Vec<Vec<&'a WindowFacts>> {
    let mut out: Vec<Vec<&WindowFacts>> = vec![Vec::new(); stream.jobs.len()];
    for w in windows {
        if let Some(job) = out.get_mut(w.job) {
            job.push(w);
        }
    }
    out
}

/// Frames of a pass that failed: outcomes that differ from the one the
/// plan makes certain, plus every frame the end-of-stream accounting
/// cannot place (admitted + rejected + dropped must equal offered;
/// duplicate and budget rejections must match the plan's counts).
pub fn failed_frames(stream: &Stream, pass: &Pass) -> u64 {
    let t = &pass.totals;
    let count = |k: FrameKind| stream.frames.iter().filter(|f| f.kind == k).count() as u64;
    pass.bad_outcomes
        + (t.admitted + t.rejected + t.dropped).abs_diff(stream.frames.len() as u64)
        + t.duplicates.abs_diff(count(FrameKind::Duplicate))
        + t.over_budget.abs_diff(count(FrameKind::Burst))
}

/// Windows that failed: each job must close exactly the expected cover,
/// in order, and every window's analysis digest (for real passes also
/// its transport digest) must equal the reference's.
pub fn failed_windows(
    stream: &Stream,
    windows: &[WindowFacts],
    reference: Option<&[WindowFacts]>,
    compare_transport: bool,
) -> u64 {
    let got = by_job(stream, windows);
    let want = reference.map(|r| by_job(stream, r));
    let mut failed = 0u64;
    for (job, emitted) in got.iter().enumerate() {
        let expected = stream.due_frame[job].len();
        failed += emitted.len().abs_diff(expected) as u64;
        for (k, w) in emitted.iter().enumerate().take(expected) {
            let bounds_ok = (w.start_ns, w.end_ns) == stream.window(k);
            let digest_ok = want.as_ref().is_none_or(|want| {
                want[job].get(k).is_some_and(|r| {
                    r.analysis == w.analysis && (!compare_transport || r.transport == w.transport)
                })
            });
            failed += !(bounds_ok && digest_ok) as u64;
        }
    }
    failed
}

/// Planted-noise scoring of one pass: `(recall, false regions per 1000
/// windows, regions found)`. A rectangle is recalled when a computation
/// region of some window overlaps it; a region of any category that
/// overlaps no rectangle is false.
pub fn score_planted(stream: &Stream, windows: &[WindowFacts]) -> (f64, f64, u64) {
    let mut hit = vec![false; stream.rects.len()];
    let (mut false_regions, mut regions) = (0u64, 0u64);
    for w in windows {
        for r in &w.regions {
            regions += 1;
            let mut any = false;
            for (rect, hit) in stream.rects.iter().zip(hit.iter_mut()) {
                if rect.overlaps(w.job, r.ranks, r.t0, r.t1) {
                    any = true;
                    *hit |= r.computation;
                }
            }
            false_regions += !any as u64;
        }
    }
    let recall = if hit.is_empty() {
        1.0
    } else {
        hit.iter().filter(|h| **h).count() as f64 / hit.len() as f64
    };
    (
        recall,
        false_regions as f64 * 1000.0 / windows.len().max(1) as f64,
        regions,
    )
}

/// Window-close latencies of an open-loop pass, ms, clocked from
/// outside: a window is due when the frame that raised the
/// generator-side low watermark to its end was due (the `finish` call
/// for tail windows), and emitted when the call that returned its report
/// returned. Windows past the expected cover are skipped (they already
/// count as failures).
pub fn close_latencies_ms(stream: &Stream, pass: &Pass, rate: f64) -> Vec<f64> {
    let mut due_ns = Vec::with_capacity(stream.frames.len());
    let mut frags_before = 0u64;
    for f in &stream.frames {
        due_ns.push((frags_before as f64 / rate * 1e9) as u64);
        frags_before += f.frags as u64;
    }
    let mut next = vec![0usize; stream.jobs.len()];
    let mut out = Vec::with_capacity(pass.windows.len());
    for (w, &emit) in pass.windows.iter().zip(&pass.emit_ns) {
        let k = next[w.job];
        next[w.job] += 1;
        let Some(due) = stream.due_frame[w.job].get(k) else {
            continue;
        };
        let due = due.map_or(pass.finish_ns, |i| due_ns[i as usize]);
        out.push(emit.saturating_sub(due) as f64 / 1e6);
    }
    out
}

/// An open-loop pass is sustainable when latency does not grow over the
/// run: the last quarter's median stays within twice the second
/// quarter's (or under 10 ms outright — medians of a few hundred
/// microseconds double on scheduler noise alone).
pub fn sustainable(latencies_ms: &[f64]) -> bool {
    let n = latencies_ms.len();
    if n < 8 {
        return true;
    }
    let q2 = median(&latencies_ms[n / 4..n / 2]);
    let q4 = median(&latencies_ms[3 * n / 4..]);
    q4 <= 2.0 * q2 || q4 <= 10.0
}

/// The result of a shadow replay.
pub struct Shadow {
    /// Every span recorded.
    pub tracer: Tracer,
    /// Facts of every window closed, grouped by job then window order.
    pub windows: Vec<WindowFacts>,
    /// Work counts over all jobs.
    pub counts: ShadowCounts,
    /// Corrupt frames the decoder rejected / corrupt frames offered.
    pub corrupt: (u64, u64),
    /// Wall time of the replay, ns.
    pub wall_ns: u64,
}

/// The state of a replay in progress.
struct Replay<'a> {
    stream: &'a Stream,
    reference: &'a Pass,
    jobs: Vec<ShadowJob>,
    /// Per job, the next window of its cover.
    next_window: Vec<usize>,
    /// The next reference window whose close has not been replayed.
    cursor: usize,
    out: Shadow,
}

impl Replay<'_> {
    /// Close the windows the reference pass emitted at frame `at`
    /// ([`NONE`]: at `finish`): per job one maintenance sort, the
    /// windows in order, one eviction.
    fn close_emitted_at(&mut self, at: u32) {
        let mut closing: BTreeMap<usize, usize> = BTreeMap::new();
        while self.reference.emitted_at.get(self.cursor) == Some(&at) {
            *closing
                .entry(self.reference.windows[self.cursor].job)
                .or_insert(0) += 1;
            self.cursor += 1;
        }
        let Shadow {
            tracer,
            windows,
            counts,
            ..
        } = &mut self.out;
        for (job, n) in closing {
            let Some(shadow) = self.jobs.get_mut(job) else {
                continue;
            };
            shadow.sort(tracer);
            for _ in 0..n {
                let bounds = self.stream.window(self.next_window[job]);
                self.next_window[job] += 1;
                let id = windows.len() as u32;
                windows.push(shadow.close_window(bounds, id, counts, tracer));
            }
            shadow.evict(
                self.next_window[job] as u64 * (self.stream.period_ns / 2),
                tracer,
            );
        }
    }
}

/// Walk the stream through the public building blocks, following the
/// reference (inline) pass's schedule: a frame is absorbed when the
/// program absorbed it, and a window is closed at the frame whose push
/// returned it.
pub fn shadow_replay(stream: &Stream, reference: &Pass) -> Shadow {
    let spec = program_spec(stream, true);
    let mut replay = Replay {
        stream,
        reference,
        jobs: stream
            .jobs
            .iter()
            .enumerate()
            .map(|(j, job)| ShadowJob::new(j, job.ranks, &spec))
            .collect(),
        next_window: vec![0; stream.jobs.len()],
        cursor: 0,
        out: Shadow {
            tracer: Tracer::new(),
            windows: Vec::with_capacity(reference.windows.len()),
            counts: ShadowCounts::default(),
            corrupt: (0, 0),
            wall_ns: 0,
        },
    };
    let t0 = Instant::now();
    for (i, f) in stream.frames.iter().enumerate() {
        let decoded = crate::layers::decode_traced(&f.bytes, &mut replay.out.tracer);
        if f.kind == FrameKind::Corrupt {
            replay.out.corrupt.1 += 1;
            replay.out.corrupt.0 += decoded.is_err() as u64;
        }
        if let (Ok(batch), true) = (decoded, reference.absorbed[i]) {
            if let Some(shadow) = replay.jobs.get_mut(f.job) {
                shadow.absorb(batch, &mut replay.out.counts, &mut replay.out.tracer);
            }
        }
        replay.close_emitted_at(i as u32);
    }
    replay.close_emitted_at(NONE);
    let mut out = replay.out;
    out.wall_ns = t0.elapsed().as_nanos() as u64;
    out.windows.sort_by_key(|w| (w.job, w.start_ns));
    out
}

/// Each job's clean frames through its own bare `WindowedIngestor`, one
/// after the other: the solo side of the fleet-overhead pairs. Returns
/// the summed wall, ns.
pub fn solo_jobs_wall_ns(stream: &Stream) -> u64 {
    let mut total = 0u64;
    for (j, job) in stream.jobs.iter().enumerate() {
        let spec = ProgramSpec {
            ranks: job.ranks,
            fleet: None,
            ..program_spec(stream, false)
        };
        let mut program = Program::new(&spec);
        let mut sink = Vec::new();
        let t0 = Instant::now();
        for f in stream
            .frames
            .iter()
            .filter(|f| f.job == j && f.kind == FrameKind::Clean)
        {
            program.push(&f.bytes, f.frags, &mut sink);
            sink.clear();
        }
        program.finish(&mut sink);
        total += t0.elapsed().as_nanos() as u64;
    }
    total
}

/// p50 / p90 / p99 of a latency sample, ms.
pub fn percentiles(latencies_ms: &[f64]) -> (f64, f64, f64) {
    (
        quantile(latencies_ms, 0.5),
        quantile(latencies_ms, 0.9),
        quantile(latencies_ms, 0.99),
    )
}
