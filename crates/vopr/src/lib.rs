//! VOPR-style deterministic simulation tester for the vapro ingest
//! pipeline (the name nods to TigerBeetle's VOPR: a Viewstamped
//! Operation Replicator that earns trust by *measured* falsification
//! power, not by passing tests).
//!
//! One seeded event loop drives ranks, the wire codec, the
//! `WindowedIngestor`/`AnalysisStage` pipeline, and the `FleetIngestor`
//! through a single interleaved fault schedule (the [`plan`] module's
//! [`TransportEvent`] model). Three registries make a run auditable
//! instead of merely green:
//!
//! * **Fault points** — every server-side rejection/recovery site
//!   (`vapro_core::vopr::fault_points`) counts its executions; the
//!   report gates on ≥ 80 % of them firing, so a suite that silently
//!   stopped exercising, say, backpressure, fails loudly.
//! * **Invariants** — every correctness property is a named, counted
//!   check ([`invariant::InvariantTracker`]); required invariants must
//!   execute at least once.
//! * **Canaries** — five deliberately broken server variants compiled
//!   behind `vapro-core/vopr-canary` (skip CRC, skewed watermark,
//!   disabled dedup, over-eager eviction, out-of-order release). Each
//!   must be flagged within a bounded seed budget; the canary-mutation
//!   score is the harness's measured ability to detect real bugs and
//!   is a hard gate at 100 %.
//!
//! The centrepiece oracle is [`model::AdmissionModel`]: an independent
//! reimplementation of the admission contract that predicts every
//! delivery's outcome from transport metadata alone; the driver
//! compares prediction to observation frame by frame and the shipping
//! watermark after every push.
//!
//! Every run appends each observable event to a [`journal::Journal`];
//! the same seed must produce the same journal hash (the determinism
//! gate) and any failure prints the seed plus a copy-pasteable repro.

pub mod invariant;
pub mod journal;
pub mod model;
pub mod plan;
pub mod report;

use invariant::InvariantTracker;
use journal::Journal;
use model::{outcome_name, AdmissionModel, Delivery, Outcome};
use report::{CanaryOutcome, VoprReport};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, MutexGuard};
use plan::{
    charge_of, first_period, fleet_job_events, one_shot_reference, plan_config, plan_events,
    report_pair_identical, reports_identical, template_batch, template_frame_charge,
    FaultPlan, FleetPlan, FrameMeta, JobPlan, TransportEvent,
};
use std::collections::BTreeMap;
use vapro_core::detect::window::{windows_covering, Window};
use vapro_core::vopr::{canary, fault_points};
use vapro_core::{
    FleetConfig, FleetIngestor, FleetReport, FragmentBatch, IngestStats, JobKey, VaproConfig,
    WindowReport, WindowedIngestor, WireError,
};
use vapro_sim::VirtualTime;

/// Global run lock: fault-point counters and canary arming are
/// process-wide statics, so concurrent suites (e.g. parallel tests)
/// must serialise. Poisoning is tolerated — a panicked run already
/// recorded its failure.
static RUN_LOCK: Mutex<()> = Mutex::new(());

/// Seeds a canary hunt may spend per canary before declaring it missed.
pub const CANARY_SEED_BUDGET: u64 = 4;

/// Base seed for hunt attempts, disjoint from measurement seeds.
const HUNT_SEED_BASE: u64 = 0x5EED_1000;

/// Execution profiles: how many measurement seeds a run spends.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Profile {
    /// PR gate: small fixed seed set, runs in `make check`.
    Pr,
    /// Nightly sweep: a wider fixed seed set.
    Nightly,
    /// One-seed smoke, used by the crate's own tests.
    Quick,
}

impl Profile {
    pub fn name(self) -> &'static str {
        match self {
            Profile::Pr => "pr",
            Profile::Nightly => "nightly",
            Profile::Quick => "quick",
        }
    }

    pub fn seeds(self) -> Vec<u64> {
        match self {
            Profile::Pr => (0..3).map(|i| 0x56A9_0001 + i).collect(),
            Profile::Nightly => (0..12).map(|i| 0x56A9_1001 + i).collect(),
            Profile::Quick => vec![0x56A9_0001],
        }
    }
}

/// The copy-pasteable command replaying one seed with the verbose log.
pub fn repro_line(seed: u64) -> String {
    format!("cargo run --release -p vapro-vopr --features canary --bin vopr -- --seed {seed} -v")
}

// ---------------------------------------------------------------------
// The solo driver: one ingestor, one oracle, one interleaved schedule.

/// Scenario context threaded through every driver.
struct Cx<'a> {
    seed: u64,
    inv: &'a mut InvariantTracker,
    journal: &'a mut Journal,
    log: Option<&'a mut Vec<String>>,
}

impl Cx<'_> {
    fn note(&mut self, line: String) {
        self.journal.record(&line);
        if let Some(log) = self.log.as_deref_mut() {
            log.push(line);
        }
    }

    /// Verbose-log only — for events whose *timing* is legitimately
    /// nondeterministic (pipelined window closes surface at whichever
    /// push their analysis finishes by) even though their content and
    /// final order are not. The deterministic end-of-drive `report`
    /// lines cover the same facts for the journal.
    fn note_log_only(&mut self, line: String) {
        if let Some(log) = self.log.as_deref_mut() {
            log.push(line);
        }
    }
}

/// What one solo drive replays: a deployment, its ingest policy and a
/// transport schedule (scenarios splice their hostile or late extras
/// straight into `events`).
struct Schedule {
    nranks: usize,
    cfg: VaproConfig,
    events: Vec<TransportEvent>,
    /// One-line description of the plan behind it, printed with a
    /// violation.
    summary: String,
}

impl Schedule {
    /// A plan's own schedule at the given analysis-pipeline depth (`0` =
    /// inline analysis on the admission thread).
    fn of_plan(plan: &FaultPlan, pipeline_depth: usize) -> Schedule {
        let mut cfg = VaproConfig { pipeline_depth, ..plan_config(plan.period_ns()) };
        cfg.fault.max_buffered_bytes = plan.max_buffered_bytes;
        Schedule { nranks: plan.nranks, cfg, events: plan_events(plan), summary: plan.summary() }
    }
}

/// What one driven run produced.
struct Drive {
    reports: Vec<WindowReport>,
    delivered: u64,
    stats: IngestStats,
    /// The arena's `(resident, high-water)` bytes once the stream ended.
    arena_bytes: (u64, u64),
    /// The run aborted on a model disagreement (canary behaviour);
    /// end-of-stream checks were skipped.
    poisoned: bool,
}

/// Drive one schedule through a `WindowedIngestor`, predicting every
/// delivery with the admission oracle and checking the per-push
/// invariants. The loop aborts on the first model disagreement: once the
/// server has observably diverged from the specification (only canary
/// mutations do), its subsequent state — possibly holding garbage data —
/// is not worth simulating.
fn drive_solo(cx: &mut Cx<'_>, label: &str, run: &Schedule) -> Drive {
    let cap = run.cfg.fault.max_buffered_bytes;
    let mut ing = WindowedIngestor::new(run.nranks, 8, run.cfg.clone());
    let mut oracle = AdmissionModel::new(run.nranks, &run.cfg);

    let mut reports = Vec::new();
    let mut delivered = 0u64;
    let mut prev_watermark = 0u64;
    let mut poisoned = false;

    for event in &run.events {
        let f = match event {
            TransportEvent::Birth { rank: scheduled } => {
                let got = ing.add_rank();
                let predicted = oracle.record_birth();
                cx.inv.check(
                    "birth_registration",
                    got == *scheduled && predicted == *scheduled,
                    || format!("birth assigned rank {got}, oracle {predicted}, schedule {scheduled}"),
                );
                cx.note(format!("{label} birth rank={got}"));
                continue;
            }
            TransportEvent::Frame(f) => f,
        };
        let d = Delivery {
            rank: f.rank,
            seq: f.seq,
            window_start_ns: f.window_start_ns,
            window_end_ns: f.window_end_ns,
            charge: f.charge,
            corrupted: f.corrupted,
            malformed: f.malformed,
        };
        delivered += 1;
        let predicted = oracle.predict(&d);
        let before = ing.stats().clone();
        let (actual, closed) = match ing.push_encoded(&f.bytes) {
            Ok(closed) => {
                let after = ing.stats();
                let outcome = if after.frames_admitted > before.frames_admitted {
                    Outcome::Admitted
                } else if after.dropped_late_frames > before.dropped_late_frames {
                    Outcome::DroppedLate
                } else if after.dropped_backpressure_frames > before.dropped_backpressure_frames {
                    Outcome::DroppedBackpressure
                } else {
                    Outcome::Admitted // unaccounted accept: agreement check will flag it
                };
                (outcome, closed)
            }
            Err(WireError::BadChecksum { .. }) => (Outcome::RejectedCorrupt, Vec::new()),
            Err(WireError::DuplicateSequence { .. }) => (Outcome::RejectedDuplicate, Vec::new()),
            Err(WireError::UnknownRank { .. }) => (Outcome::RejectedUnknownRank, Vec::new()),
            Err(_) => (Outcome::RejectedMalformed, Vec::new()),
        };
        let watermark = ing.watermark_ns();
        cx.note(format!(
            "{label} frame rank={} seq={} -> {} wm={}",
            d.rank,
            d.seq,
            outcome_name(actual),
            watermark
        ));
        for r in &closed {
            cx.note_log_only(format!(
                "{label} close [{}..{}) complete={}/{}",
                r.window.start.ns(),
                r.window.end.ns(),
                r.coverage.ranks_complete,
                r.coverage.nranks
            ));
        }
        reports.extend(closed);

        cx.inv.check("model_admission_agreement", predicted == actual, || {
            format!(
                "delivery rank={} seq={} predicted {} but server {} ({})",
                d.rank,
                d.seq,
                outcome_name(predicted),
                outcome_name(actual),
                run.summary
            )
        });
        cx.inv.check("watermark_agreement", watermark == oracle.watermark_ns(), || {
            format!(
                "server watermark {} ns, oracle {} ns after rank={} seq={}",
                watermark,
                oracle.watermark_ns(),
                d.rank,
                d.seq
            )
        });
        cx.inv.check("watermark_monotone", watermark >= prev_watermark, || {
            format!("watermark regressed {prev_watermark} -> {watermark} ns")
        });
        prev_watermark = watermark;
        cx.inv.check(
            "eviction_safety",
            ing.arena().resident_bytes() <= ing.arena().high_water_bytes(),
            || {
                format!(
                    "arena resident {} above high water {}",
                    ing.arena().resident_bytes(),
                    ing.arena().high_water_bytes()
                )
            },
        );
        if let Some(cap) = cap {
            cx.inv.check("backpressure_bound", ing.buffered_ahead_bytes() <= cap, || {
                format!(
                    "buffered {} bytes ahead of the watermark with a {} byte cap",
                    ing.buffered_ahead_bytes(),
                    cap
                )
            });
        }
        if predicted != actual || watermark != oracle.watermark_ns() {
            poisoned = true;
            cx.note(format!("{label} ABORT on model disagreement"));
            break;
        }
    }

    let stats = ing.stats().clone();
    let max_seen_ns = ing.arena().max_end_ns();
    let arena_bytes = (ing.arena().resident_bytes(), ing.arena().high_water_bytes());
    if poisoned {
        // Dropping the ingestor joins the analysis stage without
        // analysing the tail — the diverged server may hold garbage
        // (e.g. admitted corrupt fragments) that is unsafe to simulate.
        return Drive { reports, delivered, stats, arena_bytes, poisoned };
    }
    reports.extend(ing.finish());

    for r in &reports {
        cx.note(format!(
            "{label} report [{}..{}) complete={}/{} dead={:?} diag={}",
            r.window.start.ns(),
            r.window.end.ns(),
            r.coverage.ranks_complete,
            r.coverage.nranks,
            r.coverage.ranks_dead,
            r.diagnoses.len()
        ));
    }

    // The emitted windows are exactly the canonical half-overlap cover
    // of the admitted data, in order.
    let expected = windows_covering(
        VirtualTime::ZERO,
        VirtualTime::from_ns(max_seen_ns),
        run.cfg.report_period,
    );
    let tiled = reports.len() == expected.len()
        && reports.iter().zip(&expected).all(|(r, w)| r.window == *w);
    cx.inv.check("window_tiling", tiled, || {
        format!(
            "{} windows closed vs {} expected for data up to {} ns ({})",
            reports.len(),
            expected.len(),
            max_seen_ns,
            run.summary
        )
    });
    // Every delivery is admitted, rejected, or a counted policy drop,
    // and what each window reports of that accounting is sound.
    let accounted = stats.frames_admitted + stats.frames_rejected();
    cx.inv.check("delivery_accounting", accounted == delivered, || {
        format!("{delivered} deliveries but {accounted} accounted: {stats}")
    });
    let births = run.events.iter().filter(|e| matches!(e, TransportEvent::Birth { .. })).count();
    cx.inv.check_result(
        "delivery_accounting",
        coverage_sound(&reports, run.nranks, run.nranks + births),
    );
    // A run that absorbed any fragment registered an arena peak.
    cx.inv.check("eviction_safety", max_seen_ns == 0 || arena_bytes.1 > 0, || {
        format!("data up to {max_seen_ns} ns absorbed but the arena high water never moved")
    });

    Drive { reports, delivered, stats, arena_bytes, poisoned }
}

/// Window-by-window sanity of the coverage a drive reported. The
/// deployment width starts at `initial` ranks, never exceeds `total`
/// (initial plus born) and never shrinks across close order; rank lists
/// and the completeness fraction stay in range; the transport counters
/// are cumulative at close time, so nondecreasing in window order.
fn coverage_sound(reports: &[WindowReport], initial: usize, total: usize) -> Result<(), String> {
    let mut prev_width = initial;
    let mut prev_counters = (0u64, 0u64, 0u64);
    for r in reports {
        let c = &r.coverage;
        if c.nranks < prev_width || c.nranks > total {
            return Err(format!(
                "coverage width {} after {prev_width}, outside [{initial}, {total}]",
                c.nranks
            ));
        }
        prev_width = c.nranks;
        if c.ranks_complete > c.nranks
            || !(0.0..=1.0).contains(&c.completeness)
            || c.ranks_absent.iter().chain(&c.ranks_dead).any(|&r| r >= c.nranks)
        {
            return Err(format!("out-of-range coverage {c:?}"));
        }
        let counters = (c.corrupt_frames, c.duplicate_frames, c.dropped_late_frames);
        if counters.0 < prev_counters.0
            || counters.1 < prev_counters.1
            || counters.2 < prev_counters.2
        {
            return Err(format!(
                "cumulative coverage counters went backwards: {counters:?} after {prev_counters:?}"
            ));
        }
        prev_counters = counters;
    }
    Ok(())
}

/// A scenario's own delivery, in the schedule's event type: `bytes` as
/// shipped by `rank` under `seq` for `window`, untouched by the transport
/// unless the scenario says it is `malformed`.
fn extra_frame(
    bytes: Vec<u8>,
    rank: usize,
    seq: u64,
    window: Window,
    malformed: bool,
) -> TransportEvent {
    let period_ns = (window.end.ns() - window.start.ns()).max(1);
    TransportEvent::Frame(FrameMeta {
        charge: if malformed { bytes.len() as u64 } else { charge_of(&bytes) },
        bytes,
        rank,
        period: (window.start.ns() / period_ns) as usize,
        seq,
        window_start_ns: window.start.ns(),
        window_end_ns: window.end.ns(),
        corrupted: false,
        retransmit: false,
        delayed: 0,
        reordered: false,
        malformed,
    })
}

/// A structurally broken (truncated) frame.
fn truncated_extra(period_ns: u64) -> TransportEvent {
    let mut bytes = template_batch(0, period_ns).encode();
    bytes.truncate(bytes.len() / 2);
    extra_frame(bytes, 0, 0, first_period(period_ns), true)
}

/// A well-formed frame claiming a rank far outside the deployment.
fn unknown_rank_extra(period_ns: u64) -> TransportEvent {
    let bytes = template_batch(250, period_ns).encode();
    extra_frame(bytes, 250, 1, first_period(period_ns), false)
}

// ---------------------------------------------------------------------
// The fleet driver: several jobs' schedules interleaved through one
// fleet plane, every job then held to its own solo drive.

/// What one fleet drive produced.
struct FleetDrive {
    /// The plane's final aggregate report.
    report: FleetReport,
    /// Frames the plane refused over their tenant's byte budget.
    over_budget: u64,
}

/// What the plane did with one job's scheduled frames.
#[derive(Clone, Default)]
struct JobTally {
    /// Frames the transport scheduled for the job.
    scheduled: u64,
    /// Frames refused over the tenant's byte budget.
    over_budget: u64,
    /// The deliveries the plane accepted for the job's ingestor.
    offered: Vec<TransportEvent>,
}

/// Drive one fleet plan end to end: every job's faulted stream
/// generated, the streams interleaved round-robin through one
/// `FleetIngestor` (tenants unlimited unless `budgets` says otherwise;
/// `prelude` may inject hostile frames ahead of the stream), all windows
/// flushed and attributed back per job.
///
/// The check is isolation by construction. The plane must refuse at
/// decode exactly the frames the transport damaged — frame by frame, as
/// the metadata predicts, all of them counted unattributed (a damaged
/// frame names no trustworthy job) — and every job's fleet output must be
/// bit-identical to a [`drive_solo`] run — oracle and per-push invariants
/// included — over the deliveries that were left, so a chaotic or starved
/// tenant can neither corrupt nor stall another.
fn drive_fleet(
    cx: &mut Cx<'_>,
    label: &str,
    plan: &FleetPlan,
    budgets: &[(u32, u64)],
    prelude: impl FnOnce(&mut Cx<'_>, &mut FleetIngestor),
) -> FleetDrive {
    let period_ns = plan.period_ns();
    let cfg = plan_config(period_ns);
    let mut fleet = FleetIngestor::new(FleetConfig {
        shards: plan.shards,
        default_nranks: 1,
        bins_per_window: 8,
        vapro: cfg.clone(),
    });
    for jp in &plan.jobs {
        let budget = budgets.iter().find(|&&(t, _)| t == jp.tenant).map_or(u64::MAX, |&(_, b)| b);
        fleet.register_tenant(jp.tenant, budget);
        fleet.register_job(jp.key(), jp.nranks, jp.tenant);
    }
    prelude(cx, &mut fleet);
    let unattributed_before = fleet.unattributed_stats().frames_rejected();

    let mut streams: Vec<_> = plan
        .jobs
        .iter()
        .map(|jp| fleet_job_events(plan, jp, period_ns).into_iter())
        .collect();
    let mut tallies = vec![JobTally::default(); plan.jobs.len()];
    let mut undecodable = 0u64;
    let mut windows = Vec::new();
    loop {
        let mut delivered_any = false;
        for (stream, tally) in streams.iter_mut().zip(&mut tallies) {
            let Some(event) = stream.next() else { continue };
            delivered_any = true;
            let TransportEvent::Frame(f) = &event else { continue };
            tally.scheduled += 1;
            let (rank, seq, damaged) = (f.rank, f.seq, f.corrupted || f.malformed);
            let refused_at_decode = match fleet.push_encoded(&f.bytes) {
                Ok(closed) => {
                    windows.extend(closed);
                    tally.offered.push(event);
                    false
                }
                Err(WireError::TenantOverBudget { tenant, .. }) => {
                    tally.over_budget += 1;
                    cx.note(format!("{label} over-budget reject tenant={tenant}"));
                    false
                }
                Err(_) => {
                    undecodable += 1;
                    true
                }
            };
            cx.inv.check("tenant_isolation", refused_at_decode == damaged, || {
                format!(
                    "{label}: frame rank={rank} seq={seq} damaged in transit: {damaged}, \
                     refused at decode: {refused_at_decode}"
                )
            });
        }
        if !delivered_any {
            break;
        }
    }
    let (report, flushed) = fleet.into_report();
    windows.extend(flushed);
    let mut by_key: BTreeMap<JobKey, Vec<WindowReport>> = BTreeMap::new();
    for w in windows {
        by_key.entry(w.key).or_default().push(w.report);
    }

    let mut over_budget = 0u64;
    for (jp, tally) in plan.jobs.iter().zip(tallies) {
        let key = jp.key();
        let reports = by_key.remove(&key).unwrap_or_default();
        let name = format!("{label} job t{}j{}", key.tenant, key.job);
        cx.note(format!(
            "{name} scheduled={} offered={} windows={}",
            tally.scheduled,
            tally.offered.len(),
            reports.len()
        ));
        for r in &reports {
            cx.note(format!(
                "{name} report [{}..{}) complete={}/{}",
                r.window.start.ns(),
                r.window.end.ns(),
                r.coverage.ranks_complete,
                r.coverage.nranks
            ));
        }
        over_budget += tally.over_budget;
        let solo_run = Schedule {
            nranks: jp.nranks,
            cfg: cfg.clone(),
            events: tally.offered,
            summary: format!("{jp:?}"),
        };
        let solo = drive_solo(cx, &format!("{name} solo"), &solo_run);
        if solo.poisoned {
            continue;
        }
        // A clean job's transport loses nothing: short of its tenant's
        // budget, every scheduled frame is admitted.
        let kept = solo.stats.frames_admitted + tally.over_budget;
        cx.inv.check("tenant_isolation", !jp.is_fault_free() || kept == tally.scheduled, || {
            format!(
                "{name}: clean job lost frames: {} scheduled, {} over budget, {} admitted",
                tally.scheduled, tally.over_budget, solo.stats.frames_admitted
            )
        });
        let isolated = job_isolated(jp, &reports, &solo, &report);
        cx.inv.check_result("tenant_isolation", isolated.map_err(|e| format!("{name}: {e}")));
    }
    // Every decode rejection is accounted to the unattributed bucket.
    let unattributed = report.unattributed.frames_rejected() - unattributed_before;
    cx.inv.check("tenant_isolation", unattributed == undecodable, || {
        format!(
            "{label}: {undecodable} decode rejections but the unattributed bucket \
             counted {unattributed}"
        )
    });
    FleetDrive { report, over_budget }
}

/// One job's side of the isolation claim: its fleet output against the
/// solo drive over the same offered deliveries.
fn job_isolated(
    jp: &JobPlan,
    fleet_reports: &[WindowReport],
    solo: &Drive,
    report: &FleetReport,
) -> Result<(), String> {
    reports_identical(fleet_reports, &solo.reports)
        .map_err(|e| format!("diverged from its solo run: {e}"))?;
    // The fleet report attributes the job with the right close count.
    let Some(summary) = report.jobs.iter().find(|j| j.key == jp.key()) else {
        return Err("missing from the fleet report".to_string());
    };
    if summary.windows_closed != fleet_reports.len() {
        return Err(format!(
            "report says {} windows closed, {} observed",
            summary.windows_closed,
            fleet_reports.len()
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Scenarios. Each exercises a distinct slice of the fault-point space;
// together they are the measurement suite run per seed.

const DEFAULT_DEPTH_LABEL: &str = "piped";

fn default_depth() -> usize {
    VaproConfig::default().pipeline_depth
}

/// Any solo plan, hostile or clean, behind a scenario's `prelude` of
/// extra deliveries: the oracle must predict every outcome, the windows
/// must tile the admitted data, and the bounded pipelined stage must
/// emit, account and reclaim exactly what inline analysis does. Returns
/// the pipelined drive unless a model disagreement aborted it.
fn solo_plan(cx: &mut Cx<'_>, plan: &FaultPlan, prelude: &[TransportEvent]) -> Option<Drive> {
    let schedule = |depth| {
        let mut run = Schedule::of_plan(plan, depth);
        run.events.splice(0..0, prelude.iter().cloned());
        run
    };
    let piped = drive_solo(cx, DEFAULT_DEPTH_LABEL, &schedule(default_depth()));
    if piped.poisoned {
        return None;
    }
    let inline = drive_solo(cx, "inline", &schedule(0));
    cx.inv.check_result(
        "pipeline_inline_equivalence",
        reports_identical(&piped.reports, &inline.reports),
    );
    // Sealing snapshots windows out of the arena, so the accounting and
    // the resident/high-water bytes are independent of where analysis
    // runs.
    cx.inv.check(
        "pipeline_inline_equivalence",
        piped.stats == inline.stats && piped.arena_bytes == inline.arena_bytes,
        || {
            format!(
                "pipelined accounting [{}] arena {:?} vs inline [{}] arena {:?}",
                piped.stats, piped.arena_bytes, inline.stats, inline.arena_bytes
            )
        },
    );
    Some(piped)
}

/// `clean_no_loss`: a clean transport admits every delivery.
fn check_no_loss(cx: &mut Cx<'_>, drive: &Drive) {
    cx.inv.check("clean_no_loss", drive.stats.frames_admitted == drive.delivered, || {
        format!(
            "clean plan lost frames: {} delivered, {} admitted",
            drive.delivered, drive.stats.frames_admitted
        )
    });
}

/// Clean transport: on top of [`solo_plan`], the stream is bit-identical
/// to the one-shot analysis and nothing is lost.
fn clean_solo(cx: &mut Cx<'_>) {
    let plan = FaultPlan::fault_free(cx.seed);
    let Some(piped) = solo_plan(cx, &plan, &[]) else { return };
    cx.inv.check_result(
        "stream_one_shot_identity",
        reports_identical(&piped.reports, &one_shot_reference(&plan)),
    );
    check_no_loss(cx, &piped);
}

/// Hostile transport: every fault axis at once plus structurally broken
/// and unknown-rank extras.
fn hostile_solo(cx: &mut Cx<'_>) {
    let mut plan = FaultPlan::random(cx.seed);
    plan.drop = plan.drop.max(0.1);
    plan.duplicate = plan.duplicate.max(0.25);
    plan.reorder = plan.reorder.max(0.3);
    plan.corrupt = plan.corrupt.max(0.2);
    plan.delay = plan.delay.max(0.15);
    if plan.deaths.is_empty() {
        plan.deaths = vec![(0, 1)];
    }
    let period_ns = plan.period_ns();
    solo_plan(cx, &plan, &[truncated_extra(period_ns), unknown_rank_extra(period_ns)]);
}

/// Zombie rank: a rank dies mid-run, is latched dead, and then its
/// stale frames arrive *after* the latch — they must be acknowledged
/// but dropped, exactly as the oracle predicts.
fn zombie_solo(cx: &mut Cx<'_>) {
    let dead_rank = 1usize;
    let last_period = 1usize;
    let plan =
        FaultPlan { deaths: vec![(dead_rank, last_period)], ..FaultPlan::fault_free(cx.seed) };
    let period_ns = plan.period_ns();
    let stgs = plan.stgs();
    const LATE_FRAMES: u64 = 2;
    let mut run = Schedule::of_plan(&plan, default_depth());
    run.events.extend((1..=LATE_FRAMES).map(|i| {
        let k = last_period as u64 + i;
        let window = Window {
            start: VirtualTime::from_ns(k * period_ns),
            end: VirtualTime::from_ns((k + 1) * period_ns),
        };
        let bytes = FragmentBatch::from_stg_starting_in(&stgs[dead_rank], dead_rank, window)
            .with_seq(k + 1)
            .encode();
        extra_frame(bytes, dead_rank, k + 1, window, false)
    }));
    let drive = drive_solo(cx, DEFAULT_DEPTH_LABEL, &run);
    if drive.poisoned {
        return;
    }
    let dropped_late = drive.stats.dropped_late_frames;
    cx.inv.check("late_data_dropped", dropped_late >= LATE_FRAMES, || {
        format!(
            "{LATE_FRAMES} late zombie frames delivered but only {dropped_late} dropped under \
             the late policy"
        )
    });
}

/// Backpressure: a small ahead-of-watermark byte cap under heavy delay
/// and reorder must shed frames — and the buffered bytes must never
/// exceed the cap at any push.
fn backpressure_solo(cx: &mut Cx<'_>) {
    let mut plan = FaultPlan { reorder: 0.7, delay: 0.6, ..FaultPlan::fault_free(cx.seed) };
    // Room for about one frame ahead of the watermark, whatever
    // admission charges a frame.
    plan.max_buffered_bytes = Some(template_frame_charge(plan.period_ns()));
    let run = Schedule::of_plan(&plan, default_depth());
    let drive = drive_solo(cx, DEFAULT_DEPTH_LABEL, &run);
    if drive.poisoned {
        return;
    }
    cx.inv.check("backpressure_engaged", drive.stats.dropped_backpressure_frames > 0, || {
        "the byte cap never shed a frame; shrink the cap or raise the delay axis".to_string()
    });
}

/// Elastic membership: a rank born mid-stream, on an otherwise clean
/// transport, widens coverage exactly once and perturbs nothing from
/// its join point on. Every window starting at or after the birth must
/// be bit-identical — detection, diagnoses and coverage — to a
/// reference drive where the same rank was a (silent) member from the
/// start, shipping the exact same frames. Windows closing entirely
/// before the birth may legitimately differ in deployment width (that
/// is the elastic-membership contract), which is why the comparison is
/// anchored at the birth boundary rather than window zero. The birth
/// lands within the dead horizon (4 periods), so the silent member of
/// the reference is never latched dead.
fn birth_solo(cx: &mut Cx<'_>) {
    let first = 1 + (cx.seed % 3) as usize;
    let plan = FaultPlan { births: vec![first], ..FaultPlan::fault_free(cx.seed) };
    let born_run = Schedule::of_plan(&plan, default_depth());
    let born = drive_solo(cx, DEFAULT_DEPTH_LABEL, &born_run);
    if born.poisoned {
        return;
    }
    check_no_loss(cx, &born);
    let mut member_run = born_run;
    member_run.nranks = plan.total_ranks();
    member_run.events.retain(|e| matches!(e, TransportEvent::Frame(_)));
    let member = drive_solo(cx, "member", &member_run);
    if member.poisoned {
        return;
    }
    let birth_ns = first as u64 * plan.period_ns();
    cx.inv.check_result(
        "birth_equivalence",
        post_birth_identical(&born.reports, &member.reports, birth_ns, plan.total_ranks()),
    );
    let widened = born.reports.last().is_some_and(|r| r.coverage.nranks == plan.total_ranks());
    cx.inv.check("birth_widening", widened, || {
        format!(
            "final window closed at width {:?}, expected {}",
            born.reports.last().map(|r| r.coverage.nranks),
            plan.total_ranks()
        )
    });
}

/// Every window starting at or after `birth_ns` is identical between the
/// born run and the always-a-member reference, at full width.
fn post_birth_identical(
    born: &[WindowReport],
    member: &[WindowReport],
    birth_ns: u64,
    total_ranks: usize,
) -> Result<(), String> {
    if born.len() != member.len() {
        return Err(format!(
            "born run closed {} windows, always-present reference closed {}",
            born.len(),
            member.len()
        ));
    }
    let mut compared = 0usize;
    for (g, w) in born.iter().zip(member).filter(|(g, _)| g.window.start.ns() >= birth_ns) {
        compared += 1;
        if g.coverage.nranks != total_ranks {
            return Err(format!(
                "post-birth window {:?} closed with width {} (expected {total_ranks})",
                g.window, g.coverage.nranks
            ));
        }
        report_pair_identical(g, w)
            .map_err(|e| format!("born run diverged from always-present reference: {e}"))?;
    }
    if compared == 0 {
        return Err("no post-birth windows to compare; grow the plan's periods".to_string());
    }
    Ok(())
}

/// Clean fleet: several tenants through the fleet plane, each job
/// bit-identical to its solo run.
fn clean_fleet(cx: &mut Cx<'_>) {
    let plan = FleetPlan::fault_free(cx.seed, 3);
    drive_fleet(cx, "clean_fleet", &plan, &[], |_, _| {});
}

/// Hostile fleet: random per-job fault mixes (job 0 clean); isolation
/// must hold regardless.
fn hostile_fleet(cx: &mut Cx<'_>) {
    let plan = FleetPlan::random(cx.seed);
    drive_fleet(cx, "hostile_fleet", &plan, &[], |_, _| {});
}

/// Tenant budgets: a starved tenant's frames are rejected over budget,
/// an unregistered tenant is rejected outright, structural garbage
/// lands in the unattributed bucket — and every job's output, the
/// well-budgeted tenant's above all, stays bit-identical to a solo run
/// over the frames the plane let through.
fn budget_fleet(cx: &mut Cx<'_>) {
    const STARVED: u32 = 2;
    let plan = FleetPlan {
        seed: cx.seed,
        shards: 2,
        periods: 6,
        jobs: vec![JobPlan::clean(1, 0), JobPlan::clean(STARVED, 1)],
    };
    let period_ns = plan.period_ns();
    // plan_config sets no `max_buffered_bytes`, so the jobs hold nothing
    // ahead of their watermarks and the budget caps the single frame;
    // the starved tenant ships frames above its budget of half a
    // template frame.
    let budget = template_frame_charge(period_ns) / 2;
    let drive = drive_fleet(cx, "budget_fleet", &plan, &[(STARVED, budget)], |cx, fleet| {
        // Hostile injections: an unregistered tenant and a truncated frame.
        let ghost = template_batch(0, period_ns).with_job(99, 0).encode();
        let ghost_rejected =
            matches!(fleet.push_encoded(&ghost), Err(WireError::UnknownTenant { .. }));
        cx.inv.check("unknown_tenant_rejected", ghost_rejected, || {
            "a frame from unregistered tenant 99 was not rejected as UnknownTenant".to_string()
        });
        let truncated_rejected = fleet.push_encoded(&ghost[..ghost.len() / 2]).is_err();
        cx.inv.check("structural_garbage_rejected", truncated_rejected, || {
            "a truncated frame was accepted by the fleet plane".to_string()
        });
    });
    let counted = drive
        .report
        .tenants
        .iter()
        .find(|t| t.tenant == STARVED)
        .map(|t| t.stats.over_budget_frames);
    cx.inv.check(
        "budget_enforced",
        drive.over_budget > 0 && counted == Some(drive.over_budget),
        || {
            format!(
                "expected over-budget rejections on tenant {STARVED}, saw {} (stats {counted:?})",
                drive.over_budget
            )
        },
    );
    let unattributed = &drive.report.unattributed;
    cx.inv.check(
        "structural_garbage_unattributed",
        unattributed.malformed_frames >= 1 && unattributed.unknown_tenant_frames >= 1,
        || format!("unattributed bucket did not absorb the injections: {unattributed}"),
    );
}

// ---------------------------------------------------------------------
// Suite orchestration.

type Scenario = (&'static str, fn(&mut Cx<'_>));

/// Every measurement scenario, in a fixed order (the journal depends on
/// it).
const SCENARIOS: &[Scenario] = &[
    ("clean_solo", clean_solo),
    ("hostile_solo", hostile_solo),
    ("zombie_solo", zombie_solo),
    ("backpressure_solo", backpressure_solo),
    ("birth_solo", birth_solo),
    ("clean_fleet", clean_fleet),
    ("hostile_fleet", hostile_fleet),
    ("budget_fleet", budget_fleet),
];

/// One suite run over one seed: its tracker and journal.
pub struct SuiteRun {
    pub seed: u64,
    pub tracker: InvariantTracker,
    pub journal: Journal,
}

impl SuiteRun {
    fn new(seed: u64) -> SuiteRun {
        SuiteRun { seed, tracker: InvariantTracker::new(), journal: Journal::new() }
    }

    /// Run one scenario body. A panic inside it is caught and recorded
    /// as a `no_panic` violation (deterministic harnesses never panic;
    /// canary mutations may).
    fn scenario(
        &mut self,
        name: &'static str,
        log: Option<&mut Vec<String>>,
        body: impl FnOnce(&mut Cx<'_>),
    ) {
        self.journal.record(name);
        self.tracker.enter(name, self.seed);
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            body(&mut Cx {
                seed: self.seed,
                inv: &mut self.tracker,
                journal: &mut self.journal,
                log,
            });
        }))
        .is_err();
        if panicked {
            self.tracker.record_panic(name, self.seed, "scenario panicked".to_string());
            self.journal.record("PANIC");
        }
    }
}

/// Run the named scenarios (all of them for `None`) against one seed.
fn run_scenarios(seed: u64, only: Option<&[&str]>, mut log: Option<&mut Vec<String>>) -> SuiteRun {
    let mut run = SuiteRun::new(seed);
    for &(name, scenario) in SCENARIOS {
        if only.is_none_or(|names| names.contains(&name)) {
            run.scenario(name, log.as_deref_mut(), scenario);
        }
    }
    run
}

/// Run every scenario against one seed.
pub fn run_suite(seed: u64, log: Option<&mut Vec<String>>) -> SuiteRun {
    run_scenarios(seed, None, log)
}

/// Hold one arbitrary solo plan to the solo driver's invariants: oracle
/// agreement on every push, window tiling, delivery accounting, and
/// pipelined ≡ inline analysis.
pub fn check_solo_plan(plan: &FaultPlan) -> SuiteRun {
    let mut run = SuiteRun::new(plan.seed);
    run.scenario("solo_plan", None, |cx| {
        solo_plan(cx, plan, &[]);
    });
    run
}

/// Hold one arbitrary fleet plan to the fleet driver's isolation
/// invariant (and, through each job's solo reference, to the solo ones).
pub fn check_fleet_plan(plan: &FleetPlan) -> SuiteRun {
    let mut run = SuiteRun::new(plan.seed);
    run.scenario("fleet_plan", None, |cx| {
        drive_fleet(cx, "fleet_plan", plan, &[], |_, _| {});
    });
    run
}

fn lock_run() -> MutexGuard<'static, ()> {
    RUN_LOCK.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Run `f` holding the global run lock — for integration tests that
/// drive the suite directly and must not race another suite's
/// fault-point counters or canary arming.
pub fn with_run_lock<T>(f: impl FnOnce() -> T) -> T {
    let _guard = lock_run();
    f()
}

/// Hunt one canary: arm it, replay the catching scenarios over a
/// bounded seed budget, and report whether any run flagged it (a
/// violation or a panic both count — the harness noticed).
fn hunt_canary(c: canary::Canary) -> CanaryOutcome {
    let mut attempts = 0u64;
    let mut caught = false;
    for i in 0..CANARY_SEED_BUDGET {
        attempts += 1;
        canary::arm(Some(c));
        let flagged = catch_unwind(AssertUnwindSafe(|| {
            let run =
                run_scenarios(HUNT_SEED_BASE + i, Some(&["clean_solo", "hostile_solo"]), None);
            !run.tracker.violations().is_empty()
        }))
        .unwrap_or(true);
        canary::arm(None);
        if flagged {
            caught = true;
            break;
        }
    }
    CanaryOutcome { name: canary::name(c), caught, attempts }
}

/// Run the full VOPR suite: measurement seeds, fault-point coverage,
/// the determinism double-run, and (on canary builds) the canary hunt.
/// The returned report carries everything the gates need.
pub fn run_vopr(profile: Profile, seeds: Option<Vec<u64>>, mut log: Option<&mut Vec<String>>) -> VoprReport {
    let _guard = lock_run();
    let seeds = seeds.unwrap_or_else(|| profile.seeds());

    canary::arm(None);
    fault_points::reset();

    let mut merged = InvariantTracker::new();
    let mut first_journal: Option<Journal> = None;
    for &seed in &seeds {
        let run = run_suite(seed, log.as_deref_mut());
        if first_journal.is_none() {
            first_journal = Some(run.journal);
        }
        merged.merge(run.tracker);
    }
    let hits = fault_points::snapshot();

    // Determinism: replaying the first seed must reproduce its journal
    // hash and event count exactly.
    let (journal_hash, journal_events, determinism_ok) = match (seeds.first(), first_journal) {
        (Some(&seed), Some(first)) => {
            let replay = run_suite(seed, None);
            (
                first.hash(),
                first.events(),
                replay.journal.hash() == first.hash()
                    && replay.journal.events() == first.events(),
            )
        }
        _ => (0, 0, true),
    };

    // The canary hunt runs after measurement so armed mutations cannot
    // pollute the coverage counters above.
    let canaries: Option<Vec<CanaryOutcome>> = if canary::compiled() {
        Some(canary::CANARIES.iter().map(|&c| hunt_canary(c)).collect())
    } else {
        None
    };

    VoprReport::assemble(
        profile.name(),
        &seeds,
        &hits,
        &merged,
        journal_hash,
        journal_events,
        determinism_ok,
        canaries,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full measurement suite over one seed: no violations, every
    /// required invariant executed, high fault-point coverage.
    #[test]
    fn quick_profile_passes_every_gate_available_without_canaries() {
        let report = run_vopr(Profile::Quick, None, None);
        assert!(
            report.violations.is_empty(),
            "violations: {:#?}",
            report.violations
        );
        assert!(report.missing_required.is_empty(), "never executed: {:?}", report.missing_required);
        assert!(report.determinism_ok, "same seed produced different journals");
        assert!(
            report.coverage >= 0.8,
            "fault-point coverage {:.2} below 0.8: {:?}",
            report.coverage,
            report.fault_points
        );
    }
}
