//! The multi-tenant fleet ingest plane.
//!
//! One [`crate::detect::ingestor::WindowedIngestor`] serves exactly one
//! job. Production monitoring serves a *fleet*: thousands of jobs across
//! many tenants, all shipping frames (see [`crate::wire`]) into one
//! plane. The [`FleetIngestor`] is a router with an admission check in
//! front, not a scheduler of its own:
//!
//! * **Routing** — each decoded frame carries a `(tenant_id, job_id)`
//!   stamp and goes straight into that job's ingestor, on the calling
//!   thread, in arrival order. A window that frame makes due is sealed
//!   by the same push; when and where it is analysed is the job's
//!   analysis stage's business (`detect/stage.rs`), as for a bare
//!   ingestor. The push returns its job's reports plus whatever other
//!   jobs' stages finished since — no finished report stays parked.
//! * **Admission** — every tenant is registered with a byte budget
//!   extending the per-ingestor `max_buffered_bytes` cap to the plane.
//!   A tenant is charged what its jobs hold ahead of their watermarks;
//!   a frame that would push that charge, plus its own
//!   [`frame_charge`], past the budget is rejected with a structured
//!   [`WireError::TenantOverBudget`], counted in that tenant's
//!   [`IngestStats`] — and *only* that tenant's: a noisy or over-budget
//!   tenant can never stall another tenant's windows. (Jobs record
//!   ahead-of-watermark bytes only under a `max_buffered_bytes` cap;
//!   without one the charge is zero and the budget caps the size of a
//!   single frame.)
//!
//! A single-job fleet is a bare `WindowedIngestor` push for push: the
//! per-job ingestor is exactly the single-job code path, fed the same
//! frame (property-tested in `tests/fleet_equivalence.rs`).
//!
//! [`FleetIngestor::into_report`] returns a [`FleetReport`]: per-job window
//! counts and stats, per-tenant admission stats, and a first cross-job
//! **interference pass** — jobs placed on the same simulated node whose
//! detected variance regions overlap in time are reported as candidate
//! noisy-neighbour pairs, the fleet-level analogue of the paper's
//! variance-source attribution.

use crate::config::VaproConfig;
use crate::detect::admission::{frame_charge, IngestStats};
use crate::detect::ingestor::{WindowReport, WindowedIngestor};
use crate::wire::{FrameHeader, FrameView, WireError, DEFAULT_TENANT};
use rayon::prelude::*;
use std::collections::BTreeMap;

/// Identity of one monitored job: the `(tenant_id, job_id)` pair every
/// frame carries. Unstamped batches carry the all-default key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobKey {
    /// Owning tenant.
    pub tenant: u32,
    /// Job within the tenant.
    pub job: u32,
}

impl JobKey {
    /// The key every unstamped frame routes to.
    pub fn default_job() -> JobKey {
        JobKey { tenant: DEFAULT_TENANT, job: crate::wire::DEFAULT_JOB }
    }

    /// The routing key a frame header carries.
    pub fn of(frame: &FrameHeader) -> JobKey {
        JobKey { tenant: frame.tenant_id, job: frame.job_id }
    }
}

/// Fleet-plane configuration. Plain fields; start from [`FleetConfig::new`].
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Simulated nodes that jobs first seen on the wire are spread over
    /// ([`FleetIngestor::shard_of`]); explicitly registered jobs name
    /// their own node. Routing does not depend on it.
    pub shards: usize,
    /// Rank count for jobs first seen on the wire (explicitly registered
    /// jobs carry their own).
    pub default_nranks: usize,
    /// Heat-map bins per analysis window, passed to every job ingestor.
    pub bins_per_window: usize,
    /// The per-job analysis configuration (report period, diagnosis
    /// depth, fault-tolerance policy).
    pub vapro: VaproConfig,
}

impl FleetConfig {
    /// The drop-in replacement for one bare `WindowedIngestor`.
    pub fn new(vapro: VaproConfig) -> FleetConfig {
        FleetConfig { shards: 1, default_nranks: 1, bins_per_window: 8, vapro }
    }
}

/// One closed window, tagged with the job it belongs to.
#[derive(Debug)]
pub struct FleetWindow {
    /// The job whose window closed.
    pub key: JobKey,
    /// The window's analysis report.
    pub report: WindowReport,
}

/// Per-tenant admission state.
#[derive(Debug)]
struct TenantState {
    budget_bytes: u64,
    /// Bytes the tenant's jobs hold ahead of their watermarks: the sum
    /// of their `buffered_ahead_bytes()`, kept current push by push.
    in_flight_bytes: u64,
    stats: IngestStats,
}

/// A `[start_ns, end_ns)` interval a detected variance region covered.
type Span = (u64, u64);

/// One job's ingestor plus the bookkeeping the fleet report needs.
struct JobState {
    ingestor: WindowedIngestor,
    node: u32,
    windows_closed: usize,
    /// Time spans of every variance region the job's closed windows
    /// detected, for the interference pass. Unmerged; normalised at
    /// finish time.
    variance_spans: Vec<Span>,
}

impl JobState {
    fn new(cfg: &FleetConfig, nranks: usize, node: u32) -> JobState {
        JobState {
            ingestor: WindowedIngestor::new(nranks, cfg.bins_per_window, cfg.vapro.clone()),
            node,
            windows_closed: 0,
            variance_spans: Vec::new(),
        }
    }

    /// Book `reports` to the job and tag them with its key.
    fn emit(&mut self, key: JobKey, reports: Vec<WindowReport>, out: &mut Vec<FleetWindow>) {
        self.windows_closed += reports.len();
        record_spans(&mut self.variance_spans, &reports);
        out.extend(reports.into_iter().map(|report| FleetWindow { key, report }));
    }
}

/// Append the time span of every variance region `reports` detected.
fn record_spans(spans: &mut Vec<Span>, reports: &[WindowReport]) {
    for r in reports {
        let regions = r
            .result
            .comp_regions
            .iter()
            .chain(&r.result.comm_regions)
            .chain(&r.result.io_regions);
        for region in regions {
            let (s, e) = (region.t_start.ns(), region.t_end.ns());
            if e > s {
                spans.push((s, e));
            }
        }
    }
}

/// One job after its final flush: the summary, the spans the
/// interference pass reads, and the windows the flush closed.
struct FinishedJob {
    summary: JobSummary,
    spans: Vec<Span>,
    tail: Vec<WindowReport>,
}

/// Summary of one job in the [`FleetReport`].
#[derive(Debug)]
pub struct JobSummary {
    /// The job's identity.
    pub key: JobKey,
    /// Simulated node the job is placed on.
    pub node: u32,
    /// Windows the job closed over its whole lifetime, final flush
    /// included.
    pub windows_closed: usize,
    /// The job ingestor's admission statistics.
    pub stats: IngestStats,
    /// Peak resident fragment bytes of the job's arena over its
    /// lifetime. With watermark eviction this plateaus at O(watermark
    /// lag + open windows) per job, independent of stream length.
    pub arena_high_water_bytes: u64,
}

/// Summary of one tenant in the [`FleetReport`].
#[derive(Debug)]
pub struct TenantSummary {
    /// The tenant id.
    pub tenant: u32,
    /// Its configured admission budget, bytes.
    pub budget_bytes: u64,
    /// Plane-level admission statistics (budget rejections included).
    pub stats: IngestStats,
}

/// Two same-node jobs whose detected variance regions overlap in time —
/// a candidate noisy-neighbour pair for cross-job diagnosis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterferenceFinding {
    /// The shared simulated node.
    pub node: u32,
    /// The pair, in key order.
    pub a: JobKey,
    /// Second job of the pair.
    pub b: JobKey,
    /// Nanoseconds both jobs spent inside detected variance regions
    /// simultaneously.
    pub overlap_ns: u64,
    /// The overlap as a fraction of the smaller job's total variance
    /// time — 1.0 means one job never varied without the other.
    pub overlap_frac: f64,
}

/// Everything the fleet knows at shutdown.
#[derive(Debug)]
pub struct FleetReport {
    /// Per-job summaries, in key order.
    pub jobs: Vec<JobSummary>,
    /// Per-tenant admission summaries, in tenant order.
    pub tenants: Vec<TenantSummary>,
    /// Same-node jobs with time-correlated variance, strongest overlap
    /// first.
    pub interference: Vec<InterferenceFinding>,
    /// Rejections that could not be attributed to any tenant: structural
    /// decode failures and unknown-tenant frames.
    pub unattributed: IngestStats,
}

impl FleetReport {
    /// The largest per-job arena high-water mark in the plane — the
    /// fleet-level memory-bound stat the bench reports.
    pub fn arena_high_water_bytes(&self) -> u64 {
        self.jobs.iter().map(|j| j.arena_high_water_bytes).max().unwrap_or(0)
    }
}

/// [`FleetIngestor::shard_of`] over a plane of `shards` nodes.
fn default_node(key: JobKey, shards: usize) -> usize {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in key.tenant.to_le_bytes().into_iter().chain(key.job.to_le_bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    (h % shards as u64) as usize
}

/// The multi-tenant ingest plane. See the module docs.
pub struct FleetIngestor {
    cfg: FleetConfig,
    jobs: BTreeMap<JobKey, JobState>,
    tenants: BTreeMap<u32, TenantState>,
    /// Jobs whose stage still held windows (on the pool, or finished
    /// behind an unfinished predecessor) after their last push: the
    /// only ones a later push has anything to collect from.
    awaiting: Vec<JobKey>,
    unattributed: IngestStats,
}

impl FleetIngestor {
    /// A fresh plane. The default tenant is pre-registered with an
    /// unlimited budget so unstamped senders keep working;
    /// [`FleetIngestor::register_tenant`] re-budgets it like any other.
    pub fn new(cfg: FleetConfig) -> FleetIngestor {
        assert!(cfg.shards > 0, "need at least one shard");
        let mut fleet = FleetIngestor {
            jobs: BTreeMap::new(),
            tenants: BTreeMap::new(),
            awaiting: Vec::new(),
            unattributed: IngestStats::default(),
            cfg,
        };
        fleet.register_tenant(DEFAULT_TENANT, u64::MAX);
        fleet
    }

    /// Register (or re-budget) a tenant. Frames from unregistered
    /// tenants are rejected with [`WireError::UnknownTenant`].
    pub fn register_tenant(&mut self, tenant: u32, budget_bytes: u64) {
        let entry = self.tenants.entry(tenant).or_insert(TenantState {
            budget_bytes,
            in_flight_bytes: 0,
            stats: IngestStats::default(),
        });
        entry.budget_bytes = budget_bytes;
    }

    /// Register a job explicitly: its rank count and simulated-node
    /// placement. Unregistered jobs of a registered tenant are created
    /// on first frame with `cfg.default_nranks` on node
    /// [`FleetIngestor::shard_of`].
    pub fn register_job(&mut self, key: JobKey, nranks: usize, node: u32) {
        let cfg = &self.cfg;
        self.jobs.entry(key).or_insert_with(|| JobState::new(cfg, nranks, node));
    }

    /// The default node of a job first seen on the wire: FNV-1a over the
    /// key modulo `cfg.shards`, so placement — who the interference pass
    /// compares it with — is stable across runs and processes.
    pub fn shard_of(&self, key: JobKey) -> usize {
        default_node(key, self.cfg.shards)
    }

    /// Plane-level admission statistics of one tenant.
    pub fn tenant_stats(&self, tenant: u32) -> Option<&IngestStats> {
        self.tenants.get(&tenant).map(|t| &t.stats)
    }

    /// Rejections attributable to no tenant (decode failures, unknown
    /// tenants).
    pub fn unattributed_stats(&self) -> &IngestStats {
        &self.unattributed
    }

    /// Always 0: the plane holds no frame between pushes — an admitted
    /// frame is inside its job's ingestor before `push_encoded` returns.
    pub fn queued_frames(&self) -> usize {
        0
    }

    /// Admit one encoded frame: validate it, check the tenant's budget,
    /// and push it — still encoded — into the owning job's ingestor.
    /// Returns the windows that
    /// push reported plus those other jobs' stages finished since.
    /// Plane-level rejections are structured errors, counted against
    /// the claiming tenant where one is known; what the job's own
    /// admission refuses (a duplicate, an unknown rank) is counted in
    /// the job's [`IngestStats`] like on a bare ingestor.
    pub fn push_encoded(&mut self, bytes: &[u8]) -> Result<Vec<FleetWindow>, WireError> {
        let frame = match FrameView::parse(bytes) {
            Ok(frame) => frame,
            Err(e) => {
                self.unattributed.count_decode_error(&e);
                return Err(e);
            }
        };
        let charge = frame_charge(&frame);
        let key = JobKey::of(&frame.header());
        let Some(tenant) = self.tenants.get_mut(&key.tenant) else {
            let e = WireError::UnknownTenant { tenant: key.tenant };
            self.unattributed.count_decode_error(&e);
            crate::vopr::fault_points::hit(crate::vopr::fault_points::FaultPoint::UnknownTenantReject);
            return Err(e);
        };
        let requested = tenant.in_flight_bytes.saturating_add(charge);
        if requested > tenant.budget_bytes {
            let e = WireError::TenantOverBudget {
                tenant: key.tenant,
                budget_bytes: tenant.budget_bytes,
                requested_bytes: requested,
            };
            tenant.stats.count_decode_error(&e);
            tenant.stats.over_budget_bytes += charge;
            crate::vopr::fault_points::hit(
                crate::vopr::fault_points::FaultPoint::TenantOverBudgetReject,
            );
            return Err(e);
        }
        tenant.stats.frames_admitted += 1;

        let cfg = &self.cfg;
        let job = self.jobs.entry(key).or_insert_with(|| {
            JobState::new(cfg, cfg.default_nranks, default_node(key, cfg.shards) as u32)
        });
        let held = job.ingestor.buffered_ahead_bytes();
        // What the job's own admission refuses is counted in its stats.
        let reports = job.ingestor.push_frame(&frame).unwrap_or_default();
        tenant.in_flight_bytes = tenant
            .in_flight_bytes
            .saturating_sub(held)
            .saturating_add(job.ingestor.buffered_ahead_bytes());
        let mut out = Vec::new();
        job.emit(key, reports, &mut out);
        self.harvest(key, &mut out);
        Ok(out)
    }

    /// Collect what finished since the last push from every job that
    /// still had windows in its stage, `pushed` joining them if it has
    /// now. Never blocks; per-job window order is the stage's.
    fn harvest(&mut self, pushed: JobKey, out: &mut Vec<FleetWindow>) {
        if !self.awaiting.contains(&pushed) {
            self.awaiting.push(pushed);
        }
        let jobs = &mut self.jobs;
        self.awaiting.retain(|&key| {
            let Some(job) = jobs.get_mut(&key) else { return false };
            let reports = job.ingestor.poll_reports();
            job.emit(key, reports, out);
            job.ingestor.pending_windows() > 0
        });
    }

    /// Close every job's remaining cover, jobs in parallel, and shut
    /// down, returning the [`FleetReport`] (jobs, tenants, interference
    /// pass) and the windows the final flush closed.
    pub fn into_report(self) -> (FleetReport, Vec<FleetWindow>) {
        let jobs: Vec<(JobKey, JobState)> = self.jobs.into_iter().collect();
        // Key order throughout: the map's, kept by the ordered collect.
        let finished: Vec<FinishedJob> = jobs
            .into_par_iter()
            .map(|(key, mut job)| {
                let stats = job.ingestor.stats().clone();
                let arena_high_water_bytes = job.ingestor.arena().high_water_bytes();
                let tail = job.ingestor.finish();
                record_spans(&mut job.variance_spans, &tail);
                let summary = JobSummary {
                    key,
                    node: job.node,
                    windows_closed: job.windows_closed + tail.len(),
                    stats,
                    arena_high_water_bytes,
                };
                FinishedJob { summary, spans: job.variance_spans, tail }
            })
            .collect();
        let interference = interference_pass(&finished);
        let mut flushed = Vec::new();
        let mut jobs = Vec::with_capacity(finished.len());
        for FinishedJob { summary, tail, .. } in finished {
            let key = summary.key;
            flushed.extend(tail.into_iter().map(|report| FleetWindow { key, report }));
            jobs.push(summary);
        }

        let tenants = self
            .tenants
            .iter()
            .map(|(&tenant, t)| TenantSummary {
                tenant,
                budget_bytes: t.budget_bytes,
                stats: t.stats.clone(),
            })
            .collect();

        let report = FleetReport { jobs, tenants, interference, unattributed: self.unattributed };
        (report, flushed)
    }
}

/// Merge unsorted spans into disjoint sorted intervals.
fn merge_spans(spans: &[Span]) -> Vec<Span> {
    let mut sorted: Vec<Span> = spans.to_vec();
    sorted.sort_unstable();
    let mut merged: Vec<Span> = Vec::with_capacity(sorted.len());
    for (s, e) in sorted {
        match merged.last_mut() {
            Some((_, le)) if s <= *le => *le = (*le).max(e),
            _ => merged.push((s, e)),
        }
    }
    merged
}

/// Total overlap between two disjoint sorted interval lists, ns.
fn overlap_ns(a: &[Span], b: &[Span]) -> u64 {
    let (mut i, mut j, mut total) = (0usize, 0usize, 0u64);
    while i < a.len() && j < b.len() {
        let (asn, aen) = a[i];
        let (bsn, ben) = b[j];
        let lo = asn.max(bsn);
        let hi = aen.min(ben);
        if hi > lo {
            total += hi - lo;
        }
        if aen <= ben {
            i += 1;
        } else {
            j += 1;
        }
    }
    total
}

/// Correlate variance regions between jobs sharing a simulated node:
/// for each same-node pair, the time both spent inside detected
/// variance regions, as nanoseconds and as a fraction of the smaller
/// job's variance time. Findings sorted by overlap, strongest first.
fn interference_pass(jobs: &[FinishedJob]) -> Vec<InterferenceFinding> {
    let merged: Vec<(JobKey, u32, Vec<Span>)> = jobs
        .iter()
        .map(|j| (j.summary.key, j.summary.node, merge_spans(&j.spans)))
        .collect();
    let mut findings = Vec::new();
    for (i, (ka, na, sa)) in merged.iter().enumerate() {
        for (kb, nb, sb) in merged.iter().skip(i + 1) {
            if na != nb || sa.is_empty() || sb.is_empty() {
                continue;
            }
            let overlap = overlap_ns(sa, sb);
            if overlap == 0 {
                continue;
            }
            let total = |s: &[Span]| s.iter().map(|(a, b)| b - a).sum::<u64>();
            let denom = total(sa).min(total(sb));
            findings.push(InterferenceFinding {
                node: *na,
                a: *ka,
                b: *kb,
                overlap_ns: overlap,
                overlap_frac: if denom > 0 { overlap as f64 / denom as f64 } else { 0.0 },
            });
        }
    }
    findings.sort_by(|x, y| y.overlap_ns.cmp(&x.overlap_ns).then(x.a.cmp(&y.a)).then(x.b.cmp(&y.b)));
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_merging_and_overlap() {
        let merged = merge_spans(&[(10, 20), (15, 30), (40, 50), (5, 10)]);
        assert_eq!(merged, vec![(5, 30), (40, 50)]);
        // Overlap of [5,30)∪[40,50) with [20,45): 10 (20..30) + 5 (40..45).
        assert_eq!(overlap_ns(&merged, &[(20, 45)]), 15);
        assert_eq!(overlap_ns(&merged, &[(30, 40)]), 0);
        assert_eq!(overlap_ns(&[], &[(0, 10)]), 0);
    }

    #[test]
    fn job_hashing_is_stable_and_spreads() {
        let cfg = FleetConfig {
            shards: 4,
            ..FleetConfig::new(VaproConfig::default())
        };
        let fleet = FleetIngestor::new(cfg);
        let mut hit = [false; 4];
        for job in 0..64 {
            let s = fleet.shard_of(JobKey { tenant: 1, job });
            assert_eq!(s, fleet.shard_of(JobKey { tenant: 1, job }), "stable");
            hit[s] = true;
        }
        assert!(hit.iter().all(|&h| h), "64 jobs cover all 4 shards: {hit:?}");
    }
}
