//! The sharded multi-tenant fleet ingest plane.
//!
//! One [`crate::detect::ingestor::WindowedIngestor`] serves exactly one
//! job. Production monitoring serves a *fleet*: thousands of jobs across
//! many tenants, all shipping frames (see [`crate::wire`]) into one
//! plane. The [`FleetIngestor`] scales that out in three layers:
//!
//! * **Routing** — each decoded frame carries a `(tenant_id, job_id)`
//!   stamp; a job hash picks one of N shards, so a job's frames always
//!   land on the same shard and per-job ordering is preserved.
//! * **Sharding** — each shard owns the `WindowedIngestor`s of the jobs
//!   routed to it plus a bounded frame queue. Frames are *enqueued* on
//!   the (cheap, sequential) admission path and *drained* in batches:
//!   when any queue reaches capacity, every shard drains its backlog on
//!   a worker from the rayon pool. A shard is owned by exactly one
//!   worker during a drain — the shards `Vec` is moved into the fan-out
//!   and moved back — so the hot path takes no cross-shard lock at all.
//! * **Admission** — every tenant is registered with a byte budget
//!   extending the per-ingestor `max_buffered_bytes` cap to the plane:
//!   a frame that would push its tenant's in-flight bytes (queued +
//!   buffered ahead of its jobs' watermarks) past the budget is rejected
//!   with a structured [`WireError::TenantOverBudget`], counted in that
//!   tenant's [`IngestStats`] — and *only* that tenant's: a noisy or
//!   over-budget tenant can never stall another tenant's windows.
//!
//! A single-job fleet is bit-identical to a bare `WindowedIngestor`:
//! routing and queueing only ever *reorder work between jobs*, never
//! within one, and the per-job ingestor is exactly the single-job code
//! path (property-tested in `tests/fleet_equivalence.rs`).
//!
//! [`FleetIngestor::into_report`] returns a [`FleetReport`]: per-job window
//! tails and stats, per-tenant admission stats, and a first cross-job
//! **interference pass** — jobs placed on the same simulated node whose
//! detected variance regions overlap in time are reported as candidate
//! noisy-neighbour pairs, the fleet-level analogue of the paper's
//! variance-source attribution.

use crate::config::VaproConfig;
use crate::detect::admission::IngestStats;
use crate::detect::ingestor::{WindowReport, WindowedIngestor};
use crate::wire::{FragmentBatch, WireError, DEFAULT_TENANT};
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

    /// The routing key of a decoded batch.
    pub fn of(batch: &FragmentBatch) -> JobKey {
        JobKey { tenant: batch.tenant_id, job: batch.job_id }
    }
}

/// Fleet-plane configuration. Plain fields; start from [`FleetConfig::new`].
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Ingest shards. Each shard drains on its own worker; jobs are
    /// hash-distributed across shards.
    pub shards: usize,
    /// Rank count for jobs first seen on the wire (explicitly registered
    /// jobs carry their own).
    pub default_nranks: usize,
    /// Heat-map bins per analysis window, passed to every job ingestor.
    pub bins_per_window: usize,
    /// The per-job analysis configuration (report period, diagnosis
    /// depth, fault-tolerance policy).
    pub vapro: VaproConfig,
    /// Frames one shard buffers before a fleet-wide drain is triggered.
    /// Batching amortises the fan-out: the admission path only enqueues.
    pub queue_capacity_frames: usize,
}

impl FleetConfig {
    /// A single-shard plane — the drop-in replacement for one bare
    /// `WindowedIngestor`.
    pub fn new(vapro: VaproConfig) -> FleetConfig {
        FleetConfig {
            shards: 1,
            default_nranks: 1,
            bins_per_window: 8,
            vapro,
            queue_capacity_frames: 64,
        }
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
    /// Bytes currently in flight for the tenant: enqueued-but-undrained
    /// frames plus bytes its jobs hold ahead of their watermarks.
    in_flight_bytes: u64,
    stats: IngestStats,
}

/// One frame admitted and awaiting a drain. Its bytes were charged to
/// the tenant at admission; the charge is recomputed from the ingestors'
/// buffers after each drain.
struct Queued {
    key: JobKey,
    batch: FragmentBatch,
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
    fn record(&mut self, reports: &[WindowReport]) {
        self.windows_closed += reports.len();
        record_spans(&mut self.variance_spans, reports);
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

/// One ingest shard: a bounded frame queue plus the ingestors of the
/// jobs routed here. Owned by a single worker during a drain.
#[derive(Default)]
struct Shard {
    queue: Vec<Queued>,
    jobs: BTreeMap<JobKey, JobState>,
}

impl Shard {
    /// Feed the queued frames to their job ingestors, in arrival order,
    /// collecting every window that closes.
    fn drain_queue(&mut self) -> Vec<FleetWindow> {
        let queued = std::mem::take(&mut self.queue);
        let mut out = Vec::new();
        for q in queued {
            // Enqueue registers the job, so the lookup cannot miss; a
            // missing entry would mean a routing bug, not bad input.
            let Some(job) = self.jobs.get_mut(&q.key) else { continue };
            let reports = job.ingestor.push(q.batch);
            job.record(&reports);
            out.extend(reports.into_iter().map(|report| FleetWindow { key: q.key, report }));
        }
        // Whoever waits, helps (`detect::stage`): the windows sealed
        // above are queued on the pool behind the shard drainers
        // themselves. Run queued jobs until none is left, so the harvest
        // below finds them analysed instead of leaving every one of them
        // to the next drain. Never parks: a window still running on
        // another thread is simply harvested next time.
        while self.jobs.values().any(|job| job.ingestor.pending_windows() > 0)
            && rayon::yield_now() == Some(rayon::Yield::Executed)
        {}
        // Join the analysis stages: windows whose pipelined analysis
        // completed since the last drain are harvested here (still in
        // per-job window order), including for jobs that had no frames
        // queued this round — a drain leaves no finished report parked.
        for (&key, job) in self.jobs.iter_mut() {
            let reports = job.ingestor.poll_reports();
            if !reports.is_empty() {
                job.record(&reports);
                out.extend(reports.into_iter().map(|report| FleetWindow { key, report }));
            }
        }
        out
    }
}

/// Summary of one job in the [`FleetReport`].
#[derive(Debug)]
pub struct JobSummary {
    /// The job's identity.
    pub key: JobKey,
    /// Simulated node the job is placed on.
    pub node: u32,
    /// Windows flushed by the final cover pass (earlier windows were
    /// returned as they closed during ingestion).
    pub final_windows: Vec<WindowReport>,
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

/// The sharded multi-tenant ingest plane. See the module docs.
pub struct FleetIngestor {
    cfg: FleetConfig,
    shards: Vec<Shard>,
    tenants: BTreeMap<u32, TenantState>,
    unattributed: IngestStats,
}

impl FleetIngestor {
    /// A fresh plane. The default tenant is pre-registered with an
    /// unlimited budget so unstamped senders keep working;
    /// [`FleetIngestor::register_tenant`] re-budgets it like any other.
    pub fn new(cfg: FleetConfig) -> FleetIngestor {
        assert!(cfg.shards > 0, "need at least one shard");
        assert!(cfg.queue_capacity_frames > 0, "need a nonzero queue capacity");
        let shards = (0..cfg.shards).map(|_| Shard::default()).collect();
        let mut fleet = FleetIngestor {
            shards,
            tenants: BTreeMap::new(),
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
    /// on first frame with `cfg.default_nranks` and their shard id as
    /// the node.
    pub fn register_job(&mut self, key: JobKey, nranks: usize, node: u32) {
        let shard = self.shard_of(key);
        let cfg = self.cfg.clone();
        let Some(shard) = self.shards.get_mut(shard) else {
            return; // shard_of is always in range; stay total regardless
        };
        shard.jobs.entry(key).or_insert_with(|| JobState {
            ingestor: WindowedIngestor::new(nranks, cfg.bins_per_window, cfg.vapro),
            node,
            windows_closed: 0,
            variance_spans: Vec::new(),
        });
    }

    /// The shard a job's frames are routed to: FNV-1a over the key, so
    /// placement is stable across runs and processes.
    pub fn shard_of(&self, key: JobKey) -> usize {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in key.tenant.to_le_bytes().into_iter().chain(key.job.to_le_bytes()) {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        (h % self.cfg.shards as u64) as usize
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

    /// Frames enqueued across all shards, awaiting a drain.
    pub fn queued_frames(&self) -> usize {
        self.shards.iter().map(|s| s.queue.len()).sum()
    }

    /// Admit one encoded frame: decode, check the tenant's budget, and
    /// enqueue on the owning job's shard. Returns the windows closed by
    /// the batch drain this frame triggered (usually none — draining is
    /// batched). Rejections are structured errors, counted against the
    /// claiming tenant where one is known.
    pub fn push_encoded(&mut self, bytes: &[u8]) -> Result<Vec<FleetWindow>, WireError> {
        let batch = match FragmentBatch::decode(bytes) {
            Ok(b) => b,
            Err(e) => {
                self.unattributed.count_decode_error(&e);
                return Err(e);
            }
        };
        self.push_batch(batch, bytes.len() as u64)
    }

    /// Admit one already-decoded batch accounting `frame_bytes` against
    /// its tenant's budget (the in-memory entry point; `push_encoded`
    /// derives the byte count from the frame itself).
    pub fn push_batch(
        &mut self,
        batch: FragmentBatch,
        frame_bytes: u64,
    ) -> Result<Vec<FleetWindow>, WireError> {
        let key = JobKey::of(&batch);
        let Some(tenant) = self.tenants.get_mut(&key.tenant) else {
            let e = WireError::UnknownTenant { tenant: key.tenant };
            self.unattributed.count_decode_error(&e);
            crate::vopr::fault_points::hit(crate::vopr::fault_points::FaultPoint::UnknownTenantReject);
            return Err(e);
        };
        let requested = tenant.in_flight_bytes.saturating_add(frame_bytes);
        if requested > tenant.budget_bytes {
            let e = WireError::TenantOverBudget {
                tenant: key.tenant,
                budget_bytes: tenant.budget_bytes,
                requested_bytes: requested,
            };
            tenant.stats.count_decode_error(&e);
            tenant.stats.over_budget_bytes += frame_bytes;
            crate::vopr::fault_points::hit(
                crate::vopr::fault_points::FaultPoint::TenantOverBudgetReject,
            );
            return Err(e);
        }
        tenant.in_flight_bytes = requested;
        tenant.stats.frames_admitted += 1;

        let shard = self.shard_of(key);
        if self.shards.get(shard).is_some_and(|s| !s.jobs.contains_key(&key)) {
            self.register_job(key, self.cfg.default_nranks, shard as u32);
        }
        let capacity = self.cfg.queue_capacity_frames;
        let full = match self.shards.get_mut(shard) {
            Some(s) => {
                s.queue.push(Queued { key, batch });
                s.queue.len() >= capacity
            }
            None => false, // shard_of is always in range; stay total regardless
        };
        if full {
            Ok(self.drain())
        } else {
            Ok(Vec::new())
        }
    }

    /// Drain every shard's backlog, independent shards in parallel, and
    /// return all windows that closed. The shards are moved into the
    /// fan-out and back — each is owned by exactly one worker, so there
    /// is no locking between them.
    pub fn drain(&mut self) -> Vec<FleetWindow> {
        if self.shards.iter().all(|s| s.queue.is_empty()) {
            return Vec::new();
        }
        let shards = std::mem::take(&mut self.shards);
        let drained: Vec<(Shard, Vec<FleetWindow>)> = shards
            .into_par_iter()
            .map(|mut s| {
                let windows = s.drain_queue();
                (s, windows)
            })
            .collect();
        let mut out = Vec::new();
        for (shard, windows) in drained {
            self.shards.push(shard);
            out.extend(windows);
        }
        self.refresh_in_flight();
        out
    }

    /// Recompute every tenant's in-flight bytes from its jobs' actual
    /// ahead-of-watermark buffers: the queues are empty after a drain,
    /// so what remains charged is what the ingestors still hold.
    fn refresh_in_flight(&mut self) {
        for t in self.tenants.values_mut() {
            t.in_flight_bytes = 0;
        }
        for shard in &self.shards {
            for (key, job) in &shard.jobs {
                if let Some(t) = self.tenants.get_mut(&key.tenant) {
                    t.in_flight_bytes =
                        t.in_flight_bytes.saturating_add(job.ingestor.buffered_ahead_bytes());
                }
            }
        }
    }

    /// Flush all queues, close every job's remaining cover, and shut
    /// down, returning the [`FleetReport`] (jobs, tenants, interference
    /// pass) and the windows the final flush closed.
    pub fn into_report(mut self) -> (FleetReport, Vec<FleetWindow>) {
        let mut flushed = self.drain();

        let shards = std::mem::take(&mut self.shards);
        let finished: Vec<Vec<(JobSummary, Vec<Span>)>> = shards
            .into_par_iter()
            .map(|shard| {
                shard
                    .jobs
                    .into_iter()
                    .map(|(key, mut job)| {
                        let stats = job.ingestor.stats().clone();
                        let arena_high_water_bytes = job.ingestor.arena().high_water_bytes();
                        let final_windows = job.ingestor.finish();
                        record_spans(&mut job.variance_spans, &final_windows);
                        let summary = JobSummary {
                            key,
                            node: job.node,
                            windows_closed: job.windows_closed + final_windows.len(),
                            final_windows,
                            stats,
                            arena_high_water_bytes,
                        };
                        (summary, job.variance_spans)
                    })
                    .collect()
            })
            .collect();

        let mut jobs_with_spans: Vec<(JobSummary, Vec<Span>)> =
            finished.into_iter().flatten().collect();
        jobs_with_spans.sort_by_key(|(j, _)| j.key);

        let interference = interference_pass(&jobs_with_spans);
        let mut jobs = Vec::with_capacity(jobs_with_spans.len());
        for (mut summary, _) in jobs_with_spans {
            flushed.extend(
                std::mem::take(&mut summary.final_windows)
                    .into_iter()
                    .map(|report| FleetWindow { key: summary.key, report }),
            );
            // The reports ride out through the flushed list; the
            // summary keeps their count in `windows_closed`.
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

        let report = FleetReport {
            jobs,
            tenants,
            interference,
            unattributed: self.unattributed.clone(),
        };
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
fn interference_pass(jobs: &[(JobSummary, Vec<Span>)]) -> Vec<InterferenceFinding> {
    let merged: Vec<(JobKey, u32, Vec<Span>)> = jobs
        .iter()
        .map(|(j, spans)| (j.key, j.node, merge_spans(spans)))
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
