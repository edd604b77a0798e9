//! The analysis servers (paper §3.5 Fig. 8 and §5): dedicated server
//! processes periodically collect performance data from application
//! processes and analyse the last window; multiple servers split the
//! client population evenly for load balance (one server per 256 clients
//! in the paper's deployment, 0.4 % resource overhead).
//!
//! Two straight pipelines share this module, one fragment form each —
//! AoS where data is mutable, SoA where it is sealed:
//!
//! * **Streaming.** [`IngestArena`] decodes each shipped
//!   [`FragmentBatch`] **once** into per-location `Vec<Fragment>` pools
//!   (fragments are *moved* out of the batch, never cloned), where
//!   appending, sorting and eviction are cheap. A closing window is
//!   sealed in one hop: [`IngestArena::window_view`] is a free
//!   [`ArenaView`] handle, and [`ColumnarPool::refill_from_merged`]
//!   gathers the overlapping fragments straight out of the sorted pools
//!   into a recycled columnar snapshot that
//!   [`detect_columnar`] and [`DiagnosisBatch`] read.
//!   [`WindowedIngestor`] tracks the shipping watermark and seals and
//!   analyses windows as they close.
//! * **One-shot.** [`ServerPool::analyze_windows`] pools per-rank STGs
//!   by reference ([`merge_stgs_window`]) and runs [`detect_merged`]
//!   over the `&Fragment` slices — the oracle every stream ≡ one-shot
//!   test compares the streaming path against.

use crate::columnar::{ColumnarPool, PoolView};
use crate::config::{LateDataPolicy, VaproConfig};
use crate::detect::pipeline::{
    detect_columnar, detect_merged, merge_stgs_window, DetectionResult, MergedStg,
};
use crate::detect::window::{windows_covering, Window};
use crate::diagnose::batch::{DiagnosisBatch, EdgePools};
use crate::diagnose::driver::RegionOfInterest;
use crate::diagnose::progressive::DiagnosisReport;
use crate::fragment::Fragment;
use crate::report::WindowCoverage;
use crate::stg::{StateKey, Stg};
use crate::vopr::canary;
use crate::vopr::fault_points::{hit, FaultPoint};
use crate::wire::{
    fragment_wire_bytes, leak_label, FragmentBatch, WireError, SEQ_UNSEQUENCED,
};
use crate::detect::stage::AnalysisStage;
use parking_lot::Mutex;
use rayon::prelude::*;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use vapro_sim::{CallSite, VirtualTime};

/// One analysis server owning a subset of client ranks.
#[derive(Debug)]
pub struct AnalysisServer {
    /// Server index in the pool.
    pub id: usize,
    /// The ranks this server serves.
    pub clients: Vec<usize>,
}

impl AnalysisServer {
    /// Bytes/sec of client data this server ingests given per-client
    /// rates — used for the storage/throughput accounting of §6.2.
    pub fn ingest_rate(&self, bytes_per_client_per_sec: f64) -> f64 {
        self.clients.len() as f64 * bytes_per_client_per_sec
    }
}

/// A pool of servers with clients assigned round-robin (the paper's
/// "equally assigning parallel processes to different servers").
#[derive(Debug)]
pub struct ServerPool {
    /// The servers.
    pub servers: Vec<AnalysisServer>,
}

/// One region's diagnosis attached to a window report.
#[derive(Debug, Clone, PartialEq)]
pub struct RegionDiagnosis {
    /// The diagnosed region of interest (from a detected variance
    /// region of the window).
    pub roi: RegionOfInterest,
    /// The progressive drill-down's outcome.
    pub report: DiagnosisReport,
}

/// The analysis output of one window: detection plus the diagnoses of
/// its top-K (by quantified loss) computation variance regions, and the
/// data provenance the analysis ran on.
#[derive(Debug)]
pub struct WindowReport {
    /// The analysed window.
    pub window: Window,
    /// Detection over the fragments inside the window.
    pub result: DetectionResult,
    /// Diagnoses of the window's top computation regions (at most
    /// `cfg.diagnose_top_k`; regions whose drill-down found no usable
    /// cluster or contrast are skipped).
    pub diagnoses: Vec<RegionDiagnosis>,
    /// Which ranks contributed, what the transport lost, and how
    /// complete this window's data is. One-shot analyses report
    /// [`WindowCoverage::full`]; the streaming ingestor fills in the
    /// straggler/fault picture it observed.
    pub coverage: WindowCoverage,
}

/// Transport-fault accounting of one ingestor: every frame the decode or
/// admission path rejected, counted instead of dropped on the floor. The
/// `Display` impl renders the one-line summary a server would log.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IngestStats {
    /// Frames decoded and admitted into the arena.
    pub frames_admitted: u64,
    /// Frames rejected for a CRC mismatch ([`WireError::BadChecksum`]).
    pub corrupt_frames: u64,
    /// Frames with an unknown version byte ([`WireError::BadVersion`]).
    pub bad_version_frames: u64,
    /// Frames rejected for any other structural decode error.
    pub malformed_frames: u64,
    /// Frames claiming a rank outside the configured deployment
    /// ([`WireError::UnknownRank`]).
    pub unknown_rank_frames: u64,
    /// Retransmitted frames deduplicated by their sequence number.
    pub duplicate_frames: u64,
    /// Frames from dead ranks discarded under [`LateDataPolicy::Drop`].
    pub dropped_late_frames: u64,
    /// Frames dropped by the ahead-of-watermark buffer cap.
    pub dropped_backpressure_frames: u64,
    /// Bytes those backpressure drops covered.
    pub dropped_backpressure_bytes: u64,
    /// Frames claiming a tenant the fleet has no registration for
    /// ([`WireError::UnknownTenant`]).
    pub unknown_tenant_frames: u64,
    /// Frames rejected by fleet admission because the tenant's in-flight
    /// bytes would exceed its budget ([`WireError::TenantOverBudget`]).
    pub over_budget_frames: u64,
    /// Bytes those budget rejections covered.
    pub over_budget_bytes: u64,
}

impl IngestStats {
    /// Total frames rejected for any reason.
    pub fn frames_rejected(&self) -> u64 {
        self.corrupt_frames
            + self.bad_version_frames
            + self.malformed_frames
            + self.unknown_rank_frames
            + self.duplicate_frames
            + self.dropped_late_frames
            + self.dropped_backpressure_frames
            + self.unknown_tenant_frames
            + self.over_budget_frames
    }

    pub(crate) fn count_decode_error(&mut self, e: &WireError) {
        match e {
            WireError::BadChecksum { .. } => self.corrupt_frames += 1,
            WireError::BadVersion { .. } => self.bad_version_frames += 1,
            WireError::UnknownTenant { .. } => self.unknown_tenant_frames += 1,
            WireError::TenantOverBudget { .. } => self.over_budget_frames += 1,
            _ => self.malformed_frames += 1,
        }
    }
}

impl fmt::Display for IngestStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ingest: {} admitted, {} corrupt, {} bad-version, {} malformed, \
             {} unknown-rank, {} duplicate, {} late-dropped, \
             {} backpressure-dropped ({} B), {} unknown-tenant, \
             {} over-budget ({} B)",
            self.frames_admitted,
            self.corrupt_frames,
            self.bad_version_frames,
            self.malformed_frames,
            self.unknown_rank_frames,
            self.duplicate_frames,
            self.dropped_late_frames,
            self.dropped_backpressure_frames,
            self.dropped_backpressure_bytes,
            self.unknown_tenant_frames,
            self.over_budget_frames,
            self.over_budget_bytes,
        )
    }
}

/// Liveness of one client rank, as seen by the straggler policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RankHealth {
    /// Shipping within the straggler horizon of the fastest rank.
    Live,
    /// Trailing the fastest rank by more than `straggler_horizon`:
    /// reported, but still awaited by the watermark.
    Degraded,
    /// Trailing by more than `dead_horizon`: excluded from the
    /// watermark so windows keep closing. Latched — a dead rank stays
    /// dead; its late frames follow [`LateDataPolicy`].
    Dead,
}

/// Per-rank ingest bookkeeping: the shipping mark, and sequence-number
/// state for deduplication, reorder tolerance and gap detection.
#[derive(Debug, Default)]
struct RankTracker {
    /// Largest `window_end_ns` this rank has *contiguously* shipped.
    mark_ns: u64,
    /// Highest sequence number with every predecessor admitted.
    contig: u64,
    /// Out-of-order admissions ahead of the contiguous prefix:
    /// seq → shipped `window_end_ns`, released into `mark_ns` once the
    /// gap below them fills.
    pending: BTreeMap<u64, u64>,
    /// Latched death flag.
    dead: bool,
}

impl RankTracker {
    fn is_duplicate(&self, seq: u64) -> bool {
        // The `DedupDisabled` canary (vopr-canary builds only) waves
        // every retransmit through; the VOPR delivery-accounting
        // invariant must flag the double admissions.
        if crate::vopr::canary::armed(crate::vopr::canary::Canary::DedupDisabled) {
            return false;
        }
        seq != SEQ_UNSEQUENCED && (seq <= self.contig || self.pending.contains_key(&seq))
    }

    /// Record an admitted frame. Unsequenced frames advance the mark
    /// immediately (the legacy contract); sequenced frames advance it
    /// only along the contiguous prefix, so a reordered early frame can
    /// never be overtaken by the watermark while still in flight.
    fn admit(&mut self, seq: u64, window_end_ns: u64) {
        if seq == SEQ_UNSEQUENCED {
            self.mark_ns = self.mark_ns.max(window_end_ns);
            return;
        }
        self.pending.insert(seq, window_end_ns);
        while let Some(end) = self.pending.remove(&(self.contig + 1)) {
            self.contig += 1;
            self.mark_ns = self.mark_ns.max(end);
        }
    }

    /// Sequence numbers known sent (something later arrived) but never
    /// received — the frames currently missing below the highest seen.
    fn gaps(&self) -> u64 {
        // Saturating: with dedup suppressed (canary builds) `pending`
        // can hold stale seqs at or below `contig`, and a gap count
        // must degrade to zero rather than underflow.
        match self.pending.keys().next_back() {
            Some(&max) => {
                max.saturating_sub(self.contig).saturating_sub(self.pending.len() as u64)
            }
            None => 0,
        }
    }
}

/// Diagnose the top-K computation regions of a detection result over
/// the same merged view it was detected on. The [`DiagnosisBatch`]
/// seeds its cluster cache from the detection's own per-edge outcomes,
/// so no pool is clustered twice — diagnosis costs one interval-index
/// build plus the drill-downs themselves.
fn diagnose_top_regions<S: EdgePools + Sync>(
    pools: &S,
    result: &DetectionResult,
    cfg: &VaproConfig,
) -> Vec<RegionDiagnosis> {
    if cfg.diagnose_top_k == 0 || result.comp_regions.is_empty() {
        return Vec::new();
    }
    let batch = DiagnosisBatch::with_clusters(pools, cfg, &result.edge_clusters);
    result
        .comp_regions
        .iter()
        .take(cfg.diagnose_top_k)
        .filter_map(|region| {
            let roi = RegionOfInterest::from(region);
            batch.diagnose(&roi).map(|report| RegionDiagnosis { roi, report })
        })
        .collect()
}

/// The per-window census both pipelines share: which of the deployment's
/// ranks contributed no fragment.
fn ranks_absent(nranks: usize, ranks: impl Iterator<Item = usize>) -> Vec<usize> {
    let mut present = vec![false; nranks];
    for r in ranks {
        if let Some(p) = present.get_mut(r) {
            *p = true;
        }
    }
    (0..nranks).filter(|&r| !present[r]).collect()
}

/// One-shot per-window analysis ([`ServerPool::analyze_windows`]):
/// detection over the borrowed view, then top-K region diagnosis reusing
/// detection's clusters. The `ranks_absent` census comes from the view
/// itself, exactly as [`analyze_view_columnar`] takes it from the lanes.
fn analyze_view(
    view: &MergedStg<'_>,
    window: Window,
    nranks: usize,
    bins: usize,
    cfg: &VaproConfig,
    mut coverage: WindowCoverage,
) -> WindowReport {
    let pools = view.vertices.iter().map(|(_, p)| p).chain(view.edges.iter().map(|(_, p)| p));
    coverage.ranks_absent = ranks_absent(nranks, pools.flatten().map(|f| f.rank));
    let result = detect_merged(view, nranks, bins, cfg);
    let diagnoses = diagnose_top_regions(view, &result, cfg);
    WindowReport { window, result, diagnoses, coverage }
}

/// Streaming per-window analysis: detection and diagnosis over a sealed
/// window's contiguous lanes. Every window the ingestor closes goes
/// through here; the one-shot path keeps [`analyze_view`], so the
/// streaming-equals-one-shot tests prove the two pipelines bit-identical
/// end to end. The caller supplies the transport-side coverage.
pub(crate) fn analyze_view_columnar(
    pool: &ColumnarPool,
    window: Window,
    nranks: usize,
    bins: usize,
    cfg: &VaproConfig,
    mut coverage: WindowCoverage,
) -> WindowReport {
    let all = pool.all();
    coverage.ranks_absent = ranks_absent(nranks, (0..all.len()).map(|i| all.rank(i)));
    let result = detect_columnar(pool, nranks, bins, cfg);
    let diagnoses = diagnose_top_regions(pool, &result, cfg);
    WindowReport { window, result, diagnoses, coverage }
}

impl ServerPool {
    /// Distribute `nranks` clients over `nservers` servers.
    pub fn new(nservers: usize, nranks: usize) -> Self {
        assert!(nservers > 0, "need at least one server");
        let mut servers: Vec<AnalysisServer> = (0..nservers)
            .map(|id| AnalysisServer { id, clients: Vec::new() })
            .collect();
        for rank in 0..nranks {
            servers[rank % nservers].clients.push(rank);
        }
        ServerPool { servers }
    }

    /// Server resource overhead relative to the application: one server
    /// process per `clients` application processes.
    pub fn resource_overhead(&self) -> f64 {
        let clients: usize = self.servers.iter().map(|s| s.clients.len()).sum();
        if clients == 0 {
            0.0
        } else {
            self.servers.len() as f64 / clients as f64
        }
    }

    /// Largest client-count imbalance between servers (0 or 1 for
    /// round-robin).
    pub fn imbalance(&self) -> usize {
        let max = self.servers.iter().map(|s| s.clients.len()).max().unwrap_or(0);
        let min = self.servers.iter().map(|s| s.clients.len()).min().unwrap_or(0);
        max - min
    }

    /// Analyse the run in overlapped windows of `cfg.report_period`:
    /// each window's fragments (from every rank's STG) are detected
    /// independently; windows run in parallel. Per-window populations are
    /// borrowed views ([`merge_stgs_window`]) — zero `Fragment` clones.
    pub fn analyze_windows(
        &self,
        stgs: &[Stg],
        nranks: usize,
        bins_per_window: usize,
        cfg: &VaproConfig,
    ) -> Vec<WindowReport> {
        let t_end = stgs
            .iter()
            .flat_map(|s| {
                s.vertices()
                    .iter()
                    .flat_map(|v| v.fragments.iter())
                    .chain(s.edges().iter().flat_map(|e| e.fragments.iter()))
            })
            .map(|f| f.end)
            .max()
            .unwrap_or(VirtualTime::ZERO);
        let windows = windows_covering(VirtualTime::ZERO, t_end, cfg.report_period);

        windows
            .into_par_iter()
            .map(|window| {
                let view = merge_stgs_window(stgs, window);
                analyze_view(
                    &view,
                    window,
                    nranks,
                    bins_per_window,
                    cfg,
                    WindowCoverage::full(nranks),
                )
            })
            .collect()
    }
}

/// Canonical in-pool fragment order: (rank, time) first, then fragment
/// content (kind, counters, args) to break ties among identical-
/// timestamp fragments — so pool order never depends on batch arrival
/// order, even when timestamps collide. Where (rank, time) is unique —
/// every rank-indexed STG the one-shot path consumes — the order equals
/// what `merge_stgs` produces, which is what makes the incremental
/// reports bit-identical to the one-shot windowed analysis.
fn fragment_order(a: &Fragment, b: &Fragment) -> std::cmp::Ordering {
    (a.rank, a.start.ns(), a.end.ns(), a.kind as u8)
        .cmp(&(b.rank, b.start.ns(), b.end.ns(), b.kind as u8))
        .then_with(|| {
            // Ties are rare, so the content comparison stays lazy: no
            // per-fragment key allocation.
            a.counters
                .entries()
                .map(|(id, v)| (id.index(), v.to_bits()))
                .cmp(b.counters.entries().map(|(id, v)| (id.index(), v.to_bits())))
        })
        .then_with(|| {
            a.args
                .iter()
                .map(|x| x.to_bits())
                .cmp(b.args.iter().map(|x| x.to_bits()))
        })
}

/// One arena pool plus its incremental-sort watermark: the prefix
/// `frags[..sorted_len]` is known to be in [`fragment_order`]. Batches
/// append to the tail; [`IngestArena::ensure_sorted`] brings the whole
/// pool back into order.
#[derive(Debug, Default)]
struct ArenaPool {
    frags: Vec<Fragment>,
    sorted_len: usize,
    /// Largest fragment duration this pool has ever held, ns. Monotone
    /// (eviction never lowers it — a stale bound only widens the ranged
    /// scan, never narrows it), which is what makes the O(window) scan
    /// below safe: a fragment overlapping `[ws, we)` must start after
    /// `ws - max_dur_ns`, so the scan can skip everything earlier.
    max_dur_ns: u64,
}

impl ArenaPool {
    /// Feed `visit` the fragments overlapping `window` (all of them for
    /// `None`), in [`fragment_order`].
    ///
    /// A sorted pool — what every window close sees, since the ingestor
    /// runs [`IngestArena::ensure_sorted`] first — is walked by
    /// `partition_point` range lookups, touching O(ranks·log n +
    /// rows-in-window) elements instead of filtering the whole pool,
    /// which bounds a recovering straggler's backlog to O(window) per
    /// close. [`fragment_order`] (rank first, then start time) bounds
    /// each rank's candidates to one contiguous run:
    ///
    /// * the upper cut keeps `start < w.end` (any later start cannot
    ///   overlap);
    /// * the lower cut keeps `start > w.start − max_dur_ns` (any earlier
    ///   start has `end ≤ start + max_dur_ns ≤ w.start`, so it cannot
    ///   overlap either);
    /// * the remaining candidates are filtered by the exact overlap
    ///   predicate `end > w.start`, yielding precisely the set — and,
    ///   because the scan walks pool order, precisely the order — a full
    ///   `filter(overlaps)` pass produces.
    ///
    /// A pool with an unsorted tail (direct arena use without
    /// `ensure_sorted`) is filtered and sorted here instead; which of
    /// the two ran is unobservable.
    fn window_overlaps(&self, window: Option<Window>, mut visit: impl FnMut(&Fragment)) {
        let frags = self.frags.as_slice();
        if self.sorted_len != frags.len() {
            let mut kept: Vec<&Fragment> = frags
                .iter()
                .filter(|f| window.is_none_or(|w| w.overlaps(f.start, f.end)))
                .collect();
            kept.sort_by(|a, b| fragment_order(a, b));
            kept.into_iter().for_each(visit);
            return;
        }
        let Some(w) = window else {
            frags.iter().for_each(visit);
            return;
        };
        let ws = w.start.ns();
        let we = w.end.ns();
        let earliest_start = ws.saturating_sub(self.max_dur_ns);
        let mut run_start = 0;
        while run_start < frags.len() {
            let rank = frags[run_start].rank;
            let run = &frags[run_start..];
            let run_len = run.partition_point(|f| f.rank == rank);
            let run = &run[..run_len];
            let lo = run.partition_point(|f| f.start.ns() < earliest_start);
            let hi = run.partition_point(|f| f.start.ns() < we);
            for f in &run[lo.min(hi)..hi] {
                if f.end.ns() > ws {
                    visit(f);
                }
            }
            run_start += run_len;
        }
    }
}

/// Server-side fragment storage: shipped batches decoded **once** into
/// per-location pools. Locations are keyed by state (for invocation
/// pools) or state pair (for computation pools); state identity comes
/// from the batch label dictionary, so labels containing `" -> "` are
/// handled like any other.
#[derive(Debug, Default)]
pub struct IngestArena {
    /// Arena state keys; pool entries index into this.
    keys: Vec<StateKey>,
    key_ids: HashMap<&'static str, usize>,
    vertex_pools: HashMap<usize, ArenaPool>,
    edge_pools: HashMap<(usize, usize), ArenaPool>,
    fragments: usize,
    max_end_ns: u64,
    /// Fragment `Vec`s reclaimed from pools the watermark fully drained;
    /// the next pool for a fresh location reuses their capacity instead
    /// of allocating — the arena-level twin of the ingestor's columnar
    /// scratch recycling.
    free_pools: Vec<Vec<Fragment>>,
    /// Approximate bytes of fragment data currently resident (struct +
    /// arg payloads), maintained by absorption and eviction.
    resident_bytes: u64,
    /// The highest `resident_bytes` ever observed — the stat the
    /// long-stream bench gates on to prove eviction caps memory at
    /// O(watermark lag + open windows) instead of O(stream).
    high_water_bytes: u64,
}

/// Approximate resident footprint of one fragment: the inline struct
/// plus its argument payload. An accounting measure (allocator slack and
/// counter storage are not chased), but evict/absorb use the same
/// formula, so the resident gauge is exact relative to itself.
fn fragment_resident_bytes(f: &Fragment) -> u64 {
    (std::mem::size_of::<Fragment>() + f.args.len() * std::mem::size_of::<f64>()) as u64
}

impl IngestArena {
    /// An empty arena.
    pub fn new() -> IngestArena {
        IngestArena::default()
    }

    /// The arena id of `label`. Only a label this arena has never seen
    /// goes to the process-wide interner (and its lock): after a
    /// location's first batch the lookup stays in `key_ids`.
    fn key_id(&mut self, label: &str) -> usize {
        if let Some(&id) = self.key_ids.get(label) {
            return id;
        }
        let leaked = leak_label(label);
        let id = self.keys.len();
        self.keys.push(StateKey::Site(CallSite(leaked)));
        self.key_ids.insert(leaked, id);
        id
    }

    /// Absorb one decoded batch, *moving* its fragments into the pools.
    ///
    /// A label is resolved (and, the first time this arena sees it,
    /// interned for the life of the process) only when a non-empty group
    /// references it: a frame's label table is sender-controlled, so
    /// entries that carry no fragments must not grow the key tables.
    ///
    /// Group label ids are re-checked against the batch's own label
    /// table: the decoder validates them (`check_label`), but
    /// `FragmentBatch`'s fields are public, so a hand-built batch with
    /// an out-of-range id can arrive here. Such groups are dropped — a
    /// malformed monitoring batch must never panic the ingest plane.
    pub fn push_batch(&mut self, batch: FragmentBatch) {
        let FragmentBatch { labels, vertex_groups, edge_groups, .. } = batch;
        let mut ids: Vec<Option<usize>> = vec![None; labels.len()];
        let mut resolve = |arena: &mut IngestArena, label: u32| -> Option<usize> {
            let slot = ids.get_mut(label as usize)?;
            if slot.is_none() {
                *slot = Some(arena.key_id(labels.get(label as usize)?));
            }
            *slot
        };
        for g in vertex_groups {
            if g.fragments.is_empty() {
                continue;
            }
            let Some(id) = resolve(self, g.label) else { continue };
            let pool = Self::pool_at(&mut self.vertex_pools, id, &mut self.free_pools);
            Self::absorb(
                pool,
                g.fragments,
                &mut self.fragments,
                &mut self.max_end_ns,
                &mut self.resident_bytes,
            );
        }
        for g in edge_groups {
            if g.fragments.is_empty() {
                continue;
            }
            let (Some(from), Some(to)) = (resolve(self, g.from), resolve(self, g.to)) else {
                continue;
            };
            let pool = Self::pool_at(&mut self.edge_pools, (from, to), &mut self.free_pools);
            Self::absorb(
                pool,
                g.fragments,
                &mut self.fragments,
                &mut self.max_end_ns,
                &mut self.resident_bytes,
            );
        }
        self.high_water_bytes = self.high_water_bytes.max(self.resident_bytes);
    }

    /// The pool at `key`; a fresh location opens on reclaimed `Vec`
    /// capacity when there is any.
    fn pool_at<'p, K: Eq + std::hash::Hash>(
        pools: &'p mut HashMap<K, ArenaPool>,
        key: K,
        free_pools: &mut Vec<Vec<Fragment>>,
    ) -> &'p mut ArenaPool {
        pools.entry(key).or_insert_with(|| ArenaPool {
            frags: free_pools.pop().unwrap_or_default(),
            sorted_len: 0,
            max_dur_ns: 0,
        })
    }

    fn absorb(
        pool: &mut ArenaPool,
        frags: Vec<Fragment>,
        fragments: &mut usize,
        max_end_ns: &mut u64,
        resident_bytes: &mut u64,
    ) {
        *fragments += frags.len();
        for f in &frags {
            *max_end_ns = (*max_end_ns).max(f.end.ns());
            *resident_bytes += fragment_resident_bytes(f);
            pool.max_dur_ns = pool.max_dur_ns.max(f.end.ns().saturating_sub(f.start.ns()));
        }
        pool.frags.extend(frags);
    }

    /// Decode one binary frame and absorb it.
    pub fn push_encoded(&mut self, bytes: &[u8]) -> Result<(), WireError> {
        self.push_batch(FragmentBatch::decode(bytes)?);
        Ok(())
    }

    /// Total fragments held.
    pub fn len(&self) -> usize {
        self.fragments
    }

    /// Nothing ingested yet?
    pub fn is_empty(&self) -> bool {
        self.fragments == 0
    }

    /// Latest fragment end observed, ns — the arena's time watermark.
    pub fn max_end_ns(&self) -> u64 {
        self.max_end_ns
    }

    /// Approximate bytes of fragment data currently resident.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }

    /// The highest [`IngestArena::resident_bytes`] ever observed. With
    /// watermark eviction running, this plateaus at O(watermark lag +
    /// open windows) instead of growing with the stream.
    pub fn high_water_bytes(&self) -> u64 {
        self.high_water_bytes
    }

    /// Watermark-driven reclamation: drop every fragment whose end is at
    /// or before `horizon_ns`, the start of the earliest window that can
    /// still close.
    ///
    /// **Safety argument.** Windows are emitted in index order and
    /// window `k` starts at `k·step`, so once windows `0..closed` have
    /// been sealed, every window that can still be analysed has
    /// `start ≥ window(closed).start = horizon`. A fragment feeds a
    /// window only when it overlaps it — `f.start < w.end` and
    /// `f.end > w.start ≥ horizon` — so a fragment with
    /// `f.end ≤ horizon` is unreachable by *any* future window,
    /// half-overlap included (the half-overlap only means a fragment
    /// can feed two windows; both of them have closed by the time the
    /// horizon passes its end). Closed windows can never reopen: the
    /// `closed` counter is monotone and `close_ready`/`finish` only
    /// ever analyse window indices ≥ `closed`. Late frames readmitted
    /// under [`LateDataPolicy::Readmit`] are unaffected — data for
    /// still-open windows ends after the horizon and is retained;
    /// data only closed windows could have used is exactly what this
    /// reclaims.
    ///
    /// `max_end_ns` is deliberately untouched (the window cover is
    /// defined by the data watermark, not by what is resident), as are
    /// the key tables (bounded by distinct code locations, not stream
    /// length). Pools drained empty donate their `Vec` capacity to the
    /// free list for the next fresh location.
    pub fn evict_before(&mut self, horizon_ns: u64) {
        let IngestArena {
            vertex_pools, edge_pools, free_pools, fragments, resident_bytes, ..
        } = self;
        let mut evict_pool = |pool: &mut ArenaPool| {
            let mut kept = 0;
            let mut kept_sorted = 0;
            for i in 0..pool.frags.len() {
                // vapro-lint: allow(R5, i ranges over 0..len and swap targets kept <= i)
                if pool.frags[i].end.ns() > horizon_ns {
                    pool.frags.swap(kept, i);
                    if i < pool.sorted_len {
                        kept_sorted += 1;
                    }
                    kept += 1;
                } else {
                    *fragments = fragments.saturating_sub(1);
                    *resident_bytes =
                        // vapro-lint: allow(R5, i ranges over 0..len; kept branch above keeps it valid)
                        resident_bytes.saturating_sub(fragment_resident_bytes(&pool.frags[i]));
                }
            }
            // Kept fragments keep their relative order (each moves only
            // left), so the kept part of the sorted prefix stays sorted
            // and the watermark shrinks to exactly that count.
            pool.frags.truncate(kept);
            pool.sorted_len = kept_sorted;
        };
        for pool in vertex_pools.values_mut().chain(edge_pools.values_mut()) {
            evict_pool(pool);
        }
        let mut reclaim = |pool: &mut ArenaPool| {
            let mut empty = std::mem::take(&mut pool.frags);
            empty.clear();
            free_pools.push(empty);
        };
        vertex_pools.retain(|_, pool| {
            if pool.frags.is_empty() {
                reclaim(pool);
                false
            } else {
                true
            }
        });
        edge_pools.retain(|_, pool| {
            if pool.frags.is_empty() {
                reclaim(pool);
                false
            } else {
                true
            }
        });
    }

    /// Bring every pool up to its [`fragment_order`] invariant. A sorted
    /// prefix plus an appended tail is two runs to the standard
    /// run-adaptive stable sort (one run when shipping was in order), so
    /// fragments already in place are not re-sorted. After this, sealing
    /// a window sorts nothing.
    ///
    /// Equal elements under [`fragment_order`] are identical in every
    /// compared field — rank, times, kind, counter bits, arg bits — so
    /// stability cannot change any observable pool order.
    pub fn ensure_sorted(&mut self) {
        for pool in self.vertex_pools.values_mut().chain(self.edge_pools.values_mut()) {
            if pool.sorted_len != pool.frags.len() {
                pool.frags.sort_by(fragment_order);
                pool.sorted_len = pool.frags.len();
            }
        }
    }

    /// The fragments overlapping `window`, as a handle
    /// [`ColumnarPool::refill_from_merged`] gathers from. Building it
    /// touches no fragment.
    pub fn window_view(&self, window: Window) -> ArenaView<'_> {
        ArenaView { arena: self, window: Some(window) }
    }

    /// Everything ingested so far, regardless of time.
    pub fn full_view(&self) -> ArenaView<'_> {
        ArenaView { arena: self, window: None }
    }
}

/// A borrowed selection of an [`IngestArena`]: the whole arena, or the
/// fragments overlapping one window. It is the arena reference plus the
/// window — nothing is collected until a [`ColumnarPool`] gathers it.
#[derive(Debug)]
pub struct ArenaView<'a> {
    arena: &'a IngestArena,
    window: Option<Window>,
}

impl ArenaView<'_> {
    /// Append the selection to `out`, one lane per location that has a
    /// selected fragment: vertex lanes then edge lanes, each list in
    /// state-key order (what `merge_stgs` produces, so every downstream
    /// label, series and rare-path order matches the one-shot path), and
    /// fragments in [`fragment_order`] — (rank, time) first with a
    /// content tiebreaker, so a sealed window never depends on batch
    /// arrival order even when timestamps collide.
    pub(crate) fn gather_into(&self, out: &mut ColumnarPool) {
        let arena = self.arena;
        let mut vertices: Vec<(&StateKey, &ArenaPool)> = arena
            .vertex_pools
            .iter()
            .filter_map(|(&id, pool)| Some((arena.keys.get(id)?, pool)))
            .collect();
        vertices.sort_unstable_by(|a, b| a.0.cmp(b.0));
        for (key, pool) in vertices {
            // vapro-lint: allow(R1, one StateKey per location table entry; not a fragment population)
            self.gather_pool(pool, out, |out| out.begin_vertex(key.clone()));
        }
        let mut edges: Vec<((&StateKey, &StateKey), &ArenaPool)> = arena
            .edge_pools
            .iter()
            .filter_map(|(&(from, to), pool)| {
                Some(((arena.keys.get(from)?, arena.keys.get(to)?), pool))
            })
            .collect();
        edges.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        for ((from, to), pool) in edges {
            // vapro-lint: allow(R1, one StateKey pair per edge table entry; not a fragment population)
            self.gather_pool(pool, out, |out| out.begin_edge(from.clone(), to.clone()));
        }
    }

    /// Append `pool`'s selected fragments to `out`, calling `begin` to
    /// open their lane before the first one — never, for a location the
    /// selection leaves empty.
    fn gather_pool(
        &self,
        pool: &ArenaPool,
        out: &mut ColumnarPool,
        begin: impl Fn(&mut ColumnarPool),
    ) {
        let mut open = false;
        pool.window_overlaps(self.window, |f| {
            if !open {
                begin(out);
                open = true;
            }
            out.push(f);
        });
    }
}

/// Incremental windowed ingestion: push batches as clients ship them;
/// half-overlapped analysis windows are detected on rayon **as they
/// close**, rather than re-pooling the whole run at every report.
///
/// A window closes when *every* rank has shipped past its end. Each
/// batch's `window_end_ns` declares "this rank has reported every
/// fragment starting before here" (start-partitioned shipping,
/// [`FragmentBatch::from_stg_starting_in`]); the minimum of those
/// per-rank marks is the shipping low-watermark, and a window whose end
/// it passes can no longer gain fragments — one fast client racing ahead
/// never closes a window that slower clients still owe data to.
///
/// When clients ship exactly their data span, the union of all reports
/// (stream + [`WindowedIngestor::finish`]) is bit-identical to the
/// one-shot [`ServerPool::analyze_windows`] over the same STGs.
///
/// **Fault tolerance** (`cfg.fault`, off by default): with a
/// `dead_horizon` set, a rank whose shipping mark trails the fastest
/// rank's by more than the horizon is declared [`RankHealth::Dead`] and
/// excluded from the low-watermark, so one crashed client can no longer
/// stall window closing forever; its subsequent frames are re-admitted
/// or dropped per [`LateDataPolicy`]. Sequenced frames are
/// deduplicated and advance the shipping mark only along the contiguous
/// sequence prefix, so reordered delivery can never close a window whose
/// data is still in flight. Every rejected frame is counted in
/// [`IngestStats`] and every closed window carries a [`WindowCoverage`].
pub struct WindowedIngestor {
    arena: IngestArena,
    nranks: usize,
    bins_per_window: usize,
    cfg: VaproConfig,
    /// Windows emitted so far; window `k` spans
    /// `[k·step, k·step + period)` with `step = period/2`.
    closed: usize,
    /// Per-rank shipping marks and sequence state.
    trackers: Vec<RankTracker>,
    /// Fault accounting across the whole stream.
    stats: IngestStats,
    /// Bytes admitted ahead of the watermark, keyed by the shipped
    /// `window_end_ns` that releases them; bounded by
    /// `cfg.fault.max_buffered_bytes` when set.
    buffered_ahead: BTreeMap<u64, u64>,
    buffered_ahead_bytes: u64,
    /// Recycled per-window columnar scratch: each closing window pops a
    /// pool, refills it from the arena, and pushes it back with capacity
    /// intact — steady-state window close allocates no new lanes. Shared
    /// with the analysis stage's pool tasks (they return finished pools),
    /// and guarded by the vendored non-poisoning `parking_lot::Mutex`:
    /// recycling can never be silently disabled by a poisoned lock.
    scratch_pools: Arc<Mutex<Vec<ColumnarPool>>>,
    /// How many scratch pools have ever been allocated (pop found the
    /// stack empty). Bounded by the pipeline depth plus the one being
    /// sealed in steady state — the recycling proof the tests assert.
    scratch_pools_allocated: AtomicU64,
    /// The bounded in-order analysis pipeline (tentpole layer 3),
    /// spawned lazily on the first sealed window when
    /// `cfg.pipeline_depth > 0`. `None` until then, and always `None`
    /// at depth 0 (inline analysis).
    stage: Option<AnalysisStage>,
}

impl WindowedIngestor {
    /// A fresh ingestor analysing windows of `cfg.report_period` for a
    /// population of `nranks` clients.
    pub fn new(nranks: usize, bins_per_window: usize, cfg: VaproConfig) -> WindowedIngestor {
        // vapro-lint: allow(R5, fail-fast constructor contract on operator config, before any ingest)
        assert!(cfg.report_period.ns() > 0, "zero analysis period");
        // vapro-lint: allow(R5, fail-fast constructor contract on operator config, before any ingest)
        assert!(nranks > 0, "need at least one client");
        // vapro-lint: allow(R5, fail-fast constructor contract on operator config, before any ingest)
        assert!(cfg.is_valid(), "invalid config (check fault horizons)");
        WindowedIngestor {
            arena: IngestArena::new(),
            nranks,
            bins_per_window,
            cfg,
            closed: 0,
            trackers: (0..nranks).map(|_| RankTracker::default()).collect(),
            stats: IngestStats::default(),
            buffered_ahead: BTreeMap::new(),
            buffered_ahead_bytes: 0,
            scratch_pools: Arc::new(Mutex::new(Vec::new())),
            scratch_pools_allocated: AtomicU64::new(0),
            stage: None,
        }
    }

    fn window(&self, k: usize) -> Window {
        let step = (self.cfg.report_period.ns() / 2).max(1);
        let start = k as u64 * step;
        Window {
            start: VirtualTime::from_ns(start),
            end: VirtualTime::from_ns(start + self.cfg.report_period.ns()),
        }
    }

    /// The arena accumulated so far.
    pub fn arena(&self) -> &IngestArena {
        &self.arena
    }

    /// Fault accounting so far.
    pub fn stats(&self) -> &IngestStats {
        &self.stats
    }

    /// Bytes currently buffered ahead of the watermark.
    pub fn buffered_ahead_bytes(&self) -> u64 {
        self.buffered_ahead_bytes
    }

    /// Per-rank liveness under the configured straggler policy. Without
    /// horizons every rank is [`RankHealth::Live`].
    pub fn rank_health(&self) -> Vec<RankHealth> {
        let fastest = self.trackers.iter().map(|t| t.mark_ns).max().unwrap_or(0);
        self.trackers
            .iter()
            .map(|t| {
                if t.dead {
                    RankHealth::Dead
                } else {
                    match self.cfg.fault.straggler_horizon {
                        Some(h) if fastest.saturating_sub(t.mark_ns) > h.ns() => {
                            RankHealth::Degraded
                        }
                        _ => RankHealth::Live,
                    }
                }
            })
            .collect()
    }

    /// Grow the deployment by one rank mid-stream (elastic membership):
    /// returns the new rank id, which the joining client must stamp on
    /// its frames. The newcomer's shipping mark starts at the current
    /// watermark, so it owes nothing behind what has already closed —
    /// windows at or below the watermark stay closed, later windows
    /// wait for it like any other rank. Its sequence numbering starts
    /// fresh at 1. Windows sealed before the birth keep their original
    /// rank count; windows closing after it analyse with the widened
    /// deployment.
    pub fn add_rank(&mut self) -> usize {
        let rank = self.nranks;
        self.nranks += 1;
        self.trackers.push(RankTracker {
            mark_ns: self.watermark_ns(),
            ..RankTracker::default()
        });
        hit(FaultPoint::RankBirth);
        rank
    }

    /// Absorb one batch and analyse every window it closed. Batches past
    /// a rank's last fragment (even empty ones) still advance its
    /// shipping mark. Rejections (duplicates, late data under `Drop`,
    /// backpressure) are counted in [`IngestStats`], never panics.
    pub fn push(&mut self, batch: FragmentBatch) -> Vec<WindowReport> {
        let approx = 64
            + batch.labels.iter().map(|l| l.len() as u64 + 4).sum::<u64>()
            + batch.fragments().map(fragment_wire_bytes).sum::<u64>();
        let _ = self.admit(batch, approx); // rejection already counted
        self.close_ready()
    }

    /// Decode one binary frame, absorb it, analyse closed windows. The
    /// decoded batch goes through the same admission as
    /// [`WindowedIngestor::push`], so the rank check and shipping-mark
    /// advance apply identically on both entry points. Decode and
    /// admission failures are returned *and* counted in
    /// [`IngestStats`] — a server loop can log them without bespoke
    /// bookkeeping.
    pub fn push_encoded(&mut self, bytes: &[u8]) -> Result<Vec<WindowReport>, WireError> {
        let batch = match FragmentBatch::decode(bytes) {
            Ok(b) => b,
            Err(e) => {
                self.stats.count_decode_error(&e);
                return Err(e);
            }
        };
        self.admit(batch, bytes.len() as u64)?;
        Ok(self.close_ready())
    }

    /// Admission control: rank validation, dedup, dead-rank late policy,
    /// backpressure, then arena absorption. `Err` for unknown ranks
    /// (hostile or misrouted frames) and duplicates (the one rejection a
    /// sender can act on — stop retransmitting); policy drops return
    /// `Ok` because they are the server's own choice. Total: hostile
    /// input is counted and rejected, never a panic.
    fn admit(&mut self, batch: FragmentBatch, frame_bytes: u64) -> Result<(), WireError> {
        let (rank, seq) = (batch.rank, batch.seq);
        let Some(tracker) = self.trackers.get(rank) else {
            self.stats.unknown_rank_frames += 1;
            hit(FaultPoint::UnknownRankReject);
            return Err(WireError::UnknownRank {
                rank: rank as u32,
                nranks: self.nranks as u32,
            });
        };
        if tracker.is_duplicate(seq) {
            self.stats.duplicate_frames += 1;
            hit(FaultPoint::SeqDuplicateReject);
            return Err(WireError::DuplicateSequence { rank: rank as u32, seq });
        }
        if tracker.dead && self.cfg.fault.late_data == LateDataPolicy::Drop {
            // The frame is acknowledged (its sequence number is recorded,
            // so retransmits stay duplicates and no gap is reported) but
            // its data is discarded: the windows it belonged to closed
            // without this rank.
            if let Some(t) = self.trackers.get_mut(rank) {
                t.admit(seq, batch.window_end_ns);
            }
            self.stats.dropped_late_frames += 1;
            hit(FaultPoint::LateDataDrop);
            return Ok(());
        }
        let ahead = batch.window_start_ns > self.watermark_ns();
        if ahead {
            if let Some(cap) = self.cfg.fault.max_buffered_bytes {
                if self.buffered_ahead_bytes.saturating_add(frame_bytes) > cap {
                    // Accounted drop: the mark still advances (the rank
                    // *did* ship this span — stalling the watermark would
                    // turn one overload into permanent blockage), but the
                    // fragments are not admitted and the loss is visible
                    // in every subsequent window's coverage.
                    if let Some(t) = self.trackers.get_mut(rank) {
                        t.admit(seq, batch.window_end_ns);
                    }
                    self.stats.dropped_backpressure_frames += 1;
                    self.stats.dropped_backpressure_bytes += frame_bytes;
                    hit(FaultPoint::BackpressureDrop);
                    return Ok(());
                }
            }
        }
        if let Some(t) = self.trackers.get_mut(rank) {
            t.admit(seq, batch.window_end_ns);
        }
        if ahead && self.cfg.fault.max_buffered_bytes.is_some() {
            *self.buffered_ahead.entry(batch.window_end_ns).or_insert(0) += frame_bytes;
            self.buffered_ahead_bytes += frame_bytes;
        }
        self.stats.frames_admitted += 1;
        self.arena.push_batch(batch);
        Ok(())
    }

    /// The shipping low-watermark: the minimum mark over live ranks —
    /// or, when every rank is dead, the maximum mark, so the stream can
    /// still drain.
    pub fn watermark_ns(&self) -> u64 {
        let low = match self.trackers.iter().filter(|t| !t.dead).map(|t| t.mark_ns).min() {
            Some(low) => low,
            None => self.trackers.iter().map(|t| t.mark_ns).max().unwrap_or(0),
        };
        // The `WatermarkOffByOne` canary (vopr-canary builds only) skews
        // the watermark half a report period ahead of what ranks
        // actually shipped, closing windows before their data arrives.
        // The VOPR stream ≡ one-shot and watermark-agreement invariants
        // must flag it.
        if canary::armed(canary::Canary::WatermarkOffByOne) {
            return low.saturating_add((self.cfg.report_period.ns() / 2).max(1));
        }
        low
    }

    /// Latch `Dead` onto every rank trailing the fastest mark by more
    /// than the configured horizon.
    fn update_liveness(&mut self) {
        let Some(dead_h) = self.cfg.fault.dead_horizon else { return };
        let fastest = self.trackers.iter().map(|t| t.mark_ns).max().unwrap_or(0);
        for t in &mut self.trackers {
            if !t.dead && fastest.saturating_sub(t.mark_ns) > dead_h.ns() {
                t.dead = true;
                hit(FaultPoint::DeadRankLatch);
            }
        }
    }

    /// Transport-side coverage of `w` at close time. `ranks_absent` is
    /// filled later from the sealed window itself. At `finish` the stream
    /// is over, so every rank not declared dead has shipped everything
    /// it ever will — its data is complete even if its final mark
    /// rounds below the window end.
    fn coverage_at_close(&self, w: Window, at_finish: bool) -> WindowCoverage {
        let ranks_dead: Vec<usize> = self
            .trackers
            .iter()
            .enumerate()
            .filter(|(_, t)| t.dead)
            .map(|(r, _)| r)
            .collect();
        let ranks_complete = self
            .trackers
            .iter()
            .filter(|t| t.mark_ns >= w.end.ns() || (at_finish && !t.dead))
            .count();
        WindowCoverage {
            nranks: self.nranks,
            ranks_complete,
            ranks_absent: Vec::new(),
            ranks_dead,
            corrupt_frames: self.stats.corrupt_frames,
            duplicate_frames: self.stats.duplicate_frames,
            dropped_late_frames: self.stats.dropped_late_frames,
            dropped_backpressure_frames: self.stats.dropped_backpressure_frames,
            dropped_backpressure_bytes: self.stats.dropped_backpressure_bytes,
            seq_gaps: self.trackers.iter().map(|t| t.gaps()).sum(),
            completeness: ranks_complete as f64 / self.nranks as f64,
        }
    }

    /// Seal one closed window: snapshot its fragments out of the arena
    /// into a recycled columnar pool (a fresh one, counted, when the
    /// stack is empty). Both the inline and the staged close come
    /// through here, so they analyse identical input. Sealing must
    /// precede both eviction (a ready window may still need fragments at
    /// the reclamation horizon) and the next admission (the snapshot
    /// defines bit-identity), which is why it stays synchronous with
    /// `close_ready` even when the analysis itself is pipelined.
    fn seal(&self, window: Window) -> ColumnarPool {
        let recycled = self.scratch_pools.lock().pop();
        let mut pool = recycled.unwrap_or_else(|| {
            self.scratch_pools_allocated.fetch_add(1, Ordering::Relaxed);
            ColumnarPool::new()
        });
        pool.refill_from_merged(&self.arena.window_view(window));
        pool
    }

    /// How many columnar scratch pools were ever allocated. Recycling
    /// keeps this bounded by the stage's concurrency, not the window
    /// count — the test-visible proof that a steady-state window close
    /// reuses lanes instead of allocating.
    pub fn scratch_pools_allocated(&self) -> u64 {
        self.scratch_pools_allocated.load(Ordering::Relaxed)
    }

    /// Inline (depth-0) analysis: seal and analyse on the calling
    /// thread, windows fanning out on rayon. The pipelined path routes
    /// the identical seal + [`analyze_view_columnar`] sequence through
    /// the stage's pool tasks instead.
    fn analyze(&self, windows: Vec<(Window, WindowCoverage)>) -> Vec<WindowReport> {
        windows
            .into_par_iter()
            .map(|(window, coverage)| {
                let pool = self.seal(window);
                let report = analyze_view_columnar(
                    &pool,
                    window,
                    self.nranks,
                    self.bins_per_window,
                    &self.cfg,
                    coverage,
                );
                self.scratch_pools.lock().push(pool);
                report
            })
            .collect()
    }

    /// Seal `windows` on this thread and hand them to the analysis
    /// stage, spawning it on first use.
    fn seal_into_stage(&mut self, windows: Vec<(Window, WindowCoverage)>) {
        if windows.is_empty() {
            return;
        }
        if self.stage.is_none() {
            self.stage = Some(AnalysisStage::new(
                self.cfg.pipeline_depth,
                // vapro-lint: allow(R1, one config snapshot at stage spawn; not a fragment population)
                self.cfg.clone(),
                self.bins_per_window,
                Arc::clone(&self.scratch_pools),
            ));
        }
        for (window, coverage) in windows {
            let pool = self.seal(window);
            if let Some(stage) = self.stage.as_mut() {
                // nranks travels per sealed window: a rank born between
                // two closes must widen later windows' heatmaps but not
                // retroactively widen ones already sealed.
                stage.submit(window, coverage, self.nranks, pool);
            }
        }
    }

    /// Harvest reports whose analysis completed since the last call,
    /// without blocking — always the contiguous next run of windows, so
    /// concatenating everything `push`/`poll_reports`/`finish` return
    /// yields reports in exact window order. Fleet drains call this to
    /// pick up windows that finished between frames.
    pub fn poll_reports(&mut self) -> Vec<WindowReport> {
        match self.stage.as_mut() {
            Some(stage) => stage.take_completed(),
            None => Vec::new(),
        }
    }

    /// Windows sealed into the pipeline but not yet emitted (in flight
    /// on the pool, or parked awaiting an earlier window). Bounded by
    /// `cfg.pipeline_depth`; always 0 on the inline path.
    pub fn pending_windows(&self) -> u64 {
        self.stage.as_ref().map_or(0, AnalysisStage::pending)
    }

    fn close_ready(&mut self) -> Vec<WindowReport> {
        // A window is closeable once no awaited rank owes it fragments
        // (its end is behind the live low-watermark) and it provably
        // belongs to the final cover. `windows_covering(0, t_end)` keeps
        // window k only when it is the first window or window k-1 ends
        // before the data watermark; `seen` only grows, so `prev_end <
        // seen` proves membership now — anything else waits for
        // `finish`, which knows the final watermark. Without this rule a
        // shipping mark rounded up past the data end (a client's last,
        // possibly empty, period) would emit windows the one-shot cover
        // lacks.
        self.update_liveness();
        let low = self.watermark_ns();
        let seen = self.arena.max_end_ns();
        // Maintenance sort before any window is sealed: sealing then
        // range-scans already-ordered pools instead of sorting per window.
        self.arena.ensure_sorted();
        let mut ready = Vec::new();
        loop {
            let w = self.window(self.closed);
            let in_cover = if self.closed == 0 {
                seen > 0
            } else {
                self.window(self.closed - 1).end.ns() < seen
            };
            if w.end.ns() > low || !in_cover {
                break;
            }
            ready.push((w, self.coverage_at_close(w, false)));
            self.closed += 1;
        }
        // Frames the watermark has passed are no longer "ahead": release
        // their bytes from the backpressure budget.
        while let Some((&end, _)) = self.buffered_ahead.first_key_value() {
            if end > low {
                break;
            }
            if let Some(bytes) = self.buffered_ahead.remove(&end) {
                self.buffered_ahead_bytes = self.buffered_ahead_bytes.saturating_sub(bytes);
            }
        }
        let closed_any = !ready.is_empty();
        let reports = if self.cfg.pipeline_depth == 0 {
            self.analyze(ready)
        } else {
            self.seal_into_stage(ready);
            self.poll_reports()
        };
        // Reclaim fragments no future window can reach. Only after the
        // ready windows were sealed (inline analysis or stage hand-off
        // both copy the window's fragments out first), and only when
        // `closed` advanced — the horizon is monotone, so an unchanged
        // watermark has nothing new to release.
        if closed_any {
            // The `EvictLive` canary (vopr-canary builds only) pushes
            // the reclamation horizon a full window ahead, evicting
            // fragments that open windows still need; the VOPR
            // stream ≡ one-shot identity must flag the data loss.
            let horizon = if canary::armed(canary::Canary::EvictLive) {
                self.window(self.closed).end.ns()
            } else {
                self.window(self.closed).start.ns()
            };
            let resident_before = self.arena.resident_bytes();
            self.arena.evict_before(horizon);
            if self.arena.resident_bytes() < resident_before {
                hit(FaultPoint::ArenaEviction);
            }
        }
        reports
    }

    /// End of stream: analyse the remaining windows. The union of all
    /// reports equals exactly what [`ServerPool::analyze_windows`] —
    /// i.e. [`windows_covering`] up to the data watermark — produces,
    /// **regardless of shipping marks**: a rank that went silent without
    /// ever shipping its final mark cannot strand the tail windows. An
    /// ingestor that saw no fragments reports nothing.
    pub fn finish(mut self) -> Vec<WindowReport> {
        self.update_liveness();
        let t_end = self.arena.max_end_ns();
        self.arena.ensure_sorted();
        let mut remaining = Vec::new();
        // Emit up to and including the first window whose end reaches
        // `t_end`, mirroring `windows_covering(0, t_end, period)`.
        while t_end > 0
            && (self.closed == 0 || self.window(self.closed - 1).end.ns() < t_end)
        {
            let w = self.window(self.closed);
            remaining.push((w, self.coverage_at_close(w, true)));
            self.closed += 1;
        }
        if self.cfg.pipeline_depth == 0 {
            return self.analyze(remaining);
        }
        // Seal the tail, then join the stage: every submitted window —
        // including ones still in flight from earlier pushes — is
        // analysed and emitted in window order before this returns.
        self.seal_into_stage(remaining);
        match self.stage.take() {
            Some(mut stage) => stage.drain(),
            None => Vec::new(),
        }
    }
}

/// A tree of aggregation nodes (paper §5: "further optimizations are
/// feasible with data collection frameworks such as MRNet, which
/// organizes servers into a tree-like structure"): leaf servers merge
/// their clients' heat-map slabs; interior nodes merge pairwise up to a
/// single root map, in O(log n) merge depth.
pub fn tree_aggregate(mut maps: Vec<crate::detect::heatmap::HeatMap>) -> Option<crate::detect::heatmap::HeatMap> {
    if maps.is_empty() {
        return None;
    }
    // Pairwise reduction; each level halves the population. Levels run
    // in parallel since pair merges are independent.
    while maps.len() > 1 {
        maps = maps
            .par_chunks(2)
            .map(|pair| {
                // vapro-lint: allow(R1, heat-map slab accumulator seeds each pairwise merge; not a fragment population)
                let mut acc = pair[0].clone();
                if let Some(second) = pair.get(1) {
                    acc.merge(second);
                }
                acc
            })
            .collect();
    }
    maps.pop()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::pipeline::detect;
    use crate::fragment::FragmentKind;
    use crate::stg::StateKey;
    use vapro_pmu::{CounterDelta, CounterId};
    use vapro_sim::CallSite;

    #[test]
    fn round_robin_is_balanced() {
        let pool = ServerPool::new(4, 1024);
        assert_eq!(pool.servers.len(), 4);
        assert_eq!(pool.imbalance(), 0);
        assert_eq!(pool.servers[0].clients.len(), 256);
        // The paper's deployment: 1 server per 256 clients → 1/256 ≈ 0.4 %.
        assert!((pool.resource_overhead() - 1.0 / 256.0).abs() < 1e-12);
    }

    #[test]
    fn uneven_population_is_off_by_at_most_one() {
        let pool = ServerPool::new(3, 100);
        assert!(pool.imbalance() <= 1);
        let total: usize = pool.servers.iter().map(|s| s.clients.len()).sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn ingest_rate_scales_with_clients() {
        let pool = ServerPool::new(2, 512);
        // 47.4 KB/s per process (the paper's multi-process rate).
        let rate = pool.servers[0].ingest_rate(47_400.0);
        assert!((rate - 256.0 * 47_400.0).abs() < 1e-6);
    }

    fn looped_stg(rank: usize, n: usize, period_ns: u64, slow_range: std::ops::Range<usize>) -> Stg {
        let mut stg = Stg::new();
        let start = stg.state(StateKey::Start);
        let site = stg.state(StateKey::Site(CallSite("w:MPI_Barrier")));
        stg.transition(start, site);
        let e = stg.transition(site, site);
        let mut t = 0u64;
        for i in 0..n {
            let d = if slow_range.contains(&i) { period_ns * 3 } else { period_ns };
            let mut c = CounterDelta::default();
            c.put(CounterId::TotIns, 1000.0);
            stg.attach_edge_fragment(
                e,
                Fragment {
                    rank,
                    kind: FragmentKind::Computation,
                    start: VirtualTime::from_ns(t),
                    end: VirtualTime::from_ns(t + d),
                    counters: c,
                    args: vec![],
                },
            );
            t += d + 10;
        }
        stg
    }

    #[test]
    fn windowed_analysis_localises_variance_in_time() {
        // 40 iterations of ~1s each; iterations 20..25 are slow.
        let cfg = VaproConfig {
            report_period: VirtualTime::from_secs(15),
            ..VaproConfig::default()
        };
        let stgs = vec![looped_stg(0, 40, 1_000_000_000, 20..25)];
        let pool = ServerPool::new(1, 1);
        let reports = pool.analyze_windows(&stgs, 1, 8, &cfg);
        assert!(reports.len() > 2, "windows: {}", reports.len());
        // Windows overlapping the slow span see variance; early ones don't.
        let early = &reports[0];
        assert!(early.result.comp_regions.is_empty());
        let hit = reports
            .iter()
            .any(|r| !r.result.comp_regions.is_empty());
        assert!(hit, "no window detected the slow span");
    }

    /// The pre-refactor reference: restrict an STG to the fragments
    /// overlapping `window` by *cloning* them into a fresh graph.
    fn slice_stg(stg: &Stg, window: Window) -> Stg {
        let keep = |f: &Fragment| window.overlaps(f.start, f.end);
        let mut out = Stg::new();
        let mut ids = Vec::with_capacity(stg.num_states());
        for v in stg.vertices() {
            let id = out.state(v.key.clone());
            ids.push(id);
            for f in v.fragments.iter().filter(|f| keep(f)) {
                out.attach_vertex_fragment(id, f.clone());
            }
        }
        for e in stg.edges() {
            let eid = out.transition(ids[e.from], ids[e.to]);
            for f in e.fragments.iter().filter(|f| keep(f)) {
                out.attach_edge_fragment(eid, f.clone());
            }
        }
        out
    }

    fn assert_results_identical(a: &DetectionResult, b: &DetectionResult) {
        assert_eq!(a.series, b.series);
        assert_eq!(a.rare_paths, b.rare_paths);
        assert_eq!(a.comp_map, b.comp_map);
        assert_eq!(a.comm_map, b.comm_map);
        assert_eq!(a.io_map, b.io_map);
        assert_eq!(a.comp_regions, b.comp_regions);
        assert_eq!(a.comm_regions, b.comm_regions);
        assert_eq!(a.io_regions, b.io_regions);
        assert_eq!(a.coverage.to_bits(), b.coverage.to_bits());
        assert_eq!(a.edge_clusters, b.edge_clusters);
    }

    #[test]
    fn window_views_are_bit_identical_to_cloned_slices() {
        // The zero-copy window path must reproduce the old
        // slice-and-clone pooling exactly, window by window.
        let cfg = VaproConfig {
            report_period: VirtualTime::from_secs(5),
            ..VaproConfig::default()
        };
        let mut stgs: Vec<Stg> = (0..3)
            .map(|r| looped_stg(r, 30, 1_000_000_000, 0..0))
            .collect();
        stgs[1] = looped_stg(1, 30, 1_000_000_000, 10..16);
        let pool = ServerPool::new(1, 3);
        let reports = pool.analyze_windows(&stgs, 3, 8, &cfg);
        let t_end = VirtualTime::from_ns(stgs.iter().flat_map(|s| s.edges()).flat_map(|e| e.fragments.iter()).map(|f| f.end.ns()).max().unwrap());
        let windows = windows_covering(VirtualTime::ZERO, t_end, cfg.report_period);
        assert_eq!(reports.len(), windows.len());
        for (report, window) in reports.iter().zip(windows) {
            assert_eq!(report.window, window);
            let sliced: Vec<Stg> = stgs.iter().map(|s| slice_stg(s, window)).collect();
            let reference = detect(&sliced, 3, 8, &cfg);
            assert_results_identical(&report.result, &reference);
        }
    }

    #[cfg(any(debug_assertions, feature = "clone-count"))]
    #[test]
    fn window_views_clone_no_fragments() {
        use crate::detect::pipeline::detect_merged_impl;
        use crate::fragment::clone_count;
        let cfg = VaproConfig {
            report_period: VirtualTime::from_secs(5),
            ..VaproConfig::default()
        };
        let stgs: Vec<Stg> = (0..2)
            .map(|r| looped_stg(r, 20, 1_000_000_000, 5..9))
            .collect();
        let windows =
            windows_covering(VirtualTime::ZERO, VirtualTime::from_secs(25), cfg.report_period);
        // Run the whole per-window pipeline single-threaded on this
        // thread: the thread-local clone counter must not move.
        let before = clone_count::on_this_thread();
        for window in windows {
            let view = merge_stgs_window(&stgs, window);
            let _ = detect_merged_impl(&view, 2, 8, &cfg, false, None);
        }
        assert_eq!(clone_count::on_this_thread(), before, "fragment cloned on window path");
    }

    #[cfg(any(debug_assertions, feature = "clone-count"))]
    #[test]
    fn arena_window_views_clone_no_fragments() {
        use crate::fragment::clone_count;
        let cfg = VaproConfig::default();
        let stg = looped_stg(0, 20, 1_000_000, 0..0);
        let window = Window { start: VirtualTime::ZERO, end: VirtualTime::from_secs(1) };
        let encoded = FragmentBatch::from_stg(&stg, 0, window).encode_v3();
        let mut arena = IngestArena::new();
        // Decoding constructs fragments (it doesn't clone), pushing moves
        // them, and sealing a window copies fields into columns. The
        // windows are far below the fan-out threshold, so detection runs
        // on this thread, under its clone counter.
        let before = clone_count::on_this_thread();
        arena.push_encoded(&encoded).unwrap();
        let mut pool = ColumnarPool::new();
        for k in 0..4u64 {
            let w = Window {
                start: VirtualTime::from_ns(k * 5_000_000),
                end: VirtualTime::from_ns(k * 5_000_000 + 10_000_000),
            };
            pool.refill_from_merged(&arena.window_view(w));
            assert!(!pool.is_empty(), "window {k} sealed nothing");
            let _ = detect_columnar(&pool, 1, 8, &cfg);
        }
        assert_eq!(clone_count::on_this_thread(), before, "fragment cloned on ingest path");
    }

    #[test]
    fn known_labels_stay_off_the_process_wide_interner() {
        // A location's first batch interns its labels; every later batch
        // with the same labels must resolve them in the arena's own map
        // and never reach `leak_label`'s global lock.
        use crate::wire::LEAK_LABEL_CALLS;
        let stg = looped_stg(0, 20, 1_000_000, 0..0);
        let period = |k: u64| Window {
            start: VirtualTime::from_ns(k * 10_000_000),
            end: VirtualTime::from_ns((k + 1) * 10_000_000),
        };
        let mut arena = IngestArena::new();
        arena.push_batch(FragmentBatch::from_stg_starting_in(&stg, 0, period(0)));
        let (keys, calls) = (arena.keys.len(), LEAK_LABEL_CALLS.get());
        assert!(keys > 0 && calls > 0, "first batch interned nothing");
        let second = FragmentBatch::from_stg_starting_in(&stg, 0, period(1));
        assert!(!second.is_empty());
        arena.push_batch(second);
        assert_eq!(arena.keys.len(), keys, "a known label was issued a second id");
        assert_eq!(LEAK_LABEL_CALLS.get(), calls, "a known label went back to the global lock");
    }

    #[test]
    fn labels_that_carry_no_fragments_are_never_interned() {
        // A frame's label table is sender-controlled. Entries no group
        // references, and entries only an empty group references, must
        // not reach the process-lifetime interner or the arena's key
        // tables: 1 000 distinct strings per frame would otherwise stay
        // allocated for the life of the server.
        use crate::wire::{VertexGroup, LEAK_LABEL_CALLS};
        let mut arena = IngestArena::new();
        let (keys, calls) = (arena.keys.len(), LEAK_LABEL_CALLS.get());
        arena.push_batch(FragmentBatch {
            rank: 0,
            seq: 0,
            tenant_id: 0,
            job_id: 0,
            window_start_ns: 0,
            window_end_ns: 1_000,
            labels: (0..1000).map(|i| format!("server-test-unreferenced-{i}")).collect(),
            vertex_groups: vec![VertexGroup { label: 7, fragments: Vec::new() }],
            edge_groups: Vec::new(),
        });
        assert_eq!(LEAK_LABEL_CALLS.get(), calls, "a label without fragments was leaked");
        assert_eq!(arena.keys.len(), keys, "a label without fragments was issued a key");
        assert!(arena.is_empty() && arena.vertex_pools.is_empty());
    }

    #[test]
    fn incremental_ingestor_matches_batch_windowing() {
        // Clients ship start-partitioned per-period batches through the
        // binary wire; the incremental ingestor's reports must equal the
        // one-shot windowed analysis of the same STGs.
        let cfg = VaproConfig {
            report_period: VirtualTime::from_secs(5),
            ..VaproConfig::default()
        };
        let mut stgs: Vec<Stg> = (0..3)
            .map(|r| looped_stg(r, 30, 1_000_000_000, 0..0))
            .collect();
        stgs[2] = looped_stg(2, 30, 1_000_000_000, 12..18);
        let pool = ServerPool::new(1, 3);
        let reference = pool.analyze_windows(&stgs, 3, 8, &cfg);

        // Period-major shipping (every rank ships period k before any
        // rank ships k+1) — the paper's reporting pattern. Pool views
        // keep (rank, time) order, so arrival order doesn't matter for
        // the bit-exactness. Empty batches past the data end ship too:
        // they advance the shipping marks far beyond the watermark, and
        // the closing rule must still not emit windows the one-shot
        // cover lacks.
        let mut ingestor = WindowedIngestor::new(3, 8, cfg.clone());
        let mut reports = Vec::new();
        for k in 0..20u64 {
            let period = Window {
                start: VirtualTime::from_secs(5 * k),
                end: VirtualTime::from_secs(5 * (k + 1)),
            };
            for (rank, stg) in stgs.iter().enumerate() {
                let batch = FragmentBatch::from_stg_starting_in(stg, rank, period);
                reports.extend(
                    ingestor.push_encoded(&batch.encode_v3()).expect("valid frame"),
                );
            }
        }
        reports.extend(ingestor.finish());

        assert_eq!(reports.len(), reference.len());
        for (got, want) in reports.iter().zip(&reference) {
            assert_eq!(got.window, want.window);
            assert_results_identical(&got.result, &want.result);
            assert_eq!(got.diagnoses, want.diagnoses);
        }
        // And the variance was actually found in some window.
        assert!(reports.iter().any(|r| !r.result.comp_regions.is_empty()));
    }

    #[test]
    fn windows_ship_top_k_diagnoses() {
        // Diagnosable data (full S3 memory counter set, memory contention
        // on rank 2 mid-run): windows overlapping the noise must ship
        // region diagnoses, capped at `diagnose_top_k`, and the streaming
        // ingestor must ship exactly the one-shot reports — detection
        // output unchanged, diagnoses included.
        use crate::diagnose::driver::tests::stgs_with_noise;
        let cfg = VaproConfig {
            report_period: VirtualTime::from_ms(40),
            ..VaproConfig::default()
        };
        let stgs = stgs_with_noise(4, 30, 2, (10_000_000, 40_000_000));
        let pool = ServerPool::new(1, 4);
        let reports = pool.analyze_windows(&stgs, 4, 8, &cfg);
        assert!(reports.iter().all(|r| r.diagnoses.len() <= cfg.diagnose_top_k));
        let diagnosed: Vec<&RegionDiagnosis> =
            reports.iter().flat_map(|r| &r.diagnoses).collect();
        assert!(!diagnosed.is_empty(), "no window shipped a diagnosis");
        for d in &diagnosed {
            assert!(!d.report.culprits.is_empty());
            assert!(d.roi.ranks.0 <= d.roi.ranks.1);
        }

        // Stream the same run through the wire-format ingestor.
        let mut ingestor = WindowedIngestor::new(4, 8, cfg.clone());
        let mut streamed = Vec::new();
        for k in 0..5u64 {
            let period = Window {
                start: VirtualTime::from_ms(20 * k),
                end: VirtualTime::from_ms(20 * (k + 1)),
            };
            for (rank, stg) in stgs.iter().enumerate() {
                let batch = FragmentBatch::from_stg_starting_in(stg, rank, period);
                streamed.extend(ingestor.push_encoded(&batch.encode_v3()).expect("valid frame"));
            }
        }
        streamed.extend(ingestor.finish());
        assert_eq!(streamed.len(), reports.len());
        for (got, want) in streamed.iter().zip(&reports) {
            assert_eq!(got.window, want.window);
            assert_results_identical(&got.result, &want.result);
            assert_eq!(got.diagnoses, want.diagnoses);
        }
        assert!(streamed.iter().any(|r| !r.diagnoses.is_empty()));
    }

    #[test]
    fn diagnosis_can_be_disabled() {
        use crate::diagnose::driver::tests::stgs_with_noise;
        let cfg = VaproConfig {
            report_period: VirtualTime::from_ms(40),
            diagnose_top_k: 0,
            ..VaproConfig::default()
        };
        let stgs = stgs_with_noise(4, 30, 2, (10_000_000, 40_000_000));
        let pool = ServerPool::new(1, 4);
        let reports = pool.analyze_windows(&stgs, 4, 8, &cfg);
        assert!(reports.iter().any(|r| !r.result.comp_regions.is_empty()));
        assert!(reports.iter().all(|r| r.diagnoses.is_empty()));
    }

    #[test]
    fn ingestor_closes_windows_incrementally() {
        // Inline analysis (depth 0): per-push emission is deterministic,
        // so the close-as-they-stream property can be asserted exactly.
        // The pipelined default emits the same reports with bounded
        // deferral — `pipelined_reports_match_inline_reports` covers it.
        let cfg = VaproConfig {
            report_period: VirtualTime::from_secs(5),
            pipeline_depth: 0,
            ..VaproConfig::default()
        };
        let stg = looped_stg(0, 30, 1_000_000_000, 0..0);
        let mut ingestor = WindowedIngestor::new(1, 8, cfg);
        let mut closed_during_stream = 0;
        for k in 0..6u64 {
            let period = Window {
                start: VirtualTime::from_secs(5 * k),
                end: VirtualTime::from_secs(5 * (k + 1)),
            };
            let batch = FragmentBatch::from_stg_starting_in(&stg, 0, period);
            let reports = ingestor.push(batch);
            closed_during_stream += reports.len();
        }
        // Most windows close while the stream is still flowing — that is
        // the "analyse as they close" property.
        assert!(closed_during_stream >= 4, "only {closed_during_stream} closed early");
        let tail = ingestor.finish();
        assert!(tail.len() <= 2, "{} windows left to finish", tail.len());
    }

    #[test]
    fn encoded_frames_close_windows_incrementally() {
        // The binary entry point must advance the shipping marks like
        // `push` does: most windows close while frames are still
        // streaming in, not deferred wholesale to `finish`. Inline
        // analysis keeps per-push emission deterministic (see
        // `ingestor_closes_windows_incrementally`).
        let cfg = VaproConfig {
            report_period: VirtualTime::from_secs(5),
            pipeline_depth: 0,
            ..VaproConfig::default()
        };
        let stg = looped_stg(0, 30, 1_000_000_000, 0..0);
        let mut ingestor = WindowedIngestor::new(1, 8, cfg);
        let mut closed_during_stream = 0;
        for k in 0..6u64 {
            let period = Window {
                start: VirtualTime::from_secs(5 * k),
                end: VirtualTime::from_secs(5 * (k + 1)),
            };
            let batch = FragmentBatch::from_stg_starting_in(&stg, 0, period);
            let reports = ingestor.push_encoded(&batch.encode_v3()).expect("valid frame");
            closed_during_stream += reports.len();
        }
        assert!(closed_during_stream >= 4, "only {closed_during_stream} closed early");
        assert!(ingestor.finish().len() <= 2);
    }

    fn assert_report_sequences_identical(got: &[WindowReport], want: &[WindowReport]) {
        assert_eq!(got.len(), want.len(), "window count diverged");
        for (g, w) in got.iter().zip(want) {
            assert_eq!(g.window, w.window);
            assert_eq!(g.result.series, w.result.series);
            assert_eq!(g.result.rare_paths, w.result.rare_paths);
            assert_eq!(g.result.comp_map, w.result.comp_map);
            assert_eq!(g.result.comm_map, w.result.comm_map);
            assert_eq!(g.result.io_map, w.result.io_map);
            assert_eq!(g.result.comp_regions, w.result.comp_regions);
            assert_eq!(g.result.comm_regions, w.result.comm_regions);
            assert_eq!(g.result.io_regions, w.result.io_regions);
            assert_eq!(g.result.edge_clusters, w.result.edge_clusters);
            assert_eq!(g.diagnoses, w.diagnoses);
            assert_eq!(g.coverage, w.coverage);
        }
    }

    #[test]
    fn pipelined_reports_match_inline_reports() {
        // The tentpole invariant for layer 3: the pipelined default and
        // the inline depth-0 path emit bit-identical report sequences
        // over the same stream — tasks may finish out of order, the
        // reorder buffer may defer emission across pushes, but the
        // concatenation of everything push + finish return is the same
        // window-ordered sequence. The stage also never holds more than
        // `pipeline_depth` windows.
        let period_ns = 5_000_000_000u64;
        let mut stgs: Vec<Stg> =
            (0..3).map(|r| looped_stg(r, 30, 1_000_000_000, 0..0)).collect();
        stgs[2] = looped_stg(2, 30, 1_000_000_000, 10..20);
        let frames = period_frames(&stgs, 6, period_ns);
        let run = |depth: usize| -> Vec<WindowReport> {
            let cfg = VaproConfig {
                report_period: VirtualTime::from_ns(period_ns),
                pipeline_depth: depth,
                ..VaproConfig::default()
            };
            let mut ingestor = WindowedIngestor::new(3, 8, cfg);
            let mut reports = Vec::new();
            for period in &frames {
                for frame in period {
                    reports.extend(ingestor.push_encoded(frame).expect("valid frame"));
                    assert!(
                        ingestor.pending_windows() <= depth as u64,
                        "stage exceeded its depth bound"
                    );
                }
            }
            reports.extend(ingestor.finish());
            reports
        };
        let inline = run(0);
        let piped = run(8);
        let narrow = run(1);
        assert!(!inline.is_empty());
        assert_report_sequences_identical(&piped, &inline);
        assert_report_sequences_identical(&narrow, &inline);
    }

    #[test]
    fn eviction_keeps_resident_bytes_bounded() {
        // Layer 1: a long single-config stream must not retain the whole
        // run. After many closed windows the arena holds only fragments
        // still reachable from open windows, and the high-water mark
        // sits far below the no-eviction total.
        let cfg = VaproConfig {
            report_period: VirtualTime::from_secs(5),
            ..VaproConfig::default()
        };
        let nperiods = 40u64;
        let stgs: Vec<Stg> =
            (0..2).map(|r| looped_stg(r, 40 * 5, 1_000_000_000, 0..0)).collect();
        let frames = period_frames(&stgs, nperiods, 5_000_000_000);
        let naive_total: u64 = stgs
            .iter()
            .flat_map(|s| s.edges())
            .flat_map(|e| e.fragments.iter())
            .map(fragment_resident_bytes)
            .sum();
        let mut ingestor = WindowedIngestor::new(2, 8, cfg);
        let mut reports = Vec::new();
        for period in &frames {
            for frame in period {
                reports.extend(ingestor.push_encoded(frame).expect("valid frame"));
            }
        }
        let arena = ingestor.arena();
        assert!(arena.max_end_ns() > 0);
        // Steady state: resident ≈ the half-overlap neighbourhood of the
        // next closeable window, nowhere near the whole stream.
        assert!(
            arena.resident_bytes() <= naive_total / 4,
            "resident {} vs naive total {naive_total}",
            arena.resident_bytes()
        );
        assert!(
            arena.high_water_bytes() <= naive_total / 4,
            "high water {} vs naive total {naive_total}",
            arena.high_water_bytes()
        );
        assert!(arena.high_water_bytes() >= arena.resident_bytes());
        reports.extend(ingestor.finish());
        assert!(reports.len() as u64 >= 2 * nperiods - 2, "full cover emitted");
    }

    #[test]
    fn ranged_window_views_match_linear_filter_views() {
        // Layer 2: the partition_point ranged scan (sorted pools) and
        // the filter-and-sort fallback (unsorted pools) must seal
        // identical windows — same locations, same fragments, same
        // order — including duration outliers and window-boundary ties.
        let mut stgs: Vec<Stg> =
            (0..3).map(|r| looped_stg(r, 25, 1_000_000_000, 0..0)).collect();
        stgs[1] = looped_stg(1, 25, 1_000_000_000, 5..9);
        let mut sorted_arena = IngestArena::new();
        let mut lazy_arena = IngestArena::new();
        // Ranks arrive back to front, so every pool's tail is out of
        // order until it is sorted.
        for (rank, stg) in stgs.iter().enumerate().rev() {
            let span = Window {
                start: VirtualTime::ZERO,
                end: VirtualTime::from_ns(u64::MAX),
            };
            let batch = FragmentBatch::from_stg(stg, rank, span);
            sorted_arena.push_batch(FragmentBatch::decode(&batch.encode_v3()).unwrap());
            lazy_arena.push_batch(batch);
        }
        sorted_arena.ensure_sorted();
        // lazy_arena is left unsorted: sealing it takes the fallback.
        assert!(lazy_arena.edge_pools.values().all(|p| p.sorted_len != p.frags.len()));
        let period = 5_000_000_000u64;
        for k in 0..10u64 {
            let w = Window {
                start: VirtualTime::from_ns(k * period / 2),
                end: VirtualTime::from_ns(k * period / 2 + period),
            };
            let fast = ColumnarPool::from_merged(&sorted_arena.window_view(w));
            let slow = ColumnarPool::from_merged(&lazy_arena.window_view(w));
            assert!(!fast.is_empty(), "window {k} sealed nothing");
            assert_eq!(fast, slow, "window {k} sealed differently");
        }
        assert_eq!(
            ColumnarPool::from_merged(&sorted_arena.full_view()),
            ColumnarPool::from_merged(&lazy_arena.full_view())
        );
    }

    #[test]
    fn scratch_pools_recycle_across_pipelined_closes() {
        // The poisoning-proof recycling satellite: across many closed
        // windows, pool allocations stay bounded by the stage's
        // concurrency (depth + the one being sealed), not the window
        // count — a lost pool would show up as one extra allocation per
        // window.
        let cfg = VaproConfig {
            report_period: VirtualTime::from_secs(5),
            ..VaproConfig::default()
        };
        let depth = cfg.pipeline_depth as u64;
        let stg = looped_stg(0, 100, 1_000_000_000, 0..0);
        let frames = period_frames(std::slice::from_ref(&stg), 20, 5_000_000_000);
        let mut ingestor = WindowedIngestor::new(1, 8, cfg);
        let mut reports = Vec::new();
        for period in &frames {
            reports.extend(ingestor.push_encoded(&period[0]).expect("valid frame"));
        }
        let allocated = ingestor.scratch_pools_allocated();
        assert!(allocated >= 1, "no pool was ever allocated?");
        assert!(
            allocated <= depth + 1,
            "recycling failed: {allocated} pools allocated for {} closes",
            reports.len()
        );
        reports.extend(ingestor.finish());
        assert!(reports.len() >= 30, "expected a long stream of closes");
    }

    #[test]
    fn encoded_frames_from_unknown_ranks_are_rejected() {
        // A frame claiming a rank outside the deployment is a structured
        // rejection — counted, never a panic (hostile input must not be
        // able to kill the server).
        let stg = looped_stg(7, 5, 1_000_000, 0..0);
        let window = Window { start: VirtualTime::ZERO, end: VirtualTime::from_secs(1) };
        let encoded = FragmentBatch::from_stg(&stg, 7, window).encode_v3();
        let mut ingestor = WindowedIngestor::new(2, 8, VaproConfig::default());
        let err = ingestor.push_encoded(&encoded).unwrap_err();
        assert_eq!(err, WireError::UnknownRank { rank: 7, nranks: 2 });
        assert!(err.to_string().contains("unknown rank 7"));
        assert_eq!(ingestor.stats().unknown_rank_frames, 1);
        assert_eq!(ingestor.stats().frames_rejected(), 1);
        assert_eq!(ingestor.stats().frames_admitted, 0);
        // The stream stays healthy afterwards: a valid rank still admits.
        let ok = FragmentBatch::from_stg(&looped_stg(1, 5, 1_000_000, 0..0), 1, window);
        let _ = ingestor.push_encoded(&ok.encode_v3()).expect("valid rank admits");
        assert_eq!(ingestor.stats().frames_admitted, 1);
    }

    #[test]
    fn arena_views_are_arrival_order_independent_on_timestamp_ties() {
        // Two fragments from the same rank with identical timestamps but
        // different content: whichever batch arrives first, the sealed
        // pool must order them identically (content-derived tiebreaker).
        let mk = |ins: f64| {
            let mut c = CounterDelta::default();
            c.put(CounterId::TotIns, ins);
            Fragment {
                rank: 0,
                kind: FragmentKind::Computation,
                start: VirtualTime::from_ns(100),
                end: VirtualTime::from_ns(200),
                counters: c,
                args: vec![],
            }
        };
        let batch_with = |ins: f64| {
            let mut stg = Stg::new();
            let s = stg.state(StateKey::Site(CallSite("w:MPI_Barrier")));
            let e = stg.transition(s, s);
            stg.attach_edge_fragment(e, mk(ins));
            let window = Window { start: VirtualTime::ZERO, end: VirtualTime::from_secs(1) };
            FragmentBatch::from_stg(&stg, 0, window)
        };
        let sealed = |batches: Vec<FragmentBatch>| -> ColumnarPool {
            let mut arena = IngestArena::new();
            for b in batches {
                arena.push_batch(b);
            }
            ColumnarPool::from_merged(&arena.full_view())
        };
        let forward = sealed(vec![batch_with(1.0), batch_with(2.0)]);
        let reverse = sealed(vec![batch_with(2.0), batch_with(1.0)]);
        assert_eq!((forward.num_edges(), forward.len()), (1, 2));
        assert_eq!(forward, reverse, "tie order depends on arrival order");
    }

    #[test]
    fn wire_batches_detect_like_direct_stgs() {
        // The networked path (serialise → ship → reassemble → detect)
        // finds the same variance as the in-process path.
        let mut stgs = vec![];
        for rank in 0..4usize {
            let slow = if rank == 2 { 5..15 } else { 0..0 };
            stgs.push(looped_stg(rank, 20, 1_000_000, slow));
        }
        let cfg = VaproConfig::default();
        let direct = detect(&stgs, 4, 16, &cfg);

        let window = Window {
            start: VirtualTime::ZERO,
            end: VirtualTime::from_secs(3600),
        };
        let batches: Vec<FragmentBatch> = stgs
            .iter()
            .enumerate()
            .map(|(rank, stg)| {
                // Through the binary wire and back, as a real client
                // would ship it.
                let bytes = FragmentBatch::from_stg(stg, rank, window).encode_v3();
                FragmentBatch::decode(&bytes).expect("parse")
            })
            .collect();
        let mut arena = IngestArena::new();
        for b in batches {
            arena.push_batch(b);
        }
        let sealed = ColumnarPool::from_merged(&arena.full_view());
        let via_wire = detect_columnar(&sealed, 4, 16, &cfg);

        assert_eq!(direct.comp_regions.len(), via_wire.comp_regions.len());
        let (a, b) = (&direct.comp_regions[0], &via_wire.comp_regions[0]);
        assert_eq!(a.rank_range, b.rank_range);
        assert!((a.mean_perf - b.mean_perf).abs() < 1e-9);
        assert!((direct.coverage - via_wire.coverage).abs() < 1e-9);
    }

    /// Ship `stg`'s data period-major as sequenced frames; returns
    /// the per-rank frames of each period.
    fn period_frames(stgs: &[Stg], nperiods: u64, period_ns: u64) -> Vec<Vec<Vec<u8>>> {
        (0..nperiods)
            .map(|k| {
                let period = Window {
                    start: VirtualTime::from_ns(k * period_ns),
                    end: VirtualTime::from_ns((k + 1) * period_ns),
                };
                stgs.iter()
                    .enumerate()
                    .map(|(rank, stg)| {
                        FragmentBatch::from_stg_starting_in(stg, rank, period)
                            .with_seq(k + 1)
                            .encode_v3()
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn finish_flushes_tail_windows_despite_silent_straggler() {
        // Rank 1 never ships a single mark (a silent straggler, no fault
        // policy configured): the stream closes nothing, but `finish`
        // must still emit the full one-shot cover — with the straggler
        // visible in every window's coverage.
        let cfg = VaproConfig {
            report_period: VirtualTime::from_secs(5),
            ..VaproConfig::default()
        };
        let stg = looped_stg(0, 30, 1_000_000_000, 0..0);
        let t_end = stg
            .edges()
            .iter()
            .flat_map(|e| e.fragments.iter())
            .map(|f| f.end)
            .max()
            .unwrap();
        let expected = windows_covering(VirtualTime::ZERO, t_end, cfg.report_period);

        let mut ingestor = WindowedIngestor::new(2, 8, cfg);
        let mut reports = Vec::new();
        for k in 0..6u64 {
            let period = Window {
                start: VirtualTime::from_secs(5 * k),
                end: VirtualTime::from_secs(5 * (k + 1)),
            };
            let batch = FragmentBatch::from_stg_starting_in(&stg, 0, period);
            reports.extend(ingestor.push(batch));
        }
        // With rank 1's mark stuck at zero nothing closes mid-stream…
        assert!(reports.is_empty(), "watermark ignored the straggler");
        // …but finish flushes every cover window anyway.
        reports.extend(ingestor.finish());
        assert_eq!(reports.len(), expected.len(), "tail windows stranded");
        for (report, window) in reports.iter().zip(expected) {
            assert_eq!(report.window, window);
            assert!(report.coverage.ranks_absent.contains(&1), "straggler not flagged");
            assert!(report.coverage.is_degraded());
        }
    }

    #[test]
    fn dead_rank_is_excluded_and_windows_keep_closing() {
        // Acceptance scenario: rank 3 dies after period 3 of 12. With a
        // dead horizon configured, windows past its death keep closing
        // mid-stream, report the rank dead/absent, and completeness
        // drops below 1.0. A late frame from the revived rank is dropped
        // and counted under LateDataPolicy::Drop.
        let period_ns = 5_000_000_000u64;
        let mut cfg = VaproConfig {
            report_period: VirtualTime::from_ns(period_ns),
            ..VaproConfig::default()
        };
        cfg.fault.straggler_horizon = Some(VirtualTime::from_ns(2 * period_ns));
        cfg.fault.dead_horizon = Some(VirtualTime::from_ns(3 * period_ns));
        cfg.fault.late_data = LateDataPolicy::Drop;
        let stgs: Vec<Stg> =
            (0..4).map(|r| looped_stg(r, 60, 1_000_000_000, 0..0)).collect();

        let mut ingestor = WindowedIngestor::new(4, 8, cfg.clone());
        let mut reports = Vec::new();
        let frames = period_frames(&stgs, 12, period_ns);
        let mut late_frame = None;
        for (k, period) in frames.into_iter().enumerate() {
            for (rank, frame) in period.into_iter().enumerate() {
                if rank == 3 && k >= 3 {
                    if late_frame.is_none() {
                        late_frame = Some(frame);
                    }
                    continue; // rank 3 died
                }
                reports.extend(ingestor.push_encoded(&frame).expect("valid frame"));
            }
        }
        // Windows past rank 3's data kept closing mid-stream.
        assert_eq!(ingestor.rank_health()[3], RankHealth::Dead);
        assert!(
            reports.iter().any(|r| r.window.start.ns() >= 3 * period_ns),
            "no window past the death closed mid-stream"
        );
        // The revived rank's late frame is dropped and accounted. The
        // call still harvests whichever windows finished analysis since
        // the last push, like any other.
        reports.extend(
            ingestor
                .push_encoded(&late_frame.unwrap())
                .expect("late frames are a policy drop, not an error"),
        );
        assert_eq!(ingestor.stats().dropped_late_frames, 1);

        reports.extend(ingestor.finish());
        // Full cover emitted; windows past the death report the dead
        // rank absent with completeness < 1.0.
        let t_end = stgs
            .iter()
            .flat_map(|s| s.edges())
            .flat_map(|e| e.fragments.iter())
            .map(|f| f.end)
            .max()
            .unwrap();
        let expected = windows_covering(VirtualTime::ZERO, t_end, cfg.report_period);
        assert_eq!(reports.len(), expected.len());
        // Windows strictly past rank 3's last straddling fragment: dead,
        // absent, incomplete.
        let past_death: Vec<_> = reports
            .iter()
            .filter(|r| r.window.start.ns() > 3 * period_ns)
            .collect();
        assert!(!past_death.is_empty());
        for r in past_death {
            assert!(r.coverage.ranks_dead.contains(&3), "dead rank missing: {:?}", r.coverage);
            assert!(r.coverage.ranks_absent.contains(&3));
            assert!(r.coverage.completeness < 1.0);
            assert!(r.coverage.is_degraded());
        }
        // The late-frame drop reaches the coverage of windows closed
        // after it happened (the tail windows emitted by finish).
        assert_eq!(reports.last().unwrap().coverage.dropped_late_frames, 1);
        // Early windows (closed before the death horizon tripped) were
        // complete.
        assert!(reports[0].coverage.completeness >= 1.0 - 1e-12);
    }

    #[test]
    fn adversarial_delivery_matches_in_order_reports() {
        // Sequenced frames delivered out of order and with duplicates:
        // the closed-window reports (stream + finish union) must equal
        // in-order delivery bit for bit. The contiguous-prefix mark rule
        // is what makes this safe: a reordered early frame holds the
        // watermark back until it lands.
        let period_ns = 5_000_000_000u64;
        let cfg = VaproConfig {
            report_period: VirtualTime::from_ns(period_ns),
            ..VaproConfig::default()
        };
        let mut stgs: Vec<Stg> =
            (0..3).map(|r| looped_stg(r, 30, 1_000_000_000, 0..0)).collect();
        stgs[2] = looped_stg(2, 30, 1_000_000_000, 12..18);
        let frames = period_frames(&stgs, 6, period_ns);

        let run = |deliveries: Vec<&Vec<u8>>| -> (Vec<WindowReport>, IngestStats) {
            let mut ingestor = WindowedIngestor::new(3, 8, cfg.clone());
            let mut reports = Vec::new();
            for frame in deliveries {
                match ingestor.push_encoded(frame) {
                    Ok(r) => reports.extend(r),
                    Err(WireError::DuplicateSequence { .. }) => {}
                    Err(e) => panic!("unexpected rejection: {e}"),
                }
            }
            let stats = ingestor.stats().clone();
            reports.extend(ingestor.finish());
            (reports, stats)
        };

        let in_order: Vec<&Vec<u8>> = frames.iter().flatten().collect();
        let (reference, ref_stats) = run(in_order);
        assert_eq!(ref_stats.duplicate_frames, 0);

        // Adversarial: reverse periods pairwise per rank, interleave
        // ranks back-to-front, duplicate every third frame.
        let mut adversarial: Vec<&Vec<u8>> = Vec::new();
        for pair in frames.chunks(2) {
            for rank in (0..3).rev() {
                for period in pair.iter().rev() {
                    adversarial.push(&period[rank]);
                }
            }
        }
        let dups: Vec<&Vec<u8>> =
            adversarial.iter().step_by(3).copied().collect();
        for (i, d) in dups.into_iter().enumerate() {
            adversarial.insert(i * 4 + 1, d);
        }
        let (got, got_stats) = run(adversarial);
        assert!(got_stats.duplicate_frames > 0, "duplicates not detected");

        assert_eq!(got.len(), reference.len());
        for (g, w) in got.iter().zip(&reference) {
            assert_eq!(g.window, w.window);
            assert_results_identical(&g.result, &w.result);
            assert_eq!(g.diagnoses, w.diagnoses);
            // Everything in coverage except the duplicate counter (which
            // records the retransmissions themselves) matches.
            assert_eq!(g.coverage.ranks_complete, w.coverage.ranks_complete);
            assert_eq!(g.coverage.ranks_absent, w.coverage.ranks_absent);
            assert_eq!(g.coverage.ranks_dead, w.coverage.ranks_dead);
            assert_eq!(g.coverage.seq_gaps, w.coverage.seq_gaps);
            assert_eq!(g.coverage.completeness.to_bits(), w.coverage.completeness.to_bits());
        }
        assert!(got.iter().any(|r| !r.result.comp_regions.is_empty()));
    }

    #[test]
    fn backpressure_cap_drops_and_accounts_ahead_frames() {
        // Rank 0 races 8 periods ahead of rank 1 under a tiny buffer
        // cap: ahead frames beyond the cap are dropped and accounted,
        // marks keep advancing, and once rank 1 catches up all windows
        // still close (with the loss visible in coverage).
        let period_ns = 5_000_000_000u64;
        let mut cfg = VaproConfig {
            report_period: VirtualTime::from_ns(period_ns),
            ..VaproConfig::default()
        };
        cfg.fault.max_buffered_bytes = Some(600);
        let stgs: Vec<Stg> =
            (0..2).map(|r| looped_stg(r, 40, 1_000_000_000, 0..0)).collect();
        let frames = period_frames(&stgs, 8, period_ns);

        let mut ingestor = WindowedIngestor::new(2, 8, cfg);
        // All of rank 0 first (everything past the first frames is ahead
        // of the zero watermark), then all of rank 1.
        for period in &frames {
            ingestor.push_encoded(&period[0]).expect("rank 0 frame");
        }
        let stats_mid = ingestor.stats().clone();
        assert!(stats_mid.dropped_backpressure_frames > 0, "cap never tripped");
        assert!(stats_mid.dropped_backpressure_bytes > 0);
        assert!(ingestor.buffered_ahead_bytes() <= 600);
        let mut reports = Vec::new();
        for period in &frames {
            reports.extend(ingestor.push_encoded(&period[1]).expect("rank 1 frame"));
        }
        assert!(!reports.is_empty(), "watermark stalled after drops");
        reports.extend(ingestor.finish());
        let last = reports.last().unwrap();
        assert!(last.coverage.dropped_backpressure_frames >= 1);
        assert!(last.coverage.is_degraded());
    }

    #[test]
    fn decode_rejections_are_counted_not_swallowed() {
        let cfg = VaproConfig {
            report_period: VirtualTime::from_secs(5),
            ..VaproConfig::default()
        };
        let stg = looped_stg(0, 10, 1_000_000_000, 0..0);
        let window = Window { start: VirtualTime::ZERO, end: VirtualTime::from_secs(5) };
        let frame = FragmentBatch::from_stg_starting_in(&stg, 0, window)
            .with_seq(1)
            .encode_v3();

        let mut ingestor = WindowedIngestor::new(1, 8, cfg);
        // Corrupt frame: counted as corrupt, error names the claimed
        // rank and sequence.
        let mut corrupt = frame.clone();
        *corrupt.last_mut().unwrap() ^= 0x01;
        match ingestor.push_encoded(&corrupt) {
            Err(WireError::BadChecksum { rank, seq }) => {
                assert_eq!((rank, seq), (0, 1));
            }
            other => panic!("expected BadChecksum, got {other:?}"),
        }
        // Clean frame admits; its retransmit is a counted duplicate.
        ingestor.push_encoded(&frame).expect("clean frame");
        assert_eq!(
            ingestor.push_encoded(&frame).unwrap_err(),
            WireError::DuplicateSequence { rank: 0, seq: 1 }
        );
        let stats = ingestor.stats();
        assert_eq!(stats.corrupt_frames, 1);
        assert_eq!(stats.duplicate_frames, 1);
        assert_eq!(stats.frames_admitted, 1);
        assert_eq!(stats.frames_rejected(), 2);
        let line = stats.to_string();
        assert!(line.contains("1 corrupt") && line.contains("1 duplicate"), "{line}");
        // The counters reach the next closed window's coverage. The
        // pipeline may defer the first window's report (sealed before
        // the duplicate arrived) to `finish`, so the window that closed
        // *after* the rejections is the last one.
        let reports = ingestor.finish();
        assert!(!reports.is_empty());
        let last = reports.last().unwrap();
        assert_eq!(last.coverage.corrupt_frames, 1);
        assert_eq!(last.coverage.duplicate_frames, 1);
        assert!(last.coverage.is_degraded());
    }

    #[test]
    fn tree_aggregation_equals_flat_merge() {
        use crate::detect::heatmap::HeatMap;
        use crate::detect::normalize::PerfPoint;
        // Five servers each hold a slab; the tree root must equal the
        // flat accumulation.
        let geometry = || HeatMap::new(VirtualTime::ZERO, 100, 8, 4);
        let mut slabs = vec![];
        let mut flat = geometry();
        for s in 0..5usize {
            let mut hm = geometry();
            let p = PerfPoint {
                rank: s % 4,
                start: VirtualTime::from_ns(s as u64 * 100),
                end: VirtualTime::from_ns(s as u64 * 100 + 100),
                perf: 0.2 * (s + 1) as f64,
                loss_ns: 10.0,
            };
            hm.add_point(&p);
            flat.add_point(&p);
            slabs.push(hm);
        }
        let root = tree_aggregate(slabs).unwrap();
        for r in 0..4 {
            for b in 0..8 {
                assert_eq!(root.perf(r, b), flat.perf(r, b), "cell ({r},{b})");
                assert_eq!(root.loss_ns(r, b), flat.loss_ns(r, b));
            }
        }
        assert!(tree_aggregate(vec![]).is_none());
    }
}
