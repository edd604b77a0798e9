//! Every call into `vapro-core` lives in this file, so a later
//! benchmark change can re-point the probes when an entry point moves or
//! is deleted. The rest of the crate sees frames, plain facts about
//! window reports, and span names.
//!
//! Two things are wrapped:
//!
//! * the **program** — [`Program`], the real `WindowedIngestor` or
//!   `FleetIngestor`, driven only through encoded frames;
//! * the **layers** — [`ShadowJob`] walks the same frames through the
//!   public building blocks (`FragmentBatch::decode`, `IngestArena`,
//!   `ColumnarPool`, `cluster_pool`, `normalize_cluster_outcome_view`,
//!   `HeatMap::spanning`, `grow_regions`, `detect_columnar`,
//!   `DiagnosisBatch`) with a span around each call.
//!
//! The selftest's planted busy-spin also lives here ([`plant_spin`]): it
//! burns time inside these wrappers, never inside `crates/`.

use crate::gen::Outcome;
use crate::trace::{span_id, Fnv, Tracer, NONE};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::time::Instant;
use vapro_core::clustering::{cluster_pool, ClusterOutcome};
use vapro_core::detect::normalize::{normalize_cluster_outcome_view, CategorySeries};
use vapro_core::detect::region::grow_regions;
use vapro_core::detect::window::Window;
use vapro_core::wire::{EdgeGroup, VertexGroup, WireError};
use vapro_core::{
    detect_columnar, ColumnarPool, DiagnosisBatch, FaultTolerance, FleetConfig, FleetIngestor,
    FleetWindow, FragmentBatch, FragmentKind, HeatMap, IngestArena, JobKey, PoolView,
    RegionOfInterest, VaproConfig, VarianceRegion, WindowReport, WindowedIngestor,
};
use vapro_pmu::CounterDelta;
use vapro_sim::VirtualTime;

pub use vapro_core::Fragment;
/// One rank's shipped period, before encoding.
pub type Batch = FragmentBatch;

/// Heat-map bins per analysis window, on every workload.
pub const BINS_PER_WINDOW: usize = 16;

// ---------------------------------------------------------------------
// Selftest spin

/// Layers a selftest spin can be planted in: those whose work units are
/// countable from outside the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpinLayer {
    /// Per fragment decoded.
    Wire = 1,
    /// Per region found on a window's heat maps.
    Region = 2,
    /// Per region diagnosis attempted.
    Diagnose = 3,
}

impl SpinLayer {
    /// Parse a `--spin` argument.
    pub fn parse(s: &str) -> Option<SpinLayer> {
        match s {
            "wire" => Some(SpinLayer::Wire),
            "region" => Some(SpinLayer::Region),
            "diagnose" => Some(SpinLayer::Diagnose),
            _ => None,
        }
    }

    /// The span of the shadow replay that must absorb the spin.
    pub fn span(self) -> &'static str {
        match self {
            SpinLayer::Wire => "wire.decode",
            SpinLayer::Region => "probe.region",
            SpinLayer::Diagnose => "diagnose",
        }
    }
}

static SPIN_LAYER: AtomicU8 = AtomicU8::new(0);
static SPIN_NS_PER_UNIT: AtomicU64 = AtomicU64::new(0);

/// Plant (or with `None`, remove) a busy-spin of `ns_per_unit` in the
/// wrappers around one layer.
pub fn plant_spin(layer: Option<SpinLayer>, ns_per_unit: u64) {
    SPIN_NS_PER_UNIT.store(ns_per_unit, Ordering::SeqCst);
    SPIN_LAYER.store(layer.map_or(0, |l| l as u8), Ordering::SeqCst);
}

#[inline]
fn spin(layer: SpinLayer, units: u64) {
    if SPIN_LAYER.load(Ordering::Relaxed) != layer as u8 || units == 0 {
        return;
    }
    let ns = units * SPIN_NS_PER_UNIT.load(Ordering::Relaxed);
    let t0 = Instant::now();
    while (t0.elapsed().as_nanos() as u64) < ns {
        std::hint::spin_loop();
    }
}

// ---------------------------------------------------------------------
// Frames (the generator's side of the wire)

/// Build one fragment. `computation` fragments carry counters,
/// invocation fragments carry arguments.
pub fn fragment(
    rank: usize,
    computation: bool,
    start_ns: u64,
    end_ns: u64,
    counters: CounterDelta,
    args: Vec<f64>,
) -> Fragment {
    Fragment {
        rank,
        kind: if computation {
            FragmentKind::Computation
        } else {
            FragmentKind::Communication
        },
        start: VirtualTime::from_ns(start_ns),
        end: VirtualTime::from_ns(end_ns),
        counters,
        args,
    }
}

/// Assemble the batch one rank ships for one period.
pub fn batch(
    rank: usize,
    seq: u64,
    (tenant, job): (u32, u32),
    (start_ns, end_ns): (u64, u64),
    labels: Vec<String>,
    vertices: Vec<(u32, Vec<Fragment>)>,
    edges: Vec<((u32, u32), Vec<Fragment>)>,
) -> Batch {
    FragmentBatch {
        rank,
        seq: 0,
        tenant_id: 0,
        job_id: 0,
        window_start_ns: start_ns,
        window_end_ns: end_ns,
        labels,
        vertex_groups: vertices
            .into_iter()
            .map(|(label, fragments)| VertexGroup { label, fragments })
            .collect(),
        edge_groups: edges
            .into_iter()
            .map(|((from, to), fragments)| EdgeGroup {
                from,
                to,
                fragments,
            })
            .collect(),
    }
    .with_seq(seq)
    .with_job(tenant, job)
}

/// `template` with every fragment list repeated `copies` times under a
/// sequence number no regular frame uses: the oversized burst frame.
pub fn repeat_batch(template: &Batch, copies: usize) -> Batch {
    let repeat = |frags: &Vec<Fragment>| -> Vec<Fragment> {
        (0..copies).flat_map(|_| frags.iter().cloned()).collect()
    };
    FragmentBatch {
        rank: template.rank,
        seq: 1_000_000 + template.seq,
        tenant_id: template.tenant_id,
        job_id: template.job_id,
        window_start_ns: template.window_start_ns,
        window_end_ns: template.window_end_ns,
        labels: template.labels.clone(),
        vertex_groups: template
            .vertex_groups
            .iter()
            .map(|g| VertexGroup {
                label: g.label,
                fragments: repeat(&g.fragments),
            })
            .collect(),
        edge_groups: template
            .edge_groups
            .iter()
            .map(|g| EdgeGroup {
                from: g.from,
                to: g.to,
                fragments: repeat(&g.fragments),
            })
            .collect(),
    }
}

/// Append one wire-v3 frame.
pub fn encode(batch: &Batch, out: &mut Vec<u8>) {
    batch.encode_into_v3(out);
}

/// Decode one frame.
pub fn decode(bytes: &[u8]) -> Result<Batch, Outcome> {
    let decoded = FragmentBatch::decode(bytes).map_err(|e| outcome_of(&e));
    if let Ok(b) = &decoded {
        spin(SpinLayer::Wire, b.len() as u64);
    }
    decoded
}

fn outcome_of(e: &WireError) -> Outcome {
    match e {
        WireError::DuplicateSequence { .. } => Outcome::Duplicate,
        WireError::TenantOverBudget { .. } => Outcome::OverBudget,
        WireError::UnknownRank { .. } | WireError::UnknownTenant { .. } => Outcome::OtherReject,
        _ => Outcome::DecodeError,
    }
}

// ---------------------------------------------------------------------
// Window facts: what the driver keeps of a report

/// A detected region as a rank × time box.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionBox {
    /// Inclusive rank range.
    pub ranks: (usize, usize),
    /// Start, virtual ns.
    pub t0: u64,
    /// End, virtual ns.
    pub t1: u64,
    /// Found on the computation heat map (the only kind planted).
    pub computation: bool,
}

/// What the driver keeps of one `WindowReport`.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowFacts {
    /// Job index.
    pub job: usize,
    /// Window start, virtual ns.
    pub start_ns: u64,
    /// Window end, virtual ns.
    pub end_ns: u64,
    /// Digest of the analysis: bounds, every region's cells and losses,
    /// diagnosed regions and their culprit factors, absent ranks.
    pub analysis: u64,
    /// Digest of the transport-side coverage counters at close time.
    pub transport: u64,
    /// Regions of all three categories.
    pub regions: Vec<RegionBox>,
    /// Region diagnoses attempted (`min(top_k, computation regions)`).
    pub diagnoses_attempted: u32,
    /// Diagnoses that produced a report.
    pub diagnosed: u32,
}

fn digest_regions(
    h: &mut Fnv,
    regions: &[VarianceRegion],
    computation: bool,
    out: &mut Vec<RegionBox>,
) {
    h.u64(regions.len() as u64);
    for r in regions {
        h.u64(r.cells.len() as u64);
        for &(rank, bin) in &r.cells {
            h.u64(rank as u64);
            h.u64(bin as u64);
        }
        h.u64(r.t_start.ns());
        h.u64(r.t_end.ns());
        h.u64(r.loss_ns.to_bits());
        h.u64(r.mean_perf.to_bits());
        out.push(RegionBox {
            ranks: r.rank_range,
            t0: r.t_start.ns(),
            t1: r.t_end.ns(),
            computation,
        });
    }
}

fn facts(job: usize, report: &WindowReport, top_k: usize) -> WindowFacts {
    let mut regions = Vec::new();
    let mut h = Fnv::new();
    h.u64(report.window.start.ns());
    h.u64(report.window.end.ns());
    digest_regions(&mut h, &report.result.comp_regions, true, &mut regions);
    digest_regions(&mut h, &report.result.comm_regions, false, &mut regions);
    digest_regions(&mut h, &report.result.io_regions, false, &mut regions);
    h.u64(report.diagnoses.len() as u64);
    for d in &report.diagnoses {
        h.u64(d.roi.ranks.0 as u64);
        h.u64(d.roi.ranks.1 as u64);
        h.u64(d.roi.t_start.ns());
        h.u64(d.roi.t_end.ns());
        h.u64(d.report.periods as u64);
        for c in &d.report.culprits {
            h.bytes(c.name().as_bytes());
        }
    }
    let c = &report.coverage;
    for &r in &c.ranks_absent {
        h.u64(r as u64);
    }
    let mut t = Fnv::new();
    for v in [
        c.nranks as u64,
        c.ranks_complete as u64,
        c.corrupt_frames,
        c.duplicate_frames,
        c.dropped_late_frames,
        c.dropped_backpressure_frames,
        c.dropped_backpressure_bytes,
        c.seq_gaps,
        c.completeness.to_bits(),
    ] {
        t.u64(v);
    }
    for &r in &c.ranks_dead {
        t.u64(r as u64);
    }
    let attempted = report.result.comp_regions.len().min(top_k) as u32;
    WindowFacts {
        job,
        start_ns: report.window.start.ns(),
        end_ns: report.window.end.ns(),
        analysis: h.finish(),
        transport: t.finish(),
        regions,
        diagnoses_attempted: attempted,
        diagnosed: report.diagnoses.len() as u32,
    }
}

/// The facts of a report the real program emitted. The selftest's
/// region and diagnose spins burn here, on the thread that received the
/// report: the program's own threads cannot be reached from outside.
fn observe(job: usize, report: &WindowReport, top_k: usize) -> WindowFacts {
    let f = facts(job, report, top_k);
    spin(SpinLayer::Region, f.regions.len() as u64);
    spin(SpinLayer::Diagnose, f.diagnoses_attempted as u64);
    f
}

// ---------------------------------------------------------------------
// The program

/// How to build the program for a workload.
#[derive(Debug, Clone)]
pub struct ProgramSpec {
    /// Report period, virtual ns.
    pub period_ns: u64,
    /// `pipeline_depth: 0` (inline) instead of the default.
    pub inline: bool,
    /// `FaultTolerance::production(period)`.
    pub production_faults: bool,
    /// Ranks of the solo job (ignored for a fleet).
    pub ranks: usize,
    /// Fleet plane, if any.
    pub fleet: Option<FleetSpec>,
}

/// The fleet plane's registration.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    /// Ingest shards.
    pub shards: usize,
    /// `(tenant, budget_bytes)`.
    pub tenants: Vec<(u32, u64)>,
    /// `(tenant, job, ranks, node)`.
    pub jobs: Vec<(u32, u32, usize, u32)>,
}

impl ProgramSpec {
    fn config(&self) -> VaproConfig {
        let period = VirtualTime::from_ns(self.period_ns);
        let mut cfg = VaproConfig {
            report_period: period,
            ..VaproConfig::default()
        };
        if self.inline {
            cfg.pipeline_depth = 0;
        }
        if self.production_faults {
            cfg.fault = FaultTolerance::production(period);
        }
        cfg
    }
}

/// End-of-stream accounting, summed over jobs and tenants.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Frames admitted into an arena.
    pub admitted: u64,
    /// Frames rejected with an error (decode, duplicate, budget, rank).
    pub rejected: u64,
    /// Frames acknowledged but dropped by server policy.
    pub dropped: u64,
    /// Of `rejected`: retransmissions.
    pub duplicates: u64,
    /// Of `rejected`: tenant budget.
    pub over_budget: u64,
    /// Peak arena residency, bytes (max over jobs).
    pub arena_peak_bytes: u64,
}

/// The system under test: frames in, window facts out.
pub enum Program {
    /// One job on a bare `WindowedIngestor`.
    Solo(Box<WindowedIngestor>, usize),
    /// The sharded fleet plane.
    Fleet(Box<FleetIngestor>, usize),
}

impl Program {
    /// A fresh program.
    pub fn new(spec: &ProgramSpec) -> Program {
        let cfg = spec.config();
        let top_k = cfg.diagnose_top_k;
        match &spec.fleet {
            None => Program::Solo(
                Box::new(WindowedIngestor::new(spec.ranks, BINS_PER_WINDOW, cfg)),
                top_k,
            ),
            Some(f) => {
                let mut plane = FleetIngestor::new(FleetConfig {
                    shards: f.shards,
                    bins_per_window: BINS_PER_WINDOW,
                    ..FleetConfig::new(cfg)
                });
                for &(tenant, budget) in &f.tenants {
                    plane.register_tenant(tenant, budget);
                }
                for &(tenant, job, ranks, node) in &f.jobs {
                    plane.register_job(JobKey { tenant, job }, ranks, node);
                }
                Program::Fleet(Box::new(plane), top_k)
            }
        }
    }

    fn collect_fleet(windows: Vec<FleetWindow>, top_k: usize, out: &mut Vec<WindowFacts>) {
        out.extend(
            windows
                .iter()
                .map(|w| observe(w.key.job as usize, &w.report, top_k)),
        );
    }

    /// Push one frame of `frags` fragments; window facts of every report
    /// the call returned are appended to `out`. Returns the outcome and
    /// whether the frame's fragments entered an arena.
    pub fn push(
        &mut self,
        bytes: &[u8],
        frags: u32,
        out: &mut Vec<WindowFacts>,
    ) -> (Outcome, bool) {
        let pushed = match self {
            Program::Solo(ing, top_k) => {
                let before = ing.stats().frames_admitted;
                let r = ing.push_encoded(bytes).map(|reports| {
                    out.extend(reports.iter().map(|r| observe(0, r, *top_k)));
                });
                (r, ing.stats().frames_admitted > before)
            }
            Program::Fleet(plane, top_k) => {
                let r = plane
                    .push_encoded(bytes)
                    .map(|w| Self::collect_fleet(w, *top_k, out));
                let ok = r.is_ok();
                (r, ok)
            }
        };
        match pushed {
            (Ok(()), absorbed) => {
                spin(SpinLayer::Wire, frags as u64);
                (Outcome::Ok, absorbed)
            }
            (Err(e), _) => (outcome_of(&e), false),
        }
    }

    /// Harvest reports finished since the last call, without blocking.
    /// (The fleet plane only hands reports back from its drains.)
    pub fn poll(&mut self, out: &mut Vec<WindowFacts>) {
        if let Program::Solo(ing, top_k) = self {
            out.extend(ing.poll_reports().iter().map(|r| observe(0, r, *top_k)));
        }
    }

    /// Windows sealed but not yet emitted (solo) or frames queued (fleet).
    pub fn pending(&self) -> u64 {
        match self {
            Program::Solo(ing, _) => ing.pending_windows(),
            Program::Fleet(plane, _) => plane.queued_frames() as u64,
        }
    }

    /// End of stream: the remaining windows and the accounting.
    pub fn finish(self, out: &mut Vec<WindowFacts>) -> Totals {
        match self {
            Program::Solo(ing, top_k) => {
                let s = ing.stats().clone();
                let dropped = s.dropped_late_frames + s.dropped_backpressure_frames;
                let totals = Totals {
                    admitted: s.frames_admitted,
                    rejected: s.frames_rejected() - dropped,
                    dropped,
                    duplicates: s.duplicate_frames,
                    over_budget: s.over_budget_frames,
                    arena_peak_bytes: ing.arena().high_water_bytes(),
                };
                out.extend(ing.finish().iter().map(|r| observe(0, r, top_k)));
                totals
            }
            Program::Fleet(plane, top_k) => {
                let (report, windows) = plane.into_report();
                Self::collect_fleet(windows, top_k, out);
                let mut t = Totals {
                    arena_peak_bytes: report.arena_high_water_bytes(),
                    ..Totals::default()
                };
                for s in report.jobs.iter().map(|j| &j.stats) {
                    let dropped = s.dropped_late_frames + s.dropped_backpressure_frames;
                    t.admitted += s.frames_admitted;
                    t.rejected += s.frames_rejected() - dropped;
                    t.dropped += dropped;
                    t.duplicates += s.duplicate_frames;
                }
                for s in report
                    .tenants
                    .iter()
                    .map(|t| &t.stats)
                    .chain([&report.unattributed])
                {
                    t.rejected += s.frames_rejected();
                    t.over_budget += s.over_budget_frames;
                }
                t
            }
        }
    }
}

// ---------------------------------------------------------------------
// The layers, one job at a time

/// Per-layer work counts of a shadow replay.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShadowCounts {
    /// Fragments absorbed into the arena.
    pub frags_absorbed: u64,
    /// Fragments gathered into columnar pools, over all windows.
    pub frags_gathered: u64,
    /// Workload vectors clustered (one per gathered fragment).
    pub vectors: u64,
    /// Clusters found, usable and rare.
    pub clusters: u64,
    /// Points normalised.
    pub points: u64,
    /// Regions found by the region probe.
    pub regions: u64,
    /// Windows closed.
    pub windows: u64,
    /// Region diagnoses attempted.
    pub diagnoses_attempted: u64,
    /// Diagnoses that produced a report.
    pub diagnosed: u64,
    /// Windows whose probe regions differ from `detect_columnar`'s.
    pub probe_mismatches: u64,
}

/// One job's arena and scratch pool, driven layer by layer.
pub struct ShadowJob {
    job: usize,
    ranks: usize,
    cfg: VaproConfig,
    arena: IngestArena,
    scratch: ColumnarPool,
}

impl ShadowJob {
    /// An empty shadow of one job.
    pub fn new(job: usize, ranks: usize, spec: &ProgramSpec) -> ShadowJob {
        ShadowJob {
            job,
            ranks,
            cfg: spec.config(),
            arena: IngestArena::new(),
            scratch: ColumnarPool::new(),
        }
    }

    /// `IngestArena::push_batch`.
    pub fn absorb(&mut self, batch: Batch, counts: &mut ShadowCounts, tr: &mut Tracer) {
        counts.frags_absorbed += batch.len() as u64;
        let s = tr.begin(span_id("server.absorb"), NONE, NONE);
        self.arena.push_batch(batch);
        tr.end(s);
    }

    /// `IngestArena::ensure_sorted`, once before a run of window closes.
    pub fn sort(&mut self, tr: &mut Tracer) {
        let s = tr.begin(span_id("server.sort"), NONE, NONE);
        self.arena.ensure_sorted();
        tr.end(s);
    }

    /// `IngestArena::evict_before`.
    pub fn evict(&mut self, horizon_ns: u64, tr: &mut Tracer) {
        let s = tr.begin(span_id("server.evict"), NONE, NONE);
        self.arena.evict_before(horizon_ns);
        tr.end(s);
    }

    /// Close one window the way `analyze_view_columnar` does — view,
    /// gather, detect, diagnose the top regions — then probe detect's
    /// sub-layers one at a time over the same pool.
    pub fn close_window(
        &mut self,
        (start_ns, end_ns): (u64, u64),
        id: u32,
        counts: &mut ShadowCounts,
        tr: &mut Tracer,
    ) -> WindowFacts {
        let window = Window {
            start: VirtualTime::from_ns(start_ns),
            end: VirtualTime::from_ns(end_ns),
        };
        let (ranks, cfg) = (self.ranks, &self.cfg);
        let root = tr.begin(span_id("window"), NONE, id);

        let s = tr.begin(span_id("server.view"), root, id);
        let view = self.arena.window_view(window);
        tr.end(s);

        let s = tr.begin(span_id("columnar.gather"), root, id);
        self.scratch.refill_from_merged(&view);
        tr.end(s);
        drop(view);
        let pool = &self.scratch;
        counts.frags_gathered += pool.len() as u64;

        let s = tr.begin(span_id("detect"), root, id);
        let result = detect_columnar(pool, ranks, BINS_PER_WINDOW, cfg);
        tr.end(s);

        let s = tr.begin(span_id("diagnose"), root, id);
        let attempted = result.comp_regions.len().min(cfg.diagnose_top_k);
        let diagnoses: Vec<_> = if attempted == 0 {
            Vec::new()
        } else {
            let batch = DiagnosisBatch::with_clusters(pool, cfg, &result.edge_clusters);
            result
                .comp_regions
                .iter()
                .take(attempted)
                .filter_map(|region| {
                    let roi = RegionOfInterest::from(region);
                    batch
                        .diagnose(&roi)
                        .map(|report| vapro_core::RegionDiagnosis { roi, report })
                })
                .collect()
        };
        spin(SpinLayer::Diagnose, attempted as u64);
        tr.end(s);

        let probe_regions = Self::probe(pool, cfg, ranks, counts, id, root, tr);
        tr.end(root);

        let all = self.scratch.all();
        let mut present = vec![false; ranks];
        for i in 0..all.len() {
            if let Some(p) = present.get_mut(all.rank(i)) {
                *p = true;
            }
        }
        let mut coverage = vapro_core::WindowCoverage::full(ranks);
        coverage.ranks_absent = (0..ranks).filter(|&r| !present[r]).collect();
        let found = result.comp_regions.len() + result.comm_regions.len() + result.io_regions.len();
        counts.windows += 1;
        counts.regions += probe_regions as u64;
        counts.probe_mismatches += (probe_regions != found) as u64;
        counts.diagnoses_attempted += attempted as u64;
        counts.diagnosed += diagnoses.len() as u64;
        facts(
            self.job,
            &WindowReport {
                window,
                result,
                diagnoses,
                coverage,
            },
            cfg.diagnose_top_k,
        )
    }

    /// Detect's sub-layers one after the other, sequentially, over the
    /// gathered pool: cluster every lane, normalise every lane, build
    /// the three heat maps, grow regions. Returns the regions found.
    fn probe(
        pool: &ColumnarPool,
        cfg: &VaproConfig,
        ranks: usize,
        counts: &mut ShadowCounts,
        id: u32,
        parent: u32,
        tr: &mut Tracer,
    ) -> usize {
        let lanes: Vec<_> = (0..pool.num_vertices())
            .map(|i| pool.vertex(i).1)
            .chain((0..pool.num_edges()).map(|i| pool.edge(i).2))
            .collect();
        let probe = tr.begin(span_id("probe"), parent, id);

        let s = tr.begin(span_id("probe.clustering"), probe, id);
        let outcomes: Vec<ClusterOutcome> = lanes
            .iter()
            .map(|lane| {
                cluster_pool(
                    lane,
                    &cfg.proxy_counters,
                    cfg.cluster_threshold,
                    cfg.min_cluster_size,
                )
            })
            .collect();
        tr.end(s);

        let s = tr.begin(span_id("probe.normalize"), probe, id);
        let mut series = CategorySeries::default();
        for (lane, outcome) in lanes.iter().zip(&outcomes) {
            normalize_cluster_outcome_view(lane, outcome, &mut series, None);
        }
        tr.end(s);

        let s = tr.begin(span_id("probe.heatmap"), probe, id);
        let maps: Vec<HeatMap> = [&series.computation, &series.communication, &series.io]
            .into_iter()
            .filter(|points| !points.is_empty())
            .map(|points| HeatMap::spanning(points, BINS_PER_WINDOW, ranks))
            .collect();
        tr.end(s);

        let s = tr.begin(span_id("probe.region"), probe, id);
        let regions: usize = maps
            .iter()
            .map(|m| grow_regions(m, cfg.perf_threshold).len())
            .sum();
        spin(SpinLayer::Region, regions as u64);
        tr.end(s);
        tr.end(probe);

        counts.vectors += lanes.iter().map(|l| l.len() as u64).sum::<u64>();
        counts.clusters += outcomes
            .iter()
            .map(|o| (o.usable.len() + o.rare.len()) as u64)
            .sum::<u64>();
        counts.points += series.len() as u64;
        regions
    }
}

/// Decode under a span; the shadow replay's `wire` probe.
pub fn decode_traced(bytes: &[u8], tr: &mut Tracer) -> Result<Batch, Outcome> {
    let s = tr.begin(span_id("wire.decode"), NONE, NONE);
    let decoded = decode(bytes);
    tr.end(s);
    decoded
}

/// Time `encode_into_v3` over decoded copies of `frames`: ns per call
/// batch, for the `wire.encode_ns_per_frag` probe.
pub fn time_encode(frames: &[&[u8]]) -> (u64, u64) {
    let batches: Vec<Batch> = frames
        .iter()
        .filter_map(|f| FragmentBatch::decode(f).ok())
        .collect();
    let frags: u64 = batches.iter().map(|b| b.len() as u64).sum();
    let mut out = Vec::new();
    let t0 = Instant::now();
    for b in &batches {
        out.clear();
        b.encode_into_v3(&mut out);
        std::hint::black_box(&out);
    }
    (t0.elapsed().as_nanos() as u64, frags)
}
