//! What the window path asks of the allocator.
//!
//! A report built on a pool worker is dropped by the thread that
//! harvested it, and what that hand-off costs is one cross-thread free
//! per block the report owns, not the bytes in them (DESIGN.md §13). So
//! the count is held to a ceiling here, and above all it must not grow
//! with the number of STG locations a window has: the per-lane cluster
//! outcomes travel as one flat `ClusterTable`, not as a `Vec` per lane,
//! per cluster and per member list.
//!
//! The allocator below counts frees per thread (a `const` thread-local
//! with no destructor, so it is safe to touch inside `dealloc`): the
//! blocks a report owns are the frees its drop makes on the dropping
//! thread, whatever other tests and the pool's workers do meanwhile.
//!
//! It counts allocator calls (allocations and reallocations) and the
//! bytes they request per thread the same way, for the two censuses at
//! the end. The close-path census streams the ring at n and at 4n
//! fragments per location through an inline ingestor and holds what a
//! window close costs to the number of locations, not the number of
//! fragments: the calls may not grow, and the bytes grow by at most a
//! committed ceiling per added fragment; a quiet close's calls are held
//! to a committed ceiling too. The diagnosis census holds the
//! drill-down's calls to the same over a cluster of n and of 4n members.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::OnceLock;
use vapro_core::detect::ingestor::{WindowReport, WindowedIngestor};
use vapro_core::detect::window::Window;
use vapro_core::fragment::{Fragment, FragmentKind};
use vapro_core::stg::{StateKey, Stg};
use vapro_core::wire::FragmentBatch;
use vapro_core::diagnose::{DiagnosisReport, Factor, RegionOfInterest};
use vapro_core::{ClusterTable, ColumnarPool, DiagnosisBatch, VaproConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vapro_pmu::{CounterDelta, CpuConfig, CpuModel, JitterModel, NoiseEnv, WorkloadSpec};
use vapro_sim::{CallSite, VirtualTime};

struct CountingFrees;

thread_local! {
    static FREES: Cell<u64> = const { Cell::new(0) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
}

fn count_alloc(bytes: usize) {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = ALLOC_BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

// SAFETY: every call is forwarded to `System` unchanged; the counters
// are plain thread-local integers that allocate nothing.
unsafe impl GlobalAlloc for CountingFrees {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc(layout.size());
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = FREES.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc(new_size);
        // SAFETY: the caller's contract, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingFrees = CountingFrees;

/// Heap blocks `value` owns: the frees dropping it makes on this thread.
fn blocks_owned<T>(value: T) -> u64 {
    let before = FREES.with(Cell::get);
    drop(value);
    FREES.with(Cell::get) - before
}

const RANKS: usize = 4;
const PERIODS: u64 = 12;
const PERIOD_NS: u64 = 1_000_000_000;
/// 400 loop iterations a rank a period: a window holds 3200 rows — 25 a
/// lane over 64 sites, so every lane still has a usable cluster — far
/// above the stage's inline threshold, so depth > 0 analyses it on the
/// pool.
const ITERATION_NS: u64 = 2_500_000;
/// The ring's plants recur every eight periods.
const PLANT_CYCLE_NS: u64 = 8 * PERIOD_NS;
/// Rank 2 computes under memory contention in iterations starting in
/// this span of a cycle: the windows over them carry a variance region
/// and its diagnosis.
const SLOW_NS: std::ops::Range<u64> = 2_600_000_000..3_400_000_000;
/// One once-executed fragment a cycle with a workload of its own, at
/// this offset: a rare path.
const ODD_NS: u64 = 6_200_000_000;

/// `ring:site00` … `ring:site63`, leaked once: `CallSite` borrows
/// `'static` names.
fn site_labels() -> &'static [&'static str] {
    static LABELS: OnceLock<Vec<&'static str>> = OnceLock::new();
    LABELS.get_or_init(|| (0..64).map(|s| &*format!("ring:site{s:02}").leak()).collect())
}

/// Ranks looping over a ring of `sites` call sites, one iteration every
/// `iteration_ns`: iteration `i` spends a communication fragment (a 25th
/// of the iteration) in site `i % sites` and a computation fragment — a
/// memory-bound kernel over `bytes` — on the edge leaving it. Whatever
/// `sites` is, the fragments — ranks, times, counters — are the same;
/// only the STG locations they are spread over differ. Whatever
/// `iteration_ns` is, the workloads and the time spans they are slow or
/// odd in are the same; only how many fragments each location gets
/// differs.
#[derive(Debug, Clone, Copy)]
struct Ring {
    sites: usize,
    iteration_ns: u64,
    bytes: f64,
}

/// Reporting period `k` of one rank of `ring`.
fn ring_period(ring: Ring, rank: usize, k: u64) -> Stg {
    let Ring { sites, iteration_ns, bytes } = ring;
    let mut stg = Stg::new();
    let states: Vec<_> = site_labels()[..sites]
        .iter()
        .map(|&l| stg.state(StateKey::Site(CallSite(l))))
        .collect();
    let start = stg.state(StateKey::Start);
    stg.transition(start, states[0]);
    let edges: Vec<_> =
        (0..sites).map(|s| stg.transition(states[s], states[(s + 1) % sites])).collect();
    // The simulated core's counters, so the diagnosis has factors to
    // find; exact (jitter-free), so every rank's quiet fragment is the
    // same fragment.
    let model = CpuModel::with_jitter(CpuConfig::default(), JitterModel::exact());
    let mut rng = ChaCha8Rng::seed_from_u64(rank as u64);
    let mut compute = |bytes: f64, mem_contention: f64| {
        let env = NoiseEnv { mem_contention, ..NoiseEnv::quiet() };
        model.execute(&WorkloadSpec::memory_bound(bytes), &env, &mut rng)
    };
    let (quiet, slow, odd) = (compute(bytes, 1.0), compute(bytes, 2.0), compute(2.0 * bytes, 1.0));
    let comm_ns = iteration_ns / 25;
    let per_period = PERIOD_NS / iteration_ns;
    for i in k * per_period..(k + 1) * per_period {
        let t = i * iteration_ns;
        let site = i as usize % sites;
        stg.attach_vertex_fragment(
            states[site],
            Fragment {
                rank,
                kind: FragmentKind::Communication,
                start: VirtualTime::from_ns(t),
                end: VirtualTime::from_ns(t + comm_ns),
                counters: CounterDelta::default(),
                args: vec![64.0, 1.0],
            },
        );
        let out = if rank == 2 && SLOW_NS.contains(&(t % PLANT_CYCLE_NS)) {
            &slow
        } else if rank == 1 && t % PLANT_CYCLE_NS == ODD_NS {
            &odd
        } else {
            &quiet
        };
        assert!(out.wall_ns < (iteration_ns - comm_ns) as f64, "{} ns", out.wall_ns);
        let start = VirtualTime::from_ns(t + comm_ns);
        stg.attach_edge_fragment(
            edges[site],
            Fragment {
                rank,
                kind: FragmentKind::Computation,
                start,
                end: start + VirtualTime::from_ns_f64(out.wall_ns),
                counters: out.counters.clone(),
                args: vec![],
            },
        );
    }
    stg
}

/// Every rank's frame for reporting period `k` of `ring`, encoded.
fn period_frames(ring: Ring, k: u64) -> Vec<Vec<u8>> {
    let period = Window {
        start: VirtualTime::from_ns(PERIOD_NS * k),
        end: VirtualTime::from_ns(PERIOD_NS * (k + 1)),
    };
    (0..RANKS)
        .map(|rank| {
            FragmentBatch::from_stg_starting_in(&ring_period(ring, rank, k), rank, period)
                .with_seq(k + 1)
                .encode()
        })
        .collect()
}

fn ingestor(pipeline_depth: usize) -> WindowedIngestor {
    let cfg = VaproConfig {
        report_period: VirtualTime::from_ns(PERIOD_NS),
        pipeline_depth,
        ..VaproConfig::default()
    };
    WindowedIngestor::new(RANKS, 16, cfg)
}

/// Stream the ring over `sites` call sites through an ingestor of the
/// given pipeline depth; every report, in window order.
fn stream(sites: usize, pipeline_depth: usize) -> Vec<WindowReport> {
    let mut ingestor = ingestor(pipeline_depth);
    let mut reports = Vec::new();
    for k in 0..PERIODS {
        for frame in period_frames(Ring { sites, iteration_ns: ITERATION_NS, bytes: 4e5 }, k) {
            reports.extend(ingestor.push_encoded(&frame).expect("valid frame"));
        }
    }
    reports.extend(ingestor.finish());
    reports
}

/// Regions, rare paths and diagnoses a report carries.
fn findings(r: &WindowReport) -> (usize, usize, usize) {
    let regions =
        r.result.comp_regions.len() + r.result.comm_regions.len() + r.result.io_regions.len();
    (regions, r.result.rare_paths.len(), r.diagnoses.len())
}

/// Blocks a report may own whatever it found: three heat maps, two or
/// three series, the six strips of the cluster table, the coverage
/// lists, the region, rare-path and diagnosis lists themselves.
const FIXED_CEILING: u64 = 32;
/// Blocks per variance region (its cell list), rare path and region
/// diagnosis (the drill-down's steps, factors and names). A rare path
/// owns none: it shares its lane's interned label with the arena (once
/// the ingestor is gone, the last report holding a label frees it,
/// which the fixed ceiling absorbs).
const PER_REGION: u64 = 2;
const PER_RARE_PATH: u64 = 0;
const PER_DIAGNOSIS: u64 = 16;

/// `(blocks owned, ceiling for what the report found, found anything)`
/// per report.
fn shape(reports: Vec<WindowReport>) -> Vec<(u64, u64, bool)> {
    reports
        .into_iter()
        .map(|r| {
            let (regions, rare, diagnoses) = findings(&r);
            let ceiling = FIXED_CEILING
                + PER_REGION * regions as u64
                + PER_RARE_PATH * rare as u64
                + PER_DIAGNOSIS * diagnoses as u64;
            (blocks_owned(r), ceiling, regions + rare + diagnoses > 0)
        })
        .collect()
}

fn assert_shape_is_flat(pipeline_depth: usize) {
    let few = shape(stream(8, pipeline_depth));
    let many = shape(stream(64, pipeline_depth));
    assert_eq!(few.len(), many.len());
    assert!(few.len() >= 2 * PERIODS as usize - 2, "{} windows", few.len());
    for (k, (&(few, few_ceiling, few_found), &(many, many_ceiling, many_found))) in
        few.iter().zip(&many).enumerate()
    {
        assert!(few <= few_ceiling, "window {k}, 8 sites: {few} blocks > {few_ceiling}");
        assert!(many <= many_ceiling, "window {k}, 64 sites: {many} blocks > {many_ceiling}");
        // A window that found nothing owns the same blocks however many
        // locations its fragments were spread over. (One that found
        // something owns what its diagnosis drilled into, which depends
        // on the lane the region selected.)
        if !few_found && !many_found {
            assert_eq!(few, many, "window {k}: blocks owned grew with the location count");
        }
    }
    let quiet = few.iter().filter(|w| !w.2).count();
    assert!(quiet >= PERIODS as usize, "only {quiet} quiet windows");
    assert!(quiet < few.len(), "no window carried a region, a rare path or a diagnosis");
}

#[test]
fn blocks_owned_do_not_grow_with_locations_inline() {
    assert_shape_is_flat(0);
}

/// The same for reports built on a pool worker and dropped here, the
/// hand-off the flat table exists for.
#[test]
fn blocks_owned_do_not_grow_with_locations_across_threads() {
    assert_shape_is_flat(8);
}

/// What `f` asked of the allocator on this thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Cost {
    /// Allocations and reallocations.
    calls: u64,
    /// Bytes they requested.
    bytes: u64,
}

/// The allocator cost of `f` on this thread, and its result.
fn cost_of<R>(f: impl FnOnce() -> R) -> (Cost, R) {
    let (calls, bytes) = (ALLOCS.with(Cell::get), ALLOC_BYTES.with(Cell::get));
    let out = f();
    let cost = Cost {
        calls: ALLOCS.with(Cell::get) - calls,
        bytes: ALLOC_BYTES.with(Cell::get) - bytes,
    };
    (cost, out)
}

/// Loop iterations a rank a period at scale n of the close-path census:
/// 125 fragments a lane a rank a period over 8 sites, 31 over 32.
const CENSUS_ITERATIONS: u64 = 1_000;
/// The census kernel's size: under contention it still fits the
/// quarter-millisecond iteration of scale 4n.
const CENSUS_BYTES: f64 = 4e4;
/// Plant cycles the close-path census measures after its warm-up.
const MEASURED_CYCLES: u64 = 2;

/// Periods of warm-up before the census over `sites` call sites reaches
/// its steady state, rounded up to whole plant cycles. The stage, the
/// recycled columnar pool and the arena's pools reach their working
/// size within a few windows, but the arena's one spare heap pair moves
/// one pool along at every close (`ArenaPool::evict_before` fills it
/// with a pool's survivors and keeps that pool's old pair as the next
/// spare), so the heaps stop growing only once the pairs have been
/// round all 2 × `sites` pools — at 4n a few doublings later than at n.
fn warm_up_periods(sites: usize) -> u64 {
    let cycle = PLANT_CYCLE_NS / PERIOD_NS;
    (2 * sites as u64 + 1).div_ceil(cycle) * cycle
}

/// The ratchet: bytes the closing pushes may request per fragment added
/// to a window and per window closed — the slope from n to 4n fragments
/// per location — measured on this census (43.31 B over 8 sites,
/// 42.33 B over 32) and rounded up to the byte, so a copy of a window's
/// cluster members (4 B a fragment) already breaks it. Lower it when a
/// change lowers the slope; raising it is a reviewed act, like the lint
/// waiver budget it replaces.
const BYTES_PER_ADDED_FRAGMENT: f64 = 44.0;

/// The other ratchet: allocator calls per quiet closing push (one window
/// sealed, detected and reported, nothing found, nothing diagnosed) —
/// measured on this census, where they are the same at n and 4n, over 8
/// and 32 call sites (44 at both), and in debug and release builds. The
/// count does not grow with the number of locations because the
/// analysis's work lanes are recycled with the sealed pool, not
/// allocated per lane. Lower it when a change lowers the count; raising
/// it is a reviewed act.
const CALLS_PER_QUIET_CLOSE: f64 = 44.0;

/// The same ratchet on a finding closing push (a window closed that
/// carries a region, a rare path or a diagnosis): 84.7 calls measured
/// over 8 and over 32 call sites, at n and at 4n, rounded up. This is
/// where diagnosis's copies show. Lower it when a change lowers the
/// count; a change that raises it must say why.
const CALLS_PER_FINDING_CLOSE: f64 = 85.0;

/// One measured `push_encoded`: the period its frame shipped, its
/// allocator cost, how many windows it closed and whether any of them
/// found something.
#[derive(Debug, Clone, Copy)]
struct Push {
    period: u64,
    cost: Cost,
    windows: usize,
    found: bool,
}

/// Stream the ring over `sites` call sites at `iterations` loop
/// iterations a rank a period through an inline (depth 0) ingestor, so
/// every allocation a push causes — admission, seal, detection,
/// diagnosis, the reports — lands on this thread. Frames are encoded
/// before the measurement; reports are dropped after it.
fn close_path_census(sites: usize, iterations: u64) -> Vec<Push> {
    let ring = Ring { sites, iteration_ns: PERIOD_NS / iterations, bytes: CENSUS_BYTES };
    let periods = warm_up_periods(sites) + MEASURED_CYCLES * PLANT_CYCLE_NS / PERIOD_NS;
    let mut ingestor = ingestor(0);
    let mut pushes = Vec::new();
    for period in 0..periods {
        for frame in period_frames(ring, period) {
            let (cost, reports) = cost_of(|| ingestor.push_encoded(&frame).expect("valid frame"));
            let found = reports.iter().any(|r| findings(r) != (0, 0, 0));
            pushes.push(Push { period, cost, windows: reports.len(), found });
        }
    }
    pushes
}

/// The census's steady state: its pushes after the warm-up, whose two
/// plant cycles must cost the same push for push — what proves the
/// warm-up long enough — returned as the first cycle's.
fn steady_state(sites: usize, iterations: u64) -> Vec<Push> {
    let warm_up = warm_up_periods(sites);
    let pushes: Vec<Push> =
        close_path_census(sites, iterations).into_iter().filter(|p| p.period >= warm_up).collect();
    let (first, second) = pushes.split_at(pushes.len() / 2);
    for (a, b) in first.iter().zip(second) {
        assert_eq!(
            a.cost, b.cost,
            "{sites} sites, {iterations} iterations: not steady after {warm_up} periods \
             (period {} cost {:?}, period {} {:?})",
            a.period, a.cost, b.period, b.cost
        );
    }
    first.to_vec()
}

/// Allocator calls and bytes of a steady-state plant cycle at n and at
/// 4n fragments per location over the same `sites` call sites. Calls
/// per closing push may not grow and stay under their ceilings, an
/// admitted non-closing frame makes none, and the bytes may grow by at
/// most the ceiling per added fragment and closed window.
fn assert_close_path_is_flat(sites: usize) {
    let small = steady_state(sites, CENSUS_ITERATIONS);
    let large = steady_state(sites, 4 * CENSUS_ITERATIONS);
    assert_eq!(small.len(), large.len());
    // Totals over the cycle: (pushes, windows, calls at n, at 4n) per
    // kind of push — admission only, quiet close, close that found
    // something — and the bytes the closes requested at n and at 4n.
    let mut totals = [(0u64, 0u64, 0u64, 0u64); 3];
    let (mut bytes_n, mut bytes_4n) = (0u64, 0u64);
    for (n, four_n) in small.iter().zip(&large) {
        // The same pushes close the same windows, which find the same
        // kinds of thing: only the fragment count differs.
        let (period, windows, found) = (n.period, n.windows, n.found);
        assert_eq!((windows, found), (four_n.windows, four_n.found), "period {period}");
        let (calls, calls_4n) = (n.cost.calls, four_n.cost.calls);
        let kind = if windows == 0 {
            // The ratchet on a push that closes nothing: admitting a frame
            // makes no allocator call at all (0 measured over 8 and 32
            // call sites, at n and at 4n). A change that raises it must
            // say why.
            assert_eq!(
                (calls, calls_4n),
                (0, 0),
                "{sites} sites, period {period}: admitting a frame made allocator calls (at n, at 4n)"
            );
            0
        } else {
            assert!(
                calls_4n <= calls,
                "{sites} sites, period {period} ({windows} windows, found {found}): \
                 {calls} allocator calls at n, {calls_4n} at 4n"
            );
            bytes_n += n.cost.bytes;
            bytes_4n += four_n.cost.bytes;
            1 + usize::from(found)
        };
        let t = &mut totals[kind];
        *t = (t.0 + 1, t.1 + windows as u64, t.2 + calls, t.3 + calls_4n);
    }
    let [admitted, quiet, found] = totals;
    assert!(quiet.0 > 0 && found.0 > 0, "{} quiet closing pushes, {} finding ones", quiet.0, found.0);
    // A window holds one period of every rank's iterations, two
    // fragments each.
    let windows = quiet.1 + found.1;
    let added = windows * 2 * RANKS as u64 * (4 * CENSUS_ITERATIONS - CENSUS_ITERATIONS);
    let slope = (bytes_4n as f64 - bytes_n as f64) / added as f64;
    let per = |calls: u64, pushes: u64| calls as f64 / pushes as f64;
    eprintln!(
        "{sites} sites, n / 4n: {:.1} / {:.1} calls per admitted frame, \
         {:.1} / {:.1} per quiet closing push, {:.1} / {:.1} per finding one; \
         {:.2} / {:.2} MB per closed window, {slope:.2} B per added fragment",
        per(admitted.2, admitted.0),
        per(admitted.3, admitted.0),
        per(quiet.2, quiet.0),
        per(quiet.3, quiet.0),
        per(found.2, found.0),
        per(found.3, found.0),
        bytes_n as f64 / windows as f64 / 1e6,
        bytes_4n as f64 / windows as f64 / 1e6,
    );
    assert!(
        slope <= BYTES_PER_ADDED_FRAGMENT,
        "{sites} sites: {slope:.2} B requested per added fragment and closed window > {BYTES_PER_ADDED_FRAGMENT}"
    );
    let calls = per(quiet.2, quiet.0);
    assert!(
        calls <= CALLS_PER_QUIET_CLOSE,
        "{sites} sites: {calls:.1} allocator calls per quiet closing push > {CALLS_PER_QUIET_CLOSE}"
    );
    let calls = per(found.2, found.0);
    assert!(
        calls <= CALLS_PER_FINDING_CLOSE,
        "{sites} sites: {calls:.1} allocator calls per finding closing push > {CALLS_PER_FINDING_CLOSE}"
    );
}

#[test]
fn window_close_allocations_do_not_grow_with_fragments_over_8_locations() {
    assert_close_path_is_flat(8);
}

#[test]
fn window_close_allocations_do_not_grow_with_fragments_over_32_locations() {
    assert_close_path_is_flat(32);
}

/// One edge lane of `n` runs of one memory-bound workload on rank 0,
/// every fourth under memory contention, so the lane is one
/// fixed-workload cluster of `n` members whose noise pattern does not
/// depend on `n`.
fn one_cluster(n: usize) -> ColumnarPool {
    let model = CpuModel::with_jitter(CpuConfig::default(), JitterModel::exact());
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    let mut pool = ColumnarPool::new();
    pool.begin_edge("census:MPI_Barrier".into(), "census:MPI_Barrier".into());
    for i in 0..n as u64 {
        let mem_contention = if i % 4 == 3 { 2.0 } else { 1.0 };
        let env = NoiseEnv { mem_contention, ..NoiseEnv::quiet() };
        let out = model.execute(&WorkloadSpec::memory_bound(4e5), &env, &mut rng);
        let start = VirtualTime::from_ns(i * ITERATION_NS);
        pool.push(&Fragment {
            rank: 0,
            kind: FragmentKind::Computation,
            start,
            end: start + VirtualTime::from_ns_f64(out.wall_ns),
            counters: out.counters,
            args: vec![],
        });
    }
    pool
}

/// Allocator calls of one `DiagnosisBatch::diagnose` over `one_cluster(n)`,
/// the cluster table seeded as the streaming server seeds it.
fn diagnosis_allocs(n: usize) -> (u64, DiagnosisReport) {
    let cfg = VaproConfig::default();
    let pool = one_cluster(n);
    let mut table = ClusterTable::new(cfg.min_cluster_size);
    table.push_lane(&pool.edge(0).2, &cfg.proxy_counters, cfg.cluster_threshold);
    assert_eq!(table.lane(0).usable().map(|c| c.members.len()).max(), Some(n), "one cluster");
    let batch = DiagnosisBatch::with_clusters(&pool, &cfg, &table);
    let roi = RegionOfInterest {
        ranks: (0, 0),
        t_start: VirtualTime::ZERO,
        t_end: VirtualTime::from_ns(n as u64 * ITERATION_NS),
    };
    let (cost, report) = cost_of(|| batch.diagnose(&roi));
    (cost.calls, report.expect("the planted contention is diagnosed"))
}

/// What the drill-down allocates depends on its steps and factors, never
/// on how many members the cluster has: the member rows are read in
/// place from the sealed columns, not rebuilt as fragments or row
/// vectors.
#[test]
fn diagnosis_allocations_do_not_grow_with_cluster_size() {
    let (small, small_report) = diagnosis_allocs(48);
    let (large, large_report) = diagnosis_allocs(4 * 48);
    // The same descent over both clusters, so the same tables.
    let shape = |r: &DiagnosisReport| -> Vec<Vec<Factor>> {
        r.steps.iter().map(|s| s.factors.clone()).collect()
    };
    assert_eq!(shape(&small_report), shape(&large_report));
    assert_eq!(small_report.culprits, large_report.culprits);
    assert!(small_report.culprits.contains(&Factor::DramBound), "{:?}", small_report.culprits);
    assert_eq!(small, large, "allocator calls grew with the cluster: {small} at 48 members, {large} at 192");
}
