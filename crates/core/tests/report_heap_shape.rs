//! How many heap blocks a `WindowReport` owns.
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
//! It counts allocator calls (allocations and reallocations) per thread
//! the same way, for the diagnosis census at the end: the drill-down's
//! allocations must not grow with the size of the cluster it reads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
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
}

fn count_alloc() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded to `System` unchanged; the counter is
// a plain thread-local integer that allocates nothing.
unsafe impl GlobalAlloc for CountingFrees {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_alloc();
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let _ = FREES.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_alloc();
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
/// Rank 2 computes under memory contention during these iterations: the
/// windows over them carry a variance region and its diagnosis.
const SLOW: std::ops::Range<u64> = 1040..1360;
/// One once-executed fragment with a workload of its own: a rare path.
const ODD_ITERATION: u64 = 2480;

/// One rank looping over a ring of `sites` call sites: iteration `i`
/// spends a communication fragment in site `i % sites` and a
/// computation fragment on the edge leaving it. Whatever `sites` is,
/// the fragments — ranks, times, counters — are the same; only the STG
/// locations they are spread over differ.
fn ring_stg(rank: usize, sites: usize) -> Stg {
    // The labels outlive the STG: `CallSite` borrows `'static` names.
    let labels: Vec<&'static str> =
        (0..sites).map(|s| &*format!("ring:site{s:02}").leak()).collect();
    let mut stg = Stg::new();
    let states: Vec<_> =
        labels.iter().map(|&l| stg.state(StateKey::Site(CallSite(l)))).collect();
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
    let (quiet, slow, odd) = (compute(4e5, 1.0), compute(4e5, 2.0), compute(8e5, 1.0));
    for i in 0..PERIODS * PERIOD_NS / ITERATION_NS {
        let t = i * ITERATION_NS;
        let site = i as usize % sites;
        stg.attach_vertex_fragment(
            states[site],
            Fragment {
                rank,
                kind: FragmentKind::Communication,
                start: VirtualTime::from_ns(t),
                end: VirtualTime::from_ns(t + 100_000),
                counters: CounterDelta::default(),
                args: vec![64.0, 1.0],
            },
        );
        let out = if rank == 2 && SLOW.contains(&i) {
            &slow
        } else if rank == 1 && i == ODD_ITERATION {
            &odd
        } else {
            &quiet
        };
        assert!(out.wall_ns < (ITERATION_NS - 100_000) as f64, "{} ns", out.wall_ns);
        let start = VirtualTime::from_ns(t + 100_000);
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

/// Stream the ring over `sites` call sites through an ingestor of the
/// given pipeline depth; every report, in window order.
fn stream(sites: usize, pipeline_depth: usize) -> Vec<WindowReport> {
    let cfg = VaproConfig {
        report_period: VirtualTime::from_ns(PERIOD_NS),
        pipeline_depth,
        ..VaproConfig::default()
    };
    let stgs: Vec<Stg> = (0..RANKS).map(|rank| ring_stg(rank, sites)).collect();
    let mut ingestor = WindowedIngestor::new(RANKS, 16, cfg);
    let mut reports = Vec::new();
    for k in 0..PERIODS {
        let period = Window {
            start: VirtualTime::from_ns(PERIOD_NS * k),
            end: VirtualTime::from_ns(PERIOD_NS * (k + 1)),
        };
        for (rank, stg) in stgs.iter().enumerate() {
            let frame = FragmentBatch::from_stg_starting_in(stg, rank, period)
                .with_seq(k + 1)
                .encode_v3();
            reports.extend(ingestor.push_encoded(&frame).expect("valid frame"));
        }
    }
    reports.extend(ingestor.finish());
    reports
}

/// Blocks a report may own whatever it found: three heat maps, two or
/// three series, the six strips of the cluster table, the coverage
/// lists, the region, rare-path and diagnosis lists themselves.
const FIXED_CEILING: u64 = 32;
/// Blocks per variance region (its cell list), rare path (its label)
/// and region diagnosis (the drill-down's steps, factors and names).
const PER_REGION: u64 = 2;
const PER_RARE_PATH: u64 = 1;
const PER_DIAGNOSIS: u64 = 16;

/// `(blocks owned, ceiling for what the report found, found anything)`
/// per report.
fn shape(reports: Vec<WindowReport>) -> Vec<(u64, u64, bool)> {
    reports
        .into_iter()
        .map(|r| {
            let regions = r.result.comp_regions.len()
                + r.result.comm_regions.len()
                + r.result.io_regions.len();
            let (rare, diagnoses) = (r.result.rare_paths.len(), r.diagnoses.len());
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

/// Allocator calls (allocations and reallocations) `f` makes on this
/// thread, and its result.
fn allocs_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
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
    let (allocs, report) = allocs_during(|| batch.diagnose(&roi));
    (allocs, report.expect("the planted contention is diagnosed"))
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
