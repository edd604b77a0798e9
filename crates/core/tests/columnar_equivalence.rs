//! Property tests of the columnar core: a [`ColumnarPool`] sealed from
//! the ingest arena must drive detection and diagnosis to
//! **bit-identical** results versus the AoS `&[&Fragment]` path over the
//! same fragment population — the columnar representation is an
//! optimisation, never a semantic change.
//!
//! The AoS side is built here, independently of the arena: the batches'
//! fragments grouped by label and put into a test-local restatement of
//! the canonical order. Agreement therefore also checks the arena's
//! location order, its fragment order and its empty-location skipping
//! against a second statement of each. Populations include empty groups,
//! single-fragment locations and colliding timestamps; a dedicated case
//! checks that explicitly empty lanes are inert.

use proptest::prelude::*;
use proptest::prop::collection::vec;
use std::collections::BTreeMap;
use vapro_core::fragment::{Fragment, FragmentKind};
use vapro_core::wire::{EdgeGroup, FragmentBatch, VertexGroup};
use vapro_core::{
    detect_columnar, detect_merged, diagnose_regions_seq, ColumnarPool, DiagnosisBatch,
    IngestArena, MergedStg, PoolView, RegionOfInterest, StateKey, SymbolTable, VaproConfig,
};
use vapro_pmu::{CounterDelta, CounterId, CounterSet};
use vapro_sim::{CallSite, VirtualTime};

const NRANKS: usize = 4;
const BINS: usize = 8;

fn kind_strategy() -> impl Strategy<Value = FragmentKind> {
    prop_oneof![
        Just(FragmentKind::Computation),
        Just(FragmentKind::Communication),
        Just(FragmentKind::Io),
        Just(FragmentKind::Other),
    ]
}

fn finite() -> impl Strategy<Value = f64> {
    prop_oneof![Just(0.0), -1e9f64..1e9]
}

/// Fragments over a small rank set and a narrow time range, so windows,
/// clusters and regions all actually form. Coarse start/duration grids
/// make timestamp collisions (the content-tiebreak path) common.
fn fragment_strategy() -> impl Strategy<Value = Fragment> {
    (
        0usize..NRANKS,
        kind_strategy(),
        (0u64..40).prop_map(|t| t * 1_000_000),
        (1u64..20).prop_map(|d| d * 100_000),
        vec((0usize..CounterId::ALL.len(), finite()), 0..5),
        vec(finite(), 0..4),
    )
        .prop_map(|(rank, kind, start, dur, counters, args)| {
            let mut delta = CounterDelta::default();
            for (idx, val) in counters {
                delta.put(CounterId::ALL[idx], val);
            }
            Fragment {
                rank,
                kind,
                start: VirtualTime::from_ns(start),
                end: VirtualTime::from_ns(start + dur),
                counters: delta,
                args,
            }
        })
}

const LABELS: [&str; 3] = ["solve", "halo", "reduce"];

/// A valid batch over a tiny label alphabet: group sizes span empty,
/// single-fragment and clusterable populations.
fn batch_strategy() -> impl Strategy<Value = FragmentBatch> {
    let labels = LABELS;
    (
        0usize..NRANKS,
        vec((0u32..3, vec(fragment_strategy(), 0..12)), 0..3),
        vec((0u32..3, 0u32..3, vec(fragment_strategy(), 0..12)), 0..3),
    )
        .prop_map(move |(rank, vgroups, egroups)| FragmentBatch {
            rank,
            seq: 0,
            tenant_id: 0,
            job_id: 0,
            window_start_ns: 0,
            window_end_ns: 40_000_000,
            labels: labels.iter().map(|l| l.to_string()).collect(),
            vertex_groups: vgroups
                .into_iter()
                .map(|(label, fragments)| VertexGroup { label, fragments })
                .collect(),
            edge_groups: egroups
                .into_iter()
                .map(|(from, to, fragments)| EdgeGroup { from, to, fragments })
                .collect(),
        })
}

fn pooled(batches: &[FragmentBatch]) -> IngestArena {
    let mut arena = IngestArena::new();
    for b in batches {
        arena.push_batch(b.clone());
    }
    arena
}

/// The canonical in-pool order, restated: rank, start, end, kind, then
/// the counter (id, value bits) sequence, then the argument bits.
fn canonical_key(f: &Fragment) -> impl Ord {
    (
        f.rank,
        f.start.ns(),
        f.end.ns(),
        f.kind as u8,
        f.counters.entries().map(|(id, v)| (id.index(), v.to_bits())).collect::<Vec<_>>(),
        f.args.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
    )
}

/// The AoS reference population, owned: fragments grouped by state key
/// (`BTreeMap`, so locations come out in key order), each group in
/// canonical order, groups without fragments absent.
#[derive(Default)]
struct Reference {
    vertices: BTreeMap<StateKey, Vec<Fragment>>,
    edges: BTreeMap<(StateKey, StateKey), Vec<Fragment>>,
}

impl Reference {
    fn of(batches: &[FragmentBatch]) -> Reference {
        let key = |label: u32| StateKey::Site(CallSite(LABELS[label as usize]));
        let mut r = Reference::default();
        for b in batches {
            for g in b.vertex_groups.iter().filter(|g| !g.fragments.is_empty()) {
                r.vertices.entry(key(g.label)).or_default().extend(g.fragments.iter().cloned());
            }
            for g in b.edge_groups.iter().filter(|g| !g.fragments.is_empty()) {
                let pool = r.edges.entry((key(g.from), key(g.to))).or_default();
                pool.extend(g.fragments.iter().cloned());
            }
        }
        for pool in r.vertices.values_mut().chain(r.edges.values_mut()) {
            pool.sort_by_key(canonical_key);
        }
        r
    }

    fn merged(&self) -> MergedStg<'_> {
        let mut symbols: SymbolTable<&StateKey> = SymbolTable::new();
        let vertices = self
            .vertices
            .iter()
            .map(|(k, pool)| (symbols.intern(k), pool.iter().collect()))
            .collect();
        let edges = self
            .edges
            .iter()
            .map(|((f, t), pool)| ((symbols.intern(f), symbols.intern(t)), pool.iter().collect()))
            .collect();
        MergedStg { symbols, vertices, edges }
    }
}

fn rois() -> Vec<RegionOfInterest> {
    let mut rois = Vec::new();
    for r in 0..NRANKS {
        for c in 0..4u64 {
            rois.push(RegionOfInterest {
                ranks: (r, r),
                t_start: VirtualTime::from_ns(c * 15_000_000),
                t_end: VirtualTime::from_ns((c + 1) * 15_000_000),
            });
        }
    }
    rois
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// detect over lanes == detect over fragment slices, to the bit.
    /// `Debug` formatting of `f64` is shortest-roundtrip, so equal debug
    /// strings mean equal bits in every heat-map cell, region bound,
    /// series point and cluster seed.
    #[test]
    fn columnar_detection_is_bit_identical(batches in vec(batch_strategy(), 1..4)) {
        let cfg = VaproConfig::default();
        let reference = Reference::of(&batches);
        let aos = detect_merged(&reference.merged(), NRANKS, BINS, &cfg);
        let pool = ColumnarPool::from_merged(&pooled(&batches).full_view());
        let col = detect_columnar(&pool, NRANKS, BINS, &cfg);
        prop_assert_eq!(format!("{aos:?}"), format!("{col:?}"));
    }

    /// Batched diagnosis over lanes == over fragment slices, for every
    /// region of a grid covering the population.
    #[test]
    fn columnar_diagnosis_is_bit_identical(batches in vec(batch_strategy(), 1..4)) {
        let cfg = VaproConfig::default();
        let reference = Reference::of(&batches);
        let pool = ColumnarPool::from_merged(&pooled(&batches).full_view());
        prop_assert_eq!(
            diagnose_regions_seq(&reference.merged(), &rois(), &cfg),
            DiagnosisBatch::new(&pool, &cfg).diagnose_all(&rois())
        );
    }

    /// Refilling a recycled pool (the streaming server's scratch path)
    /// leaves no trace of the previous population.
    #[test]
    fn refill_forgets_the_previous_population(
        first in vec(batch_strategy(), 1..3),
        second in vec(batch_strategy(), 1..3),
    ) {
        let cfg = VaproConfig::default();
        let arena_a = pooled(&first);
        let arena_b = pooled(&second);
        let (va, vb) = (arena_a.full_view(), arena_b.full_view());
        let mut recycled = ColumnarPool::from_merged(&va);
        recycled.refill_from_merged(&vb);
        let fresh = ColumnarPool::from_merged(&vb);
        prop_assert_eq!(&recycled, &fresh);
        prop_assert_eq!(
            format!("{:?}", detect_columnar(&recycled, NRANKS, BINS, &cfg)),
            format!("{:?}", detect_columnar(&fresh, NRANKS, BINS, &cfg))
        );
    }

    /// Every [`PoolView`] accessor reads back exactly the fragment that
    /// was pushed at that index, whatever counters it carries —
    /// including the popcount-ranked counter lookups behind the workload
    /// lane and the projection — through a lane at offset zero, a lane
    /// behind it, and the all-fragments view.
    #[test]
    fn lane_accessors_mirror_the_pushed_fragments(
        frags in vec(fragment_strategy(), 1..24),
        split in 0usize..24,
        keep in vec(0usize..CounterId::ALL.len(), 0..8),
        proxy in vec(0usize..CounterId::ALL.len(), 0..4),
    ) {
        let split = split.min(frags.len());
        let mut pool = ColumnarPool::new();
        pool.begin_edge(StateKey::Start, StateKey::Start);
        for f in &frags[..split] {
            pool.push(f);
        }
        pool.begin_vertex(StateKey::Start);
        for f in &frags[split..] {
            pool.push(f);
        }
        let keep: Vec<CounterId> = keep.into_iter().map(|i| CounterId::ALL[i]).collect();
        let keep = CounterSet::from_ids(&keep);
        let proxy: Vec<CounterId> = proxy.into_iter().map(|i| CounterId::ALL[i]).collect();
        let views = [
            (pool.edge(0).2, &frags[..split]),
            (pool.vertex(0).1, &frags[split..]),
            (pool.all(), &frags[..]),
        ];
        for (lane, frags) in views {
            let aos: Vec<&Fragment> = frags.iter().collect();
            let aos = aos.as_slice();
            prop_assert_eq!(lane.len(), frags.len());
            prop_assert_eq!(lane.is_empty(), frags.is_empty());
            let dim = lane.workload_dim(&proxy);
            prop_assert_eq!(dim, aos.workload_dim(&proxy));
            for (i, f) in frags.iter().enumerate() {
                prop_assert_eq!(lane.rank(i), f.rank);
                prop_assert_eq!(lane.kind(i), f.kind);
                prop_assert_eq!(lane.start(i), f.start);
                prop_assert_eq!(lane.end(i), f.end);
                prop_assert_eq!(lane.duration_ns(i).to_bits(), f.duration_ns().to_bits());
                prop_assert_eq!(lane.args(i), &f.args[..]);
                prop_assert_eq!(lane.project_counters(i, keep), f.counters.project(keep));
                prop_assert_eq!(lane.project_counters(i, CounterSet::all()), f.counters.clone());
                let (mut got, mut want) = (Vec::new(), Vec::new());
                lane.extend_workload_lane(i, &proxy, dim, &mut got);
                aos.extend_workload_lane(i, &proxy, dim, &mut want);
                prop_assert_eq!(
                    got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
                );
            }
        }
    }
}

/// Explicitly empty lanes — locations that exist in the pool but hold no
/// fragments, which sealing from the arena never produces — must be
/// inert: same heat maps, regions, rare paths, series and coverage as
/// the pool without them (empty edge lanes still occupy a slot in
/// `edge_clusters`, whose alignment is positional by design).
#[test]
fn empty_lanes_are_inert() {
    let cfg = VaproConfig::default();
    let frag = |rank: usize, start: u64, dur: u64, ins: f64| {
        let mut counters = CounterDelta::default();
        counters.put(CounterId::TotIns, ins);
        Fragment {
            rank,
            kind: FragmentKind::Computation,
            start: VirtualTime::from_ns(start),
            end: VirtualTime::from_ns(start + dur),
            counters,
            args: vec![],
        }
    };
    let key = |l: &'static str| StateKey::Site(CallSite(l));

    let mut dense = ColumnarPool::new();
    dense.begin_edge(key("a"), key("b"));
    for i in 0..8u64 {
        dense.push(&frag((i % 2) as usize, i * 1_000_000, 500_000 + (i % 3) * 1_000, 1000.0));
    }
    dense.begin_vertex(key("solo"));
    dense.push(&frag(1, 2_000_000, 300_000, 64.0)); // single-fragment location

    let mut sparse = ColumnarPool::new();
    sparse.begin_vertex(key("ghost")); // empty vertex lane
    sparse.begin_edge(key("a"), key("b"));
    for i in 0..8u64 {
        sparse.push(&frag((i % 2) as usize, i * 1_000_000, 500_000 + (i % 3) * 1_000, 1000.0));
    }
    sparse.begin_edge(key("x"), key("y")); // empty edge lane
    sparse.begin_vertex(key("solo"));
    sparse.push(&frag(1, 2_000_000, 300_000, 64.0));

    let a = detect_columnar(&dense, 2, 4, &cfg);
    let b = detect_columnar(&sparse, 2, 4, &cfg);
    assert_eq!(format!("{:?}", a.comp_map), format!("{:?}", b.comp_map));
    assert_eq!(format!("{:?}", a.comm_map), format!("{:?}", b.comm_map));
    assert_eq!(format!("{:?}", a.io_map), format!("{:?}", b.io_map));
    assert_eq!(format!("{:?}", a.comp_regions), format!("{:?}", b.comp_regions));
    assert_eq!(format!("{:?}", a.rare_paths), format!("{:?}", b.rare_paths));
    assert_eq!(format!("{:?}", a.series), format!("{:?}", b.series));
    assert_eq!(a.coverage.to_bits(), b.coverage.to_bits());
    assert_eq!(a.edge_clusters.len() + 1, b.edge_clusters.len());
    assert!(b.edge_clusters.iter().any(|o| o.usable.is_empty() && o.rare.is_empty()));
}
