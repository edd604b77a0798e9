//! Property tests of the columnar core: the [`ColumnarPool`] the ingest
//! arena seals must equal, column for column, a pool built here from a
//! test-local restatement of the gather — the batches' fragments grouped
//! by label in a `BTreeMap`, each group put into a restated canonical
//! order, groups without fragments skipped. Agreement checks the arena's
//! location order, its fragment order and its empty-location skipping
//! against a second statement of each; the kernels read nothing but the
//! pool, so equal pools are equal analyses. Populations include empty
//! groups, single-fragment locations and colliding timestamps; a
//! dedicated case checks that explicitly empty lanes are inert.
//!
//! The arena has two feeds — rows appended straight from a validated
//! frame's bytes (`push_encoded` / `push_frame`) and rows copied out of
//! an owned batch (`push_batch`) — and the differential property holds
//! them to the same sealed pool, whatever order the frames arrive in and
//! whether or not the pools were sorted before the seal.
//!
//! The window's flat `ClusterTable` is held to the owned per-lane
//! `ClusterOutcome` the same way: every lane view equals what
//! `cluster_pool` returns for that lane, bit for bit, and both equal the
//! exhaustive `cluster_vectors_unpruned` reference.

use proptest::prelude::*;
use proptest::prop::collection::vec;
use std::collections::BTreeMap;
use vapro_core::fragment::{Fragment, FragmentKind};
use vapro_core::detect::window::Window;
use vapro_core::wire::{EdgeGroup, FragmentBatch, FrameView, VertexGroup};
use vapro_core::{
    cluster_pool, cluster_vectors_unpruned, detect_columnar, Cluster, ClusterRef, ClusterTable,
    ColumnarPool, IngestArena, PoolView, VaproConfig, WindowedIngestor,
};
use vapro_pmu::{CounterDelta, CounterId, CounterSet};
use vapro_sim::VirtualTime;

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
    batch_strategy_up_to(12)
}

/// [`batch_strategy`] with groups of up to `group_max - 1` fragments.
/// Fragment ranks are drawn independently of the batch's header rank.
fn batch_strategy_up_to(group_max: usize) -> impl Strategy<Value = FragmentBatch> {
    let labels = LABELS;
    (
        0usize..NRANKS,
        vec((0u32..3, vec(fragment_strategy(), 0..group_max)), 0..3),
        vec((0u32..3, 0u32..3, vec(fragment_strategy(), 0..group_max)), 0..3),
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

/// The gather, restated: fragments grouped by label (`BTreeMap`, so
/// locations come out in label order), each group in canonical order,
/// groups without fragments absent, vertex lanes before edge lanes.
fn restated_gather(batches: &[FragmentBatch]) -> ColumnarPool {
    let mut vertices: BTreeMap<&str, Vec<&Fragment>> = BTreeMap::new();
    let mut edges: BTreeMap<(&str, &str), Vec<&Fragment>> = BTreeMap::new();
    for b in batches {
        for g in b.vertex_groups.iter().filter(|g| !g.fragments.is_empty()) {
            vertices.entry(b.label(g.label)).or_default().extend(&g.fragments);
        }
        for g in b.edge_groups.iter().filter(|g| !g.fragments.is_empty()) {
            edges.entry((b.label(g.from), b.label(g.to))).or_default().extend(&g.fragments);
        }
    }
    let mut pool = ColumnarPool::new();
    for (label, mut frags) in vertices {
        frags.sort_by_key(|f| canonical_key(f));
        pool.begin_vertex(label.into());
        frags.into_iter().for_each(|f| pool.push(f));
    }
    for ((from, to), mut frags) in edges {
        frags.sort_by_key(|f| canonical_key(f));
        pool.begin_edge(from.into(), to.into());
        frags.into_iter().for_each(|f| pool.push(f));
    }
    pool
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The arena-sealed pool is the restated gather, column for column
    /// (labels, lane bounds, every per-fragment column).
    #[test]
    fn arena_seal_equals_the_restated_gather(batches in vec(batch_strategy(), 1..4)) {
        let sealed = ColumnarPool::from_merged(&pooled(&batches).full_view());
        prop_assert_eq!(sealed, restated_gather(&batches));
    }

    /// The same frames through the byte path (`push_encoded`: parse →
    /// admit → rows appended from the frame's columns; and `push_frame`
    /// on a bare arena) and through the materialising path
    /// (`push_batch(FragmentBatch::decode(..))`), each in its own arrival
    /// order, seal equal pools column for column — the whole arena and
    /// every half-overlapped window of it — and equal to the restated
    /// gather. One arena is sorted before sealing, the others are sealed
    /// with whatever unsorted tails arrival left them. Timestamp ties
    /// with different counter sets and args, fragment ranks that differ
    /// from the header's, empty groups, unreferenced labels and groups
    /// of dozens of fragments all come out of the strategy.
    #[test]
    fn byte_fed_and_batch_fed_arenas_seal_the_same_pools(
        batches in vec(batch_strategy_up_to(48), 1..5),
        arrival in vec(0u64..1 << 32, 5..6),
    ) {
        let frames: Vec<Vec<u8>> =
            (1u64..).zip(&batches).map(|(k, b)| b.clone().with_seq(k).encode()).collect();
        let mut shuffled: Vec<usize> = (0..frames.len()).collect();
        shuffled.sort_by_key(|&i| arrival[i]);

        // Rank NRANKS never ships, so no window closes and nothing is
        // evicted: the ingestor's arena holds every admitted row.
        let mut ingestor = WindowedIngestor::new(NRANKS + 1, BINS, VaproConfig::default());
        for frame in &frames {
            let reports = ingestor.push_encoded(frame).expect("own frame");
            prop_assert!(reports.is_empty());
        }
        let mut batch_fed = IngestArena::new();
        for &i in &shuffled {
            batch_fed.push_batch(FragmentBatch::decode(&frames[i]).expect("own frame"));
        }
        let mut byte_fed = IngestArena::new();
        for frame in frames.iter().rev() {
            byte_fed.push_frame(&FrameView::parse(frame).expect("own frame"));
        }
        byte_fed.ensure_sorted();

        let arenas = [ingestor.arena(), &batch_fed, &byte_fed];
        for arena in arenas {
            prop_assert_eq!(arena.len(), batch_fed.len());
            prop_assert_eq!(arena.resident_bytes(), batch_fed.resident_bytes());
            prop_assert_eq!(
                ColumnarPool::from_merged(&arena.full_view()),
                restated_gather(&batches)
            );
        }
        for k in 0..9u64 {
            let w = Window {
                start: vapro_sim::VirtualTime::from_ns(k * 5_000_000),
                end: vapro_sim::VirtualTime::from_ns(k * 5_000_000 + 10_000_000),
            };
            let want = ColumnarPool::from_merged(&batch_fed.window_view(w));
            prop_assert_eq!(&ColumnarPool::from_merged(&ingestor.arena().window_view(w)), &want);
            prop_assert_eq!(&ColumnarPool::from_merged(&byte_fed.window_view(w)), &want);
        }
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
        pool.begin_edge("a".into(), "b".into());
        for f in &frags[..split] {
            pool.push(f);
        }
        pool.begin_vertex("a".into());
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
            prop_assert_eq!(lane.len(), frags.len());
            prop_assert_eq!(lane.is_empty(), frags.is_empty());
            let dim = lane.workload_dim(&proxy);
            let widest = frags.iter().map(|f| f.workload_vector(&proxy).len()).max();
            prop_assert_eq!(dim, widest.unwrap_or(0));
            for (i, f) in frags.iter().enumerate() {
                prop_assert_eq!(lane.rank(i), f.rank);
                prop_assert_eq!(lane.kind(i), f.kind);
                prop_assert_eq!(lane.start(i), f.start);
                prop_assert_eq!(lane.end(i), f.end);
                prop_assert_eq!(lane.duration_ns(i).to_bits(), f.duration_ns().to_bits());
                prop_assert_eq!(lane.args(i), &f.args[..]);
                prop_assert_eq!(lane.project_counters(i, keep), f.counters.project(keep));
                prop_assert_eq!(lane.project_counters(i, CounterSet::all()), f.counters.clone());
                let mut got = Vec::new();
                lane.extend_workload_lane(i, &proxy, dim, &mut got);
                let mut want = f.workload_vector(&proxy);
                want.resize(dim, 0.0);
                prop_assert_eq!(
                    got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
                );
            }
        }
    }
}

/// A wire frame counts a fragment's args in a `u16`; an owned batch is
/// under no such limit, and `push_batch` must not borrow the wire's.
#[test]
fn more_args_than_a_wire_count_holds_survive_the_arena() {
    let frag = |start: u64, args: Vec<f64>| Fragment {
        rank: 0,
        kind: FragmentKind::Communication,
        start: VirtualTime::from_ns(start),
        end: VirtualTime::from_ns(start + 10),
        counters: CounterDelta::default(),
        args,
    };
    let wide: Vec<f64> = (0..70_000).map(f64::from).collect();
    let batch = FragmentBatch {
        rank: 0,
        seq: 0,
        tenant_id: 0,
        job_id: 0,
        window_start_ns: 0,
        window_end_ns: 1_000,
        labels: vec!["gather".into()],
        vertex_groups: vec![VertexGroup {
            label: 0,
            fragments: vec![frag(30, vec![7.0]), frag(10, wide.clone()), frag(20, vec![])],
        }],
        edge_groups: Vec::new(),
    };
    let batches = [batch];
    let sealed = ColumnarPool::from_merged(&pooled(&batches).full_view());
    assert_eq!(sealed, restated_gather(&batches));
    let lane = sealed.vertex(0).1;
    assert_eq!((lane.args(0), lane.args(1), lane.args(2)), (&wide[..], &[][..], &[7.0][..]));
}

/// A workload value from a small alphabet, so lanes actually cluster:
/// two values within the 5 % threshold of each other, one far away,
/// zero, NaN (a NaN norm sorts last and absorbs nothing) and the odd
/// arbitrary value.
fn workload_value() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(1000.0),
        Just(1010.0),
        Just(5000.0),
        Just(0.0),
        Just(f64::NAN),
        finite(),
    ]
}

/// A lane's fragment: any kind (computation rows take the proxy
/// counter, the others their argument vector — of ragged length, so a
/// mixed lane pads to its widest row).
fn lane_fragment() -> impl Strategy<Value = Fragment> {
    (kind_strategy(), 0usize..NRANKS, 0u64..40, workload_value(), vec(workload_value(), 0..4))
        .prop_map(|(kind, rank, start, ins, args)| {
            let mut counters = CounterDelta::default();
            counters.put(CounterId::TotIns, ins);
            Fragment {
                rank,
                kind,
                start: VirtualTime::from_ns(start * 1_000_000),
                end: VirtualTime::from_ns(start * 1_000_000 + 500_000),
                counters,
                args,
            }
        })
}

/// What a cluster is compared by: members and their order, seed and
/// seed norm by bit pattern (a NaN seed equals itself here).
type ClusterBits = (Vec<u32>, Vec<u64>, u64);

fn bits(members: &[u32], seed: &[f64], seed_norm: f64) -> ClusterBits {
    (members.to_vec(), seed.iter().map(|x| x.to_bits()).collect(), seed_norm.to_bits())
}

fn view_bits<'a>(clusters: impl Iterator<Item = ClusterRef<'a>>) -> Vec<ClusterBits> {
    clusters.map(|c| bits(c.members, c.seed, c.seed_norm)).collect()
}

fn owned_bits(clusters: &[Cluster]) -> Vec<ClusterBits> {
    clusters.iter().map(|c| bits(&c.members, &c.seed, c.seed_norm)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Every lane view of a many-lane [`ClusterTable`] is that lane's
    /// owned [`cluster_pool`] outcome — same clusters in the same order
    /// on each side of the usable/rare split — whatever lanes precede
    /// it (empty ones, lanes of another workload dimension). The
    /// exhaustive scan over the lane's materialised workload vectors is
    /// the reference for both.
    #[test]
    fn table_lane_views_equal_owned_outcomes(
        lanes in vec(vec(lane_fragment(), 0..24), 0..6),
        min_cluster_size in 1usize..6,
    ) {
        let cfg = VaproConfig::default();
        let (proxy, threshold) = (&cfg.proxy_counters, cfg.cluster_threshold);
        let mut pool = ColumnarPool::new();
        for (l, lane) in lanes.iter().enumerate() {
            pool.begin_edge(format!("site{l}").into(), "next".into());
            lane.iter().for_each(|f| pool.push(f));
        }
        prop_assert_eq!(pool.num_edges(), lanes.len());

        let mut table = ClusterTable::new(min_cluster_size);
        for l in 0..lanes.len() {
            table.push_lane(&pool.edge(l).2, proxy, threshold);
        }
        prop_assert_eq!(table.num_lanes(), lanes.len());

        for (l, frags) in lanes.iter().enumerate() {
            let lane = pool.edge(l).2;
            let (view, owned) = (table.lane(l), cluster_pool(&lane, proxy, threshold, min_cluster_size));
            prop_assert_eq!(view.is_empty(), frags.is_empty());
            prop_assert_eq!(view.len(), owned.usable.len() + owned.rare.len());
            prop_assert_eq!(view_bits(view.usable()), owned_bits(&owned.usable));
            prop_assert_eq!(view_bits(view.rare()), owned_bits(&owned.rare));

            let dim = lane.workload_dim(proxy);
            let vectors: Vec<Vec<f64>> = (0..lane.len())
                .map(|i| {
                    let mut row = Vec::new();
                    lane.extend_workload_lane(i, proxy, dim, &mut row);
                    row
                })
                .collect();
            let reference = cluster_vectors_unpruned(&vectors, threshold, min_cluster_size);
            prop_assert_eq!(view_bits(view.usable()), owned_bits(&reference.usable));
            prop_assert_eq!(view_bits(view.rare()), owned_bits(&reference.rare));
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

    let mut dense = ColumnarPool::new();
    dense.begin_edge("a".into(), "b".into());
    for i in 0..8u64 {
        dense.push(&frag((i % 2) as usize, i * 1_000_000, 500_000 + (i % 3) * 1_000, 1000.0));
    }
    dense.begin_vertex("solo".into());
    dense.push(&frag(1, 2_000_000, 300_000, 64.0)); // single-fragment location

    let mut sparse = ColumnarPool::new();
    sparse.begin_vertex("ghost".into()); // empty vertex lane
    sparse.begin_edge("a".into(), "b".into());
    for i in 0..8u64 {
        sparse.push(&frag((i % 2) as usize, i * 1_000_000, 500_000 + (i % 3) * 1_000, 1000.0));
    }
    sparse.begin_edge("x".into(), "y".into()); // empty edge lane
    sparse.begin_vertex("solo".into());
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
    assert_eq!(b.edge_clusters.num_lanes(), sparse.num_edges());
    assert_eq!(a.edge_clusters.num_lanes() + 1, b.edge_clusters.num_lanes());
    // The empty edge lane holds its position, and the lane after the
    // gap would read the dense pool's clusters if it were not counted.
    assert!(b.edge_clusters.lane(1).is_empty());
    assert!(a.edge_clusters.lane(0).iter().eq(b.edge_clusters.lane(0).iter()));
}
