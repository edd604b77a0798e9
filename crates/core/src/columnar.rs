//! SoA columnar fragment pools: the sealed, read-only form of one
//! analysis window. The streaming server keeps fragments AoS while they
//! are mutable (the arena appends, sorts and evicts pools of compact
//! 40-byte rows, counter values and args in per-pool heaps) and
//! transposes a closing window **once**, straight out of the arena, into
//! a [`ColumnarPool`] — times, counter lanes, kinds, arg offsets,
//! partitioned into per-location lanes; a row's counter values and args
//! arrive as slices ([`CompactRow`]) and are copied as slices.
//! [`LaneView`] hands detection and diagnosis a contiguous window onto
//! them.
//!
//! A sealed pool is the single interface between *where fragments come
//! from* and *what the analysis reads*. It has two sources:
//! [`ColumnarPool::refill_from_merged`] gathers a window out of the
//! streaming arena (sorted, evicted, recycled), and
//! [`ColumnarPool::from_batches`] gathers shipped frames directly (no
//! wire, arena, sort, eviction or stage — which is what keeps the
//! one-shot reference, `vapro_vopr::reference::analyze_windows`, an
//! independent check on the streaming server; the figures detect
//! through the arena, and read lane statistics of a run's frames
//! through this one).
//! Either way a location has one identity, its label, and lanes come in
//! label order, so the two sources cannot disagree about which is which.
//!
//! [`PoolView`] is what the analysis kernels read a population through.
//! [`LaneView`] is its one implementor; the trait stays because the
//! kernels are written against it and a window over two sealed panes
//! (ROADMAP) will be the second.
//!
//! ## Memory layout
//!
//! One pool holds every fragment of a merged view in struct-of-arrays
//! columns, grouped so each location (STG vertex or edge) owns one
//! contiguous index range:
//!
//! ```text
//! ranks   : [u32]            one per fragment
//! kinds   : [FragmentKind]   one per fragment
//! starts  : [u64]            ns, one per fragment
//! ends    : [u64]            ns, one per fragment
//! sets    : [CounterSet]     one per fragment
//! counters: [f64]            active values only, ascending id order
//! coff    : [u32]            n+1 fenceposts into `counters`
//! args    : [f64]            flattened invocation args
//! aoff    : [u32]            n+1 fenceposts into `args`
//! ```
//!
//! A counter read is `counters[coff[i] + popcount(bits below id)]` —
//! O(1) via [`CounterSet::bits`]. Lane views are `(lo, hi)` ranges plus
//! a pool borrow ([`LaneView`] is `Copy`); they never own fragment data,
//! so building views allocates nothing and the zero-`Fragment`-clone
//! guarantee holds structurally.

use crate::detect::arena::ArenaView;
use crate::detect::window::Window;
use crate::fragment::{Fragment, FragmentKind};
use crate::wire::FragmentBatch;
use std::collections::BTreeMap;
use std::sync::Arc;
use vapro_pmu::{CounterDelta, CounterId, CounterSet};
use vapro_sim::VirtualTime;

/// Read-only access to one pooled fragment population, by index.
///
/// Implemented by columnar [`LaneView`]s; everything the
/// detection/diagnosis pipeline reads from a pool goes through these
/// accessors.
pub trait PoolView {
    /// Number of fragments in the pool.
    fn len(&self) -> usize;

    /// True when the pool holds no fragments.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Originating rank of fragment `i`.
    fn rank(&self, i: usize) -> usize;

    /// Category of fragment `i`.
    fn kind(&self, i: usize) -> FragmentKind;

    /// Virtual start time of fragment `i`.
    fn start(&self, i: usize) -> VirtualTime;

    /// Virtual end time of fragment `i`.
    fn end(&self, i: usize) -> VirtualTime;

    /// Elapsed virtual time of fragment `i` in ns, saturating like
    /// [`Fragment::duration_ns`].
    fn duration_ns(&self, i: usize) -> f64 {
        self.end(i).ns().saturating_sub(self.start(i).ns()) as f64
    }

    /// Widest workload vector in the pool under `proxy_counters` — the
    /// padded lane dimension for clustering.
    fn workload_dim(&self, proxy_counters: &[CounterId]) -> usize;

    /// Append fragment `i`'s workload vector, zero-padded to `dim`, to a
    /// flat lane buffer (the allocation-free twin of
    /// [`Fragment::workload_vector`]).
    fn extend_workload_lane(
        &self,
        i: usize,
        proxy_counters: &[CounterId],
        dim: usize,
        out: &mut Vec<f64>,
    );

    /// Fragment `i`'s counter delta restricted to `keep` — how each
    /// drill-down step reads a cluster member's counters.
    fn project_counters(&self, i: usize, keep: CounterSet) -> CounterDelta;

    /// Fragment `i`'s invocation arguments.
    fn args(&self, i: usize) -> &[f64];
}

/// One fragment in compact form — fixed fields plus its *active*
/// counter values and its arguments as slices: what an arena row and a
/// wire record hold, and what [`ColumnarPool::push_row`] appends.
#[derive(Debug, Clone, Copy)]
pub struct CompactRow<'a> {
    /// Originating rank.
    pub rank: u32,
    /// Fragment category.
    pub kind: FragmentKind,
    /// Virtual start time, ns.
    pub start_ns: u64,
    /// Virtual end time, ns.
    pub end_ns: u64,
    /// The counters carried.
    pub set: CounterSet,
    /// One value per member of `set`, ascending `id.index()` order.
    pub vals: &'a [f64],
    /// Invocation arguments.
    pub args: &'a [f64],
}

/// One location's contiguous index range in the columns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Lane {
    lo: u32,
    hi: u32,
}

/// SoA storage for one sealed window's fragments, lane-partitioned by
/// location. See the module docs for the column layout.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnarPool {
    ranks: Vec<u32>,
    kinds: Vec<FragmentKind>,
    starts: Vec<u64>,
    ends: Vec<u64>,
    sets: Vec<CounterSet>,
    counters: Vec<f64>,
    coff: Vec<u32>,
    args: Vec<f64>,
    aoff: Vec<u32>,
    vertices: Vec<(Arc<str>, Lane)>,
    edges: Vec<(Arc<str>, Arc<str>, Lane)>,
    /// Which of `vertices`/`edges` is currently absorbing pushes.
    open_edge: bool,
}

impl Default for ColumnarPool {
    fn default() -> Self {
        ColumnarPool::new()
    }
}

impl ColumnarPool {
    /// An empty pool.
    pub fn new() -> ColumnarPool {
        ColumnarPool {
            ranks: Vec::new(),
            kinds: Vec::new(),
            starts: Vec::new(),
            ends: Vec::new(),
            sets: Vec::new(),
            counters: Vec::new(),
            coff: vec![0],
            args: Vec::new(),
            aoff: vec![0],
            vertices: Vec::new(),
            edges: Vec::new(),
            open_edge: false,
        }
    }

    /// Drop all fragments and locations but keep every column's
    /// capacity — the scratch-reuse primitive: a recycled pool refilled
    /// window after window performs no transient allocations once the
    /// columns have grown to the high-water mark.
    pub fn clear(&mut self) {
        self.ranks.clear();
        self.kinds.clear();
        self.starts.clear();
        self.ends.clear();
        self.sets.clear();
        self.counters.clear();
        self.coff.clear();
        self.coff.push(0);
        self.args.clear();
        self.aoff.clear();
        self.aoff.push(0);
        self.vertices.clear();
        self.edges.clear();
        self.open_edge = false;
    }

    /// Total fragments held.
    pub fn len(&self) -> usize {
        self.ranks.len()
    }

    /// True when no fragment has been pushed.
    pub fn is_empty(&self) -> bool {
        self.ranks.is_empty()
    }

    /// Number of vertex locations.
    pub fn num_vertices(&self) -> usize {
        self.vertices.len()
    }

    /// Number of edge locations.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Open a new vertex lane; subsequent [`ColumnarPool::push`]es land
    /// in it until the next `begin_*`.
    pub fn begin_vertex(&mut self, label: Arc<str>) {
        let n = self.ranks.len() as u32;
        self.vertices.push((label, Lane { lo: n, hi: n }));
        self.open_edge = false;
    }

    /// Open a new edge lane.
    pub fn begin_edge(&mut self, from: Arc<str>, to: Arc<str>) {
        let n = self.ranks.len() as u32;
        self.edges.push((from, to, Lane { lo: n, hi: n }));
        self.open_edge = true;
    }

    /// Append one fragment's fields to the open lane. Field-by-field
    /// copies — `Fragment::clone` (and its clone counter) is structurally
    /// unreachable from here.
    ///
    /// # Panics
    /// When no lane has been opened.
    pub fn push(&mut self, f: &Fragment) {
        // `entries()` yields ascending `id.index()` order (CounterId::ALL
        // order), which is exactly the popcount-rank order reads assume.
        let mut vals = [0.0; CounterId::ALL.len()];
        let mut n = 0;
        for (slot, (_, v)) in vals.iter_mut().zip(f.counters.entries()) {
            *slot = v;
            n += 1;
        }
        self.push_row(CompactRow {
            rank: f.rank as u32,
            kind: f.kind,
            start_ns: f.start.ns(),
            end_ns: f.end.ns(),
            set: f.counters.set(),
            vals: &vals[..n],
            args: &f.args,
        });
    }

    /// Append one compact row to the open lane: five column pushes and
    /// two slice copies. What the arena seal calls per gathered row.
    ///
    /// # Panics
    /// When no lane has been opened.
    pub fn push_row(&mut self, row: CompactRow<'_>) {
        self.ranks.push(row.rank);
        self.kinds.push(row.kind);
        self.starts.push(row.start_ns);
        self.ends.push(row.end_ns);
        self.sets.push(row.set);
        self.counters.extend_from_slice(row.vals);
        self.coff.push(self.counters.len() as u32);
        self.args.extend_from_slice(row.args);
        self.aoff.push(self.args.len() as u32);
        let n = self.ranks.len() as u32;
        let lane = if self.open_edge {
            &mut self.edges.last_mut().expect("push before begin_edge").2
        } else {
            &mut self.vertices.last_mut().expect("push before begin_vertex").1
        };
        lane.hi = n;
    }

    /// Refill this pool from an arena selection: one lane per location
    /// with a selected fragment, locations in label order, every
    /// fragment transposed into the columns in the arena's canonical
    /// order. Reuses the pool's existing capacity (see
    /// [`ColumnarPool::clear`]), so a recycled pool sealing window after
    /// window stops allocating once its columns reach the high-water
    /// mark.
    pub fn refill_from_merged(&mut self, view: &ArenaView<'_>) {
        self.clear();
        view.gather_into(self);
    }

    /// Build a fresh pool from an arena selection.
    pub fn from_merged(view: &ArenaView<'_>) -> ColumnarPool {
        let mut pool = ColumnarPool::new();
        pool.refill_from_merged(view);
        pool
    }

    /// Gather shipped frames into a fresh pool: the fragments
    /// overlapping `window` (all of them for `None`), pooled by label —
    /// the identity a location has on the wire — with lanes in label
    /// order, batches in iteration order and each batch's fragments in
    /// group order. Batches taken rank by rank, each rank's in period
    /// order, give the arena's canonical order, so a streamed window and
    /// the same window gathered here are equal column for column.
    pub fn from_batches<'b>(
        batches: impl IntoIterator<Item = &'b FragmentBatch>,
        window: Option<Window>,
    ) -> ColumnarPool {
        let keep = |f: &&Fragment| window.is_none_or(|w| w.overlaps(f.start, f.end));
        let mut vertices: BTreeMap<&str, Vec<&Fragment>> = BTreeMap::new();
        let mut edges: BTreeMap<(&str, &str), Vec<&Fragment>> = BTreeMap::new();
        for batch in batches {
            for g in &batch.vertex_groups {
                let lane = vertices.entry(batch.label(g.label)).or_default();
                lane.extend(g.fragments.iter().filter(keep));
            }
            for g in &batch.edge_groups {
                let key = (batch.label(g.from), batch.label(g.to));
                edges.entry(key).or_default().extend(g.fragments.iter().filter(keep));
            }
        }
        let mut pool = ColumnarPool::new();
        pool.reserve(vertices.values().chain(edges.values()).map(Vec::len).sum());
        for (label, frags) in vertices.into_iter().filter(|(_, frags)| !frags.is_empty()) {
            pool.begin_vertex(Arc::from(label));
            for f in frags {
                pool.push(f);
            }
        }
        for ((from, to), frags) in edges.into_iter().filter(|(_, frags)| !frags.is_empty()) {
            pool.begin_edge(Arc::from(from), Arc::from(to));
            for f in frags {
                pool.push(f);
            }
        }
        pool
    }

    /// One unnamed lane holding `frags` in the given order, read through
    /// [`ColumnarPool::all`]: how a test or experiment puts a hand-built
    /// population in front of the kernels.
    pub fn single_lane<'f>(frags: impl IntoIterator<Item = &'f Fragment>) -> ColumnarPool {
        let frags = frags.into_iter();
        let mut pool = ColumnarPool::new();
        pool.reserve(frags.size_hint().0);
        pool.begin_vertex(Arc::from(""));
        for f in frags {
            pool.push(f);
        }
        pool
    }

    /// Room for `rows` more fragments in every per-fragment column.
    fn reserve(&mut self, rows: usize) {
        self.ranks.reserve(rows);
        self.kinds.reserve(rows);
        self.starts.reserve(rows);
        self.ends.reserve(rows);
        self.sets.reserve(rows);
        self.coff.reserve(rows);
        self.aoff.reserve(rows);
    }

    /// The `i`-th vertex location: its interned label, which a report
    /// can share instead of copying, and its lane view.
    pub fn vertex(&self, i: usize) -> (&Arc<str>, LaneView<'_>) {
        let (label, lane) = &self.vertices[i];
        (label, LaneView { pool: self, lo: lane.lo, hi: lane.hi })
    }

    /// The `i`-th edge location: its interned endpoint labels and lane
    /// view.
    pub fn edge(&self, i: usize) -> (&Arc<str>, &Arc<str>, LaneView<'_>) {
        let (from, to, lane) = &self.edges[i];
        (from, to, LaneView { pool: self, lo: lane.lo, hi: lane.hi })
    }

    /// One lane view spanning every fragment, location-agnostic.
    pub fn all(&self) -> LaneView<'_> {
        LaneView { pool: self, lo: 0, hi: self.ranks.len() as u32 }
    }
}

/// A borrowed contiguous window onto a [`ColumnarPool`]'s columns — one
/// location's fragment population. `Copy`, pointer-sized-ish, and
/// allocation-free to construct; its lifetime is tied to the pool, which
/// must outlive every analysis pass run over it (the pipeline borrows
/// views for the duration of one detection/diagnosis call and never
/// stores them).
#[derive(Debug, Clone, Copy)]
pub struct LaneView<'a> {
    pool: &'a ColumnarPool,
    lo: u32,
    hi: u32,
}

impl<'a> LaneView<'a> {
    #[inline]
    fn at(&self, i: usize) -> usize {
        debug_assert!(self.lo as usize + i < self.hi as usize + 1);
        self.lo as usize + i
    }

    fn rows(&self) -> std::ops::Range<usize> {
        self.lo as usize..self.hi as usize
    }

    /// The lane's rank column, for a scan without per-row accessors.
    pub(crate) fn ranks(&self) -> &'a [u32] {
        &self.pool.ranks[self.rows()]
    }

    /// The lane's kind column.
    pub(crate) fn kinds(&self) -> &'a [FragmentKind] {
        &self.pool.kinds[self.rows()]
    }

    /// The lane's start column, ns.
    pub(crate) fn starts(&self) -> &'a [u64] {
        &self.pool.starts[self.rows()]
    }

    /// The lane's end column, ns.
    pub(crate) fn ends(&self) -> &'a [u64] {
        &self.pool.ends[self.rows()]
    }

    /// One active counter value, or zero when `id` is outside the
    /// fragment's set: O(1) via the popcount of the mask bits below it.
    #[inline]
    fn counter_or_zero(&self, j: usize, id: CounterId) -> f64 {
        let set = self.pool.sets[j];
        if !set.contains(id) {
            return 0.0;
        }
        let below = set.bits() & ((1u32 << id.index()) - 1);
        self.pool.counters[self.pool.coff[j] as usize + below.count_ones() as usize]
    }
}

impl PoolView for LaneView<'_> {
    fn len(&self) -> usize {
        (self.hi - self.lo) as usize
    }

    #[inline]
    fn rank(&self, i: usize) -> usize {
        self.pool.ranks[self.at(i)] as usize
    }

    #[inline]
    fn kind(&self, i: usize) -> FragmentKind {
        self.pool.kinds[self.at(i)]
    }

    #[inline]
    fn start(&self, i: usize) -> VirtualTime {
        VirtualTime::from_ns(self.pool.starts[self.at(i)])
    }

    #[inline]
    fn end(&self, i: usize) -> VirtualTime {
        VirtualTime::from_ns(self.pool.ends[self.at(i)])
    }

    #[inline]
    fn duration_ns(&self, i: usize) -> f64 {
        let j = self.at(i);
        self.pool.ends[j].saturating_sub(self.pool.starts[j]) as f64
    }

    fn workload_dim(&self, proxy_counters: &[CounterId]) -> usize {
        let (lo, hi) = (self.lo as usize, self.hi as usize);
        let mut dim = 0;
        for j in lo..hi {
            dim = dim.max(match self.pool.kinds[j] {
                FragmentKind::Computation => proxy_counters.len(),
                _ => (self.pool.aoff[j + 1] - self.pool.aoff[j]) as usize,
            });
        }
        dim
    }

    fn extend_workload_lane(
        &self,
        i: usize,
        proxy_counters: &[CounterId],
        dim: usize,
        out: &mut Vec<f64>,
    ) {
        let j = self.at(i);
        let before = out.len();
        match self.pool.kinds[j] {
            FragmentKind::Computation => {
                out.extend(proxy_counters.iter().map(|&id| self.counter_or_zero(j, id)));
            }
            _ => out.extend_from_slice(self.args(i)),
        }
        out.resize(before + dim, 0.0);
    }

    fn project_counters(&self, i: usize, keep: CounterSet) -> CounterDelta {
        let j = self.at(i);
        let (held, base) = (self.pool.sets[j].bits(), self.pool.coff[j] as usize);
        let mut out = CounterDelta::default();
        // Only the kept members of the fragment's set, lowest id first;
        // each value sits at the popcount of the set bits below its id.
        let mut kept = held & keep.bits();
        while kept != 0 {
            let id = CounterId::ALL[kept.trailing_zeros() as usize];
            let below = held & ((1u32 << id.index()) - 1);
            out.put(id, self.pool.counters[base + below.count_ones() as usize]);
            kept &= kept - 1;
        }
        out
    }

    fn args(&self, i: usize) -> &[f64] {
        let j = self.at(i);
        &self.pool.args[self.pool.aoff[j] as usize..self.pool.aoff[j + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::DEFAULT_PROXY;
    use vapro_pmu::CounterDelta;

    #[test]
    fn clear_keeps_capacity_and_resets_state() {
        let mut counters = CounterDelta::default();
        counters.put(CounterId::TotIns, 1000.0);
        counters.put(CounterId::Stores, 500.0);
        let frag = Fragment {
            rank: 0,
            kind: FragmentKind::Communication,
            start: VirtualTime::from_ns(120),
            end: VirtualTime::from_ns(220),
            counters,
            args: vec![4096.0, 3.0],
        };
        let mut pool = ColumnarPool::new();
        pool.begin_edge("a".into(), "b".into());
        pool.push(&frag);
        pool.begin_vertex("a".into());
        pool.push(&frag);
        let cap = pool.counters.capacity();
        pool.clear();
        assert!(pool.is_empty());
        assert_eq!(pool.num_vertices() + pool.num_edges(), 0);
        assert_eq!(pool.counters.capacity(), cap);
        // Refill works after clear.
        pool.begin_vertex("a".into());
        pool.push(&frag);
        assert_eq!(pool.vertex(0).1.len(), 1);
    }

    #[test]
    fn empty_lanes_are_well_formed() {
        let mut pool = ColumnarPool::new();
        pool.begin_vertex("a".into());
        pool.begin_edge("a".into(), "b".into());
        let (_, v) = pool.vertex(0);
        let (_, _, e) = pool.edge(0);
        assert_eq!(v.len(), 0);
        assert!(v.is_empty());
        assert_eq!(e.len(), 0);
        assert_eq!(v.workload_dim(&DEFAULT_PROXY), 0);
    }
}
