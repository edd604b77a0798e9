//! Server-side fragment storage for the streaming pipeline: storage
//! order, ranged scan, eviction.
//!
//! [`IngestArena`] keeps each shipped fragment as one compact `Row` in
//! a per-location pool: the fixed fields inline (40 bytes), the active
//! counter values and the invocation arguments in two per-pool `f64`
//! heaps — what the wire ships, nothing inflated. Rows are appended
//! straight from a validated frame's columns
//! ([`IngestArena::push_frame`]; no `Fragment` is built on that path) or
//! copied out of an owned batch ([`IngestArena::push_batch`]) by the same
//! routine, and stay AoS while they are mutable: appending, sorting and
//! evicting move 40-byte rows. A closing window is sealed in one hop:
//! [`IngestArena::window_view`] is a free [`ArenaView`] handle, and
//! [`ColumnarPool::refill_from_merged`] gathers the overlapping rows out
//! of the sorted pools into a recycled columnar snapshot by slice copies
//! — SoA where it is sealed.
//!
//! A location (a state, or a pair of states) is given a dense id when
//! its first fragment arrives: a frame group finds its pool by key id —
//! the vertex slot of its label's key, or the B-tree of edges leaving
//! it — never by hashing a pair of ids a sender chose, and the
//! label-ordered list of locations is updated at birth, so a seal walks
//! it instead of collecting and sorting the pools. A location the
//! watermark drains is forgotten: it leaves the order and its key's
//! slot, and its id — with its pool's buffers — goes to the next
//! location born. Pools, ids and order entries are therefore bounded by
//! the live locations, and a seal, an eviction pass or a sort walks
//! those, not every location the stream ever named.

use crate::columnar::{ColumnarPool, CompactRow};
use crate::detect::window::Window;
use crate::fragment::{Fragment, FragmentKind};
use crate::intern::Sym;
use crate::wire::{FragmentBatch, FrameView};
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use vapro_pmu::CounterSet;
use vapro_sim::VirtualTime;

/// One stored fragment. Its `set.count_ones()` counter values start at
/// `vals_off` in the owning pool's `vals` heap (ascending counter index,
/// as on the wire), its `nargs` arguments at `args_off` in `args`.
#[derive(Debug, Clone, Copy)]
struct Row {
    start: u64,
    end: u64,
    rank: u32,
    /// [`CounterSet`] bitmask of the counters carried.
    set: u32,
    vals_off: u32,
    args_off: u32,
    nargs: u32,
    kind: FragmentKind,
}

/// Resident footprint of one row: the inline struct plus 8 bytes per
/// active counter value and per argument — what the pool's three
/// buffers hold for it (allocator slack is not chased). Absorb and evict
/// use this one formula, so the resident gauge is exact relative to
/// itself.
fn row_resident_bytes(r: &Row) -> u64 {
    let payload = (r.set.count_ones() as u64).saturating_add(r.nargs as u64);
    resident_bytes(1, payload)
}

/// Resident footprint of `rows` rows holding `payload` counter values
/// and args between them.
fn resident_bytes(rows: u64, payload: u64) -> u64 {
    let inline = rows.saturating_mul(std::mem::size_of::<Row>() as u64);
    inline.saturating_add(payload.saturating_mul(8))
}

/// What absorbing every row of `frame` adds to an arena's resident
/// bytes: [`row_resident_bytes`] summed over its rows.
pub fn frame_resident_bytes(frame: &FrameView<'_>) -> u64 {
    resident_bytes(frame.len() as u64, frame.expanded_values() as u64)
}

/// One fragment on its way into a pool, from either source: the fixed
/// fields, and the two payloads as iterators the pool's heaps extend
/// from (`vals` yields one value per bit of `set`).
struct Incoming<V, A> {
    rank: u32,
    kind: FragmentKind,
    start: u64,
    end: u64,
    set: u32,
    vals: V,
    args: A,
}

/// An owned fragment's fields, on their way into a pool.
fn incoming(
    f: &Fragment,
) -> Incoming<impl Iterator<Item = f64> + '_, impl ExactSizeIterator<Item = f64> + '_> {
    Incoming {
        // Ranks are `u32` on the wire and in the sealed pool.
        rank: f.rank as u32,
        kind: f.kind,
        start: f.start.ns(),
        end: f.end.ns(),
        set: f.counters.set().bits(),
        vals: f.counters.entries().map(|(_, v)| v),
        args: f.args.iter().copied(),
    }
}

/// One arena pool plus its incremental-sort watermark: the prefix
/// `rows[..sorted_len]` is known to be in [`ArenaPool::row_order`].
/// Batches append to the tail; [`IngestArena::ensure_sorted`] brings the
/// whole pool back into order.
#[derive(Debug, Default)]
struct ArenaPool {
    rows: Vec<Row>,
    /// Active counter values of every row, in append order.
    vals: Vec<f64>,
    /// Invocation arguments of every row, in append order.
    args: Vec<f64>,
    sorted_len: usize,
    /// Largest fragment duration this pool has ever held, ns. Monotone
    /// (eviction never lowers it — a stale bound only widens the ranged
    /// scan, never narrows it), which is what makes the O(window) scan
    /// below safe: a fragment overlapping `[ws, we)` must start after
    /// `ws - max_dur_ns`, so the scan can skip everything earlier.
    max_dur_ns: u64,
}

/// The `n` values starting at `off` in a pool heap; empty for a range
/// the heap does not hold (no row ever has one).
fn heap_slice(heap: &[f64], off: u32, n: u32) -> &[f64] {
    let off = off as usize;
    heap.get(off..off.saturating_add(n as usize)).unwrap_or(&[])
}

impl ArenaPool {
    fn vals_of(&self, r: &Row) -> &[f64] {
        heap_slice(&self.vals, r.vals_off, r.set.count_ones())
    }

    fn args_of(&self, r: &Row) -> &[f64] {
        heap_slice(&self.args, r.args_off, r.nargs)
    }

    /// Canonical in-pool order: (rank, time) first, then fragment
    /// content (kind, counters, args) to break ties among identical-
    /// timestamp fragments — so pool order never depends on batch
    /// arrival order, even when timestamps collide. The counter
    /// tiebreak is lexicographic over `(counter index, value bits)`
    /// pairs, not "set mask, then values": a value that differs at an
    /// early counter decides before a later counter one side lacks.
    /// Where (rank, time) is unique — every run's frames the one-shot
    /// path consumes — the order equals what
    /// [`ColumnarPool::from_batches`] produces, which is what makes the
    /// incremental reports bit-identical to the one-shot windowed
    /// analysis.
    fn row_order(a: &Row, b: &Row, vals: &[f64], args: &[f64]) -> Ordering {
        // Ties are rare, so the content comparison stays lazy.
        let counters = |r: &Row| {
            let mut unseen = r.set;
            heap_slice(vals, r.vals_off, r.set.count_ones()).iter().map(move |v| {
                let index = unseen.trailing_zeros();
                unseen &= unseen.wrapping_sub(1);
                (index, v.to_bits())
            })
        };
        let arg_bits = |r: &Row| heap_slice(args, r.args_off, r.nargs).iter().map(|x| x.to_bits());
        (a.rank, a.start, a.end, a.kind as u8)
            .cmp(&(b.rank, b.start, b.end, b.kind as u8))
            .then_with(|| counters(a).cmp(counters(b)))
            .then_with(|| arg_bits(a).cmp(arg_bits(b)))
    }

    /// Append one fragment to the tail; returns its resident bytes, or
    /// `None` (nothing appended) when a heap would outgrow the `u32`
    /// offsets rows address it with — 32 GiB in one location, which
    /// eviction and the admission caps rule out long before. Bounding
    /// the heaps' *ends* is what lets compaction re-offset survivors
    /// without a check of its own.
    fn append<V, A>(&mut self, f: Incoming<V, A>) -> Option<u64>
    where
        V: Iterator<Item = f64>,
        A: ExactSizeIterator<Item = f64>,
    {
        let (nvals, nargs) = (f.set.count_ones() as usize, f.args.len());
        u32::try_from(self.vals.len().checked_add(nvals)?).ok()?;
        u32::try_from(self.args.len().checked_add(nargs)?).ok()?;
        let row = Row {
            start: f.start,
            end: f.end,
            rank: f.rank,
            set: f.set,
            // Lossless: each heap's end fits `u32`, so its start does,
            // and so does the arg count between them.
            vals_off: self.vals.len() as u32,
            args_off: self.args.len() as u32,
            nargs: nargs as u32,
            kind: f.kind,
        };
        self.vals.reserve(nvals);
        self.vals.extend(f.vals);
        self.args.extend(f.args);
        self.rows.push(row);
        self.max_dur_ns = self.max_dur_ns.max(f.end.saturating_sub(f.start));
        Some(row_resident_bytes(&row))
    }

    /// Drop every row ending at or before `horizon_ns`; returns how many
    /// went and their resident bytes. Survivors keep their relative
    /// order, so the kept part of the sorted prefix stays sorted and the
    /// watermark shrinks to exactly that count. A pool that lost some
    /// rows but not all copies the survivors' payloads, in row order,
    /// into `spare`, keeps that heap pair and leaves its old one behind
    /// as the next spare: the heaps hold live values only, and no buffer
    /// is allocated or freed in steady state.
    fn evict_before(&mut self, horizon_ns: u64, spare: &mut (Vec<f64>, Vec<f64>)) -> (usize, u64) {
        let ArenaPool { rows, vals, args, sorted_len, .. } = self;
        let (before, mut seen, mut kept_sorted, mut bytes) = (rows.len(), 0usize, 0usize, 0u64);
        rows.retain(|r| {
            let keep = r.end > horizon_ns;
            if keep {
                kept_sorted += usize::from(seen < *sorted_len);
            } else {
                bytes = bytes.saturating_add(row_resident_bytes(r));
            }
            seen += 1;
            keep
        });
        *sorted_len = kept_sorted;
        let evicted = before.saturating_sub(rows.len());
        if evicted > 0 && !rows.is_empty() {
            let (spare_vals, spare_args) = spare;
            spare_vals.clear();
            spare_args.clear();
            for r in rows.iter_mut() {
                // `append` keeps both heaps within `u32`, and the
                // survivors' payloads are a subset of them.
                let offsets = (spare_vals.len() as u32, spare_args.len() as u32);
                spare_vals.extend_from_slice(heap_slice(vals, r.vals_off, r.set.count_ones()));
                spare_args.extend_from_slice(heap_slice(args, r.args_off, r.nargs));
                (r.vals_off, r.args_off) = offsets;
            }
            std::mem::swap(vals, spare_vals);
            std::mem::swap(args, spare_args);
        }
        (evicted, bytes)
    }

    /// Feed `visit` the rows overlapping `window` (all of them for
    /// `None`), in [`ArenaPool::row_order`].
    ///
    /// A sorted pool — what every window close sees, since the ingestor
    /// runs [`IngestArena::ensure_sorted`] before it seals — is read in
    /// one forward walk that touches O(ranks·log n + rows-in-window)
    /// rows instead of filtering the whole pool, which bounds a
    /// recovering straggler's backlog to O(window) per close. The order
    /// (rank first, then start time) makes each rank's candidates one
    /// contiguous stretch, and the walk decides at each row it lands on:
    ///
    /// * `start < w.start − max_dur_ns`: no row of this rank up to the
    ///   stretch can overlap (its `end ≤ start + max_dur_ns ≤ w.start`),
    ///   so the walk gallops past them;
    /// * `start ≥ w.end`: neither can any later row of this rank, so it
    ///   gallops to the next rank;
    /// * otherwise the row is a candidate, emitted if `end > w.start`,
    ///   and the walk steps one row.
    ///
    /// That is precisely the set — and, because the walk goes in pool
    /// order, precisely the order — a full `filter(overlaps)` pass
    /// produces. In steady state each `(location, rank)` run holds one
    /// resident row: searching a run for its cuts costs more than
    /// looking at the row, which is all the walk does there.
    ///
    /// A pool with an unsorted tail (direct arena use without
    /// `ensure_sorted`) is filtered and sorted here instead; which of
    /// the two ran is unobservable.
    fn window_overlaps(&self, window: Option<Window>, mut visit: impl FnMut(&Row)) {
        let rows = self.rows.as_slice();
        let overlaps = |r: &Row| {
            window.is_none_or(|w| w.overlaps(VirtualTime::from_ns(r.start), VirtualTime::from_ns(r.end)))
        };
        if self.sorted_len != rows.len() {
            let mut kept: Vec<&Row> = rows.iter().filter(|r| overlaps(r)).collect();
            kept.sort_by(|a, b| Self::row_order(a, b, &self.vals, &self.args));
            kept.into_iter().for_each(visit);
            return;
        }
        let Some(w) = window else {
            rows.iter().for_each(visit);
            return;
        };
        let ws = w.start.ns();
        let we = w.end.ns();
        let earliest_start = ws.saturating_sub(self.max_dur_ns);
        let mut rest = rows;
        while let Some(r) = rest.first() {
            let rank = r.rank;
            let skip = if r.start < earliest_start {
                gallop(rest, |x| x.rank == rank && x.start < earliest_start)
            } else if r.start >= we {
                gallop(rest, |x| x.rank == rank)
            } else {
                if r.end > ws {
                    visit(r);
                }
                1
            };
            rest = rest.get(skip..).unwrap_or(&[]);
        }
    }
}

/// The length of the prefix of `items` on which `pred` holds (`pred`
/// must hold on a prefix and nowhere after it): probe indices 0, 1, 3,
/// 7, … until one fails, then bisect the last doubling. A prefix of
/// length k costs O(log k) calls, however long `items` is.
fn gallop<T>(items: &[T], mut pred: impl FnMut(&T) -> bool) -> usize {
    let (mut known, mut probe) = (0usize, 0usize);
    while let Some(x) = items.get(probe) {
        if !pred(x) {
            let unknown = items.get(known..probe).unwrap_or(&[]);
            return known.saturating_add(unknown.partition_point(&mut pred));
        }
        known = probe.saturating_add(1);
        probe = probe.saturating_mul(2).saturating_add(1);
    }
    let unknown = items.get(known..).unwrap_or(&[]);
    known.saturating_add(unknown.partition_point(pred))
}

/// The live locations one arena key heads: the vertex of that state and
/// the edges leaving it, by location id. Edges are a B-tree keyed by the
/// key id they enter: a lookup costs O(log d) integer comparisons for a
/// key with d out-edges (one or two in an SPMD loop), whatever ids a
/// sender picks, and no hash of sender-influenced ids is computed.
#[derive(Debug, Default)]
struct KeyLocations {
    vertex: Option<usize>,
    edges: BTreeMap<usize, usize>,
}

/// Server-side fragment storage: each shipped frame's rows appended
/// **once** into per-location pools. Locations are keyed by state (for
/// invocation pools) or state pair (for computation pools); state
/// identity is the label from the frame's dictionary, so labels
/// containing `" -> "` are handled like any other. The arena owns its
/// labels: they are freed with it, and no two arenas share a table or a
/// lock.
#[derive(Debug, Default)]
pub struct IngestArena {
    /// Arena state labels; key ids index into this.
    keys: Vec<Arc<str>>,
    /// Label → key id. Labels are the one thing a sender names freely,
    /// so this is the one hashed lookup, behind std's keyed,
    /// flooding-resistant hasher.
    key_ids: HashMap<Arc<str>, usize>,
    /// Per key id (parallel to `keys`): the locations that key heads.
    key_locations: Vec<KeyLocations>,
    /// Every location's pool, by location id. A freed id's pool is empty
    /// and keeps its buffers' capacity for the location that reuses it.
    pools: Vec<ArenaPool>,
    /// Per location id (parallel to `pools`): its key, and the key its
    /// edge enters (`None` for a vertex) — where eviction finds it to
    /// forget it.
    homes: Vec<(usize, Option<usize>)>,
    /// Ids of drained locations, handed to the next locations born: the
    /// arena-level twin of the ingestor's columnar scratch recycling.
    free_ids: Vec<usize>,
    /// Vertex location ids in label order.
    vertex_order: BTreeMap<Arc<str>, usize>,
    /// Edge location ids in (from, to) label order.
    edge_order: BTreeMap<(Arc<str>, Arc<str>), usize>,
    fragments: usize,
    max_end_ns: u64,
    /// The heap pair an evicting pool compacts its survivors' payloads
    /// into; it then keeps them and leaves its old pair here for the
    /// next pool.
    spare_heaps: (Vec<f64>, Vec<f64>),
    /// `ensure_sorted`'s merge buffer: a pool's appended tail, sorted,
    /// while it is merged into the sorted prefix.
    merge_rows: Vec<Row>,
    /// Per-frame scratch: the arena key id of each of the frame's
    /// labels ([`UNREFERENCED`], [`PENDING`] or resolved).
    label_ids: Vec<usize>,
    /// Per-frame scratch: the non-empty group heads, decoded once.
    heads: Vec<(Sym, Option<Sym>, usize)>,
    /// Bytes of fragment data currently resident
    /// ([`row_resident_bytes`] summed over rows), maintained by
    /// absorption and eviction.
    resident_bytes: u64,
    /// The highest `resident_bytes` ever observed — the stat the
    /// long-stream bench gates on to prove eviction caps memory at
    /// O(watermark lag + open windows) instead of O(stream).
    high_water_bytes: u64,
}

/// A frame label no non-empty group references.
const UNREFERENCED: usize = usize::MAX;
/// A referenced frame label not yet looked up in the key table.
const PENDING: usize = usize::MAX - 1;

impl IngestArena {
    /// An empty arena.
    pub fn new() -> IngestArena {
        IngestArena::default()
    }

    /// The arena id of `label`; only a label this arena has never seen
    /// is copied.
    fn key_id(&mut self, label: &str) -> usize {
        if let Some(&id) = self.key_ids.get(label) {
            return id;
        }
        let owned: Arc<str> = Arc::from(label);
        let id = self.keys.len();
        self.keys.push(Arc::clone(&owned));
        self.key_locations.push(KeyLocations::default());
        self.key_ids.insert(owned, id);
        id
    }

    /// The location id of the vertex `key` or the edge `key → to`, born
    /// — given a freed id or the next one, and its place in the label
    /// order — when it is asked for while not live. `None` only for a
    /// key id the arena never issued, which `absorb` never passes.
    fn location(&mut self, key: usize, to: Option<usize>) -> Option<usize> {
        let at_key = self.key_locations.get_mut(key)?;
        let known = match to {
            None => at_key.vertex,
            Some(to) => at_key.edges.get(&to).copied(),
        };
        if known.is_some() {
            return known;
        }
        let from = Arc::clone(self.keys.get(key)?);
        let to_label = match to {
            Some(to) => Some(Arc::clone(self.keys.get(to)?)),
            None => None,
        };
        let id = match self.free_ids.pop() {
            Some(id) => id,
            None => {
                self.pools.push(ArenaPool::default());
                self.homes.push((key, to));
                self.pools.len() - 1
            }
        };
        if let Some(home) = self.homes.get_mut(id) {
            *home = (key, to);
        }
        match (to, to_label) {
            (Some(to), Some(to_label)) => {
                self.edge_order.insert((from, to_label), id);
                at_key.edges.insert(to, id);
            }
            _ => {
                self.vertex_order.insert(from, id);
                at_key.vertex = Some(id);
            }
        }
        Some(id)
    }

    /// Absorb one owned batch, copying its fragments' fields into the
    /// pools (what tests and tools feed; the server's byte path is
    /// [`IngestArena::push_frame`]).
    ///
    /// Group label ids are checked against the batch's own label table:
    /// the decoder validates them, but `FragmentBatch`'s fields are
    /// public, so a hand-built batch with an out-of-range id can arrive
    /// here. Such groups are dropped — a malformed monitoring batch must
    /// never panic the ingest plane.
    pub fn push_batch(&mut self, batch: FragmentBatch) {
        let vertices = batch.vertex_groups.iter().map(|g| (g.label, None, g.fragments.len()));
        let edges = batch.edge_groups.iter().map(|g| (g.from, Some(g.to), g.fragments.len()));
        let groups = vertices.chain(edges);
        let rows = batch.fragments().map(incoming);
        self.absorb(batch.labels.len(), batch.labels.iter().map(String::as_str), groups, rows);
    }

    /// Absorb one validated frame straight from its bytes: rows are
    /// appended from the frame's column slices, with no `Fragment`, no
    /// group `Vec` and no per-fragment allocation in between.
    pub fn push_frame(&mut self, frame: &FrameView<'_>) {
        let vertices = frame.vertex_heads().map(|(label, count)| (label, None, count));
        let edges = frame.edge_heads().map(|(from, to, count)| (from, Some(to), count));
        let groups = vertices.chain(edges);
        let rows = frame.rows().map(|r| Incoming {
            rank: r.rank,
            kind: r.kind,
            start: r.start_ns,
            end: r.end_ns,
            set: r.set,
            vals: r.vals,
            args: r.args,
        });
        self.absorb(frame.num_labels(), frame.labels(), groups, rows);
    }

    /// The one append routine. `groups` walks `(label, other endpoint
    /// for an edge, fragment count)` in shipping order — decoded once
    /// into a scratch list, since labels are resolved before the first
    /// row is appended — and `rows` are the groups' fragments in one
    /// run, `count` per group.
    ///
    /// A label is resolved (and, the first time this arena sees it,
    /// copied into the key table) only when a non-empty group
    /// references it: a frame's label table is sender-controlled, so
    /// entries that carry no fragments must not grow the key tables.
    /// A group naming a label the table lacks is dropped, rows and all.
    fn absorb<'l, V, A>(
        &mut self,
        nlabels: usize,
        labels: impl Iterator<Item = &'l str>,
        groups: impl Iterator<Item = (Sym, Option<Sym>, usize)>,
        mut rows: impl Iterator<Item = Incoming<V, A>>,
    ) where
        V: Iterator<Item = f64>,
        A: ExactSizeIterator<Item = f64>,
    {
        let mut ids = std::mem::take(&mut self.label_ids);
        ids.clear();
        ids.resize(nlabels, UNREFERENCED);
        let mut heads = std::mem::take(&mut self.heads);
        heads.clear();
        heads.extend(groups.filter(|&(_, _, count)| count > 0));
        for &(label, to, _) in &heads {
            for id in [Some(label), to].into_iter().flatten() {
                if let Some(slot) = ids.get_mut(id as usize) {
                    *slot = PENDING;
                }
            }
        }
        for (slot, label) in ids.iter_mut().zip(labels) {
            if *slot == PENDING {
                *slot = self.key_id(label);
            }
        }
        let resolved = |id: Sym| ids.get(id as usize).copied().filter(|&key| key < PENDING);

        for &(label, to, count) in &heads {
            let group = rows.by_ref().take(count);
            let location = match (resolved(label), to.map(resolved)) {
                (Some(key), None) => self.location(key, None),
                (Some(from), Some(Some(to))) => self.location(from, Some(to)),
                _ => None,
            };
            let pool: &mut ArenaPool = match location.and_then(|id| self.pools.get_mut(id)) {
                Some(pool) => pool,
                None => {
                    group.for_each(drop);
                    continue;
                }
            };
            for row in group {
                let end = row.end;
                if let Some(bytes) = pool.append(row) {
                    self.fragments = self.fragments.saturating_add(1);
                    self.max_end_ns = self.max_end_ns.max(end);
                    self.resident_bytes = self.resident_bytes.saturating_add(bytes);
                }
            }
        }
        self.high_water_bytes = self.high_water_bytes.max(self.resident_bytes);
        self.label_ids = ids;
        self.heads = heads;
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

    /// Bytes of fragment data currently resident: per row, the inline
    /// struct plus 8 bytes per active counter value and per argument.
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
    /// under `LateDataPolicy::Readmit` are unaffected — data for
    /// still-open windows ends after the horizon and is retained;
    /// data only closed windows could have used is exactly what this
    /// reclaims.
    ///
    /// Each pool drops its dead rows and compacts its heaps
    /// (`ArenaPool::evict_before`); one that lost nothing is left
    /// untouched.
    ///
    /// `max_end_ns` is deliberately untouched (the window cover is
    /// defined by the data watermark, not by what is resident), as are
    /// the key tables (every label that carried a fragment stays). A
    /// location drained empty is forgotten — dropped from the label
    /// order and from its key's slots — and its id goes to the free
    /// list with its pool's buffers, for the next location born.
    pub fn evict_before(&mut self, horizon_ns: u64) {
        let IngestArena {
            keys,
            key_locations,
            pools,
            homes,
            free_ids,
            vertex_order,
            edge_order,
            spare_heaps,
            fragments,
            resident_bytes,
            ..
        } = self;
        for (id, pool) in pools.iter_mut().enumerate().filter(|(_, pool)| !pool.rows.is_empty()) {
            let (evicted, bytes) = pool.evict_before(horizon_ns, spare_heaps);
            *fragments = fragments.saturating_sub(evicted);
            *resident_bytes = resident_bytes.saturating_sub(bytes);
            if !pool.rows.is_empty() {
                continue;
            }
            pool.vals.clear();
            pool.args.clear();
            (pool.sorted_len, pool.max_dur_ns) = (0, 0);
            let Some(&(key, to)) = homes.get(id) else { continue };
            let (Some(at_key), Some(from)) = (key_locations.get_mut(key), keys.get(key)) else {
                continue;
            };
            match to {
                None => {
                    at_key.vertex = None;
                    vertex_order.remove(from);
                }
                Some(to) => {
                    at_key.edges.remove(&to);
                    if let Some(to_label) = keys.get(to) {
                        edge_order.remove(&(Arc::clone(from), Arc::clone(to_label)));
                    }
                }
            }
            free_ids.push(id);
        }
    }

    /// Bring every pool up to its `ArenaPool::row_order` invariant: the
    /// appended tail is sorted in place and merged into the sorted
    /// prefix through the arena's one reused buffer, so rows already in
    /// place are not re-sorted and no sort scratch is allocated. After
    /// this, sealing a window sorts nothing. The ingestor calls it when
    /// a window is about to be sealed, not per frame: a pool is merged
    /// once per close, however many frames touched it.
    ///
    /// Equal rows under the order are identical in every compared field
    /// — rank, times, kind, counter bits, arg bits — so neither the
    /// unstable tail sort nor the merge's tie rule can change any
    /// observable pool order.
    pub fn ensure_sorted(&mut self) {
        let IngestArena { pools, merge_rows, .. } = self;
        for pool in pools.iter_mut() {
            let ArenaPool { rows, vals, args, sorted_len, .. } = pool;
            if *sorted_len != rows.len() {
                let order = |a: &Row, b: &Row| ArenaPool::row_order(a, b, vals, args);
                merge_sorted_tail(rows, *sorted_len, merge_rows, order);
                *sorted_len = rows.len();
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

/// Sort `rows[sorted..]` and merge it into the sorted `rows[..sorted]`
/// under `order`, moving each prefix row at most once: the tail is
/// sorted in place (unstable — equal rows are indistinguishable, see
/// `ensure_sorted`), copied out to `buf`, and the two runs are merged
/// from the back into `rows`, a tie going to the tail row (it lands
/// after its prefix equal, as a stable sort would put it). `buf`'s
/// contents are overwritten; its capacity stays for the next pool.
fn merge_sorted_tail(
    rows: &mut [Row],
    sorted: usize,
    buf: &mut Vec<Row>,
    order: impl Fn(&Row, &Row) -> Ordering,
) {
    let Some(tail) = rows.get_mut(sorted..) else { return };
    tail.sort_unstable_by(&order);
    let last_sorted = sorted.checked_sub(1).and_then(|i| rows.get(i));
    match (last_sorted, rows.get(sorted)) {
        (Some(old), Some(new)) if order(old, new) == Ordering::Greater => {}
        // One run, or the tail already starts after the prefix.
        _ => return,
    }
    buf.clear();
    buf.extend_from_slice(rows.get(sorted..).unwrap_or(&[]));
    // `rows[..i]` is the unmerged prefix, `buf[..j]` the unmerged tail,
    // and `rows[i + j..]` is final.
    let (mut i, mut j) = (sorted, buf.len());
    while let Some(new) = j.checked_sub(1).and_then(|k| buf.get(k)) {
        let old = i.checked_sub(1).and_then(|k| rows.get(k));
        let take_old = old.is_some_and(|old| order(old, new) == Ordering::Greater);
        let row = if take_old {
            i -= 1;
            old.copied()
        } else {
            j -= 1;
            Some(*new)
        };
        if let (Some(row), Some(slot)) = (row, rows.get_mut(i + j)) {
            *slot = row;
        }
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
    /// label order (what [`ColumnarPool::from_batches`] produces, so every
    /// downstream label, series and rare-path order matches the one-shot
    /// path), and fragments in [`ArenaPool::row_order`] — (rank, time)
    /// first with a content tiebreaker, so a sealed window never depends
    /// on batch arrival order even when timestamps collide.
    pub(crate) fn gather_into(&self, out: &mut ColumnarPool) {
        let arena = self.arena;
        for (label, &id) in &arena.vertex_order {
            if let Some(pool) = arena.pools.get(id) {
                self.gather_pool(pool, out, |out| out.begin_vertex(Arc::clone(label)));
            }
        }
        for ((from, to), &id) in &arena.edge_order {
            if let Some(pool) = arena.pools.get(id) {
                self.gather_pool(pool, out, |out| out.begin_edge(Arc::clone(from), Arc::clone(to)));
            }
        }
    }

    /// Append `pool`'s selected rows to `out` — each row's counter
    /// values and arguments one slice copy — calling `begin` to open
    /// their lane before the first one: never, for a location the
    /// selection leaves empty.
    fn gather_pool(
        &self,
        pool: &ArenaPool,
        out: &mut ColumnarPool,
        begin: impl Fn(&mut ColumnarPool),
    ) {
        let mut open = false;
        pool.window_overlaps(self.window, |r| {
            if !open {
                begin(out);
                open = true;
            }
            out.push_row(CompactRow {
                rank: r.rank,
                kind: r.kind,
                start_ns: r.start,
                end_ns: r.end,
                set: CounterSet::from_bits(r.set),
                vals: pool.vals_of(r),
                args: pool.args_of(r),
            });
        });
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::VaproConfig;
    use crate::detect::ingestor::WindowedIngestor;
    use crate::fragment::{Fragment, FragmentKind};
    use crate::stg::{StateKey, Stg};
    use vapro_pmu::{CounterDelta, CounterId};
    use vapro_sim::{CallSite, VirtualTime};

    pub(crate) fn looped_stg(rank: usize, n: usize, period_ns: u64, slow_range: std::ops::Range<usize>) -> Stg {
        let site = StateKey::Site(CallSite("w:MPI_Barrier"));
        stg_over([site.clone(), site], false, rank, n, period_ns, slow_range)
    }

    /// `n` back-to-back computation fragments alternating between the
    /// edges `x → y` and `y → x` (one self-loop when `x == y`); with
    /// `entry_carries` the first one runs on `Start → x` instead.
    pub(crate) fn stg_over(
        [x, y]: [StateKey; 2],
        entry_carries: bool,
        rank: usize,
        n: usize,
        period_ns: u64,
        slow_range: std::ops::Range<usize>,
    ) -> Stg {
        let mut stg = Stg::new();
        let start = stg.state(StateKey::Start);
        let (x, y) = (stg.state(x), stg.state(y));
        let entry = stg.transition(start, x);
        let edges = [stg.transition(x, y), stg.transition(y, x)];
        let mut t = 0u64;
        for i in 0..n {
            let d = if slow_range.contains(&i) { period_ns * 3 } else { period_ns };
            let mut c = CounterDelta::default();
            c.put(CounterId::TotIns, 1000.0);
            stg.attach_edge_fragment(
                if entry_carries && i == 0 { entry } else { edges[i % 2] },
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

    /// Ship `stg`'s data period-major as sequenced frames; returns
    /// the per-rank frames of each period.
    pub(crate) fn period_frames(stgs: &[Stg], nperiods: u64, period_ns: u64) -> Vec<Vec<Vec<u8>>> {
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
                            .encode()
                    })
                    .collect()
            })
            .collect()
    }

    #[cfg(any(debug_assertions, feature = "clone-count"))]
    #[test]
    fn arena_window_views_clone_no_fragments() {
        use crate::detect::pipeline::detect_columnar;
        use crate::fragment::clone_count;
        let cfg = VaproConfig::default();
        let stg = looped_stg(0, 20, 1_000_000, 0..0);
        let window = Window { start: VirtualTime::ZERO, end: VirtualTime::from_secs(1) };
        let encoded = FragmentBatch::from_stg_starting_in(&stg, 0, window).encode();
        let mut arena = IngestArena::new();
        // Decoding constructs fragments (it doesn't clone), pushing moves
        // them, and sealing a window copies fields into columns.
        // Detection runs on this thread, under its clone counter.
        let before = clone_count::on_this_thread();
        arena.push_batch(FragmentBatch::decode(&encoded).unwrap());
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
    fn known_labels_are_issued_no_second_key() {
        // A location's first batch copies its labels into the arena's
        // key table; every later batch with the same labels resolves
        // them there and grows nothing.
        let stg = looped_stg(0, 20, 1_000_000, 0..0);
        let period = |k: u64| Window {
            start: VirtualTime::from_ns(k * 10_000_000),
            end: VirtualTime::from_ns((k + 1) * 10_000_000),
        };
        let mut arena = IngestArena::new();
        arena.push_batch(FragmentBatch::from_stg_starting_in(&stg, 0, period(0)));
        let keys = arena.keys.len();
        assert!(keys > 0, "first batch interned nothing");
        let second = FragmentBatch::from_stg_starting_in(&stg, 0, period(1));
        assert!(!second.is_empty());
        arena.push_batch(second);
        assert_eq!(arena.keys.len(), keys, "a known label was issued a second id");
        assert_eq!(arena.key_ids.len(), keys);
    }

    #[test]
    fn labels_that_carry_no_fragments_are_never_interned() {
        // A frame's label table is sender-controlled. Entries no group
        // references, and entries only an empty group references, must
        // not reach the arena's key tables: 1 000 distinct strings per
        // frame would otherwise stay allocated for the life of the job.
        use crate::wire::VertexGroup;
        let mut arena = IngestArena::new();
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
        assert!(arena.keys.is_empty(), "a label without fragments was issued a key");
        assert!(arena.key_ids.is_empty());
        assert!(arena.is_empty() && arena.pools.is_empty());
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
        // Every fragment here is one row carrying one counter value.
        let row_bytes = (std::mem::size_of::<Row>() + 8) as u64;
        let naive_total: u64 =
            stgs.iter().map(|s| s.total_fragments() as u64 * row_bytes).sum();
        let mut ingestor = WindowedIngestor::new(2, 8, cfg);
        let mut reports = Vec::new();
        for period in &frames {
            for frame in period {
                reports.extend(ingestor.push_encoded(frame).expect("valid frame"));
            }
        }
        let arena = ingestor.arena();
        assert!(arena.max_end_ns() > 0);
        // The gauge is what the layout holds: absorb and evict count a
        // row by the same formula, so after 40 periods of both it still
        // equals the rows resident.
        assert_eq!(arena.resident_bytes(), arena.len() as u64 * row_bytes);
        // Steady state: resident ≈ the half-overlap neighbourhood of the
        // next closeable window — two ranks × (two 5-fragment periods
        // and a straggling edge) — nowhere near the whole stream.
        assert!(arena.len() <= 2 * 12, "{} rows resident", arena.len());
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
    fn gallop_finds_a_prefix_of_k_in_log_k_calls() {
        // The seal walk's bound, O(ranks·log n + rows-in-window), held
        // without a timer: crossing a rank's backlog of k rows costs
        // at most 2⌈log₂(k+1)⌉ + 2 predicate calls, whether the slice
        // runs on past the prefix or ends with it.
        let items: Vec<usize> = (0..1000).collect();
        for k in 0..=300usize {
            let bound = 2 * (usize::BITS - k.leading_zeros()) as usize + 2;
            for slice in [&items[..], &items[..k]] {
                let mut calls = 0usize;
                let got = gallop(slice, |&x| {
                    calls += 1;
                    x < k
                });
                assert_eq!(got, k, "prefix {k} of {}", slice.len());
                assert!(calls <= bound, "prefix {k} of {}: {calls} calls > {bound}", slice.len());
            }
        }
    }

    /// Half a window, ns, in the seal-walk property below.
    const HALF: u64 = 2_000;

    /// One rank's run for the seal-walk property: its length — 0, 1, or
    /// 2^k − 1, 2^k, 2^k + 1, the sizes a doubling search turns on — the
    /// spacing and first start of its fragments (a rank may join up to
    /// four windows late, between ranks with a backlog), and which of
    /// them are duration outliers (each outlasts two windows, so it
    /// widens `earliest_start` for every rank of the pool).
    fn rank_run() -> impl proptest::Strategy<Value = (usize, u64, u64, Vec<usize>)> {
        use proptest::prop::collection::vec;
        use proptest::Strategy;
        let len = (0usize..5, 1u32..7).prop_map(|(shape, k)| match shape {
            0 => 0,
            1 => 1,
            2 => (1 << k) - 1,
            3 => 1 << k,
            _ => (1 << k) + 1,
        });
        (len, 0u32..4, 0..8 * HALF, vec(0usize..65, 0..3))
            .prop_map(|(len, shift, offset, outliers)| (len, 125 << shift, offset, outliers))
    }

    /// One fragment for the seal-walk property, its start doubling as
    /// its counter value so every row is told apart.
    fn walk_fragment(rank: usize, start: u64, dur: u64) -> Fragment {
        let mut c = CounterDelta::default();
        c.put(CounterId::TotIns, start as f64);
        Fragment {
            rank,
            kind: FragmentKind::Computation,
            start: VirtualTime::from_ns(start),
            end: VirtualTime::from_ns(start + dur),
            counters: c,
            args: vec![],
        }
    }

    /// Both arenas absorb `frags` as one batch on one location.
    fn push_both(arenas: [&mut IngestArena; 2], frags: Vec<Fragment>) {
        use crate::wire::EdgeGroup;
        let batch = FragmentBatch {
            rank: 0,
            seq: 0,
            tenant_id: 0,
            job_id: 0,
            window_start_ns: 0,
            window_end_ns: u64::MAX,
            labels: vec!["a".into(), "b".into()],
            vertex_groups: Vec::new(),
            edge_groups: vec![EdgeGroup { from: 0, to: 1, fragments: frags }],
        };
        for arena in arenas {
            arena.push_batch(batch.clone());
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Layer 2: the sorted pool's seal walk and the filter-and-sort
        /// fallback (an unsorted pool) seal identical windows — same
        /// fragments, same order — at every half-period, on the shapes
        /// real traffic has: rank runs of every length a gallop turns
        /// on (one row per run is the steady state), duration outliers
        /// that pull `earliest_start` back across whole windows, rows
        /// readmitted late behind the window being sealed, and
        /// watermark eviction between closes, from in step (one resident
        /// row per run) to `lag` half-periods behind (a backlog before
        /// every window).
        #[test]
        fn ranged_window_views_match_linear_filter_views(
            runs in proptest::prop::collection::vec(rank_run(), 1..6),
            late in proptest::prop::collection::vec((0usize..6, 0u64..40 * HALF), 0..8),
            lag in 0u64..4,
        ) {
            let (mut sorted, mut lazy) = (IngestArena::new(), IngestArena::new());
            let mut last_end = 0u64;
            // Ranks arrive back to front, so an unsorted pool's rows are
            // out of order.
            for (rank, (len, gap, offset, outliers)) in runs.iter().enumerate().rev() {
                let frags: Vec<Fragment> = (0..*len)
                    .map(|i| {
                        let dur = if outliers.contains(&i) { 5 * HALF } else { gap - 25 };
                        walk_fragment(rank, offset + i as u64 * gap, dur)
                    })
                    .collect();
                last_end = last_end.max(frags.iter().map(|f| f.end.ns()).max().unwrap_or(0));
                push_both([&mut sorted, &mut lazy], frags);
            }
            let windows = last_end / HALF + 2;
            for k in 0..windows {
                if k == windows / 2 {
                    let frags: Vec<Fragment> = late
                        .iter()
                        .map(|&(rank, start)| walk_fragment(rank % runs.len(), start, 90))
                        .collect();
                    push_both([&mut sorted, &mut lazy], frags);
                }
                sorted.ensure_sorted();
                proptest::prop_assert!(sorted.pools.iter().all(|p| p.sorted_len == p.rows.len()));
                proptest::prop_assert!(lazy.pools.iter().all(|p| p.sorted_len == 0));
                let w = Window {
                    start: VirtualTime::from_ns(k * HALF),
                    end: VirtualTime::from_ns(k * HALF + 2 * HALF),
                };
                proptest::prop_assert_eq!(
                    ColumnarPool::from_merged(&sorted.window_view(w)),
                    ColumnarPool::from_merged(&lazy.window_view(w)),
                    "window {} sealed differently",
                    k
                );
                let horizon = (k + 1).saturating_sub(lag) * HALF;
                sorted.evict_before(horizon);
                lazy.evict_before(horizon);
            }
            proptest::prop_assert_eq!(
                ColumnarPool::from_merged(&sorted.full_view()),
                ColumnarPool::from_merged(&lazy.full_view())
            );
        }
    }

    /// Labels for the location-order property: shared prefixes, a
    /// trailing space, a digit, and `" -> "` inside a label, so a vertex
    /// label can spell an edge and edge pairs can tie on their first
    /// label.
    const ORDER_LABELS: [&str; 8] = ["a", "a ", "ab", "a -> b", "a -> ", "-> b", "b", "0"];

    /// The location-order property's reporting period, ns.
    const ORDER_PERIOD: u64 = 1_000;

    /// One reporting period of the location-order property: groups of
    /// `(rank, (label, edge target), fragments)`, a target past the
    /// labels meaning the group is the label's vertex.
    type PeriodGroups = Vec<(usize, (usize, usize), usize)>;

    /// Rank `rank`'s frame for period `k` of `groups`: every group of
    /// that rank, its fragments one `STEP` apart in group order so no
    /// two of the rank's fragments share a start.
    fn order_frame(rank: usize, k: u64, groups: &PeriodGroups) -> FragmentBatch {
        use crate::wire::{EdgeGroup, VertexGroup};
        const STEP: u64 = 10;
        let mut slot = 0u64;
        let mut batch = FragmentBatch {
            rank,
            seq: k + 1,
            tenant_id: 0,
            job_id: 0,
            window_start_ns: k * ORDER_PERIOD,
            window_end_ns: (k + 1) * ORDER_PERIOD,
            labels: ORDER_LABELS.iter().map(|l| l.to_string()).collect(),
            vertex_groups: Vec::new(),
            edge_groups: Vec::new(),
        };
        for &(_, (label, to), count) in groups.iter().filter(|g| g.0 == rank) {
            let fragments: Vec<Fragment> = (0..count)
                .map(|_| {
                    slot += 1;
                    walk_fragment(rank, k * ORDER_PERIOD + slot * STEP, STEP / 2)
                })
                .collect();
            if to < ORDER_LABELS.len() {
                batch.edge_groups.push(EdgeGroup { from: label as Sym, to: to as Sym, fragments });
            } else {
                batch.vertex_groups.push(VertexGroup { label: label as Sym, fragments });
            }
        }
        batch
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Locations are born, drained by eviction and born again in
        /// whatever order traffic takes them, and every sealed window is
        /// still the one-shot gather of the same frames
        /// (`ColumnarPool::from_batches`): same lanes in the same label
        /// order, same rows. A drained location is forgotten: after every
        /// eviction the order, the key slots and the pools hold the live
        /// locations and no more.
        #[test]
        fn location_order_survives_birth_drain_and_rebirth(
            periods in proptest::prop::collection::vec(
                proptest::prop::collection::vec(
                    (0usize..3, (0usize..ORDER_LABELS.len(), 0usize..ORDER_LABELS.len() + 1), 1usize..3),
                    0..8,
                ),
                2..12,
            ),
        ) {
            let mut arena = IngestArena::new();
            let mut shipped: Vec<(usize, u64, FragmentBatch)> = Vec::new();
            let mut peak = 0usize;
            for (k, groups) in periods.iter().enumerate() {
                let k = k as u64;
                for rank in 0..3 {
                    let batch = order_frame(rank, k, groups);
                    let bytes = batch.encode();
                    arena.push_frame(&FrameView::parse(&bytes).expect("valid frame"));
                    shipped.push((rank, k, batch));
                }
                // Window [k − 1, k + 1) periods has all its data; seal it
                // and evict what no later window reaches.
                let start = k.saturating_sub(1) * ORDER_PERIOD;
                let w = Window {
                    start: VirtualTime::from_ns(start),
                    end: VirtualTime::from_ns(start + 2 * ORDER_PERIOD),
                };
                arena.ensure_sorted();
                shipped.sort_by_key(|(rank, k, _)| (*rank, *k));
                let reference = ColumnarPool::from_batches(shipped.iter().map(|s| &s.2), Some(w));
                proptest::prop_assert_eq!(
                    ColumnarPool::from_merged(&arena.window_view(w)),
                    reference,
                    "window at period {} sealed differently",
                    k
                );
                peak = peak.max(live_locations(&arena));
                arena.evict_before(k * ORDER_PERIOD);
                live_locations(&arena);
            }
            proptest::prop_assert!(arena.pools.len() <= peak, "{} pools, peak {} live", arena.pools.len(), peak);
        }
    }

    /// Check that the arena's location bookkeeping matches its pools —
    /// every location holding rows sits once in the label order and once
    /// in its key's slots, every other id is free — and return how many
    /// locations are live.
    fn live_locations(arena: &IngestArena) -> usize {
        let live = arena.pools.iter().filter(|p| !p.rows.is_empty()).count();
        let slots: usize =
            arena.key_locations.iter().map(|k| usize::from(k.vertex.is_some()) + k.edges.len()).sum();
        assert_eq!(arena.vertex_order.len() + arena.edge_order.len(), live, "order entries");
        assert_eq!(slots, live, "key slots");
        assert_eq!(arena.free_ids.len() + live, arena.pools.len(), "free ids");
        live
    }

    #[test]
    fn locations_a_sender_keeps_renaming_stay_bounded_by_the_live_ones() {
        // Every period ships one vertex and one edge whose labels no
        // earlier period used: a sender naming L labels could otherwise
        // leave up to L² edge locations behind. Once eviction drains
        // them, the pools, the label order and the key slots hold only
        // what is live, so a close's walk does not grow with the stream.
        use crate::wire::{EdgeGroup, VertexGroup};
        const PERIODS: u64 = 400;
        let mut arena = IngestArena::new();
        for k in 0..PERIODS {
            let at = k * ORDER_PERIOD;
            let frame = FragmentBatch {
                rank: 0,
                seq: k + 1,
                tenant_id: 0,
                job_id: 0,
                window_start_ns: at,
                window_end_ns: at + ORDER_PERIOD,
                labels: vec![format!("s{k}"), format!("s{}", k + 1), format!("v{k}")],
                vertex_groups: vec![VertexGroup { label: 2, fragments: vec![walk_fragment(0, at, 10)] }],
                edge_groups: vec![EdgeGroup { from: 0, to: 1, fragments: vec![walk_fragment(0, at + 20, 10)] }],
            };
            arena.push_frame(&FrameView::parse(&frame.encode()).expect("valid frame"));
            arena.ensure_sorted();
            assert_eq!(live_locations(&arena), 4.min(2 * (k as usize + 1)), "period {k}");
            arena.evict_before(k * ORDER_PERIOD);
        }
        assert!(arena.pools.len() <= 4, "{} pools after {PERIODS} periods", arena.pools.len());
        assert_eq!(live_locations(&arena), 2);
        assert_eq!(arena.len(), 2);
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
            FragmentBatch::from_stg_starting_in(&stg, 0, window)
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

    /// The canonical order as it was stated over `Fragment`s before the
    /// arena held rows: the reference [`ArenaPool::row_order`] restates.
    fn fragment_order(a: &Fragment, b: &Fragment) -> Ordering {
        (a.rank, a.start.ns(), a.end.ns(), a.kind as u8)
            .cmp(&(b.rank, b.start.ns(), b.end.ns(), b.kind as u8))
            .then_with(|| {
                a.counters
                    .entries()
                    .map(|(id, v)| (id.index(), v.to_bits()))
                    .cmp(b.counters.entries().map(|(id, v)| (id.index(), v.to_bits())))
            })
            .then_with(|| a.args.iter().map(|x| x.to_bits()).cmp(b.args.iter().map(|x| x.to_bits())))
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2048))]

        /// Row order ≡ `fragment_order` on `Fragment` twins. Everything
        /// is drawn from two values, so most pairs tie on (rank, time,
        /// kind) and the verdict falls to the counter pairs — where a
        /// value that differs at an early counter must decide before a
        /// later counter only one side carries — or to the args.
        #[test]
        fn row_order_restates_fragment_order(
            a in tie_heavy_fragment(),
            b in tie_heavy_fragment(),
        ) {
            let mut pool = ArenaPool::default();
            pool.append(incoming(&a)).expect("fits");
            pool.append(incoming(&b)).expect("fits");
            let (ra, rb) = (&pool.rows[0], &pool.rows[1]);
            proptest::prop_assert_eq!(
                ArenaPool::row_order(ra, rb, &pool.vals, &pool.args),
                fragment_order(&a, &b)
            );
            proptest::prop_assert_eq!(
                ArenaPool::row_order(rb, ra, &pool.vals, &pool.args),
                fragment_order(&b, &a)
            );
        }
    }

    fn tie_heavy_fragment() -> impl proptest::Strategy<Value = Fragment> {
        use proptest::prop::collection::vec;
        use proptest::Strategy;
        let kinds = [FragmentKind::Computation, FragmentKind::Communication];
        (
            (0usize..2, 0usize..2, 0u64..2, 0u64..2),
            vec((0usize..4, 0u64..2), 0..4),
            vec(0u64..2, 0..3),
        )
            .prop_map(move |((rank, kind, start, dur), counters, args)| {
                let mut delta = CounterDelta::default();
                for (idx, v) in counters {
                    delta.put(CounterId::ALL[idx * 7], v as f64);
                }
                Fragment {
                    rank,
                    kind: kinds[kind],
                    start: VirtualTime::from_ns(100 + start),
                    end: VirtualTime::from_ns(200 + start + dur),
                    counters: delta,
                    args: args.into_iter().map(|a| a as f64).collect(),
                }
            })
    }

    #[test]
    fn rejected_frames_leave_the_ingestor_untouched() {
        // Validate-before-append, as a property that can fail: a frame
        // is rejected whole. Every truncation and every single-byte
        // mutation of a valid frame — as sent (the checksum catches
        // nearly all of those) and again with length prefix and checksum
        // re-sealed around the damage, so each structural check down to
        // the last one is the one that fires — must be refused by
        // `push_encoded` with the error `FragmentBatch::decode` gives,
        // counted once, with not a row, a byte, a key or an admission
        // more in the ingestor than before.
        use crate::wire::{crc32, EdgeGroup, VertexGroup, WireError};
        let frag = |rank: usize, kind: FragmentKind, start: u64, ins: Option<f64>, args: Vec<f64>| {
            let mut counters = CounterDelta::default();
            if let Some(ins) = ins {
                counters.put(CounterId::TotIns, ins);
                counters.put(CounterId::Tsc, 2.0 * ins);
            }
            Fragment {
                rank,
                kind,
                start: VirtualTime::from_ns(start),
                end: VirtualTime::from_ns(start + 50),
                counters,
                args,
            }
        };
        let comm = FragmentKind::Communication;
        let comp = FragmentKind::Computation;
        let batch = FragmentBatch {
            rank: 1,
            seq: 2,
            tenant_id: 0,
            job_id: 0,
            window_start_ns: 1_000,
            window_end_ns: 2_000,
            labels: vec!["halo".into(), "solve".into(), "never-referenced".into()],
            vertex_groups: vec![
                VertexGroup {
                    label: 0,
                    fragments: vec![frag(1, comm, 1_000, None, vec![8.0, 0.5])],
                },
                VertexGroup { label: 1, fragments: Vec::new() },
            ],
            edge_groups: vec![
                EdgeGroup {
                    from: 0,
                    to: 1,
                    fragments: vec![
                        frag(1, comp, 1_100, Some(1e3), vec![]),
                        frag(0, comp, 1_200, Some(2e3), vec![]),
                    ],
                },
                EdgeGroup { from: 1, to: 0, fragments: vec![frag(1, comp, 1_300, Some(3e3), vec![])] },
            ],
        };
        let clean = batch.encode();
        // Two row shapes, a rank column (rank 0 is not the header's) and
        // raw-f64 args: shape index, rank, start and end take 1 + 1 + 2
        // + 2 bytes a row, and each arg 8.
        let parts = crate::wire::FrameView::parse(&clean).expect("clean frame").composition();
        assert_eq!((parts.shapes, parts.rows, parts.args), (4 + 2 * 11, 8 + 3 + 4 * 6, 5 + 2 * 8));
        // Prefix (4) + magic (4) + version (1) + crc (4): the checksum
        // covers everything from byte 13 on.
        let reseal = |mut bytes: Vec<u8>| {
            if bytes.len() >= 13 {
                let len = (bytes.len() - 4) as u32;
                bytes[..4].copy_from_slice(&len.to_le_bytes());
                let crc = crc32::checksum(&bytes[13..]);
                bytes[9..13].copy_from_slice(&crc.to_le_bytes());
            }
            bytes
        };
        let mut damaged: Vec<Vec<u8>> = Vec::new();
        for cut in 0..clean.len() {
            damaged.push(clean[..cut].to_vec());
            damaged.push(reseal(clean[..cut].to_vec()));
        }
        for pos in 0..clean.len() {
            for mask in [0x01u8, 0x10, 0x80, 0xFF] {
                let mut bytes = clean.clone();
                bytes[pos] ^= mask;
                damaged.push(bytes.clone());
                damaged.push(reseal(bytes));
            }
        }
        // One byte more than the columns account for, checksummed in:
        // only the very last check (trailing bytes) can refuse it.
        damaged.push(reseal([clean.as_slice(), &[0]].concat()));

        // An ingestor with data, keys and an admission already in it.
        let mut ingestor = WindowedIngestor::new(2, 8, VaproConfig::default());
        let _ = ingestor.push_encoded(&batch.clone().with_seq(1).encode()).expect("clean frame");
        let untouched = |ing: &WindowedIngestor| {
            let a = ing.arena();
            (a.len(), a.resident_bytes(), a.keys.len(), a.key_ids.len(), ing.stats().frames_admitted)
        };
        let before = untouched(&ingestor);
        assert_eq!((before.0, before.2, before.4), (4, 2, 1));

        let (mut refused, mut last_check) = (0u64, 0);
        for bytes in &damaged {
            // Re-sealing a mutation of a value byte yields a valid frame
            // with other data: not this test's subject.
            let Err(want) = FragmentBatch::decode(bytes) else { continue };
            let got = ingestor.push_encoded(bytes).expect_err("decode refuses this frame");
            assert_eq!(
                std::mem::discriminant(&got),
                std::mem::discriminant(&want),
                "push_encoded said {got:?}, decode said {want:?}"
            );
            refused += 1;
            last_check += u64::from(got == WireError::TrailingBytes);
            assert_eq!(ingestor.stats().frames_rejected(), refused, "{got:?} not counted once");
            assert_eq!(untouched(&ingestor), before, "a frame refused as {got:?} left a trace");
        }
        assert!(refused > 3 * clean.len() as u64, "only {refused} frames were refused");
        assert!(last_check > 0, "no frame got as far as the last check");
    }
}
