//! Server-side fragment storage for the streaming pipeline: storage
//! order, ranged scan, eviction.
//!
//! [`IngestArena`] decodes each shipped [`FragmentBatch`] **once** into
//! per-location `Vec<Fragment>` pools (fragments are *moved* out of the
//! batch, never cloned), where appending, sorting and eviction are
//! cheap — AoS where data is mutable. A closing window is sealed in one
//! hop: [`IngestArena::window_view`] is a free [`ArenaView`] handle, and
//! [`ColumnarPool::refill_from_merged`] gathers the overlapping
//! fragments straight out of the sorted pools into a recycled columnar
//! snapshot — SoA where it is sealed.

use crate::columnar::ColumnarPool;
use crate::detect::window::Window;
use crate::fragment::Fragment;
use crate::wire::FragmentBatch;
use std::collections::HashMap;
use std::sync::Arc;

/// Canonical in-pool fragment order: (rank, time) first, then fragment
/// content (kind, counters, args) to break ties among identical-
/// timestamp fragments — so pool order never depends on batch arrival
/// order, even when timestamps collide. Where (rank, time) is unique —
/// every rank-indexed STG the one-shot path consumes — the order equals
/// what [`ColumnarPool::from_stgs`] produces, which is what makes the
/// incremental reports bit-identical to the one-shot windowed analysis.
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
/// pools) or state pair (for computation pools); state identity is the
/// label from the batch dictionary, so labels containing `" -> "` are
/// handled like any other. The arena owns its labels: they are freed
/// with it, and no two arenas share a table or a lock.
#[derive(Debug, Default)]
pub struct IngestArena {
    /// Arena state labels; pool entries index into this.
    keys: Vec<Arc<str>>,
    key_ids: HashMap<Arc<str>, usize>,
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

    /// The arena id of `label`; only a label this arena has never seen
    /// is copied.
    fn key_id(&mut self, label: &str) -> usize {
        if let Some(&id) = self.key_ids.get(label) {
            return id;
        }
        let owned: Arc<str> = Arc::from(label);
        let id = self.keys.len();
        self.keys.push(Arc::clone(&owned));
        self.key_ids.insert(owned, id);
        id
    }

    /// Absorb one decoded batch, *moving* its fragments into the pools.
    ///
    /// A label is resolved (and, the first time this arena sees it,
    /// copied into the key table) only when a non-empty group
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
    /// under `LateDataPolicy::Readmit` are unaffected — data for
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
            let sorted_len = pool.sorted_len;
            let (mut seen, mut kept_sorted) = (0usize, 0usize);
            // `retain` visits every fragment once, in pool order, and
            // keeps the survivors' relative order: the kept part of the
            // sorted prefix stays sorted and the watermark shrinks to
            // exactly that count.
            pool.frags.retain(|f| {
                let keep = f.end.ns() > horizon_ns;
                if keep {
                    kept_sorted += usize::from(seen < sorted_len);
                } else {
                    *fragments = fragments.saturating_sub(1);
                    *resident_bytes = resident_bytes.saturating_sub(fragment_resident_bytes(f));
                }
                seen += 1;
                keep
            });
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
    /// label order (what [`ColumnarPool::from_stgs`] produces, so every
    /// downstream label, series and rare-path order matches the one-shot
    /// path), and fragments in [`fragment_order`] — (rank, time) first
    /// with a content tiebreaker, so a sealed window never depends on
    /// batch arrival order even when timestamps collide.
    pub(crate) fn gather_into(&self, out: &mut ColumnarPool) {
        let arena = self.arena;
        let mut vertices: Vec<(&Arc<str>, &ArenaPool)> = arena
            .vertex_pools
            .iter()
            .filter_map(|(&id, pool)| Some((arena.keys.get(id)?, pool)))
            .collect();
        vertices.sort_unstable_by(|a, b| a.0.cmp(b.0));
        for (key, pool) in vertices {
            self.gather_pool(pool, out, |out| out.begin_vertex(Arc::clone(key)));
        }
        let mut edges: Vec<_> = arena
            .edge_pools
            .iter()
            .filter_map(|(&(from, to), pool)| {
                Some(((arena.keys.get(from)?, arena.keys.get(to)?), pool))
            })
            .collect();
        edges.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        for ((from, to), pool) in edges {
            self.gather_pool(pool, out, |out| out.begin_edge(Arc::clone(from), Arc::clone(to)));
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

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::config::VaproConfig;
    use crate::detect::ingestor::WindowedIngestor;
    use crate::detect::pipeline::{detect, detect_columnar};
    use crate::fragment::FragmentKind;
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
                            .encode_v3()
                    })
                    .collect()
            })
            .collect()
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
        assert!(arena.is_empty() && arena.vertex_pools.is_empty());
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

}
