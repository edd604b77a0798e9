//! Fixed-workload identification by clustering (paper §3.4, Algorithm 1).
//!
//! Fragments attached to one STG edge/vertex may still mix several
//! workloads (Fig. 6): the same call-site can execute with different loop
//! trip counts. Vapro clusters the fragments' workload vectors with an
//! ad-hoc linear-time algorithm exploiting two properties of performance
//! metrics: variance *enlarges* metrics rather than shrinking them, and
//! fixed-workload vectors concentrate near the smallest norm. So:
//!
//! 1. sort fragments by the Euclidean norm of their workload vectors;
//! 2. repeatedly take the smallest-norm unprocessed fragment as a seed and
//!    absorb every fragment within a 5 % relative distance of it;
//! 3. after clustering, flag clusters with fewer than 5 fragments — those
//!    are rarely executed paths the user should inspect separately.
//!
//! The loop over the sorted array is linear (each fragment is visited once
//! as a member); only the initial sort is `O(n log n)`.
//!
//! A window clusters many small lanes (6–30 vectors on the benchmark's
//! streams), so what a lane costs besides its rows matters: the kernel's
//! work lanes live in a `ClusterScratch` the caller keeps, and a
//! window's detection recycles one with the window's sealed pool.

use crate::fragment::Fragment;
use vapro_pmu::CounterId;

/// One cluster of (presumed) fixed-workload fragments.
#[derive(Debug, Clone, PartialEq)]
pub struct Cluster {
    /// Row indices into the clustered population.
    pub members: Vec<u32>,
    /// The seed (smallest-norm) workload vector.
    pub seed: Vec<f64>,
    /// Norm of the seed vector.
    pub seed_norm: f64,
}

impl Cluster {
    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the cluster has no members (never produced by the
    /// algorithm, present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }
}

/// The result of clustering one edge/vertex's fragments.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterOutcome {
    /// Clusters with at least `min_cluster_size` members — usable as
    /// in-program benchmarks.
    pub usable: Vec<Cluster>,
    /// Clusters below the size floor: rarely-executed paths, reported to
    /// the user (Algorithm 1, line 8).
    pub rare: Vec<Cluster>,
}

impl ClusterOutcome {
    /// Total fragments across all clusters.
    pub fn total_members(&self) -> usize {
        self.usable.iter().chain(&self.rare).map(Cluster::len).sum()
    }

    /// Cluster label (index into `usable`, or `None` if rare) per input
    /// fragment — the predicted labels used for the Table 2 V-Measure
    /// verification.
    pub fn labels(&self, n: usize) -> Vec<Option<usize>> {
        let mut out = vec![None; n];
        for (ci, c) in self.usable.iter().enumerate() {
            for &m in &c.members {
                out[m as usize] = Some(ci);
            }
        }
        out
    }

    /// Like [`ClusterOutcome::labels`] but assigning rare clusters labels
    /// after the usable ones, so every fragment gets a label.
    pub fn all_labels(&self, n: usize) -> Vec<usize> {
        let mut out = vec![usize::MAX; n];
        for (ci, c) in self.usable.iter().chain(&self.rare).enumerate() {
            for &m in &c.members {
                out[m as usize] = ci;
            }
        }
        debug_assert!(out.iter().all(|&l| l != usize::MAX));
        out
    }
}

/// Where the clustering kernel writes: it reports each cluster's members
/// in discovery order (seed first), then closes the cluster with its
/// seed. The window path's sink is a [`ClusterTable`]; the owned
/// [`ClusterOutcome`] of the one-shot entry points is another.
trait ClusterSink {
    /// One member row of the cluster being scanned.
    fn member(&mut self, row: u32);
    /// The members reported since the last close form one cluster.
    fn close_cluster(&mut self, seed: &[f64], seed_norm: f64);
}

/// The owned sink: one `Vec` pair per cluster, split by size afterwards.
#[derive(Default)]
struct OwnedClusters {
    clusters: Vec<Cluster>,
    /// Members of the open cluster; drained into an exact-size `Vec` at
    /// its close, so the buffer's capacity is reused across clusters.
    open: Vec<u32>,
}

impl ClusterSink for OwnedClusters {
    fn member(&mut self, row: u32) {
        self.open.push(row);
    }

    fn close_cluster(&mut self, seed: &[f64], seed_norm: f64) {
        let cluster = Cluster { members: self.open.drain(..).collect(), seed: seed.to_vec(), seed_norm };
        self.clusters.push(cluster);
    }
}

fn split_by_size(clusters: Vec<Cluster>, min_cluster_size: usize) -> ClusterOutcome {
    let (usable, rare) = clusters
        .into_iter()
        .partition(|c| c.len() >= min_cluster_size);
    ClusterOutcome { usable, rare }
}

/// The clusterings of many lanes — every edge lane of a window — in six
/// flat strips (CSR: lane → cluster range → member range) instead of a
/// `Vec<ClusterOutcome>` of `Vec<Cluster>` of `Vec`s. A window's report
/// crosses from the pool worker that built it to the thread that drops
/// it, and what that costs is the number of heap blocks, not their size
/// (DESIGN.md §13): this is six whatever the lane and cluster counts.
///
/// Lanes are appended by [`ClusterTable::push_lane`] and read through
/// [`LaneClusters`] views; clusters keep discovery order within their
/// lane, and the usable/rare split is the table's size floor applied on
/// read. Two tables are equal when they hold the same lanes in the same
/// order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClusterTable {
    /// Clusters with fewer members are rare (Algorithm 1, line 8).
    min_cluster_size: usize,
    /// Lane `l` owns clusters `lane_ends[l - 1]..lane_ends[l]`.
    lane_ends: Vec<usize>,
    /// Cluster `c` owns `members[member_ends[c - 1]..member_ends[c]]`.
    member_ends: Vec<usize>,
    /// Row indices local to the owning lane, seed first.
    members: Vec<u32>,
    /// Cluster `c`'s seed vector is `seeds[seed_ends[c - 1]..seed_ends[c]]`
    /// (lanes differ in workload dimension).
    seed_ends: Vec<usize>,
    seeds: Vec<f64>,
    seed_norms: Vec<f64>,
}

/// `ends[i - 1]..ends[i]`, the first range starting at 0.
fn csr_range(ends: &[usize], i: usize) -> std::ops::Range<usize> {
    let start = if i == 0 { 0 } else { ends[i - 1] };
    start..ends[i]
}

impl ClusterSink for ClusterTable {
    fn member(&mut self, row: u32) {
        self.members.push(row);
    }

    fn close_cluster(&mut self, seed: &[f64], seed_norm: f64) {
        self.member_ends.push(self.members.len());
        self.seeds.extend_from_slice(seed);
        self.seed_ends.push(self.seeds.len());
        self.seed_norms.push(seed_norm);
    }
}

impl ClusterTable {
    /// An empty table whose lanes split usable from rare at
    /// `min_cluster_size` members.
    pub fn new(min_cluster_size: usize) -> ClusterTable {
        ClusterTable { min_cluster_size, ..ClusterTable::default() }
    }

    /// Forget every lane, keeping the strips' capacity.
    pub fn clear(&mut self) {
        self.lane_ends.clear();
        self.member_ends.clear();
        self.members.clear();
        self.seed_ends.clear();
        self.seeds.clear();
        self.seed_norms.clear();
    }

    /// Number of lanes appended so far.
    pub fn num_lanes(&self) -> usize {
        self.lane_ends.len()
    }

    /// Lane `l`'s clusters.
    pub fn lane(&self, l: usize) -> LaneClusters<'_> {
        let clusters = csr_range(&self.lane_ends, l);
        LaneClusters { table: self, first: clusters.start, end: clusters.end }
    }

    /// Cluster `pool` by its fragments' workload vectors — the same
    /// kernel, parameters and result as [`cluster_pool`] — and append the
    /// outcome as the table's next lane, returned as a view.
    pub fn push_lane<P: crate::columnar::PoolView + ?Sized>(
        &mut self,
        pool: &P,
        proxy_counters: &[CounterId],
        threshold: f64,
    ) -> LaneClusters<'_> {
        self.push_lane_with(pool, proxy_counters, threshold, &mut ClusterScratch::default())
    }

    /// [`ClusterTable::push_lane`] with the kernel's work lanes borrowed
    /// from `scratch`: a caller clustering lane after lane allocates them
    /// once, at its largest lane.
    pub(crate) fn push_lane_with<P: crate::columnar::PoolView + ?Sized>(
        &mut self,
        pool: &P,
        proxy_counters: &[CounterId],
        threshold: f64,
        scratch: &mut ClusterScratch,
    ) -> LaneClusters<'_> {
        self.members.reserve(pool.len());
        cluster_pool_into(pool, proxy_counters, threshold, self, scratch);
        self.lane_ends.push(self.member_ends.len());
        self.lane(self.num_lanes() - 1)
    }

    /// Forget every lane and split usable from rare at `min_cluster_size`
    /// from now on, keeping the strips' capacity: how a recycled table
    /// starts a window.
    pub(crate) fn reset(&mut self, min_cluster_size: usize) {
        self.clear();
        self.min_cluster_size = min_cluster_size;
    }

    /// Room for `lanes` more non-empty lanes holding `members` more
    /// members between them, and for the one cluster of `dim`-wide seed
    /// each of them has at least: a window's table is sized once, and
    /// only lanes that split into several clusters grow it further.
    pub(crate) fn reserve(&mut self, lanes: usize, members: usize, dim: usize) {
        self.lane_ends.reserve(lanes);
        self.member_ends.reserve(lanes);
        self.members.reserve(members);
        self.seed_ends.reserve(lanes);
        self.seeds.reserve(lanes * dim);
        self.seed_norms.reserve(lanes);
    }
}

/// One cluster of a [`ClusterTable`] lane, borrowed: what [`Cluster`]
/// owns.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterRef<'a> {
    /// Row indices into the lane's population, seed first.
    pub members: &'a [u32],
    /// The seed (smallest-norm) workload vector.
    pub seed: &'a [f64],
    /// Norm of the seed vector.
    pub seed_norm: f64,
}

/// One lane of a [`ClusterTable`]: that lane's [`ClusterOutcome`], read
/// in place.
#[derive(Debug, Clone, Copy)]
pub struct LaneClusters<'a> {
    table: &'a ClusterTable,
    /// The lane's clusters are `first..end` of the table's.
    first: usize,
    end: usize,
}

impl<'a> LaneClusters<'a> {
    /// Clusters in the lane, usable and rare.
    pub fn len(&self) -> usize {
        self.end - self.first
    }

    /// True for a lane that held no fragments.
    pub fn is_empty(&self) -> bool {
        self.first == self.end
    }

    /// Every cluster, in discovery (ascending seed norm) order.
    pub fn iter(&self) -> impl Iterator<Item = ClusterRef<'a>> + 'a {
        let table = self.table;
        (self.first..self.end).map(move |c| ClusterRef {
            members: &table.members[csr_range(&table.member_ends, c)],
            seed: &table.seeds[csr_range(&table.seed_ends, c)],
            seed_norm: table.seed_norms[c],
        })
    }

    /// Clusters at or above the size floor — what
    /// [`ClusterOutcome::usable`] holds, in the same order.
    pub fn usable(&self) -> impl Iterator<Item = ClusterRef<'a>> + 'a {
        let min = self.table.min_cluster_size;
        self.iter().filter(move |c| c.members.len() >= min)
    }

    /// Clusters below the size floor — [`ClusterOutcome::rare`].
    pub fn rare(&self) -> impl Iterator<Item = ClusterRef<'a>> + 'a {
        let min = self.table.min_cluster_size;
        self.iter().filter(move |c| c.members.len() < min)
    }
}

/// What normalisation reads of one lane's clustering, whichever form
/// holds it: a lane view of the window's table, or the owned outcome a
/// one-shot caller clustered itself.
pub trait LaneClustering {
    /// Member rows of each usable cluster, clusters in discovery order.
    fn usable_members(&self) -> impl Iterator<Item = &[u32]>;
}

impl LaneClustering for ClusterOutcome {
    fn usable_members(&self) -> impl Iterator<Item = &[u32]> {
        self.usable.iter().map(|c| c.members.as_slice())
    }
}

impl LaneClustering for LaneClusters<'_> {
    fn usable_members(&self) -> impl Iterator<Item = &[u32]> {
        self.usable().map(|c| c.members)
    }
}

/// Sort indices and norms shared by the pruned and unpruned scans, and
/// the per-seed distance bound (5 % of the seed norm, with an epsilon
/// floor letting zero-norm workloads cluster together).
fn sorted_by_norm(vectors: &[Vec<f64>]) -> (Vec<f64>, Vec<usize>) {
    let n = vectors.len();
    let norms: Vec<f64> = vectors.iter().map(|v| Fragment::vector_norm(v)).collect();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| norms[a].total_cmp(&norms[b]));
    (norms, order)
}

/// Map an `f64` to a `u64` whose unsigned order equals the IEEE-754
/// total order (`f64::total_cmp`). Sorting `(key, index)` pairs
/// with an unstable integer sort then reproduces a *stable*
/// `sort_by(total_cmp)` exactly: equal keys are ordered by original
/// index, which is precisely what stability means — while the sort
/// itself compares plain integers instead of chasing floats through an
/// indirection.
#[inline(always)]
fn total_cmp_key(x: f64) -> u64 {
    let bits = x.to_bits() as i64;
    let mapped = bits ^ ((((bits >> 63) as u64) >> 1) as i64);
    (mapped as u64) ^ (1u64 << 63)
}

/// The `f64` whose [`total_cmp_key`] is `key`, bit for bit (the mapping
/// flips the low 63 bits of negatives, which leaves the sign bit it
/// decides by alone, so applying it again undoes it): the sort key is
/// the norm, and the kernel keeps no second copy.
#[inline(always)]
fn norm_of_key(key: u64) -> f64 {
    let mapped = (key ^ (1u64 << 63)) as i64;
    f64::from_bits((mapped ^ ((((mapped >> 63) as u64) >> 1) as i64)) as u64)
}

fn check_dimensions(vectors: &[Vec<f64>], threshold: f64) {
    assert!(threshold > 0.0 && threshold < 1.0, "threshold out of range");
    if let Some(first) = vectors.first() {
        let dim = first.len();
        assert!(
            vectors.iter().all(|v| v.len() == dim),
            "workload vectors must share a dimension"
        );
    }
}

/// Follow the skip chain from sorted position `i` to the next position
/// that may still be unassigned, compressing the path on the way (a
/// single-parent union-find over sorted positions).
fn skip_to(skip: &mut [u32], start: u32) -> u32 {
    let mut root = start;
    while skip[root as usize] != root {
        root = skip[root as usize];
    }
    let mut i = start;
    while skip[i as usize] != root {
        let next = skip[i as usize];
        skip[i as usize] = root;
        i = next;
    }
    root
}

/// Cluster raw workload vectors. `threshold` is the relative distance
/// bound (the paper's 5 %); `min_cluster_size` separates usable from rare
/// clusters (the paper's 5).
///
/// The scan exploits the norm-sorted order twice:
///
/// * **Norm pruning** — members of a cluster seeded at norm `s` must have
///   norms in `[s, s + threshold·s]` (the reverse triangle inequality:
///   `|‖v‖ − ‖seed‖| ≤ ‖v − seed‖`), so each seed's absorb scan breaks at
///   the first candidate past that window instead of visiting the tail.
/// * **Skip pointers** — already-absorbed positions are bridged by a
///   path-compressed next-pointer chain, so overlapping clusters never
///   re-scan each other's members. Together these make the many-small-
///   clusters case near-linear after the initial `O(n log n)` sort.
pub fn cluster_vectors(
    vectors: &[Vec<f64>],
    threshold: f64,
    min_cluster_size: usize,
) -> ClusterOutcome {
    check_dimensions(vectors, threshold);
    let n = vectors.len();
    if n == 0 {
        return ClusterOutcome { usable: vec![], rare: vec![] };
    }
    let dim = vectors.first().map(Vec::len).unwrap_or(0);
    let mut data = Vec::with_capacity(n * dim);
    for v in vectors {
        data.extend_from_slice(v);
    }
    cluster_lanes(&data, n, dim, threshold, min_cluster_size)
}

/// Cluster a contiguous row-major `n × dim` matrix of workload vectors —
/// the SoA-native form of [`cluster_vectors`], as an owned outcome.
pub fn cluster_lanes(
    data: &[f64],
    n: usize,
    dim: usize,
    threshold: f64,
    min_cluster_size: usize,
) -> ClusterOutcome {
    let mut sink = OwnedClusters::default();
    let (mut keyed, mut skip) = (Vec::new(), Vec::new());
    cluster_lanes_into(data, n, dim, threshold, &mut sink, &mut keyed, &mut skip);
    split_by_size(sink.clusters, min_cluster_size)
}

/// The clustering kernel's work lanes: a lane's workload matrix, its
/// sort keys and the scan's skip chain. Cleared, never shrunk, between
/// lanes, so a caller that clusters lane after lane — a window's
/// detection, with the scratch it recycles beside the window's pool —
/// allocates them once instead of three times a lane.
#[derive(Debug, Default)]
pub(crate) struct ClusterScratch {
    /// The lane's workload vectors, row-major, zero-padded to one width.
    data: Vec<f64>,
    /// `(total_cmp_key(norm), row)`, sorted: the norm-ordered rows.
    keyed: Vec<(u64, u32)>,
    /// The absorb scan's skip chain over sorted positions.
    skip: Vec<u32>,
}

/// The kernel every entry point lowers to: cluster a row-major `n × dim`
/// matrix into `sink`. The whole pipeline runs over adjacent memory:
///
/// 1. sort keys are built in one streaming pass over the flat strip,
///    each the `(total_cmp_key(norm), index)` pair — the key is the
///    norm, recovered bit for bit by [`norm_of_key`];
/// 2. the pairs are sorted with `sort_unstable` — integer order on the
///    pair is norm order with index tie-break, which is exactly a
///    *stable* `sort_by(total_cmp)` with no float comparisons at all;
/// 3. the absorb scan walks the sorted pairs sequentially and evaluates
///    distances row against row, with the kernel specialised for the
///    small dimensions workload proxies actually have.
///
/// `keyed` and `skip` are work lanes whose contents are overwritten.
fn cluster_lanes_into<S: ClusterSink>(
    data: &[f64],
    n: usize,
    dim: usize,
    threshold: f64,
    sink: &mut S,
    keyed: &mut Vec<(u64, u32)>,
    skip: &mut Vec<u32>,
) {
    assert!(threshold > 0.0 && threshold < 1.0, "threshold out of range");
    assert_eq!(data.len(), n * dim, "lane data must be a dense n x dim matrix");
    assert!(n <= u32::MAX as usize, "population exceeds the u32 index space");
    if n == 0 {
        return;
    }

    keyed.clear();
    keyed.reserve(n);
    for i in 0..n {
        let row = &data[i * dim..(i + 1) * dim];
        let norm = row.iter().map(|x| x * x).sum::<f64>().sqrt();
        keyed.push((total_cmp_key(norm), i as u32));
    }
    keyed.sort_unstable();

    match dim {
        1 => greedy_scan(data, keyed, 1, threshold, dist_sq_fixed::<1>, sink, skip),
        2 => greedy_scan(data, keyed, 2, threshold, dist_sq_fixed::<2>, sink, skip),
        3 => greedy_scan(data, keyed, 3, threshold, dist_sq_fixed::<3>, sink, skip),
        4 => greedy_scan(data, keyed, 4, threshold, dist_sq_fixed::<4>, sink, skip),
        _ => greedy_scan(data, keyed, dim, threshold, dist_sq, sink, skip),
    }
}

/// Algorithm 1's greedy absorb scan over the norm-sorted order. The
/// sorted `(key, row)` lane streams forward; vector rows are gathered
/// from `data` through it. The float semantics are the original ones
/// verbatim — same bound and cutoff formulas, same left-to-right
/// distance summation, members reported to the sink in
/// seed-then-ascending-sorted-position order — so the outcome is
/// bit-identical to the exhaustive reference.
fn greedy_scan<F: Fn(&[f64], &[f64]) -> f64, S: ClusterSink>(
    data: &[f64],
    keyed: &[(u64, u32)],
    dim: usize,
    threshold: f64,
    dist: F,
    sink: &mut S,
    skip: &mut Vec<u32>,
) {
    let n = keyed.len();
    // Row of the vector at sorted position `p`.
    let row = |p: usize| {
        let i = keyed[p].1 as usize;
        &data[i * dim..(i + 1) * dim]
    };
    // skip[p] = next possibly-unassigned sorted position ≥ p. The hot
    // loop advances with an inlined fast path — `skip[next] == next`
    // (the next position was never absorbed) is the overwhelmingly
    // common case — and only falls back to the path-compressing chain
    // walk when clusters interleave.
    skip.clear();
    skip.extend(0..=n as u32);
    let advance = |skip: &mut [u32], next: u32| {
        if skip[next as usize] == next {
            next
        } else {
            skip_to(skip, next)
        }
    };

    let mut pos = 0u32;
    loop {
        // Seed: smallest-norm unprocessed fragment (Algorithm 1, line 4).
        pos = advance(skip, pos);
        let p = pos as usize;
        if p >= n {
            break;
        }
        let seed = row(p);
        let seed_norm = norm_of_key(keyed[p].0);
        let bound = (threshold * seed_norm).max(1e-9);
        let bound_sq = bound * bound;
        // Break margin: the norm prune must only drop candidates that are
        // *certainly* out of range, so the distance predicate — shared
        // with the unpruned reference — stays the sole decision maker
        // even at floating-point boundaries.
        let norm_cutoff = bound + (seed_norm + seed_norm * threshold) * 1e-12;

        // The norm window bounds the membership.
        let window_end = p
            + 1
            + keyed[p + 1..].partition_point(|&(key, _)| norm_of_key(key) - seed_norm <= norm_cutoff);
        sink.member(keyed[p].1);
        skip[p] = pos + 1;
        let mut j = advance(skip, pos + 1);
        while (j as usize) < window_end {
            let jj = j as usize;
            if dist(seed, row(jj)) <= bound_sq {
                sink.member(keyed[jj].1);
                skip[jj] = j + 1;
            }
            j = advance(skip, j + 1);
        }
        sink.close_cluster(seed, seed_norm);
    }
}

/// Distance kernel for a compile-time dimension: the loop fully unrolls,
/// keeping the accumulation order identical to [`dist_sq`].
#[inline(always)]
fn dist_sq_fixed<const D: usize>(a: &[f64], b: &[f64]) -> f64 {
    let mut acc = 0.0;
    for k in 0..D {
        let d = a[k] - b[k];
        acc += d * d;
    }
    acc
}

/// Reference implementation of Algorithm 1 without the norm prune or the
/// skip pointers: every seed's absorb scan visits every remaining
/// candidate. `O(n·k)` for `k` clusters — kept for the property tests
/// (`cluster_vectors` must produce the identical [`ClusterOutcome`]) and
/// the clustering benchmark's pruned-vs-unpruned comparison.
pub fn cluster_vectors_unpruned(
    vectors: &[Vec<f64>],
    threshold: f64,
    min_cluster_size: usize,
) -> ClusterOutcome {
    check_dimensions(vectors, threshold);
    let n = vectors.len();
    if n == 0 {
        return ClusterOutcome { usable: vec![], rare: vec![] };
    }
    let (norms, order) = sorted_by_norm(vectors);

    let mut assigned = vec![false; n];
    let mut clusters: Vec<Cluster> = Vec::new();
    let row = |i: usize| u32::try_from(i).expect("population exceeds the u32 index space");
    for cursor in 0..n {
        let seed_idx = order[cursor];
        if assigned[seed_idx] {
            continue;
        }
        let seed = &vectors[seed_idx];
        let seed_norm = norms[seed_idx];
        let bound = (threshold * seed_norm).max(1e-9);
        let bound_sq = bound * bound;
        let mut members = vec![row(seed_idx)];
        assigned[seed_idx] = true;
        for &j in order[cursor + 1..].iter() {
            if assigned[j] {
                continue;
            }
            if dist_sq(seed, &vectors[j]) <= bound_sq {
                members.push(row(j));
                assigned[j] = true;
            }
        }
        clusters.push(Cluster { members, seed: seed.clone(), seed_norm });
    }

    split_by_size(clusters, min_cluster_size)
}

/// Cluster any pooled population by its fragments' workload vectors
/// (computation fragments use `proxy_counters`; invocation fragments use
/// their argument vectors), read through the [`PoolView`] accessors, as
/// an owned outcome — the one-shot form of [`ClusterTable::push_lane`].
pub fn cluster_pool<P: crate::columnar::PoolView + ?Sized>(
    pool: &P,
    proxy_counters: &[CounterId],
    threshold: f64,
    min_cluster_size: usize,
) -> ClusterOutcome {
    let mut sink = OwnedClusters::default();
    cluster_pool_into(pool, proxy_counters, threshold, &mut sink, &mut ClusterScratch::default());
    split_by_size(sink.clusters, min_cluster_size)
}

/// Workload values go straight into one flat matrix, the scratch's; no
/// per-fragment vector is ever materialised, and pooled fragments stay
/// where their owner keeps them.
fn cluster_pool_into<P: crate::columnar::PoolView + ?Sized, S: ClusterSink>(
    pool: &P,
    proxy_counters: &[CounterId],
    threshold: f64,
    sink: &mut S,
    scratch: &mut ClusterScratch,
) {
    let ClusterScratch { data, keyed, skip } = scratch;
    let n = pool.len();
    // Mixed-kind inputs could have ragged dimensions; pad to the max.
    let dim = pool.workload_dim(proxy_counters);
    data.clear();
    data.reserve(n * dim);
    for i in 0..n {
        pool.extend_workload_lane(i, proxy_counters, dim, data);
    }
    cluster_lanes_into(data, n, dim, threshold, sink, keyed, skip);
}

fn dist_sq(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vecs(values: &[f64]) -> Vec<Vec<f64>> {
        values.iter().map(|&v| vec![v]).collect()
    }

    #[test]
    fn distinct_workloads_separate() {
        // Two tight groups far apart.
        let mut vals = vec![];
        vals.extend(std::iter::repeat_n(1000.0, 10));
        vals.extend(std::iter::repeat_n(5000.0, 10));
        let out = cluster_vectors(&vecs(&vals), 0.05, 5);
        assert_eq!(out.usable.len(), 2);
        assert!(out.rare.is_empty());
        assert_eq!(out.usable[0].len(), 10);
    }

    #[test]
    fn pmu_jitter_within_threshold_merges() {
        // 0.3 % jitter around one workload: one cluster.
        let vals: Vec<f64> = (0..50).map(|i| 1000.0 * (1.0 + 0.003 * ((i % 7) as f64 - 3.0))).collect();
        let out = cluster_vectors(&vecs(&vals), 0.05, 5);
        assert_eq!(out.usable.len(), 1);
        assert_eq!(out.usable[0].len(), 50);
    }

    #[test]
    fn seed_is_smallest_norm() {
        let out = cluster_vectors(&vecs(&[5000.0, 1000.0, 1010.0, 990.0, 1005.0, 1001.0]), 0.05, 5);
        assert_eq!(out.usable.len(), 1);
        assert!((out.usable[0].seed_norm - 990.0).abs() < 1e-9);
        assert_eq!(out.rare.len(), 1); // the lone 5000
    }

    #[test]
    fn small_clusters_are_reported_as_rare() {
        let mut vals = vec![100.0; 20];
        vals.push(9_999.0); // a once-executed path
        let out = cluster_vectors(&vecs(&vals), 0.05, 5);
        assert_eq!(out.usable.len(), 1);
        assert_eq!(out.rare.len(), 1);
        assert_eq!(out.rare[0].len(), 1);
    }

    #[test]
    fn paper_example_instruction_ranges() {
        // "fragments within 1000-1050 instructions and 200-210 load/store
        // instructions are put into the same cluster" (§3.4).
        let vectors: Vec<Vec<f64>> = vec![
            vec![1000.0, 200.0],
            vec![1025.0, 205.0],
            vec![1050.0, 210.0],
            vec![1010.0, 202.0],
            vec![1040.0, 208.0],
            // distinctly different workload
            vec![2000.0, 400.0],
            vec![2010.0, 401.0],
            vec![2004.0, 399.0],
            vec![1998.0, 402.0],
            vec![2002.0, 400.0],
        ];
        let out = cluster_vectors(&vectors, 0.05, 5);
        assert_eq!(out.usable.len(), 2);
        assert_eq!(out.usable[0].len(), 5);
        assert_eq!(out.usable[1].len(), 5);
    }

    #[test]
    fn zero_vectors_cluster_together() {
        let out = cluster_vectors(&vecs(&[0.0; 8]), 0.05, 5);
        assert_eq!(out.usable.len(), 1);
        assert_eq!(out.usable[0].len(), 8);
    }

    #[test]
    fn chain_does_not_bridge_through_threshold() {
        // A chain 1000, 1049, 1100, 1153…: each within 5 % of the previous
        // but not of the seed. Greedy-from-seed must split the chain rather
        // than absorb it all (unlike single-linkage clustering).
        let vals = [1000.0, 1049.0, 1100.0, 1153.0, 1209.0, 1268.0];
        let out = cluster_vectors(&vecs(&vals), 0.05, 1);
        assert!(out.usable.len() >= 3, "got {} clusters", out.usable.len());
    }

    #[test]
    fn labels_cover_every_fragment() {
        let vals = [10.0, 10.0, 10.0, 10.0, 10.0, 999.0];
        let out = cluster_vectors(&vecs(&vals), 0.05, 5);
        let labels = out.all_labels(6);
        assert_eq!(labels.len(), 6);
        assert_eq!(labels[0], labels[4]);
        assert_ne!(labels[0], labels[5]);
        let opt = out.labels(6);
        assert!(opt[5].is_none()); // rare cluster → None
        assert_eq!(opt[0], Some(0));
    }

    #[test]
    fn empty_input_is_fine() {
        let out = cluster_vectors(&[], 0.05, 5);
        assert!(out.usable.is_empty() && out.rare.is_empty());
        assert_eq!(out.total_members(), 0);
    }

    #[test]
    fn linear_scan_terminates_on_large_uniform_input() {
        // A smoke test that the forward scan's early break works: 100k
        // identical vectors cluster in one pass.
        let vals = vec![42.0; 100_000];
        let out = cluster_vectors(&vecs(&vals), 0.05, 5);
        assert_eq!(out.usable.len(), 1);
        assert_eq!(out.usable[0].len(), 100_000);
    }

    #[test]
    #[should_panic(expected = "share a dimension")]
    fn ragged_vectors_are_rejected() {
        let _ = cluster_vectors(&[vec![1.0], vec![1.0, 2.0]], 0.05, 5);
    }

    #[test]
    fn pruned_matches_unpruned_on_interleaved_clusters() {
        // Many clusters whose norm windows interleave — the case the skip
        // pointers exist for. The pruned scan must produce the identical
        // outcome to the exhaustive reference.
        let mut vals = vec![];
        for c in 0..40 {
            let base = 100.0 * 1.07f64.powi(c);
            for i in 0..7 {
                vals.push(base * (1.0 + 0.004 * (i as f64 - 3.0)));
            }
        }
        // Shuffle deterministically so input order ≠ norm order.
        let mut state = 0x9E3779B97F4A7C15u64;
        for i in (1..vals.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let j = (state >> 33) as usize % (i + 1);
            vals.swap(i, j);
        }
        let vecs = vecs(&vals);
        assert_eq!(
            cluster_vectors(&vecs, 0.05, 5),
            cluster_vectors_unpruned(&vecs, 0.05, 5)
        );
    }

    /// ≈6,000 shuffled vectors — the size of `repro`'s largest lane —
    /// mixing interleaved clusters, exact norm ties between different
    /// vectors, near-ties 1e-9 relative apart and ±0.0. At dim 2 the
    /// exact ties swap components, so tied norms carry different seeds
    /// and only a stable norm order picks the reference's one.
    fn large_population(dim: usize) -> Vec<Vec<f64>> {
        let row = |x: f64, flip: bool| match (dim, flip) {
            (1, _) => vec![x],
            (_, false) => vec![0.8 * x, 0.6 * x],
            (_, true) => vec![0.6 * x, 0.8 * x],
        };
        let mut vectors = Vec::with_capacity(6_000);
        for c in 0..150 {
            let base = 100.0 * 1.03f64.powi(c);
            for i in 0..30 {
                vectors.push(row(base * (1.0 + 0.0007 * (i % 29) as f64 - 0.01), i % 2 == 0));
            }
        }
        for i in 0..580 {
            vectors.push(row(250.0 * (1 + i % 10) as f64, i % 2 == 0));
        }
        // Lone vectors far apart: rare clusters.
        for i in 0..20 {
            vectors.push(row(1e7 * 1.5f64.powi(i), i % 2 == 0));
        }
        for (b, base) in [7777.0, 31337.5, 5e5].into_iter().enumerate() {
            for k in 0..200 {
                vectors.push(row(base * (1.0 + ((k * 7 + b) % 17) as f64 * 1e-9), k % 3 == 0));
            }
        }
        for i in 0..300 {
            let z = if i % 2 == 0 { 0.0 } else { -0.0 };
            vectors.push(if dim == 1 { vec![z] } else { vec![z, -z] });
        }
        let mut state = 0x2545F4914F6CDD1Du64;
        for i in (1..vectors.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            vectors.swap(i, (state >> 33) as usize % (i + 1));
        }
        vectors
    }

    /// Usable then rare clusters by members, seed bits and seed-norm
    /// bits: `==` on `f64` would let `-0.0` stand in for `0.0`.
    fn outcome_bits(o: &ClusterOutcome) -> Vec<(bool, Vec<u32>, Vec<u64>, u64)> {
        let usable = o.usable.iter().map(|c| (true, c));
        let rare = o.rare.iter().map(|c| (false, c));
        usable
            .chain(rare)
            .map(|(u, c)| {
                let seed = c.seed.iter().map(|x| x.to_bits()).collect();
                (u, c.members.clone(), seed, c.seed_norm.to_bits())
            })
            .collect()
    }

    #[test]
    fn large_population_matches_unpruned_bit_for_bit() {
        for dim in [1, 2] {
            let vectors = large_population(dim);
            assert_eq!(vectors.len(), 6_000);
            let pruned = cluster_vectors(&vectors, 0.05, 5);
            let reference = cluster_vectors_unpruned(&vectors, 0.05, 5);
            assert_eq!(pruned.total_members(), vectors.len());
            assert!(pruned.usable.len() > 50 && pruned.rare.len() >= 20, "dim {dim}");
            assert_eq!(outcome_bits(&pruned), outcome_bits(&reference), "dim {dim}");
        }
    }

    #[test]
    fn total_cmp_key_orders_like_total_cmp() {
        let samples = [
            0.0,
            -0.0,
            1.0,
            -1.0,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            1e308,
            -1e308,
            42.5,
            f64::EPSILON,
        ];
        for &a in &samples {
            for &b in &samples {
                assert_eq!(
                    total_cmp_key(a).cmp(&total_cmp_key(b)),
                    a.total_cmp(&b),
                    "key order diverged for {a:?} vs {b:?}"
                );
            }
            assert_eq!(norm_of_key(total_cmp_key(a)).to_bits(), a.to_bits(), "{a:?} did not round-trip");
        }
    }

    #[test]
    fn lanes_and_nested_entry_points_agree() {
        // The nested-vector API is a thin wrapper over the flat kernel;
        // feeding the same matrix through both must be identical,
        // including a zero-dimension population (all-empty vectors form
        // one cluster).
        let vectors: Vec<Vec<f64>> = (0..40)
            .map(|i| {
                let base = if i % 3 == 0 { 1000.0 } else { 4000.0 };
                vec![base + i as f64, base * 0.2, 7.0]
            })
            .collect();
        let flat: Vec<f64> = vectors.iter().flatten().copied().collect();
        assert_eq!(
            cluster_vectors(&vectors, 0.05, 5),
            cluster_lanes(&flat, vectors.len(), 3, 0.05, 5)
        );
        let empties: Vec<Vec<f64>> = vec![vec![]; 9];
        let out = cluster_lanes(&[], 9, 0, 0.05, 5);
        assert_eq!(cluster_vectors(&empties, 0.05, 5), out);
        assert_eq!(out.usable.len(), 1);
        assert_eq!(out.usable[0].len(), 9);
    }

    #[test]
    fn wide_vectors_use_the_dynamic_distance_kernel() {
        // dim > 4 exercises the fallback distance path; equivalence with
        // the unpruned reference still must hold bit-for-bit.
        let vectors: Vec<Vec<f64>> = (0..60)
            .map(|i| {
                let base = 500.0 * 1.4f64.powi(i % 5);
                (0..7).map(|k| base * (1.0 + 0.002 * ((i + k) % 3) as f64)).collect()
            })
            .collect();
        assert_eq!(
            cluster_vectors(&vectors, 0.05, 5),
            cluster_vectors_unpruned(&vectors, 0.05, 5)
        );
    }

    #[test]
    fn extended_proxy_separates_what_tot_ins_cannot() {
        // Two workloads with identical instruction counts but very
        // different memory behaviour (the paper's motivation for letting
        // users add load/store metrics to the proxy).
        use crate::fragment::{Fragment, FragmentKind, DEFAULT_PROXY, EXTENDED_PROXY};
        use vapro_pmu::{CounterDelta, CounterId};
        use vapro_sim::VirtualTime;
        let mk = |ins: f64, loads: f64, stores: f64, i: u64| {
            let mut c = CounterDelta::default();
            c.put(CounterId::TotIns, ins);
            c.put(CounterId::LoadsL1Hit, loads);
            c.put(CounterId::Stores, stores);
            Fragment {
                rank: 0,
                kind: FragmentKind::Computation,
                start: VirtualTime::from_ns(i * 100),
                end: VirtualTime::from_ns(i * 100 + 50),
                counters: c,
                args: vec![],
            }
        };
        let mut frags = vec![];
        for i in 0..6 {
            frags.push(mk(10_000.0, 4_000.0, 1_000.0, i)); // memory-heavy
        }
        for i in 6..12 {
            frags.push(mk(10_000.0, 500.0, 100.0, i)); // compute-heavy
        }
        let pool = crate::columnar::ColumnarPool::single_lane(&frags);
        let narrow = cluster_pool(&pool.all(), &DEFAULT_PROXY, 0.05, 5);
        let wide = cluster_pool(&pool.all(), &EXTENDED_PROXY, 0.05, 5);
        // TOT_INS alone cannot tell them apart…
        assert_eq!(narrow.usable.len(), 1);
        // …the extended proxy can.
        assert_eq!(wide.usable.len(), 2);
    }
}
