//! Fixtures shared by vapro-core's integration tests. Each test binary
//! uses some of them, so the rest are dead code there.
#![allow(dead_code)]

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vapro_core::{ClusterTable, ColumnarPool, Fragment, FragmentKind, StateKey, Stg, VaproConfig};
use vapro_pmu::{events, CounterDelta, CounterId, CpuConfig, CpuModel, JitterModel, NoiseEnv, WorkloadSpec};
use vapro_sim::{CallSite, VirtualTime};
use vapro_vopr::reference::whole_run_batches;

/// Every fragment of the rank-indexed STGs in one pool.
pub fn whole_pool(stgs: &[Stg]) -> ColumnarPool {
    ColumnarPool::from_batches(&whole_run_batches(stgs), None)
}

/// The edge lanes' clusterings, as detection computes them.
pub fn edge_clusters(sealed: &ColumnarPool, cfg: &VaproConfig) -> ClusterTable {
    let mut table = ClusterTable::new(cfg.min_cluster_size);
    for e in 0..sealed.num_edges() {
        table.push_lane(&sealed.edge(e).2, &cfg.proxy_counters, cfg.cluster_threshold);
    }
    table
}

/// A single-site looping STG: `n` iterations of ~`period_ns` on the
/// site's self-loop, the `slow_range` iterations 3x slower.
pub fn looped_stg(rank: usize, n: usize, period_ns: u64, slow_range: std::ops::Range<usize>) -> Stg {
    let site = StateKey::Site(CallSite("w:MPI_Barrier"));
    stg_over([site.clone(), site], false, rank, n, period_ns, slow_range)
}

/// `n` back-to-back computation fragments alternating between the
/// edges `x → y` and `y → x` (one self-loop when `x == y`); with
/// `entry_carries` the first one runs on `Start → x` instead.
pub fn stg_over(
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

/// Build per-rank STGs: `nranks` ranks run the same fixed workload;
/// `slow_rank` suffers memory contention inside `[t0, t1)`.
pub fn stgs_with_noise(nranks: usize, n: usize, slow_rank: usize, window: (u64, u64)) -> Vec<Stg> {
    let model = CpuModel::with_jitter(CpuConfig::default(), JitterModel::exact());
    let spec = WorkloadSpec::memory_bound(2e6);
    (0..nranks)
        .map(|rank| {
            let mut rng = ChaCha8Rng::seed_from_u64(rank as u64);
            let mut stg = Stg::new();
            let s0 = stg.state(StateKey::Start);
            let s1 = stg.state(StateKey::Site(CallSite("roi:MPI_Barrier")));
            stg.transition(s0, s1);
            let e = stg.transition(s1, s1);
            let mut t = 0u64;
            for _ in 0..n {
                let noisy = rank == slow_rank && t >= window.0 && t < window.1;
                let env = if noisy {
                    NoiseEnv { mem_contention: 2.0, ..NoiseEnv::default() }
                } else {
                    NoiseEnv::quiet()
                };
                let out = model.execute(&spec, &env, &mut rng);
                let start = VirtualTime::from_ns(t);
                let end = start + VirtualTime::from_ns_f64(out.wall_ns);
                t = end.ns() + 500;
                stg.attach_edge_fragment(
                    e,
                    Fragment {
                        rank,
                        kind: FragmentKind::Computation,
                        start,
                        end,
                        counters: out.counters.project(events::s3_memory_set()),
                        args: vec![],
                    },
                );
            }
            stg
        })
        .collect()
}
