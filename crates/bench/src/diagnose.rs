//! Region-diagnosis throughput harness: the numbers behind
//! `BENCH_diagnose.json`.
//!
//! Compares three ways of diagnosing the same regions of interest on one
//! synthetic multi-rank run:
//!
//! * **naive** — a frozen copy of the pre-batching `diagnose_region`:
//!   every region re-merges all the STGs, re-clusters the winning pool,
//!   clones the whole cluster population once up front and once more per
//!   drill-down step;
//! * **batch-seq** — `diagnose_regions_seq`: merge once, binary-search an
//!   interval index per pool, memoize cluster outcomes, and feed the
//!   drill-down from a borrowing scratch provider;
//! * **batch-par** — `diagnose_regions`: the same batch fanned out over
//!   rayon, bit-identical to the sequential path.
//!
//! The crate enables vapro-core's `clone-count` feature so the report can
//! prove, at optimised speeds, that the batch path performs zero
//! [`Fragment`] clones while the naive loop pays thousands. The
//! `perf diagnose` subcommand writes the result as `BENCH_diagnose.json`;
//! [`crate::regression`] compares a fresh run against the previous file
//! under the same noise-aware tolerance as the other gates (every timed
//! metric is a median over ≥30 warmed-up samples; see [`crate::stats`]).

use crate::perf::detected_threads;
use crate::regression::{one_thread_fanout_failure, GatedMetric, PerfReport};
use crate::stats::{self, TrendPoint};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use vapro_core::clustering::cluster_pool;
use vapro_core::detect::pipeline::{detect_seq, merge_stgs};
use vapro_core::diagnose::{
    diagnose_progressively, diagnose_regions, diagnose_regions_seq, DiagnosisReport,
};
use vapro_core::fragment::clone_count;
use vapro_core::{Fragment, FragmentKind, RegionOfInterest, StateKey, Stg, VaproConfig};
use vapro_pmu::{events, CounterSet, CpuConfig, CpuModel, JitterModel, NoiseEnv, WorkloadSpec};
use vapro_sim::{CallSite, VirtualTime};

/// One harness run, serialised to `BENCH_diagnose.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiagnosePerf {
    /// Harness identifier (always `"diagnose"`).
    pub bench: String,
    /// Detected hardware threads on the runner.
    pub threads: usize,
    /// Ranks in the synthetic run.
    pub ranks: usize,
    /// Total fragments across all ranks' STGs.
    pub fragments: usize,
    /// Merged STG locations (vertices + edges).
    pub locations: usize,
    /// Regions of interest diagnosed per pass (detected variance regions
    /// plus a rank × time grid of user-style selections).
    pub regions: usize,
    /// Regions that produced a diagnosis report.
    pub diagnosed: usize,
    /// Timed samples per metric (after warmup); at least
    /// [`stats::MIN_SAMPLES`]. Zero on reports predating the
    /// multi-sample methodology.
    pub samples: usize,
    /// Median-of-samples wall time of the naive per-region loop, ns.
    pub naive_ns: f64,
    /// Median-of-samples wall time of the sequential batch (incl. the merge), ns.
    pub batch_seq_ns: f64,
    /// Median-of-samples wall time of the parallel batch (incl. the merge), ns.
    pub batch_ns: f64,
    /// Naive loop throughput, regions/second (from the median).
    pub naive_regions_per_sec: f64,
    /// Relative noise of the naive timing (MAD/median).
    pub naive_noise_frac: f64,
    /// Sequential batch throughput, regions/second (from the median).
    pub batch_seq_regions_per_sec: f64,
    /// Relative noise of the sequential batch timing (MAD/median).
    pub batch_seq_noise_frac: f64,
    /// Parallel batch throughput, regions/second (from the median).
    pub batch_regions_per_sec: f64,
    /// Relative noise of the parallel batch timing (MAD/median).
    pub batch_noise_frac: f64,
    /// `naive_ns / batch_seq_ns` — the algorithmic win of merge-once +
    /// interval index + cluster reuse, independent of thread count.
    pub batch_speedup: f64,
    /// `batch_seq_ns / batch_ns`, or `None` on single-core runners where
    /// the fan-out cannot speed anything up.
    pub parallel_speedup: Option<f64>,
    /// [`Fragment`] clones one full naive pass performs.
    pub naive_fragment_clones: u64,
    /// [`Fragment`] clones one full sequential batch pass performs on
    /// the measuring thread (must be 0).
    pub batch_fragment_clones: u64,
    /// One headline point per harness run, carried forward from the
    /// previous BENCH file (bounded; see [`stats::MAX_TREND_POINTS`]).
    pub history: Vec<TrendPoint>,
}

/// Build per-rank STGs with enough counter depth to diagnose: `sites`
/// call sites per rank, each a self-loop carrying computation fragments
/// of a site-specific memory-bound workload with full stage-3 memory
/// counters, plus an invocation fragment every few iterations (so both
/// the vertex and the edge of every site are fragment-bearing merged
/// locations). The last rank suffers 2× memory contention over the
/// middle third of its iterations — the variance the regions probe.
pub fn diagnostic_stgs(nranks: usize, frags_per_rank: usize, sites: usize, seed: u64) -> Vec<Stg> {
    let sites = sites.max(1);
    let names: Vec<&'static str> = (0..sites)
        .map(|j| &*Box::leak(format!("diag:site{j:02}").into_boxed_str()))
        .collect();
    let model = CpuModel::with_jitter(CpuConfig::default(), JitterModel::exact());
    let specs: Vec<WorkloadSpec> = (0..sites)
        .map(|j| WorkloadSpec::memory_bound(1e6 * (1.0 + j as f64 * 0.5)))
        .collect();
    (0..nranks)
        .map(|rank| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (rank as u64).wrapping_mul(0x9E37));
            let mut stg = Stg::new();
            let start = stg.state(StateKey::Start);
            let states: Vec<_> = names
                .iter()
                .map(|&n| stg.state(StateKey::Site(CallSite(n))))
                .collect();
            let loops: Vec<_> = states.iter().map(|&s| stg.transition(s, s)).collect();
            stg.transition(start, states[0]);
            let mut t = 0u64;
            for i in 0..frags_per_rank {
                let j = i % sites;
                let noisy = rank == nranks - 1
                    && (frags_per_rank / 3..2 * frags_per_rank / 3).contains(&i);
                let env = if noisy {
                    NoiseEnv { mem_contention: 2.0, ..NoiseEnv::default() }
                } else {
                    NoiseEnv::quiet()
                };
                let out = model.execute(&specs[j], &env, &mut rng);
                let f_start = VirtualTime::from_ns(t);
                let f_end = f_start + VirtualTime::from_ns_f64(out.wall_ns);
                t = f_end.ns() + 200;
                stg.attach_edge_fragment(
                    loops[j],
                    Fragment {
                        rank,
                        kind: FragmentKind::Computation,
                        start: f_start,
                        end: f_end,
                        counters: out.counters.project(events::s3_memory_set()),
                        args: vec![],
                    },
                );
                // Coprime with any reasonable site count, so round-robin
                // site visiting leaves every vertex fragment-bearing.
                if i % 7 == 0 {
                    stg.attach_vertex_fragment(
                        states[j],
                        Fragment {
                            rank,
                            kind: FragmentKind::Communication,
                            start: VirtualTime::from_ns(t),
                            end: VirtualTime::from_ns(t + 10),
                            counters: Default::default(),
                            args: vec![64.0, 1.0],
                        },
                    );
                    t += 10;
                }
            }
            stg
        })
        .collect()
}

/// Latest fragment end across the run, ns.
fn t_end_ns(stgs: &[Stg]) -> u64 {
    stgs.iter()
        .flat_map(|s| {
            s.vertices()
                .iter()
                .flat_map(|v| v.fragments.iter())
                .chain(s.edges().iter().flat_map(|e| e.fragments.iter()))
        })
        .map(|f| f.end.ns())
        .max()
        .unwrap_or(0)
}

/// The regions of interest one pass diagnoses: every variance region
/// detection finds, plus a `nranks × grid_cols` grid of single-rank time
/// windows — the paper's "users are able to select regions of interest
/// on the heat map" flow, where most selections hit quiet territory.
pub fn rois_for(stgs: &[Stg], nranks: usize, grid_cols: usize, cfg: &VaproConfig) -> Vec<RegionOfInterest> {
    let detection = detect_seq(stgs, nranks, 32, cfg);
    let mut rois: Vec<RegionOfInterest> =
        detection.comp_regions.iter().map(RegionOfInterest::from).collect();
    let col_ns = (t_end_ns(stgs) / grid_cols.max(1) as u64).max(1);
    for rank in 0..nranks {
        for col in 0..grid_cols {
            rois.push(RegionOfInterest {
                ranks: (rank, rank),
                t_start: VirtualTime::from_ns(col as u64 * col_ns),
                t_end: VirtualTime::from_ns((col as u64 + 1) * col_ns),
            });
        }
    }
    rois
}

/// The pre-batching `diagnose_region`, frozen as the bench baseline. It
/// re-merges the STGs for every region, re-clusters the winning pool
/// from scratch, clones the cluster population once, and clones it again
/// for every counter set the drill-down requests.
pub fn naive_diagnose_region(
    stgs: &[Stg],
    roi: &RegionOfInterest,
    cfg: &VaproConfig,
) -> Option<DiagnosisReport> {
    let merged = merge_stgs(stgs);
    let covers = |f: &Fragment| {
        f.rank >= roi.ranks.0
            && f.rank <= roi.ranks.1
            && f.start < roi.t_end
            && f.end > roi.t_start
    };

    let mut best: Option<(&[&Fragment], u64)> = None;
    for (_, pool) in &merged.edges {
        let in_region: u64 = pool
            .iter()
            .filter(|f| f.kind == FragmentKind::Computation && covers(f))
            .map(|f| f.duration().ns())
            .sum();
        if in_region > 0 && best.as_ref().is_none_or(|(_, t)| in_region > *t) {
            best = Some((pool.as_slice(), in_region));
        }
    }
    let (pool, _) = best?;

    let outcome = cluster_pool(
        pool,
        &cfg.proxy_counters,
        cfg.cluster_threshold,
        cfg.min_cluster_size,
    );
    let cluster = outcome.usable.iter().max_by_key(|c| c.members.len())?;
    let population: Vec<Fragment> =
        cluster.members.iter().map(|&m| pool[m].clone()).collect();

    let mut provider = move |set: CounterSet| -> Vec<Fragment> {
        population
            .iter()
            .map(|f| Fragment { counters: f.counters.project(set), ..f.clone() })
            .collect()
    };
    diagnose_progressively(&mut provider, cfg.ka_abnormal, cfg.major_factor_threshold, 0.05)
}

/// Run the full measurement: equivalence first, then clone accounting,
/// then multi-sample timings of all three paths (`reps` requested
/// samples, floored at [`stats::MIN_SAMPLES`], after a warmup phase).
/// The batch timings include their single merge — the naive loop pays
/// one merge *per region*, and that difference is the point.
pub fn measure(
    nranks: usize,
    frags_per_rank: usize,
    sites: usize,
    grid_cols: usize,
    reps: usize,
) -> DiagnosePerf {
    let cfg = VaproConfig::default();
    let stgs = diagnostic_stgs(nranks, frags_per_rank, sites, 0xD1A6);
    let fragments: usize = stgs.iter().map(Stg::total_fragments).sum();
    let merged = merge_stgs(&stgs);
    let locations = merged.vertices.len() + merged.edges.len();
    let rois = rois_for(&stgs, nranks, grid_cols, &cfg);

    // Determinism sanity: the batch must reproduce the naive loop
    // bit-for-bit — sequentially and under the fan-out — before its
    // timing means anything.
    let naive_out: Vec<Option<DiagnosisReport>> =
        rois.iter().map(|r| naive_diagnose_region(&stgs, r, &cfg)).collect();
    let batch_seq_out = diagnose_regions_seq(&merged, &rois, &cfg);
    let batch_out = diagnose_regions(&merged, &rois, &cfg);
    assert_eq!(naive_out, batch_seq_out, "batched diagnosis diverged from the naive loop");
    assert_eq!(batch_seq_out, batch_out, "parallel batch diverged from sequential");
    let diagnosed = batch_out.iter().filter(|r| r.is_some()).count();

    // Clone accounting per full pass, on this thread only: both loops
    // below are single-threaded, and the process-wide counter would
    // also count whatever sibling tests clone meanwhile. The fan-out
    // runs the same `diagnose` per region (asserted equal above), so
    // the sequential batch stands for it.
    let before = clone_count::on_this_thread();
    std::hint::black_box(rois.iter().filter_map(|r| naive_diagnose_region(&stgs, r, &cfg)).count());
    let naive_fragment_clones = clone_count::on_this_thread() - before;
    let before = clone_count::on_this_thread();
    std::hint::black_box(diagnose_regions_seq(&merged, &rois, &cfg).len());
    let batch_fragment_clones = clone_count::on_this_thread() - before;

    let naive = stats::sample_ns(reps, || {
        rois.iter().filter_map(|r| naive_diagnose_region(&stgs, r, &cfg)).count()
    });
    let (batch_seq, batch) = stats::sample_pair_ns(
        reps,
        || {
            let m = merge_stgs(&stgs);
            diagnose_regions_seq(&m, &rois, &cfg).len()
        },
        || {
            let m = merge_stgs(&stgs);
            diagnose_regions(&m, &rois, &cfg).len()
        },
    );

    let threads = detected_threads();
    let per_sec = |count: usize, ns: f64| count as f64 / (ns / 1e9);
    DiagnosePerf {
        bench: "diagnose".to_string(),
        threads,
        ranks: nranks,
        fragments,
        locations,
        regions: rois.len(),
        diagnosed,
        samples: naive.samples,
        naive_ns: naive.median_ns,
        batch_seq_ns: batch_seq.median_ns,
        batch_ns: batch.median_ns,
        naive_regions_per_sec: per_sec(rois.len(), naive.median_ns),
        naive_noise_frac: naive.noise_frac(),
        batch_seq_regions_per_sec: per_sec(rois.len(), batch_seq.median_ns),
        batch_seq_noise_frac: batch_seq.noise_frac(),
        batch_regions_per_sec: per_sec(rois.len(), batch.median_ns),
        batch_noise_frac: batch.noise_frac(),
        batch_speedup: naive.median_ns / batch_seq.median_ns,
        parallel_speedup: (threads > 1).then_some(batch_seq.median_ns / batch.median_ns),
        naive_fragment_clones,
        batch_fragment_clones,
        history: Vec::new(),
    }
}

impl PerfReport for DiagnosePerf {
    const FILE: &'static str = "BENCH_diagnose.json";

    /// The naive baseline and the sequential batch are single-threaded;
    /// the rayon batch is only comparable between same-parallelism runs.
    fn gated(&self) -> Vec<GatedMetric> {
        vec![
            GatedMetric::rate(
                "naive diagnosis throughput",
                self.naive_regions_per_sec,
                self.naive_noise_frac,
            ),
            GatedMetric::rate(
                "batched diagnosis throughput",
                self.batch_seq_regions_per_sec,
                self.batch_seq_noise_frac,
            ),
            GatedMetric::rate(
                "parallel batched diagnosis throughput",
                self.batch_regions_per_sec,
                self.batch_noise_frac,
            )
            .on(self.threads, 0),
        ]
    }

    /// The batching targets: ≥5× over the naive per-region loop, zero
    /// `Fragment` clones on the batch path (exact at any optimisation
    /// level), and at one thread a fan-out no slower than its twin.
    fn hard_failures(&self) -> Vec<String> {
        let mut failures = Vec::new();
        if self.batch_speedup < 5.0 {
            failures.push(format!(
                "batched diagnosis only {:.2}x faster than the naive loop (target >= 5x)",
                self.batch_speedup
            ));
        }
        if self.batch_fragment_clones != 0 {
            failures.push(format!(
                "batch path cloned {} Fragments (target 0)",
                self.batch_fragment_clones
            ));
        }
        failures.extend(one_thread_fanout_failure(
            "batched diagnosis fan-out",
            self.threads,
            (self.batch_regions_per_sec, self.batch_noise_frac),
            (self.batch_seq_regions_per_sec, self.batch_seq_noise_frac),
        ));
        failures
    }

    fn trend_point(&self) -> TrendPoint {
        stats::trend_point(
            self.threads,
            &[
                ("naive_regions_per_sec", self.naive_regions_per_sec),
                ("batch_seq_regions_per_sec", self.batch_seq_regions_per_sec),
                ("batch_regions_per_sec", self.batch_regions_per_sec),
                ("batch_speedup", self.batch_speedup),
            ],
        )
    }

    fn history_mut(&mut self) -> &mut Vec<TrendPoint> {
        &mut self.history
    }

    fn summary(&self) -> String {
        let par = match self.parallel_speedup {
            Some(s) => format!("{s:.2}x over batch-seq"),
            None => "n/a (1 thread)".to_string(),
        };
        format!(
            "diagnose: {} regions ({} diagnosed) / {} fragments / {} locations / {} ranks / {} threads / median of {} samples\n\
             naive:     {:>8.0} regions/s ({:.2} ms, ±{:.1}% MAD)  merge+recluster per region, {} Fragment clones\n\
             batch-seq: {:>8.0} regions/s ({:.2} ms, ±{:.1}% MAD)  {:.1}x over naive, {} Fragment clones\n\
             batch-par: {:>8.0} regions/s ({:.2} ms, ±{:.1}% MAD)  parallel speedup {}\n",
            self.regions,
            self.diagnosed,
            self.fragments,
            self.locations,
            self.ranks,
            self.threads,
            self.samples,
            self.naive_regions_per_sec,
            self.naive_ns / 1e6,
            self.naive_noise_frac * 100.0,
            self.naive_fragment_clones,
            self.batch_seq_regions_per_sec,
            self.batch_seq_ns / 1e6,
            self.batch_seq_noise_frac * 100.0,
            self.batch_speedup,
            self.batch_fragment_clones,
            self.batch_regions_per_sec,
            self.batch_ns / 1e6,
            self.batch_noise_frac * 100.0,
            par,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn diagnostic_stgs_yield_the_expected_locations() {
        let stgs = diagnostic_stgs(2, 60, 5, 1);
        assert_eq!(stgs.len(), 2);
        // Each site contributes one fragment-bearing vertex and one
        // fragment-bearing self-loop edge to the merged view.
        let merged = merge_stgs(&stgs);
        assert_eq!(merged.vertices.len() + merged.edges.len(), 10);
        // 60 computation + 9 invocation fragments per rank.
        let total: usize = stgs.iter().map(Stg::total_fragments).sum();
        assert_eq!(total, 2 * 69);
    }

    #[test]
    fn measure_agrees_and_proves_zero_batch_clones() {
        let p = measure(2, 120, 5, 4, 1);
        assert_eq!(p.bench, "diagnose");
        assert!(p.regions >= 8, "regions {}", p.regions);
        assert!(p.diagnosed >= 1, "no region produced a report");
        assert_eq!(p.batch_fragment_clones, 0, "batch path cloned Fragments");
        assert!(p.naive_fragment_clones > 0, "the frozen baseline must still clone");
        assert!(p.naive_regions_per_sec > 0.0);
        assert!(p.batch_seq_regions_per_sec > 0.0);
        assert!(p.batch_regions_per_sec > 0.0);
        assert!(p.batch_speedup > 0.0);
        match p.parallel_speedup {
            Some(s) => {
                assert!(p.threads > 1);
                assert!(s > 0.0);
            }
            None => assert_eq!(p.threads, 1),
        }
    }

    #[test]
    fn report_roundtrips_through_json() {
        let p = measure(2, 60, 4, 3, 1);
        let json = serde_json::to_string(&p).expect("serialisable");
        let back: DiagnosePerf = serde_json::from_str(&json).expect("parses");
        assert_eq!(p, back);
    }
}
