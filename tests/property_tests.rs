//! Property-based tests (proptest) on the core invariants: clustering,
//! normalisation, heat maps, region growing, V-Measure, OLS, and the
//! top-down breakdown — the algebraic backbone of the pipeline.

use proptest::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use vapro::core::clustering::{cluster_vectors, cluster_vectors_unpruned};
use vapro::core::detect::heatmap::HeatMap;
use vapro::core::detect::normalize::PerfPoint;
use vapro::core::detect::region::grow_regions;
use vapro::core::detect::window::Window;
use vapro::core::{
    diagnose_region, ClusterTable, ColumnarPool, DiagnosisBatch, Fragment, FragmentBatch,
    FragmentKind, RegionOfInterest, StateKey, Stg, VaproConfig,
};
use vapro::pmu::{events, CpuConfig, CpuModel, JitterModel, NoiseEnv, TopDown, WorkloadSpec};
use vapro::sim::{CallSite, VirtualTime};
use vapro::stats::{v_measure, OlsFit};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every input vector lands in exactly one cluster.
    #[test]
    fn clustering_partitions_the_input(
        values in prop::collection::vec(1.0f64..1e7, 1..300),
        threshold in 0.01f64..0.3,
    ) {
        let vectors: Vec<Vec<f64>> = values.iter().map(|&v| vec![v]).collect();
        let outcome = cluster_vectors(&vectors, threshold, 5);
        let mut seen = vec![0usize; vectors.len()];
        for c in outcome.usable.iter().chain(&outcome.rare) {
            for &m in &c.members {
                seen[m as usize] += 1;
            }
        }
        prop_assert!(seen.iter().all(|&s| s == 1), "coverage {seen:?}");
    }

    /// Members of one cluster are within the threshold of the seed.
    #[test]
    fn cluster_members_respect_the_distance_bound(
        values in prop::collection::vec(1.0f64..1e6, 2..200),
    ) {
        let vectors: Vec<Vec<f64>> = values.iter().map(|&v| vec![v]).collect();
        let outcome = cluster_vectors(&vectors, 0.05, 2);
        for c in outcome.usable.iter().chain(&outcome.rare) {
            let bound = (0.05 * c.seed_norm).max(1e-9);
            for &m in &c.members {
                let d = (values[m as usize] - c.seed[0]).abs();
                prop_assert!(d <= bound + 1e-9, "member {m} at distance {d} > {bound}");
            }
        }
    }

    /// The cluster seed is its smallest-norm member.
    #[test]
    fn seed_is_the_minimum_of_its_cluster(
        values in prop::collection::vec(1.0f64..1e6, 2..200),
    ) {
        let vectors: Vec<Vec<f64>> = values.iter().map(|&v| vec![v]).collect();
        let outcome = cluster_vectors(&vectors, 0.05, 2);
        for c in outcome.usable.iter().chain(&outcome.rare) {
            let min = c.members.iter().map(|&m| values[m as usize]).fold(f64::INFINITY, f64::min);
            prop_assert!((c.seed_norm - min).abs() < 1e-9);
        }
    }

    /// Scaling all vectors by a constant scales cluster structure with it
    /// (the threshold is relative).
    #[test]
    fn clustering_is_scale_invariant(
        values in prop::collection::vec(1.0f64..1e5, 2..100),
        scale in 1.5f64..100.0,
    ) {
        let a: Vec<Vec<f64>> = values.iter().map(|&v| vec![v]).collect();
        let b: Vec<Vec<f64>> = values.iter().map(|&v| vec![v * scale]).collect();
        let oa = cluster_vectors(&a, 0.05, 2);
        let ob = cluster_vectors(&b, 0.05, 2);
        prop_assert_eq!(oa.usable.len(), ob.usable.len());
        prop_assert_eq!(oa.all_labels(values.len()), ob.all_labels(values.len()));
    }

    /// Heat-map cell means stay inside the span of point performances,
    /// and total weight equals total clipped duration.
    #[test]
    fn heatmap_preserves_mass_and_bounds(
        points in prop::collection::vec(
            (0usize..4, 0u64..10_000, 1u64..2_000, 0.05f64..1.0),
            1..100,
        ),
    ) {
        let pts: Vec<PerfPoint> = points
            .iter()
            .map(|&(rank, start, dur, perf)| PerfPoint {
                rank,
                start: VirtualTime::from_ns(start),
                end: VirtualTime::from_ns(start + dur),
                perf,
                loss_ns: 0.0,
            })
            .collect();
        let hm = HeatMap::spanning(&pts, 16, 4);
        let lo = pts.iter().map(|p| p.perf).fold(f64::INFINITY, f64::min);
        let hi = pts.iter().map(|p| p.perf).fold(0.0f64, f64::max);
        let mut cell_weight = 0.0;
        for r in 0..4 {
            for b in 0..16 {
                if let Some(p) = hm.perf(r, b) {
                    prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9, "cell {p} outside [{lo},{hi}]");
                }
                cell_weight += hm.weight_of(r, b);
            }
        }
        let total: f64 = pts.iter().map(|p| (p.end.ns() - p.start.ns()) as f64).sum();
        prop_assert!((cell_weight - total).abs() / total < 1e-6, "weight {cell_weight} vs {total}");
    }

    /// Region growing is an exact partition of the below-threshold
    /// covered cells: every such cell lands in exactly one region (so
    /// regions are pairwise disjoint and internally duplicate-free), and
    /// regions contain nothing else.
    #[test]
    fn region_growing_is_exact(
        points in prop::collection::vec(
            (0usize..4, 0u64..8_000, 100u64..2_000, 0.05f64..1.0),
            1..60,
        ),
        threshold in 0.3f64..0.95,
    ) {
        let pts: Vec<PerfPoint> = points
            .iter()
            .map(|&(rank, start, dur, perf)| PerfPoint {
                rank,
                start: VirtualTime::from_ns(start),
                end: VirtualTime::from_ns(start + dur),
                perf,
                loss_ns: 0.0,
            })
            .collect();
        let hm = HeatMap::spanning(&pts, 12, 4);
        let regions = grow_regions(&hm, threshold);
        let mut covers = [0u32; 4 * 12];
        for r in &regions {
            for &(rank, bin) in &r.cells {
                let p = hm.perf(rank, bin).expect("region cell covered");
                prop_assert!(p < threshold, "region cell at {p} >= {threshold}");
                covers[rank * 12 + bin] += 1;
            }
        }
        for rank in 0..4 {
            for bin in 0..12 {
                let expected =
                    u32::from(hm.perf(rank, bin).is_some_and(|p| p < threshold));
                prop_assert_eq!(
                    covers[rank * 12 + bin],
                    expected,
                    "cell ({},{})",
                    rank,
                    bin
                );
            }
        }
    }

    /// V-Measure bounds and the perfect-clustering identity.
    #[test]
    fn v_measure_bounds(
        labels in prop::collection::vec((0usize..5, 0usize..5), 1..200),
    ) {
        let classes: Vec<usize> = labels.iter().map(|l| l.0).collect();
        let clusters: Vec<usize> = labels.iter().map(|l| l.1).collect();
        let v = v_measure(&classes, &clusters);
        prop_assert!((0.0..=1.0).contains(&v.homogeneity));
        prop_assert!((0.0..=1.0).contains(&v.completeness));
        prop_assert!((0.0..=1.0).contains(&v.v_measure));
        let perfect = v_measure(&classes, &classes);
        prop_assert!((perfect.v_measure - 1.0).abs() < 1e-9);
    }

    /// OLS on exactly linear data recovers the coefficients.
    #[test]
    fn ols_recovers_exact_linear_models(
        coefs in prop::collection::vec(-10.0f64..10.0, 1..4),
        intercept in -100.0f64..100.0,
        n in 12usize..60,
    ) {
        let k = coefs.len();
        let x: Vec<Vec<f64>> = (0..k)
            .map(|j| (0..n).map(|i| ((i * (j + 2) * 7919) % 101) as f64).collect())
            .collect();
        let y: Vec<f64> = (0..n)
            .map(|i| {
                intercept + (0..k).map(|j| coefs[j] * x[j][i]).sum::<f64>()
            })
            .collect();
        if let Some(fit) = OlsFit::fit(&x, &y, true) {
            prop_assert!((fit.terms[0].coef - intercept).abs() < 1e-6);
            for (j, c) in coefs.iter().enumerate() {
                prop_assert!((fit.terms[j + 1].coef - c).abs() < 1e-6);
            }
        }
    }

    /// The top-down breakdown always sums to 1 for any valid workload and
    /// noise environment.
    #[test]
    fn topdown_always_sums_to_one(
        ins in 1e4f64..1e8,
        mem_frac in 0.0f64..0.9,
        steal in 0.0f64..0.9,
        contention in 0.0f64..3.0,
    ) {
        let spec = WorkloadSpec {
            instructions: ins,
            mem_refs: ins * mem_frac,
            ..WorkloadSpec::default()
        };
        let env = NoiseEnv { cpu_steal: steal, mem_contention: contention, ..NoiseEnv::default() };
        let model = CpuModel::with_jitter(CpuConfig::default(), JitterModel::exact());
        let mut rng = rand::thread_rng();
        let out = model.execute(&spec, &env, &mut rng);
        let td = TopDown::from_delta(&out.counters).expect("full counters");
        prop_assert!((td.total() - 1.0).abs() < 1e-6, "total {}", td.total());
        prop_assert!(td.retiring >= 0.0 && td.suspension >= 0.0);
    }
}

/// A CpuModel-backed run with counters deep enough for the progressive
/// drill-down to reach real factors. Every rank runs the same
/// memory-bound workload on one self-loop site; `slow_rank` suffers 2×
/// memory contention over the middle third of its iterations — or, with
/// `steal`, loses half its CPU there, which takes the descent through
/// the count factors, their OLS and its NaN-carrying proxy estimates.
/// Returns the STGs and the latest fragment end, ns.
fn noisy_run(nranks: usize, n: usize, slow_rank: usize, steal: bool) -> (Vec<Stg>, u64) {
    let model = CpuModel::with_jitter(CpuConfig::default(), JitterModel::exact());
    let spec = WorkloadSpec::memory_bound(2e6);
    let counters = events::s3_memory_set().union(events::s2_suspension_set());
    let mut t_max = 0u64;
    let stgs = (0..nranks)
        .map(|rank| {
            let mut rng = ChaCha8Rng::seed_from_u64(rank as u64);
            let mut stg = Stg::new();
            let s0 = stg.state(StateKey::Start);
            let s1 = stg.state(StateKey::Site(CallSite("prop:MPI_Barrier")));
            stg.transition(s0, s1);
            let e = stg.transition(s1, s1);
            let mut t = 0u64;
            for i in 0..n {
                let env = match rank == slow_rank && (n / 3..2 * n / 3).contains(&i) {
                    false => NoiseEnv::quiet(),
                    true if steal => NoiseEnv { cpu_steal: 0.5, ..NoiseEnv::default() },
                    true => NoiseEnv { mem_contention: 2.0, ..NoiseEnv::default() },
                };
                let out = model.execute(&spec, &env, &mut rng);
                let start = VirtualTime::from_ns(t);
                let end = start + VirtualTime::from_ns_f64(out.wall_ns);
                t = end.ns() + 500;
                t_max = t_max.max(end.ns());
                stg.attach_edge_fragment(
                    e,
                    Fragment {
                        rank,
                        kind: FragmentKind::Computation,
                        start,
                        end,
                        counters: out.counters.project(counters),
                        args: vec![],
                    },
                );
            }
            stg
        })
        .collect();
    (stgs, t_max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The norm-window early break never changes the clustering: pruned
    /// and exhaustive scans agree on arbitrary one-dimensional inputs
    /// across the whole threshold range.
    #[test]
    fn norm_pruned_clustering_matches_unpruned(
        values in prop::collection::vec(1.0f64..1e7, 1..300),
        threshold in 0.01f64..0.3,
        min_cluster_size in 1usize..6,
    ) {
        let vectors: Vec<Vec<f64>> = values.iter().map(|&v| vec![v]).collect();
        let pruned = cluster_vectors(&vectors, threshold, min_cluster_size);
        let unpruned = cluster_vectors_unpruned(&vectors, threshold, min_cluster_size);
        prop_assert_eq!(pruned, unpruned);
    }

    /// Batched diagnosis is a pure optimisation: over arbitrary noisy
    /// runs and selection grids, one `DiagnosisBatch` returns for each
    /// region exactly what the per-region driver returns.
    #[test]
    fn batched_diagnosis_matches_the_per_region_driver(
        nranks in 2usize..4,
        n in 9usize..20,
        slow in 0usize..4,
        cols in 2usize..5,
        // 0: memory contention, 1: CPU steal.
        cause in 0usize..2,
    ) {
        let (stgs, t_max) = noisy_run(nranks, n, slow % nranks, cause == 1);
        let cfg = VaproConfig::default();
        let col_ns = (t_max / cols as u64).max(1);
        let mut rois = Vec::new();
        for rank in 0..nranks {
            for c in 0..cols {
                rois.push(RegionOfInterest {
                    ranks: (rank, rank),
                    t_start: VirtualTime::from_ns(c as u64 * col_ns),
                    t_end: VirtualTime::from_ns((c as u64 + 1) * col_ns),
                });
            }
        }
        // A whole-run, all-ranks selection on top of the grid.
        rois.push(RegionOfInterest {
            ranks: (0, nranks - 1),
            t_start: VirtualTime::ZERO,
            t_end: VirtualTime::from_ns(t_max.max(1)),
        });
        let cut = |(rank, stg)| FragmentBatch::from_stg_starting_in(stg, rank, Window::ALL);
        let batches: Vec<FragmentBatch> = stgs.iter().enumerate().map(cut).collect();
        let pool = ColumnarPool::from_batches(&batches, None);
        let mut clusters = ClusterTable::new(cfg.min_cluster_size);
        for e in 0..pool.num_edges() {
            clusters.push_lane(&pool.edge(e).2, &cfg.proxy_counters, cfg.cluster_threshold);
        }
        let batch = DiagnosisBatch::with_clusters(&pool, &cfg, &clusters);
        for roi in &rois {
            prop_assert_eq!(batch.diagnose(roi), diagnose_region(&pool, roi, &cfg));
        }
    }

    /// Same agreement on multi-dimensional vectors, where norm proximity
    /// no longer implies euclidean proximity and the break bound does real
    /// work.
    #[test]
    fn norm_pruned_clustering_matches_unpruned_multidim(
        values in prop::collection::vec(1.0f64..1e6, 3..240),
        dim in 1usize..4,
        threshold in 0.01f64..0.3,
    ) {
        let vectors: Vec<Vec<f64>> = values
            .chunks_exact(dim)
            .map(|c| c.to_vec())
            .collect();
        let pruned = cluster_vectors(&vectors, threshold, 2);
        let unpruned = cluster_vectors_unpruned(&vectors, threshold, 2);
        prop_assert_eq!(pruned, unpruned);
    }
}
