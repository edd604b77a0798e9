//! Detection-throughput harness: the numbers behind `BENCH_detect.json`.
//!
//! Measures the end-to-end `detect` pipeline — sequential reference vs
//! the rayon fan-out — on a synthetic multi-rank STG whose size and
//! location count are controlled, plus the clustering kernel's pruned vs
//! unpruned throughput. The clustering measurement runs over a prebuilt
//! contiguous lane matrix — the form [`vapro_core::ColumnarPool`]
//! actually holds in memory — so the number prices the kernel, not a
//! per-call AoS→SoA conversion the production path never performs.
//!
//! Every timed metric follows the [`crate::stats`] methodology: warmup,
//! ≥30 samples, median + MAD. `perf detect` writes the result as
//! `BENCH_detect.json`; [`crate::regression`] compares a fresh run
//! against the previous file and warns on throughput drops beyond the
//! measured noise (20 % floor), and fails an optimised run whose
//! fan-out, on a one-thread runner, falls below 0.95 of the sequential
//! path.
//!
//! The parallel numbers scale with `threads` (recorded in the report):
//! on a single-core runner the fan-out degenerates to a work queue
//! drained by two threads on one CPU, so the parallel-vs-sequential
//! `speedup` is recorded as `None` there (it would measure scheduler
//! overhead, not the code) and regression gating keys on the
//! *sequential* throughput.

use crate::regression::{one_thread_fanout_failure, GatedMetric, PerfReport};
use crate::stats::{self, TrendPoint};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use vapro_core::clustering::{cluster_lanes, cluster_vectors_unpruned};
use vapro_core::detect::pipeline::{detect, detect_seq};
use vapro_core::{Stg, VaproConfig};
use vapro_vopr::plan::synthetic_stgs;

/// One harness run, serialised to `BENCH_detect.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectPerf {
    /// Harness identifier (always `"detect"`).
    pub bench: String,
    /// Worker threads available to the fan-out.
    pub threads: usize,
    /// Ranks in the synthetic run.
    pub ranks: usize,
    /// Total fragments across all ranks' STGs.
    pub fragments: usize,
    /// Merged STG locations (vertices + edges) the fan-out distributes.
    pub locations: usize,
    /// Timed samples per metric (after warmup); at least
    /// [`stats::MIN_SAMPLES`]. Zero on reports predating the
    /// multi-sample methodology.
    pub samples: usize,
    /// Median-of-samples wall time of the sequential pipeline, ns.
    pub seq_ns: f64,
    /// Median-of-samples wall time of the parallel pipeline, ns.
    pub par_ns: f64,
    /// Sequential throughput, fragments/second (from the median).
    pub seq_fragments_per_sec: f64,
    /// Relative noise of the sequential timing (MAD/median); the
    /// regression gate widens its tolerance to cover it.
    pub seq_noise_frac: f64,
    /// Parallel throughput, fragments/second (from the median).
    pub par_fragments_per_sec: f64,
    /// Relative noise of the parallel timing (MAD/median).
    pub par_noise_frac: f64,
    /// `seq_ns / par_ns`, or `None` on single-core runners (1 detected
    /// thread), where the ratio says nothing about the code. A previous
    /// report with a plain number still deserialises (into `Some`).
    pub speedup: Option<f64>,
    /// Vectors in the clustering kernel measurement.
    pub cluster_vectors: usize,
    /// Norm-pruned clustering throughput over a prebuilt contiguous
    /// `n × dim` lane matrix (the columnar in-memory form),
    /// vectors/second (from the median).
    pub cluster_vectors_per_sec: f64,
    /// Relative noise of the clustering timing (MAD/median).
    pub cluster_noise_frac: f64,
    /// Exhaustive-reference clustering throughput, vectors/second.
    pub unpruned_cluster_vectors_per_sec: f64,
    /// Pruned over unpruned throughput.
    pub pruned_speedup: f64,
    /// One headline point per harness run, carried forward from the
    /// previous BENCH file (bounded; see [`stats::MAX_TREND_POINTS`]).
    pub history: Vec<TrendPoint>,
}

/// Workload vectors with `classes` well-separated classes — the
/// clustering-kernel input (mirrors the criterion bench's generator).
pub fn synthetic_vectors(n: usize, classes: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let class = i % classes.max(1);
            let base = 1_000.0 * 1.5f64.powi(class as i32);
            (0..dim.max(1))
                .map(|_| base * (1.0 + rng.gen_range(-0.003..0.003)))
                .collect()
        })
        .collect()
}

/// Detected hardware parallelism, recorded in every BENCH json so the
/// regression gate can tell a code regression from a smaller runner.
/// Queried once per report via `std::thread::available_parallelism`.
pub fn detected_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Run the full measurement. `frags_per_rank × nranks` is the fragment
/// budget; `reps` is the requested timed samples per metric, floored at
/// [`stats::MIN_SAMPLES`] and preceded by a warmup phase.
pub fn measure(
    nranks: usize,
    frags_per_rank: usize,
    sites: usize,
    bins: usize,
    reps: usize,
    cluster_n: usize,
) -> DetectPerf {
    let cfg = VaproConfig::default();
    let stgs = synthetic_stgs(nranks, frags_per_rank, sites, 0xBE7C);
    let fragments: usize = stgs.iter().map(Stg::total_fragments).sum();
    let merged = vapro_core::merge_stgs(&stgs);
    let locations = merged.vertices.len() + merged.edges.len();
    drop(merged);

    // Determinism sanity: the fan-out must reproduce the sequential
    // output exactly before its timing means anything.
    let seq_out = detect_seq(&stgs, nranks, bins, &cfg);
    let par_out = detect(&stgs, nranks, bins, &cfg);
    assert_eq!(seq_out.series, par_out.series, "parallel detect diverged");
    assert_eq!(seq_out.rare_paths, par_out.rare_paths, "parallel detect diverged");

    let (seq, par) = stats::sample_pair_ns(
        reps,
        || detect_seq(&stgs, nranks, bins, &cfg),
        || detect(&stgs, nranks, bins, &cfg),
    );

    // The clustering kernel is measured over the lane matrix it runs on
    // in production: the columnar pool already stores workload vectors
    // row-major and contiguous, so the flatten happens once at build
    // time, not per clustering pass.
    let dim = 3;
    let vectors = synthetic_vectors(cluster_n, 16, dim, 0x5EED);
    let mut lanes = Vec::with_capacity(cluster_n * dim);
    for v in &vectors {
        lanes.extend_from_slice(v);
    }
    let pruned = stats::sample_ns(reps, || cluster_lanes(&lanes, cluster_n, dim, 0.05, 5));
    let unpruned = stats::sample_ns(reps, || cluster_vectors_unpruned(&vectors, 0.05, 5));

    let threads = detected_threads();
    let per_sec = |count: usize, ns: f64| count as f64 / (ns / 1e9);
    DetectPerf {
        bench: "detect".to_string(),
        threads,
        ranks: nranks,
        fragments,
        locations,
        samples: seq.samples,
        seq_ns: seq.median_ns,
        par_ns: par.median_ns,
        seq_fragments_per_sec: per_sec(fragments, seq.median_ns),
        seq_noise_frac: seq.noise_frac(),
        par_fragments_per_sec: per_sec(fragments, par.median_ns),
        par_noise_frac: par.noise_frac(),
        speedup: (threads > 1).then_some(seq.median_ns / par.median_ns),
        cluster_vectors: cluster_n,
        cluster_vectors_per_sec: per_sec(cluster_n, pruned.median_ns),
        cluster_noise_frac: pruned.noise_frac(),
        unpruned_cluster_vectors_per_sec: per_sec(cluster_n, unpruned.median_ns),
        pruned_speedup: unpruned.median_ns / pruned.median_ns,
        history: Vec::new(),
    }
}

impl PerfReport for DetectPerf {
    const FILE: &'static str = "BENCH_detect.json";

    /// Sequential detection and the clustering kernel are
    /// single-threaded; the fan-out is only comparable between runs on
    /// the same parallelism.
    fn gated(&self) -> Vec<GatedMetric> {
        vec![
            GatedMetric::rate(
                "sequential detect throughput",
                self.seq_fragments_per_sec,
                self.seq_noise_frac,
            ),
            GatedMetric::rate(
                "clustering throughput",
                self.cluster_vectors_per_sec,
                self.cluster_noise_frac,
            ),
            GatedMetric::rate(
                "parallel detect throughput",
                self.par_fragments_per_sec,
                self.par_noise_frac,
            )
            .on(self.threads, 0),
        ]
    }

    fn hard_failures(&self) -> Vec<String> {
        one_thread_fanout_failure(
            "parallel detect",
            self.threads,
            (self.par_fragments_per_sec, self.par_noise_frac),
            (self.seq_fragments_per_sec, self.seq_noise_frac),
        )
        .into_iter()
        .collect()
    }

    fn trend_point(&self) -> TrendPoint {
        stats::trend_point(
            self.threads,
            &[
                ("seq_fragments_per_sec", self.seq_fragments_per_sec),
                ("par_fragments_per_sec", self.par_fragments_per_sec),
                ("cluster_vectors_per_sec", self.cluster_vectors_per_sec),
                ("pruned_speedup", self.pruned_speedup),
            ],
        )
    }

    fn history_mut(&mut self) -> &mut Vec<TrendPoint> {
        &mut self.history
    }

    fn summary(&self) -> String {
        let speedup = match self.speedup {
            Some(s) => format!("speedup {s:.2}x"),
            None => "speedup n/a (1 thread)".to_string(),
        };
        format!(
            "detect: {} fragments / {} ranks / {} locations / {} threads / median of {} samples\n\
             sequential: {:>10.0} fragments/s ({:.2} ms, ±{:.1}% MAD)\n\
             parallel:   {:>10.0} fragments/s ({:.2} ms, ±{:.1}% MAD)  {}\n\
             clustering: {:>10.0} vectors/s pruned lanes (±{:.1}% MAD), {:.0} vectors/s unpruned ({:.2}x)\n",
            self.fragments,
            self.ranks,
            self.locations,
            self.threads,
            self.samples,
            self.seq_fragments_per_sec,
            self.seq_ns / 1e6,
            self.seq_noise_frac * 100.0,
            self.par_fragments_per_sec,
            self.par_ns / 1e6,
            self.par_noise_frac * 100.0,
            speedup,
            self.cluster_vectors_per_sec,
            self.cluster_noise_frac * 100.0,
            self.unpruned_cluster_vectors_per_sec,
            self.pruned_speedup,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_produces_consistent_throughput() {
        let p = measure(2, 120, 4, 8, 1, 1_500);
        assert_eq!(p.ranks, 2);
        assert!(p.fragments >= 240);
        assert!(p.locations >= 4);
        assert!(p.seq_fragments_per_sec > 0.0);
        assert!(p.par_fragments_per_sec > 0.0);
        // Single-core runners omit the parallel-vs-sequential speedup —
        // it would measure the scheduler, not the code.
        match p.speedup {
            Some(s) => {
                assert!(p.threads > 1);
                assert!(s > 0.0);
            }
            None => assert_eq!(p.threads, 1),
        }
        assert!(p.cluster_vectors_per_sec > 0.0);
        assert!(p.threads >= 1);
        // The multi-sample methodology: at least the floor, with finite
        // recorded noise for the gate to price in.
        assert!(p.samples >= crate::stats::MIN_SAMPLES);
        assert!(p.seq_noise_frac.is_finite() && p.seq_noise_frac >= 0.0);
        assert!(p.par_noise_frac.is_finite() && p.par_noise_frac >= 0.0);
        assert!(p.cluster_noise_frac.is_finite() && p.cluster_noise_frac >= 0.0);
        assert!(p.history.is_empty(), "history is appended by the driver, not measure()");
    }

    #[test]
    fn report_roundtrips_through_json() {
        let p = measure(2, 60, 4, 8, 1, 500);
        let json = serde_json::to_string(&p).expect("serialisable");
        let back: DetectPerf = serde_json::from_str(&json).expect("parses");
        assert_eq!(p.bench, back.bench);
        assert_eq!(p.fragments, back.fragments);
        assert!((p.seq_fragments_per_sec - back.seq_fragments_per_sec).abs() < 1.0);
    }
}
