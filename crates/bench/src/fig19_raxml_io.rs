//! Fig. 19: the per-operation view behind Fig. 18 — execution times of
//! the consecutive fixed-workload read and write operations of the most
//! varied IO cluster in RAxML. Reads off the shared FS scatter wildly;
//! the rare checkpoint writes sit on their own level.

use crate::common::{header, vapro_cf, ExpOpts};
use vapro::harness::run_under_vapro;
use vapro_apps::AppParams;
use vapro_core::fragment::FragmentKind;
use vapro_core::{ColumnarPool, PoolView};
use vapro_sim::{NoiseKind, SimConfig, TargetSet};

/// Per-operation series: (op index, seconds, is_write).
pub fn io_series(opts: &ExpOpts) -> Vec<(usize, f64, bool)> {
    let ranks = opts.resolve_ranks(8, 512);
    let iters = opts.resolve_iters(40);
    let params = AppParams::default().with_iterations(iters);
    let cfg = SimConfig::new(ranks)
        .with_noise(crate::common::always(
            NoiseKind::FsInterference { max_slowdown: 12.0 },
            TargetSet::All,
        ))
        .with_seed(opts.seed);
    let run = run_under_vapro(&cfg, &vapro_cf(), |ctx| {
        vapro_apps::raxml::run(ctx, &params)
    });
    // Rank 0's IO vertices, ordered by time.
    let pool = ColumnarPool::from_batches(&run.shipped[0], None);
    let mut ops: Vec<(u64, f64, bool)> = Vec::new();
    for v in 0..pool.num_vertices() {
        let (label, lane) = pool.vertex(v);
        let is_write = label.contains("write");
        for i in (0..lane.len()).filter(|&i| lane.kind(i) == FragmentKind::Io) {
            ops.push((lane.start(i).ns(), lane.duration_ns(i) * 1e-9, is_write));
        }
    }
    ops.sort_by_key(|o| o.0);
    ops.into_iter()
        .enumerate()
        .map(|(i, (_, dur, w))| (i, dur, w))
        .collect()
}

/// Run the experiment and format the report.
pub fn run(opts: &ExpOpts) -> String {
    let series = io_series(opts);
    let mut out = header(
        "Figure 19",
        "Per-operation times of rank 0's fixed-workload IO in RAxML",
    );
    out.push_str("n,time_s,kind\n");
    for (i, t, w) in &series {
        out.push_str(&format!("{i},{t:.6},{}\n", if *w { "write" } else { "read" }));
    }
    let reads: Vec<f64> = series.iter().filter(|s| !s.2).map(|s| s.1).collect();
    let min = reads.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = reads.iter().cloned().fold(0.0f64, f64::max);
    out.push_str(&format!(
        "\n{} reads: min {:.2}ms max {:.2}ms spread {:.1}x (heavy-tailed shared-FS latency)\n",
        reads.len(),
        min * 1e3,
        max * 1e3,
        max / min
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_times_are_heavy_tailed() {
        let opts = ExpOpts { ranks: Some(4), iterations: Some(30), ..ExpOpts::default() };
        let series = io_series(&opts);
        let reads: Vec<f64> = series.iter().filter(|s| !s.2).map(|s| s.1).collect();
        assert!(reads.len() > 100, "too few reads: {}", reads.len());
        let min = reads.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = reads.iter().cloned().fold(0.0f64, f64::max);
        assert!(max / min > 2.0, "spread {:.2}", max / min);
        // Writes exist too (the checkpoint ops of Fig. 19).
        assert!(series.iter().any(|s| s.2));
    }
}
