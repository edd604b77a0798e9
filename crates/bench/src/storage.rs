//! §6.2's deployment numbers: server resource overhead (one server per
//! 256 clients ⇒ 0.4 %) and storage rate (the paper measures 12.8 KB/s
//! per thread and 47.4 KB/s per process of recorded performance data),
//! plus where the bytes of one shipped frame go.

use crate::common::{header, shipped_bytes_per_sec, vapro_cf, ExpOpts};
use vapro::harness::run_under_vapro;
use vapro_apps::AppParams;
use vapro_core::wire::{FrameComposition, FrameView};
use vapro_sim::{SimConfig, Topology};

/// The paper's deployment ratio: one analysis server per 256 clients.
pub const CLIENTS_PER_SERVER: usize = 256;

/// Measured deployment numbers.
pub struct StorageRun {
    /// Bytes/sec of recorded data per process (CG).
    pub process_rate: f64,
    /// Bytes/sec per thread (PageRank).
    pub thread_rate: f64,
    /// Server resource overhead: one server process per
    /// [`CLIENTS_PER_SERVER`] application processes.
    pub server_overhead: f64,
    /// Rank 0's first-period frame of the CG run, by section.
    pub frame: FrameComposition,
    /// Fragments in that frame.
    pub frame_frags: usize,
}

/// Measure recorded-data rates.
pub fn measure(opts: &ExpOpts) -> StorageRun {
    let iters = opts.resolve_iters(15);
    let params = AppParams::default().with_iterations(iters);

    let proc_cfg = SimConfig::new(opts.resolve_ranks(16, 1024)).with_seed(opts.seed);
    let proc_run = run_under_vapro(&proc_cfg, &vapro_cf(), |ctx| {
        vapro_apps::npb::cg::run(ctx, &params)
    });
    let bytes = proc_run.shipped[0][0].encode();
    let view = FrameView::parse(&bytes).expect("own frame parses");
    let (frame, frame_frags) = (view.composition(), view.len());
    let process_rate = shipped_bytes_per_sec(&proc_run.shipped, proc_run.makespan);

    let threads = 8;
    let thr_cfg = SimConfig::new(threads)
        .with_topology(Topology::single_node(threads))
        .with_seed(opts.seed);
    let thr_run = run_under_vapro(&thr_cfg, &vapro_cf(), |ctx| {
        vapro_apps::pagerank::run(ctx, &params)
    });
    let thread_rate = shipped_bytes_per_sec(&thr_run.shipped, thr_run.makespan);

    StorageRun {
        process_rate,
        thread_rate,
        server_overhead: 1.0 / CLIENTS_PER_SERVER as f64,
        frame,
        frame_frags,
    }
}

/// Run the experiment and format the report.
pub fn run(opts: &ExpOpts) -> String {
    let r = measure(opts);
    let mut out = header("§6.2 deployment numbers", "Storage rate and server overhead");
    out.push_str(&format!(
        "per-process data rate: {:.1} KB/s (paper: 47.4 KB/s)\n",
        r.process_rate / 1e3
    ));
    out.push_str(&format!(
        "per-thread data rate:  {:.1} KB/s (paper: 12.8 KB/s)\n",
        r.thread_rate / 1e3
    ));
    out.push_str(&format!(
        "server overhead at {CLIENTS_PER_SERVER} clients/server: {:.2}% (paper: 0.4%)\n",
        r.server_overhead * 100.0
    ));
    let f = &r.frame;
    out.push_str(&format!(
        "\nframe composition (CG rank 0, first report period: {} fragments, {} B):\n",
        r.frame_frags,
        f.total()
    ));
    let per_frag = r.frame_frags.max(1) as f64;
    for (part, bytes) in [
        ("header", f.header),
        ("dictionary", f.dictionary),
        ("group heads", f.heads),
        ("shape table", f.shapes),
        ("row fields", f.rows),
        ("counter values", f.values),
        ("args", f.args),
    ] {
        let per = bytes as f64 / per_frag;
        out.push_str(&format!("  {part:<15}{bytes:>8} B {per:>7.2} B/frag\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_are_modest_and_process_exceeds_thread() {
        let opts = ExpOpts { ranks: Some(8), iterations: Some(10), ..ExpOpts::default() };
        let r = measure(&opts);
        assert!(r.process_rate > 0.0);
        assert!(r.thread_rate > 0.0);
        // Processes (MPI-chatty CG) record more than threads (barrier-only
        // PageRank) — the paper's 47.4 vs 12.8 ordering.
        assert!(
            r.process_rate > r.thread_rate,
            "process {} vs thread {}",
            r.process_rate,
            r.thread_rate
        );
        // Server overhead is the paper's 1/256.
        assert!((r.server_overhead - 1.0 / 256.0).abs() < 1e-9);
        // The frame's sections account for every byte of it.
        assert!(r.frame_frags > 0);
        assert!(r.frame.rows > 0 && r.frame.values > 0 && r.frame.dictionary > 0);
    }
}
