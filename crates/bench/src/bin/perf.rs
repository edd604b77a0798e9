//! The `perf` binary: run the detection-throughput harness, compare it
//! against the previous run, and write `BENCH_detect.json`.
//!
//! ```text
//! perf [--out PATH] [--fragments N] [--ranks N] [--reps N]
//! ```
//!
//! Defaults measure the acceptance configuration: a 4-rank synthetic run
//! with 8000 computation fragments fanned over 32 call sites, every
//! timed metric a median over ≥30 warmed-up samples. If a previous
//! `BENCH_detect.json` exists at the output path, throughput drops
//! beyond the measured noise (20 % floor) are reported as warnings and
//! its trend history is carried into the fresh file before it is
//! overwritten. Release builds hard-fail (exit 1) when, on a one-thread
//! runner, the fan-out runs below 0.95 of the sequential path.

use vapro_bench::{perf, regression, stats};

fn usage() -> ! {
    eprintln!("usage: perf [--out PATH] [--fragments N] [--ranks N] [--reps N]");
    std::process::exit(2);
}

fn num_arg(args: &mut impl Iterator<Item = String>, flag: &str) -> usize {
    match args.next().and_then(|v| v.parse().ok()) {
        Some(n) => n,
        None => {
            eprintln!("{flag} needs a numeric argument");
            usage()
        }
    }
}

fn main() {
    let mut out = String::from("BENCH_detect.json");
    let mut fragments = 8000usize;
    let mut ranks = 4usize;
    let mut reps = 3usize;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--out" => match args.next() {
                Some(p) => out = p,
                None => usage(),
            },
            "--fragments" => fragments = num_arg(&mut args, "--fragments"),
            "--ranks" => ranks = num_arg(&mut args, "--ranks").max(1),
            "--reps" => reps = num_arg(&mut args, "--reps").max(1),
            _ => usage(),
        }
    }

    let mut report = perf::measure(ranks, fragments.max(ranks) / ranks, 32, 64, reps, 100_000);
    print!("{}", perf::summary(&report));

    // Optimised builds only: debug-mode ratios are not meaningful.
    if !cfg!(debug_assertions) {
        if let Some(failure) = regression::one_thread_fanout_failure(
            "parallel detect",
            report.threads,
            (report.par_fragments_per_sec, report.par_noise_frac),
            (report.seq_fragments_per_sec, report.seq_noise_frac),
        ) {
            eprintln!("FAIL: {failure}");
            std::process::exit(1);
        }
    }

    let previous = regression::load_previous::<perf::DetectPerf>(&out);
    if let Some(previous) = &previous {
        let warnings = regression::perf_regression_warnings(previous, &report);
        if warnings.is_empty() {
            println!("no throughput regression vs previous {out}");
        }
        for w in &warnings {
            eprintln!("WARNING: {w}");
        }
    }
    report.history = stats::extend_history(
        previous.as_ref().map(|p| p.history.as_slice()),
        stats::trend_point(
            report.threads,
            &[
                ("seq_fragments_per_sec", report.seq_fragments_per_sec),
                ("par_fragments_per_sec", report.par_fragments_per_sec),
                ("cluster_vectors_per_sec", report.cluster_vectors_per_sec),
                ("pruned_speedup", report.pruned_speedup),
            ],
        ),
    );

    let json = serde_json::to_string(&report).expect("serialisable report");
    match std::fs::write(&out, &json) {
        Ok(()) => println!("wrote {out}"),
        Err(e) => {
            eprintln!("cannot write {out}: {e}");
            std::process::exit(1);
        }
    }
}
