//! The `diagnose_perf` binary: run the region-diagnosis harness, compare
//! it against the previous run, and write `BENCH_diagnose.json`.
//!
//! ```text
//! diagnose_perf [--out PATH] [--fragments N] [--ranks N] [--sites N] [--cols N] [--reps N]
//! ```
//!
//! Defaults measure the acceptance configuration: a 4-rank synthetic run
//! over 18 call sites (36 merged STG locations), diagnosing the detected
//! variance regions plus an 8-column × rank selection grid. On release
//! builds three targets are enforced loudly: the batched path must be
//! ≥5× faster than the naive per-region loop, it must perform zero
//! `Fragment` clones (proved by the `clone-count` feature's counter),
//! and on a one-thread runner the fan-out must run at ≥0.95 of the
//! sequential batch.
//! If a previous `BENCH_diagnose.json` exists at the output path,
//! throughput drops beyond 20 % are reported as warnings before the file
//! is overwritten.

use vapro_bench::{diagnose, regression, stats};

fn usage() -> ! {
    eprintln!(
        "usage: diagnose_perf [--out PATH] [--fragments N] [--ranks N] [--sites N] [--cols N] [--reps N]"
    );
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
    let mut out = String::from("BENCH_diagnose.json");
    let mut fragments = 1600usize;
    let mut ranks = 4usize;
    let mut sites = 18usize;
    let mut cols = 8usize;
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
            "--sites" => sites = num_arg(&mut args, "--sites").max(1),
            "--cols" => cols = num_arg(&mut args, "--cols").max(1),
            "--reps" => reps = num_arg(&mut args, "--reps").max(1),
            _ => usage(),
        }
    }

    let mut report = diagnose::measure(ranks, fragments.max(ranks) / ranks, sites, cols, reps);
    print!("{}", diagnose::summary(&report));

    // The batching acceptance targets, enforced on optimised builds only
    // — debug-mode ratios are not meaningful. The clone count is exact
    // at any optimisation level.
    if !cfg!(debug_assertions) {
        let mut failed = false;
        if report.batch_speedup < 5.0 {
            eprintln!(
                "FAIL: batched diagnosis only {:.2}x faster than the naive loop (target >= 5x)",
                report.batch_speedup
            );
            failed = true;
        }
        if report.batch_fragment_clones != 0 {
            eprintln!(
                "FAIL: batch path cloned {} Fragments (target 0)",
                report.batch_fragment_clones
            );
            failed = true;
        }
        if let Some(failure) = regression::one_thread_fanout_failure(
            "batched diagnosis fan-out",
            report.threads,
            (report.batch_regions_per_sec, report.batch_noise_frac),
            (report.batch_seq_regions_per_sec, report.batch_seq_noise_frac),
        ) {
            eprintln!("FAIL: {failure}");
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
    }

    let previous = regression::load_previous::<diagnose::DiagnosePerf>(&out);
    if let Some(previous) = &previous {
        let warnings = regression::diagnose_regression_warnings(previous, &report);
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
                ("naive_regions_per_sec", report.naive_regions_per_sec),
                ("batch_seq_regions_per_sec", report.batch_seq_regions_per_sec),
                ("batch_regions_per_sec", report.batch_regions_per_sec),
                ("batch_speedup", report.batch_speedup),
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
