//! The `fleet_perf` binary: run the sharded fleet ingest-plane harness,
//! compare it against the previous run, and write `BENCH_fleet.json`.
//!
//! ```text
//! fleet_perf [--out PATH] [--jobs N] [--ranks N] [--fragments N] [--shards N] [--reps N]
//! ```
//!
//! Defaults measure the acceptance configuration: 8 jobs × 2 ranks ×
//! 1200 fragments/rank shipped as v3 frames, 1 vs 4 shards. If a
//! previous `BENCH_fleet.json` exists at the output path, throughput
//! drops beyond the noise-aware tolerance are reported as warnings
//! before the file is overwritten. The release-mode acceptance targets
//! — ≥1.5× aggregate throughput at 4 shards (only on runners with at
//! least that many hardware threads) and single-job fleet overhead
//! < 10 % — are checked and failed loudly.

use vapro_bench::{fleet, regression, stats};

fn usage() -> ! {
    eprintln!(
        "usage: fleet_perf [--out PATH] [--jobs N] [--ranks N] [--fragments N] [--shards N] [--reps N]"
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
    let mut out = String::from("BENCH_fleet.json");
    let mut jobs = 8usize;
    let mut ranks = 2usize;
    let mut fragments = 1200usize;
    let mut shards = 4usize;
    let mut reps = stats::MIN_SAMPLES;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--out" => match args.next() {
                Some(p) => out = p,
                None => usage(),
            },
            "--jobs" => jobs = num_arg(&mut args, "--jobs").max(1),
            "--ranks" => ranks = num_arg(&mut args, "--ranks").max(1),
            "--fragments" => fragments = num_arg(&mut args, "--fragments").max(1),
            "--shards" => shards = num_arg(&mut args, "--shards").max(1),
            "--reps" => reps = num_arg(&mut args, "--reps").max(1),
            _ => usage(),
        }
    }

    let mut report = fleet::measure(jobs, ranks, fragments, 16, 10, shards, reps);
    print!("{}", fleet::summary(&report));

    // The fleet-plane acceptance targets, enforced on optimised builds
    // only — debug-mode ratios are not meaningful. The shard-scaling
    // gate additionally needs enough hardware threads: on a runner with
    // fewer threads than shards the speedup is `None` and the gate is
    // skipped rather than failed (the CI bench job runs on 8 cores).
    if !cfg!(debug_assertions) {
        let mut failed = false;
        match report.shard_speedup {
            Some(s) if s < 1.5 => {
                eprintln!(
                    "FAIL: {} shards only {:.2}x faster than 1 shard (target >= 1.5x)",
                    report.shards, s
                );
                failed = true;
            }
            Some(s) => println!("shard scaling ok: {:.2}x at {} shards", s, report.shards),
            None => println!(
                "shard scaling not demonstrable here ({} threads < {} shards), gate skipped",
                report.threads, report.shards
            ),
        }
        if report.fleet_overhead_frac >= 0.10 {
            eprintln!(
                "FAIL: fleet plane costs {:.1}% of bare single-job ingest throughput (target < 10%)",
                report.fleet_overhead_frac * 100.0
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
    }

    let previous = regression::load_previous::<fleet::FleetPerf>(&out);
    if let Some(previous) = &previous {
        let warnings = regression::fleet_regression_warnings(previous, &report);
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
                ("fleet_1shard_fragments_per_sec", report.fleet_1shard_fragments_per_sec),
                ("fleet_nshard_fragments_per_sec", report.fleet_nshard_fragments_per_sec),
                ("single_job_fragments_per_sec", report.single_job_fragments_per_sec),
                ("fleet_overhead_frac", report.fleet_overhead_frac),
                ("steady_state_flatness", report.steady_state_flatness),
                ("arena_high_water_bytes", report.arena_high_water_bytes as f64),
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
