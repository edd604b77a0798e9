//! The `ingest_perf` binary: run the wire-format + windowed-ingestion
//! harness, compare it against the previous run, and write
//! `BENCH_ingest.json`.
//!
//! ```text
//! ingest_perf [--out PATH] [--fragments N] [--ranks N] [--periods N] [--reps N]
//! ```
//!
//! Defaults measure the acceptance configuration: a 4-rank synthetic run
//! with 8000 computation fragments shipped over 12 reporting periods. If
//! a previous `BENCH_ingest.json` exists at the output path, throughput
//! drops beyond 20 % are reported as warnings before the file is
//! overwritten. The release-mode wire-format targets (≥4× smaller than
//! JSON, ≥5× faster decode) are checked and failed loudly, as are the
//! bounded-memory streaming targets: a ≥200-window long stream
//! with flat per-period cost (late-quarter median within the
//! noise-scaled tolerance of the early-quarter median) and an arena
//! high water that plateaus after warmup (≤1.5× the midpoint peak).

use vapro_bench::{ingest, regression, stats};

fn usage() -> ! {
    eprintln!(
        "usage: ingest_perf [--out PATH] [--fragments N] [--ranks N] [--periods N] [--reps N]"
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
    let mut out = String::from("BENCH_ingest.json");
    let mut fragments = 8000usize;
    let mut ranks = 4usize;
    let mut periods = 12usize;
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
            "--periods" => periods = num_arg(&mut args, "--periods").max(1),
            "--reps" => reps = num_arg(&mut args, "--reps").max(1),
            _ => usage(),
        }
    }

    let mut report = ingest::measure(ranks, fragments.max(ranks) / ranks, 32, periods, reps);
    print!("{}", ingest::summary(&report));

    // The wire-format acceptance targets, enforced on optimised builds
    // only — debug-mode codec ratios are not meaningful.
    if !cfg!(debug_assertions) {
        let mut failed = false;
        if report.size_ratio < 4.0 {
            eprintln!("FAIL: binary is only {:.2}x smaller than JSON (target >= 4x)", report.size_ratio);
            failed = true;
        }
        if report.decode_speedup < 5.0 {
            eprintln!("FAIL: binary decode only {:.2}x faster than JSON (target >= 5x)", report.decode_speedup);
            failed = true;
        }
        // The bounded-memory streaming targets: the long stream must be
        // long (≥200 half-overlapped windows), per-period cost must stay
        // flat — late-quarter median within the host's noise-scaled
        // tolerance of the early-quarter median — and the arena's high
        // water must plateau after warmup instead of tracking the stream.
        if report.long_stream_windows < 200 {
            eprintln!(
                "FAIL: long stream closed only {} windows (target >= 200)",
                report.long_stream_windows
            );
            failed = true;
        }
        let flatness_limit = 1.0 + stats::variance_tolerance(&[report.long_stream_noise_frac]);
        if report.steady_state_flatness > flatness_limit {
            eprintln!(
                "FAIL: per-period cost grew {:.2}x from early to late stream (limit {:.2}x): \
                 per-window work is not O(window)",
                report.steady_state_flatness, flatness_limit
            );
            failed = true;
        }
        if report.arena_plateau_ratio > 1.5 {
            eprintln!(
                "FAIL: arena high water grew {:.2}x after the stream midpoint (limit 1.5x): \
                 watermark eviction is not holding a plateau",
                report.arena_plateau_ratio
            );
            failed = true;
        }
        if failed {
            std::process::exit(1);
        }
    }

    let previous = regression::load_previous::<ingest::IngestPerf>(&out);
    if let Some(previous) = &previous {
        let warnings = regression::ingest_regression_warnings(previous, &report);
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
                ("encode_fragments_per_sec", report.encode_fragments_per_sec),
                ("decode_fragments_per_sec", report.decode_fragments_per_sec),
                ("ingest_fragments_per_sec", report.ingest_fragments_per_sec),
                ("size_ratio", report.size_ratio),
                ("steady_state_flatness", report.steady_state_flatness),
                ("arena_high_water_bytes", report.arena_high_water_bytes as f64),
                ("arena_plateau_ratio", report.arena_plateau_ratio),
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
