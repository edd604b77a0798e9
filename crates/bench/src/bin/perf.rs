//! The `perf` binary: run one throughput harness (or all four), compare
//! it against its previous report, and write `BENCH_<harness>.json`.
//!
//! ```text
//! perf detect   [--out PATH] [--fragments N] [--ranks N] [--reps N]
//! perf ingest   [--out PATH] [--fragments N] [--ranks N] [--periods N] [--reps N]
//! perf diagnose [--out PATH] [--fragments N] [--ranks N] [--sites N] [--cols N] [--reps N]
//! perf fleet    [--out PATH] [--jobs N] [--ranks N] [--fragments N] [--shards N] [--reps N]
//! perf all
//! ```
//!
//! The flag defaults are the acceptance configurations:
//!
//! * `detect` — a 4-rank synthetic run with 8000 computation fragments
//!   fanned over 32 call sites, sequential vs fan-out, plus the
//!   clustering kernel over 100 000 vectors;
//! * `ingest` — the same run shipped over 12 reporting periods through
//!   the wire codec and the windowed ingestor, plus a ≥200-window long
//!   stream;
//! * `diagnose` — 4 ranks over 18 call sites (36 merged STG locations),
//!   the detected variance regions plus an 8-column × rank selection
//!   grid, naive vs batched;
//! * `fleet` — 8 jobs × 2 ranks × 1200 fragments/rank shipped as
//!   frames, 1 vs 4 shards, and one job through the fleet vs bare.
//!
//! Every timed metric is a median over ≥30 warmed-up samples. What each
//! harness gates against its previous file, and which release-build
//! acceptance targets fail the run (exit 1, nothing written), is stated
//! by its report's [`PerfReport`] impl; `all` runs the four in turn with
//! the defaults and stops at the first that fails.

use std::collections::BTreeMap;
use vapro_bench::regression::{finish_run, PerfReport};
use vapro_bench::{diagnose, fleet, ingest, perf, stats};

/// `--name N` flags one harness takes, with their defaults.
type Flags = &'static [(&'static str, usize)];

const HARNESSES: [(&str, Flags); 4] = [
    ("detect", &[("fragments", 8000), ("ranks", 4), ("reps", 3)]),
    ("ingest", &[("fragments", 8000), ("ranks", 4), ("periods", 12), ("reps", 3)]),
    ("diagnose", &[("fragments", 1600), ("ranks", 4), ("sites", 18), ("cols", 8), ("reps", 3)]),
    (
        "fleet",
        &[("jobs", 8), ("ranks", 2), ("fragments", 1200), ("shards", 4), ("reps", stats::MIN_SAMPLES)],
    ),
];

fn usage() -> ! {
    eprintln!("usage: perf detect|ingest|diagnose|fleet [--out PATH] [--<size> N]... | perf all");
    for (name, flags) in HARNESSES {
        let sizes: Vec<String> =
            flags.iter().map(|(f, d)| format!("--{f} (default {d})")).collect();
        eprintln!("  {name}: {}", sizes.join(", "));
    }
    std::process::exit(2);
}

/// The `--out` path, if given, and every size flag's value (≥ 1).
fn parse(args: &[String], flags: Flags) -> (Option<String>, BTreeMap<&'static str, usize>) {
    let mut out = None;
    let mut sizes: BTreeMap<&'static str, usize> = flags.iter().copied().collect();
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let value = args.next();
        if flag == "--out" {
            out = Some(value.cloned().unwrap_or_else(|| usage()));
            continue;
        }
        let Some(size) = flag.strip_prefix("--").and_then(|f| sizes.get_mut(f)) else { usage() };
        match value.and_then(|v| v.parse::<usize>().ok()) {
            Some(n) => *size = n.max(1),
            None => {
                eprintln!("{flag} needs a numeric argument");
                usage()
            }
        }
    }
    (out, sizes)
}

/// Finish one measured run; `false` when it failed.
fn finish<R: PerfReport>(report: R, out: Option<String>) -> bool {
    let out = out.unwrap_or_else(|| R::FILE.to_string());
    finish_run(report, &out).map_err(|failure| eprintln!("FAIL: {failure}")).is_ok()
}

fn harness(name: &str, args: &[String]) -> bool {
    let Some(&(_, flags)) = HARNESSES.iter().find(|(n, _)| *n == name) else { usage() };
    let (out, n) = parse(args, flags);
    let per_rank = n["fragments"].max(n["ranks"]) / n["ranks"];
    match name {
        "detect" => finish(perf::measure(n["ranks"], per_rank, 32, 64, n["reps"], 100_000), out),
        "ingest" => {
            finish(ingest::measure(n["ranks"], per_rank, 32, n["periods"], n["reps"]), out)
        }
        "diagnose" => finish(
            diagnose::measure(n["ranks"], per_rank, n["sites"], n["cols"], n["reps"]),
            out,
        ),
        _ => finish(
            fleet::measure(n["jobs"], n["ranks"], n["fragments"], 16, 10, n["shards"], n["reps"]),
            out,
        ),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ok = match args.split_first() {
        Some((all, [])) if all == "all" => HARNESSES.iter().all(|(name, _)| harness(name, &[])),
        Some((name, rest)) => harness(name, rest),
        None => usage(),
    };
    if !ok {
        std::process::exit(1);
    }
}
