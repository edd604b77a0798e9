//! Printing results, `result.json`, and `compare`.

use crate::bench::{unit_of, Better, WorkloadResult, CHECKS, END_TO_END};
use serde_json::Value;
use std::fmt::Write as _;

/// `"name": {"value": v, "unit": "u"}` per metric; names get `prefix`.
fn metric_entries(prefix: &str, metrics: &[(&'static str, f64)]) -> Vec<String> {
    metrics
        .iter()
        .map(|(name, value)| {
            format!(
                "\"{prefix}{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                unit_of(name)
            )
        })
        .collect()
}

fn metric_map(metrics: &[(&'static str, f64)]) -> String {
    format!("{{{}}}", metric_entries("", metrics).join(", "))
}

/// Human-readable table of one workload: every metric by name with its
/// unit.
pub fn print_table(r: &WorkloadResult) {
    println!("== {} ==", r.name);
    for (name, value) in r.metrics.iter().chain(&r.checks) {
        println!("  {name:<36} {value:>16.6} {}", unit_of(name));
    }
    println!(
        "  attempted {}  failed {}  correct {}  report_digest {:016x}",
        r.attempted, r.failed, r.correct, r.report_digest
    );
}

/// The one-object result line the driver reads: exactly `correct`,
/// `attempted`, `failed` and `metrics`.
pub fn result_line(results: &[WorkloadResult], prefix_names: bool) -> String {
    let correct = results.iter().all(|r| r.correct);
    let attempted: u64 = results.iter().map(|r| r.attempted).sum();
    let failed: u64 = results.iter().map(|r| r.failed).sum();
    // One workload: the contract's plain names. All of them: each
    // metric prefixed with its workload.
    let metrics: Vec<String> = results
        .iter()
        .flat_map(|r| {
            let prefix = if prefix_names {
                format!("{}.", r.name)
            } else {
                String::new()
            };
            metric_entries(&prefix, &r.metrics)
        })
        .collect();
    let metrics = format!("{{{}}}", metrics.join(", "));
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}"
    )
}

/// `result.json`: seed, machine facts, and per workload the metrics,
/// checks, stream sizes, offered rates and pass counts.
pub fn result_json(seed: u64, seconds: f64, section: &str, results: &[WorkloadResult]) -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"schema\": \"vapro-benchmark/1\",");
    let _ = writeln!(out, "  \"seed\": {seed},");
    let _ = writeln!(out, "  \"seconds\": {seconds},");
    let _ = writeln!(out, "  \"nproc\": {nproc},");
    let _ = writeln!(out, "  \"generator_threads\": 1,");
    let _ = writeln!(out, "  \"workloads\": {{");
    for (i, r) in results.iter().enumerate() {
        let _ = writeln!(out, "    \"{}\": {{", r.name);
        let _ = writeln!(out, "      \"why\": \"{}\",", crate::gen::why(&r.name));
        let _ = writeln!(out, "      \"correct\": {},", r.correct);
        let _ = writeln!(out, "      \"attempted\": {},", r.attempted);
        let _ = writeln!(out, "      \"failed\": {},", r.failed);
        let _ = writeln!(
            out,
            "      \"report_digest\": \"{:016x}\",",
            r.report_digest
        );
        let _ = writeln!(out, "      \"{section}\": {},", metric_map(&r.metrics));
        let _ = writeln!(out, "      \"checks\": {},", metric_map(&r.checks));
        let facts: Vec<String> = r
            .facts
            .iter()
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        let _ = writeln!(out, "      \"facts\": {{{}}}", facts.join(", "));
        let _ = writeln!(
            out,
            "    }}{}",
            if i + 1 < results.len() { "," } else { "" }
        );
    }
    let _ = writeln!(out, "  }}");
    let _ = writeln!(out, "}}");
    out
}

fn value_of(v: &Value, path: &[&str]) -> Option<f64> {
    path.iter().try_fold(v, |v, key| v.get(key))?.as_f64()
}

/// `compare a.json b.json`: per workload and end-to-end metric, `b`'s
/// relative change against `a` in the metric's worse direction, against
/// the bound. Same-seed runs must also agree exactly on the checks and
/// the report digest. Returns the lines to print and whether any bound
/// was breached.
pub fn compare(a: &str, b: &str) -> Result<(Vec<String>, bool), String> {
    let parse =
        |s: &str| serde_json::from_str::<Value>(s).map_err(|e| format!("bad result file: {e}"));
    let (a, b) = (parse(a)?, parse(b)?);
    let same_seed = a.get("seed").and_then(Value::as_u64) == b.get("seed").and_then(Value::as_u64);
    let workloads = a
        .get("workloads")
        .and_then(Value::as_object)
        .ok_or("no workloads in first file")?;
    let mut lines = Vec::new();
    let mut breached = false;
    for name in workloads.keys() {
        if b.get("workloads").and_then(|w| w.get(name)).is_none() {
            continue;
        }
        for (metric, _, better, bound) in END_TO_END {
            let path = ["workloads", name.as_str(), "end_to_end", metric, "value"];
            let (Some(x), Some(y)) = (value_of(&a, &path), value_of(&b, &path)) else {
                continue;
            };
            let worse = match better {
                Better::Lower => (y - x) / x,
                Better::Higher => (x - y) / x,
            };
            let breach = worse > bound;
            breached |= breach;
            lines.push(format!(
                "{name:<14} {metric:<22} {x:>14.4} -> {y:>14.4}  worse by {:>+7.2}%  bound {:>5.1}%  {}",
                worse * 100.0,
                bound * 100.0,
                if breach { "BREACH" } else { "ok" }
            ));
        }
        if same_seed {
            let mut exact_ok = CHECKS.iter().all(|(check, _)| {
                let path = ["workloads", name.as_str(), "checks", check, "value"];
                value_of(&a, &path) == value_of(&b, &path)
            });
            let digest = |v: &Value| {
                v.get("workloads")
                    .and_then(|w| w.get(name))
                    .and_then(|w| w.get("report_digest"))
                    .and_then(Value::as_str)
                    .map(str::to_string)
            };
            exact_ok &= digest(&a) == digest(&b);
            breached |= !exact_ok;
            lines.push(format!(
                "{name:<14} exact checks and report digest  {}",
                if exact_ok { "equal" } else { "DIFFER" }
            ));
        }
    }
    Ok((lines, breached))
}
