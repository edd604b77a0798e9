//! `vapro-benchmark run | trace | compare | selftest` — see README.md.

use std::path::PathBuf;
use std::process::ExitCode;
use vapro_benchmark::bench::{run_workload, trace_workload, WorkloadResult};
use vapro_benchmark::gen::WORKLOADS;
use vapro_benchmark::layers::SpinLayer;
use vapro_benchmark::{report, selftest};

const USAGE: &str = "usage:
  vapro-benchmark run      [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
  vapro-benchmark trace    [--workload NAME] [--seed N] [--out DIR]
  vapro-benchmark compare  A.json B.json
  vapro-benchmark selftest --spin wire|region|diagnose [--frac F (default 0.75)] [--seed N]
workloads: stream_quiet stream_noisy stream_faulty fleet_small";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: PathBuf,
    spin: Option<SpinLayer>,
    frac: f64,
    files: Vec<String>,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 1,
        seconds: 30.0,
        trace: false,
        out: PathBuf::from("benchmark/out"),
        spin: None,
        frac: 0.75,
        files: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let w = value()?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!("unknown workload {w}"));
                }
                a.workload = Some(w.clone());
            }
            "--seed" => a.seed = value()?.parse().map_err(|_| "--seed needs a u64")?,
            "--seconds" => {
                a.seconds = value()?.parse().map_err(|_| "--seconds needs a number")?;
                if a.seconds.is_nan() || a.seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => a.out = PathBuf::from(value()?),
            "--spin" => {
                let s = value()?;
                a.spin = Some(SpinLayer::parse(s).ok_or(format!("cannot spin in layer {s}"))?);
            }
            "--frac" => {
                a.frac = value()?.parse().map_err(|_| "--frac needs a number")?;
                if a.frac.is_nan() || a.frac <= 0.0 || a.frac > 1.0 {
                    return Err("--frac must be in (0, 1]".into());
                }
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            file => a.files.push(file.to_string()),
        }
    }
    Ok(a)
}

fn write_out(dir: &PathBuf, name: &str, contents: &str) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn measure(a: &Args, trace: bool) -> Result<bool, String> {
    let names: Vec<&str> = match &a.workload {
        Some(w) => vec![w.as_str()],
        None => WORKLOADS.to_vec(),
    };
    let mut results: Vec<WorkloadResult> = Vec::new();
    for name in names {
        let result = if trace {
            let (result, spans) = trace_workload(name, a.seed).ok_or("unknown workload")?;
            write_out(&a.out, &format!("trace-{name}.json"), &spans)?;
            result
        } else {
            run_workload(name, a.seed, a.seconds).ok_or("unknown workload")?
        };
        report::print_table(&result);
        results.push(result);
    }
    let (file, section) = if trace {
        ("trace.json", "per_layer")
    } else {
        ("result.json", "end_to_end")
    };
    write_out(
        &a.out,
        file,
        &report::result_json(a.seed, a.seconds, section, &results),
    )?;
    println!("{}", report::result_line(&results, a.workload.is_none()));
    Ok(results.iter().all(|r| r.correct))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let parsed = match parse(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match command.as_str() {
        "run" => measure(&parsed, parsed.trace),
        "trace" => measure(&parsed, true),
        "compare" => match parsed.files.as_slice() {
            [a, b] => std::fs::read_to_string(a)
                .and_then(|a| std::fs::read_to_string(b).map(|b| (a, b)))
                .map_err(|e| format!("cannot read result file: {e}"))
                .and_then(|(a, b)| report::compare(&a, &b))
                .map(|(lines, breached)| {
                    lines.iter().for_each(|l| println!("{l}"));
                    !breached
                }),
            _ => Err("compare takes two result files".into()),
        },
        "selftest" => match parsed.spin {
            Some(layer) => {
                let (lines, ok) = selftest::run(layer, parsed.frac, parsed.seed);
                lines.iter().for_each(|l| println!("{l}"));
                println!("selftest {}", if ok { "PASSED" } else { "FAILED" });
                Ok(ok)
            }
            None => Err("selftest needs --spin".into()),
        },
        _ => Err(format!("unknown command {command}")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
