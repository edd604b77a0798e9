//! `vapro-lint` driver.
//!
//! Usage: `vapro-lint [--root DIR] [--report FILE] [--sarif FILE]
//! [--accept-waivers]`
//!
//! Exit codes: 0 clean, 1 unwaived findings, 2 waiver budget grew
//! without `--accept-waivers`, 3 bad invocation.
//!
//! The report file doubles as the committed waiver baseline: a run that
//! passes rewrites it; a run that would *increase* any rule's waived
//! count fails unless the increase is explicitly accepted, so new
//! waivers are always a reviewed, deliberate act. The ratchet is
//! per-rule — an R5 decrease cannot mask an R3 increase, and a rule
//! the baseline lists but the run no longer reports is a decrease.
//!
//! `--sarif` additionally writes a SARIF 2.1 log for code scanning.

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use vapro_lint::report::{render_json, waiver_growth};
use vapro_lint::sarif::render_sarif;
use vapro_lint::{run_workspace, WorkspaceReport};

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut report_path = PathBuf::from("LINT_report.json");
    let mut sarif_path: Option<PathBuf> = None;
    let mut accept_waivers = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage("--root needs a value"),
            },
            "--report" => match args.next() {
                Some(v) => report_path = PathBuf::from(v),
                None => return usage("--report needs a value"),
            },
            "--sarif" => match args.next() {
                Some(v) => sarif_path = Some(PathBuf::from(v)),
                None => return usage("--sarif needs a value"),
            },
            "--accept-waivers" => accept_waivers = true,
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    // Relative paths are under the root; `join` keeps an absolute one.
    let report_path = root.join(report_path);
    let sarif_path = sarif_path.map(|p| root.join(p));

    let report: WorkspaceReport = run_workspace(&root);
    let unwaived =
        report.findings.iter().filter(|f| f.finding.waived.is_none()).count();
    let waived = report.findings.len() - unwaived;

    for f in &report.findings {
        let fin = &f.finding;
        match &fin.waived {
            None => eprintln!("{}: {}:{}: {}", fin.rule, fin.file, fin.line, fin.message),
            Some(reason) => {
                eprintln!("{}: {}:{}: waived — {}", fin.rule, fin.file, fin.line, reason)
            }
        }
    }
    for e in &report.entries {
        eprintln!(
            "vapro-lint: {} {}: {} reachable fns, {} unwaived, {} waived",
            e.stat.rule, e.stat.entry, e.stat.reachable_fns, e.unwaived, e.waived
        );
    }
    eprintln!(
        "vapro-lint: {} files, {} unwaived, {} waived",
        report.files_scanned, unwaived, waived
    );

    if let Some(path) = &sarif_path {
        if let Err(e) = fs::write(path, render_sarif(&report)) {
            eprintln!("vapro-lint: cannot write {}: {e}", path.display());
            return ExitCode::from(3);
        }
        eprintln!("vapro-lint: SARIF written to {}", path.display());
    }

    if unwaived > 0 {
        eprintln!("vapro-lint: FAIL (unwaived findings above)");
        return ExitCode::from(1);
    }

    // Per-rule ratchet against the committed report, when there is one.
    if let Ok(text) = fs::read_to_string(&report_path) {
        let grew = waiver_growth(&text, &report);
        if !grew.is_empty() && !accept_waivers {
            eprintln!(
                "vapro-lint: FAIL — waiver budget grew ({}); \
                 rerun with --accept-waivers to accept the new budget",
                grew.join(", ")
            );
            return ExitCode::from(2);
        }
    }

    let json = render_json(&report);
    if let Err(e) = fs::write(&report_path, json) {
        eprintln!("vapro-lint: cannot write {}: {e}", report_path.display());
        return ExitCode::from(3);
    }
    eprintln!("vapro-lint: OK — report written to {}", report_path.display());
    ExitCode::SUCCESS
}

fn usage(err: &str) -> ExitCode {
    eprintln!("vapro-lint: {err}");
    eprintln!(
        "usage: vapro-lint [--root DIR] [--report FILE] [--sarif FILE] [--accept-waivers]"
    );
    ExitCode::from(3)
}
