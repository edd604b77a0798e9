//! vapro-lint: the workspace static-analysis pass.
//!
//! Two invariants are proved dynamically — zero full-population
//! `Fragment` clones on the detection/diagnosis hot paths (runtime clone
//! counters) and no panics on hostile wire bytes (byte-mutation
//! proptests). This crate re-states the second as a *source-level* rule
//! that every future change is checked against, plus a float-hygiene
//! rule for the numeric code and a lock-hygiene rule. Allocation on the
//! window path is measured, not linted: the allocator census in
//! `crates/core/tests/report_heap_shape.rs`. One pass finds sites
//! (`items::facts`); entry scopes over the conservative whole-workspace
//! call graph (`callgraph`) decide which of them a rule reports. See
//! `rules` for the rule definitions, the configuration and the waiver
//! grammar, `report` for the `LINT_report.json` budget format and
//! `sarif` for the code-scanning output.
//!
//! The pass is built on a small self-contained lexer rather than `syn`:
//! the workspace builds fully offline against vendored stubs, and the
//! rules only need token patterns plus function-scope attribution, which
//! `lexer` + `items` provide exactly (strings, comments, lifetimes and
//! nested block comments are handled; a banned token spelled inside a
//! string can never fire). Per-file scans run in parallel on the
//! vendored rayon pool; the call-graph phase is global and sequential.

pub mod callgraph;
pub mod items;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod sarif;

use std::collections::HashMap;
use std::fs;
use std::path::{Path, PathBuf};

use rayon::prelude::*;

pub use callgraph::{EntryStat, Hop};
use rules::{FileScan, Finding, FnScope, LintConfig};

/// One finding plus (for the entry-tree rules) the call path from the
/// entry point to the function containing the site.
#[derive(Debug, Clone)]
pub struct ReportFinding {
    pub finding: Finding,
    pub path: Vec<Hop>,
}

/// Everything one workspace run produced.
#[derive(Debug, Clone, Default)]
pub struct WorkspaceReport {
    pub findings: Vec<ReportFinding>,
    /// Per-entry-point reachability + finding counts (R5).
    pub entries: Vec<EntryLine>,
    pub files_scanned: usize,
}

/// An [`EntryStat`] with waiver-resolved finding counts.
#[derive(Debug, Clone)]
pub struct EntryLine {
    pub stat: EntryStat,
    pub unwaived: usize,
    pub waived: usize,
}

/// The checked-in rule scope for this workspace.
///
/// * R3 covers normalization, heatmap, region ranking, clustering and
///   baseline ranking — where a float ordering decides output — plus
///   the `crates/stats` estimators.
/// * R5 roots are the doors hostile bytes come through — the one wire
///   validator and `decode` on top of it, the server and fleet
///   `push_encoded`, fleet registration and routing — and the VOPR
///   admission oracle's API (`crates/vopr/src/model.rs` faces the same
///   hostile deliveries the server does, and an oracle that panics
///   cannot falsify anything). Each must be panic-free across its whole
///   reachable call tree. The walk stops at the sealed-data frontier
///   (`analyze_view_columnar`, `refill_from_merged`, and the stage's
///   `surface_failure`, which only re-raises a panic from behind that
///   frontier on the owner's thread): past admission, data is validated
///   and the analysis tree is covered dynamically by VOPR/soak instead.
///   In `wire.rs`, where attacker-controlled lengths feed size math,
///   unchecked arithmetic counts as a panic site and no R5 waiver is
///   accepted at all: the decode path must be structurally total.
/// * R7 applies workspace-wide: no lock guard held across a rayon
///   region, a channel send, or a call into another lock-taking
///   function, and no lock-order cycles.
pub fn workspace_config() -> LintConfig {
    let scope = |file: &str, funcs: &[&str]| FnScope {
        file: file.into(),
        funcs: funcs.iter().map(|s| s.to_string()).collect(),
    };
    let wire = "crates/core/src/wire.rs";
    LintConfig {
        r3_files: vec![
            "crates/core/src/baseline.rs".into(),
            "crates/core/src/detect/normalize.rs".into(),
            "crates/core/src/detect/heatmap.rs".into(),
            "crates/core/src/detect/region.rs".into(),
            "crates/core/src/clustering.rs".into(),
            "crates/stats/src/".into(),
        ],
        r5_entries: vec![
            // `next` is `FrameRows`' `Iterator::next`: `for` loops and
            // adapters run it, nothing calls it by name for a walk to
            // follow, so it stays a root of its own.
            scope(wire, &["parse", "decode", "next"]),
            scope("crates/core/src/detect/ingestor.rs", &["push_encoded"]),
            scope("crates/core/src/fleet.rs", &["push_encoded", "register_job", "shard_of"]),
            scope(
                "crates/vopr/src/model.rs",
                &["predict", "record_birth", "watermark_ns", "outcome_name"],
            ),
        ],
        r5_frontier: vec![
            "analyze_view_columnar".into(),
            "refill_from_merged".into(),
            // Re-raises, on the stage's owner, a panic that an analysis
            // task raised beyond the frontier above.
            "surface_failure".into(),
        ],
        r5_arith_files: vec![wire.into()],
        r5_no_waiver_files: vec![wire.into()],
        r7_files: vec!["crates/".into()],
    }
}

/// Collect the workspace source files to scan: every `.rs` under
/// `crates/*/src`, excluding vendored code, integration tests and
/// fixtures. Returned as sorted `(workspace-relative, absolute)` pairs
/// so runs are deterministic.
pub fn collect_sources(root: &Path) -> Vec<(String, PathBuf)> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    let Ok(entries) = fs::read_dir(&crates) else { return out };
    let mut crate_dirs: Vec<PathBuf> =
        entries.flatten().map(|e| e.path()).filter(|p| p.is_dir()).collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        walk(&dir.join("src"), root, &mut out);
    }
    out.sort();
    out
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<(String, PathBuf)>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if matches!(name.as_ref(), "tests" | "fixtures" | "benches" | "examples") {
                continue;
            }
            walk(&path, root, out);
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy().into_owned())
                .collect::<Vec<_>>()
                .join("/");
            out.push((rel, path));
        }
    }
}

/// Scan the whole workspace rooted at `root` with the checked-in
/// configuration: per-file scans fan out over the rayon pool (a cold run
/// over the whole workspace takes ~0.2 s, so results are not cached
/// between runs), then the global call-graph phase. Unreadable files
/// become `LINT` findings rather than panics.
pub fn run_workspace(root: &Path) -> WorkspaceReport {
    let cfg = workspace_config();
    let mut meta: Vec<ReportFinding> = Vec::new();
    let mut inputs: Vec<(String, String)> = Vec::new();
    for (rel, path) in collect_sources(root) {
        match fs::read_to_string(&path) {
            Ok(src) => inputs.push((rel, src)),
            Err(e) => meta.push(ReportFinding {
                finding: Finding {
                    rule: rules::META_RULE.into(),
                    file: rel,
                    line: 0,
                    message: format!("unreadable source file: {e}"),
                    waived: None,
                },
                path: Vec::new(),
            }),
        }
    }
    let scans: Vec<(String, FileScan)> = inputs
        .into_par_iter()
        .map(|(rel, src)| {
            let scan = rules::scan_file(&rel, &src, &cfg);
            (rel, scan)
        })
        .collect();
    finish_workspace(scans, meta, &cfg)
}

/// Run the full pipeline over in-memory sources — what the fixture
/// and canary tests drive.
pub fn run_files(files: &[(&str, &str)], cfg: &LintConfig) -> WorkspaceReport {
    let scans: Vec<(String, FileScan)> = files
        .iter()
        .map(|(rel, src)| (rel.to_string(), rules::scan_file(rel, src, cfg)))
        .collect();
    finish_workspace(scans, Vec::new(), cfg)
}

/// The global phase: the entry-tree rules over the merged item index,
/// waiver application, then unused-waiver detection.
fn finish_workspace(
    scans: Vec<(String, FileScan)>,
    mut findings: Vec<ReportFinding>,
    cfg: &LintConfig,
) -> WorkspaceReport {
    let files_scanned = scans.len();
    let mut waivers: HashMap<String, Vec<rules::Waiver>> = HashMap::new();
    let mut indexes: Vec<(String, items::FileIndex)> = Vec::with_capacity(scans.len());
    for (rel, scan) in scans {
        findings.extend(
            scan.findings.into_iter().map(|finding| ReportFinding { finding, path: Vec::new() }),
        );
        waivers.insert(rel.clone(), scan.waivers);
        indexes.push((rel, scan.index));
    }

    let (raws, stats) = callgraph::run_transitive(&indexes, cfg);
    let mut entry_counts: HashMap<String, (usize, usize)> = HashMap::new();
    for raw in raws {
        let waived = waivers
            .get_mut(&raw.file)
            .and_then(|ws| rules::consume_waiver(ws, raw.rule, raw.line));
        for entry in &raw.entries {
            let counts = entry_counts.entry(format!("{}\u{0}{}", raw.rule, entry)).or_insert((0, 0));
            if waived.is_some() {
                counts.1 += 1;
            } else {
                counts.0 += 1;
            }
        }
        findings.push(ReportFinding {
            finding: Finding {
                rule: raw.rule.into(),
                file: raw.file,
                line: raw.line,
                message: raw.message,
                waived,
            },
            path: raw.path,
        });
    }

    for (rel, ws) in &waivers {
        let mut extra = Vec::new();
        rules::finish_waivers(rel, ws, &mut extra);
        findings
            .extend(extra.into_iter().map(|finding| ReportFinding { finding, path: Vec::new() }));
    }

    findings.sort_by(|a, b| {
        (&a.finding.file, a.finding.line, &a.finding.rule, &a.finding.message)
            .cmp(&(&b.finding.file, b.finding.line, &b.finding.rule, &b.finding.message))
    });

    let entries = stats
        .into_iter()
        .map(|stat| {
            let (unwaived, waived) = entry_counts
                .get(&format!("{}\u{0}{}", stat.rule, stat.entry))
                .copied()
                .unwrap_or((0, 0));
            EntryLine { stat, unwaived, waived }
        })
        .collect();

    WorkspaceReport { findings, entries, files_scanned }
}
