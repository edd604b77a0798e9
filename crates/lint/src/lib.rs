//! vapro-lint: the workspace static-analysis pass.
//!
//! PRs 1–4 proved two invariants dynamically — zero full-population
//! `Fragment` clones on the detection/diagnosis hot paths (runtime clone
//! counters) and no panics on hostile wire bytes (byte-mutation
//! proptests). This crate re-states both as *source-level* rules that
//! every future change is checked against, plus a float-hygiene rule for
//! the numeric code. See `rules` for the per-body rule definitions and
//! the waiver grammar, `items`/`callgraph` for the whole-workspace item
//! index and conservative call graph behind the transitive rules
//! (R5 panic-freedom, R6 hot-path allocation, R7 lock hygiene),
//! `report` for the `LINT_report.json` budget format and `sarif` for the
//! code-scanning output.
//!
//! The pass is built on a small self-contained lexer rather than `syn`:
//! the workspace builds fully offline against vendored stubs, and the
//! rules only need token patterns plus function-scope attribution, which
//! `lexer` + `analyze` provide exactly (strings, comments, lifetimes and
//! nested block comments are handled; a banned token spelled inside a
//! string can never fire). Per-file scans run in parallel on the
//! vendored rayon pool; the call-graph phase is global and sequential.

pub mod analyze;
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

/// One finding plus (for transitive rules) the call path from the entry
/// point to the function containing the site.
#[derive(Debug, Clone)]
pub struct ReportFinding {
    pub finding: Finding,
    pub path: Vec<Hop>,
}

/// Everything one workspace run produced.
#[derive(Debug, Clone, Default)]
pub struct WorkspaceReport {
    pub findings: Vec<ReportFinding>,
    /// Per-entry-point reachability + finding counts (R5/R6).
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
/// * R1 covers the hot-path modules named by the design docs:
///   `detect/`, `diagnose/`, `wire.rs`, `clustering.rs`, `columnar.rs`.
/// * R2 covers the wire decode functions, the server ingest admission
///   functions (`detect/ingestor.rs` entry points and the
///   `detect/admission.rs` plane behind them), the fleet plane's
///   admission/routing functions and the
///   VOPR admission oracle (`crates/vopr/src/model.rs` — it faces the
///   same hostile deliveries the server does, and an oracle that
///   panics cannot falsify anything); the arithmetic sub-rule applies
///   to the wire decoders, where attacker-controlled lengths feed size
///   math.
/// * `wire.rs` accepts no waivers in its R2 scope at all: the decode
///   path must be structurally total.
/// * R3 covers normalization, heatmap, region ranking and clustering —
///   everywhere a float ordering decides detection output — plus the
///   `crates/stats` estimators.
/// * R4 covers the lane-building modules (`columnar.rs`,
///   `clustering.rs`) and the pipelined analysis stage
///   (`detect/stage.rs`, whose reorder buffer and worker queues sit on
///   the per-window hot path): per-element pushes in loops must be
///   preceded by a capacity reservation somewhere in the same function.
/// * R5 extends R2's panic-freedom *transitively*: the wire-decode,
///   server-admission, fleet-routing and VOPR-oracle entry points must
///   be panic-free across their whole reachable call trees. The walk
///   stops at the sealed-data frontier (`analyze_view_columnar`,
///   `refill_from_merged`, and the stage's `surface_failure`, which
///   only re-raises a panic from behind that frontier on the owner's
///   thread): past admission, data is validated and the analysis tree
///   is covered dynamically by VOPR/soak instead.
/// * R6 extends R1/R4 along the steady-state window-close tree rooted
///   at `close_ready`; files already under per-body R1/R4 budgets are
///   skipped so one allocation never needs two waivers.
/// * R7 applies workspace-wide: no lock guard held across a rayon
///   region, a channel send, or a call into another lock-taking
///   function, and no lock-order cycles.
pub fn workspace_config() -> LintConfig {
    // The `Reader` field readers, the one validator (`FrameView::parse`
    // / `parse_frame`), the view's accessors (`next` is `FrameRows`'),
    // and `decode` = `parse` + `to_batch`.
    let wire_fns = [
        "take",
        "u8",
        "u32",
        "u64",
        "array",
        "column",
        "since",
        "parse",
        "parse_frame",
        "header",
        "labels",
        "vertex_heads",
        "edge_heads",
        "rows",
        "next",
        "to_batch",
        "decode",
        "kind_from_byte",
    ];
    let ingestor_fns = ["push_encoded", "push_frame", "push_sized"];
    // The arena's byte-fed append and what it shares with `push_batch`.
    let arena_fns = ["push_frame", "absorb", "append", "key_id", "pool_at"];
    let admission_fns = ["admit", "is_duplicate", "gaps", "count_decode_error"];
    let fleet_fns = ["push_encoded", "register_job", "shard_of", "harvest"];
    let vopr_model_fns = [
        "accept",
        "predict",
        "classify",
        "absorb",
        "record_birth",
        "watermark_ns",
        "update_liveness",
        "outcome_name",
    ];
    let wire_scope = FnScope {
        file: "crates/core/src/wire.rs".into(),
        funcs: wire_fns.iter().map(|s| s.to_string()).collect(),
    };
    let ingestor_scope = FnScope {
        file: "crates/core/src/detect/ingestor.rs".into(),
        funcs: ingestor_fns.iter().map(|s| s.to_string()).collect(),
    };
    let arena_scope = FnScope {
        file: "crates/core/src/detect/arena.rs".into(),
        funcs: arena_fns.iter().map(|s| s.to_string()).collect(),
    };
    let admission_scope = FnScope {
        file: "crates/core/src/detect/admission.rs".into(),
        funcs: admission_fns.iter().map(|s| s.to_string()).collect(),
    };
    let fleet_scope = FnScope {
        file: "crates/core/src/fleet.rs".into(),
        funcs: fleet_fns.iter().map(|s| s.to_string()).collect(),
    };
    let vopr_scope = FnScope {
        file: "crates/vopr/src/model.rs".into(),
        funcs: vopr_model_fns.iter().map(|s| s.to_string()).collect(),
    };
    let r1_files = vec![
        "crates/core/src/detect/".to_string(),
        "crates/core/src/diagnose/".to_string(),
        "crates/core/src/wire.rs".to_string(),
        "crates/core/src/clustering.rs".to_string(),
        "crates/core/src/columnar.rs".to_string(),
    ];
    let r4_files = vec![
        "crates/core/src/columnar.rs".to_string(),
        "crates/core/src/clustering.rs".to_string(),
        "crates/core/src/detect/stage.rs".to_string(),
    ];
    let mut r6_budgeted = r1_files.clone();
    r6_budgeted.extend(r4_files.iter().cloned());
    LintConfig {
        r1_files,
        r2_scopes: vec![
            wire_scope.clone(),
            ingestor_scope.clone(),
            arena_scope.clone(),
            admission_scope.clone(),
            fleet_scope.clone(),
            vopr_scope.clone(),
        ],
        r2_arith: vec![wire_scope.clone()],
        r2_no_waiver_files: vec!["crates/core/src/wire.rs".into()],
        r3_files: vec![
            "crates/core/src/detect/normalize.rs".into(),
            "crates/core/src/detect/heatmap.rs".into(),
            "crates/core/src/detect/region.rs".into(),
            "crates/core/src/clustering.rs".into(),
            "crates/stats/src/".into(),
        ],
        r4_files,
        r5_entries: vec![
            wire_scope,
            ingestor_scope,
            arena_scope,
            admission_scope,
            fleet_scope,
            vopr_scope,
        ],
        r5_frontier: vec![
            "analyze_view_columnar".into(),
            "refill_from_merged".into(),
            // Re-raises, on the stage's owner, a panic that an analysis
            // task raised beyond the frontier above.
            "surface_failure".into(),
        ],
        r6_entries: vec![FnScope {
            file: "crates/core/src/detect/ingestor.rs".into(),
            funcs: vec!["close_ready".into()],
        }],
        r6_budgeted_files: r6_budgeted,
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
            let scan = rules::scan_file_deferred(&rel, &src, &cfg);
            (rel, scan)
        })
        .collect();
    finish_workspace(scans, meta, &cfg)
}

/// Run the full pipeline over in-memory sources — used by the fixture
/// tests for the transitive rules.
pub fn run_files(files: &[(&str, &str)], cfg: &LintConfig) -> WorkspaceReport {
    let scans: Vec<(String, FileScan)> = files
        .iter()
        .map(|(rel, src)| (rel.to_string(), rules::scan_file_deferred(rel, src, cfg)))
        .collect();
    finish_workspace(scans, Vec::new(), cfg)
}

/// The global phase: transitive rules over the merged item index,
/// waiver application (transitive findings may consume waivers), then
/// unused-waiver detection.
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
