//! Whole-workspace self-check: the committed source must carry zero
//! unwaived findings under the checked-in configuration, the wire
//! decode path zero R5 findings of any kind (the never-panic property
//! there is structural, not budgeted), and every function the retired
//! per-body scanner listed by hand must sit in a door's tree. Canaries
//! plant one defect at a time in the real sources and demand exactly
//! one finding back; the fixture tests prove each call-graph mechanism
//! fires on a known-bad shape and stays quiet on the repaired one.

use std::collections::BTreeSet;
use std::path::PathBuf;

use vapro_lint::rules::{FnScope, LintConfig};
use vapro_lint::{
    collect_sources, items, run_files, run_workspace, workspace_config, WorkspaceReport,
};

fn workspace_root() -> PathBuf {
    // crates/lint -> crates -> workspace root
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().expect("workspace root")
}

/// Every scanned workspace source, as `(workspace-relative path, text)`.
fn workspace_sources() -> Vec<(String, String)> {
    collect_sources(&workspace_root())
        .into_iter()
        .map(|(rel, path)| (rel, std::fs::read_to_string(path).expect("workspace source")))
        .collect()
}

fn render(report: &WorkspaceReport, pred: impl Fn(&vapro_lint::ReportFinding) -> bool) -> String {
    report
        .findings
        .iter()
        .filter(|f| pred(f))
        .map(|f| {
            format!("  {}: {}:{}: {}", f.finding.rule, f.finding.file, f.finding.line, f.finding.message)
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[test]
fn workspace_has_zero_unwaived_findings() {
    let report = run_workspace(&workspace_root());
    let shown = render(&report, |f| f.finding.waived.is_none());
    assert!(shown.is_empty(), "unwaived findings in the workspace:\n{shown}");
    // The three rules, and no waiver for a rule the lint no longer has
    // (an unused one would be a `LINT` finding).
    let rules: BTreeSet<&str> = report.findings.iter().map(|f| f.finding.rule.as_str()).collect();
    assert!(rules.iter().all(|r| ["R3", "R5", "R7"].contains(r)), "{rules:?}");
}

#[test]
fn entry_trees_reach_what_they_must() {
    let report = run_workspace(&workspace_root());

    // No R5 path from a wire-decode entry may wander into the statistics
    // crate: decode builds fragments, it fits nothing. Such a path means
    // method resolution matched by name alone (`id.index()` on a
    // `CounterId` resolving to `impl Index<(usize, usize)> for Matrix`).
    let strays = render(&report, |f| {
        f.finding.rule == "R5"
            && f.path.first().is_some_and(|h| h.file == "crates/core/src/wire.rs")
            && f.path.iter().any(|h| h.file.starts_with("crates/stats/"))
    });
    assert!(strays.is_empty(), "R5 paths from wire.rs into crates/stats:\n{strays}");

    // Every configured entry name must resolve to a function; a typo in
    // the entry list would otherwise pass vacuously.
    for scope in &workspace_config().r5_entries {
        for func in &scope.funcs {
            let resolved = report.entries.iter().any(|e| {
                e.stat.entry.starts_with(&format!("{}::", scope.file))
                    && e.stat.entry.ends_with(&format!("::{func}"))
            });
            assert!(resolved, "configured R5 entry {}::{func} resolved to no function", scope.file);
        }
    }
    // One line per entry: labels carry the impl type, so two impls'
    // same-named methods no longer print the same line twice.
    let labels: BTreeSet<_> = report.entries.iter().map(|e| (&e.stat.rule, &e.stat.entry)).collect();
    assert_eq!(labels.len(), report.entries.len(), "duplicate entry lines");

    // The window-close tree, walked from `close_ready` with no frontier,
    // must reach past its own file: close_ready fans out into
    // clustering/columnar/diagnosis code, so a walk that stays inside
    // ingestor.rs means call resolution broke.
    let close_ready = LintConfig {
        r5_entries: vec![FnScope {
            file: "crates/core/src/detect/ingestor.rs".into(),
            funcs: vec!["close_ready".into()],
        }],
        ..Default::default()
    };
    let sources = workspace_sources();
    let refs: Vec<(&str, &str)> = sources.iter().map(|(r, s)| (r.as_str(), s.as_str())).collect();
    let report = run_files(&refs, &close_ready);
    let [close] = report.entries.as_slice() else { panic!("{} entry lines", report.entries.len()) };
    let reaches = |file: &str| close.stat.reachable.iter().any(|l| l.starts_with(file));
    assert!(reaches("crates/core/src/clustering.rs::"), "{:?}", close.stat.reachable);
    // The AoS `Fragment` has left the window path: detection and the
    // drill-down read the sealed columns, so nothing of fragment.rs is
    // called from it (the runtime clone counter agrees, at zero).
    assert!(!reaches("crates/core/src/fragment.rs::"), "close_ready tree calls into fragment.rs");
    // The drill-down's column reader, behind the batch's closure-driven
    // descent (`dyn` receivers stay covered by the `r5_dyn_*` fixtures).
    assert!(
        reaches("crates/core/src/diagnose/quantify.rs::FactorValues::from_members"),
        "close_ready tree misses FactorValues::from_members"
    );
}

/// The retired R2 scanner's hand-kept scope as it stood when the scanner
/// went: 42 function names over six files (`push_sized` is gone with the
/// method). A migration record, not a list to keep: a name that is
/// later renamed or deleted drops out of the check by itself.
const FORMER_R2_SCOPE: &[(&str, &[&str])] = &[
    (
        "crates/core/src/wire.rs",
        &[
            "take", "u8", "u32", "u64", "array", "column", "since", "parse", "parse_frame",
            "header", "labels", "vertex_heads", "edge_heads", "rows", "next", "to_batch",
            "decode", "kind_from_byte",
        ],
    ),
    ("crates/core/src/detect/ingestor.rs", &["push_encoded", "push_frame"]),
    ("crates/core/src/detect/arena.rs", &["push_frame", "absorb", "append", "key_id", "pool_at"]),
    ("crates/core/src/detect/admission.rs", &["admit", "is_duplicate", "gaps", "count_decode_error"]),
    ("crates/core/src/fleet.rs", &["push_encoded", "register_job", "shard_of", "harvest"]),
    (
        "crates/vopr/src/model.rs",
        &[
            "accept", "predict", "classify", "absorb", "record_birth", "watermark_ns",
            "update_liveness", "outcome_name",
        ],
    ),
];

#[test]
fn doors_reach_every_function_the_per_body_scanner_listed() {
    let root = workspace_root();
    let report = run_workspace(&root);
    let in_a_tree: BTreeSet<&String> = report
        .entries
        .iter()
        .filter(|e| e.stat.rule == "R5")
        .flat_map(|e| &e.stat.reachable)
        .collect();
    for (file, names) in FORMER_R2_SCOPE {
        let src = std::fs::read_to_string(root.join(file)).expect("scoped file");
        let index = items::index_file(&src);
        for name in *names {
            for f in index.fns.iter().filter(|f| !f.test && f.name == *name) {
                let label = match &f.impl_type {
                    Some(ty) => format!("{file}::{ty}::{name}"),
                    None => format!("{file}::{name}"),
                };
                // The owned batch's own header accessor only ever shared
                // a name with `FrameView::header`: a sender builds it
                // from its own fields, no hostile byte gets near it.
                if label.ends_with("::FragmentBatch::header") {
                    continue;
                }
                assert!(in_a_tree.contains(&label), "{label} is in no R5 door's tree");
            }
        }
    }
}

#[test]
fn wire_decode_path_has_zero_r5_findings() {
    let report = run_workspace(&workspace_root());
    let shown = render(&report, |f| {
        f.finding.file == "crates/core/src/wire.rs" && f.finding.rule == "R5"
    });
    assert!(
        shown.is_empty(),
        "R5 findings (waived or not) in wire.rs — the decode path must be total:\n{shown}"
    );
    let cfg = workspace_config();
    assert_eq!(cfg.r5_arith_files, ["crates/core/src/wire.rs"]);
    assert_eq!(cfg.r5_no_waiver_files, ["crates/core/src/wire.rs"]);
}

#[test]
fn waiver_budget_stays_reviewed() {
    // The budget cap mirrors the committed LINT_report.json; bumping it
    // is a deliberate, reviewed act (re-run with --accept-waivers).
    const BUDGET: usize = 3;
    let report = run_workspace(&workspace_root());
    let waived = report.findings.iter().filter(|f| f.finding.waived.is_some()).count();
    assert!(waived <= BUDGET, "waiver budget exceeded: {waived} > {BUDGET}");
}

// ---- canaries: one planted defect, one finding ----------------------

/// The checked-in configuration over the real sources with `line`
/// inserted after the one line of `file` that contains `anchor`.
fn planted(file: &str, anchor: &str, line: &str) -> WorkspaceReport {
    let mut sources = workspace_sources();
    let (_, src) = sources.iter_mut().find(|(rel, _)| rel == file).expect("canary file");
    assert_eq!(src.matches(anchor).count(), 1, "canary anchor `{anchor}` must be unique in {file}");
    let at = src.find(anchor).expect("anchor");
    let eol = at + src[at..].find('\n').expect("anchor line ends") + 1;
    src.insert_str(eol, &format!("{line}\n"));
    let refs: Vec<(&str, &str)> = sources.iter().map(|(r, s)| (r.as_str(), s.as_str())).collect();
    run_files(&refs, &workspace_config())
}

/// Exactly one unwaived finding, of `rule`, in `file`, carrying a call
/// path that starts at `door`.
fn assert_caught(report: &WorkspaceReport, rule: &str, file: &str, door: &str, what: &str) {
    let new: Vec<_> = report.findings.iter().filter(|f| f.finding.waived.is_none()).collect();
    assert_eq!(new.len(), 1, "want one finding:\n{}", render(report, |f| f.finding.waived.is_none()));
    let (f, path) = (&new[0].finding, &new[0].path);
    assert_eq!((f.rule.as_str(), f.file.as_str()), (rule, file), "{f:?}");
    assert!(f.message.contains(what), "{f:?}");
    assert!(path.len() > 1 && path[0].func == door, "no call path from {door}: {path:?}");
}

#[test]
fn canary_unwrap_in_the_wire_reader() {
    let file = "crates/core/src/wire.rs";
    let report =
        planted(file, "fn u32(&mut self) -> Result<u32, WireError> {", "let _ = self.buf.first().unwrap();");
    assert_caught(&report, "R5", file, "decode", ".unwrap()");
}

/// The CRC fold runs behind the crate's one `unsafe` call, after CPU
/// feature detection: the walk must go through that call into the
/// kernel, not stop at it.
#[test]
fn canary_unwrap_in_the_crc_fold() {
    let file = "crates/core/src/wire.rs";
    let report = planted(file, "let k1k2 = _mm_set_epi64x(K2, K1);", "let _ = lines.first().unwrap();");
    assert_caught(&report, "R5", file, "decode", ".unwrap()");
    let found = report.findings.iter().find(|f| f.finding.waived.is_none()).expect("the finding");
    let funcs: Vec<&str> = found.path.iter().map(|h| h.func.as_str()).collect();
    assert_eq!(funcs, ["decode", "parse", "checksum", "crc32_clmul_fold"]);
    // `FrameView::parse`, the door the server's bytes come through,
    // counts it too.
    let parse = report
        .entries
        .iter()
        .find(|e| e.stat.rule == "R5" && e.stat.entry.ends_with("::FrameView::parse"))
        .expect("parse entry line");
    assert_eq!(parse.unwaived, 1, "{:?}", parse.stat.entry);
}

/// Lines of `manifest` that name any of `crates` outside a dev-dependency
/// table. Table headers count too: `[dependencies.vapro-bench]` and
/// `[target.'cfg(..)'.dependencies.vapro-bench]` declare a dependency in
/// the header itself.
fn forbidden_dependencies(manifest: &str, crates: &[&str]) -> Vec<String> {
    let mut section = "";
    let mut hits = Vec::new();
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            section = line;
        }
        if !section.contains("dev-dependencies")
            && !line.starts_with('#')
            && crates.iter().any(|c| line.contains(c))
        {
            hits.push(format!("{section}: {line}"));
        }
    }
    hits
}

#[test]
fn dependency_arrows_point_one_way() {
    // core ← vopr ← bench. The harnesses build on the library and the
    // bench may borrow the simulation tester's model (`reports_identical`,
    // `synthetic_stgs`) — never the other way round.
    let manifest = |krate: &str| {
        std::fs::read_to_string(workspace_root().join("crates").join(krate).join("Cargo.toml"))
            .expect("crate manifest")
    };
    let vopr = forbidden_dependencies(&manifest("vopr"), &["vapro-bench"]);
    assert!(vopr.is_empty(), "crates/vopr depends on the bench: {vopr:?}");
    let core = forbidden_dependencies(&manifest("core"), &["vapro-bench", "vapro-vopr"]);
    assert!(core.is_empty(), "crates/core depends on a harness: {core:?}");

    // The guard itself can fail: a bench dependency is caught in every
    // table but the dev ones, whether it is a key or the table's own name.
    let bad = "[package]\nname = \"x\"\n[dependencies]\nvapro-bench = { path = \"../bench\" }\n\
               [dev-dependencies]\nvapro-bench = { path = \"../bench\" }\n\
               [dev-dependencies.vapro-bench]\npath = \"../bench\"\n\
               [dependencies.vapro-bench]\npath = \"../bench\"\n\
               [target.'cfg(unix)'.dependencies.vapro-bench]\npath = \"../bench\"\n\
               [target.'cfg(unix)'.dev-dependencies]\nvapro-bench = { path = \"../bench\" }\n";
    let hits = forbidden_dependencies(bad, &["vapro-bench"]);
    assert_eq!(hits.len(), 3, "{hits:?}");
}

// ---- transitive-rule fixtures --------------------------------------

const R5_BAD: &str = include_str!("fixtures/r5_bad.rs");
const R5_GOOD: &str = include_str!("fixtures/r5_good.rs");
const R5_ARITY_BAD: &str = include_str!("fixtures/r5_arity_bad.rs");
const R5_ARITY_GOOD: &str = include_str!("fixtures/r5_arity_good.rs");
const R5_TURBOFISH_BAD: &str = include_str!("fixtures/r5_turbofish_bad.rs");
const R5_TURBOFISH_GOOD: &str = include_str!("fixtures/r5_turbofish_good.rs");
const R5_TYPED_BAD: &str = include_str!("fixtures/r5_typed_bad.rs");
const R5_TYPED_GOOD: &str = include_str!("fixtures/r5_typed_good.rs");
const R5_DYN_BAD: &str = include_str!("fixtures/r5_dyn_bad.rs");
const R5_DYN_GOOD: &str = include_str!("fixtures/r5_dyn_good.rs");
const R7_BAD: &str = include_str!("fixtures/r7_bad.rs");
const R7_GOOD: &str = include_str!("fixtures/r7_good.rs");
const R7_SPAWN_BAD: &str = include_str!("fixtures/r7_spawn_bad.rs");
const R7_SPAWN_GOOD: &str = include_str!("fixtures/r7_spawn_good.rs");

fn r5_cfg() -> LintConfig {
    LintConfig {
        r5_entries: vec![FnScope { file: "fix/r5.rs".into(), funcs: vec!["entry".into()] }],
        ..Default::default()
    }
}

fn r7_cfg() -> LintConfig {
    LintConfig { r7_files: vec!["fix/".into()], ..Default::default() }
}

#[test]
fn r5_two_hop_panic_is_found_with_full_path() {
    let report = run_files(&[("fix/r5.rs", R5_BAD)], &r5_cfg());
    let hit = report
        .findings
        .iter()
        .find(|f| f.finding.rule == "R5" && f.finding.message.contains("unwrap"))
        .expect("two-hop unwrap must be reported");
    assert!(hit.finding.waived.is_none());
    // The finding carries the whole chain entry → helper → leaf.
    let funcs: Vec<&str> = hit.path.iter().map(|h| h.func.as_str()).collect();
    assert_eq!(funcs, ["entry", "helper", "leaf"], "path: {:?}", hit.path);
}

#[test]
fn r5_handled_leaf_is_clean() {
    let report = run_files(&[("fix/r5.rs", R5_GOOD)], &r5_cfg());
    let shown = render(&report, |f| f.finding.rule == "R5");
    assert!(shown.is_empty(), "good fixture flagged:\n{shown}");
    // The walk still covered all three functions.
    let entry = report.entries.iter().find(|e| e.stat.rule == "R5").expect("entry line");
    assert_eq!(entry.stat.reachable_fns, 3);
}

#[test]
fn r5_same_named_method_of_another_arity_is_not_the_callee() {
    let report = run_files(&[("fix/r5.rs", R5_ARITY_GOOD)], &r5_cfg());
    let shown = render(&report, |f| f.finding.rule == "R5");
    assert!(shown.is_empty(), "a one-parameter `index` was walked for a no-argument call:\n{shown}");
    // The walk reached the real callee, not nothing.
    let entry = report.entries.iter().find(|e| e.stat.rule == "R5").expect("entry line");
    assert_eq!(entry.stat.reachable_fns, 2);
}

#[test]
fn r5_same_named_method_of_the_same_arity_is_still_tainted() {
    let report = run_files(&[("fix/r5.rs", R5_ARITY_BAD)], &r5_cfg());
    let hit = report
        .findings
        .iter()
        .find(|f| f.finding.rule == "R5" && f.finding.message.contains("indexing"))
        .expect("the panicking one-parameter `index` must be reported");
    let funcs: Vec<&str> = hit.path.iter().map(|h| h.func.as_str()).collect();
    assert_eq!(funcs, ["entry", "index"], "path: {:?}", hit.path);
}

/// The three call shapes the hand-kept scope lists used to paper over:
/// each bad fixture's indexing sits behind a call the walk must
/// resolve, and each good twin proves the callee was reached, not
/// skipped.
#[test]
fn turbofish_typed_and_dyn_receivers_resolve() {
    let cases = [
        (R5_TURBOFISH_BAD, R5_TURBOFISH_GOOD, ["entry", "column"], 2),
        (R5_TYPED_BAD, R5_TYPED_GOOD, ["entry", "append"], 2),
        // The trait's own bodyless `collect` is visited beside the impl's.
        (R5_DYN_BAD, R5_DYN_GOOD, ["entry", "collect"], 3),
    ];
    for (bad, good, path, reached) in cases {
        let report = run_files(&[("fix/r5.rs", bad)], &r5_cfg());
        let hit = report
            .findings
            .iter()
            .find(|f| f.finding.rule == "R5" && f.finding.message.contains("indexing"))
            .unwrap_or_else(|| panic!("indexing behind {path:?} must be reported"));
        let funcs: Vec<&str> = hit.path.iter().map(|h| h.func.as_str()).collect();
        assert_eq!(funcs, path, "path: {:?}", hit.path);

        let report = run_files(&[("fix/r5.rs", good)], &r5_cfg());
        let shown = render(&report, |f| f.finding.rule == "R5");
        assert!(shown.is_empty(), "good twin of {path:?} flagged:\n{shown}");
        let entry = report.entries.iter().find(|e| e.stat.rule == "R5").expect("entry line");
        assert_eq!(entry.stat.reachable_fns, reached, "good twin of {path:?}: callee not walked");
    }
}

#[test]
fn r7_guard_across_rayon_join_is_found() {
    let report = run_files(&[("fix/r7.rs", R7_BAD)], &r7_cfg());
    let hit = report
        .findings
        .iter()
        .find(|f| f.finding.rule == "R7" && f.finding.message.contains("rayon"))
        .expect("guard across rayon::join must be reported");
    assert!(hit.finding.waived.is_none());
    assert!(hit.finding.message.contains("guard `m`"), "message: {}", hit.finding.message);
}

#[test]
fn r7_guard_across_spawn_and_yield_now_is_found() {
    let report = run_files(&[("fix/r7.rs", R7_SPAWN_BAD)], &r7_cfg());
    for (entry, func) in [("rayon::spawn", "hand_off"), ("rayon::yield_now", "wait_for_items")] {
        let hit = report
            .findings
            .iter()
            .find(|f| f.finding.rule == "R7" && f.finding.message.contains(entry))
            .unwrap_or_else(|| panic!("guard across {entry} must be reported"));
        assert!(hit.finding.waived.is_none());
        assert!(hit.finding.message.contains("guard `m`"), "message: {}", hit.finding.message);
        assert_eq!(hit.path.last().map(|h| h.func.as_str()), Some(func));
    }
}

#[test]
fn r7_guard_dropped_before_spawn_and_yield_now_is_clean() {
    let report = run_files(&[("fix/r7.rs", R7_SPAWN_GOOD)], &r7_cfg());
    let shown = render(&report, |f| f.finding.rule == "R7");
    assert!(shown.is_empty(), "good fixture flagged:\n{shown}");
}

#[test]
fn r7_dropped_guard_is_clean() {
    let report = run_files(&[("fix/r7.rs", R7_GOOD)], &r7_cfg());
    let shown = render(&report, |f| f.finding.rule == "R7");
    assert!(shown.is_empty(), "good fixture flagged:\n{shown}");
}
