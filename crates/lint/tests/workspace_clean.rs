//! Whole-workspace self-check: the committed source must carry zero
//! unwaived findings under the checked-in configuration — including the
//! transitive rules R5/R6/R7 — and the wire decode scope must carry
//! zero waivers of any kind (the never-panic property there is
//! structural, not budgeted). The fixture tests then prove each
//! transitive rule actually fires on a known-bad shape and stays quiet
//! on the repaired one.

use std::path::PathBuf;

use vapro_lint::rules::{FnScope, LintConfig};
use vapro_lint::{run_files, run_workspace, workspace_config, WorkspaceReport};

fn workspace_root() -> PathBuf {
    // crates/lint -> crates -> workspace root
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().expect("workspace root")
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
}

#[test]
fn transitive_rules_are_clean_over_their_entry_trees() {
    let report = run_workspace(&workspace_root());
    let shown = render(&report, |f| {
        f.finding.waived.is_none() && matches!(f.finding.rule.as_str(), "R5" | "R6" | "R7")
    });
    assert!(shown.is_empty(), "unwaived transitive findings:\n{shown}");

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

    // Every configured R5 entry point must actually resolve to a
    // function and reach at least itself; a typo in the entry list
    // would otherwise pass vacuously. Checked name by name: a name two
    // impls share (`admit`) yields two lines, and a bare line count
    // would let the spare one stand in for a name that resolved to none.
    let cfg = workspace_config();
    let r5_entries: Vec<_> = report.entries.iter().filter(|e| e.stat.rule == "R5").collect();
    for scope in &cfg.r5_entries {
        for func in &scope.funcs {
            let entry = format!("{}::{func}", scope.file);
            assert!(
                r5_entries.iter().any(|e| e.stat.entry == entry),
                "configured R5 entry {entry} resolved to no function"
            );
        }
    }
    for e in &r5_entries {
        assert!(e.stat.reachable_fns >= 1, "empty walk for {}", e.stat.entry);
    }

    // The R6 window-close tree must reach past its own file: close_ready
    // fans out into clustering/columnar/diagnosis code, so a walk that
    // stays inside ingestor.rs means call resolution broke.
    let close = report
        .entries
        .iter()
        .find(|e| e.stat.rule == "R6" && e.stat.entry.ends_with("::close_ready"))
        .expect("close_ready entry line");
    assert!(
        close.stat.reachable_files.len() > 1,
        "close_ready tree collapsed to {:?}",
        close.stat.reachable_files
    );
    assert!(
        close.stat.reachable_files.iter().any(|f| f != "crates/core/src/detect/ingestor.rs"),
        "close_ready reaches only its own file"
    );
    // Cross-check against the dynamic instrumentation: the runtime
    // clone counter lives in fragment.rs, so the static tree must
    // cover the same code the counter proves clone-free at runtime.
    assert!(
        close.stat.reachable_files.contains("crates/core/src/fragment.rs"),
        "close_ready tree misses fragment.rs (clone-counter coverage): {:?}",
        close.stat.reachable_files
    );
}

#[test]
fn wire_decode_scope_has_zero_waivers() {
    let report = run_workspace(&workspace_root());
    let shown = render(&report, |f| {
        f.finding.file == "crates/core/src/wire.rs" && f.finding.rule == "R2"
    });
    assert!(
        shown.is_empty(),
        "R2 findings (waived or not) in wire.rs — the decode path must be total:\n{shown}"
    );
}

#[test]
fn waiver_budget_stays_reviewed() {
    // The budget cap mirrors the committed LINT_report.json; bumping it
    // is a deliberate, reviewed act (re-run with --accept-waivers).
    const BUDGET: usize = 43;
    let report = run_workspace(&workspace_root());
    let waived = report.findings.iter().filter(|f| f.finding.waived.is_some()).count();
    assert!(waived <= BUDGET, "waiver budget exceeded: {waived} > {BUDGET}");
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
const R6_BAD: &str = include_str!("fixtures/r6_bad.rs");
const R6_GOOD: &str = include_str!("fixtures/r6_good.rs");
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

fn r6_cfg() -> LintConfig {
    LintConfig {
        r6_entries: vec![FnScope { file: "fix/r6.rs".into(), funcs: vec!["close_entry".into()] }],
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

#[test]
fn r6_allocation_two_calls_deep_is_found() {
    let report = run_files(&[("fix/r6.rs", R6_BAD)], &r6_cfg());
    let hit = report
        .findings
        .iter()
        .find(|f| f.finding.rule == "R6" && f.finding.message.contains("to_vec"))
        .expect("deep to_vec must be reported");
    assert!(hit.finding.waived.is_none());
    let funcs: Vec<&str> = hit.path.iter().map(|h| h.func.as_str()).collect();
    assert_eq!(funcs, ["close_entry", "finalize", "snapshot"], "path: {:?}", hit.path);
}

#[test]
fn r6_in_place_reduction_is_clean() {
    let report = run_files(&[("fix/r6.rs", R6_GOOD)], &r6_cfg());
    let shown = render(&report, |f| f.finding.rule == "R6");
    assert!(shown.is_empty(), "good fixture flagged:\n{shown}");
    let entry = report.entries.iter().find(|e| e.stat.rule == "R6").expect("entry line");
    assert_eq!(entry.stat.reachable_fns, 3);
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
