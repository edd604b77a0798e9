//! Fixture-driven rule tests: each kind of site must fire on its
//! known-bad fixture — on exactly the lines the fixture marks — and stay
//! silent on the known-good twin, and the waiver machinery must
//! suppress, report, and complain exactly as specified.

use std::fs;
use std::path::PathBuf;

use vapro_lint::rules::{FnScope, LintConfig, META_RULE};
use vapro_lint::{run_files, ReportFinding};

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    fs::read_to_string(&path).unwrap_or_else(|e| panic!("fixture {name}: {e}"))
}

/// Every rule over one fixture file: R3 by file, R6 rooted at every
/// function, R5 (arithmetic included) rooted at the fixture's `decode`,
/// mirroring the workspace config's function-level doors.
fn scan(name: &str) -> Vec<ReportFinding> {
    let cfg = LintConfig {
        r3_files: vec![name.into()],
        r5_entries: vec![FnScope { file: name.into(), funcs: vec!["decode".into()] }],
        r5_arith_files: vec![name.into()],
        r6_entries: vec![FnScope { file: name.into(), funcs: vec![] }],
        ..Default::default()
    };
    run_files(&[(name, &fixture(name))], &cfg).findings
}

/// Lines of the unwaived findings of `rule`, in order.
fn lines(findings: &[ReportFinding], rule: &str) -> Vec<u32> {
    findings
        .iter()
        .filter(|f| f.finding.rule == rule && f.finding.waived.is_none())
        .map(|f| f.finding.line)
        .collect()
}

#[test]
fn every_owned_copy_fires() {
    let f = scan("r1_bad.rs");
    assert_eq!(lines(&f, "R6"), [9, 10, 11, 16], "clone/to_vec/cloned/to_owned: {f:#?}");
    assert_eq!(f.len(), 4);
}

#[test]
fn every_way_a_decode_can_panic_fires() {
    let f = scan("r2_bad.rs");
    assert_eq!(
        lines(&f, "R5"),
        [6, 7, 8, 8, 9, 9, 10],
        "macro, indexing, `*` and `+`, indexing + expect, unwrap: {f:#?}"
    );
    let msgs: Vec<&str> = f.iter().map(|x| x.finding.message.as_str()).collect();
    for what in ["assert!", "slice indexing", "overflow", ".unwrap()", ".expect()"] {
        assert!(msgs.iter().any(|m| m.contains(what)), "no `{what}` finding: {msgs:#?}");
    }
}

#[test]
fn functions_no_door_reaches_are_exempt_from_r5() {
    // Same bad source, but the door is a function that does not exist.
    let cfg = LintConfig {
        r5_entries: vec![FnScope { file: "r2_bad.rs".into(), funcs: vec!["other_fn".into()] }],
        r5_arith_files: vec!["r2_bad.rs".into()],
        ..Default::default()
    };
    let f = run_files(&[("r2_bad.rs", &fixture("r2_bad.rs"))], &cfg).findings;
    assert!(f.is_empty(), "out-of-tree fn must be exempt: {f:#?}");
}

#[test]
fn partial_cmp_and_nan_fire() {
    assert_eq!(lines(&scan("r3_bad.rs"), "R3"), [5, 9]);
}

#[test]
fn unreserved_push_loops_fire() {
    let f = scan("r4_bad.rs");
    assert_eq!(lines(&f, "R6"), [7, 15, 25], "for-, while- and nested-loop pushes: {f:#?}");
    assert!(f.iter().all(|x| x.finding.message.contains("with_capacity/reserve")));
}

#[test]
fn good_twins_are_silent() {
    for name in ["r1_good.rs", "r2_good.rs", "r3_good.rs", "r4_good.rs"] {
        let f = scan(name);
        assert!(f.is_empty(), "{name} must be silent: {f:#?}");
    }
}

#[test]
fn waivers_suppress_report_and_complain() {
    let f = scan("waivers.rs");
    // Trailing + whole-line waivers suppress their R6 findings…
    let waived: Vec<_> =
        f.iter().filter_map(|x| Some((x.finding.line, x.finding.waived.as_deref()?))).collect();
    assert_eq!(
        waived,
        [(9, "cold path, runs once per report"), (14, "snapshot for the report")],
        "{f:#?}"
    );
    // …while the unused and the malformed directives become findings.
    assert_eq!(lines(&f, META_RULE), [18, 23], "{f:#?}");
    assert!(f.iter().any(|x| x.finding.message.contains("unused waiver")));
    assert!(f.iter().any(|x| x.finding.message.contains("malformed directive")));
    // Nothing else slipped through unwaived.
    assert_eq!(f.len(), 4, "{f:#?}");
}
