//! The rule configuration, the one per-file rule, and the waiver
//! machinery.
//!
//! Four project rules. Every site they report is found by one pass,
//! `items::facts`; a rule is a scope over those facts:
//!
//! * **R3 float-hygiene** (per file, `r3_files`) — `partial_cmp`
//!   comparisons and `NAN` constants in normalization / heatmap / region
//!   / clustering code, where a NaN comparison silently corrupts
//!   ordering.
//! * **R5 panic-freedom** (per entry tree, `r5_entries`) —
//!   `unwrap`/`expect`-family calls, panicking macros, direct slice
//!   indexing and calls to externals not known total, in every function
//!   a door reaches; in `r5_arith_files` also unchecked `+ - *`.
//! * **R6 hot-path allocation** (per entry tree, `r6_entries`) —
//!   `.clone()` / `.cloned()` / `.to_vec()` / `.to_owned()`, and a
//!   per-element `.push(…)` inside a `for`/`while`/`loop` body of a
//!   function that never calls `with_capacity` / `reserve` /
//!   `reserve_exact`: size the buffer first or waive with the reason it
//!   cannot be sized.
//! * **R7 lock hygiene** (per file, `r7_files`) — see `callgraph`.
//!
//! A finding can be waived with `// vapro-lint: allow(R6, reason)` —
//! trailing on the offending line, or on the whole line directly above
//! it. Waivers are collected into the report as an explicit budget.
//! Malformed and unused waivers are themselves (unwaivable) findings, as
//! is an R5 waiver in a no-waiver file.

use crate::items::{index_tokens, FileIndex};
use crate::lexer::lex;

/// Rule id for meta findings about the waiver mechanism itself.
pub const META_RULE: &str = "LINT";

/// One diagnostic. `waived` carries the reason when a waiver matched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: String,
    pub file: String,
    pub line: u32,
    pub message: String,
    pub waived: Option<String>,
}

/// A file (prefix) plus the function names a rule is rooted at inside
/// it. An empty `funcs` list means "every non-test function there".
#[derive(Debug, Clone, Default)]
pub struct FnScope {
    pub file: String,
    pub funcs: Vec<String>,
}

/// The full rule configuration. File entries are `/`-separated
/// workspace-relative prefixes (`crates/core/src/detect/` matches the
/// whole module directory, `…/wire.rs` a single file).
#[derive(Debug, Clone, Default)]
pub struct LintConfig {
    /// R3 applies to files matching these prefixes.
    pub r3_files: Vec<String>,
    /// R5 panic-freedom entry points: every function named here must be
    /// panic-free across its entire reachable call tree.
    pub r5_entries: Vec<FnScope>,
    /// Function names at which the R5 walk stops descending: the
    /// sealed-data boundary where the hostile-input contract ends and
    /// dynamically-verified analysis code begins.
    pub r5_frontier: Vec<String>,
    /// Files whose functions, when an R5 tree reaches them, must also be
    /// free of unchecked `+ - *`.
    pub r5_arith_files: Vec<String>,
    /// Files that accept no R5 waiver: one there is a `LINT` finding and
    /// suppresses nothing.
    pub r5_no_waiver_files: Vec<String>,
    /// R6 hot-path-allocation entry points. A scope with no function
    /// names makes every non-test function of its files a root.
    pub r6_entries: Vec<FnScope>,
    /// R7 lock hygiene applies to files matching these prefixes
    /// (empty = disabled; `["crates/"]` = the whole workspace).
    pub r7_files: Vec<String>,
}

pub(crate) fn file_matches(rel: &str, prefixes: &[String]) -> bool {
    prefixes.iter().any(|p| rel.starts_with(p.as_str()))
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Waiver {
    pub(crate) rule: String,
    pub(crate) reason: String,
    /// Line of the comment itself (for diagnostics).
    pub(crate) line: u32,
    /// Code line the waiver annotates.
    pub(crate) target: Option<u32>,
    pub(crate) used: bool,
    /// An R5 waiver in a no-waiver file: it already produced a meta
    /// finding and suppresses nothing.
    pub(crate) forbidden: bool,
}

/// Everything one file contributes to the workspace pass: its R3
/// findings and waiver-grammar complaints, the waiver table for the
/// entry-tree rules to consume, and the item index the call graph is
/// built from. Unused-waiver detection waits until every rule has had
/// its chance to use each waiver.
#[derive(Debug, Clone, Default)]
pub(crate) struct FileScan {
    pub(crate) findings: Vec<Finding>,
    pub(crate) waivers: Vec<Waiver>,
    pub(crate) index: FileIndex,
}

/// Append unused-waiver findings for every waiver still unconsumed.
pub(crate) fn finish_waivers(rel: &str, waivers: &[Waiver], findings: &mut Vec<Finding>) {
    for w in waivers {
        if !w.used && !w.forbidden {
            findings.push(Finding {
                rule: META_RULE.into(),
                file: rel.into(),
                line: w.line,
                message: format!("unused waiver for {} (nothing to allow here)", w.rule),
                waived: None,
            });
        }
    }
}

/// The per-file phase: lex once, collect waivers, index, apply R3.
/// `rel` is the workspace-relative path used for scoping and in
/// diagnostics.
pub(crate) fn scan_file(rel: &str, src: &str, cfg: &LintConfig) -> FileScan {
    let lexed = lex(src);
    let toks = &lexed.tokens;
    let no_r5_waivers = file_matches(rel, &cfg.r5_no_waiver_files);
    let mut waivers: Vec<Waiver> = Vec::new();
    let mut findings: Vec<Finding> = Vec::new();
    let mut meta = |line: u32, message: String| {
        findings.push(Finding { rule: META_RULE.into(), file: rel.into(), line, message, waived: None })
    };

    for c in &lexed.comments {
        // Doc comments talk *about* the grammar; only plain comments
        // carry directives.
        let doc = ["///", "//!", "/**", "/*!"].iter().any(|d| c.text.starts_with(d));
        if doc {
            continue;
        }
        let Some(pos) = c.text.find("vapro-lint") else { continue };
        let Some((rule, reason)) = parse_allow(&c.text[pos + "vapro-lint".len()..]) else {
            meta(c.line, "malformed directive (expected `vapro-lint: allow(RULE, reason)`)".into());
            continue;
        };
        let target = if c.trailing {
            Some(c.line)
        } else {
            toks.iter().find(|t| t.line > c.line).map(|t| t.line)
        };
        let forbidden = no_r5_waivers && rule == "R5";
        if forbidden {
            meta(c.line, "waiver for R5 not permitted in a no-waiver file".into());
        }
        waivers.push(Waiver { rule, reason, line: c.line, target, used: false, forbidden });
    }

    let index = index_tokens(toks);
    if file_matches(rel, &cfg.r3_files) {
        for site in &index.float_sites {
            let waived = consume_waiver(&mut waivers, "R3", site.line);
            findings.push(Finding {
                rule: "R3".into(),
                file: rel.into(),
                line: site.line,
                message: site.what.clone(),
                waived,
            });
        }
    }
    FileScan { findings, waivers, index }
}

/// Mark the first matching waiver used and return its reason. A waiver
/// suppresses any number of findings of its rule on its target line
/// (several findings can share a line).
pub(crate) fn consume_waiver(
    waivers: &mut [Waiver],
    rule: &str,
    line: u32,
) -> Option<String> {
    for w in waivers.iter_mut() {
        if !w.forbidden && w.rule == rule && w.target == Some(line) {
            w.used = true;
            return Some(w.reason.clone());
        }
    }
    None
}

/// Parse the tail of a directive: `: allow(RULE, reason)`.
fn parse_allow(directive: &str) -> Option<(String, String)> {
    let rest = directive.trim_start().strip_prefix(':')?.trim_start();
    let rest = rest.strip_prefix("allow")?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let inner = &rest[..rest.rfind(')')?];
    let (rule, reason) = inner.split_once(',')?;
    let rule = rule.trim();
    let reason = reason.trim();
    let rule_ok = !rule.is_empty()
        && rule.chars().all(|c| c.is_ascii_alphanumeric())
        && rule.chars().next().is_some_and(|c| c.is_ascii_uppercase());
    if !rule_ok || reason.is_empty() {
        return None;
    }
    Some((rule.to_string(), reason.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_files;

    /// Every function of `file` is an R5 and an R6 root.
    fn cfg_all(file: &str) -> LintConfig {
        let all = vec![FnScope { file: file.into(), funcs: vec![] }];
        LintConfig {
            r3_files: vec![file.into()],
            r5_entries: all.clone(),
            r5_arith_files: vec![file.into()],
            r6_entries: all,
            ..Default::default()
        }
    }

    fn scan(rel: &str, src: &str, cfg: &LintConfig) -> Vec<Finding> {
        run_files(&[(rel, src)], cfg).findings.into_iter().map(|f| f.finding).collect()
    }

    #[test]
    fn trailing_waiver_suppresses_same_line() {
        let src = "fn f(x: &Vec<u32>) -> Vec<u32> {\n    x.clone() // vapro-lint: allow(R6, cold path)\n}\n";
        let f = scan("a.rs", src, &cfg_all("a.rs"));
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "R6");
        assert_eq!(f[0].waived.as_deref(), Some("cold path"));
    }

    #[test]
    fn whole_line_waiver_covers_next_code_line() {
        let src = "fn f(x: &Vec<u32>) -> Vec<u32> {\n    // vapro-lint: allow(R6, cold path)\n    x.clone()\n}\n";
        let f = scan("a.rs", src, &cfg_all("a.rs"));
        assert_eq!(f.len(), 1);
        assert!(f[0].waived.is_some());
    }

    #[test]
    fn unused_and_malformed_waivers_are_findings() {
        let src = "// vapro-lint: allow(R6, nothing here)\nfn ok() {}\n// vapro-lint: allow(R9)\nfn also_ok() {}\n";
        let f = scan("a.rs", src, &cfg_all("a.rs"));
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|x| x.rule == META_RULE && x.waived.is_none()));
    }

    #[test]
    fn waiver_rule_must_match_finding_rule() {
        let src = "fn f(x: &Vec<u32>) -> Vec<u32> {\n    x.clone() // vapro-lint: allow(R5, wrong rule)\n}\n";
        let f = scan("a.rs", src, &cfg_all("a.rs"));
        // The R6 finding stays unwaived and the R5 waiver is unused.
        assert_eq!(f.iter().filter(|x| x.rule == "R6" && x.waived.is_none()).count(), 1);
        assert_eq!(f.iter().filter(|x| x.rule == META_RULE).count(), 1);
    }

    #[test]
    fn no_waiver_files_reject_r5_waivers() {
        let src = "fn decode(b: &[u8]) -> u8 {\n    b[0] // vapro-lint: allow(R5, trust me)\n}\n";
        let mut cfg = cfg_all("wire.rs");
        cfg.r5_no_waiver_files = vec!["wire.rs".into()];
        let f = scan("wire.rs", src, &cfg);
        // The indexing finding survives unwaived AND the waiver itself is
        // flagged (once: it is not also "unused").
        assert!(f.iter().any(|x| x.rule == "R5" && x.waived.is_none()));
        assert_eq!(f.iter().filter(|x| x.rule == META_RULE).count(), 1);
    }

    #[test]
    fn slice_patterns_and_attrs_are_not_indexing() {
        let src = "#[derive(Debug)]\nstruct S;\nfn f(v: &[u8]) -> Option<u8> {\n    let [a, _b]: [u8; 2] = [1, 2];\n    let _ = a;\n    v.get(0).copied()\n}\n";
        let f = scan("a.rs", src, &cfg_all("a.rs"));
        assert!(f.is_empty(), "unexpected findings: {f:?}");
    }

    #[test]
    fn test_modules_are_exempt() {
        let src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { let v = vec![1]; let _ = v.clone(); let _ = v[0]; }\n    const BAD: f64 = f64::NAN;\n}\n";
        let f = scan("a.rs", src, &cfg_all("a.rs"));
        assert!(f.is_empty(), "unexpected findings: {f:?}");
    }
}
