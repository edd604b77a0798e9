//! `LINT_report.json` rendering — hand-rolled so the lint crate carries
//! zero external dependencies. The report is the reviewable waiver
//! budget: the driver compares waived counts against the committed
//! report, rule by rule, and fails on any increase that was not
//! explicitly accepted.
//!
//! Schema v3: a `rules` section (per-rule counts; keys ⊆ R3, R5, R7,
//! LINT), an `entry_points` section (one line per R5 entry:
//! reachability and finding counts) and the findings, those of an entry
//! tree with a `path` array (`entry → helper → site` function names).

use std::collections::BTreeMap;

use crate::{ReportFinding, WorkspaceReport};

/// Render a workspace run as stable, sorted JSON.
pub fn render_json(report: &WorkspaceReport) -> String {
    let mut sorted: Vec<&ReportFinding> = report.findings.iter().collect();
    sorted.sort_by(|a, b| {
        (&a.finding.file, a.finding.line, &a.finding.rule, &a.finding.message)
            .cmp(&(&b.finding.file, b.finding.line, &b.finding.rule, &b.finding.message))
    });

    let unwaived = sorted.iter().filter(|f| f.finding.waived.is_none()).count();
    let waived = sorted.len() - unwaived;

    let mut per_rule: BTreeMap<&str, (usize, usize)> = BTreeMap::new();
    for f in &sorted {
        let e = per_rule.entry(f.finding.rule.as_str()).or_insert((0, 0));
        if f.finding.waived.is_none() {
            e.0 += 1;
        } else {
            e.1 += 1;
        }
    }

    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"vapro-lint/3\",\n");
    out.push_str(&format!("  \"unwaived\": {unwaived},\n"));
    out.push_str(&format!("  \"waived\": {waived},\n"));
    out.push_str("  \"rules\": {");
    let mut first = true;
    for (rule, (u, w)) in &per_rule {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "\n    {}: {{\"unwaived\": {u}, \"waived\": {w}}}",
            json_str(rule)
        ));
    }
    if !per_rule.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("},\n");

    out.push_str("  \"entry_points\": [");
    let mut first = true;
    for e in &report.entries {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str(&format!(
            "\n    {{\"rule\": {}, \"entry\": {}, \"reachable_fns\": {}, \"unwaived\": {}, \"waived\": {}}}",
            json_str(&e.stat.rule),
            json_str(&e.stat.entry),
            e.stat.reachable_fns,
            e.unwaived,
            e.waived
        ));
    }
    if !report.entries.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n");

    out.push_str("  \"findings\": [");
    let mut first = true;
    for f in &sorted {
        if !first {
            out.push(',');
        }
        first = false;
        let waiver = match &f.finding.waived {
            Some(r) => json_str(r),
            None => "null".to_string(),
        };
        let path = if f.path.len() > 1 {
            format!(
                ", \"path\": [{}]",
                f.path.iter().map(|h| json_str(&h.func)).collect::<Vec<_>>().join(", ")
            )
        } else {
            String::new()
        };
        out.push_str(&format!(
            "\n    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}, \"waiver\": {}{}}}",
            json_str(&f.finding.rule),
            json_str(&f.finding.file),
            f.finding.line,
            json_str(&f.finding.message),
            waiver,
            path
        ));
    }
    if !sorted.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Extract the per-rule waived counts from the `rules` section of a
/// committed report. The parse targets exactly what [`render_json`]
/// writes; anything foreign yields an empty map, which the driver's
/// ratchet reads as a budget of zero for every rule.
pub fn baseline_rule_waived(json: &str) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    let Some(start) = json.find("\"rules\": {") else { return out };
    let body = &json[start + "\"rules\": {".len()..];
    // The section closes with a brace at two-space indent; the per-rule
    // lines sit at four spaces, so this cannot match one of them.
    let Some(end) = body.find("\n  }") else { return out };
    for line in body[..end].lines() {
        let line = line.trim().trim_end_matches(',');
        // `"R5": {"unwaived": 0, "waived": 3}`
        let Some(rest) = line.strip_prefix('"') else { continue };
        let Some((rule, rest)) = rest.split_once('"') else { continue };
        let Some(pos) = rest.find("\"waived\":") else { continue };
        let digits: String = rest[pos + "\"waived\":".len()..]
            .trim_start()
            .chars()
            .take_while(|c| c.is_ascii_digit())
            .collect();
        if let Ok(n) = digits.parse() {
            out.insert(rule.to_string(), n);
        }
    }
    out
}

/// The per-rule ratchet: every rule whose waived count in `report`
/// exceeds the committed `baseline` report's, as `"R5 3 → 4"`. Every
/// rule's count is its own budget. A rule the baseline lists and the
/// run does not report is a decrease, whether its waivers went or the
/// rule itself did; a baseline whose `rules` section is missing or
/// foreign reads as all zeros, so every waiver then counts as growth:
/// the ratchet fails closed.
pub fn waiver_growth(baseline: &str, report: &WorkspaceReport) -> Vec<String> {
    let prev = baseline_rule_waived(baseline);
    let mut now: BTreeMap<&str, u64> = BTreeMap::new();
    for f in report.findings.iter().filter(|f| f.finding.waived.is_some()) {
        *now.entry(f.finding.rule.as_str()).or_insert(0) += 1;
    }
    now.into_iter()
        .filter_map(|(rule, now)| {
            let prev = prev.get(rule).copied().unwrap_or(0);
            (now > prev).then(|| format!("{rule} {prev} → {now}"))
        })
        .collect()
}

pub(crate) fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::Finding;
    use crate::Hop;

    fn finding(rule: &str, file: &str, line: u32, waived: Option<&str>) -> ReportFinding {
        ReportFinding {
            finding: Finding {
                rule: rule.into(),
                file: file.into(),
                line,
                message: format!("msg {rule}"),
                waived: waived.map(|s| s.into()),
            },
            path: Vec::new(),
        }
    }

    fn report(findings: Vec<ReportFinding>) -> WorkspaceReport {
        WorkspaceReport { findings, ..WorkspaceReport::default() }
    }

    #[test]
    fn report_counts_and_baseline_round_trip() {
        let findings = vec![
            finding("R5", "b.rs", 3, Some("cold")),
            finding("R3", "a.rs", 1, None),
            finding("R5", "a.rs", 2, Some("cold")),
        ];
        let json = render_json(&report(findings));
        assert!(json.contains("\"unwaived\": 1"));
        assert!(json.contains("\"waived\": 2"));
        let per_rule = baseline_rule_waived(&json);
        assert_eq!(per_rule.get("R5"), Some(&2));
        assert_eq!(per_rule.get("R3"), Some(&0));
        // Sorted by file then line.
        let a1 = json.find("\"a.rs\", \"line\": 1").unwrap();
        let a2 = json.find("\"a.rs\", \"line\": 2").unwrap();
        let b3 = json.find("\"b.rs\", \"line\": 3").unwrap();
        assert!(a1 < a2 && a2 < b3);
    }

    #[test]
    fn empty_report_is_valid() {
        let json = render_json(&report(vec![]));
        assert!(json.contains("\"findings\": []"));
        assert!(json.contains("\"entry_points\": []"));
        assert!(baseline_rule_waived(&json).is_empty());
    }

    #[test]
    fn strings_are_escaped() {
        let f = finding("R5", "a\"b.rs", 1, Some("line\nbreak"));
        let json = render_json(&report(vec![f]));
        assert!(json.contains("a\\\"b.rs"));
        assert!(json.contains("line\\nbreak"));
    }

    #[test]
    fn transitive_findings_carry_their_path() {
        let mut f = finding("R5", "a.rs", 9, None);
        f.path = vec![
            Hop { file: "a.rs".into(), line: 1, func: "entry".into() },
            Hop { file: "a.rs".into(), line: 5, func: "helper".into() },
        ];
        let json = render_json(&report(vec![f]));
        assert!(json.contains("\"path\": [\"entry\", \"helper\"]"), "{json}");
    }

    #[test]
    fn committed_rules_section_parses_as_baseline() {
        // The section's shape has not changed since schema v1: a report
        // committed under any schema still ratchets rule by rule.
        let committed = "{\n  \"schema\": \"vapro-lint/2\",\n  \"unwaived\": 0,\n  \"waived\": 22,\n  \"rules\": {\n    \"R5\": {\"unwaived\": 0, \"waived\": 19},\n    \"R6\": {\"unwaived\": 0, \"waived\": 3}\n  },\n  \"findings\": []\n}\n";
        let per_rule = baseline_rule_waived(committed);
        assert_eq!(per_rule.get("R5"), Some(&19));
        assert_eq!(per_rule.get("R6"), Some(&3));
        // Foreign content is a budget of zero, not an open gate.
        assert!(baseline_rule_waived("{\"waived\": 22}").is_empty());
        assert!(baseline_rule_waived("not json").is_empty());
    }

    /// A committed report can list a rule the lint no longer has (R6,
    /// hot-path allocation, with its 26 waivers): against a run that
    /// reports nothing of it, that rule went down, and the rules the run
    /// does report ratchet as before.
    #[test]
    fn a_retired_rule_in_the_baseline_is_a_decrease() {
        let committed = "{\n  \"schema\": \"vapro-lint/3\",\n  \"unwaived\": 0,\n  \"waived\": 29,\n  \"rules\": {\n    \"R5\": {\"unwaived\": 0, \"waived\": 3},\n    \"R6\": {\"unwaived\": 0, \"waived\": 26}\n  },\n  \"entry_points\": [],\n  \"findings\": []\n}\n";
        let run = |r5_waived: u32| {
            report((0..r5_waived).map(|line| finding("R5", "a.rs", line, Some("ok"))).collect())
        };
        assert!(waiver_growth(committed, &run(3)).is_empty());
        assert!(waiver_growth(committed, &run(2)).is_empty());
        assert_eq!(waiver_growth(committed, &run(4)), ["R5 3 → 4"]);
        // The retired rule's budget is not spendable by another rule.
        let r3 = report(vec![finding("R3", "a.rs", 1, Some("ok"))]);
        assert_eq!(waiver_growth(committed, &r3), ["R3 0 → 1"]);
        // A foreign baseline fails closed.
        assert_eq!(waiver_growth("not json", &run(1)), ["R5 0 → 1"]);
    }
}
