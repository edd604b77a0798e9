//! SARIF v2.1.0 output for GitHub code scanning.
//!
//! Hand-rolled like the JSON report (the lint crate stays serde-free).
//! Unwaived findings are `error`-level results; waived findings are
//! emitted with an in-source suppression carrying the waiver reason, so
//! code scanning shows them as reviewed rather than open. Entry-tree
//! findings (R5/R6) attach their call path as a `codeFlows` thread flow,
//! entry point first.

use crate::report::json_str as q;
use crate::{ReportFinding, WorkspaceReport};

/// Static rule metadata for `tool.driver.rules`.
const RULES: &[(&str, &str)] = &[
    ("R3", "float-hygiene: no partial_cmp or NAN where float ordering decides output"),
    ("R5", "panic-freedom: no panic, indexing or unknown external (nor, in wire.rs, unchecked arithmetic) anywhere in a door's call tree"),
    ("R6", "hot-path allocation: no owned copy or unreserved push loop in any function the window-close door or a hot-path module reaches"),
    ("R7", "lock hygiene: no guard held across rayon/sends/lock-taking calls; no lock-order cycles"),
    ("LINT", "waiver mechanism: malformed, unused, or forbidden waivers"),
];

fn rule_index(rule: &str) -> usize {
    RULES.iter().position(|(id, _)| *id == rule).unwrap_or(RULES.len() - 1)
}

/// Render the workspace report as a SARIF 2.1.0 log.
pub fn render_sarif(report: &WorkspaceReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"$schema\": \"https://json.schemastore.org/sarif-2.1.0.json\",\n");
    out.push_str("  \"version\": \"2.1.0\",\n");
    out.push_str("  \"runs\": [\n    {\n");
    out.push_str("      \"tool\": {\n        \"driver\": {\n");
    out.push_str("          \"name\": \"vapro-lint\",\n");
    out.push_str("          \"informationUri\": \"https://example.invalid/vapro-lint\",\n");
    out.push_str("          \"version\": \"3.0.0\",\n");
    out.push_str("          \"rules\": [\n");
    for (i, (id, desc)) in RULES.iter().enumerate() {
        out.push_str(&format!(
            "            {{\"id\": {}, \"shortDescription\": {{\"text\": {}}}}}{}\n",
            q(id),
            q(desc),
            if i + 1 < RULES.len() { "," } else { "" }
        ));
    }
    out.push_str("          ]\n        }\n      },\n");
    out.push_str("      \"columnKind\": \"utf16CodeUnits\",\n");
    out.push_str("      \"results\": [\n");
    let mut sorted: Vec<&ReportFinding> = report.findings.iter().collect();
    sorted.sort_by(|a, b| {
        (&a.finding.file, a.finding.line, &a.finding.rule, &a.finding.message)
            .cmp(&(&b.finding.file, b.finding.line, &b.finding.rule, &b.finding.message))
    });
    for (i, rf) in sorted.iter().enumerate() {
        render_result(&mut out, rf, i + 1 < sorted.len());
    }
    out.push_str("      ]\n    }\n  ]\n}\n");
    out
}

fn render_result(out: &mut String, rf: &ReportFinding, comma: bool) {
    let f = &rf.finding;
    let level = if f.waived.is_some() { "note" } else { "error" };
    out.push_str("        {\n");
    out.push_str(&format!("          \"ruleId\": {},\n", q(&f.rule)));
    out.push_str(&format!("          \"ruleIndex\": {},\n", rule_index(&f.rule)));
    out.push_str(&format!("          \"level\": {},\n", q(level)));
    out.push_str(&format!("          \"message\": {{\"text\": {}}},\n", q(&f.message)));
    if let Some(reason) = &f.waived {
        out.push_str(&format!(
            "          \"suppressions\": [{{\"kind\": \"inSource\", \"justification\": {}}}],\n",
            q(reason)
        ));
    }
    if rf.path.len() > 1 {
        out.push_str("          \"codeFlows\": [{\"threadFlows\": [{\"locations\": [\n");
        for (i, hop) in rf.path.iter().enumerate() {
            out.push_str(&format!(
                "            {{\"location\": {{\"physicalLocation\": {}, \"message\": {{\"text\": {}}}}}}}{}\n",
                physical(&hop.file, hop.line),
                q(&hop.func),
                if i + 1 < rf.path.len() { "," } else { "" }
            ));
        }
        out.push_str("          ]}]}],\n");
    }
    out.push_str(&format!(
        "          \"locations\": [{{\"physicalLocation\": {}}}]\n",
        physical(&f.file, f.line)
    ));
    out.push_str(&format!("        }}{}\n", if comma { "," } else { "" }));
}

fn physical(file: &str, line: u32) -> String {
    // SARIF regions require startLine >= 1; line 0 marks file-level
    // findings (unreadable file), anchored to the first line.
    format!(
        "{{\"artifactLocation\": {{\"uri\": {}, \"uriBaseId\": \"SRCROOT\"}}, \"region\": {{\"startLine\": {}}}}}",
        q(file),
        line.max(1)
    )
}
