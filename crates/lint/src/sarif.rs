//! SARIF v2.1.0 output for GitHub code scanning.
//!
//! Its consumer is CI's lint job: `make lint` writes
//! `target/vapro-lint.sarif` and the `upload-sarif` step
//! (`github/codeql-action/upload-sarif`) publishes it to code scanning.
//! Laid out by hand like the JSON report, strings escaped the same way.
//! Unwaived findings are `error`-level results; waived findings are
//! emitted with an in-source suppression carrying the waiver reason, so
//! code scanning shows them as reviewed rather than open. Entry-tree
//! findings (R5) attach their call path as a `codeFlows` thread flow,
//! entry point first.

use crate::report::json_str as q;
use crate::{ReportFinding, WorkspaceReport};

/// Static rule metadata for `tool.driver.rules`.
const RULES: &[(&str, &str)] = &[
    ("R3", "float-hygiene: no partial_cmp or NAN where float ordering decides output"),
    ("R5", "panic-freedom: no panic, indexing or unknown external (nor, in wire.rs, unchecked arithmetic) anywhere in a door's call tree"),
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::tests::finding;
    use crate::Hop;
    use serde_json::Value;

    fn hop(file: &str, line: u32, func: &str) -> Hop {
        Hop { file: file.into(), line, func: func.into() }
    }

    /// A location's file and start line.
    fn at(location: &Value) -> (&str, u64) {
        let physical = &location["physicalLocation"];
        let uri = physical["artifactLocation"]["uri"].as_str().unwrap();
        (uri, physical["region"]["startLine"].as_u64().unwrap())
    }

    #[test]
    fn findings_become_levelled_suppressed_and_flowing_results() {
        let mut in_tree = finding("R5", "a.rs", 9, None);
        in_tree.path = vec![hop("a.rs", 1, "entry"), hop("b.rs", 5, "helper"), hop("a.rs", 8, "site")];
        let findings = vec![
            finding("LINT", "d.rs", 0, None),
            finding("R7", "c.rs", 4, Some("guard \"scoped\" to the call")),
            in_tree,
        ];
        let text = render_sarif(&WorkspaceReport { findings, ..WorkspaceReport::default() });
        let sarif: Value = serde_json::from_str(&text).expect("SARIF is JSON");
        assert_eq!(sarif["version"].as_str(), Some("2.1.0"));
        let run = &sarif["runs"][0];
        let rules = run["tool"]["driver"]["rules"].as_array().unwrap();
        let results = run["results"].as_array().unwrap();
        // Sorted by file: a.rs, c.rs, d.rs.
        let files: Vec<_> = results.iter().map(|r| at(&r["locations"][0]).0).collect();
        assert_eq!(files, ["a.rs", "c.rs", "d.rs"]);
        for r in results {
            let index = r["ruleIndex"].as_u64().unwrap() as usize;
            assert_eq!(rules[index]["id"], r["ruleId"]);
        }

        // An unwaived finding is an error, unsuppressed; its call path is
        // one thread flow, entry first.
        let (tree, waived, file_level) = (&results[0], &results[1], &results[2]);
        assert_eq!(tree["level"].as_str(), Some("error"));
        assert!(tree.get("suppressions").is_none());
        let flow = tree["codeFlows"][0]["threadFlows"][0]["locations"].as_array().unwrap();
        let hops: Vec<_> = flow
            .iter()
            .map(|l| (at(&l["location"]), l["location"]["message"]["text"].as_str().unwrap()))
            .collect();
        assert_eq!(hops, [(("a.rs", 1), "entry"), (("b.rs", 5), "helper"), (("a.rs", 8), "site")]);
        assert_eq!(at(&tree["locations"][0]), ("a.rs", 9));

        // A waived one is a note, suppressed in source with its reason.
        assert_eq!(waived["level"].as_str(), Some("note"));
        let suppressions = waived["suppressions"].as_array().unwrap();
        assert_eq!(suppressions.len(), 1);
        assert_eq!(suppressions[0]["kind"].as_str(), Some("inSource"));
        assert_eq!(suppressions[0]["justification"].as_str(), Some("guard \"scoped\" to the call"));
        assert!(waived.get("codeFlows").is_none());

        // Line 0 (a file-level finding) is anchored at line 1.
        assert_eq!(file_level["level"].as_str(), Some("error"));
        assert_eq!(at(&file_level["locations"][0]), ("d.rs", 1));
    }
}
