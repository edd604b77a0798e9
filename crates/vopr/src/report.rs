//! `VOPR_report.json`: the machine-readable record of one VOPR run and
//! the gates computed from it. The JSON is hand-rendered with sorted
//! keys and no timestamps so the committed report is byte-stable — CI
//! regenerates it and `git diff --exit-code` turns any regression in
//! coverage, invariant counts, determinism, or canary score into a
//! visible diff (the same ratchet `LINT_report.json` uses).

use crate::invariant::InvariantTracker;
use crate::invariant::Violation;
use serde_json::Value;
use std::collections::BTreeMap;
use vapro_core::IngestStats;

/// The fraction of registered fault points a passing run must hit.
pub const COVERAGE_GATE: f64 = 0.8;

/// Reads one fault point's count off an ingestor's stats.
pub type StatsCounter = fn(&IngestStats) -> u64;

/// Every counted fault point, sorted by its report name: the
/// [`IngestStats`] counter its handling site bumps. A run's coverage is
/// which of these the driven ingestors' stats show non-zero.
pub const FAULT_POINTS: [(&str, StatsCounter); 11] = [
    ("arena_eviction", |s| s.evicting_closes),
    ("backpressure_drop", |s| s.dropped_backpressure_frames),
    ("dead_rank_latch", |s| s.ranks_declared_dead),
    ("late_data_drop", |s| s.dropped_late_frames),
    ("rank_birth", |s| s.ranks_born),
    ("seq_duplicate_reject", |s| s.duplicate_frames),
    ("tenant_over_budget_reject", |s| s.over_budget_frames),
    ("unknown_rank_reject", |s| s.unknown_rank_frames),
    ("unknown_tenant_reject", |s| s.unknown_tenant_frames),
    ("wire_corrupt_reject", |s| s.corrupt_frames),
    ("wire_structural_reject", |s| s.bad_version_frames + s.malformed_frames),
];

/// Fault-point hits, indexed like [`FAULT_POINTS`].
pub type FaultTally = [u64; FAULT_POINTS.len()];

/// Add one ingestor's stats to `hits`.
pub fn tally(hits: &mut FaultTally, stats: &IngestStats) {
    for (hit, (_, count)) in hits.iter_mut().zip(FAULT_POINTS) {
        *hit += count(stats);
    }
}

/// One canary's hunt outcome.
#[derive(Debug, Clone)]
pub struct CanaryOutcome {
    pub name: &'static str,
    pub caught: bool,
    pub attempts: u64,
}

/// Everything one VOPR run measured.
#[derive(Debug)]
pub struct VoprReport {
    pub profile: String,
    pub seeds: Vec<u64>,
    /// Fault-point name → hits across the measurement seeds.
    pub fault_points: BTreeMap<&'static str, u64>,
    /// Fraction of registered fault points with ≥ 1 hit.
    pub coverage: f64,
    /// Invariant name → execution count.
    pub invariants: BTreeMap<&'static str, u64>,
    /// Required invariants that never executed.
    pub missing_required: Vec<&'static str>,
    pub violations: Vec<Violation>,
    /// Same first seed replayed → identical journal.
    pub determinism_ok: bool,
    pub journal_hash: u64,
    pub journal_events: u64,
    /// `None` when the binary was built without canary support.
    pub canaries: Option<Vec<CanaryOutcome>>,
}

impl VoprReport {
    #[allow(clippy::too_many_arguments)] // internal assembly seam, one caller
    pub fn assemble(
        profile: &str,
        seeds: &[u64],
        hits: &FaultTally,
        tracker: &InvariantTracker,
        journal_hash: u64,
        journal_events: u64,
        determinism_ok: bool,
        canaries: Option<Vec<CanaryOutcome>>,
    ) -> VoprReport {
        let fault_pts: BTreeMap<&'static str, u64> =
            FAULT_POINTS.iter().zip(hits).map(|(&(name, _), &n)| (name, n)).collect();
        let hit_count = hits.iter().filter(|&&n| n > 0).count();
        VoprReport {
            profile: profile.to_string(),
            seeds: seeds.to_vec(),
            fault_points: fault_pts,
            coverage: hit_count as f64 / FAULT_POINTS.len() as f64,
            invariants: tracker.counts().clone(),
            missing_required: tracker.missing_required(),
            violations: tracker.violations().to_vec(),
            determinism_ok,
            journal_hash,
            journal_events,
            canaries,
        }
    }

    /// Canary-mutation score: caught / total. `None` without canary
    /// support.
    pub fn canary_score(&self) -> Option<f64> {
        self.canaries.as_ref().map(|cs| {
            if cs.is_empty() {
                return 1.0;
            }
            cs.iter().filter(|c| c.caught).count() as f64 / cs.len() as f64
        })
    }

    /// Every failed gate, as human-readable descriptions. Empty ⇒ pass.
    pub fn failed_gates(&self) -> Vec<String> {
        let mut failed = Vec::new();
        if !self.violations.is_empty() {
            failed.push(format!("{} invariant violation(s)", self.violations.len()));
        }
        if !self.missing_required.is_empty() {
            failed.push(format!(
                "required invariants never executed: {:?}",
                self.missing_required
            ));
        }
        if self.coverage < COVERAGE_GATE {
            let cold: Vec<&str> = self
                .fault_points
                .iter()
                .filter(|&(_, &n)| n == 0)
                .map(|(&name, _)| name)
                .collect();
            failed.push(format!(
                "fault-point coverage {:.2} below {COVERAGE_GATE} (cold: {cold:?})",
                self.coverage
            ));
        }
        if !self.determinism_ok {
            failed.push("nondeterministic: replaying the first seed changed the journal".into());
        }
        if let Some(cs) = &self.canaries {
            let missed: Vec<&str> = cs.iter().filter(|c| !c.caught).map(|c| c.name).collect();
            if !missed.is_empty() {
                failed.push(format!(
                    "canary-mutation score {:.2} below 1.00 (missed: {missed:?})",
                    self.canary_score().unwrap_or(0.0)
                ));
            }
        }
        failed
    }

    /// Render the stable JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(2_048);
        out.push_str("{\n");
        out.push_str("  \"schema\": \"vapro-vopr/1\",\n");
        out.push_str(&format!("  \"profile\": {},\n", json_str(&self.profile)));
        let seeds: Vec<String> = self.seeds.iter().map(u64::to_string).collect();
        out.push_str(&format!("  \"seeds\": [{}],\n", seeds.join(", ")));
        out.push_str("  \"fault_points\": {\n");
        push_map(&mut out, self.fault_points.iter().map(|(&k, &v)| (k, v.to_string())));
        out.push_str("  },\n");
        out.push_str(&format!("  \"fault_point_coverage\": {:.4},\n", self.coverage));
        out.push_str("  \"invariants\": {\n");
        push_map(&mut out, self.invariants.iter().map(|(&k, &v)| (k, v.to_string())));
        out.push_str("  },\n");
        out.push_str(&format!(
            "  \"missing_required\": [{}],\n",
            self.missing_required
                .iter()
                .map(|name| json_str(name))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        out.push_str("  \"violations\": [");
        let rendered: Vec<String> = self.violations.iter().map(|v| json_str(&v.to_string())).collect();
        out.push_str(&rendered.join(", "));
        out.push_str("],\n");
        out.push_str(&format!("  \"determinism_ok\": {},\n", self.determinism_ok));
        out.push_str(&format!("  \"journal_hash\": \"{:#018x}\",\n", self.journal_hash));
        out.push_str(&format!("  \"journal_events\": {},\n", self.journal_events));
        match &self.canaries {
            None => out.push_str("  \"canaries\": null,\n  \"canary_score\": null,\n"),
            Some(cs) => {
                out.push_str("  \"canaries\": {\n");
                push_map(
                    &mut out,
                    cs.iter().map(|c| {
                        (
                            c.name,
                            format!(
                                "{{\"caught\": {}, \"attempts\": {}}}",
                                c.caught, c.attempts
                            ),
                        )
                    }),
                );
                out.push_str("  },\n");
                out.push_str(&format!(
                    "  \"canary_score\": {:.2},\n",
                    self.canary_score().unwrap_or(0.0)
                ));
            }
        }
        out.push_str(&format!("  \"pass\": {}\n", self.failed_gates().is_empty()));
        out.push_str("}\n");
        out
    }
}

/// Append `"key": value` lines (values pre-rendered), comma-separated.
fn push_map<'a>(out: &mut String, entries: impl Iterator<Item = (&'a str, String)>) {
    let lines: Vec<String> =
        entries.map(|(k, v)| format!("    {}: {}", json_str(k), v)).collect();
    out.push_str(&lines.join(",\n"));
    out.push('\n');
}

/// `s` as a JSON string literal.
fn json_str(s: &str) -> String {
    Value::from(s).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(canaries: Option<Vec<CanaryOutcome>>) -> VoprReport {
        let mut tracker = InvariantTracker::new();
        tracker.enter("clean_solo", 7);
        tracker.check("window_tiling", true, String::new);
        let hits: FaultTally = [3; FAULT_POINTS.len()];
        VoprReport::assemble("pr", &[7, 8], &hits, &tracker, 0xDEAD, 42, true, canaries)
    }

    #[test]
    fn fault_point_names_are_unique_and_sorted() {
        let names: Vec<&str> = FAULT_POINTS.iter().map(|&(name, _)| name).collect();
        assert!(names.windows(2).all(|w| w[0] < w[1]), "{names:?}");
    }

    #[test]
    fn tally_folds_every_structural_reject_into_one_point() {
        let stats = IngestStats {
            bad_version_frames: 2,
            malformed_frames: 3,
            corrupt_frames: 5,
            ranks_born: 1,
            ..IngestStats::default()
        };
        let mut hits: FaultTally = [0; FAULT_POINTS.len()];
        tally(&mut hits, &stats);
        tally(&mut hits, &stats);
        let by_name: BTreeMap<&str, u64> =
            FAULT_POINTS.iter().zip(hits).map(|(&(name, _), n)| (name, n)).collect();
        assert_eq!(by_name["wire_structural_reject"], 10);
        assert_eq!(by_name["wire_corrupt_reject"], 10);
        assert_eq!(by_name["rank_birth"], 2);
        assert_eq!(by_name.values().sum::<u64>(), 22);
    }

    #[test]
    fn full_coverage_clean_run_passes_every_gate_it_can() {
        let report = sample(None);
        assert_eq!(report.coverage, 1.0);
        // window_tiling executed, but the other required invariants did
        // not — the gate must say so.
        assert!(!report.missing_required.is_empty());
        let gates = report.failed_gates();
        assert_eq!(gates.len(), 1, "{gates:?}");
        assert!(gates[0].contains("never executed"));
    }

    #[test]
    fn a_missed_canary_fails_the_score_gate() {
        let report = sample(Some(vec![
            CanaryOutcome { name: "skip_crc_check", caught: true, attempts: 1 },
            CanaryOutcome { name: "dedup_disabled", caught: false, attempts: 4 },
        ]));
        assert_eq!(report.canary_score(), Some(0.5));
        assert!(report
            .failed_gates()
            .iter()
            .any(|g| g.contains("canary-mutation score") && g.contains("dedup_disabled")));
    }

    #[test]
    fn json_is_stable_and_structurally_sound() {
        let report = sample(Some(vec![CanaryOutcome {
            name: "skip_crc_check",
            caught: true,
            attempts: 2,
        }]));
        let a = report.to_json();
        let b = report.to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"schema\": \"vapro-vopr/1\""));
        assert!(a.contains("\"fault_point_coverage\": 1.0000"));
        assert!(a.contains("\"canary_score\": 1.00"));
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert_eq!(Value::from("a\"b\\c\n").to_string(), "\"a\\\"b\\\\c\\n\"");
    }
}
