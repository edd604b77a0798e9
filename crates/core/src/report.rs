//! The combined user-facing report (paper Fig. 2, step 7): for each
//! detected variance region, the quantified performance loss, and — when
//! diagnosis ran — the impact and duration of each contributing factor,
//! rendered as text and as JSON.

use crate::detect::ingestor::RegionDiagnosis;
use crate::detect::pipeline::DetectionResult;
use crate::diagnose::driver::RegionOfInterest;
use crate::fragment::FragmentKind;
use serde::Serialize;

/// One region's entry in the final report.
#[derive(Debug, Serialize)]
pub struct RegionReport {
    /// Reporting category ("computation", "communication", "io").
    pub category: &'static str,
    /// Inclusive rank range.
    pub ranks: (usize, usize),
    /// Window start, seconds.
    pub t_start_s: f64,
    /// Window end, seconds.
    pub t_end_s: f64,
    /// Mean normalised performance inside the region.
    pub mean_perf: f64,
    /// Quantified performance loss, seconds.
    pub loss_s: f64,
    /// The most fine-grained factors diagnosis reached (empty when
    /// diagnosis could not run, e.g. counters too narrow).
    pub culprits: Vec<String>,
    /// Per-factor impact shares from the last diagnosis stage that
    /// evaluated them, as (factor, share-of-slowdown).
    pub factor_impacts: Vec<(String, f64)>,
    /// Data-shipping periods the diagnosis consumed.
    pub diagnosis_periods: usize,
}

/// Largest loss first. `total_cmp`, so a NaN loss sorts ahead of the
/// finite ones instead of panicking whichever thread builds the report.
fn sort_by_loss(regions: &mut [RegionReport]) {
    regions.sort_by(|a, b| b.loss_s.total_cmp(&a.loss_s));
}

/// Data provenance of one closed streaming window: which ranks actually
/// contributed, and what the transport lost on the way. Downstream
/// consumers use it to distinguish "rank 3 is slow" (a finding) from
/// "rank 3's data never arrived" (a caveat).
#[derive(Debug, Clone, PartialEq)]
pub struct WindowCoverage {
    /// Ranks the analysis expected.
    pub nranks: usize,
    /// Ranks whose shipping mark had passed the window end when it
    /// closed — their data for this window is complete.
    pub ranks_complete: usize,
    /// Ranks with no fragment overlapping the window at close time.
    pub ranks_absent: Vec<usize>,
    /// The subset of ranks declared dead by the straggler policy.
    pub ranks_dead: Vec<usize>,
    /// Frames rejected for a checksum mismatch (whole run, attributed to
    /// windows closed since the previous one).
    pub corrupt_frames: u64,
    /// Retransmitted frames deduplicated by sequence number.
    pub duplicate_frames: u64,
    /// Frames from dead ranks discarded under `LateDataPolicy::Drop`.
    pub dropped_late_frames: u64,
    /// Frames dropped by the ahead-of-watermark buffer cap.
    pub dropped_backpressure_frames: u64,
    /// Bytes those backpressure drops accounted for.
    pub dropped_backpressure_bytes: u64,
    /// Sequence-number gaps currently outstanding across ranks: frames
    /// known sent (a later sequence arrived) but never received.
    pub seq_gaps: u64,
    /// `ranks_complete / nranks` — 1.0 means every rank's data for this
    /// window arrived in full.
    pub completeness: f64,
}

impl WindowCoverage {
    /// The fault-free coverage: every rank present and complete, nothing
    /// dropped. What one-shot (non-streaming) analyses report.
    pub fn full(nranks: usize) -> WindowCoverage {
        WindowCoverage {
            nranks,
            ranks_complete: nranks,
            ranks_absent: Vec::new(),
            ranks_dead: Vec::new(),
            corrupt_frames: 0,
            duplicate_frames: 0,
            dropped_late_frames: 0,
            dropped_backpressure_frames: 0,
            dropped_backpressure_bytes: 0,
            seq_gaps: 0,
            completeness: 1.0,
        }
    }

    /// Anything to caveat? True when data was lost, a rank is missing or
    /// the window closed without every rank's mark.
    pub fn is_degraded(&self) -> bool {
        self.completeness < 1.0
            || !self.ranks_absent.is_empty()
            || !self.ranks_dead.is_empty()
            || self.corrupt_frames > 0
            || self.dropped_late_frames > 0
            || self.dropped_backpressure_frames > 0
            || self.seq_gaps > 0
    }
}

/// The complete report of one analysis.
#[derive(Debug, Serialize)]
pub struct VaproReport {
    /// Detection coverage.
    pub coverage: f64,
    /// Ranked region reports.
    pub regions: Vec<RegionReport>,
    /// Rarely-executed paths flagged for manual attention.
    pub rare_paths: Vec<(String, usize, f64)>,
}

impl VaproReport {
    /// Build the report from one analysed window: its detection and the
    /// diagnoses the analysis attached (a [`WindowReport`]'s two
    /// halves). A computation region carries the culprits of the
    /// diagnosis with its [`RegionOfInterest`]; one past
    /// [`VaproConfig::diagnose_top_k`], or whose drill-down found
    /// nothing, carries none. Communication and IO regions are never
    /// diagnosed: paper §4 applies the factor model to computation time.
    ///
    /// [`WindowReport`]: crate::detect::WindowReport
    /// [`VaproConfig::diagnose_top_k`]: crate::config::VaproConfig::diagnose_top_k
    pub fn build(detection: &DetectionResult, diagnoses: &[RegionDiagnosis]) -> VaproReport {
        let mut regions = Vec::new();
        let categories: [(_, _, &[RegionDiagnosis]); 3] = [
            ("computation", &detection.comp_regions, diagnoses),
            ("communication", &detection.comm_regions, &[]),
            ("io", &detection.io_regions, &[]),
        ];
        for (category, list, diagnoses) in categories {
            for r in list.iter() {
                let roi = RegionOfInterest::from(r);
                let diagnosis = diagnoses.iter().find(|d| d.roi == roi).map(|d| &d.report);
                let (culprits, factor_impacts, periods) = match diagnosis {
                    Some(d) => (
                        d.culprits.iter().map(|f| f.to_string()).collect(),
                        d.steps
                            .iter()
                            .flat_map(|s| s.report.factors.iter())
                            .filter(|f| f.major && !f.impact_share.is_nan())
                            .map(|f| (f.factor.to_string(), f.impact_share))
                            .collect(),
                        d.periods,
                    ),
                    None => (Vec::new(), Vec::new(), 0),
                };
                regions.push(RegionReport {
                    category,
                    ranks: r.rank_range,
                    t_start_s: r.t_start.as_secs_f64(),
                    t_end_s: r.t_end.as_secs_f64(),
                    mean_perf: r.mean_perf,
                    loss_s: r.loss_ns * 1e-9,
                    culprits,
                    factor_impacts,
                    diagnosis_periods: periods,
                });
            }
        }
        sort_by_loss(&mut regions);
        VaproReport {
            coverage: detection.coverage,
            regions,
            rare_paths: detection
                .rare_paths
                .iter()
                .map(|p| (p.location.to_string(), p.count, p.total_ns * 1e-9))
                .collect(),
        }
    }

    /// Render as human-readable text.
    pub fn to_text(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        writeln!(out, "Vapro report — coverage {:.1}%", self.coverage * 100.0)
            .expect("write to string");
        if self.regions.is_empty() {
            writeln!(out, "no performance variance detected").expect("write");
        }
        for (i, r) in self.regions.iter().enumerate() {
            writeln!(
                out,
                "[{}] {} variance: ranks {}..={}, {:.3}s..{:.3}s, perf {:.2}, loss {:.3}s",
                i + 1,
                r.category,
                r.ranks.0,
                r.ranks.1,
                r.t_start_s,
                r.t_end_s,
                r.mean_perf,
                r.loss_s
            )
            .expect("write");
            if !r.culprits.is_empty() {
                writeln!(
                    out,
                    "    diagnosis ({} periods): {}",
                    r.diagnosis_periods,
                    r.culprits.join(", ")
                )
                .expect("write");
                for (factor, share) in &r.factor_impacts {
                    writeln!(out, "      {factor}: {:.1}% of the slowdown", share * 100.0)
                        .expect("write");
                }
            }
        }
        for (loc, count, secs) in self.rare_paths.iter().take(5) {
            writeln!(
                out,
                "rare path: {loc} ({count} executions, {secs:.3}s) — check manually"
            )
            .expect("write");
        }
        out
    }

    /// Render as JSON.
    pub fn to_json(&self) -> serde_json::Value {
        serde_json::to_value(self).expect("serialisable report")
    }

    /// The top region of a category, if any.
    pub fn top_of(&self, kind: FragmentKind) -> Option<&RegionReport> {
        let cat = match kind {
            FragmentKind::Computation => "computation",
            FragmentKind::Communication | FragmentKind::Other => "communication",
            FragmentKind::Io => "io",
        };
        self.regions.iter().find(|r| r.category == cat)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::VaproConfig;
    use crate::detect::oneshot::tests::whole_run;
    use crate::fragment::Fragment;
    use crate::stg::{StateKey, Stg};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use vapro_pmu::{events, CpuConfig, CpuModel, JitterModel, NoiseEnv, WorkloadSpec};
    use vapro_sim::{CallSite, VirtualTime};

    fn noisy_stgs() -> Vec<Stg> {
        let model = CpuModel::with_jitter(CpuConfig::default(), JitterModel::exact());
        let spec = WorkloadSpec::memory_bound(2e6);
        (0..4)
            .map(|rank| {
                let mut rng = ChaCha8Rng::seed_from_u64(rank as u64);
                let mut stg = Stg::new();
                let s0 = stg.state(StateKey::Start);
                let s1 = stg.state(StateKey::Site(CallSite("r:MPI_Barrier")));
                stg.transition(s0, s1);
                let e = stg.transition(s1, s1);
                let mut t = 0u64;
                for i in 0..24 {
                    let env = if rank == 1 && i % 2 == 1 {
                        NoiseEnv { mem_contention: 2.0, ..NoiseEnv::default() }
                    } else {
                        NoiseEnv::quiet()
                    };
                    let out = model.execute(&spec, &env, &mut rng);
                    let start = VirtualTime::from_ns(t);
                    let end = start + VirtualTime::from_ns_f64(out.wall_ns);
                    t = end.ns() + 500;
                    stg.attach_edge_fragment(
                        e,
                        Fragment {
                            rank,
                            kind: FragmentKind::Computation,
                            start,
                            end,
                            counters: out.counters.project(events::s3_memory_set()),
                            args: vec![],
                        },
                    );
                }
                stg
            })
            .collect()
    }

    #[test]
    fn report_combines_detection_and_diagnosis() {
        let cfg = VaproConfig::default().with_counters(events::s3_memory_set());
        let stgs = noisy_stgs();
        let run = whole_run(&stgs, 4, 24, &cfg);
        let report = VaproReport::build(&run.result, &run.diagnoses);
        assert!(!report.regions.is_empty(), "variance not reported");
        let top = report.top_of(FragmentKind::Computation).unwrap();
        assert!(top.ranks.0 <= 1 && top.ranks.1 >= 1, "rank 1 missing: {top:?}");
        assert!(!top.culprits.is_empty(), "no diagnosis: {top:?}");
        assert!(top.loss_s > 0.0);
        let text = report.to_text();
        assert!(text.contains("computation variance"));
        assert!(text.contains("diagnosis"));
        let json = report.to_json();
        assert!(json["regions"][0]["culprits"].is_array());
    }

    #[test]
    fn quiet_detection_yields_an_empty_report() {
        let cfg = VaproConfig::default();
        let stgs: Vec<Stg> = vec![Stg::new()];
        let run = whole_run(&stgs, 1, 8, &cfg);
        let report = VaproReport::build(&run.result, &run.diagnoses);
        assert!(report.regions.is_empty());
        assert!(report.to_text().contains("no performance variance"));
    }

    #[test]
    fn regions_past_the_top_k_carry_no_culprits() {
        let cfg = VaproConfig {
            diagnose_top_k: 0,
            ..VaproConfig::default().with_counters(events::s3_memory_set())
        };
        let run = whole_run(&noisy_stgs(), 4, 24, &cfg);
        let report = VaproReport::build(&run.result, &run.diagnoses);
        assert!(!report.regions.is_empty(), "variance not reported");
        assert!(report.regions.iter().all(|r| r.culprits.is_empty()), "{:?}", report.regions);
    }

    #[test]
    fn region_order_survives_a_nan_loss() {
        let region = |loss_s: f64| RegionReport {
            category: "computation",
            ranks: (0, 0),
            t_start_s: 0.0,
            t_end_s: 1.0,
            mean_perf: 0.5,
            loss_s,
            culprits: Vec::new(),
            factor_impacts: Vec::new(),
            diagnosis_periods: 0,
        };
        let mut regions = vec![region(0.5), region(f64::NAN), region(2.0)];
        sort_by_loss(&mut regions);
        assert!(regions[0].loss_s.is_nan());
        assert_eq!((regions[1].loss_s, regions[2].loss_s), (2.0, 0.5));
    }

    #[test]
    fn regions_rank_by_loss() {
        let cfg = VaproConfig::default().with_counters(events::s3_memory_set());
        let stgs = noisy_stgs();
        let run = whole_run(&stgs, 4, 24, &cfg);
        let report = VaproReport::build(&run.result, &run.diagnoses);
        for w in report.regions.windows(2) {
            assert!(w[0].loss_s >= w[1].loss_s);
        }
    }
}
