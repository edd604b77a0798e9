//! Between-executions variance (paper §1: variance "happens in different
//! processes or threads within one execution *and between executions*",
//! and Fig. 1's run-to-run spread): persist a baseline profile of a
//! known-good run and compare later runs against it.
//!
//! The profile stores, per STG state/transition, the fixed-workload
//! cluster signatures (seed workload vector) and each cluster's best
//! observed time. A later run's clusters are matched by signature (same
//! state, workload within the clustering threshold) and compared by
//! best-time ratio — so a *regression* (this submission is slower than
//! the fleet's baseline) is distinguished from in-run variance.

use crate::clustering::cluster_pool;
use crate::columnar::{ColumnarPool, LaneView, PoolView};
use crate::config::VaproConfig;
use crate::fragment::Fragment;
use serde_json::{json, Map, Value};
use std::collections::BTreeMap;

/// One cluster's persisted signature.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSignature {
    /// The seed workload vector (smallest-norm member).
    pub seed: Vec<f64>,
    /// Best (minimum) observed duration, ns.
    pub best_ns: f64,
    /// Median observed duration, ns.
    pub median_ns: f64,
    /// Number of member fragments.
    pub count: usize,
}

impl ClusterSignature {
    fn to_json(&self) -> Value {
        json!({
            "seed": self.seed.clone(),
            "best_ns": self.best_ns,
            "median_ns": self.median_ns,
            "count": self.count,
        })
    }

    /// The signature a JSON object's fields hold: a missing field is an
    /// `Err` like a wrong type or a count that is no `usize`.
    fn from_json(mut fields: Map<String, Value>) -> Result<Self, serde_json::Error> {
        let mut field = |key: &str| fields.remove(key).unwrap_or(Value::Null);
        Ok(ClusterSignature {
            seed: serde_json::from_value(field("seed"))?,
            best_ns: serde_json::from_value(field("best_ns"))?,
            median_ns: serde_json::from_value(field("median_ns"))?,
            count: serde_json::from_value(field("count"))?,
        })
    }
}

/// The persisted profile of one (good) run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BaselineProfile {
    /// Signatures per state/transition label.
    pub states: BTreeMap<String, Vec<ClusterSignature>>,
}

/// One matched cluster's comparison against the baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct StateComparison {
    /// State/transition label.
    pub location: String,
    /// Baseline best time, ns.
    pub baseline_ns: f64,
    /// This run's best time, ns.
    pub current_ns: f64,
    /// `current / baseline`: > 1 is a slowdown.
    pub ratio: f64,
}

/// The cross-run comparison result.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunComparison {
    /// Matched clusters, worst ratio first.
    pub matched: Vec<StateComparison>,
    /// Workloads present now but absent from the baseline (new code
    /// paths or changed inputs).
    pub unmatched_current: usize,
    /// Baseline workloads not observed in this run.
    pub unmatched_baseline: usize,
}

impl RunComparison {
    /// Duration-weighted geometric-mean slowdown across matched clusters.
    pub fn overall_slowdown(&self) -> f64 {
        if self.matched.is_empty() {
            return 1.0;
        }
        let mut log_sum = 0.0;
        let mut weight = 0.0;
        for m in &self.matched {
            let w = m.baseline_ns.max(1.0);
            log_sum += m.ratio.max(1e-12).ln() * w;
            weight += w;
        }
        (log_sum / weight).exp()
    }

    /// States regressed beyond `ratio_threshold` (e.g. 1.2).
    pub fn regressions(&self, ratio_threshold: f64) -> Vec<&StateComparison> {
        self.matched
            .iter()
            .filter(|m| m.ratio > ratio_threshold)
            .collect()
    }
}

fn signatures_of(
    label: String,
    frags: LaneView<'_>,
    cfg: &VaproConfig,
    out: &mut BTreeMap<String, Vec<ClusterSignature>>,
) {
    let outcome = cluster_pool(
        &frags,
        &cfg.proxy_counters,
        cfg.cluster_threshold,
        cfg.min_cluster_size,
    );
    let mut sigs = Vec::new();
    for c in &outcome.usable {
        let mut durs: Vec<f64> =
            c.members.iter().map(|&m| frags.duration_ns(m as usize)).collect();
        durs.sort_by(f64::total_cmp);
        sigs.push(ClusterSignature {
            seed: c.seed.clone(),
            best_ns: durs[0],
            median_ns: durs[durs.len() / 2],
            count: c.len(),
        });
    }
    if !sigs.is_empty() {
        out.insert(label, sigs);
    }
}

impl BaselineProfile {
    /// Build a profile from a run's pooled fragments
    /// ([`ColumnarPool::from_batches`] over every shipped frame).
    pub fn build(pool: &ColumnarPool, cfg: &VaproConfig) -> BaselineProfile {
        let mut states = BTreeMap::new();
        for i in 0..pool.num_vertices() {
            let (label, frags) = pool.vertex(i);
            signatures_of(label.to_string(), frags, cfg, &mut states);
        }
        for i in 0..pool.num_edges() {
            let (from, to, frags) = pool.edge(i);
            signatures_of(format!("{from} -> {to}"), frags, cfg, &mut states);
        }
        BaselineProfile { states }
    }

    /// Serialise to JSON (what a deployment would write next to the job's
    /// artefacts).
    pub fn to_json(&self) -> String {
        let signatures = |sigs: &[ClusterSignature]| sigs.iter().map(ClusterSignature::to_json).collect();
        let states: Map<String, Value> =
            self.states.iter().map(|(label, sigs)| (label.clone(), signatures(sigs))).collect();
        json!({ "states": states }).to_string()
    }

    /// Load from JSON. The text comes from outside the program: anything
    /// but a profile [`BaselineProfile::to_json`] could have written
    /// (fields it does not name aside) is an `Err`, never a panic.
    pub fn from_json(s: &str) -> Result<BaselineProfile, serde_json::Error> {
        let mut root: Map<String, Value> = serde_json::from_str(s)?;
        let states = root.remove("states").unwrap_or(Value::Null);
        let states: BTreeMap<String, Vec<Map<String, Value>>> =
            serde_json::from_value(states)?;
        let states = states
            .into_iter()
            .map(|(label, sigs)| {
                let sigs = sigs.into_iter().map(ClusterSignature::from_json);
                Ok((label, sigs.collect::<Result<_, _>>()?))
            })
            .collect::<Result<_, serde_json::Error>>()?;
        Ok(BaselineProfile { states })
    }

    /// Compare a later run against this baseline: clusters match when
    /// they live at the same state and their seed vectors are within the
    /// clustering threshold of each other.
    pub fn compare(&self, pool: &ColumnarPool, cfg: &VaproConfig) -> RunComparison {
        let current = BaselineProfile::build(pool, cfg);
        let mut matched = Vec::new();
        let mut unmatched_current = 0usize;
        let mut matched_baseline = 0usize;

        for (label, cur_sigs) in &current.states {
            let Some(base_sigs) = self.states.get(label) else {
                unmatched_current += cur_sigs.len();
                continue;
            };
            for cur in cur_sigs {
                let cur_norm = Fragment::vector_norm(&cur.seed);
                let hit = base_sigs.iter().find(|b| {
                    let d: f64 = b
                        .seed
                        .iter()
                        .zip(&cur.seed)
                        .map(|(x, y)| (x - y) * (x - y))
                        .sum::<f64>()
                        .sqrt();
                    d <= (cfg.cluster_threshold * cur_norm).max(1e-9)
                });
                match hit {
                    Some(b) => {
                        matched_baseline += 1;
                        matched.push(StateComparison {
                            location: label.clone(),
                            baseline_ns: b.best_ns,
                            current_ns: cur.best_ns,
                            ratio: if b.best_ns > 0.0 {
                                cur.best_ns / b.best_ns
                            } else {
                                1.0
                            },
                        });
                    }
                    None => unmatched_current += 1,
                }
            }
        }
        let total_baseline: usize = self.states.values().map(Vec::len).sum();
        matched.sort_by(|a, b| b.ratio.total_cmp(&a.ratio));
        RunComparison {
            matched,
            unmatched_current,
            unmatched_baseline: total_baseline.saturating_sub(matched_baseline),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detect::pipeline::tests::whole_pool;
    use crate::fragment::FragmentKind;
    use crate::stg::{StateKey, Stg};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use vapro_pmu::{CpuConfig, CpuModel, JitterModel, NoiseEnv, WorkloadSpec};
    use vapro_sim::{CallSite, VirtualTime};

    fn run_stg(env: NoiseEnv, seed: u64) -> Vec<Stg> {
        let model = CpuModel::with_jitter(CpuConfig::default(), JitterModel::default());
        let spec = WorkloadSpec::mixed(1e6);
        (0..2)
            .map(|rank| {
                let mut rng = ChaCha8Rng::seed_from_u64(seed ^ rank as u64);
                let mut stg = Stg::new();
                let s0 = stg.state(StateKey::Start);
                let s1 = stg.state(StateKey::Site(CallSite("b:MPI_Barrier")));
                stg.transition(s0, s1);
                let e = stg.transition(s1, s1);
                let mut t = 0u64;
                for _ in 0..12 {
                    let out = model.execute(&spec, &env, &mut rng);
                    let start = VirtualTime::from_ns(t);
                    let end = start + VirtualTime::from_ns_f64(out.wall_ns);
                    t = end.ns() + 100;
                    stg.attach_edge_fragment(
                        e,
                        Fragment {
                            rank,
                            kind: FragmentKind::Computation,
                            start,
                            end,
                            counters: out
                                .counters
                                .project(vapro_pmu::events::detection_set()),
                            args: vec![],
                        },
                    );
                }
                stg
            })
            .collect()
    }

    #[test]
    fn identical_runs_compare_near_unity() {
        let cfg = VaproConfig::default();
        let base = BaselineProfile::build(&whole_pool(&run_stg(NoiseEnv::quiet(), 1)), &cfg);
        let cmp = base.compare(&whole_pool(&run_stg(NoiseEnv::quiet(), 2)), &cfg);
        assert!(!cmp.matched.is_empty());
        let slow = cmp.overall_slowdown();
        assert!((slow - 1.0).abs() < 0.02, "slowdown {slow}");
        assert!(cmp.regressions(1.2).is_empty());
        assert_eq!(cmp.unmatched_current, 0);
        assert_eq!(cmp.unmatched_baseline, 0);
    }

    #[test]
    fn degraded_run_is_flagged_as_a_regression() {
        let cfg = VaproConfig::default();
        let base = BaselineProfile::build(&whole_pool(&run_stg(NoiseEnv::quiet(), 1)), &cfg);
        // The whole later run suffers memory contention — in-run detection
        // sees nothing (every fragment equally slow), but the baseline
        // comparison does.
        let degraded = run_stg(
            NoiseEnv { mem_contention: 1.5, ..NoiseEnv::default() },
            3,
        );
        let in_run = crate::detect::pipeline::tests::whole_run(&degraded, 2, 16, &cfg).result;
        assert!(in_run.comp_regions.is_empty(), "uniform slowdown wrongly flagged");
        let cmp = base.compare(&whole_pool(&degraded), &cfg);
        let slow = cmp.overall_slowdown();
        assert!(slow > 1.2, "slowdown {slow}");
        assert!(!cmp.regressions(1.2).is_empty());
    }

    #[test]
    fn changed_workload_is_unmatched_not_miscompared() {
        let cfg = VaproConfig::default();
        let base = BaselineProfile::build(&whole_pool(&run_stg(NoiseEnv::quiet(), 1)), &cfg);
        // A run whose workload doubled (input change): TOT_INS signature
        // misses the baseline cluster by far more than the threshold.
        let model = CpuModel::with_jitter(CpuConfig::default(), JitterModel::default());
        let spec = WorkloadSpec::mixed(2e6);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut stg = Stg::new();
        let s0 = stg.state(StateKey::Start);
        let s1 = stg.state(StateKey::Site(CallSite("b:MPI_Barrier")));
        stg.transition(s0, s1);
        let e = stg.transition(s1, s1);
        let mut t = 0u64;
        for _ in 0..12 {
            let out = model.execute(&spec, &NoiseEnv::quiet(), &mut rng);
            let start = VirtualTime::from_ns(t);
            let end = start + VirtualTime::from_ns_f64(out.wall_ns);
            t = end.ns() + 100;
            stg.attach_edge_fragment(
                e,
                Fragment {
                    rank: 0,
                    kind: FragmentKind::Computation,
                    start,
                    end,
                    counters: out.counters.project(vapro_pmu::events::detection_set()),
                    args: vec![],
                },
            );
        }
        let cmp = base.compare(&whole_pool(&[stg]), &cfg);
        assert!(cmp.matched.is_empty(), "{:?}", cmp.matched);
        assert!(cmp.unmatched_current > 0);
        assert!(cmp.unmatched_baseline > 0);
    }

    fn fixed_profile() -> BaselineProfile {
        let sig = |seed: Vec<f64>, best_ns, median_ns, count| ClusterSignature {
            seed,
            best_ns,
            median_ns,
            count,
        };
        BaselineProfile {
            states: BTreeMap::from([
                ("b:MPI_Barrier".to_string(), vec![sig(vec![1.5e6, 0.25], 1000.0, 1250.5, 12)]),
                (
                    "b:MPI_Barrier -> b:MPI_Barrier".to_string(),
                    vec![sig(vec![2e6], 3.0, 4.125, 7), sig(Vec::new(), 0.1, 0.2, 1)],
                ),
            ]),
        }
    }

    /// The exact JSON text of a fixed profile, and that it reads back.
    #[test]
    fn profile_json_text_is_pinned() {
        let profile = fixed_profile();
        let text = profile.to_json();
        assert_eq!(
            text,
            concat!(
                r#"{"states":{"b:MPI_Barrier":[{"best_ns":1000.0,"count":12,"median_ns":1250.5,"seed":[1500000.0,0.25]}],"#,
                r#""b:MPI_Barrier -> b:MPI_Barrier":[{"best_ns":3.0,"count":7,"median_ns":4.125,"seed":[2000000.0]},"#,
                r#"{"best_ns":0.1,"count":1,"median_ns":0.2,"seed":[]}]}}"#,
            )
        );
        assert_eq!(BaselineProfile::from_json(&text).unwrap(), profile);
    }

    /// A profile file comes from outside the program: every malformed
    /// one is an `Err`, never a panic or a default.
    #[test]
    fn malformed_profiles_are_errors() {
        let cases = [
            ("missing states", r#"{}"#),
            ("states not an object", r#"{"states":[]}"#),
            ("count as a string", r#"{"states":{"a":[{"seed":[1.0],"best_ns":1.0,"median_ns":1.0,"count":"3"}]}}"#),
            ("negative count", r#"{"states":{"a":[{"seed":[1.0],"best_ns":1.0,"median_ns":1.0,"count":-3}]}}"#),
            ("fractional count", r#"{"states":{"a":[{"seed":[1.0],"best_ns":1.0,"median_ns":1.0,"count":1.5}]}}"#),
            ("seed not an array", r#"{"states":{"a":[{"seed":5,"best_ns":1.0,"median_ns":1.0,"count":3}]}}"#),
            ("seed element not a number", r#"{"states":{"a":[{"seed":["x"],"best_ns":1.0,"median_ns":1.0,"count":3}]}}"#),
            ("missing best_ns", r#"{"states":{"a":[{"seed":[1.0],"median_ns":1.0,"count":3}]}}"#),
            ("signature not an object", r#"{"states":{"a":[7]}}"#),
            ("trailing garbage", r#"{"states":{}} x"#),
            ("not JSON", "states"),
            ("empty", ""),
        ];
        for (what, text) in cases {
            assert!(BaselineProfile::from_json(text).is_err(), "{what}: {text} was accepted");
        }
        assert_eq!(BaselineProfile::from_json(r#"{"states":{}}"#).unwrap(), BaselineProfile::default());
    }

    #[test]
    fn profile_roundtrips_through_json() {
        let cfg = VaproConfig::default();
        let base = BaselineProfile::build(&whole_pool(&run_stg(NoiseEnv::quiet(), 1)), &cfg);
        let json = base.to_json();
        let back = BaselineProfile::from_json(&json).unwrap();
        // JSON float formatting can shift the last ULP; compare within
        // tolerance rather than bit-exactly.
        assert_eq!(base.states.len(), back.states.len());
        for (label, sigs) in &base.states {
            let back_sigs = &back.states[label];
            assert_eq!(sigs.len(), back_sigs.len());
            for (a, b) in sigs.iter().zip(back_sigs) {
                assert_eq!(a.count, b.count);
                assert!((a.best_ns - b.best_ns).abs() < 1e-6);
                for (x, y) in a.seed.iter().zip(&b.seed) {
                    assert!((x - y).abs() <= x.abs() * 1e-12);
                }
            }
        }
    }
}
