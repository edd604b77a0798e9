//! A golden digest of whole diagnosis reports.
//!
//! Every field of every `DiagnosisReport` — each step's factors and
//! counter count, the contribution table's counts and the bits of every
//! `f64` in it (NaNs included), each OLS impact's estimate, p-value,
//! both 95 % CI bounds and model membership, the culprits and the
//! periods — is folded into one FNV-1a value. The benchmark's report
//! digest folds only the region, periods and culprits; this one pins
//! the numbers the drill-down computes, so a rewrite of the diagnoser
//! must reproduce them bit for bit.
//!
//! Three planted causes (memory contention, CPU steal, the HPL L2 bug),
//! each diagnosed through the per-region reference `diagnose_region`
//! and through a `WindowedIngestor` stream.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::ops::Range;
use vapro_core::detect::window::Window;
use vapro_core::diagnose::{DiagnosisReport, RegionOfInterest};
use vapro_core::{
    ColumnarPool, Fragment, FragmentBatch, FragmentKind, StateKey, Stg, VaproConfig, WindowedIngestor,
};
use vapro_pmu::{CpuConfig, CpuModel, JitterModel, Locality, NoiseEnv, WorkloadSpec};
use vapro_sim::{CallSite, VirtualTime};
use vapro_vopr::reference::diagnose_region;

/// FNV-1a over little-endian `u64` words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn num(&mut self, v: usize) {
        self.word(v as u64);
    }

    fn bits(&mut self, v: f64) {
        self.word(v.to_bits());
    }
}

fn fold_report(h: &mut Fnv, r: &DiagnosisReport) {
    h.num(r.periods);
    h.num(r.steps.len());
    for s in &r.steps {
        h.num(s.factors.len());
        for &f in &s.factors {
            h.num(f as usize);
        }
        h.num(s.counters_used);
        let c = &s.report;
        h.num(c.abnormal_count);
        h.num(c.normal_count);
        h.bits(c.total_slowdown_ns);
        h.num(c.factors.len());
        for fc in &c.factors {
            h.num(fc.factor as usize);
            h.bits(fc.contribution);
            h.bits(fc.impact_share);
            h.bits(fc.duration_share);
            h.num(usize::from(fc.major));
        }
        h.num(s.ols.len());
        for o in &s.ols {
            let (lo, hi) = o.ci95_ns();
            h.num(o.factor as usize);
            h.bits(o.impact_ns);
            h.bits(o.p_value);
            h.bits(lo);
            h.bits(hi);
            h.num(usize::from(o.in_model));
        }
    }
    h.num(r.culprits.len());
    for &c in &r.culprits {
        h.num(c as usize);
    }
}

fn fold_roi(h: &mut Fnv, roi: &RegionOfInterest) {
    h.num(roi.ranks.0);
    h.num(roi.ranks.1);
    h.word(roi.t_start.ns());
    h.word(roi.t_end.ns());
}

const RANKS: usize = 4;
const ITERATIONS: u64 = 240;
/// One computation fragment per slot and rank, the rest of the slot idle.
const SLOT_NS: u64 = 2_000_000;
const SLOW_RANK: usize = 2;
const SLOW: Range<u64> = 90..150;
const PERIOD_NS: u64 = 80_000_000;

struct Scenario {
    name: &'static str,
    spec: WorkloadSpec,
    noise: NoiseEnv,
}

fn scenarios() -> [Scenario; 3] {
    [
        Scenario {
            name: "mem_contention",
            spec: WorkloadSpec::memory_bound(4e5),
            noise: NoiseEnv { mem_contention: 2.0, ..NoiseEnv::default() },
        },
        Scenario {
            name: "cpu_steal",
            spec: WorkloadSpec::compute_bound(6e5),
            noise: NoiseEnv { cpu_steal: 0.5, ..NoiseEnv::default() },
        },
        Scenario {
            name: "l2_bug",
            spec: WorkloadSpec {
                instructions: 4e5,
                mem_refs: 1.2e5,
                locality: Locality { l1: 0.5, l2: 0.45, l3: 0.04, dram: 0.01 },
                ..WorkloadSpec::default()
            },
            noise: NoiseEnv { l2_bug_prob: 1.0, l2_bug_severity: 0.6, ..NoiseEnv::default() },
        },
    ]
}

/// Every rank runs `s.spec` once a slot on one self-loop edge with the
/// full counter set; `SLOW_RANK` runs it under `s.noise` during `SLOW`.
fn stgs(s: &Scenario) -> Vec<Stg> {
    let model = CpuModel::with_jitter(CpuConfig::default(), JitterModel::default());
    (0..RANKS)
        .map(|rank| {
            let mut rng = ChaCha8Rng::seed_from_u64(0x601d + rank as u64);
            let mut stg = Stg::new();
            let s0 = stg.state(StateKey::Start);
            let s1 = stg.state(StateKey::Site(CallSite("golden:MPI_Allreduce")));
            stg.transition(s0, s1);
            let e = stg.transition(s1, s1);
            for i in 0..ITERATIONS {
                let env = if rank == SLOW_RANK && SLOW.contains(&i) { s.noise } else { NoiseEnv::quiet() };
                let out = model.execute(&s.spec, &env, &mut rng);
                assert!(out.wall_ns < SLOT_NS as f64, "{}: {} ns", s.name, out.wall_ns);
                let start = VirtualTime::from_ns(i * SLOT_NS);
                stg.attach_edge_fragment(
                    e,
                    Fragment {
                        rank,
                        kind: FragmentKind::Computation,
                        start,
                        end: start + VirtualTime::from_ns_f64(out.wall_ns),
                        counters: out.counters,
                        args: vec![],
                    },
                );
            }
            stg
        })
        .collect()
}

/// The one-shot driver over the planted rectangle and over the whole run.
fn fold_one_shot(h: &mut Fnv, stgs: &[Stg]) -> usize {
    let cfg = VaproConfig::default();
    let rois = [
        RegionOfInterest {
            ranks: (SLOW_RANK, SLOW_RANK),
            t_start: VirtualTime::from_ns(SLOW.start * SLOT_NS),
            t_end: VirtualTime::from_ns(SLOW.end * SLOT_NS),
        },
        RegionOfInterest {
            ranks: (0, RANKS - 1),
            t_start: VirtualTime::ZERO,
            t_end: VirtualTime::from_ns(ITERATIONS * SLOT_NS),
        },
    ];
    let cut = |(rank, stg)| FragmentBatch::from_stg_starting_in(stg, rank, Window::ALL);
    let batches: Vec<FragmentBatch> = stgs.iter().enumerate().map(cut).collect();
    let pool = ColumnarPool::from_batches(&batches, None);
    let mut diagnosed = 0;
    for roi in &rois {
        fold_roi(h, roi);
        match diagnose_region(&pool, roi, &cfg) {
            Some(r) => {
                fold_report(h, &r);
                diagnosed += 1;
            }
            None => h.num(usize::MAX),
        }
    }
    diagnosed
}

/// The same STGs shipped period by period through a streaming ingestor;
/// every window's diagnoses in window order.
fn fold_stream(h: &mut Fnv, stgs: &[Stg]) -> Vec<DiagnosisReport> {
    let cfg = VaproConfig { report_period: VirtualTime::from_ns(PERIOD_NS), ..VaproConfig::default() };
    let mut ingestor = WindowedIngestor::new(RANKS, 16, cfg);
    let mut reports = Vec::new();
    let periods = ITERATIONS * SLOT_NS / PERIOD_NS;
    for k in 0..periods {
        let period = Window {
            start: VirtualTime::from_ns(PERIOD_NS * k),
            end: VirtualTime::from_ns(PERIOD_NS * (k + 1)),
        };
        for (rank, stg) in stgs.iter().enumerate() {
            let frame = FragmentBatch::from_stg_starting_in(stg, rank, period).with_seq(k + 1).encode();
            reports.extend(ingestor.push_encoded(&frame).expect("valid frame"));
        }
    }
    reports.extend(ingestor.finish());
    let mut diagnoses = Vec::new();
    for w in &reports {
        h.num(w.diagnoses.len());
        for d in &w.diagnoses {
            fold_roi(h, &d.roi);
            fold_report(h, &d.report);
            diagnoses.push(d.report.clone());
        }
    }
    diagnoses
}

#[test]
fn diagnosis_reports_match_the_golden_digest() {
    let mut all = Fnv::new();
    let mut each = Vec::new();
    for s in scenarios() {
        let stgs = stgs(&s);
        let mut h = Fnv::new();
        let one_shot = fold_one_shot(&mut h, &stgs);
        let streamed = fold_stream(&mut h, &stgs);
        // Each scenario must drive the diagnoser where the digest can
        // see it: reports on both paths, and for CPU steal the count
        // factors' OLS with a proxy back-filled factor.
        assert!(one_shot > 0, "{}: the one-shot driver diagnosed nothing", s.name);
        assert!(!streamed.is_empty(), "{}: the stream diagnosed nothing", s.name);
        if s.name == "cpu_steal" {
            let ols = streamed.iter().flat_map(|r| &r.steps).flat_map(|st| &st.ols);
            let (mut in_model, mut proxied) = (0, 0);
            for o in ols {
                if o.in_model {
                    in_model += 1;
                } else {
                    proxied += 1;
                }
            }
            assert!(in_model > 0 && proxied > 0, "cpu_steal: {in_model} in-model, {proxied} proxied impacts");
        }
        all.word(h.0);
        each.push(format!("{}: {:016x} ({one_shot} one-shot, {} streamed)", s.name, h.0, streamed.len()));
    }
    assert_eq!(format!("{:016x}", all.0), "22d65f1b8fe6d9c6", "per scenario:\n{}", each.join("\n"));
}
