//! The transport model: seeded fault plans and the event schedules they
//! materialise into.
//!
//! A [`FaultPlan`] describes — deterministically, from a seed — what the
//! transport does to each shipped frame of one job: drop it, duplicate
//! it, reorder it within its reporting period, flip a bit, or delay it
//! by whole periods; which ranks die mid-run (stop shipping after a
//! given period); which ranks are *born* mid-run (join the deployment at
//! a given period); and whether a backpressure byte cap is armed. A
//! [`FleetPlan`] interleaves several jobs, each with its own fault axes,
//! through one fleet plane. [`plan_events`] / [`fleet_job_events`]
//! turn a plan into an explicit [`TransportEvent`] schedule — every
//! frame delivery annotated with what the transport did to it
//! ([`FrameMeta`]), plus rank births. The metadata is what makes
//! per-delivery *prediction* possible: the admission oracle says what
//! the server must do with each delivery before the driver pushes it.
//!
//! Also here, because every consumer of the model needs it: the
//! synthetic run the plans ship ([`synthetic_stgs`]). The one-shot
//! reference a clean stream must reproduce and the bit-identity
//! comparison live in [`crate::reference`].

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use vapro_core::detect::frame_charge;
use vapro_core::detect::window::Window;
use vapro_core::wire::FrameView;
use vapro_core::{
    FaultTolerance, Fragment, FragmentBatch, FragmentKind, JobKey, StateKey, Stg, VaproConfig,
};
use vapro_pmu::{CounterDelta, CounterId};
use vapro_sim::{CallSite, VirtualTime};

/// The first reporting period.
pub fn first_period(period_ns: u64) -> Window {
    Window { start: VirtualTime::ZERO, end: VirtualTime::from_ns(period_ns) }
}

/// A valid batch for `rank` covering the first period — the template
/// the hostile extras stamp, encode and mutate, and the unit the
/// scenarios' byte caps are set in.
pub fn template_batch(rank: usize, period_ns: u64) -> FragmentBatch {
    let stgs = synthetic_stgs(1, 40, 8, 0xE81A);
    FragmentBatch::from_stg_starting_in(&stgs[0], rank, first_period(period_ns)).with_seq(1)
}

/// What admission charges rank 0's template frame for `period_ns`.
pub fn template_frame_charge(period_ns: u64) -> u64 {
    charge_of(&template_batch(0, period_ns).encode())
}

/// What admission charges a frame ([`frame_charge`]); one that fails to
/// parse is charged its length.
pub fn charge_of(bytes: &[u8]) -> u64 {
    FrameView::parse(bytes).map_or(bytes.len() as u64, |frame| frame_charge(&frame))
}

/// Build per-rank STGs for a synthetic run: `sites` call sites per rank,
/// each a self-loop carrying computation fragments of a site-specific
/// workload class (±0.3 % PMU-style jitter), with an invocation fragment
/// every few iterations. One rank runs 2× slower in the middle third so
/// region growing has real work to do.
pub fn synthetic_stgs(nranks: usize, frags_per_rank: usize, sites: usize, seed: u64) -> Vec<Stg> {
    let sites = sites.max(1);
    let names: Vec<&'static str> = (0..sites)
        .map(|j| &*Box::leak(format!("perf:site{j:02}").into_boxed_str()))
        .collect();
    (0..nranks)
        .map(|rank| {
            let mut rng = ChaCha8Rng::seed_from_u64(seed ^ (rank as u64).wrapping_mul(0x9E37));
            let mut stg = Stg::new();
            let start = stg.state(StateKey::Start);
            let states: Vec<_> = names
                .iter()
                .map(|&n| stg.state(StateKey::Site(CallSite(n))))
                .collect();
            let loops: Vec<_> = states.iter().map(|&s| stg.transition(s, s)).collect();
            stg.transition(start, states[0]);
            let mut t = 0u64;
            for i in 0..frags_per_rank {
                let j = i % sites;
                let base_ins = 1_000.0 * 1.3f64.powi(j as i32);
                let jitter = 1.0 + rng.gen_range(-0.003..0.003);
                let ins = base_ins * jitter;
                let mut base_dur = (base_ins / 10.0) * jitter;
                // The slow window: rank `nranks-1`, middle third of its
                // iterations, computing at half speed.
                if rank == nranks - 1 && (frags_per_rank / 3..2 * frags_per_rank / 3).contains(&i)
                {
                    base_dur *= 2.0;
                }
                let dur = base_dur.max(1.0) as u64;
                let mut c = CounterDelta::default();
                c.put(CounterId::TotIns, ins);
                stg.attach_edge_fragment(
                    loops[j],
                    Fragment {
                        rank,
                        kind: FragmentKind::Computation,
                        start: VirtualTime::from_ns(t),
                        end: VirtualTime::from_ns(t + dur),
                        counters: c,
                        args: vec![],
                    },
                );
                t += dur;
                if i % 8 == 0 {
                    stg.attach_vertex_fragment(
                        states[j],
                        Fragment {
                            rank,
                            kind: FragmentKind::Communication,
                            start: VirtualTime::from_ns(t),
                            end: VirtualTime::from_ns(t + 10),
                            counters: CounterDelta::default(),
                            args: vec![64.0, 1.0],
                        },
                    );
                    t += 10;
                }
            }
            stg
        })
        .collect()
}

/// A deterministic fault-injection schedule for one job. Intensities
/// are per-frame probabilities in `[0, 1]`, drawn from `seed` alone —
/// the same plan always produces the same byte-level delivery sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for every random decision the plan makes.
    pub seed: u64,
    /// Ranks in the synthetic run.
    pub nranks: usize,
    /// Computation fragments per rank.
    pub frags_per_rank: usize,
    /// Reporting periods the run is sliced into.
    pub periods: usize,
    /// Probability a frame is silently dropped in transit.
    pub drop: f64,
    /// Probability a frame is delivered twice (retransmission).
    pub duplicate: f64,
    /// Probability a frame is reordered within its reporting period.
    pub reorder: f64,
    /// Probability one bit of a frame's payload is flipped.
    pub corrupt: f64,
    /// Probability a frame is delayed by 1–2 whole periods.
    pub delay: f64,
    /// `(rank, last_period)`: the rank ships periods `0..=last_period`
    /// and then dies — nothing further is even generated.
    pub deaths: Vec<(usize, usize)>,
    /// Ranks joining mid-stream: each entry is the first period the
    /// newborn ships. Born rank ids follow the initial ranks, assigned
    /// in ascending birth order, and each newborn's sequence numbering
    /// starts fresh at 1.
    pub births: Vec<usize>,
    /// Backpressure cap forwarded to the ingestor's
    /// `fault.max_buffered_bytes`: ahead-of-watermark frames past this
    /// many buffered bytes are accounted drops.
    pub max_buffered_bytes: Option<u64>,
}

impl FaultPlan {
    /// The clean transport: everything delivered exactly once, in order.
    pub fn fault_free(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            nranks: 3,
            frags_per_rank: 400,
            periods: 8,
            drop: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            corrupt: 0.0,
            delay: 0.0,
            deaths: Vec::new(),
            births: Vec::new(),
            max_buffered_bytes: None,
        }
    }

    /// A randomly hostile transport: moderate intensities on every fault
    /// axis, half the time one rank dying mid-run, sometimes a birth or
    /// a buffer cap — all derived from `seed`.
    pub fn random(seed: u64) -> FaultPlan {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0xC4A0_5F00D);
        let nranks = rng.gen_range(2usize..5);
        let periods = rng.gen_range(4usize..10);
        let deaths = if rng.gen_bool(0.5) {
            vec![(rng.gen_range(0..nranks), rng.gen_range(1..periods.max(2) - 1))]
        } else {
            Vec::new()
        };
        let mut plan = FaultPlan {
            seed,
            nranks,
            frags_per_rank: rng.gen_range(150usize..500),
            periods,
            drop: rng.gen_range(0.0..0.15),
            duplicate: rng.gen_range(0.0..0.2),
            reorder: rng.gen_range(0.0..0.5),
            corrupt: rng.gen_range(0.0..0.1),
            delay: rng.gen_range(0.0..0.2),
            deaths,
            births: Vec::new(),
            max_buffered_bytes: None,
        };
        if plan.periods >= 4 && rng.gen_bool(0.25) {
            plan.births = vec![rng.gen_range(1..=3usize.min(plan.periods - 2))];
        }
        if rng.gen_bool(0.2) {
            let frames = rng.gen_range(2u64..34);
            plan.max_buffered_bytes = Some(frames * template_frame_charge(plan.period_ns()));
        }
        plan
    }

    /// Ranks present by the end of the run: initial plus born.
    pub fn total_ranks(&self) -> usize {
        self.nranks + self.births.len()
    }

    /// Born ranks as `(rank_id, first_period)`, in birth order: born
    /// rank ids follow the initial ranks, earliest birth first.
    pub fn birth_schedule(&self) -> Vec<(usize, usize)> {
        let mut firsts = self.births.clone();
        firsts.sort_unstable();
        firsts.iter().enumerate().map(|(i, &p)| (self.nranks + i, p)).collect()
    }

    /// One-line human summary, printed with the seed on any invariant
    /// violation so a failure is understandable before it is reproduced.
    pub fn summary(&self) -> String {
        format!(
            "seed={} ranks={}(+{} born) frags={} periods={} drop={:.2} dup={:.2} \
             reorder={:.2} corrupt={:.2} delay={:.2} deaths={:?} births={:?} cap={:?}",
            self.seed,
            self.nranks,
            self.births.len(),
            self.frags_per_rank,
            self.periods,
            self.drop,
            self.duplicate,
            self.reorder,
            self.corrupt,
            self.delay,
            self.deaths,
            self.births,
            self.max_buffered_bytes,
        )
    }

    /// The synthetic STGs the plan runs over: one per rank, born ranks
    /// included (their data exists from t=0; they just don't *ship* it
    /// until their birth period).
    pub fn stgs(&self) -> Vec<Stg> {
        synthetic_stgs(self.total_ranks(), self.frags_per_rank, 8, self.seed ^ 0xBAD_F00D)
    }

    /// The plan's reporting period: the synthetic data end split into
    /// the requested period count.
    pub fn period_ns(&self) -> u64 {
        period_of(&self.stgs(), self.periods)
    }
}

/// A run's data end split into `periods` reporting periods, ns.
fn period_of(stgs: &[Stg], periods: usize) -> u64 {
    (t_end_ns(stgs) / periods.max(1) as u64).max(1)
}

/// Latest fragment end across the run, ns.
fn t_end_ns(stgs: &[Stg]) -> u64 {
    stgs.iter().flat_map(Stg::fragments).map(|f| f.end.ns()).max().unwrap_or(0)
}

/// The ingestion config every plan runs under: production straggler
/// policy scaled to `period_ns` (dead after 4 periods),
/// unbounded buffering unless the caller arms a cap.
pub fn plan_config(period_ns: u64) -> VaproConfig {
    VaproConfig {
        report_period: VirtualTime::from_ns(period_ns),
        fault: FaultTolerance {
            dead_horizon: Some(VirtualTime::from_ns(period_ns.saturating_mul(4))),
            max_buffered_bytes: None,
        },
        ..VaproConfig::default()
    }
}

/// What the transport did to one delivered frame, alongside its bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameMeta {
    /// The encoded frame as delivered (bit flip applied).
    pub bytes: Vec<u8>,
    /// What admission charges the frame as shipped, before any flip
    /// ([`charge_of`]).
    pub charge: u64,
    /// Shipping rank (as stamped in the frame before any flip).
    pub rank: usize,
    /// Reporting period the frame belongs to.
    pub period: usize,
    /// Stamped sequence number.
    pub seq: u64,
    /// The shipped span's window start, ns.
    pub window_start_ns: u64,
    /// The shipped span's window end, ns.
    pub window_end_ns: u64,
    /// A bit was flipped in the CRC field or a byte it covers: the
    /// decoder must reject the frame on its checksum.
    pub corrupted: bool,
    /// This delivery is a retransmission of an already-sent frame.
    pub retransmit: bool,
    /// Whole periods of transit delay.
    pub delayed: u64,
    /// The frame was reordered within its arrival period.
    pub reordered: bool,
    /// The frame is structurally invalid: a bit was flipped in the magic
    /// or the version byte (which precede the checksum field), or a
    /// scenario truncated it.
    pub malformed: bool,
}

/// One event of a materialised transport schedule, in arrival order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportEvent {
    /// A frame arrives at the ingestor.
    Frame(FrameMeta),
    /// A rank joins the deployment (`WindowedIngestor::add_rank`).
    Birth {
        /// The rank id the newborn will ship under.
        rank: usize,
    },
}

/// Offset of the CRC field in a frame: length prefix (4) + magic (4) +
/// version byte (1). A flip before it is a structural reject, a flip at
/// or after it a checksum reject.
const CRC_FIELD_POS: usize = 9;

/// One transport's fault axes, shared by the solo and fleet generators.
struct TransportAxes<'a> {
    drop: f64,
    duplicate: f64,
    reorder: f64,
    corrupt: f64,
    delay: f64,
    deaths: &'a [(usize, usize)],
    /// `(rank_id, first_period)` in birth order; empty for fleet jobs.
    birth_schedule: Vec<(usize, usize)>,
    /// The fleet routing stamp every frame carries.
    key: JobKey,
}

/// Generate one transport's event schedule: sequenced per-period frames
/// with faults applied, plus birth events, sorted into arrival order.
/// Each delivery carries a sort key (period-with-delay, slot) so
/// reordering and delaying are pure key perturbations; births sort at
/// slot 0 of their period, ahead of that period's frames. Shipping runs
/// to the ceiling of the data end so the tail period ships too. A bit
/// flip may land on any payload byte — magic and version included — and
/// the metadata records which rejection the decoder owes it.
fn generate_events(
    stgs: &[Stg],
    period_ns: u64,
    rng_seed: u64,
    axes: &TransportAxes<'_>,
) -> Vec<TransportEvent> {
    let t_end = t_end_ns(stgs);
    let mut rng = ChaCha8Rng::seed_from_u64(rng_seed);
    let mut keyed: Vec<((u64, u64), TransportEvent)> = Vec::new();
    for &(rank, first) in &axes.birth_schedule {
        keyed.push(((first as u64, 0), TransportEvent::Birth { rank }));
    }
    let mut slot = 0u64;
    for k in 0..t_end.div_ceil(period_ns) as usize {
        let period = Window {
            start: VirtualTime::from_ns(k as u64 * period_ns),
            end: VirtualTime::from_ns((k as u64 + 1) * period_ns),
        };
        for (rank, stg) in stgs.iter().enumerate() {
            if axes.deaths.iter().any(|&(r, last)| r == rank && k > last) {
                continue; // the rank is dead: nothing is even generated
            }
            let first = axes
                .birth_schedule
                .iter()
                .find(|&&(r, _)| r == rank)
                .map_or(0, |&(_, f)| f);
            if k < first {
                continue; // not born yet: nothing shipped
            }
            slot += 1;
            if rng.gen_bool(axes.drop) {
                continue;
            }
            // A newborn's sequence numbering starts fresh at 1.
            let seq = (k - first) as u64 + 1;
            let mut bytes = FragmentBatch::from_stg_starting_in(stg, rank, period)
                .with_seq(seq)
                .with_job(axes.key.tenant, axes.key.job)
                .encode();
            let charge = charge_of(&bytes);
            let flipped = rng.gen_bool(axes.corrupt).then(|| {
                let pos = rng.gen_range(4..bytes.len());
                bytes[pos] ^= 1 << rng.gen_range(0..8u32);
                pos
            });
            let delayed = if rng.gen_bool(axes.delay) { rng.gen_range(1u64..3) } else { 0 };
            let reordered = rng.gen_bool(axes.reorder);
            let jitter = if reordered { rng.gen_range(0..1_000_000u64) } else { slot };
            let meta = FrameMeta {
                bytes,
                charge,
                rank,
                period: k,
                seq,
                window_start_ns: period.start.ns(),
                window_end_ns: period.end.ns(),
                corrupted: flipped.is_some_and(|pos| pos >= CRC_FIELD_POS),
                retransmit: false,
                delayed,
                reordered,
                malformed: flipped.is_some_and(|pos| pos < CRC_FIELD_POS),
            };
            if rng.gen_bool(axes.duplicate) {
                let dup = FrameMeta { retransmit: true, ..meta.clone() };
                keyed.push(((k as u64 + delayed, jitter + 1), TransportEvent::Frame(dup)));
            }
            keyed.push(((k as u64 + delayed, jitter), TransportEvent::Frame(meta)));
        }
    }
    // Stable by key: equal keys keep push order, so the whole schedule
    // is a pure function of (stgs, axes, seed).
    keyed.sort_by_key(|a| a.0);
    keyed.into_iter().map(|(_, e)| e).collect()
}

/// Materialise a plan's transport schedule. Deterministic in the plan
/// alone.
pub fn plan_events(plan: &FaultPlan) -> Vec<TransportEvent> {
    let axes = TransportAxes {
        drop: plan.drop,
        duplicate: plan.duplicate,
        reorder: plan.reorder,
        corrupt: plan.corrupt,
        delay: plan.delay,
        deaths: &plan.deaths,
        birth_schedule: plan.birth_schedule(),
        key: JobKey::default_job(),
    };
    let stgs = plan.stgs();
    generate_events(&stgs, period_of(&stgs, plan.periods), plan.seed, &axes)
}

// ---------------------------------------------------------------------
// Fleet plans: the same seeded fault injection aimed at the
// multi-tenant plane, each job with its *own* fault axes.

/// One job inside a fleet plan: its routing identity, its synthetic-run
/// shape, and its private transport fault axes.
#[derive(Debug, Clone, PartialEq)]
pub struct JobPlan {
    /// Owning tenant.
    pub tenant: u32,
    /// Job id within the tenant.
    pub job: u32,
    /// Ranks in this job's synthetic run.
    pub nranks: usize,
    /// Computation fragments per rank.
    pub frags_per_rank: usize,
    /// Probability a frame is silently dropped in transit.
    pub drop: f64,
    /// Probability a frame is delivered twice.
    pub duplicate: f64,
    /// Probability a frame is reordered within its reporting period.
    pub reorder: f64,
    /// Probability one bit of a frame's payload is flipped.
    pub corrupt: f64,
    /// Probability a frame is delayed by 1–2 whole periods.
    pub delay: f64,
    /// `(rank, last_period)` deaths, as in [`FaultPlan::deaths`].
    pub deaths: Vec<(usize, usize)>,
}

impl JobPlan {
    /// A clean job: everything delivered exactly once, in order.
    pub fn clean(tenant: u32, job: u32) -> JobPlan {
        JobPlan {
            tenant,
            job,
            nranks: 2,
            frags_per_rank: 200,
            drop: 0.0,
            duplicate: 0.0,
            reorder: 0.0,
            corrupt: 0.0,
            delay: 0.0,
            deaths: Vec::new(),
        }
    }

    /// Does this job's transport inject any fault at all?
    pub fn is_fault_free(&self) -> bool {
        self.drop == 0.0
            && self.duplicate == 0.0
            && self.reorder == 0.0
            && self.corrupt == 0.0
            && self.delay == 0.0
            && self.deaths.is_empty()
    }

    /// The fleet routing key.
    pub fn key(&self) -> JobKey {
        JobKey { tenant: self.tenant, job: self.job }
    }
}

/// A deterministic multi-job fault schedule over the fleet plane.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetPlan {
    /// Seed for every random decision the plan makes.
    pub seed: u64,
    /// `FleetConfig::shards` of the fleet under test.
    pub shards: usize,
    /// Reporting periods every job is sliced into (shared cadence).
    pub periods: usize,
    /// The jobs and their private fault axes.
    pub jobs: Vec<JobPlan>,
}

impl FleetPlan {
    /// A clean fleet: `jobs` fault-free jobs across distinct tenants.
    pub fn fault_free(seed: u64, jobs: usize) -> FleetPlan {
        FleetPlan {
            seed,
            shards: 2,
            periods: 6,
            jobs: (0..jobs).map(|j| JobPlan::clean(1 + j as u32 % 3, j as u32)).collect(),
        }
    }

    /// A randomly hostile fleet: 2–4 jobs, each with its own random
    /// fault mix — except job 0, which is always clean so every random
    /// plan also probes the isolation claim — all derived from `seed`.
    pub fn random(seed: u64) -> FleetPlan {
        let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x000F_1EE7_C4A0);
        let njobs = rng.gen_range(2usize..5);
        let periods = rng.gen_range(4usize..8);
        let jobs = (0..njobs)
            .map(|j| {
                let mut jp = JobPlan {
                    tenant: 1 + rng.gen_range(0u32..3),
                    job: j as u32,
                    nranks: rng.gen_range(2usize..4),
                    frags_per_rank: rng.gen_range(120usize..300),
                    drop: rng.gen_range(0.0..0.15),
                    duplicate: rng.gen_range(0.0..0.2),
                    reorder: rng.gen_range(0.0..0.5),
                    corrupt: rng.gen_range(0.0..0.1),
                    delay: rng.gen_range(0.0..0.2),
                    deaths: if rng.gen_bool(0.4) {
                        vec![(0, rng.gen_range(1..periods.max(3) - 1))]
                    } else {
                        Vec::new()
                    },
                };
                jp.deaths = jp
                    .deaths
                    .iter()
                    .map(|&(_, p)| (rng.gen_range(0..jp.nranks), p))
                    .collect();
                if j == 0 {
                    jp = JobPlan {
                        nranks: jp.nranks,
                        frags_per_rank: jp.frags_per_rank,
                        ..JobPlan::clean(jp.tenant, 0)
                    };
                }
                jp
            })
            .collect();
        FleetPlan {
            seed,
            shards: rng.gen_range(1usize..5),
            periods,
            jobs,
        }
    }

    /// The seed salt that keeps jobs of one plan on distinct streams.
    fn job_salt(jp: &JobPlan) -> u64 {
        ((jp.tenant as u64) << 32) | jp.job as u64
    }

    /// This job's synthetic STGs (seeded off the plan and the job
    /// identity).
    fn job_stgs(&self, jp: &JobPlan) -> Vec<Stg> {
        synthetic_stgs(
            jp.nranks,
            jp.frags_per_rank,
            8,
            self.seed ^ Self::job_salt(jp) ^ 0xBAD_F00D,
        )
    }

    /// The shared reporting period: the longest job's data split into
    /// the plan's period count (every job analyses on the same cadence,
    /// as the fleet's single `VaproConfig` requires).
    pub fn period_ns(&self) -> u64 {
        self.jobs.iter().map(|jp| period_of(&self.job_stgs(jp), self.periods)).max().unwrap_or(1)
    }
}

/// Materialise one job's faulted event schedule: sequenced per-period
/// frames carrying the job's routing stamp, faults applied, sorted into
/// arrival order. Deterministic in the plan seed and the job identity.
pub fn fleet_job_events(plan: &FleetPlan, jp: &JobPlan, period_ns: u64) -> Vec<TransportEvent> {
    let axes = TransportAxes {
        drop: jp.drop,
        duplicate: jp.duplicate,
        reorder: jp.reorder,
        corrupt: jp.corrupt,
        delay: jp.delay,
        deaths: &jp.deaths,
        birth_schedule: Vec::new(),
        key: jp.key(),
    };
    generate_events(&plan.job_stgs(jp), period_ns, plan.seed ^ FleetPlan::job_salt(jp), &axes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_stgs_hit_the_fragment_budget() {
        let stgs = synthetic_stgs(4, 160, 8, 1);
        assert_eq!(stgs.len(), 4);
        let total: usize = stgs.iter().map(Stg::total_fragments).sum();
        // 160 computation + 20 invocation fragments per rank.
        assert_eq!(total, 4 * 180);
        // All ranks share the same states, so pooling crosses ranks.
        use vapro_core::PoolView;
        let batches = crate::reference::whole_run_batches(&stgs);
        let pool = vapro_core::ColumnarPool::from_batches(&batches, None);
        for v in 0..pool.num_vertices() {
            let lane = pool.vertex(v).1;
            let ranks: std::collections::HashSet<_> = (0..lane.len()).map(|i| lane.rank(i)).collect();
            assert!(ranks.len() > 1);
        }
    }

    #[test]
    fn plans_and_schedules_are_deterministic_in_their_seed() {
        assert_eq!(FaultPlan::random(99), FaultPlan::random(99));
        assert_eq!(FleetPlan::random(77), FleetPlan::random(77));
        let plan = FaultPlan {
            drop: 0.2,
            duplicate: 0.2,
            corrupt: 0.2,
            reorder: 0.3,
            delay: 0.2,
            births: vec![1],
            ..FaultPlan::fault_free(101)
        };
        let events = plan_events(&plan);
        assert_eq!(events, plan_events(&plan));
        // Every axis left its mark on the schedule.
        let clean = plan_events(&FaultPlan { births: vec![1], ..FaultPlan::fault_free(101) });
        let frames = |evs: &[TransportEvent]| -> Vec<FrameMeta> {
            evs.iter()
                .filter_map(|e| match e {
                    TransportEvent::Frame(f) => Some(f.clone()),
                    TransportEvent::Birth { .. } => None,
                })
                .collect()
        };
        let (faulted, clean) = (frames(&events), frames(&clean));
        assert_eq!(events.len() - faulted.len(), 1, "one birth event");
        let originals = faulted.iter().filter(|f| !f.retransmit).count();
        assert!(originals < clean.len(), "drop axis never fired");
        assert!(faulted.iter().any(|f| f.retransmit), "duplicate axis never fired");
        assert!(faulted.iter().any(|f| f.corrupted || f.malformed), "corrupt axis never fired");
        assert!(faulted.iter().any(|f| f.delayed > 0), "delay axis never fired");
        assert!(faulted.iter().any(|f| f.reordered), "reorder axis never fired");
    }

    #[test]
    fn a_bit_flip_is_classified_by_where_it_landed() {
        // Flips before the CRC field (magic, version byte) are structural
        // rejects; flips at or after it are checksum rejects. Heavy
        // corruption over a long run lands on both sides.
        let plan = FaultPlan { corrupt: 1.0, periods: 40, ..FaultPlan::fault_free(5) };
        let clean = plan_events(&FaultPlan { corrupt: 0.0, ..plan.clone() });
        let mut seen = (0usize, 0usize);
        for (e, c) in plan_events(&plan).iter().zip(&clean) {
            let (TransportEvent::Frame(f), TransportEvent::Frame(c)) = (e, c) else {
                panic!("a plan without births schedules only frames");
            };
            let pos = f.bytes.iter().zip(&c.bytes).position(|(a, b)| a != b).expect("one flip");
            assert!(pos >= 4, "the length prefix is never flipped");
            assert_eq!(f.malformed, pos < CRC_FIELD_POS, "flip at {pos}");
            assert_eq!(f.corrupted, pos >= CRC_FIELD_POS, "flip at {pos}");
            match FragmentBatch::decode(&f.bytes) {
                Err(vapro_core::WireError::BadChecksum { .. }) => {
                    assert!(f.corrupted);
                    seen.1 += 1;
                }
                Err(_) => {
                    assert!(f.malformed);
                    seen.0 += 1;
                }
                Ok(_) => panic!("flip at {pos} decoded"),
            }
        }
        assert!(seen.1 > 0, "no flip landed in checksum coverage");
    }
}
