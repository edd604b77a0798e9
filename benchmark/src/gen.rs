//! The seeded, program-blind load generator.
//!
//! `--seed` is the only source of randomness. Counter deltas and wall
//! times come from `vapro_pmu::CpuModel::execute` — the simulated
//! hardware, not the system under test — and leave this module only as
//! encoded wire-v3 frames in shipping order, together with the *plan*:
//! what each frame is (clean, duplicate, corrupted, burst), what outcome
//! the wire protocol makes certain for it, where noise was planted, and
//! which frame makes each analysis window due. Nothing here looks at the
//! program's state.

use crate::layers::{self, Batch};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use vapro_pmu::{events, CounterSet, CpuConfig, CpuModel, NoiseEnv, WorkloadSpec};

/// The four workloads, in the order `run` executes them.
pub const WORKLOADS: [&str; 4] = [
    "stream_quiet",
    "stream_noisy",
    "stream_faulty",
    "fleet_small",
];

/// Why each workload exists (one line; also the `why` of `BENCHMARK.json`).
pub fn why(name: &str) -> &'static str {
    match name {
        "stream_quiet" => "steady state, nothing planted: zero regions, diagnoser idle; wire, server, columnar and clustering do the work",
        "stream_noisy" => "full counter set with planted noise rectangles: most windows carry a region, so region and diagnose (OLS, S1-S3) do real work",
        "stream_faulty" => "noisy stream under production fault tolerance with duplicates, corrupt frames, reordering and a silent rank: the reject, dedup, sort and dead-rank paths",
        "fleet_small" => "12 small jobs over 3 tenants and 2 shards: tiny windows, so per-window fixed cost, fleet routing, budgets and the interference pass dominate",
        _ => "",
    }
}

/// What kind of noise a workload plants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Planting {
    /// Nothing planted.
    None,
    /// Three 4-rank bands for 1/50 of the run, four epochs out of five,
    /// alternating `mem_contention 2.0` and `cpu_steal 0.5`.
    Bands,
    /// One rank of each of two co-located jobs, every fifth epoch.
    Light,
}

/// The fixed shape of one workload. Recorded in `result.json`.
#[derive(Debug, Clone)]
pub struct Params {
    /// Workload name.
    pub name: &'static str,
    /// Jobs in the stream (1 for the solo workloads).
    pub jobs: usize,
    /// Ranks per job.
    pub ranks: usize,
    /// Call sites per job; each visit yields one invocation and one
    /// computation fragment.
    pub sites: usize,
    /// Shipping periods per rank (= report periods).
    pub periods: usize,
    /// Site visits per rank per period (sets the period length).
    pub visits_per_period: f64,
    /// Project counters to the full set (diagnosable) or the detection set.
    pub full_counters: bool,
    /// Noise planting.
    pub planting: Planting,
    /// Seeded transport faults and `FaultTolerance::production`.
    pub faulty: bool,
    /// Fleet plane: tenants (0 = solo `WindowedIngestor`).
    pub tenants: usize,
    /// Fleet plane: shards.
    pub shards: usize,
    /// Offered rate of the open-loop passes, unique fragments per second.
    pub offered_frags_per_s: f64,
}

/// The parameters of a workload by name.
pub fn params(name: &str) -> Option<Params> {
    let solo = Params {
        name: "stream_quiet",
        jobs: 1,
        ranks: 32,
        sites: 48,
        periods: 500,
        visits_per_period: 24.0,
        full_counters: false,
        planting: Planting::None,
        faulty: false,
        tenants: 0,
        shards: 0,
        offered_frags_per_s: 200_000.0,
    };
    Some(match name {
        "stream_quiet" => solo,
        "stream_noisy" => Params {
            name: "stream_noisy",
            full_counters: true,
            planting: Planting::Bands,
            offered_frags_per_s: 150_000.0,
            ..solo
        },
        "stream_faulty" => Params {
            name: "stream_faulty",
            ranks: 16,
            full_counters: true,
            planting: Planting::Bands,
            faulty: true,
            offered_frags_per_s: 100_000.0,
            ..solo
        },
        "fleet_small" => Params {
            name: "fleet_small",
            jobs: 12,
            ranks: 4,
            sites: 4,
            periods: 400,
            visits_per_period: 6.0,
            full_counters: true,
            planting: Planting::Light,
            tenants: 3,
            shards: 2,
            offered_frags_per_s: 50_000.0,
            ..solo
        },
        _ => return None,
    })
}

/// A planted noise rectangle: a rank band of one job over a time span.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rect {
    /// Job index.
    pub job: usize,
    /// Inclusive rank band.
    pub ranks: (usize, usize),
    /// Start, virtual ns.
    pub t0: u64,
    /// End, virtual ns.
    pub t1: u64,
    /// `true` = `mem_contention 2.0`, `false` = `cpu_steal 0.5`.
    pub memory: bool,
}

impl Rect {
    fn env(&self) -> NoiseEnv {
        if self.memory {
            NoiseEnv {
                mem_contention: 2.0,
                ..NoiseEnv::default()
            }
        } else {
            NoiseEnv {
                cpu_steal: 0.5,
                ..NoiseEnv::default()
            }
        }
    }

    /// Does a rank × time box overlap this rectangle?
    pub fn overlaps(&self, job: usize, ranks: (usize, usize), t0: u64, t1: u64) -> bool {
        job == self.job
            && ranks.0 <= self.ranks.1
            && ranks.1 >= self.ranks.0
            && t0 < self.t1
            && t1 > self.t0
    }
}

/// What a frame is, in the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// First delivery of a rank's period, intact.
    Clean,
    /// A later re-send of an already delivered frame.
    Duplicate,
    /// A first delivery with one payload byte flipped.
    Corrupt,
    /// A tenant's oversized burst frame, above its whole byte budget.
    Burst,
}

/// The outcome the wire protocol makes certain for a frame kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Accepted (admitted, or acknowledged and dropped by server policy).
    Ok,
    /// Rejected by the decoder.
    DecodeError,
    /// Rejected as a retransmission.
    Duplicate,
    /// Rejected by tenant admission.
    OverBudget,
    /// Any other rejection.
    OtherReject,
}

impl FrameKind {
    /// The outcome this kind must produce.
    pub fn expected(self) -> Outcome {
        match self {
            FrameKind::Clean => Outcome::Ok,
            FrameKind::Duplicate => Outcome::Duplicate,
            FrameKind::Corrupt => Outcome::DecodeError,
            FrameKind::Burst => Outcome::OverBudget,
        }
    }
}

/// One encoded frame and its place in the plan.
#[derive(Debug, Clone)]
pub struct Frame {
    /// The wire bytes, exactly as shipped.
    pub bytes: Vec<u8>,
    /// Job index.
    pub job: usize,
    /// Originating rank.
    pub rank: usize,
    /// Fragments inside a clean frame (0 for every other kind: they add
    /// no unique fragments and no pacing delay).
    pub frags: u32,
    /// What the frame is.
    pub kind: FrameKind,
}

/// One job of the stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    /// Owning tenant.
    pub tenant: u32,
    /// Job id within the plane (= its index).
    pub id: u32,
    /// Simulated node (co-located jobs share one).
    pub node: u32,
    /// Rank count.
    pub ranks: usize,
}

/// A generated workload: frames in shipping order plus the plan.
#[derive(Debug, Clone)]
pub struct Stream {
    /// The shape it was generated from.
    pub params: Params,
    /// The seed it was generated from.
    pub seed: u64,
    /// Report period = shipping period, virtual ns.
    pub period_ns: u64,
    /// Jobs, by index.
    pub jobs: Vec<Job>,
    /// Tenant byte budgets `(tenant, budget)`; empty for solo workloads.
    pub tenants: Vec<(u32, u64)>,
    /// Frames in shipping order.
    pub frames: Vec<Frame>,
    /// Planted rectangles.
    pub rects: Vec<Rect>,
    /// Fragments in clean frames: the numerator of `frags_per_s`.
    pub unique_frags: u64,
    /// Bytes of clean frames: the numerator of `wire_bytes_per_frag`.
    pub clean_bytes: u64,
    /// Per job, per window index: the frame whose delivery raises the
    /// generator-side low watermark to the window's end (`None` for the
    /// tail windows only `finish` can close). Lists the expected cover.
    pub due_frame: Vec<Vec<Option<u32>>>,
    /// The rank that goes silent (faulty workloads).
    pub silent_rank: Option<usize>,
}

impl Stream {
    /// Window `k` of the half-overlapped cover: `[k·P/2, k·P/2 + P)`.
    pub fn window(&self, k: usize) -> (u64, u64) {
        let start = k as u64 * (self.period_ns / 2);
        (start, start + self.period_ns)
    }

    /// Windows the plan expects, over all jobs.
    pub fn expected_windows(&self) -> usize {
        self.due_frame.iter().map(Vec::len).sum()
    }

    /// FNV-1a over every frame's bytes and plan entry — the determinism
    /// fingerprint: same seed ⇒ same value, different seed ⇒ different.
    pub fn fingerprint(&self) -> u64 {
        let mut h = crate::trace::Fnv::new();
        for f in &self.frames {
            h.u64(f.bytes.len() as u64);
            h.bytes(&f.bytes);
            h.u64(f.job as u64);
            h.u64(f.rank as u64);
            h.u64(f.frags as u64);
            h.u64(f.kind as u64);
        }
        for r in &self.rects {
            for v in [
                r.job as u64,
                r.ranks.0 as u64,
                r.ranks.1 as u64,
                r.t0,
                r.t1,
                r.memory as u64,
            ] {
                h.u64(v);
            }
        }
        h.u64(self.silent_rank.map_or(u64::MAX, |r| r as u64));
        h.finish()
    }
}

/// One call site: what its computation snippet executes and what its
/// invocation looks like.
struct Site {
    label: String,
    /// Workload variants, alternating by iteration parity.
    specs: Vec<WorkloadSpec>,
    invocation_ns: f64,
    message_bytes: f64,
}

fn sites(n: usize, rng: &mut ChaCha8Rng) -> Vec<Site> {
    (0..n)
        .map(|k| {
            // compute / memory / mixed × four scales, each nudged by the
            // seed so no two sites share an instruction count.
            let scale = [1.0, 2.0, 4.0, 8.0][(k / 3) % 4] * rng.gen_range(0.9..1.1);
            let spec = match k % 3 {
                0 => WorkloadSpec::compute_bound(60_000.0 * scale),
                1 => WorkloadSpec::memory_bound(24_000.0 * scale),
                _ => WorkloadSpec::mixed(40_000.0 * scale),
            };
            // Every fourth site alternates between two problem sizes, so
            // its pool holds two fixed-workload clusters.
            let specs = if k % 4 == 0 {
                vec![spec, spec.scaled(1.6)]
            } else {
                vec![spec]
            };
            Site {
                label: format!("app.f:{}:MPI_Op{}", 100 + 7 * k, k),
                specs,
                invocation_ns: rng.gen_range(1_500.0..4_000.0),
                message_bytes: (1u64 << rng.gen_range(6..16)) as f64,
            }
        })
        .collect()
}

/// One fragment before batching: site, time span, payload.
struct Visit {
    site: usize,
    invocation: layers::Fragment,
    computation: layers::Fragment,
}

/// Simulate one rank of one job over `[0, t_end)`.
#[allow(clippy::too_many_arguments)]
fn simulate_rank(
    cpu: &CpuModel,
    sites: &[Site],
    counters: CounterSet,
    rects: &[Rect],
    job: usize,
    rank: usize,
    t_end: u64,
    rng: &mut ChaCha8Rng,
) -> Vec<Visit> {
    let mut out = Vec::new();
    let mut t = rng.gen_range(0..2_000u64);
    let mut iteration = 0usize;
    'run: loop {
        for (k, site) in sites.iter().enumerate() {
            if t >= t_end {
                break 'run;
            }
            let inv_ns = (site.invocation_ns * rng.gen_range(0.99..1.01))
                .round()
                .max(1.0) as u64;
            let invocation = layers::fragment(
                rank,
                false,
                t,
                t + inv_ns,
                Default::default(),
                vec![site.message_bytes, 1.0],
            );
            t += inv_ns;
            let env = rects
                .iter()
                .find(|r| r.overlaps(job, (rank, rank), t, t + 1))
                .map_or(NoiseEnv::quiet(), Rect::env);
            let spec = &site.specs[iteration % site.specs.len()];
            let exec = cpu.execute(spec, &env, rng);
            let comp_ns = (exec.wall_ns * rng.gen_range(0.99..1.01)).round().max(1.0) as u64;
            let computation = layers::fragment(
                rank,
                true,
                t,
                t + comp_ns,
                exec.counters.project(counters),
                vec![],
            );
            t += comp_ns;
            out.push(Visit {
                site: k,
                invocation,
                computation,
            });
        }
        iteration += 1;
    }
    out
}

/// Group one rank's visits of one period into the batch it ships.
fn batch_of(
    visits: Vec<Visit>,
    sites: &[Site],
    rank: usize,
    period: usize,
    period_ns: u64,
    job: &Job,
) -> Batch {
    let mut labels: Vec<String> = Vec::new();
    let label_of = |site: usize, labels: &mut Vec<String>| -> u32 {
        let label = &sites[site].label;
        match labels.iter().position(|l| l == label) {
            Some(i) => i as u32,
            None => {
                labels.push(label.clone());
                (labels.len() - 1) as u32
            }
        }
    };
    let mut vertices: Vec<(u32, Vec<layers::Fragment>)> = Vec::new();
    let mut edges: Vec<((u32, u32), Vec<layers::Fragment>)> = Vec::new();
    for v in visits {
        let from = label_of(v.site, &mut labels);
        let to = label_of((v.site + 1) % sites.len(), &mut labels);
        match vertices.iter_mut().find(|(l, _)| *l == from) {
            Some((_, frags)) => frags.push(v.invocation),
            None => vertices.push((from, vec![v.invocation])),
        }
        match edges.iter_mut().find(|(k, _)| *k == (from, to)) {
            Some((_, frags)) => frags.push(v.computation),
            None => edges.push(((from, to), vec![v.computation])),
        }
    }
    layers::batch(
        rank,
        period as u64 + 1,
        (job.tenant, job.id),
        (period as u64 * period_ns, (period as u64 + 1) * period_ns),
        labels,
        vertices,
        edges,
    )
}

/// A clean frame before shipping order is fixed.
struct Shipped {
    frame: Frame,
    /// The oversized frame sent right after this one, if any.
    burst: Option<Frame>,
    period: usize,
    /// Largest fragment end inside, virtual ns.
    max_end: u64,
}

/// Generate a workload from its seed.
pub fn generate(params: &Params, seed: u64) -> Stream {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ fnv_str(params.name));
    let cpu = CpuModel::new(CpuConfig::default());
    let counters = if params.full_counters {
        events::full_set()
    } else {
        events::detection_set()
    };
    let site_table = sites(params.sites, &mut rng);

    // Period length from one quiet, jitter-free walk over the sites.
    let nominal_visit_ns: f64 = {
        let exact = CpuModel::with_jitter(CpuConfig::default(), vapro_pmu::JitterModel::exact());
        let mut dry = ChaCha8Rng::seed_from_u64(0);
        let total: f64 = site_table
            .iter()
            .map(|s| {
                let mean_wall: f64 = s
                    .specs
                    .iter()
                    .map(|spec| exact.execute(spec, &NoiseEnv::quiet(), &mut dry).wall_ns)
                    .sum::<f64>()
                    / s.specs.len() as f64;
                s.invocation_ns + mean_wall
            })
            .sum();
        total / site_table.len() as f64
    };
    // Even, so the half-period window step is exact.
    let period_ns = ((nominal_visit_ns * params.visits_per_period) as u64).max(2) & !1;
    let t_end = period_ns * params.periods as u64;

    let jobs: Vec<Job> = (0..params.jobs)
        .map(|j| Job {
            tenant: if params.tenants == 0 {
                0
            } else {
                1 + (j % params.tenants) as u32
            },
            id: j as u32,
            // Jobs 0 and 1 share node 0 (the co-located noisy pair).
            node: if j < 2 { 0 } else { j as u32 },
            ranks: params.ranks,
        })
        .collect();

    let epoch = t_end / 50;
    let rects: Vec<Rect> = match params.planting {
        Planting::None => Vec::new(),
        // Three disjoint 4-rank bands, one per third of the rank space,
        // in four epochs out of five; kinds alternate band by band.
        Planting::Bands => (0..50)
            .filter(|e| e % 5 != 0)
            .flat_map(|e| {
                let third = params.ranks / 3;
                let lows: Vec<usize> = (0..3)
                    .map(|i| i * third + rng.gen_range(0..=third - 4))
                    .collect();
                lows.into_iter().enumerate().map(move |(i, lo)| Rect {
                    job: 0,
                    ranks: (lo, lo + 3),
                    t0: e * epoch,
                    t1: (e + 1) * epoch,
                    memory: (e + i as u64).is_multiple_of(2),
                })
            })
            .collect(),
        Planting::Light => (0..50)
            .filter(|e| e % 5 == 2)
            .flat_map(|e| {
                let rank = rng.gen_range(0..params.ranks);
                (0..2).map(move |job| Rect {
                    job,
                    ranks: (rank, rank),
                    t0: e * epoch,
                    t1: (e + 1) * epoch,
                    memory: true,
                })
            })
            .collect(),
    };

    let silent_rank = params.faulty.then(|| rng.gen_range(0..params.ranks));
    let silent_periods = (params.periods * 2 / 5)..(params.periods * 7 / 10);

    // Clean first deliveries, period-major: the in-order shipping order.
    let mut shipped: Vec<Shipped> = Vec::new();
    for (j, job) in jobs.iter().enumerate() {
        for rank in 0..job.ranks {
            let mut rank_rng = ChaCha8Rng::seed_from_u64(rng.gen());
            let visits = simulate_rank(
                &cpu,
                &site_table,
                counters,
                &rects,
                j,
                rank,
                t_end,
                &mut rank_rng,
            );
            let mut by_period: Vec<Vec<Visit>> = (0..params.periods).map(|_| Vec::new()).collect();
            for v in visits {
                by_period[(v.invocation.start.ns() / period_ns) as usize].push(v);
            }
            for (period, visits) in by_period.into_iter().enumerate() {
                if silent_rank == Some(rank) && silent_periods.contains(&period) {
                    continue;
                }
                let frags = 2 * visits.len() as u32;
                let max_end = visits.last().map_or(0, |v| v.computation.end.ns());
                let batch = batch_of(visits, &site_table, rank, period, period_ns, job);
                let mut bytes = Vec::new();
                layers::encode(&batch, &mut bytes);
                // The last tenant's first job bursts every 50 periods.
                let bursts =
                    params.tenants > 0 && j == params.tenants - 1 && rank == 0 && period % 50 == 0;
                let frame = Frame {
                    bytes,
                    job: j,
                    rank,
                    frags,
                    kind: FrameKind::Clean,
                };
                shipped.push(Shipped {
                    burst: bursts.then(|| burst_frame(&batch, &frame)),
                    frame,
                    period,
                    max_end,
                });
            }
        }
    }

    // Shipping order: by delivery key in period units. In-order streams
    // ship period-major with ranks and jobs interleaved; faulty streams
    // delay each frame by up to two periods.
    let mut keyed: Vec<(f64, Frame, usize, u64)> =
        Vec::with_capacity(shipped.len() + shipped.len() / 16);
    for s in shipped {
        let Shipped {
            frame,
            burst,
            period,
            max_end,
        } = s;
        let base = period as f64 + 0.5 * (frame.rank as f64 + 1.0) / (params.ranks as f64 + 1.0);
        let key = if params.faulty {
            base + rng.gen_range(0.0..1.5)
        } else {
            base
        };
        if params.faulty && rng.gen_bool(0.03) {
            let resend = Frame {
                kind: FrameKind::Duplicate,
                frags: 0,
                ..frame.clone()
            };
            keyed.push((key + rng.gen_range(0.5..3.0), resend, period, 0));
        }
        if params.faulty && rng.gen_bool(0.01) {
            let mut bytes = frame.bytes.clone();
            let at = rng.gen_range(4..bytes.len());
            bytes[at] ^= 1 << rng.gen_range(0..8u32);
            // Just ahead of the clean retransmit it is followed by.
            let flipped = Frame {
                bytes,
                kind: FrameKind::Corrupt,
                frags: 0,
                ..frame.clone()
            };
            keyed.push((key - 1e-9, flipped, period, 0));
        }
        if let Some(burst) = burst {
            keyed.push((key + 1e-9, burst, period, 0));
        }
        keyed.push((key, frame, period, max_end));
    }
    keyed.sort_by(|a, b| a.0.total_cmp(&b.0));

    // Generator-side low watermark: per rank the contiguous prefix of
    // delivered periods, minimum over the ranks the plan keeps sending.
    let step = period_ns / 2;
    let mut due_frame: Vec<Vec<Option<u32>>> = vec![Vec::new(); jobs.len()];
    let mut delivered: Vec<Vec<Vec<bool>>> = jobs
        .iter()
        .map(|j| vec![vec![false; params.periods]; j.ranks])
        .collect();
    let mut contiguous: Vec<Vec<usize>> = jobs.iter().map(|j| vec![0; j.ranks]).collect();
    let mut data_end = vec![0u64; jobs.len()];
    let mut frames = Vec::with_capacity(keyed.len());
    for (i, (_, frame, period, max_end)) in keyed.into_iter().enumerate() {
        if frame.kind == FrameKind::Clean {
            let (j, r) = (frame.job, frame.rank);
            // A rank that fell silent is dead by the time it resumes: its
            // late frames are dropped and never move the data end.
            if silent_rank != Some(r) {
                data_end[j] = data_end[j].max(max_end);
            }
            delivered[j][r][period] = true;
            while contiguous[j][r] < params.periods && delivered[j][r][contiguous[j][r]] {
                contiguous[j][r] += 1;
            }
            let low = (0..jobs[j].ranks)
                .filter(|&rank| silent_rank != Some(rank))
                .map(|rank| contiguous[j][rank] as u64 * period_ns)
                .min()
                .unwrap_or(0);
            while due_frame[j].len() as u64 * step + period_ns <= low {
                due_frame[j].push(Some(i as u32));
            }
        }
        frames.push(frame);
    }
    // The cover ends with the first window reaching the data end; the
    // windows past the final watermark are due at `finish`.
    for (j, due) in due_frame.iter_mut().enumerate() {
        while due.is_empty() || (due.len() as u64 - 1) * step + period_ns < data_end[j] {
            due.push(None);
        }
    }

    let unique_frags = frames.iter().map(|f| f.frags as u64).sum();
    let clean_bytes = frames
        .iter()
        .filter(|f| f.kind == FrameKind::Clean)
        .map(|f| f.bytes.len() as u64)
        .sum();
    let tenants = (1..=params.tenants as u32)
        .map(|t| (t, TENANT_BUDGET_BYTES))
        .collect();
    Stream {
        params: params.clone(),
        seed,
        period_ns,
        jobs,
        tenants,
        frames,
        rects,
        unique_frags,
        clean_bytes,
        due_frame,
        silent_rank,
    }
}

/// Every tenant's admission budget. A few times what its jobs can have
/// queued between two drains, so only the burst frames exceed it.
pub const TENANT_BUDGET_BYTES: u64 = 192 << 10;

/// An oversized frame: the clean batch's fragments repeated until the
/// frame alone outweighs the tenant's whole budget.
fn burst_frame(batch: &Batch, clean: &Frame) -> Frame {
    let mut copies = TENANT_BUDGET_BYTES as usize / clean.bytes.len().max(1) + 2;
    let mut bytes = Vec::new();
    // The label dictionary is not repeated, so a few more copies than
    // the byte ratio may be needed.
    while bytes.len() as u64 <= TENANT_BUDGET_BYTES {
        bytes.clear();
        layers::encode(&layers::repeat_batch(batch, copies), &mut bytes);
        copies += copies / 8 + 1;
    }
    Frame {
        bytes,
        frags: 0,
        kind: FrameKind::Burst,
        ..clean.clone()
    }
}

fn fnv_str(s: &str) -> u64 {
    let mut h = crate::trace::Fnv::new();
    h.bytes(s.as_bytes());
    h.finish()
}
