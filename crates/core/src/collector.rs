//! The Vapro collector: the interceptor that slices execution into
//! fragments and builds the STG online.
//!
//! One collector instance lives in each rank (the "Vapro library" of
//! Fig. 2). At each intercepted invocation it:
//!
//! * closes the **computation fragment** running since the previous
//!   invocation's exit and attaches it to the STG edge
//!   `previous state → current state` with the counter delta over the
//!   interval;
//! * brackets the invocation itself, attaching a **communication/IO
//!   fragment** (elapsed time + argument vector) to the current state's
//!   vertex.
//!
//! Counters are projected to the configured active set at collection
//! time — a fragment only ever carries what the PMU was programmed for,
//! which is what makes progressive diagnosis necessary (paper §4.3).
//!
//! The client ships as it runs. The STG holds only the fragments of the
//! open report period; fragments close in start order, so the first one
//! to close with a later start completes it. The collector then seals
//! the open period, and any empty ones after it, into one frame each
//! ([`FragmentBatch::from_stg_starting_in`]), numbered from 1 per rank,
//! in its outbox, which stands in for the network, and clears the STG's
//! fragments.
//! [`Collector::finish`] seals the last period; a run that closed no
//! fragment ships nothing. Client memory is bounded by one period's
//! fragments, and what a rank costs to ship (§6.2's 12.8 / 47.4 KB per
//! second per thread/process) is the encoded length of its outbox.

use crate::config::VaproConfig;
use crate::detect::window::Window;
use crate::fragment::{Fragment, FragmentKind};
use crate::sampling::BackoffSampler;
use crate::stg::{StateId, StateKey, Stg};
use crate::wire::FragmentBatch;
use std::any::Any;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use vapro_pmu::CounterSnapshot;
use vapro_sim::{EnterEvent, ExitEvent, Interceptor, InvocationKind, VirtualTime};

/// Per-rank Vapro data collection.
pub struct Collector {
    cfg: VaproConfig,
    rank: usize,
    /// Topology and counts of the run; fragments of the open period.
    stg: Stg,
    /// Index of the open report period.
    open: u64,
    /// One frame per sealed report period, in period order.
    outbox: Vec<FragmentBatch>,
    /// State we are "coming from": the previous invocation's state and its
    /// exit snapshot.
    prev: Option<PrevExit>,
    /// The invocation currently in flight (between enter and exit).
    inflight: Option<Inflight>,
    sampler: BackoffSampler,
    sampling: bool,
    /// Fragments dropped by the sampler.
    sampled_out: u64,
}

struct PrevExit {
    state: StateId,
    time: VirtualTime,
    counters: CounterSnapshot,
}

struct Inflight {
    state: StateId,
    kind: FragmentKind,
    args: Vec<f64>,
    time: VirtualTime,
}

impl Collector {
    /// A collector for `rank` under `cfg`.
    pub fn new(rank: usize, cfg: VaproConfig) -> Self {
        debug_assert!(cfg.is_valid(), "invalid Vapro config");
        let sampling = cfg.sampling_enabled;
        let sampler = BackoffSampler::new(cfg.sampling_min_ns);
        Collector {
            cfg,
            rank,
            stg: Stg::new(),
            open: 0,
            outbox: Vec::new(),
            prev: None,
            inflight: None,
            sampler,
            sampling,
            sampled_out: 0,
        }
    }

    /// The rank this collector observes.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The configuration.
    pub fn config(&self) -> &VaproConfig {
        &self.cfg
    }

    /// The STG built so far, holding the open period's fragments.
    pub fn stg(&self) -> &Stg {
        &self.stg
    }

    /// End the run: seal the open period, unless no fragment ever
    /// closed, and return the STG (topology and counts) and every frame
    /// shipped.
    pub fn finish(mut self) -> (Stg, Vec<FragmentBatch>) {
        if self.stg.total_fragments() > 0 {
            self.seal();
        }
        (self.stg, self.outbox)
    }

    /// Fragments skipped by the sampling policy.
    pub fn sampled_out(&self) -> u64 {
        self.sampled_out
    }

    /// Make the period `start` lies in the open one, sealing every
    /// period before it.
    fn open_period_of(&mut self, start: VirtualTime) {
        let period = start.ns() / self.cfg.report_period.ns().max(1);
        while self.open < period {
            self.seal();
        }
    }

    /// Ship the open period's frame, numbered `open + 1` (frames count
    /// from 1 per rank), and open the next period.
    fn seal(&mut self) {
        let p = self.cfg.report_period.ns().max(1);
        let window = Window {
            start: VirtualTime::from_ns(self.open * p),
            end: VirtualTime::from_ns((self.open + 1) * p),
        };
        let frame = FragmentBatch::from_stg_starting_in(&self.stg, self.rank, window);
        self.outbox.push(frame.with_seq(self.open + 1));
        self.stg.clear_fragments();
        self.open += 1;
    }

    fn classify(kind: &InvocationKind) -> FragmentKind {
        match kind {
            InvocationKind::Comm { .. } => FragmentKind::Communication,
            InvocationKind::Io { .. } => FragmentKind::Io,
            InvocationKind::Thread { .. } | InvocationKind::UserMarker { .. } => {
                FragmentKind::Other
            }
        }
    }

    fn state_hash(state: StateId) -> u64 {
        let mut h = DefaultHasher::new();
        state.hash(&mut h);
        h.finish()
    }
}

impl Interceptor for Collector {
    fn on_enter(&mut self, ev: &EnterEvent) {
        let key = StateKey::for_invocation(self.cfg.stg_mode, ev.site, &ev.path);
        let state = self.stg.state(key);

        // Close the computation fragment since the previous exit.
        match self.prev.take() {
            Some(p) => {
                let duration_ns = ev.time.saturating_since(p.time).ns() as f64;
                let record = !self.sampling
                    || self
                        .sampler
                        .should_record(Self::state_hash(state), duration_ns);
                if record {
                    let delta = ev
                        .counters
                        .delta_since(&p.counters)
                        .project(self.cfg.detection_counters);
                    let edge = self.stg.transition(p.state, state);
                    let frag = Fragment {
                        rank: self.rank,
                        kind: FragmentKind::Computation,
                        start: p.time,
                        end: ev.time,
                        counters: delta,
                        args: Vec::new(),
                    };
                    self.open_period_of(frag.start);
                    self.stg.attach_edge_fragment(edge, frag);
                } else {
                    self.sampled_out += 1;
                    // The transition itself is still part of the STG.
                    self.stg.transition(p.state, state);
                }
            }
            None => {
                let start = self.stg.state(StateKey::Start);
                self.stg.transition(start, state);
            }
        }

        self.inflight = Some(Inflight {
            state,
            kind: Self::classify(&ev.kind),
            args: ev.kind.arg_vector(),
            time: ev.time,
        });
    }

    fn on_exit(&mut self, ev: &ExitEvent) {
        let inflight = self.inflight.take().expect("exit without matching enter");
        // The invocation fragment: elapsed time + args. For vertex
        // fragments Vapro analyses elapsed time and arguments, not PMU
        // values (paper §3.3), so its counter field stays empty.
        let frag = Fragment {
            rank: self.rank,
            kind: inflight.kind,
            start: inflight.time,
            end: ev.time,
            counters: Default::default(),
            args: inflight.args,
        };
        self.open_period_of(frag.start);
        self.stg.attach_vertex_fragment(inflight.state, frag);
        self.prev = Some(PrevExit {
            state: inflight.state,
            time: ev.time,
            counters: ev.counters.clone(),
        });
    }

    fn hook_cost_ns(&self) -> f64 {
        self.cfg.effective_hook_cost_ns()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vapro_pmu::{CounterId, CounterSnapshot};
    use vapro_sim::{CallPath, CallSite};

    fn snapshot(tsc: f64, ins: f64) -> CounterSnapshot {
        let mut c = CounterSnapshot::default();
        c.put(CounterId::Tsc, tsc);
        c.put(CounterId::TotIns, ins);
        c
    }

    fn enter(site: CallSite, t: u64, ins: f64) -> EnterEvent {
        EnterEvent {
            rank: 0,
            kind: InvocationKind::Comm { op: "MPI_Send", bytes: 64, peer: 1 },
            site,
            path: CallPath::new(&[], site),
            time: VirtualTime::from_ns(t),
            counters: snapshot(t as f64, ins),
        }
    }

    fn exit(t: u64, ins: f64) -> ExitEvent {
        ExitEvent { rank: 0, time: VirtualTime::from_ns(t), counters: snapshot(t as f64, ins) }
    }

    #[test]
    fn builds_edge_and_vertex_fragments() {
        let mut c = Collector::new(0, VaproConfig::default());
        let a = CallSite("a");
        let b = CallSite("b");
        // First invocation at a.
        c.on_enter(&enter(a, 100, 1000.0));
        c.on_exit(&exit(150, 1000.0));
        // Computation 150→300, then invocation at b.
        c.on_enter(&enter(b, 300, 3000.0));
        c.on_exit(&exit(350, 3000.0));

        let stg = c.stg();
        assert_eq!(stg.num_states(), 3); // start, a, b
        let a_id = stg.find_state(&StateKey::Site(a)).unwrap();
        let b_id = stg.find_state(&StateKey::Site(b)).unwrap();
        assert_eq!(stg.vertices()[a_id].fragments.len(), 1);
        assert_eq!(stg.vertices()[b_id].fragments.len(), 1);
        // The a→b edge carries the computation fragment.
        let edge = stg.edges().iter().find(|e| e.from == a_id && e.to == b_id).unwrap();
        assert_eq!(edge.fragments.len(), 1);
        let frag = &edge.fragments[0];
        assert_eq!(frag.duration().ns(), 150);
        assert_eq!(frag.counters.get(CounterId::TotIns), Some(2000.0));
    }

    #[test]
    fn vertex_fragment_keeps_args_and_duration() {
        let mut c = Collector::new(0, VaproConfig::default());
        c.on_enter(&enter(CallSite("a"), 100, 0.0));
        c.on_exit(&exit(180, 0.0));
        let stg = c.stg();
        let v = &stg.vertices()[stg.find_state(&StateKey::Site(CallSite("a"))).unwrap()];
        assert_eq!(v.fragments[0].args, vec![64.0, 1.0]);
        assert_eq!(v.fragments[0].duration().ns(), 80);
        assert_eq!(v.fragments[0].kind, FragmentKind::Communication);
    }

    #[test]
    fn repeated_site_accumulates_on_one_state() {
        let mut c = Collector::new(0, VaproConfig::default());
        let a = CallSite("loop");
        let mut t = 0;
        for i in 0..50 {
            c.on_enter(&enter(a, t + 100, (i * 1000) as f64));
            c.on_exit(&exit(t + 150, (i * 1000) as f64));
            t += 200;
        }
        let stg = c.stg();
        assert_eq!(stg.num_states(), 2); // start + loop
        let id = stg.find_state(&StateKey::Site(a)).unwrap();
        assert_eq!(stg.vertices()[id].count, 50);
        // Self-loop edge with 49 computation fragments.
        let selfloop = stg.edges().iter().find(|e| e.from == id && e.to == id).unwrap();
        assert_eq!(selfloop.count, 49);
    }

    #[test]
    fn context_aware_distinguishes_paths() {
        let mut c = Collector::new(0, VaproConfig::context_aware());
        let site = CallSite("shared");
        let mk = |frames: &[&'static str], t: u64| EnterEvent {
            rank: 0,
            kind: InvocationKind::Comm { op: "MPI_Send", bytes: 8, peer: 0 },
            site,
            path: CallPath::new(frames, site),
            time: VirtualTime::from_ns(t),
            counters: snapshot(t as f64, 0.0),
        };
        c.on_enter(&mk(&["warmup"], 100));
        c.on_exit(&exit(110, 0.0));
        c.on_enter(&mk(&["timed"], 200));
        c.on_exit(&exit(210, 0.0));
        // start + two distinct path states.
        assert_eq!(c.stg().num_states(), 3);
    }

    /// `n` invocations of one site, 40 ns apart.
    fn run_loop(cfg: VaproConfig, n: usize) -> Collector {
        let mut c = Collector::new(0, cfg);
        for i in 0..n as u64 {
            c.on_enter(&enter(CallSite("x"), i * 40 + 10, (i * 100) as f64));
            c.on_exit(&exit(i * 40 + 20, (i * 100) as f64));
        }
        c
    }

    /// What a client ships: the encoded length of its frames.
    fn frame_bytes(shipped: &[FragmentBatch]) -> usize {
        shipped.iter().map(|b| b.encode().len()).sum()
    }

    #[test]
    fn storage_accounting_grows_with_fragments() {
        let shipped = |n| frame_bytes(&run_loop(VaproConfig::default(), n).finish().1);
        assert!(shipped(2) > shipped(1));
        assert!(shipped(1) > 0);
    }

    #[test]
    fn byte_accounting_matches_encoded_batch_size() {
        // The frames a client ships mid-run are byte for byte the
        // start-partitioned cuts of the whole run's STG: one frame per
        // 4 µs period of a 20 µs run.
        let cfg = |ns| VaproConfig { report_period: VirtualTime::from_ns(ns), ..VaproConfig::default() };
        let whole = run_loop(cfg(1_000_000), 500);
        let (_, shipped) = run_loop(cfg(4_000), 500).finish();
        assert_eq!(shipped.len(), 5);
        for (k, frame) in (0u64..).zip(&shipped) {
            let window = Window {
                start: VirtualTime::from_ns(k * 4_000),
                end: VirtualTime::from_ns((k + 1) * 4_000),
            };
            let cut = FragmentBatch::from_stg_starting_in(whole.stg(), 0, window).with_seq(k + 1);
            assert_eq!(frame.encode(), cut.encode(), "period {k}");
        }
        assert_eq!(whole.stg().fragments().count(), shipped.iter().map(FragmentBatch::len).sum::<usize>());
    }

    /// A batch's groups — location labels and the fragments starting in
    /// `window` — in batch order, groups left empty dropped.
    fn groups_in(batch: &FragmentBatch, window: Window) -> Vec<(Vec<&str>, Vec<&Fragment>)> {
        let starts_in = |f: &&Fragment| f.start >= window.start && f.start < window.end;
        let vertices = batch.vertex_groups.iter().map(|g| (vec![batch.label(g.label)], &g.fragments));
        let edges =
            batch.edge_groups.iter().map(|g| (vec![batch.label(g.from), batch.label(g.to)], &g.fragments));
        let groups = vertices.chain(edges).map(|(at, frags)| (at, frags.iter().filter(starts_in).collect()));
        groups.filter(|(_, frags): &(_, Vec<_>)| !frags.is_empty()).collect()
    }

    /// Three sites in a loop of 40 ns iterations, with a 5 µs stall in
    /// the middle: `n` invocations into a collector over `cfg`.
    fn stalled_loop(cfg: VaproConfig, n: u64) -> Collector {
        let sites = [CallSite("a"), CallSite("b"), CallSite("c")];
        let mut c = Collector::new(0, cfg);
        for i in 0..n {
            let t = i * 40 + if i >= n / 2 { 5_000 } else { 0 };
            c.on_enter(&enter(sites[(i * 7 % 3) as usize], t + 10, (i * 100) as f64));
            c.on_exit(&exit(t + 25 + i % 4, (i * 100) as f64));
        }
        c
    }

    #[test]
    fn streamed_periods_equal_the_whole_run_cut_by_start() {
        let period = 1_000u64;
        for sampling in [false, true] {
            let cfg = VaproConfig {
                sampling_enabled: sampling,
                sampling_min_ns: 30.0,
                ..VaproConfig::default()
            };
            let streamed_cfg = VaproConfig { report_period: VirtualTime::from_ns(period), ..cfg.clone() };
            let (_, long) = stalled_loop(cfg, 200).finish();
            let streamed = stalled_loop(streamed_cfg, 200);
            assert_eq!(streamed.sampled_out() > 0, sampling);
            let (_, streamed) = streamed.finish();
            assert_eq!(long.len(), 1);
            let long = &long[0];
            let last_start = long.fragments().map(|f| f.start.ns()).max().unwrap();
            assert_eq!(streamed.len() as u64, last_start / period + 1);
            assert!(streamed.iter().any(FragmentBatch::is_empty), "the stall ships empty periods");
            for (k, batch) in (0u64..).zip(&streamed) {
                let window = Window {
                    start: VirtualTime::from_ns(k * period),
                    end: VirtualTime::from_ns((k + 1) * period),
                };
                assert_eq!((batch.window_start_ns, batch.window_end_ns), (window.start.ns(), window.end.ns()));
                let own = groups_in(batch, window);
                assert_eq!(own.iter().map(|(_, f)| f.len()).sum::<usize>(), batch.len(), "period {k}");
                assert_eq!(own, groups_in(long, window), "sampling {sampling}, period {k}");
            }
        }
    }

    #[test]
    fn a_run_without_fragments_ships_nothing() {
        let short = VaproConfig { report_period: VirtualTime::from_ns(10), ..VaproConfig::default() };
        assert!(Collector::new(0, short.clone()).finish().1.is_empty());
        // An enter that never exits closes no fragment either.
        let mut c = Collector::new(0, short);
        c.on_enter(&enter(CallSite("a"), 1_000, 0.0));
        let (stg, shipped) = c.finish();
        assert!(shipped.is_empty());
        assert_eq!((stg.num_states(), stg.total_fragments()), (2, 0));
    }

    #[test]
    fn the_client_holds_at_most_one_period() {
        // 100 ns iterations, 1 µs periods: the STG never holds more than
        // the fullest period's fragments, however long the run.
        let cfg = VaproConfig { report_period: VirtualTime::from_ns(1_000), ..VaproConfig::default() };
        let peak = |periods: u64| {
            let mut c = Collector::new(0, cfg.clone());
            let mut most = 0;
            for i in 0..periods * 10 {
                c.on_enter(&enter(CallSite("loop"), i * 100 + 10, (i * 100) as f64));
                most = most.max(c.stg().fragments().count());
                c.on_exit(&exit(i * 100 + 20, (i * 100) as f64));
                most = most.max(c.stg().fragments().count());
            }
            let (_, shipped) = c.finish();
            assert_eq!(shipped.len() as u64, periods);
            (most, shipped.iter().map(FragmentBatch::len).max().unwrap())
        };
        let (short, long) = (peak(5), peak(50));
        assert_eq!(short, long);
        assert_eq!(short.0, short.1);
        assert_eq!(short.0, 20);
    }

    #[test]
    fn sampling_drops_short_computation_fragments() {
        let cfg = VaproConfig {
            sampling_enabled: true,
            sampling_min_ns: 1_000_000.0, // everything here is "short"
            ..VaproConfig::default()
        };
        let mut c = Collector::new(0, cfg);
        let a = CallSite("hot");
        let mut t = 0;
        for i in 0..2000 {
            c.on_enter(&enter(a, t + 10, (i * 10) as f64));
            c.on_exit(&exit(t + 20, (i * 10) as f64));
            t += 30;
        }
        assert!(c.sampled_out() > 0);
        let stg = c.stg();
        let id = stg.find_state(&StateKey::Site(a)).unwrap();
        let selfloop = stg.edges().iter().find(|e| e.from == id && e.to == id).unwrap();
        assert!(selfloop.count < 1999);
        // Vertex fragments are never sampled out (they are the cheap part).
        assert_eq!(stg.vertices()[id].count, 2000);
    }

    #[test]
    #[should_panic(expected = "exit without matching enter")]
    fn exit_without_enter_is_a_hook_discipline_violation() {
        let mut c = Collector::new(0, VaproConfig::default());
        c.on_exit(&exit(100, 0.0));
    }

    #[test]
    fn fragment_count_matches_event_count() {
        // Invariant: after n complete invocations, the STG holds exactly
        // n vertex fragments and n−1 edge fragments (one computation
        // interval between each consecutive pair), however the sites
        // interleave.
        let sites = [CallSite("a"), CallSite("b"), CallSite("c")];
        let mut c = Collector::new(0, VaproConfig::default());
        let mut t = 0u64;
        let n = 97;
        for i in 0..n {
            let site = sites[(i * 7) % sites.len()];
            c.on_enter(&enter(site, t + 10, (i * 500) as f64));
            c.on_exit(&exit(t + 20, (i * 500) as f64));
            t += 40;
        }
        let stg = c.stg();
        let vertex_total: usize = stg.vertices().iter().map(|v| v.count).sum();
        let edge_total: usize = stg.edges().iter().map(|e| e.count).sum();
        assert_eq!(vertex_total, n);
        assert_eq!(edge_total, n - 1);
    }

    #[test]
    fn fragments_tile_the_timeline_without_overlap() {
        // Consecutive fragments (vertex, edge, vertex, …) partition the
        // observed time: each fragment starts where the previous ended.
        let mut c = Collector::new(0, VaproConfig::default());
        let site = CallSite("tile");
        let mut t = 0u64;
        for i in 0..20 {
            c.on_enter(&enter(site, t + 7, (i * 100) as f64));
            c.on_exit(&exit(t + 13, (i * 100) as f64));
            t += 20;
        }
        let (_, shipped) = c.finish();
        let mut all: Vec<(u64, u64)> =
            shipped.iter().flat_map(FragmentBatch::fragments).map(|f| (f.start.ns(), f.end.ns())).collect();
        all.sort();
        for w in all.windows(2) {
            assert_eq!(w[0].1, w[1].0, "gap or overlap between {:?} and {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn counters_are_projected_to_detection_set() {
        let mut c = Collector::new(0, VaproConfig::default());
        let a = CallSite("p");
        let mut snap = snapshot(100.0, 10.0);
        snap.put(CounterId::StallsL2Miss, 5.0); // outside detection set
        c.on_enter(&EnterEvent {
            rank: 0,
            kind: InvocationKind::Comm { op: "MPI_Send", bytes: 1, peer: 0 },
            site: a,
            path: CallPath::new(&[], a),
            time: VirtualTime::from_ns(100),
            counters: snap.clone(),
        });
        c.on_exit(&exit(150, 10.0));
        let mut snap2 = snapshot(300.0, 500.0);
        snap2.put(CounterId::StallsL2Miss, 25.0);
        c.on_enter(&EnterEvent {
            rank: 0,
            kind: InvocationKind::Comm { op: "MPI_Send", bytes: 1, peer: 0 },
            site: a,
            path: CallPath::new(&[], a),
            time: VirtualTime::from_ns(300),
            counters: snap2,
        });
        let stg = c.stg();
        let id = stg.find_state(&StateKey::Site(a)).unwrap();
        let e = stg.edges().iter().find(|e| e.from == id && e.to == id).unwrap();
        let frag = &e.fragments[0];
        assert!(frag.counters.get(CounterId::TotIns).is_some());
        assert!(frag.counters.get(CounterId::StallsL2Miss).is_none());
    }
}
