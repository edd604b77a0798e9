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
//! What a collector's STG costs to ship — the storage overhead numbers
//! of §6.2 (12.8 / 47.4 KB per second per thread/process) — is
//! [`shipped_bytes`](crate::wire::shipped_bytes) over it.

use crate::config::VaproConfig;
use crate::fragment::{Fragment, FragmentKind};
use crate::sampling::BackoffSampler;
use crate::stg::{StateId, StateKey, Stg};
use std::any::Any;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use vapro_pmu::CounterSnapshot;
use vapro_sim::{EnterEvent, ExitEvent, Interceptor, InvocationKind, VirtualTime};

/// Per-rank Vapro data collection.
pub struct Collector {
    cfg: VaproConfig,
    rank: usize,
    stg: Stg,
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

    /// The STG built so far.
    pub fn stg(&self) -> &Stg {
        &self.stg
    }

    /// Consume the collector, returning the STG.
    pub fn into_stg(self) -> Stg {
        self.stg
    }

    /// Fragments skipped by the sampling policy.
    pub fn sampled_out(&self) -> u64 {
        self.sampled_out
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
        let from = match self.prev.take() {
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
                    let edge = self.stg_transition(p.state, state);
                    let frag = Fragment {
                        rank: self.rank,
                        kind: FragmentKind::Computation,
                        start: p.time,
                        end: ev.time,
                        counters: delta,
                        args: Vec::new(),
                    };
                    self.stg.attach_edge_fragment(edge, frag);
                } else {
                    self.sampled_out += 1;
                    // The transition itself is still part of the STG.
                    let _ = self.stg_transition(p.state, state);
                }
                p.state
            }
            None => {
                let start = self.stg.state(StateKey::Start);
                let _ = self.stg_transition(start, state);
                start
            }
        };
        let _ = from;

        self.inflight = Some(Inflight {
            state,
            kind: Self::classify(&ev.kind),
            args: ev.kind.arg_vector(),
            time: ev.time,
        });
    }

    fn on_exit(&mut self, ev: &ExitEvent) {
        let inflight = self.inflight.take().expect("exit without matching enter");
        let counters = ev.counters.project(self.cfg.detection_counters);
        // The invocation fragment: elapsed time + args. Its counter field
        // holds the *exit snapshot delta placeholder*: for vertex fragments
        // Vapro analyses elapsed time and arguments, not PMU values
        // (paper §3.3), so we store an empty-projection of the deltas and
        // keep args authoritative.
        let _ = counters;
        let frag = Fragment {
            rank: self.rank,
            kind: inflight.kind,
            start: inflight.time,
            end: ev.time,
            counters: Default::default(),
            args: inflight.args,
        };
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

impl Collector {
    fn stg_transition(&mut self, from: StateId, to: StateId) -> crate::stg::EdgeId {
        self.stg.transition(from, to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{shipped_bytes, FragmentBatch};
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
        assert_eq!(stg.vertices()[id].fragments.len(), 50);
        // Self-loop edge with 49 computation fragments.
        let selfloop = stg.edges().iter().find(|e| e.from == id && e.to == id).unwrap();
        assert_eq!(selfloop.fragments.len(), 49);
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

    #[test]
    fn storage_accounting_grows_with_fragments() {
        let mut c = Collector::new(0, VaproConfig::default());
        let a = CallSite("x");
        c.on_enter(&enter(a, 10, 0.0));
        c.on_exit(&exit(20, 0.0));
        let shipped = |c: &Collector| shipped_bytes(c.stg(), 0, c.config().report_period);
        let one = shipped(&c);
        c.on_enter(&enter(a, 40, 0.0));
        c.on_exit(&exit(50, 0.0));
        assert!(shipped(&c) > one);
    }

    #[test]
    fn byte_accounting_matches_encoded_batch_size() {
        use crate::detect::window::Window;
        // A collector's shipped bytes are what its data costs on the
        // binary wire: the frames of every report period, each encoded
        // from its own start-partitioned batch, byte for byte.
        let cfg =
            VaproConfig { report_period: VirtualTime::from_ns(4_000), ..VaproConfig::default() };
        let mut c = Collector::new(0, cfg);
        let sites = [CallSite("a"), CallSite("b")];
        let mut t = 0u64;
        for i in 0..500usize {
            c.on_enter(&enter(sites[i % 2], t + 10, (i * 100) as f64));
            c.on_exit(&exit(t + 25, (i * 100) as f64));
            t += 40;
        }
        let encoded: usize = (0..5u64)
            .map(|k| {
                let window = Window {
                    start: VirtualTime::from_ns(k * 4_000),
                    end: VirtualTime::from_ns((k + 1) * 4_000),
                };
                FragmentBatch::from_stg_starting_in(c.stg(), 0, window).encode().len()
            })
            .sum();
        assert_eq!(shipped_bytes(c.stg(), 0, VirtualTime::from_ns(4_000)), encoded as u64);
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
        assert!(selfloop.fragments.len() < 1999);
        // Vertex fragments are never sampled out (they are the cheap part).
        assert_eq!(stg.vertices()[id].fragments.len(), 2000);
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
        let vertex_total: usize =
            stg.vertices().iter().map(|v| v.fragments.len()).sum();
        let edge_total: usize = stg.edges().iter().map(|e| e.fragments.len()).sum();
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
        let stg = c.stg();
        let mut all: Vec<(u64, u64)> =
            stg.fragments().map(|f| (f.start.ns(), f.end.ns())).collect();
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
