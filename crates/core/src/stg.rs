//! The State Transition Graph (paper §3.2, Definition 1).
//!
//! Vertices are running states — external invocations identified by
//! call-site (context-free) or call-path (context-aware). Edges are
//! transitions between states, i.e. the computation snippets between
//! consecutive invocations. Vertex fragments are invocation executions;
//! edge fragments are computation-snippet executions.
//!
//! A collector's graph keeps its topology and a cumulative fragment
//! count per location for the whole run, but only the fragments of the
//! open report period: [`Stg::clear_fragments`] drops them once the
//! period is sealed into a frame.

use crate::config::StgMode;
use crate::fragment::Fragment;
use std::collections::HashMap;
use vapro_sim::{CallPath, CallSite};

/// The key of one running state.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum StateKey {
    /// Program entry (the pseudo-state before the first invocation).
    Start,
    /// Context-free: the invocation's call-site.
    Site(CallSite),
    /// Context-aware: the full call-path of the invocation.
    Path(CallPath),
}

impl StateKey {
    /// Build the key for an invocation under the given mode.
    pub fn for_invocation(mode: StgMode, site: CallSite, path: &CallPath) -> StateKey {
        match mode {
            StgMode::ContextFree => StateKey::Site(site),
            StgMode::ContextAware => StateKey::Path(path.clone()),
        }
    }

    /// A short human-readable label.
    pub fn label(&self) -> String {
        match self {
            StateKey::Start => "<start>".to_string(),
            StateKey::Site(s) => s.to_string(),
            StateKey::Path(p) => p.to_string(),
        }
    }
}

/// Dense id of a state (vertex).
pub type StateId = usize;
/// Dense id of an edge.
pub type EdgeId = usize;

/// One vertex: a running state plus the invocation fragments observed in it.
#[derive(Debug)]
pub struct Vertex {
    /// The state's key.
    pub key: StateKey,
    /// Invocation (communication / IO) fragments attached here and not
    /// yet cleared.
    pub fragments: Vec<Fragment>,
    /// Fragments ever attached here, cleared ones included.
    pub count: usize,
}

/// One edge: a state transition plus the computation fragments observed on it.
#[derive(Debug)]
pub struct Edge {
    /// Source state.
    pub from: StateId,
    /// Destination state.
    pub to: StateId,
    /// Computation fragments attached to this transition and not yet
    /// cleared.
    pub fragments: Vec<Fragment>,
    /// Fragments ever attached here, cleared ones included.
    pub count: usize,
}

/// The state transition graph of one rank.
#[derive(Debug, Default)]
pub struct Stg {
    states: HashMap<StateKey, StateId>,
    vertices: Vec<Vertex>,
    edge_ids: HashMap<(StateId, StateId), EdgeId>,
    edges: Vec<Edge>,
}

impl Stg {
    /// An empty graph.
    pub fn new() -> Self {
        Stg::default()
    }

    /// Intern a state, creating its vertex on first sight.
    pub fn state(&mut self, key: StateKey) -> StateId {
        if let Some(&id) = self.states.get(&key) {
            return id;
        }
        let id = self.vertices.len();
        self.vertices.push(Vertex { key: key.clone(), fragments: Vec::new(), count: 0 });
        self.states.insert(key, id);
        id
    }

    /// Intern the transition `from → to`, creating the edge on first sight.
    pub fn transition(&mut self, from: StateId, to: StateId) -> EdgeId {
        if let Some(&id) = self.edge_ids.get(&(from, to)) {
            return id;
        }
        let id = self.edges.len();
        self.edges.push(Edge { from, to, fragments: Vec::new(), count: 0 });
        self.edge_ids.insert((from, to), id);
        id
    }

    /// Attach an invocation fragment to a vertex.
    pub fn attach_vertex_fragment(&mut self, state: StateId, frag: Fragment) {
        let v = &mut self.vertices[state];
        v.fragments.push(frag);
        v.count += 1;
    }

    /// Attach a computation fragment to an edge.
    pub fn attach_edge_fragment(&mut self, edge: EdgeId, frag: Fragment) {
        let e = &mut self.edges[edge];
        e.fragments.push(frag);
        e.count += 1;
    }

    /// Drop every attached fragment, keeping the topology, the counts
    /// and each location's capacity.
    pub fn clear_fragments(&mut self) {
        self.vertices.iter_mut().for_each(|v| v.fragments.clear());
        self.edges.iter_mut().for_each(|e| e.fragments.clear());
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.vertices.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Look up a state id by key.
    pub fn find_state(&self, key: &StateKey) -> Option<StateId> {
        self.states.get(key).copied()
    }

    /// All vertices.
    pub fn vertices(&self) -> &[Vertex] {
        &self.vertices
    }

    /// All edges.
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Every attached fragment not yet cleared: the vertices' in state
    /// order, then the edges' in edge order.
    pub fn fragments(&self) -> impl Iterator<Item = &Fragment> {
        let vertex_frags = self.vertices.iter().flat_map(|v| &v.fragments);
        vertex_frags.chain(self.edges.iter().flat_map(|e| &e.fragments))
    }

    /// Fragments ever attached anywhere, cleared ones included.
    pub fn total_fragments(&self) -> usize {
        self.vertices.iter().map(|v| v.count).sum::<usize>()
            + self.edges.iter().map(|e| e.count).sum::<usize>()
    }

    /// A DOT-format dump for inspection (the Fig. 4 style view), each
    /// location labelled with its fragment count over the run.
    pub fn to_dot(&self) -> String {
        use std::fmt::Write;
        let mut out = String::from("digraph stg {\n");
        for (i, v) in self.vertices.iter().enumerate() {
            writeln!(
                out,
                "  s{} [label=\"{} ({})\"];",
                i,
                v.key.label(),
                v.count
            )
            .expect("write to string");
        }
        for e in &self.edges {
            writeln!(out, "  s{} -> s{} [label=\"{}\"];", e.from, e.to, e.count)
                .expect("write to string");
        }
        out.push_str("}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::FragmentKind;
    use vapro_pmu::CounterDelta;
    use vapro_sim::VirtualTime;

    fn dummy_frag() -> Fragment {
        Fragment {
            rank: 0,
            kind: FragmentKind::Computation,
            start: VirtualTime::ZERO,
            end: VirtualTime::from_ns(10),
            counters: CounterDelta::default(),
            args: vec![],
        }
    }

    #[test]
    fn states_are_interned_once() {
        let mut g = Stg::new();
        let a = g.state(StateKey::Site(CallSite("a")));
        let b = g.state(StateKey::Site(CallSite("b")));
        let a2 = g.state(StateKey::Site(CallSite("a")));
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(g.num_states(), 2);
    }

    #[test]
    fn context_modes_key_differently() {
        let site = CallSite("cg.f:100:MPI_Send");
        let warm = CallPath::new(&["warmup"], site);
        let real = CallPath::new(&["timed"], site);
        // Context-free: one state for both paths.
        let kf1 = StateKey::for_invocation(StgMode::ContextFree, site, &warm);
        let kf2 = StateKey::for_invocation(StgMode::ContextFree, site, &real);
        assert_eq!(kf1, kf2);
        // Context-aware: two states (the paper's warm-up vs test example).
        let ka1 = StateKey::for_invocation(StgMode::ContextAware, site, &warm);
        let ka2 = StateKey::for_invocation(StgMode::ContextAware, site, &real);
        assert_ne!(ka1, ka2);
    }

    #[test]
    fn edges_are_interned_and_directional() {
        let mut g = Stg::new();
        let a = g.state(StateKey::Site(CallSite("a")));
        let b = g.state(StateKey::Site(CallSite("b")));
        let ab = g.transition(a, b);
        let ba = g.transition(b, a);
        let ab2 = g.transition(a, b);
        assert_eq!(ab, ab2);
        assert_ne!(ab, ba);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn fragments_attach_to_vertices_and_edges() {
        let mut g = Stg::new();
        let a = g.state(StateKey::Site(CallSite("a")));
        let b = g.state(StateKey::Site(CallSite("b")));
        let e = g.transition(a, b);
        g.attach_vertex_fragment(a, dummy_frag());
        g.attach_edge_fragment(e, dummy_frag());
        g.attach_edge_fragment(e, dummy_frag());
        assert_eq!(g.vertices()[a].fragments.len(), 1);
        assert_eq!(g.edges()[e].fragments.len(), 2);
        assert_eq!(g.total_fragments(), 3);
        g.clear_fragments();
        assert_eq!(g.fragments().count(), 0);
        assert_eq!((g.vertices()[a].count, g.edges()[e].count), (1, 2));
        assert_eq!(g.total_fragments(), 3);
        assert!(g.edges()[e].fragments.capacity() >= 2);
    }

    #[test]
    fn cg_like_loop_shape() {
        // The Fig. 4 pattern: a loop over irecv → send → wait builds a
        // small cyclic graph, not an unrolled chain.
        let mut g = Stg::new();
        let start = g.state(StateKey::Start);
        let irecv = g.state(StateKey::Site(CallSite("cg:irecv")));
        let send = g.state(StateKey::Site(CallSite("cg:send")));
        let wait = g.state(StateKey::Site(CallSite("cg:wait")));
        let mut prev = start;
        for _ in 0..100 {
            for s in [irecv, send, wait] {
                let e = g.transition(prev, s);
                g.attach_edge_fragment(e, dummy_frag());
                prev = s;
            }
        }
        assert_eq!(g.num_states(), 4);
        // start→irecv, irecv→send, send→wait, wait→irecv.
        assert_eq!(g.num_edges(), 4);
        // The back edge carries 99 fragments.
        let back = g.edges().iter().find(|e| e.from == wait && e.to == irecv).unwrap();
        assert_eq!(back.fragments.len(), 99);
    }

    #[test]
    fn dot_dump_mentions_every_state() {
        let mut g = Stg::new();
        g.state(StateKey::Site(CallSite("alpha")));
        g.state(StateKey::Site(CallSite("beta")));
        let dot = g.to_dot();
        assert!(dot.contains("alpha"));
        assert!(dot.contains("beta"));
        assert!(dot.starts_with("digraph"));
    }
}
