//! Machine topology: nodes containing sockets containing cores, and the
//! placement of ranks onto cores. Noise targeting in the paper happens at
//! different granularities — a noise process on one *core* (Fig. 12), a
//! hardware bug on one *socket* (§6.5.1), a degraded *node* (§6.5.2) — so
//! the schedule needs to resolve a rank to its (node, socket, core).


/// Where one rank lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Placement {
    /// Node index in the cluster.
    pub node: usize,
    /// Socket index within the node.
    pub socket: usize,
    /// Global socket index across the cluster.
    pub global_socket: usize,
    /// Core index within the socket.
    pub core: usize,
}

/// A homogeneous cluster description with block rank placement
/// (consecutive ranks fill a node before spilling to the next, matching
/// common MPI defaults).
#[derive(Debug, Clone, PartialEq)]
pub struct Topology {
    /// Number of nodes.
    pub nodes: usize,
    /// Sockets per node.
    pub sockets_per_node: usize,
    /// Cores per socket.
    pub cores_per_socket: usize,
}

impl Topology {
    /// A cluster shaped like the paper's Tianhe-2A nodes: dual 12-core
    /// sockets, with enough nodes for `ranks` ranks.
    pub fn tianhe_like(ranks: usize) -> Topology {
        let per_node = 24;
        Topology {
            nodes: ranks.div_ceil(per_node).max(1),
            sockets_per_node: 2,
            cores_per_socket: 12,
        }
    }

    /// A single-node machine with one socket of `cores` cores
    /// (the multi-threaded evaluation platform).
    pub fn single_node(cores: usize) -> Topology {
        Topology { nodes: 1, sockets_per_node: 1, cores_per_socket: cores.max(1) }
    }

    /// A dual-socket single node (the HPL case-study machine: 2 × 18 cores).
    pub fn dual_socket(cores_per_socket: usize) -> Topology {
        Topology { nodes: 1, sockets_per_node: 2, cores_per_socket }
    }

    /// Cores per node.
    pub fn cores_per_node(&self) -> usize {
        self.sockets_per_node * self.cores_per_socket
    }

    /// Total cores in the cluster.
    pub fn total_cores(&self) -> usize {
        self.nodes * self.cores_per_node()
    }

    /// Placement of a rank under block placement. Ranks beyond the core
    /// count wrap around (oversubscription).
    pub fn place(&self, rank: usize) -> Placement {
        let core_id = rank % self.total_cores();
        let node = core_id / self.cores_per_node();
        let within = core_id % self.cores_per_node();
        let socket = within / self.cores_per_socket;
        let core = within % self.cores_per_socket;
        Placement { node, socket, global_socket: node * self.sockets_per_node + socket, core }
    }

    /// All ranks (out of `nranks`) placed on the given node.
    pub fn ranks_on_node(&self, node: usize, nranks: usize) -> Vec<usize> {
        (0..nranks).filter(|&r| self.place(r).node == node).collect()
    }

    /// All ranks (out of `nranks`) placed on the given global socket.
    pub fn ranks_on_socket(&self, global_socket: usize, nranks: usize) -> Vec<usize> {
        (0..nranks)
            .filter(|&r| self.place(r).global_socket == global_socket)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tianhe_like_allocates_enough_nodes() {
        let t = Topology::tianhe_like(256);
        assert_eq!(t.cores_per_node(), 24);
        assert!(t.total_cores() >= 256);
        assert_eq!(t.nodes, 11);
    }

    #[test]
    fn block_placement_fills_nodes_in_order() {
        let t = Topology::tianhe_like(48);
        assert_eq!(t.place(0), Placement { node: 0, socket: 0, global_socket: 0, core: 0 });
        assert_eq!(t.place(11).core, 11);
        let p12 = t.place(12);
        assert_eq!((p12.node, p12.socket, p12.core), (0, 1, 0));
        assert_eq!(t.place(24).node, 1);
    }

    #[test]
    fn hpl_machine_socket_split() {
        // 36 ranks on dual 18-core sockets: ranks 0-17 on socket 0,
        // 18-35 on socket 1 (the paper's Fig. 15 shows IDs 16-31 slow —
        // predominantly the second socket).
        let t = Topology::dual_socket(18);
        assert_eq!(t.place(17).global_socket, 0);
        assert_eq!(t.place(18).global_socket, 1);
        assert_eq!(t.ranks_on_socket(1, 36).len(), 18);
    }

    #[test]
    fn ranks_on_node_partition_everything() {
        let t = Topology::tianhe_like(100);
        let mut seen = vec![false; 100];
        for node in 0..t.nodes {
            for r in t.ranks_on_node(node, 100) {
                assert!(!seen[r]);
                seen[r] = true;
            }
        }
        assert!(seen.into_iter().all(|s| s));
    }

    #[test]
    fn oversubscription_wraps() {
        let t = Topology::single_node(4);
        assert_eq!(t.place(5).core, 1);
    }
}
