//! Cluster topology: which physical node each endpoint (rank) lives on.
//!
//! The paper's testbed is 8 nodes with up to 4 processes per node sharing
//! the node's HCA, PCIe bus and GPU. [`Topology`] is the single source of
//! truth for that mapping: the fabric uses it to share one HCA transmit
//! engine per node and to route co-located traffic over shared memory, and
//! the MPI layer uses it to pick a transport per peer.

use std::sync::Arc;

/// Immutable ranks→nodes mapping. Clones are shallow.
///
/// Node ids are dense: every node id in `0..num_nodes()` hosts at least one
/// endpoint.
#[derive(Clone, Debug)]
pub struct Topology {
    node_of: Arc<Vec<usize>>,
    num_nodes: usize,
}

impl Topology {
    /// One endpoint per node — the pre-topology default, where "rank" and
    /// "node" coincide.
    pub fn one_per_node(n: usize) -> Self {
        Self::uniform(n, 1)
    }

    /// `nodes` nodes with `ppn` endpoints each, blocked: endpoint `r` lives
    /// on node `r / ppn`, so consecutive ranks share a node (the usual
    /// `mpirun` block placement).
    pub fn uniform(nodes: usize, ppn: usize) -> Self {
        // Caller contract: `MpiConfig::try_validate` turns a user's `ppn` of 0
        // (or one that does not divide the ranks) into a `ConfigError`
        // before `MpiWorld::launch` gets here.
        assert!(ppn >= 1, "ppn must be >= 1, got {ppn}");
        Topology {
            node_of: Arc::new((0..nodes * ppn).map(|r| r / ppn).collect()),
            num_nodes: nodes,
        }
    }

    /// Arbitrary mapping: `map[r]` is the node of endpoint `r`. Node ids
    /// must be dense (`0..=max` all present); panics otherwise.
    pub fn from_map(map: Vec<usize>) -> Self {
        // Caller contract (both asserts): a map is written out by the code
        // that builds the world; a sparse one is a typo there.
        assert!(!map.is_empty(), "topology must have at least one endpoint");
        let num_nodes = map.iter().copied().max().unwrap() + 1;
        for node in 0..num_nodes {
            assert!(
                map.contains(&node),
                "topology node ids must be dense: node {node} hosts no endpoint"
            );
        }
        Topology {
            node_of: Arc::new(map),
            num_nodes,
        }
    }

    /// Number of endpoints (MPI ranks).
    pub fn num_ranks(&self) -> usize {
        self.node_of.len()
    }

    /// Number of physical nodes.
    pub fn num_nodes(&self) -> usize {
        self.num_nodes
    }

    /// The node hosting endpoint `rank`. Panics on an out-of-range endpoint.
    pub fn node_of(&self, rank: usize) -> usize {
        // Caller contract: ranks come from the job's own `0..num_ranks()`.
        assert!(
            rank < self.node_of.len(),
            "no such endpoint {rank} (topology has {} endpoints)",
            self.node_of.len()
        );
        self.node_of[rank]
    }

    /// Whether two endpoints share a physical node. Note `colocated(r, r)`
    /// is true: a rank is co-located with itself.
    pub fn colocated(&self, a: usize, b: usize) -> bool {
        self.node_of(a) == self.node_of(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_per_node_is_identity() {
        let t = Topology::one_per_node(4);
        assert_eq!(t.num_ranks(), 4);
        assert_eq!(t.num_nodes(), 4);
        for r in 0..4 {
            assert_eq!(t.node_of(r), r);
        }
        assert!(t.colocated(2, 2));
        assert!(!t.colocated(0, 1));
    }

    #[test]
    fn uniform_blocks_consecutive_ranks() {
        let t = Topology::uniform(2, 4);
        assert_eq!(t.num_ranks(), 8);
        assert_eq!(t.num_nodes(), 2);
        assert_eq!(t.node_of(3), 0);
        assert_eq!(t.node_of(4), 1);
        assert!(t.colocated(0, 3));
        assert!(!t.colocated(3, 4));
    }

    #[test]
    fn from_map_round_robin() {
        let t = Topology::from_map(vec![0, 1, 0, 1]);
        assert_eq!(t.num_nodes(), 2);
        assert!(t.colocated(0, 2));
        assert!(!t.colocated(0, 1));
    }

    #[test]
    #[should_panic(expected = "dense")]
    fn from_map_rejects_gaps() {
        Topology::from_map(vec![0, 2]);
    }

    #[test]
    #[should_panic(expected = "no such endpoint 5")]
    fn node_of_out_of_range_panics() {
        Topology::one_per_node(2).node_of(5);
    }
}
