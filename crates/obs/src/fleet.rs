//! Fleet topology: the node → rack → cluster shape shared by the
//! cluster journal, the per-rack statistics, and the fleet
//! orchestrator.
//!
//! A [`FleetTopology`] is nothing but arithmetic over a node count and
//! a rack size, kept in one place so every layer agrees on which rack a
//! node belongs to, how many racks exist (the last one may be ragged),
//! and which nodes are *witnesses* — the one node per rack whose child
//! journal is kept live and merged into the cluster journal, bounding
//! journal growth to O(racks) while still giving every rack a causal
//! sample. Per-node registries need no rack level: they merge flat, in
//! node-index order ([`Registry::merge_from`](crate::Registry::merge_from)).

/// The node/rack shape of one fleet run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetTopology {
    nodes: usize,
    rack_size: usize,
}

impl FleetTopology {
    /// A fleet of `nodes` nodes in racks of `rack_size` (the last rack
    /// may hold fewer).
    ///
    /// # Panics
    ///
    /// Panics when `rack_size` is zero.
    pub fn new(nodes: usize, rack_size: usize) -> FleetTopology {
        assert!(rack_size > 0, "rack_size must be positive");
        FleetTopology { nodes, rack_size }
    }

    /// Total node count.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Nodes per full rack.
    pub fn rack_size(&self) -> usize {
        self.rack_size
    }

    /// Number of racks (ceiling division; 0 for an empty fleet).
    pub fn racks(&self) -> usize {
        self.nodes.div_ceil(self.rack_size)
    }

    /// The rack holding `node`.
    pub fn rack_of(&self, node: usize) -> usize {
        node / self.rack_size
    }

    /// Whether `node` is its rack's journal witness (the first node of
    /// the rack).
    pub fn is_witness(&self, node: usize) -> bool {
        node.is_multiple_of(self.rack_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ragged_last_rack_arithmetic() {
        let t = FleetTopology::new(10, 4);
        assert_eq!(t.nodes(), 10);
        assert_eq!(t.rack_size(), 4);
        assert_eq!(t.racks(), 3);
        assert_eq!(t.rack_of(0), 0);
        assert_eq!(t.rack_of(3), 0);
        assert_eq!(t.rack_of(4), 1);
        assert_eq!(t.rack_of(9), 2);
        // One witness per rack, at the rack's first node.
        let witnesses: Vec<usize> = (0..t.nodes()).filter(|&n| t.is_witness(n)).collect();
        assert_eq!(witnesses, vec![0, 4, 8]);
        assert_eq!(witnesses.len(), t.racks());
    }

    #[test]
    fn empty_fleet_has_no_racks() {
        let t = FleetTopology::new(0, 8);
        assert_eq!(t.racks(), 0);
    }

    #[test]
    #[should_panic(expected = "rack_size must be positive")]
    fn zero_rack_size_rejected() {
        FleetTopology::new(4, 0);
    }
}
