//! Event-driven implication shared by the ATPG search loops
//! ([`crate::podem`] and [`crate::path_atpg`]).
//!
//! A search changes a handful of primary inputs per step (a decision, a
//! flip, or the undos of a backtrack). Every node value is a pure
//! function of the input assignment, so only the fanout of the changed
//! inputs can move, and a node whose re-evaluated value is unchanged
//! cannot move its own fanout. The queue holds one bucket per logic
//! level and drains them in ascending order: a node is evaluated only
//! after every fanin scheduled in the same pass has settled, so each
//! node is evaluated at most once per pass and the result equals a full
//! topological re-simulation.

use sdd_netlist::{Circuit, NodeId};

/// Level-bucketed queue of nodes awaiting re-evaluation.
#[derive(Debug, Default)]
pub(crate) struct EventQueue {
    /// `buckets[l]` holds the scheduled nodes at logic level `l`.
    buckets: Vec<Vec<NodeId>>,
    /// `queued[n]` is set while node `n` sits in a bucket.
    queued: Vec<bool>,
}

impl EventQueue {
    /// An empty queue sized for `circuit`.
    pub(crate) fn new(circuit: &Circuit) -> EventQueue {
        EventQueue {
            buckets: vec![Vec::new(); circuit.depth() as usize + 1],
            queued: vec![false; circuit.num_nodes()],
        }
    }

    /// Schedules `id` for re-evaluation in the next [`propagate`] pass
    /// (a no-op if it is already scheduled).
    ///
    /// [`propagate`]: EventQueue::propagate
    pub(crate) fn schedule(&mut self, circuit: &Circuit, id: NodeId) {
        if !self.queued[id.index()] {
            self.queued[id.index()] = true;
            self.buckets[circuit.level(id) as usize].push(id);
        }
    }

    /// Drains the queue in level order. `update` re-evaluates one node,
    /// stores its value and returns whether the value changed; the sinks
    /// of a changed node are scheduled in turn.
    pub(crate) fn propagate(&mut self, circuit: &Circuit, mut update: impl FnMut(NodeId) -> bool) {
        for level in 0..self.buckets.len() {
            // Sinks sit at strictly higher levels, so this bucket cannot
            // grow while it drains.
            let mut bucket = std::mem::take(&mut self.buckets[level]);
            for &id in &bucket {
                self.queued[id.index()] = false;
                if update(id) {
                    for &e in circuit.fanout_edges(id) {
                        let sink = circuit.edge(e).to();
                        debug_assert!(circuit.level(sink) as usize > level);
                        self.schedule(circuit, sink);
                    }
                }
            }
            bucket.clear();
            self.buckets[level] = bucket;
        }
    }
}
