//! The immutable, validated circuit graph in a flat CSR/arena layout.
//!
//! All graph topology lives in contiguous index arrays (compressed
//! sparse row form) rather than per-node heap allocations:
//!
//! * node attributes (`names`, `kinds`, `levels`, `topo_pos`) are plain
//!   arena vectors indexed by [`NodeId`]; each name is stored once, with
//!   no index by name ([`Circuit::find`] scans);
//! * fanin arcs are the CSR pair `fanin_offsets` / `fanin_nodes` —
//!   node `i`'s fanin arcs are exactly the edge ids
//!   `fanin_offsets[i] .. fanin_offsets[i+1]`, in pin order, so an
//!   [`EdgeId`] doubles as the row index of its driver (`fanin_nodes`)
//!   and sink (`edge_to`) without any `Edge` structs being stored;
//! * fanout arcs are the CSR pair `fanout_offsets` / `fanout_edge_ids`;
//! * the topological order is precomputed together with its inverse
//!   permutation (`topo_pos`) and a per-level grouping
//!   (`level_starts` / `by_level`).
//!
//! The accessors ([`Circuit::node`] returning a [`NodeRef`] view,
//! [`Circuit::edge`] returning an [`Edge`] by value) hide the layout.
//! Node ids, edge ids and the topological order are load-bearing: the
//! Monte-Carlo diagnosis paths key their random draws on them.

use crate::{ConeView, EdgeId, GateKind, NetlistError, NodeId};
use serde::{Deserialize, Serialize};

/// Maximum number of nodes a [`Circuit`] may hold.
///
/// Node and edge ids are `u32` with `u32::MAX` reserved as the
/// not-in-cone / not-an-output sentinel used by the cone machinery, so
/// construction rejects anything larger with
/// [`NetlistError::TooLarge`] instead of silently truncating indices.
pub const MAX_NODES: usize = u32::MAX as usize - 1;

/// Maximum number of fanin arcs a [`Circuit`] may hold (same sentinel
/// reservation as [`MAX_NODES`]).
pub const MAX_EDGES: usize = u32::MAX as usize - 1;

/// Sentinel in `u32` node/position maps for "absent".
pub(crate) const NONE_U32: u32 = u32::MAX;

/// A lightweight, copyable view of one node of the circuit graph: a
/// primary input, a logic cell or a D flip-flop.
///
/// Obtained from [`Circuit::node`]; all accessors borrow from the
/// circuit's arena, so slices returned here outlive the `NodeRef` value
/// itself.
#[derive(Clone, Copy)]
pub struct NodeRef<'a> {
    circuit: &'a Circuit,
    id: NodeId,
}

impl<'a> NodeRef<'a> {
    /// The id this view refers to.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The signal name driven by this node.
    pub fn name(&self) -> &'a str {
        &self.circuit.names[self.id.index()]
    }

    /// The gate kind.
    pub fn kind(&self) -> GateKind {
        self.circuit.kinds[self.id.index()]
    }

    /// Driver nodes in pin order.
    pub fn fanins(&self) -> &'a [NodeId] {
        let r = self.circuit.fanin_range(self.id);
        &self.circuit.fanin_nodes[r]
    }

    /// Fanin arcs in pin order (parallel to [`NodeRef::fanins`]).
    pub fn fanin_edges(&self) -> &'a [EdgeId] {
        let r = self.circuit.fanin_range(self.id);
        &self.circuit.edge_list[r]
    }
}

impl std::fmt::Debug for NodeRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeRef")
            .field("id", &self.id)
            .field("name", &self.name())
            .field("kind", &self.kind())
            .field("fanins", &self.fanins())
            .finish()
    }
}

/// One fanin arc: a pin-to-pin segment from a driver node to an input pin
/// of a sink node. Delay random variables and delay defects attach here.
///
/// Materialized on demand by [`Circuit::edge`] from the CSR arrays; it is
/// not stored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Edge {
    pub(crate) from: NodeId,
    pub(crate) to: NodeId,
    pub(crate) pin: u32,
}

impl Edge {
    /// The driving node.
    pub fn from(&self) -> NodeId {
        self.from
    }

    /// The sink node.
    pub fn to(&self) -> NodeId {
        self.to
    }

    /// The input pin index at the sink node.
    pub fn pin(&self) -> u32 {
        self.pin
    }
}

/// An immutable cell-level netlist: the `(V, E, I, O)` part of the paper's
/// circuit model (Definition D.1); the delay function `f` lives in
/// `sdd-timing`.
///
/// Constructed through [`crate::CircuitBuilder`] (or the `.bench` parser /
/// synthetic generator), after which the graph is validated, topologically
/// ordered and levelized. See the module docs for the CSR storage layout.
///
/// Sequential circuits (containing [`GateKind::Dff`]) order flip-flop
/// outputs like primary inputs; use [`Circuit::to_combinational`] to apply
/// the full-scan cut before timing or test generation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Circuit {
    pub(crate) name: String,
    pub(crate) names: Vec<String>,
    pub(crate) kinds: Vec<GateKind>,
    /// CSR fanin row offsets, length `num_nodes + 1`: node `i`'s fanin
    /// arcs are the edge ids `fanin_offsets[i] .. fanin_offsets[i+1]`.
    pub(crate) fanin_offsets: Vec<u32>,
    /// Driver of each edge, indexed by [`EdgeId`].
    pub(crate) fanin_nodes: Vec<NodeId>,
    /// Sink of each edge, indexed by [`EdgeId`].
    pub(crate) edge_to: Vec<NodeId>,
    /// Identity edge-id arena (`edge_list[e] == EdgeId(e)`), so
    /// [`NodeRef::fanin_edges`] can hand out contiguous slices.
    pub(crate) edge_list: Vec<EdgeId>,
    /// CSR fanout row offsets, length `num_nodes + 1`.
    pub(crate) fanout_offsets: Vec<u32>,
    /// Outgoing edge ids per node, ascending within each row.
    pub(crate) fanout_edge_ids: Vec<EdgeId>,
    pub(crate) inputs: Vec<NodeId>,
    pub(crate) outputs: Vec<NodeId>,
    pub(crate) topo: Vec<NodeId>,
    /// Inverse permutation of `topo`: `topo_pos[n] = i ⇔ topo[i] = n`.
    pub(crate) topo_pos: Vec<u32>,
    pub(crate) levels: Vec<u32>,
    /// Per-level offsets into `by_level`, length `depth + 2`: the nodes
    /// at level `l` are `by_level[level_starts[l] .. level_starts[l+1]]`.
    pub(crate) level_starts: Vec<u32>,
    /// Node ids grouped by level, ascending id within each level.
    pub(crate) by_level: Vec<NodeId>,
    /// Position of each node in `outputs`, [`NONE_U32`] if not an output.
    pub(crate) output_pos: Vec<u32>,
}

impl Circuit {
    /// The circuit's name (e.g. `"s1196"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total number of nodes (inputs + cells + flip-flops).
    pub fn num_nodes(&self) -> usize {
        self.kinds.len()
    }

    /// Total number of fanin arcs.
    pub fn num_edges(&self) -> usize {
        self.fanin_nodes.len()
    }

    /// Number of logic cells (excludes inputs and flip-flops).
    pub fn num_gates(&self) -> usize {
        self.kinds.iter().filter(|k| k.is_logic()).count()
    }

    #[inline]
    pub(crate) fn fanin_range(&self, id: NodeId) -> std::ops::Range<usize> {
        self.fanin_offsets[id.index()] as usize..self.fanin_offsets[id.index() + 1] as usize
    }

    /// Returns a view of the node with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> NodeRef<'_> {
        assert!(id.index() < self.num_nodes(), "node id out of range");
        NodeRef { circuit: self, id }
    }

    /// Returns the edge with the given id (materialized from the CSR
    /// arrays).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn edge(&self, id: EdgeId) -> Edge {
        let e = id.index();
        let to = self.edge_to[e];
        Edge {
            from: self.fanin_nodes[e],
            to,
            pin: id.index() as u32 - self.fanin_offsets[to.index()],
        }
    }

    /// Primary inputs (including pseudo primary inputs after a scan cut),
    /// in declaration order.
    pub fn primary_inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Primary outputs (including pseudo primary outputs after a scan cut),
    /// in declaration order.
    pub fn primary_outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// Iterates over all node ids in creation order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes()).map(NodeId::from_index)
    }

    /// Iterates over all edge ids in creation order.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.num_edges()).map(EdgeId::from_index)
    }

    /// Nodes in topological order (drivers before sinks; flip-flop outputs
    /// are sources like primary inputs).
    pub fn topo_order(&self) -> &[NodeId] {
        &self.topo
    }

    /// The position of a node in [`Circuit::topo_order`] (the inverse of
    /// that permutation). Cone extraction starts its scan of the order
    /// here, and [`ConeView::slot_of_in`] binary-searches by it.
    #[inline]
    pub fn topo_position(&self, id: NodeId) -> u32 {
        self.topo_pos[id.index()]
    }

    /// The logic level of a node: 0 for sources, otherwise
    /// `1 + max(level of fanins)` (flip-flops are sources).
    pub fn level(&self, id: NodeId) -> u32 {
        self.levels[id.index()]
    }

    /// The maximum logic level in the circuit (its combinational depth).
    pub fn depth(&self) -> u32 {
        (self.level_starts.len() as u32).saturating_sub(2)
    }

    /// The nodes at logic level `level`, ascending by id. Empty for
    /// levels beyond [`Circuit::depth`].
    pub fn nodes_at_level(&self, level: u32) -> &[NodeId] {
        let l = level as usize;
        if l + 1 >= self.level_starts.len() {
            return &[];
        }
        &self.by_level[self.level_starts[l] as usize..self.level_starts[l + 1] as usize]
    }

    /// Outgoing arcs of a node, ascending by edge id.
    pub fn fanout_edges(&self, id: NodeId) -> &[EdgeId] {
        let r =
            self.fanout_offsets[id.index()] as usize..self.fanout_offsets[id.index() + 1] as usize;
        &self.fanout_edge_ids[r]
    }

    /// Looks a node up by signal name. O(nodes): it scans the names,
    /// which the circuit keeps no index of.
    pub fn find(&self, name: &str) -> Option<NodeId> {
        self.names
            .iter()
            .position(|n| n == name)
            .map(NodeId::from_index)
    }

    /// Returns `true` if the circuit contains no flip-flops.
    pub fn is_combinational(&self) -> bool {
        self.kinds.iter().all(|&k| k != GateKind::Dff)
    }

    /// Number of D flip-flops.
    pub fn num_dffs(&self) -> usize {
        self.kinds.iter().filter(|&&k| k == GateKind::Dff).count()
    }

    /// Returns the position of `id` in [`Circuit::primary_outputs`], if it
    /// is a primary output. O(1) via a precomputed inverse map.
    pub fn output_position(&self, id: NodeId) -> Option<usize> {
        match self.output_pos[id.index()] {
            NONE_U32 => None,
            p => Some(p as usize),
        }
    }

    /// Applies the full-scan cut: every D flip-flop becomes a pseudo
    /// primary input (keeping its signal name) and its data input becomes a
    /// pseudo primary output.
    ///
    /// The result is a purely combinational circuit on which logic
    /// simulation, timing analysis, ATPG and diagnosis operate. It is
    /// derived from this circuit's CSR arrays: node ids stay, the
    /// flip-flops' data arcs are dropped (later edge ids close up), and the
    /// outputs are the primary outputs followed by the flip-flops' data
    /// inputs in id order, each node once. A circuit that is already
    /// combinational is returned unchanged (cheap clone).
    ///
    /// # Errors
    ///
    /// Returns an error if the resulting combinational graph is invalid
    /// (cannot normally happen for a validated sequential circuit).
    pub fn to_combinational(&self) -> Result<Circuit, NetlistError> {
        if self.is_combinational() {
            return Ok(self.clone());
        }
        let mut kinds = self.kinds.clone();
        let mut outputs = self.outputs.clone();
        let mut fanin_offsets = Vec::with_capacity(self.num_nodes() + 1);
        let mut fanin_nodes = Vec::with_capacity(self.num_edges());
        fanin_offsets.push(0u32);
        for (i, kind) in kinds.iter_mut().enumerate() {
            let row = &self.fanin_nodes[self.fanin_range(NodeId::from_index(i))];
            if *kind == GateKind::Dff {
                *kind = GateKind::Input;
                outputs.push(row[0]);
            } else {
                fanin_nodes.extend_from_slice(row);
            }
            // Fits in u32: at most this circuit's validated edge count.
            fanin_offsets.push(fanin_nodes.len() as u32);
        }
        Circuit::from_parts(
            self.name.clone(),
            self.names.clone(),
            kinds,
            fanin_offsets,
            fanin_nodes,
            outputs,
        )
    }

    /// Collects every node in the transitive fanin cone of `seed`
    /// (inclusive), in deterministic DFS discovery order.
    pub fn fanin_cone(&self, seed: NodeId) -> Vec<NodeId> {
        let mut seen = vec![false; self.num_nodes()];
        let mut stack = vec![seed];
        let mut cone = Vec::new();
        while let Some(id) = stack.pop() {
            if seen[id.index()] {
                continue;
            }
            seen[id.index()] = true;
            cone.push(id);
            for &f in self.node(id).fanins() {
                stack.push(f);
            }
        }
        cone
    }

    /// Collects every node in the transitive fanout cone of `seed`
    /// (inclusive), in deterministic DFS discovery order; each node
    /// appears exactly once even on reconvergent graphs.
    ///
    /// This walks a full-circuit scratch array and returns only the
    /// members; the per-suspect hot path uses [`Circuit::cone_view`],
    /// which also orders them and renumbers their arcs.
    pub fn fanout_cone(&self, seed: NodeId) -> Vec<NodeId> {
        let mut seen = vec![false; self.num_nodes()];
        let mut stack = vec![seed];
        let mut cone = Vec::new();
        while let Some(id) = stack.pop() {
            if seen[id.index()] {
                continue;
            }
            seen[id.index()] = true;
            cone.push(id);
            for &e in self.fanout_edges(id) {
                stack.push(self.edge_to[e.index()]);
            }
        }
        cone
    }

    /// Primary outputs reachable from `seed` through the fanout cone, in
    /// [`Circuit::primary_outputs`] order.
    pub fn reachable_outputs(&self, seed: NodeId) -> Vec<NodeId> {
        let cone = self.fanout_cone(seed);
        let mut in_cone = vec![false; self.num_nodes()];
        for &n in &cone {
            in_cone[n.index()] = true;
        }
        self.outputs
            .iter()
            .copied()
            .filter(|o| in_cone[o.index()])
            .collect()
    }

    /// Extracts the topologically ordered induced fanout cone of `seed`
    /// with cone-local arc renumbering; see [`ConeView`]. Cost: the
    /// cone's topological span (from `seed` to its last member in
    /// [`Circuit::topo_order`]) plus one zeroed `num_nodes` table. On
    /// generated circuits that span can be most of the circuit: SYNTH100K
    /// cones hold up to ~87k of its ~102k nodes.
    pub fn cone_view(&self, seed: NodeId) -> ConeView {
        ConeView::new(self, seed)
    }

    /// Validates node and edge counts against the documented capacity
    /// limits ([`MAX_NODES`], [`MAX_EDGES`]).
    ///
    /// Called by every construction path; exposed so the boundary is
    /// testable without materializing four billion nodes.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::TooLarge`] when a count exceeds its limit.
    pub fn validate_capacity(n_nodes: usize, n_edges: usize) -> Result<(), NetlistError> {
        if n_nodes > MAX_NODES {
            return Err(NetlistError::TooLarge {
                what: "nodes".into(),
                count: n_nodes,
                limit: MAX_NODES,
            });
        }
        if n_edges > MAX_EDGES {
            return Err(NetlistError::TooLarge {
                what: "edges".into(),
                count: n_edges,
                limit: MAX_EDGES,
            });
        }
        Ok(())
    }

    /// Builds the validated circuit from flat CSR parts: node `i` is
    /// called `names[i]`, has kind `kinds[i]` and the drivers
    /// `fanin_nodes[fanin_offsets[i] .. fanin_offsets[i+1]]` in pin order.
    /// `outputs` lists the marked outputs; a repeated mark is dropped
    /// (first mark wins). Used by the builder and the scan cut.
    ///
    /// Edge ids are the CSR positions (consecutive per sink node in pin
    /// order), node ids are creation order, and the topological order
    /// comes from the same Kahn traversal as always — all three are
    /// load-bearing: Monte-Carlo defect draws and pattern seeds
    /// downstream are keyed on these ids, so any renumbering would
    /// silently change every sampled campaign.
    pub(crate) fn from_parts(
        name: String,
        names: Vec<String>,
        kinds: Vec<GateKind>,
        fanin_offsets: Vec<u32>,
        fanin_nodes: Vec<NodeId>,
        mut outputs: Vec<NodeId>,
    ) -> Result<Circuit, NetlistError> {
        let n = kinds.len();
        let n_edges = fanin_nodes.len();
        Self::validate_capacity(n, n_edges)?;
        let mut output_pos = vec![NONE_U32; n];
        let mut n_outputs = 0u32;
        outputs.retain(|o| {
            let fresh = output_pos[o.index()] == NONE_U32;
            if fresh {
                output_pos[o.index()] = n_outputs;
                n_outputs += 1;
            }
            fresh
        });
        if outputs.is_empty() {
            return Err(NetlistError::NoOutputs);
        }
        let row = |i: usize| fanin_offsets[i] as usize..fanin_offsets[i + 1] as usize;
        let mut edge_to = Vec::with_capacity(n_edges);
        for i in 0..n {
            edge_to.resize(fanin_offsets[i + 1] as usize, NodeId::from_index(i));
        }
        let edge_list: Vec<EdgeId> = (0..n_edges).map(EdgeId::from_index).collect();

        // CSR fanout arrays: count, prefix-sum, fill. Filling in
        // ascending edge-id order keeps each row ascending, matching the
        // push order of the old per-node Vec layout.
        let mut fanout_offsets = vec![0u32; n + 1];
        for &from in &fanin_nodes {
            fanout_offsets[from.index() + 1] += 1;
        }
        for i in 0..n {
            fanout_offsets[i + 1] += fanout_offsets[i];
        }
        let mut cursor: Vec<u32> = fanout_offsets[..n].to_vec();
        let mut fanout_edge_ids = vec![EdgeId::from_index(0); n_edges];
        for (e, &from) in fanin_nodes.iter().enumerate() {
            let slot = cursor[from.index()];
            fanout_edge_ids[slot as usize] = EdgeId::from_index(e);
            cursor[from.index()] = slot + 1;
        }

        // Kahn topological sort. Flip-flop fanin arcs do not create
        // ordering dependencies (a DFF's output is a source).
        let dep_count = |ix: usize| -> usize {
            if kinds[ix] == GateKind::Dff {
                0
            } else {
                row(ix).len()
            }
        };
        let mut indeg: Vec<usize> = (0..n).map(dep_count).collect();
        let mut queue: Vec<NodeId> = (0..n)
            .filter(|&i| indeg[i] == 0)
            .map(NodeId::from_index)
            .collect();
        let mut topo = Vec::with_capacity(n);
        let mut head = 0;
        while head < queue.len() {
            let id = queue[head];
            head += 1;
            topo.push(id);
            let fanouts =
                fanout_offsets[id.index()] as usize..fanout_offsets[id.index() + 1] as usize;
            for &e in &fanout_edge_ids[fanouts] {
                let to = edge_to[e.index()];
                if kinds[to.index()] == GateKind::Dff {
                    continue;
                }
                indeg[to.index()] -= 1;
                if indeg[to.index()] == 0 {
                    queue.push(to);
                }
            }
        }
        if topo.len() != n {
            let stuck = (0..n)
                .find(|&i| indeg[i] > 0)
                .map(|i| names[i].clone())
                .unwrap_or_default();
            return Err(NetlistError::Cyclic { node: stuck });
        }
        let mut topo_pos = vec![0u32; n];
        for (i, &id) in topo.iter().enumerate() {
            topo_pos[id.index()] = u32::try_from(i).expect("node count validated");
        }

        // Levelize, then group nodes by level (counting sort, stable in
        // id order).
        let mut levels = vec![0u32; n];
        for &id in &topo {
            let i = id.index();
            if kinds[i] != GateKind::Dff && kinds[i] != GateKind::Input {
                levels[i] = fanin_nodes[row(i)]
                    .iter()
                    .map(|f| levels[f.index()] + 1)
                    .max()
                    .unwrap_or(0);
            }
        }
        let depth = levels.iter().copied().max().unwrap_or(0) as usize;
        let mut level_starts = vec![0u32; depth + 2];
        for &l in &levels {
            level_starts[l as usize + 1] += 1;
        }
        for l in 0..depth + 1 {
            level_starts[l + 1] += level_starts[l];
        }
        let mut level_cursor: Vec<u32> = level_starts[..depth + 1].to_vec();
        let mut by_level = vec![NodeId::from_index(0); n];
        for (i, &level) in levels.iter().enumerate() {
            let l = level as usize;
            by_level[level_cursor[l] as usize] = NodeId::from_index(i);
            level_cursor[l] += 1;
        }

        let inputs = (0..n)
            .filter(|&i| kinds[i] == GateKind::Input)
            .map(NodeId::from_index)
            .collect();
        Ok(Circuit {
            name,
            names,
            kinds,
            fanin_offsets,
            fanin_nodes,
            edge_to,
            edge_list,
            fanout_offsets,
            fanout_edge_ids,
            inputs,
            outputs,
            topo,
            topo_pos,
            levels,
            level_starts,
            by_level,
            output_pos,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CircuitBuilder;

    fn small() -> Circuit {
        // a, b -> g1 = AND(a, b); g2 = NOT(g1); outputs g1, g2
        let mut b = CircuitBuilder::new("small");
        let a = b.input("a");
        let bb = b.input("b");
        let g1 = b.gate("g1", GateKind::And, &[a, bb]).unwrap();
        let g2 = b.gate("g2", GateKind::Not, &[g1]).unwrap();
        b.output(g1);
        b.output(g2);
        b.finish().unwrap()
    }

    #[test]
    fn counts() {
        let c = small();
        assert_eq!(c.num_nodes(), 4);
        assert_eq!(c.num_edges(), 3);
        assert_eq!(c.num_gates(), 2);
        assert_eq!(c.primary_inputs().len(), 2);
        assert_eq!(c.primary_outputs().len(), 2);
        assert!(c.is_combinational());
    }

    #[test]
    fn topo_respects_dependencies() {
        let c = small();
        let pos: Vec<usize> = c
            .node_ids()
            .map(|id| c.topo_order().iter().position(|&t| t == id).unwrap())
            .collect();
        for e in c.edge_ids() {
            let edge = c.edge(e);
            assert!(pos[edge.from().index()] < pos[edge.to().index()]);
        }
    }

    #[test]
    fn topo_position_is_inverse_permutation() {
        let c = small();
        for (i, &id) in c.topo_order().iter().enumerate() {
            assert_eq!(c.topo_position(id) as usize, i);
        }
    }

    #[test]
    fn levels() {
        let c = small();
        let g1 = c.find("g1").unwrap();
        let g2 = c.find("g2").unwrap();
        assert_eq!(c.level(c.find("a").unwrap()), 0);
        assert_eq!(c.level(g1), 1);
        assert_eq!(c.level(g2), 2);
        assert_eq!(c.depth(), 2);
    }

    #[test]
    fn level_groups_partition_the_nodes() {
        let c = small();
        let mut seen = 0usize;
        for l in 0..=c.depth() {
            for &id in c.nodes_at_level(l) {
                assert_eq!(c.level(id), l);
                seen += 1;
            }
        }
        assert_eq!(seen, c.num_nodes());
        assert!(c.nodes_at_level(c.depth() + 1).is_empty());
    }

    #[test]
    fn edge_pins_recover_fanin_order() {
        let c = small();
        for id in c.node_ids() {
            let node = c.node(id);
            for (pin, (&f, &e)) in node.fanins().iter().zip(node.fanin_edges()).enumerate() {
                let edge = c.edge(e);
                assert_eq!(edge.from(), f);
                assert_eq!(edge.to(), id);
                assert_eq!(edge.pin() as usize, pin);
            }
        }
    }

    #[test]
    fn cones() {
        let c = small();
        let g2 = c.find("g2").unwrap();
        let cone = c.fanin_cone(g2);
        assert_eq!(cone.len(), 4);
        let a = c.find("a").unwrap();
        let outs = c.reachable_outputs(a);
        assert_eq!(outs.len(), 2);
    }

    #[test]
    fn fanouts_consistent() {
        let c = small();
        let a = c.find("a").unwrap();
        assert_eq!(c.fanout_edges(a).len(), 1);
        let g1 = c.find("g1").unwrap();
        // g1 drives only g2; being a primary output adds no arc.
        assert_eq!(c.fanout_edges(g1).len(), 1);
        let g2 = c.find("g2").unwrap();
        assert!(c.fanout_edges(g2).is_empty());
    }

    #[test]
    fn sequential_scan_cut() {
        // PI a; DFF q with data input d; d = NAND(a, q); output d.
        let mut b = CircuitBuilder::new("seq");
        let a = b.input("a");
        let q = b.dff_placeholder("q");
        let d = b.gate("d", GateKind::Nand, &[a, q]).unwrap();
        b.set_dff_input(q, d).unwrap();
        b.output(d);
        let c = b.finish().unwrap();
        assert!(!c.is_combinational());
        assert_eq!(c.num_dffs(), 1);

        let comb = c.to_combinational().unwrap();
        assert!(comb.is_combinational());
        // q becomes a pseudo-PI; d is both the real PO and the pseudo-PO of
        // the flip-flop, observed once.
        assert_eq!(comb.primary_inputs().len(), 2);
        assert_eq!(comb.primary_outputs().len(), 1);
        assert_eq!(comb.num_dffs(), 0);
    }

    #[test]
    fn scan_cut_keeps_node_ids_and_closes_up_edge_ids() {
        // a; q, r flip-flops; g1 = AND(a, q); g2 = OR(g1, r);
        // q <- g2, r <- g1; output g2.
        let mut b = CircuitBuilder::new("seq2");
        let a = b.input("a");
        let q = b.dff_placeholder("q");
        let g1 = b.gate("g1", GateKind::And, &[a, q]).unwrap();
        let r = b.dff_placeholder("r");
        let g2 = b.gate("g2", GateKind::Or, &[g1, r]).unwrap();
        b.set_dff_input(q, g2).unwrap();
        b.set_dff_input(r, g1).unwrap();
        b.output(g2);
        let c = b.finish().unwrap();
        let comb = c.to_combinational().unwrap();

        assert_eq!(comb.num_nodes(), c.num_nodes());
        assert_eq!(comb.num_edges(), c.num_edges() - 2);
        for id in c.node_ids() {
            assert_eq!(comb.node(id).name(), c.node(id).name());
        }
        assert_eq!(comb.primary_inputs(), &[a, q, r]);
        assert_eq!(comb.node(q).kind(), GateKind::Input);
        assert!(comb.node(q).fanins().is_empty());
        let ids = |node: NodeRef| -> Vec<usize> {
            node.fanin_edges().iter().map(|e| e.index()).collect()
        };
        assert_eq!(ids(comb.node(g1)), [0, 1]);
        assert_eq!(comb.node(g2).fanins(), &[g1, r]);
        assert_eq!(ids(comb.node(g2)), [2, 3]);
        // Primary outputs, then the data inputs of q and r in id order;
        // g2 already is an output, so only g1 is added.
        assert_eq!(comb.primary_outputs(), &[g2, g1]);
        assert_eq!(comb.output_position(g1), Some(1));
        assert_eq!(comb.topo_order(), c.topo_order());
        assert_eq!(comb.find("r"), Some(r));
    }

    #[test]
    fn combinational_cut_is_identity() {
        let c = small();
        let c2 = c.to_combinational().unwrap();
        assert_eq!(c2.num_nodes(), c.num_nodes());
        assert_eq!(c2.num_edges(), c.num_edges());
    }

    #[test]
    fn output_position() {
        let c = small();
        let g1 = c.find("g1").unwrap();
        let g2 = c.find("g2").unwrap();
        assert_eq!(c.output_position(g1), Some(0));
        assert_eq!(c.output_position(g2), Some(1));
        assert_eq!(c.output_position(c.find("a").unwrap()), None);
    }

    #[test]
    fn fanout_cone_of_output_is_itself() {
        let c = small();
        let g2 = c.find("g2").unwrap();
        assert_eq!(c.fanout_cone(g2), vec![g2]);
    }

    #[test]
    fn capacity_boundary_is_enforced() {
        // The limits themselves pass; one past either limit is the typed
        // error. (Materializing u32::MAX nodes is infeasible; the checker
        // is the single gate every construction path funnels through.)
        assert!(Circuit::validate_capacity(MAX_NODES, MAX_EDGES).is_ok());
        let err = Circuit::validate_capacity(MAX_NODES + 1, 0).unwrap_err();
        assert!(
            matches!(err, NetlistError::TooLarge { ref what, count, limit }
                if what == "nodes" && count == MAX_NODES + 1 && limit == MAX_NODES)
        );
        let err = Circuit::validate_capacity(0, MAX_EDGES + 1).unwrap_err();
        assert!(matches!(err, NetlistError::TooLarge { ref what, .. } if what == "edges"));
    }
}
