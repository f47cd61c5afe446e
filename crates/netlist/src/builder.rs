//! Validated construction of [`Circuit`]s.

use crate::{Circuit, GateKind, NetlistError, NodeId};
use std::collections::hash_map::Entry;
use std::collections::HashMap;

/// Incremental, validated builder for a [`Circuit`].
///
/// Signals are created with [`CircuitBuilder::input`],
/// [`CircuitBuilder::gate`] or (for forward references, as needed by netlist
/// parsers) [`CircuitBuilder::declare_gate`] + [`CircuitBuilder::set_fanins`].
/// [`CircuitBuilder::finish`] validates arities and acyclicity and produces
/// the immutable circuit.
///
/// # Example
///
/// ```
/// use sdd_netlist::{CircuitBuilder, GateKind};
///
/// # fn main() -> Result<(), sdd_netlist::NetlistError> {
/// let mut b = CircuitBuilder::new("mux");
/// let s = b.input("s");
/// let a = b.input("a");
/// let c = b.input("c");
/// let ns = b.gate("ns", GateKind::Not, &[s])?;
/// let t0 = b.gate("t0", GateKind::And, &[ns, a])?;
/// let t1 = b.gate("t1", GateKind::And, &[s, c])?;
/// let y = b.gate("y", GateKind::Or, &[t0, t1])?;
/// b.output(y);
/// let mux = b.finish()?;
/// assert_eq!(mux.depth(), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct CircuitBuilder {
    name: String,
    /// The only owner of each signal name; [`CircuitBuilder::finish`]
    /// moves them into id order.
    names: HashMap<String, NodeId>,
    kinds: Vec<GateKind>,
    /// Per node, its fanin row `(start, len)` in `fanins`. Rows are
    /// appended as they are connected (a reconnection appends a new
    /// row), and `finish` copies them into node order. Every kind but
    /// [`GateKind::Input`] takes at least one fanin, so a gate whose row
    /// is still empty was declared and never connected.
    rows: Vec<(u32, u32)>,
    fanins: Vec<NodeId>,
    outputs: Vec<NodeId>,
}

impl CircuitBuilder {
    /// Creates an empty builder for a circuit called `name`.
    pub fn new(name: impl Into<String>) -> Self {
        CircuitBuilder {
            name: name.into(),
            names: HashMap::new(),
            kinds: Vec::new(),
            rows: Vec::new(),
            fanins: Vec::new(),
            outputs: Vec::new(),
        }
    }

    fn add_node(&mut self, name: &str, kind: GateKind) -> Result<NodeId, NetlistError> {
        // Reject id overflow at the insertion boundary rather than in
        // `finish`, so huge streaming constructions fail fast with the
        // typed capacity error.
        Circuit::validate_capacity(self.kinds.len() + 1, 0)?;
        let id = NodeId::from_index(self.kinds.len());
        match self.names.entry(name.to_owned()) {
            Entry::Occupied(_) => return Err(NetlistError::DuplicateName(name.to_owned())),
            Entry::Vacant(slot) => slot.insert(id),
        };
        self.kinds.push(kind);
        self.rows.push((0, 0));
        Ok(id)
    }

    /// The name of node `id`: a scan of the name map, for error paths.
    fn name_of(&self, id: NodeId) -> String {
        let named = |(name, &n): (&String, &NodeId)| (n == id).then(|| name.clone());
        self.names
            .iter()
            .find_map(named)
            .expect("every node is named")
    }

    /// Adds a primary input.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already defined (use [`CircuitBuilder::lookup`]
    /// first when names may repeat).
    pub fn input(&mut self, name: &str) -> NodeId {
        self.add_node(name, GateKind::Input)
            .expect("duplicate input name")
    }

    /// Adds a logic gate with its fanins, validating the arity.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if `name` exists, or
    /// [`NetlistError::BadArity`] if the fanin count is invalid for `kind`.
    pub fn gate(
        &mut self,
        name: &str,
        kind: GateKind,
        fanins: &[NodeId],
    ) -> Result<NodeId, NetlistError> {
        let id = self.declare_gate(name, kind)?;
        self.set_fanins(id, fanins)?;
        Ok(id)
    }

    /// Declares a gate whose fanins will be supplied later with
    /// [`CircuitBuilder::set_fanins`]. Needed by netlist parsers where
    /// signals are referenced before definition.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::DuplicateName`] if `name` exists.
    pub fn declare_gate(&mut self, name: &str, kind: GateKind) -> Result<NodeId, NetlistError> {
        self.add_node(name, kind)
    }

    /// Connects the fanins of a previously declared gate.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::BadArity`] if the count is invalid for the
    /// gate's kind, or [`NetlistError::NoSuchNode`] for a bad id.
    pub fn set_fanins(&mut self, id: NodeId, fanins: &[NodeId]) -> Result<(), NetlistError> {
        let n = self.kinds.len();
        if id.index() >= n {
            return Err(NetlistError::NoSuchNode(id.index()));
        }
        for f in fanins {
            if f.index() >= n {
                return Err(NetlistError::NoSuchNode(f.index()));
            }
        }
        let kind = self.kinds[id.index()];
        let (lo, hi) = kind.arity();
        if fanins.len() < lo || fanins.len() > hi {
            return Err(NetlistError::BadArity {
                node: self.name_of(id),
                kind: kind.to_string(),
                got: fanins.len(),
            });
        }
        Circuit::validate_capacity(n, self.fanins.len() + fanins.len())?;
        self.rows[id.index()] = (self.fanins.len() as u32, fanins.len() as u32);
        self.fanins.extend_from_slice(fanins);
        Ok(())
    }

    /// Declares a D flip-flop whose data input will be connected later with
    /// [`CircuitBuilder::set_dff_input`]. The flip-flop's *output* signal
    /// carries `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already defined.
    pub fn dff_placeholder(&mut self, name: &str) -> NodeId {
        self.add_node(name, GateKind::Dff)
            .expect("duplicate dff name")
    }

    /// Connects the data input of a flip-flop declared with
    /// [`CircuitBuilder::dff_placeholder`].
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::NoSuchNode`] for bad ids.
    pub fn set_dff_input(&mut self, dff: NodeId, data: NodeId) -> Result<(), NetlistError> {
        self.set_fanins(dff, &[data])
    }

    /// Marks a node as a primary output. Duplicate marks are ignored.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not created by this builder.
    pub fn output(&mut self, id: NodeId) {
        assert!(id.index() < self.kinds.len(), "output id out of range");
        self.outputs.push(id);
    }

    /// Looks up a previously created signal by name.
    pub fn lookup(&self, name: &str) -> Option<NodeId> {
        self.names.get(name).copied()
    }

    /// Number of nodes added so far.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// Returns `true` if no nodes have been added.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// Validates and produces the immutable [`Circuit`].
    ///
    /// # Errors
    ///
    /// * [`NetlistError::BadArity`] if any declared gate never received its
    ///   fanins (the earliest-declared such gate is named).
    /// * [`NetlistError::Cyclic`] if the combinational graph has a cycle.
    /// * [`NetlistError::NoOutputs`] if no output was marked.
    pub fn finish(self) -> Result<Circuit, NetlistError> {
        let unconnected = |i: &usize| (self.rows[*i].1 as usize) < self.kinds[*i].arity().0;
        if let Some(i) = (0..self.kinds.len()).find(unconnected) {
            return Err(NetlistError::BadArity {
                node: self.name_of(NodeId::from_index(i)),
                kind: self.kinds[i].to_string(),
                got: 0,
            });
        }
        // Every count fits in u32: `set_fanins` checked the capacity.
        let mut fanin_offsets = Vec::with_capacity(self.kinds.len() + 1);
        let mut fanin_nodes = Vec::with_capacity(self.fanins.len());
        fanin_offsets.push(0u32);
        for &(start, len) in &self.rows {
            fanin_nodes.extend_from_slice(&self.fanins[start as usize..][..len as usize]);
            fanin_offsets.push(fanin_nodes.len() as u32);
        }
        let mut names = vec![String::new(); self.kinds.len()];
        for (name, id) in self.names {
            names[id.index()] = name;
        }
        Circuit::from_parts(
            self.name,
            names,
            self.kinds,
            fanin_offsets,
            fanin_nodes,
            self.outputs,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duplicate_gate_name_rejected() {
        let mut b = CircuitBuilder::new("t");
        let a = b.input("a");
        b.gate("g", GateKind::Buf, &[a]).unwrap();
        let err = b.gate("g", GateKind::Buf, &[a]).unwrap_err();
        assert_eq!(err, NetlistError::DuplicateName("g".into()));
    }

    #[test]
    fn bad_arity_rejected() {
        let mut b = CircuitBuilder::new("t");
        let a = b.input("a");
        let c = b.input("c");
        let err = b.gate("g", GateKind::Not, &[a, c]).unwrap_err();
        assert!(matches!(err, NetlistError::BadArity { got: 2, .. }));
    }

    #[test]
    fn undeclared_fanin_rejected() {
        let mut b = CircuitBuilder::new("t");
        let a = b.input("a");
        let err = b
            .gate("g", GateKind::And, &[a, NodeId::from_index(99)])
            .unwrap_err();
        assert_eq!(err, NetlistError::NoSuchNode(99));
    }

    #[test]
    fn pending_gate_fails_finish() {
        let mut b = CircuitBuilder::new("t");
        let a = b.input("a");
        b.declare_gate("g", GateKind::And).unwrap();
        b.output(a);
        assert!(matches!(
            b.finish().unwrap_err(),
            NetlistError::BadArity { got: 0, .. }
        ));
    }

    fn unconnected_name(b: CircuitBuilder) -> String {
        match b.finish().unwrap_err() {
            NetlistError::BadArity { node, got: 0, .. } => node,
            other => panic!("expected an unconnected gate, got {other:?}"),
        }
    }

    #[test]
    fn finish_names_the_gate_left_pending() {
        // Two pending gates, either one connected: the other is named.
        for connect_first in [true, false] {
            let mut b = CircuitBuilder::new("t");
            let a = b.input("a");
            let g1 = b.declare_gate("g1", GateKind::Not).unwrap();
            let g2 = b.declare_gate("g2", GateKind::Not).unwrap();
            b.set_fanins(if connect_first { g1 } else { g2 }, &[a])
                .unwrap();
            b.output(a);
            let expected = if connect_first { "g2" } else { "g1" };
            assert_eq!(unconnected_name(b), expected);
        }
        // Several left pending: the earliest-declared one is named.
        for connected in 0..3 {
            let mut b = CircuitBuilder::new("t");
            let a = b.input("a");
            let gates: Vec<NodeId> = (0..3)
                .map(|i| b.declare_gate(&format!("g{i}"), GateKind::Not).unwrap())
                .collect();
            b.set_fanins(gates[connected], &[a]).unwrap();
            b.output(a);
            let expected = if connected == 0 { "g1" } else { "g0" };
            assert_eq!(unconnected_name(b), expected);
        }
    }

    #[test]
    fn set_fanins_twice_keeps_the_last_connection() {
        let mut b = CircuitBuilder::new("t");
        let a = b.input("a");
        let c = b.input("c");
        let g = b.declare_gate("g", GateKind::Buf).unwrap();
        b.set_fanins(g, &[a]).unwrap();
        b.set_fanins(g, &[c]).unwrap();
        b.output(g);
        let circuit = b.finish().unwrap();
        assert_eq!(circuit.node(g).fanins(), &[c]);
    }

    #[test]
    fn unconnected_dff_placeholder_fails_finish() {
        let mut b = CircuitBuilder::new("t");
        let a = b.input("a");
        b.dff_placeholder("q");
        let g = b.gate("g", GateKind::Not, &[a]).unwrap();
        b.output(g);
        assert_eq!(unconnected_name(b), "q");
    }

    #[test]
    fn no_outputs_fails_finish() {
        let mut b = CircuitBuilder::new("t");
        b.input("a");
        assert_eq!(b.finish().unwrap_err(), NetlistError::NoOutputs);
    }

    #[test]
    fn combinational_cycle_detected() {
        let mut b = CircuitBuilder::new("t");
        let a = b.input("a");
        let g1 = b.declare_gate("g1", GateKind::And).unwrap();
        let g2 = b.gate("g2", GateKind::And, &[g1, a]).unwrap();
        b.set_fanins(g1, &[g2, a]).unwrap();
        b.output(g2);
        assert!(matches!(
            b.finish().unwrap_err(),
            NetlistError::Cyclic { .. }
        ));
    }

    #[test]
    fn dff_feedback_loop_is_legal() {
        let mut b = CircuitBuilder::new("t");
        let a = b.input("a");
        let q = b.dff_placeholder("q");
        let d = b.gate("d", GateKind::Xor, &[a, q]).unwrap();
        b.set_dff_input(q, d).unwrap();
        b.output(d);
        let c = b.finish().unwrap();
        assert_eq!(c.num_dffs(), 1);
    }

    #[test]
    fn duplicate_output_marks_ignored() {
        let mut b = CircuitBuilder::new("t");
        let a = b.input("a");
        let g = b.gate("g", GateKind::Buf, &[a]).unwrap();
        b.output(g);
        b.output(g);
        let c = b.finish().unwrap();
        assert_eq!(c.primary_outputs(), &[g]);
    }

    #[test]
    fn lookup_and_len() {
        let mut b = CircuitBuilder::new("t");
        assert!(b.is_empty());
        let a = b.input("a");
        assert_eq!(b.lookup("a"), Some(a));
        assert_eq!(b.lookup("zz"), None);
        assert_eq!(b.len(), 1);
    }
}
