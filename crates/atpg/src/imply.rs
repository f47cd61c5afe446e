//! The implication kernel shared by the ATPG search loops
//! ([`crate::podem`] and [`crate::path_atpg`]).
//!
//! A search changes one primary input per step: a decision assigns a
//! free input, and a backtrack flips the input of the latest unflipped
//! decision after undoing every later one. Every node value is a pure
//! function of the input assignment (plus the fixed fault model), so a
//! step only has to re-evaluate the fanout of the input it changed, and
//! a node whose re-evaluated value is unchanged cannot move its own
//! fanout.
//!
//! * **Flat arrays.** [`Net`] compiles a circuit once into gate op
//!   codes, fanin sources indexed by arc id, and the fanout sinks of
//!   every node as topological positions. An evaluation reads these and
//!   a byte per fanin; it never materializes a `NodeRef` or an `Edge`.
//! * **Two-rail values.** A value is the bit set of its machine
//!   components ([`GOOD_0`], [`GOOD_1`], [`FAULTY_0`], [`FAULTY_1`];
//!   none for X), the encoding of [`V5`](crate::value::V5). One pass
//!   over the fanins evaluates both machines, branch-free. A fault-free
//!   frame (three-valued logic) is the special case where both rails
//!   agree.
//! * **The fault model is folded in.** The stuck value is pinned on the
//!   faulty rail of the fault site, and a branch fault marks every other
//!   fanout arc of its driver as good-only: those arcs carry the good
//!   value on both rails.
//! * **Topologically ordered passes.** A changed node schedules its
//!   sinks in a bitset over topological positions, and a pass always
//!   evaluates the lowest scheduled position next. Sinks sit after their
//!   drivers, so a node is evaluated only after every scheduled fanin
//!   has settled, at most once per pass, and the result equals a full
//!   topological re-simulation.
//! * **Trail backtracking.** Every change is logged as (node, old
//!   value). A search takes a [`Implication::mark`] before each decision;
//!   a backtrack restores the mark of the decision it flips, which is
//!   exactly the implication of the assignment without that decision
//!   and every later one, and then implies only the flipped input.

use crate::value::{FAULTY_0, FAULTY_1, GOOD_0, GOOD_1};
use sdd_netlist::{Circuit, EdgeId, GateKind, NodeId};
use std::borrow::Cow;

/// The unknown value: no machine component is known.
pub(crate) const X: u8 = 0;
/// Both machines are 0.
const ZEROS: u8 = GOOD_0 | FAULTY_0;
/// Both machines are 1.
const ONES: u8 = GOOD_1 | FAULTY_1;
/// The good machine's bits.
const GOOD: u8 = GOOD_0 | GOOD_1;
/// The faulty machine's bits.
const FAULTY: u8 = FAULTY_0 | FAULTY_1;

/// Op code: AND over the fanins (also BUF and DFF, AND of one fanin).
const OP_AND: u8 = 0;
/// Op code: OR over the fanins.
const OP_OR: u8 = 1;
/// Op code: XOR over the fanins.
const OP_XOR: u8 = 2;
/// Op code: a primary input, never evaluated.
const OP_INPUT: u8 = 3;
/// Op flag: invert the result (NAND, NOR, XNOR, and NOT as NAND of one
/// fanin).
const OP_INVERT: u8 = 4;

/// Fanin-source flag: the arc carries only the good machine's value.
const GOOD_ONLY: u32 = 1 << 31;

/// The op code of a gate kind.
pub(crate) fn op_of(kind: GateKind) -> u8 {
    match kind {
        GateKind::Input => OP_INPUT,
        GateKind::Dff | GateKind::Buf | GateKind::And => OP_AND,
        GateKind::Not | GateKind::Nand => OP_AND | OP_INVERT,
        GateKind::Or => OP_OR,
        GateKind::Nor => OP_OR | OP_INVERT,
        GateKind::Xor => OP_XOR,
        GateKind::Xnor => OP_XOR | OP_INVERT,
    }
}

/// Evaluates a gate with op code `kind_op` ([`op_of`]) over two-rail
/// fanin values in one pass.
/// Equal to evaluating each machine with
/// [`V3::eval_gate`](crate::value::V3::eval_gate) and recombining them
/// with [`V5::from_parts`](crate::value::V5::from_parts): a result is X
/// unless both machines are known.
#[inline]
pub(crate) fn eval_bits(kind_op: u8, fanins: impl Iterator<Item = u8>) -> u8 {
    debug_assert_ne!(kind_op, OP_INPUT, "primary input has no logic function");
    // `any`: some fanin has the component; `all`: every fanin has it;
    // `parity`: odd count of 1-components; `known`: the machine is known
    // in every fanin (kept on the 0-bit positions).
    let (mut any, mut all, mut parity, mut known) = (0u8, GOOD | FAULTY, 0u8, ZEROS);
    for m in fanins {
        any |= m;
        all &= m;
        parity ^= m;
        known &= m | (m >> 1);
    }
    // A controlling input decides a machine of AND/OR; otherwise it is
    // known only if every input is non-controlling.
    let ones = (parity >> 1) & known;
    let out = [
        (any & ZEROS) | (all & ONES),
        (any & ONES) | (all & ZEROS),
        (known & !ones) | (ones << 1),
        X,
    ][usize::from(kind_op & 3)];
    let swapped = ((out & ZEROS) << 1) | ((out & ONES) >> 1);
    let out = if kind_op & OP_INVERT != 0 {
        swapped
    } else {
        out
    };
    // Known only when both machines are.
    let both = (out & GOOD != 0) & (out & FAULTY != 0);
    out & 0u8.wrapping_sub(u8::from(both))
}

/// The two-rail value of a concrete input value, in both machines.
pub(crate) fn from_bool(value: bool) -> u8 {
    if value {
        ONES
    } else {
        ZEROS
    }
}

/// The good machine's value, if known.
pub(crate) fn good(bits: u8) -> Option<bool> {
    match bits & GOOD {
        GOOD_0 => Some(false),
        GOOD_1 => Some(true),
        _ => None,
    }
}

/// Returns `true` for D or D̄: both machines known and different.
pub(crate) fn is_fault_effect(bits: u8) -> bool {
    bits == GOOD_1 | FAULTY_0 || bits == GOOD_0 | FAULTY_1
}

/// A circuit compiled into the flat arrays the kernel evaluates from.
/// Shared by every search state over the same circuit.
#[derive(Debug)]
pub(crate) struct Net {
    /// Gate kind per node.
    kind: Vec<GateKind>,
    /// Op code per node ([`op_of`]).
    op: Vec<u8>,
    /// Node `i`'s fanin arcs are `fanin_start[i] .. fanin_start[i + 1]`,
    /// which are also their edge ids.
    fanin_start: Vec<u32>,
    /// Driver node per arc, indexed by edge id.
    fanin_src: Vec<u32>,
    /// Node `i`'s fanout sinks are
    /// `fanout_sink[fanout_start[i] .. fanout_start[i + 1]]`.
    fanout_start: Vec<u32>,
    /// Topological position of the sink per fanout arc, ascending by
    /// edge id within a node.
    fanout_sink: Vec<u32>,
    /// Node id per topological position.
    topo: Vec<u32>,
}

impl Net {
    /// Compiles `circuit`.
    ///
    /// # Panics
    ///
    /// Panics if the circuit has `2^31` nodes or more (the fanin-source
    /// flag takes the top bit).
    pub(crate) fn new(circuit: &Circuit) -> Net {
        let n = circuit.num_nodes();
        assert!(n < GOOD_ONLY as usize, "circuit too large for the kernel");
        let mut net = Net {
            kind: Vec::with_capacity(n),
            op: Vec::with_capacity(n),
            fanin_start: Vec::with_capacity(n + 1),
            fanin_src: Vec::with_capacity(circuit.num_edges()),
            fanout_start: Vec::with_capacity(n + 1),
            fanout_sink: Vec::with_capacity(circuit.num_edges()),
            topo: circuit
                .topo_order()
                .iter()
                .map(|id| id.index() as u32)
                .collect(),
        };
        for id in circuit.node_ids() {
            let node = circuit.node(id);
            net.kind.push(node.kind());
            net.op.push(op_of(node.kind()));
            net.fanin_start.push(net.fanin_src.len() as u32);
            for (&from, &e) in node.fanins().iter().zip(node.fanin_edges()) {
                debug_assert_eq!(e.index(), net.fanin_src.len(), "arcs are node-contiguous");
                net.fanin_src.push(from.index() as u32);
            }
            net.fanout_start.push(net.fanout_sink.len() as u32);
            net.fanout_sink.extend(
                circuit
                    .fanout_edges(id)
                    .iter()
                    .map(|&e| circuit.topo_position(circuit.edge(e).to())),
            );
        }
        net.fanin_start.push(net.fanin_src.len() as u32);
        net.fanout_start.push(net.fanout_sink.len() as u32);
        net
    }

    /// The gate kind of `node`.
    #[inline]
    pub(crate) fn kind(&self, node: usize) -> GateKind {
        self.kind[node]
    }

    /// The fanin arc range of `node`.
    #[inline]
    fn fanin_range(&self, node: usize) -> std::ops::Range<usize> {
        self.fanin_start[node] as usize..self.fanin_start[node + 1] as usize
    }
}

/// An implication state over a [`Net`]: node values implied by a
/// partial input assignment, the trail that undoes them, and the
/// schedule of the current pass.
#[derive(Debug)]
pub(crate) struct Implication<'n> {
    net: &'n Net,
    /// Driver per arc, with [`GOOD_ONLY`] set on a branch fault's masked
    /// arcs (borrowed from the net when nothing is masked).
    src: Cow<'n, [u32]>,
    /// The fault site, `u32::MAX` without a fault.
    pin_node: u32,
    /// The stuck value's faulty-machine bit at the fault site.
    pin_bits: u8,
    /// Two-rail value per node.
    values: Vec<u8>,
    /// (node, value before the change), in change order.
    trail: Vec<(u32, u8)>,
    /// Bit `p` is set while the node at topological position `p` awaits
    /// re-evaluation in the current pass.
    scheduled: Vec<u64>,
    /// Words `low .. end` of `scheduled` hold every set bit (`low` is
    /// the word count and `end` 0 when nothing is scheduled).
    low: usize,
    end: usize,
}

impl<'n> Implication<'n> {
    /// The fault-free empty assignment, whose implication is all-X:
    /// every gate has a fanin, and a gate over all-X fanins is X.
    pub(crate) fn new(net: &'n Net) -> Implication<'n> {
        Implication {
            net,
            src: Cow::Borrowed(&net.fanin_src),
            pin_node: u32::MAX,
            pin_bits: 0,
            values: vec![X; net.kind.len()],
            trail: Vec::new(),
            scheduled: vec![0; net.topo.len().div_ceil(64)],
            low: net.topo.len().div_ceil(64),
            end: 0,
        }
    }

    /// The empty assignment with `site` stuck at `stuck` in the faulty
    /// machine. With `branch`, an arc driven by `site`, the fault sits
    /// on that arc only: every other fanout of `site` sees the good
    /// value. All-X is still the implication: at the site, an X good
    /// machine makes the value X.
    pub(crate) fn with_fault(
        net: &'n Net,
        site: NodeId,
        stuck: bool,
        branch: Option<EdgeId>,
    ) -> Implication<'n> {
        let mut state = Implication::new(net);
        state.pin_node = site.index() as u32;
        state.pin_bits = if stuck { FAULTY_1 } else { FAULTY_0 };
        if let Some(edge) = branch {
            let driver = site.index() as u32;
            debug_assert_eq!(
                net.fanin_src[edge.index()],
                driver,
                "the site drives the arc"
            );
            let src = state.src.to_mut();
            for (e, s) in src.iter_mut().enumerate() {
                if *s == driver && e != edge.index() {
                    *s |= GOOD_ONLY;
                }
            }
        }
        state
    }

    /// The net this state evaluates.
    #[inline]
    pub(crate) fn net(&self) -> &'n Net {
        self.net
    }

    /// The current two-rail value of `node`.
    #[inline]
    pub(crate) fn value(&self, node: usize) -> u8 {
        self.values[node]
    }

    /// Every node's current two-rail value.
    #[cfg(test)]
    pub(crate) fn values(&self) -> &[u8] {
        &self.values
    }

    /// The drivers of `node`'s fanin arcs in pin order, ignoring any
    /// branch-fault mask.
    #[inline]
    pub(crate) fn fanins(&self, node: usize) -> impl Iterator<Item = usize> + '_ {
        self.src[self.net.fanin_range(node)]
            .iter()
            .map(|&s| (s & !GOOD_ONLY) as usize)
    }

    /// Pins the fault site's faulty machine: the site shows the good
    /// machine's value there, or D / D̄ when it differs from the stuck
    /// value (X while the good machine is X).
    #[inline]
    fn pinned(&self, node: usize, bits: u8) -> u8 {
        if node as u32 != self.pin_node || bits & GOOD == 0 {
            bits
        } else {
            (bits & GOOD) | self.pin_bits
        }
    }

    /// The value `node` (a gate) implies from its fanins' current values.
    #[inline]
    pub(crate) fn eval(&self, node: usize) -> u8 {
        let values = &self.values;
        let fanins = self.src[self.net.fanin_range(node)].iter().map(|&s| {
            let m = values[(s & !GOOD_ONLY) as usize];
            if s & GOOD_ONLY == 0 {
                m
            } else {
                let g = m & GOOD;
                g | (g << 2)
            }
        });
        self.pinned(node, eval_bits(self.net.op[node], fanins))
    }

    /// A position in the trail: [`Implication::restore`] returns to the
    /// values current when it was taken.
    #[inline]
    pub(crate) fn mark(&self) -> usize {
        self.trail.len()
    }

    /// Undoes every change logged since `mark`. The queue must be empty:
    /// restore between passes, never inside one.
    pub(crate) fn restore(&mut self, mark: usize) {
        debug_assert_eq!(self.end, 0, "restore between passes");
        for (node, old) in self.trail.drain(mark..).rev() {
            self.values[node as usize] = old;
        }
    }

    /// Logs and stores a new value of `node` and schedules its sinks.
    #[inline]
    fn change(&mut self, node: usize, bits: u8) {
        self.trail.push((node as u32, self.values[node]));
        self.values[node] = bits;
        let net = self.net;
        for &pos in
            &net.fanout_sink[net.fanout_start[node] as usize..net.fanout_start[node + 1] as usize]
        {
            let word = pos as usize / 64;
            self.scheduled[word] |= 1 << (pos % 64);
            self.low = self.low.min(word);
            self.end = self.end.max(word + 1);
        }
    }

    /// Assigns (or, with `None`, frees) the primary input `pi`; the next
    /// [`Implication::propagate`] implies the change.
    pub(crate) fn set_input(&mut self, pi: NodeId, value: Option<bool>) {
        let node = pi.index();
        debug_assert_eq!(self.net.op[node], OP_INPUT, "decisions are made on inputs");
        let bits = self.pinned(node, value.map_or(X, from_bool));
        if bits != self.values[node] {
            self.change(node, bits);
        }
    }

    /// One implication pass over the nodes scheduled since the last one.
    pub(crate) fn propagate(&mut self) {
        // Always take the lowest scheduled position. Sinks sit at
        // strictly higher positions than their drivers, so the scan only
        // moves forward and a node is evaluated after all its scheduled
        // fanins, at most once per pass.
        let mut word = self.low;
        while word < self.end {
            let bits = self.scheduled[word];
            if bits == 0 {
                word += 1;
                continue;
            }
            self.scheduled[word] = bits & (bits - 1);
            let node = self.net.topo[word * 64 + bits.trailing_zeros() as usize] as usize;
            let value = self.eval(node);
            if value != self.values[node] {
                self.change(node, value);
            }
        }
        self.low = self.scheduled.len();
        self.end = 0;
    }

    /// The input assignment, read off the inputs' good machine.
    pub(crate) fn assignment(&self, inputs: &[NodeId]) -> Vec<Option<bool>> {
        inputs
            .iter()
            .map(|pi| good(self.values[pi.index()]))
            .collect()
    }
}

/// Test oracles and drivers: the per-node five-valued evaluation and
/// full sweep the kernel replaced, and random search-shaped step
/// sequences.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;
    use crate::value::{V3, V5};
    use rand::prelude::*;
    use rand_chacha::ChaCha8Rng;

    /// Full five-valued simulation of an input assignment under a fault
    /// model, one `NodeRef` evaluation per node in topological order.
    #[derive(Debug)]
    pub(crate) struct Oracle<'c> {
        circuit: &'c Circuit,
        /// (site, stuck value).
        pin: Option<(NodeId, bool)>,
        /// The branch fault's arc.
        branch: Option<EdgeId>,
        assignment: Vec<Option<bool>>,
        pi_position: Vec<Option<usize>>,
        pub(crate) values: Vec<V5>,
    }

    impl<'c> Oracle<'c> {
        pub(crate) fn new(
            circuit: &'c Circuit,
            pin: Option<(NodeId, bool)>,
            branch: Option<EdgeId>,
        ) -> Oracle<'c> {
            let mut pi_position = vec![None; circuit.num_nodes()];
            for (k, &pi) in circuit.primary_inputs().iter().enumerate() {
                pi_position[pi.index()] = Some(k);
            }
            Oracle {
                circuit,
                pin,
                branch,
                assignment: vec![None; circuit.primary_inputs().len()],
                pi_position,
                values: vec![V5::X; circuit.num_nodes()],
            }
        }

        pub(crate) fn assign(&mut self, pi: NodeId, value: Option<bool>) {
            let k = self.pi_position[pi.index()].expect("an input");
            self.assignment[k] = value;
        }

        /// The five-valued value of `id` implied by the assignment and
        /// the current values of its fanins.
        pub(crate) fn node_value(&self, id: NodeId) -> V5 {
            let node = self.circuit.node(id);
            let v = if node.kind() == GateKind::Input {
                let k = self.pi_position[id.index()].expect("input has a position");
                match self.assignment[k] {
                    Some(true) => V5::One,
                    Some(false) => V5::Zero,
                    None => V5::X,
                }
            } else {
                let branch_driver = self.branch.map(|e| self.circuit.edge(e).from());
                let fanins = node
                    .fanins()
                    .iter()
                    .zip(node.fanin_edges())
                    .map(|(&from, &e)| {
                        let fv = self.values[from.index()];
                        // Branch fault: the fault effect exists only on
                        // the faulted arc; every other fanout of the
                        // driver sees the good value.
                        if Some(from) == branch_driver && Some(e) != self.branch {
                            V5::from_parts(fv.good(), fv.good())
                        } else {
                            fv
                        }
                    });
                V5::eval_iter(node.kind(), fanins)
            };
            match self.pin {
                // The faulty machine is pinned to the stuck value at the
                // site; activation shows as D or D'.
                Some((site, stuck)) if site == id => V5::from_parts(v.good(), V3::from_bool(stuck)),
                _ => v,
            }
        }

        /// Re-simulates every node in topological order.
        pub(crate) fn sweep(&mut self) {
            for &id in self.circuit.topo_order() {
                self.values[id.index()] = self.node_value(id);
            }
        }

        /// Asserts that `state` holds exactly this oracle's values.
        pub(crate) fn assert_matches(&self, state: &Implication<'_>, what: &str) {
            let got: Vec<V5> = state
                .values()
                .iter()
                .map(|&b| V5::from_component_bits(b))
                .collect();
            assert_eq!(got, self.values, "{what}");
        }
    }

    /// A decision of a random step sequence: (frame, input, value,
    /// flipped, one trail mark per frame).
    struct Decision {
        frame: usize,
        pi: NodeId,
        value: bool,
        flipped: bool,
        marks: Vec<usize>,
    }

    /// Random search-shaped step sequences over one or more frames: each
    /// step is a decision on a free input or a backtrack that pops the
    /// flipped decisions on top of the stack and flips the next one,
    /// exactly the moves of the search loops. Every oracle mirrors the
    /// assignment.
    pub(crate) struct Steps {
        rng: ChaCha8Rng,
        stack: Vec<Decision>,
        /// Backtracks that popped at least two flipped decisions before
        /// their flip.
        pub(crate) deep_pops: usize,
    }

    impl Steps {
        pub(crate) fn new(seed: u64) -> Steps {
            Steps {
                rng: ChaCha8Rng::seed_from_u64(seed),
                stack: Vec::new(),
                deep_pops: 0,
            }
        }

        /// Takes one step on `frames`, mirrored on `oracles`, and runs
        /// one implication pass on every frame.
        pub(crate) fn step(
            &mut self,
            circuit: &Circuit,
            frames: &mut [&mut Implication<'_>],
            oracles: &mut [Oracle<'_>],
        ) {
            let pis = circuit.primary_inputs();
            let frame = self.rng.gen_range(0..frames.len());
            let free: Vec<NodeId> = pis
                .iter()
                .copied()
                .filter(|&pi| good(frames[frame].value(pi.index())).is_none())
                .collect();
            // Decide a little more often than backtrack, so the stack
            // builds runs of flipped decisions.
            if !free.is_empty() && (self.stack.is_empty() || self.rng.gen_bool(0.55)) {
                let pi = free[self.rng.gen_range(0..free.len())];
                let value = self.rng.gen();
                let marks = frames.iter().map(|f| f.mark()).collect();
                frames[frame].set_input(pi, Some(value));
                oracles[frame].assign(pi, Some(value));
                self.stack.push(Decision {
                    frame,
                    pi,
                    value,
                    flipped: false,
                    marks,
                });
            } else {
                let mut popped = 0;
                let mut bottom = None;
                loop {
                    let Some(top) = self.stack.last_mut() else {
                        // Exhausted: back to the empty assignment.
                        let marks: Vec<usize> = bottom.expect("the stack was not empty");
                        for (f, m) in frames.iter_mut().zip(marks) {
                            f.restore(m);
                        }
                        break;
                    };
                    if top.flipped {
                        let d = self.stack.pop().expect("non-empty");
                        oracles[d.frame].assign(d.pi, None);
                        bottom = Some(d.marks);
                        popped += 1;
                        continue;
                    }
                    top.flipped = true;
                    top.value = !top.value;
                    for (f, &m) in frames.iter_mut().zip(&top.marks) {
                        f.restore(m);
                    }
                    frames[top.frame].set_input(top.pi, Some(top.value));
                    oracles[top.frame].assign(top.pi, Some(top.value));
                    if popped >= 2 {
                        self.deep_pops += 1;
                    }
                    break;
                }
            }
            for (f, o) in frames.iter_mut().zip(oracles.iter_mut()) {
                f.propagate();
                o.sweep();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{V3, V5};
    use sdd_netlist::CircuitBuilder;

    const ALL: [V5; 5] = [V5::Zero, V5::One, V5::X, V5::D, V5::Db];

    /// A one-gate circuit over `k` inputs, plus a buffer on input
    /// `masked` whose arc is the branch fault (so the gate's arc from
    /// that input is good-only). `Dff` gates are built sequential.
    fn one_gate(
        kind: GateKind,
        k: usize,
        masked: Option<usize>,
    ) -> (Circuit, NodeId, Option<EdgeId>) {
        let mut b = CircuitBuilder::new("one");
        let ins: Vec<NodeId> = (0..k).map(|i| b.input(&format!("i{i}"))).collect();
        let g = if kind == GateKind::Dff {
            let q = b.dff_placeholder("g");
            b.set_dff_input(q, ins[0]).unwrap();
            q
        } else {
            b.gate("g", kind, &ins).unwrap()
        };
        b.output(g);
        let tap = masked.map(|p| {
            let t = b.gate("tap", GateKind::Buf, &[ins[p]]).unwrap();
            b.output(t);
            t
        });
        let c = b.finish().unwrap();
        let edge = tap.map(|t| c.node(t).fanin_edges()[0]);
        (c, g, edge)
    }

    /// The bit evaluator equals per-machine three-valued evaluation
    /// recombined by `V5::from_parts`, on every kind, 1–4 fanins and all
    /// 5^k fanin values: fault-free, with the fault pinned at the gate,
    /// and with a branch fault masking the gate's arc from each pin (the
    /// faulted arc is the driver's other fanout).
    #[test]
    fn differential_bit_evaluator_matches_componentwise_v3() {
        let kinds = [GateKind::Buf, GateKind::Dff, GateKind::Not]
            .into_iter()
            .chain(GateKind::MULTI_INPUT_KINDS);
        let mut checked = 0usize;
        for kind in kinds {
            let (lo, hi) = kind.arity();
            for k in lo..=hi.min(4) {
                // (masked pin, stuck value pinned at the gate)
                let models = [(None, None), (None, Some(false)), (None, Some(true))]
                    .into_iter()
                    .chain((0..k).map(|p| (Some(p), None)));
                for (masked, pin) in models {
                    let (c, g, edge) = one_gate(kind, k, masked);
                    let net = Net::new(&c);
                    let mut state = match (masked, pin) {
                        (Some(p), _) => {
                            Implication::with_fault(&net, c.primary_inputs()[p], false, edge)
                        }
                        (None, Some(stuck)) => Implication::with_fault(&net, g, stuck, None),
                        (None, None) => Implication::new(&net),
                    };
                    for code in 0..5usize.pow(k as u32) {
                        let inputs: Vec<V5> = (0..k)
                            .map(|i| ALL[code / 5usize.pow(i as u32) % 5])
                            .collect();
                        for (i, v) in inputs.iter().enumerate() {
                            state.values[c.primary_inputs()[i].index()] = v.component_bits();
                        }
                        let seen: Vec<V5> = inputs
                            .iter()
                            .enumerate()
                            .map(|(i, &v)| {
                                if Some(i) == masked {
                                    V5::from_parts(v.good(), v.good())
                                } else {
                                    v
                                }
                            })
                            .collect();
                        let good: Vec<V3> = seen.iter().map(|v| v.good()).collect();
                        let faulty: Vec<V3> = seen.iter().map(|v| v.faulty()).collect();
                        let mut expected = V5::from_parts(
                            V3::eval_gate(kind, &good),
                            V3::eval_gate(kind, &faulty),
                        );
                        if let Some(stuck) = pin {
                            expected = V5::from_parts(expected.good(), V3::from_bool(stuck));
                        }
                        assert_eq!(
                            V5::from_component_bits(state.eval(g.index())),
                            expected,
                            "{kind} {inputs:?} masked {masked:?} pin {pin:?}"
                        );
                        checked += 1;
                    }
                }
            }
        }
        assert!(checked > 30_000, "only {checked} cases");
    }
}
