//! PODEM automatic test pattern generation for stuck-at faults, plus
//! justification and a two-pattern wrapper for transition faults.
//!
//! The implementation is a textbook PODEM: decisions are made only on
//! primary inputs, objectives are derived from fault activation and the
//! D-frontier, and a backtrace walks each objective to an unassigned
//! input. Event-driven five-valued implication ([`crate::value::V5`])
//! re-evaluates the fanout of the inputs each step changed, giving the
//! same values as a full simulation of the assignment.

use crate::event::EventQueue;
use crate::fault::{StuckAtFault, StuckValue, TransitionDirection, TransitionFault};
use crate::fault_sim::stuck_at_detects_words;
use crate::pattern::{PatternSet, TestPattern};
use crate::value::{V3, V5};
use crate::AtpgError;
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use sdd_netlist::{Circuit, GateKind, NodeId};

/// Search budget for the PODEM decision loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PodemConfig {
    /// Maximum number of backtracks before aborting.
    pub max_backtracks: usize,
    /// Maximum number of implication passes. The search runs one pass
    /// per step (a decision, or a backtrack's undos and flip), which
    /// re-evaluates the fanout of the inputs that step changed; this is
    /// the knob that actually bounds wall-clock time on large circuits.
    pub max_implications: usize,
}

impl Default for PodemConfig {
    fn default() -> Self {
        PodemConfig {
            max_backtracks: 4000,
            max_implications: 40_000,
        }
    }
}

impl PodemConfig {
    /// A tight budget for bulk test generation over many candidate
    /// targets (diagnostic pattern generation): gives up quickly on
    /// hard-to-justify targets.
    pub fn bulk() -> Self {
        PodemConfig {
            max_backtracks: 200,
            max_implications: 1200,
        }
    }
}

/// A (possibly partial) primary-input assignment: `None` entries are
/// don't-cares.
pub type PiAssignment = Vec<Option<bool>>;

/// Fills the don't-cares of an assignment with seeded random values.
pub fn fill_assignment(assignment: &PiAssignment, seed: u64) -> Vec<bool> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    assignment
        .iter()
        .map(|v| v.unwrap_or_else(|| rng.gen()))
        .collect()
}

/// Combines two partial frame assignments into a *quiet* two-vector
/// pattern: every input that is free in a frame copies the other frame's
/// value (or a shared random fill when free in both), so don't-care
/// inputs do not switch. Quiet patterns concentrate switching activity on
/// the logic the test actually targets, which keeps the tested-delay
/// distribution dominated by the targeted paths.
///
/// Safe by monotonicity of three-valued implication: adding assignments
/// to don't-care inputs can never change a value the partial assignment
/// already implied.
///
/// # Panics
///
/// Panics if the assignments have different lengths.
pub fn fill_pattern_quiet(v1: &PiAssignment, v2: &PiAssignment, seed: u64) -> TestPattern {
    assert_eq!(
        v1.len(),
        v2.len(),
        "frame assignments must have equal length"
    );
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut a = Vec::with_capacity(v1.len());
    let mut b = Vec::with_capacity(v2.len());
    for (&x, &y) in v1.iter().zip(v2) {
        let (va, vb) = match (x, y) {
            (Some(p), Some(q)) => (p, q),
            (Some(p), None) => (p, p),
            (None, Some(q)) => (q, q),
            (None, None) => {
                let r = rng.gen();
                (r, r)
            }
        };
        a.push(va);
        b.push(vb);
    }
    TestPattern::new(a, b)
}

/// Generates a test vector detecting the given stuck-at fault.
///
/// Returns a partial assignment over the primary inputs; unassigned
/// inputs are free (see [`fill_assignment`]).
///
/// # Errors
///
/// * [`AtpgError::Untestable`] when the search space is exhausted (the
///   fault is redundant).
/// * [`AtpgError::Aborted`] when the backtrack budget runs out.
/// * [`AtpgError::SequentialCircuit`] for non-scan circuits.
///
/// # Example
///
/// ```
/// use sdd_atpg::podem::{generate, PodemConfig};
/// use sdd_atpg::{StuckAtFault, StuckValue};
/// use sdd_netlist::{CircuitBuilder, GateKind};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = CircuitBuilder::new("t");
/// let a = b.input("a");
/// let c = b.input("c");
/// let y = b.gate("y", GateKind::And, &[a, c])?;
/// b.output(y);
/// let circuit = b.finish()?;
/// // a stuck-at-0 needs a=1, c=1.
/// let t = generate(&circuit, StuckAtFault::new(a, StuckValue::Zero),
///                  PodemConfig::default())?;
/// assert_eq!(t, vec![Some(true), Some(true)]);
/// # Ok(())
/// # }
/// ```
pub fn generate(
    circuit: &Circuit,
    fault: StuckAtFault,
    config: PodemConfig,
) -> Result<PiAssignment, AtpgError> {
    if !circuit.is_combinational() {
        return Err(AtpgError::SequentialCircuit);
    }
    if fault.node.index() >= circuit.num_nodes() {
        return Err(AtpgError::NoSuchElement(format!("node {}", fault.node)));
    }
    let mut engine = Engine::new(circuit, fault);
    engine.run(config)
}

/// Finds a vector that justifies `value` on `node` (used to build the
/// initialization vector of two-pattern tests).
///
/// # Errors
///
/// Same conditions as [`generate`].
pub fn justify(
    circuit: &Circuit,
    node: NodeId,
    value: bool,
    config: PodemConfig,
) -> Result<PiAssignment, AtpgError> {
    if !circuit.is_combinational() {
        return Err(AtpgError::SequentialCircuit);
    }
    if node.index() >= circuit.num_nodes() {
        return Err(AtpgError::NoSuchElement(format!("node {node}")));
    }
    // Justification is PODEM with a pseudo-fault that is "activated" when
    // the node reaches `value` and needs no propagation.
    let fault = StuckAtFault::new(
        node,
        if value {
            StuckValue::Zero
        } else {
            StuckValue::One
        },
    );
    let mut engine = Engine::new(circuit, fault);
    engine.justify_only = true;
    engine.run(config)
}

/// Generates a two-pattern transition-fault test: `v1` sets the fault
/// site to the transition's initial value, `v2` detects the corresponding
/// stuck-at fault (slow-to-rise ⇒ stuck-at-0 in the second frame).
///
/// The site of a [`TransitionFault`] is an arc; the logic condition is
/// evaluated at the arc's *driver* signal (the transition that must pass
/// through the segment).
///
/// # Errors
///
/// Same conditions as [`generate`]; either frame may fail.
pub fn generate_transition_test(
    circuit: &Circuit,
    fault: TransitionFault,
    config: PodemConfig,
    seed: u64,
) -> Result<TestPattern, AtpgError> {
    let (v1, v2) = generate_transition_assignments(circuit, fault, config)?;
    Ok(fill_pattern_quiet(&v1, &v2, seed))
}

/// The partial frame assignments of a transition-fault test, before
/// don't-care filling. Expose this to generate many fills of one search
/// result cheaply: the PODEM search is deterministic, so callers wanting
/// several patterns per fault should run it once and call
/// [`fill_pattern_quiet`] with different seeds.
///
/// # Errors
///
/// Same conditions as [`generate`]; either frame may fail.
pub fn generate_transition_assignments(
    circuit: &Circuit,
    fault: TransitionFault,
    config: PodemConfig,
) -> Result<(PiAssignment, PiAssignment), AtpgError> {
    generate_transition_assignments_diverse(circuit, fault, config, None)
}

/// [`generate_transition_assignments`] with seeded randomization of the
/// PODEM backtrace choices: different seeds justify and propagate the
/// fault through different paths, producing structurally diverse tests
/// for the same fault — the key to diagnostic resolution.
///
/// # Errors
///
/// Same conditions as [`generate`]; either frame may fail.
pub fn generate_transition_assignments_diverse(
    circuit: &Circuit,
    fault: TransitionFault,
    config: PodemConfig,
    decision_seed: Option<u64>,
) -> Result<(PiAssignment, PiAssignment), AtpgError> {
    if fault.edge.index() >= circuit.num_edges() {
        return Err(AtpgError::NoSuchElement(format!("edge {}", fault.edge)));
    }
    let driver = circuit.edge(fault.edge).from();
    let stuck = match fault.direction {
        TransitionDirection::Rise => StuckValue::Zero,
        TransitionDirection::Fall => StuckValue::One,
    };
    // Branch fault at the arc: the test must propagate the fault effect
    // through this specific segment, not just some fanout of the driver.
    let mut engine = Engine::new(circuit, StuckAtFault::new(driver, stuck));
    engine.set_fault_edge(fault.edge);
    engine.decision_rng = decision_seed.map(ChaCha8Rng::seed_from_u64);
    let v2 = engine.run(config)?;
    let mut engine = Engine::new(
        circuit,
        StuckAtFault::new(
            driver,
            if fault.direction.initial() {
                StuckValue::Zero
            } else {
                StuckValue::One
            },
        ),
    );
    engine.justify_only = true;
    engine.decision_rng = decision_seed.map(|s| ChaCha8Rng::seed_from_u64(s ^ 0xF00D));
    let v1 = engine.run(config)?;
    Ok((v1, v2))
}

/// Result of fault-list stuck-at test generation
/// ([`stuck_at_test_set`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StuckAtTestSet {
    /// The accepted tests, in canonical fault order. Each pattern is
    /// *static* (`v1 == v2`): stuck-at tests are single vectors.
    pub patterns: PatternSet,
    /// `detected[i]` is `true` iff fault `i` is detected by some pattern
    /// in the set (its own test, or an earlier fault's via dropping).
    pub detected: Vec<bool>,
    /// Number of faults for which PODEM was run and produced a test.
    pub generated: usize,
    /// Number of faults skipped entirely because an already-accepted
    /// test covered them (fault dropping).
    pub dropped: usize,
}

/// Number of faults speculatively searched per parallel wave.
const PODEM_WAVE: usize = 16;

/// Accepted test vectors packed 64 per lane for bit-parallel
/// fault-dropping via [`stuck_at_detects_words`]: one `u64` per primary
/// input, bit `k` of every word holding lane `k`'s vector.
struct PackedVectors {
    words: Vec<u64>,
    lanes: u32,
}

impl PackedVectors {
    fn detects(&self, circuit: &Circuit, fault: StuckAtFault) -> bool {
        // Unused lanes simulate the all-zero vector, which may well
        // detect the fault; mask them out so only accepted vectors count.
        let valid = if self.lanes == 64 {
            !0u64
        } else {
            (1u64 << self.lanes) - 1
        };
        stuck_at_detects_words(circuit, fault, &self.words)
            .iter()
            .any(|&w| w & valid != 0)
    }
}

/// Generates tests for a fault list with bit-parallel fault dropping:
/// faults already detected by an accepted test skip PODEM entirely.
///
/// PODEM searches run concurrently (rayon), but acceptance is replayed
/// serially in fault-list order and each fill is keyed on
/// `(seed, fault index)`, so the result is bit-identical to a serial
/// drop-check/generate/fill loop over the list at any thread count —
/// [`generate`] is pure in `(circuit, fault, config)`, so speculating it
/// for a fault that ends up dropped changes nothing but wasted work.
///
/// Dropping is sound without re-simulating generated tests: a PODEM
/// success means the partial assignment propagates a fault effect to an
/// output under five-valued simulation, and three-valued monotonicity
/// guarantees any completion of the don't-cares still detects, so every
/// accepted vector detects its own target fault by construction.
///
/// Untestable or aborted faults are simply left undetected; per-fault
/// errors are not reported (use [`generate`] to probe one fault).
pub fn stuck_at_test_set(
    circuit: &Circuit,
    faults: &[StuckAtFault],
    config: PodemConfig,
    seed: u64,
) -> StuckAtTestSet {
    let mut detected = vec![false; faults.len()];
    let mut patterns = PatternSet::new();
    let mut generated = 0usize;
    let mut dropped = 0usize;
    let mut groups: Vec<PackedVectors> = Vec::new();
    let n_pi = circuit.primary_inputs().len();

    let mut next = 0usize;
    while next < faults.len() {
        // Collect the next wave of targets still undetected as of the
        // wave boundary, then search them concurrently. A fault dropped
        // mid-wave wastes its speculative search; it is still skipped at
        // acceptance, so the output does not depend on the wave size.
        let mut wave: Vec<usize> = Vec::with_capacity(PODEM_WAVE);
        while next < faults.len() && wave.len() < PODEM_WAVE {
            if !detected[next] {
                wave.push(next);
            }
            next += 1;
        }
        if wave.is_empty() {
            break;
        }
        let speculative: Vec<Option<PiAssignment>> = wave
            .par_iter()
            .map(|&ix| generate(circuit, faults[ix], config).ok())
            .collect();
        // Canonical serial acceptance in fault-list order.
        for (&ix, spec) in wave.iter().zip(speculative) {
            if groups.iter().any(|g| g.detects(circuit, faults[ix])) {
                detected[ix] = true;
                dropped += 1;
                continue;
            }
            let Some(assignment) = spec else { continue };
            let fill_seed = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(ix as u64);
            let vector = fill_assignment(&assignment, fill_seed);
            if groups.last().is_none_or(|g| g.lanes == 64) {
                groups.push(PackedVectors {
                    words: vec![0u64; n_pi],
                    lanes: 0,
                });
            }
            let group = groups.last_mut().expect("group was just ensured");
            for (word, &bit) in group.words.iter_mut().zip(&vector) {
                if bit {
                    *word |= 1u64 << group.lanes;
                }
            }
            group.lanes += 1;
            patterns.push(TestPattern::new(vector.clone(), vector));
            detected[ix] = true;
            generated += 1;
        }
    }
    StuckAtTestSet {
        patterns,
        detected,
        generated,
        dropped,
    }
}

struct Engine<'a> {
    circuit: &'a Circuit,
    fault: StuckAtFault,
    /// Seeded randomization of backtrace choices; `None` picks the first
    /// unassigned fanin deterministically.
    decision_rng: Option<ChaCha8Rng>,
    /// When set, the stuck value applies only to this arc (a *branch*
    /// fault): the faulty machine sees it at the arc's sink pin, while
    /// the driver's other fanouts see the good value. `fault.node` is the
    /// arc's driver. Set through [`Engine::set_fault_edge`].
    fault_edge: Option<sdd_netlist::EdgeId>,
    /// The driver of `fault_edge`.
    branch_driver: Option<NodeId>,
    values: Vec<V5>,
    pi_assignment: Vec<Option<bool>>,
    pi_position: Vec<Option<usize>>,
    /// Inputs changed since the last implication pass wait here.
    events: EventQueue,
    /// The transitive fanout cone of the fault site, ascending by id:
    /// the only nodes that can carry a fault effect, and hence the only
    /// D-frontier candidates.
    cone: Vec<NodeId>,
    justify_only: bool,
}

/// The transitive fanout cone of `seed` (inclusive), ascending by id.
fn sorted_fanout_cone(circuit: &Circuit, seed: NodeId) -> Vec<NodeId> {
    let mut cone = circuit.fanout_cone(seed);
    cone.sort_unstable();
    cone
}

struct Decision {
    pi: NodeId,
    value: bool,
    flipped: bool,
}

impl<'a> Engine<'a> {
    fn new(circuit: &'a Circuit, fault: StuckAtFault) -> Self {
        let mut pi_position = vec![None; circuit.num_nodes()];
        for (k, &pi) in circuit.primary_inputs().iter().enumerate() {
            pi_position[pi.index()] = Some(k);
        }
        // All-X values are the implication of the empty assignment: every
        // gate has a fanin, and a gate over all-X fanins evaluates to X
        // (at the fault site, X in the good machine recombines to X).
        Engine {
            circuit,
            fault,
            decision_rng: None,
            fault_edge: None,
            branch_driver: None,
            values: vec![V5::X; circuit.num_nodes()],
            pi_assignment: vec![None; circuit.primary_inputs().len()],
            pi_position,
            events: EventQueue::new(circuit),
            cone: sorted_fanout_cone(circuit, fault.node),
            justify_only: false,
        }
    }

    /// Turns the fault into a branch fault on `edge` (whose driver must
    /// be the fault site).
    fn set_fault_edge(&mut self, edge: sdd_netlist::EdgeId) {
        self.fault_edge = Some(edge);
        self.branch_driver = Some(self.circuit.edge(edge).from());
    }

    /// Assigns (or, with `None`, frees) a primary input and schedules it
    /// for the next implication pass.
    fn assign(&mut self, pi: NodeId, value: Option<bool>) {
        let k = self.pi_position[pi.index()].expect("decisions are made on inputs");
        self.pi_assignment[k] = value;
        self.events.schedule(self.circuit, pi);
    }

    /// The five-valued value of `id` implied by the current assignment
    /// and the current values of its fanins.
    fn node_value(&self, id: NodeId) -> V5 {
        let node = self.circuit.node(id);
        let v = if node.kind() == GateKind::Input {
            let k = self.pi_position[id.index()].expect("input has a position");
            match self.pi_assignment[k] {
                Some(true) => V5::One,
                Some(false) => V5::Zero,
                None => V5::X,
            }
        } else {
            let fanins = node
                .fanins()
                .iter()
                .zip(node.fanin_edges())
                .map(|(&from, &e)| {
                    let fv = self.values[from.index()];
                    // Branch fault: the fault effect exists only on the
                    // faulted arc; every other fanout of the driver sees the
                    // good value.
                    if Some(from) == self.branch_driver && Some(e) != self.fault_edge {
                        V5::from_parts(fv.good(), fv.good())
                    } else {
                        fv
                    }
                });
            V5::eval_iter(node.kind(), fanins)
        };
        if id == self.fault.node && !self.justify_only {
            // Fault site (the arc's driver for branch faults): the faulty
            // machine is pinned to the stuck value; activation shows as D
            // or D'.
            let faulty = V3::from_bool(self.fault.value.as_bool());
            V5::from_parts(v.good(), faulty)
        } else {
            v
        }
    }

    /// Re-evaluates `id`; returns whether its value changed.
    fn update(&mut self, id: NodeId) -> bool {
        let v = self.node_value(id);
        let changed = self.values[id.index()] != v;
        self.values[id.index()] = v;
        changed
    }

    /// Event-driven five-valued implication of the inputs changed since
    /// the last pass: equal to a full re-simulation of the assignment.
    fn imply(&mut self) {
        let mut events = std::mem::take(&mut self.events);
        events.propagate(self.circuit, |id| self.update(id));
        self.events = events;
    }

    /// Full five-valued simulation of the assignment: the oracle the
    /// differential tests compare [`Engine::imply`] against.
    #[cfg(test)]
    fn imply_full(&mut self) {
        for &id in self.circuit.topo_order() {
            self.update(id);
        }
    }

    fn activation_target(&self) -> bool {
        // Good value needed at the fault site to activate (or to justify).
        !self.fault.value.as_bool()
    }

    fn activated(&self) -> bool {
        self.values[self.fault.node.index()].good() == V3::from_bool(self.activation_target())
    }

    fn activation_conflicted(&self) -> bool {
        self.values[self.fault.node.index()].good() == V3::from_bool(!self.activation_target())
    }

    fn detected(&self) -> bool {
        self.circuit
            .primary_outputs()
            .iter()
            .any(|o| self.values[o.index()].is_fault_effect())
    }

    /// The first D-frontier gate in node-id order, with the objective of
    /// setting one of its X side inputs to the non-controlling value.
    ///
    /// A fault effect can only sit in the fault site's fanout cone, so
    /// scanning the id-sorted cone finds the same gate as scanning every
    /// node.
    ///
    /// For a branch fault the scan reads the driver's *raw* value, so a
    /// D/D' driver puts X-valued gates on its other fanouts into the
    /// frontier although they see the good value there (their
    /// implication masks the effect). The search is pinned to this
    /// behaviour: changing it would change search decisions, and with
    /// them the campaign's pattern sets and Table-I numbers.
    fn d_frontier_objective(&self) -> Option<(NodeId, bool)> {
        self.d_frontier_among(self.cone.iter().copied())
    }

    /// [`Engine::d_frontier_objective`] over explicit candidates, scanned
    /// in the order given.
    fn d_frontier_among(&self, candidates: impl Iterator<Item = NodeId>) -> Option<(NodeId, bool)> {
        for id in candidates {
            let node = self.circuit.node(id);
            if node.kind() == GateKind::Input || self.values[id.index()] != V5::X {
                continue;
            }
            let has_effect = node
                .fanins()
                .iter()
                .any(|f| self.values[f.index()].is_fault_effect());
            if !has_effect {
                continue;
            }
            // Objective: set an X side input to the non-controlling value.
            if let Some(&x_input) = node
                .fanins()
                .iter()
                .find(|f| self.values[f.index()] == V5::X)
            {
                let target = match node.kind().controlling_value() {
                    Some(c) => !c,
                    None => false, // XOR/XNOR: any fixed value propagates
                };
                return Some((x_input, target));
            }
        }
        None
    }

    /// Walks an objective back to an unassigned primary input.
    fn backtrace(&mut self, mut node: NodeId, mut value: bool) -> Option<(NodeId, bool)> {
        loop {
            let n = self.circuit.node(node);
            if n.kind() == GateKind::Input {
                return Some((node, value));
            }
            if n.kind().inverts() {
                value = !value;
            }
            // Follow an X-valued fanin: the first one deterministically,
            // or a random one when diversified test generation is
            // requested (different choices sensitize different paths).
            let values = &self.values;
            let is_x = |f: &&NodeId| values[f.index()] == V5::X;
            let n_x = n.fanins().iter().filter(is_x).count();
            if n_x == 0 {
                return None;
            }
            let pick = match &mut self.decision_rng {
                Some(rng) => rng.gen_range(0..n_x),
                None => 0,
            };
            node = *n
                .fanins()
                .iter()
                .filter(is_x)
                .nth(pick)
                .expect("pick is below the X-fanin count");
        }
    }

    /// Names the search in error reports.
    fn what(&self) -> String {
        if self.justify_only {
            format!("justification of {}", self.fault.node)
        } else {
            format!("test for {}", self.fault)
        }
    }

    fn run(&mut self, config: PodemConfig) -> Result<PiAssignment, AtpgError> {
        let mut stack: Vec<Decision> = Vec::new();
        let mut backtracks = 0usize;
        let mut implications = 0usize;
        loop {
            implications += 1;
            if implications > config.max_implications {
                return Err(AtpgError::Aborted {
                    what: self.what(),
                    backtracks,
                });
            }
            self.imply();
            let success = if self.justify_only {
                self.activated()
            } else {
                self.detected()
            };
            if success {
                return Ok(self.pi_assignment.clone());
            }
            // Determine the next objective, or detect a dead end.
            let objective = if self.activation_conflicted() {
                None
            } else if !self.activated() {
                Some((self.fault.node, self.activation_target()))
            } else if self.justify_only {
                // activated, but success check said no — unreachable
                None
            } else {
                self.d_frontier_objective()
            };
            let choice = objective.and_then(|(n, v)| self.backtrace(n, v));
            match choice {
                Some((pi, value)) => {
                    // Backtrace stops only at X-valued, i.e. free, inputs.
                    debug_assert_eq!(self.values[pi.index()], V5::X);
                    self.assign(pi, Some(value));
                    stack.push(Decision {
                        pi,
                        value,
                        flipped: false,
                    });
                }
                None => {
                    // Dead end: backtrack.
                    loop {
                        let Some(top) = stack.last_mut() else {
                            return Err(AtpgError::Untestable { what: self.what() });
                        };
                        let pi = top.pi;
                        if top.flipped {
                            stack.pop();
                            self.assign(pi, None);
                            continue;
                        }
                        top.flipped = true;
                        top.value = !top.value;
                        let value = top.value;
                        self.assign(pi, Some(value));
                        break;
                    }
                    backtracks += 1;
                    if backtracks > config.max_backtracks {
                        return Err(AtpgError::Aborted {
                            what: self.what(),
                            backtracks,
                        });
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdd_netlist::logic;
    use sdd_netlist::CircuitBuilder;

    fn c17_like() -> Circuit {
        // A small reconvergent circuit (NAND network like ISCAS c17).
        let mut b = CircuitBuilder::new("c17");
        let i1 = b.input("i1");
        let i2 = b.input("i2");
        let i3 = b.input("i3");
        let i4 = b.input("i4");
        let i5 = b.input("i5");
        let g1 = b.gate("g1", GateKind::Nand, &[i1, i3]).unwrap();
        let g2 = b.gate("g2", GateKind::Nand, &[i3, i4]).unwrap();
        let g3 = b.gate("g3", GateKind::Nand, &[i2, g2]).unwrap();
        let g4 = b.gate("g4", GateKind::Nand, &[g2, i5]).unwrap();
        let g5 = b.gate("g5", GateKind::Nand, &[g1, g3]).unwrap();
        let g6 = b.gate("g6", GateKind::Nand, &[g3, g4]).unwrap();
        b.output(g5);
        b.output(g6);
        b.finish().unwrap()
    }

    /// Checks by exhaustive boolean simulation that `v` detects `fault`.
    fn verify_detects(circuit: &Circuit, fault: StuckAtFault, v: &[bool]) -> bool {
        let good = logic::simulate(circuit, v);
        // Faulty simulation: force the node.
        let mut faulty = vec![false; circuit.num_nodes()];
        for (&pi, &val) in circuit.primary_inputs().iter().zip(v) {
            faulty[pi.index()] = val;
        }
        for &id in circuit.topo_order() {
            let node = circuit.node(id);
            if node.kind() != GateKind::Input {
                let ins: Vec<bool> = node.fanins().iter().map(|f| faulty[f.index()]).collect();
                faulty[id.index()] = node.kind().eval(&ins);
            }
            if id == fault.node {
                faulty[id.index()] = fault.value.as_bool();
            }
        }
        circuit
            .primary_outputs()
            .iter()
            .any(|o| good[o.index()] != faulty[o.index()])
    }

    #[test]
    fn generates_tests_for_every_testable_fault() {
        let c = c17_like();
        let mut generated = 0;
        for fault in StuckAtFault::all(&c) {
            match generate(&c, fault, PodemConfig::default()) {
                Ok(assignment) => {
                    let v = fill_assignment(&assignment, 9);
                    assert!(
                        verify_detects(&c, fault, &v),
                        "pattern {v:?} does not detect {fault}"
                    );
                    generated += 1;
                }
                Err(AtpgError::Untestable { .. }) => {}
                Err(e) => panic!("unexpected error for {fault}: {e}"),
            }
        }
        // c17 is fully testable.
        assert_eq!(generated, StuckAtFault::all(&c).len());
    }

    #[test]
    fn redundant_fault_is_untestable() {
        // y = OR(a, NOT(a)) is constant 1: y stuck-at-1 is undetectable.
        let mut b = CircuitBuilder::new("red");
        let a = b.input("a");
        let na = b.gate("na", GateKind::Not, &[a]).unwrap();
        let y = b.gate("y", GateKind::Or, &[a, na]).unwrap();
        b.output(y);
        let c = b.finish().unwrap();
        let err = generate(
            &c,
            StuckAtFault::new(y, StuckValue::One),
            PodemConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, AtpgError::Untestable { .. }));
    }

    #[test]
    fn justify_reaches_internal_targets() {
        let c = c17_like();
        for id in c.node_ids() {
            for value in [false, true] {
                if let Ok(assignment) = justify(&c, id, value, PodemConfig::default()) {
                    let v = fill_assignment(&assignment, 3);
                    let sim = logic::simulate(&c, &v);
                    assert_eq!(sim[id.index()], value, "justify({id}, {value})");
                }
            }
        }
    }

    #[test]
    fn justify_constant_is_one_sided() {
        // g = AND(a, NOT(a)) is constant 0.
        let mut b = CircuitBuilder::new("k0");
        let a = b.input("a");
        let na = b.gate("na", GateKind::Not, &[a]).unwrap();
        let g = b.gate("g", GateKind::And, &[a, na]).unwrap();
        b.output(g);
        let c = b.finish().unwrap();
        assert!(justify(&c, g, false, PodemConfig::default()).is_ok());
        assert!(matches!(
            justify(&c, g, true, PodemConfig::default()),
            Err(AtpgError::Untestable { .. })
        ));
    }

    #[test]
    fn transition_test_launches_and_detects() {
        let c = c17_like();
        let mut tested = 0;
        for eid in c.edge_ids() {
            for dir in [TransitionDirection::Rise, TransitionDirection::Fall] {
                let fault = TransitionFault::new(eid, dir);
                if let Ok(p) = generate_transition_test(&c, fault, PodemConfig::default(), 5) {
                    let driver = c.edge(eid).from();
                    let before = logic::simulate(&c, &p.v1);
                    let after = logic::simulate(&c, &p.v2);
                    assert_eq!(before[driver.index()], dir.initial());
                    assert_eq!(after[driver.index()], dir.final_value());
                    tested += 1;
                }
            }
        }
        assert!(tested > 10, "only {tested} transition tests generated");
    }

    #[test]
    fn sequential_circuit_rejected() {
        let mut b = CircuitBuilder::new("seq");
        let a = b.input("a");
        let q = b.dff_placeholder("q");
        let d = b.gate("d", GateKind::Nand, &[a, q]).unwrap();
        b.set_dff_input(q, d).unwrap();
        b.output(d);
        let c = b.finish().unwrap();
        assert_eq!(
            generate(
                &c,
                StuckAtFault::new(a, StuckValue::Zero),
                PodemConfig::default()
            )
            .unwrap_err(),
            AtpgError::SequentialCircuit
        );
    }

    #[test]
    fn fill_assignment_respects_fixed_bits() {
        let a = vec![Some(true), None, Some(false)];
        let filled = fill_assignment(&a, 1);
        assert!(filled[0]);
        assert!(!filled[2]);
    }

    /// The canonical serial semantics `stuck_at_test_set` must reproduce:
    /// drop-check against accepted vectors, then generate, in list order.
    fn naive_serial_test_set(
        circuit: &Circuit,
        faults: &[StuckAtFault],
        config: PodemConfig,
        seed: u64,
    ) -> StuckAtTestSet {
        let mut detected = vec![false; faults.len()];
        let mut patterns = PatternSet::new();
        let mut accepted: Vec<Vec<bool>> = Vec::new();
        let (mut generated, mut dropped) = (0usize, 0usize);
        for (ix, &fault) in faults.iter().enumerate() {
            if accepted.iter().any(|v| verify_detects(circuit, fault, v)) {
                detected[ix] = true;
                dropped += 1;
                continue;
            }
            let Ok(assignment) = generate(circuit, fault, config) else {
                continue;
            };
            let fill_seed = seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(ix as u64);
            let vector = fill_assignment(&assignment, fill_seed);
            accepted.push(vector.clone());
            patterns.push(TestPattern::new(vector.clone(), vector));
            detected[ix] = true;
            generated += 1;
        }
        StuckAtTestSet {
            patterns,
            detected,
            generated,
            dropped,
        }
    }

    #[test]
    fn test_set_matches_naive_serial_reference() {
        let c = c17_like();
        let faults = StuckAtFault::all(&c);
        let fast = stuck_at_test_set(&c, &faults, PodemConfig::default(), 7);
        let slow = naive_serial_test_set(&c, &faults, PodemConfig::default(), 7);
        assert_eq!(fast, slow);
        // c17 is fully testable, so dropping must not lose coverage.
        assert!(fast.detected.iter().all(|&d| d));
        assert_eq!(fast.generated + fast.dropped, faults.len());
    }

    #[test]
    fn test_set_drops_redundant_work() {
        let c = c17_like();
        let faults = StuckAtFault::all(&c);
        let set = stuck_at_test_set(&c, &faults, PodemConfig::default(), 1);
        // Fault dropping must fire: a c17-sized list shares many tests.
        assert!(set.dropped > 0, "no faults were dropped");
        assert!(set.patterns.len() < faults.len());
        // Every accepted pattern is static and every detected fault is
        // covered by at least one accepted vector.
        for p in set.patterns.iter() {
            assert_eq!(p.v1, p.v2);
        }
        for (ix, &fault) in faults.iter().enumerate() {
            if set.detected[ix] {
                assert!(
                    set.patterns
                        .iter()
                        .any(|p| verify_detects(&c, fault, &p.v1)),
                    "{fault} marked detected but no pattern covers it"
                );
            }
        }
    }

    #[test]
    fn test_set_skips_untestable_and_out_of_range_faults() {
        let mut b = CircuitBuilder::new("red");
        let a = b.input("a");
        let na = b.gate("na", GateKind::Not, &[a]).unwrap();
        let y = b.gate("y", GateKind::Or, &[a, na]).unwrap();
        b.output(y);
        let c = b.finish().unwrap();
        // y is constant 1, so y s-a-1 is redundant while y s-a-0 tests.
        let faults = vec![
            StuckAtFault::new(y, StuckValue::One),
            StuckAtFault::new(y, StuckValue::Zero),
        ];
        let set = stuck_at_test_set(&c, &faults, PodemConfig::default(), 3);
        assert!(!set.detected[0]);
        assert!(set.detected[1]);
        assert_eq!(set.generated, 1);
    }

    fn profile_circuit(name: &str) -> Circuit {
        let profile = sdd_netlist::profiles::by_name(name).expect("known profile");
        sdd_netlist::generator::generate(&profile.to_config(2))
            .expect("profile generates")
            .to_combinational()
            .expect("scan cut")
    }

    /// One step of a search on `pi`: a decision, a flip or an undo.
    fn random_step(rng: &mut ChaCha8Rng, current: Option<bool>) -> Option<bool> {
        match (current, rng.gen_range(0..3)) {
            (Some(v), 0) => Some(!v),
            (Some(_), 1) => None,
            _ => Some(rng.gen()),
        }
    }

    /// Drives an event-driven engine and a full-sweep engine through the
    /// same random decision/flip/undo sequence and compares every value
    /// (and the D-frontier objective against an all-node scan) after
    /// each implication pass.
    fn differential<'c>(
        circuit: &'c Circuit,
        make: impl Fn() -> Engine<'c>,
        steps: usize,
        seed: u64,
    ) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let (mut fast, mut oracle) = (make(), make());
        let pis = circuit.primary_inputs();
        for step in 0..steps {
            // A backtrack may undo several decisions before its flip.
            for _ in 0..rng.gen_range(1..4) {
                let pi = pis[rng.gen_range(0..pis.len())];
                let k = fast.pi_position[pi.index()].unwrap();
                let value = random_step(&mut rng, fast.pi_assignment[k]);
                fast.assign(pi, value);
                oracle.assign(pi, value);
            }
            fast.imply();
            oracle.imply_full();
            assert_eq!(fast.values, oracle.values, "step {step}");
            if !fast.justify_only {
                assert_eq!(
                    fast.d_frontier_objective(),
                    oracle.d_frontier_among(circuit.node_ids()),
                    "step {step}"
                );
            }
        }
    }

    #[test]
    fn differential_incremental_implication_matches_full_sweep() {
        let circuits = [
            c17_like(),
            profile_circuit("s1196"),
            profile_circuit("s1423"),
        ];
        for (ci, c) in circuits.iter().enumerate() {
            let mut rng = ChaCha8Rng::seed_from_u64(ci as u64);
            for round in 0..4u64 {
                let seed = ci as u64 * 100 + round;
                let node = NodeId::from_index(rng.gen_range(0..c.num_nodes()));
                let value = if rng.gen() {
                    StuckValue::One
                } else {
                    StuckValue::Zero
                };
                let fault = StuckAtFault::new(node, value);
                let steps = 60;
                // Stuck-at test generation.
                differential(c, || Engine::new(c, fault), steps, seed);
                // Justification (no fault pinned).
                let justify = || {
                    let mut e = Engine::new(c, fault);
                    e.justify_only = true;
                    e
                };
                differential(c, justify, steps, seed);
                // Branch fault on an arc (the transition-test engine).
                let edge = sdd_netlist::EdgeId::from_index(rng.gen_range(0..c.num_edges()));
                let driver = c.edge(edge).from();
                let branch = || {
                    let mut e = Engine::new(c, StuckAtFault::new(driver, value));
                    e.set_fault_edge(edge);
                    e
                };
                differential(c, branch, steps, seed);
            }
        }
    }

    /// The branch-fault D-frontier quirk, pinned: the driver's raw D
    /// makes an X gate on a *non-faulted* fanout a frontier candidate,
    /// although that gate's implication only sees the good value.
    #[test]
    fn branch_fault_frontier_reads_the_raw_driver_value() {
        let mut b = CircuitBuilder::new("branch");
        let a = b.input("a");
        let x = b.input("x");
        let y = b.input("y");
        let side = b.gate("side", GateKind::And, &[a, x]).unwrap();
        let faulted = b.gate("faulted", GateKind::And, &[a, y]).unwrap();
        b.output(side);
        b.output(faulted);
        let c = b.finish().unwrap();
        let edge = c.node(faulted).fanin_edges()[0];
        assert_eq!(c.edge(edge).from(), a);

        let mut engine = Engine::new(&c, StuckAtFault::new(a, StuckValue::Zero));
        engine.set_fault_edge(edge);
        engine.assign(a, Some(true));
        engine.imply();
        assert_eq!(engine.values[a.index()], V5::D);
        // `side` (lower id) is chosen over `faulted`, the gate the effect
        // actually reaches.
        assert!(side.index() < faulted.index());
        assert_eq!(engine.d_frontier_objective(), Some((x, true)));
        // Meeting that objective propagates nothing: `side` sees a = 1.
        engine.assign(x, Some(true));
        engine.imply();
        assert_eq!(engine.values[side.index()], V5::One);
        assert_eq!(engine.d_frontier_objective(), Some((y, true)));
        // The search still finds the test through the faulted arc.
        let fault = TransitionFault::new(edge, TransitionDirection::Rise);
        let (_, v2) = generate_transition_assignments(&c, fault, PodemConfig::default()).unwrap();
        assert_eq!(v2[1], Some(true), "the side objective was decided first");
        assert_eq!(v2[2], Some(true));
    }
}
