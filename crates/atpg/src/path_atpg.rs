//! Two-vector test generation for path delay faults.
//!
//! Implements the paper's Section H-4 pattern source: for each selected
//! path, attempt a *robust* test first and fall back to *non-robust*
//! ("Paths are tested with robust or non-robust patterns derived without
//! considering timing"). Justification of the sensitization constraints
//! is a PODEM-style search over the two input frames with three-valued
//! implication.

use crate::event::EventQueue;
use crate::fault::PathDelayFault;
use crate::path_sens::{path_constraints, Constraints, SensitizationMode};
use crate::pattern::TestPattern;
use crate::podem::PodemConfig;
use crate::value::V3;
use crate::AtpgError;
use rayon::prelude::*;
use sdd_netlist::{Circuit, GateKind, NodeId};

/// A generated path test together with the sensitization mode achieved.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathTest {
    /// The two-vector pattern.
    pub pattern: TestPattern,
    /// Robust or non-robust.
    pub mode: SensitizationMode,
}

/// Generates a test for `fault` in the requested mode.
///
/// # Errors
///
/// * [`AtpgError::Untestable`] — the constraints conflict or the search
///   space is exhausted (path unsensitizable in this mode).
/// * [`AtpgError::Aborted`] — backtrack budget exhausted.
/// * [`AtpgError::SequentialCircuit`] — non-scan circuit.
pub fn generate_path_test(
    circuit: &Circuit,
    fault: &PathDelayFault,
    mode: SensitizationMode,
    config: PodemConfig,
    seed: u64,
) -> Result<TestPattern, AtpgError> {
    if !circuit.is_combinational() {
        return Err(AtpgError::SequentialCircuit);
    }
    let (constraints, _) = path_constraints(circuit, &fault.path, fault.launch, mode)?;
    justify_two_frames(circuit, &constraints, config, seed)
}

/// Tries a robust test first, then non-robust (the paper's policy).
///
/// # Errors
///
/// Returns the non-robust error if both modes fail.
pub fn generate_robust_or_nonrobust(
    circuit: &Circuit,
    fault: &PathDelayFault,
    config: PodemConfig,
    seed: u64,
) -> Result<PathTest, AtpgError> {
    match generate_path_test(circuit, fault, SensitizationMode::Robust, config, seed) {
        Ok(pattern) => Ok(PathTest {
            pattern,
            mode: SensitizationMode::Robust,
        }),
        Err(_) => {
            let pattern =
                generate_path_test(circuit, fault, SensitizationMode::NonRobust, config, seed)?;
            Ok(PathTest {
                pattern,
                mode: SensitizationMode::NonRobust,
            })
        }
    }
}

/// Runs [`generate_robust_or_nonrobust`] over a slice of `(fault, seed)`
/// candidates concurrently, returning the outcomes in candidate order
/// (`None` for untestable/aborted candidates).
///
/// Each search is pure in its `(circuit, fault, config, seed)` inputs,
/// so the result vector is bit-identical to a serial loop at any thread
/// count; callers replay their acceptance logic (ordering, early exit,
/// dedup) over the returned slice serially.
pub fn generate_candidate_tests(
    circuit: &Circuit,
    candidates: &[(PathDelayFault, u64)],
    config: PodemConfig,
) -> Vec<Option<PathTest>> {
    candidates
        .par_iter()
        .map(|(fault, seed)| generate_robust_or_nonrobust(circuit, fault, config, *seed).ok())
        .collect()
}

/// Checks that a pattern actually satisfies the sensitization
/// requirements of `fault` in `mode` (boolean simulation of both frames).
pub fn verify_path_test(
    circuit: &Circuit,
    fault: &PathDelayFault,
    mode: SensitizationMode,
    pattern: &TestPattern,
) -> bool {
    let Ok((constraints, _)) = path_constraints(circuit, &fault.path, fault.launch, mode) else {
        return false;
    };
    let before = sdd_netlist::logic::simulate(circuit, &pattern.v1);
    let after = sdd_netlist::logic::simulate(circuit, &pattern.v2);
    constraints
        .requirements()
        .into_iter()
        .all(|(ix, frame, value)| {
            let sim = if frame == 0 { &before } else { &after };
            sim[ix] == value
        })
}

/// PODEM-style justification of two-frame constraints.
fn justify_two_frames(
    circuit: &Circuit,
    constraints: &Constraints,
    config: PodemConfig,
    seed: u64,
) -> Result<TestPattern, AtpgError> {
    const WHAT: &str = "path test justification";
    let pi_position = pi_positions(circuit);
    let mut frames = [
        FrameSim::new(circuit, &pi_position),
        FrameSim::new(circuit, &pi_position),
    ];
    let requirements = constraints.requirements();

    struct Decision {
        frame: usize,
        pi: NodeId,
        value: bool,
        flipped: bool,
    }
    let mut stack: Vec<Decision> = Vec::new();
    let mut backtracks = 0usize;
    let mut implications = 0usize;

    loop {
        implications += 1;
        if implications > config.max_implications {
            return Err(AtpgError::Aborted {
                what: WHAT.to_owned(),
                backtracks,
            });
        }
        // Imply both frames.
        for frame in &mut frames {
            frame.imply();
        }
        // Check constraints.
        let mut conflict = false;
        let mut open: Option<(usize, usize, bool)> = None;
        for &(ix, frame, value) in &requirements {
            match frames[frame].values[ix].to_bool() {
                Some(v) if v != value => {
                    conflict = true;
                    break;
                }
                Some(_) => {}
                None => {
                    if open.is_none() {
                        open = Some((ix, frame, value));
                    }
                }
            }
        }
        if !conflict {
            match open {
                None => {
                    // All requirements implied: quiet-fill the free
                    // inputs (don't-cares do not switch).
                    return Ok(crate::podem::fill_pattern_quiet(
                        &frames[0].assignment,
                        &frames[1].assignment,
                        seed,
                    ));
                }
                Some((ix, frame, value)) => {
                    // Backtrace through X-valued nodes to a free PI.
                    match backtrace_v3(
                        circuit,
                        &frames[frame].values,
                        NodeId::from_index(ix),
                        value,
                    ) {
                        Some((pi, v)) => {
                            frames[frame].assign(pi, Some(v));
                            stack.push(Decision {
                                frame,
                                pi,
                                value: v,
                                flipped: false,
                            });
                            continue;
                        }
                        None => conflict = true,
                    }
                }
            }
        }
        if conflict {
            loop {
                let Some(top) = stack.last_mut() else {
                    return Err(AtpgError::Untestable {
                        what: WHAT.to_owned(),
                    });
                };
                let (frame, pi) = (top.frame, top.pi);
                if top.flipped {
                    stack.pop();
                    frames[frame].assign(pi, None);
                    continue;
                }
                top.flipped = true;
                top.value = !top.value;
                let value = top.value;
                frames[frame].assign(pi, Some(value));
                break;
            }
            backtracks += 1;
            if backtracks > config.max_backtracks {
                return Err(AtpgError::Aborted {
                    what: WHAT.to_owned(),
                    backtracks,
                });
            }
        }
    }
}

/// Input position of every primary input node (`None` elsewhere).
fn pi_positions(circuit: &Circuit) -> Vec<Option<usize>> {
    let mut pi_position = vec![None; circuit.num_nodes()];
    for (k, &pi) in circuit.primary_inputs().iter().enumerate() {
        pi_position[pi.index()] = Some(k);
    }
    pi_position
}

/// One frame of [`justify_two_frames`]: a partial input assignment and
/// its three-valued implication, kept current by event-driven passes.
#[derive(Debug)]
struct FrameSim<'a> {
    circuit: &'a Circuit,
    /// Input position of every primary input node.
    pi_position: &'a [Option<usize>],
    /// `assignment[k]` is the value of the `k`-th primary input.
    assignment: Vec<Option<bool>>,
    /// Three-valued node values implied by `assignment`.
    values: Vec<V3>,
    /// Inputs changed since the last pass.
    events: EventQueue,
}

impl<'a> FrameSim<'a> {
    /// The empty assignment, whose implication is all-X (every gate has
    /// a fanin, and a gate over all-X fanins evaluates to X).
    fn new(circuit: &'a Circuit, pi_position: &'a [Option<usize>]) -> FrameSim<'a> {
        FrameSim {
            circuit,
            pi_position,
            assignment: vec![None; circuit.primary_inputs().len()],
            values: vec![V3::X; circuit.num_nodes()],
            events: EventQueue::new(circuit),
        }
    }

    /// Assigns (or, with `None`, frees) a primary input and schedules it
    /// for the next pass.
    fn assign(&mut self, pi: NodeId, value: Option<bool>) {
        let k = self.pi_position[pi.index()].expect("decisions are made on inputs");
        self.assignment[k] = value;
        self.events.schedule(self.circuit, pi);
    }

    /// Re-evaluates `id` from the assignment or its fanins; returns
    /// whether its value changed.
    fn update(&mut self, id: NodeId) -> bool {
        let node = self.circuit.node(id);
        let v = if node.kind() == GateKind::Input {
            let k = self.pi_position[id.index()].expect("input has a position");
            match self.assignment[k] {
                Some(true) => V3::One,
                Some(false) => V3::Zero,
                None => V3::X,
            }
        } else {
            let values = &self.values;
            V3::eval_iter(node.kind(), node.fanins().iter().map(|f| values[f.index()]))
        };
        let changed = self.values[id.index()] != v;
        self.values[id.index()] = v;
        changed
    }

    /// Event-driven implication of the inputs changed since the last
    /// pass: equal to a full re-simulation of the assignment.
    fn imply(&mut self) {
        let mut events = std::mem::take(&mut self.events);
        events.propagate(self.circuit, |id| self.update(id));
        self.events = events;
    }

    /// Full three-valued simulation of the assignment: the oracle the
    /// differential tests compare [`FrameSim::imply`] against.
    #[cfg(test)]
    fn imply_full(&mut self) {
        for &id in self.circuit.topo_order() {
            self.update(id);
        }
    }
}

/// Walks a requirement back through X-valued nodes to a primary input,
/// returning the input and the value to try on it.
fn backtrace_v3(
    circuit: &Circuit,
    values: &[V3],
    mut node: NodeId,
    mut value: bool,
) -> Option<(NodeId, bool)> {
    loop {
        let n = circuit.node(node);
        if n.kind() == GateKind::Input {
            return Some((node, value));
        }
        if n.kind().inverts() {
            value = !value;
        }
        node = n
            .fanins()
            .iter()
            .copied()
            .find(|f| values[f.index()] == V3::X)?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::TransitionDirection;
    use sdd_netlist::logic;
    use sdd_netlist::CircuitBuilder;
    use sdd_timing::path::Path;
    use sdd_timing::{CellLibrary, CircuitTiming, VariationModel};

    fn c17_like() -> Circuit {
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

    fn timing_for(c: &Circuit) -> CircuitTiming {
        CircuitTiming::characterize(c, &CellLibrary::default_025um(), VariationModel::none())
    }

    #[test]
    fn robust_tests_verify_on_small_circuit() {
        let c = c17_like();
        let t = timing_for(&c);
        let mut robust = 0;
        let mut nonrobust = 0;
        for eid in c.edge_ids() {
            let Ok(paths) = sdd_timing::path::k_longest_through_edge(&c, &t, eid, 2) else {
                continue;
            };
            for path in paths {
                for launch in [TransitionDirection::Rise, TransitionDirection::Fall] {
                    let fault = PathDelayFault::new(path.clone(), launch);
                    match generate_robust_or_nonrobust(&c, &fault, PodemConfig::default(), 3) {
                        Ok(pt) => {
                            assert!(
                                verify_path_test(&c, &fault, pt.mode, &pt.pattern),
                                "generated test fails verification for launch {launch:?}"
                            );
                            match pt.mode {
                                SensitizationMode::Robust => robust += 1,
                                SensitizationMode::NonRobust => nonrobust += 1,
                            }
                        }
                        Err(AtpgError::Untestable { .. }) => {}
                        Err(e) => panic!("unexpected: {e}"),
                    }
                }
            }
        }
        assert!(robust > 0, "no robust tests at all");
        // NAND-only reconvergent circuit should need some non-robust
        // fallbacks or at least attempt them; don't over-constrain.
        let _ = nonrobust;
    }

    #[test]
    fn generated_pattern_launches_source_transition() {
        let c = c17_like();
        let t = timing_for(&c);
        let p = sdd_timing::path::longest_path(&c, &t).unwrap();
        let fault = PathDelayFault::new(p.clone(), TransitionDirection::Rise);
        if let Ok(pt) = generate_robust_or_nonrobust(&c, &fault, PodemConfig::default(), 1) {
            let before = logic::simulate(&c, &pt.pattern.v1);
            let after = logic::simulate(&c, &pt.pattern.v2);
            let src = p.source();
            assert!(!before[src.index()]);
            assert!(after[src.index()]);
            // Every on-path node must transition.
            for &n in p.nodes() {
                assert_ne!(before[n.index()], after[n.index()], "node {n} is static");
            }
        }
    }

    #[test]
    fn unsensitizable_path_rejected() {
        // y = AND(a, NOT(a)): path a->y robustly requires NOT(a) steady 1
        // while `a` rises — impossible.
        let mut b = CircuitBuilder::new("mask");
        let a = b.input("a");
        let na = b.gate("na", GateKind::Not, &[a]).unwrap();
        let y = b.gate("y", GateKind::And, &[a, na]).unwrap();
        b.output(y);
        let c = b.finish().unwrap();
        let a_to_y = c
            .node(y)
            .fanin_edges()
            .iter()
            .copied()
            .find(|&e| c.edge(e).from() == a)
            .unwrap();
        let path = Path::new(vec![a, y], vec![a_to_y]);
        let fault = PathDelayFault::new(path, TransitionDirection::Rise);
        let err = generate_path_test(
            &c,
            &fault,
            SensitizationMode::Robust,
            PodemConfig::default(),
            1,
        )
        .unwrap_err();
        assert!(matches!(err, AtpgError::Untestable { .. }));
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let c = c17_like();
        let t = timing_for(&c);
        let p = sdd_timing::path::longest_path(&c, &t).unwrap();
        let fault = PathDelayFault::new(p, TransitionDirection::Fall);
        let a = generate_robust_or_nonrobust(&c, &fault, PodemConfig::default(), 7).ok();
        let b = generate_robust_or_nonrobust(&c, &fault, PodemConfig::default(), 7).ok();
        assert_eq!(a, b);
    }

    fn profile_circuit(name: &str) -> Circuit {
        let profile = sdd_netlist::profiles::by_name(name).expect("known profile");
        sdd_netlist::generator::generate(&profile.to_config(2))
            .expect("profile generates")
            .to_combinational()
            .expect("scan cut")
    }

    /// Drives both frames of an event-driven two-frame state and of a
    /// full-sweep one through the same random decision/flip/undo
    /// sequence, comparing every value after each implication pass.
    #[test]
    fn differential_incremental_frames_match_full_sweep() {
        use rand::prelude::*;
        use rand_chacha::ChaCha8Rng;
        for (ci, c) in [
            c17_like(),
            profile_circuit("s1196"),
            profile_circuit("s1423"),
        ]
        .iter()
        .enumerate()
        {
            let mut rng = ChaCha8Rng::seed_from_u64(ci as u64);
            let pi_position = pi_positions(c);
            let mut fast = [
                FrameSim::new(c, &pi_position),
                FrameSim::new(c, &pi_position),
            ];
            let mut oracle = [
                FrameSim::new(c, &pi_position),
                FrameSim::new(c, &pi_position),
            ];
            let pis = c.primary_inputs();
            for step in 0..200 {
                for _ in 0..rng.gen_range(1..4) {
                    let frame = rng.gen_range(0..2usize);
                    let pi = pis[rng.gen_range(0..pis.len())];
                    let k = pi_position[pi.index()].unwrap();
                    let value = match (fast[frame].assignment[k], rng.gen_range(0..3)) {
                        (Some(v), 0) => Some(!v),
                        (Some(_), 1) => None,
                        _ => Some(rng.gen()),
                    };
                    fast[frame].assign(pi, value);
                    oracle[frame].assign(pi, value);
                }
                for frame in 0..2 {
                    fast[frame].imply();
                    oracle[frame].imply_full();
                    assert_eq!(
                        fast[frame].values, oracle[frame].values,
                        "circuit {ci}, step {step}, frame {frame}"
                    );
                }
            }
        }
    }
}
