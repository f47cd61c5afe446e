//! Two-vector test generation for path delay faults.
//!
//! Implements the paper's Section H-4 pattern source: for each selected
//! path, attempt a *robust* test first and fall back to *non-robust*
//! ("Paths are tested with robust or non-robust patterns derived without
//! considering timing"). Justification of the sensitization constraints
//! is a PODEM-style search over the two input frames with three-valued
//! implication.

use crate::fault::PathDelayFault;
use crate::imply::{good, Implication, Net, X};
use crate::path_sens::{path_constraints, Constraints, SensitizationMode};
use crate::pattern::TestPattern;
use crate::podem::PodemConfig;
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
///
/// Each frame is a fault-free [`Implication`] (three-valued logic: both
/// machines agree). A decision records a trail mark per frame, so a
/// backtrack restores both frames to the state before the decision it
/// flips and implies only the flipped input.
fn justify_two_frames(
    circuit: &Circuit,
    constraints: &Constraints,
    config: PodemConfig,
    seed: u64,
) -> Result<TestPattern, AtpgError> {
    const WHAT: &str = "path test justification";
    let net = Net::new(circuit);
    let mut frames = [Implication::new(&net), Implication::new(&net)];
    let requirements = constraints.requirements();

    struct Decision {
        frame: usize,
        pi: NodeId,
        value: bool,
        flipped: bool,
        /// Both frames' trail positions before this decision.
        marks: [usize; 2],
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
            frame.propagate();
        }
        // Check constraints.
        let mut conflict = false;
        let mut open: Option<(usize, usize, bool)> = None;
        for &(ix, frame, value) in &requirements {
            match good(frames[frame].value(ix)) {
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
                    let inputs = circuit.primary_inputs();
                    return Ok(crate::podem::fill_pattern_quiet(
                        &frames[0].assignment(inputs),
                        &frames[1].assignment(inputs),
                        seed,
                    ));
                }
                Some((ix, frame, value)) => {
                    // Backtrace through X-valued nodes to a free PI.
                    match backtrace_v3(&frames[frame], ix, value) {
                        Some((pi, v)) => {
                            let marks = [frames[0].mark(), frames[1].mark()];
                            frames[frame].set_input(pi, Some(v));
                            stack.push(Decision {
                                frame,
                                pi,
                                value: v,
                                flipped: false,
                                marks,
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
                if top.flipped {
                    stack.pop();
                    continue;
                }
                top.flipped = true;
                top.value = !top.value;
                for (frame, &mark) in frames.iter_mut().zip(&top.marks) {
                    frame.restore(mark);
                }
                frames[top.frame].set_input(top.pi, Some(top.value));
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

/// Walks a requirement on `node` back through X-valued nodes of `frame`
/// to a primary input, returning the input and the value to try on it.
fn backtrace_v3(
    frame: &Implication<'_>,
    mut node: usize,
    mut value: bool,
) -> Option<(NodeId, bool)> {
    loop {
        let kind = frame.net().kind(node);
        if kind == GateKind::Input {
            return Some((NodeId::from_index(node), value));
        }
        if kind.inverts() {
            value = !value;
        }
        node = frame.fanins(node).find(|&f| frame.value(f) == X)?;
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

    /// Drives both frames of a trail-backtracked two-frame state and two
    /// full-sweep oracles through the same random search-shaped step
    /// sequence (decisions in either frame, and backtracks that pop
    /// flipped decisions before their flip, restoring both frames),
    /// comparing every value after each pass.
    #[test]
    fn differential_incremental_frames_match_full_sweep() {
        use crate::imply::testing::{Oracle, Steps};
        for (ci, c) in [
            c17_like(),
            profile_circuit("s1196"),
            profile_circuit("s1423"),
        ]
        .iter()
        .enumerate()
        {
            let net = Net::new(c);
            let mut frames = [Implication::new(&net), Implication::new(&net)];
            let mut oracles = [Oracle::new(c, None, None), Oracle::new(c, None, None)];
            let mut driver = Steps::new(ci as u64);
            for step in 0..300 {
                let [f0, f1] = &mut frames;
                driver.step(c, &mut [f0, f1], &mut oracles);
                for (frame, (state, oracle)) in frames.iter().zip(&oracles).enumerate() {
                    oracle.assert_matches(
                        state,
                        &format!("circuit {ci}, step {step}, frame {frame}"),
                    );
                }
            }
            assert!(
                driver.deep_pops > 0,
                "circuit {ci}: no backtrack popped several flipped decisions"
            );
        }
    }
}
