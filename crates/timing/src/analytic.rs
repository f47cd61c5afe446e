//! Analytic moment propagation: the scoring model of the screened
//! dictionary kernel's suspect filter.
//!
//! The Monte-Carlo dictionary kernel estimates `Err_M(v, t, clk)` by
//! drawing `n_samples` chip instances and counting threshold crossings.
//! This module computes the same per-(pattern, suspect, output) tail
//! probabilities *analytically*, with zero instance draws, so the screen
//! can rank every suspect before Monte-Carlo refines the survivors:
//!
//! 1. **Condition on the die-level factor `g`.** The timing model makes
//!    every arc delay `mean_e × (1 + global_frac·g + local_frac·l_e)`
//!    with one shared standard-normal `g` per chip. Conditioned on `g`,
//!    arc delays are *independent* Gaussians
//!    `N(mean_e (1 + global_frac·g), (mean_e · local_frac)²)` — the
//!    correlation structure collapses, so block-based propagation is
//!    sound per node of a Gauss–Hermite quadrature grid over `g`.
//! 2. **Propagate `(mean, variance)` through the switching cone.** The
//!    walk mirrors [`crate::dynamic::transition_arrivals`] exactly —
//!    same topological order, same no-event skips — but on
//!    [`GaussianArrival`] moments: `add` is exact, `max` uses Clark's
//!    moment matching ([`GaussianArrival::max_clark`]).
//! 3. **Evaluate the tail.** `Prob(arrival > clk | g)` is a normal CDF
//!    tail ([`GaussianArrival::critical_probability`]); averaging over
//!    the quadrature weights integrates `g` out.
//!
//! The remaining approximation error (the bounded-divergence contract
//! the screen's margin rests on, DESIGN.md §4.7 and §4.11) has three
//! sources: Clark's Gaussian moment matching at multi-fanin merges,
//! ignored reconvergent-path correlation of the *local* components, and
//! the ignored sampling floor
//! `max(delay, 0.05·mean)` (a < 10⁻⁶ tail event at the default ±6 %
//! local spread). Defect deltas enter through their censored moments
//! ([`crate::Dist::moments`]), matching what the MC kernel actually
//! draws.

use crate::block_sta::GaussianArrival;
use crate::dynamic::DefectCone;
use crate::{CircuitTiming, VariationModel};
use sdd_netlist::logic::Transition;
use sdd_netlist::{Circuit, EdgeId, GateKind, EXTERNAL};

/// A Gauss–Hermite quadrature rule re-expressed for standard-normal
/// expectations: `E[f(G)] ≈ Σ w_i · f(g_i)` for `G ~ N(0, 1)`, with the
/// weights normalized to sum to one.
#[derive(Debug, Clone)]
pub struct GaussHermite {
    /// `(abscissa g_i, normalized weight w_i)` pairs.
    nodes: Vec<(f64, f64)>,
}

impl GaussHermite {
    /// Builds an `n`-point rule via Newton iteration on the orthonormal
    /// Hermite recurrence (the classic `gauher` construction).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or a root fails to converge (cannot happen for
    /// the practical orders used here).
    pub fn new(n: usize) -> GaussHermite {
        assert!(n >= 1, "quadrature needs at least one point");
        const PIM4: f64 = 0.751_125_544_464_942_5; // π^(-1/4)
        let mut xs = vec![0.0_f64; n];
        let mut ws = vec![0.0_f64; n];
        let mut z = 0.0_f64;
        for i in 0..n.div_ceil(2) {
            // Initial guesses for the i-th largest root (descending).
            z = match i {
                0 => {
                    let an = (2 * n + 1) as f64;
                    an.sqrt() - 1.85575 * an.powf(-1.0 / 6.0)
                }
                1 => z - 1.14 * (n as f64).powf(0.426) / z,
                2 => 1.86 * z - 0.86 * xs[0],
                3 => 1.91 * z - 0.91 * xs[1],
                _ => 2.0 * z - xs[i - 2],
            };
            let mut pp = 0.0;
            let mut converged = false;
            for _ in 0..100 {
                let mut p1 = PIM4;
                let mut p2 = 0.0;
                for j in 1..=n {
                    let p3 = p2;
                    p2 = p1;
                    let jf = j as f64;
                    p1 = z * (2.0 / jf).sqrt() * p2 - ((jf - 1.0) / jf).sqrt() * p3;
                }
                pp = (2.0 * n as f64).sqrt() * p2;
                let z1 = z;
                z = z1 - p1 / pp;
                if (z - z1).abs() <= 1e-14 {
                    converged = true;
                    break;
                }
            }
            assert!(converged, "Gauss–Hermite root {i} of {n} did not converge");
            xs[i] = z;
            xs[n - 1 - i] = -z;
            ws[i] = 2.0 / (pp * pp);
            ws[n - 1 - i] = ws[i];
        }
        // Hermite weights sum to √π; transform to standard-normal form:
        // abscissa √2·x, weight w/√π.
        let norm: f64 = ws.iter().sum();
        let nodes = xs
            .iter()
            .zip(&ws)
            .map(|(&x, &w)| (std::f64::consts::SQRT_2 * x, w / norm))
            .collect();
        GaussHermite { nodes }
    }

    /// The degenerate one-point rule `g = 0, w = 1` — exact when the
    /// integrand does not depend on `g`.
    pub fn single() -> GaussHermite {
        GaussHermite {
            nodes: vec![(0.0, 1.0)],
        }
    }

    /// The rule matched to a variation model: `points` points for the
    /// die-level integral, collapsing to the exact one-point rule when
    /// there is no die-level component (the integrand does not depend
    /// on `g`). Callers that rank rather than estimate (the screened
    /// kernel's stage 1) resolve the ordering with a coarse rule at a
    /// fraction of a fine rule's cost.
    pub fn for_variation_with(variation: &VariationModel, points: usize) -> GaussHermite {
        if variation.global_frac == 0.0 {
            GaussHermite::single()
        } else {
            GaussHermite::new(points)
        }
    }

    /// The `(abscissa, normalized weight)` pairs.
    pub fn nodes(&self) -> &[(f64, f64)] {
        &self.nodes
    }

    /// Number of quadrature points.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Always `false` (rules have at least one point).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }
}

/// Conditional moments of one arc delay given the die-level factor `g`:
/// `N(mean_e (1 + global_frac·g), (mean_e · local_frac)²)`. The sampling
/// floor `0.05·mean_e` is ignored (see the module docs).
#[inline]
fn edge_delay_moments(timing: &CircuitTiming, e: EdgeId, g: f64) -> (f64, f64) {
    let mean = timing.edge_mean(e);
    let v = timing.variation();
    let sigma = mean * v.local_frac;
    (mean * (1.0 + v.global_frac * g), sigma * sigma)
}

/// Analytic counterpart of [`crate::dynamic::transition_arrivals`]:
/// per-node arrival moments for one pattern, conditioned on the
/// die-level factor `g`. `None` marks a node with no event (the moment
/// analogue of [`crate::dynamic::NO_EVENT`]).
///
/// # Panics
///
/// Panics if the circuit is sequential or `transitions.len()` mismatches.
pub fn arrival_moments(
    circuit: &Circuit,
    transitions: &[Transition],
    timing: &CircuitTiming,
    g: f64,
) -> Vec<Option<GaussianArrival>> {
    assert!(
        circuit.is_combinational(),
        "analytic timing requires a combinational circuit"
    );
    assert_eq!(
        transitions.len(),
        circuit.num_nodes(),
        "transition table length mismatch"
    );
    let mut arr: Vec<Option<GaussianArrival>> = vec![None; circuit.num_nodes()];
    for &id in circuit.topo_order() {
        if !transitions[id.index()].is_event() {
            continue;
        }
        let node = circuit.node(id);
        if node.kind() == GateKind::Input {
            arr[id.index()] = Some(GaussianArrival::ZERO);
            continue;
        }
        let mut acc: Option<GaussianArrival> = None;
        for (&from, &e) in node.fanins().iter().zip(node.fanin_edges()) {
            let Some(up) = arr[from.index()] else {
                continue;
            };
            let (dm, dv) = edge_delay_moments(timing, e, g);
            let cand = up.plus(dm, dv);
            acc = Some(match acc {
                None => cand,
                Some(prev) => prev.max_clark(&cand),
            });
        }
        arr[id.index()] = acc;
    }
    arr
}

/// Analytic counterpart of [`DefectCone::apply`]: recomputes the cone's
/// arrival moments with the defect delta's moments added on the
/// defective arc, reading out-of-cone fanins from `baseline` (the output
/// of [`arrival_moments`] for the same pattern and `g`). Writes the
/// moments at each reachable output (in [`DefectCone::reachable_outputs`]
/// order) into `out`.
///
/// Like the MC kernels, the walk is cone-local: it follows the cone's
/// [`sdd_netlist::ConeView`] arc arrays and `scratch` is resized to the
/// cone length (slot-indexed), so per-suspect cost scales with the cone,
/// not the circuit.
///
/// # Panics
///
/// Panics if `baseline` mismatches the circuit size.
#[allow(clippy::too_many_arguments)]
pub fn cone_output_moments(
    cone: &DefectCone,
    circuit: &Circuit,
    transitions: &[Transition],
    timing: &CircuitTiming,
    baseline: &[Option<GaussianArrival>],
    delta: GaussianArrival,
    g: f64,
    scratch: &mut Vec<Option<GaussianArrival>>,
    out: &mut Vec<Option<GaussianArrival>>,
) {
    assert_eq!(
        baseline.len(),
        circuit.num_nodes(),
        "baseline length mismatch"
    );
    let view = cone.view();
    scratch.clear();
    scratch.resize(view.len(), None);
    let arc_slots = view.arc_slots();
    let arc_sources = view.arc_sources();
    let arc_edges = view.arc_edges();
    for (slot, &id) in view.nodes().iter().enumerate() {
        if !transitions[id.index()].is_event() {
            scratch[slot] = None;
            continue;
        }
        if circuit.node(id).kind() == GateKind::Input {
            scratch[slot] = Some(GaussianArrival::ZERO);
            continue;
        }
        let mut acc: Option<GaussianArrival> = None;
        for k in view.arc_range(slot) {
            let fs = arc_slots[k];
            let upstream = if fs != EXTERNAL {
                scratch[fs as usize]
            } else {
                baseline[arc_sources[k].index()]
            };
            let Some(up) = upstream else {
                continue;
            };
            let e = arc_edges[k];
            let (mut dm, mut dv) = edge_delay_moments(timing, e, g);
            if e == cone.edge() {
                dm += delta.mean;
                dv += delta.variance;
            }
            let cand = up.plus(dm, dv);
            acc = Some(match acc {
                None => cand,
                Some(prev) => prev.max_clark(&cand),
            });
        }
        scratch[slot] = acc;
    }
    out.clear();
    out.extend(
        view.output_slots()
            .iter()
            .map(|&(_, slot)| scratch[slot as usize]),
    );
}

/// Analytic fail probabilities for one pattern: the defect-free baseline
/// per primary output plus, for every suspect cone, the probabilities at
/// its reachable outputs.
#[derive(Debug, Clone)]
pub struct PatternFailProbs {
    /// Defect-free `Prob(arrival > clk)` per primary output (0.0 for
    /// outputs with no event).
    pub baseline: Vec<f64>,
    /// Per input cone (same order), `Prob(arrival > clk)` at each of its
    /// reachable outputs (in [`DefectCone::reachable_outputs`] order).
    pub per_cone: Vec<Vec<f64>>,
    /// Number of analytic cone propagations performed (cones × quadrature
    /// points) — the analytic counterpart of the MC cone-eval counter.
    pub cone_walks: u64,
}

/// Evaluates the analytic dictionary column for one pattern: baseline and
/// per-cone fail probabilities at cut-off `clk`, integrating the
/// die-level factor over `quad`. `delta` carries the defect-size moments
/// (from [`crate::Dist::moments`]).
///
/// # Panics
///
/// Panics if the circuit is sequential or `transitions.len()` mismatches.
pub fn pattern_fail_probs(
    circuit: &Circuit,
    timing: &CircuitTiming,
    transitions: &[Transition],
    cones: &[DefectCone],
    delta: GaussianArrival,
    clk: f64,
    quad: &GaussHermite,
) -> PatternFailProbs {
    let outputs = circuit.primary_outputs();
    let mut baseline_p = vec![0.0; outputs.len()];
    let mut per_cone: Vec<Vec<f64>> = cones
        .iter()
        .map(|c| vec![0.0; c.reachable_outputs().len()])
        .collect();
    let mut cone_walks = 0u64;
    let mut scratch: Vec<Option<GaussianArrival>> = Vec::new();
    let mut moments_out: Vec<Option<GaussianArrival>> = Vec::new();
    for &(g, w) in quad.nodes() {
        let base = arrival_moments(circuit, transitions, timing, g);
        for (i, o) in outputs.iter().enumerate() {
            if let Some(a) = base[o.index()] {
                baseline_p[i] += w * a.critical_probability(clk);
            }
        }
        for (ci, cone) in cones.iter().enumerate() {
            cone_output_moments(
                cone,
                circuit,
                transitions,
                timing,
                &base,
                delta,
                g,
                &mut scratch,
                &mut moments_out,
            );
            cone_walks += 1;
            for (k, a) in moments_out.iter().enumerate() {
                if let Some(a) = a {
                    per_cone[ci][k] += w * a.critical_probability(clk);
                }
            }
        }
    }
    PatternFailProbs {
        baseline: baseline_p,
        per_cone,
        cone_walks,
    }
}

/// Batch scoring entry point for the screened dictionary pipeline:
/// analytic match scores for every suspect against one observed
/// pass/fail matrix, lower = better match.
///
/// A suspect is scored over the cells it can say anything about — the
/// union of its reachable (output, pattern) cells and every observed
/// *failing* cell — as the mean absolute deviation between the predicted
/// fail probability and the observed 0/1 outcome. Reachable cells read
/// the suspect's defective probability `err`; failing cells outside the
/// reachable set read the defect-free baseline `m_crt` (a suspect that
/// cannot reach a failing output pays `≈ |m_crt − 1|` there).
///
/// Because the score is a convex combination of per-cell `|p − b|`
/// terms, a per-cell divergence bound transfers directly: if every
/// analytic probability is within `ε` of its Monte-Carlo counterpart
/// (the bounded-divergence contract), then every analytic score is
/// within `ε` of the score the MC matrices would produce. Keeping all
/// suspects within `margin = ε` of the K-th best analytic score
/// therefore retains every suspect whose MC score would have placed it
/// in the bare top K.
///
/// * `m_crt` — defect-free baseline, `n_out × n_patterns`.
/// * `suspects` — per suspect, its reachable output positions and its
///   `reachable.len() × n_patterns` defective probability matrix.
/// * `failing` — per pattern, the positions of the observed-failing
///   outputs.
///
/// # Panics
///
/// Panics if a failing position or reachable position exceeds
/// `m_crt.rows()`, or a suspect matrix's pattern count mismatches.
pub fn match_scores(
    m_crt: &crate::crit::ProbMatrix,
    suspects: &[(&[usize], &crate::crit::ProbMatrix)],
    failing: &[Vec<usize>],
) -> Vec<f64> {
    let n_out = m_crt.rows();
    let n_patterns = m_crt.cols();
    assert_eq!(failing.len(), n_patterns, "failing/pattern count mismatch");
    // Dense observed bits so reachable cells can look up their outcome.
    let mut fails = vec![false; n_out * n_patterns];
    for (j, outs) in failing.iter().enumerate() {
        for &o in outs {
            assert!(o < n_out, "failing output {o} out of range");
            fails[o * n_patterns + j] = true;
        }
    }
    suspects
        .iter()
        .map(|&(reachable, err)| {
            assert_eq!(err.cols(), n_patterns, "suspect pattern count mismatch");
            assert_eq!(err.rows(), reachable.len(), "suspect reachable mismatch");
            let mut sum = 0.0;
            let mut cells = 0usize;
            for j in 0..n_patterns {
                for (k, &o) in reachable.iter().enumerate() {
                    let b = if fails[o * n_patterns + j] { 1.0 } else { 0.0 };
                    sum += (err.get(k, j) - b).abs();
                    cells += 1;
                }
                for &o in &failing[j] {
                    if !reachable.contains(&o) {
                        sum += (m_crt.get(o, j) - 1.0).abs();
                        cells += 1;
                    }
                }
            }
            if cells == 0 {
                // No reachable cells and an all-pass observation: nothing
                // to contradict, perfect (vacuous) match.
                0.0
            } else {
                sum / cells as f64
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dynamic::{transition_arrivals, DefectCone};
    use crate::{CellLibrary, Dist};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;
    use sdd_netlist::generator::{generate, GeneratorConfig};
    use sdd_netlist::logic::simulate_pair;
    use sdd_netlist::{CircuitBuilder, NodeId};

    /// A fine rule: 16 points integrate polynomials up to degree 31
    /// exactly, far below the MC noise floor of the reference here.
    const POINTS: usize = 16;

    #[test]
    fn quadrature_matches_standard_normal_moments() {
        for n in [1, 2, 9, 16, 31] {
            let q = GaussHermite::new(n);
            assert_eq!(q.len(), n);
            let s0: f64 = q.nodes().iter().map(|&(_, w)| w).sum();
            let s2: f64 = q.nodes().iter().map(|&(g, w)| w * g * g).sum();
            assert!((s0 - 1.0).abs() < 1e-12, "n={n}: Σw = {s0}");
            if n >= 2 {
                assert!((s2 - 1.0).abs() < 1e-10, "n={n}: E[g²] = {s2}");
            }
            if n >= 3 {
                let s4: f64 = q.nodes().iter().map(|&(g, w)| w * g.powi(4) * 1.0).sum();
                assert!((s4 - 3.0).abs() < 1e-9, "n={n}: E[g⁴] = {s4}");
            }
        }
    }

    #[test]
    fn quadrature_collapses_without_global_variation() {
        let q = GaussHermite::for_variation_with(&VariationModel::new(0.0, 0.08), POINTS);
        assert_eq!(q.nodes(), &[(0.0, 1.0)]);
        let full = GaussHermite::for_variation_with(&VariationModel::default(), POINTS);
        assert_eq!(full.len(), POINTS);
    }

    /// Chain a → g1 → g2 → out: no merges, so the analytic arrival is the
    /// exact Gaussian sum and the tail probability is closed-form.
    #[test]
    fn chain_tail_probability_is_exact() {
        let mut b = CircuitBuilder::new("chain");
        let a = b.input("a");
        let g1 = b.gate("g1", GateKind::Not, &[a]).unwrap();
        let g2 = b.gate("g2", GateKind::Not, &[g1]).unwrap();
        b.output(g2);
        let c = b.finish().unwrap();
        let t = crate::CircuitTiming::from_means(vec![1.0, 2.0], VariationModel::new(0.0, 0.1));
        let trans = simulate_pair(&c, &[false], &[true]);
        let probs = pattern_fail_probs(
            &c,
            &t,
            &trans,
            &[],
            GaussianArrival::ZERO,
            3.0,
            &GaussHermite::for_variation_with(&t.variation(), POINTS),
        );
        // Arrival ~ N(3, 0.01 + 0.04); P(A > 3) = 0.5.
        assert!((probs.baseline[0] - 0.5).abs() < 1e-9);
        assert_eq!(probs.cone_walks, 0);
    }

    #[test]
    fn zero_delta_cone_reproduces_baseline_moments() {
        let c = generate(&GeneratorConfig::small("an", 4))
            .unwrap()
            .to_combinational()
            .unwrap();
        let t = crate::CircuitTiming::characterize(
            &c,
            &CellLibrary::default_025um(),
            VariationModel::default(),
        );
        let n_pi = c.primary_inputs().len();
        let trans = simulate_pair(&c, &vec![false; n_pi], &vec![true; n_pi]);
        let g = 0.73;
        let base = arrival_moments(&c, &trans, &t, g);
        let mut scratch = vec![None; c.num_nodes()];
        let mut out = Vec::new();
        for eid in c.edge_ids().take(25) {
            let cone = DefectCone::new(&c, eid);
            cone_output_moments(
                &cone,
                &c,
                &trans,
                &t,
                &base,
                GaussianArrival::ZERO,
                g,
                &mut scratch,
                &mut out,
            );
            let outputs = c.primary_outputs();
            for (k, &oi) in cone.reachable_outputs().iter().enumerate() {
                assert_eq!(
                    out[k],
                    base[outputs[oi].index()],
                    "edge {eid} output {oi}: zero-delta walk must replay the baseline"
                );
            }
        }
    }

    #[test]
    fn cone_slots_round_trip() {
        let c = generate(&GeneratorConfig::small("slots", 2))
            .unwrap()
            .to_combinational()
            .unwrap();
        let cone = DefectCone::new(&c, c.edge_ids().next().unwrap());
        for (slot, &n) in cone.cone_topo().iter().enumerate() {
            assert_eq!(cone.slot_of(&c, n), Some(slot));
        }
        let outside: Vec<NodeId> = (0..c.num_nodes())
            .map(NodeId::from_index)
            .filter(|n| !cone.cone_topo().contains(n))
            .collect();
        for n in outside {
            assert_eq!(cone.slot_of(&c, n), None);
        }
    }

    #[test]
    fn match_scores_rank_explaining_suspects_first() {
        use crate::crit::ProbMatrix;
        // Two outputs, two patterns; output 0 fails under both patterns.
        let mut m_crt = ProbMatrix::zeros(2, 2);
        m_crt.set(0, 0, 0.1);
        m_crt.set(0, 1, 0.1);
        // Suspect A reaches output 0 and predicts the failures.
        let mut err_a = ProbMatrix::zeros(1, 2);
        err_a.set(0, 0, 0.95);
        err_a.set(0, 1, 0.9);
        // Suspect B only reaches the passing output 1 and predicts a
        // failure there — it both misses the real failures and
        // contradicts the passing observation.
        let mut err_b = ProbMatrix::zeros(1, 2);
        err_b.set(0, 0, 0.8);
        err_b.set(0, 1, 0.8);
        let failing = vec![vec![0usize], vec![0usize]];
        let scores = match_scores(
            &m_crt,
            &[(&[0usize][..], &err_a), (&[1usize][..], &err_b)],
            &failing,
        );
        assert_eq!(scores.len(), 2);
        for &s in &scores {
            assert!((0.0..=1.0).contains(&s), "score {s} out of range");
        }
        // A: cells = reachable {(0,0),(0,1)}; |0.95-1| and |0.9-1|.
        assert!((scores[0] - 0.075).abs() < 1e-12, "A = {}", scores[0]);
        // B: reachable cells |0.8-0| twice plus unreached failing cells
        // |0.1-1| twice → (0.8+0.8+0.9+0.9)/4.
        assert!((scores[1] - 0.85).abs() < 1e-12, "B = {}", scores[1]);
        assert!(scores[0] < scores[1], "explaining suspect must rank first");
    }

    #[test]
    fn match_scores_vacuous_suspect_scores_zero() {
        use crate::crit::ProbMatrix;
        let m_crt = ProbMatrix::zeros(1, 1);
        let err = ProbMatrix::zeros(0, 1);
        let scores = match_scores(&m_crt, &[(&[][..], &err)], &[vec![]]);
        assert_eq!(scores, vec![0.0]);
    }

    /// The whole point: analytic fail probabilities track a brute-force
    /// Monte-Carlo estimate on a generated circuit, baseline and
    /// defect-injected alike.
    #[test]
    fn analytic_tracks_monte_carlo() {
        let c = generate(&GeneratorConfig::small("mc", 9))
            .unwrap()
            .to_combinational()
            .unwrap();
        let t = crate::CircuitTiming::characterize(
            &c,
            &CellLibrary::default_025um(),
            VariationModel::default(),
        );
        let n_pi = c.primary_inputs().len();
        let trans = simulate_pair(&c, &vec![false; n_pi], &vec![true; n_pi]);
        let cones: Vec<DefectCone> = c
            .edge_ids()
            .step_by(7)
            .map(|e| DefectCone::new(&c, e))
            .collect();
        let defect = Dist::defect_size(0.3);
        let (dm, dv) = defect.moments();
        // A clk in the upper tail of the nominal depth so probabilities
        // are strictly between 0 and 1.
        let nominal = transition_arrivals(&c, &trans, &t.nominal_instance());
        let clk = nominal
            .iter()
            .copied()
            .filter(|a| a.is_finite())
            .fold(0.0f64, f64::max)
            * 1.02;
        let analytic = pattern_fail_probs(
            &c,
            &t,
            &trans,
            &cones,
            GaussianArrival {
                mean: dm,
                variance: dv,
            },
            clk,
            &GaussHermite::for_variation_with(&t.variation(), POINTS),
        );
        assert_eq!(analytic.cone_walks, cones.len() as u64 * POINTS as u64);

        // Brute-force MC with the same model.
        let n = 20_000;
        let mut rng = ChaCha8Rng::seed_from_u64(99);
        let mut mc_base = vec![0.0; c.primary_outputs().len()];
        let mut mc_cone: Vec<Vec<f64>> = cones
            .iter()
            .map(|co| vec![0.0; co.reachable_outputs().len()])
            .collect();
        let mut scratch = vec![crate::dynamic::NO_EVENT; c.num_nodes()];
        let mut got = Vec::new();
        for _ in 0..n {
            let inst = t.sample_instance(&mut rng);
            let base = transition_arrivals(&c, &trans, &inst);
            for (i, o) in c.primary_outputs().iter().enumerate() {
                if base[o.index()] > clk {
                    mc_base[i] += 1.0;
                }
            }
            let delta = defect.sample(&mut rng);
            for (ci, cone) in cones.iter().enumerate() {
                cone.apply(&c, &trans, &inst, &base, delta, &mut scratch, &mut got);
                for (k, &a) in got.iter().enumerate() {
                    if a > clk {
                        mc_cone[ci][k] += 1.0;
                    }
                }
            }
        }
        let mut max_err = 0.0f64;
        for (i, &p) in analytic.baseline.iter().enumerate() {
            max_err = max_err.max((p - mc_base[i] / n as f64).abs());
        }
        for (ci, ps) in analytic.per_cone.iter().enumerate() {
            for (k, &p) in ps.iter().enumerate() {
                max_err = max_err.max((p - mc_cone[ci][k] / n as f64).abs());
            }
        }
        assert!(
            max_err < 0.02,
            "analytic vs brute-force MC diverged: max |Δp| = {max_err}"
        );
    }
}
