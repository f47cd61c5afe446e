//! The observed behaviour matrix `B` of a failing chip (equation (3)).

use sdd_atpg::dictionary::BitMatrix;
use sdd_atpg::PatternSet;
use sdd_netlist::logic::{self, simulate_pair, Transition};
use sdd_netlist::Circuit;
use sdd_timing::dynamic::{
    pattern_stride, transition_arrivals, transition_arrivals_fail_closed,
    transition_arrivals_patterns,
};
use sdd_timing::waveform::Waveform;
use sdd_timing::{waveform, TimingInstance};
use serde::{Deserialize, Serialize};

/// How the tester's capture of each output at the clock edge is modelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum CaptureModel {
    /// Transition-arrival semantics: an output fails when it switches
    /// under the pattern and its (latest-switching-fanin) arrival time
    /// exceeds `clk`. This matches the statistical dynamic timing
    /// simulator used to build the probabilistic dictionary — the paper's
    /// evaluation observes `B` with the same simulator class ("statistical
    /// defect injection and statistical delay fault simulation").
    #[default]
    TransitionArrival,
    /// Glitch-accurate transport-delay waveforms: each output is sampled
    /// at `clk`; a failure is a sampled value differing from the good
    /// machine's settled response. Strictly more physical — it also
    /// captures hazard-induced failures on logically stable outputs,
    /// which the paper's arrival-time framework cannot express.
    Waveform,
}

/// Fail-closed clock-edge capture test for transition-arrival semantics.
///
/// `NO_EVENT` (−∞) means the output never switches — a pass at any
/// clock. A NaN arrival means the timing data was corrupt (a NaN delay
/// reached this output); `arrival > clk` is false for NaN, so the naive
/// test would silently read corrupt timing as *pass* (fail-open). A
/// non-finite arrival other than `NO_EVENT` therefore reads as fail
/// (+∞ already fails via `> clk`).
#[inline]
pub(crate) fn arrival_fails(arrival: f64, clk: f64) -> bool {
    arrival > clk || arrival.is_nan()
}

/// Non-finite delays mean corrupt timing data; observation must not
/// trust any arrival the fast kernels compute from them.
#[inline]
fn instance_is_poisoned(instance: &TimingInstance) -> bool {
    instance.delays().iter().any(|d| !d.is_finite())
}

/// Clock-independent observation state of one chip instance under one
/// pattern set: everything `observe` computes *before* the clock
/// threshold is applied.
///
/// Capturing is the expensive part (timing simulation of every pattern);
/// thresholding is a pass over per-output arrivals or waveform samples.
/// Splitting the two lets the clock-sweep observation ladder re-threshold
/// one capture at many `clk` values instead of re-simulating — and the
/// capture itself runs all patterns through one topology walk in the
/// batched kernel.
#[derive(Debug, Clone)]
pub struct ObservedBehavior {
    n_outputs: usize,
    n_patterns: usize,
    state: CaptureState,
}

#[derive(Debug, Clone)]
enum CaptureState {
    /// Pattern-major output arrivals: `arrivals[j * n_outputs + i]`.
    Arrivals(Vec<f64>),
    /// Pattern-major `(waveform, expected settled value)` per output:
    /// `waves[j * n_outputs + i]`.
    Waves(Vec<(Waveform, bool)>),
}

impl ObservedBehavior {
    /// Simulates `instance` under every pattern once, retaining the
    /// clock-independent capture state. Uses the batched pattern-lane
    /// walk for [`CaptureModel::TransitionArrival`]; waveform capture is
    /// inherently per-pattern.
    ///
    /// # Panics
    ///
    /// Panics for sequential circuits or mismatched pattern widths.
    pub fn capture(
        circuit: &Circuit,
        patterns: &PatternSet,
        instance: &TimingInstance,
        capture: CaptureModel,
    ) -> ObservedBehavior {
        let outputs = circuit.primary_outputs();
        let n_outputs = outputs.len();
        let n_patterns = patterns.len();
        let state = match capture {
            // A corrupt instance (non-finite delays) takes the cold
            // poison-tracking walk — the fast lanes would swallow a NaN
            // candidate into NO_EVENT and read it as pass (fail-open).
            // Both observe kernels share this exact dispatch, so
            // bit-identity holds on corrupt instances too.
            CaptureModel::TransitionArrival if instance_is_poisoned(instance) => {
                let mut arrivals = Vec::with_capacity(n_patterns * n_outputs);
                for p in patterns.iter() {
                    let transitions = simulate_pair(circuit, &p.v1, &p.v2);
                    let arr = transition_arrivals_fail_closed(circuit, &transitions, instance);
                    arrivals.extend(outputs.iter().map(|o| arr[o.index()]));
                }
                CaptureState::Arrivals(arrivals)
            }
            CaptureModel::TransitionArrival => {
                let transitions: Vec<Vec<Transition>> = patterns
                    .iter()
                    .map(|p| simulate_pair(circuit, &p.v1, &p.v2))
                    .collect();
                let stride = pattern_stride(n_patterns);
                let arr = transition_arrivals_patterns(circuit, &transitions, instance);
                let mut arrivals = Vec::with_capacity(n_patterns * n_outputs);
                for j in 0..n_patterns {
                    arrivals.extend(outputs.iter().map(|o| arr[o.index() * stride + j]));
                }
                CaptureState::Arrivals(arrivals)
            }
            CaptureModel::Waveform => {
                let mut waves = Vec::with_capacity(n_patterns * n_outputs);
                for p in patterns.iter() {
                    let w = waveform::simulate(circuit, &p.v1, &p.v2, instance);
                    let expected = logic::simulate(circuit, &p.v2);
                    waves.extend(
                        outputs
                            .iter()
                            .map(|o| (w[o.index()].clone(), expected[o.index()])),
                    );
                }
                CaptureState::Waves(waves)
            }
        };
        ObservedBehavior {
            n_outputs,
            n_patterns,
            state,
        }
    }

    /// Thresholds the capture at cut-off period `clk`, producing the
    /// behaviour matrix — bit-identical to a fresh
    /// [`BehaviorMatrix::observe_with`] at the same `clk`, at the cost of
    /// one pass over the retained per-output samples.
    pub fn matrix_at(&self, clk: f64) -> BehaviorMatrix {
        let mut bits = BitMatrix::zeros(self.n_outputs, self.n_patterns);
        match &self.state {
            CaptureState::Arrivals(arrivals) => {
                for j in 0..self.n_patterns {
                    let row = &arrivals[j * self.n_outputs..(j + 1) * self.n_outputs];
                    for (i, &a) in row.iter().enumerate() {
                        if arrival_fails(a, clk) {
                            bits.set(i, j, true);
                        }
                    }
                }
            }
            CaptureState::Waves(waves) => {
                for j in 0..self.n_patterns {
                    let row = &waves[j * self.n_outputs..(j + 1) * self.n_outputs];
                    for (i, (w, expected)) in row.iter().enumerate() {
                        if waveform::fails_at(w, clk, *expected) {
                            bits.set(i, j, true);
                        }
                    }
                }
            }
        }
        BehaviorMatrix {
            bits,
            clk_bits: clk.to_bits(),
        }
    }

    /// Number of outputs captured.
    pub fn num_outputs(&self) -> usize {
        self.n_outputs
    }

    /// Number of patterns captured.
    pub fn num_patterns(&self) -> usize {
        self.n_patterns
    }
}

/// The 0/1 behaviour matrix `B`: `b_ij = 1` when primary output `i` fails
/// test pattern `j` on the chip under diagnosis (equation (3)).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BehaviorMatrix {
    bits: BitMatrix,
    clk_bits: u64,
}

impl BehaviorMatrix {
    /// Observes the behaviour of `instance` (typically a defect-injected
    /// chip) under the pattern set at cut-off period `clk`, with the
    /// default [`CaptureModel::TransitionArrival`].
    ///
    /// # Panics
    ///
    /// Panics for sequential circuits or mismatched pattern widths.
    pub fn observe(
        circuit: &Circuit,
        patterns: &PatternSet,
        instance: &TimingInstance,
        clk: f64,
    ) -> BehaviorMatrix {
        BehaviorMatrix::observe_with(
            circuit,
            patterns,
            instance,
            clk,
            CaptureModel::TransitionArrival,
        )
    }

    /// Observes the behaviour under an explicit capture model, using the
    /// batched pattern-lane kernel: one topology walk covers every
    /// pattern ([`sdd_timing::dynamic::transition_arrivals_patterns`]).
    ///
    /// # Panics
    ///
    /// Panics for sequential circuits or mismatched pattern widths.
    pub fn observe_with(
        circuit: &Circuit,
        patterns: &PatternSet,
        instance: &TimingInstance,
        clk: f64,
        capture: CaptureModel,
    ) -> BehaviorMatrix {
        ObservedBehavior::capture(circuit, patterns, instance, capture).matrix_at(clk)
    }

    /// Scalar observation oracle: one full-circuit walk per pattern, the
    /// loop nest the batched kernel interchanges. Kept as the reference
    /// implementation the differential suite pins
    /// [`BehaviorMatrix::observe_with`] against; no campaign runs it.
    ///
    /// # Panics
    ///
    /// Panics for sequential circuits or mismatched pattern widths.
    pub fn observe_with_scalar(
        circuit: &Circuit,
        patterns: &PatternSet,
        instance: &TimingInstance,
        clk: f64,
        capture: CaptureModel,
    ) -> BehaviorMatrix {
        let n_out = circuit.primary_outputs().len();
        let poisoned = instance_is_poisoned(instance);
        let mut bits = BitMatrix::zeros(n_out, patterns.len());
        for (j, p) in patterns.iter().enumerate() {
            match capture {
                CaptureModel::TransitionArrival => {
                    let transitions = simulate_pair(circuit, &p.v1, &p.v2);
                    let arrivals = if poisoned {
                        transition_arrivals_fail_closed(circuit, &transitions, instance)
                    } else {
                        transition_arrivals(circuit, &transitions, instance)
                    };
                    for (i, &o) in circuit.primary_outputs().iter().enumerate() {
                        if arrival_fails(arrivals[o.index()], clk) {
                            bits.set(i, j, true);
                        }
                    }
                }
                CaptureModel::Waveform => {
                    let waves = waveform::simulate(circuit, &p.v1, &p.v2, instance);
                    let expected = logic::simulate(circuit, &p.v2);
                    for (i, &o) in circuit.primary_outputs().iter().enumerate() {
                        if waveform::fails_at(&waves[o.index()], clk, expected[o.index()]) {
                            bits.set(i, j, true);
                        }
                    }
                }
            }
        }
        BehaviorMatrix {
            bits,
            clk_bits: clk.to_bits(),
        }
    }

    /// Wraps an explicit 0/1 matrix (for tests and worked examples such
    /// as the paper's Figure 2).
    pub fn from_bits(bits: BitMatrix, clk: f64) -> BehaviorMatrix {
        BehaviorMatrix {
            bits,
            clk_bits: clk.to_bits(),
        }
    }

    /// The cut-off period used for observation.
    pub fn clk(&self) -> f64 {
        f64::from_bits(self.clk_bits)
    }

    /// Number of outputs (rows).
    pub fn num_outputs(&self) -> usize {
        self.bits.rows()
    }

    /// Number of patterns (columns).
    pub fn num_patterns(&self) -> usize {
        self.bits.cols()
    }

    /// `b_ij`: does output `i` fail pattern `j`?
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices.
    pub fn fails(&self, output: usize, pattern: usize) -> bool {
        self.bits.get(output, pattern)
    }

    /// Positions of the outputs failing pattern `j`.
    pub fn failing_outputs(&self, pattern: usize) -> Vec<usize> {
        (0..self.bits.rows())
            .filter(|&i| self.bits.get(i, pattern))
            .collect()
    }

    /// Indices of patterns with at least one failing output.
    pub fn failing_patterns(&self) -> Vec<usize> {
        (0..self.bits.cols())
            .filter(|&j| (0..self.bits.rows()).any(|i| self.bits.get(i, j)))
            .collect()
    }

    /// Total number of failing (output, pattern) entries.
    pub fn num_failures(&self) -> u32 {
        self.bits.count_ones()
    }

    /// Returns `true` if the chip passed every pattern.
    pub fn all_pass(&self) -> bool {
        self.num_failures() == 0
    }

    /// The underlying bit matrix (for the logic-dictionary baseline).
    pub fn bits(&self) -> &BitMatrix {
        &self.bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdd_atpg::TestPattern;
    use sdd_netlist::{CircuitBuilder, GateKind};

    /// Chain a -> NOT g1 -> NOT g2 with edge delays 0.4 each.
    fn chain() -> (Circuit, TimingInstance) {
        let mut b = CircuitBuilder::new("c");
        let a = b.input("a");
        let g1 = b.gate("g1", GateKind::Not, &[a]).unwrap();
        let g2 = b.gate("g2", GateKind::Not, &[g1]).unwrap();
        b.output(g2);
        let c = b.finish().unwrap();
        (c, TimingInstance::new(vec![0.4, 0.4]))
    }

    fn rising_pattern() -> PatternSet {
        [TestPattern::new(vec![false], vec![true])]
            .into_iter()
            .collect()
    }

    #[test]
    fn slow_chip_fails_fast_chip_passes() {
        let (c, inst) = chain();
        let ps = rising_pattern();
        // Output settles at 0.8; clock at 1.0 passes, clock at 0.5 fails.
        let pass = BehaviorMatrix::observe(&c, &ps, &inst, 1.0);
        assert!(pass.all_pass());
        let fail = BehaviorMatrix::observe(&c, &ps, &inst, 0.5);
        assert!(!fail.all_pass());
        assert!(fail.fails(0, 0));
        assert_eq!(fail.failing_outputs(0), vec![0]);
        assert_eq!(fail.failing_patterns(), vec![0]);
        assert_eq!(fail.num_failures(), 1);
        assert_eq!(fail.clk(), 0.5);
    }

    #[test]
    fn defect_turns_pass_into_fail() {
        let (c, inst) = chain();
        let ps = rising_pattern();
        let clk = 1.0;
        assert!(BehaviorMatrix::observe(&c, &ps, &inst, clk).all_pass());
        let defective = inst.with_extra_delay(sdd_netlist::EdgeId::from_index(0), 0.5);
        let b = BehaviorMatrix::observe(&c, &ps, &defective, clk);
        assert!(!b.all_pass());
    }

    #[test]
    fn stable_pattern_never_fails() {
        let (c, inst) = chain();
        let ps: PatternSet = [TestPattern::new(vec![true], vec![true])]
            .into_iter()
            .collect();
        let b = BehaviorMatrix::observe(&c, &ps, &inst, 0.01);
        assert!(b.all_pass());
    }

    #[test]
    fn dimensions() {
        let (c, inst) = chain();
        let ps: PatternSet = [
            TestPattern::new(vec![false], vec![true]),
            TestPattern::new(vec![true], vec![false]),
        ]
        .into_iter()
        .collect();
        let b = BehaviorMatrix::observe(&c, &ps, &inst, 1.0);
        assert_eq!(b.num_outputs(), 1);
        assert_eq!(b.num_patterns(), 2);
    }

    #[test]
    fn nan_arrival_fails_closed_in_both_capture_models() {
        // Regression: a NaN arrival must read as FAIL, not silently pass
        // (`NaN > clk` is false). NO_EVENT (−∞) must still pass.
        let (c, _) = chain();
        let nan_inst = TimingInstance::new(vec![f64::NAN, 0.4]);
        let ps = rising_pattern();
        for capture in [CaptureModel::TransitionArrival, CaptureModel::Waveform] {
            let b = BehaviorMatrix::observe_with(&c, &ps, &nan_inst, 100.0, capture);
            assert!(
                b.fails(0, 0),
                "NaN-poisoned arrival read as pass under {capture:?}"
            );
            let scalar = BehaviorMatrix::observe_with_scalar(&c, &ps, &nan_inst, 100.0, capture);
            assert_eq!(b, scalar, "kernels disagree under {capture:?}");
        }
        // A stable pattern never switches: NO_EVENT stays a pass even on
        // the poisoned instance (the NaN delay is never exercised).
        let stable: PatternSet = [TestPattern::new(vec![true], vec![true])]
            .into_iter()
            .collect();
        let b = BehaviorMatrix::observe(&c, &stable, &nan_inst, 0.01);
        assert!(b.all_pass());
    }

    #[test]
    fn infinite_arrival_fails_closed() {
        let (c, _) = chain();
        let inf_inst = TimingInstance::new(vec![f64::INFINITY, 0.4]);
        let ps = rising_pattern();
        let b = BehaviorMatrix::observe(&c, &ps, &inf_inst, f64::MAX);
        assert!(b.fails(0, 0));
    }

    #[test]
    fn batched_observe_matches_scalar_and_reuses_capture() {
        let (c, inst) = chain();
        let ps: PatternSet = [
            TestPattern::new(vec![false], vec![true]),
            TestPattern::new(vec![true], vec![false]),
            TestPattern::new(vec![true], vec![true]),
        ]
        .into_iter()
        .collect();
        for capture in [CaptureModel::TransitionArrival, CaptureModel::Waveform] {
            let observed = ObservedBehavior::capture(&c, &ps, &inst, capture);
            assert_eq!(observed.num_outputs(), 1);
            assert_eq!(observed.num_patterns(), 3);
            for clk in [0.1, 0.5, 0.8, 1.0] {
                let batched = observed.matrix_at(clk);
                let scalar = BehaviorMatrix::observe_with_scalar(&c, &ps, &inst, clk, capture);
                assert_eq!(batched, scalar, "clk {clk} capture {capture:?}");
            }
        }
    }

    #[test]
    fn from_bits_roundtrip() {
        let mut bits = BitMatrix::zeros(2, 2);
        bits.set(1, 0, true);
        let b = BehaviorMatrix::from_bits(bits.clone(), 2.5);
        assert!(b.fails(1, 0));
        assert!(!b.fails(0, 0));
        assert_eq!(b.bits(), &bits);
        assert_eq!(b.clk(), 2.5);
    }
}
