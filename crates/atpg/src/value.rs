//! Multi-valued logic for test generation.
//!
//! * [`V3`] — the three-valued `{0, 1, X}` logic used by justification
//!   and two-frame path test generation.
//! * [`V5`] — the five-valued Roth D-algebra `{0, 1, X, D, D̄}` used by
//!   PODEM (`D` = 1 in the good machine, 0 in the faulty machine).

use sdd_netlist::GateKind;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Three-valued logic: 0, 1 or unknown.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum V3 {
    /// Logic 0.
    Zero,
    /// Logic 1.
    One,
    /// Unassigned / unknown.
    X,
}

impl V3 {
    /// Converts a concrete boolean.
    pub fn from_bool(b: bool) -> V3 {
        if b {
            V3::One
        } else {
            V3::Zero
        }
    }

    /// The concrete value, if assigned.
    pub fn to_bool(self) -> Option<bool> {
        match self {
            V3::Zero => Some(false),
            V3::One => Some(true),
            V3::X => None,
        }
    }

    /// Returns `true` if the value is assigned.
    pub fn is_known(self) -> bool {
        self != V3::X
    }

    /// Logical negation (X stays X).
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> V3 {
        match self {
            V3::Zero => V3::One,
            V3::One => V3::Zero,
            V3::X => V3::X,
        }
    }

    /// Evaluates a gate over three-valued inputs with standard
    /// X-propagation (a controlling value decides the output even when
    /// other inputs are X).
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty for kinds requiring fanins.
    pub fn eval_gate(kind: GateKind, inputs: &[V3]) -> V3 {
        V3::eval_iter(kind, inputs.iter().copied())
    }

    /// [`V3::eval_gate`] over fanin values supplied by an iterator, so
    /// callers can evaluate straight from a value table without
    /// collecting the fanins first.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty for kinds requiring fanins.
    pub(crate) fn eval_iter(kind: GateKind, mut inputs: impl Iterator<Item = V3>) -> V3 {
        match kind {
            GateKind::Input => panic!("primary input has no logic function"),
            GateKind::Dff | GateKind::Buf => inputs.next().expect("gate has a fanin"),
            GateKind::Not => inputs.next().expect("gate has a fanin").not(),
            GateKind::And | GateKind::Nand => {
                let mut any_x = false;
                let mut out = V3::One;
                for v in inputs {
                    match v {
                        V3::Zero => {
                            out = V3::Zero;
                            any_x = false;
                            break;
                        }
                        V3::X => any_x = true,
                        V3::One => {}
                    }
                }
                let out = if any_x { V3::X } else { out };
                if kind == GateKind::Nand {
                    out.not()
                } else {
                    out
                }
            }
            GateKind::Or | GateKind::Nor => {
                let mut any_x = false;
                let mut out = V3::Zero;
                for v in inputs {
                    match v {
                        V3::One => {
                            out = V3::One;
                            any_x = false;
                            break;
                        }
                        V3::X => any_x = true,
                        V3::Zero => {}
                    }
                }
                let out = if any_x { V3::X } else { out };
                if kind == GateKind::Nor {
                    out.not()
                } else {
                    out
                }
            }
            GateKind::Xor | GateKind::Xnor => {
                let mut acc = false;
                for v in inputs {
                    match v {
                        V3::X => return V3::X,
                        V3::One => acc = !acc,
                        V3::Zero => {}
                    }
                }
                let out = V3::from_bool(acc);
                if kind == GateKind::Xnor {
                    out.not()
                } else {
                    out
                }
            }
        }
    }
}

impl fmt::Display for V3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            V3::Zero => write!(f, "0"),
            V3::One => write!(f, "1"),
            V3::X => write!(f, "X"),
        }
    }
}

/// Five-valued Roth D-algebra for PODEM: `D` is 1/0 (good/faulty),
/// `Db` is 0/1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum V5 {
    /// 0 in both machines.
    Zero,
    /// 1 in both machines.
    One,
    /// Unknown.
    X,
    /// 1 in the good machine, 0 in the faulty machine.
    D,
    /// 0 in the good machine, 1 in the faulty machine.
    Db,
}

impl V5 {
    /// The good-machine component.
    pub fn good(self) -> V3 {
        match self {
            V5::Zero | V5::Db => V3::Zero,
            V5::One | V5::D => V3::One,
            V5::X => V3::X,
        }
    }

    /// The faulty-machine component.
    pub fn faulty(self) -> V3 {
        match self {
            V5::Zero | V5::D => V3::Zero,
            V5::One | V5::Db => V3::One,
            V5::X => V3::X,
        }
    }

    /// Recombines good/faulty components into a five-valued value
    /// (X if either is X).
    pub fn from_parts(good: V3, faulty: V3) -> V5 {
        match (good, faulty) {
            (V3::X, _) | (_, V3::X) => V5::X,
            (V3::Zero, V3::Zero) => V5::Zero,
            (V3::One, V3::One) => V5::One,
            (V3::One, V3::Zero) => V5::D,
            (V3::Zero, V3::One) => V5::Db,
        }
    }

    /// Returns `true` for `D` or `D̄` (a fault effect).
    pub fn is_fault_effect(self) -> bool {
        matches!(self, V5::D | V5::Db)
    }

    /// Evaluates a gate over five-valued inputs by evaluating the good
    /// and faulty machines separately.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty for kinds requiring fanins.
    pub fn eval_gate(kind: GateKind, inputs: &[V5]) -> V5 {
        V5::eval_iter(kind, inputs.iter().copied())
    }

    /// The value's machine components as bits: [`GOOD_0`], [`GOOD_1`],
    /// [`FAULTY_0`] and [`FAULTY_1`] (none for X).
    fn component_bits(self) -> u8 {
        match self {
            V5::Zero => GOOD_0 | FAULTY_0,
            V5::One => GOOD_1 | FAULTY_1,
            V5::X => 0,
            V5::D => GOOD_1 | FAULTY_0,
            V5::Db => GOOD_0 | FAULTY_1,
        }
    }

    /// [`V5::eval_gate`] over fanin values supplied by an iterator,
    /// evaluating both machines in one branch-light, allocation-free
    /// pass. Equal to evaluating the good and faulty components
    /// separately with [`V3::eval_gate`] and recombining them with
    /// [`V5::from_parts`].
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty for kinds requiring fanins.
    pub(crate) fn eval_iter(kind: GateKind, mut inputs: impl Iterator<Item = V5>) -> V5 {
        // `any`: some input has the component; `all`: every input has it.
        let (mut any, mut all) = (0u8, 0xFu8);
        let (good, faulty) = match kind {
            GateKind::Input => panic!("primary input has no logic function"),
            GateKind::Dff | GateKind::Buf => return inputs.next().expect("gate has a fanin"),
            GateKind::Not => {
                let v = inputs.next().expect("gate has a fanin");
                (v.good().not(), v.faulty().not())
            }
            GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                for v in inputs {
                    let m = v.component_bits();
                    any |= m;
                    all &= m;
                }
                // A controlling input decides the machine; otherwise it
                // is known only if every input is non-controlling.
                let (ctl, nc, ctl_value) = match kind.controlling_value() {
                    Some(false) => (GOOD_0, GOOD_1, V3::Zero),
                    _ => (GOOD_1, GOOD_0, V3::One),
                };
                let settle = |shift: u8| {
                    let out = if any & (ctl << shift) != 0 {
                        ctl_value
                    } else if all & (nc << shift) != 0 {
                        ctl_value.not()
                    } else {
                        V3::X
                    };
                    if kind.inverts() {
                        out.not()
                    } else {
                        out
                    }
                };
                (settle(0), settle(2))
            }
            GateKind::Xor | GateKind::Xnor => {
                // `any` accumulates the parity of the 1-components; `all`
                // keeps a machine's 0-bit while every input is known in it.
                for v in inputs {
                    let m = v.component_bits();
                    any ^= m;
                    all &= m | (m >> 1);
                }
                let invert = kind == GateKind::Xnor;
                let settle = |shift: u8| {
                    if all & (GOOD_0 << shift) == 0 {
                        V3::X
                    } else {
                        V3::from_bool((any & (GOOD_1 << shift) != 0) != invert)
                    }
                };
                (settle(0), settle(2))
            }
        };
        V5::from_parts(good, faulty)
    }
}

/// [`V5::component_bits`]: the good machine is 0.
const GOOD_0: u8 = 1;
/// [`V5::component_bits`]: the good machine is 1.
const GOOD_1: u8 = 2;
/// [`V5::component_bits`]: the faulty machine is 0.
const FAULTY_0: u8 = 4;
/// [`V5::component_bits`]: the faulty machine is 1.
const FAULTY_1: u8 = 8;

impl fmt::Display for V5 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            V5::Zero => write!(f, "0"),
            V5::One => write!(f, "1"),
            V5::X => write!(f, "X"),
            V5::D => write!(f, "D"),
            V5::Db => write!(f, "D'"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v3_not() {
        assert_eq!(V3::Zero.not(), V3::One);
        assert_eq!(V3::One.not(), V3::Zero);
        assert_eq!(V3::X.not(), V3::X);
    }

    #[test]
    fn v3_controlling_value_decides_despite_x() {
        assert_eq!(V3::eval_gate(GateKind::And, &[V3::Zero, V3::X]), V3::Zero);
        assert_eq!(V3::eval_gate(GateKind::Nand, &[V3::Zero, V3::X]), V3::One);
        assert_eq!(V3::eval_gate(GateKind::Or, &[V3::One, V3::X]), V3::One);
        assert_eq!(V3::eval_gate(GateKind::Nor, &[V3::One, V3::X]), V3::Zero);
    }

    #[test]
    fn v3_x_propagates_without_controlling() {
        assert_eq!(V3::eval_gate(GateKind::And, &[V3::One, V3::X]), V3::X);
        assert_eq!(V3::eval_gate(GateKind::Or, &[V3::Zero, V3::X]), V3::X);
        assert_eq!(V3::eval_gate(GateKind::Xor, &[V3::One, V3::X]), V3::X);
    }

    #[test]
    fn v3_matches_boolean_on_known_inputs() {
        for kind in GateKind::MULTI_INPUT_KINDS {
            for i in 0..4usize {
                let bits = [(i & 1) != 0, (i & 2) != 0];
                let v3 = [V3::from_bool(bits[0]), V3::from_bool(bits[1])];
                assert_eq!(
                    V3::eval_gate(kind, &v3).to_bool(),
                    Some(kind.eval(&bits)),
                    "{kind} {bits:?}"
                );
            }
        }
    }

    #[test]
    fn v5_components() {
        assert_eq!(V5::D.good(), V3::One);
        assert_eq!(V5::D.faulty(), V3::Zero);
        assert_eq!(V5::Db.good(), V3::Zero);
        assert_eq!(V5::Db.faulty(), V3::One);
        assert!(V5::D.is_fault_effect());
        assert!(!V5::One.is_fault_effect());
    }

    #[test]
    fn v5_from_parts_roundtrip() {
        for v in [V5::Zero, V5::One, V5::D, V5::Db] {
            assert_eq!(V5::from_parts(v.good(), v.faulty()), v);
        }
        assert_eq!(V5::from_parts(V3::X, V3::One), V5::X);
    }

    #[test]
    fn v5_d_propagation_through_gates() {
        // AND(D, 1) = D; AND(D, 0) = 0; NOT(D) = D'.
        assert_eq!(V5::eval_gate(GateKind::And, &[V5::D, V5::One]), V5::D);
        assert_eq!(V5::eval_gate(GateKind::And, &[V5::D, V5::Zero]), V5::Zero);
        assert_eq!(V5::eval_gate(GateKind::Not, &[V5::D]), V5::Db);
        // XOR(D, D) = 0 (fault effects cancel).
        assert_eq!(V5::eval_gate(GateKind::Xor, &[V5::D, V5::D]), V5::Zero);
        // AND(D, D') = 0 in both machines.
        assert_eq!(V5::eval_gate(GateKind::And, &[V5::D, V5::Db]), V5::Zero);
    }

    /// The one-pass five-valued evaluator equals the componentwise
    /// definition on every input combination of up to three fanins.
    #[test]
    fn v5_one_pass_eval_matches_componentwise() {
        const ALL: [V5; 5] = [V5::Zero, V5::One, V5::X, V5::D, V5::Db];
        let kinds = [GateKind::Buf, GateKind::Dff, GateKind::Not]
            .into_iter()
            .chain(GateKind::MULTI_INPUT_KINDS);
        for kind in kinds {
            let (lo, hi) = kind.arity();
            for arity in lo..=hi.min(3) {
                for code in 0..5usize.pow(arity as u32) {
                    let inputs: Vec<V5> = (0..arity)
                        .map(|i| ALL[code / 5usize.pow(i as u32) % 5])
                        .collect();
                    let good: Vec<V3> = inputs.iter().map(|v| v.good()).collect();
                    let faulty: Vec<V3> = inputs.iter().map(|v| v.faulty()).collect();
                    let expected =
                        V5::from_parts(V3::eval_gate(kind, &good), V3::eval_gate(kind, &faulty));
                    assert_eq!(V5::eval_gate(kind, &inputs), expected, "{kind} {inputs:?}");
                }
            }
        }
    }

    #[test]
    fn displays() {
        assert_eq!(V3::X.to_string(), "X");
        assert_eq!(V5::Db.to_string(), "D'");
    }
}
