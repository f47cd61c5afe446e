//! # sdd-atpg
//!
//! Test generation and logic-domain fault analysis for delay defect
//! diagnosis:
//!
//! * [`value`] — three-valued (`0/1/X`) and five-valued (`0/1/X/D/D̄`)
//!   logic used by test generation.
//! * [`fault`] — stuck-at, transition (slow-to-rise/fall on an arc) and
//!   path delay fault models.
//! * [`podem`] — a PODEM automatic test pattern generator for stuck-at
//!   faults, plus a two-pattern wrapper for transition faults.
//! * [`path_sens`] — robust (hazard-free) and non-robust path
//!   sensitization conditions.
//! * [`path_atpg`] — two-vector test generation for a given path (robust
//!   first, non-robust fallback), the paper's Section H-4 pattern source.
//! * [`fault_sim`] — bit-parallel stuck-at fault simulation and the
//!   dynamically-active-edge extraction used by the diagnosis suspect
//!   pruning (Algorithm E.1, step 1).
//! * [`pattern`] — two-vector test patterns and pattern sets.
//! * [`dictionary`] — the classic (logic-domain) pass/fail fault
//!   dictionary, the baseline the paper contrasts with.
//!
//! The paper deliberately uses *untimed* logic-condition ATPG (Section G):
//! "most conventional path delay fault test generators do not take timing
//! information into account". This crate does the same.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod collapse;
pub mod dictionary;
mod error;
mod event;
pub mod fault;
pub mod fault_sim;
pub mod path_atpg;
pub mod path_sens;
pub mod pattern;
pub mod podem;
pub mod value;

pub use error::AtpgError;
pub use fault::{PathDelayFault, StuckAtFault, StuckValue, TransitionDirection, TransitionFault};
pub use path_atpg::generate_candidate_tests;
pub use pattern::{PatternSet, TestPattern};
pub use podem::{stuck_at_test_set, StuckAtTestSet};
