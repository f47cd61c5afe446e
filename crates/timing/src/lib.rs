//! # sdd-timing
//!
//! Statistical timing substrate for delay defect diagnosis, reproducing the
//! framework of the paper's references \[5\] and \[17\] (Monte-Carlo, cell-based
//! statistical timing analysis):
//!
//! * [`Dist`] — parametric delay distributions (the pin-to-pin delay random
//!   variables `f(e)` of the paper's circuit model, Definition D.1).
//! * [`Samples`] — empirical random variables produced by Monte-Carlo
//!   analysis, with [`Samples::critical_probability`] implementing
//!   Definition D.6.
//! * [`CellLibrary`] — synthetic pre-characterized cell delays (substituting
//!   the paper's Monte-Carlo SPICE / ELDO characterization of a 0.25 µm,
//!   2.5 V CMOS library) indexed by gate kind, pin and output load.
//! * [`CircuitTiming`] — attaches a delay random variable to every arc of a
//!   circuit, with correlated global and independent local variation.
//! * [`TimingInstance`] — a *circuit instance* (Definition D.2): one fixed
//!   delay per arc, sampled from the model.
//! * [`sta`] — Monte-Carlo *static* statistical timing analysis
//!   (Definition D.5): arrival-time pdfs per output, circuit delay `Δ(C)`.
//! * [`dynamic`] — per-pattern *dynamic* timing simulation over the
//!   sensitized (induced) subcircuit, plus a cone-incremental evaluator for
//!   fast defect-injected re-analysis.
//! * [`waveform`] — exact transport-delay event simulation (glitch-accurate)
//!   used to observe the behaviour of failing chip instances.
//! * [`path`] — paths, timing length `TL(p)`, and statistically-longest
//!   path selection through a defect site (Section H-4).
//! * [`analytic`] — sampling-free moment propagation over the sensitized
//!   subcircuit (Gauss–Hermite over the die-level factor, Clark max per
//!   merge), the scoring model of the screened dictionary kernel's
//!   suspect filter.
//!
//! ## Example
//!
//! ```
//! use sdd_netlist::generator::{generate, GeneratorConfig};
//! use sdd_timing::{CellLibrary, CircuitTiming, VariationModel, sta};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let circuit = generate(&GeneratorConfig::small("demo", 1))?.to_combinational()?;
//! let lib = CellLibrary::default_025um();
//! let timing = CircuitTiming::characterize(&circuit, &lib, VariationModel::default());
//! let sta = sta::static_mc(&circuit, &timing, 200, 42)?;
//! assert!(sta.circuit_delay.mean() > 0.0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analytic;
pub mod block_sta;
mod cell_lib;
pub mod crit;
mod dist;
pub mod dynamic;
mod error;
mod instance;
mod keystream;
pub mod path;
mod sample;
pub mod sta;
mod timing_model;
mod variation;
pub mod waveform;

pub use cell_lib::CellLibrary;
pub use dist::Dist;
pub use error::TimingError;
pub use instance::{InstanceBatch, TimingInstance};
pub use sample::Samples;
pub use timing_model::CircuitTiming;
pub use variation::VariationModel;
