//! # sdd — Statistical Delay Defect Diagnosis
//!
//! Facade crate re-exporting the full workspace: a production-quality Rust
//! reproduction of *Delay Defect Diagnosis Based Upon Statistical Timing
//! Models — The First Step* (Krstic, Wang, Cheng, Liou, Abadir; DATE 2003).
//!
//! * [`netlist`] — gate-level circuits, ISCAS-89 `.bench` I/O, synthetic
//!   benchmark generation, logic simulation.
//! * [`timing`] — statistical timing models, Monte-Carlo statistical STA,
//!   dynamic timing simulation, path selection.
//! * [`atpg`] — fault models, PODEM, path-delay test generation, logic
//!   fault simulation.
//! * [`diagnosis`] — the paper's contribution: probabilistic fault
//!   dictionaries, defect injection, and the `Alg_sim` / `Alg_rev`
//!   diagnosis algorithms.
//!
//! See `examples/quickstart.rs` for an end-to-end tour, or start from
//! [`prelude`]:
//!
//! ```no_run
//! use sdd::prelude::*;
//!
//! fn main() -> Result<(), SddError> {
//!     let layer = ArtifactLayer::builder().store_dir("dict-store").build()?;
//!     let session = layer.session("quickstart");
//!     let report = session.run_campaign(&profiles::S27, &CampaignConfig::quick(1))?;
//!     println!("{}", report.render_table());
//!     Ok(())
//! }
//! ```
//!
//! Multiple clients share one warm artifact pool by opening one
//! [`prelude::DiagnosisSession`] per tenant on a single
//! [`prelude::ArtifactLayer`]; a single-client application opens one
//! session, e.g. `ArtifactLayer::new().session("")`. `sdd-server`
//! serves the same session API over JSON-lines TCP.

#![warn(missing_docs)]

pub use sdd_atpg as atpg;
pub use sdd_core as diagnosis;
pub use sdd_netlist as netlist;
pub use sdd_timing as timing;

pub mod prelude {
    //! Everything a typical diagnosis application needs, one import away.
    //!
    //! Centered on the two-layer serving API: an [`ArtifactLayer`] owns
    //! the shared caches, store and thread-pool policy; each client holds
    //! a [`DiagnosisSession`] (tenant id, kernel choice, private
    //! metrics). The quickstart flow still works step by step — build or
    //! parse a circuit, characterize its statistical timing, inject a
    //! defect, generate patterns, observe behaviour, and diagnose through
    //! [`Diagnoser`] — and a layer built with a store directory persists
    //! dictionary banks and pattern sets on disk via [`DictionaryStore`].

    pub use sdd_core::defect::SingleDefectModel;
    pub use sdd_core::inject::{CampaignConfig, ClockPolicy};
    pub use sdd_core::{
        ArtifactLayer, BehaviorMatrix, CampaignMetrics, Diagnoser, DiagnoserConfig, DiagnosisError,
        DiagnosisSession, DictionaryCache, DictionaryConfig, DictionaryStore, ErrorFunction,
        MetricsReport, RankedSite, SddError, SimKernel,
    };
    pub use sdd_netlist::bench_format;
    pub use sdd_netlist::generator::{generate, GeneratorConfig};
    pub use sdd_netlist::{profiles, Circuit, EdgeId};
    pub use sdd_timing::{sta, CellLibrary, CircuitTiming, Dist, VariationModel};
}
