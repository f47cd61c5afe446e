//! # sdd-core
//!
//! Statistical delay defect diagnosis — the contribution of *Delay Defect
//! Diagnosis Based Upon Statistical Timing Models — The First Step*
//! (Krstic, Wang, Cheng, Liou, Abadir; DATE 2003).
//!
//! Given a failing chip instance (one sample of the statistical timing
//! model plus one injected delay defect of unknown location and random
//! size) and its observed pass/fail behaviour matrix `B`, rank candidate
//! defect locations (circuit arcs):
//!
//! 1. [`suspects`] — cause–effect pruning in the logic domain: only arcs
//!    logically sensitized to a failing output survive (Algorithm E.1,
//!    step 1).
//! 2. [`dictionary`] — the *probabilistic fault dictionary*: the
//!    defect-free critical-probability matrix `M_crt` and, per suspect,
//!    the defect-injected matrix `E_crt`, whose difference is the
//!    signature probability matrix `S_crt` (Definition E.1), estimated by
//!    Monte-Carlo statistical dynamic timing simulation.
//! 3. [`error_fn`] — the diagnosis error functions: `Alg_sim` Methods
//!    I/II/III (Algorithm E.1, step 7) and the explicit Euclidean error
//!    of `Alg_rev` (Algorithm F.1 / equation (5)).
//! 4. [`diagnoser`] — the end-to-end [`Diagnoser`].
//! 5. [`inject`] / [`evaluate`] — the statistical defect-injection
//!    campaign and success-rate scoring of Section I (Table I).
//! 6. [`cache`] / [`metrics`] — campaign-scale machinery: chips fan out
//!    over a thread pool and share one
//!    [`DictionaryCache`] of Monte-Carlo
//!    outcomes, with per-phase timers and cache counters surfaced in the
//!    report.
//! 7. [`session`] / [`store`] — the [`ArtifactLayer`] owning cache,
//!    store and thread-pool policy, the per-client
//!    [`DiagnosisSession`] holding overrides and metrics, and the
//!    on-disk [`DictionaryStore`] that persists dictionary Monte-Carlo
//!    banks and pattern sets across processes (format in
//!    [`mod@format`]).
//!
//! ## Example
//!
//! ```no_run
//! use sdd_core::inject::CampaignConfig;
//! use sdd_core::session::ArtifactLayer;
//! use sdd_netlist::profiles;
//!
//! # fn main() -> Result<(), sdd_core::SddError> {
//! let session = ArtifactLayer::new().session("");
//! let report = session.run_campaign(&profiles::S27, &CampaignConfig::quick(1))?;
//! println!("{}", report.render_table());
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod behavior;
pub mod cache;
pub mod defect;
pub mod diagnoser;
pub mod dictionary;
mod error;
pub mod error_fn;
pub mod evaluate;
pub mod format;
pub mod inject;
pub mod metrics;
pub mod multi_defect;
pub mod session;
pub mod store;
pub mod suspects;
pub mod table;
pub mod testutil;

pub use behavior::{BehaviorMatrix, CaptureModel, ObservedBehavior};
pub use cache::DictionaryCache;
pub use defect::{InjectedDefect, SingleDefectModel};
pub use diagnoser::{Diagnoser, DiagnoserConfig, RankedSite};
pub use dictionary::{
    DictionaryConfig, ProbabilisticDictionary, ScreenConfig, SimKernel, SuspectSignature,
    SCREEN_QUADRATURE_POINTS,
};
pub use error::{DiagnosisError, SddError};
pub use error_fn::ErrorFunction;
pub use inject::AtpgConfig;
pub use metrics::{
    CampaignMetrics, Counter, HistogramSnapshot, InstanceTrace, LatencyHistogram, MetricsExport,
    MetricsReport, MetricsSink, Phase, PhaseLatencies, TraceOutcome, METRICS_SCHEMA_VERSION,
    TRACE_RING_CAPACITY,
};
pub use session::{ArtifactLayer, ArtifactLayerBuilder, DiagnosisSession};
pub use store::{DictionaryStore, PatternKey, StoreKey};
