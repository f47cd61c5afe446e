//! Error types for the diagnosis layer.
//!
//! Two levels exist. [`DiagnosisError`] is the historical, fine-grained
//! error of the per-instance diagnosis path. [`SddError`] is the unified
//! top-level error of the whole stack: every layer's error — netlist,
//! timing, ATPG, diagnosis, dictionary store — converts into it via
//! `From`, so application code (and the [`crate::session`] API) can use
//! one `Result<_, SddError>` end to end with `?`.

use std::error::Error;
use std::fmt;
use std::path::PathBuf;

/// Errors produced by diagnosis and the injection campaign.
#[derive(Debug)]
#[non_exhaustive]
pub enum DiagnosisError {
    /// The suspect set is empty (no arc is logically sensitized to a
    /// failing output) — the behaviour cannot be explained by a single
    /// delay defect under the given patterns.
    NoSuspects,
    /// The behaviour matrix shape does not match the pattern set /
    /// circuit.
    ShapeMismatch {
        /// What mismatched.
        what: String,
    },
    /// No test patterns could be generated for the target.
    NoPatterns,
    /// A configuration asks for zero Monte-Carlo samples.
    ZeroSamples {
        /// The field, as a path in the configuration (`sta_samples`,
        /// `dictionary.n_samples`).
        field: &'static str,
    },
    /// An underlying netlist error.
    Netlist(sdd_netlist::NetlistError),
    /// An underlying timing error.
    Timing(sdd_timing::TimingError),
    /// An underlying ATPG error.
    Atpg(sdd_atpg::AtpgError),
}

impl fmt::Display for DiagnosisError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiagnosisError::NoSuspects => {
                write!(f, "no suspect arc is sensitized to a failing output")
            }
            DiagnosisError::ShapeMismatch { what } => write!(f, "shape mismatch: {what}"),
            DiagnosisError::NoPatterns => write!(f, "no test patterns could be generated"),
            DiagnosisError::ZeroSamples { field } => write!(
                f,
                "invalid config `{field}`: monte-carlo sample count must be positive"
            ),
            DiagnosisError::Netlist(e) => write!(f, "netlist error: {e}"),
            DiagnosisError::Timing(e) => write!(f, "timing error: {e}"),
            DiagnosisError::Atpg(e) => write!(f, "atpg error: {e}"),
        }
    }
}

impl Error for DiagnosisError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            DiagnosisError::Netlist(e) => Some(e),
            DiagnosisError::Timing(e) => Some(e),
            DiagnosisError::Atpg(e) => Some(e),
            _ => None,
        }
    }
}

impl From<sdd_netlist::NetlistError> for DiagnosisError {
    fn from(e: sdd_netlist::NetlistError) -> Self {
        DiagnosisError::Netlist(e)
    }
}

impl From<sdd_timing::TimingError> for DiagnosisError {
    fn from(e: sdd_timing::TimingError) -> Self {
        DiagnosisError::Timing(e)
    }
}

impl From<sdd_atpg::AtpgError> for DiagnosisError {
    fn from(e: sdd_atpg::AtpgError) -> Self {
        DiagnosisError::Atpg(e)
    }
}

/// The unified error of the whole SDD stack.
///
/// Every per-layer error converts into this via `From`, so `?` works
/// uniformly whether the failure came from netlist parsing, timing
/// analysis, pattern generation, diagnosis proper, or the on-disk
/// dictionary store.
#[derive(Debug)]
#[non_exhaustive]
pub enum SddError {
    /// A netlist-layer error (parsing, topology).
    Netlist(sdd_netlist::NetlistError),
    /// A timing-layer error (statistical model, simulation).
    Timing(sdd_timing::TimingError),
    /// An ATPG-layer error (pattern generation).
    Atpg(sdd_atpg::AtpgError),
    /// A diagnosis-layer error (suspects, campaign shapes).
    Diagnosis(DiagnosisError),
    /// The dictionary store directory could not be opened or managed.
    /// Note that *file-level* store problems (corruption, version skew)
    /// never surface as errors — they degrade to recomputation.
    Store {
        /// The store directory involved.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// An engine configuration problem (e.g. an unbuildable thread pool).
    Config(String),
}

impl fmt::Display for SddError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SddError::Netlist(e) => write!(f, "netlist error: {e}"),
            SddError::Timing(e) => write!(f, "timing error: {e}"),
            SddError::Atpg(e) => write!(f, "atpg error: {e}"),
            SddError::Diagnosis(e) => write!(f, "diagnosis error: {e}"),
            SddError::Store { path, source } => {
                write!(f, "dictionary store at {}: {source}", path.display())
            }
            SddError::Config(what) => write!(f, "engine configuration: {what}"),
        }
    }
}

impl Error for SddError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SddError::Netlist(e) => Some(e),
            SddError::Timing(e) => Some(e),
            SddError::Atpg(e) => Some(e),
            SddError::Diagnosis(e) => Some(e),
            SddError::Store { source, .. } => Some(source),
            SddError::Config(_) => None,
        }
    }
}

impl From<sdd_netlist::NetlistError> for SddError {
    fn from(e: sdd_netlist::NetlistError) -> Self {
        SddError::Netlist(e)
    }
}

impl From<sdd_timing::TimingError> for SddError {
    fn from(e: sdd_timing::TimingError) -> Self {
        SddError::Timing(e)
    }
}

impl From<sdd_atpg::AtpgError> for SddError {
    fn from(e: sdd_atpg::AtpgError) -> Self {
        SddError::Atpg(e)
    }
}

impl From<DiagnosisError> for SddError {
    fn from(e: DiagnosisError) -> Self {
        // Keep the most specific wrapper: a DiagnosisError that itself
        // wraps a lower layer is lifted to that layer's SddError variant.
        match e {
            DiagnosisError::Netlist(e) => SddError::Netlist(e),
            DiagnosisError::Timing(e) => SddError::Timing(e),
            DiagnosisError::Atpg(e) => SddError::Atpg(e),
            other => SddError::Diagnosis(other),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = DiagnosisError::from(sdd_timing::TimingError::ZeroSamples);
        assert!(e.to_string().contains("timing"));
        assert!(e.source().is_some());
        assert!(DiagnosisError::NoSuspects.source().is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<DiagnosisError>();
        assert_send_sync::<SddError>();
    }

    #[test]
    fn sdd_error_lifts_layer_errors() {
        // The lift keeps the most specific wrapper: a DiagnosisError that
        // itself wraps a lower layer surfaces as that layer's variant.
        let up = SddError::from(DiagnosisError::from(sdd_timing::TimingError::ZeroSamples));
        assert!(matches!(up, SddError::Timing(_)));
        let plain = SddError::from(DiagnosisError::NoSuspects);
        assert!(matches!(
            plain,
            SddError::Diagnosis(DiagnosisError::NoSuspects)
        ));
    }

    #[test]
    fn sdd_error_display_and_source_cover_variants() {
        let store = SddError::Store {
            path: PathBuf::from("/tmp/x"),
            source: std::io::Error::other("boom"),
        };
        assert!(store.to_string().contains("/tmp/x"));
        assert!(store.source().is_some());
        assert!(SddError::Config("x".into()).source().is_none());
        assert!(SddError::from(sdd_atpg::AtpgError::SequentialCircuit)
            .to_string()
            .contains("atpg"));
    }
}
