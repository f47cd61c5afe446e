//! Accuracy scoring for injection campaigns (Section I).
//!
//! "If the user-defined `K` value is 1, the accuracy is a binary
//! success/failure depending on if the answer matches the injected
//! defect. If `K > 1`, it is a success if the injected defect is
//! *contained* in the potential defect set answered by the algorithm."

use crate::diagnoser::RankedSite;
use crate::error_fn::ErrorFunction;
use crate::inject::InstanceOutcome;
use crate::metrics::{CampaignMetrics, InstanceTrace};
use sdd_netlist::EdgeId;
use serde::{Deserialize, Serialize};

/// Whether a diagnosis succeeded for one chip at one `K`.
pub fn is_success(ranking: &[RankedSite], injected: EdgeId, k: usize) -> bool {
    ranking.iter().take(k).any(|r| r.edge == injected)
}

/// Accuracy of a full injection campaign on one circuit: success counts
/// per `(K, error function)` cell, Table-I style.
///
/// Equality compares the accuracy results only — [`CampaignMetrics`] is
/// excluded, since two runs of the same campaign produce identical
/// accuracy but different wall-clock timings.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AccuracyReport {
    /// Circuit name.
    pub circuit: String,
    /// The `K` values evaluated (row triplet of Table I).
    pub k_values: Vec<usize>,
    /// The error functions evaluated (column group of Table I).
    pub functions: Vec<ErrorFunction>,
    /// `successes[k_ix][f_ix]` out of [`AccuracyReport::trials`].
    pub successes: Vec<Vec<usize>>,
    /// Number of diagnosed chip instances (the paper's `N`).
    pub trials: usize,
    /// Mean size of the pruned suspect set.
    pub avg_suspects: f64,
    /// Mean number of applied test patterns.
    pub avg_patterns: f64,
    /// Observability snapshot of the campaign that produced the report.
    pub metrics: CampaignMetrics,
    /// Per-instance diagnosis traces, sorted by chip index (bounded by
    /// [`crate::metrics::TRACE_RING_CAPACITY`]; empty for reports built
    /// without a campaign). Like `metrics`, excluded from equality.
    #[serde(default)]
    pub traces: Vec<InstanceTrace>,
}

impl PartialEq for AccuracyReport {
    fn eq(&self, other: &Self) -> bool {
        // `metrics` and `traces` deliberately excluded (timings vary
        // run to run).
        self.circuit == other.circuit
            && self.k_values == other.k_values
            && self.functions == other.functions
            && self.successes == other.successes
            && self.trials == other.trials
            && self.avg_suspects == other.avg_suspects
            && self.avg_patterns == other.avg_patterns
    }
}

impl AccuracyReport {
    /// An empty report ready for accumulation.
    pub fn new(
        circuit: impl Into<String>,
        k_values: Vec<usize>,
        functions: Vec<ErrorFunction>,
    ) -> AccuracyReport {
        let successes = vec![vec![0; functions.len()]; k_values.len()];
        AccuracyReport {
            circuit: circuit.into(),
            k_values,
            functions,
            successes,
            trials: 0,
            avg_suspects: 0.0,
            avg_patterns: 0.0,
            metrics: CampaignMetrics::default(),
            traces: Vec::new(),
        }
    }

    /// Records one diagnosed instance: `rankings` holds the full ranking
    /// per error function (in [`AccuracyReport::functions`] order), or an
    /// empty slice when diagnosis failed outright.
    pub fn record(
        &mut self,
        injected: EdgeId,
        rankings: &[Vec<RankedSite>],
        n_suspects: usize,
        n_patterns: usize,
    ) {
        self.record_any(injected, &[], rankings, n_suspects, n_patterns);
    }

    /// [`record`](Self::record) for a chip carrying defects on
    /// `injected` and `others`: a cell succeeds when *any* of them is in
    /// the top `K` (the failure-analysis lab finds a defect, repairs it
    /// and iterates).
    fn record_any(
        &mut self,
        injected: EdgeId,
        others: &[EdgeId],
        rankings: &[Vec<RankedSite>],
        n_suspects: usize,
        n_patterns: usize,
    ) {
        assert_eq!(
            rankings.len(),
            self.functions.len(),
            "one ranking per function required"
        );
        let t = self.trials as f64;
        self.avg_suspects = (self.avg_suspects * t + n_suspects as f64) / (t + 1.0);
        self.avg_patterns = (self.avg_patterns * t + n_patterns as f64) / (t + 1.0);
        self.trials += 1;
        for (k_ix, &k) in self.k_values.iter().enumerate() {
            for (f_ix, ranking) in rankings.iter().enumerate() {
                let mut arcs = std::iter::once(&injected).chain(others);
                if arcs.any(|&e| is_success(ranking, e, k)) {
                    self.successes[k_ix][f_ix] += 1;
                }
            }
        }
    }

    /// Records an instance whose diagnosis failed entirely (no suspects):
    /// a failure at every `(K, function)` cell.
    pub fn record_failure(&mut self, n_patterns: usize) {
        let t = self.trials as f64;
        self.avg_suspects = self.avg_suspects * t / (t + 1.0);
        self.avg_patterns = (self.avg_patterns * t + n_patterns as f64) / (t + 1.0);
        self.trials += 1;
    }

    /// Records one campaign chip: its rankings when diagnosis produced
    /// some (a hit when any injected arc is in the top `K`), a failure
    /// (with its applied patterns) when it did not, and a pattern-less
    /// failure when the chip never failed a test (`None`).
    pub fn record_outcome(&mut self, outcome: Option<&InstanceOutcome>) {
        match outcome {
            Some(o) if !o.rankings.is_empty() => {
                self.record_any(
                    o.injected,
                    &o.other_injected,
                    &o.rankings,
                    o.n_suspects,
                    o.n_patterns,
                );
            }
            Some(o) => self.record_failure(o.n_patterns),
            None => self.record_failure(0),
        }
    }

    /// Success rate in percent for `(k index, function index)`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-range indices or an empty campaign.
    pub fn success_percent(&self, k_ix: usize, f_ix: usize) -> f64 {
        assert!(self.trials > 0, "no trials recorded");
        100.0 * self.successes[k_ix][f_ix] as f64 / self.trials as f64
    }

    /// Renders the report as a Table-I-style text block.
    pub fn render_table(&self) -> String {
        crate::table::render_reports(std::slice::from_ref(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(ix: usize, score: f64) -> RankedSite {
        RankedSite {
            edge: EdgeId::from_index(ix),
            score,
        }
    }

    #[test]
    fn success_requires_containment_in_top_k() {
        let ranking = vec![site(5, 0.9), site(2, 0.5), site(7, 0.1)];
        let inj = EdgeId::from_index(2);
        assert!(!is_success(&ranking, inj, 1));
        assert!(is_success(&ranking, inj, 2));
        assert!(is_success(&ranking, inj, 3));
        assert!(!is_success(&ranking, EdgeId::from_index(9), 3));
    }

    #[test]
    fn report_accumulates_rates() {
        let mut r = AccuracyReport::new(
            "demo",
            vec![1, 2],
            vec![ErrorFunction::MethodI, ErrorFunction::Euclidean],
        );
        let inj = EdgeId::from_index(4);
        // Function 0 ranks it second, function 1 ranks it first.
        let rankings = vec![
            vec![site(1, 0.9), site(4, 0.8)],
            vec![site(4, 0.1), site(1, 0.9)],
        ];
        r.record(inj, &rankings, 10, 6);
        r.record(inj, &rankings, 20, 8);
        assert_eq!(r.trials, 2);
        assert_eq!(r.success_percent(0, 0), 0.0); // K=1, method I
        assert_eq!(r.success_percent(0, 1), 100.0); // K=1, euclidean
        assert_eq!(r.success_percent(1, 0), 100.0); // K=2, method I
        assert!((r.avg_suspects - 15.0).abs() < 1e-9);
        assert!((r.avg_patterns - 7.0).abs() < 1e-9);
    }

    #[test]
    fn any_injected_arc_in_the_top_k_is_a_hit() {
        let mut r = AccuracyReport::new("demo", vec![1, 2], vec![ErrorFunction::MethodI]);
        let outcome = InstanceOutcome {
            injected: EdgeId::from_index(9),
            other_injected: vec![EdgeId::from_index(4)],
            delta: 0.1,
            n_patterns: 3,
            n_suspects: 2,
            rankings: vec![vec![site(1, 0.9), site(4, 0.8)]],
            trace: crate::metrics::InstanceTrace::new(
                crate::metrics::TraceOutcome::Diagnosed,
                &CampaignMetrics::default(),
            ),
        };
        r.record_outcome(Some(&outcome));
        assert_eq!(r.successes, vec![vec![0], vec![1]]);
        let single = InstanceOutcome {
            other_injected: Vec::new(),
            ..outcome
        };
        r.record_outcome(Some(&single));
        assert_eq!(r.successes, vec![vec![0], vec![1]]);
    }

    #[test]
    fn failed_diagnosis_counts_as_failure_everywhere() {
        let mut r = AccuracyReport::new("demo", vec![1], vec![ErrorFunction::MethodII]);
        r.record_failure(5);
        assert_eq!(r.trials, 1);
        assert_eq!(r.success_percent(0, 0), 0.0);
    }

    #[test]
    fn equality_ignores_metrics_but_not_results() {
        let a = AccuracyReport::new("d", vec![1], vec![ErrorFunction::MethodI]);
        let mut b = a.clone();
        b.metrics.total_nanos = 999;
        b.metrics.dict_cache_hits = 7;
        assert_eq!(a, b, "metrics must not affect report equality");
        b.traces.push(crate::metrics::InstanceTrace {
            patterns_nanos: 1,
            rank_nanos: 4,
            ..crate::metrics::InstanceTrace::new(
                crate::metrics::TraceOutcome::Undetected,
                &CampaignMetrics::default(),
            )
        });
        assert_eq!(a, b, "traces must not affect report equality");
        b.record_failure(2);
        assert_ne!(a, b, "accuracy results must affect report equality");
    }

    #[test]
    #[should_panic(expected = "no trials")]
    fn empty_report_panics_on_rate() {
        AccuracyReport::new("d", vec![1], vec![ErrorFunction::MethodI]).success_percent(0, 0);
    }

    #[test]
    fn render_contains_circuit_and_rates() {
        let mut r = AccuracyReport::new(
            "s1196",
            vec![1],
            vec![ErrorFunction::MethodI, ErrorFunction::Euclidean],
        );
        let rankings = vec![vec![site(4, 0.9)], vec![site(4, 0.1)]];
        r.record(EdgeId::from_index(4), &rankings, 3, 2);
        let text = r.render_table();
        assert!(text.contains("s1196"));
        assert!(text.contains("100"));
    }
}
