//! End-to-end checks of the observability layer: a real campaign's
//! [`MetricsReport`] must validate (histogram counts == trials, exact
//! trace/counter agreement), survive a JSON round trip, and tracing
//! must not perturb the accuracy results.

use sdd_core::inject::CampaignConfig;
use sdd_core::session::ArtifactLayer;
use sdd_core::{MetricsExport, MetricsReport, Phase, TraceOutcome};
use sdd_netlist::profiles;

#[test]
fn campaign_metrics_report_is_internally_consistent() {
    let cfg = CampaignConfig::quick(13);
    let report = ArtifactLayer::new()
        .session("")
        .run_campaign(&profiles::S27, &cfg)
        .expect("campaign runs");
    assert_eq!(report.trials, cfg.n_instances);
    assert_eq!(
        report.traces.len(),
        report.trials,
        "quick campaigns keep every trace"
    );
    // Traces arrive sorted by chip index, one per instance.
    for (ix, t) in report.traces.iter().enumerate() {
        assert_eq!(t.chip_index, ix as u64);
    }

    let metrics = MetricsReport::from_report(&report);
    metrics.validate().expect("campaign report validates");

    // The invariants validate() checks, spelled out on a live run: each
    // phase histogram holds one observation per instance and sums to
    // the aggregate counter exactly.
    for phase in Phase::ALL {
        let h = report.metrics.phase_latency.get(phase);
        assert_eq!(h.count(), report.trials as u64, "{}", phase.name());
    }
    let traced_dict: u64 = report.traces.iter().map(|t| t.dictionary_nanos).sum();
    assert_eq!(traced_dict, report.metrics.dictionary_nanos);

    // Every diagnosed trace carries a clock and a suspect set.
    for t in &report.traces {
        if t.outcome == TraceOutcome::Diagnosed {
            assert!(
                t.clk.is_some(),
                "diagnosed chip {} lost its clk",
                t.chip_index
            );
            assert!(t.n_suspects > 0);
            assert!(t.injected_edge.is_some());
        }
    }

    // JSON round trip through the vendored serde.
    let export = MetricsExport::new(vec![metrics]);
    let back = MetricsExport::from_json(&export.to_json()).expect("parses");
    assert_eq!(export, back);
    back.validate().expect("round-tripped export validates");
}

#[test]
fn tracing_does_not_perturb_accuracy() {
    // The trace layer records through a scratch sink per instance; the
    // report (equality ignores metrics and traces, but successes,
    // suspect statistics and rankings are compared exactly) must be
    // bit-identical run to run.
    let cfg = CampaignConfig::quick(29);
    let a = ArtifactLayer::new()
        .session("")
        .run_campaign(&profiles::S27, &cfg)
        .unwrap();
    let b = ArtifactLayer::new()
        .session("")
        .run_campaign(&profiles::S27, &cfg)
        .unwrap();
    assert_eq!(a, b);
    assert_eq!(a.successes, b.successes);
    assert_eq!(a.avg_suspects, b.avg_suspects);
    // The traces' deterministic content agrees too (timings aside).
    assert_eq!(a.traces.len(), b.traces.len());
    for (ta, tb) in a.traces.iter().zip(&b.traces) {
        assert_eq!(ta.chip_index, tb.chip_index);
        assert_eq!(ta.injected_edge, tb.injected_edge);
        assert_eq!(ta.redraws, tb.redraws);
        assert_eq!(ta.n_suspects, tb.n_suspects);
        assert_eq!(ta.n_patterns, tb.n_patterns);
        assert_eq!(ta.clk, tb.clk);
        assert_eq!(ta.outcome, tb.outcome);
    }
}
