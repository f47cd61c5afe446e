//! Integration tests for the multi-defect campaign
//! ([`DiagnosisSession::run_multi_defect_campaign_on`]).
//!
//! The multi-defect campaign is the single-defect campaign body with
//! extra defects applied to each chip before observation, so with
//! `defects_per_chip = 1` it *is* the Table-I campaign: the reports
//! must be equal, not merely statistically close.

use sdd_core::evaluate::AccuracyReport;
use sdd_core::inject::CampaignConfig;
use sdd_core::session::{ArtifactLayer, DiagnosisSession};
use sdd_core::{DiagnosisError, SddError};
use sdd_netlist::generator::generate;
use sdd_netlist::profiles;
use sdd_netlist::Circuit;
use std::num::NonZeroUsize;

fn small() -> Circuit {
    generate(&profiles::S27.to_config(3))
        .unwrap()
        .to_combinational()
        .unwrap()
}

/// A quick config with 30 chips.
fn config(seed: u64) -> CampaignConfig {
    let mut cfg = CampaignConfig::quick(seed);
    cfg.n_instances = 30;
    cfg
}

fn defects(m: usize) -> NonZeroUsize {
    NonZeroUsize::new(m).expect("positive defect count")
}

fn run(session: &DiagnosisSession, c: &Circuit, cfg: &CampaignConfig, m: usize) -> AccuracyReport {
    session
        .run_multi_defect_campaign_on(c, cfg, defects(m))
        .expect("multi-defect campaign runs")
}

fn layer_with_threads(n: usize) -> ArtifactLayer {
    ArtifactLayer::builder()
        .num_threads(n)
        .build()
        .expect("layer builds")
}

fn assert_monotone_in_k(report: &AccuracyReport) {
    for f_ix in 0..report.functions.len() {
        let mut last = 0;
        for row in &report.successes {
            assert!(row[f_ix] >= last, "non-monotone in K");
            last = row[f_ix];
        }
    }
}

#[test]
fn single_defect_multi_campaign_equals_single_defect_campaign() {
    let c = small();
    for seed in [5, 9, 14] {
        let cfg = config(seed);
        let multi = run(&ArtifactLayer::new().session(""), &c, &cfg, 1);
        let single = ArtifactLayer::new()
            .session("")
            .run_campaign_on(&c, &cfg)
            .expect("single campaign runs");
        assert_eq!(multi, single, "seed {seed}: m = 1 differs from Table I");
        assert_eq!(multi.trials, cfg.n_instances);
    }
}

#[test]
fn double_defect_campaign_is_deterministic_across_threads_and_warmth() {
    let c = small();
    let mut cfg = config(5);
    cfg.n_instances = 12;
    let serial = run(&layer_with_threads(1).session(""), &c, &cfg, 2);
    assert_eq!(serial.trials, cfg.n_instances);
    assert_eq!(serial.traces.len(), cfg.n_instances, "every chip is traced");
    assert_monotone_in_k(&serial);
    let parallel = run(&layer_with_threads(4).session(""), &c, &cfg, 2);
    assert_eq!(serial, parallel, "m = 2 report depends on thread count");
    // A layer warmed by the m = 1 campaign of the same config serves
    // the m = 2 chips' pattern sets from its cache; the answers stay.
    let warmed = layer_with_threads(2).session("");
    let single = run(&warmed, &c, &cfg, 1);
    assert_ne!(single, serial, "the second defect changed no answer");
    let warm = run(&warmed, &c, &cfg, 2);
    assert_eq!(serial, warm, "m = 2 report depends on cache warmth");
    assert!(warm.metrics.pattern_cache_hits > 0, "warm layer never hit");
}

#[test]
fn zero_clock_samples_are_refused_before_any_chip() {
    let c = small();
    let mut cfg = config(5);
    cfg.sta_samples = 0;
    let session = ArtifactLayer::new().session("");
    match session.run_multi_defect_campaign_on(&c, &cfg, defects(2)) {
        Err(SddError::Diagnosis(DiagnosisError::ZeroSamples { field })) => {
            assert_eq!(field, "sta_samples");
        }
        other => panic!("expected a zero-samples error, got {other:?}"),
    }
    assert_eq!(session.metrics().trace_seq(), 0, "a chip was traced");
    assert_eq!(session.layer().cache().num_pattern_keys(), 0);
}
