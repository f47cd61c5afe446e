//! Integration checks for the batched Monte-Carlo dictionary kernel:
//! campaigns book its work in the kernel counters, and the retired
//! scalar kernel name no longer parses. The grid- and dictionary-level
//! differential tests against the scalar oracle are unit tests of
//! `sdd_core::dictionary` (`kernel_oracle_*`), because the oracle is
//! test-only code.

use sdd_core::inject::CampaignConfig;
use sdd_core::session::ArtifactLayer;
use sdd_core::{DictionaryConfig, SimKernel};
use sdd_netlist::generator::generate;
use sdd_netlist::profiles::BenchmarkProfile;
use sdd_netlist::Circuit;

/// Two differently-shaped generated circuits: a shallow wide one and a
/// deeper one with flip-flop boundaries (converted to combinational).
fn circuits() -> Vec<(&'static str, Circuit)> {
    let shallow = BenchmarkProfile {
        name: "bk-shallow",
        inputs: 9,
        outputs: 7,
        dffs: 0,
        gates: 70,
        depth: 8,
    };
    let deep = BenchmarkProfile {
        name: "bk-deep",
        inputs: 6,
        outputs: 4,
        dffs: 5,
        gates: 90,
        depth: 16,
    };
    [shallow, deep]
        .into_iter()
        .map(|p| {
            let c = generate(&p.to_config(11))
                .expect("generate")
                .to_combinational()
                .expect("combinational");
            (p.name, c)
        })
        .collect()
}

fn quick_config(kernel: SimKernel, seed: u64) -> CampaignConfig {
    let mut cfg = CampaignConfig::quick(seed);
    cfg.dictionary.kernel = kernel;
    cfg
}

#[test]
fn retired_scalar_kernel_name_is_rejected() {
    // The scalar oracle is test code, not a configuration: a serialized
    // dictionary config naming it must fail to parse rather than run
    // some other kernel.
    let json = r#"{"n_samples": 42, "seed": 7, "kernel": "Scalar"}"#;
    let err = serde_json::from_str::<DictionaryConfig>(json).unwrap_err();
    assert!(
        err.to_string().contains("unknown SimKernel variant"),
        "{err}"
    );
}

#[test]
fn kernel_metrics_are_recorded() {
    let (_, c) = circuits().remove(0);
    let report = ArtifactLayer::new()
        .session("")
        .run_campaign_on(&c, &quick_config(SimKernel::Batched, 5))
        .expect("campaign runs");
    assert!(report.metrics.cone_evals > 0, "no cone evals recorded");
    assert!(report.metrics.kernel_nanos > 0, "no kernel time recorded");
    assert!(
        report.metrics.kernel_nanos <= report.metrics.dictionary_nanos,
        "kernel time {} exceeds dictionary phase {}",
        report.metrics.kernel_nanos,
        report.metrics.dictionary_nanos
    );
}
