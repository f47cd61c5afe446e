//! Differential tests for the batched Monte-Carlo dictionary kernel:
//! on every path a campaign can take — fresh simulation, cache reuse,
//! store miss, store hit — the batched kernel must produce bit-identical
//! dictionaries and rankings to the scalar oracle.

use sdd_core::evaluate::AccuracyReport;
use sdd_core::inject::CampaignConfig;
use sdd_core::session::ArtifactLayer;
use sdd_core::testutil::TestDir;
use sdd_core::{DictionaryConfig, ProbabilisticDictionary, SimKernel};
use sdd_netlist::generator::generate;
use sdd_netlist::profiles::BenchmarkProfile;
use sdd_netlist::{Circuit, EdgeId};
use sdd_timing::{CellLibrary, CircuitTiming, Dist, VariationModel};

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
fn dictionaries_are_bit_identical_across_kernels() {
    for (name, c) in circuits() {
        let t = CircuitTiming::characterize(
            &c,
            &CellLibrary::default_025um(),
            VariationModel::new(0.04, 0.06),
        );
        let ps = sdd_atpg::PatternSet::random(&c, 5, 3);
        let suspects: Vec<EdgeId> = c.edge_ids().step_by(2).collect();
        let build = |kernel| {
            ProbabilisticDictionary::build(
                &c,
                &t,
                &Dist::Normal {
                    mean: 0.15,
                    std: 0.05,
                },
                &ps,
                &suspects,
                0.3,
                DictionaryConfig::new()
                    .with_samples(45)
                    .with_seed(0xD1FF)
                    .with_kernel(kernel),
            )
        };
        let batched = build(SimKernel::Batched);
        let scalar = build(SimKernel::Scalar);
        assert_eq!(batched, scalar, "{name}: dictionaries differ");
    }
}

#[test]
fn campaign_reports_are_bit_identical_across_kernels() {
    // The `table1 --quick` path in miniature: full campaigns (injection,
    // clock sweep, dictionary, every error function, ranking, scoring)
    // through store-less layers must agree exactly — success counts,
    // suspect statistics and all.
    for (name, c) in circuits() {
        let run = |kernel| -> AccuracyReport {
            ArtifactLayer::new()
                .session("")
                .run_campaign_on(&c, &quick_config(kernel, 23))
                .expect("campaign runs")
        };
        let batched = run(SimKernel::Batched);
        let scalar = run(SimKernel::Scalar);
        assert_eq!(batched, scalar, "{name}: campaign reports differ");
        assert!(batched.trials > 0, "{name}: campaign diagnosed nothing");
    }
}

#[test]
fn store_miss_and_store_hit_paths_agree_across_kernels() {
    // The kernel is absent from StoreKey by design: grids checkpointed
    // by the batched kernel must satisfy a scalar-kernel run verbatim
    // (store-hit path), and both cold runs (store-miss path) must agree
    // with each other.
    let (_, c) = circuits().remove(1);
    let dir = TestDir::new("batch-kernel-crosskernel");

    let run = |kernel, store: bool| -> AccuracyReport {
        let builder = if store {
            ArtifactLayer::builder().store_dir(dir.path())
        } else {
            ArtifactLayer::builder()
        };
        builder
            .build()
            .expect("layer builds")
            .session("")
            .run_campaign_on(&c, &quick_config(kernel, 41))
            .expect("campaign runs")
    };

    // Cold batched run populates the store (store-miss path).
    let cold_batched = run(SimKernel::Batched, true);
    assert!(
        cold_batched.metrics.store_misses > 0,
        "cold run never probed"
    );
    assert!(
        cold_batched.metrics.store_flushes > 0,
        "cold run never flushed"
    );

    // Scalar run against the batched checkpoints (store-hit path): every
    // bank loads, nothing re-simulates, and the report matches.
    let warm_scalar = run(SimKernel::Scalar, true);
    assert!(warm_scalar.metrics.store_hits > 0, "warm run never loaded");
    assert_eq!(
        warm_scalar.metrics.dict_cache_misses, 0,
        "warm run should simulate no banks"
    );
    assert_eq!(
        cold_batched, warm_scalar,
        "batched checkpoints changed the scalar report"
    );

    // A store-less scalar run (so it actually simulates) agrees too.
    let fresh_scalar = run(SimKernel::Scalar, false);
    assert_eq!(cold_batched, fresh_scalar, "cold reports differ");
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
