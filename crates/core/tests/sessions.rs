//! Multi-session concurrency contracts over one [`ArtifactLayer`]:
//! sessions with different kernels stay bit-identical to solo runs even
//! when racing on the shared pool, and a second "client" over a warm
//! layer (or a warm on-disk store) records loads with zero misses. A
//! session's report also validates when its pool has nothing else to
//! do, where per-worker kernel times would add up past the phase, and
//! one long-lived session reports per-campaign deltas while its lifetime
//! report accumulates. A campaign is its chips' per-chip diagnoses
//! folded into one report.

use sdd_atpg::PatternSet;
use sdd_core::dictionary::SimKernel;
use sdd_core::evaluate::AccuracyReport;
use sdd_core::inject::{CampaignConfig, ClockPolicy};
use sdd_core::session::{ArtifactLayer, Design};
use sdd_core::testutil::TestDir;
use sdd_core::{CaptureModel, ErrorFunction, ObservedBehavior};
use sdd_netlist::generator::generate_combinational;
use sdd_netlist::profiles;
use sdd_timing::{sta, CellLibrary, CircuitTiming, Dist, VariationModel};

#[test]
fn racing_sessions_with_different_kernels_match_their_solo_runs() {
    let config = CampaignConfig::quick(3);
    let shared = ArtifactLayer::new();
    let kernels = [SimKernel::Batched, SimKernel::Screened];

    // Solo baselines: each kernel alone on a private layer.
    let solo: Vec<_> = kernels
        .iter()
        .map(|&k| {
            ArtifactLayer::new()
                .session("solo")
                .with_kernel(k)
                .run_campaign(&profiles::S27, &config)
                .expect("solo campaign")
        })
        .collect();

    // The same two campaigns racing on one shared layer.
    let raced = std::thread::scope(|scope| {
        let handles: Vec<_> = kernels
            .iter()
            .map(|&k| {
                let shared = &shared;
                let config = &config;
                scope.spawn(move || {
                    shared
                        .session(format!("tenant-{k:?}"))
                        .with_kernel(k)
                        .run_campaign(&profiles::S27, config)
                        .expect("shared campaign")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("no panic"))
            .collect::<Vec<_>>()
    });

    for ((kernel, solo), raced) in kernels.iter().zip(&solo).zip(&raced) {
        assert_eq!(
            solo, raced,
            "{kernel:?} must be unaffected by a racing session with another kernel"
        );
    }
}

#[test]
fn second_session_over_a_warm_layer_records_zero_misses() {
    let config = CampaignConfig::quick(9);
    let layer = ArtifactLayer::new();

    let first = layer.session("first");
    first
        .run_campaign(&profiles::S27, &config)
        .expect("first campaign");
    let cold = first.metrics_report();
    assert!(
        cold.counters.dict_cache_misses > 0,
        "first client fills the pool"
    );

    let second = layer.session("second");
    second
        .run_campaign(&profiles::S27, &config)
        .expect("second campaign");
    let warm = second.metrics_report();
    assert!(
        warm.counters.dict_cache_hits > 0,
        "second client reads the pool"
    );
    assert_eq!(warm.counters.dict_cache_misses, 0, "dictionary misses");
    assert_eq!(warm.counters.pattern_cache_misses, 0, "pattern misses");
}

#[test]
fn second_layer_over_a_warm_store_loads_with_zero_misses() {
    let dir = TestDir::new("sessions-store-warm");
    let config = CampaignConfig::quick(13);

    let report_cold = {
        let layer = ArtifactLayer::builder()
            .store_dir(dir.path())
            .build()
            .expect("cold layer");
        layer
            .session("writer")
            .run_campaign(&profiles::S27, &config)
            .expect("cold campaign")
    };

    // A fresh process over the same store: pattern sets come off disk,
    // never recomputed — loads > 0, misses == 0 — and the report stays
    // bit-identical to the store-cold run.
    let layer = ArtifactLayer::builder()
        .store_dir(dir.path())
        .build()
        .expect("warm layer");
    let reader = layer.session("reader");
    let report_warm = reader
        .run_campaign(&profiles::S27, &config)
        .expect("warm campaign");
    let metrics = reader.metrics_report();
    assert!(metrics.counters.pattern_store_hits > 0, "store loads");
    assert_eq!(metrics.counters.pattern_store_misses, 0, "store misses");
    assert_eq!(
        report_cold, report_warm,
        "store-warm run must stay bit-identical"
    );
}

#[test]
fn idle_pool_diagnosis_report_validates() {
    // Regression: the Monte-Carlo kernel booked each worker's per-pattern
    // time, so on an otherwise idle pool `kernel_nanos` (a sum over
    // both workers) exceeded the wall-clock `dictionary_nanos` and
    // `MetricsReport::validate` rejected the report.
    let circuit = generate_combinational(&profiles::S27, 4).expect("s27 generates");
    let library = CellLibrary::default_025um();
    let timing = CircuitTiming::characterize(&circuit, &library, VariationModel::default());
    // Half the median circuit delay: a slow chip, failing on most
    // sensitized outputs.
    let clk = 0.5
        * sta::static_mc(&circuit, &timing, 64, 4)
            .expect("static timing")
            .clock_at_quantile(0.5);
    let patterns = PatternSet::random(&circuit, 32, 4);
    let chip = timing.sample_instance_indexed(4, 0);
    let behavior = ObservedBehavior::capture(&circuit, &patterns, &chip, CaptureModel::default())
        .matrix_at(clk);
    assert!(
        !behavior.all_pass(),
        "the chip must fail somewhere to be diagnosed"
    );
    let defect = Dist::defect_size(library.nominal_cell_delay());

    for kernel in [SimKernel::Batched, SimKernel::Screened] {
        // A fresh layer per kernel, so every request simulates.
        let layer = ArtifactLayer::builder()
            .num_threads(2)
            .build()
            .expect("two-thread layer");
        let session = layer.session("idle").with_kernel(kernel);
        session
            .diagnose_behavior(&circuit, &timing, &patterns, &defect, &behavior)
            .expect("diagnosis");
        session
            .metrics_report()
            .validate()
            .unwrap_or_else(|e| panic!("{kernel:?}: {e}"));
    }
}

#[test]
fn long_lived_session_reports_per_campaign_metric_deltas() {
    let session = ArtifactLayer::new().session("");
    let cfg = CampaignConfig::quick(9);
    let first = session.run_campaign(&profiles::S27, &cfg).unwrap();
    let second = session.run_campaign(&profiles::S27, &cfg).unwrap();
    assert_eq!(first.trials, second.trials);
    // The session sink accumulates, but each report is a delta: the
    // second campaign is served from the warm in-memory cache, so it
    // records hits without re-counting the first campaign's.
    assert!(second.metrics.dict_cache_hits > 0, "warm cache unused");
    assert_eq!(
        second.metrics.dict_cache_misses, 0,
        "second identical campaign should simulate nothing"
    );
    // The pattern cache warms the same way: every site the second
    // campaign implicates was already generated by the first.
    assert!(
        second.metrics.pattern_cache_hits > 0,
        "warm pattern cache unused"
    );
    assert_eq!(
        second.metrics.pattern_cache_misses, 0,
        "second identical campaign should run no ATPG"
    );
    let lifetime = session.metrics().snapshot(std::time::Duration::ZERO);
    assert_eq!(
        lifetime.dict_cache_hits + lifetime.dict_cache_misses,
        first.metrics.dict_cache_hits
            + first.metrics.dict_cache_misses
            + second.metrics.dict_cache_hits
            + second.metrics.dict_cache_misses
    );
}

#[test]
fn untenanted_lifetime_report_validates_across_campaigns() {
    let session = ArtifactLayer::new().session("");
    let cfg = CampaignConfig::quick(7);
    let report = session.run_campaign(&profiles::S27, &cfg).unwrap();
    let lifetime = session.metrics_report();
    assert_eq!(lifetime.circuit, "tenant:");
    assert_eq!(lifetime.trials, report.trials as u64);
    assert_eq!(lifetime.traces.len(), report.traces.len());
    assert!(
        lifetime.traces.iter().all(|t| t.tenant.is_empty()),
        "untenanted traces must stay untagged"
    );
    lifetime
        .validate()
        .expect("lifetime metrics report validates");
    // A second campaign doubles the instance count.
    session.run_campaign(&profiles::S27, &cfg).unwrap();
    let lifetime = session.metrics_report();
    assert_eq!(lifetime.trials, 2 * report.trials as u64);
    lifetime
        .validate()
        .expect("two-campaign lifetime report validates");
}

#[test]
fn circuit_quantile_campaign_equals_its_chips_folded_one_by_one() {
    // A tight clock: at 0.95 every s27 defect of this seed escapes.
    let config = CampaignConfig::quick(5).with_clock(ClockPolicy::CircuitQuantile(0.05));
    let circuit = generate_combinational(&profiles::S27, config.seed).expect("s27 generates");
    let campaign = ArtifactLayer::new()
        .session("campaign")
        .run_campaign_on(&circuit, &config)
        .expect("campaign");
    let design = Design::new(circuit, config.variation);
    let session = ArtifactLayer::new().session("chips");
    let mut folded = AccuracyReport::new(
        design.circuit().name(),
        config.k_values.clone(),
        ErrorFunction::EXTENDED.to_vec(),
    );
    let mut diagnosed = 0;
    for index in 0..config.n_instances {
        let outcome = session
            .diagnose_instance(&design, &config, index)
            .expect("chip");
        diagnosed += usize::from(outcome.as_ref().is_some_and(|o| !o.rankings.is_empty()));
        folded.record_outcome(outcome.as_ref());
    }
    assert!(
        diagnosed > 0,
        "no chip was diagnosed under the circuit clock"
    );
    assert_eq!(campaign, folded);
}
