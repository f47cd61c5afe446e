//! Criterion benches for test generation and fault simulation: PODEM,
//! path-delay test justification and the diagnostic pattern source.
//!
//! Besides successful searches at `PodemConfig::default()`, the campaign
//! cases time a transition search that runs out of budget at the
//! campaign's limits (the common case in Table-I runs, where most of the
//! search time goes) and the whole per-site pattern source at
//! `CampaignConfig::paper` budgets.

use criterion::{criterion_group, criterion_main, Criterion};
use sdd_atpg::fault::{PathDelayFault, TransitionDirection, TransitionFault};
use sdd_atpg::path_atpg::generate_robust_or_nonrobust;
use sdd_atpg::podem::{
    generate, generate_transition_assignments, generate_transition_assignments_diverse, PodemConfig,
};
use sdd_atpg::{AtpgError, StuckAtFault, StuckValue};
use sdd_bench::bench_profile;
use sdd_core::inject::{patterns_through_site_with, CampaignConfig};
use sdd_core::AtpgConfig;
use sdd_netlist::generator::generate as generate_circuit;
use sdd_netlist::{Circuit, EdgeId};
use sdd_timing::{path, CellLibrary, CircuitTiming, VariationModel};
use std::hint::black_box;
use std::time::Duration;

fn setup() -> (Circuit, CircuitTiming) {
    let circuit = generate_circuit(&bench_profile().to_config(1))
        .expect("profile generates")
        .to_combinational()
        .expect("scan cut");
    let timing = CircuitTiming::characterize(
        &circuit,
        &CellLibrary::default_025um(),
        VariationModel::default(),
    );
    (circuit, timing)
}

fn bench_podem_stuck_at(c: &mut Criterion) {
    let (circuit, _) = setup();
    let faults: Vec<StuckAtFault> = circuit
        .node_ids()
        .step_by(37)
        .map(|n| StuckAtFault::new(n, StuckValue::Zero))
        .take(8)
        .collect();
    c.bench_function("podem_stuck_at_8_faults_s1196", |b| {
        b.iter(|| {
            for &f in &faults {
                black_box(generate(&circuit, f, PodemConfig::default()).ok());
            }
        })
    });
}

fn bench_transition_test(c: &mut Criterion) {
    let (circuit, _) = setup();
    let fault = TransitionFault::new(EdgeId::from_index(50), TransitionDirection::Rise);
    c.bench_function("transition_assignments_s1196", |b| {
        b.iter(|| {
            black_box(generate_transition_assignments(&circuit, fault, PodemConfig::default()).ok())
        })
    });
}

/// The campaign's per-search budgets (`CampaignConfig::paper`): 500
/// backtracks and 2000 implications per transition search.
fn campaign_budgets() -> AtpgConfig {
    AtpgConfig::from_campaign(&CampaignConfig::paper(2))
}

fn bench_transition_abort(c: &mut Criterion) {
    let (circuit, _) = setup();
    let config = campaign_budgets().podem_config;
    // The first arc (in a fixed stride) whose randomized search runs out
    // of budget rather than finding a test or proving none exists.
    let (fault, seed) = circuit
        .edge_ids()
        .step_by(7)
        .flat_map(|e| {
            [TransitionDirection::Rise, TransitionDirection::Fall]
                .map(|d| (TransitionFault::new(e, d), e.index() as u64))
        })
        .find(|&(fault, seed)| {
            matches!(
                generate_transition_assignments_diverse(&circuit, fault, config, Some(seed)),
                Err(AtpgError::Aborted { .. })
            )
        })
        .expect("some transition search aborts at campaign budgets");
    c.bench_function("transition_search_aborted_campaign_budget_s1196", |b| {
        b.iter(|| {
            black_box(
                generate_transition_assignments_diverse(&circuit, fault, config, Some(seed)).ok(),
            )
        })
    });
}

fn bench_patterns_through_site(c: &mut Criterion) {
    let (circuit, timing) = setup();
    let atpg = campaign_budgets();
    c.bench_function("patterns_through_site_paper_budget_s1196", |b| {
        b.iter(|| {
            black_box(patterns_through_site_with(
                &circuit,
                &timing,
                EdgeId::from_index(50),
                atpg.n_paths,
                atpg.max_patterns,
                7,
                atpg.path_config,
                atpg.podem_config,
            ))
        })
    });
}

fn bench_path_test(c: &mut Criterion) {
    let (circuit, timing) = setup();
    let paths = path::k_longest_through_edge(&circuit, &timing, EdgeId::from_index(50), 4).unwrap();
    c.bench_function("path_test_generation_s1196", |b| {
        b.iter(|| {
            for p in &paths {
                let fault = PathDelayFault::new(p.clone(), TransitionDirection::Rise);
                black_box(
                    generate_robust_or_nonrobust(&circuit, &fault, PodemConfig::bulk(), 1).ok(),
                );
            }
        })
    });
}

fn bench_k_longest(c: &mut Criterion) {
    let (circuit, timing) = setup();
    c.bench_function("k_longest_through_edge_s1196", |b| {
        b.iter(|| {
            black_box(
                path::k_longest_through_edge(&circuit, &timing, EdgeId::from_index(50), 8).ok(),
            )
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(2)).warm_up_time(Duration::from_millis(500));
    targets =
    bench_podem_stuck_at,
    bench_transition_test,
    bench_transition_abort,
    bench_patterns_through_site,
    bench_path_test,
    bench_k_longest
);
criterion_main!(benches);
