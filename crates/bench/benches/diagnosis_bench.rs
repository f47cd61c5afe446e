//! Criterion benches for the diagnosis core: probabilistic fault
//! dictionary construction (cold, and a warm cache hit), behaviour
//! observation and error-function ranking — the operations behind every
//! Table I cell.

use criterion::{criterion_group, criterion_main, Criterion};
use sdd_bench::bench_profile;
use sdd_core::defect::SingleDefectModel;
use sdd_core::dictionary::DictionaryConfig;
use sdd_core::inject::{patterns_through_site, tested_delay_samples};
use sdd_core::suspects::collect_suspects;
use sdd_core::{BehaviorMatrix, Diagnoser, DiagnoserConfig, DictionaryCache, ErrorFunction};
use sdd_netlist::generator::generate;
use sdd_netlist::{Circuit, EdgeId};
use sdd_timing::{CellLibrary, CircuitTiming, VariationModel};
use std::hint::black_box;
use std::time::Duration;

struct Fixture {
    circuit: Circuit,
    timing: CircuitTiming,
    patterns: sdd_atpg::PatternSet,
    behavior: BehaviorMatrix,
    model: SingleDefectModel,
}

fn setup() -> Fixture {
    let circuit = generate(&bench_profile().to_config(1))
        .expect("profile generates")
        .to_combinational()
        .expect("scan cut");
    let library = CellLibrary::default_025um();
    let timing = CircuitTiming::characterize(&circuit, &library, VariationModel::default());
    let model = SingleDefectModel::paper_section_i(library.nominal_cell_delay());
    let site = EdgeId::from_index(50);
    let patterns = patterns_through_site(&circuit, &timing, site, 8, 20, 3);
    assert!(!patterns.is_empty(), "bench fixture needs patterns");
    let samples = tested_delay_samples(&circuit, &timing, &patterns, 100, 3);
    let clk = samples.quantile(0.35);
    let chip = timing
        .sample_instance_indexed(9, 0)
        .with_extra_delay(site, 0.12);
    let behavior = BehaviorMatrix::observe(&circuit, &patterns, &chip, clk);
    Fixture {
        circuit,
        timing,
        patterns,
        behavior,
        model,
    }
}

fn bench_observe(c: &mut Criterion) {
    let f = setup();
    let chip = f.timing.sample_instance_indexed(9, 0);
    c.bench_function("behavior_observe_s1196", |b| {
        b.iter(|| {
            black_box(BehaviorMatrix::observe(
                &f.circuit,
                &f.patterns,
                &chip,
                f.behavior.clk(),
            ))
        })
    });
}

fn bench_dictionary_build(c: &mut Criterion) {
    let f = setup();
    let diagnoser = Diagnoser::new(
        &f.circuit,
        &f.timing,
        &f.patterns,
        f.model.size_dist(),
        DiagnoserConfig::new(DictionaryConfig::new().with_samples(60).with_seed(1)),
    );
    c.bench_function("dictionary_build_60_samples_s1196", |b| {
        b.iter(|| black_box(diagnoser.build_dictionary(&f.behavior).ok()))
    });
}

fn bench_dictionary_cache_hit(c: &mut Criterion) {
    // A served retest at the paper's budget: s1423, 20 patterns, 200
    // samples. Once the bank is warm, a hit costs only the store key and
    // the assembly of M_crt, E_crt and the joint estimate.
    let circuit = generate(
        &sdd_netlist::profiles::by_name("s1423")
            .expect("s1423 profile exists")
            .to_config(1),
    )
    .expect("profile generates")
    .to_combinational()
    .expect("scan cut");
    let library = CellLibrary::default_025um();
    let timing = CircuitTiming::characterize(&circuit, &library, VariationModel::default());
    let model = SingleDefectModel::paper_section_i(library.nominal_cell_delay());
    let patterns = sdd_atpg::PatternSet::random(&circuit, 20, 7);
    assert_eq!(patterns.len(), 20);
    let clk = tested_delay_samples(&circuit, &timing, &patterns, 100, 3).quantile(0.35);
    let (behavior, suspects) = circuit
        .edge_ids()
        .step_by(7)
        .map(|site| {
            let chip = timing
                .sample_instance_indexed(9, 0)
                .with_extra_delay(site, 0.12);
            let behavior = BehaviorMatrix::observe(&circuit, &patterns, &chip, clk);
            let suspects = collect_suspects(&circuit, &patterns, &behavior);
            (behavior, suspects)
        })
        .find(|(_, suspects)| suspects.len() >= 10)
        .expect("some defect implicates at least 10 suspects");
    let cache = DictionaryCache::new();
    let build = || {
        cache.build_with_behavior(
            &circuit,
            &timing,
            &model.size_dist(),
            &patterns,
            &suspects,
            clk,
            DictionaryConfig::default(),
            Some(&behavior),
            None,
        )
    };
    build();
    c.bench_function("dictionary_cache_hit_s1423_paper", |b| {
        b.iter(|| black_box(build()))
    });
}

fn bench_rank_all_functions(c: &mut Criterion) {
    let f = setup();
    let diagnoser = Diagnoser::new(
        &f.circuit,
        &f.timing,
        &f.patterns,
        f.model.size_dist(),
        DiagnoserConfig::new(DictionaryConfig::new().with_samples(60).with_seed(1)),
    );
    let dictionary = diagnoser
        .build_dictionary(&f.behavior)
        .expect("behavior has suspects");
    c.bench_function("rank_five_error_functions_s1196", |b| {
        b.iter(|| {
            for func in ErrorFunction::EXTENDED {
                black_box(diagnoser.rank(&dictionary, &f.behavior, func));
            }
        })
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(2)).warm_up_time(Duration::from_millis(500));
    targets =
    bench_observe,
    bench_dictionary_build,
    bench_dictionary_cache_hit,
    bench_rank_all_functions
);
criterion_main!(benches);
