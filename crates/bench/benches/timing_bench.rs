//! Criterion benches for the statistical timing substrate: Monte-Carlo
//! static analysis, dynamic (per-pattern) simulation, cone-incremental
//! defect re-analysis and exact waveform simulation — plus the netlist
//! bring-up they all start from (generation + scan cut of the 100k-gate
//! synthetic profile) and the per-suspect cone extraction that follows.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use sdd_atpg::PatternSet;
use sdd_bench::bench_profile;
use sdd_netlist::generator::{generate, generate_combinational};
use sdd_netlist::logic::simulate_pair;
use sdd_netlist::profiles::SYNTH100K;
use sdd_netlist::{Circuit, EdgeId};
use sdd_timing::dynamic::{transition_arrivals, transition_arrivals_batch, DefectCone, NO_EVENT};
use sdd_timing::{sta, waveform, CellLibrary, CircuitTiming, VariationModel};
use std::hint::black_box;
use std::time::Duration;

fn setup() -> (Circuit, CircuitTiming) {
    let circuit = generate(&bench_profile().to_config(1))
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

fn bench_static_mc(c: &mut Criterion) {
    let (circuit, timing) = setup();
    c.bench_function("static_mc_64_samples_s1196", |b| {
        b.iter(|| black_box(sta::static_mc(&circuit, &timing, 64, 3)))
    });
}

fn bench_instance_sampling(c: &mut Criterion) {
    let (_, timing) = setup();
    c.bench_function("sample_instance_s1196", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            black_box(timing.sample_instance_indexed(5, i))
        })
    });
}

/// One 16-sample chip batch on the 100k-gate profile plus one random
/// pattern's batched arrival walk over it: the unit of work of the
/// bring-up dictionary, where the batch draws only the arcs the pattern
/// exercises.
fn bench_batch_sampling_synth100k(c: &mut Criterion) {
    let circuit = generate_combinational(&SYNTH100K, 1).expect("synth100k builds");
    let timing = CircuitTiming::characterize(
        &circuit,
        &CellLibrary::default_025um(),
        VariationModel::default(),
    );
    let patterns = PatternSet::random(&circuit, 1, 5);
    let pattern = &patterns.patterns()[0];
    let transitions = simulate_pair(&circuit, &pattern.v1, &pattern.v2);
    c.bench_function("sample_instance_batch_synth100k_pattern", |b| {
        let mut first = 0u64;
        b.iter(|| {
            first += 16;
            let batch = timing.sample_instance_batch(5, first, 16);
            black_box(transition_arrivals_batch(&circuit, &transitions, &batch))
        })
    });
}

fn bench_dynamic(c: &mut Criterion) {
    let (circuit, timing) = setup();
    let n = circuit.primary_inputs().len();
    let v1 = vec![false; n];
    let v2 = vec![true; n];
    let transitions = simulate_pair(&circuit, &v1, &v2);
    let instance = timing.sample_instance_indexed(5, 0);
    c.bench_function("transition_arrivals_s1196", |b| {
        b.iter(|| black_box(transition_arrivals(&circuit, &transitions, &instance)))
    });
}

fn bench_defect_cone(c: &mut Criterion) {
    let (circuit, timing) = setup();
    let n = circuit.primary_inputs().len();
    let v1 = vec![false; n];
    let v2 = vec![true; n];
    let transitions = simulate_pair(&circuit, &v1, &v2);
    let instance = timing.sample_instance_indexed(5, 0);
    let baseline = transition_arrivals(&circuit, &transitions, &instance);
    let cone = DefectCone::new(&circuit, EdgeId::from_index(10));
    c.bench_function("defect_cone_apply_s1196", |b| {
        b.iter_batched(
            || (vec![NO_EVENT; circuit.num_nodes()], Vec::new()),
            |(mut scratch, mut out)| {
                cone.apply(
                    &circuit,
                    &transitions,
                    &instance,
                    &baseline,
                    0.1,
                    &mut scratch,
                    &mut out,
                );
                black_box(out)
            },
            BatchSize::SmallInput,
        )
    });
}

fn bench_waveform(c: &mut Criterion) {
    let (circuit, timing) = setup();
    let n = circuit.primary_inputs().len();
    let v1: Vec<bool> = (0..n).map(|i| i % 3 == 0).collect();
    let v2: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
    let instance = timing.sample_instance_indexed(5, 0);
    c.bench_function("waveform_simulate_s1196", |b| {
        b.iter(|| black_box(waveform::simulate(&circuit, &v1, &v2, &instance)))
    });
}

/// [`DefectCone`] extraction (one `ConeView` each) for 401
/// stride-sampled arcs of the 100k-gate profile, whose cones hold up to
/// ~87k of its ~102k nodes, and for every arc sink of s1423.
fn bench_cone_views(c: &mut Criterion) {
    let synth = generate_combinational(&SYNTH100K, 2).expect("synth100k builds");
    let stride = synth.num_edges() / 400;
    let sampled: Vec<EdgeId> = synth.edge_ids().step_by(stride).collect();
    c.bench_function("cone_views_synth100k_401_arcs", |b| {
        b.iter(|| {
            for &e in &sampled {
                black_box(DefectCone::new(&synth, e));
            }
        })
    });
    let s1423 = generate_combinational(&sdd_netlist::profiles::by_name("s1423").unwrap(), 2)
        .expect("s1423 builds");
    c.bench_function("cone_views_s1423_every_arc", |b| {
        b.iter(|| {
            for e in s1423.edge_ids() {
                black_box(DefectCone::new(&s1423, e));
            }
        })
    });
}

fn bench_netlist_build(c: &mut Criterion) {
    c.bench_function("netlist_build_synth100k", |b| {
        b.iter(|| black_box(generate_combinational(&SYNTH100K, 1).expect("synth100k builds")))
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(2)).warm_up_time(Duration::from_millis(500));
    targets =
    bench_static_mc,
    bench_instance_sampling,
    bench_batch_sampling_synth100k,
    bench_dynamic,
    bench_defect_cone,
    bench_waveform
);
criterion_group!(
    name = netlist_build;
    config = Criterion::default().sample_size(5).measurement_time(Duration::from_secs(3)).warm_up_time(Duration::from_secs(1));
    targets = bench_netlist_build
);
criterion_group!(
    name = cone_views;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(5)).warm_up_time(Duration::from_secs(1));
    targets = bench_cone_views
);
criterion_main!(benches, netlist_build, cone_views);
