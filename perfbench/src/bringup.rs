//! `bringup_100k`: first contact with a new ~100k-gate design.
//!
//! One bring-up follows the quick-budget protocol of the `scale` bench
//! and uses no ATPG: build the `SYNTH100K` netlist and cut its scan
//! chains, characterize it, pick the clock by static Monte-Carlo STA,
//! extract the defect cones of a stride-sampled suspect set, observe one
//! sampled chip on seeded random patterns, and build a small batched
//! dictionary over the suspects. Bring-ups repeat on the same inputs
//! until `--seconds` have passed. Throughput comes from each step's
//! fastest run (see `stats::best`); the warm operation is a follow-up
//! chip on the brought-up design, its capture plus its dictionary.

use crate::trace::Tracer;
use crate::{stats, sys, Args, Report};
use sdd_atpg::PatternSet;
use sdd_core::dictionary::{DictionaryConfig, ProbabilisticDictionary, SimKernel};
use sdd_core::{CaptureModel, ObservedBehavior};
use sdd_netlist::generator::{generate, GeneratorConfig};
use sdd_netlist::profiles::{self, BenchmarkProfile};
use sdd_netlist::EdgeId;
use sdd_timing::dynamic::DefectCone;
use sdd_timing::{sta, CellLibrary, CircuitTiming, Dist, VariationModel};
use std::time::{Duration, Instant};

const STA_SAMPLES: usize = 20;
const N_SUSPECTS: usize = 16;
const N_PATTERNS: usize = 4;
const DICT_SAMPLES: usize = 16;
const SETUP_REPEATS: usize = 5;
const SETUP_MIN: Duration = Duration::from_millis(500);
const MIN_BRINGUPS: usize = 3;
/// The known small design the set-up brings up first.
const SMOKE_CIRCUIT: &str = "s1196";

/// Everything a bring-up starts from.
struct Inputs {
    generator: GeneratorConfig,
    library: CellLibrary,
    dictionary: DictionaryConfig,
}

fn inputs(profile: &BenchmarkProfile, seed: u64) -> Inputs {
    Inputs {
        generator: profile.to_config(seed),
        library: CellLibrary::default_025um(),
        dictionary: DictionaryConfig::new()
            .with_samples(DICT_SAMPLES)
            .with_seed(seed)
            .with_kernel(SimKernel::Batched),
    }
}

/// Step times of one bring-up, in seconds.
#[derive(Debug, Default)]
struct Steps {
    build: f64,
    characterize: f64,
    clk: f64,
    cones: f64,
    capture: f64,
    dictionary: f64,
    /// Share of the requested suspects the dictionary covers, in percent.
    coverage_pct: f64,
}

pub fn run(args: &Args, tracer: &Tracer) -> Report {
    let mut report = Report::default();
    // Set-up: the same steps on a known small design, which also warms
    // the thread pool and the allocator before the timed bring-ups.
    let smoke = profiles::by_name(SMOKE_CIRCUIT).expect("s1196 profile exists");
    let mut setup_s = Vec::new();
    // A set-up takes milliseconds: repeat it for a while, so the median is
    // taken on a warmed-up core.
    let started = Instant::now();
    while setup_s.len() < SETUP_REPEATS || started.elapsed() < SETUP_MIN {
        let t = Instant::now();
        let outcome = tracer.span("bench.setup", None, 0, |id| {
            bring_up(tracer, id, 0, args.seed, &inputs(&smoke, args.seed))
        });
        setup_s.push(t.elapsed().as_secs_f64());
        report.op(outcome
            .map(|_| ())
            .map_err(|e| format!("{SMOKE_CIRCUIT} bring-up: {e}")));
    }
    let inputs = inputs(&profiles::SYNTH100K, args.seed);

    let mut totals = Vec::new();
    let mut steps = Vec::new();
    let mut peak_rss = None;
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    while totals.len() < MIN_BRINGUPS || Instant::now() + typical(&totals) / 2 < deadline {
        let t = Instant::now();
        let request = totals.len() as u64;
        let outcome = tracer.span("bench.bringup", None, request, |id| {
            bring_up(tracer, id, request, args.seed, &inputs)
        });
        let total = t.elapsed().as_secs_f64();
        match outcome {
            Ok(s) => {
                report.op(Ok(()));
                if totals.is_empty() {
                    // Later bring-ups only add what the allocator retains.
                    peak_rss = sys::peak_rss_mb(None);
                }
                totals.push(total);
                steps.push(s);
            }
            Err(e) => report.op(Err(e)),
        }
        if totals.is_empty() && Instant::now() > deadline {
            break;
        }
    }

    report.end_to_end.insert("setup_s", stats::median(&setup_s));
    report
        .end_to_end
        .insert("peak_rss_mb", peak_rss.unwrap_or(f64::NAN));
    let step = |f: fn(&Steps) -> f64| stats::median(&steps.iter().map(f).collect::<Vec<_>>());
    // For the reason `stats::best` gives: throughput from each step's
    // fastest run, latency from the faster half of the bring-ups.
    let fastest = |f: fn(&Steps) -> f64| stats::best(&steps.iter().map(f).collect::<Vec<_>>());
    let follow_up_s = fastest(|s| s.capture) + fastest(|s| s.dictionary);
    let bringup_s = fastest(|s| s.build)
        + fastest(|s| s.characterize)
        + fastest(|s| s.clk)
        + fastest(|s| s.cones)
        + follow_up_s;
    let mut ms: Vec<f64> = totals.iter().map(|s| s * 1e3).collect();
    ms.sort_by(f64::total_cmp);
    ms.truncate(ms.len().div_ceil(2));
    let e2e = &mut report.end_to_end;
    e2e.insert("ops_per_s", 1.0 / bringup_s);
    e2e.insert("warm_ops_per_s", 1.0 / follow_up_s);
    e2e.insert("latency_p50_ms", stats::percentile(&ms, 50.0));
    e2e.insert("latency_p90_ms", stats::percentile(&ms, 90.0));
    e2e.insert("accuracy_pct", step(|s| s.coverage_pct));
    let layer = &mut report.per_layer;
    layer.insert("netlist.build_s", step(|s| s.build));
    layer.insert("timing.characterize_s", step(|s| s.characterize));
    layer.insert("timing.clk_s", step(|s| s.clk));
    layer.insert("timing.cones_s", step(|s| s.cones));
    layer.insert("observe.capture_s", step(|s| s.capture));
    layer.insert("dictionary.build_s", step(|s| s.dictionary));
    report
}

fn typical(totals: &[f64]) -> Duration {
    if totals.is_empty() {
        Duration::ZERO
    } else {
        Duration::from_secs_f64(stats::median(totals))
    }
}

/// Times `f` inside a span and adds its seconds to `slot`.
fn step<R>(
    tracer: &Tracer,
    parent: Option<usize>,
    request: u64,
    name: &str,
    slot: &mut f64,
    f: impl FnOnce() -> R,
) -> R {
    tracer.span(name, parent, request, |_| {
        let t = Instant::now();
        let r = f();
        *slot = t.elapsed().as_secs_f64();
        r
    })
}

fn bring_up(
    tracer: &Tracer,
    id: Option<usize>,
    request: u64,
    seed: u64,
    inputs: &Inputs,
) -> Result<Steps, String> {
    let mut s = Steps::default();
    let circuit = step(tracer, id, request, "netlist.build", &mut s.build, || {
        generate(&inputs.generator)
            .map_err(|e| format!("generate: {e}"))?
            .to_combinational()
            .map_err(|e| format!("scan cut: {e}"))
    })?;
    let timing = step(
        tracer,
        id,
        request,
        "timing.characterize",
        &mut s.characterize,
        || CircuitTiming::characterize(&circuit, &inputs.library, VariationModel::default()),
    );
    let clk = step(tracer, id, request, "timing.static_mc", &mut s.clk, || {
        sta::static_mc(&circuit, &timing, STA_SAMPLES, seed).map(|r| r.clock_at_quantile(0.95))
    })
    .map_err(|e| format!("static timing: {e}"))?;

    let stride = (circuit.num_edges() / N_SUSPECTS).max(1);
    let suspects: Vec<EdgeId> = circuit
        .edge_ids()
        .step_by(stride)
        .take(N_SUSPECTS)
        .collect();
    let cones = step(tracer, id, request, "timing.cones", &mut s.cones, || {
        suspects
            .iter()
            .map(|&e| DefectCone::new(&circuit, e))
            .collect::<Vec<_>>()
    });
    std::hint::black_box(&cones);

    let patterns = PatternSet::random(&circuit, N_PATTERNS, seed ^ 0x5ca1e);
    let chip = timing.sample_instance_indexed(seed ^ 0x0B5E, 0);
    let behavior = step(
        tracer,
        id,
        request,
        "observe.capture",
        &mut s.capture,
        || {
            ObservedBehavior::capture(&circuit, &patterns, &chip, CaptureModel::default())
                .matrix_at(clk)
        },
    );
    if behavior.num_patterns() != patterns.len() {
        return Err("observed behaviour does not cover every pattern".into());
    }

    let defect = Dist::defect_size(inputs.library.nominal_cell_delay());
    let dict = step(
        tracer,
        id,
        request,
        "dictionary.build",
        &mut s.dictionary,
        || {
            ProbabilisticDictionary::build(
                &circuit,
                &timing,
                &defect,
                &patterns,
                &suspects,
                clk,
                inputs.dictionary,
            )
        },
    );
    let covered: Vec<EdgeId> = dict.suspects().iter().map(|sig| sig.edge()).collect();
    let missing = suspects.iter().filter(|e| !covered.contains(e)).count();
    s.coverage_pct = 100.0 * (suspects.len() - missing) as f64 / suspects.len() as f64;
    if missing > 0 {
        return Err(format!(
            "dictionary lacks {missing} of {} requested suspects",
            suspects.len()
        ));
    }
    Ok(s)
}
