//! `campaign`: the paper's Table-I protocol on s1196, cold and store-warm.
//!
//! Set-up builds the s1196 netlist. One iteration runs the campaign
//! (`CampaignConfig::paper`: 20 injected chips, batched kernel, sweep
//! clock) in two timed phases:
//!
//! * cold — a fresh `ArtifactLayer` on a 2-thread pool over a fresh,
//!   empty store directory;
//! * store-warm — new layers over that same store re-run the identical
//!   campaign, which must give the identical report without generating a
//!   pattern set or evaluating a defect cone.
//!
//! Iterations repeat until `--seconds` have passed. Throughput is taken
//! from each phase's fastest run (see `stats::best`), and the chip
//! latency percentiles from the chips of every cold run.

use crate::trace::Tracer;
use crate::{object, stats, sys, Args, Report};
use sdd_core::evaluate::AccuracyReport;
use sdd_core::inject::CampaignConfig;
use sdd_core::metrics::{CampaignMetrics, InstanceTrace, TraceOutcome};
use sdd_core::session::ArtifactLayer;
use sdd_core::ErrorFunction;
use sdd_netlist::generator::generate;
use sdd_netlist::{profiles, Circuit};
use serde::Serialize;
use std::path::Path;
use std::time::{Duration, Instant};

const CIRCUIT: &str = "s1196";
/// Seeds the lot: the netlist, chips and defects every run diagnoses.
const LOT_SEED: u64 = 2;
/// Store-warm re-runs after each cold phase.
const WARM_RERUNS: usize = 10;
const MIN_ITERATIONS: usize = 3;
const THREADS: usize = 2;
const SETUP_REPEATS: usize = 21;
const SETUP_MIN: Duration = Duration::from_millis(500);
/// The paper's Table-I columns: Alg_sim I, Alg_sim II and Alg_rev.
const TABLE1_FUNCTIONS: [ErrorFunction; 3] = [
    ErrorFunction::MethodI,
    ErrorFunction::MethodII,
    ErrorFunction::Euclidean,
];

/// The campaign every run diagnoses: the same lot on every run, so runs
/// measure the same work and report the same accuracy.
fn set_up() -> (Circuit, CampaignConfig) {
    let profile = profiles::by_name(CIRCUIT).expect("s1196 profile exists");
    let mut config = CampaignConfig::paper(LOT_SEED);
    config.k_values = sdd_bench::table1_k_values(CIRCUIT);
    let circuit = generate(&profile.to_config(LOT_SEED))
        .expect("profile generates")
        .to_combinational()
        .expect("scan cut succeeds");
    (circuit, config)
}

pub fn run(args: &Args, tracer: &Tracer, scratch: &sys::Scratch) -> Report {
    let mut report = Report::default();
    let mut setup_s = Vec::new();
    let mut lot = None;
    // A set-up takes under a millisecond: repeat it for a while, so the
    // median is taken on a warmed-up core.
    let started = Instant::now();
    while setup_s.len() < SETUP_REPEATS || started.elapsed() < SETUP_MIN {
        let t = Instant::now();
        lot = Some(tracer.span("bench.setup", None, 0, |id| {
            tracer.span("netlist.generate", id, 0, |_| set_up())
        }));
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let (circuit, config) = lot.expect("set up at least once");

    let mut reference: Option<AccuracyReport> = None;
    let (mut cold_s, mut warm_s) = (Vec::new(), Vec::new());
    // The latency of every chip of every cold phase. Chips sharing a site
    // share its pattern set, and which of them generates it depends on
    // the pool's scheduling, so one phase's chips say little on their own.
    let mut cold_chip_ms: Vec<f64> = Vec::new();
    let mut cold_metrics: Vec<CampaignMetrics> = Vec::new();
    let mut cold_chip_patterns_max = Vec::new();
    let mut cold_draws_per_detected = Vec::new();
    let mut warm_metrics: Vec<CampaignMetrics> = Vec::new();
    // Read after the first iteration: later ones only add what the
    // allocator retains from earlier ones.
    let mut peak_rss = None;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(args.seconds);
    let mut iteration = 0;
    while iteration < MIN_ITERATIONS
        || Instant::now() + start.elapsed() / (2 * iteration as u32) < deadline
    {
        iteration += 1;
        let store = scratch.fresh_dir("store");
        let cold = tracer.span("bench.cold_phase", None, 0, |phase| {
            run_campaign(tracer, phase, &store, &circuit, &config)
        });
        let Some((cold_report, wall)) = record(&mut report, &mut reference, cold, "cold") else {
            continue;
        };
        cold_chip_ms.extend(cold_report.traces.iter().map(chip_ms));
        cold_s.push(wall);
        let traces = &cold_report.traces;
        let slowest = traces.iter().map(|t| t.patterns_nanos).max().unwrap_or(0);
        cold_chip_patterns_max.push(stats::secs(slowest));
        let detected = traces
            .iter()
            .filter(|t| t.outcome != TraceOutcome::Undetected)
            .count();
        let draws: u64 = traces.iter().map(|t| t.redraws + 1).sum();
        cold_draws_per_detected.push(stats::ratio(draws, detected as u64));
        report.counters.push(object(vec![
            ("phase", "cold".to_value()),
            ("iteration", iteration.to_value()),
            ("metrics", cold_report.metrics.to_value()),
        ]));
        cold_metrics.push(cold_report.metrics);

        for _ in 0..WARM_RERUNS {
            let warm = tracer.span("bench.warm_phase", None, 0, |phase| {
                run_campaign(tracer, phase, &store, &circuit, &config)
            });
            let Some((warm_report, wall)) = record(&mut report, &mut reference, warm, "store-warm")
            else {
                continue;
            };
            warm_s.push(wall);
            let m = &warm_report.metrics;
            report.check(m.cone_evals == 0, || {
                format!(
                    "store-warm campaign evaluated {} defect cones",
                    m.cone_evals
                )
            });
            let generated = pattern_sets_generated(m);
            report.check(generated == 0, || {
                format!("store-warm campaign generated {generated} pattern sets")
            });
            report.counters.push(object(vec![
                ("phase", "store-warm".to_value()),
                ("iteration", iteration.to_value()),
                ("metrics", m.to_value()),
            ]));
            warm_metrics.push(warm_report.metrics);
        }
        let _ = std::fs::remove_dir_all(&store);
        if iteration == 1 {
            peak_rss = sys::peak_rss_mb(None);
        }
    }

    let chips = config.n_instances as f64;
    let e2e = &mut report.end_to_end;
    e2e.insert("setup_s", stats::median(&setup_s));
    e2e.insert("peak_rss_mb", peak_rss.unwrap_or(f64::NAN));
    e2e.insert("ops_per_s", chips / stats::best(&cold_s));
    e2e.insert("warm_ops_per_s", chips / stats::best(&warm_s));
    e2e.insert("latency_p50_ms", stats::percentile(&cold_chip_ms, 50.0));
    e2e.insert("latency_p90_ms", stats::percentile(&cold_chip_ms, 90.0));
    e2e.insert(
        "accuracy_pct",
        reference.as_ref().map_or(f64::NAN, table1_success_pct),
    );

    let mean_of = |ms: &[CampaignMetrics], f: fn(&CampaignMetrics) -> f64| {
        stats::mean(&ms.iter().map(f).collect::<Vec<_>>())
    };
    use stats::secs;
    let layer = &mut report.per_layer;
    layer.insert(
        "atpg.patterns_cpu_s",
        mean_of(&cold_metrics, |m| secs(m.patterns_nanos)),
    );
    layer.insert(
        "atpg.chip_patterns_max_s",
        stats::mean(&cold_chip_patterns_max),
    );
    layer.insert(
        "atpg.pattern_sets_generated",
        mean_of(&cold_metrics, |m| pattern_sets_generated(m) as f64),
    );
    layer.insert(
        "atpg.draws_per_detected_chip",
        stats::mean(&cold_draws_per_detected),
    );
    layer.insert(
        "dictionary.cpu_s",
        mean_of(&cold_metrics, |m| secs(m.dictionary_nanos)),
    );
    layer.insert(
        "dictionary.kernel_cpu_s",
        mean_of(&cold_metrics, |m| secs(m.kernel_nanos)),
    );
    layer.insert(
        "dictionary.cone_evals",
        mean_of(&cold_metrics, |m| m.cone_evals as f64),
    );
    layer.insert(
        "cache.dict_hit_ratio",
        mean_of(&cold_metrics, |m| {
            stats::ratio(m.dict_cache_hits, m.dict_cache_hits + m.dict_cache_misses)
        }),
    );
    layer.insert(
        "store.flushes",
        mean_of(&cold_metrics, |m| {
            (m.store_flushes + m.pattern_store_flushes) as f64
        }),
    );
    layer.insert(
        "store.load_cpu_s",
        mean_of(&warm_metrics, |m| {
            secs(m.store_load_nanos + m.pattern_store_load_nanos)
        }),
    );
    layer.insert(
        "store.hit_ratio",
        mean_of(&warm_metrics, |m| {
            let hits = m.store_hits + m.pattern_store_hits;
            stats::ratio(hits, hits + m.store_misses + m.pattern_store_misses)
        }),
    );
    layer.insert(
        "observe.cpu_s",
        mean_of(&warm_metrics, |m| secs(m.observe_nanos)),
    );
    layer.insert("rank.cpu_s", mean_of(&warm_metrics, |m| secs(m.rank_nanos)));
    layer.insert(
        "dictionary.warm_cone_evals",
        mean_of(&warm_metrics, |m| m.cone_evals as f64),
    );
    layer.insert(
        "atpg.warm_pattern_sets_generated",
        mean_of(&warm_metrics, |m| pattern_sets_generated(m) as f64),
    );
    report
}

/// One campaign on a new 2-thread layer over `store`: (report, wall
/// seconds from opening the layer to the campaign's return).
fn run_campaign(
    tracer: &Tracer,
    phase: Option<usize>,
    store: &Path,
    circuit: &Circuit,
    config: &CampaignConfig,
) -> Result<(AccuracyReport, f64), String> {
    let t = Instant::now();
    let layer = tracer
        .span("store.open", phase, 0, |_| {
            ArtifactLayer::builder()
                .num_threads(THREADS)
                .store_dir(store)
                .build()
        })
        .map_err(|e| format!("layer over {}: {e}", store.display()))?;
    let session = layer.session("campaign");
    tracer.span("session.run_campaign_on", phase, 0, |id| {
        let started = Instant::now();
        let result = session.run_campaign_on(circuit, config);
        let call_ns = started.elapsed().as_nanos() as f64;
        let report = result.map_err(|e| format!("campaign: {e}"))?;
        tracer.set_split(id, phase_split(&report.metrics, call_ns));
        Ok((report, t.elapsed().as_secs_f64()))
    })
}

/// Books a phase's outcome and checks its report against the first cold
/// report.
fn record(
    report: &mut Report,
    reference: &mut Option<AccuracyReport>,
    outcome: Result<(AccuracyReport, f64), String>,
    phase: &str,
) -> Option<(AccuracyReport, f64)> {
    let (r, wall) = match outcome {
        Err(e) => {
            report.op(Err(format!("{phase} phase: {e}")));
            return None;
        }
        Ok(ok) => ok,
    };
    report.op(Ok(()));
    match reference {
        None => *reference = Some(r.clone()),
        Some(first) => report.check(*first == r, || {
            format!("{phase} report differs from the first cold report")
        }),
    }
    Some((r, wall))
}

/// One chip's latency in milliseconds: the time its diagnosis spent in
/// ATPG, observation, dictionary building and ranking.
fn chip_ms(t: &InstanceTrace) -> f64 {
    stats::secs(t.patterns_nanos + t.observe_nanos + t.dictionary_nanos + t.rank_nanos) * 1e3
}

/// Pattern sets the campaign ran ATPG for (memory misses not served by
/// the store).
fn pattern_sets_generated(m: &CampaignMetrics) -> u64 {
    m.pattern_cache_misses.saturating_sub(m.pattern_store_hits)
}

/// Shares of a campaign call's wall time per inner layer, from the
/// program's phase counters: each phase's CPU time over the pool's
/// capacity (wall time × threads). Store reads happen inside the
/// patterns and dictionary phases and are moved to `store`; what no
/// phase covers (characterization, idle workers) stays with `session`.
fn phase_split(m: &CampaignMetrics, call_ns: f64) -> Vec<(String, f64)> {
    let capacity = call_ns * THREADS as f64;
    let parts = [
        (
            "atpg",
            m.patterns_nanos.saturating_sub(m.pattern_store_load_nanos),
        ),
        ("observe", m.observe_nanos),
        (
            "dictionary",
            m.dictionary_nanos.saturating_sub(m.store_load_nanos),
        ),
        ("rank", m.rank_nanos),
        ("store", m.store_load_nanos + m.pattern_store_load_nanos),
    ];
    let total: f64 = parts.iter().map(|&(_, n)| n as f64).sum();
    let scale = if total > capacity {
        capacity / total
    } else {
        1.0
    };
    parts
        .iter()
        .map(|&(layer, n)| (layer.to_owned(), n as f64 * scale / capacity.max(1.0)))
        .collect()
}

/// Mean success rate over the circuit's Table-I `K` values and the
/// paper's three functions.
fn table1_success_pct(r: &AccuracyReport) -> f64 {
    let mut rates = Vec::new();
    for k_ix in 0..r.k_values.len() {
        for f in TABLE1_FUNCTIONS {
            let f_ix = r
                .functions
                .iter()
                .position(|&g| g == f)
                .expect("campaign reports every function");
            rates.push(r.success_percent(k_ix, f_ix));
        }
    }
    stats::mean(&rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_lot_is_the_same_on_every_run() {
        let ((c1, a), (c2, b)) = (set_up(), set_up());
        assert_eq!(a, b);
        assert_eq!(c1.num_edges(), c2.num_edges());
        assert_eq!(a.k_values, vec![1, 3, 7]);
    }

    #[test]
    fn phase_split_never_exceeds_the_pool() {
        let m = CampaignMetrics {
            patterns_nanos: 3_000,
            dictionary_nanos: 1_000,
            ..CampaignMetrics::default()
        };
        let split = phase_split(&m, 1_000.0);
        let total: f64 = split.iter().map(|(_, s)| s).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(split[0], ("atpg".to_owned(), 0.75));
        let idle = phase_split(&m, 4_000.0);
        assert_eq!(idle[0].1, 3_000.0 / 8_000.0);
    }
}
