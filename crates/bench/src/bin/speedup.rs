//! Measures the campaign speedup: the shared-cache parallel
//! [`DiagnosisSession`] path against the serial seed path (one fresh
//! dictionary per chip, no sharing), on the Table-I workload.
//!
//! Both paths produce bit-identical per-chip outcomes — the serial leg
//! is the session's per-chip pipeline with a throwaway cache — so the
//! comparison isolates the sharing and the fan-out. Prints the success
//! tables (they must agree), the phase/cache/kernel metrics and the
//! ratios. The kernels' bit-identity to their scalar oracles is pinned
//! by the test suite, not here: the oracles are test-only code.
//!
//! With `--store <dir>`, dictionary Monte-Carlo banks *and per-site
//! ATPG pattern sets* persist across runs: the first invocation
//! computes and checkpoints them, a second identical invocation loads
//! them from disk (watch the `dictionary store:` / `pattern store:`
//! metrics lines and the dictionary/patterns phase times) and still
//! produces the identical report. The store applies only to the final
//! (batched) leg so the other legs keep simulating.
//!
//! After the kernel legs, a dedicated **patterns leg** re-runs the
//! primary configuration against warm pattern state — a second layer
//! over the store when one is attached (disk-warm), the primary session
//! itself otherwise (memory-warm) — asserts the report is bit-identical
//! to the serial oracle, and asserts the Patterns phase actually got
//! faster (≥ 3× under a warm store at paper scale). Its metrics report
//! is exported alongside the primary leg's, so the warm phase timings
//! land in `BENCH_speedup.json`.
//!
//! `--quick` swaps the paper-scale workload for the reduced test
//! configuration — the CI sanity mode.
//! `--kernel batched|screened` runs a single dictionary kernel
//! (default: batched); `--kernel all` runs the screened leg ahead of
//! the batched leg. The screened kernel prunes the suspect set, so its
//! leg is checked structurally (screen counters populated, pruning
//! non-vacuous, fewer cone evals than batched); bit-identity with the
//! serial oracle is asserted for the batched leg (and for the screened
//! leg when it is the only kernel).
//! `--metrics-json <path>` additionally writes the primary and warm
//! legs' counters, per-phase latency histograms and per-instance traces
//! as a [`sdd_core::MetricsExport`] document (see `metrics_check`); with
//! `--quick` under the default kernel selection the same document is
//! also written to `BENCH_speedup.json` at the repository root, the
//! committed CI artifact (non-default `--kernel` runs never overwrite
//! it).
//!
//! ```text
//! cargo run -p sdd-bench --release --bin speedup \
//!     [-- --circuit s1196] [--seed 2] [--store DIR] [--quick] \
//!     [--kernel batched|screened|all] [--metrics-json PATH]
//! ```

use sdd_bench::{flag_value, write_metrics_export};
use sdd_core::evaluate::AccuracyReport;
use sdd_core::inject::CampaignConfig;
use sdd_core::session::{ArtifactLayer, Design, DiagnosisSession};
use sdd_core::{ErrorFunction, MetricsReport, SimKernel};
use sdd_netlist::generator::generate;
use sdd_netlist::profiles;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed: u64 = flag_value(&args, "--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(2);
    let circuit_name = flag_value(&args, "--circuit").unwrap_or_else(|| "s1196".to_owned());
    let store_dir = flag_value(&args, "--store");
    let quick = args.iter().any(|a| a == "--quick");
    let kernel_flag = flag_value(&args, "--kernel");
    // The screened leg runs first: the *last* leg is the serial
    // oracle's kernel and may be store-backed, both of which must stay
    // with the batched kernel whenever it is requested.
    let kernels: Vec<SimKernel> = match kernel_flag.as_deref() {
        Some("batched") | None => vec![SimKernel::Batched],
        Some("screened") => vec![SimKernel::Screened],
        Some("all") => vec![SimKernel::Screened, SimKernel::Batched],
        Some(other) => panic!("unknown --kernel `{other}` (batched|screened|all)"),
    };
    // Only the default kernel selection may refresh the committed CI
    // artifact at the repo root.
    let canonical_kernels = kernels == [SimKernel::Batched];
    let profile = profiles::by_name(&circuit_name).expect("known circuit name");
    let mut config = if quick {
        CampaignConfig::quick(seed)
    } else {
        CampaignConfig::paper(seed)
    };
    let circuit = generate(&profile.to_config(seed))
        .expect("profile generates")
        .to_combinational()
        .expect("scan cut succeeds");

    let mode = if quick { "quick" } else { "paper" };
    println!("=== campaign engine speedup on {circuit_name} (seed {seed}, {mode} workload) ===\n");

    // Serial seed path: chips one at a time, fresh dictionary each,
    // using the last (production) kernel.
    config.dictionary.kernel = *kernels.last().expect("at least one kernel");
    let t0 = Instant::now();
    let serial = run_serial_fresh(&circuit, &config);
    let serial_elapsed = t0.elapsed();
    println!("serial, fresh dictionaries : {serial_elapsed:>8.1?}");

    // Shared cache + rayon fan-out, once per requested kernel. Only the
    // final leg may be store-backed: a store hit skips simulation, which
    // would turn the comparison legs into no-ops.
    let mut reports: Vec<(SimKernel, AccuracyReport, std::time::Duration)> = Vec::new();
    let mut primary_session: Option<DiagnosisSession> = None;
    for (i, &kernel) in kernels.iter().enumerate() {
        let mut builder = ArtifactLayer::builder();
        let store_backed = i + 1 == kernels.len();
        if store_backed {
            if let Some(dir) = &store_dir {
                builder = builder.store_dir(dir);
            }
        }
        let layer = builder.build().expect("layer builds");
        let session = layer.session("speedup");
        config.dictionary.kernel = kernel;
        let t0 = Instant::now();
        let report = session
            .run_campaign_on(&circuit, &config)
            .expect("campaign runs");
        let elapsed = t0.elapsed();
        println!("parallel, {:<7?} kernel  : {elapsed:>8.1?}", kernel);
        if store_backed {
            if let Some(store) = session.layer().store() {
                println!(
                    "dictionary store           : {} ({} dict + {} pattern checkpoints, {} dict / {} pattern loads this run)",
                    store.dir().display(),
                    store.num_checkpoints(),
                    store.num_pattern_checkpoints(),
                    report.metrics.store_hits,
                    report.metrics.pattern_store_hits,
                );
            }
            primary_session = Some(session);
        }
        reports.push((kernel, report, elapsed));
    }

    let (_, primary, primary_elapsed) = reports.last().expect("at least one leg");
    println!(
        "speedup vs serial          : {:>7.2}x",
        serial_elapsed.as_secs_f64() / primary_elapsed.as_secs_f64()
    );

    // The leg running the serial oracle's kernel (the last one: batched
    // whenever it is requested) must agree bit-for-bit with it. The
    // screened leg is otherwise checked structurally: a screen that
    // really pruned.
    let serial_kernel = *kernels.last().expect("at least one kernel");
    let mut identical_legs = 1; // the serial leg itself
    for (kernel, report, _) in &reports {
        if *kernel == SimKernel::Screened {
            // The screened leg is checked structurally: the analytic
            // screen must have run over every candidate and genuinely
            // pruned before the MC refinement stage touched anything.
            let m = &report.metrics;
            assert!(m.suspects_screened > 0, "screened kernel never screened");
            assert!(m.suspects_refined > 0, "screen pruned every suspect");
            assert!(
                m.suspects_refined < m.suspects_screened,
                "screen refined all {} suspects — no pruning happened",
                m.suspects_screened
            );
            assert!(m.screen_nanos > 0, "screened kernel booked no screen time");
        }
        if *kernel == serial_kernel {
            assert_eq!(
                &serial, report,
                "{kernel:?} kernel altered the diagnosis results"
            );
            identical_legs += 1;
        }
    }
    println!("results identical          : yes ({identical_legs} legs)\n");

    // The per-site pattern memo: each chip looks a defect site up in
    // the shared pattern cache at most once, so per-trace lookups
    // (hits + misses) are bounded by the attempt count — repeated
    // redraws of an already-seen site reuse the in-hand Arc.
    for trace in &primary.traces {
        let lookups = trace.pattern_cache_hits + trace.pattern_cache_misses;
        assert!(
            lookups <= trace.redraws + 1,
            "chip {}: {lookups} pattern-cache lookups for {} attempts — \
             the per-site memo regressed",
            trace.chip_index,
            trace.redraws + 1,
        );
    }

    let leg = |k: SimKernel| reports.iter().find(|(kernel, _, _)| *kernel == k);
    if let Some((_, screened, _)) = leg(SimKernel::Screened) {
        let m = &screened.metrics;
        println!(
            "screened dictionary phase  : {:.2?} ({} suspects screened -> {} refined, screen {:.2?}, {} cone evals)",
            std::time::Duration::from_nanos(m.dictionary_nanos),
            m.suspects_screened,
            m.suspects_refined,
            std::time::Duration::from_nanos(m.screen_nanos),
            m.cone_evals,
        );
        if let Some((_, batched, _)) = leg(SimKernel::Batched) {
            let ratio = batched.metrics.dictionary_nanos as f64 / m.dictionary_nanos.max(1) as f64;
            assert!(
                m.cone_evals < batched.metrics.cone_evals,
                "screened cone evals {} not below batched {}",
                m.cone_evals,
                batched.metrics.cone_evals
            );
            println!("screened vs batched (cold) : {ratio:>7.2}x dictionary-phase speedup\n");
        } else {
            println!();
        }
    }

    // Patterns leg: the same configuration against warm pattern state.
    // With a store, a brand-new layer over the same directory (pattern
    // sets come from disk); without one, the primary session itself
    // (pattern sets come from its layer's in-memory cache).
    let session = primary_session.expect("primary leg ran");
    let (warm, warm_elapsed, warm_kind) = match &store_dir {
        Some(dir) => {
            let warm_session = ArtifactLayer::builder()
                .store_dir(dir)
                .build()
                .expect("warm layer builds")
                .session("speedup-warm");
            let t0 = Instant::now();
            let report = warm_session
                .run_campaign_on(&circuit, &config)
                .expect("warm campaign runs");
            (report, t0.elapsed(), "store-warm")
        }
        None => {
            let t0 = Instant::now();
            let report = session
                .run_campaign_on(&circuit, &config)
                .expect("warm campaign runs");
            (report, t0.elapsed(), "memory-warm")
        }
    };
    assert_eq!(
        &serial, &warm,
        "warm pattern state altered the diagnosis results"
    );
    let cold_pat = primary.metrics.patterns_nanos;
    let warm_pat = warm.metrics.patterns_nanos;
    let pat_ratio = cold_pat as f64 / warm_pat.max(1) as f64;
    println!(
        "patterns phase ({warm_kind:>11}): cold {:.2?} vs warm {:.2?} ({pat_ratio:.2}x), total {warm_elapsed:.1?}",
        std::time::Duration::from_nanos(cold_pat),
        std::time::Duration::from_nanos(warm_pat),
    );
    match warm_kind {
        "store-warm" => {
            assert!(
                warm.metrics.pattern_store_hits > 0,
                "warm leg never loaded a pattern checkpoint"
            );
            // Only a genuinely cold primary leg gives a fair ratio: on a
            // second invocation over the same store the primary leg is
            // already warm and the comparison is warm-vs-warm.
            if primary.metrics.pattern_store_hits == 0 {
                if quick {
                    assert!(
                        warm_pat < cold_pat,
                        "warm pattern store is not faster ({warm_pat} ns vs {cold_pat} ns)"
                    );
                } else {
                    assert!(
                        cold_pat >= 3 * warm_pat,
                        "warm pattern store under 3x: {warm_pat} ns vs {cold_pat} ns cold"
                    );
                }
            }
        }
        _ => {
            assert!(
                warm.metrics.pattern_cache_hits > 0,
                "memory-warm leg never hit the pattern cache"
            );
            assert_eq!(
                warm.metrics.pattern_cache_misses, 0,
                "memory-warm leg regenerated patterns"
            );
            assert!(
                warm_pat <= cold_pat,
                "memory-warm patterns phase is not faster ({warm_pat} ns vs {cold_pat} ns)"
            );
        }
    }
    println!("results identical (warm)   : yes\n");

    println!("{}", primary.render_table());
    println!("{}", primary.metrics.render());

    let exports = || {
        vec![
            MetricsReport::from_report(primary),
            MetricsReport::from_report(&warm),
        ]
    };
    if let Some(path) = flag_value(&args, "--metrics-json") {
        write_metrics_export(&path, exports());
        if quick && canonical_kernels {
            // The committed CI artifact at the repository root: the quick
            // workload is deterministic, so `metrics_check` can validate
            // this file on every run.
            let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_speedup.json");
            write_metrics_export(root, exports());
        }
    }
}

/// The seed engine: the exact per-chip pipeline of the campaign,
/// executed serially with no dictionary sharing (a new layer, and with
/// it a fresh cache, per chip).
fn run_serial_fresh(circuit: &sdd_netlist::Circuit, config: &CampaignConfig) -> AccuracyReport {
    let design = Design::new(circuit.clone(), config.variation);
    let mut report = AccuracyReport::new(
        circuit.name(),
        config.k_values.clone(),
        ErrorFunction::EXTENDED.to_vec(),
    );
    for i in 0..config.n_instances {
        let outcome = ArtifactLayer::new()
            .session("")
            .diagnose_instance(&design, config, i)
            .expect("serial chip diagnoses");
        report.record_outcome(outcome.as_ref());
    }
    report
}
