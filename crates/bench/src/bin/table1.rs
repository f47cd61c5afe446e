//! Reproduces **Table I** of the paper: diagnosis accuracy (success rate
//! in percent) for `Alg_sim` Methods I and II and `Alg_rev`, over eight
//! benchmark circuits, three `K` values each, `N = 20` injected chip
//! instances per circuit.
//!
//! Usage:
//!
//! ```text
//! cargo run -p sdd-bench --release --bin table1 \
//!     [-- --quick] [--circuit s1196] [--seed 2 | --seeds 1..10] \
//!     [--store DIR] [--kernel batched|screened] [--metrics-json PATH]
//! ```
//!
//! `--seeds A..B` runs every seed from `A` to `B` inclusive (so `1..10`
//! is ten seeds, N = 200 chips per cell at the paper budget) and prints,
//! instead of the per-seed tables, the hits pooled over the seeds per
//! (circuit, K, function) cell with a Wilson 95% interval, and per
//! function pooled over all cells.
//!
//! `--kernel` selects the dictionary simulation kernel (default:
//! batched Monte-Carlo). `screened` keeps the MC dictionaries but
//! builds them only for the top-K survivors of an analytic pre-screen.
//!
//! With `--store <dir>`, dictionary Monte-Carlo banks and per-site ATPG
//! pattern sets are checkpointed to (and reloaded from) disk, so
//! regenerating the table after a crash or re-running a subset of
//! circuits skips the dictionary and pattern-generation phases for
//! everything already computed. With `--metrics-json <path>`, one
//! [`sdd_core::MetricsReport`] per successfully-completed circuit is
//! written as a combined [`sdd_core::MetricsExport`] document.
//!
//! Prints, per circuit, the measured success rates for all five error
//! functions (the paper's four plus the `Alg_joint` extension) next to
//! the paper's published numbers. Absolute agreement is not expected —
//! the circuits are synthetic profile-matched stand-ins and the cell
//! library is synthetic — but the qualitative shape should hold: rates
//! grow with `K`, Method III is degenerate, and the explicit
//! error-function algorithms are competitive.

use sdd_bench::{
    flag_value, table1_k_values, table1_reference, wilson_interval, write_metrics_export,
};
use sdd_core::evaluate::AccuracyReport;
use sdd_core::inject::CampaignConfig;
use sdd_core::session::ArtifactLayer;
use sdd_core::{MetricsReport, SimKernel};
use sdd_netlist::profiles::{BenchmarkProfile, TABLE1_PROFILES};
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let circuit_filter = flag_value(&args, "--circuit");
    let range = flag_value(&args, "--seeds");
    let multi = range.is_some();
    let seeds = match range {
        Some(range) => parse_seed_range(&range),
        None => vec![flag_value(&args, "--seed")
            .and_then(|s| s.parse().ok())
            .unwrap_or(2)],
    };
    let kernel = match flag_value(&args, "--kernel").as_deref() {
        None | Some("batched") => SimKernel::Batched,
        Some("screened") => SimKernel::Screened,
        Some(other) => panic!("unknown --kernel `{other}` (batched|screened)"),
    };
    let store_dir = flag_value(&args, "--store");

    println!("=== Table I reproduction: diagnosis accuracy on benchmark examples ===");
    let seed_label = if multi {
        format!("seeds: {}..{}", seeds[0], seeds[seeds.len() - 1])
    } else {
        format!("seed: {}", seeds[0])
    };
    println!(
        "mode: {}, {seed_label}, kernel: {kernel:?}\n",
        if quick { "quick" } else { "paper (N = 20)" }
    );

    let profiles: Vec<BenchmarkProfile> = TABLE1_PROFILES
        .into_iter()
        .filter(|p| circuit_filter.as_deref().is_none_or(|f| p.name == f))
        .collect();
    let total = Instant::now();
    let mut metrics_reports: Vec<MetricsReport> = Vec::new();
    // Per circuit, the reports of every seed that completed, in seed order.
    let mut pooled: Vec<Vec<AccuracyReport>> = vec![Vec::new(); profiles.len()];
    for &seed in &seeds {
        // One artifact layer per seed: no cache key is shared across
        // seeds, so a layer would only hold memory.
        let mut builder = ArtifactLayer::builder();
        if let Some(dir) = &store_dir {
            builder = builder.store_dir(dir);
        }
        let layer = builder.build().expect("layer builds");
        let session = layer.session("table1");
        if let (Some(store), false) = (layer.store(), multi) {
            println!(
                "dictionary store: {} ({} dict + {} pattern checkpoints)\n",
                store.dir().display(),
                store.num_checkpoints(),
                store.num_pattern_checkpoints()
            );
        }
        for (profile, reports) in profiles.iter().zip(&mut pooled) {
            let config = campaign_config(profile, seed, kernel, quick);
            let t0 = Instant::now();
            match session.run_campaign(profile, &config) {
                Ok(report) => {
                    metrics_reports.push(MetricsReport::from_report(&report));
                    if multi {
                        println!(
                            "  [{} seed {seed} done in {:.1?}]",
                            profile.name,
                            t0.elapsed()
                        );
                    } else {
                        print_single(profile, &report);
                        println!("  [{} done in {:.1?}]\n", profile.name, t0.elapsed());
                    }
                    reports.push(report);
                }
                Err(e) => println!("{} seed {seed}: campaign failed: {e}\n", profile.name),
            }
        }
    }
    if multi {
        print_pooled(&profiles, &pooled);
    }
    println!("total wall clock: {:.1?}", total.elapsed());
    if let Some(path) = flag_value(&args, "--metrics-json") {
        write_metrics_export(&path, metrics_reports);
    }
}

/// Parses `A..B` into the seeds `A..=B`.
fn parse_seed_range(range: &str) -> Vec<u64> {
    let parsed = range
        .split_once("..")
        .and_then(|(a, b)| Some((a.parse::<u64>().ok()?, b.parse::<u64>().ok()?)));
    match parsed {
        Some((a, b)) if a <= b => (a..=b).collect(),
        _ => panic!("--seeds wants A..B with A <= B (inclusive), got `{range}`"),
    }
}

/// The Table-I campaign of one circuit at one seed.
fn campaign_config(
    profile: &BenchmarkProfile,
    seed: u64,
    kernel: SimKernel,
    quick: bool,
) -> CampaignConfig {
    let mut config = CampaignConfig::paper(seed);
    config.dictionary.kernel = kernel;
    config.k_values = table1_k_values(profile.name);
    // Scale Monte-Carlo budgets down on the largest circuits so the
    // full table regenerates in minutes; accuracy is insensitive to
    // the dictionary budget well before this point (see the
    // `ablation` binary).
    if profile.gates > 4000 {
        config.dictionary.n_samples = 80;
        config.sta_samples = 150;
        config.n_paths = 6;
        config.max_redraws = 6;
    }
    if quick {
        config.n_instances = 8;
        config.dictionary.n_samples = 60;
        config.sta_samples = 120;
        config.n_paths = 4;
    }
    config
}

/// One seed's table, metrics and the paper's reference rows.
fn print_single(profile: &BenchmarkProfile, report: &AccuracyReport) {
    println!("{}", report.render_table());
    println!("{}\n", report.metrics.render());
    if let Some(reference) = table1_reference(profile.name) {
        println!("  paper reference (Alg_sim I / Alg_sim II / Alg_rev):");
        for (k, rates) in reference {
            println!(
                "  K = {k:>2}: {:>3}% / {:>3}% / {:>3}%",
                rates[0], rates[1], rates[2]
            );
        }
    }
}

/// Hits pooled over seeds per (circuit, K, function) cell, then per
/// function over every cell, each with its Wilson 95% interval.
fn print_pooled(profiles: &[BenchmarkProfile], pooled: &[Vec<AccuracyReport>]) {
    let Some(first) = pooled.iter().flatten().next() else {
        println!("no campaign completed");
        return;
    };
    let functions = first.functions.clone();
    let cell = |hits: usize, n: usize| {
        let (lo, hi) = wilson_interval(hits, n);
        format!(
            "{hits:>4}/{n:<4} {:>5.1}% [{:>5.1},{:>5.1}]",
            100.0 * hits as f64 / n.max(1) as f64,
            100.0 * lo,
            100.0 * hi
        )
    };
    let header: String = functions
        .iter()
        .map(|f| format!(" | {:<29}", f.name()))
        .collect();
    let mut total = vec![(0usize, 0usize); functions.len()];
    println!("\n=== pooled over seeds: hits/N rate [Wilson 95%] ===");
    for (profile, reports) in profiles.iter().zip(pooled) {
        let Some(r0) = reports.first() else {
            continue;
        };
        let n: usize = reports.iter().map(|r| r.trials).sum();
        println!(
            "\n{} ({} seeds, N = {n} per cell)",
            profile.name,
            reports.len()
        );
        println!("{:>5}{header}", "K");
        for (k_ix, k) in r0.k_values.iter().enumerate() {
            let mut line = format!("{k:>5}");
            for (f_ix, sum) in total.iter_mut().enumerate() {
                let hits: usize = reports.iter().map(|r| r.successes[k_ix][f_ix]).sum();
                sum.0 += hits;
                sum.1 += n;
                line += &format!(" | {}", cell(hits, n));
            }
            println!("{line}");
        }
    }
    println!("\nper function, pooled over every cell:");
    for (f, &(hits, n)) in functions.iter().zip(&total) {
        println!("  {:<12} {}", f.name(), cell(hits, n));
    }
}
