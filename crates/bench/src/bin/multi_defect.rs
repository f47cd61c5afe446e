//! Multi-defect robustness campaign (ROADMAP scenario 4b, paper
//! future-work direction 3): inject `m ≥ 1` simultaneous segment
//! defects per chip while diagnosing under the single-defect
//! dictionary, and score **any-hit** accuracy — at least one injected
//! arc in the top-K answer.
//!
//! Usage:
//!
//! ```text
//! cargo run -p sdd-bench --release --bin multi_defect \
//!     [-- --quick] [--circuit s1196] [--seed 2] [--m 2]
//! ```
//!
//! Runs the `m = 1` baseline next to the requested `m` (default 2) on
//! one shared layer, so the dictionary-model mismatch cost is visible
//! per (K, error function) cell. The binary asserts that the `m = 1`
//! leg equals the single-defect campaign of the same configuration,
//! that hit counts are monotone in K, and that a rerun on a fresh layer
//! is bit-identical, so a CI `--quick` invocation doubles as a smoke
//! test.

use sdd_bench::flag_value;
use sdd_core::inject::CampaignConfig;
use sdd_core::session::{ArtifactLayer, DiagnosisSession};
use sdd_netlist::generator::generate;
use sdd_netlist::profiles;
use std::num::NonZeroUsize;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let circuit_name = flag_value(&args, "--circuit").unwrap_or_else(|| "s1196".into());
    let seed: u64 = flag_value(&args, "--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(2);
    let m: NonZeroUsize = flag_value(&args, "--m")
        .map(|s| s.parse().expect("--m must be a positive integer"))
        .unwrap_or(NonZeroUsize::new(2).expect("2 is nonzero"));

    let profile = profiles::by_name(&circuit_name)
        .unwrap_or_else(|| panic!("unknown circuit profile `{circuit_name}`"));
    let circuit = generate(&profile.to_config(seed))
        .expect("profile generates")
        .to_combinational()
        .expect("combinational view");

    let mut config = if quick {
        let mut c = CampaignConfig::quick(seed);
        c.n_instances = 8;
        c
    } else {
        CampaignConfig::paper(seed)
    };
    config.seed = seed;

    println!("=== Multi-defect any-hit accuracy: {circuit_name} ===");
    println!(
        "mode: {}, seed: {seed}, chips: {}, defects per chip: 1 vs {m}\n",
        if quick { "quick" } else { "paper" },
        config.n_instances
    );

    let total = Instant::now();
    let session = ArtifactLayer::new().session("");
    let reports: Vec<_> = [NonZeroUsize::MIN, m]
        .into_iter()
        .map(|defects| {
            let t0 = Instant::now();
            let run = |session: &DiagnosisSession| {
                session
                    .run_multi_defect_campaign_on(&circuit, &config, defects)
                    .expect("multi-defect campaign runs")
            };
            let report = run(&session);
            for f_ix in 0..report.functions.len() {
                let mut last = 0;
                for row in &report.successes {
                    assert!(
                        row[f_ix] >= last,
                        "any-hit not monotone in K at m={defects}"
                    );
                    last = row[f_ix];
                }
            }
            // The campaign is seed-determined: a cold layer gives the
            // report the warm shared one did.
            let again = run(&ArtifactLayer::new().session(""));
            assert_eq!(report, again, "m={defects} campaign is not deterministic");
            if defects == NonZeroUsize::MIN {
                let single = session
                    .run_campaign_on(&circuit, &config)
                    .expect("single-defect campaign runs");
                assert_eq!(
                    report, single,
                    "m=1 leg differs from the single-defect campaign"
                );
            }
            let c = &report.metrics;
            println!(
                "  [m = {defects} done in {:.1?}; pattern cache: {} hits / {} misses, \
                 dictionary cache: {} hits / {} misses]",
                t0.elapsed(),
                c.pattern_cache_hits,
                c.pattern_cache_misses,
                c.dict_cache_hits,
                c.dict_cache_misses
            );
            report
        })
        .collect();

    let (base, multi) = (&reports[0], &reports[1]);
    println!("\n  any-hit %, m=1 -> m={m} (per K, per error function):");
    print!("  {:>6}", "K");
    for f in &base.functions {
        print!(" {:>16}", f.name());
    }
    println!();
    for (k_ix, k) in base.k_values.iter().enumerate() {
        print!("  {k:>6}");
        for f_ix in 0..base.functions.len() {
            print!(
                " {:>7.0} -> {:>4.0}",
                base.success_percent(k_ix, f_ix),
                multi.success_percent(k_ix, f_ix)
            );
        }
        println!();
    }
    println!("\ntotal wall clock: {:.1?}", total.elapsed());
}
