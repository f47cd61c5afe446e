//! Splits the campaign's per-site test-generation time into its three
//! parts: the `k_longest_through_edge` path search, the path-test
//! justifications (robust, then non-robust) and the transition-fault
//! PODEM runs.
//!
//! Sites are the distinct first defect draws of the campaign's chips
//! (`--sites` chips, default 40) at `CampaignConfig::paper` budgets, and
//! every search runs serially on the calling thread, so the split is
//! CPU time. Prints one line per part and why its searches stopped:
//! succeeded, aborted at the backtrack budget (`Aborted { backtracks }`
//! above the config's `max_backtracks`), aborted at the implication
//! budget, or proven untestable. A path candidate counts once, with the
//! outcome of its last mode tried (non-robust after a failed robust
//! test).
//!
//! ```text
//! cargo run -p sdd-bench --release --bin atpg_split \
//!     [-- --circuit s1196] [--seed 2] [--sites 40]
//! ```

use sdd_atpg::fault::{PathDelayFault, TransitionDirection, TransitionFault};
use sdd_atpg::path_atpg::generate_robust_or_nonrobust;
use sdd_atpg::podem::{generate_transition_assignments_diverse, PodemConfig};
use sdd_atpg::AtpgError;
use sdd_bench::flag_value;
use sdd_core::inject::CampaignConfig;
use sdd_core::{AtpgConfig, Design};
use sdd_netlist::profiles;
use sdd_timing::path;
use std::fmt;
use std::time::{Duration, Instant};

/// Why one part's searches stopped.
#[derive(Default)]
struct Outcomes {
    succeeded: usize,
    backtrack_budget: usize,
    implication_budget: usize,
    untestable: usize,
}

impl Outcomes {
    fn record<T>(&mut self, result: &Result<T, AtpgError>, config: PodemConfig) {
        match result {
            Ok(_) => self.succeeded += 1,
            Err(AtpgError::Aborted { backtracks, .. }) if *backtracks > config.max_backtracks => {
                self.backtrack_budget += 1
            }
            Err(AtpgError::Aborted { .. }) => self.implication_budget += 1,
            Err(AtpgError::Untestable { .. }) => self.untestable += 1,
            Err(e) => panic!("unexpected search error: {e}"),
        }
    }

    fn total(&self) -> usize {
        self.succeeded + self.backtrack_budget + self.implication_budget + self.untestable
    }
}

impl fmt::Display for Outcomes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} succeeded, {} at the backtrack budget, {} at the implication budget, {} untestable",
            self.succeeded, self.backtrack_budget, self.implication_budget, self.untestable
        )
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let name = flag_value(&args, "--circuit").unwrap_or_else(|| "s1196".into());
    let seed: u64 = flag_value(&args, "--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(2);
    let chips: u64 = flag_value(&args, "--sites")
        .and_then(|s| s.parse().ok())
        .unwrap_or(40);
    let profile = profiles::by_name(&name).expect("known circuit name");
    let config = CampaignConfig::paper(seed);
    let design = Design::generate(&profile, seed, config.variation).expect("profile generates");
    let (circuit, timing, model) = (design.circuit(), design.timing(), design.defect_model());
    let atpg = AtpgConfig::from_campaign(&config);

    let mut sites = Vec::new();
    for index in 0..chips {
        let edge = model
            .sample_defect(circuit, seed.wrapping_add(1 + index * 131))
            .edge;
        if !sites.contains(&edge) {
            sites.push(edge);
        }
    }

    let (mut k_longest, mut path_tests, mut transition) =
        (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let (mut path_outcomes, mut transition_outcomes) = (Outcomes::default(), Outcomes::default());
    for &site in &sites {
        let site_seed = seed
            .wrapping_mul(0x94D0_49BB_1331_11EB)
            .wrapping_add(site.index() as u64);
        let t = Instant::now();
        let paths = path::k_longest_through_edge(circuit, timing, site, atpg.n_paths * 2)
            .unwrap_or_default();
        k_longest += t.elapsed();

        let t = Instant::now();
        for (pix, p) in paths.iter().enumerate() {
            for (dix, launch) in [TransitionDirection::Rise, TransitionDirection::Fall]
                .into_iter()
                .enumerate()
            {
                let test_seed = site_seed
                    .wrapping_mul(0x5851_F42D_4C95_7F2D)
                    .wrapping_add((pix * 2 + dix) as u64);
                let fault = PathDelayFault::new(p.clone(), launch);
                path_outcomes.record(
                    &generate_robust_or_nonrobust(circuit, &fault, atpg.path_config, test_seed),
                    atpg.path_config,
                );
            }
        }
        path_tests += t.elapsed();

        let t = Instant::now();
        for (dix, direction) in [TransitionDirection::Rise, TransitionDirection::Fall]
            .into_iter()
            .enumerate()
        {
            for si in 0..4 {
                let decision_seed = site_seed
                    .wrapping_mul(0xD6E8_FEB8_6659_FD93)
                    .wrapping_add((dix * 4 + si) as u64);
                transition_outcomes.record(
                    &generate_transition_assignments_diverse(
                        circuit,
                        TransitionFault::new(site, direction),
                        atpg.podem_config,
                        Some(decision_seed),
                    ),
                    atpg.podem_config,
                );
            }
        }
        transition += t.elapsed();
    }

    println!(
        "{name}: {} sites, {} nodes, paper budgets (path {:?}, transition {:?})",
        sites.len(),
        circuit.num_nodes(),
        atpg.path_config,
        atpg.podem_config
    );
    println!("k_longest_through_edge  {:>8.3} s", k_longest.as_secs_f64());
    println!(
        "path tests              {:>8.3} s  ({}/{} candidates tested)",
        path_tests.as_secs_f64(),
        path_outcomes.succeeded,
        path_outcomes.total()
    );
    println!("  stopped: {path_outcomes}");
    println!(
        "transition PODEM        {:>8.3} s  ({}/{} searches succeeded)",
        transition.as_secs_f64(),
        transition_outcomes.succeeded,
        transition_outcomes.total()
    );
    println!("  stopped: {transition_outcomes}");
}
