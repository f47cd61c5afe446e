//! Splits the campaign's per-site test-generation time into its three
//! parts: the `k_longest_through_edge` path search, the path-test
//! justifications (robust, then non-robust) and the transition-fault
//! PODEM runs.
//!
//! Sites are the distinct first defect draws of the campaign's chips
//! (`--sites` chips, default 40) at `CampaignConfig::paper` budgets, and
//! every search runs serially on the calling thread, so the split is
//! CPU time. Prints one line per part and the search outcome tallies.
//!
//! ```text
//! cargo run -p sdd-bench --release --bin atpg_split \
//!     [-- --circuit s1196] [--seed 2] [--sites 40]
//! ```

use sdd_atpg::fault::{PathDelayFault, TransitionDirection, TransitionFault};
use sdd_atpg::path_atpg::generate_robust_or_nonrobust;
use sdd_atpg::podem::generate_transition_assignments_diverse;
use sdd_bench::flag_value;
use sdd_core::inject::CampaignConfig;
use sdd_core::{AtpgConfig, SingleDefectModel};
use sdd_netlist::generator::generate;
use sdd_netlist::profiles;
use sdd_timing::{path, CellLibrary, CircuitTiming};
use std::time::{Duration, Instant};

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
    let circuit = generate(&profile.to_config(seed))
        .expect("profile generates")
        .to_combinational()
        .expect("scan cut succeeds");
    let config = CampaignConfig::paper(seed);
    let library = CellLibrary::default_025um();
    let timing = CircuitTiming::characterize(&circuit, &library, config.variation);
    let atpg = AtpgConfig::from_campaign(&config);
    let model = SingleDefectModel::paper_section_i(library.nominal_cell_delay());

    let mut sites = Vec::new();
    for index in 0..chips {
        let edge = model
            .sample_defect(&circuit, seed.wrapping_add(1 + index * 131))
            .edge;
        if !sites.contains(&edge) {
            sites.push(edge);
        }
    }

    let (mut k_longest, mut path_tests, mut transition) =
        (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let (mut path_runs, mut path_ok, mut transition_runs, mut transition_ok) = (0, 0, 0, 0);
    for &site in &sites {
        let site_seed = seed
            .wrapping_mul(0x94D0_49BB_1331_11EB)
            .wrapping_add(site.index() as u64);
        let t = Instant::now();
        let paths = path::k_longest_through_edge(&circuit, &timing, site, atpg.n_paths * 2)
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
                path_runs += 1;
                path_ok += usize::from(
                    generate_robust_or_nonrobust(&circuit, &fault, atpg.path_config, test_seed)
                        .is_ok(),
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
                transition_runs += 1;
                transition_ok += usize::from(
                    generate_transition_assignments_diverse(
                        &circuit,
                        TransitionFault::new(site, direction),
                        atpg.podem_config,
                        Some(decision_seed),
                    )
                    .is_ok(),
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
        "path tests              {:>8.3} s  ({path_ok}/{path_runs} candidates tested)",
        path_tests.as_secs_f64()
    );
    println!(
        "transition PODEM        {:>8.3} s  ({transition_ok}/{transition_runs} searches succeeded)",
        transition.as_secs_f64()
    );
}
