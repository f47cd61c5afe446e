//! Golden pin of the campaign's test-generation searches.
//!
//! For a fixed set of s1196 defect sites drawn the way the Table-I
//! campaign draws them (`CampaignConfig::paper(2)`), this suite replays
//! every search [`patterns_through_site_with`] runs — each robust and
//! non-robust path-test justification, each randomized transition-fault
//! PODEM run — and hashes the exact outcome: the generated assignment or
//! pattern, `Aborted { backtracks }` or `Untestable`. It also hashes the
//! pattern sets the function returns.
//!
//! The digests were recorded before implication became event-driven.
//! Any change to a search decision, an abort point or a random draw
//! moves them, and with them the pattern store's contents and the
//! Table-I numbers; a speed-up of the search loops must leave them
//! untouched.

use sdd_atpg::fault::{PathDelayFault, TransitionDirection, TransitionFault};
use sdd_atpg::path_atpg::generate_path_test;
use sdd_atpg::path_sens::SensitizationMode;
use sdd_atpg::podem::generate_transition_assignments_diverse;
use sdd_atpg::PatternSet;
use sdd_core::format::StableHasher;
use sdd_core::inject::{patterns_through_site_with, CampaignConfig};
use sdd_core::{AtpgConfig, SingleDefectModel};
use sdd_netlist::generator::generate;
use sdd_netlist::{profiles, Circuit, EdgeId};
use sdd_timing::{path, CellLibrary, CircuitTiming};
use std::fmt::Debug;

const LOT_SEED: u64 = 2;
/// Chips whose first defect draw supplies the pinned sites.
const CHIPS: u64 = 12;

/// Digest of every search outcome, in site then candidate order.
const OUTCOME_DIGEST: u64 = 18_214_839_983_530_890_612;
/// `(searches, ok, aborted, untestable)` behind [`OUTCOME_DIGEST`].
const OUTCOME_COUNTS: (usize, usize, usize, usize) = (864, 44, 55, 765);
/// Digest of the pattern set returned for every site.
const PATTERN_DIGEST: u64 = 6_551_238_018_573_645_288;
/// Total pattern count behind [`PATTERN_DIGEST`].
const PATTERN_COUNT: usize = 132;

struct Lot {
    circuit: Circuit,
    timing: CircuitTiming,
    config: CampaignConfig,
    atpg: AtpgConfig,
}

fn lot() -> Lot {
    let profile = profiles::by_name("s1196").expect("s1196 profile exists");
    let circuit = generate(&profile.to_config(LOT_SEED))
        .expect("profile generates")
        .to_combinational()
        .expect("scan cut succeeds");
    let config = CampaignConfig::paper(LOT_SEED);
    let timing =
        CircuitTiming::characterize(&circuit, &CellLibrary::default_025um(), config.variation);
    let atpg = AtpgConfig::from_campaign(&config);
    Lot {
        circuit,
        timing,
        config,
        atpg,
    }
}

/// The distinct sites of the first defect draw of chips `0..CHIPS`, with
/// the per-site seed the campaign derives for them.
fn sites(lot: &Lot) -> Vec<(EdgeId, u64)> {
    let model =
        SingleDefectModel::paper_section_i(CellLibrary::default_025um().nominal_cell_delay());
    let mut sites: Vec<(EdgeId, u64)> = Vec::new();
    for index in 0..CHIPS {
        let defect_seed = lot.config.seed.wrapping_add(1 + index * 131);
        let edge = model.sample_defect(&lot.circuit, defect_seed).edge;
        if sites.iter().all(|&(e, _)| e != edge) {
            let site_seed = lot
                .config
                .seed
                .wrapping_mul(0x94D0_49BB_1331_11EB)
                .wrapping_add(edge.index() as u64);
            sites.push((edge, site_seed));
        }
    }
    sites
}

#[derive(Default)]
struct Tally {
    hasher: StableHasher,
    searches: usize,
    ok: usize,
    aborted: usize,
    untestable: usize,
}

impl Tally {
    fn record<T: Debug>(&mut self, outcome: &Result<T, sdd_atpg::AtpgError>) {
        self.searches += 1;
        match outcome {
            Ok(_) => self.ok += 1,
            Err(sdd_atpg::AtpgError::Aborted { .. }) => self.aborted += 1,
            Err(sdd_atpg::AtpgError::Untestable { .. }) => self.untestable += 1,
            Err(e) => panic!("unexpected search error: {e}"),
        }
        self.hasher.write(format!("{outcome:?}").as_bytes());
    }
}

/// Replays the searches of `patterns_through_site_with` for one site:
/// the same candidates, seeds and budgets, but keeping every outcome.
fn replay_searches(lot: &Lot, site: EdgeId, seed: u64, tally: &mut Tally) {
    let (circuit, atpg) = (&lot.circuit, &lot.atpg);
    if let Ok(paths) = path::k_longest_through_edge(circuit, &lot.timing, site, atpg.n_paths * 2) {
        for (pix, p) in paths.iter().enumerate() {
            for (dix, launch) in [TransitionDirection::Rise, TransitionDirection::Fall]
                .into_iter()
                .enumerate()
            {
                let test_seed = seed
                    .wrapping_mul(0x5851_F42D_4C95_7F2D)
                    .wrapping_add((pix * 2 + dix) as u64);
                let fault = PathDelayFault::new(p.clone(), launch);
                let robust = generate_path_test(
                    circuit,
                    &fault,
                    SensitizationMode::Robust,
                    atpg.path_config,
                    test_seed,
                );
                tally.record(&robust);
                if robust.is_err() {
                    tally.record(&generate_path_test(
                        circuit,
                        &fault,
                        SensitizationMode::NonRobust,
                        atpg.path_config,
                        test_seed,
                    ));
                }
            }
        }
    }
    // The function runs `min(ceil(fills / 2), 4)` searches per direction,
    // with `fills = max_patterns - accepted path tests`. At most
    // `n_paths` path tests are accepted, and at paper budgets that leaves
    // at least 8 fills, so every site runs 4 searches per direction.
    assert!(atpg.max_patterns - atpg.n_paths >= 8);
    let searches = 4;
    for (dix, direction) in [TransitionDirection::Rise, TransitionDirection::Fall]
        .into_iter()
        .enumerate()
    {
        for si in 0..searches {
            let decision_seed = seed
                .wrapping_mul(0xD6E8_FEB8_6659_FD93)
                .wrapping_add((dix * searches + si) as u64);
            let outcome = generate_transition_assignments_diverse(
                circuit,
                TransitionFault::new(site, direction),
                atpg.podem_config,
                Some(decision_seed),
            );
            tally.record(&outcome);
        }
    }
}

fn hash_patterns(hasher: &mut StableHasher, set: &PatternSet) {
    hasher.write_usize(set.len());
    for p in set.iter() {
        for bits in [&p.v1, &p.v2] {
            hasher.write(&bits.iter().map(|&b| u8::from(b)).collect::<Vec<u8>>());
        }
    }
}

#[test]
fn campaign_search_outcomes_match_golden_digest() {
    let lot = lot();
    let sites = sites(&lot);
    assert!(sites.len() >= 4, "too few distinct sites: {}", sites.len());
    let mut tally = Tally::default();
    for &(site, seed) in &sites {
        replay_searches(&lot, site, seed, &mut tally);
    }
    // Budget-bound searches are part of the pin, so it covers the abort
    // points as well as the successes.
    assert_eq!(
        (tally.searches, tally.ok, tally.aborted, tally.untestable),
        OUTCOME_COUNTS
    );
    assert_eq!(
        tally.hasher.finish(),
        OUTCOME_DIGEST,
        "search outcomes moved ({} searches: {} ok, {} aborted, {} untestable)",
        tally.searches,
        tally.ok,
        tally.aborted,
        tally.untestable
    );
}

#[test]
fn campaign_pattern_sets_match_golden_digest() {
    let lot = lot();
    let mut hasher = StableHasher::new();
    let mut total = 0usize;
    for (site, seed) in sites(&lot) {
        let set = patterns_through_site_with(
            &lot.circuit,
            &lot.timing,
            site,
            lot.atpg.n_paths,
            lot.atpg.max_patterns,
            seed,
            lot.atpg.path_config,
            lot.atpg.podem_config,
        );
        total += set.len();
        hash_patterns(&mut hasher, &set);
    }
    assert_eq!(total, PATTERN_COUNT);
    assert_eq!(
        hasher.finish(),
        PATTERN_DIGEST,
        "pattern sets moved ({total} patterns)"
    );
}
