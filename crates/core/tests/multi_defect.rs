//! Integration tests for the multi-defect campaign against the
//! single-defect Table-I campaign.
//!
//! With `defects_per_chip = 1` the multi-defect campaign is the same
//! experiment as the single-defect campaign — one segment defect per
//! chip, single-defect dictionary, any-hit scoring degenerating to the
//! plain top-K hit — but the two paths deliberately use different seed
//! keying (chip draws, defect draws and redraw schedules differ), so
//! the comparison is *statistical*, not bit-exact: the success rates
//! must agree within binomial noise at the campaign size.

use sdd_core::inject::CampaignConfig;
use sdd_core::multi_defect::run_multi_defect_campaign;
use sdd_core::session::ArtifactLayer;
use sdd_netlist::generator::generate;
use sdd_netlist::profiles;
use sdd_netlist::Circuit;

fn small() -> Circuit {
    generate(&profiles::S27.to_config(3))
        .unwrap()
        .to_combinational()
        .unwrap()
}

/// A quick config with enough chips for rate comparison: 30 trials puts
/// the std of a per-cell rate difference at ≤ 13 points.
fn config(seed: u64) -> CampaignConfig {
    let mut cfg = CampaignConfig::quick(seed);
    cfg.n_instances = 30;
    cfg
}

/// The pre-declared seeds of the rate comparison. One seed's mean gap
/// is noisy (it spans about −6…+20 points over these seeds), so the
/// bias bound applies to the gap pooled over all of them.
const SEEDS: std::ops::RangeInclusive<u64> = 5..=14;

#[test]
fn single_defect_multi_campaign_matches_single_defect_rates() {
    let c = small();
    let mut gaps = Vec::new();
    for seed in SEEDS {
        let cfg = config(seed);
        let multi = run_multi_defect_campaign(&c, &cfg, 1).expect("multi campaign runs");
        let single = ArtifactLayer::new()
            .session("")
            .run_campaign_on(&c, &cfg)
            .expect("single campaign runs");

        // Same experiment shape.
        assert_eq!(multi.trials, cfg.n_instances);
        assert_eq!(single.trials, cfg.n_instances);
        assert_eq!(multi.k_values, single.k_values);
        assert_eq!(multi.functions, single.functions);

        // Statistical agreement on every seed: every (K, function) cell
        // within 4σ of the binomial noise on a rate difference at 30
        // trials (σ ≈ 13 points → 52).
        let mut sum_diff = 0.0;
        let mut cells = 0.0;
        for k_ix in 0..multi.k_values.len() {
            for f_ix in 0..multi.functions.len() {
                let m = multi.any_hit_percent(k_ix, f_ix);
                let s = single.success_percent(k_ix, f_ix);
                assert!(
                    (m - s).abs() <= 52.0,
                    "seed {seed} K={} f={:?}: multi(m=1) {m:.0}% vs single {s:.0}% \
                     disagree beyond noise",
                    multi.k_values[k_ix],
                    multi.functions[f_ix],
                );
                sum_diff += m - s;
                cells += 1.0;
            }
        }
        gaps.push(sum_diff / cells);

        // Any-hit rates are monotone in K, like the single-defect rates.
        for f_ix in 0..multi.functions.len() {
            let mut last = 0;
            for k_ix in 0..multi.k_values.len() {
                assert!(multi.any_hit[k_ix][f_ix] >= last, "non-monotone in K");
                last = multi.any_hit[k_ix][f_ix];
            }
        }
    }
    // The grand mean over every seed and cell — where the noise
    // averages down — within 20 points.
    let pooled = gaps.iter().sum::<f64>() / gaps.len() as f64;
    let per_seed: Vec<String> = SEEDS
        .zip(&gaps)
        .map(|(s, g)| format!("{s}:{g:+.1}"))
        .collect();
    println!(
        "mean rate gap per seed {}; pooled {pooled:+.1}",
        per_seed.join(" ")
    );
    assert!(
        pooled.abs() <= 20.0,
        "pooled mean rate gap {pooled:.1} points over seeds {SEEDS:?} (per seed {per_seed:?}): \
         m=1 campaign is biased vs single-defect campaign",
    );
}

#[test]
fn double_defect_campaign_smoke() {
    // m = 2 rides the same machinery: it must run to completion, score
    // every chip, stay deterministic, and keep monotonicity in K.
    let c = small();
    let mut cfg = config(5);
    cfg.n_instances = 8;
    let a = run_multi_defect_campaign(&c, &cfg, 2).expect("m=2 campaign runs");
    assert_eq!(a.defects_per_chip, 2);
    assert_eq!(a.trials, 8);
    let b = run_multi_defect_campaign(&c, &cfg, 2).expect("m=2 campaign reruns");
    assert_eq!(a, b, "m=2 campaign is not deterministic");
    for f_ix in 0..a.functions.len() {
        let mut last = 0;
        for k_ix in 0..a.k_values.len() {
            assert!(a.any_hit[k_ix][f_ix] >= last, "non-monotone in K");
            last = a.any_hit[k_ix][f_ix];
        }
    }
}
