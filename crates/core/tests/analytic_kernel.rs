//! Differential tests for the analytic moment-propagation dictionary
//! kernel ([`SimKernel::Analytic`]) against the batched Monte-Carlo
//! kernel (itself pinned bit for bit to the scalar oracle).
//!
//! The analytic kernel is deliberately *not* bit-identical to the MC
//! kernels — it replaces sampling with Clark-style moment propagation —
//! so instead of the exact-equality contract of the MC oracle tests this
//! suite enforces a **bounded-divergence contract**: at the paper-scale
//! Monte-Carlo budget (`n_samples = 150`) every per-cell probability the
//! two kernels produce (the defect-free `M_crt` and every suspect
//! `E_crt` entry) must agree within `EPSILON`. The bound covers both
//! error sources at once: the analytic model error (Clark max moment
//! matching, ignored reconvergent local correlation, the ignored
//! `0.05·mean` sampling floor) and the MC sampling noise at 150 samples
//! (binomial std ≲ 0.041).
//!
//! Beyond the cell-wise bound, the suite checks the structural
//! contracts: a campaign under the analytic kernel draws **zero** chip
//! instances in the dictionary phase, never touches the on-disk store,
//! is deterministic and independent of the MC-only config knobs, reuses
//! its in-memory cache bit-identically, and lands Table-I-style success
//! rates within a few points of the MC kernel.

use sdd_core::evaluate::AccuracyReport;
use sdd_core::inject::CampaignConfig;
use sdd_core::session::ArtifactLayer;
use sdd_core::testutil::TestDir;
use sdd_core::{DictionaryConfig, ProbabilisticDictionary, SimKernel};
use sdd_netlist::generator::generate;
use sdd_netlist::profiles::BenchmarkProfile;
use sdd_netlist::{Circuit, EdgeId};
use sdd_timing::{CellLibrary, CircuitTiming, Dist, VariationModel};

/// The bounded-divergence contract at the paper's dictionary budget:
/// max per-cell `|p_analytic − p_mc|` at `n_samples = 150`. Dominated
/// by MC sampling noise (binomial std ≲ 0.041, worst of ~10³ cells ≈
/// 3σ); observed 0.104 on the two test circuits (see EXPERIMENTS.md).
const EPSILON: f64 = 0.15;

/// The same contract against a dense 4000-sample MC reference, where
/// sampling noise (std ≲ 0.008) is negligible and the bound isolates
/// the analytic *model* error: Clark max moment matching, ignored
/// reconvergent local correlation, the ignored `0.05·mean` floor.
const EPSILON_DENSE: f64 = 0.06;

/// Same circuit shapes as `batch_kernel.rs`: shallow/wide and deep with
/// flip-flop boundaries (cut to combinational).
fn circuits() -> Vec<(&'static str, Circuit)> {
    let shallow = BenchmarkProfile {
        name: "ak-shallow",
        inputs: 9,
        outputs: 7,
        dffs: 0,
        gates: 70,
        depth: 8,
    };
    let deep = BenchmarkProfile {
        name: "ak-deep",
        inputs: 6,
        outputs: 4,
        dffs: 5,
        gates: 90,
        depth: 16,
    };
    [shallow, deep]
        .into_iter()
        .map(|p| {
            let c = generate(&p.to_config(11))
                .expect("generate")
                .to_combinational()
                .expect("combinational");
            (p.name, c)
        })
        .collect()
}

fn quick_config(kernel: SimKernel, seed: u64) -> CampaignConfig {
    let mut cfg = CampaignConfig::quick(seed);
    cfg.dictionary.kernel = kernel;
    cfg
}

/// Max per-cell divergence between two dictionaries over `M_crt` and
/// every suspect signature entry. Panics if the shapes differ.
fn max_cell_divergence(a: &ProbabilisticDictionary, b: &ProbabilisticDictionary) -> f64 {
    assert_eq!(a.num_outputs(), b.num_outputs());
    assert_eq!(a.num_patterns(), b.num_patterns());
    assert_eq!(a.suspects().len(), b.suspects().len());
    let mut worst: f64 = 0.0;
    for out in 0..a.num_outputs() {
        for pat in 0..a.num_patterns() {
            worst = worst.max((a.m_crt().get(out, pat) - b.m_crt().get(out, pat)).abs());
        }
    }
    for (sa, sb) in a.suspects().iter().zip(b.suspects()) {
        assert_eq!(sa.edge(), sb.edge());
        assert_eq!(sa.reachable_outputs(), sb.reachable_outputs());
        for slot in 0..sa.reachable_outputs().len() {
            for pat in 0..a.num_patterns() {
                worst = worst.max((sa.err(slot, pat) - sb.err(slot, pat)).abs());
            }
        }
    }
    worst
}

#[test]
fn analytic_dictionary_tracks_scalar_mc_within_epsilon() {
    // The tentpole differential contract, at the paper's dictionary
    // budget: cell-wise |p_analytic − p_mc| ≤ EPSILON everywhere.
    for (name, c) in circuits() {
        let t = CircuitTiming::characterize(
            &c,
            &CellLibrary::default_025um(),
            VariationModel::new(0.04, 0.06),
        );
        let ps = sdd_atpg::PatternSet::random(&c, 5, 3);
        let suspects: Vec<EdgeId> = c.edge_ids().step_by(2).collect();
        let build = |kernel, n_samples| {
            ProbabilisticDictionary::build(
                &c,
                &t,
                &Dist::Normal {
                    mean: 0.15,
                    std: 0.05,
                },
                &ps,
                &suspects,
                0.3,
                DictionaryConfig::new()
                    .with_samples(n_samples)
                    .with_seed(0xD1FF)
                    .with_kernel(kernel),
            )
        };
        let analytic = build(SimKernel::Analytic, 150);
        let mc = build(SimKernel::Batched, 150);
        let worst = max_cell_divergence(&analytic, &mc);
        let mc_dense = build(SimKernel::Batched, 4000);
        let worst_dense = max_cell_divergence(&analytic, &mc_dense);
        println!("{name}: max |p_analytic - p_mc| = {worst:.4} @150, {worst_dense:.4} @4000");
        assert!(
            worst <= EPSILON,
            "{name}: divergence {worst:.4} exceeds epsilon {EPSILON}"
        );
        assert!(
            worst_dense <= EPSILON_DENSE,
            "{name}: divergence {worst_dense:.4} vs 4000-sample MC exceeds {EPSILON_DENSE}"
        );
    }
}

#[test]
fn analytic_dictionary_is_deterministic_and_ignores_mc_knobs() {
    // The kernel performs no keyed draws, so the MC-only config fields
    // (`n_samples`, `seed`) must not influence the result at all, and
    // two builds must agree bit-for-bit.
    let (_, c) = circuits().remove(0);
    let t = CircuitTiming::characterize(
        &c,
        &CellLibrary::default_025um(),
        VariationModel::new(0.04, 0.06),
    );
    let ps = sdd_atpg::PatternSet::random(&c, 4, 9);
    let suspects: Vec<EdgeId> = c.edge_ids().step_by(3).collect();
    let build = |n_samples, seed| {
        ProbabilisticDictionary::build(
            &c,
            &t,
            &Dist::Normal {
                mean: 0.12,
                std: 0.04,
            },
            &ps,
            &suspects,
            0.28,
            DictionaryConfig::new()
                .with_samples(n_samples)
                .with_seed(seed)
                .with_kernel(SimKernel::Analytic),
        )
    };
    let a = build(150, 0xD1FF);
    let b = build(7, 42);
    assert_eq!(a, b, "analytic dictionary depends on MC-only knobs");
}

#[test]
fn analytic_campaign_draws_zero_instances() {
    // Acceptance criterion: a full campaign under `--kernel analytic`
    // books zero MC cone evaluations and zero simulated chip samples in
    // the dictionary phase — all the work shows up on the analytic
    // counters instead.
    for (name, c) in circuits() {
        let report = ArtifactLayer::new()
            .session("")
            .run_campaign_on(&c, &quick_config(SimKernel::Analytic, 23))
            .expect("campaign runs");
        assert!(report.trials > 0, "{name}: campaign diagnosed nothing");
        let m = &report.metrics;
        // `samples_simulated` stays nonzero: the clock-sweep STA phase
        // legitimately still draws tested-delay samples. The dictionary
        // phase draws are exactly what `cone_evals` / `kernel_nanos`
        // count, and those must read zero.
        assert_eq!(m.cone_evals, 0, "{name}: MC cone evals under analytic");
        assert_eq!(m.kernel_nanos, 0, "{name}: MC kernel time under analytic");
        assert!(m.analytic_evals > 0, "{name}: no cone propagations booked");
        assert!(m.analytic_nanos > 0, "{name}: no analytic time booked");
        assert!(
            m.analytic_nanos <= m.dictionary_nanos,
            "{name}: analytic time {} exceeds dictionary phase {}",
            m.analytic_nanos,
            m.dictionary_nanos
        );
    }
}

#[test]
fn analytic_campaigns_reuse_the_memory_cache_bit_identically() {
    // Second run over the same session must hit the in-memory analytic
    // bank (no rebuilds) and reproduce the report exactly.
    let (_, c) = circuits().remove(0);
    let session = ArtifactLayer::new().session("");
    let run = || -> AccuracyReport {
        session
            .run_campaign_on(&c, &quick_config(SimKernel::Analytic, 23))
            .expect("campaign runs")
    };
    let cold = run();
    assert!(
        cold.metrics.dict_cache_misses > 0,
        "cold run built no banks"
    );
    let warm = run();
    assert_eq!(cold, warm, "warm analytic campaign changed the report");
    assert_eq!(
        warm.metrics.dict_cache_misses, 0,
        "warm run rebuilt analytic banks"
    );
    assert!(warm.metrics.dict_cache_hits > 0, "warm run never hit");
}

#[test]
fn analytic_kernel_never_touches_the_store() {
    // The on-disk checkpoint format is keyed by a kernel-blind StoreKey
    // shared with the MC kernels, so analytic grids must bypass it
    // entirely: no flushes, no loads, no dictionary checkpoints on disk
    // — while the layer's pattern store keeps working as usual.
    let (_, c) = circuits().remove(0);
    let dir = TestDir::new("analytic-kernel-no-store");
    let session = ArtifactLayer::builder()
        .store_dir(dir.path())
        .build()
        .expect("layer builds")
        .session("");
    let report = session
        .run_campaign_on(&c, &quick_config(SimKernel::Analytic, 41))
        .expect("campaign runs");
    assert_eq!(report.metrics.store_hits, 0, "analytic leg loaded a bank");
    assert_eq!(
        report.metrics.store_misses, 0,
        "analytic leg probed the store"
    );
    assert_eq!(
        report.metrics.store_flushes, 0,
        "analytic leg flushed a bank"
    );
    let store = session.layer().store().expect("store attached");
    assert_eq!(
        store.num_checkpoints(),
        0,
        "analytic leg left dictionary checkpoints on disk"
    );
}

#[test]
fn analytic_success_rates_track_monte_carlo() {
    // Table-I-style cross-check: the same campaign under the analytic
    // and the batched MC kernel must land within a few percentage
    // points on every (K, error function) cell. The quick config runs 6
    // chips, so one chip flipping is ±16.7 points — allow two.
    let (name, c) = circuits().remove(1);
    let run = |kernel| -> AccuracyReport {
        ArtifactLayer::new()
            .session("")
            .run_campaign_on(&c, &quick_config(kernel, 23))
            .expect("campaign runs")
    };
    let analytic = run(SimKernel::Analytic);
    let mc = run(SimKernel::Batched);
    assert_eq!(analytic.trials, mc.trials, "{name}: trial counts differ");
    for k_ix in 0..analytic.k_values.len() {
        for f_ix in 0..analytic.functions.len() {
            let a = analytic.success_percent(k_ix, f_ix);
            let m = mc.success_percent(k_ix, f_ix);
            assert!(
                (a - m).abs() <= 200.0 / analytic.trials as f64 + 1e-9,
                "{name}: K={} f={:?}: analytic {a:.1}% vs MC {m:.1}%",
                analytic.k_values[k_ix],
                analytic.functions[f_ix],
            );
        }
    }
}
