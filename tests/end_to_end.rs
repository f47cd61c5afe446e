//! End-to-end integration tests: the full diagnosis pipeline across all
//! four crates, on small fixtures where the expected outcome is known.

use sdd::diagnosis::defect::InjectedDefect;
use sdd::diagnosis::inject::{patterns_through_site, tested_delay_samples};
use sdd::diagnosis::session::Design;
use sdd::prelude::*;

fn fixture() -> (sdd::netlist::Circuit, CircuitTiming, CellLibrary) {
    let circuit = generate(&GeneratorConfig {
        name: "e2e".into(),
        inputs: 10,
        outputs: 6,
        dffs: 4,
        gates: 150,
        depth: 10,
        seed: 5,
    })
    .expect("generates")
    .to_combinational()
    .expect("scan cut");
    let library = CellLibrary::default_025um();
    let timing = CircuitTiming::characterize(&circuit, &library, VariationModel::default());
    (circuit, timing, library)
}

#[test]
fn full_pipeline_produces_consistent_rankings() {
    let (circuit, _, _) = fixture();
    let design = Design::new(circuit, VariationModel::default());
    let session = ArtifactLayer::new().session("");
    let config = CampaignConfig::quick(3);
    let mut any = false;
    for chip in 0..4 {
        let Some(outcome) = session.diagnose_instance(&design, &config, chip).unwrap() else {
            continue;
        };
        if outcome.rankings.is_empty() {
            continue;
        }
        any = true;
        assert_eq!(outcome.rankings.len(), ErrorFunction::EXTENDED.len());
        // Every ranking covers the same suspect set.
        let n = outcome.rankings[0].len();
        assert_eq!(outcome.n_suspects, n);
        for ranking in &outcome.rankings {
            assert_eq!(ranking.len(), n);
        }
        assert!(outcome.n_patterns > 0);
        assert!(outcome.delta > 0.0);
    }
    assert!(any, "no chip produced a diagnosable failure");
}

#[test]
fn big_defect_on_isolated_cone_is_pinned_down() {
    // Build a circuit with a private cone: defect there must rank high.
    let mut b = sdd::netlist::CircuitBuilder::new("pin");
    let a = b.input("a");
    let c = b.input("c");
    use sdd::netlist::GateKind;
    let g1 = b.gate("g1", GateKind::Not, &[a]).unwrap();
    let g2 = b.gate("g2", GateKind::Not, &[g1]).unwrap();
    let g3 = b.gate("g3", GateKind::Buf, &[g2]).unwrap();
    let h1 = b.gate("h1", GateKind::Not, &[c]).unwrap();
    b.output(g3);
    b.output(h1);
    let circuit = b.finish().unwrap();
    let library = CellLibrary::default_025um();
    let timing = CircuitTiming::characterize(&circuit, &library, VariationModel::new(0.03, 0.04));

    // Patterns: rise both chains.
    let patterns: sdd::atpg::PatternSet = [
        sdd::atpg::TestPattern::new(vec![false, false], vec![true, true]),
        sdd::atpg::TestPattern::new(vec![true, true], vec![false, false]),
    ]
    .into_iter()
    .collect();
    let defect_edge = circuit.node(circuit.find("g2").unwrap()).fanin_edges()[0];
    let defect = InjectedDefect {
        edge: defect_edge,
        delta: 0.5,
    };
    let chip = timing.sample_instance_indexed(1, 0);
    let tested = tested_delay_samples(&circuit, &timing, &patterns, 200, 1);
    let clk = tested.quantile(0.99) * 1.02; // defect-free passes
    let behavior = BehaviorMatrix::observe(&circuit, &patterns, &defect.apply(&chip), clk);
    assert!(!behavior.all_pass(), "0.5 ns defect must be visible");

    let diagnoser = Diagnoser::new(
        &circuit,
        &timing,
        &patterns,
        sdd::timing::Dist::defect_size(0.5),
        DiagnoserConfig::default(),
    );
    for (function, ranking) in diagnoser.diagnose_all(&behavior).unwrap() {
        // Suspects are exactly the arcs of the failing chain; the true
        // defect is among them.
        assert!(
            ranking.iter().any(|r| r.edge == defect_edge),
            "{}: defect not in suspects",
            function.name()
        );
        // Nothing from the passing chain (through h1) may appear.
        let h1 = circuit.find("h1").unwrap();
        assert!(
            ranking.iter().all(|r| circuit.edge(r.edge).to() != h1),
            "{}: passing-chain arc accused",
            function.name()
        );
    }
}

#[test]
fn campaign_on_profile_is_deterministic_and_monotone() {
    let config = CampaignConfig::quick(9);
    let session = ArtifactLayer::new().session("");
    let r1 = session.run_campaign(&profiles::S27, &config).unwrap();
    let r2 = session.run_campaign(&profiles::S27, &config).unwrap();
    assert_eq!(r1, r2, "campaigns must be reproducible");
    for f_ix in 0..r1.functions.len() {
        let mut last = -1.0;
        for k_ix in 0..r1.k_values.len() {
            let rate = r1.success_percent(k_ix, f_ix);
            assert!(rate >= last);
            last = rate;
        }
    }
}

#[test]
fn patterns_actually_exercise_the_site() {
    let (circuit, timing, _) = fixture();
    let mut exercised = 0;
    let mut produced = 0;
    for e in circuit.edge_ids().step_by(11).take(10) {
        let patterns = patterns_through_site(&circuit, &timing, e, 4, 10, 3);
        produced += patterns.len();
        let edge = circuit.edge(e);
        for p in patterns.iter() {
            let transitions = sdd::netlist::logic::simulate_pair(&circuit, &p.v1, &p.v2);
            if transitions[edge.from().index()].is_event() {
                exercised += 1;
            }
        }
    }
    assert!(produced > 0, "no patterns at all");
    // Transition tests guarantee the driver switches; path tests force
    // every on-path node to switch, including the driver.
    assert!(
        exercised * 10 >= produced * 9,
        "only {exercised} of {produced} patterns launch through the site"
    );
}

#[test]
fn behavior_capture_models_agree_on_hazard_free_chains() {
    // A pure chain has no reconvergence => waveform and arrival capture
    // agree exactly.
    let mut b = sdd::netlist::CircuitBuilder::new("chain");
    use sdd::netlist::GateKind;
    let a = b.input("a");
    let mut prev = a;
    for i in 0..6 {
        prev = b.gate(&format!("n{i}"), GateKind::Not, &[prev]).unwrap();
    }
    b.output(prev);
    let circuit = b.finish().unwrap();
    let library = CellLibrary::default_025um();
    let timing = CircuitTiming::characterize(&circuit, &library, VariationModel::default());
    let patterns: sdd::atpg::PatternSet = [sdd::atpg::TestPattern::new(vec![false], vec![true])]
        .into_iter()
        .collect();
    for i in 0..20 {
        let chip = timing.sample_instance_indexed(4, i);
        for clk in [0.2, 0.4, 0.6, 0.8] {
            let wave = BehaviorMatrix::observe_with(
                &circuit,
                &patterns,
                &chip,
                clk,
                sdd::diagnosis::CaptureModel::Waveform,
            );
            let arr = BehaviorMatrix::observe_with(
                &circuit,
                &patterns,
                &chip,
                clk,
                sdd::diagnosis::CaptureModel::TransitionArrival,
            );
            assert_eq!(wave, arr, "instance {i} clk {clk}");
        }
    }
}
