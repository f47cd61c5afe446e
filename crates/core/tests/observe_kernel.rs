//! Differential tests for the batched pattern-lane observe path: on
//! every input an observation can see — healthy instances, defect-shifted
//! instances, NaN/Inf-poisoned instances, both capture models — the
//! batched kernel must produce behaviours bit-identical to the scalar
//! per-pattern oracle. The campaign-level halves (tested-delay samples
//! and the clock-sweep ladder against a scalar replay) are unit tests
//! of `sdd_core::inject` (`observe_oracle_*`), because their scalar
//! oracles are test-only code.

use sdd_core::inject::CampaignConfig;
use sdd_core::{BehaviorMatrix, CaptureModel, ObservedBehavior};
use sdd_netlist::generator::generate;
use sdd_netlist::profiles::BenchmarkProfile;
use sdd_netlist::Circuit;
use sdd_timing::{CellLibrary, CircuitTiming, TimingInstance, VariationModel};

/// Two differently-shaped generated circuits, as in `batch_kernel.rs`:
/// a shallow wide one and a deeper one with flip-flop boundaries
/// (converted to combinational).
fn circuits() -> Vec<(&'static str, Circuit)> {
    let shallow = BenchmarkProfile {
        name: "ok-shallow",
        inputs: 9,
        outputs: 7,
        dffs: 0,
        gates: 70,
        depth: 8,
    };
    let deep = BenchmarkProfile {
        name: "ok-deep",
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

fn timing(c: &Circuit) -> CircuitTiming {
    CircuitTiming::characterize(
        c,
        &CellLibrary::default_025um(),
        VariationModel::new(0.04, 0.06),
    )
}

const CAPTURES: [CaptureModel; 2] = [CaptureModel::TransitionArrival, CaptureModel::Waveform];

#[test]
fn observations_are_bit_identical_across_kernels() {
    for (name, c) in circuits() {
        let t = timing(&c);
        let ps = sdd_atpg::PatternSet::random(&c, 9, 3);
        for chip in 0..4u64 {
            let instance = t.sample_instance_indexed(0xB0B, chip);
            for capture in CAPTURES {
                // Clocks from deep in the fail region to past the slowest
                // arrival, so both all-fail and all-pass rows occur.
                for clk in [0.05, 0.4, 0.8, 1.6, 1e6] {
                    let batched = BehaviorMatrix::observe_with(&c, &ps, &instance, clk, capture);
                    let scalar =
                        BehaviorMatrix::observe_with_scalar(&c, &ps, &instance, clk, capture);
                    assert_eq!(
                        batched, scalar,
                        "{name}: chip {chip} {capture:?} clk {clk} differs"
                    );
                }
            }
        }
    }
}

#[test]
fn amortized_capture_matches_fresh_observations() {
    // The sweep ladder re-thresholds one ObservedBehavior capture; every
    // re-threshold must equal an observation taken from scratch.
    for (name, c) in circuits() {
        let t = timing(&c);
        let ps = sdd_atpg::PatternSet::random(&c, 6, 7);
        let instance = t.sample_instance_indexed(0xCAFE, 0);
        for capture in CAPTURES {
            let observed = ObservedBehavior::capture(&c, &ps, &instance, capture);
            assert_eq!(observed.num_patterns(), ps.len());
            for clk in [0.1, 0.5, 0.9, 2.0] {
                let fresh = BehaviorMatrix::observe_with(&c, &ps, &instance, clk, capture);
                assert_eq!(
                    observed.matrix_at(clk),
                    fresh,
                    "{name}: {capture:?} clk {clk}: re-threshold differs from fresh capture"
                );
            }
        }
    }
}

/// Poisons one arc of a sampled instance with `bad` and returns it.
fn poisoned(c: &Circuit, t: &CircuitTiming, chip: u64, edge_ix: usize, bad: f64) -> TimingInstance {
    let mut instance = t.sample_instance_indexed(0xDEAD, chip);
    let edge = c.edge_ids().nth(edge_ix).expect("edge exists");
    instance.set_delay(edge, bad);
    instance
}

#[test]
fn poisoned_instances_fail_closed_and_agree_across_kernels() {
    for (name, c) in circuits() {
        let t = timing(&c);
        let ps = sdd_atpg::PatternSet::random(&c, 9, 5);
        let mut fail_closed_fired = false;
        for (edge_ix, bad) in [(1, f64::NAN), (3, f64::INFINITY), (5, f64::NEG_INFINITY)] {
            let instance = poisoned(&c, &t, 0, edge_ix, bad);
            for capture in CAPTURES {
                // A clock beyond every finite arrival: any recorded fail
                // can only come from the fail-closed poison path.
                let batched = BehaviorMatrix::observe_with(&c, &ps, &instance, 1e9, capture);
                let scalar = BehaviorMatrix::observe_with_scalar(&c, &ps, &instance, 1e9, capture);
                assert_eq!(
                    batched, scalar,
                    "{name}: {capture:?} poisoned ({bad}) kernels disagree"
                );
                fail_closed_fired |= !batched.all_pass();
            }
        }
        // At least one poison must have reached an output and registered
        // as a fail — otherwise the kernel agreement above is vacuous.
        assert!(
            fail_closed_fired,
            "{name}: no poisoned arc ever produced a fail-closed observation"
        );
    }
}

#[test]
fn campaign_config_with_retired_observe_field_still_parses() {
    // Exports written while campaigns could select the observe kernel
    // carry an `"observe"` field; it is ignored on the way back in, and
    // the config is otherwise unchanged.
    let config = CampaignConfig::quick(23);
    let json = serde_json::to_string(&config).unwrap();
    assert!(!json.contains("\"observe\""), "{json}");
    let legacy = json.replacen('{', r#"{"observe": "Scalar", "#, 1);
    let parsed: CampaignConfig = serde_json::from_str(&legacy).unwrap();
    assert_eq!(parsed, config);
}
