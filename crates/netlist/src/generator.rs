//! Seeded synthetic benchmark generator.
//!
//! Produces sequential circuits with prescribed primary input / output /
//! flip-flop / gate counts and approximate combinational depth. Generation
//! is level-structured: gates are distributed over `depth` levels, each gate
//! draws at least one fanin from the immediately preceding level (which
//! fixes its level) and the rest from earlier levels with a recency bias,
//! which produces the reconvergent fanout that makes diagnosis non-trivial.
//!
//! The generator is fully deterministic for a given [`GeneratorConfig`]
//! (including across platforms, thanks to `ChaCha8Rng`).

use crate::{Circuit, CircuitBuilder, GateKind, NetlistError, NodeId};
use rand::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::fmt::Write;

/// Parameters of a synthetic circuit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneratorConfig {
    /// Circuit name.
    pub name: String,
    /// Number of primary inputs (≥ 1).
    pub inputs: usize,
    /// Number of primary outputs (≥ 1).
    pub outputs: usize,
    /// Number of D flip-flops (may be 0 for a combinational circuit).
    pub dffs: usize,
    /// Number of logic gates (≥ outputs).
    pub gates: usize,
    /// Target combinational depth (≥ 2).
    pub depth: usize,
    /// RNG seed; equal seeds produce identical circuits.
    pub seed: u64,
}

impl GeneratorConfig {
    /// A small default configuration, convenient for tests.
    pub fn small(name: impl Into<String>, seed: u64) -> Self {
        GeneratorConfig {
            name: name.into(),
            inputs: 6,
            outputs: 4,
            dffs: 4,
            gates: 60,
            depth: 8,
            seed,
        }
    }
}

/// Generates a circuit from the configuration.
///
/// # Errors
///
/// Returns an error only for degenerate configurations (zero inputs,
/// outputs or gates, or `depth < 2`), surfaced as
/// [`NetlistError::NoOutputs`]-style builder failures or
/// [`NetlistError::Parse`] with a description.
///
/// # Example
///
/// ```
/// use sdd_netlist::generator::{generate, GeneratorConfig};
///
/// # fn main() -> Result<(), sdd_netlist::NetlistError> {
/// let c = generate(&GeneratorConfig::small("demo", 42))?;
/// assert_eq!(c.primary_inputs().len(), 6);
/// assert_eq!(c.primary_outputs().len(), 4);
/// assert_eq!(c.num_gates(), 60);
/// # Ok(())
/// # }
/// ```
pub fn generate(config: &GeneratorConfig) -> Result<Circuit, NetlistError> {
    if config.inputs == 0
        || config.outputs == 0
        || config.gates == 0
        || config.depth < 2
        || config.outputs > config.gates
    {
        return Err(NetlistError::Parse {
            line: 0,
            message: format!(
                "degenerate generator config: {} inputs, {} outputs, {} gates, depth {} \
                 (outputs must not exceed gates)",
                config.inputs, config.outputs, config.gates, config.depth
            ),
        });
    }
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
    let mut b = CircuitBuilder::new(&config.name);

    // Level 0: primary inputs and flip-flop outputs.
    let mut levels: Vec<Vec<NodeId>> = Vec::new();
    let mut level0 = Vec::new();
    for i in 0..config.inputs {
        level0.push(b.input(&format!("pi{i}")));
    }
    let mut dffs = Vec::new();
    for i in 0..config.dffs {
        let q = b.dff_placeholder(&format!("ff{i}"));
        level0.push(q);
        dffs.push(q);
    }
    levels.push(level0);

    // Distribute gates across levels 1..=depth, at least one per level.
    let n_levels = config.depth.min(config.gates);
    let mut per_level = vec![config.gates / n_levels; n_levels];
    for slot in per_level.iter_mut().take(config.gates % n_levels) {
        *slot += 1;
    }

    // Signals that do not yet drive anything, per level.
    let mut dangling: Vec<Vec<NodeId>> = vec![levels[0].clone()];
    let mut gate_ix = 0usize;
    // Reused per gate: the builder copies what it keeps.
    let (mut fanins, mut name) = (Vec::with_capacity(4), String::new());
    for (l, &count) in per_level.iter().enumerate() {
        let level = l + 1;
        let mut this_level = Vec::with_capacity(count);
        let mut this_dangling = Vec::with_capacity(count);
        for _ in 0..count {
            let fanin_count = sample_fanin_count(&mut rng);
            let kind = sample_kind(&mut rng, fanin_count);
            fanins.clear();
            // First fanin comes from the previous level, preferring a
            // dangling signal so that almost every gate gets fanout.
            let first = take_fanin(&mut rng, &mut dangling[level - 1], &levels[level - 1]);
            fanins.push(first);
            // Remaining fanins from any earlier level, recency-biased.
            for _ in 1..fanin_count {
                let src_level = sample_source_level(&mut rng, level);
                let pick = take_fanin(&mut rng, &mut dangling[src_level], &levels[src_level]);
                if !fanins.contains(&pick) {
                    fanins.push(pick);
                }
            }
            name.clear();
            write!(name, "g{gate_ix}").expect("writing to a String cannot fail");
            let id = b.gate(&name, kind, &fanins)?;
            gate_ix += 1;
            this_level.push(id);
            this_dangling.push(id);
        }
        levels.push(this_level);
        dangling.push(this_dangling);
    }

    // Sinks: primary outputs and flip-flop data inputs, drawn from dangling
    // signals first (deepest level first), then random gates.
    let mut sink_pool: Vec<NodeId> = dangling
        .iter()
        .skip(1) // level-0 dangling sources stay unconnected inputs
        .rev()
        .flatten()
        .copied()
        .collect();
    let all_gates: Vec<NodeId> = levels.iter().skip(1).flatten().copied().collect();
    let take_sink = |rng: &mut ChaCha8Rng, pool: &mut Vec<NodeId>| -> NodeId {
        if let Some(id) = pool.pop() {
            id
        } else {
            *all_gates.choose(rng).expect("at least one gate")
        }
    };
    // Primary outputs must be distinct nodes (the builder deduplicates
    // marks, which would silently shrink the output count).
    let mut chosen_outputs: Vec<NodeId> = Vec::with_capacity(config.outputs);
    for _ in 0..config.outputs.min(all_gates.len()) {
        let mut id = take_sink(&mut rng, &mut sink_pool);
        let mut guard = 0;
        while chosen_outputs.contains(&id) && guard < 10 * all_gates.len() {
            id = take_sink(&mut rng, &mut sink_pool);
            guard += 1;
        }
        if chosen_outputs.contains(&id) {
            // Fewer distinct gates than requested outputs: pick any
            // unused gate deterministically.
            if let Some(&fresh) = all_gates.iter().find(|g| !chosen_outputs.contains(g)) {
                id = fresh;
            } else {
                break;
            }
        }
        chosen_outputs.push(id);
        b.output(id);
    }
    for &q in &dffs {
        let id = take_sink(&mut rng, &mut sink_pool);
        b.set_dff_input(q, id)?;
    }
    // Any remaining dangling gates become extra observation points only if
    // no primary output was assigned at all (cannot happen given the checks
    // above); otherwise they model redundant logic, which real benchmarks
    // also contain.
    b.finish()
}

/// Generates the combinational core of a profiled benchmark in one call.
///
/// Equivalent to `generate(&profile.to_config(seed))?.to_combinational()`.
///
/// # Errors
///
/// Propagates generator and scan-cut errors.
pub fn generate_combinational(
    profile: &crate::profiles::BenchmarkProfile,
    seed: u64,
) -> Result<Circuit, NetlistError> {
    generate(&profile.to_config(seed))?.to_combinational()
}

fn sample_fanin_count(rng: &mut ChaCha8Rng) -> usize {
    // Empirical ISCAS-ish mix: mostly 2-input, some 3/4, some inverters.
    let r: f64 = rng.gen();
    if r < 0.20 {
        1
    } else if r < 0.80 {
        2
    } else if r < 0.94 {
        3
    } else {
        4
    }
}

fn sample_kind(rng: &mut ChaCha8Rng, fanin_count: usize) -> GateKind {
    if fanin_count == 1 {
        return if rng.gen::<f64>() < 0.75 {
            GateKind::Not
        } else {
            GateKind::Buf
        };
    }
    let r: f64 = rng.gen();
    if r < 0.30 {
        GateKind::Nand
    } else if r < 0.55 {
        GateKind::And
    } else if r < 0.72 {
        GateKind::Nor
    } else if r < 0.90 {
        GateKind::Or
    } else if r < 0.96 {
        GateKind::Xor
    } else {
        GateKind::Xnor
    }
}

fn sample_source_level(rng: &mut ChaCha8Rng, gate_level: usize) -> usize {
    // Real netlists tie a large share of side inputs directly to primary
    // inputs / flip-flop outputs (level 0); the rest come from recent
    // levels with a geometric bias. The level-0 share keeps side inputs
    // independently justifiable, which is what makes path sensitization
    // of real circuits tractable.
    if rng.gen::<f64>() < 0.30 {
        return 0;
    }
    let mut back = 1usize;
    while back < gate_level && rng.gen::<f64>() < 0.35 {
        back += 1;
    }
    gate_level - back
}

fn take_fanin(rng: &mut ChaCha8Rng, dangling: &mut Vec<NodeId>, level: &[NodeId]) -> NodeId {
    if !dangling.is_empty() && rng.gen::<f64>() < 0.8 {
        let ix = rng.gen_range(0..dangling.len());
        dangling.swap_remove(ix)
    } else {
        *level.choose(rng).expect("level cannot be empty")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profiles;

    #[test]
    fn deterministic_for_equal_seeds() {
        let cfg = GeneratorConfig::small("d", 1);
        let c1 = generate(&cfg).unwrap();
        let c2 = generate(&cfg).unwrap();
        assert_eq!(c1.num_nodes(), c2.num_nodes());
        assert_eq!(c1.num_edges(), c2.num_edges());
        for id in c1.node_ids() {
            assert_eq!(c1.node(id).kind(), c2.node(id).kind());
            assert_eq!(c1.node(id).fanins(), c2.node(id).fanins());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let c1 = generate(&GeneratorConfig::small("d", 1)).unwrap();
        let c2 = generate(&GeneratorConfig::small("d", 2)).unwrap();
        let same = c1
            .node_ids()
            .all(|id| c1.node(id).fanins() == c2.node(id).fanins());
        assert!(!same, "seeds 1 and 2 produced identical circuits");
    }

    #[test]
    fn counts_match_config() {
        let cfg = GeneratorConfig {
            name: "sized".into(),
            inputs: 10,
            outputs: 7,
            dffs: 5,
            gates: 120,
            depth: 12,
            seed: 3,
        };
        let c = generate(&cfg).unwrap();
        assert_eq!(c.primary_inputs().len(), 10);
        assert_eq!(c.primary_outputs().len(), 7);
        assert_eq!(c.num_dffs(), 5);
        assert_eq!(c.num_gates(), 120);
    }

    #[test]
    fn depth_is_close_to_target() {
        let cfg = GeneratorConfig {
            name: "deep".into(),
            inputs: 8,
            outputs: 4,
            dffs: 0,
            gates: 200,
            depth: 20,
            seed: 5,
        };
        let c = generate(&cfg).unwrap();
        assert!(c.depth() >= 18 && c.depth() <= 22, "depth {}", c.depth());
    }

    #[test]
    fn scan_cut_works_on_generated() {
        let c = generate(&GeneratorConfig::small("s", 9)).unwrap();
        let comb = c.to_combinational().unwrap();
        assert!(comb.is_combinational());
        assert_eq!(comb.primary_inputs().len(), 6 + 4);
        assert!(comb.primary_outputs().len() >= 4);
    }

    #[test]
    fn most_gates_have_fanout() {
        let cfg = GeneratorConfig {
            name: "fo".into(),
            inputs: 10,
            outputs: 8,
            dffs: 6,
            gates: 300,
            depth: 15,
            seed: 11,
        };
        let c = generate(&cfg).unwrap();
        let observed: std::collections::HashSet<_> = c.primary_outputs().iter().copied().collect();
        let dangling = c
            .node_ids()
            .filter(|&id| {
                c.node(id).kind().is_logic()
                    && c.fanout_edges(id).is_empty()
                    && !observed.contains(&id)
            })
            .count();
        assert!(
            dangling * 20 <= c.num_gates(),
            "{dangling} of {} gates dangling",
            c.num_gates()
        );
    }

    #[test]
    fn profile_generation() {
        let c = generate_combinational(&profiles::S27, 1).unwrap();
        assert!(c.is_combinational());
        assert_eq!(c.primary_inputs().len(), 4 + 3);
    }

    #[test]
    fn table1_smallest_profile_generates() {
        let p = profiles::by_name("s1196").unwrap();
        let c = generate(&p.to_config(0)).unwrap();
        assert_eq!(c.num_gates(), 529);
        assert_eq!(c.primary_outputs().len(), 14);
        assert_eq!(c.num_dffs(), 18);
        let comb = c.to_combinational().unwrap();
        assert_eq!(comb.primary_inputs().len(), 14 + 18);
    }

    #[test]
    fn degenerate_config_rejected() {
        let mut cfg = GeneratorConfig::small("bad", 0);
        cfg.outputs = 0;
        assert!(generate(&cfg).is_err());
    }
}
