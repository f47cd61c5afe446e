//! Traversal-layer differential tests: the CSR adjacency is checked
//! against a naive edge-list reference, and the cone/reachability
//! helpers are pinned deterministic and duplicate-free on reconvergent
//! graphs.

use sdd_netlist::generator::{generate, generate_combinational, GeneratorConfig};
use sdd_netlist::{bench_format, profiles};
use sdd_netlist::{Circuit, CircuitBuilder, EdgeId, GateKind, NodeId, EXTERNAL};
use std::collections::HashMap;

/// A diamond with two reconvergence points and a side branch:
/// `a` fans out to `g1`/`g2`, which reconverge at `y`; `g2` also feeds
/// `z` and `w = AND(y, z)` reconverges a second time.
fn doubly_reconvergent() -> Circuit {
    let mut b = CircuitBuilder::new("rc2");
    let a = b.input("a");
    let c = b.input("c");
    let g1 = b.gate("g1", GateKind::Buf, &[a]).unwrap();
    let g2 = b.gate("g2", GateKind::Nand, &[a, c]).unwrap();
    let y = b.gate("y", GateKind::And, &[g1, g2]).unwrap();
    let z = b.gate("z", GateKind::Not, &[g2]).unwrap();
    let w = b.gate("w", GateKind::And, &[y, z]).unwrap();
    b.output(y);
    b.output(z);
    b.output(w);
    b.finish().unwrap()
}

fn suite() -> Vec<Circuit> {
    let mut circuits = vec![doubly_reconvergent()];
    for seed in 0..3u64 {
        circuits.push(
            generate(&GeneratorConfig::small("trav", seed))
                .unwrap()
                .to_combinational()
                .unwrap(),
        );
    }
    circuits
}

/// The CSR fanin/fanout rows must agree with a naive adjacency built by
/// scanning the flat edge list: fanins in pin order with consecutive
/// edge ids, fanouts in ascending edge-id order, and `edge()` round-trips.
#[test]
fn csr_adjacency_matches_naive_edge_list_reference() {
    for c in suite() {
        let mut fanout: HashMap<NodeId, Vec<EdgeId>> = HashMap::new();
        let mut fanin: HashMap<NodeId, Vec<(NodeId, EdgeId)>> = HashMap::new();
        for e in c.edge_ids() {
            let edge = c.edge(e);
            fanout.entry(edge.from()).or_default().push(e);
            fanin.entry(edge.to()).or_default().push((edge.from(), e));
        }
        for id in c.node_ids() {
            // Fanout rows: same set, ascending edge id (the reference is
            // built by an ascending edge-id scan, so it is already sorted).
            let expected = fanout.remove(&id).unwrap_or_default();
            assert_eq!(c.fanout_edges(id), &expected[..], "fanout of {id}");

            // Fanin rows: pin order, edge ids consecutive per sink.
            let node = c.node(id);
            let expected = fanin.remove(&id).unwrap_or_default();
            let got: Vec<(NodeId, EdgeId)> = node
                .fanins()
                .iter()
                .copied()
                .zip(node.fanin_edges().iter().copied())
                .collect();
            assert_eq!(got, expected, "fanins of {id}");
            for pair in node.fanin_edges().windows(2) {
                assert_eq!(
                    pair[1].index(),
                    pair[0].index() + 1,
                    "edge ids must be consecutive per sink"
                );
            }
            for (&from, &e) in node.fanins().iter().zip(node.fanin_edges()) {
                assert_eq!(c.edge(e).from(), from);
                assert_eq!(c.edge(e).to(), id);
            }
        }
        assert!(fanout.is_empty() && fanin.is_empty());

        // topo_position is the inverse permutation of topo_order.
        for (i, &n) in c.topo_order().iter().enumerate() {
            assert_eq!(c.topo_position(n) as usize, i);
        }
    }
}

/// `fanout_cone` is deterministic across calls, duplicate-free under
/// reconvergence, closed under fanout, and contains its seed.
#[test]
fn fanout_cone_deterministic_and_deduplicated() {
    for c in suite() {
        for id in c.node_ids() {
            let cone = c.fanout_cone(id);
            assert_eq!(cone, c.fanout_cone(id), "repeat call must be identical");
            let mut sorted = cone.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), cone.len(), "no duplicates for seed {id}");
            assert!(cone.contains(&id), "cone contains its seed");
            // Closure: every fanout sink of a cone member is a member.
            for &m in &cone {
                for &e in c.fanout_edges(m) {
                    assert!(cone.contains(&c.edge(e).to()), "cone closed under fanout");
                }
            }
        }
    }
}

/// `reachable_outputs` is deterministic, duplicate-free, exactly the
/// primary outputs inside the fanout cone, and in primary-output order.
#[test]
fn reachable_outputs_deterministic_and_deduplicated() {
    for c in suite() {
        for id in c.node_ids() {
            let outs = c.reachable_outputs(id);
            assert_eq!(outs, c.reachable_outputs(id), "repeat call identical");
            let mut sorted = outs.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), outs.len(), "no duplicates for seed {id}");
            let cone = c.fanout_cone(id);
            let expected: Vec<NodeId> = c
                .primary_outputs()
                .iter()
                .copied()
                .filter(|o| cone.contains(o))
                .collect();
            assert_eq!(outs, expected, "outputs in declaration order");
        }
    }
}

/// On the hand-built doubly reconvergent circuit the cones are known
/// exactly; pin them by name.
#[test]
fn reconvergent_cones_pin_exact_membership() {
    let c = doubly_reconvergent();
    let names = |ids: &[NodeId]| -> Vec<String> {
        let mut v: Vec<String> = ids.iter().map(|&n| c.node(n).name().to_owned()).collect();
        v.sort();
        v
    };
    let g2 = c.find("g2").unwrap();
    assert_eq!(names(&c.fanout_cone(g2)), ["g2", "w", "y", "z"]);
    assert_eq!(names(&c.reachable_outputs(g2)), ["w", "y", "z"]);
    let g1 = c.find("g1").unwrap();
    assert_eq!(names(&c.fanout_cone(g1)), ["g1", "w", "y"]);
    assert_eq!(names(&c.reachable_outputs(g1)), ["w", "y"]);
    let a = c.find("a").unwrap();
    assert_eq!(names(&c.fanout_cone(a)), ["a", "g1", "g2", "w", "y", "z"]);
}

/// ISCAS-85 c17.
const C17: &str = "\
INPUT(1)
INPUT(2)
INPUT(3)
INPUT(6)
INPUT(7)
OUTPUT(22)
OUTPUT(23)
10 = NAND(1, 3)
11 = NAND(3, 6)
16 = NAND(2, 11)
19 = NAND(11, 7)
22 = NAND(10, 16)
23 = NAND(16, 19)
";

#[test]
fn cone_view_slot_map_matches_brute_force() {
    let circuits = [
        bench_format::parse("c17", C17).unwrap(),
        generate_combinational(&profiles::by_name("s1196").unwrap(), 1).unwrap(),
        generate(&GeneratorConfig::small("trav", 5))
            .unwrap()
            .to_combinational()
            .unwrap(),
    ];
    for c in &circuits {
        let (mut single_node, mut output_seed) = (false, false);
        for seed in c.node_ids() {
            let view = c.cone_view(seed);
            // Reference slots: `fanout_cone` membership, ranked by
            // topological position.
            let mut members = c.fanout_cone(seed);
            members.sort_unstable_by_key(|&n| c.topo_position(n));
            let mut slot = vec![EXTERNAL; c.num_nodes()];
            for (s, &n) in members.iter().enumerate() {
                slot[n.index()] = s as u32;
            }
            let expected: Vec<u32> = members
                .iter()
                .flat_map(|&n| c.node(n).fanins().iter().map(|f| slot[f.index()]))
                .collect();
            assert_eq!(view.arc_slots(), &expected[..], "{} seed {seed}", c.name());
            for n in c.node_ids() {
                let reference = (slot[n.index()] != EXTERNAL).then(|| slot[n.index()] as usize);
                assert_eq!(
                    view.slot_of_in(c, n),
                    reference,
                    "{} seed {seed} node {n}",
                    c.name()
                );
            }
            single_node |= view.len() == 1;
            output_seed |= c.output_position(seed).is_some();
        }
        assert!(single_node, "{}: no single-node cone exercised", c.name());
        assert!(output_seed, "{}: no output seed exercised", c.name());
    }
}
