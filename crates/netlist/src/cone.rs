//! Induced fanout-cone extraction with cone-local arc renumbering.
//!
//! Per-suspect incremental timing only ever touches the transitive
//! fanout cone of the suspect arc's sink. [`ConeView`] extracts that
//! induced subgraph once per suspect in a form the timing hot loops can
//! walk without any full-circuit arrays:
//!
//! * cone nodes are listed in circuit topological order and addressed by
//!   a dense cone-local *slot* (`0 .. len`);
//! * each cone node's fanin arcs are renumbered into one contiguous
//!   cone-local CSR (offsets + parallel driver/edge arrays), with each
//!   driver pre-resolved to either an earlier slot (in-cone) or its
//!   global [`NodeId`] (outside the cone, read from baseline state);
//! * the primary outputs inside the cone are pre-listed with both their
//!   global output position and their slot.
//!
//! Extraction is one forward scan of [`Circuit::topo_order`] from the
//! seed's position: a node joins the cone if it is the seed or if one of
//! its fanin drivers already has a slot in a zeroed node → slot table,
//! and the same step writes its arcs and output entry. The scan stops
//! once no cone member has a fanout arc it has not reached yet, so a
//! cone costs its *topological span* (seed to last member) plus that
//! table, with no DFS, hash map or sort of the cone. Cones are not small
//! on generated netlists: the 64 stride-sampled SYNTH100K suspects of
//! `BENCH_scale.json` reach 36,788 of its 102,304 nodes on average and
//! up to 85,978, and their spans run nearly to the end of the order.
//! Every stored array is trimmed to its length, so a view costs no more
//! than its own arrays.

use crate::circuit::NONE_U32;
use crate::{Circuit, EdgeId, NodeId};

/// Cone-local fanin-slot sentinel: the driver of this arc lies outside
/// the cone (read its value from full-circuit baseline state via
/// [`ConeView::arc_sources`]).
pub const EXTERNAL: u32 = NONE_U32;

/// A topologically ordered view of the induced fanout cone of one seed
/// node, with cone-local arc renumbering. See the module docs.
#[derive(Debug, Clone)]
pub struct ConeView {
    seed: NodeId,
    /// Cone nodes in circuit topological order (ascending
    /// `topo_position`, the key [`ConeView::slot_of_in`] binary-searches);
    /// a node's index here is its *slot*.
    nodes: Vec<NodeId>,
    /// Cone-local CSR row offsets, length `len + 1`: slot `s`'s fanin
    /// arcs are the local arc indices `offsets[s] .. offsets[s+1]`, in
    /// pin order.
    fanin_offsets: Vec<u32>,
    /// Per local arc: the driver's slot, or [`EXTERNAL`].
    fanin_slots: Vec<u32>,
    /// Per local arc: the driver's global node id.
    fanin_nodes: Vec<NodeId>,
    /// Per local arc: the global edge id (the cone-local renumbering
    /// maps local arc index → this).
    fanin_edges: Vec<EdgeId>,
    /// Primary outputs inside the cone as `(output position, slot)`,
    /// ascending by output position.
    output_slots: Vec<(usize, u32)>,
}

impl ConeView {
    /// Extracts the cone of `seed` from `circuit`.
    pub(crate) fn new(circuit: &Circuit, seed: NodeId) -> ConeView {
        ConeView::scan::<true>(circuit, seed)
    }

    /// The topological scan (module docs). `STOP_EARLY = false` scans
    /// the whole suffix of the order, which tests use to pin the stop.
    fn scan<const STOP_EARLY: bool>(circuit: &Circuit, seed: NodeId) -> ConeView {
        // Slot + 1 per node, 0 = not in the cone (so the table starts
        // as zeroed memory). Unsigned subtraction maps 0 to EXTERNAL.
        let mut slot_of = vec![0u32; circuit.num_nodes()];
        // Capacities are upper bounds (the rest of the order, every arc),
        // so no push reallocates; the unwritten tails are trimmed below.
        let start = circuit.topo_position(seed) as usize;
        let max_nodes = circuit.num_nodes() - start;
        let mut nodes = Vec::with_capacity(max_nodes);
        let mut fanin_offsets = Vec::with_capacity(max_nodes + 1);
        fanin_offsets.push(0u32);
        let mut fanin_slots = Vec::with_capacity(circuit.num_edges());
        let mut fanin_nodes = Vec::with_capacity(circuit.num_edges());
        let mut fanin_edges = Vec::with_capacity(circuit.num_edges());
        let mut output_slots = Vec::new();
        // Fanout arcs of cone members whose sink the scan has not
        // reached: at zero, no later node can join the cone.
        let mut pending = 0usize;
        for &id in &circuit.topo_order()[start..] {
            let arcs = circuit.fanin_range(id);
            let drivers = &circuit.fanin_nodes[arcs.clone()];
            if id != seed {
                if STOP_EARLY && pending == 0 {
                    break;
                }
                let reached = drivers.iter().filter(|f| slot_of[f.index()] != 0).count();
                if reached == 0 {
                    continue;
                }
                pending -= reached;
            }
            let slot = u32::try_from(nodes.len()).expect("cone size bounded by MAX_NODES");
            slot_of[id.index()] = slot + 1;
            nodes.push(id);
            fanin_slots.extend(drivers.iter().map(|f| slot_of[f.index()].wrapping_sub(1)));
            fanin_nodes.extend_from_slice(drivers);
            fanin_edges.extend_from_slice(&circuit.edge_list[arcs]);
            let end = u32::try_from(fanin_slots.len()).expect("arc count bounded by MAX_EDGES");
            fanin_offsets.push(end);
            if let Some(p) = circuit.output_position(id) {
                output_slots.push((p, slot));
            }
            pending += circuit.fanout_edges(id).len();
        }
        output_slots.sort_unstable_by_key(|&(p, _)| p);
        nodes.shrink_to_fit();
        fanin_offsets.shrink_to_fit();
        fanin_slots.shrink_to_fit();
        fanin_nodes.shrink_to_fit();
        fanin_edges.shrink_to_fit();
        output_slots.shrink_to_fit();

        ConeView {
            seed,
            nodes,
            fanin_offsets,
            fanin_slots,
            fanin_nodes,
            fanin_edges,
            output_slots,
        }
    }

    /// The seed node the cone was grown from.
    pub fn seed(&self) -> NodeId {
        self.seed
    }

    /// Number of nodes in the cone.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if the cone is empty (never, for a valid seed).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Number of cone-local fanin arcs (including arcs from outside).
    pub fn num_arcs(&self) -> usize {
        self.fanin_edges.len()
    }

    /// Cone nodes in circuit topological order; the index of a node in
    /// this slice is its slot.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The global node at `slot`.
    #[inline]
    pub fn node_at(&self, slot: usize) -> NodeId {
        self.nodes[slot]
    }

    /// The slot of `node`, or `None` if the node is outside the cone.
    /// `O(log len)` (binary search over topological positions).
    pub fn slot_of_in(&self, circuit: &Circuit, node: NodeId) -> Option<usize> {
        self.nodes
            .binary_search_by_key(&circuit.topo_position(node), |&n| circuit.topo_position(n))
            .ok()
    }

    /// The cone-local arc range of `slot` (indices into
    /// [`ConeView::arc_sources`] / [`ConeView::arc_edges`]), in pin
    /// order.
    #[inline]
    pub fn arc_range(&self, slot: usize) -> std::ops::Range<usize> {
        self.fanin_offsets[slot] as usize..self.fanin_offsets[slot + 1] as usize
    }

    /// Per local arc: the driver's slot, or [`EXTERNAL`] when the driver
    /// lies outside the cone. Parallel to [`ConeView::arc_sources`].
    #[inline]
    pub fn arc_slots(&self) -> &[u32] {
        &self.fanin_slots
    }

    /// Per local arc: the driver's global node id (needed to read
    /// baseline state for [`EXTERNAL`] arcs).
    #[inline]
    pub fn arc_sources(&self) -> &[NodeId] {
        &self.fanin_nodes
    }

    /// Per local arc: the global edge id — the inverse of the cone-local
    /// renumbering.
    #[inline]
    pub fn arc_edges(&self) -> &[EdgeId] {
        &self.fanin_edges
    }

    /// Primary outputs inside the cone as `(position in
    /// [`Circuit::primary_outputs`], slot)`, ascending by position.
    pub fn output_slots(&self) -> &[(usize, u32)] {
        &self.output_slots
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{generate, generate_combinational, GeneratorConfig};
    use crate::profiles;
    use crate::{CircuitBuilder, GateKind};
    use std::collections::hash_map::{Entry, HashMap};
    use std::hash::{BuildHasherDefault, Hasher};

    /// Multiplicative (FxHash-style) hasher for the oracle's node → slot
    /// map. The map is never iterated, so hash order cannot reach a
    /// result.
    #[derive(Default)]
    struct SlotHasher(u64);

    impl Hasher for SlotHasher {
        fn finish(&self) -> u64 {
            self.0
        }

        fn write(&mut self, bytes: &[u8]) {
            for &b in bytes {
                self.write_u64(u64::from(b));
            }
        }

        fn write_u32(&mut self, i: u32) {
            self.write_u64(u64::from(i));
        }

        fn write_u64(&mut self, i: u64) {
            self.0 = (self.0.rotate_left(5) ^ i).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        }
    }

    type SlotMap = HashMap<NodeId, u32, BuildHasherDefault<SlotHasher>>;

    /// The hash-map construction the scan replaced, kept as its oracle:
    /// a DFS over fanout arcs with membership in a node → slot map, a
    /// sort of the cone by topological position, and one map lookup per
    /// fanin arc.
    fn hash_map_oracle(circuit: &Circuit, seed: NodeId) -> ConeView {
        let mut slots = SlotMap::default();
        let mut stack = vec![seed];
        slots.insert(seed, EXTERNAL);
        let mut nodes = Vec::new();
        while let Some(id) = stack.pop() {
            nodes.push(id);
            for &e in circuit.fanout_edges(id) {
                let to = circuit.edge(e).to();
                if let Entry::Vacant(v) = slots.entry(to) {
                    v.insert(EXTERNAL);
                    stack.push(to);
                }
            }
        }
        nodes.sort_unstable_by_key(|&n| circuit.topo_position(n));
        for (s, n) in nodes.iter().enumerate() {
            *slots.get_mut(n).expect("every cone node was inserted") = s as u32;
        }

        let mut fanin_offsets = vec![0u32];
        let (mut fanin_slots, mut fanin_nodes, mut fanin_edges) =
            (Vec::new(), Vec::new(), Vec::new());
        for &id in &nodes {
            let node = circuit.node(id);
            for (&from, &e) in node.fanins().iter().zip(node.fanin_edges()) {
                fanin_slots.push(slots.get(&from).copied().unwrap_or(EXTERNAL));
                fanin_nodes.push(from);
                fanin_edges.push(e);
            }
            fanin_offsets.push(fanin_slots.len() as u32);
        }

        let mut output_slots: Vec<(usize, u32)> = nodes
            .iter()
            .enumerate()
            .filter_map(|(s, &id)| circuit.output_position(id).map(|p| (p, s as u32)))
            .collect();
        output_slots.sort_unstable_by_key(|&(p, _)| p);

        ConeView {
            seed,
            nodes,
            fanin_offsets,
            fanin_slots,
            fanin_nodes,
            fanin_edges,
            output_slots,
        }
    }

    /// Asserts two views equal array by array, and that `view` stores
    /// no growth slack.
    fn assert_same_view(view: &ConeView, oracle: &ConeView, what: &str) {
        assert_eq!(view.seed, oracle.seed, "{what}: seed");
        assert_eq!(view.nodes, oracle.nodes, "{what}: nodes");
        assert_eq!(
            view.fanin_offsets, oracle.fanin_offsets,
            "{what}: arc offsets"
        );
        assert_eq!(view.fanin_slots, oracle.fanin_slots, "{what}: arc_slots");
        assert_eq!(view.fanin_nodes, oracle.fanin_nodes, "{what}: arc_sources");
        assert_eq!(view.fanin_edges, oracle.fanin_edges, "{what}: arc_edges");
        assert_eq!(
            view.output_slots, oracle.output_slots,
            "{what}: output_slots"
        );
        assert_eq!(
            view.nodes.capacity(),
            view.nodes.len(),
            "{what}: nodes slack"
        );
        assert_eq!(
            view.fanin_offsets.capacity(),
            view.fanin_offsets.len(),
            "{what}: offsets slack"
        );
        assert_eq!(
            view.fanin_slots.capacity(),
            view.fanin_slots.len(),
            "{what}: slots slack"
        );
        assert_eq!(
            view.fanin_nodes.capacity(),
            view.fanin_nodes.len(),
            "{what}: sources slack"
        );
        assert_eq!(
            view.fanin_edges.capacity(),
            view.fanin_edges.len(),
            "{what}: edges slack"
        );
        assert_eq!(
            view.output_slots.capacity(),
            view.output_slots.len(),
            "{what}: outputs slack"
        );
    }

    /// The ISCAS-sized profiles plus four small generated circuits, all
    /// scan-cut.
    fn differential_circuits() -> Vec<Circuit> {
        let mut circuits: Vec<Circuit> = ["s27", "s1196", "s1423"]
            .iter()
            .map(|name| generate_combinational(&profiles::by_name(name).unwrap(), 1).unwrap())
            .collect();
        for seed in 0..4u64 {
            circuits.push(
                generate(&GeneratorConfig::small("diff", seed))
                    .unwrap()
                    .to_combinational()
                    .unwrap(),
            );
        }
        circuits
    }

    #[test]
    fn cone_scan_differential_every_node() {
        for c in &differential_circuits() {
            for seed in c.node_ids() {
                let what = format!("{} seed {seed}", c.name());
                assert_same_view(&c.cone_view(seed), &hash_map_oracle(c, seed), &what);
            }
        }
    }

    #[test]
    fn cone_scan_differential_early_stop_equals_full_suffix() {
        for c in &differential_circuits() {
            for seed in c.node_ids() {
                let what = format!("{} seed {seed}", c.name());
                let full = ConeView::scan::<false>(c, seed);
                assert_same_view(&ConeView::scan::<true>(c, seed), &full, &what);
            }
        }
    }

    #[test]
    fn cone_scan_differential_output_slots_are_reachable_outputs() {
        for c in &differential_circuits() {
            for seed in c.node_ids() {
                let positions: Vec<usize> = c
                    .cone_view(seed)
                    .output_slots()
                    .iter()
                    .map(|&(p, _)| p)
                    .collect();
                let expected: Vec<usize> = c
                    .reachable_outputs(seed)
                    .iter()
                    .map(|&o| c.output_position(o).unwrap())
                    .collect();
                assert_eq!(positions, expected, "{} seed {seed}", c.name());
            }
        }
    }

    /// At least 400 stride-sampled arcs of the ~100k-gate profile, whose
    /// cones span most of the circuit. Release only: the oracle's DFS
    /// and sort take seconds there even optimized.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "release only (run with --release)")]
    fn cone_scan_differential_synth100k_sampled_arcs() {
        let c = generate_combinational(&profiles::SYNTH100K, 2).unwrap();
        let stride = c.num_edges() / 400;
        let mut checked = 0;
        for e in c.edge_ids().step_by(stride) {
            let seed = c.edge(e).to();
            let what = format!("{} arc {e} seed {seed}", c.name());
            assert_same_view(&c.cone_view(seed), &hash_map_oracle(&c, seed), &what);
            checked += 1;
        }
        assert!(checked >= 400, "only {checked} arcs sampled");
    }

    fn reconvergent() -> Circuit {
        // a -> g1, g2; y = AND(g1, g2); z = NOT(g2). Reconvergence at y.
        let mut b = CircuitBuilder::new("rc");
        let a = b.input("a");
        let c = b.input("c");
        let g1 = b.gate("g1", GateKind::Buf, &[a]).unwrap();
        let g2 = b.gate("g2", GateKind::Nand, &[a, c]).unwrap();
        let y = b.gate("y", GateKind::And, &[g1, g2]).unwrap();
        let z = b.gate("z", GateKind::Not, &[g2]).unwrap();
        b.output(y);
        b.output(z);
        b.finish().unwrap()
    }

    #[test]
    fn cone_matches_fanout_cone_membership() {
        let c = reconvergent();
        for id in c.node_ids() {
            let view = c.cone_view(id);
            let mut reference: Vec<NodeId> = c.fanout_cone(id);
            reference.sort_unstable_by_key(|&n| c.topo_position(n));
            assert_eq!(view.nodes(), &reference[..], "seed {id}");
        }
    }

    #[test]
    fn slots_are_topologically_ordered() {
        let c = reconvergent();
        let a = c.find("a").unwrap();
        let view = c.cone_view(a);
        for s in 0..view.len() {
            for k in view.arc_range(s) {
                let fs = view.arc_slots()[k];
                if fs != EXTERNAL {
                    assert!((fs as usize) < s, "fanin slot must precede sink slot");
                }
            }
        }
    }

    #[test]
    fn arcs_mirror_circuit_fanins() {
        let c = reconvergent();
        let a = c.find("a").unwrap();
        let view = c.cone_view(a);
        for (s, &id) in view.nodes().iter().enumerate() {
            let node = c.node(id);
            let r = view.arc_range(s);
            assert_eq!(r.len(), node.fanins().len());
            for (k, (&f, &e)) in r.zip(node.fanins().iter().zip(node.fanin_edges())) {
                assert_eq!(view.arc_sources()[k], f);
                assert_eq!(view.arc_edges()[k], e);
                match view.slot_of_in(&c, f) {
                    Some(slot) => assert_eq!(view.arc_slots()[k] as usize, slot),
                    None => assert_eq!(view.arc_slots()[k], EXTERNAL),
                }
            }
        }
    }

    #[test]
    fn output_slots_ascend_and_cover_reachable_outputs() {
        let c = reconvergent();
        let g2 = c.find("g2").unwrap();
        let view = c.cone_view(g2);
        let reachable = c.reachable_outputs(g2);
        assert_eq!(view.output_slots().len(), reachable.len());
        let mut last = None;
        for &(p, slot) in view.output_slots() {
            assert_eq!(c.primary_outputs()[p], view.node_at(slot as usize));
            if let Some(prev) = last {
                assert!(p > prev);
            }
            last = Some(p);
        }
    }

    #[test]
    fn deterministic_and_deduplicated_on_generated_circuits() {
        for seed in 0..4u64 {
            let c = generate(&GeneratorConfig::small("cv", seed))
                .unwrap()
                .to_combinational()
                .unwrap();
            for id in c.node_ids().step_by(7) {
                let v1 = c.cone_view(id);
                let v2 = c.cone_view(id);
                assert_eq!(v1.nodes(), v2.nodes());
                assert_eq!(v1.arc_edges(), v2.arc_edges());
                // Dedup: each node exactly once.
                let mut sorted = v1.nodes().to_vec();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), v1.len());
            }
        }
    }
}
