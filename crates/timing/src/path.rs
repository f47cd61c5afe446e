//! Paths, timing lengths and statistically-longest path selection.
//!
//! Implements Section H-4 of the paper: for an injected fault site, find a
//! set of "longest" paths through the site (by mean statistical length),
//! for which the ATPG then generates robust or non-robust two-vector
//! tests. The K-longest computation is an exact dynamic program over the
//! DAG keeping the top-K partial lengths per node.

use crate::dist::standard_normal;
use crate::{CircuitTiming, Samples, TimingError, TimingInstance};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sdd_netlist::{Circuit, EdgeId, GateKind, NodeId};
use serde::{Deserialize, Serialize};

/// A structural path: an alternating sequence of nodes and the arcs
/// connecting them, from a source (primary input) to a primary output.
///
/// The *timing length* `TL(p)` (paper Section D-1) is the sum of the arc
/// delay random variables; [`Path::timing_length`] evaluates it on a fixed
/// instance and [`Path::length_samples`] samples its distribution.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Path {
    nodes: Vec<NodeId>,
    edges: Vec<EdgeId>,
}

impl Path {
    /// Builds a path from its node and edge sequences
    /// (`edges.len() == nodes.len() - 1`).
    ///
    /// # Panics
    ///
    /// Panics if the sequence lengths are inconsistent.
    pub fn new(nodes: Vec<NodeId>, edges: Vec<EdgeId>) -> Path {
        assert_eq!(
            edges.len() + 1,
            nodes.len(),
            "path must have one fewer edge than nodes"
        );
        Path { nodes, edges }
    }

    /// The node sequence, source first.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The arc sequence.
    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }

    /// Number of arcs.
    pub fn len(&self) -> usize {
        self.edges.len()
    }

    /// Returns `true` for a single-node path.
    pub fn is_empty(&self) -> bool {
        self.edges.is_empty()
    }

    /// The source node.
    pub fn source(&self) -> NodeId {
        self.nodes[0]
    }

    /// The terminal node.
    pub fn sink(&self) -> NodeId {
        *self.nodes.last().expect("path has at least one node")
    }

    /// Returns `true` if the path traverses `edge`.
    pub fn contains_edge(&self, edge: EdgeId) -> bool {
        self.edges.contains(&edge)
    }

    /// `TL(p)` evaluated on a fixed chip instance.
    pub fn timing_length(&self, instance: &TimingInstance) -> f64 {
        self.edges.iter().map(|&e| instance.delay(e)).sum()
    }

    /// Mean of `TL(p)` under the timing model.
    pub fn mean_length(&self, timing: &CircuitTiming) -> f64 {
        self.edges.iter().map(|&e| timing.edge_mean(e)).sum()
    }

    /// Samples the `TL(p)` distribution (`Sum` of the correlated arc
    /// delays, Section D-1) with `n` Monte-Carlo draws.
    pub fn length_samples(&self, timing: &CircuitTiming, n: usize, seed: u64) -> Samples {
        let var = timing.variation();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let g = standard_normal(&mut rng);
                self.edges
                    .iter()
                    .map(|&e| {
                        let l = standard_normal(&mut rng);
                        var.delay(timing.edge_mean(e), g, l)
                    })
                    .sum()
            })
            .collect()
    }
}

/// One entry of a top-K length table: a partial length plus the link to
/// reconstruct the path.
#[derive(Debug, Clone, Copy)]
struct Entry {
    len: f64,
    /// `(neighbor node, entry rank at neighbor, connecting edge)`;
    /// `None` terminates at a source (forward) / output (backward).
    link: Option<(NodeId, usize, EdgeId)>,
}

fn push_top_k(list: &mut Vec<Entry>, entry: Entry, k: usize) {
    let pos = list
        .iter()
        .position(|e| e.len < entry.len)
        .unwrap_or(list.len());
    if pos < k {
        list.insert(pos, entry);
        list.truncate(k);
    }
}

/// The K longest paths (by mean delay) from any source to any primary
/// output that pass *through* the given arc.
///
/// Returns fewer than `k` paths when fewer exist; paths are ordered by
/// decreasing mean length.
///
/// # Errors
///
/// Returns [`TimingError::NoPath`] if no source-to-output path traverses
/// the arc (e.g. the arc feeds only dangling logic), or
/// [`TimingError::NoSuchEdge`] for an out-of-range id.
///
/// # Example
///
/// ```
/// use sdd_netlist::generator::{generate, GeneratorConfig};
/// use sdd_netlist::EdgeId;
/// use sdd_timing::{path, CellLibrary, CircuitTiming, VariationModel};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let c = generate(&GeneratorConfig::small("p", 1))?.to_combinational()?;
/// let t = CircuitTiming::characterize(
///     &c, &CellLibrary::default_025um(), VariationModel::default());
/// let paths = path::k_longest_through_edge(&c, &t, EdgeId::from_index(0), 3)?;
/// assert!(!paths.is_empty());
/// assert!(paths.windows(2).all(|w| w[0].mean_length(&t) >= w[1].mean_length(&t)));
/// # Ok(())
/// # }
/// ```
pub fn k_longest_through_edge(
    circuit: &Circuit,
    timing: &CircuitTiming,
    edge: EdgeId,
    k: usize,
) -> Result<Vec<Path>, TimingError> {
    if edge.index() >= circuit.num_edges() {
        return Err(TimingError::NoSuchEdge(edge.index()));
    }
    if k == 0 {
        return Ok(Vec::new());
    }
    let e = circuit.edge(edge);
    let prefixes = forward_top_k(circuit, timing, k);
    let suffixes = backward_top_k(circuit, timing, k);
    let pre = &prefixes[e.from().index()];
    let suf = &suffixes[e.to().index()];
    if pre.is_empty() || suf.is_empty() {
        return Err(TimingError::NoPath {
            what: format!("no source-to-output path through edge {edge}"),
        });
    }
    let mid = timing.edge_mean(edge);
    let mut combos: Vec<(f64, usize, usize)> = Vec::with_capacity(pre.len() * suf.len());
    for (i, p) in pre.iter().enumerate() {
        for (j, s) in suf.iter().enumerate() {
            combos.push((p.len + mid + s.len, i, j));
        }
    }
    combos.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("NaN length"));
    combos.truncate(k);
    Ok(combos
        .into_iter()
        .map(|(_, i, j)| assemble(circuit, &prefixes, &suffixes, e.from(), i, edge, e.to(), j))
        .collect())
}

/// The K longest paths (by mean delay) through a node.
///
/// # Errors
///
/// Same conditions as [`k_longest_through_edge`].
pub fn k_longest_through_node(
    circuit: &Circuit,
    timing: &CircuitTiming,
    node: NodeId,
    k: usize,
) -> Result<Vec<Path>, TimingError> {
    if node.index() >= circuit.num_nodes() {
        return Err(TimingError::NoSuchNode(node.index()));
    }
    if k == 0 {
        return Ok(Vec::new());
    }
    let prefixes = forward_top_k(circuit, timing, k);
    let suffixes = backward_top_k(circuit, timing, k);
    let pre = &prefixes[node.index()];
    let suf = &suffixes[node.index()];
    if pre.is_empty() || suf.is_empty() {
        return Err(TimingError::NoPath {
            what: format!("no source-to-output path through node {node}"),
        });
    }
    let mut combos: Vec<(f64, usize, usize)> = Vec::new();
    for (i, p) in pre.iter().enumerate() {
        for (j, s) in suf.iter().enumerate() {
            combos.push((p.len + s.len, i, j));
        }
    }
    combos.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("NaN length"));
    combos.truncate(k);
    Ok(combos
        .into_iter()
        .map(|(_, i, j)| {
            let mut nodes = walk_back(circuit, &prefixes, node, i);
            let mut edges = Vec::new();
            // Rebuild edges of the prefix from consecutive node pairs.
            rebuild_edges(circuit, &nodes, &mut edges);
            let (snodes, sedges) = walk_forward(circuit, &suffixes, node, j);
            nodes.extend(snodes.into_iter().skip(1));
            edges.extend(sedges);
            Path::new(nodes, edges)
        })
        .collect())
}

/// The single longest path (by mean delay) in the whole circuit (the
/// statically critical path).
///
/// # Errors
///
/// Returns [`TimingError::NoPath`] for a circuit with no source-to-output
/// path (cannot happen for validated circuits with outputs).
pub fn longest_path(circuit: &Circuit, timing: &CircuitTiming) -> Result<Path, TimingError> {
    let mut best: Option<(f64, NodeId)> = None;
    let prefixes = forward_top_k(circuit, timing, 1);
    for &o in circuit.primary_outputs() {
        if let Some(entry) = prefixes[o.index()].first() {
            if best.map(|(l, _)| entry.len > l).unwrap_or(true) {
                best = Some((entry.len, o));
            }
        }
    }
    let (_, o) = best.ok_or_else(|| TimingError::NoPath {
        what: "circuit has no source-to-output path".to_owned(),
    })?;
    let nodes = walk_back(circuit, &prefixes, o, 0);
    let mut edges = Vec::new();
    rebuild_edges(circuit, &nodes, &mut edges);
    Ok(Path::new(nodes, edges))
}

fn forward_top_k(circuit: &Circuit, timing: &CircuitTiming, k: usize) -> Vec<Vec<Entry>> {
    let mut table: Vec<Vec<Entry>> = vec![Vec::new(); circuit.num_nodes()];
    for &id in circuit.topo_order() {
        let node = circuit.node(id);
        if node.kind() == GateKind::Input {
            table[id.index()].push(Entry {
                len: 0.0,
                link: None,
            });
            continue;
        }
        let mut list: Vec<Entry> = Vec::new();
        for (&from, &e) in node.fanins().iter().zip(node.fanin_edges()) {
            let d = timing.edge_mean(e);
            for (rank, entry) in table[from.index()].iter().enumerate() {
                push_top_k(
                    &mut list,
                    Entry {
                        len: entry.len + d,
                        link: Some((from, rank, e)),
                    },
                    k,
                );
            }
        }
        table[id.index()] = list;
    }
    table
}

fn backward_top_k(circuit: &Circuit, timing: &CircuitTiming, k: usize) -> Vec<Vec<Entry>> {
    let mut table: Vec<Vec<Entry>> = vec![Vec::new(); circuit.num_nodes()];
    let is_output: Vec<bool> = {
        let mut v = vec![false; circuit.num_nodes()];
        for &o in circuit.primary_outputs() {
            v[o.index()] = true;
        }
        v
    };
    for &id in circuit.topo_order().iter().rev() {
        let mut list: Vec<Entry> = Vec::new();
        if is_output[id.index()] {
            list.push(Entry {
                len: 0.0,
                link: None,
            });
        }
        for &e in circuit.fanout_edges(id) {
            let to = circuit.edge(e).to();
            let d = timing.edge_mean(e);
            for (rank, entry) in table[to.index()].iter().enumerate() {
                push_top_k(
                    &mut list,
                    Entry {
                        len: entry.len + d,
                        link: Some((to, rank, e)),
                    },
                    k,
                );
            }
        }
        table[id.index()] = list;
    }
    table
}

/// Walks prefix links back from `(node, rank)` and returns nodes in
/// source-to-`node` order.
fn walk_back(circuit: &Circuit, prefixes: &[Vec<Entry>], node: NodeId, rank: usize) -> Vec<NodeId> {
    let _ = circuit;
    let mut rev = vec![node];
    let mut cur = prefixes[node.index()][rank];
    while let Some((prev, prank, _)) = cur.link {
        rev.push(prev);
        cur = prefixes[prev.index()][prank];
    }
    rev.reverse();
    rev
}

/// Walks suffix links forward from `(node, rank)`; returns the node and
/// edge sequences starting at `node`.
fn walk_forward(
    circuit: &Circuit,
    suffixes: &[Vec<Entry>],
    node: NodeId,
    rank: usize,
) -> (Vec<NodeId>, Vec<EdgeId>) {
    let _ = circuit;
    let mut nodes = vec![node];
    let mut edges = Vec::new();
    let mut cur = suffixes[node.index()][rank];
    while let Some((next, nrank, e)) = cur.link {
        nodes.push(next);
        edges.push(e);
        cur = suffixes[next.index()][nrank];
    }
    (nodes, edges)
}

fn rebuild_edges(circuit: &Circuit, nodes: &[NodeId], edges: &mut Vec<EdgeId>) {
    for w in nodes.windows(2) {
        let (from, to) = (w[0], w[1]);
        let e = circuit
            .node(to)
            .fanin_edges()
            .iter()
            .copied()
            .find(|&e| circuit.edge(e).from() == from)
            .expect("consecutive path nodes must be connected");
        edges.push(e);
    }
}

#[allow(clippy::too_many_arguments)]
fn assemble(
    circuit: &Circuit,
    prefixes: &[Vec<Entry>],
    suffixes: &[Vec<Entry>],
    from: NodeId,
    pre_rank: usize,
    edge: EdgeId,
    to: NodeId,
    suf_rank: usize,
) -> Path {
    let mut nodes = walk_back(circuit, prefixes, from, pre_rank);
    let mut edges = Vec::new();
    rebuild_edges(circuit, &nodes, &mut edges);
    edges.push(edge);
    let (snodes, sedges) = walk_forward(circuit, suffixes, to, suf_rank);
    nodes.extend(snodes);
    edges.extend(sedges);
    Path::new(nodes, edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VariationModel;
    use sdd_netlist::{CircuitBuilder, GateKind};

    /// Diamond: a -> {s (slow), f (fast)} -> y = AND(s, f) -> out.
    fn diamond() -> (Circuit, CircuitTiming) {
        let mut b = CircuitBuilder::new("d");
        let a = b.input("a");
        let s = b.gate("s", GateKind::Buf, &[a]).unwrap();
        let f = b.gate("f", GateKind::Buf, &[a]).unwrap();
        let y = b.gate("y", GateKind::And, &[s, f]).unwrap();
        b.output(y);
        let c = b.finish().unwrap();
        // edges: a->s (3.0), a->f (1.0), s->y (0.5), f->y (0.5)
        let t = CircuitTiming::from_means(vec![3.0, 1.0, 0.5, 0.5], VariationModel::none());
        (c, t)
    }

    #[test]
    fn longest_path_takes_slow_branch() {
        let (c, t) = diamond();
        let p = longest_path(&c, &t).unwrap();
        assert!((p.mean_length(&t) - 3.5).abs() < 1e-12);
        let names: Vec<&str> = p.nodes().iter().map(|&n| c.node(n).name()).collect();
        assert_eq!(names, vec!["a", "s", "y"]);
    }

    #[test]
    fn k_longest_through_edge_orders_by_length() {
        let (c, t) = diamond();
        // Through a->f (edge 1): only one path a-f-y of length 1.5.
        let paths = k_longest_through_edge(&c, &t, EdgeId::from_index(1), 5).unwrap();
        assert_eq!(paths.len(), 1);
        assert!((paths[0].mean_length(&t) - 1.5).abs() < 1e-12);
        assert!(paths[0].contains_edge(EdgeId::from_index(1)));
    }

    #[test]
    fn k_longest_through_node_finds_both() {
        let (c, t) = diamond();
        let y = c.find("y").unwrap();
        let paths = k_longest_through_node(&c, &t, y, 5).unwrap();
        assert_eq!(paths.len(), 2);
        assert!(paths[0].mean_length(&t) >= paths[1].mean_length(&t));
        assert!((paths[0].mean_length(&t) - 3.5).abs() < 1e-12);
        assert!((paths[1].mean_length(&t) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn path_accessors_and_lengths() {
        let (c, t) = diamond();
        let p = longest_path(&c, &t).unwrap();
        assert_eq!(p.len(), 2);
        assert!(!p.is_empty());
        assert_eq!(p.source(), c.find("a").unwrap());
        assert_eq!(p.sink(), c.find("y").unwrap());
        let inst = t.nominal_instance();
        assert!((p.timing_length(&inst) - 3.5).abs() < 1e-12);
    }

    #[test]
    fn length_samples_center_on_mean() {
        let (c, _) = diamond();
        let t =
            CircuitTiming::from_means(vec![3.0, 1.0, 0.5, 0.5], VariationModel::new(0.05, 0.05));
        let p = longest_path(&c, &t).unwrap();
        let s = p.length_samples(&t, 4000, 9);
        assert!((s.mean() - 3.5).abs() < 0.05, "mean {}", s.mean());
        assert!(s.std() > 0.0);
    }

    #[test]
    fn no_path_through_dangling_edge() {
        // g is dangling (no route to an output).
        let mut b = CircuitBuilder::new("dang");
        let a = b.input("a");
        let g = b.gate("g", GateKind::Not, &[a]).unwrap();
        let _ = g;
        let y = b.gate("y", GateKind::Buf, &[a]).unwrap();
        b.output(y);
        let c = b.finish().unwrap();
        let t = CircuitTiming::from_means(vec![1.0, 1.0], VariationModel::none());
        // edge 0 is a->g (dangling sink).
        let err = k_longest_through_edge(&c, &t, EdgeId::from_index(0), 3).unwrap_err();
        assert!(matches!(err, TimingError::NoPath { .. }));
    }

    #[test]
    fn k_zero_returns_empty() {
        let (c, t) = diamond();
        assert!(k_longest_through_edge(&c, &t, EdgeId::from_index(0), 0)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn bad_edge_rejected() {
        let (c, t) = diamond();
        assert_eq!(
            k_longest_through_edge(&c, &t, EdgeId::from_index(99), 1).unwrap_err(),
            TimingError::NoSuchEdge(99)
        );
    }

    #[test]
    fn deep_k_longest_is_consistent() {
        use crate::CellLibrary;
        use sdd_netlist::generator::{generate, GeneratorConfig};
        let c = generate(&GeneratorConfig::small("kl", 13))
            .unwrap()
            .to_combinational()
            .unwrap();
        let t =
            CircuitTiming::characterize(&c, &CellLibrary::default_025um(), VariationModel::none());
        for eid in c.edge_ids().take(20) {
            let Ok(paths) = k_longest_through_edge(&c, &t, eid, 4) else {
                continue;
            };
            for w in paths.windows(2) {
                assert!(w[0].mean_length(&t) >= w[1].mean_length(&t) - 1e-12);
            }
            for p in &paths {
                assert!(p.contains_edge(eid));
                // Path is structurally connected.
                for (pair, &e) in p.nodes().windows(2).zip(p.edges()) {
                    assert_eq!(circuit_edge(&c, e), (pair[0], pair[1]));
                }
                // Ends at a primary output.
                assert!(c.primary_outputs().contains(&p.sink()));
            }
        }
    }

    fn circuit_edge(c: &Circuit, e: EdgeId) -> (NodeId, NodeId) {
        let edge = c.edge(e);
        (edge.from(), edge.to())
    }

    #[test]
    #[should_panic(expected = "one fewer edge")]
    fn inconsistent_path_panics() {
        Path::new(vec![NodeId::from_index(0)], vec![EdgeId::from_index(0)]);
    }
}
