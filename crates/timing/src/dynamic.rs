//! Dynamic (per-pattern) timing simulation over the sensitized subcircuit.
//!
//! Dynamic timing simulation (Definition D.5) computes arrival times only
//! for signals that actually *switch* under a two-vector test pattern —
//! the induced circuit `Induced(Path_v)` of Definition D.3. This module
//! implements the standard transition-mode approximation: a switching
//! node's arrival is the latest arrival over its switching fanins plus the
//! arc delay; non-switching nodes carry no event ([`NO_EVENT`]).
//!
//! For defect-injected re-analysis, [`DefectCone`] recomputes only the
//! fanout cone of the defective arc against cached baseline arrivals,
//! which is what makes probabilistic-dictionary construction tractable
//! (hundreds of suspects × tens of patterns × hundreds of Monte-Carlo
//! samples).
//!
//! The glitch-exact engine lives in [`crate::waveform`]; see the
//! `engine_consistency` integration tests for the relationship between
//! the two.

use crate::{InstanceBatch, TimingInstance};
use sdd_netlist::logic::Transition;
use sdd_netlist::{Circuit, ConeView, EdgeId, GateKind, NodeId, EXTERNAL};

/// Arrival-time marker for a node with no event under the pattern.
pub const NO_EVENT: f64 = f64::NEG_INFINITY;

/// Computes per-node transition arrival times for one pattern (described
/// by its per-node [`Transition`] classification, from
/// [`sdd_netlist::logic::simulate_pair`]) on one fixed chip instance.
///
/// Switching primary inputs launch at time 0; a switching gate arrives at
/// `max over switching fanins (arrival + arc delay)`; non-switching nodes
/// get [`NO_EVENT`].
///
/// # Panics
///
/// Panics if the circuit is sequential or `transitions.len()` mismatches.
pub fn transition_arrivals(
    circuit: &Circuit,
    transitions: &[Transition],
    instance: &TimingInstance,
) -> Vec<f64> {
    assert!(
        circuit.is_combinational(),
        "dynamic timing requires a combinational circuit"
    );
    assert_eq!(
        transitions.len(),
        circuit.num_nodes(),
        "transition table length mismatch"
    );
    let mut arr = vec![NO_EVENT; circuit.num_nodes()];
    for &id in circuit.topo_order() {
        if !transitions[id.index()].is_event() {
            continue;
        }
        let node = circuit.node(id);
        if node.kind() == GateKind::Input {
            arr[id.index()] = 0.0;
            continue;
        }
        arr[id.index()] = gate_arrival(node.fanins(), node.fanin_edges(), &arr, instance);
    }
    arr
}

/// Poison-tracking variant of [`transition_arrivals`] for instances
/// carrying non-finite delays (corrupt timing data).
///
/// The fast walks silently swallow a NaN candidate (`NaN > best` is
/// false), so a NaN delay on an exercised arc degrades to [`NO_EVENT`]
/// and would read as *pass* at any clock — fail-open. This walk instead
/// poisons a node's arrival to NaN when any *switching* fanin arc
/// carries a non-finite delay, or when a switching fanin is itself
/// poisoned; non-switching fanins still propagate nothing (their delay
/// is never exercised). Clock-edge capture treats a NaN arrival as fail.
///
/// On an all-finite instance this is exactly [`transition_arrivals`];
/// the observe path only dispatches here when
/// `instance.delays()` contains a non-finite value, keeping the hot
/// path branchless.
///
/// # Panics
///
/// Panics if the circuit is sequential or `transitions.len()` mismatches.
pub fn transition_arrivals_fail_closed(
    circuit: &Circuit,
    transitions: &[Transition],
    instance: &TimingInstance,
) -> Vec<f64> {
    assert!(
        circuit.is_combinational(),
        "dynamic timing requires a combinational circuit"
    );
    assert_eq!(
        transitions.len(),
        circuit.num_nodes(),
        "transition table length mismatch"
    );
    let mut arr = vec![NO_EVENT; circuit.num_nodes()];
    for &id in circuit.topo_order() {
        if !transitions[id.index()].is_event() {
            continue;
        }
        let node = circuit.node(id);
        if node.kind() == GateKind::Input {
            arr[id.index()] = 0.0;
            continue;
        }
        let mut best = NO_EVENT;
        let mut poisoned = false;
        for (&from, &e) in node.fanins().iter().zip(node.fanin_edges()) {
            let upstream = arr[from.index()];
            if upstream == NO_EVENT {
                continue;
            }
            let d = instance.delay(e);
            if upstream.is_nan() || !d.is_finite() {
                poisoned = true;
                continue;
            }
            let cand = upstream + d;
            if cand > best {
                best = cand;
            }
        }
        arr[id.index()] = if poisoned { f64::NAN } else { best };
    }
    arr
}

#[inline]
fn gate_arrival(
    fanins: &[NodeId],
    fanin_edges: &[EdgeId],
    arr: &[f64],
    instance: &TimingInstance,
) -> f64 {
    let mut best = NO_EVENT;
    for (&from, &e) in fanins.iter().zip(fanin_edges) {
        let upstream = arr[from.index()];
        if upstream == NO_EVENT {
            continue;
        }
        let cand = upstream + instance.delay(e);
        if cand > best {
            best = cand;
        }
    }
    best
}

/// Computes per-node transition arrival times for one pattern across a
/// whole [`InstanceBatch`] of chip instances in one pass.
///
/// Returns the node-major, sample-contiguous arrival matrix
/// `arr[node.index() * n_samples + s]` — the batched counterpart of the
/// vector [`transition_arrivals`] returns, and bit-identical to running
/// that function once per sample: each sample sees the same sequence of
/// add/max operations, only the loop nest is interchanged.
///
/// # Panics
///
/// Panics if the circuit is sequential or `transitions.len()` mismatches.
pub fn transition_arrivals_batch(
    circuit: &Circuit,
    transitions: &[Transition],
    batch: &InstanceBatch,
) -> Vec<f64> {
    assert!(
        circuit.is_combinational(),
        "dynamic timing requires a combinational circuit"
    );
    assert_eq!(
        transitions.len(),
        circuit.num_nodes(),
        "transition table length mismatch"
    );
    // The arcs the walk reads: both ends switch.
    batch.draw_rows(circuit.topo_order().iter().flat_map(|&id| {
        let node = circuit.node(id);
        let reads = transitions[id.index()].is_event() && node.kind() != GateKind::Input;
        node.fanins()
            .iter()
            .zip(node.fanin_edges())
            .filter(move |(from, _)| reads && transitions[from.index()].is_event())
            .map(|(_, &e)| e)
    }));
    let n = batch.n_samples();
    let mut arr = vec![NO_EVENT; circuit.num_nodes() * n];
    // Node indices are not topologically ordered, so a node's row and a
    // fanin's row cannot be split borrow-wise; accumulate into a scratch
    // row and copy it into place.
    let mut row = vec![NO_EVENT; n];
    for &id in circuit.topo_order() {
        if !transitions[id.index()].is_event() {
            continue;
        }
        let node = circuit.node(id);
        if node.kind() == GateKind::Input {
            arr[id.index() * n..(id.index() + 1) * n].fill(0.0);
            continue;
        }
        row.fill(NO_EVENT);
        for (&from, &e) in node.fanins().iter().zip(node.fanin_edges()) {
            // A fanin without an event has an all-NO_EVENT row, which
            // changes nothing: skip it before its delays are fetched (a
            // sampled batch draws a row on first read).
            if !transitions[from.index()].is_event() {
                continue;
            }
            let ups = &arr[from.index() * n..(from.index() + 1) * n];
            let ds = batch.edge_delays(e);
            for s in 0..n {
                let upstream = ups[s];
                if upstream == NO_EVENT {
                    continue;
                }
                let cand = upstream + ds[s];
                if cand > row[s] {
                    row[s] = cand;
                }
            }
        }
        arr[id.index() * n..(id.index() + 1) * n].copy_from_slice(&row);
    }
    arr
}

/// Number of pattern lanes per inner-loop step of
/// [`transition_arrivals_patterns`]. Rows are padded to a multiple of
/// this width so every inner loop is a fixed-width, unit-stride pass —
/// the shape autovectorizers reliably turn into SIMD, mirroring the
/// sample lanes of [`InstanceBatch`].
pub const PATTERN_LANES: usize = 8;

/// Row stride (in `f64` slots) used by [`transition_arrivals_patterns`]
/// for `n_patterns` patterns: the pattern count rounded up to a whole
/// number of [`PATTERN_LANES`]-wide lanes.
pub fn pattern_stride(n_patterns: usize) -> usize {
    n_patterns.div_ceil(PATTERN_LANES).max(1) * PATTERN_LANES
}

/// Computes per-node transition arrival times for *every* pattern of a
/// test set through one topology walk on one fixed chip instance — the
/// pattern-major counterpart of [`transition_arrivals_batch`]'s
/// sample-major walk.
///
/// Returns the node-major, pattern-contiguous arrival matrix
/// `arr[node.index() * pattern_stride(p) + j]` for pattern `j`; padding
/// lanes (`j >= transitions.len()`) hold [`NO_EVENT`].
///
/// Bit-identity with the scalar walk: the inner loop is branchless per
/// lane (`cand = upstream + d; if cand > best { best = cand }`) where the
/// scalar [`transition_arrivals`] explicitly skips fanins with no event.
/// The two accept exactly the same updates: a [`NO_EVENT`] upstream
/// yields a candidate of `-∞` (or NaN when `d` is `+∞` or NaN), and
/// neither ever satisfies the strict `>`, so skipping and computing are
/// indistinguishable — each lane sees the same sequence of accepted
/// float operations as its own scalar run, including on NaN-poisoned
/// instances.
///
/// # Panics
///
/// Panics if the circuit is sequential or any transition table length
/// mismatches.
pub fn transition_arrivals_patterns(
    circuit: &Circuit,
    transitions: &[Vec<Transition>],
    instance: &TimingInstance,
) -> Vec<f64> {
    assert!(
        circuit.is_combinational(),
        "dynamic timing requires a combinational circuit"
    );
    for t in transitions {
        assert_eq!(
            t.len(),
            circuit.num_nodes(),
            "transition table length mismatch"
        );
    }
    let p = transitions.len();
    let stride = pattern_stride(p);
    let mut arr = vec![NO_EVENT; circuit.num_nodes() * stride];
    if p == 0 {
        return arr;
    }
    let mut row = vec![NO_EVENT; stride];
    for &id in circuit.topo_order() {
        let ix = id.index();
        let node = circuit.node(id);
        if node.kind() == GateKind::Input {
            let out = &mut arr[ix * stride..(ix + 1) * stride];
            for (j, t) in transitions.iter().enumerate() {
                if t[ix].is_event() {
                    out[j] = 0.0;
                }
            }
            continue;
        }
        // A node no pattern switches keeps its all-NO_EVENT row; skipping
        // it entirely preserves bit-identity (the scalar walk never
        // touches it either).
        if !transitions.iter().any(|t| t[ix].is_event()) {
            continue;
        }
        row.fill(NO_EVENT);
        for (&from, &e) in node.fanins().iter().zip(node.fanin_edges()) {
            let d = instance.delay(e);
            let ups = &arr[from.index() * stride..(from.index() + 1) * stride];
            for (rc, uc) in row
                .chunks_exact_mut(PATTERN_LANES)
                .zip(ups.chunks_exact(PATTERN_LANES))
            {
                for l in 0..PATTERN_LANES {
                    let cand = uc[l] + d;
                    if cand > rc[l] {
                        rc[l] = cand;
                    }
                }
            }
        }
        // Mask at write time: only lanes whose pattern actually switches
        // this node carry an event; padding and non-switching lanes stay
        // NO_EVENT exactly as in the scalar walk.
        let out = &mut arr[ix * stride..(ix + 1) * stride];
        for (j, t) in transitions.iter().enumerate() {
            if t[ix].is_event() {
                out[j] = row[j];
            }
        }
    }
    arr
}

/// Extracts the per-output arrival times (in primary-output order) from a
/// full arrival table.
pub fn output_arrivals(circuit: &Circuit, arrivals: &[f64]) -> Vec<f64> {
    circuit
        .primary_outputs()
        .iter()
        .map(|o| arrivals[o.index()])
        .collect()
}

/// Incremental re-evaluator for a delay defect on one arc.
///
/// Construction extracts the [`ConeView`] of the arc's sink — the
/// topologically ordered induced fanout cone with cone-local arc
/// renumbering — in one scan of the cone's topological span.
/// Given baseline (defect-free) arrivals for a pattern and instance,
/// [`DefectCone::apply`] recomputes only cone nodes with the defect's
/// extra delay applied, writing into a cone-sized scratch buffer.
#[derive(Debug, Clone)]
pub struct DefectCone {
    edge: EdgeId,
    view: ConeView,
    reachable_outputs: Vec<usize>,
}

impl DefectCone {
    /// Builds the cone for a defect on `edge` (see
    /// [`Circuit::cone_view`] for the cost).
    pub fn new(circuit: &Circuit, edge: EdgeId) -> DefectCone {
        let sink = circuit.edge(edge).to();
        let view = circuit.cone_view(sink);
        let reachable_outputs = view.output_slots().iter().map(|&(p, _)| p).collect();
        DefectCone {
            edge,
            view,
            reachable_outputs,
        }
    }

    /// The defective arc.
    pub fn edge(&self) -> EdgeId {
        self.edge
    }

    /// The underlying cone view (topologically ordered induced cone with
    /// cone-local arc renumbering); exposed for [`crate::analytic`],
    /// which replays the same induced-cone walk on moments instead of
    /// samples.
    pub fn view(&self) -> &ConeView {
        &self.view
    }

    /// The cone's nodes in topological order (the walk order of
    /// [`DefectCone::apply`]).
    pub fn cone_topo(&self) -> &[NodeId] {
        self.view.nodes()
    }

    /// The cone-local slot of `node`, or `None` if the node is outside
    /// the cone (its arrival is never touched by this defect).
    pub fn slot_of(&self, circuit: &Circuit, node: NodeId) -> Option<usize> {
        self.view.slot_of_in(circuit, node)
    }

    /// Number of nodes in the cone.
    pub fn len(&self) -> usize {
        self.view.len()
    }

    /// Returns `true` if the cone is empty (cannot happen for a valid arc).
    pub fn is_empty(&self) -> bool {
        self.view.is_empty()
    }

    /// Positions (in [`Circuit::primary_outputs`] order) of the outputs
    /// reachable from the defect site. Outputs not listed here are
    /// provably unaffected by the defect: their error probabilities equal
    /// the defect-free baseline.
    pub fn reachable_outputs(&self) -> &[usize] {
        &self.reachable_outputs
    }

    /// Recomputes arrivals of cone nodes with `delta` extra delay on the
    /// defective arc, then returns the arrival at each reachable output
    /// (in the order of [`DefectCone::reachable_outputs`]).
    ///
    /// `baseline` must be the defect-free arrival table for the same
    /// pattern and instance (from [`transition_arrivals`]); `scratch` is
    /// a reusable buffer, resized to the cone length (slot-indexed) and
    /// overwritten — per-suspect work and memory both scale with the
    /// cone, not the circuit.
    ///
    /// # Panics
    ///
    /// Panics if `baseline` mismatches the circuit.
    #[allow(clippy::too_many_arguments)]
    pub fn apply(
        &self,
        circuit: &Circuit,
        transitions: &[Transition],
        instance: &TimingInstance,
        baseline: &[f64],
        delta: f64,
        scratch: &mut Vec<f64>,
        out: &mut Vec<f64>,
    ) {
        assert_eq!(
            baseline.len(),
            circuit.num_nodes(),
            "baseline length mismatch"
        );
        let view = &self.view;
        scratch.clear();
        scratch.resize(view.len(), NO_EVENT);
        let arc_slots = view.arc_slots();
        let arc_sources = view.arc_sources();
        let arc_edges = view.arc_edges();
        for (slot, &id) in view.nodes().iter().enumerate() {
            if !transitions[id.index()].is_event() {
                scratch[slot] = NO_EVENT;
                continue;
            }
            if circuit.node(id).kind() == GateKind::Input {
                scratch[slot] = 0.0;
                continue;
            }
            let mut best = NO_EVENT;
            for k in view.arc_range(slot) {
                let fs = arc_slots[k];
                let upstream = if fs != EXTERNAL {
                    scratch[fs as usize]
                } else {
                    baseline[arc_sources[k].index()]
                };
                if upstream == NO_EVENT {
                    continue;
                }
                let e = arc_edges[k];
                let mut d = instance.delay(e);
                if e == self.edge {
                    d += delta;
                }
                let cand = upstream + d;
                if cand > best {
                    best = cand;
                }
            }
            scratch[slot] = best;
        }
        out.clear();
        out.extend(
            view.output_slots()
                .iter()
                .map(|&(_, slot)| scratch[slot as usize]),
        );
    }

    /// Whether the defective arc is exercised under the pattern: both its
    /// source and its sink switch. Otherwise the walk never reads the
    /// defect's delay (the sink carries no event, or the arc's upstream
    /// row is all [`NO_EVENT`]), so every cone row equals the
    /// defect-free baseline.
    fn is_exercised(&self, circuit: &Circuit, transitions: &[Transition]) -> bool {
        let arc = circuit.edge(self.edge);
        transitions[arc.from().index()].is_event() && transitions[arc.to().index()].is_event()
    }

    /// Whether no sample's verdict at any reachable output can differ
    /// from the baseline under these per-sample defect sizes (see
    /// `BaselineOutputs::settled`). A negative or NaN size settles
    /// nothing.
    fn settled(&self, outputs: &BaselineOutputs, deltas: &[f64]) -> bool {
        let mut delta_max = 0.0f64;
        for &d in deltas {
            if d.is_nan() || d < 0.0 {
                return false;
            }
            delta_max = delta_max.max(d);
        }
        self.reachable_outputs
            .iter()
            .all(|&p| outputs.settled(p, delta_max))
    }

    /// Fused multi-suspect, sample-major counterpart of
    /// [`DefectCone::apply`]: evaluates every suspect in `group` over
    /// every sample of an [`InstanceBatch`], tests each reachable output
    /// against the cut-off period of `outputs`, and calls `on_fail(member,
    /// sample, slot)` for every sample whose arrival at reachable-output
    /// slot `slot` strictly exceeds it. Returns the number of members
    /// that walked their cone.
    ///
    /// All cones in `group` must share the same sink node (defects on
    /// different input arcs of one gate), and therefore the same
    /// [`ConeView`]; the walk runs on `group[0]`'s view, paying the
    /// per-node transition lookups, arc dereferences and delay-slice
    /// fetches once for the whole group.
    ///
    /// The walk is pruned but exact — the callbacks are the ones a full
    /// recomputation of every member gives (DESIGN.md §4.4):
    ///
    /// * a member whose arc is not exercised (its source or its sink does
    ///   not switch) is the baseline: its fails are read from `outputs`,
    ///   and `draw_deltas` is never called for it;
    /// * a member whose largest defect size cannot move a passing sample
    ///   of any reachable output across the clock, allowing for rounding,
    ///   cannot flip a verdict, so it too reports the baseline's fails
    ///   without a walk;
    /// * the remaining members walk, but a slot other than the sink
    ///   whose in-cone fanins all equal the baseline reads the baseline
    ///   row, and a computed row that comes out bitwise equal to the
    ///   baseline stops propagating.
    ///
    /// Per (member, sample) lane the arithmetic of every computed row is
    /// the operation sequence of [`DefectCone::apply`].
    ///
    /// * `baseline` — the defect-free arrival matrix for the same pattern
    ///   and batch, from [`transition_arrivals_batch`] (node-major,
    ///   sample-contiguous).
    /// * `outputs` — the [`BaselineOutputs`] of that matrix at the
    ///   cut-off period.
    /// * `draw_deltas(member, sizes)` fills one member's defect size per
    ///   sample (`sizes.len() == n_samples`).
    ///
    /// # Panics
    ///
    /// Panics if `group` is empty, the cones disagree on the sink, or
    /// `baseline` mismatches the circuit/batch shape.
    #[allow(clippy::too_many_arguments)]
    pub fn apply_batch_fused(
        group: &[&DefectCone],
        circuit: &Circuit,
        transitions: &[Transition],
        batch: &InstanceBatch,
        baseline: &[f64],
        outputs: &BaselineOutputs,
        mut draw_deltas: impl FnMut(usize, &mut [f64]),
        scratch: &mut FusedScratch,
        mut on_fail: impl FnMut(usize, usize, usize),
    ) -> usize {
        let lead = check_group(group, circuit);
        let n = batch.n_samples();
        assert_eq!(
            baseline.len(),
            circuit.num_nodes() * n,
            "baseline matrix shape mismatch"
        );
        let FusedScratch {
            rows,
            same,
            deltas,
            walked,
        } = scratch;
        walked.clear();
        deltas.clear();
        // The window test's rounding bound needs non-negative path terms.
        let window = !batch.has_negative_delay();
        for (g, cone) in group.iter().enumerate() {
            if cone.is_exercised(circuit, transitions) {
                let start = deltas.len();
                deltas.resize(start + n, 0.0);
                draw_deltas(g, &mut deltas[start..]);
                if !(window && cone.settled(outputs, &deltas[start..])) {
                    walked.push(g);
                    continue;
                }
                deltas.truncate(start);
            }
            for (k, &p) in cone.reachable_outputs.iter().enumerate() {
                for &s in outputs.fails(p) {
                    on_fail(g, s as usize, k);
                }
            }
        }
        let nw = walked.len();
        if nw == 0 {
            return 0;
        }

        let view = &lead.view;
        let arc_slots = view.arc_slots();
        let arc_sources = view.arc_sources();
        let arc_edges = view.arc_edges();
        let width = nw * n;
        // Every row is filled before it is read, so stale contents need
        // no clearing.
        if rows.len() < view.len() * width {
            rows.resize(view.len() * width, NO_EVENT);
        }
        // `same[slot * nw + w]`: walked member `w`'s row at `slot` is the
        // baseline row (then `rows` holds nothing for it).
        same.clear();
        same.resize(view.len() * nw, true);
        for (slot, &id) in view.nodes().iter().enumerate() {
            if !transitions[id.index()].is_event() || circuit.node(id).kind() == GateKind::Input {
                continue; // the baseline's NO_EVENT / 0.0 row
            }
            let arcs = view.arc_range(slot);
            let flags = slot * nw;
            // Slot 0 is the shared sink, the only slot holding a defect
            // arc. Elsewhere a member whose in-cone fanins all equal the
            // baseline computes exactly the baseline row.
            let mut any = false;
            for w in 0..nw {
                let fresh = slot == 0
                    || arcs.clone().any(|k| {
                        let fs = arc_slots[k];
                        fs != EXTERNAL && !same[fs as usize * nw + w]
                    });
                same[flags + w] = !fresh;
                any |= fresh;
            }
            if !any {
                continue;
            }
            let (earlier, rest) = rows.split_at_mut(slot * width);
            let cur = &mut rest[..width];
            for w in 0..nw {
                if !same[flags + w] {
                    cur[w * n..(w + 1) * n].fill(NO_EVENT);
                }
            }
            for k in arcs {
                let from = arc_sources[k].index();
                // Without an event at the source, the arc's upstream rows
                // (baseline and walked alike) are all NO_EVENT: skip it
                // before its delays are fetched.
                if !transitions[from].is_event() {
                    continue;
                }
                let fs = arc_slots[k];
                let e = arc_edges[k];
                let ds = batch.edge_delays(e);
                let base_ups = &baseline[from * n..(from + 1) * n];
                for w in 0..nw {
                    if same[flags + w] {
                        continue;
                    }
                    let ups: &[f64] = if fs != EXTERNAL && !same[fs as usize * nw + w] {
                        let base = (fs as usize * nw + w) * n;
                        &earlier[base..base + n]
                    } else {
                        base_ups
                    };
                    let row = &mut cur[w * n..(w + 1) * n];
                    if e == group[walked[w]].edge {
                        relax_defective(row, ups, ds, &deltas[w * n..(w + 1) * n]);
                    } else {
                        relax(row, ups, ds);
                    }
                }
            }
            // A row bitwise equal to the baseline stops propagating.
            let base_row = &baseline[id.index() * n..(id.index() + 1) * n];
            for w in 0..nw {
                if !same[flags + w] {
                    same[flags + w] = bitwise_equal(&cur[w * n..(w + 1) * n], base_row);
                }
            }
        }
        let clk = outputs.clk;
        for (k, &(p, slot)) in view.output_slots().iter().enumerate() {
            let slot = slot as usize;
            for (w, &g) in walked.iter().enumerate() {
                if same[slot * nw + w] {
                    for &s in outputs.fails(p) {
                        on_fail(g, s as usize, k);
                    }
                    continue;
                }
                let row = &rows[(slot * nw + w) * n..(slot * nw + w + 1) * n];
                for (s, &arr) in row.iter().enumerate() {
                    if arr > clk {
                        on_fail(g, s, k);
                    }
                }
            }
        }
        nw
    }
}

/// The group's lead cone, after checking that every member shares its
/// sink node (and so its [`ConeView`]).
fn check_group<'a>(group: &[&'a DefectCone], circuit: &Circuit) -> &'a DefectCone {
    let lead = *group.first().expect("empty cone group");
    let sink = circuit.edge(lead.edge).to();
    // The sink precedes its whole fanout cone in topological order.
    debug_assert_eq!(lead.view.nodes()[0], sink);
    for c in group {
        assert_eq!(
            circuit.edge(c.edge).to(),
            sink,
            "fused cones must share a sink node"
        );
        debug_assert_eq!(c.view.nodes(), lead.view.nodes());
    }
    lead
}

/// One fanin arc's max-plus update of a cone row: `row[s] = max(row[s],
/// ups[s] + ds[s])` over the samples whose upstream carries an event —
/// the per-sample operation of [`DefectCone::apply`].
#[inline]
fn relax(row: &mut [f64], ups: &[f64], ds: &[f64]) {
    for ((r, &upstream), &d) in row.iter_mut().zip(ups).zip(ds) {
        if upstream == NO_EVENT {
            continue;
        }
        let cand = upstream + d;
        if cand > *r {
            *r = cand;
        }
    }
}

/// [`relax`] over the defective arc, whose delay carries the per-sample
/// defect size `dl[s]` (added to the arc delay first, as in
/// [`DefectCone::apply`]).
#[inline]
fn relax_defective(row: &mut [f64], ups: &[f64], ds: &[f64], dl: &[f64]) {
    for (((r, &upstream), &d), &extra) in row.iter_mut().zip(ups).zip(ds).zip(dl) {
        if upstream == NO_EVENT {
            continue;
        }
        let cand = upstream + (d + extra);
        if cand > *r {
            *r = cand;
        }
    }
}

fn bitwise_equal(a: &[f64], b: &[f64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// The largest value of `row` not above `cap` ([`NO_EVENT`] if none),
/// and whether `row` holds a NaN. Fixed-width lanes keep the reduction
/// branch-free and vectorizable, like the pattern lanes above.
fn lane_max(row: &[f64], cap: f64) -> (f64, bool) {
    let mut acc = [NO_EVENT; PATTERN_LANES];
    let mut nan = false;
    let chunks = row.chunks_exact(PATTERN_LANES);
    let tail = chunks.remainder();
    for chunk in chunks {
        for (a, &b) in acc.iter_mut().zip(chunk) {
            nan |= b.is_nan();
            let v = if b > cap { NO_EVENT } else { b };
            if v > *a {
                *a = v;
            }
        }
    }
    for (a, &b) in acc.iter_mut().zip(tail) {
        nan |= b.is_nan();
        let v = if b > cap { NO_EVENT } else { b };
        if v > *a {
            *a = v;
        }
    }
    (acc.into_iter().fold(NO_EVENT, f64::max), nan)
}

/// Reusable buffers of [`DefectCone::apply_batch_fused`], sized to the
/// members that actually walk; keep one per worker across groups and
/// patterns.
#[derive(Debug, Default)]
pub struct FusedScratch {
    /// Walked members' cone rows: slot-major, then member, then sample.
    rows: Vec<f64>,
    /// Per (slot, walked member): the row equals the baseline row.
    same: Vec<bool>,
    /// Walked members' defect sizes, member-major.
    deltas: Vec<f64>,
    /// Group positions of the walked members.
    walked: Vec<usize>,
}

/// The defect-free verdicts of one pattern at every primary output
/// against one cut-off period, in the sparse form the pruned defect-cone
/// walk reads: per output, the samples whose baseline arrival fails
/// (`arrival > clk`), and the largest arrival among switching samples
/// that pass.
///
/// Built once per pattern next to the baseline arrival matrix; every
/// suspect group of the pattern shares it.
#[derive(Debug, Clone)]
pub struct BaselineOutputs {
    clk: f64,
    /// `(2·depth + 4)·ε`, the relative rounding allowance of
    /// `BaselineOutputs::settled`.
    margin_scale: f64,
    /// CSR row offsets into `fail_samples`, one row per output.
    fail_offsets: Vec<u32>,
    fail_samples: Vec<u32>,
    /// Per output: the largest passing arrival of a switching sample
    /// ([`NO_EVENT`] when none passes; `+∞` after a NaN arrival, which
    /// never settles).
    max_pass: Vec<f64>,
}

impl BaselineOutputs {
    /// Summarizes the output rows of `baseline` (node-major,
    /// sample-contiguous, from [`transition_arrivals_batch`]) at `clk`.
    ///
    /// # Panics
    ///
    /// Panics if `baseline` mismatches the circuit/sample shape.
    pub fn new(circuit: &Circuit, baseline: &[f64], n_samples: usize, clk: f64) -> BaselineOutputs {
        assert_eq!(
            baseline.len(),
            circuit.num_nodes() * n_samples,
            "baseline matrix shape mismatch"
        );
        assert!(u32::try_from(n_samples).is_ok(), "sample count exceeds u32");
        let outputs = circuit.primary_outputs();
        let mut fail_offsets = Vec::with_capacity(outputs.len() + 1);
        fail_offsets.push(0u32);
        let mut fail_samples = Vec::new();
        let mut max_pass = Vec::with_capacity(outputs.len());
        for &o in outputs {
            let row = &baseline[o.index() * n_samples..(o.index() + 1) * n_samples];
            // Most outputs fail on no sample at all: one vectorizable max
            // pass covers them, and only the others are scanned again.
            let (mut pass, nan) = lane_max(row, f64::INFINITY);
            if pass > clk {
                for (s, &b) in row.iter().enumerate() {
                    if b > clk {
                        fail_samples.push(s as u32);
                    }
                }
                pass = lane_max(row, clk).0;
            }
            if nan {
                pass = f64::INFINITY;
            }
            fail_offsets.push(
                u32::try_from(fail_samples.len()).expect("fail count bounded by outputs × samples"),
            );
            max_pass.push(pass);
        }
        BaselineOutputs {
            clk,
            margin_scale: (2.0 * f64::from(circuit.depth()) + 4.0) * f64::EPSILON,
            fail_offsets,
            fail_samples,
            max_pass,
        }
    }

    /// The samples (ascending) whose baseline arrival at primary output
    /// `output` exceeds the cut-off period.
    pub fn fails(&self, output: usize) -> &[u32] {
        &self.fail_samples
            [self.fail_offsets[output] as usize..self.fail_offsets[output + 1] as usize]
    }

    /// Whether a defect of size at most `delta_max` (≥ 0) on any arc
    /// leaves every verdict at `output` as in the baseline.
    ///
    /// A failing sample keeps failing: with δ ≥ 0, `+` and `max` are
    /// monotone, so no defective arrival is below its baseline. A
    /// passing sample with baseline arrival `b` keeps passing when
    /// `b + δ + margin ≤ clk`: a defective arrival exceeds `b + δ` only
    /// by rounding along its path, which `margin = (2·depth + 4)·ε·(|clk|
    /// + δ)` bounds (DESIGN.md §4.4). The test runs on the largest
    /// passing arrival, and never produces NaN: with `clk = +∞` every
    /// output settles, with `clk = −∞` no switching sample passes.
    fn settled(&self, output: usize, delta_max: f64) -> bool {
        let pass = self.max_pass[output];
        pass == NO_EVENT
            || pass + delta_max + self.margin_scale * (self.clk.abs() + delta_max) <= self.clk
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CellLibrary, CircuitTiming, VariationModel};
    use sdd_netlist::generator::{generate, GeneratorConfig};
    use sdd_netlist::logic::simulate_pair;
    use sdd_netlist::{CircuitBuilder, GateKind};

    fn reconv() -> (Circuit, CircuitTiming) {
        // y = AND(BUF(a), NOT(c)); arcs: a->g1 (1.0), c->g2 (2.0),
        // g1->y (0.5), g2->y (0.5)
        let mut b = CircuitBuilder::new("r");
        let a = b.input("a");
        let c = b.input("c");
        let g1 = b.gate("g1", GateKind::Buf, &[a]).unwrap();
        let g2 = b.gate("g2", GateKind::Not, &[c]).unwrap();
        let y = b.gate("y", GateKind::And, &[g1, g2]).unwrap();
        b.output(y);
        let circuit = b.finish().unwrap();
        let timing = CircuitTiming::from_means(vec![1.0, 2.0, 0.5, 0.5], VariationModel::none());
        (circuit, timing)
    }

    #[test]
    fn only_switching_nodes_get_events() {
        let (c, t) = reconv();
        // a rises (0->1), c stays 0: g1 rises, g2 stable 1, y rises.
        let trans = simulate_pair(&c, &[false, false], &[true, false]);
        let arr = transition_arrivals(&c, &trans, &t.nominal_instance());
        let g2 = c.find("g2").unwrap();
        assert_eq!(arr[g2.index()], NO_EVENT);
        let y = c.find("y").unwrap();
        assert!((arr[y.index()] - 1.5).abs() < 1e-12); // a->g1->y = 1.0 + 0.5
    }

    #[test]
    fn latest_switching_fanin_wins() {
        let (c, t) = reconv();
        // a rises and c falls: g1 rises (arr 1.0), g2 rises (arr 2.0),
        // y rises at max(1.0, 2.0) + 0.5 = 2.5.
        let trans = simulate_pair(&c, &[false, true], &[true, false]);
        let arr = transition_arrivals(&c, &trans, &t.nominal_instance());
        let y = c.find("y").unwrap();
        assert!((arr[y.index()] - 2.5).abs() < 1e-12);
    }

    #[test]
    fn defect_cone_matches_full_recompute() {
        let c = generate(&GeneratorConfig::small("dc", 8))
            .unwrap()
            .to_combinational()
            .unwrap();
        let t = CircuitTiming::characterize(
            &c,
            &CellLibrary::default_025um(),
            VariationModel::default(),
        );
        let instance = t.sample_instance_indexed(3, 0);
        let n_pi = c.primary_inputs().len();
        let v1 = vec![false; n_pi];
        let v2 = vec![true; n_pi];
        let trans = simulate_pair(&c, &v1, &v2);
        let baseline = transition_arrivals(&c, &trans, &instance);

        let mut scratch = vec![NO_EVENT; c.num_nodes()];
        let mut got = Vec::new();
        for eid in c.edge_ids().take(40) {
            let delta = 0.33;
            let cone = DefectCone::new(&c, eid);
            cone.apply(
                &c,
                &trans,
                &instance,
                &baseline,
                delta,
                &mut scratch,
                &mut got,
            );
            // Reference: full recompute on a defective instance.
            let defective = instance.with_extra_delay(eid, delta);
            let full = transition_arrivals(&c, &trans, &defective);
            let outputs = c.primary_outputs();
            for (k, &oi) in cone.reachable_outputs().iter().enumerate() {
                let want = full[outputs[oi].index()];
                assert!(
                    (got[k] - want).abs() < 1e-9 || (got[k] == NO_EVENT && want == NO_EVENT),
                    "edge {eid} output {oi}: cone {} vs full {}",
                    got[k],
                    want
                );
            }
            // Unreachable outputs must be untouched by the defect.
            for (oi, o) in outputs.iter().enumerate() {
                if !cone.reachable_outputs().contains(&oi) {
                    assert_eq!(full[o.index()], baseline[o.index()]);
                }
            }
        }
    }

    #[test]
    fn zero_delta_reproduces_baseline() {
        let (c, t) = reconv();
        let inst = t.nominal_instance();
        let trans = simulate_pair(&c, &[false, true], &[true, false]);
        let baseline = transition_arrivals(&c, &trans, &inst);
        let cone = DefectCone::new(&c, EdgeId::from_index(0));
        let mut scratch = vec![NO_EVENT; c.num_nodes()];
        let mut got = Vec::new();
        cone.apply(&c, &trans, &inst, &baseline, 0.0, &mut scratch, &mut got);
        let outputs = c.primary_outputs();
        for (k, &oi) in cone.reachable_outputs().iter().enumerate() {
            assert_eq!(got[k], baseline[outputs[oi].index()]);
        }
    }

    #[test]
    fn cone_reachable_outputs_are_correct() {
        let (c, _) = reconv();
        // Defect on arc a->g1: reaches y (the only output).
        let cone = DefectCone::new(&c, EdgeId::from_index(0));
        assert_eq!(cone.reachable_outputs(), &[0]);
        assert_eq!(cone.len(), 2); // g1, y
        assert!(!cone.is_empty());
    }

    /// Every arc of s1423 and two small generated circuits: a cone's
    /// reachable outputs are exactly the positions of
    /// `Circuit::reachable_outputs` from its sink, in output order.
    #[test]
    fn cone_scan_differential_defect_cone_reachable_outputs() {
        let s1423 = sdd_netlist::profiles::by_name("s1423").unwrap();
        let mut circuits = vec![sdd_netlist::generator::generate_combinational(&s1423, 1).unwrap()];
        for seed in 0..2 {
            circuits.push(
                generate(&GeneratorConfig::small("ro", seed))
                    .unwrap()
                    .to_combinational()
                    .unwrap(),
            );
        }
        for c in &circuits {
            for e in c.edge_ids() {
                let expected: Vec<usize> = c
                    .reachable_outputs(c.edge(e).to())
                    .iter()
                    .map(|&o| c.output_position(o).unwrap())
                    .collect();
                assert_eq!(
                    DefectCone::new(c, e).reachable_outputs(),
                    &expected[..],
                    "{} arc {e}",
                    c.name()
                );
            }
        }
    }

    #[test]
    fn batch_arrivals_match_scalar_bit_for_bit() {
        let c = generate(&GeneratorConfig::small("ba", 5))
            .unwrap()
            .to_combinational()
            .unwrap();
        let t = CircuitTiming::characterize(
            &c,
            &CellLibrary::default_025um(),
            VariationModel::default(),
        );
        let instances: Vec<_> = (0..7).map(|s| t.sample_instance_indexed(11, s)).collect();
        let batch = InstanceBatch::from_instances(&instances);
        let n_pi = c.primary_inputs().len();
        let trans = simulate_pair(&c, &vec![false; n_pi], &vec![true; n_pi]);
        let arr = transition_arrivals_batch(&c, &trans, &batch);
        for (s, inst) in instances.iter().enumerate() {
            let scalar = transition_arrivals(&c, &trans, inst);
            for (node, &want) in scalar.iter().enumerate() {
                assert_eq!(
                    arr[node * 7 + s].to_bits(),
                    want.to_bits(),
                    "node {node} sample {s}"
                );
            }
        }
    }

    #[test]
    fn batch_cone_fail_bits_match_scalar() {
        let c = generate(&GeneratorConfig::small("bc", 9))
            .unwrap()
            .to_combinational()
            .unwrap();
        let t = CircuitTiming::characterize(
            &c,
            &CellLibrary::default_025um(),
            VariationModel::default(),
        );
        let n = 9usize;
        let instances: Vec<_> = (0..n)
            .map(|s| t.sample_instance_indexed(4, s as u64))
            .collect();
        let batch = InstanceBatch::from_instances(&instances);
        let n_pi = c.primary_inputs().len();
        let trans = simulate_pair(&c, &vec![false; n_pi], &vec![true; n_pi]);
        let baseline_matrix = transition_arrivals_batch(&c, &trans, &batch);
        // A clk near the nominal upper tail so both outcomes occur.
        let clk = instances
            .iter()
            .map(|i| {
                transition_arrivals(&c, &trans, i)
                    .iter()
                    .copied()
                    .filter(|a| a.is_finite())
                    .fold(0.0f64, f64::max)
            })
            .sum::<f64>()
            / n as f64;
        let mut scratch_scalar = vec![NO_EVENT; c.num_nodes()];
        let mut out = Vec::new();
        for eid in c.edge_ids().take(30) {
            let cone = DefectCone::new(&c, eid);
            let deltas: Vec<f64> = (0..n).map(|s| 0.05 * (s as f64 + 1.0)).collect();
            let mut batched = vec![vec![false; cone.reachable_outputs().len()]; n];
            fused_oracle(
                &[&cone],
                &c,
                &trans,
                &batch,
                &baseline_matrix,
                &deltas,
                clk,
                |_, s, k| batched[s][k] = true,
            );
            for (s, inst) in instances.iter().enumerate() {
                let baseline = transition_arrivals(&c, &trans, inst);
                cone.apply(
                    &c,
                    &trans,
                    inst,
                    &baseline,
                    deltas[s],
                    &mut scratch_scalar,
                    &mut out,
                );
                for (k, &arr) in out.iter().enumerate() {
                    assert_eq!(
                        batched[s][k],
                        arr > clk,
                        "edge {eid} sample {s} slot {k}: batch {} vs scalar arrival {arr}",
                        batched[s][k]
                    );
                }
            }
        }
    }

    #[test]
    fn pattern_arrivals_match_scalar_bit_for_bit() {
        let c = generate(&GeneratorConfig::small("pa", 6))
            .unwrap()
            .to_combinational()
            .unwrap();
        let t = CircuitTiming::characterize(
            &c,
            &CellLibrary::default_025um(),
            VariationModel::default(),
        );
        let instance = t.sample_instance_indexed(17, 2);
        let n_pi = c.primary_inputs().len();
        // A pattern count deliberately not a multiple of PATTERN_LANES.
        let patterns: Vec<(Vec<bool>, Vec<bool>)> = (0..11)
            .map(|j| {
                let v1: Vec<bool> = (0..n_pi).map(|i| (i + j) % 3 == 0).collect();
                let v2: Vec<bool> = (0..n_pi).map(|i| (i * 7 + j) % 2 == 0).collect();
                (v1, v2)
            })
            .collect();
        let trans: Vec<Vec<Transition>> = patterns
            .iter()
            .map(|(v1, v2)| simulate_pair(&c, v1, v2))
            .collect();
        let stride = pattern_stride(trans.len());
        let arr = transition_arrivals_patterns(&c, &trans, &instance);
        for (j, tj) in trans.iter().enumerate() {
            let scalar = transition_arrivals(&c, tj, &instance);
            for (node, &want) in scalar.iter().enumerate() {
                assert_eq!(
                    arr[node * stride + j].to_bits(),
                    want.to_bits(),
                    "node {node} pattern {j}"
                );
            }
        }
        // Padding lanes carry no event.
        for node in 0..c.num_nodes() {
            for j in trans.len()..stride {
                assert_eq!(arr[node * stride + j], NO_EVENT);
            }
        }
    }

    #[test]
    fn pattern_arrivals_match_scalar_on_nan_poisoned_instance() {
        let c = generate(&GeneratorConfig::small("pn", 3))
            .unwrap()
            .to_combinational()
            .unwrap();
        let t = CircuitTiming::characterize(
            &c,
            &CellLibrary::default_025um(),
            VariationModel::default(),
        );
        let mut instance = t.sample_instance_indexed(5, 1);
        instance.set_delay(EdgeId::from_index(1), f64::NAN);
        instance.set_delay(EdgeId::from_index(3), f64::INFINITY);
        let n_pi = c.primary_inputs().len();
        let trans: Vec<Vec<Transition>> = (0..5)
            .map(|j| {
                let v1: Vec<bool> = (0..n_pi).map(|i| (i + j) % 2 == 0).collect();
                let v2: Vec<bool> = (0..n_pi).map(|_| true).collect();
                simulate_pair(&c, &v1, &v2)
            })
            .collect();
        let stride = pattern_stride(trans.len());
        let arr = transition_arrivals_patterns(&c, &trans, &instance);
        for (j, tj) in trans.iter().enumerate() {
            let scalar = transition_arrivals(&c, tj, &instance);
            for (node, &want) in scalar.iter().enumerate() {
                assert_eq!(
                    arr[node * stride + j].to_bits(),
                    want.to_bits(),
                    "node {node} pattern {j}"
                );
            }
        }
    }

    #[test]
    fn fused_cone_group_matches_one_member_groups() {
        let c = generate(&GeneratorConfig::small("fg", 13))
            .unwrap()
            .to_combinational()
            .unwrap();
        let t = CircuitTiming::characterize(
            &c,
            &CellLibrary::default_025um(),
            VariationModel::default(),
        );
        let n = 6usize;
        let instances: Vec<_> = (0..n)
            .map(|s| t.sample_instance_indexed(8, s as u64))
            .collect();
        let batch = InstanceBatch::from_instances(&instances);
        let n_pi = c.primary_inputs().len();
        let trans = simulate_pair(&c, &vec![false; n_pi], &vec![true; n_pi]);
        let baseline = transition_arrivals_batch(&c, &trans, &batch);
        let clk = baseline
            .iter()
            .copied()
            .filter(|a| a.is_finite())
            .fold(0.0f64, f64::max)
            * 0.6;
        let mut tested_multi = false;
        for cones in sink_groups(&c) {
            let refs: Vec<&DefectCone> = cones.iter().collect();
            if refs.len() > 1 {
                tested_multi = true;
            }
            let ng = refs.len();
            let deltas: Vec<f64> = (0..ng * n).map(|i| 0.02 * (i as f64 + 1.0)).collect();
            let width = cones[0].reachable_outputs().len();
            let mut fused = vec![vec![vec![false; width]; n]; ng];
            fused_oracle(
                &refs,
                &c,
                &trans,
                &batch,
                &baseline,
                &deltas,
                clk,
                |g, s, k| fused[g][s][k] = true,
            );
            for (g, cone) in cones.iter().enumerate() {
                let mut single = vec![vec![false; width]; n];
                fused_oracle(
                    &[cone],
                    &c,
                    &trans,
                    &batch,
                    &baseline,
                    &deltas[g * n..(g + 1) * n],
                    clk,
                    |_, s, k| single[s][k] = true,
                );
                assert_eq!(
                    fused[g],
                    single,
                    "cone {g} of sink group at {}",
                    cone.edge()
                );
            }
        }
        assert!(tested_multi, "generator produced no multi-fanin sinks");
    }

    #[test]
    fn stable_pattern_has_no_events() {
        let (c, t) = reconv();
        let trans = simulate_pair(&c, &[true, false], &[true, false]);
        let arr = transition_arrivals(&c, &trans, &t.nominal_instance());
        assert!(arr.iter().all(|&a| a == NO_EVENT));
        assert_eq!(output_arrivals(&c, &arr), vec![NO_EVENT]);
    }

    /// The unpruned fused walk: every member recomputes every switching
    /// cone slot for every sample. The differential oracle of the pruned
    /// [`DefectCone::apply_batch_fused`]; `deltas` is member-major.
    #[allow(clippy::too_many_arguments)]
    fn fused_oracle(
        group: &[&DefectCone],
        circuit: &Circuit,
        transitions: &[Transition],
        batch: &InstanceBatch,
        baseline: &[f64],
        deltas: &[f64],
        clk: f64,
        mut on_fail: impl FnMut(usize, usize, usize),
    ) {
        let lead = check_group(group, circuit);
        let n = batch.n_samples();
        let ng = group.len();
        assert_eq!(baseline.len(), circuit.num_nodes() * n);
        assert_eq!(deltas.len(), ng * n, "delta matrix shape mismatch");
        let view = &lead.view;
        let mut scratch = vec![NO_EVENT; view.len() * ng * n];
        for (slot, &id) in view.nodes().iter().enumerate() {
            let (earlier, rest) = scratch.split_at_mut(slot * ng * n);
            let rows = &mut rest[..ng * n];
            if !transitions[id.index()].is_event() {
                continue;
            }
            if circuit.node(id).kind() == GateKind::Input {
                rows.fill(0.0);
                continue;
            }
            for k in view.arc_range(slot) {
                let fs = view.arc_slots()[k];
                let e = view.arc_edges()[k];
                let ds = batch.edge_delays(e);
                for g in 0..ng {
                    let ups: &[f64] = if fs != EXTERNAL {
                        let base = (fs as usize * ng + g) * n;
                        &earlier[base..base + n]
                    } else {
                        let from = view.arc_sources()[k].index();
                        &baseline[from * n..(from + 1) * n]
                    };
                    let row = &mut rows[g * n..(g + 1) * n];
                    if e == group[g].edge {
                        relax_defective(row, ups, ds, &deltas[g * n..(g + 1) * n]);
                    } else {
                        relax(row, ups, ds);
                    }
                }
            }
        }
        for (k, &(_, slot)) in view.output_slots().iter().enumerate() {
            let slot = slot as usize;
            for g in 0..ng {
                let row = &scratch[(slot * ng + g) * n..(slot * ng + g + 1) * n];
                for (s, &arr) in row.iter().enumerate() {
                    if arr > clk {
                        on_fail(g, s, k);
                    }
                }
            }
        }
    }

    /// Every arc's defect cone, grouped by sink node (ascending), members
    /// in edge order.
    fn sink_groups(c: &Circuit) -> Vec<Vec<DefectCone>> {
        let mut by_sink: std::collections::BTreeMap<usize, Vec<DefectCone>> = Default::default();
        for eid in c.edge_ids() {
            by_sink
                .entry(c.edge(eid).to().index())
                .or_default()
                .push(DefectCone::new(c, eid));
        }
        by_sink.into_values().collect()
    }

    /// A defect size per (arc, sample).
    type DeltaFn<'a> = &'a dyn Fn(EdgeId, usize) -> f64;

    /// Walk counts of one differential pass: members that walked, and
    /// members in total.
    #[derive(Debug, Default, Clone, Copy)]
    struct Walks {
        walked: usize,
        members: usize,
    }

    impl std::ops::AddAssign for Walks {
        fn add_assign(&mut self, o: Walks) {
            self.walked += o.walked;
            self.members += o.members;
        }
    }

    /// Asserts that the pruned walk reports exactly the oracle's failing
    /// (member, sample, slot) cells, each once, on every sink group, with
    /// defect size `delta(arc, sample)`; and that it draws sizes for the
    /// exercised members only.
    fn assert_prune_matches_oracle(
        c: &Circuit,
        groups: &[Vec<DefectCone>],
        trans: &[Transition],
        batch: &InstanceBatch,
        clk: f64,
        delta: DeltaFn,
    ) -> Walks {
        let n = batch.n_samples();
        let baseline = transition_arrivals_batch(c, trans, batch);
        let outputs = BaselineOutputs::new(c, &baseline, n, clk);
        let mut scratch = FusedScratch::default();
        let mut walks = Walks::default();
        for cones in groups {
            let refs: Vec<&DefectCone> = cones.iter().collect();
            let deltas: Vec<f64> = cones
                .iter()
                .flat_map(|cone| (0..n).map(move |s| delta(cone.edge(), s)))
                .collect();
            // The pruned walk reads only rows the baseline walk drew (the
            // oracle below reads more).
            let drawn_rows = batch.drawn_rows();
            let mut got = std::collections::BTreeSet::new();
            let mut drawn = Vec::new();
            walks.walked += DefectCone::apply_batch_fused(
                &refs,
                c,
                trans,
                batch,
                &baseline,
                &outputs,
                |g, sizes| {
                    drawn.push(g);
                    sizes.copy_from_slice(&deltas[g * n..(g + 1) * n]);
                },
                &mut scratch,
                |g, s, k| assert!(got.insert((g, s, k)), "cell ({g}, {s}, {k}) reported twice"),
            );
            assert_eq!(batch.drawn_rows(), drawn_rows, "the pruned walk drew a row");
            let mut want = std::collections::BTreeSet::new();
            fused_oracle(
                &refs,
                c,
                trans,
                batch,
                &baseline,
                &deltas,
                clk,
                |g, s, k| {
                    want.insert((g, s, k));
                },
            );
            walks.members += cones.len();
            assert_eq!(
                got,
                want,
                "sink group of arc {} at clk {clk} ({n} samples)",
                cones[0].edge()
            );
            let exercised: Vec<usize> = (0..cones.len())
                .filter(|&g| cones[g].is_exercised(c, trans))
                .collect();
            assert_eq!(
                drawn,
                exercised,
                "draws of sink group of arc {}",
                cones[0].edge()
            );
        }
        walks
    }

    /// A generated circuit big enough for multi-member sink groups and
    /// reconvergent cones.
    fn prune_circuit(seed: u64) -> (Circuit, CircuitTiming, Vec<Vec<DefectCone>>) {
        let c = generate(&GeneratorConfig {
            name: format!("cp{seed}"),
            inputs: 12,
            outputs: 8,
            dffs: 6,
            gates: 160,
            depth: 12,
            seed,
        })
        .unwrap()
        .to_combinational()
        .unwrap();
        let t = CircuitTiming::characterize(
            &c,
            &CellLibrary::default_025um(),
            VariationModel::default(),
        );
        let groups = sink_groups(&c);
        assert!(
            groups.iter().any(|g| g.len() > 1),
            "no multi-member sink group"
        );
        (c, t, groups)
    }

    /// Pattern `j` of a seeded random two-vector stream.
    fn random_pattern(c: &Circuit, seed: u64, j: u64) -> Vec<Transition> {
        use rand::{RngCore, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(j));
        let n_pi = c.primary_inputs().len();
        let v1: Vec<bool> = (0..n_pi).map(|_| rng.next_u64() & 1 == 1).collect();
        let v2: Vec<bool> = (0..n_pi).map(|_| rng.next_u64() & 1 == 1).collect();
        simulate_pair(c, &v1, &v2)
    }

    /// The switching output arrivals of a baseline matrix, sorted.
    fn output_arrivals_sorted(c: &Circuit, baseline: &[f64], n: usize) -> Vec<f64> {
        let mut v: Vec<f64> = c
            .primary_outputs()
            .iter()
            .flat_map(|o| baseline[o.index() * n..(o.index() + 1) * n].iter().copied())
            .filter(|a| a.is_finite())
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    fn quantile(sorted: &[f64], q: f64) -> f64 {
        sorted[((sorted.len() - 1) as f64 * q).round() as usize]
    }

    /// A keyed normal defect size (mean 0.3 ns, σ 0.2 ns, clamped at
    /// zero like the dictionary's draws).
    fn normal_delta(seed: u64, edge: EdgeId, s: usize) -> f64 {
        use rand::SeedableRng;
        let mut rng =
            rand_chacha::ChaCha8Rng::seed_from_u64(seed ^ ((edge.index() as u64) << 20) ^ s as u64);
        crate::Dist::Normal {
            mean: 0.3,
            std: 0.2,
        }
        .sample(&mut rng)
        .max(0.0)
    }

    #[test]
    fn lazy_sample_differential_walk_draws_only_switching_arcs() {
        let (c, t, _) = prune_circuit(8);
        let n = 9;
        let reference = InstanceBatch::from_instances(
            &(0..n)
                .map(|s| t.sample_instance_indexed(8, 3 + s as u64))
                .collect::<Vec<_>>(),
        );
        for j in 0..4 {
            let trans = random_pattern(&c, 8, j);
            let batch = t.sample_instance_batch(8, 3, n);
            let arr = transition_arrivals_batch(&c, &trans, &batch);
            let want = transition_arrivals_batch(&c, &trans, &reference);
            assert!(arr
                .iter()
                .zip(&want)
                .all(|(a, b)| a.to_bits() == b.to_bits()));
            let switching = c
                .edge_ids()
                .filter(|&e| {
                    let arc = c.edge(e);
                    let gate = c.node(arc.to()).kind() != GateKind::Input;
                    gate && trans[arc.from().index()].is_event()
                        && trans[arc.to().index()].is_event()
                })
                .count();
            assert!(switching > 0 && switching < c.num_edges());
            assert_eq!(batch.drawn_rows(), switching, "pattern {j}");
        }
    }

    #[test]
    fn cone_prune_differential_sample_counts() {
        let mut total = Walks::default();
        for seed in [1u64, 2] {
            let (c, t, groups) = prune_circuit(seed);
            for n in [1usize, 7, 64, 200] {
                let batch = t.sample_instance_batch(seed, 0, n);
                for j in 0..2 {
                    let trans = random_pattern(&c, seed, j);
                    let base = transition_arrivals_batch(&c, &trans, &batch);
                    let arrivals = output_arrivals_sorted(&c, &base, n);
                    for q in [0.5, 0.9, 0.99] {
                        let clk = quantile(&arrivals, q);
                        total += assert_prune_matches_oracle(
                            &c,
                            &groups,
                            &trans,
                            &batch,
                            clk,
                            &|e, s| normal_delta(seed + j, e, s),
                        );
                    }
                }
            }
        }
        // The suite must exercise both the pruned and the walked paths.
        assert!(total.walked > 0, "nothing walked: {total:?}");
        assert!(total.walked < total.members, "nothing pruned: {total:?}");
    }

    #[test]
    fn cone_prune_differential_clock_and_delta_edges() {
        let (c, t, groups) = prune_circuit(3);
        let n = 64;
        let batch = t.sample_instance_batch(3, 0, n);
        let trans = random_pattern(&c, 3, 0);
        let base = transition_arrivals_batch(&c, &trans, &batch);
        let arrivals = output_arrivals_sorted(&c, &base, n);
        let mut clks = vec![f64::NEG_INFINITY, 0.0, f64::INFINITY];
        // Clocks exactly on a baseline arrival: that sample passes by
        // the narrowest possible margin.
        clks.extend([0.25, 0.5, 0.75, 0.9, 1.0].map(|q| quantile(&arrivals, q)));
        let ulp = |e: EdgeId, s: usize| {
            let d = batch.edge_delays(e)[s];
            d.next_up() - d
        };
        let deltas: [(&str, DeltaFn); 5] = [
            ("zero", &|_, _| 0.0),
            ("one ulp of the arc delay", &ulp),
            ("smallest subnormal", &|_, _| f64::from_bits(1)),
            ("normal", &|e, s| normal_delta(3, e, s)),
            ("infinite", &|_, _| f64::INFINITY),
        ];
        for clk in clks {
            for (what, delta) in &deltas {
                let w = assert_prune_matches_oracle(&c, &groups, &trans, &batch, clk, *delta);
                if clk.is_infinite() {
                    assert_eq!(
                        w.walked, 0,
                        "clk {clk}, δ {what}: an infinite clock settles every member"
                    );
                }
            }
        }
    }

    #[test]
    fn cone_prune_differential_tight_clocks_catch_rounding() {
        // Every passing output arrival as the clock, with defect sizes
        // of one ulp of the arc delay: verdicts there hinge on the last
        // rounding step, which the window margin must cover.
        let (c, t, groups) = prune_circuit(4);
        let n = 7;
        let batch = t.sample_instance_batch(4, 0, n);
        for j in 0..3 {
            let trans = random_pattern(&c, 4, j);
            let base = transition_arrivals_batch(&c, &trans, &batch);
            let mut arrivals = output_arrivals_sorted(&c, &base, n);
            arrivals.dedup();
            for &clk in arrivals.iter().rev().take(24) {
                assert_prune_matches_oracle(&c, &groups, &trans, &batch, clk, &|e, s| {
                    let d = batch.edge_delays(e)[s];
                    (d.next_up() - d) * (1 + s % 3) as f64
                });
            }
        }
    }

    #[test]
    fn cone_prune_differential_poisoned_instances() {
        let (c, t, groups) = prune_circuit(5);
        let n = 7;
        let mut instances: Vec<_> = (0..n)
            .map(|s| t.sample_instance_indexed(5, s as u64))
            .collect();
        // NaN and +∞ delays on a spread of arcs, different per sample.
        for (s, inst) in instances.iter_mut().enumerate() {
            for e in c.edge_ids().skip(s).step_by(9) {
                inst.set_delay(
                    e,
                    if e.index() % 2 == 0 {
                        f64::NAN
                    } else {
                        f64::INFINITY
                    },
                );
            }
        }
        let batch = InstanceBatch::from_instances(&instances);
        for j in 0..3 {
            let trans = random_pattern(&c, 5, j);
            let base = transition_arrivals_batch(&c, &trans, &batch);
            let arrivals = output_arrivals_sorted(&c, &base, n);
            let mut clks = vec![f64::NEG_INFINITY, f64::INFINITY];
            if !arrivals.is_empty() {
                clks.extend([0.5, 0.9].map(|q| quantile(&arrivals, q)));
            }
            for clk in clks {
                for delta in [0.0, 0.4, f64::INFINITY] {
                    assert_prune_matches_oracle(&c, &groups, &trans, &batch, clk, &|_, _| delta);
                }
            }
        }
    }

    #[test]
    fn cone_prune_differential_negative_delays_walk() {
        // A hand-built batch with negative delays turns the window test
        // off; the aliasing and the result stay exact.
        let (c, t, groups) = prune_circuit(6);
        let n = 7;
        let mut instances: Vec<_> = (0..n)
            .map(|s| t.sample_instance_indexed(6, s as u64))
            .collect();
        for inst in &mut instances {
            for e in c.edge_ids().step_by(5) {
                inst.set_delay(e, -0.05);
            }
        }
        let batch = InstanceBatch::from_instances(&instances);
        assert!(batch.has_negative_delay());
        // A sampled batch over negative means knows it before drawing.
        let mut means = t.edge_means().to_vec();
        for m in means.iter_mut().step_by(5) {
            *m = -0.05;
        }
        let lazy = CircuitTiming::from_means(means, t.variation()).sample_instance_batch(6, 0, n);
        assert!(lazy.has_negative_delay());
        assert_eq!(lazy.drawn_rows(), 0);
        assert!(!t.sample_instance_batch(6, 0, n).has_negative_delay());
        let trans = random_pattern(&c, 6, 0);
        for batch in [&batch, &lazy] {
            let base = transition_arrivals_batch(&c, &trans, batch);
            let clk = quantile(&output_arrivals_sorted(&c, &base, n), 0.9);
            assert_prune_matches_oracle(&c, &groups, &trans, batch, clk, &|e, s| {
                normal_delta(6, e, s)
            });
        }
    }

    #[test]
    fn cone_prune_differential_stable_and_mixed_patterns() {
        let (c, t, groups) = prune_circuit(7);
        let n = 7;
        let batch = t.sample_instance_batch(7, 0, n);
        // A stable pattern exercises no arc: nothing is drawn or walked.
        let n_pi = c.primary_inputs().len();
        let v: Vec<bool> = (0..n_pi).map(|i| i % 3 == 0).collect();
        let stable = simulate_pair(&c, &v, &v);
        let w = assert_prune_matches_oracle(&c, &groups, &stable, &batch, 0.0, &|e, s| {
            normal_delta(7, e, s)
        });
        assert_eq!(w.walked, 0);
        // One switching input that reaches an output: groups mix
        // exercised and idle members.
        let mixed = |trans: &[Transition]| {
            groups.iter().any(|g| {
                let active = g.iter().filter(|cone| cone.is_exercised(&c, trans)).count();
                active > 0 && active < g.len()
            })
        };
        let (trans, arrivals) = (0..n_pi)
            .find_map(|i| {
                let mut v2 = v.clone();
                v2[i] = !v2[i];
                let trans = simulate_pair(&c, &v, &v2);
                let base = transition_arrivals_batch(&c, &trans, &batch);
                let arrivals = output_arrivals_sorted(&c, &base, n);
                (mixed(&trans) && !arrivals.is_empty()).then_some((trans, arrivals))
            })
            .expect("no single-input flip mixes exercised and idle arcs");
        for clk in [0.0, quantile(&arrivals, 0.5), quantile(&arrivals, 1.0)] {
            assert_prune_matches_oracle(&c, &groups, &trans, &batch, clk, &|e, s| {
                normal_delta(7, e, s)
            });
        }
    }
}
