//! Circuit instances: fixed delay assignments (Definition D.2).

use crate::keystream::{ChipStreams, QUAD};
use sdd_netlist::EdgeId;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// A *circuit instance* `C_in = (V, E, I, O, f_in)` (Definition D.2): one
/// manufactured chip, where every pin-to-pin delay is a fixed constant.
///
/// Instances are produced by sampling a
/// [`CircuitTiming`](crate::CircuitTiming) model; a delay defect is
/// injected by adding extra delay to one arc
/// ([`TimingInstance::with_extra_delay`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimingInstance {
    delays: Vec<f64>,
}

impl TimingInstance {
    /// Wraps a per-edge delay vector (indexed by [`EdgeId::index`]).
    pub fn new(delays: Vec<f64>) -> Self {
        TimingInstance { delays }
    }

    /// The fixed delay of one arc.
    ///
    /// # Panics
    ///
    /// Panics if the edge index is out of range.
    #[inline]
    pub fn delay(&self, edge: EdgeId) -> f64 {
        self.delays[edge.index()]
    }

    /// Number of arcs covered.
    pub fn len(&self) -> usize {
        self.delays.len()
    }

    /// Returns `true` if the instance covers no arcs.
    pub fn is_empty(&self) -> bool {
        self.delays.is_empty()
    }

    /// All per-edge delays, indexed by [`EdgeId::index`].
    pub fn delays(&self) -> &[f64] {
        &self.delays
    }

    /// Returns a copy with `delta` added to the delay of `edge` — the
    /// physical effect of a (single) delay defect of size `delta` at that
    /// segment (Definition D.10).
    ///
    /// # Panics
    ///
    /// Panics if the edge index is out of range.
    pub fn with_extra_delay(&self, edge: EdgeId, delta: f64) -> TimingInstance {
        let mut delays = self.delays.clone();
        delays[edge.index()] += delta;
        TimingInstance { delays }
    }

    /// Overwrites the delay of `edge` in place. Accepts any `f64`,
    /// including non-finite values — the differential suites use this to
    /// poison instances with NaN/∞ delays and pin the fail-closed
    /// observe contract.
    ///
    /// # Panics
    ///
    /// Panics if the edge index is out of range.
    pub fn set_delay(&mut self, edge: EdgeId, delay: f64) {
        self.delays[edge.index()] = delay;
    }

    /// Adds `delta` to the delay of `edge` in place.
    ///
    /// # Panics
    ///
    /// Panics if the edge index is out of range.
    pub fn add_extra_delay(&mut self, edge: EdgeId, delta: f64) {
        self.delays[edge.index()] += delta;
    }
}

/// A *batch* of circuit instances in sample-major layout: the delays of
/// one arc across every Monte-Carlo sample sit contiguously in memory.
///
/// [`TimingInstance`] is the right shape for evaluating one chip at a
/// time; the dictionary's Monte-Carlo kernel instead evaluates every
/// sample of one (pattern, suspect) together, and its inner loop runs
/// over samples for a fixed arc. `InstanceBatch` stores the transposed
/// `n_edges × n_samples` delay matrix so that loop reads one contiguous
/// slice ([`InstanceBatch::edge_delays`]) instead of striding across
/// `n_samples` separate delay vectors.
///
/// A sampled batch ([`CircuitTiming::sample_instance_batch`]) draws each
/// row the first time it is read, so a pattern pays only for the arcs it
/// exercises; a row, once drawn, is kept. Either way, `batch.delay(e, s)`
/// equals `instances[s].delay(e)` bit-for-bit, so kernels reading from it
/// stay bit-identical to per-instance evaluation.
///
/// [`CircuitTiming::sample_instance_batch`]: crate::CircuitTiming::sample_instance_batch
#[derive(Debug, Clone)]
pub struct InstanceBatch {
    n_edges: usize,
    n_samples: usize,
    rows: Rows,
    /// See [`InstanceBatch::has_negative_delay`].
    has_negative_delay: bool,
}

/// Batches are equal when they hold the same delays; comparing draws
/// every row of a sampled batch.
impl PartialEq for InstanceBatch {
    fn eq(&self, other: &InstanceBatch) -> bool {
        self.n_edges == other.n_edges
            && self.n_samples == other.n_samples
            && (0..self.n_edges).all(|e| {
                let e = EdgeId::from_index(e);
                self.edge_delays(e) == other.edge_delays(e)
            })
    }
}

#[derive(Debug, Clone)]
enum Rows {
    /// Edge-major, sample-contiguous: `delays[e * n_samples + s]`.
    Dense(Vec<f64>),
    /// One row per edge, drawn from the chips' keystreams on first read.
    Lazy {
        rows: Box<[OnceLock<Box<[f64]>>]>,
        chips: ChipStreams,
    },
}

impl InstanceBatch {
    /// Transposes per-sample instances into the sample-major matrix.
    ///
    /// # Panics
    ///
    /// Panics if the instances cover differing numbers of arcs.
    pub fn from_instances(instances: &[TimingInstance]) -> InstanceBatch {
        let n_samples = instances.len();
        let n_edges = instances.first().map(|i| i.len()).unwrap_or(0);
        let mut delays = vec![0.0; n_edges * n_samples];
        for (s, inst) in instances.iter().enumerate() {
            assert_eq!(inst.len(), n_edges, "instance {s} arc count mismatch");
            for (e, &d) in inst.delays().iter().enumerate() {
                delays[e * n_samples + s] = d;
            }
        }
        InstanceBatch {
            n_edges,
            n_samples,
            has_negative_delay: delays.iter().any(|&d| d < 0.0 && d.is_finite()),
            rows: Rows::Dense(delays),
        }
    }

    /// A batch whose rows are drawn from `chips` on first read.
    pub(crate) fn sampled(chips: ChipStreams) -> InstanceBatch {
        InstanceBatch {
            n_edges: chips.n_edges(),
            n_samples: chips.n_samples(),
            has_negative_delay: chips.may_draw_negative(),
            rows: Rows::Lazy {
                rows: (0..chips.n_edges()).map(|_| OnceLock::new()).collect(),
                chips,
            },
        }
    }

    /// Number of samples (chip instances) in the batch.
    pub fn n_samples(&self) -> usize {
        self.n_samples
    }

    /// Number of arcs covered by each instance.
    pub fn n_edges(&self) -> usize {
        self.n_edges
    }

    /// Whether some arc may carry a finite negative delay. A sampled
    /// batch answers from its model's means without drawing a row: a
    /// delay is floored at 5% of its mean, so only a negative mean can
    /// draw one. A hand-built batch answers from its delays. The pruned
    /// defect-cone walk ([`crate::dynamic::DefectCone::apply_batch_fused`])
    /// then skips its clock-window test, whose rounding bound assumes
    /// non-negative path terms.
    pub(crate) fn has_negative_delay(&self) -> bool {
        self.has_negative_delay
    }

    /// The delays of one arc across all samples (contiguous), drawn on
    /// first read for a sampled batch.
    ///
    /// # Panics
    ///
    /// Panics if the edge index is out of range.
    #[inline]
    pub fn edge_delays(&self, edge: EdgeId) -> &[f64] {
        match &self.rows {
            Rows::Dense(delays) => {
                let base = edge.index() * self.n_samples;
                &delays[base..base + self.n_samples]
            }
            Rows::Lazy { rows, chips } => rows[edge.index()].get_or_init(|| {
                let draw = edge.index() + 1;
                let (quad, j) = (draw / QUAD, draw % QUAD);
                std::mem::take(&mut chips.draw_quad(quad, 1 << j)[j]).into_boxed_slice()
            }),
        }
    }

    /// Draws the rows of `edges` that a sampled batch has not drawn yet,
    /// in one pass that computes each keystream block once for all the
    /// rows it holds ([`InstanceBatch::edge_delays`] alone computes a
    /// block per row). Values are those `edge_delays` draws.
    ///
    /// # Panics
    ///
    /// Panics if an edge index is out of range.
    pub(crate) fn draw_rows(&self, edges: impl IntoIterator<Item = EdgeId>) {
        let Rows::Lazy { rows, chips } = &self.rows else {
            return;
        };
        // Bit j of quads[q]: draw QUAD·q + j (arc QUAD·q + j - 1) is wanted.
        let mut quads = vec![0u8; (self.n_edges + 1).div_ceil(QUAD)];
        for e in edges {
            if rows[e.index()].get().is_none() {
                let draw = e.index() + 1;
                quads[draw / QUAD] |= 1 << (draw % QUAD);
            }
        }
        for (q, &wanted) in quads.iter().enumerate().filter(|(_, &w)| w != 0) {
            for (j, row) in chips.draw_quad(q, wanted).into_iter().enumerate() {
                if wanted & 1 << j != 0 {
                    // A racing reader may have drawn the same values.
                    let _ = rows[QUAD * q + j - 1].set(row.into_boxed_slice());
                }
            }
        }
    }

    /// Rows held in memory: every row of a hand-built batch, the rows
    /// read so far of a sampled one.
    #[cfg(test)]
    pub(crate) fn drawn_rows(&self) -> usize {
        match &self.rows {
            Rows::Dense(_) => self.n_edges,
            Rows::Lazy { rows, .. } => rows.iter().filter(|r| r.get().is_some()).count(),
        }
    }

    /// The delay of one arc in one sample.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[inline]
    pub fn delay(&self, edge: EdgeId, sample: usize) -> f64 {
        assert!(sample < self.n_samples, "sample index out of range");
        self.edge_delays(edge)[sample]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_lookup() {
        let inst = TimingInstance::new(vec![0.1, 0.2, 0.3]);
        assert_eq!(inst.delay(EdgeId::from_index(1)), 0.2);
        assert_eq!(inst.len(), 3);
        assert!(!inst.is_empty());
    }

    #[test]
    fn defect_injection_is_additive() {
        let inst = TimingInstance::new(vec![0.1, 0.2]);
        let defective = inst.with_extra_delay(EdgeId::from_index(0), 0.5);
        assert!((defective.delay(EdgeId::from_index(0)) - 0.6).abs() < 1e-12);
        // original untouched
        assert_eq!(inst.delay(EdgeId::from_index(0)), 0.1);
        assert_eq!(defective.delay(EdgeId::from_index(1)), 0.2);
    }

    #[test]
    fn in_place_injection() {
        let mut inst = TimingInstance::new(vec![1.0]);
        inst.add_extra_delay(EdgeId::from_index(0), 0.25);
        assert_eq!(inst.delay(EdgeId::from_index(0)), 1.25);
    }

    #[test]
    fn batch_transposes_bit_exactly() {
        let instances = vec![
            TimingInstance::new(vec![0.1, 0.2, 0.3]),
            TimingInstance::new(vec![1.1, 1.2, 1.3]),
        ];
        let batch = InstanceBatch::from_instances(&instances);
        assert_eq!(batch.n_samples(), 2);
        assert_eq!(batch.n_edges(), 3);
        for (s, inst) in instances.iter().enumerate() {
            for e in 0..3 {
                let e = EdgeId::from_index(e);
                assert_eq!(batch.delay(e, s).to_bits(), inst.delay(e).to_bits());
            }
        }
        assert_eq!(batch.edge_delays(EdgeId::from_index(1)), &[0.2, 1.2]);
    }

    #[test]
    fn empty_batch_is_well_formed() {
        let batch = InstanceBatch::from_instances(&[]);
        assert_eq!(batch.n_samples(), 0);
        assert_eq!(batch.n_edges(), 0);
    }

    #[test]
    #[should_panic(expected = "arc count mismatch")]
    fn ragged_batch_panics() {
        InstanceBatch::from_instances(&[
            TimingInstance::new(vec![0.1]),
            TimingInstance::new(vec![0.1, 0.2]),
        ]);
    }
}
