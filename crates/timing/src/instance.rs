//! Circuit instances: fixed delay assignments (Definition D.2).

use sdd_netlist::EdgeId;
use serde::{Deserialize, Serialize};

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
/// The batch is a pure re-layout: `batch.delay(e, s)` equals
/// `instances[s].delay(e)` bit-for-bit, so kernels reading from it stay
/// bit-identical to per-instance evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceBatch {
    n_edges: usize,
    n_samples: usize,
    /// Edge-major, sample-contiguous: `delays[e * n_samples + s]`.
    delays: Vec<f64>,
    /// Whether any delay is finite and negative (never true of a sampled
    /// batch; see [`InstanceBatch::has_negative_delay`]).
    has_negative_delay: bool,
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
        InstanceBatch::new(n_edges, n_samples, delays)
    }

    /// Wraps an edge-major, sample-contiguous delay matrix
    /// (`delays[e * n_samples + s]`).
    ///
    /// # Panics
    ///
    /// Panics if `delays.len() != n_edges * n_samples`.
    pub(crate) fn from_edge_major(
        n_edges: usize,
        n_samples: usize,
        delays: Vec<f64>,
    ) -> InstanceBatch {
        assert_eq!(delays.len(), n_edges * n_samples, "batch shape mismatch");
        InstanceBatch::new(n_edges, n_samples, delays)
    }

    fn new(n_edges: usize, n_samples: usize, delays: Vec<f64>) -> InstanceBatch {
        let has_negative_delay = delays.iter().any(|&d| d < 0.0 && d.is_finite());
        InstanceBatch {
            n_edges,
            n_samples,
            delays,
            has_negative_delay,
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

    /// Whether some arc carries a finite negative delay. Samplers floor
    /// every delay at a positive fraction of its mean, so only a
    /// hand-built batch can; the pruned defect-cone walk
    /// ([`crate::dynamic::DefectCone::apply_batch_fused`]) then skips its
    /// clock-window test, whose rounding bound assumes non-negative
    /// path terms.
    pub(crate) fn has_negative_delay(&self) -> bool {
        self.has_negative_delay
    }

    /// The delays of one arc across all samples (contiguous).
    ///
    /// # Panics
    ///
    /// Panics if the edge index is out of range.
    #[inline]
    pub fn edge_delays(&self, edge: EdgeId) -> &[f64] {
        let base = edge.index() * self.n_samples;
        &self.delays[base..base + self.n_samples]
    }

    /// The delay of one arc in one sample.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    #[inline]
    pub fn delay(&self, edge: EdgeId, sample: usize) -> f64 {
        assert!(sample < self.n_samples, "sample index out of range");
        self.delays[edge.index() * self.n_samples + sample]
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
