//! The statistical timing model of a circuit: `f(e)` for every arc.

use crate::dist::standard_normal;
use crate::keystream::ChipStreams;
use crate::{CellLibrary, TimingInstance, VariationModel};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use sdd_netlist::{Circuit, EdgeId, GateKind};
use serde::{Deserialize, Serialize};

/// The statistical timing model attached to a circuit: for every arc `e`
/// a delay random variable `f(e)` (Definition D.1), realized as
/// `mean_e × (1 + global_frac·g + local_frac·l_e)` with `g` shared per
/// chip instance (see [`VariationModel`]).
///
/// The model is the CAD-side *predictor* for every manufactured instance
/// `C_in`; [`CircuitTiming::sample_instance`] manufactures one.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CircuitTiming {
    edge_means: Vec<f64>,
    variation: VariationModel,
    nominal_cell_delay: f64,
}

impl CircuitTiming {
    /// Characterizes every arc of `circuit` with the library's pin-to-pin
    /// delays (load = sink fanout count) under the given variation model.
    ///
    /// # Example
    ///
    /// ```
    /// use sdd_netlist::generator::{generate, GeneratorConfig};
    /// use sdd_timing::{CellLibrary, CircuitTiming, VariationModel};
    ///
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// let c = generate(&GeneratorConfig::small("t", 1))?.to_combinational()?;
    /// let timing = CircuitTiming::characterize(
    ///     &c,
    ///     &CellLibrary::default_025um(),
    ///     VariationModel::default(),
    /// );
    /// assert_eq!(timing.num_edges(), c.num_edges());
    /// # Ok(())
    /// # }
    /// ```
    pub fn characterize(
        circuit: &Circuit,
        library: &CellLibrary,
        variation: VariationModel,
    ) -> CircuitTiming {
        let mut edge_means = Vec::with_capacity(circuit.num_edges());
        for eid in circuit.edge_ids() {
            let edge = circuit.edge(eid);
            let sink = circuit.node(edge.to());
            let load = circuit.fanout_edges(edge.to()).len();
            let mean = if sink.kind() == GateKind::Input {
                0.0
            } else {
                library.delay_mean(sink.kind(), edge.pin(), load)
            };
            edge_means.push(mean);
        }
        CircuitTiming {
            edge_means,
            variation,
            nominal_cell_delay: library.nominal_cell_delay(),
        }
    }

    /// Builds a model directly from per-edge mean delays (for tests and
    /// custom characterizations).
    pub fn from_means(edge_means: Vec<f64>, variation: VariationModel) -> CircuitTiming {
        CircuitTiming {
            edge_means,
            variation,
            nominal_cell_delay: 0.14,
        }
    }

    /// Number of characterized arcs.
    pub fn num_edges(&self) -> usize {
        self.edge_means.len()
    }

    /// Mean delay of one arc.
    ///
    /// # Panics
    ///
    /// Panics if the edge index is out of range.
    pub fn edge_mean(&self, edge: EdgeId) -> f64 {
        self.edge_means[edge.index()]
    }

    /// All per-edge mean delays.
    pub fn edge_means(&self) -> &[f64] {
        &self.edge_means
    }

    /// The variation model in force.
    pub fn variation(&self) -> VariationModel {
        self.variation
    }

    /// The library's representative cell delay (used to size defects, see
    /// Section I of the paper).
    pub fn nominal_cell_delay(&self) -> f64 {
        self.nominal_cell_delay
    }

    /// The nominal (all-means) instance.
    pub fn nominal_instance(&self) -> TimingInstance {
        TimingInstance::new(self.edge_means.clone())
    }

    /// Manufactures one chip instance: draws the shared die-level factor
    /// and one local factor per arc.
    pub fn sample_instance<R: Rng + ?Sized>(&self, rng: &mut R) -> TimingInstance {
        let g = standard_normal(rng);
        let delays = self
            .edge_means
            .iter()
            .map(|&mean| self.variation.delay(mean, g, standard_normal(rng)))
            .collect();
        TimingInstance::new(delays)
    }

    /// Manufactures `n` instances reproducibly from a seed. Instance `i`
    /// is independent of `n` (instance streams are indexed, so campaigns
    /// can grow without re-sampling earlier chips).
    pub fn sample_instances(&self, n: usize, seed: u64) -> Vec<TimingInstance> {
        (0..n)
            .map(|i| self.sample_instance_indexed(seed, i as u64))
            .collect()
    }

    /// Manufactures the `index`-th instance of the stream identified by
    /// `seed`.
    pub fn sample_instance_indexed(&self, seed: u64, index: u64) -> TimingInstance {
        self.sample_instance(&mut ChaCha8Rng::seed_from_u64(stream_seed(seed, index)))
    }

    /// Manufactures instances `first_index..first_index + n` of the
    /// stream identified by `seed`, in the sample-major layout the
    /// batched dictionary kernel reads. Draws are keyed per index, so
    /// `batch.delay(e, s)` is bit-identical to
    /// `sample_instance_indexed(seed, first_index + s).delay(e)`.
    ///
    /// Manufacture is demand-driven: this seeds the `n` keystreams,
    /// scans them once for rejected Box-Muller attempts and draws each
    /// chip's die-level factor; an arc's delays are drawn when its row
    /// is first read ([`crate::InstanceBatch::edge_delays`]), so a
    /// pattern pays only for the arcs that switch under it.
    pub fn sample_instance_batch(
        &self,
        seed: u64,
        first_index: u64,
        n: usize,
    ) -> crate::InstanceBatch {
        let seeds: Vec<u64> = (0..n as u64)
            .map(|s| stream_seed(seed, first_index + s))
            .collect();
        crate::InstanceBatch::sampled(ChipStreams::new(
            &seeds,
            self.edge_means.clone(),
            self.variation,
        ))
    }
}

/// The `ChaCha8Rng::seed_from_u64` seed of the `index`-th instance of
/// the stream `seed`.
fn stream_seed(seed: u64, index: u64) -> u64 {
    seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdd_netlist::generator::{generate, GeneratorConfig};

    fn demo() -> (Circuit, CircuitTiming) {
        let c = generate(&GeneratorConfig::small("t", 3))
            .unwrap()
            .to_combinational()
            .unwrap();
        let t = CircuitTiming::characterize(
            &c,
            &CellLibrary::default_025um(),
            VariationModel::default(),
        );
        (c, t)
    }

    #[test]
    fn characterize_covers_every_edge() {
        let (c, t) = demo();
        assert_eq!(t.num_edges(), c.num_edges());
        for e in c.edge_ids() {
            assert!(t.edge_mean(e) > 0.0, "edge {e} has zero mean");
        }
    }

    #[test]
    fn nominal_instance_equals_means() {
        let (_, t) = demo();
        let inst = t.nominal_instance();
        for (i, &m) in t.edge_means().iter().enumerate() {
            assert_eq!(inst.delay(EdgeId::from_index(i)), m);
        }
    }

    #[test]
    fn sampled_instances_vary_around_means() {
        let (_, t) = demo();
        let instances = t.sample_instances(200, 11);
        let e = EdgeId::from_index(0);
        let mean = t.edge_mean(e);
        let avg: f64 = instances.iter().map(|i| i.delay(e)).sum::<f64>() / instances.len() as f64;
        assert!((avg - mean).abs() / mean < 0.05, "avg {avg} vs mean {mean}");
        let distinct: std::collections::HashSet<u64> =
            instances.iter().map(|i| i.delay(e).to_bits()).collect();
        assert!(distinct.len() > 150, "instances look identical");
    }

    #[test]
    fn instances_are_reproducible_and_indexed() {
        let (_, t) = demo();
        let a = t.sample_instances(5, 7);
        let b = t.sample_instances(3, 7);
        for i in 0..3 {
            assert_eq!(a[i], b[i], "instance {i} depends on n");
        }
        assert_eq!(a[2], t.sample_instance_indexed(7, 2));
    }

    /// Reads `batch`'s rows in `order` and checks each against the
    /// per-index instances bit for bit.
    fn assert_rows_match(
        batch: &crate::InstanceBatch,
        reference: &[TimingInstance],
        order: &[usize],
    ) {
        for &e in order {
            let e = EdgeId::from_index(e);
            let row = batch.edge_delays(e);
            assert_eq!(row.len(), reference.len());
            for (s, inst) in reference.iter().enumerate() {
                assert_eq!(
                    row[s].to_bits(),
                    inst.delay(e).to_bits(),
                    "edge {e} sample {s}"
                );
                assert_eq!(batch.delay(e, s).to_bits(), row[s].to_bits());
            }
        }
    }

    #[test]
    fn lazy_sample_differential_batch_matches_indexed_instances() {
        use rand::seq::SliceRandom;
        let (_, t) = demo();
        let n_edges = t.num_edges();
        let forward: Vec<usize> = (0..n_edges).collect();
        let reversed: Vec<usize> = forward.iter().rev().copied().collect();
        let mut random = forward.clone();
        random.shuffle(&mut ChaCha8Rng::seed_from_u64(17));
        for (first, n) in [
            (0u64, 1usize),
            (3, 7),
            (40, 8),
            (1 << 40, 9),
            (5, 17),
            (77, 200),
        ] {
            let reference: Vec<TimingInstance> = (0..n as u64)
                .map(|s| t.sample_instance_indexed(9, first + s))
                .collect();
            for order in [&forward, &reversed, &random] {
                let batch = t.sample_instance_batch(9, first, n);
                assert_eq!((batch.n_edges(), batch.n_samples()), (n_edges, n));
                assert_eq!(batch.drawn_rows(), 0, "building a batch draws no row");
                assert_rows_match(&batch, &reference, &order[..order.len() / 2]);
                assert_eq!(batch.drawn_rows(), n_edges / 2);
                assert_rows_match(&batch, &reference, order);
            }
            // Bulk draws: a scattered third (partial quads), then every
            // row, part of them already drawn.
            let batch = t.sample_instance_batch(9, first, n);
            batch.draw_rows(random[..n_edges / 3].iter().map(|&e| EdgeId::from_index(e)));
            assert_eq!(batch.drawn_rows(), n_edges / 3);
            batch.draw_rows((0..n_edges).map(EdgeId::from_index));
            assert_eq!(batch.drawn_rows(), n_edges);
            assert_rows_match(&batch, &reference, &forward);
            assert!(batch == crate::InstanceBatch::from_instances(&reference));
        }
    }

    #[test]
    fn lazy_sample_differential_threads_race_on_one_row() {
        let (_, t) = demo();
        let n = 17;
        let reference: Vec<TimingInstance> = (0..n as u64)
            .map(|s| t.sample_instance_indexed(4, 100 + s))
            .collect();
        for e in [0, t.num_edges() / 2, t.num_edges() - 1] {
            let batch = t.sample_instance_batch(4, 100, n);
            let start = std::sync::Barrier::new(2);
            let rows: Vec<Vec<f64>> = std::thread::scope(|scope| {
                let readers: Vec<_> = (0..2)
                    .map(|_| {
                        scope.spawn(|| {
                            start.wait();
                            batch.edge_delays(EdgeId::from_index(e)).to_vec()
                        })
                    })
                    .collect();
                readers.into_iter().map(|r| r.join().unwrap()).collect()
            });
            assert_eq!(batch.drawn_rows(), 1);
            for row in &rows {
                let bits: Vec<u64> = row.iter().map(|d| d.to_bits()).collect();
                let expected: Vec<u64> = reference
                    .iter()
                    .map(|i| i.delay(EdgeId::from_index(e)).to_bits())
                    .collect();
                assert_eq!(bits, expected, "edge {e}");
            }
        }
    }

    #[test]
    fn global_component_correlates_all_edges() {
        // With only global variation, every edge scales by the same factor.
        let (c, _) = demo();
        let t = CircuitTiming::characterize(
            &c,
            &CellLibrary::default_025um(),
            VariationModel::new(0.10, 0.0),
        );
        let inst = t.sample_instance_indexed(5, 0);
        let ratio0 = inst.delay(EdgeId::from_index(0)) / t.edge_mean(EdgeId::from_index(0));
        for e in c.edge_ids() {
            let r = inst.delay(e) / t.edge_mean(e);
            assert!((r - ratio0).abs() < 1e-9, "edge {e} ratio {r} vs {ratio0}");
        }
    }

    #[test]
    fn delays_never_collapse_to_zero() {
        let (c, _) = demo();
        let t = CircuitTiming::characterize(
            &c,
            &CellLibrary::default_025um(),
            VariationModel::new(0.0, 5.0), // absurd local spread
        );
        let inst = t.sample_instance_indexed(1, 0);
        for e in c.edge_ids() {
            assert!(inst.delay(e) > 0.0);
        }
    }
}
