//! Monte-Carlo statistical *static* timing analysis (Definition D.5).
//!
//! Static analysis is value-blind: every structural path contributes. The
//! goal is the circuit-delay random variable `Δ(C)` and the per-output
//! arrival-time random variables `Ar(o_i)`, estimated by simulating many
//! manufactured chip instances.

use crate::{CircuitTiming, Samples, TimingError, TimingInstance};
use rayon::prelude::*;
use sdd_netlist::{Circuit, GateKind, NodeId};

/// Result of a Monte-Carlo static analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct StaResult {
    /// `Ar(o_i)` for every primary output, in output order. Sample `k` of
    /// every output comes from the same chip instance (joint samples).
    pub output_arrivals: Vec<Samples>,
    /// The circuit delay `Δ(C) = max_i Ar(o_i)`.
    pub circuit_delay: Samples,
}

impl StaResult {
    /// A suggested cut-off period: the `q`-quantile of `Δ(C)`. Experiments
    /// in the paper observe behaviour at a clock near the upper tail of
    /// the defect-free delay distribution.
    ///
    /// # Panics
    ///
    /// Panics if the analysis had zero samples or `q ∉ [0, 1]`.
    pub fn clock_at_quantile(&self, q: f64) -> f64 {
        self.circuit_delay.quantile(q)
    }
}

/// Computes static arrival times of *every node* for one fixed instance:
/// `arr(n) = max over fanins (arr(fanin) + delay(arc))`, sources at 0.
///
/// # Panics
///
/// Panics if the circuit is sequential.
pub fn arrival_times(circuit: &Circuit, instance: &TimingInstance) -> Vec<f64> {
    let mut arr = vec![0.0f64; circuit.num_nodes()];
    arrival_times_into(circuit, instance, &mut arr);
    arr
}

/// Like [`arrival_times`], but writes into a caller-provided buffer so
/// Monte-Carlo loops can reuse one allocation across instances.
///
/// # Panics
///
/// Panics if the circuit is sequential or `arr.len() != num_nodes()`.
pub fn arrival_times_into(circuit: &Circuit, instance: &TimingInstance, arr: &mut [f64]) {
    assert!(
        circuit.is_combinational(),
        "static timing requires a combinational circuit"
    );
    assert_eq!(
        arr.len(),
        circuit.num_nodes(),
        "arrival buffer must have one slot per node"
    );
    for &id in circuit.topo_order() {
        let node = circuit.node(id);
        if node.kind() == GateKind::Input {
            arr[id.index()] = 0.0;
            continue;
        }
        let mut best = 0.0f64;
        for (&from, &e) in node.fanins().iter().zip(node.fanin_edges()) {
            let cand = arr[from.index()] + instance.delay(e);
            if cand > best {
                best = cand;
            }
        }
        arr[id.index()] = best;
    }
}

/// The static arrival time at one node for one instance.
pub fn node_arrival(circuit: &Circuit, instance: &TimingInstance, node: NodeId) -> f64 {
    arrival_times(circuit, instance)[node.index()]
}

/// Largest number of samples per parallel work unit of [`static_mc`].
/// Runs smaller than `MC_CHUNK × threads` use shorter chunks so every
/// pool thread gets work. Results do not depend on the chunking: each
/// sample's delays are drawn from its own keyed stream
/// ([`CircuitTiming::sample_instance_indexed`]) and the chunks are
/// concatenated in sample order, so chunk length only decides the work
/// split.
const MC_CHUNK: usize = 32;

/// Runs Monte-Carlo static statistical timing analysis with `n_samples`
/// manufactured instances drawn from `timing` (seeded, reproducible,
/// parallelized over instances).
///
/// Instances are simulated in chunks of at most `MC_CHUNK` samples,
/// spread over the pool; each chunk reuses one
/// arrival buffer and writes its output-major block directly, so the
/// working set is `O(outputs × samples)` and the per-sample hot loop
/// performs no allocation.
///
/// # Errors
///
/// * [`TimingError::SequentialCircuit`] — apply the scan cut first.
/// * [`TimingError::ZeroSamples`] — `n_samples == 0`.
/// * [`TimingError::NoOutputs`] — the circuit has no primary outputs, so
///   `Δ(C) = max_i Ar(o_i)` is undefined (the max over an empty set).
///
/// # Example
///
/// ```
/// use sdd_netlist::generator::{generate, GeneratorConfig};
/// use sdd_timing::{sta, CellLibrary, CircuitTiming, VariationModel};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let c = generate(&GeneratorConfig::small("t", 1))?.to_combinational()?;
/// let timing = CircuitTiming::characterize(
///     &c, &CellLibrary::default_025um(), VariationModel::default());
/// let result = sta::static_mc(&c, &timing, 128, 7)?;
/// let clk = result.clock_at_quantile(0.95);
/// assert!(result.circuit_delay.critical_probability(clk) <= 0.05 + 1e-9);
/// # Ok(())
/// # }
/// ```
pub fn static_mc(
    circuit: &Circuit,
    timing: &CircuitTiming,
    n_samples: usize,
    seed: u64,
) -> Result<StaResult, TimingError> {
    if !circuit.is_combinational() {
        return Err(TimingError::SequentialCircuit);
    }
    if n_samples == 0 {
        return Err(TimingError::ZeroSamples);
    }
    let outputs = circuit.primary_outputs();
    if outputs.is_empty() {
        return Err(TimingError::NoOutputs);
    }
    let chunk_len = MC_CHUNK.min(n_samples.div_ceil(rayon::current_num_threads().max(1)));
    let n_chunks = n_samples.div_ceil(chunk_len);
    // Each chunk yields its output-major block `arrivals[o][j]`
    // (flattened as `o * chunk_len + j`) plus the per-sample max, so no
    // sample-major intermediate ever exists and no transpose pass is
    // needed afterwards.
    let blocks: Vec<(Vec<f64>, Vec<f64>)> = (0..n_chunks)
        .into_par_iter()
        .map(|chunk| {
            let lo = chunk * chunk_len;
            let hi = ((chunk + 1) * chunk_len).min(n_samples);
            let len = hi - lo;
            let mut block = vec![0.0f64; outputs.len() * len];
            let mut delta = Vec::with_capacity(len);
            let mut arr = vec![0.0f64; circuit.num_nodes()];
            for (j, i) in (lo..hi).enumerate() {
                let instance = timing.sample_instance_indexed(seed, i as u64);
                arrival_times_into(circuit, &instance, &mut arr);
                let mut worst = f64::NEG_INFINITY;
                for (o, out) in outputs.iter().enumerate() {
                    let v = arr[out.index()];
                    block[o * len + j] = v;
                    worst = worst.max(v);
                }
                delta.push(worst);
            }
            (block, delta)
        })
        .collect();
    let mut output_arrivals: Vec<Vec<f64>> = vec![Vec::with_capacity(n_samples); outputs.len()];
    let mut delta = Vec::with_capacity(n_samples);
    for (block, chunk_delta) in blocks {
        let len = chunk_delta.len();
        for (o, arrivals) in output_arrivals.iter_mut().enumerate() {
            arrivals.extend_from_slice(&block[o * len..(o + 1) * len]);
        }
        delta.extend(chunk_delta);
    }
    Ok(StaResult {
        output_arrivals: output_arrivals.into_iter().map(Samples::new).collect(),
        circuit_delay: Samples::new(delta),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CellLibrary, VariationModel};
    use sdd_netlist::generator::{generate, GeneratorConfig};
    use sdd_netlist::{CircuitBuilder, GateKind};

    fn chain() -> (Circuit, CircuitTiming) {
        // a -> g1(NOT) -> g2(NOT) -> g3(NOT), delays 1, 2, 3
        let mut b = CircuitBuilder::new("chain");
        let a = b.input("a");
        let g1 = b.gate("g1", GateKind::Not, &[a]).unwrap();
        let g2 = b.gate("g2", GateKind::Not, &[g1]).unwrap();
        let g3 = b.gate("g3", GateKind::Not, &[g2]).unwrap();
        b.output(g3);
        let c = b.finish().unwrap();
        let t = CircuitTiming::from_means(vec![1.0, 2.0, 3.0], VariationModel::none());
        (c, t)
    }

    #[test]
    fn chain_arrival_is_sum() {
        let (c, t) = chain();
        let arr = arrival_times(&c, &t.nominal_instance());
        let g3 = c.find("g3").unwrap();
        assert!((arr[g3.index()] - 6.0).abs() < 1e-12);
    }

    #[test]
    fn reconvergent_max() {
        // a -> g1 (d=5) -> y; a -> g2 (d=1) -> y; y = AND(g1, g2), arcs 2, 2
        let mut b = CircuitBuilder::new("reconv");
        let a = b.input("a");
        let g1 = b.gate("g1", GateKind::Buf, &[a]).unwrap();
        let g2 = b.gate("g2", GateKind::Not, &[a]).unwrap();
        let y = b.gate("y", GateKind::And, &[g1, g2]).unwrap();
        b.output(y);
        let c = b.finish().unwrap();
        // edges in creation order: a->g1, a->g2, g1->y, g2->y
        let t = CircuitTiming::from_means(vec![5.0, 1.0, 2.0, 2.0], VariationModel::none());
        let arr = arrival_times(&c, &t.nominal_instance());
        assert!((arr[y.index()] - 7.0).abs() < 1e-12);
    }

    #[test]
    fn static_mc_is_deterministic() {
        let c = generate(&GeneratorConfig::small("t", 2))
            .unwrap()
            .to_combinational()
            .unwrap();
        let t = CircuitTiming::characterize(
            &c,
            &CellLibrary::default_025um(),
            VariationModel::default(),
        );
        let r1 = static_mc(&c, &t, 64, 9).unwrap();
        let r2 = static_mc(&c, &t, 64, 9).unwrap();
        assert_eq!(r1, r2);
    }

    #[test]
    fn circuit_delay_dominates_every_output() {
        let c = generate(&GeneratorConfig::small("t", 4))
            .unwrap()
            .to_combinational()
            .unwrap();
        let t = CircuitTiming::characterize(
            &c,
            &CellLibrary::default_025um(),
            VariationModel::default(),
        );
        let r = static_mc(&c, &t, 50, 1).unwrap();
        for k in 0..50 {
            let max_out = r
                .output_arrivals
                .iter()
                .map(|s| s.values()[k])
                .fold(f64::NEG_INFINITY, f64::max);
            assert_eq!(r.circuit_delay.values()[k], max_out);
        }
    }

    #[test]
    fn variation_spreads_the_delay() {
        let c = generate(&GeneratorConfig::small("t", 6))
            .unwrap()
            .to_combinational()
            .unwrap();
        let lib = CellLibrary::default_025um();
        let none = CircuitTiming::characterize(&c, &lib, VariationModel::none());
        let var = CircuitTiming::characterize(&c, &lib, VariationModel::default());
        let r0 = static_mc(&c, &none, 64, 3).unwrap();
        let r1 = static_mc(&c, &var, 64, 3).unwrap();
        assert!(r0.circuit_delay.std() < 1e-12);
        assert!(r1.circuit_delay.std() > 0.0);
    }

    #[test]
    fn zero_samples_is_an_error() {
        let (c, t) = chain();
        assert_eq!(
            static_mc(&c, &t, 0, 1).unwrap_err(),
            TimingError::ZeroSamples
        );
    }

    #[test]
    fn zero_outputs_is_an_error_not_neg_infinity() {
        // Δ(C) is a max over primary outputs; over zero outputs it would
        // be -inf, poisoning every downstream quantile. The netlist layer
        // refuses to construct such a circuit, and `static_mc` guards
        // independently with [`TimingError::NoOutputs`] should one ever
        // arrive through a future constructor.
        let mut b = CircuitBuilder::new("no_outputs");
        let a = b.input("a");
        b.gate("g1", GateKind::Not, &[a]).unwrap();
        assert_eq!(
            b.finish().unwrap_err(),
            sdd_netlist::NetlistError::NoOutputs
        );
        assert_eq!(
            TimingError::NoOutputs.to_string(),
            "circuit has no primary outputs; circuit delay is undefined"
        );
    }

    #[test]
    fn chunked_reduction_matches_reference_transpose() {
        // Cross-check the chunk-folded implementation against a direct
        // per-sample evaluation (the shape of the code it replaced), for
        // runs below, at and above one chunk per thread, and across pool
        // sizes (the chunk length follows the thread count).
        let c = generate(&GeneratorConfig::small("t", 8))
            .unwrap()
            .to_combinational()
            .unwrap();
        let t = CircuitTiming::characterize(
            &c,
            &CellLibrary::default_025um(),
            VariationModel::default(),
        );
        let outputs = c.primary_outputs();
        let on_threads = |threads: usize, n: usize| {
            rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap()
                .install(|| static_mc(&c, &t, n, 11).unwrap())
        };
        // 33 and 71 leave a ragged final chunk at every pool size.
        for n in [1, 5, 20, 33, 71] {
            let r = on_threads(1, n);
            assert_eq!(r, on_threads(4, n), "n = {n}: 1 vs 4 threads");
            for i in 0..n {
                let instance = t.sample_instance_indexed(11, i as u64);
                let arr = arrival_times(&c, &instance);
                let mut worst = f64::NEG_INFINITY;
                for (o, out) in outputs.iter().enumerate() {
                    assert_eq!(r.output_arrivals[o].values()[i], arr[out.index()]);
                    worst = worst.max(arr[out.index()]);
                }
                assert_eq!(r.circuit_delay.values()[i], worst);
            }
        }
    }
}
