//! Analytic block-based statistical static timing analysis.
//!
//! The Monte-Carlo engine in [`crate::sta`] is the reference (it is what
//! the paper's framework \[5\] uses); this module provides the classic
//! *analytic* alternative: propagate `(mean, variance)` pairs through the
//! circuit, approximating `max` with Clark's Gaussian moment-matching
//! (C. E. Clark, "The greatest of a finite set of random variables",
//! *Operations Research*, 1961). Arrival times are treated as independent
//! Gaussians at merge points — the standard block-based SSTA
//! approximation, exact for trees and an upper-bias heuristic under
//! reconvergence.
//!
//! Use it for fast screening (it is one deterministic pass, no sampling)
//! and the `mc_vs_analytic` comparison tests/benches; use the Monte-Carlo
//! engine when correlation fidelity matters (the diagnosis flow does).

use crate::{CircuitTiming, TimingError};
use sdd_netlist::{Circuit, GateKind};

/// A Gaussian approximation of an arrival-time random variable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaussianArrival {
    /// Mean arrival time.
    pub mean: f64,
    /// Variance of the arrival time.
    pub variance: f64,
}

impl GaussianArrival {
    /// The zero arrival (sources).
    pub const ZERO: GaussianArrival = GaussianArrival {
        mean: 0.0,
        variance: 0.0,
    };

    /// Standard deviation.
    pub fn std(&self) -> f64 {
        self.variance.max(0.0).sqrt()
    }

    /// Adds an independent Gaussian edge delay.
    pub fn plus(&self, mean: f64, variance: f64) -> GaussianArrival {
        GaussianArrival {
            mean: self.mean + mean,
            variance: self.variance + variance,
        }
    }

    /// Clark's max of two independent Gaussians: moment-matched Gaussian
    /// of `max(X, Y)`.
    pub fn max_clark(&self, other: &GaussianArrival) -> GaussianArrival {
        let a2 = self.variance + other.variance;
        if a2 <= 1e-24 {
            // Degenerate: deterministic max.
            return if self.mean >= other.mean {
                *self
            } else {
                *other
            };
        }
        let a = a2.sqrt();
        let alpha = (self.mean - other.mean) / a;
        let phi = standard_normal_pdf(alpha);
        let cap = standard_normal_cdf(alpha);
        let cap_m = 1.0 - cap; // Φ(-alpha)
        let mean = self.mean * cap + other.mean * cap_m + a * phi;
        let second_moment = (self.mean * self.mean + self.variance) * cap
            + (other.mean * other.mean + other.variance) * cap_m
            + (self.mean + other.mean) * a * phi;
        GaussianArrival {
            mean,
            variance: (second_moment - mean * mean).max(0.0),
        }
    }

    /// `Prob(arrival > clk)` under the Gaussian approximation — the
    /// analytic critical probability (Definition D.6).
    pub fn critical_probability(&self, clk: f64) -> f64 {
        if self.variance <= 1e-24 {
            return if self.mean > clk { 1.0 } else { 0.0 };
        }
        1.0 - standard_normal_cdf((clk - self.mean) / self.std())
    }
}

/// The standard-normal density `φ(x)`.
pub fn standard_normal_pdf(x: f64) -> f64 {
    (-(x * x) / 2.0).exp() / (2.0 * std::f64::consts::PI).sqrt()
}

/// The standard-normal CDF `Φ(x)`, via an Abramowitz–Stegun style erf
/// approximation (accurate to ~1e-7, ample for screening and for the
/// screened dictionary kernel's analytic tail probabilities).
pub fn standard_normal_cdf(x: f64) -> f64 {
    0.5 * (1.0 + erf(x / std::f64::consts::SQRT_2))
}

fn erf(x: f64) -> f64 {
    // Abramowitz & Stegun 7.1.26.
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let y = 1.0
        - (((((1.061405429 * t - 1.453152027) * t) + 1.421413741) * t - 0.284496736) * t
            + 0.254829592)
            * t
            * (-x * x).exp();
    sign * y
}

/// Result of one analytic pass.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockStaResult {
    /// Per-node Gaussian arrivals (indexed by node).
    pub arrivals: Vec<GaussianArrival>,
    /// The circuit delay `Δ(C)` approximation (Clark-max over outputs).
    pub circuit_delay: GaussianArrival,
}

/// Runs one deterministic block-based pass: per arc, the delay is
/// `Gaussian(mean, (mean × total_frac)²)` with `total_frac` from the
/// model's variation (global/local correlation structure is *ignored* —
/// that is the approximation).
///
/// # Errors
///
/// Returns [`TimingError::SequentialCircuit`] for non-scan circuits.
///
/// # Example
///
/// ```
/// use sdd_netlist::generator::{generate, GeneratorConfig};
/// use sdd_timing::{block_sta, CellLibrary, CircuitTiming, VariationModel};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let c = generate(&GeneratorConfig::small("b", 1))?.to_combinational()?;
/// let t = CircuitTiming::characterize(
///     &c, &CellLibrary::default_025um(), VariationModel::default());
/// let r = block_sta::analyze(&c, &t)?;
/// assert!(r.circuit_delay.mean > 0.0);
/// # Ok(())
/// # }
/// ```
pub fn analyze(circuit: &Circuit, timing: &CircuitTiming) -> Result<BlockStaResult, TimingError> {
    if !circuit.is_combinational() {
        return Err(TimingError::SequentialCircuit);
    }
    let frac = timing.variation().total_frac();
    let mut arrivals = vec![GaussianArrival::ZERO; circuit.num_nodes()];
    for &id in circuit.topo_order() {
        let node = circuit.node(id);
        if node.kind() == GateKind::Input {
            continue;
        }
        let mut acc: Option<GaussianArrival> = None;
        for (&from, &e) in node.fanins().iter().zip(node.fanin_edges()) {
            let mean = timing.edge_mean(e);
            let sigma = mean * frac;
            let cand = arrivals[from.index()].plus(mean, sigma * sigma);
            acc = Some(match acc {
                None => cand,
                Some(prev) => prev.max_clark(&cand),
            });
        }
        arrivals[id.index()] = acc.unwrap_or(GaussianArrival::ZERO);
    }
    let mut delay: Option<GaussianArrival> = None;
    for &o in circuit.primary_outputs() {
        let a = arrivals[o.index()];
        delay = Some(match delay {
            None => a,
            Some(prev) => prev.max_clark(&a),
        });
    }
    Ok(BlockStaResult {
        circuit_delay: delay.unwrap_or(GaussianArrival::ZERO),
        arrivals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{sta, CellLibrary, VariationModel};
    use sdd_netlist::generator::{generate, GeneratorConfig};
    use sdd_netlist::{CircuitBuilder, GateKind};

    #[test]
    fn erf_and_cdf_reference_values() {
        assert!((erf(0.0)).abs() < 1e-6);
        assert!((erf(1.0) - 0.8427007).abs() < 1e-5);
        assert!((erf(-1.0) + 0.8427007).abs() < 1e-5);
        assert!((standard_normal_cdf(0.0) - 0.5).abs() < 1e-6);
        assert!((standard_normal_cdf(1.96) - 0.975).abs() < 1e-3);
    }

    #[test]
    fn chain_is_exact_sum() {
        let mut b = CircuitBuilder::new("c");
        let a = b.input("a");
        let g1 = b.gate("g1", GateKind::Not, &[a]).unwrap();
        let g2 = b.gate("g2", GateKind::Not, &[g1]).unwrap();
        b.output(g2);
        let c = b.finish().unwrap();
        let t = CircuitTiming::from_means(vec![1.0, 2.0], VariationModel::new(0.0, 0.1));
        let r = analyze(&c, &t).unwrap();
        assert!((r.circuit_delay.mean - 3.0).abs() < 1e-12);
        // Variances add: (0.1)² + (0.2)².
        assert!((r.circuit_delay.variance - (0.01 + 0.04)).abs() < 1e-12);
    }

    #[test]
    fn clark_max_dominates_both_means() {
        let x = GaussianArrival {
            mean: 1.0,
            variance: 0.04,
        };
        let y = GaussianArrival {
            mean: 1.1,
            variance: 0.04,
        };
        let m = x.max_clark(&y);
        assert!(m.mean >= 1.1);
        assert!(m.mean < 1.5);
        assert!(m.variance > 0.0 && m.variance <= 0.05);
        // Symmetry.
        let m2 = y.max_clark(&x);
        assert!((m.mean - m2.mean).abs() < 1e-12);
        assert!((m.variance - m2.variance).abs() < 1e-12);
    }

    #[test]
    fn clark_max_with_dominant_input_is_identity_like() {
        let x = GaussianArrival {
            mean: 10.0,
            variance: 0.01,
        };
        let y = GaussianArrival {
            mean: 1.0,
            variance: 0.01,
        };
        let m = x.max_clark(&y);
        assert!((m.mean - 10.0).abs() < 1e-6);
        assert!((m.variance - 0.01).abs() < 1e-6);
    }

    #[test]
    fn matches_monte_carlo_within_tolerance() {
        let c = generate(&GeneratorConfig::small("cmp", 7))
            .unwrap()
            .to_combinational()
            .unwrap();
        // Local-only variation: independence assumption holds per arc.
        let t = CircuitTiming::characterize(
            &c,
            &CellLibrary::default_025um(),
            VariationModel::new(0.0, 0.08),
        );
        let analytic = analyze(&c, &t).unwrap();
        let mc = sta::static_mc(&c, &t, 3000, 11).expect("static MC runs");
        let mc_mean = mc.circuit_delay.mean();
        let rel = (analytic.circuit_delay.mean - mc_mean).abs() / mc_mean;
        assert!(
            rel < 0.05,
            "analytic {} vs MC {} ({}% off)",
            analytic.circuit_delay.mean,
            mc_mean,
            rel * 100.0
        );
    }

    #[test]
    fn critical_probability_analytic() {
        let a = GaussianArrival {
            mean: 1.0,
            variance: 0.01,
        };
        assert!((a.critical_probability(1.0) - 0.5).abs() < 1e-9);
        assert!(a.critical_probability(0.5) > 0.999);
        assert!(a.critical_probability(1.5) < 0.001);
        let det = GaussianArrival {
            mean: 1.0,
            variance: 0.0,
        };
        assert_eq!(det.critical_probability(0.9), 1.0);
        assert_eq!(det.critical_probability(1.1), 0.0);
    }

    #[test]
    fn sequential_rejected() {
        let mut b = CircuitBuilder::new("s");
        let a = b.input("a");
        let q = b.dff_placeholder("q");
        let d = b.gate("d", GateKind::Nand, &[a, q]).unwrap();
        b.set_dff_input(q, d).unwrap();
        b.output(d);
        let c = b.finish().unwrap();
        let t = CircuitTiming::from_means(vec![1.0; c.num_edges()], VariationModel::none());
        assert_eq!(analyze(&c, &t).unwrap_err(), TimingError::SequentialCircuit);
    }
}
