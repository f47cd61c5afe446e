//! Parametric probability distributions for pin-to-pin delays.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A parametric distribution over `[0, +∞)` used for pin-to-pin delay
/// random variables (the `f(e)` of Definition D.1) and for delay defect
/// sizes (the `δ` of Definition D.9).
///
/// Sampling is generic over any [`rand::Rng`]; experiments use a seeded
/// `ChaCha8Rng` for cross-platform reproducibility.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Dist {
    /// A constant (a degenerate distribution).
    Deterministic(f64),
    /// Uniform on `[lo, hi]`.
    Uniform {
        /// Lower bound.
        lo: f64,
        /// Upper bound (≥ `lo`).
        hi: f64,
    },
    /// Normal with the given mean and standard deviation. Samples are
    /// clamped at zero (delays cannot be negative).
    Normal {
        /// Mean.
        mean: f64,
        /// Standard deviation (≥ 0).
        std: f64,
    },
    /// Normal truncated (by re-clamping) to `[lo, hi]`.
    TruncatedNormal {
        /// Mean of the underlying normal.
        mean: f64,
        /// Standard deviation of the underlying normal.
        std: f64,
        /// Lower truncation bound.
        lo: f64,
        /// Upper truncation bound.
        hi: f64,
    },
    /// Triangular on `[lo, hi]` with the given mode.
    Triangular {
        /// Lower bound.
        lo: f64,
        /// Mode (peak), in `[lo, hi]`.
        mode: f64,
        /// Upper bound.
        hi: f64,
    },
}

impl Dist {
    /// Convenience constructor for the paper's defect-size model
    /// (Section I): a normal with `3σ = 50 %` of the mean, clamped at zero.
    ///
    /// # Example
    ///
    /// ```
    /// use sdd_timing::Dist;
    ///
    /// let d = Dist::defect_size(0.6);
    /// assert!((d.mean() - 0.6).abs() < 1e-12);
    /// assert!((d.std() - 0.1).abs() < 1e-12);
    /// ```
    pub fn defect_size(mean: f64) -> Dist {
        Dist::Normal {
            mean,
            std: mean * 0.5 / 3.0,
        }
    }

    /// Draws one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            Dist::Deterministic(v) => v,
            Dist::Uniform { lo, hi } => {
                if hi > lo {
                    // Inclusive: the type documents a closed [lo, hi].
                    rng.gen_range(lo..=hi)
                } else {
                    lo
                }
            }
            Dist::Normal { mean, std } => (mean + std * standard_normal(rng)).max(0.0),
            Dist::TruncatedNormal { mean, std, lo, hi } => {
                (mean + std * standard_normal(rng)).clamp(lo, hi)
            }
            Dist::Triangular { lo, mode, hi } => {
                let u: f64 = rng.gen();
                let c = if hi > lo {
                    (mode - lo) / (hi - lo)
                } else {
                    0.0
                };
                if u < c {
                    lo + ((hi - lo) * (mode - lo) * u).sqrt()
                } else {
                    hi - ((hi - lo) * (hi - mode) * (1.0 - u)).sqrt()
                }
            }
        }
    }

    /// The *nominal* distribution mean — of the untruncated/unclamped
    /// form. For `Normal` (zero-clamped at sample time) and
    /// `TruncatedNormal` this differs from the mean of what [`sample`]
    /// actually draws; use [`moments`] when the censoring matters (the
    /// screened kernel's analytic stage does).
    ///
    /// [`sample`]: Dist::sample
    /// [`moments`]: Dist::moments
    pub fn mean(&self) -> f64 {
        match *self {
            Dist::Deterministic(v) => v,
            Dist::Uniform { lo, hi } => 0.5 * (lo + hi),
            Dist::Normal { mean, .. } | Dist::TruncatedNormal { mean, .. } => mean,
            Dist::Triangular { lo, mode, hi } => (lo + mode + hi) / 3.0,
        }
    }

    /// The *nominal* standard deviation (untruncated form); see
    /// [`Dist::mean`] for the caveat and [`Dist::moments`] for the
    /// censoring-aware values.
    pub fn std(&self) -> f64 {
        match *self {
            Dist::Deterministic(_) => 0.0,
            Dist::Uniform { lo, hi } => (hi - lo) / 12f64.sqrt(),
            Dist::Normal { std, .. } | Dist::TruncatedNormal { std, .. } => std,
            Dist::Triangular { lo, mode, hi } => {
                ((lo * lo + mode * mode + hi * hi - lo * mode - lo * hi - mode * hi) / 18.0).sqrt()
            }
        }
    }

    /// Mean and **variance** of what [`Dist::sample`] actually draws,
    /// accounting for the zero-clamp on `Normal` and the `[lo, hi]` clamp
    /// on `TruncatedNormal` — both are *censored* normals (out-of-range
    /// mass piles up on the bounds rather than being redrawn), so their
    /// true moments differ from the nominal [`Dist::mean`]/[`Dist::std`].
    /// Exact for the remaining variants. This is the moment source for
    /// the screened kernel's analytic stage, where the error would
    /// otherwise be load-bearing.
    pub fn moments(&self) -> (f64, f64) {
        match *self {
            Dist::Deterministic(v) => (v, 0.0),
            Dist::Uniform { lo, hi } => {
                if hi > lo {
                    let w = hi - lo;
                    (0.5 * (lo + hi), w * w / 12.0)
                } else {
                    (lo, 0.0)
                }
            }
            Dist::Normal { mean, std } => censored_normal_moments(mean, std, 0.0, f64::INFINITY),
            Dist::TruncatedNormal { mean, std, lo, hi } => {
                censored_normal_moments(mean, std, lo, hi)
            }
            Dist::Triangular { lo, mode, hi } => (
                (lo + mode + hi) / 3.0,
                (lo * lo + mode * mode + hi * hi - lo * mode - lo * hi - mode * hi) / 18.0,
            ),
        }
    }

    /// Scales both location and spread by `k` (e.g. to express a defect
    /// size in multiples of a cell delay).
    pub fn scaled(&self, k: f64) -> Dist {
        match *self {
            Dist::Deterministic(v) => Dist::Deterministic(v * k),
            Dist::Uniform { lo, hi } => Dist::Uniform {
                lo: lo * k,
                hi: hi * k,
            },
            Dist::Normal { mean, std } => Dist::Normal {
                mean: mean * k,
                std: std * k,
            },
            Dist::TruncatedNormal { mean, std, lo, hi } => Dist::TruncatedNormal {
                mean: mean * k,
                std: std * k,
                lo: lo * k,
                hi: hi * k,
            },
            Dist::Triangular { lo, mode, hi } => Dist::Triangular {
                lo: lo * k,
                mode: mode * k,
                hi: hi * k,
            },
        }
    }
}

/// Mean and variance of `clamp(Y, lo, hi)` for `Y ~ Normal(mu, sigma)`:
/// the censored normal, whose out-of-range probability mass sits as point
/// masses on the bounds. Either bound may be infinite (the corresponding
/// point-mass terms vanish).
fn censored_normal_moments(mu: f64, sigma: f64, lo: f64, hi: f64) -> (f64, f64) {
    use crate::block_sta::{standard_normal_cdf as cdf, standard_normal_pdf as pdf};
    if sigma <= 0.0 {
        return (mu.clamp(lo, hi), 0.0);
    }
    let a = (lo - mu) / sigma;
    let b = (hi - mu) / sigma;
    // Guard every term that multiplies an infinite bound: the paired
    // probability/density factor is exactly zero there, and the naive
    // product would be NaN.
    let (phi_a, cap_a) = if a.is_finite() {
        (pdf(a), cdf(a))
    } else {
        (0.0, 0.0)
    };
    let (phi_b, cap_b) = if b.is_finite() {
        (pdf(b), cdf(b))
    } else {
        (0.0, 1.0)
    };
    let p = cap_b - cap_a;
    let lo_mass = if lo.is_finite() { lo * cap_a } else { 0.0 };
    let hi_mass = if hi.is_finite() {
        hi * (1.0 - cap_b)
    } else {
        0.0
    };
    let e1 = lo_mass + hi_mass + mu * p + sigma * (phi_a - phi_b);
    let lo_mass2 = if lo.is_finite() { lo * lo * cap_a } else { 0.0 };
    let hi_mass2 = if hi.is_finite() {
        hi * hi * (1.0 - cap_b)
    } else {
        0.0
    };
    let a_phi_a = if a.is_finite() { a * phi_a } else { 0.0 };
    let b_phi_b = if b.is_finite() { b * phi_b } else { 0.0 };
    let e2 = lo_mass2
        + hi_mass2
        + mu * mu * p
        + 2.0 * mu * sigma * (phi_a - phi_b)
        + sigma * sigma * (p + a_phi_a - b_phi_b);
    (e1, (e2 - e1 * e1).max(0.0))
}

/// Draws a standard-normal sample via the Box-Muller transform (no
/// dependency on `rand_distr`).
pub(crate) fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.gen();
        if rejected(u1) {
            continue;
        }
        let u2: f64 = rng.gen();
        return box_muller(u1, u2);
    }
}

/// Whether [`standard_normal`] redraws a first uniform `u1` (its log
/// would not be finite).
#[inline]
pub(crate) fn rejected(u1: f64) -> bool {
    u1 <= f64::MIN_POSITIVE
}

/// The Box-Muller normal of an accepted `u1` and the following `u2`.
#[inline]
pub(crate) fn box_muller(u1: f64, u2: f64) -> f64 {
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn empirical(dist: Dist, n: usize) -> (f64, f64) {
        let mut rng = ChaCha8Rng::seed_from_u64(123);
        let samples: Vec<f64> = (0..n).map(|_| dist.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n as f64;
        (mean, var.sqrt())
    }

    #[test]
    fn deterministic_is_constant() {
        let (m, s) = empirical(Dist::Deterministic(3.5), 100);
        assert_eq!(m, 3.5);
        assert_eq!(s, 0.0);
    }

    #[test]
    fn uniform_moments() {
        let d = Dist::Uniform { lo: 1.0, hi: 3.0 };
        let (m, s) = empirical(d, 50_000);
        assert!((m - d.mean()).abs() < 0.02, "mean {m}");
        assert!((s - d.std()).abs() < 0.02, "std {s}");
    }

    #[test]
    fn uniform_hi_is_attainable_for_degenerate_width() {
        // A width of one ULP makes the half-open-vs-closed distinction
        // observable: `gen_range(lo..hi)` can never return `hi`, the
        // documented closed interval must.
        let lo = 1.0_f64;
        let hi = f64::from_bits(lo.to_bits() + 1);
        let d = Dist::Uniform { lo, hi };
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let mut saw_hi = false;
        for _ in 0..4096 {
            let v = d.sample(&mut rng);
            assert!((lo..=hi).contains(&v));
            saw_hi |= v == hi;
        }
        assert!(saw_hi, "closed upper bound {hi} never drawn");
    }

    #[test]
    fn uniform_moments_are_exact() {
        let d = Dist::Uniform { lo: 1.0, hi: 3.0 };
        let (m, v) = d.moments();
        assert!((m - 2.0).abs() < 1e-12);
        assert!((v - 4.0 / 12.0).abs() < 1e-12);
        // Degenerate interval collapses to a point mass at `lo`.
        let (m0, v0) = Dist::Uniform { lo: 2.0, hi: 2.0 }.moments();
        assert_eq!((m0, v0), (2.0, 0.0));
    }

    #[test]
    fn censored_normal_moments_match_empirical() {
        // Heavy censoring: nominal mean 0.1, σ 1.0 → ~46 % of the mass
        // is clamped to zero. The nominal accessors are far off; the
        // censoring-aware moments must track what sample() draws.
        let d = Dist::Normal {
            mean: 0.1,
            std: 1.0,
        };
        let (m, v) = d.moments();
        let (em, es) = empirical(d, 400_000);
        assert!((m - em).abs() < 0.01, "moments mean {m} vs empirical {em}");
        assert!(
            (v.sqrt() - es).abs() < 0.01,
            "moments std {} vs empirical {es}",
            v.sqrt()
        );
        assert!(
            (m - d.mean()).abs() > 0.3,
            "censoring should move the mean well away from nominal"
        );
    }

    #[test]
    fn truncated_normal_moments_match_empirical() {
        let d = Dist::TruncatedNormal {
            mean: 5.0,
            std: 3.0,
            lo: 4.0,
            hi: 6.0,
        };
        let (m, v) = d.moments();
        let (em, es) = empirical(d, 400_000);
        assert!((m - em).abs() < 0.01, "moments mean {m} vs empirical {em}");
        assert!(
            (v.sqrt() - es).abs() < 0.01,
            "moments std {} vs empirical {es}",
            v.sqrt()
        );
        assert!(v.sqrt() < d.std(), "clamping must shrink the spread");
    }

    #[test]
    fn defect_size_moments_nearly_nominal() {
        // The paper's defect-size parameterization (3σ = 50 % of mean)
        // keeps the zero-clamp 6σ away: censoring is negligible and
        // moments() agrees with the nominal accessors.
        let d = Dist::defect_size(0.6);
        let (m, v) = d.moments();
        assert!((m - 0.6).abs() < 1e-6);
        assert!((v.sqrt() - 0.1).abs() < 1e-6);
    }

    #[test]
    fn normal_moments() {
        let d = Dist::Normal {
            mean: 10.0,
            std: 2.0,
        };
        let (m, s) = empirical(d, 50_000);
        assert!((m - 10.0).abs() < 0.05, "mean {m}");
        assert!((s - 2.0).abs() < 0.05, "std {s}");
    }

    #[test]
    fn normal_clamped_at_zero() {
        let d = Dist::Normal {
            mean: 0.1,
            std: 1.0,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for _ in 0..10_000 {
            assert!(d.sample(&mut rng) >= 0.0);
        }
    }

    #[test]
    fn truncated_normal_respects_bounds() {
        let d = Dist::TruncatedNormal {
            mean: 5.0,
            std: 3.0,
            lo: 4.0,
            hi: 6.0,
        };
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        for _ in 0..10_000 {
            let v = d.sample(&mut rng);
            assert!((4.0..=6.0).contains(&v));
        }
    }

    #[test]
    fn triangular_moments() {
        let d = Dist::Triangular {
            lo: 0.0,
            mode: 1.0,
            hi: 2.0,
        };
        let (m, s) = empirical(d, 50_000);
        assert!((m - 1.0).abs() < 0.02, "mean {m}");
        assert!((s - d.std()).abs() < 0.02, "std {s}");
    }

    #[test]
    fn defect_size_matches_paper_spec() {
        // Section I: 3σ is 50 % of the mean.
        let d = Dist::defect_size(1.2);
        assert!((d.std() * 3.0 - 0.5 * 1.2).abs() < 1e-12);
        let (m, _) = empirical(d, 50_000);
        assert!((m - 1.2).abs() < 0.01);
    }

    #[test]
    fn scaled_scales_moments() {
        let d = Dist::Normal {
            mean: 2.0,
            std: 0.4,
        }
        .scaled(3.0);
        assert!((d.mean() - 6.0).abs() < 1e-12);
        assert!((d.std() - 1.2).abs() < 1e-12);
    }

    #[test]
    fn standard_normal_is_standard() {
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let n = 100_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|s| (s - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "var {var}");
    }

    #[test]
    fn sampling_is_deterministic_per_seed() {
        let d = Dist::Normal {
            mean: 1.0,
            std: 0.1,
        };
        let mut a = ChaCha8Rng::seed_from_u64(5);
        let mut b = ChaCha8Rng::seed_from_u64(5);
        for _ in 0..100 {
            assert_eq!(d.sample(&mut a), d.sample(&mut b));
        }
    }
}
