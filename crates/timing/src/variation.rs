//! Process variation model: correlated global + independent local spread.

use serde::{Deserialize, Serialize};

/// Decomposition of delay variation into a die-level (global) component
/// shared by every cell of one chip instance and a purely local component
/// independent per arc.
///
/// Sampling a chip instance draws one standard-normal `g` for the die and
/// one `l_e` per arc; the delay of arc `e` becomes
///
/// ```text
/// d_e = max(floor, mean_e × (1 + global_frac·g + local_frac·l_e))
/// ```
///
/// This realizes the paper's requirement (Definition D.1) that the
/// `f(e_i)` may be *correlated* random variables: any two arcs share the
/// `g` term.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct VariationModel {
    /// Relative sigma of the shared die-level component.
    pub global_frac: f64,
    /// Relative sigma of the per-arc independent component.
    pub local_frac: f64,
}

impl VariationModel {
    /// A model with the given global/local relative sigmas.
    pub fn new(global_frac: f64, local_frac: f64) -> Self {
        VariationModel {
            global_frac,
            local_frac,
        }
    }

    /// No variation at all: every instance equals the nominal circuit.
    pub fn none() -> Self {
        VariationModel::new(0.0, 0.0)
    }

    /// Total relative sigma of one arc's delay
    /// (`sqrt(global² + local²)`).
    pub fn total_frac(&self) -> f64 {
        (self.global_frac * self.global_frac + self.local_frac * self.local_frac).sqrt()
    }

    /// One arc's delay `max(mean × 0.05, mean × (1 + global_frac·g +
    /// local_frac·l))` on a chip with die-level factor `g` and the arc's
    /// local factor `l`.
    #[inline]
    pub(crate) fn delay(&self, mean: f64, g: f64, l: f64) -> f64 {
        let factor = 1.0 + self.global_frac * g + self.local_frac * l;
        (mean * factor).max(mean * 0.05)
    }

    /// Correlation coefficient between two distinct arcs' delays implied
    /// by the shared global component.
    pub fn pairwise_correlation(&self) -> f64 {
        let t = self.total_frac();
        if t == 0.0 {
            0.0
        } else {
            (self.global_frac * self.global_frac) / (t * t)
        }
    }
}

impl Default for VariationModel {
    /// The default used by the experiments: 5 % correlated die-level
    /// variation plus 6 % local variation (≈ 8 % total, matching the
    /// default cell-library spread).
    fn default() -> Self {
        VariationModel::new(0.05, 0.06)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_combines_in_quadrature() {
        let v = VariationModel::new(0.03, 0.04);
        assert!((v.total_frac() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn correlation_bounds() {
        assert_eq!(VariationModel::none().pairwise_correlation(), 0.0);
        let all_global = VariationModel::new(0.1, 0.0);
        assert!((all_global.pairwise_correlation() - 1.0).abs() < 1e-12);
        let mixed = VariationModel::new(0.05, 0.06);
        let rho = mixed.pairwise_correlation();
        assert!(rho > 0.0 && rho < 1.0);
    }

    #[test]
    fn default_is_moderate() {
        let v = VariationModel::default();
        assert!(v.total_frac() > 0.05 && v.total_frac() < 0.12);
    }
}
