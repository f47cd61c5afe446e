//! Multiple-defect injection (paper future-work direction 3: "relax the
//! restriction of the single defect assumption and see how that impacts
//! the performance of the diagnosis algorithms").
//!
//! The diagnosis algorithms keep the single-defect dictionary (`D_s`);
//! only the *injected reality* changes: chips carry `m ≥ 1` independent
//! segment defects. Success is scored as **any-hit**: at least one
//! injected arc is contained in the top-K answer (the failure-analysis
//! lab finds *a* defect, repairs or deprocesses, and iterates).

use crate::defect::SingleDefectModel;
use crate::diagnoser::{Diagnoser, DiagnoserConfig};
use crate::error_fn::ErrorFunction;
use crate::evaluate::is_success;
use crate::inject::{patterns_through_site, sweep_ladder, tested_delay_samples, CampaignConfig};
use crate::{BehaviorMatrix, DiagnosisError, ObservedBehavior};
use sdd_netlist::{Circuit, EdgeId};
use sdd_timing::{CellLibrary, CircuitTiming, TimingInstance};
use serde::{Deserialize, Serialize};

/// Accuracy of a multi-defect campaign, per error function and `K`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiDefectReport {
    /// Circuit name.
    pub circuit: String,
    /// Number of simultaneous defects injected per chip.
    pub defects_per_chip: usize,
    /// The `K` values evaluated.
    pub k_values: Vec<usize>,
    /// Functions evaluated, [`ErrorFunction::EXTENDED`] order.
    pub functions: Vec<ErrorFunction>,
    /// `any_hit[k_ix][f_ix]` successes out of [`MultiDefectReport::trials`].
    pub any_hit: Vec<Vec<usize>>,
    /// Scored chips (including undiagnosable ones, which count as
    /// misses).
    pub trials: usize,
}

impl MultiDefectReport {
    /// Any-hit success rate in percent.
    ///
    /// # Panics
    ///
    /// Panics if no trials were recorded, or if `k_ix` / `f_ix` is out
    /// of range for [`MultiDefectReport::k_values`] /
    /// [`MultiDefectReport::functions`] — each with a message naming
    /// the offending index and the valid bound, instead of the bare
    /// slice-index panic the raw `any_hit[k_ix][f_ix]` access gave.
    pub fn any_hit_percent(&self, k_ix: usize, f_ix: usize) -> f64 {
        assert!(self.trials > 0, "no trials recorded");
        self.try_any_hit_percent(k_ix, f_ix).unwrap_or_else(|| {
            panic!(
                "cell ({k_ix}, {f_ix}) out of range for {} K values x {} functions",
                self.k_values.len(),
                self.functions.len()
            )
        })
    }

    /// Any-hit success rate in percent, or `None` when the cell is out
    /// of range or no trials were recorded.
    pub fn try_any_hit_percent(&self, k_ix: usize, f_ix: usize) -> Option<f64> {
        if self.trials == 0 {
            return None;
        }
        let hits = *self.any_hit.get(k_ix)?.get(f_ix)?;
        Some(100.0 * hits as f64 / self.trials as f64)
    }

    /// The `K` evaluated at row `k_ix`, or `None` when out of range.
    pub fn k_value(&self, k_ix: usize) -> Option<usize> {
        self.k_values.get(k_ix).copied()
    }

    /// The error function evaluated at column `f_ix`, or `None` when
    /// out of range.
    pub fn function(&self, f_ix: usize) -> Option<ErrorFunction> {
        self.functions.get(f_ix).copied()
    }
}

/// Runs a campaign injecting `defects_per_chip` independent defects per
/// chip while diagnosing under the single-defect assumption.
///
/// Patterns are generated through the *first* defect's site (the lab
/// chases one symptom at a time); the remaining defects contribute
/// un-modelled failures — exactly the robustness question the paper
/// poses. With `defects_per_chip = 1` this reduces to the Table I
/// campaign (up to the scoring definition).
///
/// # Errors
///
/// Propagates substrate errors; chips that never fail or cannot be
/// diagnosed score as misses.
pub fn run_multi_defect_campaign(
    circuit: &Circuit,
    config: &CampaignConfig,
    defects_per_chip: usize,
) -> Result<MultiDefectReport, DiagnosisError> {
    assert!(defects_per_chip >= 1, "need at least one defect");
    let library = CellLibrary::default_025um();
    let timing = CircuitTiming::characterize(circuit, &library, config.variation);
    let defect_model = SingleDefectModel::paper_section_i(library.nominal_cell_delay());
    let functions = ErrorFunction::EXTENDED.to_vec();
    let mut report = MultiDefectReport {
        circuit: circuit.name().to_owned(),
        defects_per_chip,
        k_values: config.k_values.clone(),
        functions: functions.clone(),
        any_hit: vec![vec![0; functions.len()]; config.k_values.len()],
        trials: 0,
    };
    for index in 0..config.n_instances {
        report.trials += 1;
        let chip = timing.sample_instance_indexed(config.seed ^ 0x3D5A, index as u64);
        let Some((injected, patterns, behavior)) = observe_multi(
            circuit,
            &timing,
            &defect_model,
            config,
            &chip,
            defects_per_chip,
            index,
        ) else {
            continue; // never failed: miss everywhere
        };
        let diagnoser = Diagnoser::new(
            circuit,
            &timing,
            &patterns,
            defect_model.size_dist(),
            DiagnoserConfig {
                dictionary: config.dictionary,
            },
        );
        let Ok(all) = diagnoser.diagnose_all(&behavior) else {
            continue;
        };
        for (f_ix, (_, ranking)) in all.iter().enumerate() {
            for (k_ix, &k) in config.k_values.iter().enumerate() {
                if injected.iter().any(|&e| is_success(ranking, e, k)) {
                    report.any_hit[k_ix][f_ix] += 1;
                }
            }
        }
    }
    Ok(report)
}

/// Injects `m` defects, generates patterns through the first site, and
/// sweeps the clock to a failing behaviour. Returns `None` when no
/// observable failing configuration arises within the redraw budget.
#[allow(clippy::type_complexity)]
fn observe_multi(
    circuit: &Circuit,
    timing: &CircuitTiming,
    defect_model: &SingleDefectModel,
    config: &CampaignConfig,
    chip: &TimingInstance,
    m: usize,
    index: usize,
) -> Option<(Vec<EdgeId>, sdd_atpg::PatternSet, BehaviorMatrix)> {
    for attempt in 0..config.max_redraws {
        let base_seed = config
            .seed
            .wrapping_add(7 + index as u64 * 977 + attempt as u64 * 6271);
        let defects: Vec<_> = (0..m)
            .map(|d| defect_model.sample_defect(circuit, base_seed.wrapping_add(d as u64 * 31)))
            .collect();
        let patterns =
            patterns_through_site_cfg(circuit, timing, defects[0].edge, config, base_seed);
        if patterns.is_empty() {
            continue;
        }
        let mut failing = chip.clone();
        for d in &defects {
            failing.add_extra_delay(d.edge, d.delta);
        }
        let samples = tested_delay_samples(
            circuit,
            timing,
            &patterns,
            config.sta_samples.min(150),
            config.seed,
        );
        let observed = ObservedBehavior::capture(circuit, &patterns, &failing, config.capture);
        if let Some(b) = sweep_ladder(&observed, &samples, config.sweep_extra_steps) {
            return Some((defects.iter().map(|d| d.edge).collect(), patterns, b));
        }
    }
    None
}

fn patterns_through_site_cfg(
    circuit: &Circuit,
    timing: &CircuitTiming,
    site: EdgeId,
    config: &CampaignConfig,
    seed: u64,
) -> sdd_atpg::PatternSet {
    patterns_through_site(
        circuit,
        timing,
        site,
        config.n_paths,
        config.max_patterns,
        seed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sdd_netlist::generator::generate;
    use sdd_netlist::profiles;

    fn small() -> Circuit {
        generate(&profiles::S27.to_config(3))
            .unwrap()
            .to_combinational()
            .unwrap()
    }

    #[test]
    fn single_defect_case_runs() {
        let c = small();
        let report = run_multi_defect_campaign(&c, &CampaignConfig::quick(5), 1).unwrap();
        assert_eq!(report.defects_per_chip, 1);
        assert_eq!(report.trials, 6);
        // Monotone in K.
        for f_ix in 0..report.functions.len() {
            let mut last = 0;
            for k_ix in 0..report.k_values.len() {
                assert!(report.any_hit[k_ix][f_ix] >= last);
                last = report.any_hit[k_ix][f_ix];
            }
        }
    }

    #[test]
    fn double_defect_case_runs_and_is_deterministic() {
        let c = small();
        let a = run_multi_defect_campaign(&c, &CampaignConfig::quick(5), 2).unwrap();
        let b = run_multi_defect_campaign(&c, &CampaignConfig::quick(5), 2).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.defects_per_chip, 2);
    }

    #[test]
    #[should_panic(expected = "at least one defect")]
    fn zero_defects_rejected() {
        let c = small();
        let _ = run_multi_defect_campaign(&c, &CampaignConfig::quick(5), 0);
    }

    fn report_fixture() -> MultiDefectReport {
        MultiDefectReport {
            circuit: "demo".into(),
            defects_per_chip: 2,
            k_values: vec![1, 5],
            functions: ErrorFunction::EXTENDED.to_vec(),
            any_hit: vec![vec![3; ErrorFunction::EXTENDED.len()]; 2],
            trials: 4,
        }
    }

    #[test]
    fn report_accessors_are_bounds_checked() {
        let r = report_fixture();
        assert_eq!(r.any_hit_percent(0, 0), 75.0);
        assert_eq!(r.try_any_hit_percent(1, 0), Some(75.0));
        assert_eq!(r.try_any_hit_percent(2, 0), None);
        assert_eq!(r.try_any_hit_percent(0, r.functions.len()), None);
        assert_eq!(r.k_value(1), Some(5));
        assert_eq!(r.k_value(2), None);
        assert_eq!(r.function(0), Some(ErrorFunction::EXTENDED[0]));
        assert_eq!(r.function(r.functions.len()), None);
        let empty = MultiDefectReport {
            trials: 0,
            ..report_fixture()
        };
        assert_eq!(empty.try_any_hit_percent(0, 0), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn any_hit_percent_panics_with_named_indices() {
        let r = report_fixture();
        let _ = r.any_hit_percent(9, 0);
    }

    #[test]
    #[should_panic(expected = "no trials recorded")]
    fn any_hit_percent_panics_without_trials() {
        let r = MultiDefectReport {
            trials: 0,
            ..report_fixture()
        };
        let _ = r.any_hit_percent(0, 0);
    }
}
