//! # sdd-bench
//!
//! Benchmark harness regenerating every table and figure of *Delay Defect
//! Diagnosis Based Upon Statistical Timing Models* (DATE 2003), plus
//! Criterion performance benches.
//!
//! Reproduction binaries (see `src/bin/`):
//!
//! | Binary   | Paper artefact | Command |
//! |----------|----------------|---------|
//! | `table1` | Table I — diagnosis accuracy on 8 benchmark circuits | `cargo run -p sdd-bench --release --bin table1` |
//! | `fig1`   | Figure 1 — why logic resolution ≠ timing resolution | `cargo run -p sdd-bench --release --bin fig1` |
//! | `fig2`   | Figure 2 — probabilistic dictionary matching ambiguity | `cargo run -p sdd-bench --release --bin fig2` |
//! | `fig3`   | Figure 3 — equivalence-checking error model (eq. 5) | `cargo run -p sdd-bench --release --bin fig3` |
//!
//! `table1` accepts `--quick` (reduced budgets), `--circuit <name>` (one
//! circuit only), `--seed <n>` and `--seeds A..B` (seeds `A` to `B`
//! pooled, with Wilson 95% intervals).
//!
//! Every binary accepts `--metrics-json <path>` and writes a
//! [`sdd_core::MetricsExport`] document — the same top-level schema
//! (`{schema_version, reports: [...]}`) regardless of which binary
//! produced it, so one parser (`metrics_check`) covers them all.
//!
//! Criterion benches (`cargo bench -p sdd-bench`):
//!
//! * `timing_bench` — Monte-Carlo static analysis, dynamic simulation,
//!   cone-incremental defect re-analysis, exact waveform simulation.
//! * `atpg_bench` — PODEM, path-delay test generation, fault simulation.
//! * `diagnosis_bench` — probabilistic dictionary construction and the
//!   four-plus-one error-function rankings.

#![warn(missing_docs)]

use sdd_core::{MetricsExport, MetricsReport};
use sdd_netlist::profiles::BenchmarkProfile;

/// Extracts the value following `--flag` from a raw argument list, the
/// shared flag convention of every bench binary.
pub fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Validates and writes a [`MetricsExport`] to `path`, printing one
/// confirmation line. Bench binaries want loud failures, not silently
/// bad artifacts, so validation or I/O errors panic with context.
pub fn write_metrics_export(path: &str, reports: Vec<MetricsReport>) {
    let export = MetricsExport::new(reports);
    export
        .validate()
        .unwrap_or_else(|e| panic!("metrics export failed validation: {e}"));
    std::fs::write(path, export.to_json()).unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!(
        "metrics: wrote {} report(s) to {path}",
        export.reports.len()
    );
}

/// The `K` triplets the paper reports per circuit in Table I.
pub fn table1_k_values(circuit: &str) -> Vec<usize> {
    match circuit {
        "s1196" => vec![1, 3, 7],
        "s1238" => vec![1, 2, 7],
        "s1423" => vec![1, 2, 9],
        "s1488" => vec![1, 3, 5],
        "s5378" => vec![1, 2, 7],
        "s9234" => vec![2, 5, 11],
        "s13207" => vec![1, 5, 13],
        "s15850" => vec![1, 2, 9],
        _ => vec![1, 3, 7],
    }
}

/// The paper's Table I reference numbers: success rates in percent for
/// `(K, [Alg_sim I, Alg_sim II, Alg_rev])`, per circuit. Used by
/// `table1` to print paper-vs-measured side by side.
pub fn table1_reference(circuit: &str) -> Option<[(usize, [u32; 3]); 3]> {
    match circuit {
        "s1196" => Some([(1, [0, 5, 10]), (3, [0, 30, 30]), (7, [5, 35, 60])]),
        "s1238" => Some([(1, [0, 15, 20]), (2, [5, 25, 25]), (7, [25, 65, 65])]),
        "s1423" => Some([(1, [10, 15, 10]), (2, [30, 35, 35]), (9, [50, 60, 65])]),
        "s1488" => Some([(1, [5, 5, 5]), (3, [35, 30, 30]), (5, [55, 60, 65])]),
        "s5378" => Some([(1, [15, 25, 25]), (2, [30, 40, 45]), (7, [80, 85, 90])]),
        "s9234" => Some([(2, [25, 30, 30]), (5, [40, 50, 50]), (11, [60, 75, 70])]),
        "s13207" => Some([(1, [10, 20, 20]), (5, [30, 50, 60]), (13, [70, 70, 80])]),
        "s15850" => Some([(1, [10, 10, 10]), (2, [30, 30, 30]), (9, [40, 35, 45])]),
        _ => None,
    }
}

/// The Wilson score 95% interval of a binomial rate, `hits` of `n`, as
/// fractions `(low, high)`. Unlike the normal approximation it stays
/// inside `[0, 1]` and is not degenerate at 0 or `n` hits; an empty
/// sample gives the whole unit interval.
pub fn wilson_interval(hits: usize, n: usize) -> (f64, f64) {
    if n == 0 {
        return (0.0, 1.0);
    }
    const Z: f64 = 1.959_963_984_540_054;
    let (n, p) = (n as f64, hits as f64 / n as f64);
    let z2n = Z * Z / n;
    let center = (p + z2n / 2.0) / (1.0 + z2n);
    let half = Z / (1.0 + z2n) * (p * (1.0 - p) / n + z2n / (4.0 * n)).sqrt();
    ((center - half).max(0.0), (center + half).min(1.0))
}

/// A compact profile for the Criterion benches (s1196-scale is the sweet
/// spot between realism and bench runtime).
pub fn bench_profile() -> BenchmarkProfile {
    sdd_netlist::profiles::by_name("s1196").expect("s1196 profile exists")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_value_extracts_the_following_argument() {
        let args: Vec<String> = ["--seed", "7", "--quick"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(flag_value(&args, "--seed").as_deref(), Some("7"));
        assert_eq!(flag_value(&args, "--quick"), None, "boolean flag, no value");
        assert_eq!(flag_value(&args, "--store"), None, "absent flag");
    }

    #[test]
    fn k_values_match_paper_rows() {
        assert_eq!(table1_k_values("s1423"), vec![1, 2, 9]);
        assert_eq!(table1_k_values("s9234"), vec![2, 5, 11]);
        assert_eq!(table1_k_values("unknown"), vec![1, 3, 7]);
    }

    #[test]
    fn reference_rows_align_with_k_values() {
        for p in sdd_netlist::profiles::TABLE1_PROFILES {
            let ks = table1_k_values(p.name);
            let reference = table1_reference(p.name).expect("reference exists");
            for (row, &k) in reference.iter().zip(&ks) {
                assert_eq!(row.0, k, "{}", p.name);
            }
        }
    }

    #[test]
    fn wilson_interval_matches_reference_values() {
        // 10 of 20: center 0.5, half-width 0.2076 (textbook value).
        let (lo, hi) = wilson_interval(10, 20);
        assert!(
            (lo - 0.2993).abs() < 1e-4 && (hi - 0.7007).abs() < 1e-4,
            "{lo} {hi}"
        );
        // 0 of 20 keeps a positive upper bound; n of n a lower one.
        let (lo, hi) = wilson_interval(0, 20);
        assert_eq!(lo, 0.0);
        assert!((hi - 0.1611).abs() < 1e-4, "{hi}");
        let (lo, hi) = wilson_interval(20, 20);
        assert!((lo - 0.8389).abs() < 1e-4 && hi == 1.0, "{lo}");
        assert_eq!(wilson_interval(0, 0), (0.0, 1.0));
    }

    #[test]
    fn reference_rates_monotone_in_k() {
        for p in sdd_netlist::profiles::TABLE1_PROFILES {
            let reference = table1_reference(p.name).unwrap();
            for col in 0..3 {
                assert!(reference[0].1[col] <= reference[2].1[col], "{}", p.name);
            }
        }
    }
}
