//! Ablation study over the design choices DESIGN.md calls out:
//!
//! 1. **Capture model** — transition-arrival (paper-consistent) vs
//!    glitch-exact waveform observation of the behaviour matrix.
//! 2. **Clock policy** — the default clock sweep vs a fixed quantile of
//!    the tested-subcircuit delay vs a circuit-level quantile.
//! 3. **Monte-Carlo budget** — dictionary sample count.
//!
//! Each variant runs the same Table-I-style campaign on one circuit and
//! reports the success rates, isolating the contribution of each choice.
//!
//! ```text
//! cargo run -p sdd-bench --release --bin ablation \
//!     [-- --seed 2] [--circuit s1196] \
//!     [--kernel batched|screened] [--metrics-json PATH]
//! ```
//!
//! `--kernel` swaps the dictionary simulation kernel under *every*
//! variant (default: batched Monte-Carlo), so the whole ablation can be
//! re-read under the screened dictionary.
//!
//! With `--metrics-json <path>`, one [`sdd_core::MetricsReport`] per
//! completed variant (its `circuit` field tagged `circuit / label`) is
//! written as a combined [`sdd_core::MetricsExport`] document.

use sdd_bench::{flag_value, write_metrics_export};
use sdd_core::inject::{CampaignConfig, ClockPolicy};
use sdd_core::session::ArtifactLayer;
use sdd_core::{CaptureModel, MetricsReport, SimKernel};
use sdd_netlist::profiles;
use std::time::Instant;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed: u64 = flag_value(&args, "--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(2);
    let circuit = flag_value(&args, "--circuit").unwrap_or_else(|| "s1196".to_owned());
    let kernel = match flag_value(&args, "--kernel").as_deref() {
        None | Some("batched") => SimKernel::Batched,
        Some("screened") => SimKernel::Screened,
        Some(other) => panic!("unknown --kernel `{other}` (batched|screened)"),
    };
    let profile = profiles::by_name(&circuit).expect("known circuit name");

    println!("=== ablation on {circuit} (seed {seed}, kernel {kernel:?}) ===\n");

    let mut base = CampaignConfig::paper(seed);
    base.dictionary.kernel = kernel;
    let variants: Vec<(&str, CampaignConfig)> = vec![
        ("baseline (sweep + arrival capture + 150 MC)", base.clone()),
        ("capture = glitch-exact waveform", {
            let mut c = base.clone();
            c.capture = CaptureModel::Waveform;
            c
        }),
        ("clock = tested-delay median (no sweep)", {
            let mut c = base.clone();
            c.clock = ClockPolicy::TestedQuantile(0.5);
            c
        }),
        ("clock = circuit-delay q95 (guard-banded)", {
            let mut c = base.clone();
            c.clock = ClockPolicy::CircuitQuantile(0.95);
            c
        }),
        ("dictionary MC = 40 samples", {
            let mut c = base.clone();
            c.dictionary.n_samples = 40;
            c
        }),
        ("dictionary MC = 400 samples", {
            let mut c = base.clone();
            c.dictionary.n_samples = 400;
            c
        }),
        ("sweep_extra_steps = 0", {
            let mut c = base.clone();
            c.sweep_extra_steps = 0;
            c
        }),
    ];

    // One session over one layer across all variants: dictionary banks
    // are keyed on everything the simulation reads, so variants that
    // only change the observation side (e.g. the capture model)
    // legitimately share them.
    let session = ArtifactLayer::new().session("ablation");
    let mut metrics_reports: Vec<MetricsReport> = Vec::new();
    for (label, config) in variants {
        let t0 = Instant::now();
        match session.run_campaign(&profile, &config) {
            Ok(report) => {
                let mut m = MetricsReport::from_report(&report);
                m.circuit = format!("{} / {label}", m.circuit);
                metrics_reports.push(m);
                println!("--- {label} ({:.1?})", t0.elapsed());
                println!("{}", report.render_table());
                println!("{}", report.metrics.render());
            }
            Err(e) => println!("--- {label}: failed: {e}\n"),
        }
    }
    println!("reading: the guard-banded circuit-level clock makes sub-cell-delay");
    println!("defects invisible (near-zero rates); the waveform capture adds");
    println!("hazard failures the dictionary cannot explain; the sweep depth and");
    println!("Monte-Carlo budget trade accuracy against runtime.");
    if let Some(path) = flag_value(&args, "--metrics-json") {
        write_metrics_export(&path, metrics_reports);
    }
}
