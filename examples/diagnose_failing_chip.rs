//! Diagnose a batch of failing chips from one benchmark-sized design —
//! the scenario the paper's evaluation (Section I) models: a tester sees
//! chips failing at-speed tests and must tell the failure-analysis lab
//! where to look.
//!
//! ```text
//! cargo run --release --example diagnose_failing_chip
//! ```

use sdd::diagnosis::inject::CampaignConfig;
use sdd::diagnosis::session::{ArtifactLayer, Design};
use sdd::diagnosis::ErrorFunction;
use sdd::netlist::generator::generate;
use sdd::netlist::profiles;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let config = CampaignConfig::paper(11);
    let profile = profiles::by_name("s1238").expect("s1238 profile exists");
    let circuit = generate(&profile.to_config(config.seed))?.to_combinational()?;
    // Timing, defect model and clocks: the environment every chip of
    // this design is diagnosed in.
    let design = Design::new(circuit, config.variation);
    let circuit = design.circuit();
    let session = ArtifactLayer::new().session("");

    println!(
        "design: {} — {} gates, {} arcs (candidate defect sites)\n",
        circuit.name(),
        circuit.num_gates(),
        circuit.num_edges()
    );

    let rev = ErrorFunction::EXTENDED
        .iter()
        .position(|&f| f == ErrorFunction::Euclidean)
        .expect("Alg_rev present");

    let mut diagnosed = 0;
    let mut hits_at_5 = 0;
    for chip in 0..8 {
        let Some(outcome) = session.diagnose_instance(&design, &config, chip)? else {
            println!("chip {chip}: no observable failure (defect escaped)");
            continue;
        };
        if outcome.rankings.is_empty() {
            println!("chip {chip}: fails but no arc is sensitized to a failing output");
            continue;
        }
        diagnosed += 1;
        let ranking = &outcome.rankings[rev];
        let top5: Vec<String> = ranking.iter().take(5).map(|r| r.edge.to_string()).collect();
        let pos = ranking.iter().position(|r| r.edge == outcome.injected);
        if matches!(pos, Some(p) if p < 5) {
            hits_at_5 += 1;
        }
        println!(
            "chip {chip}: true defect {} ({:.0} ps) | {} patterns, {} suspects | Alg_rev top-5: [{}] | true defect at {}",
            outcome.injected,
            outcome.delta * 1000.0,
            outcome.n_patterns,
            outcome.n_suspects,
            top5.join(", "),
            pos.map(|p| format!("rank {}", p + 1))
                .unwrap_or_else(|| "—".to_owned()),
        );
    }
    println!(
        "\n{} of {} diagnosed chips had the true defect in the Alg_rev top-5",
        hits_at_5, diagnosed
    );
    println!("(the paper's Table I reports exactly this success-at-K metric)");
    Ok(())
}
