//! Wide-area-network scenario: the GEANT topology with mostly-stable traffic
//! that occasionally bursts.  Compares FIGRET against DOTE, Google-style
//! desensitization TE and prediction-based TE (a miniature Figure 5(a)).
//!
//! Run with: `cargo run --release --example wan_geant`

use figret::FigretConfig;
use figret_eval::{omniscient_series, run_scheme, EvalOptions, Scenario, ScenarioOptions, Scheme};
use figret_solvers::DesensitizationSettings;
use figret_topology::Topology;

fn main() {
    let scenario = Scenario::build(
        Topology::Geant,
        &ScenarioOptions { num_snapshots: 300, ..Default::default() },
    );
    println!(
        "GEANT: {} nodes, {} edges, {} snapshots ({} train / {} test)",
        scenario.graph.num_nodes(),
        scenario.graph.num_edges(),
        scenario.trace.len(),
        scenario.split.train.len(),
        scenario.split.test.len()
    );

    let eval = EvalOptions { window: 12, max_eval_snapshots: Some(30), ..Default::default() };
    let baseline = omniscient_series(&scenario, &eval);
    let learning = FigretConfig { epochs: 8, ..FigretConfig::default() };
    let schemes = vec![
        Scheme::Figret(learning.clone()),
        Scheme::Dote(FigretConfig { robustness_weight: 0.0, ..learning.clone() }),
        Scheme::Desensitization(DesensitizationSettings::default()),
        Scheme::Prediction,
    ];
    println!("\nMLU normalized by the omniscient optimum (lower is better):");
    println!("{:<12} {:>8} {:>8} {:>8} {:>8}", "scheme", "mean", "median", "p99", "max");
    for scheme in schemes {
        let run = run_scheme(&scenario, &scheme, &eval);
        let q = run.quality(&baseline);
        println!(
            "{:<12} {:>8.3} {:>8.3} {:>8.3} {:>8.3}",
            q.scheme,
            q.normalized_mlu.mean,
            q.normalized_mlu.median,
            q.normalized_mlu.p99,
            q.normalized_mlu.max
        );
    }
}
