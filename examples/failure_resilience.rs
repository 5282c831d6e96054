//! Link-failure resilience (a miniature Figure 7): fail 1-3 random links on
//! GEANT, reroute every scheme's configuration around the failures, and
//! compare against a failure-aware oracle.
//!
//! Run with: `cargo run --release --example failure_resilience`

use figret::FigretConfig;
use figret_eval::{omniscient_series, run_scheme, EvalOptions, Scenario, ScenarioOptions, Scheme};
use figret_solvers::DesensitizationSettings;
use figret_topology::{random_link_failures, Topology};

fn main() {
    let scenario = Scenario::build(
        Topology::Geant,
        &ScenarioOptions { num_snapshots: 260, ..Default::default() },
    );
    let learning = FigretConfig { epochs: 8, ..FigretConfig::default() };
    println!("GEANT link-failure study (normalized vs. failure-aware oracle)");
    println!("{:<12} {:>10} {:>10} {:>10}", "scheme", "1 failure", "2 failures", "3 failures");

    let schemes = [
        ("FIGRET", Scheme::Figret(learning.clone())),
        ("DOTE", Scheme::Dote(FigretConfig { robustness_weight: 0.0, ..learning })),
        ("Des TE", Scheme::Desensitization(DesensitizationSettings::default())),
        ("FA Des TE", Scheme::FaultAwareDesensitization(DesensitizationSettings::default())),
    ];
    let mut columns: Vec<Vec<f64>> = vec![Vec::new(); schemes.len()];
    for failures in 1..=3usize {
        let failure = random_link_failures(&scenario.graph, failures, 2024)
            .expect("GEANT tolerates three failures");
        let eval = EvalOptions { window: 12, max_eval_snapshots: Some(15), failure: Some(failure) };
        let baseline = omniscient_series(&scenario, &eval);
        for (i, (_, scheme)) in schemes.iter().enumerate() {
            let run = run_scheme(&scenario, scheme, &eval);
            let q = run.quality(&baseline);
            columns[i].push(q.normalized_mlu.mean);
        }
    }
    for (i, (name, _)) in schemes.iter().enumerate() {
        println!(
            "{:<12} {:>10.3} {:>10.3} {:>10.3}",
            name, columns[i][0], columns[i][1], columns[i][2]
        );
    }
}
