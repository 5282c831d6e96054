//! Quickstart: build a small data-center fabric, generate bursty traffic,
//! train FIGRET and compare it against DOTE and the omniscient optimum.
//!
//! Run with: `cargo run --release --example quickstart`

use figret::{FigretConfig, FigretModel};
use figret_serve::ServedModel;
use figret_solvers::omniscient_config;
use figret_te::{max_link_utilization_pairs, PathSet, TeConfig};
use figret_topology::{Topology, TopologySpec};
use figret_traffic::datacenter::{pod_trace, PodTrafficConfig};
use figret_traffic::{per_pair_variance_range, TrainTestSplit, WindowDataset};

fn main() {
    // 1. Topology: the 4-PoD Meta DB fabric (full mesh, Table 1 of the paper).
    let graph = TopologySpec::full_scale(Topology::MetaDbPod).build();
    let paths = PathSet::k_shortest(&graph, 3);
    println!(
        "topology: {} nodes, {} directed edges, {} candidate paths",
        graph.num_nodes(),
        graph.num_edges(),
        paths.num_paths()
    );

    // 2. Traffic: a synthetic PoD-level trace with heterogeneous burstiness.
    let trace = pod_trace(&graph, &PodTrafficConfig { num_snapshots: 300, ..Default::default() });
    let split = TrainTestSplit::chronological(trace.len(), 0.75);
    let variances = per_pair_variance_range(&trace, split.train.clone());

    // 3. Train FIGRET and DOTE on the first 75% of the trace.
    let config = FigretConfig { history_window: 8, epochs: 8, ..FigretConfig::default() };
    let dataset = WindowDataset::from_trace(&trace, config.history_window, split.train.clone());
    let mut figret = FigretModel::new(&paths, &variances, config.clone());
    let report = figret.train(&dataset);
    println!(
        "FIGRET trained: {} parameters, {:.1}s, final loss {:.4}",
        figret.num_parameters(),
        report.wall_seconds,
        report.final_loss().unwrap()
    );
    let mut dote = FigretModel::new(
        &paths,
        &variances,
        FigretConfig { robustness_weight: 0.0, ..config.clone() },
    );
    dote.train(&dataset);

    // 4. Evaluate on the last 25%: average MLU normalized by the omniscient
    // optimum.  Each model serves through its compiled f32 plan, the forward
    // pass a serving controller deploys.
    let mut models = [ServedModel::new(figret), ServedModel::new(dote)];
    let window = config.history_window;
    let targets: Vec<usize> = split.test.clone().filter(|&t| t >= window).collect();
    let test = WindowDataset::from_targets(&trace, window, targets.iter().copied());
    let (mut features, mut raw, mut cfg) = (Vec::new(), Vec::new(), TeConfig::default());
    let mut sums = [0.0f64; 4]; // figret, dote, uniform, omniscient
    for i in 0..test.len() {
        let demand = test.target(i);
        for (sum, model) in sums.iter_mut().zip(&mut models) {
            model.candidate_into(&paths, test.history(i), &mut features, &mut raw, &mut cfg);
            *sum += max_link_utilization_pairs(&paths, &cfg, demand);
        }
        let omni = omniscient_config(&paths, demand).expect("omniscient solves");
        sums[2] += max_link_utilization_pairs(&paths, &TeConfig::uniform(&paths), demand);
        sums[3] += max_link_utilization_pairs(&paths, &omni, demand);
    }
    let count = targets.len();
    let avg = |s: f64| s / count as f64;
    println!("\naverage MLU over {count} test snapshots (lower is better):");
    println!("  omniscient : {:.4}", avg(sums[3]));
    println!("  FIGRET     : {:.4}  ({:.2}x optimal)", avg(sums[0]), avg(sums[0]) / avg(sums[3]));
    println!("  DOTE       : {:.4}  ({:.2}x optimal)", avg(sums[1]), avg(sums[1]) / avg(sums[3]));
    println!("  uniform    : {:.4}  ({:.2}x optimal)", avg(sums[2]), avg(sums[2]) / avg(sums[3]));
}
