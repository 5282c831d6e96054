//! Quickstart: build a small data-center fabric, generate bursty traffic,
//! train FIGRET and compare it against DOTE and the omniscient optimum.
//!
//! Run with: `cargo run --release --example quickstart`

use figret::{FigretConfig, FigretModel};
use figret_solvers::omniscient_config;
use figret_te::{max_link_utilization, PathSet, TeConfig};
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

    // 4. Evaluate on the last 25%: average MLU normalized by the omniscient optimum.
    let window = config.history_window;
    let mut sums = [0.0f64; 4]; // figret, dote, uniform, omniscient
    let mut count = 0usize;
    for t in split.test.clone() {
        if t < window {
            continue;
        }
        let history = &trace.matrices()[t - window..t];
        let demand = trace.matrix(t);
        let omni = omniscient_config(&paths, demand).expect("omniscient solves");
        sums[0] += max_link_utilization(&paths, &figret.predict(&paths, history), demand);
        sums[1] += max_link_utilization(&paths, &dote.predict(&paths, history), demand);
        sums[2] += max_link_utilization(&paths, &TeConfig::uniform(&paths), demand);
        sums[3] += max_link_utilization(&paths, &omni, demand);
        count += 1;
    }
    let avg = |s: f64| s / count as f64;
    println!("\naverage MLU over {count} test snapshots (lower is better):");
    println!("  omniscient : {:.4}", avg(sums[3]));
    println!("  FIGRET     : {:.4}  ({:.2}x optimal)", avg(sums[0]), avg(sums[0]) / avg(sums[3]));
    println!("  DOTE       : {:.4}  ({:.2}x optimal)", avg(sums[1]), avg(sums[1]) / avg(sums[3]));
    println!("  uniform    : {:.4}  ({:.2}x optimal)", avg(sums[2]), avg(sums[2]) / avg(sums[3]));
}
