//! Cross-crate consistency checks between the LP-based baselines, the failure
//! model and the evaluation metrics.

use figret_solvers::{
    desensitization_bounds, normalized_bound_to_absolute, omniscient_config, solve_iterative,
    solve_lp, solve_min_mlu, DesensitizationSettings, IterativeSettings, MluProblem,
};
use figret_te::{
    max_link_utilization_pairs, max_sensitivity, reroute_around_failures, PathSet, TeConfig,
};
use figret_topology::{random_link_failures, Topology, TopologySpec};
use figret_traffic::datacenter::{pod_trace, PodTrafficConfig};

fn setup() -> (figret_topology::Graph, PathSet, figret_traffic::TrafficTrace) {
    let graph = TopologySpec::full_scale(Topology::MetaWebPod).build();
    let paths = PathSet::k_shortest(&graph, 3);
    let trace = pod_trace(&graph, &PodTrafficConfig { num_snapshots: 40, ..Default::default() });
    (graph, paths, trace)
}

#[test]
fn omniscient_prediction_and_desensitization_are_ordered_sensibly() {
    let (_graph, paths, trace) = setup();
    let t = trace.len() - 1;
    let history: Vec<Vec<f64>> =
        trace.snapshots()[t - 8..t].iter().map(|c| c.values().to_vec()).collect();
    let realized = trace.snapshot(t).values();

    // Pred TE solves for the last snapshot, Des TE for the window's peak
    // under the uniform sensitivity cap.
    let omni = omniscient_config(&paths, realized).unwrap();
    let last = history.last().unwrap().clone();
    let pred = solve_min_mlu(&MluProblem::new(&paths, last)).unwrap();
    let mut peak = history[0].clone();
    for column in &history[1..] {
        for (p, d) in peak.iter_mut().zip(column) {
            *p = p.max(*d);
        }
    }
    let bounds = desensitization_bounds(&paths, &DesensitizationSettings::default());
    let des =
        solve_min_mlu(&MluProblem::new(&paths, peak).with_sensitivity_bounds(bounds)).unwrap();

    let omni_mlu = max_link_utilization_pairs(&paths, &omni, realized);
    let pred_mlu = max_link_utilization_pairs(&paths, &pred, realized);
    let des_mlu = max_link_utilization_pairs(&paths, &des, realized);

    assert!(omni_mlu <= pred_mlu + 1e-9, "omniscient must lower-bound prediction TE");
    assert!(omni_mlu <= des_mlu + 1e-9, "omniscient must lower-bound desensitization TE");

    // Des TE respects the uniform sensitivity cap even after solving.
    let min_cap = paths.edge_capacities().iter().cloned().fold(f64::INFINITY, f64::min);
    let bound = normalized_bound_to_absolute(2.0 / 3.0, min_cap);
    assert!(max_sensitivity(&paths, &des) <= bound + 1e-6);
}

#[test]
fn rerouted_configurations_remain_valid_and_evaluable() {
    let (graph, paths, trace) = setup();
    let demand = trace.snapshot(0).values();
    let scenario = random_link_failures(&graph, 2, 5).expect("the full mesh survives 2 failures");
    for config in [TeConfig::uniform(&paths), TeConfig::shortest_path(&paths)] {
        let rerouted = reroute_around_failures(&paths, &config, &scenario);
        assert!(rerouted.is_valid(&paths));
        let mlu = max_link_utilization_pairs(&paths, &rerouted, demand);
        assert!(mlu.is_finite() && mlu > 0.0);
        // Rerouting around failures cannot decrease the load on the surviving
        // links for the same demand, so the MLU never improves.
        let before = max_link_utilization_pairs(&paths, &config, demand);
        assert!(mlu + 1e-9 >= before);
    }
}

#[test]
fn lp_and_iterative_engines_agree_on_the_web_pod_fabric() {
    let (_graph, paths, trace) = setup();
    let demand = trace.snapshot(10).values();
    let problem = MluProblem::new(&paths, demand.to_vec());
    let lp = solve_lp(&problem).unwrap();
    let iterative =
        solve_iterative(&problem, IterativeSettings { iterations: 800, ..Default::default() });
    let lp_mlu = max_link_utilization_pairs(&paths, &lp, demand);
    let it_mlu = max_link_utilization_pairs(&paths, &iterative, demand);
    assert!(
        it_mlu <= lp_mlu * 1.08 + 1e-9,
        "iterative engine ({it_mlu:.4}) should be within a few percent of the LP ({lp_mlu:.4})"
    );
}
