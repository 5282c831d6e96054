//! Manual timing probe (ignored by default):
//! `cargo test -p figret-solvers --release --test timing -- --ignored --nocapture`
use figret_solvers::{solve_iterative, solve_lp, IterativeSettings, MluProblem};
use figret_te::{max_link_utilization, PathSet};
use figret_topology::{Topology, TopologySpec};
use figret_traffic::wan::{wan_trace, WanTrafficConfig};

#[test]
#[ignore]
fn timing_geant_engines() {
    let g = TopologySpec::full_scale(Topology::Geant).build();
    let ps = PathSet::k_shortest(&g, 3);
    let trace = wan_trace(&g, &WanTrafficConfig { num_snapshots: 3, ..Default::default() });
    let d = trace.matrix(2);
    let problem = MluProblem::new(&ps, d.flatten_pairs());
    let t0 = std::time::Instant::now();
    let lp = solve_lp(&problem).unwrap();
    let lp_time = t0.elapsed();
    let t1 = std::time::Instant::now();
    let it = solve_iterative(&problem, IterativeSettings { iterations: 500, ..Default::default() });
    let it_time = t1.elapsed();
    println!(
        "GEANT paths={} LP: {:?} mlu={:.4}  Iterative: {:?} mlu={:.4}",
        ps.num_paths(),
        lp_time,
        max_link_utilization(&ps, &lp, d),
        it_time,
        max_link_utilization(&ps, &it, d)
    );
}
