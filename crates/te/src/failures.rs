//! Failure handling (§4.5 of the paper).
//!
//! When links fail, the paths that traverse them become unavailable.  The
//! widely adopted approach the paper integrates into FIGRET reroutes traffic
//! around failed paths by proportionally redistributing each pair's failed
//! split ratios over its surviving paths:
//!
//! * if the surviving paths have non-zero ratios, the failed mass is spread
//!   proportionally to those ratios (e.g. `(0.5, 0.3, 0.2)` with the first path
//!   failed becomes `(0, 0.6, 0.4)`);
//! * if all surviving paths have zero ratio, the failed mass is spread equally
//!   (e.g. `(1, 0, 0)` becomes `(0, 0.5, 0.5)`).
//!
//! No retraining or re-optimization is needed.

use figret_topology::FailureScenario;

use crate::config::TeConfig;
use crate::pathset::PathSet;

/// `mask[p] == true` iff path `p` survives the failure scenario.
pub fn available_paths(paths: &PathSet, scenario: &FailureScenario) -> Vec<bool> {
    (0..paths.num_paths())
        .map(|pi| {
            !paths.path_edges(pi).iter().any(|&e| scenario.is_failed(figret_topology::EdgeId(e)))
        })
        .collect()
}

/// Applies the proportional-redistribution rule to a configuration.
///
/// Pairs whose candidate paths all fail keep zero ratios (their demand cannot
/// be served; callers may treat that as loss or as infinite utilization).
pub fn reroute_around_failures(
    paths: &PathSet,
    config: &TeConfig,
    scenario: &FailureScenario,
) -> TeConfig {
    let alive = available_paths(paths, scenario);
    reroute_with_mask(paths, config, &alive)
}

/// Same as [`reroute_around_failures`] but with an explicit availability mask
/// (used by fault-aware baselines that reason about hypothetical failures).
pub fn reroute_with_mask(paths: &PathSet, config: &TeConfig, alive: &[bool]) -> TeConfig {
    assert_eq!(alive.len(), paths.num_paths(), "one availability flag per path is required");
    let mut ratios = config.ratios().to_vec();
    for pair in 0..paths.num_pairs() {
        let range: Vec<usize> = paths.paths_of_pair(pair).collect();
        if range.is_empty() {
            continue;
        }
        let alive_paths: Vec<usize> = range.iter().copied().filter(|&pi| alive[pi]).collect();
        let failed_mass: f64 =
            range.iter().copied().filter(|&pi| !alive[pi]).map(|pi| ratios[pi]).sum();
        if alive_paths.is_empty() {
            // Nothing survives: zero everything, the demand cannot be served.
            for pi in range {
                ratios[pi] = 0.0;
            }
            continue;
        }
        if failed_mass == 0.0 {
            continue;
        }
        let alive_mass: f64 = alive_paths.iter().map(|&pi| ratios[pi]).sum();
        if alive_mass > 0.0 {
            // Proportional redistribution.
            let scale = (alive_mass + failed_mass) / alive_mass;
            for &pi in &alive_paths {
                ratios[pi] *= scale;
            }
        } else {
            // Equal redistribution.
            let share = failed_mass / alive_paths.len() as f64;
            for &pi in &alive_paths {
                ratios[pi] = share;
            }
        }
        for &pi in &range {
            if !alive[pi] {
                ratios[pi] = 0.0;
            }
        }
    }
    // The redistribution preserves every other pair's sum by construction.
    // A pair that lost every path keeps its zeros: renormalizing it would
    // spread its demand back over the dead paths, whose live edges would
    // then carry traffic that cannot reach them.
    TeConfig::from_rerouted(ratios)
}

#[cfg(test)]
mod tests {
    use super::*;
    use figret_topology::{EdgeId, Graph, NodeId};

    /// Three parallel 2-hop routes from 0 to 4 via 1, 2, 3.
    fn three_route_net() -> (Graph, PathSet) {
        let mut g = Graph::new(5);
        for via in 1..=3 {
            g.add_bidirectional(NodeId(0), NodeId(via), 10.0).unwrap();
            g.add_bidirectional(NodeId(via), NodeId(4), 10.0).unwrap();
        }
        let ps = PathSet::k_shortest(&g, 3);
        (g, ps)
    }

    fn pair_index(ps: &PathSet, s: usize, d: usize) -> usize {
        ps.pairs().iter().position(|&(a, b)| a == NodeId(s) && b == NodeId(d)).unwrap()
    }

    #[test]
    fn proportional_redistribution_matches_paper_example() {
        let (g, ps) = three_route_net();
        let pair = pair_index(&ps, 0, 4);
        let idx: Vec<usize> = ps.paths_of_pair(pair).collect();
        assert_eq!(idx.len(), 3);
        // Ratios (0.5, 0.3, 0.2); fail the first path's first edge.
        let mut raw = TeConfig::uniform(&ps).ratios().to_vec();
        raw[idx[0]] = 0.5;
        raw[idx[1]] = 0.3;
        raw[idx[2]] = 0.2;
        let cfg = TeConfig::from_raw(&ps, &raw);
        let failed_edge = ps.path_edges(idx[0])[0];
        let scenario = FailureScenario::from_edges(vec![EdgeId(failed_edge)]);
        let rerouted = reroute_around_failures(&ps, &cfg, &scenario);
        assert!((rerouted.ratio(idx[0]) - 0.0).abs() < 1e-12);
        assert!((rerouted.ratio(idx[1]) - 0.6).abs() < 1e-12);
        assert!((rerouted.ratio(idx[2]) - 0.4).abs() < 1e-12);
        let _ = g;
    }

    #[test]
    fn equal_redistribution_when_survivors_have_zero_ratio() {
        let (_g, ps) = three_route_net();
        let pair = pair_index(&ps, 0, 4);
        let idx: Vec<usize> = ps.paths_of_pair(pair).collect();
        let mut raw = TeConfig::uniform(&ps).ratios().to_vec();
        raw[idx[0]] = 1.0;
        raw[idx[1]] = 0.0;
        raw[idx[2]] = 0.0;
        let cfg = TeConfig::from_raw(&ps, &raw);
        let failed_edge = ps.path_edges(idx[0])[0];
        let scenario = FailureScenario::from_edges(vec![EdgeId(failed_edge)]);
        let rerouted = reroute_around_failures(&ps, &cfg, &scenario);
        assert!((rerouted.ratio(idx[1]) - 0.5).abs() < 1e-12);
        assert!((rerouted.ratio(idx[2]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unaffected_pairs_are_untouched() {
        let (_g, ps) = three_route_net();
        let cfg = TeConfig::uniform(&ps);
        let pair04 = pair_index(&ps, 0, 4);
        let idx: Vec<usize> = ps.paths_of_pair(pair04).collect();
        let failed_edge = ps.path_edges(idx[0])[0];
        let scenario = FailureScenario::from_edges(vec![EdgeId(failed_edge)]);
        let rerouted = reroute_around_failures(&ps, &cfg, &scenario);
        // A pair that does not use the failed edge keeps its ratios.
        for pair in 0..ps.num_pairs() {
            let uses_failed =
                ps.paths_of_pair(pair).any(|pi| ps.path_edges(pi).contains(&failed_edge));
            if !uses_failed {
                for pi in ps.paths_of_pair(pair) {
                    assert_eq!(rerouted.ratio(pi), cfg.ratio(pi));
                }
            }
        }
    }

    #[test]
    fn a_pair_without_a_live_path_carries_nothing() {
        let (_g, ps) = three_route_net();
        let pair = pair_index(&ps, 0, 4);
        // Fail the first edge of every route out of node 0.
        let failed: Vec<EdgeId> =
            ps.paths_of_pair(pair).map(|pi| EdgeId(ps.path_edges(pi)[0])).collect();
        let rerouted = reroute_around_failures(
            &ps,
            &TeConfig::uniform(&ps),
            &FailureScenario::from_edges(failed),
        );
        assert!(ps.paths_of_pair(pair).all(|pi| rerouted.ratio(pi) == 0.0));
        let mut demand = vec![0.0; ps.num_pairs()];
        demand[pair] = 5.0;
        assert_eq!(crate::max_link_utilization_pairs(&ps, &rerouted, &demand), 0.0);
    }

    #[test]
    fn availability_mask_matches_failed_edges() {
        let (_g, ps) = three_route_net();
        let scenario = FailureScenario::from_edges(vec![EdgeId(0)]);
        let alive = available_paths(&ps, &scenario);
        for pi in 0..ps.num_paths() {
            let uses = ps.path_edges(pi).contains(&0usize);
            assert_eq!(alive[pi], !uses);
        }
        // No failures: everything alive.
        let all_alive = available_paths(&ps, &FailureScenario::none());
        assert!(all_alive.iter().all(|a| *a));
    }
}
