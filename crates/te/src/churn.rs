//! Routing churn: how much a reconfiguration moves traffic.
//!
//! An online controller pays for every update it pushes to the network:
//! changing split ratios reorders flows, perturbs congestion control and
//! consumes switch-table update budget.  The churn of an update is measured
//! as the L1 distance between the old and new split-ratio vectors,
//! `Σ_p |r'_p − r_p|` — twice the total fraction of per-pair traffic that
//! moves to a different path, summed over pairs (each unit of traffic that
//! moves is counted once leaving its old path and once arriving on the new
//! one).  A no-op update has churn 0; fully re-routing one pair contributes
//! at most 2.

use crate::config::TeConfig;

/// L1 distance between the split-ratio vectors of two configurations
/// (`Σ_p |a_p − b_p|`).  Both configurations must cover the same path set.
pub fn split_ratio_churn(a: &TeConfig, b: &TeConfig) -> f64 {
    assert_eq!(
        a.ratios().len(),
        b.ratios().len(),
        "churn requires configurations over the same path set"
    );
    a.ratios().iter().zip(b.ratios()).map(|(x, y)| (x - y).abs()).sum()
}

/// Mean churn between consecutive configurations of a series (0.0 for a
/// series of fewer than two configurations).  The series is interpreted as
/// the deployed configuration per snapshot, in snapshot order.
pub fn mean_series_churn(configs: &[TeConfig]) -> f64 {
    if configs.len() < 2 {
        return 0.0;
    }
    let total: f64 = configs.windows(2).map(|w| split_ratio_churn(&w[0], &w[1])).sum();
    total / (configs.len() - 1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pathset::PathSet;
    use figret_topology::{Topology, TopologySpec};

    fn pod_paths() -> PathSet {
        let g = TopologySpec::full_scale(Topology::MetaDbPod).build();
        PathSet::k_shortest(&g, 3)
    }

    #[test]
    fn identical_configs_have_zero_churn() {
        let ps = pod_paths();
        let a = TeConfig::uniform(&ps);
        assert_eq!(split_ratio_churn(&a, &a), 0.0);
        assert_eq!(mean_series_churn(&[a.clone(), a.clone(), a]), 0.0);
    }

    #[test]
    fn churn_is_symmetric_and_bounded_per_pair() {
        let ps = pod_paths();
        let a = TeConfig::uniform(&ps);
        let b = TeConfig::shortest_path(&ps);
        let ab = split_ratio_churn(&a, &b);
        let ba = split_ratio_churn(&b, &a);
        assert!((ab - ba).abs() < 1e-15);
        assert!(ab > 0.0);
        // Each pair's ratios sum to one in both configs, so the per-pair L1
        // distance is at most 2 and the total at most 2 * num_pairs.
        assert!(ab <= 2.0 * ps.num_pairs() as f64 + 1e-9);
    }

    #[test]
    fn mean_series_churn_averages_steps() {
        let ps = pod_paths();
        let a = TeConfig::uniform(&ps);
        let b = TeConfig::shortest_path(&ps);
        let step = split_ratio_churn(&a, &b);
        // a -> b -> b: one churning step, one static step.
        let mean = mean_series_churn(&[a.clone(), b.clone(), b.clone()]);
        assert!((mean - step / 2.0).abs() < 1e-12);
        assert_eq!(mean_series_churn(&[a]), 0.0);
        assert_eq!(mean_series_churn(&[]), 0.0);
    }

    #[test]
    fn lerp_moves_churn_proportionally() {
        let ps = pod_paths();
        let a = TeConfig::uniform(&ps);
        let b = TeConfig::shortest_path(&ps);
        let mixed = a.ratios().iter().zip(b.ratios()).map(|(x, y)| 0.5 * x + 0.5 * y).collect();
        let half = TeConfig::from_normalized(&ps, mixed).expect("a convex mix stays normalized");
        let full = split_ratio_churn(&a, &b);
        assert!((split_ratio_churn(&a, &half) - 0.5 * full).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "same path set")]
    fn churn_rejects_mismatched_configs() {
        let ps = pod_paths();
        let a = TeConfig::uniform(&ps);
        let other = {
            let g = TopologySpec::full_scale(Topology::Geant).build();
            let ps2 = PathSet::k_shortest(&g, 3);
            TeConfig::uniform(&ps2)
        };
        split_ratio_churn(&a, &other);
    }
}
