//! Integration test reproducing the Figure 3 illustrative example of the
//! paper exactly (the normal-case MLUs of the three TE schemes), across the
//! topology, path, config and MLU layers.

use figret::{FigretConfig, FigretModel};
use figret_te::{max_link_utilization_pairs, max_sensitivity_per_pair, PathSet, TeConfig};
use figret_topology::{Graph, NodeId};
use figret_traffic::{per_pair_variance, DemandMatrix, TrafficTrace, WindowDataset};

fn figure3_network() -> (Graph, PathSet) {
    let mut g = Graph::named("figure3", 3);
    g.add_bidirectional(NodeId(0), NodeId(1), 2.0).unwrap();
    g.add_bidirectional(NodeId(0), NodeId(2), 2.0).unwrap();
    g.add_bidirectional(NodeId(1), NodeId(2), 2.0).unwrap();
    let ps = PathSet::k_shortest(&g, 2);
    (g, ps)
}

fn demand(ab: f64, ac: f64, bc: f64) -> DemandMatrix {
    let mut d = DemandMatrix::zeros(3);
    d.set(0, 1, ab);
    d.set(0, 2, ac);
    d.set(1, 2, bc);
    d
}

fn mlu(ps: &PathSet, config: &TeConfig, demand: &DemandMatrix) -> f64 {
    max_link_utilization_pairs(ps, config, &demand.flatten_pairs())
}

#[test]
fn scheme1_and_scheme2_match_section_2_3() {
    let (_g, ps) = figure3_network();
    let shortest = TeConfig::shortest_path(&ps);
    let uniform = TeConfig::uniform(&ps);

    // Scheme 1: optimal in the normal case (0.5) but MLU 2 under any burst.
    assert!((mlu(&ps, &shortest, &demand(1.0, 1.0, 1.0)) - 0.5).abs() < 1e-9);
    assert!((mlu(&ps, &shortest, &demand(4.0, 1.0, 1.0)) - 2.0).abs() < 1e-9);

    // Scheme 2: 0.75 normal, 1.5 under every burst.
    assert!((mlu(&ps, &uniform, &demand(1.0, 1.0, 1.0)) - 0.75).abs() < 1e-9);
    for burst in [demand(4.0, 1.0, 1.0), demand(1.0, 4.0, 1.0), demand(1.0, 1.0, 4.0)] {
        assert!((mlu(&ps, &uniform, &burst) - 1.5).abs() < 1e-9);
    }
}

#[test]
fn scheme3_balances_normal_case_and_the_bursty_pair() {
    let (_g, ps) = figure3_network();
    let mut raw = vec![0.0; ps.num_paths()];
    for pair in 0..ps.num_pairs() {
        let (s, d) = ps.pairs()[pair];
        for pi in ps.paths_of_pair(pair) {
            let direct = ps.path(pi).len() == 1;
            raw[pi] = if s == NodeId(1) && d == NodeId(2) {
                if direct {
                    0.625
                } else {
                    0.375
                }
            } else if direct {
                1.0
            } else {
                0.0
            };
        }
    }
    let scheme3 = TeConfig::from_raw(&ps, &raw);
    let uniform = TeConfig::uniform(&ps);

    // Normal case: 0.6875 (paper §2.3), better than scheme 2's 0.75.
    let normal = demand(1.0, 1.0, 1.0);
    assert!((mlu(&ps, &scheme3, &normal) - 0.6875).abs() < 1e-9);
    assert!(mlu(&ps, &scheme3, &normal) < mlu(&ps, &uniform, &normal));

    // Burst on the hedged pair (B -> C): 1.25, better than scheme 2's 1.5.
    let burst3 = demand(1.0, 1.0, 4.0);
    assert!((mlu(&ps, &scheme3, &burst3) - 1.25).abs() < 1e-9);
    assert!(mlu(&ps, &scheme3, &burst3) < mlu(&ps, &uniform, &burst3));

    // Burst on an unhedged pair: worse than scheme 2 — the trade-off the paper
    // uses to motivate fine-grained robustness.
    let burst1 = demand(4.0, 1.0, 1.0);
    assert!(mlu(&ps, &scheme3, &burst1) > mlu(&ps, &uniform, &burst1));
}

/// Pair B -> C's slot in the path set's pair order.
fn pair_bc(ps: &PathSet) -> usize {
    ps.pairs().iter().position(|&p| p == (NodeId(1), NodeId(2))).expect("B -> C is a pair")
}

/// Trains FIGRET (`fast_test`, its seed) at robustness weight `alpha` on a
/// 400-snapshot Fig 3 history in which B -> C alternates 1 and 4 and A -> B,
/// A -> C stay at 1.  Returns B -> C's `S^max` and the MLU on the normal
/// demand of the configuration the model computes from a normal window: the
/// window before a normal snapshot, which ends on a burst.
fn train_on_the_bursty_pair(alpha: f64) -> (f64, f64) {
    const SNAPSHOTS: usize = 400;
    let (_g, ps) = figure3_network();
    let matrices: Vec<DemandMatrix> =
        (0..SNAPSHOTS).map(|t| demand(1.0, 1.0, if t % 2 == 1 { 4.0 } else { 1.0 })).collect();
    let trace = TrafficTrace::new("figure3", 1.0, matrices);
    let config = FigretConfig { robustness_weight: alpha, ..FigretConfig::fast_test() };
    let h = config.history_window;
    let mut model = FigretModel::new(&ps, &per_pair_variance(&trace), config);
    model.train(&WindowDataset::from_trace(&trace, h, 0..trace.len()));
    // Snapshot SNAPSHOTS (even) would be normal.
    let history: Vec<Vec<f64>> =
        trace.matrices()[SNAPSHOTS - h..].iter().map(DemandMatrix::flatten_pairs).collect();
    let te = model.predict_flat(&ps, &history);
    let s_max = max_sensitivity_per_pair(&ps, &te)[pair_bc(&ps)];
    (s_max, mlu(&ps, &te, &demand(1.0, 1.0, 1.0)))
}

/// ROADMAP 1(c): the robustness term on a case with a known answer.  Only
/// B -> C varies, so only it carries a variance weight.  DOTE (α = 0) sees
/// that the next snapshot is normal and routes B -> C mostly direct; as α
/// grows the model moves B -> C's traffic off its sensitive path, until both
/// paths carry half and `S^max` sits at its floor, `0.5 / C = 0.25`.  Recorded
/// at seed 23: `S^max` 0.461, 0.373, 0.251, 0.250 and normal-case MLU 0.522,
/// 0.565, 0.626, 0.628 at α = 0, 0.25, 1, 10.
#[test]
fn the_robustness_term_hedges_the_bursty_pair() {
    const FLOOR: f64 = 0.25;
    let runs: Vec<(f64, (f64, f64))> =
        [0.0, 0.25, 1.0, 10.0].into_iter().map(|a| (a, train_on_the_bursty_pair(a))).collect();
    let table: Vec<String> =
        runs.iter().map(|(a, (s, m))| format!("α {a}: S^max {s:.4}, MLU {m:.4}")).collect();
    let table = table.join("; ");
    for pair in runs.windows(2) {
        let ((a0, (s0, _)), (a1, (s1, _))) = (pair[0], pair[1]);
        // Falls by at least 0.03 with each step of α, or, once within 0.005
        // of the floor, stays there.
        if s0 > FLOOR + 0.005 {
            assert!(s1 <= s0 - 0.03, "S^max must fall from α {a0} to {a1}: {table}");
        } else {
            assert!(s1 <= FLOOR + 0.005, "S^max must stay at its floor past α {a0}: {table}");
        }
    }
    let (_, (s_dote, mlu_dote)) = runs[0];
    assert!(s_dote >= FLOOR + 0.15, "DOTE must route B -> C mostly direct: {table}");
    assert!(mlu_dote <= 0.55, "DOTE's normal-case MLU must be near the optimum 0.5: {table}");
    for (alpha, (s_max, mlu)) in &runs {
        assert!(*s_max >= FLOOR - 1e-9, "S^max below its floor at α {alpha}: {table}");
        // Scheme 3 of §2.3 hedges B -> C at a normal-case MLU of 0.6875.
        assert!(*mlu <= 0.6875, "normal-case MLU above Scheme 3's at α {alpha}: {table}");
    }
}
