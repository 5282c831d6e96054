//! Pair-universe partitioning for the sharded serving fleet (DESIGN.md §8).
//!
//! A [`ShardPlan`] splits one parent [`ActivePairs`] universe into disjoint
//! per-shard universes that together cover every parent slot exactly once.
//! Each shard carries its own [`ActivePairs`] index (so the serving stack's
//! restricted path sets, LP templates and predictors apply unchanged) plus a
//! `parent_slots` map — the gather/scatter bridge between the parent's demand
//! columns and the shard's.
//!
//! Two plans are provided:
//!
//! * [`ShardPlan::single`] — one shard owning the whole parent universe;
//! * [`ShardPlan::source_blocks`] — contiguous source-ToR ranges ("ToR-prefix
//!   grouping").  Every pair belongs to the shard of its source block, so
//!   shard sizes are balanced whenever sources fan out uniformly — the right
//!   default for flat ToR fabrics and for throughput scaling.
//!
//! Both keep the parent's slot order, so each shard's `parent_slots` are
//! strictly increasing and the shard's own slot order (source-major CSR, the
//! [`ActivePairs::from_pairs`] order) agrees with the subsequence order of
//! the parent — gathering a parent column slot-by-slot is exact and
//! deterministic.

use std::sync::Arc;

use crate::sparse::ActivePairs;

/// One shard of a [`ShardPlan`]: a sub-universe of the parent pair index.
#[derive(Debug, Clone)]
pub struct ShardUniverse {
    active: Arc<ActivePairs>,
    parent_slots: Vec<usize>,
    label: String,
}

impl ShardUniverse {
    /// The shard's own pair index (over the parent's node universe).
    #[inline]
    pub fn active(&self) -> &Arc<ActivePairs> {
        &self.active
    }

    /// Number of pairs owned by this shard.
    #[inline]
    pub fn len(&self) -> usize {
        self.parent_slots.len()
    }

    /// `true` when the shard owns no pairs (such shards are dropped from
    /// plans, so this holds only for standalone constructions).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.parent_slots.is_empty()
    }

    /// Parent slot of each shard slot, strictly increasing.
    #[inline]
    pub fn parent_slots(&self) -> &[usize] {
        &self.parent_slots
    }

    /// Human-readable shard name (`all` or `srcs64-127`).
    #[inline]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Gathers the shard's sub-column out of a parent demand column.
    pub fn gather_into(&self, parent_column: &[f64], out: &mut Vec<f64>) {
        out.clear();
        out.extend(self.parent_slots.iter().map(|&slot| parent_column[slot]));
    }
}

/// A disjoint, exhaustive partition of a parent [`ActivePairs`] universe.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    parent: Arc<ActivePairs>,
    shards: Vec<ShardUniverse>,
}

impl ShardPlan {
    /// The trivial plan: one shard owning the whole parent universe (the
    /// index `Arc` is shared, not rebuilt).  A fleet over this plan replays
    /// the unsharded controller exactly.
    pub fn single(parent: &Arc<ActivePairs>) -> ShardPlan {
        let shard = ShardUniverse {
            active: Arc::clone(parent),
            parent_slots: (0..parent.len()).collect(),
            label: "all".to_string(),
        };
        ShardPlan { parent: Arc::clone(parent), shards: vec![shard] }
    }

    /// Partitions by contiguous source blocks: the first `active_nodes` node
    /// ids (the traffic-bearing ToR prefix) are split into `num_shards`
    /// near-equal ranges, and every pair belongs to its source's range.
    ///
    /// # Panics
    ///
    /// Panics when `num_shards` is zero or exceeds `active_nodes`, or when a
    /// parent pair originates outside the ToR prefix.
    pub fn source_blocks(
        parent: &Arc<ActivePairs>,
        active_nodes: usize,
        num_shards: usize,
    ) -> ShardPlan {
        assert!(num_shards >= 1, "a plan needs at least one shard");
        assert!(
            num_shards <= active_nodes,
            "cannot split {active_nodes} sources {num_shards} ways"
        );
        if num_shards == 1 {
            return ShardPlan::single(parent);
        }
        let base = active_nodes / num_shards;
        let extra = active_nodes % num_shards;
        // Block b covers [start, start + base + (b < extra)).
        let mut block_of = Vec::with_capacity(active_nodes);
        let mut labels = Vec::with_capacity(num_shards);
        let mut start = 0usize;
        for b in 0..num_shards {
            let len = base + usize::from(b < extra);
            block_of.extend(std::iter::repeat_n(b, len));
            labels.push(format!("srcs{}-{}", start, start + len - 1));
            start += len;
        }
        ShardPlan::from_assignment(parent, num_shards, labels, |s, _| {
            assert!(s < active_nodes, "pair source {s} lies outside the {active_nodes}-ToR prefix");
            block_of[s]
        })
    }

    /// Builds a plan from a per-pair shard assignment, walking the parent in
    /// slot order.  Shards left empty by the assignment are dropped.
    fn from_assignment(
        parent: &Arc<ActivePairs>,
        num_shards: usize,
        labels: Vec<String>,
        assign: impl Fn(usize, usize) -> usize,
    ) -> ShardPlan {
        assert_eq!(labels.len(), num_shards, "one label per shard is required");
        let mut pairs: Vec<Vec<(usize, usize)>> = vec![Vec::new(); num_shards];
        let mut parent_slots: Vec<Vec<usize>> = vec![Vec::new(); num_shards];
        for (slot, s, d) in parent.iter() {
            let shard = assign(s, d);
            assert!(shard < num_shards, "assignment produced shard {shard} of {num_shards}");
            pairs[shard].push((s, d));
            parent_slots[shard].push(slot);
        }
        let num_nodes = parent.num_nodes();
        let shards: Vec<ShardUniverse> = pairs
            .into_iter()
            .zip(parent_slots)
            .zip(labels)
            .filter(|((p, _), _)| !p.is_empty())
            .map(|((p, slots), label)| {
                let active = Arc::new(ActivePairs::from_pairs(num_nodes, &p));
                // from_pairs sorts source-major; the parent walk is already
                // source-major, so the orders must agree slot for slot.
                debug_assert_eq!(active.node_pairs(), p, "shard slot order must match the parent");
                ShardUniverse { active, parent_slots: slots, label }
            })
            .collect();
        let covered: usize = shards.iter().map(ShardUniverse::len).sum();
        assert_eq!(covered, parent.len(), "shards must partition the parent universe exactly");
        ShardPlan { parent: Arc::clone(parent), shards }
    }

    /// The parent pair universe.
    #[inline]
    pub fn parent(&self) -> &Arc<ActivePairs> {
        &self.parent
    }

    /// Number of (non-empty) shards.
    #[inline]
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// The shards, in stable plan order.
    #[inline]
    pub fn shards(&self) -> &[ShardUniverse] {
        &self.shards
    }

    /// The shard at `index`.
    #[inline]
    pub fn shard(&self, index: usize) -> &ShardUniverse {
        &self.shards[index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sampled(tors: usize, per_source: usize) -> Arc<ActivePairs> {
        Arc::new(ActivePairs::sample_per_source(tors, per_source, 7))
    }

    #[test]
    fn single_shares_the_parent_index() {
        let parent = sampled(16, 3);
        let plan = ShardPlan::single(&parent);
        assert_eq!(plan.num_shards(), 1);
        assert!(Arc::ptr_eq(plan.shard(0).active(), &parent));
        assert_eq!(plan.shard(0).parent_slots(), (0..parent.len()).collect::<Vec<_>>());
        assert_eq!(plan.shard(0).label(), "all");
    }

    #[test]
    fn source_blocks_partition_exactly_and_balance() {
        let parent = sampled(32, 4);
        let plan = ShardPlan::source_blocks(&parent, 32, 4);
        assert_eq!(plan.num_shards(), 4);
        let total: usize = plan.shards().iter().map(ShardUniverse::len).sum();
        assert_eq!(total, parent.len());
        // Uniform per-source fan-out => exactly balanced blocks.
        for shard in plan.shards() {
            assert_eq!(shard.len(), 8 * 4);
        }
        // Every shard's pairs come from its own source range, and parent
        // slots are strictly increasing.
        for (b, shard) in plan.shards().iter().enumerate() {
            for (_, s, _) in shard.active().iter() {
                assert_eq!(s / 8, b);
            }
            assert!(shard.parent_slots().windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn source_blocks_cover_ragged_prefixes() {
        let parent = sampled(10, 2);
        let plan = ShardPlan::source_blocks(&parent, 10, 3);
        // 10 sources over 3 blocks: 4 + 3 + 3.
        assert_eq!(plan.num_shards(), 3);
        assert_eq!(plan.shard(0).len(), 4 * 2);
        assert_eq!(plan.shard(1).len(), 3 * 2);
        assert_eq!(plan.shard(2).len(), 3 * 2);
        assert_eq!(plan.shard(0).label(), "srcs0-3");
        assert_eq!(plan.shard(2).label(), "srcs7-9");
    }

    #[test]
    fn gather_reads_the_parent_column() {
        let parent = sampled(12, 3);
        let plan = ShardPlan::source_blocks(&parent, 12, 3);
        let column: Vec<f64> = (0..parent.len()).map(|i| i as f64 + 0.5).collect();
        let mut buf = Vec::new();
        for shard in plan.shards() {
            shard.gather_into(&column, &mut buf);
            assert_eq!(buf.len(), shard.len());
            for (i, &slot) in shard.parent_slots().iter().enumerate() {
                assert_eq!(buf[i], column[slot]);
                // The shard's pair at i is the parent's pair at slot.
                assert_eq!(shard.active().pair(i), parent.pair(slot));
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside the 8-ToR prefix")]
    fn source_blocks_reject_sources_beyond_the_prefix() {
        let parent = Arc::new(ActivePairs::from_pairs(12, &[(9, 2)]));
        ShardPlan::source_blocks(&parent, 8, 2);
    }

    #[test]
    fn deterministic_across_constructions() {
        let parent = sampled(24, 4);
        let a = ShardPlan::source_blocks(&parent, 24, 3);
        let b = ShardPlan::source_blocks(&parent, 24, 3);
        assert_eq!(a.num_shards(), b.num_shards());
        for (x, y) in a.shards().iter().zip(b.shards()) {
            assert_eq!(x.parent_slots(), y.parent_slots());
            assert_eq!(**x.active(), **y.active());
        }
    }
}
