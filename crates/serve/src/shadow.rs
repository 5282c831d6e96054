//! Shadow-mode challengers: retrained models auditioning for promotion.
//!
//! While a [`crate::ServeController`] is degraded (serving warm LP
//! re-solves), its [`crate::RecoveryManager`] trains challenger models on
//! the observed-demand window.  A challenger never serves traffic directly:
//! it runs in *shadow mode*, producing a candidate on every fallback tick
//! that is evaluated against the same forecast as the live LP candidate.
//! Each audit the challenger's predicted MLU stays within the promotion
//! margin of the LP's counts as a win; `promotion_patience` consecutive
//! wins promote it to the live model (and reset the degradation state), a
//! single loss resets the streak.  Promotion therefore requires sustained
//! evidence, mirroring how the fallback itself required `patience`
//! consecutive degraded audits.

use crate::controller::ServedModel;
use figret::FigretModel;

/// A challenger model plus its audit streak; see the module docs.
#[derive(Debug)]
pub struct ShadowModel {
    served: ServedModel,
    wins: usize,
    generation: u64,
}

impl ShadowModel {
    /// Wraps a freshly trained challenger and compiles its inference plan.
    /// `generation` identifies the retraining round that produced it
    /// (monotone per controller).
    pub fn new(model: FigretModel, generation: u64) -> ShadowModel {
        ShadowModel { served: ServedModel::new(model), wins: 0, generation }
    }

    /// Consecutive audit wins so far.
    pub fn wins(&self) -> usize {
        self.wins
    }

    /// The retraining round that produced this challenger.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The challenger and its compiled plan, for the shadow forward pass
    /// ([`ServedModel::candidate_into`], the live model's helper).
    pub fn served_mut(&mut self) -> &mut ServedModel {
        &mut self.served
    }

    /// Records one audit outcome: a win extends the streak, a loss resets
    /// it.  Returns the updated streak.
    pub fn record_audit(&mut self, won: bool) -> usize {
        self.wins = if won { self.wins + 1 } else { 0 };
        self.wins
    }

    /// Unwraps the trained model and its compiled plan (on promotion).
    pub(crate) fn into_served(self) -> ServedModel {
        self.served
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::tests::untrained;
    use figret_te::{PathSet, TeConfig};
    use figret_topology::{Topology, TopologySpec};

    #[test]
    fn audit_streak_resets_on_a_loss() {
        let g = TopologySpec::full_scale(Topology::MetaDbPod).build();
        let ps = PathSet::k_shortest(&g, 3);
        let mut shadow = ShadowModel::new(untrained(&ps), 7);
        assert_eq!(shadow.generation(), 7);
        assert_eq!(shadow.record_audit(true), 1);
        assert_eq!(shadow.record_audit(true), 2);
        assert_eq!(shadow.record_audit(false), 0);
        assert_eq!(shadow.record_audit(true), 1);
        let history = vec![vec![1.0; ps.num_pairs()]; 2];
        let (mut features, mut raw, mut cfg) = (Vec::new(), Vec::new(), TeConfig::default());
        shadow.served_mut().candidate_into(&ps, &history, &mut features, &mut raw, &mut cfg);
        assert!(cfg.is_valid(&ps));
    }
}
