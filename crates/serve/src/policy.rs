//! Reconfiguration policies: when is pushing a new configuration worth it?
//!
//! Production TE controllers do not redeploy on every snapshot: each update
//! costs switch-table churn and risks transient loops, so updates are rate
//! limited and gated on expected benefit (cf. *Adaptive Robust Traffic
//! Engineering in SDN*, which studies exactly this reconfigure-vs-stability
//! trade-off).  Optimisation effort belongs only where a reconfiguration can
//! still happen, so the gates [`ReconfigPolicy`] bundles run in this order
//! (applied by [`crate::GlobalAdmission`], for a lone
//! [`crate::ServeController`] and a fleet alike):
//!
//! 1. **Is a grant open?**  The update budget allows at most `max_updates`
//!    deployments within any sliding window of `window` ticks, and whether
//!    the window is full is known before anything is computed.  When it is,
//!    an LP-engine controller computes no candidate and the tick holds as
//!    `BudgetExhausted`;
//! 2. **Candidate** — a forward pass or a warm LP re-solve;
//! 3. **Hysteresis** on predicted-MLU regret — hold unless the deployed
//!    configuration is predicted to be at least `1 + hysteresis` times worse
//!    than the fresh candidate;
//! 4. **Grant** — bids past the hysteresis gate are ranked by regret and
//!    win the open grants in that order; the rest hold as `BudgetExhausted`.
//!
//! Next to the gates sits the **fallback**: while serving learned
//! configurations, periodically audit them against a warm-started LP
//! re-solve and fall back to the LP when the model has degraded for
//! `patience` consecutive audits (traffic drifted away from the training
//! distribution).

/// Sliding-window update budget: at most `max_updates` reconfigurations
/// within any window of `window` consecutive ticks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateBudget {
    /// Window length in ticks.
    pub window: usize,
    /// Maximum number of updates inside one window.
    pub max_updates: usize,
}

impl UpdateBudget {
    /// A budget of `max_updates` updates per `window` ticks.
    pub fn per_window(max_updates: usize, window: usize) -> UpdateBudget {
        assert!(window >= 1, "budget window must span at least one tick");
        UpdateBudget { window, max_updates }
    }
}

/// When (and how) to abandon learned inference for the warm-started LP.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FallbackPolicy {
    /// A learned candidate counts as degraded when its predicted MLU exceeds
    /// `degradation ×` the LP candidate's predicted MLU.
    pub degradation: f64,
    /// Consecutive degraded audits before the controller falls back.
    pub patience: usize,
    /// Audit every `audit_every`-th decision (0 disables auditing, and with
    /// it the fallback path).
    pub audit_every: usize,
}

impl Default for FallbackPolicy {
    fn default() -> Self {
        FallbackPolicy { degradation: 1.15, patience: 3, audit_every: 4 }
    }
}

impl FallbackPolicy {
    /// A policy that never audits (learned mode runs unsupervised).
    pub fn disabled() -> FallbackPolicy {
        FallbackPolicy { audit_every: 0, ..Default::default() }
    }
}

/// The full reconfiguration policy of a controller.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconfigPolicy {
    /// Hysteresis on predicted-MLU regret: reconfigure only when
    /// `M(deployed, predicted) > (1 + hysteresis) · M(candidate, predicted)`.
    /// `0.0` (or negative) disables the gate — every tick reconfigures,
    /// which reproduces the batch per-snapshot evaluation exactly.
    pub hysteresis: f64,
    /// Optional update budget (`None` = unlimited).
    pub budget: Option<UpdateBudget>,
    /// Learned-mode degradation fallback.
    pub fallback: FallbackPolicy,
}

impl Default for ReconfigPolicy {
    fn default() -> Self {
        ReconfigPolicy {
            hysteresis: 0.05,
            budget: Some(UpdateBudget::per_window(4, 16)),
            fallback: FallbackPolicy::default(),
        }
    }
}

impl ReconfigPolicy {
    /// The policy the batch-equivalence contract runs under: reconfigure on
    /// every tick, no budget, no audits.  Driving the LP engine with the
    /// last-value predictor under this policy reproduces the batch
    /// `run_scheme` prediction series bit for bit.
    pub fn always_update() -> ReconfigPolicy {
        ReconfigPolicy { hysteresis: 0.0, budget: None, fallback: FallbackPolicy::disabled() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let p = ReconfigPolicy::default();
        assert!(p.hysteresis > 0.0);
        let b = p.budget.unwrap();
        assert!(b.max_updates < b.window);
        assert!(p.fallback.degradation > 1.0);
        assert!(p.fallback.audit_every > 0);
    }

    #[test]
    fn always_update_disables_every_gate() {
        let p = ReconfigPolicy::always_update();
        assert_eq!(p.hysteresis, 0.0);
        assert!(p.budget.is_none());
        assert_eq!(p.fallback.audit_every, 0);
    }

    #[test]
    #[should_panic(expected = "at least one tick")]
    fn zero_window_budget_is_rejected() {
        UpdateBudget::per_window(1, 0);
    }
}
