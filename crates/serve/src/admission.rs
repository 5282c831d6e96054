//! Global admission: one update budget and one hysteresis policy shared by
//! every shard of a serving fleet (DESIGN.md §8).
//!
//! A tick asks admission *first*: [`GlobalAdmission::open_grants`] says how
//! many updates the joint sliding-window budget can still grant at this
//! tick, before any shard has computed anything.  Shards then run
//! [`crate::ServeController::propose`] with that answer and submit a
//! [`ShardBid`] carrying their predicted MLUs — an LP shard told that no
//! grant is open does not solve, and bids without a candidate.  The
//! admission layer applies the fleet-wide hysteresis gate to every bid that
//! has a candidate, ranks the shards that want to reconfigure by
//! predicted-MLU regret (deterministically: regret descending, shard index
//! ascending on exact ties) and grants updates until the *joint* budget is
//! spent.  `N` shards under one `UpdateBudget::per_window(m, w)` deploy at
//! most `m` updates per `w` ticks *in total*, exactly like a single
//! controller would.
//!
//! When more LP shards bid than grants are open, an LP bid first carries
//! only an upper bound on its regret (the deployed MLU minus a lower bound
//! `LB` on the solve's optimum) and the fleet solves in two waves:
//! [`GlobalAdmission::first_wave`] picks the `open_grants` largest bounds,
//! [`GlobalAdmission::second_wave`] every remaining bound that reaches the
//! cut-off — the `open_grants`-th largest wanting regret among the solved
//! bids.  Neither wave solves a bid whose bound already fails the
//! hysteresis gate (`deployed ≤ (1 + h) · LB`).  A bid left unsolved
//! either has a regret below `open_grants` solved regrets or a candidate
//! the hysteresis gate would hold, so it could not have been granted, and
//! the granted set is the one solving every shard would have produced;
//! [`GlobalAdmission::admit`] asserts that for every such bid and holds it
//! as [`HoldReason::BudgetExhausted`].
//!
//! Determinism: the ranking is a total order over bids (ties broken by the
//! unique shard index), so the granted set — and the set of bids each wave
//! solves — is invariant to the order bids are submitted in: shard
//! iteration order, thread interleavings and fleet-internal scheduling
//! cannot change the outcome.
//!
//! This is the only copy of the gates: the lone
//! [`crate::ServeController::step_pairs`] owns a `GlobalAdmission` built
//! from its own policy and routes its single bid through
//! `open_grants` / `admit`, so a one-shard fleet and an unsharded controller
//! agree record for record by construction.

use std::collections::VecDeque;

use crate::controller::Proposal;
use crate::log::{Action, HoldReason};
use crate::policy::{ReconfigPolicy, UpdateBudget};

/// One shard's request to reconfigure at a fleet tick.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardBid {
    /// Stable shard index within the fleet (the tie-breaking key).
    pub shard: usize,
    /// Predicted MLU of the shard's deployed configuration on its forecast.
    pub predicted_mlu_deployed: f64,
    /// Predicted MLU of the shard's parked candidate on its forecast;
    /// `None` when the shard computed no candidate: no grant was open when
    /// it was asked, or it has only bounded its regret so far.
    pub predicted_mlu_candidate: Option<f64>,
    /// Upper bound on the regret the candidate would show
    /// (`predicted_mlu_deployed` minus a lower bound on the solve's optimum);
    /// `Some` for an LP bid on a tick with more LP bids than open grants.
    pub regret_bound: Option<f64>,
}

impl ShardBid {
    /// Packages a controller's [`Proposal`] as a bid for shard `shard`.
    pub fn from_proposal(shard: usize, proposal: &Proposal) -> ShardBid {
        ShardBid {
            shard,
            predicted_mlu_deployed: proposal.predicted_mlu_deployed,
            predicted_mlu_candidate: proposal.predicted_mlu_candidate,
            regret_bound: proposal.regret_bound,
        }
    }

    /// The regret bound of an unsolved bid that might still be granted
    /// under `hysteresis`: `None` once it is solved, or when its bound
    /// already shows that the candidate cannot clear the hysteresis gate
    /// (`deployed ≤ (1 + h) · LB ≤ (1 + h) · candidate`).  A NaN bound
    /// proves nothing.
    fn contender_bound(&self, hysteresis: f64) -> Option<f64> {
        let bound = self.regret_bound.filter(|_| self.predicted_mlu_candidate.is_none())?;
        let lower = self.predicted_mlu_deployed - bound;
        let quiet = hysteresis > 0.0 && self.predicted_mlu_deployed <= (1.0 + hysteresis) * lower;
        (!quiet).then_some(bound)
    }
}

/// Aggregate admission counters over a fleet run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Fleet ticks adjudicated.
    pub ticks: usize,
    /// Bids submitted (shards past warmup).
    pub bids: usize,
    /// Bids that passed the hysteresis gate
    /// (`bids = wants + holds_hysteresis + holds_closed + holds_outranked`).
    pub wants: usize,
    /// Updates granted.
    pub grants: usize,
    /// Bids held below the hysteresis threshold.
    pub holds_hysteresis: usize,
    /// Wanting bids held because the joint budget was spent.
    pub holds_budget: usize,
    /// Bids held without a candidate: no grant was open when the shard was
    /// asked, so it computed none (logged as `Hold(BudgetExhausted)`).
    pub holds_closed: usize,
    /// Bids held without a candidate on an open tick: the regret bound fell
    /// below the cut-off, so neither wave solved them (logged as
    /// `Hold(BudgetExhausted)`).
    pub holds_outranked: usize,
}

/// The fleet-wide admission state: shared hysteresis plus the joint
/// sliding-window update history.
#[derive(Debug, Clone)]
pub struct GlobalAdmission {
    hysteresis: f64,
    budget: Option<UpdateBudget>,
    /// Fleet ticks of granted updates inside the current window, oldest
    /// first (one entry per grant; only maintained under a budget).
    granted: VecDeque<usize>,
    /// `(regret, shard)` of the bids past the hysteresis gate, reused every
    /// tick (the lone controller's `step_pairs` must not allocate).
    wanting: Vec<(f64, usize)>,
    /// Which shards have bid this tick, reused every tick.
    seen: Vec<bool>,
    stats: AdmissionStats,
}

impl GlobalAdmission {
    /// An admission layer with an explicit hysteresis threshold and joint
    /// budget (`None` = unlimited).
    pub fn new(hysteresis: f64, budget: Option<UpdateBudget>) -> GlobalAdmission {
        GlobalAdmission {
            hysteresis,
            budget,
            granted: VecDeque::new(),
            wanting: Vec::new(),
            seen: Vec::new(),
            stats: AdmissionStats::default(),
        }
    }

    /// Lifts the hysteresis and budget out of a single-controller policy
    /// (the fallback part stays with each shard).
    pub fn from_policy(policy: &ReconfigPolicy) -> GlobalAdmission {
        GlobalAdmission::new(policy.hysteresis, policy.budget)
    }

    /// How many updates the joint budget can still grant at `tick`
    /// (`usize::MAX` without a budget), after evicting the grants that slid
    /// out of the window.  O(1) amortized and independent of any bid, so a
    /// tick asks this *before* its shards propose: at 0, [`Self::admit`]
    /// grants nothing whatever the bids say.
    pub fn open_grants(&mut self, tick: usize) -> usize {
        let Some(budget) = self.budget else {
            return usize::MAX;
        };
        while let Some(&oldest) = self.granted.front() {
            if oldest + budget.window <= tick {
                self.granted.pop_front();
            } else {
                break;
            }
        }
        budget.max_updates.saturating_sub(self.granted.len())
    }

    /// The first solve wave of a tick on which LP bids carry regret bounds:
    /// the `open_grants` unsolved contenders (bids whose bound does not
    /// already fail the hysteresis gate) with the largest bounds, ties to
    /// the lower shard index (the total order of [`Self::admit`]).  Fills
    /// `wave` with their shard indices, ascending.
    pub fn first_wave(&mut self, open_grants: usize, bids: &[ShardBid], wave: &mut Vec<usize>) {
        self.wanting.clear();
        self.wanting.extend(
            bids.iter().filter_map(|b| Some((b.contender_bound(self.hysteresis)?, b.shard))),
        );
        self.wanting.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        wave.clear();
        wave.extend(self.wanting.iter().take(open_grants).map(|&(_, shard)| shard));
        wave.sort_unstable();
    }

    /// The second solve wave: every unsolved contender whose regret bound is
    /// not below [`Self::cutoff`] of the bids solved so far (a NaN bound is
    /// solved, never trusted).  Fills `wave` with their shard indices,
    /// ascending; after it, every unsolved bid is provably outranked.
    pub fn second_wave(&mut self, open_grants: usize, bids: &[ShardBid], wave: &mut Vec<usize>) {
        let cutoff = self.cutoff(open_grants, bids);
        wave.clear();
        for bid in bids {
            let bound = bid.contender_bound(self.hysteresis);
            if bound.is_some_and(|bound| bound >= cutoff || bound.is_nan()) {
                wave.push(bid.shard);
            }
        }
        wave.sort_unstable();
    }

    /// The regret a bid with a candidate is ranked by, when it passes the
    /// hysteresis gate.
    fn wanting_regret(&self, bid: &ShardBid) -> Option<f64> {
        let candidate = bid.predicted_mlu_candidate?;
        let wants = self.hysteresis <= 0.0
            || bid.predicted_mlu_deployed > (1.0 + self.hysteresis) * candidate;
        // Ranked by the predicted-MLU regret of keeping the deployed
        // configuration.
        wants.then_some(bid.predicted_mlu_deployed - candidate)
    }

    /// The `open_grants`-th largest wanting regret among the bids with a
    /// candidate (`-∞` when fewer want): a bid needs a regret at least this
    /// large to be granted.  Leaves those bids ranked in `self.wanting`.
    fn cutoff(&mut self, open_grants: usize, bids: &[ShardBid]) -> f64 {
        self.wanting.clear();
        for bid in bids {
            if let Some(regret) = self.wanting_regret(bid) {
                self.wanting.push((regret, bid.shard));
            }
        }
        // Total order: regret descending, shard index ascending on exact
        // (bit-equal) ties — invariant to submission order.
        self.wanting.sort_unstable_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        match open_grants.checked_sub(1) {
            Some(last) if last < self.wanting.len() => self.wanting[last].0,
            _ => f64::NEG_INFINITY,
        }
    }

    /// Adjudicates one fleet tick.  `bids` may arrive in any order and must
    /// reference distinct shards; `actions` must hold one slot per fleet
    /// shard, prefilled with [`Action::Warmup`] (slots without a bid — still
    /// warming up — are left untouched).  Deterministic: the outcome depends
    /// only on the bid *set*, never on its order.
    ///
    /// A bid without a candidate is held as
    /// [`HoldReason::BudgetExhausted`].  It is only legal on a tick whose
    /// [`Self::open_grants`] is 0 (the shard skipped its candidate *because*
    /// nothing could be granted), or with a regret bound that is below the
    /// tick's cut-off or already fails the hysteresis gate (the shard was
    /// outranked: see the module docs).
    pub fn admit(&mut self, tick: usize, bids: &[ShardBid], actions: &mut [Action]) {
        self.stats.ticks += 1;
        self.stats.bids += bids.len();
        let capacity = self.open_grants(tick);
        self.seen.clear();
        self.seen.resize(actions.len(), false);
        for bid in bids {
            assert!(bid.shard < actions.len(), "bid for shard {} of {}", bid.shard, actions.len());
            assert!(!self.seen[bid.shard], "duplicate bid for shard {}", bid.shard);
            self.seen[bid.shard] = true;
            assert_eq!(
                actions[bid.shard],
                Action::Warmup,
                "shard {} already holds a non-warmup action",
                bid.shard
            );
        }
        let cutoff = self.cutoff(capacity, bids);
        for bid in bids {
            if bid.predicted_mlu_candidate.is_some() {
                if self.wanting_regret(bid).is_none() {
                    actions[bid.shard] = Action::Hold(HoldReason::BelowHysteresis);
                    self.stats.holds_hysteresis += 1;
                }
                continue;
            }
            actions[bid.shard] = Action::Hold(HoldReason::BudgetExhausted);
            if capacity == 0 {
                self.stats.holds_closed += 1;
                continue;
            }
            assert!(
                bid.regret_bound.is_some(),
                "shard {} bid without a candidate while a grant was open",
                bid.shard
            );
            if let Some(bound) = bid.contender_bound(self.hysteresis) {
                assert!(
                    bound < cutoff,
                    "shard {} was held unsolved, but its regret bound {bound} reaches the \
                     cut-off {cutoff}",
                    bid.shard
                );
            }
            self.stats.holds_outranked += 1;
        }
        self.stats.wants += self.wanting.len();
        for (rank, &(_, shard)) in self.wanting.iter().enumerate() {
            if rank < capacity {
                actions[shard] = Action::Update;
                if self.budget.is_some() {
                    self.granted.push_back(tick);
                }
                self.stats.grants += 1;
            } else {
                actions[shard] = Action::Hold(HoldReason::BudgetExhausted);
                self.stats.holds_budget += 1;
            }
        }
    }

    /// Grants still inside the current sliding window (0 without a budget).
    pub fn granted_in_window(&self) -> usize {
        self.granted.len()
    }

    /// The joint budget, if any.
    pub fn budget(&self) -> Option<UpdateBudget> {
        self.budget
    }

    /// The shared hysteresis threshold.
    pub fn hysteresis(&self) -> f64 {
        self.hysteresis
    }

    /// Aggregate counters so far.
    pub fn stats(&self) -> AdmissionStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn bid(shard: usize, deployed: f64, candidate: f64) -> ShardBid {
        ShardBid {
            shard,
            predicted_mlu_deployed: deployed,
            predicted_mlu_candidate: Some(candidate),
            regret_bound: None,
        }
    }

    /// The bid of a shard that computed no candidate.
    fn unsolved(shard: usize) -> ShardBid {
        ShardBid {
            shard,
            predicted_mlu_deployed: 1.0,
            predicted_mlu_candidate: None,
            regret_bound: None,
        }
    }

    /// The bid of an LP shard that has only bounded its regret.
    fn bounded(shard: usize, deployed: f64, bound: f64) -> ShardBid {
        ShardBid {
            shard,
            predicted_mlu_deployed: deployed,
            predicted_mlu_candidate: None,
            regret_bound: Some(bound),
        }
    }

    /// `bids` with the candidates of the shards in `wave` filled in from
    /// `candidates` (indexed by shard).
    fn solve(bids: &mut [ShardBid], wave: &[usize], candidates: &[f64]) {
        for bid in bids.iter_mut().filter(|b| wave.contains(&b.shard)) {
            assert!(bid.predicted_mlu_candidate.is_none(), "shard {} solved twice", bid.shard);
            bid.predicted_mlu_candidate = Some(candidates[bid.shard]);
        }
    }

    #[test]
    fn waves_solve_the_largest_bounds_then_whatever_reaches_the_cut_off() {
        let mut adm = GlobalAdmission::new(0.0, Some(UpdateBudget::per_window(2, 4)));
        let open = adm.open_grants(0);
        // Regret bounds 0.3, 0.5, 0.5, 0.1; true regrets 0.25, 0.2, 0.4, 0.05.
        let mut bids = vec![
            bounded(0, 1.0, 0.3),
            bounded(1, 1.0, 0.5),
            bounded(2, 1.0, 0.5),
            bounded(3, 1.0, 0.1),
        ];
        let candidates = [0.75, 0.8, 0.6, 0.95];
        let mut wave = Vec::new();
        adm.first_wave(open, &bids, &mut wave);
        assert_eq!(wave, [1, 2], "the two largest bounds, ties to the lower index");
        solve(&mut bids, &wave, &candidates);
        // Cut-off: the second-largest solved regret, 0.2.  Shard 0's bound
        // reaches it, shard 3's does not.
        adm.second_wave(open, &bids, &mut wave);
        assert_eq!(wave, [0]);
        solve(&mut bids, &wave, &candidates);
        let mut actions = vec![Action::Warmup; 4];
        adm.admit(0, &bids, &mut actions);
        assert_eq!(
            actions,
            [
                Action::Update,
                Action::Hold(HoldReason::BudgetExhausted),
                Action::Update,
                Action::Hold(HoldReason::BudgetExhausted),
            ]
        );
        let stats = adm.stats();
        assert_eq!((stats.wants, stats.holds_budget, stats.holds_outranked), (3, 1, 1));
        assert_eq!(
            stats.bids,
            stats.wants + stats.holds_hysteresis + stats.holds_closed + stats.holds_outranked
        );
    }

    #[test]
    #[should_panic(expected = "reaches the cut-off")]
    fn unsolved_bids_whose_bound_reaches_the_cut_off_are_rejected() {
        let mut adm = GlobalAdmission::new(0.0, Some(UpdateBudget::per_window(1, 4)));
        // The solved regret 0.5 is the cut-off; a bound of exactly 0.5 could
        // still tie for the grant.
        adm.admit(0, &[bid(0, 1.0, 0.5), bounded(1, 1.0, 0.5)], &mut [Action::Warmup; 2]);
    }

    #[test]
    fn ranks_by_regret_and_respects_the_joint_budget() {
        let mut adm = GlobalAdmission::new(0.0, Some(UpdateBudget::per_window(2, 8)));
        let bids = vec![bid(0, 0.5, 0.45), bid(1, 0.9, 0.5), bid(2, 0.8, 0.5)];
        let mut actions = vec![Action::Warmup; 3];
        adm.admit(0, &bids, &mut actions);
        // Regrets: shard1 0.4 > shard2 0.3 > shard0 0.05; budget 2.
        assert_eq!(actions[1], Action::Update);
        assert_eq!(actions[2], Action::Update);
        assert_eq!(actions[0], Action::Hold(HoldReason::BudgetExhausted));
        assert_eq!(adm.granted_in_window(), 2);
        let stats = adm.stats();
        assert_eq!((stats.bids, stats.wants, stats.grants, stats.holds_budget), (3, 3, 2, 1));
    }

    #[test]
    fn outcome_is_invariant_to_bid_order() {
        let bids = [bid(0, 0.7, 0.5), bid(1, 0.7, 0.5), bid(2, 0.9, 0.5), bid(3, 0.5, 0.5)];
        let mut reference: Option<Vec<Action>> = None;
        // All 4! = 24 permutations must produce the same per-shard actions.
        let mut order = vec![0, 1, 2, 3];
        for p in 0..24 {
            order.sort_unstable();
            for _ in 0..p {
                next_permutation(&mut order);
            }
            let permuted: Vec<ShardBid> = order.iter().map(|&i| bids[i]).collect();
            let mut adm = GlobalAdmission::new(0.01, Some(UpdateBudget::per_window(2, 4)));
            let mut actions = vec![Action::Warmup; 4];
            adm.admit(0, &permuted, &mut actions);
            match &reference {
                None => reference = Some(actions),
                Some(r) => assert_eq!(&actions, r, "permutation {order:?} diverged"),
            }
        }
        // Exact-tie regrets (shards 0 and 1) broke toward the lower index.
        let actions = reference.unwrap();
        assert_eq!(actions[2], Action::Update, "highest regret wins a slot");
        assert_eq!(actions[0], Action::Update, "tie broken toward the lower shard index");
        assert_eq!(actions[1], Action::Hold(HoldReason::BudgetExhausted));
        assert_eq!(actions[3], Action::Hold(HoldReason::BelowHysteresis));
    }

    fn next_permutation(v: &mut [usize]) {
        let n = v.len();
        if n < 2 {
            return;
        }
        let Some(i) = (0..n - 1).rev().find(|&i| v[i] < v[i + 1]) else {
            v.reverse();
            return;
        };
        let j = (i + 1..n).rev().find(|&j| v[j] > v[i]).unwrap();
        v.swap(i, j);
        v[i + 1..].reverse();
    }

    #[test]
    fn grants_slide_out_of_the_window() {
        let mut adm = GlobalAdmission::new(0.0, Some(UpdateBudget::per_window(1, 4)));
        for tick in 0..10 {
            let mut actions = vec![Action::Warmup; 1];
            adm.admit(tick, &[bid(0, 1.0, 0.5)], &mut actions);
            // One grant per 4-tick window: ticks 0, 4, 8 — the exact pattern
            // the unsharded controller's budget test asserts.
            if tick % 4 == 0 {
                assert_eq!(actions[0], Action::Update, "tick {tick}");
            } else {
                assert_eq!(actions[0], Action::Hold(HoldReason::BudgetExhausted), "tick {tick}");
            }
        }
    }

    #[test]
    fn hysteresis_holds_quiet_shards_without_spending_budget() {
        let mut adm = GlobalAdmission::new(0.5, Some(UpdateBudget::per_window(4, 4)));
        let mut actions = vec![Action::Warmup; 2];
        adm.admit(0, &[bid(0, 0.6, 0.5), bid(1, 0.9, 0.5)], &mut actions);
        assert_eq!(actions[0], Action::Hold(HoldReason::BelowHysteresis));
        assert_eq!(actions[1], Action::Update);
        assert_eq!(adm.granted_in_window(), 1);
    }

    #[test]
    fn shards_without_bids_stay_in_warmup() {
        let mut adm = GlobalAdmission::new(0.0, None);
        let mut actions = vec![Action::Warmup; 3];
        adm.admit(0, &[bid(1, 1.0, 0.5)], &mut actions);
        assert_eq!(actions[0], Action::Warmup);
        assert_eq!(actions[1], Action::Update);
        assert_eq!(actions[2], Action::Warmup);
    }

    #[test]
    fn closed_ticks_hold_candidate_less_bids_and_count_them() {
        let mut adm = GlobalAdmission::new(0.0, Some(UpdateBudget::per_window(1, 3)));
        assert_eq!(adm.open_grants(0), 1);
        let mut actions = vec![Action::Warmup; 2];
        adm.admit(0, &[bid(0, 1.0, 0.5), bid(1, 0.9, 0.5)], &mut actions);
        assert_eq!(actions, [Action::Update, Action::Hold(HoldReason::BudgetExhausted)]);
        // Ticks 1 and 2 are closed: nobody solves, both bids are held.
        for tick in 1..3 {
            assert_eq!(adm.open_grants(tick), 0);
            let mut actions = vec![Action::Warmup; 2];
            adm.admit(tick, &[unsolved(0), unsolved(1)], &mut actions);
            assert_eq!(actions, [Action::Hold(HoldReason::BudgetExhausted); 2]);
        }
        assert_eq!(adm.open_grants(3), 1, "the grant of tick 0 slid out of the window");
        let stats = adm.stats();
        assert_eq!((stats.bids, stats.wants, stats.holds_closed), (6, 2, 4));
        assert_eq!(stats.bids, stats.wants + stats.holds_hysteresis + stats.holds_closed);
        assert_eq!(GlobalAdmission::new(0.0, None).open_grants(7), usize::MAX);
    }

    #[test]
    #[should_panic(expected = "bid without a candidate while a grant was open")]
    fn candidate_less_bids_are_rejected_while_a_grant_is_open() {
        let mut adm = GlobalAdmission::new(0.0, Some(UpdateBudget::per_window(1, 3)));
        adm.admit(0, &[unsolved(0)], &mut [Action::Warmup]);
    }

    /// The eager `admit` this module had before admission was asked first,
    /// kept as the model the ask-first protocol is checked against: every
    /// bid carries a candidate, and the budget is only consulted after the
    /// hysteresis gate.
    struct EagerAdmission {
        hysteresis: f64,
        budget: Option<UpdateBudget>,
        granted: VecDeque<usize>,
    }

    impl EagerAdmission {
        fn admit(&mut self, tick: usize, bids: &[(usize, f64, f64)], actions: &mut [Action]) {
            if let Some(budget) = self.budget {
                // Stated the other way round from `open_grants`: keep what is
                // still inside the window.
                self.granted.retain(|&granted| granted + budget.window > tick);
            }
            let mut wanting: Vec<&(usize, f64, f64)> = Vec::new();
            for bid in bids {
                let &(shard, deployed, candidate) = bid;
                if self.hysteresis <= 0.0 || deployed > (1.0 + self.hysteresis) * candidate {
                    wanting.push(bid);
                } else {
                    actions[shard] = Action::Hold(HoldReason::BelowHysteresis);
                }
            }
            wanting
                .sort_unstable_by(|a, b| (b.1 - b.2).total_cmp(&(a.1 - a.2)).then(a.0.cmp(&b.0)));
            let capacity = self
                .budget
                .map_or(usize::MAX, |b| b.max_updates.saturating_sub(self.granted.len()));
            for (rank, bid) in wanting.iter().enumerate() {
                if rank < capacity {
                    actions[bid.0] = Action::Update;
                    if self.budget.is_some() {
                        self.granted.push_back(tick);
                    }
                } else {
                    actions[bid.0] = Action::Hold(HoldReason::BudgetExhausted);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// What licenses the skip: over random budgets, tick gaps and bid
        /// sets, asking first and dropping every candidate on a closed tick
        /// deploys exactly the updates the eager protocol deployed, and a
        /// closed tick grants nothing whatever the bids say.
        #[test]
        fn asking_first_grants_what_eager_admission_granted(
            (max_updates, window, hyst_step) in (0usize..4, 1usize..7, 0usize..3),
            ticks in collection::vec(
                (0usize..4, collection::vec((0usize..2, 0.1f64..2.0, 0.1f64..2.0), 5usize)),
                1..40,
            ),
        ) {
            let hysteresis = 0.05 * hyst_step as f64;
            let budget = (max_updates > 0).then(|| UpdateBudget::per_window(max_updates, window));
            let mut eager = EagerAdmission { hysteresis, budget, granted: VecDeque::new() };
            let mut asked = GlobalAdmission::new(hysteresis, budget);
            let mut tick = 0;
            for (gap, shards) in ticks {
                tick += gap;
                // Each of the 5 shards bids or is still warming up.
                let bids: Vec<(usize, f64, f64)> = shards
                    .iter()
                    .enumerate()
                    .filter(|(_, &(bidding, _, _))| bidding == 1)
                    .map(|(shard, &(_, deployed, candidate))| (shard, deployed, candidate))
                    .collect();
                let mut expected = vec![Action::Warmup; shards.len()];
                eager.admit(tick, &bids, &mut expected);

                let open = asked.open_grants(tick);
                let grants_before = asked.stats().grants;
                // Arbitrary bids, candidates included, win nothing on a
                // closed tick...
                if open == 0 {
                    let mut probe = asked.clone();
                    let full: Vec<ShardBid> = bids.iter().map(|&(s, d, c)| bid(s, d, c)).collect();
                    let mut actions = vec![Action::Warmup; shards.len()];
                    probe.admit(tick, &full, &mut actions);
                    prop_assert!(!actions.contains(&Action::Update));
                }
                // ...so the shards may as well not compute them.
                let submitted: Vec<ShardBid> = bids
                    .iter()
                    .map(|&(shard, deployed, candidate)| ShardBid {
                        shard,
                        predicted_mlu_deployed: deployed,
                        predicted_mlu_candidate: (open > 0).then_some(candidate),
                        regret_bound: None,
                    })
                    .collect();
                let mut actions = vec![Action::Warmup; shards.len()];
                asked.admit(tick, &submitted, &mut actions);
                let updates = |a: &[Action]| -> Vec<bool> {
                    a.iter().map(|&x| x == Action::Update).collect()
                };
                prop_assert_eq!(updates(&actions), updates(&expected), "tick {}", tick);
                if open == 0 {
                    prop_assert_eq!(asked.stats().grants, grants_before);
                } else {
                    // An open tick is adjudicated exactly as before.
                    prop_assert_eq!(&actions, &expected, "tick {}", tick);
                }
                let stats = asked.stats();
                prop_assert_eq!(stats.bids, stats.wants + stats.holds_hysteresis + stats.holds_closed);
                prop_assert_eq!(stats.wants, stats.grants + stats.holds_budget);
            }
        }

        /// What licenses the waves: over random mixes of LP and learned
        /// bids, budgets, tick gaps and hysteresis, where each LP bid's
        /// lower bound `LB ≤ C` stands in for the solver's, the two-wave
        /// protocol deploys exactly the updates eager admission deployed
        /// with every candidate in hand, and the bids it solves do not
        /// depend on the order they were submitted in.
        #[test]
        fn two_waves_grant_what_eager_admission_granted(
            (max_updates, window, hyst_step) in (1usize..4, 1usize..7, 0usize..3),
            ticks in collection::vec(
                (
                    0usize..3,
                    collection::vec(
                        (0usize..4, 0.1f64..2.0, 0.1f64..2.0, 0.0f64..1.0),
                        6usize,
                    ),
                ),
                1..30,
            ),
        ) {
            let hysteresis = 0.05 * hyst_step as f64;
            let budget = Some(UpdateBudget::per_window(max_updates, window));
            let mut eager = EagerAdmission { hysteresis, budget, granted: VecDeque::new() };
            let mut waved = GlobalAdmission::new(hysteresis, budget);
            let mut tick = 0;
            let mut outranked = 0;
            for (gap, shards) in ticks {
                tick += gap;
                // Kind 0 is still warming up, 1 is learned, 2 and 3 are LP.
                let bidding: Vec<(usize, bool, f64, f64, f64)> = shards
                    .iter()
                    .enumerate()
                    .filter(|(_, &(kind, ..))| kind > 0)
                    .map(|(shard, &(kind, deployed, candidate, share))| {
                        (shard, kind > 1, deployed, candidate, share * candidate)
                    })
                    .collect();
                let full: Vec<(usize, f64, f64)> =
                    bidding.iter().map(|&(s, _, d, c, _)| (s, d, c)).collect();
                let mut expected = vec![Action::Warmup; shards.len()];
                eager.admit(tick, &full, &mut expected);

                let open = waved.open_grants(tick);
                let lp_bids = bidding.iter().filter(|b| b.1).count();
                let bounded_tick = open > 0 && lp_bids > open;
                let mut bids: Vec<ShardBid> = bidding
                    .iter()
                    .map(|&(shard, lp, deployed, candidate, lower)| ShardBid {
                        shard,
                        predicted_mlu_deployed: deployed,
                        predicted_mlu_candidate: (!lp || (open > 0 && !bounded_tick))
                            .then_some(candidate),
                        regret_bound: (lp && bounded_tick).then_some(deployed - lower),
                    })
                    .collect();
                let candidates: Vec<f64> = shards.iter().map(|s| s.2).collect();
                if bounded_tick {
                    let mut solved = Vec::new();
                    for order in [false, true] {
                        let mut probe = waved.clone();
                        let mut submitted = bids.clone();
                        if order {
                            submitted.reverse();
                            let turn = tick % submitted.len();
                            submitted.rotate_left(turn);
                        }
                        let mut wave = Vec::new();
                        let mut waves = Vec::new();
                        probe.first_wave(open, &submitted, &mut wave);
                        prop_assert!(wave.len() <= open);
                        solve(&mut submitted, &wave, &candidates);
                        waves.extend(&wave);
                        probe.second_wave(open, &submitted, &mut wave);
                        solve(&mut submitted, &wave, &candidates);
                        waves.extend(&wave);
                        if order {
                            prop_assert_eq!(&waves, &solved, "tick {}: solve set moved", tick);
                        } else {
                            solved = waves;
                        }
                    }
                    outranked += lp_bids - solved.len();
                    solve(&mut bids, &solved, &candidates);
                }
                let mut actions = vec![Action::Warmup; shards.len()];
                waved.admit(tick, &bids, &mut actions);
                let updates = |a: &[Action]| -> Vec<bool> {
                    a.iter().map(|&x| x == Action::Update).collect()
                };
                prop_assert_eq!(updates(&actions), updates(&expected), "tick {}", tick);
                let stats = waved.stats();
                prop_assert_eq!(stats.holds_outranked, outranked);
                prop_assert_eq!(
                    stats.bids,
                    stats.wants + stats.holds_hysteresis + stats.holds_closed + stats.holds_outranked
                );
                prop_assert_eq!(stats.wants, stats.grants + stats.holds_budget);
            }
        }
    }

    #[test]
    #[should_panic(expected = "duplicate bid")]
    fn duplicate_bids_are_rejected() {
        let mut adm = GlobalAdmission::new(0.0, None);
        let mut actions = vec![Action::Warmup; 2];
        adm.admit(0, &[bid(1, 1.0, 0.5), bid(1, 1.0, 0.5)], &mut actions);
    }
}
