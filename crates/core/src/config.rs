//! Hyper-parameters of FIGRET (and of the DOTE / TEAL-like baselines derived
//! from it).

/// Hyper-parameters of a FIGRET model.
///
/// The defaults follow the paper (Appendix D.4): a history window of `H = 12`
/// demand matrices, five fully connected hidden layers of 128 neurons, a
/// sigmoid output normalized per SD pair, the Adam optimizer, and the
/// burst-aware loss `L = M(R_t, D_t) + α · Σ_sd σ²_sd · Sᵐᵃˣ_sd`.
#[derive(Debug, Clone)]
pub struct FigretConfig {
    /// History window length `H`.
    pub history_window: usize,
    /// Hidden-layer sizes.
    pub hidden: Vec<usize>,
    /// Robustness weight `α` applied to the sensitivity penalty.  `0` turns
    /// FIGRET into DOTE (pure MLU loss).
    pub robustness_weight: f64,
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Adam learning rate.
    pub learning_rate: f64,
    /// Mini-batch size: samples per optimizer step.  `1` recovers
    /// per-sample steps; larger batches run one batched
    /// forward/backward pass (data-parallel across fixed-size microbatches)
    /// and a single Adam step on the mean gradient.
    pub batch_size: usize,
    /// Weight-initialization / shuffling seed.
    pub seed: u64,
}

impl Default for FigretConfig {
    fn default() -> Self {
        FigretConfig {
            history_window: 12,
            hidden: vec![128; 5],
            robustness_weight: 1.0,
            epochs: 12,
            learning_rate: 1e-3,
            batch_size: 32,
            seed: 23,
        }
    }
}

impl FigretConfig {
    /// The DOTE baseline: identical architecture and training, but no
    /// robustness term (`α = 0`), exactly as described in §5.1.
    pub fn dote() -> FigretConfig {
        FigretConfig { robustness_weight: 0.0, ..FigretConfig::default() }
    }

    /// A small configuration for unit tests and quick examples.
    pub fn fast_test() -> FigretConfig {
        FigretConfig {
            history_window: 4,
            hidden: vec![32, 32],
            robustness_weight: 1.0,
            epochs: 4,
            learning_rate: 2e-3,
            batch_size: 8,
            seed: 23,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_paper() {
        let c = FigretConfig::default();
        assert_eq!(c.history_window, 12);
        assert_eq!(c.hidden, vec![128; 5]);
        assert!(c.robustness_weight > 0.0);
    }

    #[test]
    fn dote_disables_the_penalty() {
        assert_eq!(FigretConfig::dote().robustness_weight, 0.0);
        assert_eq!(FigretConfig::dote().hidden, FigretConfig::default().hidden);
    }

    #[test]
    fn fast_test_is_small() {
        let c = FigretConfig::fast_test();
        assert!(c.hidden.iter().all(|h| *h <= 64));
        assert!(c.epochs <= 8);
    }

    #[test]
    fn batch_size_defaults_are_positive() {
        assert!(FigretConfig::default().batch_size > 1);
        assert!(FigretConfig::fast_test().batch_size > 1);
    }
}
