//! Fully connected layers and the multi-layer perceptron used by FIGRET/DOTE.
//!
//! The paper's architecture (Appendix D.4) is five fully connected hidden
//! layers of 128 neurons with ReLU activations; the output layer uses a
//! sigmoid and is then normalized per SD pair.  [`Mlp`] builds exactly that
//! (with configurable sizes) on top of the autograd [`Graph`].

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::graph::{Graph, Var};
use crate::tensor::Tensor;

/// Output activation of the final layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputActivation {
    /// Logistic sigmoid (the paper's choice; outputs are normalized afterwards).
    Sigmoid,
    /// Rectified linear unit.
    Relu,
    /// No activation.
    Linear,
}

/// Hyper-parameters of an MLP.
#[derive(Debug, Clone)]
pub struct MlpConfig {
    /// Input dimension.
    pub input_dim: usize,
    /// Sizes of the hidden layers (the paper uses `[128; 5]`).
    pub hidden: Vec<usize>,
    /// Output dimension.
    pub output_dim: usize,
    /// Activation of the output layer.
    pub output_activation: OutputActivation,
    /// Seed for weight initialization.
    pub seed: u64,
}

impl MlpConfig {
    /// The paper's default architecture for a given input/output size.
    pub fn paper_default(input_dim: usize, output_dim: usize) -> MlpConfig {
        MlpConfig {
            input_dim,
            hidden: vec![128; 5],
            output_dim,
            output_activation: OutputActivation::Sigmoid,
            seed: 17,
        }
    }
}

/// One dense layer's parameter handles on the tape.
#[derive(Debug, Clone, Copy)]
struct DenseVars {
    weight: Var,
    bias: Var,
}

/// A multi-layer perceptron whose parameters live on a [`Graph`] as persistent
/// nodes.
#[derive(Debug)]
pub struct Mlp {
    config: MlpConfig,
    layers: Vec<DenseVars>,
}

impl Mlp {
    /// Creates the MLP, registering its parameters on the graph.  Call
    /// [`Graph::seal`] afterwards (before the first forward pass).
    pub fn new(graph: &mut Graph, config: MlpConfig) -> Mlp {
        assert!(config.input_dim > 0 && config.output_dim > 0, "dimensions must be positive");
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0x3141_5926);
        let mut layers = Vec::new();
        let mut in_dim = config.input_dim;
        for &h in config.hidden.iter().chain(std::iter::once(&config.output_dim)) {
            let weight = graph.parameter(Tensor::xavier_uniform(in_dim, h, &mut rng));
            let bias = graph.parameter(Tensor::zeros(1, h));
            layers.push(DenseVars { weight, bias });
            in_dim = h;
        }
        Mlp { config, layers }
    }

    /// The configuration the MLP was built with.
    pub fn config(&self) -> &MlpConfig {
        &self.config
    }

    /// Handles of every parameter tensor (weights and biases, layer order).
    pub fn parameters(&self) -> Vec<Var> {
        self.layers.iter().flat_map(|l| [l.weight, l.bias]).collect()
    }

    /// Total number of trainable scalars.
    pub fn num_parameters(&self, graph: &Graph) -> usize {
        self.parameters().iter().map(|v| graph.value(*v).len()).sum()
    }

    /// Runs the forward pass for a `B×input_dim` batch node (one sample per
    /// row) and returns the `B×output_dim` output node.
    pub fn forward(&self, graph: &mut Graph, input: Var) -> Var {
        assert_eq!(
            graph.value(input).cols(),
            self.config.input_dim,
            "input width must match the configured input dimension"
        );
        let mut x = input;
        let last = self.layers.len() - 1;
        for (i, layer) in self.layers.iter().enumerate() {
            let wx = graph.matmul(x, layer.weight);
            let z = graph.add_bias(wx, layer.bias);
            x = if i < last {
                graph.relu(z)
            } else {
                match self.config.output_activation {
                    OutputActivation::Sigmoid => graph.sigmoid(z),
                    OutputActivation::Relu => graph.relu(z),
                    OutputActivation::Linear => z,
                }
            };
        }
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_paper_architecture() {
        let mut g = Graph::new();
        let mlp = Mlp::new(&mut g, MlpConfig::paper_default(40, 12));
        g.seal();
        assert_eq!(mlp.parameters().len(), 12, "6 layers x (weight + bias)");
        // 40*128 + 128 + 4*(128*128 + 128) + 128*12 + 12
        let expected = 40 * 128 + 128 + 4 * (128 * 128 + 128) + 128 * 12 + 12;
        assert_eq!(mlp.num_parameters(&g), expected);
        let x = g.input(Tensor::zeros(1, 40));
        let y = mlp.forward(&mut g, x);
        assert_eq!(g.value(y).shape(), (1, 12));
        // Sigmoid of zero input with zero bias is 0.5 everywhere only if the
        // pre-activation is 0; with zero input it is exactly 0 + bias = 0.
        assert!(g.value(y).data().iter().all(|v| (*v - 0.5).abs() < 1e-12));
    }

    #[test]
    fn forward_is_deterministic_given_seed() {
        let build = || {
            let mut g = Graph::new();
            let mlp = Mlp::new(
                &mut g,
                MlpConfig {
                    input_dim: 7,
                    hidden: vec![16, 16],
                    output_dim: 3,
                    output_activation: OutputActivation::Linear,
                    seed: 5,
                },
            );
            g.seal();
            let x = g.input(Tensor::row(&[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]));
            let y = mlp.forward(&mut g, x);
            g.value(y).data().to_vec()
        };
        assert_eq!(build(), build());
    }

    #[test]
    fn gradients_flow_to_every_parameter() {
        let mut g = Graph::new();
        let mlp = Mlp::new(
            &mut g,
            MlpConfig {
                input_dim: 4,
                hidden: vec![8],
                output_dim: 2,
                output_activation: OutputActivation::Sigmoid,
                seed: 3,
            },
        );
        g.seal();
        let x = g.input(Tensor::row(&[1.0, -1.0, 0.5, 2.0]));
        let y = mlp.forward(&mut g, x);
        let loss = g.sum(y);
        g.backward(loss);
        for p in mlp.parameters() {
            let norm = g.grad(p).norm();
            assert!(norm.is_finite());
        }
        // At least the output layer must receive a non-zero gradient.
        let out_weight = mlp.parameters()[2];
        assert!(g.grad(out_weight).norm() > 0.0);
    }

    #[test]
    fn reset_between_samples_keeps_parameters() {
        let mut g = Graph::new();
        let mlp = Mlp::new(
            &mut g,
            MlpConfig {
                input_dim: 3,
                hidden: vec![4],
                output_dim: 2,
                output_activation: OutputActivation::Relu,
                seed: 9,
            },
        );
        g.seal();
        let before = g.len();
        for _ in 0..5 {
            g.reset();
            let x = g.input(Tensor::row(&[1.0, 2.0, 3.0]));
            let y = mlp.forward(&mut g, x);
            let loss = g.sum(y);
            g.backward(loss);
        }
        g.reset();
        assert_eq!(g.len(), before);
    }

    #[test]
    #[should_panic(expected = "input width")]
    fn forward_checks_input_width() {
        let mut g = Graph::new();
        let mlp = Mlp::new(
            &mut g,
            MlpConfig {
                input_dim: 3,
                hidden: vec![],
                output_dim: 2,
                output_activation: OutputActivation::Linear,
                seed: 1,
            },
        );
        g.seal();
        let x = g.input(Tensor::row(&[1.0, 2.0]));
        let _ = mlp.forward(&mut g, x);
    }
}
