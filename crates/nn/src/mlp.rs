//! Multi-layer perceptron with manual backpropagation.
//!
//! The MLP plays two roles in the TASTI reproduction:
//!
//! 1. **Embedding DNN** — the trainable `φ: features → ℝ^d` fine-tuned with
//!    the triplet loss (the paper's ResNet-18/BERT/audio-ResNet-22 head). For
//!    this role the output can be L2-normalized, the standard practice for
//!    triplet-trained embeddings.
//! 2. **Per-query proxy model** — the baselines' "tiny ResNet" / logistic
//!    regression / CNN-10 stand-ins, trained with MSE or BCE.
//!
//! Backprop is hand-derived per layer; gradients accumulate into caches owned
//! by the layers so the optimizer can visit `(param, grad)` pairs in a fixed
//! order (which keeps Adam's moment buffers aligned).

use crate::init::Init;
use crate::tensor::Matrix;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Activation function applied after every hidden linear layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// No nonlinearity (degenerates the MLP to a linear model).
    Identity,
}

impl Activation {
    #[inline]
    fn apply(self, x: f32) -> f32 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Tanh => x.tanh(),
            Activation::Identity => x,
        }
    }

    /// Derivative expressed in terms of the activation *output* `y`.
    #[inline]
    fn derivative_from_output(self, y: f32) -> f32 {
        match self {
            Activation::Relu => {
                if y > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - y * y,
            Activation::Identity => 1.0,
        }
    }
}

/// A fully-connected layer `z = x·W + b` with gradient accumulators.
/// Serialization persists only the parameters; gradient accumulators and
/// caches are rebuilt empty on load.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Linear {
    /// Weight matrix, `fan_in × fan_out`.
    pub w: Matrix,
    /// Bias vector, length `fan_out`.
    pub b: Vec<f32>,
    /// Accumulated weight gradient.
    #[serde(skip, default = "Matrix::empty")]
    pub gw: Matrix,
    /// Accumulated bias gradient.
    #[serde(skip)]
    pub gb: Vec<f32>,
    #[serde(skip, default = "Matrix::empty")]
    input_cache: Matrix,
}

impl Linear {
    fn new(fan_in: usize, fan_out: usize, init: Init, rng: &mut impl Rng) -> Self {
        Self {
            w: init.sample(fan_in, fan_out, rng),
            b: vec![0.0; fan_out],
            gw: Matrix::zeros(fan_in, fan_out),
            gb: vec![0.0; fan_out],
            input_cache: Matrix::zeros(0, 0),
        }
    }

    fn forward(&mut self, input: &Matrix, train: bool) -> Matrix {
        let mut out = input.matmul(&self.w);
        out.add_row_bias(&self.b);
        if train {
            self.input_cache = input.clone();
        }
        out
    }

    /// Accumulates parameter gradients and returns the gradient w.r.t. input.
    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        // ∂L/∂W += Xᵀ·G, ∂L/∂b += colsum(G), ∂L/∂X = G·Wᵀ
        let mut gw = Matrix::zeros(self.w.rows(), self.w.cols());
        self.input_cache.matmul_tn_into(grad_out, &mut gw);
        self.gw.axpy(1.0, &gw);
        let mut gb = vec![0.0; self.b.len()];
        grad_out.col_sum(&mut gb);
        for (g, d) in self.gb.iter_mut().zip(&gb) {
            *g += d;
        }
        let mut grad_in = Matrix::zeros(grad_out.rows(), self.w.rows());
        grad_out.matmul_nt_into(&self.w, &mut grad_in);
        grad_in
    }
}

/// Configuration for building an [`Mlp`].
#[derive(Debug, Clone)]
pub struct MlpConfig {
    /// Input feature dimension.
    pub input_dim: usize,
    /// Hidden layer widths (may be empty for a linear model).
    pub hidden: Vec<usize>,
    /// Output dimension (embedding size or scalar prediction).
    pub output_dim: usize,
    /// Hidden activation.
    pub activation: Activation,
    /// If true, rows of the final output are projected onto the unit sphere.
    pub l2_normalize_output: bool,
}

impl MlpConfig {
    /// An embedding network: `input → 2·dim → dim`, ReLU, L2-normalized.
    pub fn embedding(input_dim: usize, embedding_dim: usize) -> Self {
        Self {
            input_dim,
            hidden: vec![embedding_dim * 2],
            output_dim: embedding_dim,
            activation: Activation::Relu,
            l2_normalize_output: true,
        }
    }

    /// A small regression/classification head used by proxy-model baselines.
    pub fn proxy(input_dim: usize, hidden: usize) -> Self {
        Self {
            input_dim,
            hidden: vec![hidden],
            output_dim: 1,
            activation: Activation::Relu,
            l2_normalize_output: false,
        }
    }

    /// A pure linear model (logistic-regression baseline for WikiSQL).
    pub fn linear(input_dim: usize, output_dim: usize) -> Self {
        Self {
            input_dim,
            hidden: vec![],
            output_dim,
            activation: Activation::Identity,
            l2_normalize_output: false,
        }
    }
}

/// A multi-layer perceptron with hand-written backpropagation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Mlp {
    layers: Vec<Linear>,
    activation: Activation,
    l2_normalize: bool,
    /// Activation outputs cached during a training forward pass (per hidden layer).
    #[serde(skip)]
    hidden_outputs: Vec<Matrix>,
    /// Pre-normalization output cached when `l2_normalize` is set.
    #[serde(skip, default = "Matrix::empty")]
    prenorm_cache: Matrix,
}

impl Mlp {
    /// Builds an MLP from a config, drawing initial weights from `rng`.
    pub fn new(config: &MlpConfig, rng: &mut impl Rng) -> Self {
        let init = match config.activation {
            Activation::Relu => Init::HeUniform,
            _ => Init::XavierUniform,
        };
        let mut dims = vec![config.input_dim];
        dims.extend_from_slice(&config.hidden);
        dims.push(config.output_dim);
        let layers = dims
            .windows(2)
            .map(|w| Linear::new(w[0], w[1], init, rng))
            .collect();
        Self {
            layers,
            activation: config.activation,
            l2_normalize: config.l2_normalize_output,
            hidden_outputs: Vec::new(),
            prenorm_cache: Matrix::zeros(0, 0),
        }
    }

    /// Number of linear layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Output dimension of the network.
    pub fn output_dim(&self) -> usize {
        self.layers.last().map_or(0, |l| l.w.cols())
    }

    /// Input dimension of the network.
    pub fn input_dim(&self) -> usize {
        self.layers.first().map_or(0, |l| l.w.rows())
    }

    /// Total number of trainable scalars.
    pub fn param_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.w.rows() * l.w.cols() + l.b.len())
            .sum()
    }

    fn forward_impl(&mut self, input: &Matrix, train: bool) -> Matrix {
        if train {
            self.hidden_outputs.clear();
        }
        let n_layers = self.layers.len();
        let mut x = input.clone();
        for (i, layer) in self.layers.iter_mut().enumerate() {
            let mut z = layer.forward(&x, train);
            let is_last = i + 1 == n_layers;
            if !is_last {
                let act = self.activation;
                z.map_inplace(|v| act.apply(v));
                if train {
                    self.hidden_outputs.push(z.clone());
                }
            }
            x = z;
        }
        if self.l2_normalize {
            if train {
                self.prenorm_cache = x.clone();
            }
            normalize_rows(&mut x);
        }
        x
    }

    /// Inference forward pass (no caches are written).
    pub fn forward(&mut self, input: &Matrix) -> Matrix {
        self.forward_impl(input, false)
    }

    /// Immutable inference forward pass. Identical numerics to
    /// [`Mlp::forward`], but borrows `&self`, so callers can fan batches out
    /// across threads (used by parallel embedding during index
    /// construction).
    pub fn forward_ref(&self, input: &Matrix) -> Matrix {
        let n_layers = self.layers.len();
        // The first layer reads `input` directly; no upfront batch copy.
        let mut x = Matrix::empty();
        for (i, layer) in self.layers.iter().enumerate() {
            let src = if i == 0 { input } else { &x };
            let mut z = src.matmul(&layer.w);
            z.add_row_bias(&layer.b);
            if i + 1 != n_layers {
                let act = self.activation;
                z.map_inplace(|v| act.apply(v));
            }
            x = z;
        }
        if n_layers == 0 {
            x = input.clone();
        }
        if self.l2_normalize {
            normalize_rows(&mut x);
        }
        x
    }

    /// Training forward pass: caches intermediates for [`Mlp::backward`].
    pub fn forward_train(&mut self, input: &Matrix) -> Matrix {
        // Deserialized networks carry empty gradient buffers; restore them
        // before any training step.
        for l in &mut self.layers {
            if l.gw.rows() != l.w.rows() || l.gw.cols() != l.w.cols() {
                l.gw = Matrix::zeros(l.w.rows(), l.w.cols());
            }
            if l.gb.len() != l.b.len() {
                l.gb = vec![0.0; l.b.len()];
            }
        }
        self.forward_impl(input, true)
    }

    /// Backpropagates `grad_output` (w.r.t. the network output) and
    /// accumulates parameter gradients. Must follow a `forward_train` call
    /// with the same batch.
    pub fn backward(&mut self, grad_output: &Matrix) {
        let mut grad = grad_output.clone();
        if self.l2_normalize {
            grad = l2_normalize_backward(&self.prenorm_cache, &grad);
        }
        let n = self.layers.len();
        for i in (0..n).rev() {
            // Through the activation first (hidden layers only).
            if i + 1 != n {
                let y = &self.hidden_outputs[i];
                let act = self.activation;
                for (g, &out) in grad.as_mut_slice().iter_mut().zip(y.as_slice()) {
                    *g *= act.derivative_from_output(out);
                }
            }
            grad = self.layers[i].backward(&grad);
        }
    }

    /// Zeroes all accumulated gradients.
    pub fn zero_grad(&mut self) {
        for l in &mut self.layers {
            l.gw.fill(0.0);
            l.gb.iter_mut().for_each(|g| *g = 0.0);
        }
    }

    /// Visits `(param, grad)` slice pairs in a fixed order (weights then bias,
    /// layer by layer). `Adam` relies on this ordering being stable.
    pub fn visit_params(&mut self, mut f: impl FnMut(&mut [f32], &[f32])) {
        for l in &mut self.layers {
            f(l.w.as_mut_slice(), l.gw.as_slice());
            f(&mut l.b, &l.gb);
        }
    }

    /// Embeds `input` rows and returns the output matrix (alias of `forward`
    /// that reads better at call sites).
    pub fn embed(&mut self, input: &Matrix) -> Matrix {
        self.forward(input)
    }
}

/// Projects each row of `m` onto the unit sphere (rows with tiny norm are
/// left unchanged to avoid amplifying noise).
pub fn normalize_rows(m: &mut Matrix) {
    let cols = m.cols();
    for r in 0..m.rows() {
        let row = m.row_mut(r);
        let n = crate::tensor::norm(row);
        if n > 1e-12 {
            let inv = 1.0 / n;
            row.iter_mut().for_each(|x| *x *= inv);
        }
        debug_assert_eq!(row.len(), cols);
    }
}

/// Backward pass of row-wise L2 normalization.
///
/// For `y = z/‖z‖`: `∂L/∂z = (g − y·(y·g)) / ‖z‖` where `g = ∂L/∂y`.
fn l2_normalize_backward(prenorm: &Matrix, grad_out: &Matrix) -> Matrix {
    let mut grad_in = Matrix::zeros(grad_out.rows(), grad_out.cols());
    for r in 0..grad_out.rows() {
        let z = prenorm.row(r);
        let g = grad_out.row(r);
        let n = crate::tensor::norm(z);
        let out_row = grad_in.row_mut(r);
        if n <= 1e-12 {
            out_row.copy_from_slice(g);
            continue;
        }
        let inv = 1.0 / n;
        // y = z * inv; s = y·g
        let mut s = 0.0;
        for (&zi, &gi) in z.iter().zip(g) {
            s += zi * inv * gi;
        }
        for ((o, &zi), &gi) in out_row.iter_mut().zip(z).zip(g) {
            *o = (gi - zi * inv * s) * inv;
        }
    }
    grad_in
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn finite_difference_check(config: MlpConfig, seed: u64) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut net = Mlp::new(&config, &mut rng);
        let x = Matrix::from_fn(3, config.input_dim, |r, c| {
            ((r * 7 + c * 3) % 11) as f32 * 0.1 - 0.5
        });
        // Loss = 0.5 * ||out||^2 so dL/dout = out.
        let out = net.forward_train(&x);
        net.zero_grad();
        net.backward(&out);

        // Collect analytic grads.
        let mut analytic = Vec::new();
        net.visit_params(|_, g| analytic.extend_from_slice(g));

        // Numeric grads via central differences on each parameter.
        let eps = 1e-2f32;
        let mut numeric = Vec::new();
        let n_params = analytic.len();
        fn probe(net: &mut Mlp, idx: usize, delta: f32) {
            let mut k = 0usize;
            net.visit_params(|p, _| {
                if idx >= k && idx < k + p.len() {
                    p[idx - k] += delta;
                }
                k += p.len();
            });
        }
        for idx in 0..n_params {
            probe(&mut net, idx, eps);
            let out_p = net.forward(&x);
            let lp: f32 = out_p.as_slice().iter().map(|v| 0.5 * v * v).sum();
            probe(&mut net, idx, -2.0 * eps);
            let out_m = net.forward(&x);
            let lm: f32 = out_m.as_slice().iter().map(|v| 0.5 * v * v).sum();
            probe(&mut net, idx, eps);
            numeric.push((lp - lm) / (2.0 * eps));
        }

        for (i, (&a, &n)) in analytic.iter().zip(&numeric).enumerate() {
            let denom = a.abs().max(n.abs()).max(1e-2);
            assert!(
                (a - n).abs() / denom < 0.15,
                "param {i}: analytic {a} vs numeric {n}"
            );
        }
    }

    #[test]
    fn gradients_match_finite_differences_tanh() {
        finite_difference_check(
            MlpConfig {
                input_dim: 4,
                hidden: vec![6],
                output_dim: 3,
                activation: Activation::Tanh,
                l2_normalize_output: false,
            },
            11,
        );
    }

    #[test]
    fn gradients_match_finite_differences_linear() {
        finite_difference_check(MlpConfig::linear(5, 2), 13);
    }

    #[test]
    fn gradients_match_finite_differences_normalized() {
        finite_difference_check(
            MlpConfig {
                input_dim: 4,
                hidden: vec![5],
                output_dim: 3,
                activation: Activation::Tanh,
                l2_normalize_output: true,
            },
            17,
        );
    }

    #[test]
    fn normalized_output_rows_have_unit_norm() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let mut net = Mlp::new(&MlpConfig::embedding(8, 4), &mut rng);
        let x = Matrix::from_fn(10, 8, |r, c| ((r + c) as f32).sin());
        let out = net.forward(&x);
        for r in 0..out.rows() {
            let n = crate::tensor::norm(out.row(r));
            assert!((n - 1.0).abs() < 1e-4, "row {r} norm {n}");
        }
    }

    #[test]
    fn forward_ref_matches_forward() {
        let mut rng = ChaCha8Rng::seed_from_u64(31);
        let mut net = Mlp::new(&MlpConfig::embedding(6, 4), &mut rng);
        let x = Matrix::from_fn(9, 6, |r, c| ((r * 6 + c) as f32 * 0.21).sin());
        let a = net.forward(&x);
        let b = net.forward_ref(&x);
        assert_eq!(a, b);
    }

    #[test]
    fn forward_is_deterministic() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let mut net = Mlp::new(&MlpConfig::proxy(6, 8), &mut rng);
        let x = Matrix::from_fn(4, 6, |r, c| (r as f32) * 0.3 - (c as f32) * 0.1);
        assert_eq!(net.forward(&x), net.forward(&x));
    }

    #[test]
    fn param_count_matches_architecture() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let net = Mlp::new(
            &MlpConfig {
                input_dim: 10,
                hidden: vec![20, 5],
                output_dim: 2,
                activation: Activation::Relu,
                l2_normalize_output: false,
            },
            &mut rng,
        );
        assert_eq!(net.param_count(), 10 * 20 + 20 + 20 * 5 + 5 + 5 * 2 + 2);
        assert_eq!(net.num_layers(), 3);
        assert_eq!(net.input_dim(), 10);
        assert_eq!(net.output_dim(), 2);
    }

    #[test]
    fn zero_grad_clears_accumulators() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let mut net = Mlp::new(&MlpConfig::proxy(3, 4), &mut rng);
        let x = Matrix::from_fn(2, 3, |_, c| c as f32);
        let out = net.forward_train(&x);
        net.backward(&out);
        net.zero_grad();
        net.visit_params(|_, g| assert!(g.iter().all(|&v| v == 0.0)));
    }
}
