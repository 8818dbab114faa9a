//! The optimizer: Adam.
//!
//! It visits the network's `(param, grad)` pairs through
//! [`crate::mlp::Mlp::visit_params`], which guarantees a stable ordering so
//! the flat moment buffers stay aligned by position.

use crate::mlp::Mlp;

/// Adam optimizer (Kingma & Ba) with bias correction.
#[derive(Debug, Clone)]
pub struct Adam {
    /// Learning rate.
    pub lr: f32,
    /// First-moment decay.
    pub beta1: f32,
    /// Second-moment decay.
    pub beta2: f32,
    /// Numerical-stability epsilon.
    pub eps: f32,
    m: Vec<f32>,
    v: Vec<f32>,
    t: u32,
}

impl Adam {
    /// Adam with standard hyperparameters (β₁=0.9, β₂=0.999, ε=1e-8).
    pub fn new(lr: f32) -> Self {
        Self {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            m: Vec::new(),
            v: Vec::new(),
            t: 0,
        }
    }

    /// Applies one update step using the gradients currently accumulated in
    /// the network, then leaves the gradients untouched (callers zero them).
    pub fn step(&mut self, net: &mut Mlp) {
        let n = net.param_count();
        if self.m.is_empty() {
            self.m = vec![0.0; n];
            self.v = vec![0.0; n];
        }
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        let step_size = self.lr * bc2.sqrt() / bc1;
        let (b1, b2, eps) = (self.beta1, self.beta2, self.eps);
        let mut offset = 0usize;
        let m = &mut self.m;
        let v = &mut self.v;
        net.visit_params(|p, g| {
            let ms = &mut m[offset..offset + p.len()];
            let vs = &mut v[offset..offset + p.len()];
            for (((pi, &gi), mi), vi) in p.iter_mut().zip(g).zip(ms.iter_mut()).zip(vs.iter_mut()) {
                *mi = b1 * *mi + (1.0 - b1) * gi;
                *vi = b2 * *vi + (1.0 - b2) * gi * gi;
                *pi -= step_size * *mi / (vi.sqrt() + eps);
            }
            offset += p.len();
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loss::mse;
    use crate::mlp::{Mlp, MlpConfig};
    use crate::tensor::Matrix;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Trains y = 2x − 1 with a linear model.
    #[test]
    fn adam_converges_on_linear_regression() {
        let mut opt = Adam::new(0.05);
        let mut rng = ChaCha8Rng::seed_from_u64(42);
        let mut net = Mlp::new(&MlpConfig::linear(1, 1), &mut rng);
        let xs = Matrix::from_fn(16, 1, |r, _| r as f32 / 8.0 - 1.0);
        let ys: Vec<f32> = (0..16)
            .map(|r| 2.0 * (r as f32 / 8.0 - 1.0) - 1.0)
            .collect();
        let mut last = f32::INFINITY;
        for _ in 0..500 {
            let pred = net.forward_train(&xs);
            let (loss, grad) = mse(&pred, &ys);
            net.zero_grad();
            net.backward(&grad);
            opt.step(&mut net);
            last = loss;
        }
        assert!(last < 1e-4);
    }

    #[test]
    fn adam_step_is_bounded_by_lr_scale() {
        // With a single step, |Δp| ≈ lr regardless of gradient magnitude.
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut net = Mlp::new(&MlpConfig::linear(1, 1), &mut rng);
        let x = Matrix::from_vec(1, 1, vec![1000.0]);
        let pred = net.forward_train(&x);
        let (_, grad) = mse(&pred, &[0.0]);
        net.zero_grad();
        net.backward(&grad);
        let mut before = Vec::new();
        net.visit_params(|p, _| before.extend_from_slice(p));
        let mut opt = Adam::new(0.01);
        opt.step(&mut net);
        let mut after = Vec::new();
        net.visit_params(|p, _| after.extend_from_slice(p));
        for (b, a) in before.iter().zip(&after) {
            assert!((b - a).abs() <= 0.011 + 1e-6);
        }
    }
}
