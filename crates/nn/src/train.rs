//! Minibatch training loops.
//!
//! Two loops cover everything the TASTI reproduction trains:
//!
//! * [`fit_regression`] / [`fit_classifier`] — supervised training of
//!   per-query proxy models (the BlazeIt / SUPG baseline path).
//! * [`fit_triplet`] — triplet fine-tuning of the embedding DNN over bucketed
//!   training records (paper §3.1): each step samples two buckets, draws the
//!   anchor and positive from the first and the negative from the second,
//!   stacks `[A; P; N]` into one batch, and backpropagates the margin loss.

use crate::loss::{bce_with_logits, mse, triplet_batch};
use crate::mlp::Mlp;
use crate::optim::Adam;
use crate::tensor::Matrix;
use rand::seq::SliceRandom;
use rand::Rng;

/// Configuration for supervised fitting.
#[derive(Debug, Clone)]
pub struct FitConfig {
    /// Number of passes over the training data.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Stop early once the epoch loss drops below this threshold.
    pub loss_tolerance: f32,
}

impl Default for FitConfig {
    fn default() -> Self {
        Self {
            epochs: 30,
            batch_size: 64,
            loss_tolerance: 1e-6,
        }
    }
}

/// Configuration for triplet fine-tuning (paper §3.1).
#[derive(Debug, Clone)]
pub struct TripletConfig {
    /// Number of optimizer steps.
    pub steps: usize,
    /// Triplets per step.
    pub batch_size: usize,
    /// Margin `m` of the hinge (paper §5.1).
    pub margin: f32,
}

impl Default for TripletConfig {
    fn default() -> Self {
        Self {
            steps: 400,
            batch_size: 32,
            margin: 0.3,
        }
    }
}

/// Summary of a training run.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean loss of the final epoch (or final step window for triplet runs).
    pub final_loss: f32,
    /// Loss after each epoch/step-window, for convergence diagnostics.
    pub loss_curve: Vec<f32>,
    /// Total optimizer steps taken.
    pub steps: usize,
}

/// Which supervised loss to apply.
enum SupervisedLoss {
    Mse,
    Bce,
}

fn fit_supervised(
    net: &mut Mlp,
    features: &Matrix,
    targets: &[f32],
    config: &FitConfig,
    opt: &mut Adam,
    rng: &mut impl Rng,
    loss_kind: SupervisedLoss,
) -> TrainReport {
    assert_eq!(
        features.rows(),
        targets.len(),
        "features/targets length mismatch"
    );
    assert!(features.rows() > 0, "cannot fit on an empty dataset");
    let n = features.rows();
    let mut order: Vec<usize> = (0..n).collect();
    let mut curve = Vec::with_capacity(config.epochs);
    let mut steps = 0usize;
    for _ in 0..config.epochs {
        order.shuffle(rng);
        let mut epoch_loss = 0.0;
        let mut batches = 0usize;
        for chunk in order.chunks(config.batch_size.max(1)) {
            let x = features.select_rows(chunk);
            let y: Vec<f32> = chunk.iter().map(|&i| targets[i]).collect();
            let pred = net.forward_train(&x);
            let (loss, grad) = match loss_kind {
                SupervisedLoss::Mse => mse(&pred, &y),
                SupervisedLoss::Bce => bce_with_logits(&pred, &y),
            };
            net.zero_grad();
            net.backward(&grad);
            opt.step(net);
            epoch_loss += loss;
            batches += 1;
            steps += 1;
        }
        let mean = epoch_loss / batches.max(1) as f32;
        curve.push(mean);
        if mean < config.loss_tolerance {
            break;
        }
    }
    TrainReport {
        final_loss: curve.last().copied().unwrap_or(f32::NAN),
        loss_curve: curve,
        steps,
    }
}

/// Fits `net` to scalar regression targets with MSE.
pub fn fit_regression(
    net: &mut Mlp,
    features: &Matrix,
    targets: &[f32],
    config: &FitConfig,
    opt: &mut Adam,
    rng: &mut impl Rng,
) -> TrainReport {
    fit_supervised(
        net,
        features,
        targets,
        config,
        opt,
        rng,
        SupervisedLoss::Mse,
    )
}

/// Fits `net` as a binary classifier (logit output) with BCE.
pub fn fit_classifier(
    net: &mut Mlp,
    features: &Matrix,
    targets: &[f32],
    config: &FitConfig,
    opt: &mut Adam,
    rng: &mut impl Rng,
) -> TrainReport {
    fit_supervised(
        net,
        features,
        targets,
        config,
        opt,
        rng,
        SupervisedLoss::Bce,
    )
}

/// Triplet fine-tuning over bucketed records (paper §3.1).
///
/// `features` holds one row per training record; `buckets[i]` is the closeness
/// bucket of record `i` (records in the same bucket are "close" under the
/// user's closeness function, records in different buckets are "far"). Each
/// step samples `batch_size` triplets: two distinct buckets are drawn, the
/// anchor/positive come from the first and the negative from the second.
///
/// Buckets with a single member can still serve as negatives; the anchor
/// bucket must have ≥ 2 members. Returns an error-free report; if fewer than
/// two usable buckets exist the network is returned untrained with a NaN loss.
pub fn fit_triplet(
    net: &mut Mlp,
    features: &Matrix,
    buckets: &[usize],
    config: &TripletConfig,
    opt: &mut Adam,
    rng: &mut impl Rng,
) -> TrainReport {
    assert_eq!(
        features.rows(),
        buckets.len(),
        "features/buckets length mismatch"
    );
    // Group record indices by bucket id.
    let mut groups: Vec<Vec<usize>> = Vec::new();
    {
        let max_bucket = buckets.iter().copied().max().unwrap_or(0);
        groups.resize(max_bucket + 1, Vec::new());
        for (i, &b) in buckets.iter().enumerate() {
            groups[b].push(i);
        }
        groups.retain(|g| !g.is_empty());
    }
    let anchor_groups: Vec<usize> = (0..groups.len())
        .filter(|&g| groups[g].len() >= 2)
        .collect();
    if groups.len() < 2 || anchor_groups.is_empty() {
        return TrainReport {
            final_loss: f32::NAN,
            loss_curve: vec![],
            steps: 0,
        };
    }

    let mut curve = Vec::with_capacity(config.steps);
    let mut idx_a = Vec::with_capacity(config.batch_size);
    let mut idx_p = Vec::with_capacity(config.batch_size);
    let mut idx_n = Vec::with_capacity(config.batch_size);
    // One batch of triplet indices (anchors ‖ positives ‖ negatives) and a
    // reusable batch buffer: the per-step gather overwrites it in place
    // instead of allocating three row selections plus a vstack.
    let mut idx_batch: Vec<usize> = Vec::with_capacity(3 * config.batch_size);
    let mut batch = Matrix::zeros(3 * config.batch_size, features.cols());
    for _ in 0..config.steps {
        idx_a.clear();
        idx_p.clear();
        idx_n.clear();
        for _ in 0..config.batch_size {
            let ga = anchor_groups[rng.gen_range(0..anchor_groups.len())];
            // Negative bucket: any other bucket.
            let gn = loop {
                let g = rng.gen_range(0..groups.len());
                if g != ga {
                    break g;
                }
            };
            let members = &groups[ga];
            let a = members[rng.gen_range(0..members.len())];
            let p = loop {
                let cand = members[rng.gen_range(0..members.len())];
                if cand != a {
                    break cand;
                }
            };
            let n = groups[gn][rng.gen_range(0..groups[gn].len())];
            idx_a.push(a);
            idx_p.push(p);
            idx_n.push(n);
        }
        idx_batch.clear();
        idx_batch.extend_from_slice(&idx_a);
        idx_batch.extend_from_slice(&idx_p);
        idx_batch.extend_from_slice(&idx_n);
        batch.copy_rows_from(features, &idx_batch);
        let emb = net.forward_train(&batch);
        let (loss, grad) = triplet_batch(&emb, config.margin);
        net.zero_grad();
        net.backward(&grad);
        opt.step(net);
        curve.push(loss);
    }
    let tail = curve.len().saturating_sub(10);
    let final_loss = if curve.is_empty() {
        f32::NAN
    } else {
        curve[tail..].iter().sum::<f32>() / (curve.len() - tail) as f32
    };
    TrainReport {
        final_loss,
        loss_curve: curve,
        steps: config.steps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mlp::{Activation, Mlp, MlpConfig};
    use crate::optim::Adam;
    use crate::tensor::l2;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn regression_learns_quadratic() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let mut net = Mlp::new(
            &MlpConfig {
                input_dim: 1,
                hidden: vec![16],
                output_dim: 1,
                activation: Activation::Tanh,
                l2_normalize_output: false,
            },
            &mut rng,
        );
        let xs = Matrix::from_fn(64, 1, |r, _| r as f32 / 32.0 - 1.0);
        let ys: Vec<f32> = (0..64).map(|r| (r as f32 / 32.0 - 1.0).powi(2)).collect();
        let mut opt = Adam::new(0.01);
        let report = fit_regression(
            &mut net,
            &xs,
            &ys,
            &FitConfig {
                epochs: 200,
                batch_size: 16,
                loss_tolerance: 1e-4,
            },
            &mut opt,
            &mut rng,
        );
        assert!(report.final_loss < 5e-3, "loss {}", report.final_loss);
    }

    #[test]
    fn classifier_separates_linearly_separable_data() {
        let mut rng = ChaCha8Rng::seed_from_u64(22);
        let mut net = Mlp::new(&MlpConfig::linear(2, 1), &mut rng);
        let xs = Matrix::from_fn(40, 2, |r, c| {
            let base = if r < 20 { -1.0 } else { 1.0 };
            base + ((r * 3 + c) % 7) as f32 * 0.05
        });
        let ys: Vec<f32> = (0..40).map(|r| if r < 20 { 0.0 } else { 1.0 }).collect();
        let mut opt = Adam::new(0.5);
        let report = fit_classifier(
            &mut net,
            &xs,
            &ys,
            &FitConfig {
                epochs: 100,
                batch_size: 8,
                loss_tolerance: 1e-3,
            },
            &mut opt,
            &mut rng,
        );
        assert!(report.final_loss < 0.1, "loss {}", report.final_loss);
        // Predictions should order correctly.
        let preds = net.forward(&xs);
        let neg_max = (0..20)
            .map(|i| preds.get(i, 0))
            .fold(f32::NEG_INFINITY, f32::max);
        let pos_min = (20..40)
            .map(|i| preds.get(i, 0))
            .fold(f32::INFINITY, f32::min);
        assert!(neg_max < pos_min);
    }

    #[test]
    fn triplet_training_pulls_buckets_apart() {
        let mut rng = ChaCha8Rng::seed_from_u64(23);
        // Two buckets whose features overlap on one nuisance dimension but
        // differ on a subtle informative dimension.
        let n = 40;
        let features = Matrix::from_fn(n, 4, |r, c| {
            let bucket = r % 2;
            match c {
                0 => bucket as f32 * 0.2 + ((r / 2) as f32 * 0.618).sin() * 0.05, // informative (weak)
                _ => ((r * 13 + c * 7) % 17) as f32 / 17.0,                       // nuisance
            }
        });
        let buckets: Vec<usize> = (0..n).map(|r| r % 2).collect();
        let mut net = Mlp::new(&MlpConfig::embedding(4, 3), &mut rng);
        let mut opt = Adam::new(0.01);
        let report = fit_triplet(
            &mut net,
            &features,
            &buckets,
            &TripletConfig {
                steps: 600,
                batch_size: 16,
                margin: 0.5,
            },
            &mut opt,
            &mut rng,
        );
        assert!(
            report.final_loss < 0.2,
            "triplet loss {}",
            report.final_loss
        );
        // After training, intra-bucket distances must be smaller than
        // inter-bucket distances on average.
        let emb = net.forward(&features);
        let mut intra = 0.0;
        let mut inter = 0.0;
        let mut n_intra = 0;
        let mut n_inter = 0;
        for i in 0..n {
            for j in (i + 1)..n {
                let d = l2(emb.row(i), emb.row(j));
                if buckets[i] == buckets[j] {
                    intra += d;
                    n_intra += 1;
                } else {
                    inter += d;
                    n_inter += 1;
                }
            }
        }
        let intra = intra / n_intra as f32;
        let inter = inter / n_inter as f32;
        assert!(inter > intra * 1.5, "inter {inter} vs intra {intra}");
    }

    #[test]
    fn triplet_with_single_bucket_returns_untrained() {
        let mut rng = ChaCha8Rng::seed_from_u64(24);
        let features = Matrix::from_fn(4, 2, |r, c| (r + c) as f32);
        let buckets = vec![0, 0, 0, 0];
        let mut net = Mlp::new(&MlpConfig::embedding(2, 2), &mut rng);
        let mut opt = Adam::new(0.01);
        let report = fit_triplet(
            &mut net,
            &features,
            &buckets,
            &TripletConfig::default(),
            &mut opt,
            &mut rng,
        );
        assert_eq!(report.steps, 0);
        assert!(report.final_loss.is_nan());
    }

    #[test]
    #[should_panic(expected = "features/targets length mismatch")]
    fn regression_rejects_mismatched_lengths() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        let mut net = Mlp::new(&MlpConfig::linear(1, 1), &mut rng);
        let xs = Matrix::zeros(3, 1);
        let mut opt = Adam::new(0.1);
        let _ = fit_regression(
            &mut net,
            &xs,
            &[0.0; 2],
            &FitConfig::default(),
            &mut opt,
            &mut rng,
        );
    }
}
