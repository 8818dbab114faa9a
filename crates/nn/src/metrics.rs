//! Evaluation metrics reported in the paper: ρ² (squared Pearson correlation
//! of proxy scores with target-labeler outputs, §6.3), F1 for selection
//! without guarantees (Table 2), plus standard supporting metrics.

/// Pearson correlation coefficient between two equal-length series.
///
/// Returns 0 when either series is constant (correlation undefined).
pub fn pearson_r(a: &[f64], b: &[f64]) -> f64 {
    assert_eq!(a.len(), b.len(), "series length mismatch");
    let n = a.len();
    if n < 2 {
        return 0.0;
    }
    let ma = a.iter().sum::<f64>() / n as f64;
    let mb = b.iter().sum::<f64>() / n as f64;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (&x, &y) in a.iter().zip(b) {
        let dx = x - ma;
        let dy = y - mb;
        cov += dx * dy;
        va += dx * dx;
        vb += dy * dy;
    }
    if va <= 0.0 || vb <= 0.0 {
        return 0.0;
    }
    cov / (va.sqrt() * vb.sqrt())
}

/// Squared Pearson correlation — the paper's proxy-quality metric ρ².
pub fn rho_squared(proxy: &[f64], truth: &[f64]) -> f64 {
    let r = pearson_r(proxy, truth);
    r * r
}

/// Mean squared error.
pub fn mse(pred: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(pred.len(), truth.len());
    if pred.is_empty() {
        return 0.0;
    }
    pred.iter()
        .zip(truth)
        .map(|(p, t)| (p - t) * (p - t))
        .sum::<f64>()
        / pred.len() as f64
}

/// Mean absolute error.
pub fn mae(pred: &[f64], truth: &[f64]) -> f64 {
    assert_eq!(pred.len(), truth.len());
    if pred.is_empty() {
        return 0.0;
    }
    pred.iter()
        .zip(truth)
        .map(|(p, t)| (p - t).abs())
        .sum::<f64>()
        / pred.len() as f64
}

/// Binary confusion counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Confusion {
    /// True positives.
    pub tp: usize,
    /// False positives.
    pub fp: usize,
    /// True negatives.
    pub tn: usize,
    /// False negatives.
    pub fn_: usize,
}

impl Confusion {
    /// Tallies predictions against ground truth.
    pub fn from_predictions(pred: &[bool], truth: &[bool]) -> Self {
        assert_eq!(pred.len(), truth.len());
        let mut c = Confusion::default();
        for (&p, &t) in pred.iter().zip(truth) {
            match (p, t) {
                (true, true) => c.tp += 1,
                (true, false) => c.fp += 1,
                (false, true) => c.fn_ += 1,
                (false, false) => c.tn += 1,
            }
        }
        c
    }

    /// Precision `tp / (tp + fp)`; 1.0 when nothing was predicted positive.
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fp) as f64
        }
    }

    /// Recall `tp / (tp + fn)`; 1.0 when there are no positives.
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            1.0
        } else {
            self.tp as f64 / (self.tp + self.fn_) as f64
        }
    }

    /// F1 score (harmonic mean of precision and recall).
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            0.0
        } else {
            2.0 * p * r / (p + r)
        }
    }

    /// False positive rate `fp / (fp + tn)`; 0.0 when there are no negatives.
    pub fn false_positive_rate(&self) -> f64 {
        if self.fp + self.tn == 0 {
            0.0
        } else {
            self.fp as f64 / (self.fp + self.tn) as f64
        }
    }
}

/// Area under the ROC curve via the rank-sum (Mann–Whitney) formulation.
///
/// Ties in scores contribute half credit. Returns 0.5 when either class is
/// empty (no ranking information).
pub fn auc_roc(scores: &[f64], truth: &[bool]) -> f64 {
    assert_eq!(scores.len(), truth.len());
    let mut pos = 0usize;
    let mut neg = 0usize;
    for &t in truth {
        if t {
            pos += 1
        } else {
            neg += 1
        }
    }
    if pos == 0 || neg == 0 {
        return 0.5;
    }
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| {
        scores[a]
            .partial_cmp(&scores[b])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    // Assign average ranks for ties.
    let mut ranks = vec![0.0f64; scores.len()];
    let mut i = 0;
    while i < order.len() {
        let mut j = i;
        while j + 1 < order.len() && scores[order[j + 1]] == scores[order[i]] {
            j += 1;
        }
        let avg_rank = (i + j) as f64 / 2.0 + 1.0;
        for &k in &order[i..=j] {
            ranks[k] = avg_rank;
        }
        i = j + 1;
    }
    let pos_rank_sum: f64 = truth
        .iter()
        .zip(&ranks)
        .filter(|(t, _)| **t)
        .map(|(_, &r)| r)
        .sum();
    (pos_rank_sum - pos as f64 * (pos as f64 + 1.0) / 2.0) / (pos as f64 * neg as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pearson_perfect_positive() {
        let a = [1.0, 2.0, 3.0, 4.0];
        let b = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson_r(&a, &b) - 1.0).abs() < 1e-12);
        assert!((rho_squared(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_perfect_negative() {
        let a = [1.0, 2.0, 3.0];
        let b = [3.0, 2.0, 1.0];
        assert!((pearson_r(&a, &b) + 1.0).abs() < 1e-12);
    }

    #[test]
    fn pearson_constant_series_is_zero() {
        assert_eq!(pearson_r(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
    }

    #[test]
    fn confusion_metrics() {
        let pred = [true, true, false, false, true];
        let truth = [true, false, true, false, true];
        let c = Confusion::from_predictions(&pred, &truth);
        assert_eq!(
            c,
            Confusion {
                tp: 2,
                fp: 1,
                tn: 1,
                fn_: 1
            }
        );
        assert!((c.precision() - 2.0 / 3.0).abs() < 1e-12);
        assert!((c.recall() - 2.0 / 3.0).abs() < 1e-12);
        assert!((c.f1() - 2.0 / 3.0).abs() < 1e-12);
        assert!((c.false_positive_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_positive_class_conventions() {
        let c = Confusion::from_predictions(&[false, false], &[false, false]);
        assert_eq!(c.precision(), 1.0);
        assert_eq!(c.recall(), 1.0);
        assert_eq!(c.false_positive_rate(), 0.0);
    }

    #[test]
    fn auc_perfect_ranking() {
        let scores = [0.9, 0.8, 0.2, 0.1];
        let truth = [true, true, false, false];
        assert!((auc_roc(&scores, &truth) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn auc_inverted_ranking() {
        let scores = [0.1, 0.2, 0.8, 0.9];
        let truth = [true, true, false, false];
        assert!(auc_roc(&scores, &truth).abs() < 1e-12);
    }

    #[test]
    fn auc_ties_give_half_credit() {
        let scores = [0.5, 0.5];
        let truth = [true, false];
        assert!((auc_roc(&scores, &truth) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn auc_single_class_is_half() {
        assert_eq!(auc_roc(&[0.1, 0.9], &[true, true]), 0.5);
    }

    #[test]
    fn mse_and_mae_basics() {
        let p = [1.0, 2.0];
        let t = [0.0, 4.0];
        assert!((mse(&p, &t) - 2.5).abs() < 1e-12);
        assert!((mae(&p, &t) - 1.5).abs() < 1e-12);
    }
}
