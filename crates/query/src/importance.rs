//! The importance sampler behind SUPG recall-target, SUPG precision-target
//! and predicate aggregation, and the ratio bound the two SUPG threshold
//! scans share.
//!
//! All three algorithms spend their oracle budget the same way: sanitize
//! the proxy, normalize it to `[0, 1]`, draw `m` records *with* replacement
//! from a proxy-weighted distribution defensively mixed with uniform, label
//! the distinct draws in one batch-oracle call, and weight each draw
//! `1/(m·q)`. They differ only in the proxy weight (`√p` for SUPG, `p` for
//! predicate aggregation) and the oracle's answer type.

use crate::sanitize::{sanitize_proxies, UnitScale};
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::{HashMap, HashSet};

/// A labeled importance sample over one proxy vector.
pub(crate) struct ImportanceSample<A> {
    /// The sanitized proxy normalized to `[0, 1]` (thresholds live on this
    /// scale; [`UnitScale::denormalize`] maps one back).
    pub scale: UnitScale,
    /// Non-finite proxy scores replaced on entry
    /// (`QueryTelemetry::sanitized_inputs`).
    pub sanitized_inputs: u64,
    /// One `(record, weight 1/(m·q), answer)` per draw, in draw order;
    /// `m = budget.min(n).max(1)` of them.
    pub draws: Vec<(usize, f64, A)>,
    /// Distinct records the batch oracle was asked for (≤ budget).
    pub oracle_calls: u64,
}

/// Draws `budget.min(n).max(1)` records with probability
/// `q ∝ (1−u)·weight(p) + u·(1/n)-mass` and labels them.
///
/// The draw set is label-independent, so every draw is made first and the
/// distinct records are requested from `batch_oracle` in **one** call, in
/// first-occurrence draw order — on a cold cache the invocation meter
/// advances exactly as a sequential draw-then-label loop would. Distinct
/// records are capped at the budget by `m ≤ budget`.
pub(crate) fn sample_and_label<A: Copy>(
    proxy: &[f64],
    weight: impl Fn(f64) -> f64,
    uniform_mix: f64,
    budget: usize,
    seed: u64,
    batch_oracle: &mut dyn FnMut(&[usize]) -> Vec<A>,
) -> ImportanceSample<A> {
    let n = proxy.len();
    // Sanitize non-finite proxies, then normalize to [0, 1] (overflow-safe).
    let sanitized = sanitize_proxies(proxy);
    let scale = UnitScale::new(&sanitized.scores);
    let norm: &[f64] = &scale.norm;

    let u = uniform_mix.clamp(0.0, 1.0);
    let weight_total: f64 = norm.iter().map(|&p| weight(p)).sum();
    let q: Vec<f64> = if weight_total > 1e-12 {
        norm.iter()
            .map(|&p| (1.0 - u) * weight(p) / weight_total + u / n as f64)
            .collect()
    } else {
        vec![1.0 / n as f64; n]
    };

    // Cumulative distribution for sampling with replacement.
    let mut cdf = Vec::with_capacity(n);
    let mut acc = 0.0;
    for &qi in &q {
        acc += qi;
        cdf.push(acc);
    }

    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let m = budget.min(n).max(1);
    let sampled: Vec<usize> = (0..m)
        .map(|_| {
            let x: f64 = rng.gen_range(0.0..acc);
            cdf.partition_point(|&c| c < x).min(n - 1)
        })
        .collect();
    let mut distinct: Vec<usize> = Vec::new();
    let mut seen: HashSet<usize> = HashSet::new();
    for &rec in &sampled {
        if seen.insert(rec) {
            distinct.push(rec);
        }
    }
    let answers = batch_oracle(&distinct);
    assert_eq!(
        answers.len(),
        distinct.len(),
        "batch oracle must return one answer per record"
    );
    let oracle_calls = distinct.len() as u64;
    let truth: HashMap<usize, A> = distinct.into_iter().zip(answers).collect();
    let draws = sampled
        .iter()
        .map(|&rec| (rec, 1.0 / (m as f64 * q[rec]), truth[&rec]))
        .collect();
    ImportanceSample {
        sanitized_inputs: sanitized.replaced,
        scale,
        draws,
        oracle_calls,
    }
}

/// SUPG's one-sided bound: the delta-method normal lower confidence bound
/// on the ratio of means `Σa / Σb` over `m` per-draw contributions
/// `(a_i, b_i)`, at normal quantile `z`. `None` when `Σb` is not positive
/// (no sampled mass, so no ratio to bound).
pub(crate) fn ratio_lcb(
    contributions: impl Iterator<Item = (f64, f64)>,
    m: usize,
    z: f64,
) -> Option<f64> {
    let mut a_sum = 0.0;
    let mut b_sum = 0.0;
    let mut a2 = 0.0;
    let mut b2 = 0.0;
    let mut ab = 0.0;
    for (a, b) in contributions {
        a_sum += a;
        b_sum += b;
        a2 += a * a;
        b2 += b * b;
        ab += a * b;
    }
    if b_sum <= 0.0 {
        return None;
    }
    let mf = m as f64;
    let r = a_sum / b_sum;
    // Delta-method variance of the ratio of means.
    let mean_a = a_sum / mf;
    let mean_b = b_sum / mf;
    let var_a = (a2 / mf - mean_a * mean_a).max(0.0);
    let var_b = (b2 / mf - mean_b * mean_b).max(0.0);
    let cov_ab = ab / mf - mean_a * mean_b;
    let var_r =
        (var_a - 2.0 * r * cov_ab + r * r * var_b).max(0.0) / (mf * mean_b * mean_b).max(1e-300);
    Some(r - z * var_r.sqrt())
}
