//! Aggregation with predicates (§2.2: "Since the initial draft, other work
//! has used TASTI to support aggregation queries with predicates" — Kang et
//! al., *Accelerating Approximate Aggregation Queries with Expensive
//! Predicates*, PVLDB 2021).
//!
//! Query: the mean of a value over records *matching a predicate*, e.g.
//! "average number of cars per frame, among frames containing a bus". Both
//! the predicate and the value require the target labeler; TASTI supplies a
//! proxy score for the predicate, which drives importance sampling so the
//! oracle budget concentrates on records likely to match.
//!
//! The estimator is a self-normalized importance-sampling ratio:
//! `Σ wᵢ·fᵢ·1[Pᵢ] / Σ wᵢ·1[Pᵢ]` with a delta-method normal confidence
//! interval, under a fixed oracle budget (matching ABae's budgeted setting).

use crate::importance::sample_and_label;
use crate::stats::normal_inverse_cdf;
use serde::Serialize;
use tasti_obs::{QueryTelemetry, Stopwatch};

/// Configuration for predicate aggregation.
#[derive(Debug, Clone)]
pub struct PredicateAggConfig {
    /// Hard oracle budget (distinct records).
    pub budget: usize,
    /// Confidence level for the reported interval.
    pub confidence: f64,
    /// Uniform mixing fraction in the importance distribution (defensive).
    pub uniform_mix: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PredicateAggConfig {
    fn default() -> Self {
        Self {
            budget: 500,
            confidence: 0.95,
            uniform_mix: 0.2,
            seed: 1,
        }
    }
}

/// Result of a predicate-aggregation query.
#[derive(Debug, Clone, Serialize)]
pub struct PredicateAggResult {
    /// Estimated mean of the value over matching records (NaN if no
    /// sampled record matched).
    pub estimate: f64,
    /// Normal-approximation CI half-width at the configured confidence.
    pub ci_half_width: f64,
    /// Distinct oracle invocations consumed. Mirrors
    /// `telemetry.invocations` (kept for backward compatibility).
    pub oracle_calls: u64,
    /// Sampled records that matched the predicate.
    pub matches_sampled: usize,
    /// Uniform execution record. `certified` is `false` when no sampled
    /// record matched the predicate — the NaN estimate and infinite
    /// interval describe that failure, not a valid answer.
    pub telemetry: QueryTelemetry,
}

/// Estimates the mean of a value over records matching a predicate.
///
/// `pred_proxy` scores each record's probability of matching; `oracle`
/// returns `Some(value)` for matching records and `None` otherwise (one
/// target-labeler invocation answers both questions, as a real labeler
/// output does).
pub fn predicate_aggregate(
    pred_proxy: &[f64],
    oracle: &mut dyn FnMut(usize) -> Option<f64>,
    config: &PredicateAggConfig,
) -> PredicateAggResult {
    predicate_aggregate_batch(
        pred_proxy,
        &mut |recs| recs.iter().map(|&r| oracle(r)).collect(),
        config,
    )
}

/// Batched predicate aggregation: the importance draw set is
/// label-independent, so all draws are made up front and the distinct
/// sampled records are labeled through `batch_oracle` in **one** call,
/// meter-identical to the sequential [`predicate_aggregate`] loop (distinct
/// records, first-occurrence order).
pub fn predicate_aggregate_batch(
    pred_proxy: &[f64],
    batch_oracle: &mut dyn FnMut(&[usize]) -> Vec<Option<f64>>,
    config: &PredicateAggConfig,
) -> PredicateAggResult {
    let sw = Stopwatch::start();
    let mut telemetry = QueryTelemetry::new("predicate_aggregate");
    let n = pred_proxy.len();
    assert!(n > 0, "cannot aggregate an empty dataset");
    // Importance distribution q ∝ (1−u)·p + u·(1/n)-mass.
    let sample = sample_and_label(
        pred_proxy,
        |p| p,
        config.uniform_mix,
        config.budget,
        config.seed,
        batch_oracle,
    );
    telemetry.sanitized_inputs = sample.sanitized_inputs;
    let m = sample.draws.len();
    // Per-draw contributions a_i = w·f·1[P], b_i = w·1[P].
    let mut a = Vec::with_capacity(m);
    let mut b = Vec::with_capacity(m);
    let mut matches_sampled_set: std::collections::HashSet<usize> = Default::default();
    for &(rec, w, answer) in &sample.draws {
        match answer {
            Some(v) => {
                a.push(w * v);
                b.push(w);
                matches_sampled_set.insert(rec);
            }
            None => {
                a.push(0.0);
                b.push(0.0);
            }
        }
    }
    let oracle_calls = sample.oracle_calls;

    let mf = m as f64;
    let b_sum: f64 = b.iter().sum();
    if b_sum <= 0.0 {
        telemetry.invocations = oracle_calls;
        telemetry.certified = false; // no match sampled: nothing to estimate
        telemetry.wall_seconds = sw.elapsed_seconds();
        return PredicateAggResult {
            estimate: f64::NAN,
            ci_half_width: f64::INFINITY,
            oracle_calls,
            matches_sampled: 0,
            telemetry,
        };
    }
    let a_sum: f64 = a.iter().sum();
    let r = a_sum / b_sum;
    // Delta-method variance of the ratio of means.
    let mean_a = a_sum / mf;
    let mean_b = b_sum / mf;
    let var_a = a.iter().map(|&x| (x - mean_a).powi(2)).sum::<f64>() / mf;
    let var_b = b.iter().map(|&x| (x - mean_b).powi(2)).sum::<f64>() / mf;
    let cov = a
        .iter()
        .zip(&b)
        .map(|(&x, &y)| (x - mean_a) * (y - mean_b))
        .sum::<f64>()
        / mf;
    let var_r = ((var_a - 2.0 * r * cov + r * r * var_b) / (mf * mean_b * mean_b)).max(0.0);
    let z = normal_inverse_cdf(1.0 - (1.0 - config.confidence) / 2.0);
    telemetry.invocations = oracle_calls;
    telemetry.certified = true;
    telemetry.wall_seconds = sw.elapsed_seconds();
    PredicateAggResult {
        estimate: r,
        ci_half_width: z * var_r.sqrt(),
        oracle_calls,
        matches_sampled: matches_sampled_set.len(),
        telemetry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Population: ~`match_rate` of records match; matching records carry
    /// value `base + noise`; `proxy_quality ∈ [0, 1]` controls how well the
    /// predicate proxy ranks matches.
    fn population(
        n: usize,
        match_rate: f64,
        proxy_quality: f64,
        seed: u64,
    ) -> (Vec<Option<f64>>, Vec<f64>, f64) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut truth = Vec::with_capacity(n);
        let mut proxy = Vec::with_capacity(n);
        let mut sum = 0.0;
        let mut count = 0usize;
        for _ in 0..n {
            let matches = rng.gen::<f64>() < match_rate;
            let value = 3.0 + rng.gen_range(-1.0..1.0);
            if matches {
                sum += value;
                count += 1;
            }
            truth.push(if matches { Some(value) } else { None });
            let signal = matches as u8 as f64;
            proxy.push(proxy_quality * signal + (1.0 - proxy_quality) * rng.gen::<f64>());
        }
        (truth, proxy, sum / count.max(1) as f64)
    }

    #[test]
    fn estimate_is_accurate_on_rare_predicates() {
        let (truth, proxy, true_mean) = population(20_000, 0.03, 0.9, 1);
        let cfg = PredicateAggConfig {
            budget: 800,
            seed: 3,
            ..Default::default()
        };
        let res = predicate_aggregate(&proxy, &mut |r| truth[r], &cfg);
        assert!(
            (res.estimate - true_mean).abs() < 0.25,
            "estimate {} vs true {true_mean}",
            res.estimate
        );
        assert!(res.oracle_calls <= 800);
        assert!(
            res.matches_sampled > 20,
            "importance sampling should find matches"
        );
    }

    #[test]
    fn better_predicate_proxy_tightens_the_interval() {
        let (truth, good, _) = population(20_000, 0.03, 0.95, 5);
        let (_, bad, _) = population(20_000, 0.03, 0.0, 5);
        let cfg = PredicateAggConfig {
            budget: 600,
            seed: 7,
            ..Default::default()
        };
        let res_good = predicate_aggregate(&good, &mut |r| truth[r], &cfg);
        let res_bad = predicate_aggregate(&bad, &mut |r| truth[r], &cfg);
        assert!(
            res_good.ci_half_width < res_bad.ci_half_width,
            "good proxy CI {} should beat bad proxy CI {}",
            res_good.ci_half_width,
            res_bad.ci_half_width
        );
        assert!(res_good.matches_sampled > res_bad.matches_sampled);
    }

    #[test]
    fn no_matches_reports_nan_with_infinite_interval() {
        let proxy: Vec<f64> = (0..500).map(|i| (i % 5) as f64).collect();
        let cfg = PredicateAggConfig {
            budget: 100,
            seed: 9,
            ..Default::default()
        };
        let res = predicate_aggregate(&proxy, &mut |_| None, &cfg);
        assert!(res.estimate.is_nan());
        assert!(res.ci_half_width.is_infinite());
        assert_eq!(res.matches_sampled, 0);
        assert!(!res.telemetry.certified);
    }

    #[test]
    fn nan_proxies_are_sanitized_and_counted() {
        let (truth, mut proxy, true_mean) = population(10_000, 0.1, 0.8, 21);
        proxy[0] = f64::NAN;
        proxy[1] = f64::NEG_INFINITY;
        let cfg = PredicateAggConfig {
            budget: 600,
            seed: 23,
            ..Default::default()
        };
        let res = predicate_aggregate(&proxy, &mut |r| truth[r], &cfg);
        assert_eq!(res.telemetry.sanitized_inputs, 2);
        assert_eq!(res.telemetry.invocations, res.oracle_calls);
        assert!((res.estimate - true_mean).abs() < 0.3);
    }

    #[test]
    fn deterministic_given_seed() {
        let (truth, proxy, _) = population(5_000, 0.1, 0.7, 11);
        let cfg = PredicateAggConfig {
            budget: 300,
            seed: 13,
            ..Default::default()
        };
        let a = predicate_aggregate(&proxy, &mut |r| truth[r], &cfg);
        let b = predicate_aggregate(&proxy, &mut |r| truth[r], &cfg);
        assert_eq!(a.estimate, b.estimate);
        assert_eq!(a.ci_half_width, b.ci_half_width);
    }

    #[test]
    fn coverage_of_the_interval() {
        let (truth, proxy, true_mean) = population(15_000, 0.05, 0.8, 15);
        let mut hits = 0;
        for seed in 0..20 {
            let cfg = PredicateAggConfig {
                budget: 500,
                seed,
                ..Default::default()
            };
            let res = predicate_aggregate(&proxy, &mut |r| truth[r], &cfg);
            if (res.estimate - true_mean).abs() <= res.ci_half_width {
                hits += 1;
            }
        }
        assert!(hits >= 16, "interval coverage too low: {hits}/20");
    }

    #[test]
    fn constant_proxy_falls_back_to_uniform() {
        let (truth, _, true_mean) = population(10_000, 0.3, 0.9, 17);
        let proxy = vec![0.5f64; 10_000];
        let cfg = PredicateAggConfig {
            budget: 600,
            seed: 19,
            ..Default::default()
        };
        let res = predicate_aggregate(&proxy, &mut |r| truth[r], &cfg);
        assert!((res.estimate - true_mean).abs() < 0.3);
    }
}
