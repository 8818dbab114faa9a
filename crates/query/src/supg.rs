//! SUPG recall-target selection (Kang et al., PVLDB 2020; used in §6.3).
//!
//! Query: "return a set of records containing at least `recall_target` of
//! all records matching the predicate, with probability `confidence`, using
//! at most `budget` target-labeler invocations."
//!
//! The algorithm (the importance-sampling recall-target variant):
//!
//! 1. Normalize proxy scores to `[0, 1]` and draw `budget` samples with
//!    probability ∝ `√proxy` (defensively mixed with uniform), *with*
//!    replacement, recording importance weights `w_i = 1/(m·q_i)`.
//! 2. Invoke the oracle on the sampled records. The importance-weighted
//!    positive mass above a candidate threshold `τ`, divided by the total
//!    weighted positive mass, estimates `recall(τ)`.
//! 3. Pick the largest `τ` whose **lower confidence bound** on recall (a
//!    delta-method normal bound on the ratio estimator) still clears the
//!    target — larger `τ` means a smaller returned set and fewer false
//!    positives.
//! 4. Return `{records with proxy ≥ τ} ∪ {sampled true positives}`.
//!
//! Quality is measured by the false-positive rate of the returned set
//! (Figure 5: lower is better); the recall target itself is met with high
//! probability by construction.

use crate::importance::{ratio_lcb, sample_and_label};
use crate::stats::normal_inverse_cdf;
use serde::Serialize;
use std::collections::HashSet;
use tasti_obs::{QueryTelemetry, Stopwatch};

/// Configuration for a SUPG recall-target query.
///
/// # Degenerate-input policy
///
/// Proxy scores are sanitized on entry per the crate-wide policy
/// ([`crate::sanitize`]): `NaN` and `−∞` map to the minimum finite score,
/// `+∞` to the maximum, and an all-non-finite vector degrades to the
/// uniform no-proxy baseline. The number of replaced scores is reported in
/// the result's [`QueryTelemetry::sanitized_inputs`]. The recall guarantee
/// is unaffected — it holds for *any* fixed proxy ordering; a polluted
/// proxy only costs false positives.
#[derive(Debug, Clone)]
pub struct SupgConfig {
    /// Recall target γ (e.g. 0.9).
    pub recall_target: f64,
    /// Success probability (e.g. 0.95).
    pub confidence: f64,
    /// Hard target-labeler budget (distinct sampled records may be fewer
    /// since sampling is with replacement).
    pub budget: usize,
    /// Fraction of uniform mixing in the importance distribution
    /// (defensive, keeps weights bounded).
    pub uniform_mix: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SupgConfig {
    fn default() -> Self {
        Self {
            recall_target: 0.9,
            confidence: 0.95,
            budget: 500,
            uniform_mix: 0.1,
            seed: 1,
        }
    }
}

/// Result of a SUPG query.
#[derive(Debug, Clone, Serialize)]
pub struct SupgResult {
    /// Indices of the returned records.
    pub returned: Vec<usize>,
    /// Proxy-score threshold selected.
    pub threshold: f64,
    /// Distinct target-labeler invocations consumed (≤ budget). Mirrors
    /// `telemetry.invocations` (kept for backward compatibility).
    pub oracle_calls: u64,
    /// Importance-weighted recall estimate at the threshold actually used —
    /// including the conservative τ = 0 fallback. `NaN` when no positive
    /// was sampled (there is nothing to estimate; check
    /// `telemetry.certified`).
    pub estimated_recall: f64,
    /// Uniform execution record. `certified` is `false` when no threshold
    /// cleared the recall lower confidence bound and the conservative
    /// return-everything fallback (τ = 0) was used.
    pub telemetry: QueryTelemetry,
}

/// Runs the SUPG recall-target selection algorithm.
///
/// `oracle(record)` must return whether the record matches the predicate;
/// it is invoked at most `config.budget` times (distinct records).
///
/// Thin adapter over [`supg_recall_target_batch`]: the batch core requests
/// the distinct sampled records in first-occurrence order, so both entry
/// points consume identical invocation counts.
pub fn supg_recall_target(
    proxy: &[f64],
    oracle: &mut dyn FnMut(usize) -> bool,
    config: &SupgConfig,
) -> SupgResult {
    supg_recall_target_batch(
        proxy,
        &mut |recs| recs.iter().map(|&r| oracle(r)).collect(),
        config,
    )
}

/// Batched SUPG recall-target selection: all `budget` importance draws are
/// made up front (the draw set is label-independent), and the distinct
/// sampled records are labeled through `batch_oracle` in **one** call — a
/// batched target labeler answers the whole stage-2 sample with a single
/// inner invocation.
///
/// `batch_oracle(records)` must return one predicate answer per requested
/// record, in order. Requested records are distinct and listed in
/// first-occurrence draw order, so on a cold cache the invocation meter
/// advances exactly as the sequential [`supg_recall_target`] loop would.
pub fn supg_recall_target_batch(
    proxy: &[f64],
    batch_oracle: &mut dyn FnMut(&[usize]) -> Vec<bool>,
    config: &SupgConfig,
) -> SupgResult {
    let sw = Stopwatch::start();
    let mut telemetry = QueryTelemetry::new("supg_recall_target");
    let n = proxy.len();
    assert!(n > 0, "cannot select over an empty dataset");
    assert!(
        config.recall_target > 0.0 && config.recall_target < 1.0,
        "recall target must be in (0, 1)"
    );

    // Importance distribution q ∝ (1−u)·√p + u·(1/n)-mass; draws are
    // (record, weight, is_positive).
    let sample = sample_and_label(
        proxy,
        f64::sqrt,
        config.uniform_mix,
        config.budget,
        config.seed,
        batch_oracle,
    );
    telemetry.sanitized_inputs = sample.sanitized_inputs;
    let norm: &[f64] = &sample.scale.norm;
    let draws = &sample.draws;
    let m = draws.len();
    let oracle_calls = sample.oracle_calls;

    // Candidate thresholds: the distinct proxy values of sampled positives
    // (descending). recall(τ) is a step function changing only there.
    // total_cmp is a total order, so the sort cannot panic even if a
    // non-finite score ever slipped past sanitization.
    let mut pos_thresholds: Vec<f64> = draws.iter().filter(|d| d.2).map(|d| norm[d.0]).collect();
    pos_thresholds.sort_by(|a, b| b.total_cmp(a));
    pos_thresholds.dedup();

    let z = normal_inverse_cdf(config.confidence);
    let total_pos_mass: f64 = draws.iter().filter(|d| d.2).map(|d| d.1).sum();

    let mut chosen_tau = 0.0f64;
    let mut certified = false;
    if total_pos_mass > 0.0 {
        for &tau in &pos_thresholds {
            // Ratio estimator R = A/B with per-draw contributions
            // a_i = w_i·1[pos ∧ p ≥ τ], b_i = w_i·1[pos].
            let lcb = ratio_lcb(
                draws.iter().map(|&(rec, w, pos)| {
                    let b = if pos { w } else { 0.0 };
                    let a = if pos && norm[rec] >= tau { w } else { 0.0 };
                    (a, b)
                }),
                m,
                z,
            );
            if lcb.is_some_and(|lcb| lcb >= config.recall_target) {
                chosen_tau = tau;
                certified = true;
                break; // thresholds descend; the first (largest) winner is tightest
            }
        }
    }

    // Honest recall estimate at the τ actually used — certified or the
    // conservative τ = 0 fallback. NaN when no positive was sampled: there
    // is nothing to estimate, and pretending 1.0 would hide the fallback.
    let estimated_recall = if total_pos_mass > 0.0 {
        let above: f64 = draws
            .iter()
            .filter(|d| d.2 && norm[d.0] >= chosen_tau)
            .map(|d| d.1)
            .sum();
        above / total_pos_mass
    } else {
        f64::NAN
    };

    // Returned set: everything at/above τ plus all sampled positives.
    let mut returned: Vec<usize> = (0..n).filter(|&i| norm[i] >= chosen_tau).collect();
    let set: HashSet<usize> = returned.iter().copied().collect();
    for &(rec, _, pos) in draws {
        if pos && !set.contains(&rec) {
            returned.push(rec);
        }
    }
    returned.sort_unstable();
    returned.dedup();

    telemetry.invocations = oracle_calls;
    telemetry.certified = certified;
    telemetry.wall_seconds = sw.elapsed_seconds();
    SupgResult {
        returned,
        threshold: sample.scale.denormalize(chosen_tau),
        oracle_calls,
        estimated_recall,
        telemetry,
    }
}

/// Result of a SUPG precision-target query.
#[derive(Debug, Clone, Serialize)]
pub struct SupgPrecisionResult {
    /// Indices of the returned records.
    pub returned: Vec<usize>,
    /// Proxy-score threshold selected.
    pub threshold: f64,
    /// Distinct target-labeler invocations consumed (≤ budget). Mirrors
    /// `telemetry.invocations` (kept for backward compatibility).
    pub oracle_calls: u64,
    /// Importance-weighted precision estimate at the threshold actually
    /// used. `NaN` when no sampled record lies at/above it (an empty
    /// returned set has no precision to report; check
    /// `telemetry.certified`).
    pub estimated_precision: f64,
    /// Uniform execution record. `certified` is `false` when no threshold
    /// cleared the precision lower confidence bound and the conservative
    /// empty-set fallback was used.
    pub telemetry: QueryTelemetry,
}

/// Configuration for a SUPG *precision*-target query.
#[derive(Debug, Clone)]
pub struct SupgPrecisionConfig {
    /// Precision target (e.g. 0.9): at least this fraction of the returned
    /// set matches the predicate, with probability `confidence`.
    pub precision_target: f64,
    /// Success probability.
    pub confidence: f64,
    /// Hard oracle budget.
    pub budget: usize,
    /// Uniform mixing fraction in the importance distribution.
    pub uniform_mix: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SupgPrecisionConfig {
    fn default() -> Self {
        Self {
            precision_target: 0.9,
            confidence: 0.95,
            budget: 500,
            uniform_mix: 0.1,
            seed: 1,
        }
    }
}

/// Runs the SUPG precision-target selection algorithm (the other guarantee
/// Kang et al. 2020 supports; the paper's Figure 5 evaluates the recall
/// variant).
///
/// Picks the *smallest* proxy threshold whose importance-weighted precision
/// estimate still clears the target at the configured confidence — smaller
/// thresholds mean larger returned sets, i.e. more recall at fixed
/// precision. Sampled true negatives above the threshold are excluded from
/// the returned set (their labels are already paid for).
pub fn supg_precision_target(
    proxy: &[f64],
    oracle: &mut dyn FnMut(usize) -> bool,
    config: &SupgPrecisionConfig,
) -> SupgPrecisionResult {
    supg_precision_target_batch(
        proxy,
        &mut |recs| recs.iter().map(|&r| oracle(r)).collect(),
        config,
    )
}

/// Batched SUPG precision-target selection — the precision-side analogue of
/// [`supg_recall_target_batch`]: draws are made up front and the distinct
/// sampled records are labeled in one `batch_oracle` call, meter-identical
/// to the sequential [`supg_precision_target`] loop.
pub fn supg_precision_target_batch(
    proxy: &[f64],
    batch_oracle: &mut dyn FnMut(&[usize]) -> Vec<bool>,
    config: &SupgPrecisionConfig,
) -> SupgPrecisionResult {
    let sw = Stopwatch::start();
    let mut telemetry = QueryTelemetry::new("supg_precision_target");
    let n = proxy.len();
    assert!(n > 0, "cannot select over an empty dataset");
    assert!(
        config.precision_target > 0.0 && config.precision_target < 1.0,
        "precision target must be in (0, 1)"
    );
    // Same degenerate-input policy and √p sampler as the recall variant
    // (see [`SupgConfig`]): biased toward *high*-proxy records, where the
    // precision boundary lives.
    let sample = sample_and_label(
        proxy,
        f64::sqrt,
        config.uniform_mix,
        config.budget,
        config.seed,
        batch_oracle,
    );
    telemetry.sanitized_inputs = sample.sanitized_inputs;
    let norm: &[f64] = &sample.scale.norm;
    let draws = &sample.draws;
    let m = draws.len();
    let oracle_calls = sample.oracle_calls;

    // Candidate thresholds: distinct sampled proxy values, ascending —
    // precision(τ) is non-decreasing in τ for well-ordered proxies, and we
    // want the smallest certifiable τ.
    let mut thresholds: Vec<f64> = draws.iter().map(|d| norm[d.0]).collect();
    thresholds.sort_by(|a, b| a.total_cmp(b)); // total order: NaN-proof
    thresholds.dedup();

    let z = normal_inverse_cdf(config.confidence);
    let mut chosen_tau = 1.0f64 + 1e-9; // default: empty set (vacuous precision)
    let mut certified = false;
    for &tau in &thresholds {
        // Precision ratio estimator over records at/above τ (no bound
        // when no sampled mass lies there).
        let lcb = ratio_lcb(
            draws.iter().map(|&(rec, w, pos)| {
                let above = norm[rec] >= tau;
                let b = if above { w } else { 0.0 };
                let a = if above && pos { w } else { 0.0 };
                (a, b)
            }),
            m,
            z,
        );
        if lcb.is_some_and(|lcb| lcb >= config.precision_target) {
            chosen_tau = tau;
            certified = true;
            break; // ascending: first certifiable τ is the smallest
        }
    }

    // Returned set: records above τ, minus sampled known negatives, plus
    // sampled positives (their labels are free at this point).
    let known_neg: HashSet<usize> = draws.iter().filter(|d| !d.2).map(|d| d.0).collect();
    let known_pos: HashSet<usize> = draws.iter().filter(|d| d.2).map(|d| d.0).collect();
    let mut returned: Vec<usize> = (0..n)
        .filter(|&i| (norm[i] >= chosen_tau && !known_neg.contains(&i)) || known_pos.contains(&i))
        .collect();
    returned.sort_unstable();
    returned.dedup();

    // Estimated precision at the chosen threshold (for diagnostics).
    let est_precision = {
        let mut a = 0.0;
        let mut b = 0.0;
        for &(rec, w, pos) in draws {
            if norm[rec] >= chosen_tau {
                b += w;
                if pos {
                    a += w;
                }
            }
        }
        if b > 0.0 {
            a / b
        } else {
            // No sampled mass at/above τ (the empty-set fallback): there is
            // no precision to estimate. NaN, not a fabricated 1.0.
            f64::NAN
        }
    };

    telemetry.invocations = oracle_calls;
    telemetry.certified = certified;
    telemetry.wall_seconds = sw.elapsed_seconds();
    SupgPrecisionResult {
        returned,
        threshold: sample.scale.denormalize(chosen_tau),
        oracle_calls,
        estimated_precision: est_precision,
        telemetry,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// Population where proxy ranks positives with the given AUC-ish quality.
    fn population(n: usize, pos_rate: f64, quality: f64, seed: u64) -> (Vec<bool>, Vec<f64>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut truth = Vec::with_capacity(n);
        let mut proxy = Vec::with_capacity(n);
        for _ in 0..n {
            let pos = rng.gen::<f64>() < pos_rate;
            let signal = if pos { 1.0 } else { 0.0 };
            let p = quality * signal + (1.0 - quality) * rng.gen::<f64>();
            truth.push(pos);
            proxy.push(p);
        }
        (truth, proxy)
    }

    fn recall_of(returned: &[usize], truth: &[bool]) -> f64 {
        let pos = truth.iter().filter(|&&t| t).count();
        if pos == 0 {
            return 1.0;
        }
        let hit = returned.iter().filter(|&&i| truth[i]).count();
        hit as f64 / pos as f64
    }

    fn fpr_of(returned: &[usize], truth: &[bool]) -> f64 {
        let neg = truth.iter().filter(|&&t| !t).count();
        if neg == 0 {
            return 0.0;
        }
        let fp = returned.iter().filter(|&&i| !truth[i]).count();
        fp as f64 / neg as f64
    }

    #[test]
    fn recall_target_is_met_with_high_probability() {
        let (truth, proxy) = population(20_000, 0.05, 0.9, 3);
        let mut hits = 0;
        for seed in 0..20 {
            let cfg = SupgConfig {
                budget: 800,
                seed,
                ..Default::default()
            };
            let mut t = truth.clone();
            let res = supg_recall_target(&proxy, &mut |r| t[r], &cfg);
            // keep borrowck happy: truth untouched
            t[0] = truth[0];
            if recall_of(&res.returned, &truth) >= cfg.recall_target {
                hits += 1;
            }
        }
        assert!(hits >= 17, "recall target met only {hits}/20 times");
    }

    #[test]
    fn better_proxy_gives_lower_fpr() {
        let (truth, good) = population(20_000, 0.05, 0.95, 5);
        let (_, bad) = population(20_000, 0.05, 0.3, 5);
        let cfg = SupgConfig {
            budget: 800,
            seed: 2,
            ..Default::default()
        };
        let res_good = supg_recall_target(&good, &mut |r| truth[r], &cfg);
        let res_bad = supg_recall_target(&bad, &mut |r| truth[r], &cfg);
        let fpr_good = fpr_of(&res_good.returned, &truth);
        let fpr_bad = fpr_of(&res_bad.returned, &truth);
        assert!(
            fpr_good < fpr_bad * 0.5,
            "good proxy FPR {fpr_good} should beat bad proxy FPR {fpr_bad}"
        );
    }

    #[test]
    fn budget_is_respected() {
        let (truth, proxy) = population(10_000, 0.1, 0.8, 7);
        let cfg = SupgConfig {
            budget: 300,
            seed: 4,
            ..Default::default()
        };
        let mut calls = 0u64;
        let res = supg_recall_target(
            &proxy,
            &mut |r| {
                calls += 1;
                truth[r]
            },
            &cfg,
        );
        assert!(calls <= 300, "oracle called {calls} > budget");
        assert_eq!(res.oracle_calls, calls);
    }

    #[test]
    fn sampled_positives_are_always_returned() {
        let (truth, proxy) = population(5_000, 0.05, 0.7, 9);
        let cfg = SupgConfig {
            budget: 400,
            seed: 6,
            ..Default::default()
        };
        let mut sampled_pos: Vec<usize> = Vec::new();
        let res = supg_recall_target(
            &proxy,
            &mut |r| {
                if truth[r] {
                    sampled_pos.push(r);
                }
                truth[r]
            },
            &cfg,
        );
        let set: HashSet<usize> = res.returned.iter().copied().collect();
        for p in sampled_pos {
            assert!(
                set.contains(&p),
                "sampled positive {p} missing from returned set"
            );
        }
    }

    #[test]
    fn no_positives_returns_everything_conservatively() {
        let truth = vec![false; 1000];
        let proxy: Vec<f64> = (0..1000).map(|i| (i % 7) as f64).collect();
        let cfg = SupgConfig {
            budget: 100,
            seed: 8,
            ..Default::default()
        };
        let res = supg_recall_target(&proxy, &mut |r| truth[r], &cfg);
        // With zero sampled positive mass no threshold is certifiable; the
        // conservative answer (τ = 0 on normalized scores) returns all.
        assert_eq!(res.returned.len(), 1000);
        // Vacuous recall is fine: there is nothing to recall.
        assert_eq!(recall_of(&res.returned, &truth), 1.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let (truth, proxy) = population(8_000, 0.08, 0.8, 11);
        let cfg = SupgConfig {
            budget: 500,
            seed: 13,
            ..Default::default()
        };
        let a = supg_recall_target(&proxy, &mut |r| truth[r], &cfg);
        let b = supg_recall_target(&proxy, &mut |r| truth[r], &cfg);
        assert_eq!(a.returned, b.returned);
        assert_eq!(a.threshold, b.threshold);
    }

    fn precision_of(returned: &[usize], truth: &[bool]) -> f64 {
        if returned.is_empty() {
            return 1.0;
        }
        let tp = returned.iter().filter(|&&i| truth[i]).count();
        tp as f64 / returned.len() as f64
    }

    #[test]
    fn precision_target_is_met_with_high_probability() {
        let (truth, proxy) = population(20_000, 0.1, 0.9, 21);
        let mut hits = 0;
        for seed in 0..20 {
            let cfg = SupgPrecisionConfig {
                budget: 800,
                seed,
                ..Default::default()
            };
            let res = supg_precision_target(&proxy, &mut |r| truth[r], &cfg);
            if precision_of(&res.returned, &truth) >= cfg.precision_target {
                hits += 1;
            }
        }
        assert!(hits >= 17, "precision target met only {hits}/20 times");
    }

    #[test]
    fn precision_variant_returns_nonempty_set_for_good_proxies() {
        let (truth, proxy) = population(20_000, 0.1, 0.95, 23);
        let cfg = SupgPrecisionConfig {
            budget: 800,
            seed: 3,
            ..Default::default()
        };
        let res = supg_precision_target(&proxy, &mut |r| truth[r], &cfg);
        assert!(
            res.returned.len() > 100,
            "good proxies should certify a broad set"
        );
        // Recall should be substantial too (smallest certifiable τ).
        let total_pos = truth.iter().filter(|&&t| t).count();
        let tp = res.returned.iter().filter(|&&i| truth[i]).count();
        assert!(
            tp as f64 / total_pos as f64 > 0.5,
            "precision-target set should capture most positives"
        );
    }

    #[test]
    fn precision_variant_hopeless_proxy_returns_conservative_set() {
        // All-negative population: no threshold is certifiable; the returned
        // set must stay (near-)empty rather than blow the precision target.
        let truth = vec![false; 5_000];
        let proxy: Vec<f64> = (0..5_000).map(|i| (i % 11) as f64).collect();
        let cfg = SupgPrecisionConfig {
            budget: 300,
            seed: 5,
            ..Default::default()
        };
        let res = supg_precision_target(&proxy, &mut |r| truth[r], &cfg);
        assert!(
            res.returned.is_empty(),
            "nothing is certifiable: {}",
            res.returned.len()
        );
    }

    #[test]
    fn precision_variant_respects_budget_and_determinism() {
        let (truth, proxy) = population(8_000, 0.1, 0.8, 25);
        let cfg = SupgPrecisionConfig {
            budget: 200,
            seed: 7,
            ..Default::default()
        };
        let mut calls = 0u64;
        let a = supg_precision_target(
            &proxy,
            &mut |r| {
                calls += 1;
                truth[r]
            },
            &cfg,
        );
        assert!(calls <= 200);
        let b = supg_precision_target(&proxy, &mut |r| truth[r], &cfg);
        assert_eq!(a.returned, b.returned);
    }

    #[test]
    fn constant_proxy_still_meets_recall() {
        let (truth, _) = population(5_000, 0.1, 0.9, 15);
        let proxy = vec![0.5; 5_000];
        let cfg = SupgConfig {
            budget: 500,
            seed: 17,
            ..Default::default()
        };
        let res = supg_recall_target(&proxy, &mut |r| truth[r], &cfg);
        assert!(recall_of(&res.returned, &truth) >= 0.9);
    }

    #[test]
    fn nan_proxies_are_sanitized_not_fatal() {
        // Regression: partial_cmp().unwrap() on the threshold sort used to
        // panic on the first NaN proxy score.
        let (truth, mut proxy) = population(5_000, 0.1, 0.9, 31);
        proxy[7] = f64::NAN;
        proxy[19] = f64::INFINITY;
        proxy[23] = f64::NEG_INFINITY;
        let cfg = SupgConfig {
            budget: 400,
            seed: 19,
            ..Default::default()
        };
        let res = supg_recall_target(&proxy, &mut |r| truth[r], &cfg);
        assert_eq!(res.telemetry.sanitized_inputs, 3);
        assert!(res.threshold.is_finite());
        assert!(recall_of(&res.returned, &truth) >= 0.9);

        let pcfg = SupgPrecisionConfig {
            budget: 400,
            seed: 19,
            ..Default::default()
        };
        let pres = supg_precision_target(&proxy, &mut |r| truth[r], &pcfg);
        assert_eq!(pres.telemetry.sanitized_inputs, 3);
        assert!(pres.threshold.is_finite());
    }

    #[test]
    fn uncertifiable_recall_query_is_flagged_not_inflated() {
        // All-negative population: no positive mass, no certifiable τ. The
        // old code reported estimated_recall = 1.0 here; now the fallback is
        // explicit: certified = false and the estimate is NaN.
        let truth = vec![false; 1000];
        let proxy: Vec<f64> = (0..1000).map(|i| (i % 7) as f64).collect();
        let cfg = SupgConfig {
            budget: 100,
            seed: 8,
            ..Default::default()
        };
        let res = supg_recall_target(&proxy, &mut |r| truth[r], &cfg);
        assert!(!res.telemetry.certified);
        assert!(res.estimated_recall.is_nan());
    }

    #[test]
    fn uncertifiable_precision_query_is_flagged_not_inflated() {
        let truth = vec![false; 5_000];
        let proxy: Vec<f64> = (0..5_000).map(|i| (i % 11) as f64).collect();
        let cfg = SupgPrecisionConfig {
            budget: 300,
            seed: 5,
            ..Default::default()
        };
        let res = supg_precision_target(&proxy, &mut |r| truth[r], &cfg);
        assert!(!res.telemetry.certified);
        assert!(res.estimated_precision.is_nan());
        assert!(res.returned.is_empty());
    }

    #[test]
    fn certified_queries_report_certified_true_and_oracle_calls_match() {
        let (truth, proxy) = population(20_000, 0.1, 0.95, 41);
        let cfg = SupgConfig {
            budget: 800,
            seed: 23,
            ..Default::default()
        };
        let mut distinct = HashSet::new();
        let res = supg_recall_target(
            &proxy,
            &mut |r| {
                distinct.insert(r);
                truth[r]
            },
            &cfg,
        );
        assert!(res.telemetry.certified);
        assert_eq!(res.telemetry.invocations, distinct.len() as u64);
        assert_eq!(res.oracle_calls, res.telemetry.invocations);
        assert_eq!(res.telemetry.sanitized_inputs, 0);
        assert!((0.0..=1.0 + 1e-9).contains(&res.estimated_recall));
    }
}
