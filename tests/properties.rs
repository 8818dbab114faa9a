//! Cross-crate property-based tests (proptest) of the core invariants.

use proptest::prelude::*;
use tasti::cluster::{fpf, Metric, MinKTable};
use tasti::index::propagate::{limit_ranking, propagate_numeric};
use tasti::query::{
    ebs_aggregate, supg_recall_target, AggregationConfig, StoppingRule, SupgConfig,
};

fn arb_points(max_n: usize, dim: usize) -> impl Strategy<Value = Vec<f32>> {
    prop::collection::vec(-10.0f32..10.0, (dim * 4)..(dim * max_n)).prop_map(move |mut v| {
        v.truncate(v.len() / dim * dim);
        v
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// FPF cover radius is monotone non-increasing in the selection count
    /// and zero when everything is selected.
    #[test]
    fn fpf_cover_radius_monotone(data in arb_points(40, 3), first in 0usize..4) {
        let n = data.len() / 3;
        prop_assume!(n >= 4);
        let first = first % n;
        let mut prev = f32::INFINITY;
        for count in [1usize, 2, n / 2, n] {
            let r = fpf(&data, 3, count, Metric::L2, first);
            prop_assert!(r.cover_radius <= prev + 1e-6);
            prev = r.cover_radius;
        }
        let full = fpf(&data, 3, n, Metric::L2, first);
        prop_assert_eq!(full.cover_radius, 0.0);
    }

    /// Propagated numeric scores are convex combinations of representative
    /// scores: they never leave the [min, max] representative-score range.
    #[test]
    fn propagation_stays_in_rep_score_hull(
        data in arb_points(30, 2),
        scores in prop::collection::vec(-100.0f64..100.0, 3..30),
        k in 1usize..6,
    ) {
        let n = data.len() / 2;
        prop_assume!(n >= scores.len());
        let n_reps = scores.len();
        let sel = fpf(&data, 2, n_reps, Metric::L2, 0);
        let rep_emb: Vec<f32> = sel
            .selected
            .iter()
            .flat_map(|&r| data[r * 2..r * 2 + 2].to_vec())
            .collect();
        let mink = MinKTable::build(&data, &rep_emb, 2, k, Metric::L2);
        let rep_scores = &scores[..sel.selected.len()];
        let propagated = propagate_numeric(&mink, rep_scores, k);
        let lo = rep_scores.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = rep_scores.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for (i, &p) in propagated.iter().enumerate() {
            prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9, "record {} score {} outside [{}, {}]", i, p, lo, hi);
        }
        // Representatives receive their exact score.
        for (idx, &rec) in sel.selected.iter().enumerate() {
            prop_assert!((propagated[rec] - rep_scores[idx]).abs() < 1e-9);
        }
    }

    /// Limit ranking is a permutation of all records, sorted by descending
    /// nearest-representative score.
    #[test]
    fn limit_ranking_is_a_sorted_permutation(
        data in arb_points(25, 2),
        scores in prop::collection::vec(0.0f64..10.0, 2..20),
    ) {
        let n = data.len() / 2;
        prop_assume!(n >= scores.len());
        let sel = fpf(&data, 2, scores.len(), Metric::L2, 0);
        let rep_emb: Vec<f32> = sel
            .selected
            .iter()
            .flat_map(|&r| data[r * 2..r * 2 + 2].to_vec())
            .collect();
        let mink = MinKTable::build(&data, &rep_emb, 2, 1, Metric::L2);
        let rep_scores = &scores[..sel.selected.len()];
        let order = limit_ranking(&mink, rep_scores);
        // Permutation.
        let mut seen = vec![false; n];
        for &i in &order {
            prop_assert!(!seen[i]);
            seen[i] = true;
        }
        prop_assert!(seen.iter().all(|&s| s));
        // Non-increasing k=1 scores along the ranking.
        let k1: Vec<f64> = (0..n).map(|i| rep_scores[mink.nearest(i).rep as usize]).collect();
        for w in order.windows(2) {
            prop_assert!(k1[w[0]] >= k1[w[1]] - 1e-12);
        }
    }

    /// EBS aggregation is always within the error target OR has exhausted
    /// the dataset (in which case it is exact), for bounded populations.
    #[test]
    fn aggregation_exhaustion_is_exact(
        values in prop::collection::vec(0.0f64..5.0, 20..200),
        seed in 0u64..20,
    ) {
        let proxy = vec![0.0f64; values.len()];
        let cfg = AggregationConfig {
            error_target: 1e-9, // unreachable → must exhaust
            stopping: StoppingRule::EmpiricalBernstein,
            seed,
            ..Default::default()
        };
        let res = ebs_aggregate(&proxy, &mut |r| values[r], &cfg);
        prop_assert!(res.exhausted);
        let mu = values.iter().sum::<f64>() / values.len() as f64;
        prop_assert!((res.estimate - mu).abs() < 1e-9);
    }

    /// SUPG never exceeds its budget and always returns the sampled
    /// positives, for arbitrary populations and proxies.
    #[test]
    fn supg_budget_and_positive_inclusion(
        truth in prop::collection::vec(any::<bool>(), 50..400),
        seed in 0u64..20,
        budget in 10usize..120,
    ) {
        let n = truth.len();
        let proxy: Vec<f64> = (0..n).map(|i| (i % 13) as f64 / 13.0).collect();
        let mut calls = 0usize;
        let mut sampled_pos = Vec::new();
        let res = supg_recall_target(
            &proxy,
            &mut |r| {
                calls += 1;
                if truth[r] {
                    sampled_pos.push(r);
                }
                truth[r]
            },
            &SupgConfig { budget, seed, ..Default::default() },
        );
        prop_assert!(calls <= budget);
        prop_assert_eq!(res.oracle_calls as usize, calls);
        let set: std::collections::HashSet<usize> = res.returned.iter().copied().collect();
        for p in sampled_pos {
            prop_assert!(set.contains(&p));
        }
    }
}
