//! Recall-audit property tests for the IVF candidate stage.
//!
//! The contract under test (see `ann`'s module docs):
//!
//! 1. `AssignStrategy::Exact` — and IVF whose probe budget covers every
//!    cell — is **bit-identical** to `MinKTable::build_parallel`.
//! 2. Any IVF run either meets its configured recall target on the audited
//!    sample or falls back to the exact table (`exact_fallback` set), so
//!    the delivered table never silently violates the bound.
//! 3. Every distance an IVF table reports is the *exact* metric distance,
//!    so downstream score propagation sees the same numerics as an exact
//!    build.
//!
//! Embeddings cover both clustered (IVF-friendly) and uniform
//! (IVF-adversarial) shapes; `quick-proptest` lowers case counts for the
//! ci.sh `ann-audit` gate.

use proptest::prelude::*;
use tasti_cluster::{AssignStrategy, IvfParams, Metric, MinKTable};

#[cfg(feature = "quick-proptest")]
const CASES: u32 = 12;
#[cfg(not(feature = "quick-proptest"))]
const CASES: u32 = 48;

/// Deterministic embedding generator (SplitMix64): `clustered` draws
/// points around a handful of well-separated centers, uniform spreads
/// them over a box.
fn gen_points(seed: u64, n: usize, dim: usize, clustered: bool) -> Vec<f32> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = move || {
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    };
    let mut unit = move || (next() >> 40) as f32 / (1u64 << 24) as f32;
    let n_clusters = 6;
    let centers: Vec<f32> = (0..n_clusters * dim)
        .map(|_| (unit() - 0.5) * 40.0)
        .collect();
    let mut out = Vec::with_capacity(n * dim);
    for i in 0..n {
        if clustered {
            let c = i % n_clusters;
            for d in 0..dim {
                out.push(centers[c * dim + d] + (unit() - 0.5) * 2.0);
            }
        } else {
            for _ in 0..dim {
                out.push((unit() - 0.5) * 40.0);
            }
        }
    }
    out
}

fn arb_metric() -> impl Strategy<Value = Metric> {
    // The audit targets the paper-relevant metrics: L2 (default) and
    // Cosine get most of the weight; L1/SquaredL2 keep the kernels honest.
    prop_oneof![
        3 => Just(Metric::L2),
        3 => Just(Metric::Cosine),
        1 => Just(Metric::L1),
        1 => Just(Metric::SquaredL2),
    ]
}

/// Tie-tolerant recall@k of `approx` against the exact table: an approx
/// neighbor counts when its distance is ≤ the record's true k-th distance.
fn recall_vs_exact(approx: &MinKTable, exact: &MinKTable) -> f64 {
    assert_eq!(approx.n_records(), exact.n_records());
    let n = exact.n_records();
    if n == 0 {
        return 1.0;
    }
    let mut hits = 0usize;
    let mut total = 0usize;
    for i in 0..n {
        let truth = exact.neighbors(i);
        let kth = truth.last().map(|nb| nb.dist).unwrap_or(0.0);
        for nb in approx.neighbors(i) {
            total += 1;
            if nb.dist <= kth {
                hits += 1;
            }
        }
    }
    hits as f64 / total.max(1) as f64
}

fn assert_bit_identical(a: &MinKTable, b: &MinKTable) {
    assert_eq!(a.n_records(), b.n_records());
    for i in 0..a.n_records() {
        let (na, nb) = (a.neighbors(i), b.neighbors(i));
        assert_eq!(na.len(), nb.len(), "record {i}: neighbor count");
        for (x, y) in na.iter().zip(nb) {
            assert_eq!(x.rep, y.rep, "record {i}: rep diverged");
            assert_eq!(
                x.dist.to_bits(),
                y.dist.to_bits(),
                "record {i}: distance bits diverged"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn exact_strategy_is_bit_identical_to_build_parallel(
        seed in 0u64..1_000_000,
        dim in 2usize..=12,
        n in 40usize..=240,
        reps in 8usize..=48,
        clustered in prop_oneof![Just(true), Just(false)],
        metric in arb_metric(),
        threads in prop_oneof![Just(1usize), Just(3), Just(0)],
    ) {
        let records = gen_points(seed, n, dim, clustered);
        let rep_rows = gen_points(seed ^ 0xABCD, reps, dim, clustered);
        let k = 5usize.min(reps);
        let baseline = MinKTable::build_parallel(&records, &rep_rows, dim, k, metric, threads);
        let (exact, stats) = MinKTable::build_with_strategy(
            &records, &rep_rows, dim, k, metric, threads, &AssignStrategy::Exact);
        prop_assert_eq!(stats.strategy, "exact");
        assert_bit_identical(&exact, &baseline);
    }

    #[test]
    fn full_probe_ivf_is_bit_identical_to_build_parallel(
        seed in 0u64..1_000_000,
        dim in 2usize..=12,
        n in 40usize..=240,
        reps in 8usize..=48,
        clustered in prop_oneof![Just(true), Just(false)],
        metric in arb_metric(),
    ) {
        let records = gen_points(seed, n, dim, clustered);
        let rep_rows = gen_points(seed ^ 0xABCD, reps, dim, clustered);
        let k = 5usize.min(reps);
        let baseline = MinKTable::build_parallel(&records, &rep_rows, dim, k, metric, 1);
        let params = IvfParams { nprobe: usize::MAX, ..IvfParams::default() };
        let (full, stats) = MinKTable::build_with_strategy(
            &records, &rep_rows, dim, k, metric, 1, &AssignStrategy::Ivf(params));
        prop_assert_eq!(stats.strategy, "ivf-full-probe");
        assert_bit_identical(&full, &baseline);
    }

    #[test]
    fn ivf_meets_recall_bound_or_falls_back(
        seed in 0u64..1_000_000,
        dim in 2usize..=16,
        n in 60usize..=320,
        reps in 12usize..=64,
        clustered in prop_oneof![Just(true), Just(false)],
        metric in arb_metric(),
        nprobe in 1usize..=3,
    ) {
        let records = gen_points(seed, n, dim, clustered);
        let rep_rows = gen_points(seed ^ 0xABCD, reps, dim, clustered);
        let k = 4usize.min(reps);
        let params = IvfParams {
            nprobe,
            min_pool: k,
            audit_sample: n, // audit the whole corpus: the bound is then global
            ..IvfParams::default()
        };
        let exact = MinKTable::build_parallel(&records, &rep_rows, dim, k, metric, 1);
        let (approx, stats) = MinKTable::build_with_strategy(
            &records, &rep_rows, dim, k, metric, 1, &AssignStrategy::Ivf(params));

        if stats.exact_fallback {
            // The audit rejected the candidate stage: the delivered table
            // must be the exact one, and the failing recall must be on
            // record in the stats.
            prop_assert_eq!(stats.strategy, "ivf-exact-fallback");
            assert_bit_identical(&approx, &exact);
            prop_assert!(
                (stats.audited_recall as f32) < params.recall_target,
                "fallback without a failing audit: {}", stats.audited_recall
            );
        } else if stats.strategy == "ivf" {
            let recall = recall_vs_exact(&approx, &exact);
            prop_assert!(
                recall as f32 >= params.recall_target,
                "delivered recall {} below target {} without fallback",
                recall, params.recall_target
            );
            prop_assert!(stats.audited_records > 0, "ivf run must be audited");
            // Pool accounting is live and within bounds.
            prop_assert!(stats.candidate_min >= k.min(reps));
            prop_assert!(stats.candidate_max <= reps);
            prop_assert!(stats.candidate_total >= (n as u64) * (k.min(reps) as u64));
        }

        // Whatever path ran: reported distances are exact (bitwise equal to
        // the scalar metric).
        for i in 0..approx.n_records() {
            let rec = &records[i * dim..(i + 1) * dim];
            for nb in approx.neighbors(i) {
                let j = nb.rep as usize;
                let d = metric.distance(rec, &rep_rows[j * dim..(j + 1) * dim]);
                prop_assert_eq!(
                    nb.dist.to_bits(), d.to_bits(),
                    "record {}: refined distance must be exact", i
                );
            }
        }
    }

    #[test]
    fn widening_keeps_pools_at_or_above_min_pool(
        seed in 0u64..1_000_000,
        dim in 2usize..=8,
        n in 60usize..=200,
        reps in 16usize..=48,
        metric in arb_metric(),
        min_pool in 6usize..=24,
    ) {
        let records = gen_points(seed, n, dim, false);
        let rep_rows = gen_points(seed ^ 0xABCD, reps, dim, true);
        let k = 3usize;
        let params = IvfParams {
            nprobe: 1,
            min_pool,
            recall_target: 0.0, // isolate the min-pool safeguard from the audit
            ..IvfParams::default()
        };
        let (_, stats) = MinKTable::build_with_strategy(
            &records, &rep_rows, dim, k, metric, 1, &AssignStrategy::Ivf(params));
        if stats.strategy == "ivf" {
            prop_assert!(
                stats.candidate_min >= min_pool.min(reps),
                "pool {} below floor {}", stats.candidate_min, min_pool.min(reps)
            );
        }
    }
}
