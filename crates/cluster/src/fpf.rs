//! Furthest-point-first (FPF) selection — Gonzalez (1985).
//!
//! FPF iteratively selects the point furthest from the already-selected set.
//! It is a 2-approximation to the optimal maximum intra-cluster distance,
//! the guarantee TASTI's theoretical analysis leans on (§3, §5). The paper
//! uses FPF twice: to mine diverse *training* records for the triplet loss
//! (§3.1) and to pick *cluster representatives* (§3.2). §3.2 also mixes in a
//! small fraction of uniformly random representatives to help average-case
//! queries; [`SelectionStrategy::FpfWithRandomMix`] implements that.
//!
//! The inner loop — the newest representative against every record, per
//! round — is one [`crate::kernels::FpfScan`] per selection: under L2/L1 it
//! evaluates only the (record, representative) pairs the triangle
//! inequality cannot rule out, filters those by the decomposed-dot
//! estimate, and splits the rows across a worker team spawned once per
//! selection. Results (selected indices, `min_dist`, cover radius) are
//! bit-identical to the naive scalar scan.

use crate::distance::Metric;
use crate::kernels::FpfScan;
use rand::seq::SliceRandom;
use rand::Rng;
use serde::{Deserialize, Serialize};

/// How to select a subset of records (training points or representatives).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SelectionStrategy {
    /// Pure furthest-point-first (diversity-maximizing).
    Fpf,
    /// Uniform random sampling (the ablation baseline in Figures 9–10).
    Random,
    /// FPF for `1 − random_fraction` of the budget, uniform random for the
    /// rest (paper §3.2: "we mix a small fraction of random clusters").
    FpfWithRandomMix {
        /// Fraction of the budget drawn uniformly at random, in `[0, 1]`.
        random_fraction: f32,
    },
}

/// Result of a selection run.
#[derive(Debug, Clone)]
pub struct FpfResult {
    /// Indices of the selected records, in selection order.
    pub selected: Vec<usize>,
    /// For every record, distance to its nearest selected record.
    pub min_dist: Vec<f32>,
    /// `max(min_dist)` — the cover radius achieved by the selection.
    pub cover_radius: f32,
    /// (record, selected) pairs whose distance the scan had to look at.
    pub pairs_evaluated: u64,
    /// Pairs the triangle inequality ruled out unseen (L2/L1 only);
    /// `pairs_evaluated + pairs_skipped == n_records · selected.len()`.
    pub pairs_skipped: u64,
}

impl FpfResult {
    fn from_scan(scan: FpfScan<'_>) -> Self {
        let (pairs_evaluated, pairs_skipped) = scan.pair_counts();
        let (selected, min_dist) = scan.into_parts();
        let cover_radius = min_dist.iter().copied().fold(0.0f32, f32::max);
        FpfResult {
            selected,
            min_dist,
            cover_radius,
            pairs_evaluated,
            pairs_skipped,
        }
    }
}

/// Runs furthest-point-first on `n_records` embeddings (`dim` columns,
/// row-major in `data`), selecting `count` records starting from record
/// `first`.
///
/// ```
/// use tasti_cluster::{fpf, Metric};
/// // Points on a line: FPF picks the extremes first, then the midpoint.
/// let data: Vec<f32> = (0..11).map(|i| i as f32).collect();
/// let r = fpf(&data, 1, 3, Metric::L2, 0);
/// assert_eq!(r.selected, vec![0, 10, 5]);
/// assert!(r.cover_radius <= 2.5);
/// ```
///
/// Runs in `O(pairs_evaluated · dim)` time — at most
/// `n_records · count · dim` — and `O(n_records)` extra space: after each
/// selection only the per-record nearest-selected distance is updated,
/// which is the standard incremental formulation. The selected records are
/// distinct: once every unselected record sits at distance 0 the lowest
/// unselected one is taken. See [`fpf_threaded`] to control the worker
/// count.
pub fn fpf(data: &[f32], dim: usize, count: usize, metric: Metric, first: usize) -> FpfResult {
    fpf_threaded(data, dim, count, metric, first, 0)
}

/// [`fpf`] with an explicit thread count (`0` = available parallelism).
/// The result is identical at any thread count.
pub fn fpf_threaded(
    data: &[f32],
    dim: usize,
    count: usize,
    metric: Metric,
    first: usize,
    threads: usize,
) -> FpfResult {
    let n = data.len() / dim;
    assert_eq!(data.len(), n * dim, "data length not a multiple of dim");
    assert!(first < n, "first index out of range");
    let mut scan = FpfScan::new(metric, data, dim, threads);
    scan.grow(first, count.min(n));
    FpfResult::from_scan(scan)
}

/// Uniform random selection of `count` distinct records, with the per-record
/// nearest-selected distances computed for parity with [`fpf`].
pub fn random_selection(
    data: &[f32],
    dim: usize,
    count: usize,
    metric: Metric,
    rng: &mut impl Rng,
) -> FpfResult {
    let n = data.len() / dim;
    assert_eq!(data.len(), n * dim);
    let count = count.min(n);
    let mut indices: Vec<usize> = (0..n).collect();
    indices.shuffle(rng);
    indices.truncate(count);
    let mut scan = FpfScan::new(metric, data, dim, 0);
    scan.push_all(&indices);
    FpfResult::from_scan(scan)
}

/// Dispatches on [`SelectionStrategy`]. The `first` record seeds FPF runs;
/// random draws come from `rng`.
pub fn select(
    data: &[f32],
    dim: usize,
    count: usize,
    metric: Metric,
    strategy: SelectionStrategy,
    first: usize,
    rng: &mut impl Rng,
) -> FpfResult {
    select_threaded(data, dim, count, metric, strategy, first, rng, 0)
}

/// [`select`] with an explicit thread count (`0` = available parallelism).
/// Selections are identical at any thread count.
// Justified: mirrors `select`'s full parameter list plus the thread count;
// the two must stay signature-compatible and a config struct would be
// built and unpacked at exactly one call site.
#[allow(clippy::too_many_arguments)]
pub fn select_threaded(
    data: &[f32],
    dim: usize,
    count: usize,
    metric: Metric,
    strategy: SelectionStrategy,
    first: usize,
    rng: &mut impl Rng,
    threads: usize,
) -> FpfResult {
    match strategy {
        SelectionStrategy::Fpf => fpf_threaded(data, dim, count, metric, first, threads),
        SelectionStrategy::Random => random_selection(data, dim, count, metric, rng),
        SelectionStrategy::FpfWithRandomMix { random_fraction } => {
            let n = data.len() / dim;
            let count = count.min(n);
            let n_random =
                ((count as f32 * random_fraction.clamp(0.0, 1.0)).round() as usize).min(count);
            let n_fpf = count - n_random;
            // The random picks are folded into the FPF prefix's scan: a
            // minimum over exact distances does not depend on the order.
            let mut scan = FpfScan::new(metric, data, dim, threads);
            scan.grow(first, n_fpf);
            let already: std::collections::HashSet<usize> =
                scan.centres().iter().copied().collect();
            let mut pool: Vec<usize> = (0..n).filter(|i| !already.contains(i)).collect();
            pool.shuffle(rng);
            pool.truncate(n_random);
            scan.push_all(&pool);
            FpfResult::from_scan(scan)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// A 1-D line of points 0..n.
    fn line(n: usize) -> Vec<f32> {
        (0..n).map(|i| i as f32).collect()
    }

    #[test]
    fn fpf_picks_extremes_on_a_line() {
        let data = line(11); // 0..10
        let r = fpf(&data, 1, 3, Metric::L2, 0);
        // Start 0, furthest is 10, then the midpoint 5.
        assert_eq!(r.selected, vec![0, 10, 5]);
        assert!((r.cover_radius - 2.0).abs() < 1e-6);
    }

    #[test]
    fn fpf_selecting_all_points_gives_zero_radius() {
        let data = line(6);
        let r = fpf(&data, 1, 6, Metric::L2, 2);
        assert_eq!(r.selected.len(), 6);
        assert_eq!(r.cover_radius, 0.0);
        let mut sorted = r.selected.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn fpf_cover_radius_is_monotone_in_count() {
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        let data: Vec<f32> = (0..200).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let mut prev = f32::INFINITY;
        for count in [1usize, 2, 4, 8, 16, 32] {
            let r = fpf(&data, 2, count, Metric::L2, 0);
            assert!(
                r.cover_radius <= prev + 1e-6,
                "radius grew at count {count}"
            );
            prev = r.cover_radius;
        }
    }

    #[test]
    fn fpf_two_approximation_on_small_instances() {
        // Brute-force the optimal k-center radius on a tiny instance and
        // check FPF ≤ 2·OPT (Gonzalez's guarantee).
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let n = 9;
        let data: Vec<f32> = (0..n * 2).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let k = 3;
        let fpf_r = fpf(&data, 2, k, Metric::L2, 0).cover_radius;
        // Enumerate all k-subsets.
        let mut best = f32::INFINITY;
        for a in 0..n {
            for b in (a + 1)..n {
                for c in (b + 1)..n {
                    let sel = [a, b, c];
                    let mut radius = 0.0f32;
                    for i in 0..n {
                        let p = &data[i * 2..i * 2 + 2];
                        let d = sel
                            .iter()
                            .map(|&s| Metric::L2.distance(p, &data[s * 2..s * 2 + 2]))
                            .fold(f32::INFINITY, f32::min);
                        radius = radius.max(d);
                    }
                    best = best.min(radius);
                }
            }
        }
        assert!(
            fpf_r <= 2.0 * best + 1e-5,
            "FPF {fpf_r} vs 2·OPT {}",
            2.0 * best
        );
    }

    #[test]
    fn fpf_never_reselects_when_the_rest_is_at_distance_zero() {
        // Two distinct values, four picks: after {0, 2} every unselected
        // row is a duplicate of a selected one, so the lowest unselected
        // rows follow instead of row 0 again.
        let r = fpf(&[0.0, 0.0, 1.0, 1.0, 1.0], 1, 4, Metric::L2, 0);
        assert_eq!(r.selected, vec![0, 2, 1, 3]);
        assert_eq!(r.cover_radius, 0.0);
    }

    #[test]
    fn fpf_never_reselects_an_unreachable_row() {
        // Row 1 is NaN: at distance ∞ from everything, itself included, so
        // it stays the argmax of `min_dist` after it has been selected.
        let r = fpf(&[0.0, f32::NAN, 1.0, 2.0], 1, 3, Metric::L2, 0);
        assert_eq!(r.selected, vec![0, 1, 3]);
    }

    #[test]
    fn every_strategy_selects_distinct_records_up_to_the_population() {
        // Three distinct embeddings, six records, budget above both.
        let data = [0.0f32, 0.0, 5.0, 5.0, 9.0, 9.0];
        for strategy in [
            SelectionStrategy::Fpf,
            SelectionStrategy::Random,
            SelectionStrategy::FpfWithRandomMix {
                random_fraction: 0.5,
            },
        ] {
            for count in [4usize, 6, 10] {
                let mut rng = ChaCha8Rng::seed_from_u64(13);
                let r = select(&data, 1, count, Metric::L2, strategy, 0, &mut rng);
                let mut sorted = r.selected.clone();
                sorted.sort_unstable();
                sorted.dedup();
                assert_eq!(sorted.len(), count.min(6), "{strategy:?} count {count}");
                assert_eq!(r.selected.len(), count.min(6), "{strategy:?} count {count}");
            }
        }
    }

    #[test]
    fn clustered_data_skips_most_pairs_and_cosine_skips_none() {
        // 40 tight blobs of 50 points, 40 picks: once each blob has a
        // centre, a new centre in one blob rules out every other blob.
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let mut data = Vec::new();
        for blob in 0..40 {
            for _ in 0..50 {
                data.push(10.0 * (blob % 8) as f32 + rng.gen_range(-0.1f32..0.1));
                data.push(10.0 * (blob / 8) as f32 + rng.gen_range(-0.1f32..0.1));
            }
        }
        let pairs = 2000 * 80;
        for metric in [Metric::L2, Metric::L1] {
            let r = fpf(&data, 2, 80, metric, 0);
            assert_eq!(r.pairs_evaluated + r.pairs_skipped, pairs);
            assert!(
                r.pairs_evaluated < pairs / 2,
                "{metric:?}: evaluated {} of {pairs}",
                r.pairs_evaluated
            );
        }
        for metric in [Metric::Cosine, Metric::SquaredL2] {
            let r = fpf(&data, 2, 80, metric, 0);
            assert_eq!((r.pairs_evaluated, r.pairs_skipped), (pairs, 0));
        }
    }

    #[test]
    fn random_selection_is_distinct_and_within_range() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let data = line(20);
        let r = random_selection(&data, 1, 8, Metric::L2, &mut rng);
        assert_eq!(r.selected.len(), 8);
        let mut sorted = r.selected.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 8, "duplicates in random selection");
        assert!(sorted.iter().all(|&i| i < 20));
    }

    #[test]
    fn mixed_strategy_honors_budget_and_contains_fpf_prefix() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let data = line(50);
        let r = select(
            &data,
            1,
            10,
            Metric::L2,
            SelectionStrategy::FpfWithRandomMix {
                random_fraction: 0.3,
            },
            0,
            &mut rng,
        );
        assert_eq!(r.selected.len(), 10);
        // First 7 must equal the pure-FPF prefix.
        let pure = fpf(&data, 1, 7, Metric::L2, 0);
        assert_eq!(&r.selected[..7], &pure.selected[..]);
        let mut sorted = r.selected.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 10);
    }

    #[test]
    fn count_larger_than_population_is_clamped() {
        let data = line(3);
        let r = fpf(&data, 1, 100, Metric::L2, 0);
        assert_eq!(r.selected.len(), 3);
    }

    #[test]
    fn min_dist_is_zero_exactly_on_selected() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let data: Vec<f32> = (0..60).map(|_| rng.gen_range(0.0f32..1.0)).collect();
        let r = fpf(&data, 3, 5, Metric::L2, 1);
        for &s in &r.selected {
            assert_eq!(r.min_dist[s], 0.0);
        }
    }

    #[test]
    fn thread_count_does_not_change_selection() {
        let mut rng = ChaCha8Rng::seed_from_u64(21);
        let data: Vec<f32> = (0..300 * 4).map(|_| rng.gen_range(-2.0f32..2.0)).collect();
        for metric in [Metric::L2, Metric::SquaredL2, Metric::L1, Metric::Cosine] {
            let serial = fpf_threaded(&data, 4, 24, metric, 0, 1);
            for threads in [2usize, 5, 0] {
                let par = fpf_threaded(&data, 4, 24, metric, 0, threads);
                assert_eq!(
                    par.selected, serial.selected,
                    "{metric:?} {threads} threads"
                );
                assert_eq!(
                    par.min_dist, serial.min_dist,
                    "{metric:?} {threads} threads"
                );
            }
        }
    }
}
