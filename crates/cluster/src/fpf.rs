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
//! The inner loop — one distance from the newest representative to every
//! record per round — runs on the [`crate::kernels::BatchDistance`] engine:
//! norms are precomputed once, candidates are filtered by the
//! decomposed-dot estimate, and the scan is split across threads. Results
//! (selected indices, `min_dist`, cover radius) are bit-identical to the
//! naive scalar scan.

use crate::distance::Metric;
use crate::kernels::BatchDistance;
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
}

impl FpfResult {
    fn from_min_dist(selected: Vec<usize>, min_dist: Vec<f32>) -> Self {
        let cover_radius = min_dist.iter().copied().fold(0.0f32, f32::max);
        FpfResult {
            selected,
            min_dist,
            cover_radius,
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
/// Runs in `O(n_records · count · dim)` time and `O(n_records)` extra space:
/// after each selection only the per-record nearest-selected distance is
/// updated, which is the standard incremental formulation. The scan is
/// multi-threaded; see [`fpf_threaded`] to control the worker count.
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
    let count = count.min(n);
    let engine = BatchDistance::new(metric, data, dim);
    let mut selected = Vec::with_capacity(count);
    let mut min_dist = vec![f32::INFINITY; n];
    let mut next = first;
    for _ in 0..count {
        selected.push(next);
        let (best, _) = engine.update_min_parallel(engine.row(next), &mut min_dist, threads);
        next = best;
    }
    FpfResult::from_min_dist(selected, min_dist)
}

/// Like [`fpf`] but seeds the selection with an existing set of records
/// (used by cracking: new representatives extend the old ones).
pub fn fpf_from(
    data: &[f32],
    dim: usize,
    seed_selected: &[usize],
    additional: usize,
    metric: Metric,
) -> FpfResult {
    fpf_from_threaded(data, dim, seed_selected, additional, metric, 0)
}

/// [`fpf_from`] with an explicit thread count (`0` = available
/// parallelism). The result is identical at any thread count.
pub fn fpf_from_threaded(
    data: &[f32],
    dim: usize,
    seed_selected: &[usize],
    additional: usize,
    metric: Metric,
    threads: usize,
) -> FpfResult {
    let n = data.len() / dim;
    assert_eq!(data.len(), n * dim);
    let engine = BatchDistance::new(metric, data, dim);
    let mut selected: Vec<usize> = seed_selected.to_vec();
    let mut min_dist = vec![f32::INFINITY; n];
    for &s in seed_selected {
        assert!(s < n, "seed index out of range");
        engine.update_min_parallel(engine.row(s), &mut min_dist, threads);
    }
    let additional = additional.min(n.saturating_sub(selected.len()));
    for _ in 0..additional {
        let (best, _) =
            min_dist
                .iter()
                .enumerate()
                .fold((0usize, f32::NEG_INFINITY), |acc, (i, &d)| {
                    if d > acc.1 {
                        (i, d)
                    } else {
                        acc
                    }
                });
        selected.push(best);
        engine.update_min_parallel(engine.row(best), &mut min_dist, threads);
    }
    FpfResult::from_min_dist(selected, min_dist)
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
    finish_selection(data, dim, indices, metric, 0)
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
            let base = fpf_threaded(data, dim, n_fpf, metric, first, threads);
            let mut chosen: Vec<usize> = base.selected;
            let already: std::collections::HashSet<usize> = chosen.iter().copied().collect();
            let mut pool: Vec<usize> = (0..n).filter(|i| !already.contains(i)).collect();
            pool.shuffle(rng);
            chosen.extend(pool.into_iter().take(n_random));
            finish_selection(data, dim, chosen, metric, threads)
        }
    }
}

/// Computes `min_dist` / `cover_radius` for an externally chosen selection.
fn finish_selection(
    data: &[f32],
    dim: usize,
    selected: Vec<usize>,
    metric: Metric,
    threads: usize,
) -> FpfResult {
    let n = data.len() / dim;
    let engine = BatchDistance::new(metric, data, dim);
    let mut min_dist = vec![f32::INFINITY; n];
    for &s in &selected {
        engine.update_min_parallel(engine.row(s), &mut min_dist, threads);
    }
    FpfResult::from_min_dist(selected, min_dist)
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
    fn fpf_from_extends_existing_selection() {
        let data = line(11);
        let base = fpf(&data, 1, 2, Metric::L2, 0); // {0, 10}
        let ext = fpf_from(&data, 1, &base.selected, 1, Metric::L2);
        assert_eq!(ext.selected, vec![0, 10, 5]);
        assert!(ext.cover_radius <= base.cover_radius);
    }

    #[test]
    fn fpf_from_with_empty_seed_behaves_like_fresh_fpf_after_first_pick() {
        let data = line(5);
        let ext = fpf_from(&data, 1, &[], 2, Metric::L2);
        assert_eq!(ext.selected.len(), 2);
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
