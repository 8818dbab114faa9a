//! Differential tests: the blocked kernel engine vs the naive scalar
//! reference.
//!
//! The kernel layer promises results *bit-identical* to a naive per-pair
//! scan (`Metric::distance`, corpus rows in index order) at any thread
//! count. These tests keep an independent copy of the naive algorithms —
//! the pre-kernel implementations of FPF and the min-k scan — and check
//! the engine against them across all four metrics: on random instances
//! (identical `selected`/`rep` indices, distances within 1e-5 — in
//! practice exactly equal; the looser bound keeps those properties
//! independent of the engine's exact-fallback discipline), and bitwise on
//! fixed instances, on inputs built to sit on FPF's triangle-inequality
//! skip margin, for the random-mix tail, and on both sides of the
//! inline/team cut-over.

use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tasti_cluster::kernels::FPF_TEAM_MIN_BLOCK;
use tasti_cluster::{
    fpf_threaded, select_threaded, Metric, MinKTable, Neighbor, SelectionStrategy,
};

const METRICS: [Metric; 4] = [Metric::L2, Metric::SquaredL2, Metric::L1, Metric::Cosine];

/// Naive FPF: the pre-kernel implementation, with selected rows excluded
/// from the furthest-point pick so the selection is always distinct.
fn naive_fpf(
    data: &[f32],
    dim: usize,
    count: usize,
    metric: Metric,
    first: usize,
) -> (Vec<usize>, Vec<f32>) {
    let n = data.len() / dim;
    let count = count.min(n);
    let mut selected = Vec::with_capacity(count);
    let mut min_dist = vec![f32::INFINITY; n];
    let mut taken = vec![false; n];
    let mut next = first;
    for _ in 0..count {
        selected.push(next);
        taken[next] = true;
        let rep_row = &data[next * dim..(next + 1) * dim];
        let mut best = 0usize;
        let mut best_d = f32::NEG_INFINITY;
        for (i, row) in data.chunks_exact(dim).enumerate() {
            let d = metric.distance(rep_row, row);
            if d < min_dist[i] {
                min_dist[i] = d;
            }
            if min_dist[i] > best_d && !taken[i] {
                best_d = min_dist[i];
                best = i;
            }
        }
        next = best;
    }
    (selected, min_dist)
}

/// Naive min-k scan, verbatim from the pre-kernel implementation.
fn naive_mink(
    records: &[f32],
    reps: &[f32],
    dim: usize,
    k: usize,
    metric: Metric,
) -> Vec<Neighbor> {
    let n_reps = reps.len() / dim;
    let k = k.min(n_reps).max(1);
    let mut entries = Vec::with_capacity(records.len() / dim * k);
    let mut heap: Vec<Neighbor> = Vec::with_capacity(k + 1);
    for rec in records.chunks_exact(dim) {
        heap.clear();
        for (j, rep_row) in reps.chunks_exact(dim).enumerate() {
            let d = metric.distance(rec, rep_row);
            if heap.len() < k || d < heap[k - 1].dist {
                if heap.len() == k {
                    heap.pop();
                }
                let pos = heap.partition_point(|x| x.dist <= d);
                heap.insert(
                    pos,
                    Neighbor {
                        rep: j as u32,
                        dist: d,
                    },
                );
            }
        }
        entries.extend_from_slice(&heap);
    }
    entries
}

fn arb_metric() -> impl Strategy<Value = Metric> {
    prop_oneof![
        Just(Metric::L2),
        Just(Metric::SquaredL2),
        Just(Metric::L1),
        Just(Metric::Cosine),
    ]
}

/// Row-major points with 1–8 dims, 2–40 rows, coordinates in ±10.
fn arb_points() -> impl Strategy<Value = (Vec<f32>, usize)> {
    (1usize..=8).prop_flat_map(|dim| {
        (
            prop::collection::vec(-10.0f32..10.0, (2 * dim)..=(40 * dim)).prop_map(move |mut v| {
                v.truncate(v.len() / dim * dim);
                v
            }),
            Just(dim),
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn fpf_matches_naive_reference(
        (data, dim) in arb_points(),
        metric in arb_metric(),
        count_frac in 0.1f64..1.0,
        threads in prop_oneof![Just(1usize), Just(2), Just(3), Just(0)],
    ) {
        let n = data.len() / dim;
        let count = ((n as f64 * count_frac) as usize).max(1);
        let (naive_sel, naive_md) = naive_fpf(&data, dim, count, metric, 0);
        let fast = fpf_threaded(&data, dim, count, metric, 0, threads);
        prop_assert_eq!(&fast.selected, &naive_sel, "selected indices diverged");
        prop_assert_eq!(fast.min_dist.len(), naive_md.len());
        for (i, (a, b)) in fast.min_dist.iter().zip(&naive_md).enumerate() {
            prop_assert!((a - b).abs() <= 1e-5, "min_dist[{}]: {} vs {}", i, a, b);
        }
        let naive_radius = naive_md.iter().copied().fold(0.0f32, f32::max);
        prop_assert!((fast.cover_radius - naive_radius).abs() <= 1e-5);
    }

    #[test]
    fn mink_table_matches_naive_reference(
        (records, dim) in arb_points(),
        reps_seed in 0u64..1000,
        metric in arb_metric(),
        k in 1usize..6,
        threads in prop_oneof![Just(1usize), Just(2), Just(5), Just(0)],
    ) {
        let n_reps = 1 + (reps_seed as usize % 20);
        // Derive reps deterministically from the seed (cheap LCG).
        let mut state = reps_seed.wrapping_mul(2862933555777941757).wrapping_add(3037000493) | 1;
        let reps: Vec<f32> = (0..n_reps * dim)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                ((state >> 33) as i32 % 2000) as f32 / 100.0
            })
            .collect();
        let naive = naive_mink(&records, &reps, dim, k, metric);
        let fast = MinKTable::build_parallel(&records, &reps, dim, k, metric, threads);
        let kk = fast.k();
        prop_assert_eq!(naive.len(), fast.n_records() * kk);
        for i in 0..fast.n_records() {
            let f = fast.neighbors(i);
            let nv = &naive[i * kk..(i + 1) * kk];
            for (a, b) in f.iter().zip(nv) {
                prop_assert_eq!(a.rep, b.rep, "record {} rep identity diverged", i);
                prop_assert!((a.dist - b.dist).abs() <= 1e-5, "record {}: {} vs {}", i, a.dist, b.dist);
            }
        }
    }
}

/// On fixed instances the engine must match the naive reference *bitwise*
/// (stronger than the 1e-5 property above): same selections, identical
/// f32 distances.
#[test]
fn engine_is_bitwise_equal_to_naive_on_fixed_instances() {
    let dims = [1usize, 3, 7, 16];
    for (case, &dim) in dims.iter().enumerate() {
        let n = 120;
        let mut state = 0x9E3779B97F4A7C15u64.wrapping_add(case as u64);
        let data: Vec<f32> = (0..n * dim)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as i32 % 4000) as f32 / 200.0
            })
            .collect();
        for metric in METRICS {
            let (naive_sel, naive_md) = naive_fpf(&data, dim, 30, metric, 0);
            for threads in [1usize, 4, 0] {
                let fast = fpf_threaded(&data, dim, 30, metric, 0, threads);
                assert_eq!(
                    fast.selected, naive_sel,
                    "{metric:?} dim {dim} threads {threads}"
                );
                assert_eq!(
                    fast.min_dist, naive_md,
                    "{metric:?} dim {dim} threads {threads}"
                );
            }
            let reps: Vec<f32> = data[..20 * dim].to_vec();
            let naive = naive_mink(&data, &reps, dim, 4, metric);
            let fast = MinKTable::build_parallel(&data, &reps, dim, 4, metric, 3);
            for i in 0..n {
                assert_eq!(
                    fast.neighbors(i),
                    &naive[i * 4..(i + 1) * 4],
                    "{metric:?} dim {dim} record {i}"
                );
            }
        }
    }
}

/// `min_dist` from scratch for a given selection: every (row, selected)
/// pair through `Metric::distance`, no state carried between centres.
fn naive_min_dist(data: &[f32], dim: usize, metric: Metric, selected: &[usize]) -> Vec<f32> {
    data.chunks_exact(dim)
        .map(|row| {
            selected.iter().fold(f32::INFINITY, |md, &s| {
                let d = metric.distance(&data[s * dim..(s + 1) * dim], row);
                if d < md {
                    d
                } else {
                    md
                }
            })
        })
        .collect()
}

fn assert_bitwise(got: &[f32], naive: &[f32], case: &str) {
    assert_eq!(got.len(), naive.len(), "{case}");
    for (i, (g, w)) in got.iter().zip(naive).enumerate() {
        assert_eq!(
            g.to_bits(),
            w.to_bits(),
            "{case}: min_dist[{i}] {g:e}, naive {w:e}"
        );
    }
}

/// Uniform values in `[0, 1)` from a fixed LCG stream.
struct Lcg(u64);

impl Lcg {
    fn unit(&mut self) -> f32 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 40) as f32 / (1u64 << 24) as f32
    }
}

/// `n` rows of `dim` columns, element `(i, j)` from `f`.
fn rows(n: usize, dim: usize, f: impl Fn(usize, usize) -> f32) -> Vec<f32> {
    (0..n * dim).map(|e| f(e / dim, e % dim)).collect()
}

/// Inputs built to sit on the triangle-inequality skip margin: a wrong
/// margin skips a row the naive scan would have improved (or picks a
/// different furthest row) on at least one of them.
fn margin_stress_inputs(dim: usize) -> Vec<(&'static str, Vec<f32>)> {
    let mut rng = Lcg(0xA5A5_0000 + dim as u64);
    let mut anchors = |count: usize, scale: f32| -> Vec<f32> {
        (0..count * dim)
            .map(|_| scale * (2.0 * rng.unit() - 1.0))
            .collect()
    };

    // Eight clusters whose members are 1e-6 apart: `min_dist` values that
    // differ in the last few ulps next to centre gaps of ~2·min_dist.
    let a = anchors(8, 3.0);
    let tight = rows(240, dim, |i, j| {
        let step = (i / 8) as f32 * 1e-6;
        a[(i % 8) * dim + j] + if j == i % dim { step } else { -step }
    });

    // Forty distinct rows, each five times: rows at distance exactly 0.
    let a = anchors(40, 5.0);
    let duplicates = rows(200, dim, |i, j| a[(i % 40) * dim + j]);

    // Points t·v on a line (exact in f32), and the same line moved off the
    // origin (rounded): d(a, c) = d(a, b) + d(b, c), so every skip test is
    // at equality before the margin.
    let v = [1.0f32, -2.0, 0.5, 4.0];
    let origin = anchors(1, 7.0);
    let collinear = rows(200, dim, |t, j| t as f32 * v[j % 4]);
    let shifted = rows(200, dim, |t, j| origin[j] + t as f32 * v[j % 4]);

    // Norms around 1e4, where one ulp is ~1e-3, in clusters 1e-2 apart.
    let a = anchors(10, 1e4 / (dim as f32).sqrt());
    let large = rows(200, dim, |i, j| {
        a[(i % 10) * dim + j] + if j == 0 { (i / 10) as f32 * 1e-2 } else { 0.0 }
    });

    vec![
        ("tight clusters", tight),
        ("exact duplicates", duplicates),
        ("collinear", collinear),
        ("collinear, off the origin", shifted),
        ("norms up to 1e4", large),
    ]
}

#[test]
fn fpf_is_bitwise_naive_on_the_skip_margin() {
    for dim in [1usize, 3, 16] {
        for (label, data) in margin_stress_inputs(dim) {
            for metric in METRICS {
                let (naive_sel, naive_md) = naive_fpf(&data, dim, 48, metric, 0);
                for threads in 1..=4 {
                    let fast = fpf_threaded(&data, dim, 48, metric, 0, threads);
                    let case = format!("{label}, dim {dim}, {metric:?}, {threads} threads");
                    assert_eq!(fast.selected, naive_sel, "{case}");
                    assert_bitwise(&fast.min_dist, &naive_md, &case);
                }
            }
        }
    }
}

#[test]
fn random_mix_equals_fpf_prefix_plus_picks_with_min_dist_from_scratch() {
    let dim = 5;
    let (_, data) = margin_stress_inputs(dim).swap_remove(0);
    let n = data.len() / dim;
    let strategy = SelectionStrategy::FpfWithRandomMix {
        random_fraction: 0.25,
    };
    for metric in METRICS {
        for threads in [1usize, 2, 0] {
            let mut rng = ChaCha8Rng::seed_from_u64(77);
            let fast = select_threaded(&data, dim, 60, metric, strategy, 0, &mut rng, threads);

            // 45 FPF picks, then 15 from the shuffled rest of the corpus.
            let (mut expected, _) = naive_fpf(&data, dim, 45, metric, 0);
            let mut pool: Vec<usize> = (0..n).filter(|i| !expected.contains(i)).collect();
            pool.shuffle(&mut ChaCha8Rng::seed_from_u64(77));
            expected.extend(&pool[..15]);

            let case = format!("{metric:?}, {threads} threads");
            assert_eq!(fast.selected, expected, "{case}");
            let from_scratch = naive_min_dist(&data, dim, metric, &expected);
            assert_bitwise(&fast.min_dist, &from_scratch, &case);
            let radius = from_scratch.iter().copied().fold(0.0f32, f32::max);
            assert_eq!(fast.cover_radius.to_bits(), radius.to_bits());
        }
    }
}

#[test]
fn inline_and_team_paths_agree_around_the_cut_over() {
    let dim = 64;
    // Rows one worker must own for a selection to run as a team.
    let block = FPF_TEAM_MIN_BLOCK / dim;
    // One row short of a team of two (inline at any thread count), exactly
    // a team of two, and a team at every thread count tried.
    for n in [2 * block - 2, 2 * block, 4 * block] {
        let mut rng = Lcg(n as u64);
        let anchors: Vec<f32> = (0..37 * dim).map(|_| 4.0 * rng.unit() - 2.0).collect();
        // Clustered, with exact duplicates and 1e-6 gaps inside a cluster.
        let data = rows(n, dim, |i, j| {
            anchors[(i % 37) * dim + j] + ((i / 37) % 5) as f32 * 1e-6
        });
        for metric in [Metric::L2, Metric::Cosine] {
            let (naive_sel, naive_md) = naive_fpf(&data, dim, 6, metric, 0);
            for threads in [2usize, 4] {
                let fast = fpf_threaded(&data, dim, 6, metric, 0, threads);
                let case = format!("{n} rows, {metric:?}, {threads} threads");
                assert_eq!(fast.selected, naive_sel, "{case}");
                assert_bitwise(&fast.min_dist, &naive_md, &case);
            }
        }
    }
}
