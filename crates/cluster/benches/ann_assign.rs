//! Criterion benchmark for the ANN-accelerated rep-assignment stage:
//! exact blocked scan vs the IVF candidate stage at the sizes where the
//! paper's indexes actually live.
//!
//! Headline comparison: `assign/exact/*` vs `assign/ivf/*` at
//! 50k records × 512 reps single-threaded — the ≥2× target tracked in
//! EXPERIMENTS.md.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use tasti_cluster::{AssignStrategy, IvfParams, Metric, MinKTable};

const DIM: usize = 32;
const K: usize = 5;

/// Clustered embeddings: the regime IVF is built for (real TASTI
/// embeddings are trained to cluster by label).
fn clustered(n: usize, dim: usize, seed: u64) -> Vec<f32> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let n_centers = 24;
    let centers: Vec<Vec<f32>> = (0..n_centers)
        .map(|_| (0..dim).map(|_| rng.gen_range(-8.0f32..8.0)).collect())
        .collect();
    (0..n)
        .flat_map(|i| {
            let c = &centers[i % n_centers];
            c.iter()
                .map(|&x| x + rng.gen_range(-0.5f32..0.5))
                .collect::<Vec<f32>>()
        })
        .collect()
}

fn bench_assign(c: &mut Criterion) {
    let mut group = c.benchmark_group("assign");
    group.sample_size(10);
    for &(n, n_reps) in &[(10_000usize, 256usize), (50_000, 512)] {
        let records = clustered(n, DIM, 11);
        let reps = clustered(n_reps, DIM, 12);
        let label = format!("{n}x{n_reps}");

        group.bench_with_input(BenchmarkId::new("exact", &label), &(), |b, _| {
            b.iter(|| {
                MinKTable::build_with_strategy(
                    black_box(&records),
                    black_box(&reps),
                    DIM,
                    K,
                    Metric::L2,
                    1,
                    &AssignStrategy::Exact,
                )
            })
        });
        let strategy = AssignStrategy::Ivf(IvfParams::default());
        group.bench_with_input(BenchmarkId::new("ivf", &label), &(), |b, _| {
            b.iter(|| {
                MinKTable::build_with_strategy(
                    black_box(&records),
                    black_box(&reps),
                    DIM,
                    K,
                    Metric::L2,
                    1,
                    &strategy,
                )
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_assign);
criterion_main!(benches);
