//! Criterion microbenchmarks for clustering hot paths.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use tasti_cluster::{fpf, Metric, MinKTable};

fn random_data(n: usize, dim: usize, seed: u64) -> Vec<f32> {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    (0..n * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

fn bench_fpf(c: &mut Criterion) {
    let data = random_data(2000, 32, 1);
    c.bench_function("fpf_2000x32_select100", |b| {
        b.iter(|| fpf(black_box(&data), 32, 100, Metric::L2, 0))
    });
}

fn bench_mink_build(c: &mut Criterion) {
    let records = random_data(2000, 32, 2);
    let reps = random_data(100, 32, 3);
    c.bench_function("mink_build_2000x100_k5", |b| {
        b.iter(|| MinKTable::build(black_box(&records), black_box(&reps), 32, 5, Metric::L2))
    });
}

fn bench_mink_crack(c: &mut Criterion) {
    let records = random_data(2000, 32, 4);
    let reps = random_data(100, 32, 5);
    let table = MinKTable::build(&records, &reps, 32, 5, Metric::L2);
    let new_rep = random_data(1, 32, 6);
    c.bench_function("mink_add_representative_2000x32", |b| {
        b.iter_batched(
            || table.clone(),
            |mut t| t.add_representative(black_box(&records), black_box(&new_rep), 32, Metric::L2),
            criterion::BatchSize::SmallInput,
        )
    });
}

criterion_group!(benches, bench_fpf, bench_mink_build, bench_mink_crack);
criterion_main!(benches);
