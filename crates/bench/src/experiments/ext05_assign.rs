//! Extension experiment: ANN-accelerated rep assignment (exact vs IVF).
//!
//! Measures the min-k assignment stage in isolation — the dominant
//! distance-computation cost of index construction — comparing the exact
//! blocked scan against the IVF candidate stage at two tracked sizes
//! (10k×256 and 50k×512). Recall is measured against the exact
//! table over the *whole* corpus (tie-tolerant recall@k, the same
//! definition the build-time audit uses), so every row reports both its
//! speedup and the accuracy it paid for it.

use crate::report::ExperimentRecord;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use tasti_cluster::{AssignStats, AssignStrategy, IvfParams, Metric, MinKTable};

const DIM: usize = 32;
const K: usize = 5;
const RUNS: usize = 3;

/// One measured configuration (kept separate from [`ExperimentRecord`] so
/// out-of-band drivers can re-serialize the raw numbers).
pub struct AssignMeasurement {
    /// Records assigned.
    pub n: usize,
    /// Representatives assigned against.
    pub n_reps: usize,
    /// Method label (`exact`, `ivf`).
    pub method: &'static str,
    /// Best-of-3 wall-clock seconds, single-threaded.
    pub seconds: f64,
    /// Exact-seconds / this-method-seconds (1.0 for exact).
    pub speedup: f64,
    /// Whole-corpus tie-tolerant recall@k vs the exact table.
    pub recall: f64,
    /// Assignment telemetry of the measured run (None for exact).
    pub stats: Option<AssignStats>,
}

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

fn full_recall(approx: &MinKTable, exact: &MinKTable) -> f64 {
    let n = exact.n_records();
    let (mut hits, mut total) = (0usize, 0usize);
    for i in 0..n {
        let kth = exact.neighbors(i).last().map(|nb| nb.dist).unwrap_or(0.0);
        for nb in approx.neighbors(i) {
            total += 1;
            if nb.dist <= kth {
                hits += 1;
            }
        }
    }
    hits as f64 / total.max(1) as f64
}

/// Runs the measurements (no printing, no record formatting).
pub fn measure() -> Vec<AssignMeasurement> {
    let mut out = Vec::new();
    for &(n, n_reps) in &[(10_000usize, 256usize), (50_000, 512)] {
        let records = clustered(n, DIM, 11);
        let reps = clustered(n_reps, DIM, 12);

        let mut exact_secs = f64::MAX;
        let mut exact_table = None;
        for _ in 0..RUNS {
            let t = std::time::Instant::now();
            let (tab, _) = MinKTable::build_with_strategy(
                &records,
                &reps,
                DIM,
                K,
                Metric::L2,
                1,
                &AssignStrategy::Exact,
            );
            exact_secs = exact_secs.min(t.elapsed().as_secs_f64());
            exact_table = Some(tab);
        }
        let exact_table = exact_table.expect("at least one exact run");
        out.push(AssignMeasurement {
            n,
            n_reps,
            method: "exact",
            seconds: exact_secs,
            speedup: 1.0,
            recall: 1.0,
            stats: None,
        });

        let strategy = AssignStrategy::Ivf(IvfParams::default());
        let mut secs = f64::MAX;
        let mut last = None;
        for _ in 0..RUNS {
            let t = std::time::Instant::now();
            let built =
                MinKTable::build_with_strategy(&records, &reps, DIM, K, Metric::L2, 1, &strategy);
            secs = secs.min(t.elapsed().as_secs_f64());
            last = Some(built);
        }
        let (table, stats) = last.expect("at least one ivf run");
        out.push(AssignMeasurement {
            n,
            n_reps,
            method: "ivf",
            seconds: secs,
            speedup: exact_secs / secs.max(1e-12),
            recall: full_recall(&table, &exact_table),
            stats: Some(stats),
        });
    }
    out
}

/// Runs the experiment.
pub fn run() -> Vec<ExperimentRecord> {
    println!("\n=== Extension 5: rep assignment, exact vs IVF (1 thread) ===");
    println!(
        "{:<16}{:>12}{:>12}{:>10}{:>10}{:>12}",
        "size", "method", "seconds", "speedup", "recall", "pool mean"
    );
    let mut records = Vec::new();
    for m in measure() {
        let setting = format!("{}x{}", m.n, m.n_reps);
        let pool = m
            .stats
            .as_ref()
            .map(|s| format!("{:.1}", s.candidate_mean()))
            .unwrap_or_else(|| "-".into());
        println!(
            "{:<16}{:>12}{:>12.4}{:>9.2}x{:>10.4}{:>12}",
            setting, m.method, m.seconds, m.speedup, m.recall, pool
        );
        let note = match &m.stats {
            Some(s) => format!(
                "speedup={:.2}x recall={:.4} strategy={} widenings={} fallback={}",
                m.speedup, m.recall, s.strategy, s.probe_widenings, s.exact_fallback
            ),
            None => "baseline".into(),
        };
        let mut rec =
            ExperimentRecord::new("ext05", &setting, m.method, "seconds", m.seconds, note);
        if let Some(stats) = &m.stats {
            rec = rec.with_telemetry(stats);
        }
        records.push(rec);
    }
    records
}
