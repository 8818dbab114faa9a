//! Approximate candidate generation for rep assignment (IVF routing with
//! recall safeguards).
//!
//! Min-k assignment — "for every record, its `k` nearest representatives" —
//! is an `O(n · reps · dim)` exact scan and the dominant build cost at
//! scale. This module puts a candidate stage in front of the exact kernel:
//! the representatives are clustered into ~`√reps` coarse cells (FPF-seeded
//! Lloyd iterations), and each record probes only the `nprobe` nearest
//! cells, refining the union of their members with the *exact* `f32`
//! distance. Cell members go through the same filter as the exact scan,
//! [`BatchDistance::exact_if_below`]: a cheap decomposed score decides
//! whether the exact kernel is worth calling.
//!
//! Approximation is bounded by layered safeguards, cheapest first:
//!
//! 1. **Minimum candidate pool** — cells are probed (nearest first) until
//!    the pool reaches `min_pool` reps, whatever `nprobe` says.
//! 2. **Low-confidence widening** — when the two nearest centroids are
//!    within `widen_ratio` of each other the record sits near a cell
//!    boundary, so one extra cell is probed.
//! 3. **Geometric completeness** (L2/L1 only) — after the probe budget,
//!    any remaining cell with `d(q, centroid) − radius < k-th best` could
//!    still hold a winner and is probed too; cells are visited in
//!    ascending centroid distance, so the scan stops at the first cell
//!    with `d(q, centroid) − max_radius ≥ k-th best`.
//! 4. **Recall audit + exact fallback** — after assignment, a
//!    deterministic sample of records is re-ranked exactly; if measured
//!    recall@k falls below `recall_target` the whole table is rebuilt
//!    with the exact kernel. An audited IVF table therefore *always*
//!    satisfies the configured bound.
//!
//! `nprobe ≥ n_cells` (probe everything) short-circuits to the exact
//! kernel path and is bit-identical to [`crate::MinKTable::build_parallel`].

use crate::distance::Metric;
use crate::kernels::{insert_sorted, par_map_row_chunks, BatchDistance, QueryCtx};
use crate::knn::Neighbor;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// `Auto` strategy resolves to IVF only at or above this record count.
pub const AUTO_MIN_RECORDS: usize = 20_000;
/// `Auto` strategy resolves to IVF only at or above this rep count.
pub const AUTO_MIN_REPS: usize = 256;

/// Tuning knobs for the IVF candidate stage. `0` means "auto" for the
/// sizing knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IvfParams {
    /// Coarse cells probed per record (before safeguards widen the probe).
    /// `0` picks `max(1, n_cells / 8)`.
    #[serde(default)]
    pub nprobe: usize,
    /// Minimum candidate-pool size per record; probing continues past
    /// `nprobe` until the pool reaches this. `0` picks `max(4k, 32)`.
    #[serde(default)]
    pub min_pool: usize,
    /// Minimum audited recall@k; measured recall below this triggers the
    /// exact-fallback rebuild.
    #[serde(default = "default_recall_target")]
    pub recall_target: f32,
    /// Low-confidence margin: when the two nearest centroid distances are
    /// within this relative ratio, one extra cell is probed.
    #[serde(default = "default_widen_ratio")]
    pub widen_ratio: f32,
    /// Records in the recall-audit sample (deterministic stride over the
    /// corpus). `0` picks `clamp(n / 256, 64, 512)`.
    #[serde(default)]
    pub audit_sample: usize,
}

fn default_recall_target() -> f32 {
    0.99
}

fn default_widen_ratio() -> f32 {
    0.15
}

impl Default for IvfParams {
    fn default() -> Self {
        Self {
            nprobe: 0,
            min_pool: 0,
            recall_target: default_recall_target(),
            widen_ratio: default_widen_ratio(),
            audit_sample: 0,
        }
    }
}

impl IvfParams {
    fn nprobe_effective(&self, n_cells: usize) -> usize {
        if self.nprobe == 0 {
            (n_cells / 8).max(1)
        } else {
            self.nprobe.min(n_cells)
        }
    }

    fn min_pool_effective(&self, k: usize) -> usize {
        let base = if self.min_pool == 0 {
            (4 * k).max(32)
        } else {
            self.min_pool
        };
        base.max(k)
    }

    fn audit_sample_effective(&self, n_records: usize) -> usize {
        let s = if self.audit_sample == 0 {
            (n_records / 256).clamp(64, 512)
        } else {
            self.audit_sample
        };
        s.min(n_records)
    }
}

/// How min-k rep assignment is computed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum AssignStrategy {
    /// Exact blocked scan (bit-identical to the historical behaviour).
    Exact,
    /// IVF candidate stage with the given knobs, exact refinement.
    Ivf(IvfParams),
    /// Exact below [`AUTO_MIN_RECORDS`]/[`AUTO_MIN_REPS`], default-knob
    /// IVF at or above — small instances stay bit-identical for free.
    #[default]
    Auto,
}

impl AssignStrategy {
    /// Resolves the strategy at a concrete instance size: `Some(params)`
    /// to run the IVF candidate stage, `None` to run exact.
    pub fn resolve(&self, n_records: usize, n_reps: usize) -> Option<IvfParams> {
        match self {
            AssignStrategy::Exact => None,
            AssignStrategy::Ivf(p) => Some(*p),
            AssignStrategy::Auto => {
                if n_records >= AUTO_MIN_RECORDS && n_reps >= AUTO_MIN_REPS {
                    Some(IvfParams::default())
                } else {
                    None
                }
            }
        }
    }

    /// Short human-readable label (telemetry, CLI).
    pub fn name(&self) -> &'static str {
        match self {
            AssignStrategy::Exact => "exact",
            AssignStrategy::Ivf(_) => "ivf",
            AssignStrategy::Auto => "auto",
        }
    }
}

/// Number of coarse cells the router builds over `n_reps` representatives.
pub fn planned_cells(n_reps: usize) -> usize {
    if n_reps == 0 {
        return 0;
    }
    ((n_reps as f64).sqrt().ceil() as usize).clamp(1, n_reps)
}

/// Observability counters for one assignment run (feeds
/// `tasti-obs::AssignTelemetry`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AssignStats {
    /// Resolved strategy label: `exact`, `ivf`, `ivf-full-probe` (probe
    /// budget covered every cell, ran exact), or `ivf-exact-fallback`
    /// (audit failed, rebuilt exact).
    pub strategy: &'static str,
    /// Records assigned.
    pub n_records: usize,
    /// Representatives assigned against.
    pub n_reps: usize,
    /// Coarse cells in the router (0 on the exact path).
    pub n_cells: usize,
    /// Effective base probe count (0 on the exact path).
    pub nprobe: usize,
    /// Sum of per-record candidate-pool sizes.
    pub candidate_total: u64,
    /// Smallest per-record candidate pool.
    pub candidate_min: usize,
    /// Largest per-record candidate pool.
    pub candidate_max: usize,
    /// Probe-widening events (low-confidence, min-pool, and geometric
    /// widenings summed).
    pub probe_widenings: u64,
    /// True when the audit failed and the table was rebuilt exactly.
    pub exact_fallback: bool,
    /// Records in the recall-audit sample (0 = not audited, exact path).
    pub audited_records: usize,
    /// Measured recall@k over the audit sample *before* any fallback
    /// (1.0 on the exact path).
    pub audited_recall: f64,
    /// Wall-clock seconds in the assignment stage.
    pub seconds: f64,
}

impl AssignStats {
    fn exact(n_records: usize, n_reps: usize, strategy: &'static str) -> Self {
        Self {
            strategy,
            n_records,
            n_reps,
            n_cells: 0,
            nprobe: 0,
            candidate_total: (n_records as u64) * (n_reps as u64),
            candidate_min: n_reps,
            candidate_max: n_reps,
            probe_widenings: 0,
            exact_fallback: false,
            audited_records: 0,
            audited_recall: 1.0,
            seconds: 0.0,
        }
    }

    /// Mean candidate-pool size per record.
    pub fn candidate_mean(&self) -> f64 {
        if self.n_records == 0 {
            0.0
        } else {
            self.candidate_total as f64 / self.n_records as f64
        }
    }
}

/// Per-worker probe counters, merged across chunks (crate-internal).
#[derive(Debug, Clone, Copy)]
pub(crate) struct WorkerStats {
    pub(crate) pool_total: u64,
    pub(crate) pool_min: usize,
    pub(crate) pool_max: usize,
    pub(crate) widenings: u64,
}

impl WorkerStats {
    pub(crate) fn new() -> Self {
        Self {
            pool_total: 0,
            pool_min: usize::MAX,
            pool_max: 0,
            widenings: 0,
        }
    }

    fn merge(&mut self, other: &WorkerStats) {
        self.pool_total += other.pool_total;
        self.pool_min = self.pool_min.min(other.pool_min);
        self.pool_max = self.pool_max.max(other.pool_max);
        self.widenings += other.widenings;
    }
}

/// IVF routing structure over the representative set: coarse centroids and
/// per-cell member lists and radii. Built once per assignment and kept by
/// `MinKTable` so incremental cracking can keep routing coherently
/// (rebuild-or-invalidate contract — see `MinKTable::add_representative`).
#[derive(Debug, Clone)]
pub struct RepRouter {
    metric: Metric,
    dim: usize,
    n_cells: usize,
    /// Row-major `n_cells × dim` centroid matrix.
    centroids: Vec<f32>,
    /// Member rep indices per cell.
    cells: Vec<Vec<u32>>,
    /// Max distance from a cell's centroid to any member.
    radii: Vec<f32>,
    max_radius: f32,
    params: IvfParams,
    /// Rep count when the router was (re)built from scratch.
    built_reps: usize,
    n_reps: usize,
}

impl RepRouter {
    /// Builds the router over `reps` (row-major, `dim` columns): FPF-seeded
    /// centroids, two Lloyd refinement iterations, final cell lists and
    /// radii. Deterministic (thread-count independent).
    pub fn build(reps: &[f32], dim: usize, metric: Metric, params: IvfParams) -> Self {
        assert!(dim > 0, "dim must be positive");
        assert_eq!(reps.len() % dim, 0);
        let n_reps = reps.len() / dim;
        assert!(n_reps > 0, "need at least one representative");
        let n_cells = planned_cells(n_reps);

        // FPF gives well-spread seeds — the same 2-approximation argument
        // that justifies it for rep selection applies to coarse cells.
        let seeds = crate::fpf::fpf(reps, dim, n_cells, metric, 0).selected;
        let mut centroids = vec![0.0f32; n_cells * dim];
        for (c, &s) in seeds.iter().enumerate() {
            centroids[c * dim..(c + 1) * dim].copy_from_slice(&reps[s * dim..(s + 1) * dim]);
        }

        let mut assignment = vec![0u32; n_reps];
        for _ in 0..2 {
            Self::assign_to_centroids(reps, &centroids, dim, metric, &mut assignment);
            // Mean update (serial: O(reps · dim), negligible and exactly
            // reproducible). Empty cells keep their previous centroid.
            let mut sums = vec![0.0f64; n_cells * dim];
            let mut counts = vec![0usize; n_cells];
            for (i, row) in reps.chunks_exact(dim).enumerate() {
                let c = assignment[i] as usize;
                counts[c] += 1;
                for (s, &x) in sums[c * dim..(c + 1) * dim].iter_mut().zip(row) {
                    *s += x as f64;
                }
            }
            for c in 0..n_cells {
                if counts[c] == 0 {
                    continue;
                }
                for (out, &s) in centroids[c * dim..(c + 1) * dim]
                    .iter_mut()
                    .zip(&sums[c * dim..(c + 1) * dim])
                {
                    *out = (s / counts[c] as f64) as f32;
                }
            }
        }
        Self::assign_to_centroids(reps, &centroids, dim, metric, &mut assignment);

        let mut cells = vec![Vec::new(); n_cells];
        let mut radii = vec![0.0f32; n_cells];
        for (i, row) in reps.chunks_exact(dim).enumerate() {
            let c = assignment[i] as usize;
            cells[c].push(i as u32);
            let d = metric.distance(&centroids[c * dim..(c + 1) * dim], row);
            radii[c] = radii[c].max(d);
        }
        let max_radius = radii.iter().copied().fold(0.0f32, f32::max);

        Self {
            metric,
            dim,
            n_cells,
            centroids,
            cells,
            radii,
            max_radius,
            params,
            built_reps: n_reps,
            n_reps,
        }
    }

    fn assign_to_centroids(
        reps: &[f32],
        centroids: &[f32],
        dim: usize,
        metric: Metric,
        assignment: &mut [u32],
    ) {
        let engine = BatchDistance::new(metric, centroids, dim);
        let mut entries = vec![
            Neighbor {
                rep: 0,
                dist: f32::INFINITY
            };
            assignment.len()
        ];
        engine.topk_into(reps, 1, &mut entries);
        for (a, e) in assignment.iter_mut().zip(&entries) {
            *a = e.rep;
        }
    }

    /// Representatives currently routed.
    pub fn n_reps(&self) -> usize {
        self.n_reps
    }

    /// Rep count at the last from-scratch build.
    pub fn built_reps(&self) -> usize {
        self.built_reps
    }

    /// Coarse cell count.
    pub fn n_cells(&self) -> usize {
        self.n_cells
    }

    /// Metric the router was built under.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The IVF knobs this router was built with.
    pub fn params(&self) -> &IvfParams {
        &self.params
    }

    /// True when the router has drifted too far from its built state to
    /// keep routing well (incremental adds have grown the rep set past
    /// 1.5× the built size): the rebuild-or-invalidate contract says the
    /// holder must drop it.
    pub fn is_stale(&self) -> bool {
        self.n_reps > self.built_reps + self.built_reps / 2 + 8
    }

    /// Registers one new representative (the cracking primitive): the rep
    /// joins its nearest cell and the cell radius grows to cover it.
    /// `O(n_cells · dim)`.
    pub fn add_rep(&mut self, rep_embedding: &[f32]) {
        assert_eq!(rep_embedding.len(), self.dim);
        let mut best = 0usize;
        let mut best_d = f32::INFINITY;
        for c in 0..self.n_cells {
            let d = self.metric.distance(
                &self.centroids[c * self.dim..(c + 1) * self.dim],
                rep_embedding,
            );
            if d < best_d {
                best_d = d;
                best = c;
            }
        }
        self.cells[best].push(self.n_reps as u32);
        self.radii[best] = self.radii[best].max(best_d);
        self.max_radius = self.max_radius.max(best_d);
        self.n_reps += 1;
    }

    /// Offers every member of `cell` to the ascending `heap` (≤ `k`
    /// entries): once the heap is full a member reaches the exact kernel
    /// only if `engine`'s filter says it might beat the current k-th best.
    /// Returns the cell's member count (pool contribution).
    fn refine_cell(
        &self,
        cell: usize,
        query: &[f32],
        ctx: &QueryCtx,
        engine: &BatchDistance<'_>,
        k: usize,
        heap: &mut Vec<Neighbor>,
    ) -> usize {
        let members = &self.cells[cell];
        for &rep in members {
            let dist = if heap.len() < k {
                engine.exact(query, rep as usize)
            } else {
                let kth = heap[k - 1].dist;
                match engine.exact_if_below(query, ctx, rep as usize, kth) {
                    Some(d) if d < kth => {
                        heap.pop();
                        d
                    }
                    _ => continue,
                }
            };
            insert_sorted(heap, Neighbor { rep, dist });
        }
        members.len()
    }

    /// Routes one record: probes the `nprobe` nearest cells (plus whatever
    /// the safeguards add) and writes its `k = out.len()` nearest reps
    /// (ascending, exact distances) into `out`. `engine` is the kernel
    /// engine over the routed reps; `cent`/`heap` are caller scratch.
    pub(crate) fn route(
        &self,
        query: &[f32],
        engine: &BatchDistance<'_>,
        out: &mut [Neighbor],
        cent: &mut Vec<(f32, u32)>,
        heap: &mut Vec<Neighbor>,
        ws: &mut WorkerStats,
    ) {
        let k = out.len();
        debug_assert_eq!((engine.metric(), engine.n()), (self.metric, self.n_reps));
        let ctx = engine.query_ctx(query);

        cent.clear();
        for c in 0..self.n_cells {
            let d = self
                .metric
                .distance(query, &self.centroids[c * self.dim..(c + 1) * self.dim]);
            cent.push((d, c as u32));
        }
        cent.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

        let mut base = self.params.nprobe_effective(self.n_cells);
        let min_pool = self.params.min_pool_effective(k);
        // Safeguard 2: boundary records (two nearest centroids within the
        // widen ratio) get one extra cell.
        if self.n_cells >= 2 && base < self.n_cells {
            let (d0, d1) = (cent[0].0, cent[1].0);
            if d1 - d0 <= self.params.widen_ratio * d1.max(1e-12) {
                base += 1;
                ws.widenings += 1;
            }
        }

        heap.clear();
        let mut pool = 0usize;
        let mut ci = 0usize;
        // Safeguard 1: keep probing past `base` until the pool is big
        // enough (or cells run out).
        while ci < self.n_cells && (ci < base || pool < min_pool) {
            if ci >= base {
                ws.widenings += 1;
            }
            pool += self.refine_cell(cent[ci].1 as usize, query, &ctx, engine, k, heap);
            ci += 1;
        }
        // Safeguard 3: geometric completeness for triangle-inequality
        // metrics — a cell can only hold a winner if its centroid ball
        // intersects the current k-th-best sphere.
        if self.metric.is_metric() {
            while ci < self.n_cells && heap.len() >= k {
                let kth = heap[k - 1].dist;
                if cent[ci].0 - self.max_radius >= kth {
                    break;
                }
                let c = cent[ci].1 as usize;
                if cent[ci].0 - self.radii[c] < kth {
                    ws.widenings += 1;
                    pool += self.refine_cell(c, query, &ctx, engine, k, heap);
                }
                ci += 1;
            }
        }

        out.copy_from_slice(heap);
        ws.pool_total += pool as u64;
        ws.pool_min = ws.pool_min.min(pool);
        ws.pool_max = ws.pool_max.max(pool);
    }
}

/// Outcome of [`assign`]: the flat neighbor entries (ascending per record),
/// the router when an IVF table was built and survives its audit, and the
/// observability counters.
pub struct AssignOutcome {
    /// `n_records × k` neighbor entries, ascending per record.
    pub entries: Vec<Neighbor>,
    /// Effective `k` (clamped to the rep count, floor 1 — same rule as
    /// `MinKTable::build_parallel`).
    pub k: usize,
    /// Router retained for incremental maintenance (None on exact paths).
    pub router: Option<Arc<RepRouter>>,
    /// Counters for telemetry.
    pub stats: AssignStats,
}

/// Computes min-k rep assignment under `strategy`. The exact strategy (and
/// any IVF configuration whose probe budget covers every cell, and any
/// audit failure) produces output bit-identical to
/// `MinKTable::build_parallel`; IVF output is approximate but every stored
/// distance is the exact `f32` metric distance, and audited recall@k is
/// ≥ `recall_target` by construction (exact fallback otherwise).
pub fn assign(
    records: &[f32],
    reps: &[f32],
    dim: usize,
    k: usize,
    metric: Metric,
    threads: usize,
    strategy: &AssignStrategy,
) -> AssignOutcome {
    assert!(dim > 0, "dim must be positive");
    assert_eq!(records.len() % dim, 0);
    assert_eq!(reps.len() % dim, 0);
    let n_records = records.len() / dim;
    let n_reps = reps.len() / dim;
    assert!(n_reps > 0, "need at least one representative");
    let k = k.min(n_reps).max(1);
    let start = std::time::Instant::now();
    let engine = BatchDistance::new(metric, reps, dim);

    let exact = |label: &'static str| -> AssignOutcome {
        let mut entries = vec![
            Neighbor {
                rep: 0,
                dist: f32::INFINITY
            };
            n_records * k
        ];
        engine.topk_parallel(records, k, threads, &mut entries);
        let mut stats = AssignStats::exact(n_records, n_reps, label);
        stats.seconds = start.elapsed().as_secs_f64();
        AssignOutcome {
            entries,
            k,
            router: None,
            stats,
        }
    };

    let params = match strategy.resolve(n_records, n_reps) {
        None => return exact("exact"),
        Some(p) => p,
    };
    // Full probe ≡ exact: the escape hatch that keeps `nprobe = all`
    // bit-identical to the historical build.
    let n_cells = planned_cells(n_reps);
    if params.nprobe >= n_cells && params.nprobe != 0 || n_cells <= 1 {
        return exact("ivf-full-probe");
    }

    let router = RepRouter::build(reps, dim, metric, params);
    let mut entries = vec![
        Neighbor {
            rep: 0,
            dist: f32::INFINITY
        };
        n_records * k
    ];
    let merged = route_block(&router, &engine, records, k, threads, &mut entries);

    // Safeguard 4: audited recall with exact fallback.
    let audit_n = params.audit_sample_effective(n_records);
    let recall = audit_recall(&engine, records, k, &entries, audit_n);
    let mut stats = AssignStats {
        strategy: "ivf",
        n_records,
        n_reps,
        n_cells: router.n_cells,
        nprobe: params.nprobe_effective(router.n_cells),
        candidate_total: merged.pool_total,
        candidate_min: if merged.pool_min == usize::MAX {
            0
        } else {
            merged.pool_min
        },
        candidate_max: merged.pool_max,
        probe_widenings: merged.widenings,
        exact_fallback: false,
        audited_records: audit_n,
        audited_recall: recall,
        seconds: 0.0,
    };
    if recall + 1e-12 < params.recall_target as f64 {
        engine.topk_parallel(records, k, threads, &mut entries);
        stats.strategy = "ivf-exact-fallback";
        stats.exact_fallback = true;
        stats.seconds = start.elapsed().as_secs_f64();
        return AssignOutcome {
            entries,
            k,
            router: None,
            stats,
        };
    }
    stats.seconds = start.elapsed().as_secs_f64();
    AssignOutcome {
        entries,
        k,
        router: Some(Arc::new(router)),
        stats,
    }
}

/// Routes every record in `records` through `router`, writing `k` ascending
/// neighbors per record into `entries` (len `n × k`). `engine` is the kernel
/// engine over the router's reps. Parallel over records, bit-identical at
/// any thread count. Shared by [`assign`] and the incremental
/// `MinKTable::append_records` path.
pub(crate) fn route_block(
    router: &RepRouter,
    engine: &BatchDistance<'_>,
    records: &[f32],
    k: usize,
    threads: usize,
    entries: &mut [Neighbor],
) -> WorkerStats {
    let dim = router.dim;
    debug_assert_eq!(entries.len(), (records.len() / dim) * k);
    let worker_stats = par_map_row_chunks(entries, k, threads, |start_row, block| {
        let rows = block.len() / k;
        let mut ws = WorkerStats::new();
        let mut cent: Vec<(f32, u32)> = Vec::with_capacity(router.n_cells);
        let mut heap: Vec<Neighbor> = Vec::with_capacity(k);
        for r in 0..rows {
            let rec = start_row + r;
            router.route(
                &records[rec * dim..(rec + 1) * dim],
                engine,
                &mut block[r * k..(r + 1) * k],
                &mut cent,
                &mut heap,
                &mut ws,
            );
        }
        ws
    });
    let mut merged = WorkerStats::new();
    for ws in &worker_stats {
        merged.merge(ws);
    }
    merged
}

/// Measured recall@k of `entries` against an exact re-ranking of a
/// deterministic stride sample (`audit_n` records). A neighbor counts as
/// recalled when its (exact) distance is within the sample's true k-th
/// distance — the tie-tolerant definition, since equidistant reps are
/// interchangeable for propagation.
fn audit_recall(
    engine: &BatchDistance<'_>,
    records: &[f32],
    k: usize,
    entries: &[Neighbor],
    audit_n: usize,
) -> f64 {
    if audit_n == 0 {
        return 1.0;
    }
    let dim = engine.dim();
    let n_records = records.len() / dim;
    let stride = (n_records / audit_n).max(1);
    let sample: Vec<usize> = (0..audit_n).map(|s| s * stride).collect();
    let mut queries = Vec::with_capacity(audit_n * dim);
    for &i in &sample {
        queries.extend_from_slice(&records[i * dim..(i + 1) * dim]);
    }
    let mut exact = vec![
        Neighbor {
            rep: 0,
            dist: f32::INFINITY
        };
        audit_n * k
    ];
    engine.topk_into(&queries, k, &mut exact);
    let mut hits = 0u64;
    for (s, &i) in sample.iter().enumerate() {
        let true_kth = exact[(s + 1) * k - 1].dist;
        let got = &entries[i * k..(i + 1) * k];
        hits += got.iter().filter(|n| n.dist <= true_kth).count() as u64;
    }
    hits as f64 / (audit_n * k) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lcg(state: &mut u64) -> f32 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*state >> 33) as i32 % 2000) as f32 / 1000.0
    }

    /// `n_clusters` Gaussian-ish blobs in `dim` dims.
    fn clustered(n: usize, dim: usize, n_clusters: usize, seed: u64) -> Vec<f32> {
        let mut state = seed | 1;
        let centers: Vec<f32> = (0..n_clusters * dim)
            .map(|_| 10.0 * lcg(&mut state))
            .collect();
        (0..n)
            .flat_map(|i| {
                let c = i % n_clusters;
                let center = &centers[c * dim..(c + 1) * dim];
                let noise: Vec<f32> = (0..dim).map(|_| 0.3 * lcg(&mut state)).collect();
                center
                    .iter()
                    .zip(noise)
                    .map(|(&c, n)| c + n)
                    .collect::<Vec<f32>>()
            })
            .collect()
    }

    #[test]
    fn planned_cells_is_sqrt_ish() {
        assert_eq!(planned_cells(0), 0);
        assert_eq!(planned_cells(1), 1);
        assert_eq!(planned_cells(512), 23);
        assert_eq!(planned_cells(100), 10);
    }

    #[test]
    fn auto_resolves_exact_below_thresholds() {
        let auto = AssignStrategy::Auto;
        assert!(auto.resolve(AUTO_MIN_RECORDS - 1, 4096).is_none());
        assert!(auto.resolve(1_000_000, AUTO_MIN_REPS - 1).is_none());
        assert!(auto.resolve(AUTO_MIN_RECORDS, AUTO_MIN_REPS).is_some());
        assert!(AssignStrategy::Exact.resolve(1 << 30, 1 << 20).is_none());
        assert!(AssignStrategy::Ivf(IvfParams::default())
            .resolve(10, 10)
            .is_some());
    }

    #[test]
    fn exact_strategy_matches_build_parallel_bitwise() {
        let dim = 6;
        let records = clustered(400, dim, 7, 3);
        let reps = clustered(40, dim, 7, 9);
        let out = assign(
            &records,
            &reps,
            dim,
            3,
            Metric::L2,
            1,
            &AssignStrategy::Exact,
        );
        let reference = crate::MinKTable::build_parallel(&records, &reps, dim, 3, Metric::L2, 1);
        for i in 0..400 {
            for (a, b) in out.entries[i * 3..(i + 1) * 3]
                .iter()
                .zip(reference.neighbors(i))
            {
                assert_eq!(a.rep, b.rep, "record {i}");
                assert_eq!(a.dist, b.dist, "record {i}");
            }
        }
        assert_eq!(out.stats.strategy, "exact");
        assert!(out.router.is_none());
    }

    #[test]
    fn full_probe_matches_build_parallel_bitwise() {
        let dim = 4;
        let records = clustered(300, dim, 5, 21);
        let reps = clustered(64, dim, 5, 22);
        let params = IvfParams {
            nprobe: usize::MAX,
            ..IvfParams::default()
        };
        let out = assign(
            &records,
            &reps,
            dim,
            4,
            Metric::L2,
            1,
            &AssignStrategy::Ivf(params),
        );
        assert_eq!(out.stats.strategy, "ivf-full-probe");
        let reference = crate::MinKTable::build_parallel(&records, &reps, dim, 4, Metric::L2, 1);
        for i in 0..300 {
            for (a, b) in out.entries[i * 4..(i + 1) * 4]
                .iter()
                .zip(reference.neighbors(i))
            {
                assert_eq!((a.rep, a.dist), (b.rep, b.dist), "record {i}");
            }
        }
    }

    #[test]
    fn ivf_distances_are_exact_and_sorted() {
        let dim = 8;
        let records = clustered(600, dim, 12, 5);
        let reps = clustered(120, dim, 12, 6);
        for metric in [Metric::L2, Metric::SquaredL2, Metric::L1, Metric::Cosine] {
            let out = assign(
                &records,
                &reps,
                dim,
                3,
                metric,
                2,
                &AssignStrategy::Ivf(IvfParams::default()),
            );
            assert!(
                out.stats.strategy == "ivf" || out.stats.strategy == "ivf-exact-fallback",
                "{}",
                out.stats.strategy
            );
            for i in 0..600 {
                let ns = &out.entries[i * 3..(i + 1) * 3];
                for w in ns.windows(2) {
                    assert!(w[0].dist <= w[1].dist, "{metric:?} record {i} not sorted");
                }
                for n in ns {
                    let d = metric.distance(
                        &records[i * dim..(i + 1) * dim],
                        &reps[n.rep as usize * dim..(n.rep as usize + 1) * dim],
                    );
                    assert_eq!(n.dist, d, "{metric:?} record {i}: stored dist not exact");
                }
            }
        }
    }

    #[test]
    fn audited_recall_meets_target_or_falls_back() {
        let dim = 8;
        let records = clustered(2000, dim, 16, 77);
        let reps = clustered(160, dim, 16, 78);
        for metric in [Metric::L2, Metric::Cosine] {
            let out = assign(
                &records,
                &reps,
                dim,
                5,
                metric,
                0,
                &AssignStrategy::Ivf(IvfParams::default()),
            );
            assert!(
                out.stats.exact_fallback
                    || out.stats.audited_recall + 1e-12
                        >= IvfParams::default().recall_target as f64,
                "{metric:?}: recall {} without fallback",
                out.stats.audited_recall
            );
            if out.stats.exact_fallback {
                assert!(out.router.is_none());
            } else {
                assert!(out.router.is_some());
            }
            assert!(out.stats.audited_records > 0);
        }
    }

    #[test]
    fn impossible_recall_target_forces_exact_fallback() {
        // A target above 1.0 cannot be met, so the audit must always trip
        // the fallback and the result must equal the exact build.
        let dim = 4;
        let records = clustered(500, dim, 6, 13);
        let reps = clustered(80, dim, 6, 14);
        let params = IvfParams {
            recall_target: 1.5,
            ..IvfParams::default()
        };
        let out = assign(
            &records,
            &reps,
            dim,
            2,
            Metric::L2,
            1,
            &AssignStrategy::Ivf(params),
        );
        assert!(out.stats.exact_fallback);
        assert_eq!(out.stats.strategy, "ivf-exact-fallback");
        assert!(out.router.is_none());
        let reference = crate::MinKTable::build_parallel(&records, &reps, dim, 2, Metric::L2, 1);
        for i in 0..500 {
            for (a, b) in out.entries[i * 2..(i + 1) * 2]
                .iter()
                .zip(reference.neighbors(i))
            {
                assert_eq!((a.rep, a.dist), (b.rep, b.dist), "record {i}");
            }
        }
    }

    #[test]
    fn threading_is_bit_identical() {
        let dim = 6;
        let records = clustered(900, dim, 10, 42);
        let reps = clustered(100, dim, 10, 43);
        let strategy = AssignStrategy::Ivf(IvfParams::default());
        let serial = assign(&records, &reps, dim, 3, Metric::L2, 1, &strategy);
        for threads in [2usize, 5, 0] {
            let par = assign(&records, &reps, dim, 3, Metric::L2, threads, &strategy);
            assert_eq!(par.entries.len(), serial.entries.len());
            for (a, b) in par.entries.iter().zip(&serial.entries) {
                assert_eq!((a.rep, a.dist), (b.rep, b.dist), "{threads} threads");
            }
            assert_eq!(par.stats.candidate_total, serial.stats.candidate_total);
            assert_eq!(par.stats.probe_widenings, serial.stats.probe_widenings);
        }
    }

    #[test]
    fn pool_counters_and_widenings_are_recorded() {
        let dim = 5;
        let records = clustered(800, dim, 9, 55);
        let reps = clustered(128, dim, 9, 56);
        let out = assign(
            &records,
            &reps,
            dim,
            2,
            Metric::L2,
            1,
            &AssignStrategy::Ivf(IvfParams::default()),
        );
        if out.stats.strategy == "ivf" {
            assert!(out.stats.candidate_min >= 1);
            assert!(out.stats.candidate_max <= 128);
            assert!(out.stats.candidate_total >= 800);
            assert!(out.stats.candidate_mean() >= 1.0);
            // min_pool (32) exceeds the mean cell size (128/12 ≈ 11), so
            // min-pool widening must have fired.
            assert!(out.stats.probe_widenings > 0);
        }
    }

    #[test]
    fn router_add_rep_keeps_cells_coherent() {
        let dim = 4;
        let reps = clustered(60, dim, 6, 99);
        let mut router = RepRouter::build(&reps, dim, Metric::L2, IvfParams::default());
        assert_eq!(router.n_reps(), 60);
        let new_rep = vec![0.5f32; dim];
        router.add_rep(&new_rep);
        assert_eq!(router.n_reps(), 61);
        let total: usize = (0..router.n_cells()).map(|c| router.cells[c].len()).sum();
        assert_eq!(total, 61);
        assert!(!router.is_stale());
        for _ in 0..61 {
            router.add_rep(&new_rep);
        }
        assert!(router.is_stale());
    }

    #[test]
    fn single_cell_router_short_circuits_to_exact() {
        // Tiny rep sets plan ≤ 1 cell; IVF must defer to the exact path.
        let records = clustered(50, 3, 2, 1);
        let reps = vec![0.0f32, 0.0, 0.0];
        let out = assign(
            &records,
            &reps,
            3,
            1,
            Metric::L2,
            1,
            &AssignStrategy::Ivf(IvfParams::default()),
        );
        assert_eq!(out.stats.strategy, "ivf-full-probe");
        assert_eq!(out.entries.len(), 50);
    }
}
