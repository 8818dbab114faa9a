//! Blocked, multi-threaded distance kernels for index construction.
//!
//! TASTI's §3.4 cost model says construction is dominated by the `N·C`
//! record-to-representative distances (plus the embedding forward passes).
//! This module batches that work: row norms are computed once, and
//! query-vs-corpus distances are evaluated through the decomposition
//! `‖a − b‖² = ‖a‖² + ‖b‖² − 2·a·b`, whose inner product runs as a
//! four-accumulator loop the compiler vectorizes. Work is split across
//! crossbeam-scoped threads in contiguous row blocks.
//!
//! # Exactness contract
//!
//! Every public kernel returns results **bit-identical to the naive
//! scalar path** (`Metric::distance` applied per pair, rows visited in
//! index order), at any thread count. The decomposition is only used as
//! a *filter*: for each candidate row the kernel computes the cheap
//! decomposed estimate plus a conservative floating-point error margin,
//! and only when the candidate could possibly beat the caller's current
//! threshold does it re-evaluate the pair with the exact naive kernel.
//! Because thresholds only ever *shrink* the candidate set a naive scan
//! would accept, the surviving updates — and hence FPF selections, min-k
//! tables, and cover radii — are exactly the naive ones.

use crate::distance::Metric;
use crate::knn::Neighbor;
use std::sync::{Barrier, Mutex};

/// Resolves a thread-count knob: `0` means the machine's available
/// parallelism (uncapped), anything else is taken literally.
pub fn resolve_threads(threads: usize) -> usize {
    if threads == 0 {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    } else {
        threads
    }
}

/// Four-accumulator inner product; the independent partial sums let the
/// compiler vectorize (a single serial accumulator cannot be reordered
/// under IEEE semantics).
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; 4];
    let chunks = a.len() / 4;
    for i in 0..chunks {
        let x = &a[i * 4..i * 4 + 4];
        let y = &b[i * 4..i * 4 + 4];
        acc[0] += x[0] * y[0];
        acc[1] += x[1] * y[1];
        acc[2] += x[2] * y[2];
        acc[3] += x[3] * y[3];
    }
    let mut tail = 0.0f32;
    for i in chunks * 4..a.len() {
        tail += a[i] * b[i];
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// Four-accumulator `Σ|aᵢ − bᵢ|` (fast L1 estimate; not fp-identical to
/// the serial `Metric::distance` loop, so only used as a filter).
#[inline]
fn l1_chunked(a: &[f32], b: &[f32]) -> f32 {
    let mut acc = [0.0f32; 4];
    let chunks = a.len() / 4;
    for i in 0..chunks {
        let x = &a[i * 4..i * 4 + 4];
        let y = &b[i * 4..i * 4 + 4];
        acc[0] += (x[0] - y[0]).abs();
        acc[1] += (x[1] - y[1]).abs();
        acc[2] += (x[2] - y[2]).abs();
        acc[3] += (x[3] - y[3]).abs();
    }
    let mut tail = 0.0f32;
    for i in chunks * 4..a.len() {
        tail += (a[i] - b[i]).abs();
    }
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// Norms of a single vector, all computed in one pass.
#[derive(Debug, Clone, Copy, Default)]
pub struct VecNorms {
    /// Squared L2 norm `‖v‖²`.
    pub sq: f32,
    /// L2 norm `‖v‖`.
    pub l2: f32,
    /// L1 norm `‖v‖₁`.
    pub l1: f32,
}

/// Computes [`VecNorms`] for one vector.
pub fn vec_norms(v: &[f32]) -> VecNorms {
    let sq = dot(v, v);
    let mut l1acc = [0.0f32; 4];
    let chunks = v.len() / 4;
    for i in 0..chunks {
        let x = &v[i * 4..i * 4 + 4];
        l1acc[0] += x[0].abs();
        l1acc[1] += x[1].abs();
        l1acc[2] += x[2].abs();
        l1acc[3] += x[3].abs();
    }
    let mut tail = 0.0f32;
    for i in chunks * 4..v.len() {
        tail += v[i].abs();
    }
    let l1 = (l1acc[0] + l1acc[1]) + (l1acc[2] + l1acc[3]) + tail;
    VecNorms {
        sq,
        l2: sq.max(0.0).sqrt(),
        l1,
    }
}

/// Per-query context: the query's norms plus the query-side part of the
/// decomposed-score filter margin.
#[derive(Debug, Clone, Copy)]
pub struct QueryCtx {
    /// Norms of the query vector.
    pub norms: VecNorms,
    /// Query-side part of the filter margin: the per-candidate margin is
    /// `filter_base + eps·(candidate norm)`, algebraically equal to the
    /// `eps·(q + r + 1)` form used in [`BatchDistance::exact_if_below`].
    filter_base: f32,
}

/// Batched query-vs-corpus distance engine: corpus row norms are computed
/// once at construction, then queries are evaluated through the
/// norms-plus-dot decomposition with exact fallback (see module docs).
pub struct BatchDistance<'a> {
    metric: Metric,
    data: &'a [f32],
    dim: usize,
    n: usize,
    sq: Vec<f32>,
    l2: Vec<f32>,
    l1: Vec<f32>,
    /// `(1 − eps)·‖row‖²`: squared norms with the candidate-side filter
    /// margin pre-subtracted, so the scan compares scores against a bound
    /// that no longer depends on the candidate (see [`Self::filter_bound`]).
    sq_f: Vec<f32>,
    /// `eps·‖row‖₁`: candidate-side L1 filter margin, pre-scaled.
    l1_f: Vec<f32>,
    /// Conservative per-unit-scale fp error coefficient for `dim`-length
    /// reductions; deliberately generous — a too-large margin only costs a
    /// few extra exact re-evaluations near the threshold.
    eps: f32,
}

impl<'a> BatchDistance<'a> {
    /// Builds the engine over a row-major corpus with `dim` columns.
    /// `O(n · dim)` to precompute norms.
    pub fn new(metric: Metric, data: &'a [f32], dim: usize) -> Self {
        assert!(dim > 0, "dim must be positive");
        assert_eq!(data.len() % dim, 0, "corpus length not a multiple of dim");
        let n = data.len() / dim;
        let mut sq = Vec::with_capacity(n);
        let mut l2 = Vec::with_capacity(n);
        let mut l1 = Vec::with_capacity(n);
        for row in data.chunks_exact(dim) {
            let nm = vec_norms(row);
            sq.push(nm.sq);
            l2.push(nm.l2);
            l1.push(nm.l1);
        }
        let eps = (4.0 * dim as f32 + 16.0) * f32::EPSILON;
        let sq_f: Vec<f32> = sq.iter().map(|&s| (1.0 - eps) * s).collect();
        let l1_f: Vec<f32> = l1.iter().map(|&s| eps * s).collect();
        Self {
            metric,
            data,
            dim,
            n,
            sq,
            l2,
            l1,
            sq_f,
            l1_f,
            eps,
        }
    }

    /// Number of corpus rows.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Embedding dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Metric this engine evaluates.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Corpus row `i`.
    pub fn row(&self, i: usize) -> &'a [f32] {
        &self.data[i * self.dim..(i + 1) * self.dim]
    }

    /// Prepares the per-query context (norms + filter margin).
    pub fn query_ctx(&self, query: &[f32]) -> QueryCtx {
        debug_assert_eq!(query.len(), self.dim);
        let norms = vec_norms(query);
        let filter_base = match self.metric {
            Metric::L2 | Metric::SquaredL2 => self.eps * (norms.sq + 1.0),
            Metric::L1 => self.eps * (norms.l1 + 1.0),
            Metric::Cosine => 4.0 * self.eps,
        };
        QueryCtx { norms, filter_base }
    }

    /// Exact naive distance (`Metric::distance`) from `query` to row `i`.
    #[inline]
    pub fn exact(&self, query: &[f32], i: usize) -> f32 {
        self.metric.distance(query, self.row(i))
    }

    /// Decomposed distance estimate plus margin filter: returns the exact
    /// naive distance when row `i` *might* be `< threshold`, else `None`.
    /// Guaranteed to return `Some` whenever the exact distance is below the
    /// threshold (the margin over-approximates fp error).
    #[inline]
    pub fn exact_if_below(
        &self,
        query: &[f32],
        ctx: &QueryCtx,
        i: usize,
        threshold: f32,
    ) -> Option<f32> {
        let row = self.row(i);
        let passes = match self.metric {
            Metric::L2 => {
                let s = ctx.norms.sq + self.sq[i] - 2.0 * dot(query, row);
                s < threshold * threshold + self.eps * (ctx.norms.sq + self.sq[i] + 1.0)
            }
            Metric::SquaredL2 => {
                let s = ctx.norms.sq + self.sq[i] - 2.0 * dot(query, row);
                s < threshold + self.eps * (ctx.norms.sq + self.sq[i] + 1.0)
            }
            Metric::L1 => {
                let s = l1_chunked(query, row);
                s < threshold + self.eps * (ctx.norms.l1 + self.l1[i] + 1.0)
            }
            Metric::Cosine => {
                let denom = (ctx.norms.l2 * self.l2[i]).max(1e-12);
                let s = 1.0 - dot(query, row) / denom;
                s < threshold + 4.0 * self.eps
            }
        };
        if passes {
            Some(self.exact(query, i))
        } else {
            None
        }
    }

    /// Decomposed score for rows `[c0, c1)` written to `buf` in a
    /// branch-free loop (the hot kernel: one vectorized dot or L1 sum per
    /// row, no per-candidate dispatch). The candidate-side filter margin is
    /// folded into the score (`sq_f`/`l1_f`), so the score is comparable
    /// against the candidate-independent [`BatchDistance::filter_bound`];
    /// L2 scores live in *squared* distance space.
    // Out of line on purpose: inlined into `topk_into`'s tile loop, its
    // only caller, the min-k build measures 5 % slower (20 000 × 800 × 32).
    #[inline(never)]
    fn scores_block(&self, query: &[f32], ctx: &QueryCtx, c0: usize, c1: usize, buf: &mut [f32]) {
        debug_assert_eq!(buf.len(), c1 - c0);
        let rows = &self.data[c0 * self.dim..c1 * self.dim];
        match self.metric {
            Metric::L2 | Metric::SquaredL2 => {
                let qsq = ctx.norms.sq;
                for (s, (row, &rsq)) in buf
                    .iter_mut()
                    .zip(rows.chunks_exact(self.dim).zip(&self.sq_f[c0..c1]))
                {
                    *s = qsq + rsq - 2.0 * dot(query, row);
                }
            }
            Metric::L1 => {
                for (s, (row, &m)) in buf
                    .iter_mut()
                    .zip(rows.chunks_exact(self.dim).zip(&self.l1_f[c0..c1]))
                {
                    *s = l1_chunked(query, row) - m;
                }
            }
            Metric::Cosine => {
                let ql2 = ctx.norms.l2;
                for (s, (row, &rl2)) in buf
                    .iter_mut()
                    .zip(rows.chunks_exact(self.dim).zip(&self.l2[c0..c1]))
                {
                    *s = 1.0 - dot(query, row) / (ql2 * rl2).max(1e-12);
                }
            }
        }
    }

    /// Threshold for the decomposed scores of [`Self::scores_block`]: a
    /// score below this *might* correspond to an exact distance
    /// `< threshold` (margins folded in on both sides), so the caller must
    /// re-evaluate exactly; at or above it the exact distance is provably
    /// `>= threshold`. Candidate-independent, so callers hoist it out of
    /// the scan and recompute only when the threshold changes.
    #[inline]
    fn filter_bound(&self, ctx: &QueryCtx, threshold: f32) -> f32 {
        match self.metric {
            Metric::L2 => threshold * threshold + ctx.filter_base,
            Metric::SquaredL2 | Metric::L1 | Metric::Cosine => threshold + ctx.filter_base,
        }
    }

    /// Triangle-inequality skip bound (L2 and L1 only). `gap` is the exact
    /// `Metric::distance` between a new centre `c` and an earlier centre
    /// `p`; a row whose stored distance to `p` is `<=` the returned value
    /// is no closer to `c` *as `Metric::distance` computes it*, so the
    /// naive scan's `d < min_dist` is false and the row needs no
    /// evaluation. `NEG_INFINITY` (never skip) for a non-finite gap.
    ///
    /// Derivation. Write `u = EPSILON/2`, `D` for the real and `D̂` for the
    /// computed distance. `Metric::distance` adds `dim` rounded
    /// non-negative terms serially. L1: `D̂ = D·(1+θ)`, `|θ| ≤ dim·u`, and
    /// no absolute term because f32 add/sub is exact in the subnormal
    /// range. L2 squares each rounded difference (`3u`), sums (`dim − 1`
    /// more), and takes a root that halves the total and adds a rounding:
    /// `|θ| ≤ (dim/2 + 2)·u`, plus an absolute `β ≤ √dim·2⁻⁷⁵` for squares
    /// that underflow (each loses at most 2⁻¹⁵⁰). Let `a = dim·u` cover
    /// both. `D(r,c) ≥ D(c,p) − D(r,p)` then gives `D̂(r,c) ≥ D̂(r,p)`
    /// whenever `D̂(r,p) ≤ ½·[(1−a)/(1+a)·(D̂(c,p) − β) − 2β]`. The code
    /// shrinks the gap by `(2·dim + 8)·EPSILON` — twice the
    /// `2a = dim·EPSILON` the bound needs, the rest absorbing second-order
    /// terms and the rounding of this expression itself — and subtracts
    /// `√(dim·MIN_POSITIVE) = √dim·2⁻⁶³ ≫ 3β`. A finite `D̂` proves that no
    /// intermediate overflowed, so the error model held.
    #[inline]
    fn triangle_skip_bound(&self, gap: f32) -> f32 {
        debug_assert!(self.metric.is_metric());
        if !gap.is_finite() {
            return f32::NEG_INFINITY;
        }
        let dim = self.dim as f32;
        let rel = (2.0 * dim + 8.0) * f32::EPSILON;
        let abs = (dim * f32::MIN_POSITIVE).sqrt();
        0.5 * (gap * (1.0 - rel) - abs)
    }

    /// Fills `entries` (`queries_rows × k` neighbors, ascending by
    /// distance) with each query row's `k` nearest corpus rows. Results are
    /// identical to the naive per-pair scan in corpus index order. Queries
    /// are processed in small tiles so each corpus block stays cache-hot
    /// across several queries.
    pub fn topk_into(&self, queries: &[f32], k: usize, entries: &mut [Neighbor]) {
        assert_eq!(queries.len() % self.dim, 0);
        let n_q = queries.len() / self.dim;
        assert!((1..=self.n).contains(&k), "k out of range");
        assert_eq!(entries.len(), n_q * k);
        const TILE_Q: usize = 8;
        const TILE_C: usize = 512;
        let tile_c = (4096 / self.dim).clamp(16, TILE_C);
        let mut buf = [0.0f32; TILE_C];
        let mut heaps: Vec<Vec<Neighbor>> =
            (0..TILE_Q).map(|_| Vec::with_capacity(k + 1)).collect();
        let mut ctxs: Vec<QueryCtx> = Vec::with_capacity(TILE_Q);

        let q_tile_len = TILE_Q * self.dim;
        for (q_tile, e_tile) in queries
            .chunks(q_tile_len)
            .zip(entries.chunks_mut(TILE_Q * k))
        {
            let tq = q_tile.len() / self.dim;
            ctxs.clear();
            for q in q_tile.chunks_exact(self.dim) {
                ctxs.push(self.query_ctx(q));
            }
            for h in heaps.iter_mut().take(tq) {
                h.clear();
            }
            let mut c0 = 0usize;
            while c0 < self.n {
                let c1 = (c0 + tile_c).min(self.n);
                for (qi, q) in q_tile.chunks_exact(self.dim).enumerate() {
                    let heap = &mut heaps[qi];
                    let ctx = &ctxs[qi];
                    let scores = &mut buf[..c1 - c0];
                    self.scores_block(q, ctx, c0, c1, scores);
                    let mut bound = if heap.len() < k {
                        f32::INFINITY
                    } else {
                        self.filter_bound(ctx, heap[k - 1].dist)
                    };
                    for (off, &s) in scores.iter().enumerate() {
                        if s >= bound {
                            continue;
                        }
                        let g = c0 + off;
                        if heap.len() < k {
                            let d = self.exact(q, g);
                            insert_sorted(
                                heap,
                                Neighbor {
                                    rep: g as u32,
                                    dist: d,
                                },
                            );
                            if heap.len() == k {
                                bound = self.filter_bound(ctx, heap[k - 1].dist);
                            }
                            continue;
                        }
                        let kth = heap[k - 1].dist;
                        let d = self.exact(q, g);
                        if d < kth {
                            heap.pop();
                            insert_sorted(
                                heap,
                                Neighbor {
                                    rep: g as u32,
                                    dist: d,
                                },
                            );
                            bound = self.filter_bound(ctx, heap[k - 1].dist);
                        }
                    }
                }
                c0 = c1;
            }
            for (qi, out) in e_tile.chunks_exact_mut(k).enumerate() {
                out.copy_from_slice(&heaps[qi]);
            }
        }
    }

    /// Multi-threaded [`BatchDistance::topk_into`]: query rows are split
    /// into contiguous chunks across crossbeam-scoped workers (each row's
    /// result is independent, so the output is bit-identical to serial).
    pub fn topk_parallel(
        &self,
        queries: &[f32],
        k: usize,
        threads: usize,
        entries: &mut [Neighbor],
    ) {
        let dim = self.dim;
        par_map_row_chunks(entries, k, threads, |start, block| {
            let rows = block.len() / k;
            self.topk_into(&queries[start * dim..(start + rows) * dim], k, block);
        });
    }
}

/// Smallest per-worker, per-centre block (`rows · dim` f32 elements) for
/// which an FPF selection runs as a worker team; below it the one barrier
/// exchange per centre (≈ 20 µs) costs more than the split saves and the
/// selection runs inline on the calling thread. Measured, not
/// configurable: the sweep is in DESIGN.md §5.
pub const FPF_TEAM_MIN_BLOCK: usize = 1 << 19;

/// `nearest` mark of a row that is itself a centre: never a furthest-point
/// candidate, never skipped.
const SELECTED: u32 = u32::MAX;

/// One selection-long furthest-point-first scan: owns every row's distance
/// to its nearest centre and which centre that is, and folds centres in one
/// at a time. Under L2/L1 a row is evaluated against a new centre only when
/// the triangle inequality cannot rule the pair out (the margin is derived
/// at `BatchDistance::triangle_skip_bound`); survivors go through the
/// decomposed-score filter and the exact kernel, so centres and `min_dist`
/// are bit-identical to the naive scan at any thread count. Threads are
/// spawned once per [`FpfScan::grow`] / [`FpfScan::push_all`] call, each
/// owning one contiguous row block for the whole call.
pub struct FpfScan<'a> {
    engine: BatchDistance<'a>,
    threads: usize,
    centres: Vec<usize>,
    min_dist: Vec<f32>,
    /// Index into `centres` of the centre that set `min_dist[r]` (or
    /// [`SELECTED`]); meaningful only where `min_dist[r]` is finite.
    nearest: Vec<u32>,
    pairs_skipped: u64,
}

impl<'a> FpfScan<'a> {
    /// A scan over a row-major corpus with no centre yet (`min_dist` all
    /// `∞`). `threads == 0` means the machine's available parallelism.
    pub fn new(metric: Metric, data: &'a [f32], dim: usize, threads: usize) -> Self {
        let engine = BatchDistance::new(metric, data, dim);
        let n = engine.n();
        assert!(n < SELECTED as usize, "corpus too large for u32 centre ids");
        Self {
            engine,
            threads,
            centres: Vec::new(),
            min_dist: vec![f32::INFINITY; n],
            nearest: vec![0; n],
            pairs_skipped: 0,
        }
    }

    /// Furthest-point-first: folds in row `first`, then `count − 1` more
    /// centres, each the not-yet-selected row furthest from the centres so
    /// far (lowest row on ties). Stops early once every row is a centre.
    pub fn grow(&mut self, first: usize, count: usize) {
        if count > 0 {
            self.run(&[first], count - 1);
        }
    }

    /// Folds in externally chosen centres, in order.
    pub fn push_all(&mut self, centres: &[usize]) {
        self.run(centres, 0);
    }

    /// Centres folded in so far, in order.
    pub fn centres(&self) -> &[usize] {
        &self.centres
    }

    /// `(evaluated, skipped)` counts of (row, centre) pairs: evaluated
    /// pairs touched the row's data, skipped ones were ruled out by the
    /// triangle inequality. They sum to `rows · centres`.
    pub fn pair_counts(&self) -> (u64, u64) {
        let pairs = (self.min_dist.len() * self.centres.len()) as u64;
        (pairs - self.pairs_skipped, self.pairs_skipped)
    }

    /// Consumes the scan: the centres in order, and every row's distance to
    /// its nearest centre.
    pub fn into_parts(self) -> (Vec<usize>, Vec<f32>) {
        (self.centres, self.min_dist)
    }

    /// Folds in `seeds`, then up to `greedy` furthest-point picks, as one
    /// team: the row range is cut into one contiguous block per worker,
    /// block 0 runs on the calling thread, and the only synchronisation is
    /// one [`Exchange::furthest`] per greedy pick.
    fn run(&mut self, seeds: &[usize], greedy: usize) {
        let n = self.engine.n();
        assert!(seeds.iter().all(|&s| s < n), "centre index out of range");
        if seeds.is_empty() {
            return;
        }
        let threads = resolve_threads(self.threads).clamp(1, n);
        let workers = if n.div_ceil(threads) * self.engine.dim() >= FPF_TEAM_MIN_BLOCK {
            threads
        } else {
            1
        };
        let rows_per = n.div_ceil(workers);
        let mut blocks: Vec<ScanBlock<'_>> = self
            .min_dist
            .chunks_mut(rows_per)
            .zip(self.nearest.chunks_mut(rows_per))
            .enumerate()
            .map(|(w, (min_dist, nearest))| ScanBlock {
                start: w * rows_per,
                min_dist,
                nearest,
                centres: self.centres.clone(),
                skip_at: Vec::new(),
                pairs_skipped: 0,
            })
            .collect();
        let exchange = Exchange::new(blocks.len());
        let (engine, exchange) = (&self.engine, &exchange);
        std::thread::scope(|scope| {
            let mut team = blocks.iter_mut().enumerate();
            let (_, mine) = team.next().expect("a non-empty corpus has a block");
            let handles: Vec<_> = team
                .map(|(w, block)| {
                    scope.spawn(move || block.run(engine, seeds, greedy, exchange, w))
                })
                .collect();
            mine.run(engine, seeds, greedy, exchange, 0);
            for handle in handles {
                handle.join().expect("fpf scan worker panicked");
            }
        });
        self.pairs_skipped += blocks.iter().map(|b| b.pairs_skipped).sum::<u64>();
        self.centres = blocks.swap_remove(0).centres;
    }
}

/// One worker's share of an [`FpfScan`]: a contiguous row block, plus the
/// worker's own copy of the centre list. Every worker extends its copy
/// identically (the exchange hands all of them the same pick), so no
/// centre list is shared while the team runs.
struct ScanBlock<'s> {
    start: usize,
    min_dist: &'s mut [f32],
    nearest: &'s mut [u32],
    centres: Vec<usize>,
    /// Scratch of [`ScanBlock::fold`]: per earlier centre, the `min_dist`
    /// at or below which its rows cannot be closer to the centre being
    /// folded in. Empty when nothing may be skipped.
    skip_at: Vec<f32>,
    pairs_skipped: u64,
}

impl ScanBlock<'_> {
    /// Runs the whole plan on this block.
    fn run(
        &mut self,
        engine: &BatchDistance<'_>,
        seeds: &[usize],
        greedy: usize,
        exchange: &Exchange,
        me: usize,
    ) {
        let mut furthest = None;
        for &seed in seeds {
            furthest = self.fold(engine, seed);
        }
        for round in 0..greedy {
            let Some(next) = exchange.furthest(round, me, furthest) else {
                break;
            };
            furthest = self.fold(engine, next);
        }
    }

    /// Folds corpus row `centre` in as the next centre: lowers `min_dist`
    /// where the new centre is closer and returns the block's furthest
    /// not-yet-selected row `(row, min_dist)`, first-strict-max like the
    /// naive scan.
    fn fold(&mut self, engine: &BatchDistance<'_>, centre: usize) -> Option<(usize, f32)> {
        let query = engine.row(centre);
        let ctx = engine.query_ctx(query);
        self.skip_at.clear();
        if engine.metric().is_metric() {
            self.skip_at.extend(
                self.centres
                    .iter()
                    .map(|&p| engine.triangle_skip_bound(engine.exact(query, p))),
            );
        }
        let id = self.centres.len() as u32;
        self.centres.push(centre);
        if let Some(own) = centre
            .checked_sub(self.start)
            .and_then(|j| self.nearest.get_mut(j))
        {
            *own = SELECTED;
        }

        let (start, skip_at) = (self.start, &self.skip_at[..]);
        let mut skipped = 0u64;
        let mut best = None;
        let mut best_d = f32::NEG_INFINITY;
        for (j, (md, near)) in self
            .min_dist
            .iter_mut()
            .zip(self.nearest.iter_mut())
            .enumerate()
        {
            let cur = *md;
            if skip_at.get(*near as usize).is_some_and(|&s| cur <= s) {
                skipped += 1;
            } else if let Some(d) = engine.exact_if_below(query, &ctx, start + j, cur) {
                if d < cur {
                    *md = d;
                    if *near != SELECTED {
                        *near = id;
                    }
                }
            }
            if *md > best_d && *near != SELECTED {
                best_d = *md;
                best = Some(start + j);
            }
        }
        self.pairs_skipped += skipped;
        best.map(|row| (row, best_d))
    }
}

/// The per-pick rendezvous of an [`FpfScan`] team: every worker posts its
/// block's furthest row, waits at the barrier, and reduces all posts to the
/// same global pick. Posts alternate between two banks by round parity: a
/// worker can be at most one barrier ahead, so it never overwrites a bank
/// another worker is still reading.
struct Exchange {
    barrier: Barrier,
    banks: [Vec<Post>; 2],
}

/// One worker's furthest unselected row `(row, min_dist)`, if its block has one.
type Post = Mutex<Option<(usize, f32)>>;

impl Exchange {
    fn new(workers: usize) -> Self {
        let bank = || (0..workers).map(|_| Mutex::new(None)).collect();
        Self {
            barrier: Barrier::new(workers),
            banks: [bank(), bank()],
        }
    }

    /// Global furthest row: blocks are in row order and the comparison is
    /// strict, so ties fall to the lowest row exactly as in a serial scan.
    fn furthest(&self, round: usize, me: usize, mine: Option<(usize, f32)>) -> Option<usize> {
        let bank = &self.banks[round % 2];
        *bank[me].lock().expect("fpf scan worker panicked") = mine;
        self.barrier.wait();
        let mut best = None;
        let mut best_d = f32::NEG_INFINITY;
        for post in bank {
            if let Some((row, d)) = *post.lock().expect("fpf scan worker panicked") {
                if d > best_d {
                    best_d = d;
                    best = Some(row);
                }
            }
        }
        best
    }
}

/// Inserts into a short ascending-sorted vector (k is small; linear shift
/// beats a heap for k ≤ ~32).
#[inline]
pub(crate) fn insert_sorted(list: &mut Vec<Neighbor>, n: Neighbor) {
    let pos = list.partition_point(|x| x.dist <= n.dist);
    list.insert(pos, n);
}

/// Splits `data` (rows of `row_width` elements) into up to `threads`
/// contiguous row chunks and runs `f(start_row, chunk)` on each from a
/// crossbeam-scoped worker, returning the per-chunk results in chunk
/// order. Falls back to a single inline call for tiny inputs or
/// `threads == 1`, so callers get identical results either way.
pub fn par_map_row_chunks<T, R, F>(data: &mut [T], row_width: usize, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, &mut [T]) -> R + Sync,
{
    let rows = if row_width == 0 {
        0
    } else {
        data.len() / row_width
    };
    let threads = resolve_threads(threads).max(1);
    if threads == 1 || rows < 2 * threads {
        return vec![f(0, data)];
    }
    let rows_per = rows.div_ceil(threads);
    let result = crossbeam::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        let mut start = 0usize;
        for chunk in data.chunks_mut(rows_per * row_width) {
            let s = start;
            start += chunk.len() / row_width;
            let fr = &f;
            handles.push(scope.spawn(move |_| fr(s, chunk)));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("kernel worker panicked"))
            .collect::<Vec<R>>()
    });
    result.expect("kernel thread scope failed")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_update(metric: Metric, data: &[f32], dim: usize, q: usize, md: &mut [f32]) {
        let qrow = &data[q * dim..(q + 1) * dim];
        for (i, row) in data.chunks_exact(dim).enumerate() {
            let d = metric.distance(qrow, row);
            if d < md[i] {
                md[i] = d;
            }
        }
    }

    fn pseudo_data(n: usize, dim: usize, seed: u32) -> Vec<f32> {
        // Deterministic LCG so these tests need no external RNG crate.
        let mut state = seed as u64 | 1;
        (0..n * dim)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as i32 % 1000) as f32 / 250.0
            })
            .collect()
    }

    #[test]
    fn scan_matches_naive_for_all_metrics() {
        for metric in [Metric::L2, Metric::SquaredL2, Metric::L1, Metric::Cosine] {
            let dim = 7;
            let data = pseudo_data(97, dim, 42);
            let mut md_naive = vec![f32::INFINITY; 97];
            // Row 13 twice: a centre that is already selected changes nothing.
            let given = [0usize, 13, 55, 13];
            for &q in &given {
                naive_update(metric, &data, dim, q, &mut md_naive);
            }
            for threads in 1..=4 {
                let mut scan = FpfScan::new(metric, &data, dim, threads);
                scan.push_all(&given[..2]);
                scan.push_all(&given[2..]);
                let (evaluated, skipped) = scan.pair_counts();
                assert_eq!(evaluated + skipped, 97 * 4);
                assert!(metric.is_metric() || skipped == 0);
                let (centres, min_dist) = scan.into_parts();
                assert_eq!(centres, given, "{metric:?} {threads} threads");
                assert_eq!(min_dist, md_naive, "{metric:?} {threads} threads");
            }
        }
    }

    #[test]
    fn scan_grows_to_the_furthest_unselected_row() {
        // 0, 1, 2, ..., 10 on a line: the extremes, then the midpoint.
        let data: Vec<f32> = (0..11).map(|i| i as f32).collect();
        let mut scan = FpfScan::new(Metric::L2, &data, 1, 1);
        scan.grow(0, 2);
        assert_eq!(scan.centres(), [0, 10]);
        // A second call continues from the state the first one left.
        scan.push_all(&[5]);
        let (centres, min_dist) = scan.into_parts();
        assert_eq!(centres, [0, 10, 5]);
        assert_eq!(
            min_dist,
            [0.0, 1.0, 2.0, 2.0, 1.0, 0.0, 1.0, 2.0, 2.0, 1.0, 0.0]
        );
    }

    #[test]
    fn skip_bound_never_exceeds_half_the_gap() {
        let data = [0.0f32; 8];
        for metric in [Metric::L2, Metric::L1] {
            let engine = BatchDistance::new(metric, &data, 8);
            for gap in [0.0f32, 1e-30, 1e-6, 1.0, 3e4, 1e30] {
                let bound = engine.triangle_skip_bound(gap);
                assert!(bound < 0.5 * gap, "{gap}");
            }
            assert!(engine.triangle_skip_bound(1.0) > 0.4999);
            assert_eq!(engine.triangle_skip_bound(f32::INFINITY), f32::NEG_INFINITY);
            assert_eq!(engine.triangle_skip_bound(f32::NAN), f32::NEG_INFINITY);
        }
    }

    #[test]
    fn topk_matches_naive_scan() {
        for metric in [Metric::L2, Metric::SquaredL2, Metric::L1, Metric::Cosine] {
            let dim = 5;
            let corpus = pseudo_data(37, dim, 7);
            let queries = pseudo_data(23, dim, 9);
            let k = 4;
            let engine = BatchDistance::new(metric, &corpus, dim);
            let mut fast = vec![
                Neighbor {
                    rep: 0,
                    dist: f32::INFINITY
                };
                23 * k
            ];
            engine.topk_parallel(&queries, k, 3, &mut fast);
            for (qi, q) in queries.chunks_exact(dim).enumerate() {
                let mut heap: Vec<Neighbor> = Vec::new();
                for (j, row) in corpus.chunks_exact(dim).enumerate() {
                    let d = metric.distance(q, row);
                    if heap.len() < k {
                        insert_sorted(
                            &mut heap,
                            Neighbor {
                                rep: j as u32,
                                dist: d,
                            },
                        );
                    } else if d < heap[k - 1].dist {
                        heap.pop();
                        insert_sorted(
                            &mut heap,
                            Neighbor {
                                rep: j as u32,
                                dist: d,
                            },
                        );
                    }
                }
                assert_eq!(
                    &fast[qi * k..(qi + 1) * k],
                    &heap[..],
                    "{metric:?} query {qi}"
                );
            }
        }
    }

    #[test]
    fn resolve_threads_zero_is_available_parallelism() {
        assert!(resolve_threads(0) >= 1);
        assert_eq!(resolve_threads(3), 3);
    }

    #[test]
    fn par_map_covers_all_rows_in_order() {
        let mut data: Vec<u32> = (0..100).collect();
        let starts = par_map_row_chunks(&mut data, 2, 4, |start, chunk| {
            for v in chunk.iter_mut() {
                *v += 1;
            }
            (start, chunk.len())
        });
        assert_eq!(starts.iter().map(|&(_, l)| l).sum::<usize>(), 100);
        let mut expect_start = 0;
        for (s, l) in starts {
            assert_eq!(s, expect_start);
            expect_start += l / 2;
        }
        assert!(data.iter().enumerate().all(|(i, &v)| v == i as u32 + 1));
    }
}
