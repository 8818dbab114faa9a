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

    /// One FPF/cover update step over a contiguous block of the corpus
    /// starting at row `start`: `min_dist[j]` is lowered to
    /// `d(query, row start+j)` where that improves, and the block's
    /// running argmax of the *updated* `min_dist` is returned
    /// (`(offset_in_block, value)`, first-strict-max like the naive scan).
    pub fn update_min_block(
        &self,
        query: &[f32],
        ctx: &QueryCtx,
        start: usize,
        min_dist: &mut [f32],
    ) -> (usize, f32) {
        const TILE: usize = 512;
        let mut buf = [0.0f32; TILE];
        let mut best = 0usize;
        let mut best_d = f32::NEG_INFINITY;
        for (tile_idx, md_tile) in min_dist.chunks_mut(TILE).enumerate() {
            let c0 = start + tile_idx * TILE;
            let scores = &mut buf[..md_tile.len()];
            self.scores_block(query, ctx, c0, c0 + md_tile.len(), scores);
            for (j, (md, &s)) in md_tile.iter_mut().zip(scores.iter()).enumerate() {
                let cur = *md;
                if s < self.filter_bound(ctx, cur) {
                    let d = self.exact(query, c0 + j);
                    if d < cur {
                        *md = d;
                    }
                }
                if *md > best_d {
                    best_d = *md;
                    best = tile_idx * TILE + j;
                }
            }
        }
        (best, best_d)
    }

    /// Multi-threaded [`BatchDistance::update_min_block`] over the whole
    /// corpus. Returns the global argmax `(row, value)` of the updated
    /// `min_dist`, identical to a serial first-strict-max scan.
    pub fn update_min_parallel(
        &self,
        query: &[f32],
        min_dist: &mut [f32],
        threads: usize,
    ) -> (usize, f32) {
        let ctx = self.query_ctx(query);
        let partials = par_map_row_chunks(min_dist, 1, threads, |start, block| {
            let (j, v) = self.update_min_block(query, &ctx, start, block);
            (start + j, v)
        });
        let mut best = (0usize, f32::NEG_INFINITY);
        for (i, v) in partials {
            if v > best.1 {
                best = (i, v);
            }
        }
        best
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

    fn naive_update(metric: Metric, data: &[f32], dim: usize, q: usize, md: &mut [f32]) -> usize {
        let qrow = &data[q * dim..(q + 1) * dim];
        let mut best = 0usize;
        let mut best_d = f32::NEG_INFINITY;
        for (i, row) in data.chunks_exact(dim).enumerate() {
            let d = metric.distance(qrow, row);
            if d < md[i] {
                md[i] = d;
            }
            if md[i] > best_d {
                best_d = md[i];
                best = i;
            }
        }
        best
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
    fn update_min_matches_naive_for_all_metrics() {
        for metric in [Metric::L2, Metric::SquaredL2, Metric::L1, Metric::Cosine] {
            let dim = 7;
            let data = pseudo_data(97, dim, 42);
            let engine = BatchDistance::new(metric, &data, dim);
            let mut md_naive = vec![f32::INFINITY; 97];
            let mut md_fast = vec![f32::INFINITY; 97];
            for (step, q) in [0usize, 13, 55, 13].iter().enumerate() {
                let b_naive = naive_update(metric, &data, dim, *q, &mut md_naive);
                let (b_fast, _) =
                    engine.update_min_parallel(engine.row(*q), &mut md_fast, 1 + step % 4);
                assert_eq!(b_naive, b_fast, "{metric:?} step {step}");
                assert_eq!(md_naive, md_fast, "{metric:?} step {step}");
            }
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
