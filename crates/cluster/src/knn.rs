//! Min-k neighbor tables (paper Algorithm 1: `MinKDistances`).
//!
//! For every record, TASTI stores the `k` nearest cluster representatives in
//! embedding space together with their distances; score propagation (§4.3)
//! reads only this table, never the raw embeddings. The table supports
//! incremental extension with new representatives — the operation behind
//! index cracking (§3.3), which the paper notes is "computationally efficient
//! and trivially parallelizable" (each record's update is independent).
//!
//! Assignment can run exactly (the historical behaviour) or through the
//! approximate candidate stage in [`crate::ann`]; see
//! [`MinKTable::build_with_strategy`]. A table built with an IVF strategy
//! keeps its [`crate::ann::RepRouter`] so incremental mutation stays
//! coherent: `add_representative` updates the router in step with the
//! table, `append_records` routes new records through it, and whenever the
//! router can no longer be trusted (drift past the rebuild threshold, or
//! any bookkeeping mismatch) it is *dropped* rather than used — stale
//! routing is never allowed to degrade recall silently.

use crate::ann::{self, AssignStats, AssignStrategy, RepRouter};
use crate::distance::Metric;
use crate::kernels::BatchDistance;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// One `(representative, distance)` entry in a record's neighbor list.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Neighbor {
    /// Index into the representative list (not a record index).
    pub rep: u32,
    /// Embedding-space distance from the record to this representative.
    pub dist: f32,
}

/// Typed failure modes of min-k table construction and lookup — the
/// degenerate cases (`k = 0` tables, zero representatives, empty tables,
/// out-of-range records) that would otherwise surface as panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KnnError {
    /// The representative set is empty — no neighbor list can exist.
    NoRepresentatives,
    /// The embedding dimensionality is zero.
    ZeroDim,
    /// A flat embedding buffer's length is not a multiple of `dim`.
    LengthNotMultipleOfDim {
        /// Which buffer (`records` or `reps`).
        what: &'static str,
        /// The offending length.
        len: usize,
        /// The expected row width.
        dim: usize,
    },
    /// The table holds no records.
    EmptyTable,
    /// The table was assembled with `k = 0` (no neighbors per record).
    ZeroK,
    /// A record index past the end of the table.
    RecordOutOfRange {
        /// The requested record.
        record: usize,
        /// Records in the table.
        n_records: usize,
    },
}

impl std::fmt::Display for KnnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KnnError::NoRepresentatives => write!(f, "need at least one representative"),
            KnnError::ZeroDim => write!(f, "dim must be positive"),
            KnnError::LengthNotMultipleOfDim { what, len, dim } => {
                write!(f, "{what} length {len} is not a multiple of dim {dim}")
            }
            KnnError::EmptyTable => write!(f, "table holds no records"),
            KnnError::ZeroK => write!(f, "table was built with k = 0"),
            KnnError::RecordOutOfRange { record, n_records } => {
                write!(
                    f,
                    "record index {record} out of range ({n_records} records)"
                )
            }
        }
    }
}

impl std::error::Error for KnnError {}

/// For every record, its `k` nearest representatives sorted by ascending
/// distance. Stored flat (`n_records × k`) for locality.
///
/// ```
/// use tasti_cluster::{Metric, MinKTable};
/// let records = [0.0f32, 1.0, 2.0, 9.0];
/// let reps = [0.0f32, 10.0];
/// let t = MinKTable::build(&records, &reps, 1, 1, Metric::L2);
/// assert_eq!(t.nearest(0).rep, 0);
/// assert_eq!(t.nearest(3).rep, 1); // 9.0 is closer to rep 10.0
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MinKTable {
    k: usize,
    n_records: usize,
    n_reps: usize,
    entries: Vec<Neighbor>,
    /// IVF routing structure when the table was built approximately.
    /// Deliberately not persisted: a reloaded table re-derives (or does
    /// without) routing, so a snapshot can never carry a stale router.
    #[serde(skip, default)]
    router: Option<Arc<RepRouter>>,
}

impl MinKTable {
    /// Builds the table by brute-force scan: for each record embedding, the
    /// `k` closest of `reps` under `metric`. `records` and `reps` are
    /// row-major with `dim` columns. `O(n_records · n_reps · dim)`.
    pub fn build(records: &[f32], reps: &[f32], dim: usize, k: usize, metric: Metric) -> Self {
        Self::build_parallel(records, reps, dim, k, metric, 1)
    }

    /// Parallel variant of [`MinKTable::build`]: records are split across
    /// `threads` crossbeam-scoped workers (each record's neighbor list is
    /// independent, so the result is bit-identical to the serial build).
    /// `threads = 0` picks the machine's available parallelism. The scan
    /// runs on the [`BatchDistance`] kernel engine — norms precomputed
    /// once, blocked dots, exact fallback — and matches the naive
    /// per-pair scan bit-for-bit.
    pub fn build_parallel(
        records: &[f32],
        reps: &[f32],
        dim: usize,
        k: usize,
        metric: Metric,
        threads: usize,
    ) -> Self {
        assert!(dim > 0, "dim must be positive");
        assert_eq!(records.len() % dim, 0);
        assert_eq!(reps.len() % dim, 0);
        let n_records = records.len() / dim;
        let n_reps = reps.len() / dim;
        assert!(n_reps > 0, "need at least one representative");
        let k = k.min(n_reps).max(1);

        let engine = BatchDistance::new(metric, reps, dim);
        let mut entries = vec![
            Neighbor {
                rep: 0,
                dist: f32::INFINITY
            };
            n_records * k
        ];
        engine.topk_parallel(records, k, threads, &mut entries);
        Self {
            k,
            n_records,
            n_reps,
            entries,
            router: None,
        }
    }

    /// Non-panicking variant of [`MinKTable::build_parallel`]: degenerate
    /// inputs (zero dim, empty rep set, misaligned buffers) come back as
    /// typed [`KnnError`]s instead of asserts.
    pub fn try_build_parallel(
        records: &[f32],
        reps: &[f32],
        dim: usize,
        k: usize,
        metric: Metric,
        threads: usize,
    ) -> Result<Self, KnnError> {
        if dim == 0 {
            return Err(KnnError::ZeroDim);
        }
        if records.len() % dim != 0 {
            return Err(KnnError::LengthNotMultipleOfDim {
                what: "records",
                len: records.len(),
                dim,
            });
        }
        if reps.len() % dim != 0 {
            return Err(KnnError::LengthNotMultipleOfDim {
                what: "reps",
                len: reps.len(),
                dim,
            });
        }
        if reps.is_empty() {
            return Err(KnnError::NoRepresentatives);
        }
        Ok(Self::build_parallel(records, reps, dim, k, metric, threads))
    }

    /// Builds the table under an [`AssignStrategy`]: `Exact` (and `Auto`
    /// below its size thresholds, and IVF whose probe budget covers every
    /// cell) is bit-identical to [`MinKTable::build_parallel`]; IVF runs
    /// the [`crate::ann`] candidate stage with its recall safeguards and
    /// attaches the router for coherent incremental mutation. Also returns
    /// the assignment counters for telemetry.
    pub fn build_with_strategy(
        records: &[f32],
        reps: &[f32],
        dim: usize,
        k: usize,
        metric: Metric,
        threads: usize,
        strategy: &AssignStrategy,
    ) -> (Self, AssignStats) {
        let outcome = ann::assign(records, reps, dim, k, metric, threads, strategy);
        let n_records = records.len() / dim;
        let n_reps = reps.len() / dim;
        (
            Self {
                k: outcome.k,
                n_records,
                n_reps,
                entries: outcome.entries,
                router: outcome.router,
            },
            outcome.stats,
        )
    }

    /// Assembles a table from raw parts (degenerate-table tests only; the
    /// caller guarantees `entries.len() == n_records · k`).
    #[cfg(test)]
    pub(crate) fn from_parts(
        k: usize,
        n_records: usize,
        n_reps: usize,
        entries: Vec<Neighbor>,
    ) -> Self {
        assert_eq!(entries.len(), n_records * k);
        Self {
            k,
            n_records,
            n_reps,
            entries,
            router: None,
        }
    }

    /// Number of neighbors kept per record.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of records covered.
    pub fn n_records(&self) -> usize {
        self.n_records
    }

    /// Number of representatives currently known to the table.
    pub fn n_reps(&self) -> usize {
        self.n_reps
    }

    /// The ANN router attached by an IVF build, if one is present and
    /// coherent. `None` for exact builds, deserialized tables, and tables
    /// whose router was invalidated by incremental mutation.
    pub fn router(&self) -> Option<&RepRouter> {
        self.router.as_deref()
    }

    /// Attaches a router (tests of the staleness contract only).
    #[cfg(test)]
    pub(crate) fn set_router_for_test(&mut self, router: Option<Arc<RepRouter>>) {
        self.router = router;
    }

    /// The `k` nearest representatives of `record`, ascending by distance.
    ///
    /// Panics on degenerate tables or out-of-range records; see
    /// [`MinKTable::try_neighbors`] for the typed-error variant.
    pub fn neighbors(&self, record: usize) -> &[Neighbor] {
        match self.try_neighbors(record) {
            Ok(ns) => ns,
            Err(KnnError::RecordOutOfRange { .. }) => panic!("record index out of range"),
            Err(e) => panic!("{e}"),
        }
    }

    /// Non-panicking [`MinKTable::neighbors`]: `k = 0` tables, empty
    /// tables, and out-of-range records come back as typed errors.
    pub fn try_neighbors(&self, record: usize) -> Result<&[Neighbor], KnnError> {
        if self.k == 0 {
            return Err(KnnError::ZeroK);
        }
        if self.n_records == 0 {
            return Err(KnnError::EmptyTable);
        }
        if record >= self.n_records {
            return Err(KnnError::RecordOutOfRange {
                record,
                n_records: self.n_records,
            });
        }
        Ok(&self.entries[record * self.k..(record + 1) * self.k])
    }

    /// Nearest representative of `record` (the `k = 1` view used by limit
    /// queries, §6.3) and its distance. Panicking; see
    /// [`MinKTable::try_nearest`].
    pub fn nearest(&self, record: usize) -> Neighbor {
        self.neighbors(record)[0]
    }

    /// Non-panicking [`MinKTable::nearest`].
    pub fn try_nearest(&self, record: usize) -> Result<Neighbor, KnnError> {
        Ok(self.try_neighbors(record)?[0])
    }

    /// Incrementally registers a new representative: for every record, the
    /// distance to the new representative's embedding is computed and the
    /// neighbor list is updated if it improves. This is the cracking
    /// primitive (§3.3): `O(n_records · dim)` per new representative.
    ///
    /// Any attached ANN router is kept coherent in the same step (the new
    /// rep joins its nearest coarse cell) — or, once incremental adds have
    /// drifted the rep set past the router's rebuild threshold, the router
    /// is invalidated so stale routing can never degrade later appends.
    ///
    /// Returns the index assigned to the new representative.
    pub fn add_representative(
        &mut self,
        records: &[f32],
        rep_embedding: &[f32],
        dim: usize,
        metric: Metric,
    ) -> u32 {
        assert_eq!(records.len(), self.n_records * dim);
        assert_eq!(rep_embedding.len(), dim);
        let new_idx = self.n_reps as u32;
        self.n_reps += 1;
        let k = self.k;
        for (i, rec) in records.chunks_exact(dim).enumerate() {
            let d = metric.distance(rec, rep_embedding);
            let list = &mut self.entries[i * k..(i + 1) * k];
            if d < list[k - 1].dist {
                // Shift the tail to make room, keeping ascending order.
                let mut pos = k - 1;
                while pos > 0 && list[pos - 1].dist > d {
                    list[pos] = list[pos - 1];
                    pos -= 1;
                }
                list[pos] = Neighbor {
                    rep: new_idx,
                    dist: d,
                };
            }
        }
        // Rebuild-or-invalidate contract: the router either tracks this
        // mutation exactly or is dropped on the spot.
        if let Some(router) = self.router.as_mut() {
            let coherent = router.metric() == metric
                && router.dim() == dim
                && router.n_reps() == new_idx as usize;
            if coherent {
                Arc::make_mut(router).add_rep(rep_embedding);
                if router.is_stale() {
                    self.router = None;
                }
            } else {
                self.router = None;
            }
        }
        new_idx
    }

    /// Appends neighbor lists for new records (streaming ingest): computes
    /// each new record's `k` nearest among `reps` and pushes the rows.
    /// `new_records` and `reps` are row-major with `dim` columns; `reps`
    /// must contain *all* current representatives in index order.
    ///
    /// When a coherent ANN router is attached the new records are routed
    /// through it (same candidate stage and safeguards as the build); a
    /// router that does not exactly match the table's current rep set is
    /// dropped and the append falls back to the exact scan.
    pub fn append_records(
        &mut self,
        new_records: &[f32],
        reps: &[f32],
        dim: usize,
        metric: Metric,
    ) {
        assert_eq!(new_records.len() % dim, 0);
        assert_eq!(
            reps.len(),
            self.n_reps * dim,
            "rep embeddings must match table state"
        );
        let n_new = new_records.len() / dim;
        let start = self.entries.len();
        self.entries.extend(std::iter::repeat_n(
            Neighbor {
                rep: 0,
                dist: f32::INFINITY,
            },
            n_new * self.k,
        ));
        let use_router = match self.router.as_deref() {
            Some(r) => {
                let coherent = r.metric() == metric && r.dim() == dim && r.n_reps() == self.n_reps;
                if !coherent {
                    // Stale router: never route through it — drop it and
                    // take the exact path.
                    self.router = None;
                }
                coherent
            }
            None => false,
        };
        let engine = BatchDistance::new(metric, reps, dim);
        if use_router {
            let router = self.router.as_deref().expect("router checked above");
            ann::route_block(
                router,
                &engine,
                new_records,
                self.k,
                0,
                &mut self.entries[start..],
            );
        } else {
            engine.topk_parallel(new_records, self.k, 0, &mut self.entries[start..]);
        }
        self.n_records += n_new;
    }

    /// Maximum distance from any record to its nearest representative (the
    /// quantity bounded by the paper's clustering-density assumption).
    /// Degenerate tables (no records, `k = 0`) report `0.0`; use
    /// [`MinKTable::try_max_nearest_distance`] to distinguish them.
    pub fn max_nearest_distance(&self) -> f32 {
        self.try_max_nearest_distance().unwrap_or(0.0)
    }

    /// Non-panicking [`MinKTable::max_nearest_distance`] with degenerate
    /// tables surfaced as typed errors.
    pub fn try_max_nearest_distance(&self) -> Result<f32, KnnError> {
        if self.k == 0 {
            return Err(KnnError::ZeroK);
        }
        if self.n_records == 0 {
            return Err(KnnError::EmptyTable);
        }
        Ok((0..self.n_records)
            .map(|i| self.entries[i * self.k].dist)
            .fold(0.0f32, f32::max))
    }

    /// Mean distance from records to their nearest representative.
    /// Degenerate tables report `0.0`.
    pub fn mean_nearest_distance(&self) -> f32 {
        if self.n_records == 0 || self.k == 0 {
            return 0.0;
        }
        (0..self.n_records)
            .map(|i| self.entries[i * self.k].dist)
            .sum::<f32>()
            / self.n_records as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ann::IvfParams;

    /// Records on a 1-D line 0..10; reps at 0, 5, 9.
    fn fixture() -> (Vec<f32>, Vec<f32>) {
        let records: Vec<f32> = (0..10).map(|i| i as f32).collect();
        let reps = vec![0.0f32, 5.0, 9.0];
        (records, reps)
    }

    #[test]
    fn neighbors_are_sorted_ascending() {
        let (records, reps) = fixture();
        let t = MinKTable::build(&records, &reps, 1, 3, Metric::L2);
        for i in 0..10 {
            let ns = t.neighbors(i);
            for w in ns.windows(2) {
                assert!(w[0].dist <= w[1].dist);
            }
        }
    }

    #[test]
    fn nearest_rep_is_correct_on_line() {
        let (records, reps) = fixture();
        let t = MinKTable::build(&records, &reps, 1, 2, Metric::L2);
        assert_eq!(t.nearest(0).rep, 0);
        assert_eq!(t.nearest(1).rep, 0);
        assert_eq!(t.nearest(4).rep, 1);
        assert_eq!(t.nearest(6).rep, 1);
        assert_eq!(t.nearest(9).rep, 2);
        assert_eq!(t.nearest(9).dist, 0.0);
    }

    #[test]
    fn k_is_clamped_to_rep_count() {
        let (records, reps) = fixture();
        let t = MinKTable::build(&records, &reps, 1, 10, Metric::L2);
        assert_eq!(t.k(), 3);
        assert_eq!(t.neighbors(0).len(), 3);
    }

    #[test]
    fn add_representative_updates_nearest() {
        let (records, reps) = fixture();
        let mut t = MinKTable::build(&records, &reps, 1, 2, Metric::L2);
        let before = t.nearest(2).dist; // nearest to record 2 was rep 0 at d=2
        assert_eq!(before, 2.0);
        let idx = t.add_representative(&records, &[2.0], 1, Metric::L2);
        assert_eq!(idx, 3);
        assert_eq!(t.n_reps(), 4);
        assert_eq!(t.nearest(2).rep, 3);
        assert_eq!(t.nearest(2).dist, 0.0);
        // Record 9 unaffected.
        assert_eq!(t.nearest(9).rep, 2);
    }

    #[test]
    fn add_representative_never_increases_nearest_distance() {
        let (records, reps) = fixture();
        let mut t = MinKTable::build(&records, &reps, 1, 3, Metric::L2);
        let before: Vec<f32> = (0..10).map(|i| t.nearest(i).dist).collect();
        t.add_representative(&records, &[7.5], 1, Metric::L2);
        for (i, &b) in before.iter().enumerate() {
            assert!(t.nearest(i).dist <= b + 1e-7);
        }
    }

    #[test]
    fn max_and_mean_nearest_distance() {
        let (records, reps) = fixture();
        let t = MinKTable::build(&records, &reps, 1, 1, Metric::L2);
        // Distances: 0,1,2,2,1,0,1,2,1,0 → max 2, mean 1.0
        assert_eq!(t.max_nearest_distance(), 2.0);
        assert!((t.mean_nearest_distance() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn multi_dim_build() {
        let records = vec![0.0f32, 0.0, 1.0, 1.0, 4.0, 4.0];
        let reps = vec![0.0f32, 0.0, 4.0, 4.0];
        let t = MinKTable::build(&records, &reps, 2, 2, Metric::L2);
        assert_eq!(t.nearest(0).rep, 0);
        assert_eq!(t.nearest(1).rep, 0);
        assert_eq!(t.nearest(2).rep, 1);
    }

    #[test]
    #[should_panic(expected = "record index out of range")]
    fn out_of_range_record_panics() {
        let (records, reps) = fixture();
        let t = MinKTable::build(&records, &reps, 1, 1, Metric::L2);
        let _ = t.neighbors(10);
    }

    #[test]
    fn append_records_matches_fresh_build() {
        let (records, reps) = fixture();
        let mut incremental = MinKTable::build(&records[..6], &reps, 1, 2, Metric::L2);
        incremental.append_records(&records[6..], &reps, 1, Metric::L2);
        let fresh = MinKTable::build(&records, &reps, 1, 2, Metric::L2);
        assert_eq!(incremental.n_records(), fresh.n_records());
        for i in 0..fresh.n_records() {
            assert_eq!(incremental.neighbors(i), fresh.neighbors(i), "record {i}");
        }
    }

    #[test]
    #[should_panic(expected = "rep embeddings must match table state")]
    fn append_records_rejects_stale_rep_set() {
        let (records, reps) = fixture();
        let mut t = MinKTable::build(&records, &reps, 1, 2, Metric::L2);
        t.append_records(&[11.0], &reps[..2], 1, Metric::L2);
    }

    #[test]
    fn parallel_build_matches_serial_bitwise() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(17);
        let records: Vec<f32> = (0..500 * 4).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let reps: Vec<f32> = (0..23 * 4).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let serial = MinKTable::build_parallel(&records, &reps, 4, 3, Metric::L2, 1);
        for threads in [2usize, 3, 7, 0] {
            let par = MinKTable::build_parallel(&records, &reps, 4, 3, Metric::L2, threads);
            assert_eq!(par.n_records(), serial.n_records());
            for i in 0..serial.n_records() {
                assert_eq!(
                    par.neighbors(i),
                    serial.neighbors(i),
                    "record {i}, {threads} threads"
                );
            }
        }
    }

    #[test]
    fn parallel_build_handles_tiny_inputs() {
        let records = vec![0.0f32, 1.0, 2.0];
        let reps = vec![0.5f32];
        let t = MinKTable::build_parallel(&records, &reps, 1, 2, Metric::L2, 8);
        assert_eq!(t.n_records(), 3);
        assert_eq!(t.k(), 1);
    }

    #[test]
    fn duplicate_distances_keep_all_entries() {
        // Two reps equidistant from a record: both must appear.
        let records = vec![0.0f32];
        let reps = vec![-1.0f32, 1.0];
        let t = MinKTable::build(&records, &reps, 1, 2, Metric::L2);
        let ns = t.neighbors(0);
        assert_eq!(ns.len(), 2);
        assert_eq!(ns[0].dist, 1.0);
        assert_eq!(ns[1].dist, 1.0);
        let mut reps_seen: Vec<u32> = ns.iter().map(|n| n.rep).collect();
        reps_seen.sort_unstable();
        assert_eq!(reps_seen, vec![0, 1]);
    }

    // ---- Strategy plumbing and router coherence ----

    fn lcg_points(n: usize, dim: usize, seed: u64) -> Vec<f32> {
        let mut state = seed | 1;
        (0..n * dim)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as i32 % 2000) as f32 / 500.0
            })
            .collect()
    }

    #[test]
    fn exact_strategy_is_bit_identical_to_build_parallel() {
        let records = lcg_points(300, 4, 5);
        let reps = lcg_points(30, 4, 6);
        let (t, stats) = MinKTable::build_with_strategy(
            &records,
            &reps,
            4,
            3,
            Metric::L2,
            2,
            &AssignStrategy::Exact,
        );
        let reference = MinKTable::build_parallel(&records, &reps, 4, 3, Metric::L2, 2);
        for i in 0..300 {
            assert_eq!(t.neighbors(i), reference.neighbors(i), "record {i}");
        }
        assert_eq!(stats.strategy, "exact");
        assert!(t.router().is_none());
    }

    #[test]
    fn auto_strategy_stays_exact_on_small_instances() {
        let records = lcg_points(200, 3, 11);
        let reps = lcg_points(25, 3, 12);
        let (t, stats) = MinKTable::build_with_strategy(
            &records,
            &reps,
            3,
            2,
            Metric::L2,
            1,
            &AssignStrategy::Auto,
        );
        assert_eq!(stats.strategy, "exact");
        let reference = MinKTable::build_parallel(&records, &reps, 3, 2, Metric::L2, 1);
        for i in 0..200 {
            assert_eq!(t.neighbors(i), reference.neighbors(i), "record {i}");
        }
    }

    #[test]
    fn ivf_build_attaches_router_and_add_representative_keeps_it_coherent() {
        let records = lcg_points(1500, 4, 21);
        let reps = lcg_points(120, 4, 22);
        let (mut t, stats) = MinKTable::build_with_strategy(
            &records,
            &reps,
            4,
            3,
            Metric::L2,
            1,
            &AssignStrategy::Ivf(IvfParams::default()),
        );
        if stats.exact_fallback {
            assert!(t.router().is_none());
            return; // adversarial layout tripped the audit — contract held
        }
        let router = t.router().expect("ivf build keeps its router");
        assert_eq!(router.n_reps(), t.n_reps());
        let new_rep = lcg_points(1, 4, 99);
        t.add_representative(&records, &new_rep, 4, Metric::L2);
        let router = t.router().expect("one add keeps the router");
        assert_eq!(router.n_reps(), t.n_reps());
    }

    #[test]
    fn router_is_invalidated_after_drifting_past_rebuild_threshold() {
        let records = lcg_points(800, 3, 31);
        let reps = lcg_points(64, 3, 32);
        let (mut t, stats) = MinKTable::build_with_strategy(
            &records,
            &reps,
            3,
            2,
            Metric::L2,
            1,
            &AssignStrategy::Ivf(IvfParams::default()),
        );
        if stats.exact_fallback {
            return;
        }
        assert!(t.router().is_some());
        // Drift: add reps until past 1.5× the built size — the router must
        // be dropped, not left routing over a shape it never saw.
        let new_rep = lcg_points(1, 3, 77);
        for _ in 0..(64 / 2 + 16) {
            t.add_representative(&records, &new_rep, 3, Metric::L2);
        }
        assert!(t.router().is_none());
    }

    #[test]
    fn stale_router_cannot_degrade_append_recall() {
        // Regression test for the rebuild-or-invalidate contract: attach a
        // router built over a *different* (smaller) rep set, then append.
        // The table must detect the mismatch, drop the router, and produce
        // exactly what the exact scan produces.
        let records = lcg_points(400, 4, 41);
        let reps = lcg_points(80, 4, 42);
        let mut t = MinKTable::build(&records, &reps, 4, 3, Metric::L2);
        let stale = RepRouter::build(&reps[..40 * 4], 4, Metric::L2, IvfParams::default());
        t.set_router_for_test(Some(Arc::new(stale)));

        let new_records = lcg_points(60, 4, 43);
        t.append_records(&new_records, &reps, 4, Metric::L2);
        assert!(
            t.router().is_none(),
            "stale router must be dropped, not used"
        );

        let mut all = records.clone();
        all.extend_from_slice(&new_records);
        let fresh = MinKTable::build(&all, &reps, 4, 3, Metric::L2);
        for i in 0..fresh.n_records() {
            assert_eq!(t.neighbors(i), fresh.neighbors(i), "record {i}");
        }
    }

    #[test]
    fn append_through_coherent_router_keeps_exact_distances() {
        let records = lcg_points(1200, 4, 51);
        let reps = lcg_points(100, 4, 52);
        let (mut t, stats) = MinKTable::build_with_strategy(
            &records,
            &reps,
            4,
            3,
            Metric::L2,
            1,
            &AssignStrategy::Ivf(IvfParams::default()),
        );
        if stats.exact_fallback {
            return;
        }
        let new_records = lcg_points(200, 4, 53);
        t.append_records(&new_records, &reps, 4, Metric::L2);
        assert_eq!(t.n_records(), 1400);
        assert!(t.router().is_some(), "coherent router survives appends");
        // Routed appends still store exact distances, sorted ascending.
        for i in 1200..1400 {
            let q = &new_records[(i - 1200) * 4..(i - 1200 + 1) * 4];
            let ns = t.neighbors(i);
            for w in ns.windows(2) {
                assert!(w[0].dist <= w[1].dist);
            }
            for n in ns {
                let d = Metric::L2.distance(q, &reps[n.rep as usize * 4..(n.rep as usize + 1) * 4]);
                assert_eq!(n.dist, d, "record {i}");
            }
        }
    }

    // ---- Degenerate-input hardening ----

    #[test]
    fn try_build_reports_typed_errors() {
        assert_eq!(
            MinKTable::try_build_parallel(&[1.0], &[], 1, 1, Metric::L2, 1).unwrap_err(),
            KnnError::NoRepresentatives
        );
        assert_eq!(
            MinKTable::try_build_parallel(&[1.0], &[1.0], 0, 1, Metric::L2, 1).unwrap_err(),
            KnnError::ZeroDim
        );
        assert_eq!(
            MinKTable::try_build_parallel(&[1.0, 2.0, 3.0], &[1.0, 2.0], 2, 1, Metric::L2, 1)
                .unwrap_err(),
            KnnError::LengthNotMultipleOfDim {
                what: "records",
                len: 3,
                dim: 2
            }
        );
        assert_eq!(
            MinKTable::try_build_parallel(&[1.0, 2.0], &[1.0, 2.0, 3.0], 2, 1, Metric::L2, 1)
                .unwrap_err(),
            KnnError::LengthNotMultipleOfDim {
                what: "reps",
                len: 3,
                dim: 2
            }
        );
        assert!(MinKTable::try_build_parallel(&[1.0], &[2.0], 1, 1, Metric::L2, 1).is_ok());
    }

    #[test]
    fn degenerate_tables_return_typed_errors_not_panics() {
        // Empty table (no records).
        let empty = MinKTable::from_parts(2, 0, 3, Vec::new());
        assert_eq!(empty.try_nearest(0), Err(KnnError::EmptyTable));
        assert_eq!(empty.try_neighbors(0).unwrap_err(), KnnError::EmptyTable);
        assert_eq!(empty.try_max_nearest_distance(), Err(KnnError::EmptyTable));
        assert_eq!(empty.max_nearest_distance(), 0.0);
        assert_eq!(empty.mean_nearest_distance(), 0.0);

        // k = 0 table (no neighbors per record).
        let zero_k = MinKTable::from_parts(0, 5, 3, Vec::new());
        assert_eq!(zero_k.try_nearest(0), Err(KnnError::ZeroK));
        assert_eq!(zero_k.try_max_nearest_distance(), Err(KnnError::ZeroK));
        assert_eq!(zero_k.max_nearest_distance(), 0.0);
        assert_eq!(zero_k.mean_nearest_distance(), 0.0);

        // Out-of-range record carries both indices in the error.
        let (records, reps) = fixture();
        let t = MinKTable::build(&records, &reps, 1, 1, Metric::L2);
        assert_eq!(
            t.try_nearest(10),
            Err(KnnError::RecordOutOfRange {
                record: 10,
                n_records: 10
            })
        );
        assert!(t.try_nearest(9).is_ok());
    }

    #[test]
    fn knn_error_messages_are_descriptive() {
        assert!(KnnError::NoRepresentatives
            .to_string()
            .contains("representative"));
        assert!(KnnError::ZeroK.to_string().contains("k = 0"));
        let e = KnnError::RecordOutOfRange {
            record: 7,
            n_records: 3,
        };
        assert!(e.to_string().contains('7') && e.to_string().contains('3'));
    }

    #[test]
    fn serialization_round_trip_drops_router() {
        let records = lcg_points(500, 3, 61);
        let reps = lcg_points(60, 3, 62);
        let (t, _) = MinKTable::build_with_strategy(
            &records,
            &reps,
            3,
            2,
            Metric::L2,
            1,
            &AssignStrategy::Ivf(IvfParams::default()),
        );
        let json = serde_json::to_string(&t).expect("serialize");
        let back: MinKTable = serde_json::from_str(&json).expect("deserialize");
        assert!(back.router().is_none(), "router is never persisted");
        assert_eq!(back.n_records(), t.n_records());
        for i in 0..t.n_records() {
            assert_eq!(back.neighbors(i), t.neighbors(i), "record {i}");
        }
    }
}
