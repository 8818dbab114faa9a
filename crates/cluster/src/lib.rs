//! # tasti-cluster
//!
//! Clustering substrate for the TASTI index:
//!
//! * [`distance`] — the distance kernels used over embedding space.
//! * [`fpf`] — the furthest-point-first algorithm of Gonzalez (1985), a
//!   2-approximation to the optimal maximum intra-cluster distance, which the
//!   paper uses both to mine training data (§3.1) and to select cluster
//!   representatives (§3.2), optionally mixed with a fraction of random
//!   representatives.
//! * [`knn`] — min-k neighbor tables: for every record, the `k` nearest
//!   cluster representatives and their distances. Supports incremental
//!   extension with new representatives, which is what makes index
//!   "cracking" (§3.3) cheap.
//! * [`kernels`] — the blocked, multi-threaded distance kernel engine every
//!   construction path above runs on: norms + decomposed dot products with
//!   an exact-fallback filter, so results stay bit-identical to the naive
//!   scalar scans.
//! * [`ann`] — the approximate candidate stage for rep assignment: IVF
//!   coarse routing over the representatives with layered recall
//!   safeguards (minimum pool, probe widening, geometric completeness,
//!   audited recall with exact fallback), feeding the exact kernel for
//!   refinement.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ann;
pub mod distance;
pub mod fpf;
pub mod kernels;
pub mod knn;

pub use ann::{
    planned_cells, AssignStats, AssignStrategy, IvfParams, RepRouter, AUTO_MIN_RECORDS,
    AUTO_MIN_REPS,
};
pub use distance::Metric;
pub use fpf::{
    fpf, fpf_threaded, random_selection, select, select_threaded, FpfResult, SelectionStrategy,
};
pub use kernels::{resolve_threads, BatchDistance, FpfScan};
pub use knn::{KnnError, MinKTable, Neighbor};
