//! # tasti-query
//!
//! The downstream proxy-score query-processing algorithms the TASTI paper
//! plugs its indexes into (§4, §6.1):
//!
//! * [`agg`] — approximate aggregation in the style of BlazeIt: sequential
//!   uniform sampling with the proxy score as a **control variate** and an
//!   **empirical-Bernstein stopping rule** (EBS) guaranteeing an error
//!   target at a confidence level, plus direct (no-guarantee) aggregation.
//! * [`supg`] — SUPG recall-target selection: importance sampling against
//!   the proxy scores, a conservative lower confidence bound on recall, and
//!   the returned-set construction of Kang et al. 2020.
//! * [`limit`] — the BlazeIt limit-query ranking algorithm: scan records in
//!   descending proxy-score order, invoking the target labeler until the
//!   requested number of matches is found.
//! * [`select`] — selection without statistical guarantees (NoScope /
//!   Tahoma / probabilistic-predicates style thresholding), scored by F1.
//! * [`stats`] — the statistical machinery shared by all of the above:
//!   empirical-Bernstein half-widths, normal quantiles, streaming moments.
//!
//! The algorithms are deliberately *decoupled from the index*: they consume
//! plain proxy-score slices and an oracle closure, so they run identically
//! over TASTI proxy scores, per-query proxy-model scores, or constant
//! scores (the "no proxy" baseline). All randomness is seeded.
//!
//! Each algorithm's core is its `*_batch` entry point, which takes a
//! **batch** oracle closure (`FnMut(&[usize]) -> Vec<T>`) so a batched
//! target labeler ([`tasti_labeler::MeteredLabeler::try_label_batch`]) can
//! answer a whole sampling round in one inner invocation; the single-record
//! entry points are thin adapters kept for convenience. Both paths request
//! the same records in the same order, so invocation counts are identical
//! on a cold cache (asserted in `tests/telemetry_audit.rs`).
//!
//! When the oracle can *fail* (a live labeler rather than a replay cache),
//! the [`degrade`] module provides fault-aware `try_*` variants of every
//! entry point: they accept fallible oracle closures and return a typed
//! [`QueryOutcome`] that degrades to a proxy-only partial answer on an
//! unrecoverable [`tasti_labeler::LabelerFault`] instead of panicking.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agg;
pub mod agg_pred;
pub mod degrade;
mod importance;
pub mod limit;
pub mod sanitize;
pub mod select;
pub mod stats;
pub mod supg;

pub use agg::{
    direct_aggregate, ebs_aggregate, ebs_aggregate_batch, AggregationConfig, AggregationResult,
    StoppingRule,
};
pub use agg_pred::{
    predicate_aggregate, predicate_aggregate_batch, PredicateAggConfig, PredicateAggResult,
};
pub use degrade::{
    try_ebs_aggregate_batch, try_limit_query_batch, try_predicate_aggregate_batch,
    try_supg_precision_target_batch, try_supg_recall_target_batch, DegradedResult, QueryOutcome,
};
pub use limit::{limit_query, limit_query_batch, LimitResult};
pub use sanitize::{desc_nan_last, sanitize_proxies, Sanitized, UnitScale};
pub use select::{threshold_selection, tune_threshold, tune_threshold_batch, SelectionResult};
pub use supg::{
    supg_precision_target, supg_precision_target_batch, supg_recall_target,
    supg_recall_target_batch, SupgConfig, SupgPrecisionConfig, SupgPrecisionResult, SupgResult,
};
pub use tasti_obs::QueryTelemetry;
