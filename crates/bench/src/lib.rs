//! # tasti-bench
//!
//! The experiment harness regenerating every table and figure of the TASTI
//! paper's evaluation (§6). Each `src/bin/*.rs` binary reproduces one
//! table/figure; `bin/all_experiments.rs` runs the full suite and emits the
//! rows recorded in `EXPERIMENTS.md`.
//!
//! Shared infrastructure:
//!
//! * [`settings`] — the six evaluation settings (night-street, taipei car,
//!   taipei bus, amsterdam, wikisql, common-voice) with their datasets,
//!   scoring functions, closeness functions, and scaled hyperparameters.
//! * [`runner`] — builds TASTI-T / TASTI-PT indexes and per-query proxy
//!   baselines for a setting and exposes uniform "give me proxy scores for
//!   method M and query Q" plumbing.
//! * [`report`] — result records and table/JSON emission.
//!
//! Scale note: the paper's video datasets have ~10⁶ frames; ours default to
//! ~12k (video) / 6k (text, speech) so the full suite runs on a laptop in
//! minutes. All comparisons are *relative* (who wins, by what factor), which
//! is the reproduction target; absolute invocation counts scale with N.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod queries;
pub mod report;
pub mod runner;
pub mod settings;

pub use report::{write_json, ExperimentRecord};
pub use runner::{BuiltSetting, Method, QueryKind};
pub use settings::{all_settings, setting_by_name, Setting};
