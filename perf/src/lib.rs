//! `tasti-perf`: the repository's end-to-end and per-layer benchmark.
//!
//! End-to-end numbers come from a real `tasti_cli serve` child process driven
//! over TCP with [`tasti::serve::Client`]; per-layer numbers come from a
//! separate traced run that replays the same request streams in-process with
//! spans around the layers' public functions. Every input is generated from
//! `--seed`; the server only ever receives generated files and wire lines.
//!
//! See `perf/README.md` for the metric dictionary and the workloads.

pub mod cli;
pub mod compare;
pub mod e2e;
pub mod fixture;
pub mod load;
pub mod metrics;
pub mod server;
pub mod trace;
