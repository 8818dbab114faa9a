//! # tasti-serve
//!
//! A long-lived, concurrent query service over a persisted TASTI index —
//! the "index once, query forever" deployment shape the paper's §3.3
//! cracking loop implies: load a snapshot, answer ML-powered queries, fold
//! every query-paid oracle label back into the index so later queries get
//! a sharper proxy for free.
//!
//! Dependency-free by construction (std networking and threads only):
//!
//! * [`Server`] — the TCP front end: a readiness-driven reactor (epoll
//!   behind a tiny `std`-only poller). One event-loop thread owns every
//!   socket, per-connection state machines accumulate bytes / parse /
//!   dispatch / write-drain, and a small fixed compute pool behind a
//!   bounded channel runs the actual queries — so an idle keep-alive
//!   connection costs a file descriptor, not a thread, a full channel
//!   answers a typed `overloaded` at once, and `ResilientLabeler` retry
//!   backoff parks on the reactor's drain signal instead of
//!   `thread::sleep`, so a drain never waits a backoff out.
//!   Linux only: elsewhere [`Server::start`] returns
//!   [`std::io::ErrorKind::Unsupported`] — there is no second server.
//! * [`TastiService`] — the transport-agnostic (and portable) service,
//!   usable in-process without a socket, routing requests over
//!   an [`IndexRegistry`] of named indexes: each [`IndexEntry`] pairs an
//!   index behind `RwLock<Arc<_>>` (readers clone the `Arc`, cracking
//!   swaps it) with its own
//!   [`MeteredLabeler`](tasti_labeler::MeteredLabeler) — whose in-flight
//!   set gives exactly-once oracle accounting across concurrent queries —
//!   plus a per-index label budget and per-op latency histograms and
//!   counters. Requests without an `"index"` field route to the default
//!   entry, keeping single-index wire traffic byte-compatible.
//! * [`proto`] — the line-delimited JSON wire protocol (requests for all
//!   five query algorithms plus `index_stats`, `metrics`, `health`,
//!   `index_load`/`index_unload`/`index_list`, `snapshot`, `shutdown`),
//!   built on `tasti-obs`'s dependency-free JSON.
//! * [`Client`] — a small blocking client used by tests, the example, the
//!   CI smoke stage, and `tasti_cli probe`; optional connect/read deadlines
//!   yield a typed timeout error.
//!
//! The service accepts any [`tasti_labeler::FallibleTargetLabeler`], so a
//! live oracle can sit behind a [`tasti_labeler::ResilientLabeler`]
//! (retry/backoff + circuit breaking). Operating under failure: while the
//! breaker is open, queries fail fast with a typed `labeler_unavailable`
//! error carrying `retry_after_micros`; an unrecoverable mid-query fault
//! produces an `ok` reply with the proxy-only partial result, marked
//! `degraded` and never certified (disable with
//! [`ServeConfig::degraded_replies`]). The `health` admin op reports
//! breaker state, fault counters, and the meter's reservation status.
//!
//! ```no_run
//! use std::sync::Arc;
//! use tasti_serve::{Client, Op, Request, ServeConfig, Server, TastiService};
//! # fn demo<L: tasti_labeler::BatchTargetLabeler + 'static>(
//! #     index: tasti_core::index::TastiIndex,
//! #     labeler: tasti_labeler::MeteredLabeler<L>,
//! # ) -> Result<(), Box<dyn std::error::Error>> {
//! let service = Arc::new(TastiService::new(index, labeler, ServeConfig::default()));
//! let server = Server::start(service)?;
//! let mut client = Client::connect(server.local_addr())?;
//! let stats = client.call(Request::new(Op::IndexStats))?;
//! assert!(stats.ok);
//! client.shutdown()?;
//! server.join();
//! # Ok(())
//! # }
//! ```

// `deny` rather than `forbid`: the readiness poller (`poll`) carries the
// crate's single justified `#[allow(unsafe_code)]` for its epoll/eventfd
// FFI; every other module stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod config;
pub mod metrics;
pub mod proto;
pub mod registry;
pub mod server;
pub mod service;

// The reactor and its parts: raw epoll + eventfd, so Linux only.
#[cfg(target_os = "linux")]
pub(crate) mod evented;
#[cfg(target_os = "linux")]
pub(crate) mod linebuf;
#[cfg(target_os = "linux")]
pub(crate) mod poll;

/// There is deliberately no second backend: off Linux the crate still
/// builds, so [`TastiService`] can be driven in-process, but the TCP front
/// end cannot start.
#[cfg(not(target_os = "linux"))]
pub(crate) mod evented {
    pub(crate) enum EventedCore {}

    impl EventedCore {
        pub fn shutdown(&self) {
            match *self {}
        }

        pub fn join_threads(&mut self) {
            match *self {}
        }
    }

    pub(crate) fn start<S>(
        _service: S,
        _listener: std::net::TcpListener,
    ) -> std::io::Result<EventedCore> {
        Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "tasti-serve's TCP front end requires Linux epoll",
        ))
    }
}

pub use client::{Client, ClientError};
pub use config::ServeConfig;
pub use metrics::ServeMetrics;
pub use proto::{ErrorKind, Op, Reply, Request, ScoreSpec};
pub use registry::{IndexEntry, IndexRegistry, IngestOutcome};
pub use server::{JoinReport, Server};
pub use service::{LabelerFactory, ReplaySummary, TastiService, DEFAULT_INDEX_NAME};
// The storage seam ([`ServeConfig::storage_vfs`]) comes from tasti-ingest;
// re-exported so embedders (and the CLI) can wire fault injection without
// depending on that crate directly.
pub use tasti_ingest::{FaultScript, FaultVfs, RealVfs, Vfs};
