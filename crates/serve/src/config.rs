//! Service configuration.

use std::path::PathBuf;
use std::sync::Arc;

use tasti_ingest::{RealVfs, Vfs};

/// Configuration for a [`crate::Server`] / [`crate::TastiService`].
///
/// The defaults suit a local deployment: loopback-only on an ephemeral
/// port, a small compute pool, cracking enabled. Every knob but
/// `max_connections` maps to a `tasti_cli serve` flag.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address. Port `0` asks the OS for an ephemeral port (read the
    /// actual one from [`crate::Server::local_addr`]).
    pub addr: String,
    /// Compute threads: they run request handling (parse + query + oracle
    /// work). Connections are owned by the reactor, so this does *not*
    /// bound concurrent connections.
    pub workers: usize,
    /// Capacity of the bounded compute channel: a request arriving with the
    /// channel full gets an immediate typed `overloaded` error (its
    /// connection stays open).
    pub queue_depth: usize,
    /// Maximum concurrent connections the reactor will hold open; beyond
    /// it new connections are rejected with a typed `overloaded` error and
    /// closed.
    pub max_connections: usize,
    /// Where `snapshot` requests (and the shutdown snapshot) persist the
    /// index. `None` disables both.
    pub snapshot_path: Option<PathBuf>,
    /// Persist a final snapshot during graceful shutdown, after the last
    /// crack fold-in (requires `snapshot_path`).
    pub snapshot_on_shutdown: bool,
    /// Hard target-labeler budget for the service lifetime (`None` =
    /// unlimited). A query that would exceed it gets a typed
    /// `budget_exhausted` error.
    pub label_budget: Option<u64>,
    /// Fold query-paid labels back into the index (cracking, §3.3) after
    /// each query. Disable to serve a frozen index.
    pub crack_after_queries: bool,
    /// When the oracle faults unrecoverably mid-query, answer with an `ok`
    /// reply carrying the proxy-only partial result (marked `degraded`,
    /// never certified) instead of an error. Disable to turn every such
    /// fault into a typed `labeler_unavailable` error.
    pub degraded_replies: bool,
    /// Named indexes to load into the registry at startup, as
    /// `(name, snapshot_path)` pairs, alongside the default index the
    /// service is constructed with. Loading uses the service's labeler
    /// factory, so `TastiService::with_factory` is required when non-empty.
    pub preload: Vec<(String, PathBuf)>,
    /// Directory of the durable ingest segment log. `None` (the default)
    /// disables the `ingest` op — batches are rejected with the typed
    /// `ingest_rejected` error. When set, the log is replayed at startup
    /// so acknowledged batches survive a crash.
    pub ingest_dir: Option<PathBuf>,
    /// Drift level at which ingest maintenance escalates from incremental
    /// rep assignment to a full assignment refresh (see
    /// `tasti_obs::DriftGauge`): 1.0 ≈ clusters have grown by one baseline
    /// radius. The default 0.5 escalates at half that.
    pub drift_threshold: f64,
    /// Filesystem seam for everything the service persists: the ingest
    /// segment log and index snapshots. Defaults to the real filesystem;
    /// tests and the CLI chaos flags substitute a
    /// [`tasti_ingest::FaultVfs`] to inject disk faults deterministically.
    pub storage_vfs: Arc<dyn Vfs>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_depth: 16,
            max_connections: 1024,
            snapshot_path: None,
            snapshot_on_shutdown: false,
            label_budget: None,
            crack_after_queries: true,
            degraded_replies: true,
            preload: Vec::new(),
            ingest_dir: None,
            drift_threshold: 0.5,
            storage_vfs: Arc::new(RealVfs),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_loopback_ephemeral() {
        let c = ServeConfig::default();
        assert_eq!(c.addr, "127.0.0.1:0");
        assert!(c.workers >= 1);
        assert!(c.max_connections >= c.workers);
        assert!(c.crack_after_queries);
        assert!(c.snapshot_path.is_none());
        assert!(c.ingest_dir.is_none(), "ingest is opt-in");
        assert!(c.drift_threshold > 0.0);
    }
}
