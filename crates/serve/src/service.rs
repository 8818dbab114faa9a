//! The query service: a registry of named indexes behind one front door.
//!
//! [`TastiService`] is transport-agnostic — [`crate::Server`] feeds it
//! requests parsed off TCP connections, tests call [`TastiService::handle`]
//! directly. Since the multi-index registry, the service owns an
//! [`IndexRegistry`]: every request optionally names an index (absent →
//! the default entry, keeping the single-index wire protocol
//! byte-compatible), and each entry carries its own labeler, budget,
//! metrics, and maintenance lock. All concurrency lives in the entries:
//!
//! * Each index sits behind `RwLock<Arc<TastiIndex>>`. Readers hold the
//!   lock only long enough to clone the `Arc`, then query a consistent
//!   snapshot with no lock held.
//! * Oracle labels go through the entry's [`MeteredLabeler`], whose
//!   in-flight set gives exactly-once semantics across concurrent queries
//!   for free — and whose accounting never mixes tenants.
//! * Cracking (§3.3) runs on a per-entry maintenance path: after a query,
//!   one thread at a time clones that index, folds the labeler's cache in
//!   via `crack_from_labeler` *off-lock*, and swaps the `Arc` under a
//!   brief write lock. Readers never wait on a crack, and cracking one
//!   index never serializes another's.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tasti_core::index::TastiIndex;
use tasti_core::persist;
use tasti_core::scoring::ScoringFunction;
use tasti_ingest::{LogConfig, SegmentLog};
use tasti_labeler::{
    BreakerState, FallibleTargetLabeler, FaultKind, LabelerError, LabelerFault, MeteredLabeler,
    RecordId, RetryTimer,
};
use tasti_obs::json::{fmt_f64, push_escaped, JsonValue};
use tasti_obs::{QueryTelemetry, Stopwatch};
use tasti_query::{
    try_ebs_aggregate_batch, try_limit_query_batch, try_predicate_aggregate_batch,
    try_supg_precision_target_batch, try_supg_recall_target_batch, AggregationConfig,
    PredicateAggConfig, QueryOutcome, SupgConfig, SupgPrecisionConfig,
};

use crate::config::ServeConfig;
use crate::metrics::ServeMetrics;
use crate::proto::{err_response_full, ok_response, ok_response_routed, ErrorKind, Op, Request};
use crate::registry::{IndexEntry, IndexRegistry};

/// Default oracle match threshold: a record matches when its oracle score
/// is ≥ this. Right for the 0/1 predicate scores (`HasClass`, …).
pub const DEFAULT_THRESHOLD: f64 = 0.5;

/// The registry name of the index the service is constructed with — the
/// entry requests without an `"index"` field route to.
pub const DEFAULT_INDEX_NAME: &str = "default";

/// Builds a fresh [`MeteredLabeler`] for an index loaded at runtime
/// (`index_load` or `ServeConfig::preload`), given its registry name.
pub type LabelerFactory<L> = Box<dyn Fn(&str) -> MeteredLabeler<L> + Send + Sync>;

/// A typed request failure: the wire error kind, its message, and (for
/// `labeler_unavailable`) the breaker's backoff hint. Storage faults
/// additionally carry the `"storage"` fault class and, once the index has
/// degraded, the read-only marker.
struct QueryError {
    kind: ErrorKind,
    message: String,
    retry_after_micros: Option<u64>,
    fault_class: Option<&'static str>,
    read_only: bool,
}

impl QueryError {
    fn new(kind: ErrorKind, message: impl Into<String>) -> Self {
        Self {
            kind,
            message: message.into(),
            retry_after_micros: None,
            fault_class: None,
            read_only: false,
        }
    }

    fn with_retry(mut self, retry_after_micros: Option<u64>) -> Self {
        self.retry_after_micros = retry_after_micros;
        self
    }

    /// Tags the error with the `storage` fault class; `read_only` marks
    /// that the service has entered read-only degradation.
    fn storage(mut self, read_only: bool) -> Self {
        self.fault_class = Some("storage");
        self.read_only = read_only;
        self
    }
}

/// What startup replay of the ingest segment log found and did
/// ([`TastiService::open_ingest`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplaySummary {
    /// Acknowledged frames recovered from the log.
    pub frames: usize,
    /// Frames folded into an index (past its snapshot watermark).
    pub applied: usize,
    /// Frames skipped because the index's persisted watermark already
    /// covered them (the snapshot on disk was newer than the frame).
    pub already_applied: usize,
    /// Frames addressed to an index that is not loaded.
    pub unknown_index: usize,
    /// Records appended across the applied frames.
    pub records: usize,
    /// Torn (never-acknowledged) tail bytes truncated during recovery.
    pub truncated_bytes: u64,
}

/// The durable side of streaming ingest: the segment log plus the
/// bookkeeping compaction keys on (per index: the highest log sequence
/// holding its frames, and its ingest watermark at the last successful
/// snapshot).
struct IngestLogState {
    log: SegmentLog,
    appended: BTreeMap<String, u64>,
    persisted: BTreeMap<String, u64>,
    replay: ReplaySummary,
    /// `Some(reason)` once a storage fault (failed append or fsync) has
    /// degraded ingest to read-only: queries keep serving, every further
    /// `ingest` is rejected with the typed `storage` fault class. Cleared
    /// only by restart — after a failed fsync the kernel may have dropped
    /// dirty pages, so no in-process retry can re-establish the
    /// durability contract (fsyncgate).
    read_only: Option<String>,
    /// True while one request is running the group-commit fsync off-lock;
    /// batches that append meanwhile wait on the service condvar and share
    /// that fsync (or the next one) instead of issuing their own.
    sync_in_flight: bool,
}

/// Exponential snapshot retry backoff after persist failures (see
/// [`TastiService::handle`]'s `snapshot` op): a failed snapshot opens a
/// window in which further attempts are rejected with a `retry_after`
/// hint, doubling per consecutive failure.
#[derive(Default)]
struct SnapshotBackoff {
    consecutive_failures: u32,
    not_before: Option<Instant>,
}

/// First snapshot retry window; doubles per consecutive failure.
const SNAPSHOT_BACKOFF_BASE: Duration = Duration::from_millis(50);
/// Ceiling for the snapshot retry window.
const SNAPSHOT_BACKOFF_CAP: Duration = Duration::from_secs(5);

/// Unpacks a fault-aware query outcome into the result plus the fault that
/// degraded it (if any).
fn split_outcome<R>(out: QueryOutcome<R>) -> (R, Option<LabelerFault>) {
    match out {
        QueryOutcome::Complete(r) => (r, None),
        QueryOutcome::Degraded(d) => (d.result, Some(d.fault)),
    }
}

/// The shared state of a running service: the index registry, the
/// service-wide aggregate metrics, and (optionally) a labeler factory for
/// loading further indexes at runtime.
pub struct TastiService<L: FallibleTargetLabeler> {
    registry: IndexRegistry<L>,
    /// Service-wide aggregate; each entry additionally records into its own
    /// [`ServeMetrics`]. `Arc`ed so background maintenance threads can
    /// keep counting after `handle` returns.
    metrics: Arc<ServeMetrics>,
    config: ServeConfig,
    factory: Option<LabelerFactory<L>>,
    /// Durable ingest log; `None` until [`TastiService::open_ingest`] runs
    /// (which needs `config.ingest_dir`). Locked briefly: an `ingest`
    /// request holds it only for the append, never across index fold-in
    /// and never across the group-commit fsync.
    ingest: Mutex<Option<IngestLogState>>,
    /// Wakes batches waiting for an in-flight group-commit fsync to
    /// settle (paired with the `ingest` mutex).
    ingest_cv: Condvar,
    /// Snapshot retry state (storage fault tolerance).
    snapshot_backoff: Mutex<SnapshotBackoff>,
    /// Background drift-escalation workers, joined at graceful shutdown.
    refresh_threads: Mutex<Vec<JoinHandle<()>>>,
    /// The serving core's backoff timer, handed to every labeler the
    /// registry holds or gains; `None` while driven in-process. Held across
    /// each registration so an index cannot slip in between the install
    /// sweep and the slot being filled.
    retry_timer: Mutex<Option<Arc<dyn RetryTimer>>>,
}

impl<L: FallibleTargetLabeler + 'static> TastiService<L> {
    /// Wraps an index and a labeler into a single-index service (the index
    /// becomes the registry's default entry). A `label_budget` in the
    /// config overrides the labeler's own budget. When `config.ingest_dir`
    /// is set, call [`TastiService::open_ingest`] before serving `ingest`
    /// ([`TastiService::with_factory`] does it automatically).
    ///
    /// # Panics
    ///
    /// When `config.preload` is non-empty — loading further indexes needs a
    /// labeler factory; use [`TastiService::with_factory`].
    pub fn new(index: TastiIndex, labeler: MeteredLabeler<L>, config: ServeConfig) -> Self {
        assert!(
            config.preload.is_empty(),
            "ServeConfig::preload needs a labeler factory; construct with \
             TastiService::with_factory"
        );
        Self::build(index, labeler, config, None)
    }

    /// [`TastiService::new`] plus a labeler factory, enabling `index_load`
    /// over the wire and `config.preload` at startup (each preload pair is
    /// loaded before this returns; a failed load fails construction).
    pub fn with_factory(
        index: TastiIndex,
        labeler: MeteredLabeler<L>,
        config: ServeConfig,
        factory: LabelerFactory<L>,
    ) -> Result<Self, String> {
        let service = Self::build(index, labeler, config, Some(factory));
        for (name, path) in service.config.preload.clone() {
            service.load_index_from(&name, &path, None)?;
        }
        if service.config.ingest_dir.is_some() {
            service.open_ingest()?;
        }
        Ok(service)
    }

    fn build(
        index: TastiIndex,
        labeler: MeteredLabeler<L>,
        config: ServeConfig,
        factory: Option<LabelerFactory<L>>,
    ) -> Self {
        let default = IndexEntry::new(
            DEFAULT_INDEX_NAME,
            index,
            labeler,
            config.label_budget,
            config.snapshot_path.clone(),
        );
        Self {
            registry: IndexRegistry::new(default),
            metrics: Arc::new(ServeMetrics::new()),
            config,
            factory,
            ingest: Mutex::new(None),
            ingest_cv: Condvar::new(),
            snapshot_backoff: Mutex::new(SnapshotBackoff::default()),
            refresh_threads: Mutex::new(Vec::new()),
            retry_timer: Mutex::new(None),
        }
    }

    /// Installs the serving core's backoff timer into every registered
    /// labeler stack, and keeps it for indexes registered later
    /// (`index_load`, [`TastiService::insert_index`]).
    // Only the reactor calls it, and the reactor is Linux-only.
    #[cfg_attr(not(target_os = "linux"), allow(dead_code))]
    pub(crate) fn install_retry_timer(&self, timer: Arc<dyn RetryTimer>) {
        let mut slot = self.retry_timer.lock().unwrap_or_else(|e| e.into_inner());
        for entry in self.registry.entries() {
            entry.labeler.install_retry_timer(&timer);
        }
        *slot = Some(timer);
    }

    /// Adds `entry` to the registry with the installed backoff timer, if any.
    fn register(&self, entry: IndexEntry<L>) -> Result<(), String> {
        let slot = self.retry_timer.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(timer) = slot.as_ref() {
            entry.labeler.install_retry_timer(timer);
        }
        self.registry.insert(entry)
    }

    /// Opens the ingest segment log at `config.ingest_dir` and replays
    /// every acknowledged frame into its index, so a `kill -9` after an
    /// ingest ack never loses the batch. Frames at or below an index's
    /// ingest watermark (already captured by the snapshot the index was
    /// loaded from) are recognized and skipped, which makes replay
    /// idempotent. Runs automatically in [`TastiService::with_factory`];
    /// services built with [`TastiService::new`] call it explicitly before
    /// serving `ingest`.
    pub fn open_ingest(&self) -> Result<ReplaySummary, String> {
        let dir = self
            .config
            .ingest_dir
            .as_ref()
            .ok_or_else(|| "open_ingest requires ServeConfig::ingest_dir".to_string())?;
        let mut guard = self.ingest.lock().unwrap_or_else(|e| e.into_inner());
        if guard.is_some() {
            return Err("the ingest log is already open".to_string());
        }
        let (log, frames, report) = SegmentLog::open_with_vfs(
            dir,
            LogConfig::default(),
            Arc::clone(&self.config.storage_vfs),
        )
        .map_err(|e| format!("failed to open ingest log at {}: {e}", dir.display()))?;
        let mut summary = ReplaySummary {
            frames: frames.len(),
            truncated_bytes: report.truncated_bytes,
            ..ReplaySummary::default()
        };
        let mut appended = BTreeMap::new();
        for frame in &frames {
            let (name, embedded, rows) = decode_ingest_payload(&frame.payload)
                .map_err(|e| format!("ingest log frame {} is unreadable: {e}", frame.seq))?;
            let Some(entry) = self.registry.get(Some(&name)) else {
                summary.unknown_index += 1;
                continue;
            };
            appended.insert(name, frame.seq);
            let out = entry
                .apply_ingest(
                    &rows,
                    embedded,
                    frame.seq,
                    self.config.drift_threshold,
                    true,
                )
                .map_err(|e| {
                    format!(
                        "ingest log frame {} (index '{}') failed to re-apply: {e}",
                        frame.seq, entry.name
                    )
                })?;
            if out.applied {
                summary.applied += 1;
                summary.records += out.added;
                self.metrics.ingest_replayed_frames.incr();
                entry.metrics.ingest_replayed_frames.incr();
                self.metrics.records_ingested.add(out.added as u64);
                entry.metrics.records_ingested.add(out.added as u64);
            } else {
                summary.already_applied += 1;
            }
        }
        *guard = Some(IngestLogState {
            log,
            appended,
            persisted: BTreeMap::new(),
            replay: summary,
            read_only: None,
            sync_in_flight: false,
        });
        Ok(summary)
    }

    /// What startup replay did — `Some` once the ingest log is open.
    pub fn ingest_replay(&self) -> Option<ReplaySummary> {
        self.ingest
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .as_ref()
            .map(|st| st.replay)
    }

    /// Registers a pre-built index under a registry name — the programmatic
    /// face of `index_load`, for embedding the service without snapshot
    /// files or a factory. Rejects duplicate names.
    pub fn insert_index(
        &self,
        name: impl Into<String>,
        index: TastiIndex,
        labeler: MeteredLabeler<L>,
        label_budget: Option<u64>,
        snapshot_path: Option<std::path::PathBuf>,
    ) -> Result<(), String> {
        self.register(IndexEntry::new(
            name.into(),
            index,
            labeler,
            label_budget,
            snapshot_path,
        ))
    }

    /// Loads an index snapshot from disk into the registry via the labeler
    /// factory. Returns `(records, reps)` of the loaded index. A corrupt
    /// snapshot with a rotated last-good (`.prev`) copy recovers to that
    /// copy (ingest replay from its older watermark makes the fallback
    /// lossless) and bumps `snapshot_fallback_loads`.
    fn load_index_from(
        &self,
        name: &str,
        path: &Path,
        label_budget: Option<u64>,
    ) -> Result<(usize, usize), String> {
        let factory = self.factory.as_ref().ok_or_else(|| {
            "this server cannot load indexes at runtime (no labeler factory configured)".to_string()
        })?;
        let report = persist::load_with_fallback_vfs(path, &*self.config.storage_vfs)
            .map_err(|e| format!("failed to load index '{name}' from {}: {e}", path.display()))?;
        if report.fallback.is_some() {
            self.metrics.snapshot_fallback_loads.incr();
        }
        let index = report.index;
        let shape = (index.n_records(), index.reps().len());
        self.register(IndexEntry::new(
            name,
            index,
            factory(name),
            label_budget,
            Some(path.to_path_buf()),
        ))?;
        Ok(shape)
    }

    /// The index registry.
    pub fn registry(&self) -> &IndexRegistry<L> {
        &self.registry
    }

    /// A consistent snapshot of the **default** index (brief read lock,
    /// then lock-free).
    pub fn index(&self) -> Arc<TastiIndex> {
        self.registry.default_entry().index()
    }

    /// The **default** index's metered labeler.
    pub fn labeler(&self) -> &MeteredLabeler<L> {
        &self.registry.default_entry().labeler
    }

    /// The service-wide aggregate metrics.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// The configuration the service was started with.
    pub fn config(&self) -> &ServeConfig {
        &self.config
    }

    /// Handles one request, returning the complete response line (no
    /// trailing newline). Never panics: query panics are caught and mapped
    /// to `internal` errors so a poisoned request cannot take a worker
    /// down.
    pub fn handle(&self, req: &Request) -> String {
        self.metrics.requests_total.incr();
        let sw = Stopwatch::start();
        // Resolve routing first. Registry-level ops (load/unload/list) and
        // shutdown are not *about* a loaded entry; `metrics` without an
        // index reports the aggregate. Everything else needs an entry, and
        // an unknown name is a typed `bad_request`.
        let routed: Result<Option<Arc<IndexEntry<L>>>, QueryError> = match req.op {
            Op::IndexLoad | Op::IndexUnload | Op::IndexList | Op::Shutdown => Ok(None),
            Op::Metrics if req.index.is_none() => Ok(None),
            _ => self
                .registry
                .get(req.index.as_deref())
                .map(Some)
                .ok_or_else(|| {
                    QueryError::new(
                        ErrorKind::BadRequest,
                        format!(
                            "unknown index '{}' (see index_list)",
                            req.index.as_deref().unwrap_or("")
                        ),
                    )
                }),
        };
        let (entry, outcome) = match routed {
            Ok(entry) => {
                if let Some(e) = &entry {
                    e.metrics.requests_total.incr();
                }
                let outcome = match req.op {
                    Op::IndexStats => self.index_stats(req, entry.as_deref().expect("routed")),
                    Op::Metrics => self.metrics_response(req, entry.as_deref()),
                    Op::Health => Ok(self.health_response(req, entry.as_deref().expect("routed"))),
                    Op::IndexLoad => self.index_load(req),
                    Op::IndexUnload => self.index_unload(req),
                    Op::IndexList => Ok(self.index_list(req)),
                    Op::Snapshot => self.snapshot(req, entry.as_deref().expect("routed")),
                    Op::Ingest => self.ingest_batch(req, entry.as_deref().expect("routed")),
                    Op::Shutdown => Ok(ok_response(req.id, "\"draining\":true", None)),
                    _ => self.run_query(req, entry.as_deref().expect("routed")),
                };
                (entry, outcome)
            }
            Err(e) => (None, Err(e)),
        };
        let (line, ok) = match outcome {
            Ok(line) => (line, true),
            Err(e) => (
                err_response_full(
                    Some(req.id),
                    e.kind,
                    &e.message,
                    e.retry_after_micros,
                    e.fault_class,
                    e.read_only,
                ),
                false,
            ),
        };
        let micros = sw.elapsed_micros();
        self.metrics.record(req.op, micros, ok);
        if let Some(e) = &entry {
            e.metrics.record(req.op, micros, ok);
        }
        if ok && req.op.is_query() && self.config.crack_after_queries {
            if let Some(e) = &entry {
                let report = e.crack_pending();
                if report.added > 0 {
                    self.metrics.cracked_reps.add(report.added as u64);
                    self.metrics.crack_passes.incr();
                    if report.rebuilt {
                        self.metrics.crack_rebuilds.incr();
                    }
                }
            }
        }
        line
    }

    /// Runs one query op end to end against `entry`. `Err` carries the
    /// typed error.
    fn run_query(&self, req: &Request, entry: &IndexEntry<L>) -> Result<String, QueryError> {
        // Fail fast while the oracle's circuit breaker is open: don't burn
        // a sampling plan on an oracle known to be down — tell the client
        // when to come back instead. Once the open window has elapsed
        // (`retry_after` hits zero) the query is admitted so its first
        // oracle call becomes the breaker's half-open probe.
        if let Some(h) = entry.labeler.oracle_health() {
            let still_cooling = h.retry_after_micros.is_some_and(|m| m > 0);
            if h.breaker == BreakerState::Open && still_cooling {
                self.metrics.labeler_unavailable.incr();
                entry.metrics.labeler_unavailable.incr();
                return Err(QueryError::new(
                    ErrorKind::LabelerUnavailable,
                    format!(
                        "oracle circuit breaker is open after {} consecutive faults",
                        h.consecutive_faults
                    ),
                )
                .with_retry(h.retry_after_micros));
            }
        }
        let idx = entry.index();
        if idx.n_records() == 0 {
            return Err(QueryError::new(ErrorKind::Internal, "index has no records"));
        }
        let score = req
            .score
            .as_ref()
            .ok_or_else(|| {
                QueryError::new(
                    ErrorKind::BadRequest,
                    format!("op '{}' needs a 'score' spec", req.op.name()),
                )
            })?
            .to_scoring();
        let threshold = req.threshold.unwrap_or(DEFAULT_THRESHOLD);
        // `predicate_aggregate` gates records on a second scoring function;
        // validate it up front so the failure is a clean `bad_request`.
        let pred = match req.op {
            Op::PredicateAggregate => Some(
                req.predicate
                    .as_ref()
                    .ok_or_else(|| {
                        QueryError::new(
                            ErrorKind::BadRequest,
                            "predicate_aggregate needs a 'predicate' spec",
                        )
                    })?
                    .to_scoring(),
            ),
            _ => None,
        };
        // The algorithms never call the oracle past their own budgets, but
        // the *entry-lifetime* label budget can run out mid-query. The
        // batch front door labels the affordable prefix and errors; we
        // record the hit, feed the algorithm neutral values so it
        // terminates normally, and discard its result in favor of a typed
        // `budget_exhausted` error. Oracle faults propagate as
        // `LabelerFault` into the fault-aware `try_*` entry points, which
        // degrade the query to a proxy-only partial answer.
        let budget_hit = std::sync::atomic::AtomicBool::new(false);
        let label_scores = |recs: &[RecordId]| -> Result<Vec<f64>, LabelerFault> {
            match entry.labeler.try_label_batch_fallible(recs) {
                Ok(outputs) => Ok(outputs.iter().map(|o| score.score(o)).collect()),
                Err(LabelerError::Budget(_)) => {
                    budget_hit.store(true, std::sync::atomic::Ordering::Relaxed);
                    Ok(vec![0.0; recs.len()])
                }
                Err(LabelerError::Fault(f)) => Err(f),
            }
        };
        let result = catch_unwind(AssertUnwindSafe(|| match req.op {
            Op::EbsAggregate => {
                let proxy = self.proxy(&idx, score.as_ref(), req.k);
                let mut config = AggregationConfig::default();
                if let Some(v) = req.error_target {
                    config.error_target = v;
                }
                if let Some(v) = req.confidence {
                    config.confidence = v;
                }
                if let Some(v) = req.seed {
                    config.seed = v;
                }
                let out = try_ebs_aggregate_batch(&proxy, &mut |recs| label_scores(recs), &config);
                let (r, fault) = split_outcome(out);
                let mut body = String::new();
                push_num(&mut body, "estimate", r.estimate);
                push_num(&mut body, "ci_half_width", r.ci_half_width);
                push_int(&mut body, "samples", r.samples);
                push_bool(&mut body, "exhausted", r.exhausted);
                push_num(&mut body, "control_coefficient", r.control_coefficient);
                push_num(&mut body, "rho_squared", r.rho_squared);
                body.pop();
                (body, r.telemetry, fault)
            }
            Op::SupgRecallTarget => {
                let proxy = self.proxy(&idx, score.as_ref(), req.k);
                let mut config = SupgConfig::default();
                if let Some(v) = req.recall_target {
                    config.recall_target = v;
                }
                if let Some(v) = req.confidence {
                    config.confidence = v;
                }
                if let Some(v) = req.budget {
                    config.budget = v;
                }
                if let Some(v) = req.uniform_mix {
                    config.uniform_mix = v;
                }
                if let Some(v) = req.seed {
                    config.seed = v;
                }
                let out = try_supg_recall_target_batch(
                    &proxy,
                    &mut |recs| {
                        label_scores(recs).map(|v| v.iter().map(|&s| s >= threshold).collect())
                    },
                    &config,
                );
                let (r, fault) = split_outcome(out);
                let mut body = String::new();
                push_int(&mut body, "returned_count", r.returned.len() as u64);
                push_records(&mut body, "returned", &r.returned);
                push_num(&mut body, "threshold", r.threshold);
                push_num(&mut body, "estimated_recall", r.estimated_recall);
                body.pop();
                (body, r.telemetry, fault)
            }
            Op::SupgPrecisionTarget => {
                let proxy = self.proxy(&idx, score.as_ref(), req.k);
                let mut config = SupgPrecisionConfig::default();
                if let Some(v) = req.precision_target {
                    config.precision_target = v;
                }
                if let Some(v) = req.confidence {
                    config.confidence = v;
                }
                if let Some(v) = req.budget {
                    config.budget = v;
                }
                if let Some(v) = req.uniform_mix {
                    config.uniform_mix = v;
                }
                if let Some(v) = req.seed {
                    config.seed = v;
                }
                let out = try_supg_precision_target_batch(
                    &proxy,
                    &mut |recs| {
                        label_scores(recs).map(|v| v.iter().map(|&s| s >= threshold).collect())
                    },
                    &config,
                );
                let (r, fault) = split_outcome(out);
                let mut body = String::new();
                push_int(&mut body, "returned_count", r.returned.len() as u64);
                push_records(&mut body, "returned", &r.returned);
                push_num(&mut body, "threshold", r.threshold);
                push_num(&mut body, "estimated_precision", r.estimated_precision);
                body.pop();
                (body, r.telemetry, fault)
            }
            Op::LimitQuery => {
                let ranking = idx.limit_ranking(score.as_ref());
                let k_matches = req.k_matches.unwrap_or(10);
                let max_scan = req.max_scan.unwrap_or(ranking.len());
                let probe_batch = req.probe_batch.unwrap_or(1).max(1);
                let out = try_limit_query_batch(
                    &ranking,
                    &mut |recs| {
                        label_scores(recs).map(|v| v.iter().map(|&s| s >= threshold).collect())
                    },
                    k_matches,
                    max_scan,
                    probe_batch,
                );
                let (r, fault) = split_outcome(out);
                let mut body = String::new();
                push_records(&mut body, "found", &r.found);
                push_bool(&mut body, "satisfied", r.satisfied);
                body.pop();
                (body, r.telemetry, fault)
            }
            Op::PredicateAggregate => {
                // `score` plays the value role; `predicate` gates which
                // records count. A single labeler output answers both.
                let pred = pred.as_ref().expect("validated above");
                let pred_proxy = self.proxy(&idx, pred.as_ref(), req.k);
                let mut config = PredicateAggConfig::default();
                if let Some(v) = req.budget {
                    config.budget = v;
                }
                if let Some(v) = req.confidence {
                    config.confidence = v;
                }
                if let Some(v) = req.uniform_mix {
                    config.uniform_mix = v;
                }
                if let Some(v) = req.seed {
                    config.seed = v;
                }
                let out = try_predicate_aggregate_batch(
                    &pred_proxy,
                    &mut |recs| match entry.labeler.try_label_batch_fallible(recs) {
                        Ok(outputs) => Ok(outputs
                            .iter()
                            .map(|o| (pred.score(o) >= threshold).then(|| score.score(o)))
                            .collect()),
                        Err(LabelerError::Budget(_)) => {
                            budget_hit.store(true, std::sync::atomic::Ordering::Relaxed);
                            Ok(vec![None; recs.len()])
                        }
                        Err(LabelerError::Fault(f)) => Err(f),
                    },
                    &config,
                );
                let (r, fault) = split_outcome(out);
                let mut body = String::new();
                push_num(&mut body, "estimate", r.estimate);
                push_num(&mut body, "ci_half_width", r.ci_half_width);
                push_int(&mut body, "matches_sampled", r.matches_sampled as u64);
                body.pop();
                (body, r.telemetry, fault)
            }
            _ => unreachable!("non-query ops are dispatched in handle()"),
        }))
        .map_err(|panic| {
            let msg = panic
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "query panicked".to_string());
            QueryError::new(ErrorKind::Internal, format!("query failed: {msg}"))
        })?;
        if budget_hit.load(std::sync::atomic::Ordering::Relaxed) {
            return Err(QueryError::new(
                ErrorKind::BudgetExhausted,
                "service label budget exhausted mid-query; partial labels were cached but the \
                 result is not statistically valid",
            ));
        }
        let (mut body, telemetry, fault): (String, QueryTelemetry, Option<LabelerFault>) = result;
        if let Some(fault) = fault {
            self.metrics.oracle_fault_queries.incr();
            entry.metrics.oracle_fault_queries.incr();
            if !self.config.degraded_replies {
                self.metrics.labeler_unavailable.incr();
                entry.metrics.labeler_unavailable.incr();
                let retry_after = entry
                    .labeler
                    .oracle_health()
                    .and_then(|h| h.retry_after_micros);
                return Err(QueryError::new(
                    ErrorKind::LabelerUnavailable,
                    format!("oracle fault mid-query ({fault}); degraded replies are disabled"),
                )
                .with_retry(retry_after));
            }
            // Degraded reply: the partial, proxy-only answer ships with the
            // fault spelled out; its telemetry already carries
            // `certified: false`, `degraded: true`.
            self.metrics.degraded_replies.incr();
            entry.metrics.degraded_replies.incr();
            body.push_str(",\"degraded\":true,\"fault\":\"");
            push_escaped(&mut body, &fault.to_string());
            body.push('"');
        }
        Ok(ok_response_routed(
            req.id,
            &body,
            Some(&telemetry),
            req.index.as_deref(),
        ))
    }

    /// The `ingest` op: validate the batch against the routed index,
    /// durably append it to the segment log (fsync'd — that is the ack
    /// promise), then fold it into the index. Rejections *before* the
    /// append use typed errors and never acknowledge; an apply failure
    /// *after* the append is `internal` — the data is safe in the log and
    /// replays on restart.
    fn ingest_batch(&self, req: &Request, entry: &IndexEntry<L>) -> Result<String, QueryError> {
        let rows = match req.rows.as_deref() {
            Some(rows) if !rows.is_empty() => rows,
            _ => {
                return Err(QueryError::new(
                    ErrorKind::BadRequest,
                    "ingest needs a non-empty 'rows' array",
                ))
            }
        };
        let embedded = req.embedded.unwrap_or(false);
        // Validate shape before the durable append: a malformed batch must
        // be a clean `bad_request`, not a logged frame that poisons replay.
        let idx = entry.index();
        let expected = if embedded {
            idx.embedding_dim()
        } else {
            match idx.model() {
                Some(m) => m.input_dim(),
                None => {
                    return Err(QueryError::new(
                        ErrorKind::BadRequest,
                        "this index has no embedding model; send pre-embedded rows \
                         (\"embedded\":true)",
                    ))
                }
            }
        };
        if let Some((i, row)) = rows.iter().enumerate().find(|(_, r)| r.len() != expected) {
            return Err(QueryError::new(
                ErrorKind::BadRequest,
                format!(
                    "rows[{i}] has {} values but the index expects {expected}",
                    row.len()
                ),
            ));
        }
        drop(idx);
        let payload = encode_ingest_payload(&entry.name, embedded, rows);
        // Durable append with group commit. The log lock is held for the
        // append and the sync bookkeeping, never across the fsync itself:
        // one batch (the leader) runs the fsync off-lock while batches
        // appending meanwhile wait on the condvar and share its coverage —
        // or the next fsync's. A failed append or fsync degrades the
        // service to read-only (fsyncgate: after a failed fsync the
        // kernel's dirty pages are gone, so the durability contract can
        // only be re-established by restart + replay).
        let seq = self.append_durable(entry, &payload)?;
        let out = entry
            .apply_ingest(rows, embedded, seq, self.config.drift_threshold, false)
            .map_err(|e| {
                QueryError::new(
                    ErrorKind::Internal,
                    format!(
                        "batch {seq} is durable in the ingest log but failed to apply ({e}); \
                         it will be retried by replay on restart"
                    ),
                )
            })?;
        self.metrics.records_ingested.add(out.added as u64);
        entry.metrics.records_ingested.add(out.added as u64);
        self.metrics.ingest_batches.incr();
        entry.metrics.ingest_batches.incr();
        if out.refresh_scheduled {
            self.metrics.ingest_escalations.incr();
            entry.metrics.ingest_escalations.incr();
            self.spawn_background_refresh(&entry.name);
        }
        let mut body = String::new();
        push_int(&mut body, "ingested", out.added as u64);
        push_int(&mut body, "start", out.start as u64);
        push_int(&mut body, "records", out.total_records as u64);
        push_int(&mut body, "seq", seq);
        if out.escalated {
            // The assignment refresh runs off the request path; the reply
            // reports that it was handed to the maintenance thread.
            body.push_str("\"escalated\":\"scheduled\",");
            push_num(&mut body, "drift", out.drift);
        }
        body.pop();
        Ok(ok_response_routed(
            req.id,
            &body,
            None,
            req.index.as_deref(),
        ))
    }

    /// Durably appends one encoded batch to the segment log, with group
    /// commit across concurrent batches. Returns the frame's sequence only
    /// once an fsync covers it — the ack promise. On any storage failure
    /// the service enters read-only degradation and the batch is rejected
    /// un-acknowledged with the typed `storage` fault class.
    fn append_durable(&self, entry: &IndexEntry<L>, payload: &str) -> Result<u64, QueryError> {
        let reject = |message: String, read_only: bool| {
            self.metrics.ingest_rejected.incr();
            entry.metrics.ingest_rejected.incr();
            Err(QueryError::new(ErrorKind::IngestRejected, message).storage(read_only))
        };
        let mut guard = self.ingest.lock().unwrap_or_else(|e| e.into_inner());
        let seq = {
            let Some(st) = guard.as_mut() else {
                self.metrics.ingest_rejected.incr();
                entry.metrics.ingest_rejected.incr();
                return Err(QueryError::new(
                    ErrorKind::IngestRejected,
                    "this server runs without an ingest log (start with --ingest-dir)",
                ));
            };
            if let Some(reason) = &st.read_only {
                return reject(
                    format!("ingest is read-only after a storage fault ({reason}); the batch is not acknowledged"),
                    true,
                );
            }
            match st.log.append_unsynced(payload.as_bytes()) {
                Ok(seq) => {
                    st.appended.insert(entry.name.clone(), seq);
                    seq
                }
                Err(e) => {
                    st.read_only = Some(format!("durable append failed: {e}"));
                    self.ingest_cv.notify_all();
                    return reject(
                        format!("durable append failed ({e}); the batch is not acknowledged and ingest is now read-only"),
                        true,
                    );
                }
            }
        };
        // Group-commit loop: ack as soon as any fsync covers `seq`. One
        // waiter at a time leads the fsync off-lock; the rest wait on the
        // condvar and share its result.
        let mut led_a_sync = false;
        loop {
            let st = guard.as_mut().expect("ingest log cannot close mid-request");
            if st.log.synced_seq() >= seq {
                if !led_a_sync {
                    // This batch was covered by an fsync another batch led.
                    self.metrics.group_commit_batches.incr();
                    entry.metrics.group_commit_batches.incr();
                }
                return Ok(seq);
            }
            if let Some(reason) = &st.read_only {
                return reject(
                    format!("fsync failed before the batch was durable ({reason}); the batch is not acknowledged and ingest is now read-only"),
                    true,
                );
            }
            if st.sync_in_flight {
                guard = self
                    .ingest_cv
                    .wait(guard)
                    .unwrap_or_else(|e| e.into_inner());
                continue;
            }
            // Become the leader for every unsynced frame so far.
            let pending = match st.log.begin_sync() {
                Ok(Some(p)) => p,
                Ok(None) => {
                    // Nothing left to sync, yet `seq` is not covered: the
                    // frame was rolled back by a poison — a storage fault.
                    let reason = "the segment holding the batch was poisoned".to_string();
                    st.read_only = Some(reason.clone());
                    self.ingest_cv.notify_all();
                    return reject(
                        format!(
                            "{reason}; the batch is not acknowledged and ingest is now read-only"
                        ),
                        true,
                    );
                }
                Err(e) => {
                    let reason = format!("could not start the durability fsync: {e}");
                    st.read_only = Some(reason.clone());
                    self.ingest_cv.notify_all();
                    return reject(
                        format!(
                            "{reason}; the batch is not acknowledged and ingest is now read-only"
                        ),
                        true,
                    );
                }
            };
            st.sync_in_flight = true;
            drop(guard);
            let result = pending.sync();
            guard = self.ingest.lock().unwrap_or_else(|e| e.into_inner());
            let st = guard.as_mut().expect("ingest log cannot close mid-request");
            st.sync_in_flight = false;
            match st.log.finish_sync(pending, result) {
                Ok(_) => {
                    led_a_sync = true;
                    self.ingest_cv.notify_all();
                    // Loop re-checks coverage (it must: an append racing
                    // between begin_sync and our append is possible only
                    // for *later* frames, but the check is the invariant).
                }
                Err(e) => {
                    // finish_sync poisoned the open segment and rolled the
                    // sequence counter back to the acknowledged prefix.
                    st.read_only = Some(format!("fsync failed: {e}"));
                    self.ingest_cv.notify_all();
                    return reject(
                        format!(
                            "fsync failed ({e}); the open segment is poisoned, the batch is not \
                             acknowledged, and ingest is now read-only"
                        ),
                        true,
                    );
                }
            }
        }
    }

    /// Spawns the background worker for a newly scheduled drift
    /// escalation ([`IndexEntry::run_scheduled_refresh`]). Joined at
    /// graceful shutdown via
    /// [`TastiService::join_background_refreshes`].
    fn spawn_background_refresh(&self, name: &str) {
        let Some(entry) = self.registry.get(Some(name)) else {
            return;
        };
        let metrics = Arc::clone(&self.metrics);
        let handle = std::thread::spawn(move || {
            if entry.run_scheduled_refresh() {
                metrics.ingest_background_refreshes.incr();
                entry.metrics.ingest_background_refreshes.incr();
            }
        });
        self.refresh_threads
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(handle);
    }

    /// Joins every background drift-escalation worker spawned so far.
    /// Called during graceful shutdown so the final crack/snapshot sees
    /// the refreshed assignment.
    pub fn join_background_refreshes(&self) {
        let handles: Vec<JoinHandle<()>> = self
            .refresh_threads
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain(..)
            .collect();
        for h in handles {
            let _ = h.join();
        }
    }

    /// The `"storage"` section of `health`/`metrics`: poisoned segments,
    /// sync failures, snapshot fallback loads, read-only state. `None`
    /// until any storage fault has fired, so fault-free output stays
    /// byte-identical to the pre-fault-model protocol.
    fn storage_json(&self) -> Option<String> {
        let (sync_failures, poisoned, read_only) = {
            let guard = self.ingest.lock().unwrap_or_else(|e| e.into_inner());
            match guard.as_ref() {
                Some(st) => (
                    st.log.sync_failures(),
                    st.log.poisoned_segments(),
                    st.read_only.clone(),
                ),
                None => (0, 0, None),
            }
        };
        let fallback_loads = self.metrics.snapshot_fallback_loads.get();
        if sync_failures == 0 && poisoned == 0 && read_only.is_none() && fallback_loads == 0 {
            return None;
        }
        let mut out = String::from("\"storage\":{");
        push_bool(&mut out, "read_only", read_only.is_some());
        if let Some(reason) = &read_only {
            out.push_str("\"reason\":\"");
            push_escaped(&mut out, reason);
            out.push_str("\",");
        }
        push_int(&mut out, "sync_failures", sync_failures);
        push_int(&mut out, "poisoned_segments", poisoned);
        push_int(&mut out, "snapshot_fallback_loads", fallback_loads);
        out.pop();
        out.push('}');
        Some(out)
    }

    /// The `health` admin response: meter status plus the oracle path's
    /// breaker/fault/retry counters when the wrapped labeler reports them
    /// (a [`tasti_labeler::ResilientLabeler`] does; a plain labeler yields
    /// `"oracle": null`).
    fn health_response(&self, req: &Request, entry: &IndexEntry<L>) -> String {
        let mut body = String::new();
        push_int(&mut body, "invocations", entry.labeler.invocations());
        push_int(&mut body, "cache_hits", entry.labeler.cache_hits());
        push_int(&mut body, "reserved", entry.labeler.reserved());
        match entry.labeler.oracle_health() {
            None => body.push_str("\"oracle\":null"),
            Some(h) => {
                body.push_str("\"oracle\":{\"breaker\":\"");
                body.push_str(h.breaker.name());
                body.push_str("\",");
                match h.retry_after_micros {
                    Some(m) => push_int(&mut body, "retry_after_micros", m),
                    None => body.push_str("\"retry_after_micros\":null,"),
                }
                push_int(&mut body, "consecutive_faults", h.consecutive_faults as u64);
                push_int(&mut body, "total_faults", h.total_faults());
                body.push_str("\"faults_by_kind\":{");
                for (i, kind) in FaultKind::ALL.into_iter().enumerate() {
                    if i > 0 {
                        body.push(',');
                    }
                    body.push('"');
                    body.push_str(kind.name());
                    body.push_str("\":");
                    body.push_str(&h.faults_by_kind[kind.index()].to_string());
                }
                body.push_str("},");
                push_int(&mut body, "retries", h.retries);
                push_int(&mut body, "breaker_opens", h.breaker_opens);
                push_int(&mut body, "breaker_transitions", h.breaker_transitions);
                body.pop();
                body.push('}');
            }
        }
        if let Some(s) = self.storage_json() {
            body.push(',');
            body.push_str(&s);
        }
        ok_response_routed(req.id, &body, None, req.index.as_deref())
    }

    /// Proxy scores via rep propagation, honoring a per-request `k`.
    fn proxy(&self, idx: &TastiIndex, score: &dyn ScoringFunction, k: Option<usize>) -> Vec<f64> {
        match k {
            Some(k) => idx.propagate_with_k(score, k.clamp(1, idx.k())),
            None => idx.propagate(score),
        }
    }

    fn index_stats(&self, req: &Request, entry: &IndexEntry<L>) -> Result<String, QueryError> {
        let idx = entry.index();
        let mut body = String::new();
        push_int(&mut body, "records", idx.n_records() as u64);
        push_int(&mut body, "reps", idx.reps().len() as u64);
        push_int(&mut body, "k", idx.k() as u64);
        push_int(&mut body, "embedding_dim", idx.embedding_dim() as u64);
        body.push_str("\"metric\":\"");
        push_escaped(&mut body, &format!("{:?}", idx.metric()));
        body.push_str("\",");
        push_num(&mut body, "cover_radius", idx.cover_radius() as f64);
        push_bool(&mut body, "has_model", idx.model().is_some());
        body.push_str("\"labeler\":{");
        push_int(&mut body, "invocations", entry.labeler.invocations());
        push_int(&mut body, "cache_hits", entry.labeler.cache_hits());
        match entry.label_budget {
            Some(b) => push_int(&mut body, "budget", b),
            None => body.push_str("\"budget\":null,"),
        }
        body.pop();
        body.push('}');
        Ok(ok_response_routed(
            req.id,
            &body,
            None,
            req.index.as_deref(),
        ))
    }

    /// The `metrics` admin response. Routed (`"index"` present): that
    /// entry's metrics alone. Unrouted: the service-wide aggregate — plus,
    /// in multi-index deployments, an `"indexes"` object with one section
    /// per entry. Single-index deployments emit the aggregate only, so the
    /// output stays byte-identical to the pre-registry protocol.
    fn metrics_response(
        &self,
        req: &Request,
        entry: Option<&IndexEntry<L>>,
    ) -> Result<String, QueryError> {
        match entry {
            Some(e) => {
                let mut body = e.metrics.to_json_body();
                append_ingest_section(&mut body, e);
                Ok(ok_response_routed(
                    req.id,
                    &body,
                    None,
                    req.index.as_deref(),
                ))
            }
            None => {
                let mut body = self.metrics.to_json_body();
                if let Some(s) = self.storage_json() {
                    body.push(',');
                    body.push_str(&s);
                }
                if self.registry.len() > 1 {
                    body.push_str(",\"indexes\":{");
                    for (i, e) in self.registry.entries().iter().enumerate() {
                        if i > 0 {
                            body.push(',');
                        }
                        body.push('"');
                        push_escaped(&mut body, &e.name);
                        body.push_str("\":{");
                        body.push_str(&e.metrics.to_json_body());
                        append_ingest_section(&mut body, e);
                        body.push('}');
                    }
                    body.push('}');
                }
                Ok(ok_response(req.id, &body, None))
            }
        }
    }

    fn index_load(&self, req: &Request) -> Result<String, QueryError> {
        let name = req.index.as_deref().ok_or_else(|| {
            QueryError::new(
                ErrorKind::BadRequest,
                "index_load needs an 'index' field naming the new index",
            )
        })?;
        let path = req.path.as_deref().ok_or_else(|| {
            QueryError::new(
                ErrorKind::BadRequest,
                "index_load needs a 'path' field with an index snapshot file",
            )
        })?;
        // `budget` doubles as the new entry's label budget (its query-op
        // meaning — an oracle sampling budget — doesn't apply here).
        let budget = req.budget.map(|b| b as u64);
        let (records, reps) = self
            .load_index_from(name, Path::new(path), budget)
            .map_err(|m| QueryError::new(ErrorKind::BadRequest, m))?;
        let mut body = String::new();
        body.push_str("\"loaded\":\"");
        push_escaped(&mut body, name);
        body.push_str("\",");
        push_int(&mut body, "records", records as u64);
        push_int(&mut body, "reps", reps as u64);
        body.pop();
        Ok(ok_response(req.id, &body, None))
    }

    fn index_unload(&self, req: &Request) -> Result<String, QueryError> {
        let name = req.index.as_deref().ok_or_else(|| {
            QueryError::new(
                ErrorKind::BadRequest,
                "index_unload needs an 'index' field naming the index to unload",
            )
        })?;
        self.registry
            .remove(name)
            .map_err(|m| QueryError::new(ErrorKind::BadRequest, m))?;
        let mut body = String::new();
        body.push_str("\"unloaded\":\"");
        push_escaped(&mut body, name);
        body.push('"');
        Ok(ok_response(req.id, &body, None))
    }

    fn index_list(&self, req: &Request) -> String {
        let mut body = String::new();
        body.push_str("\"default\":\"");
        push_escaped(&mut body, self.registry.default_name());
        body.push_str("\",\"indexes\":[");
        for (i, e) in self.registry.entries().iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            let idx = e.index();
            body.push_str("{\"name\":\"");
            push_escaped(&mut body, &e.name);
            body.push_str("\",");
            push_int(&mut body, "records", idx.n_records() as u64);
            push_int(&mut body, "reps", idx.reps().len() as u64);
            push_bool(&mut body, "default", e.name == self.registry.default_name());
            push_int(&mut body, "invocations", e.labeler.invocations());
            push_int(&mut body, "cache_hits", e.labeler.cache_hits());
            match e.label_budget {
                Some(b) => push_int(&mut body, "budget", b),
                None => body.push_str("\"budget\":null,"),
            }
            body.pop();
            body.push('}');
        }
        body.push(']');
        ok_response(req.id, &body, None)
    }

    fn snapshot(&self, req: &Request, entry: &IndexEntry<L>) -> Result<String, QueryError> {
        let path = entry.snapshot_path.as_ref().ok_or_else(|| {
            QueryError::new(
                ErrorKind::BadRequest,
                "no snapshot path configured (start the server with --snapshot)",
            )
        })?;
        // Storage fault tolerance: after a failed persist, further
        // attempts are held back by an exponential retry window so a dead
        // disk is not hammered — the error carries the remaining wait.
        {
            let backoff = self
                .snapshot_backoff
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            if let Some(t) = backoff.not_before {
                let now = Instant::now();
                if now < t {
                    let remaining = (t - now).as_micros() as u64;
                    return Err(QueryError::new(
                        ErrorKind::Internal,
                        format!(
                            "snapshot is backing off after {} consecutive persist failures",
                            backoff.consecutive_failures
                        ),
                    )
                    .with_retry(Some(remaining.max(1)))
                    .storage(false));
                }
            }
        }
        match entry.snapshot_to(path, &*self.config.storage_vfs) {
            Ok((records, reps, watermark)) => {
                self.metrics.snapshots.incr();
                *self
                    .snapshot_backoff
                    .lock()
                    .unwrap_or_else(|e| e.into_inner()) = SnapshotBackoff::default();
                self.note_persisted(&entry.name, watermark);
                let mut body = String::new();
                body.push_str("\"path\":\"");
                push_escaped(&mut body, &path.display().to_string());
                body.push_str("\",");
                push_int(&mut body, "records", records as u64);
                push_int(&mut body, "reps", reps as u64);
                body.pop();
                Ok(ok_response_routed(
                    req.id,
                    &body,
                    None,
                    req.index.as_deref(),
                ))
            }
            Err(message) => {
                self.metrics.snapshot_failures.incr();
                let mut backoff = self
                    .snapshot_backoff
                    .lock()
                    .unwrap_or_else(|e| e.into_inner());
                backoff.consecutive_failures = backoff.consecutive_failures.saturating_add(1);
                let exp = backoff.consecutive_failures.saturating_sub(1).min(16);
                let window = SNAPSHOT_BACKOFF_BASE
                    .saturating_mul(1u32 << exp)
                    .min(SNAPSHOT_BACKOFF_CAP);
                backoff.not_before = Some(Instant::now() + window);
                Err(QueryError::new(ErrorKind::Internal, message).storage(false))
            }
        }
    }

    /// Persists the **default** index to `path` (atomic temp-file + rename
    /// via `persist::save`). Returns `(records, reps)` of the saved
    /// snapshot.
    pub fn snapshot_to(
        &self,
        path: &std::path::Path,
    ) -> Result<(usize, usize), (ErrorKind, String)> {
        match self
            .registry
            .default_entry()
            .snapshot_to(path, &*self.config.storage_vfs)
        {
            Ok((records, reps, watermark)) => {
                self.metrics.snapshots.incr();
                self.note_persisted(self.registry.default_name(), watermark);
                Ok((records, reps))
            }
            Err(message) => {
                self.metrics.snapshot_failures.incr();
                Err((ErrorKind::Internal, message))
            }
        }
    }

    /// Records that `name`'s snapshot now covers ingest frames up to
    /// `watermark`, then compacts the segment log past the point *every*
    /// index with logged frames has persisted. Compaction failure is
    /// swallowed — the log merely keeps more history than it needs.
    fn note_persisted(&self, name: &str, watermark: u64) {
        let mut guard = self.ingest.lock().unwrap_or_else(|e| e.into_inner());
        let Some(st) = guard.as_mut() else { return };
        st.persisted.insert(name.to_string(), watermark);
        let floor = st
            .appended
            .keys()
            .map(|n| st.persisted.get(n).copied().unwrap_or(0))
            .min()
            .unwrap_or(0);
        if floor > 0 {
            let _ = st.log.compact(floor);
        }
    }

    /// Folds query-paid labels back into **every** loaded index (§3.3
    /// cracking); see [`IndexEntry::crack_pending`] for the per-entry
    /// mechanics. Returns the total number of reps added.
    pub fn crack_pending(&self) -> usize {
        let mut total = 0;
        for entry in self.registry.entries() {
            let report = entry.crack_pending();
            if report.added > 0 {
                self.metrics.cracked_reps.add(report.added as u64);
                self.metrics.crack_passes.incr();
                if report.rebuilt {
                    self.metrics.crack_rebuilds.incr();
                }
            }
            total += report.added;
        }
        total
    }
}

impl<L: FallibleTargetLabeler + 'static> std::fmt::Debug for TastiService<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let idx = self.index();
        f.debug_struct("TastiService")
            .field("indexes", &self.registry.len())
            .field("records", &idx.n_records())
            .field("reps", &idx.reps().len())
            .field("labeler_invocations", &self.labeler().invocations())
            .finish()
    }
}

/// How many record ids a response array carries before truncating (the
/// count field is always exact).
const MAX_RECORDS_IN_RESPONSE: usize = 1000;

/// Appends `,"ingest":{...}` when the entry has streaming-ingest activity.
/// Idle entries emit nothing, keeping ingest-free `metrics` output
/// byte-identical to the pre-ingest protocol.
fn append_ingest_section<L: FallibleTargetLabeler>(body: &mut String, entry: &IndexEntry<L>) {
    let t = entry.ingest_telemetry();
    if !t.is_idle() {
        body.push_str(",\"ingest\":");
        t.write_json(body);
    }
}

/// Serializes one ingest batch as a segment-log frame payload. The index
/// name rides inside the frame so replay can route it without any state
/// outside the log.
fn encode_ingest_payload(index: &str, embedded: bool, rows: &[Vec<f32>]) -> String {
    let mut out = String::from("{\"index\":\"");
    push_escaped(&mut out, index);
    out.push_str("\",\"embedded\":");
    out.push_str(if embedded { "true" } else { "false" });
    out.push_str(",\"rows\":[");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, v) in row.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&fmt_f64(f64::from(*v)));
        }
        out.push(']');
    }
    out.push_str("]}");
    out
}

/// Parses a frame payload back into `(index, embedded, rows)`.
fn decode_ingest_payload(payload: &[u8]) -> Result<(String, bool, Vec<Vec<f32>>), String> {
    let text = std::str::from_utf8(payload).map_err(|_| "payload is not UTF-8".to_string())?;
    let doc = JsonValue::parse(text).map_err(|e| format!("payload is not JSON: {e}"))?;
    let index = doc
        .get("index")
        .and_then(JsonValue::as_str)
        .ok_or_else(|| "payload is missing 'index'".to_string())?
        .to_string();
    let embedded = doc
        .get("embedded")
        .and_then(JsonValue::as_bool)
        .unwrap_or(false);
    let rows_v = doc
        .get("rows")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| "payload is missing 'rows'".to_string())?;
    let mut rows = Vec::with_capacity(rows_v.len());
    for row in rows_v {
        let vals = row
            .as_array()
            .ok_or_else(|| "payload row is not an array".to_string())?;
        let mut out = Vec::with_capacity(vals.len());
        for v in vals {
            out.push(
                v.as_f64()
                    .ok_or_else(|| "payload row value is not a number".to_string())?
                    as f32,
            );
        }
        rows.push(out);
    }
    Ok((index, embedded, rows))
}

fn push_num(out: &mut String, key: &str, v: f64) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    out.push_str(&fmt_f64(v));
    out.push(',');
}

fn push_int(out: &mut String, key: &str, v: u64) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    out.push_str(&v.to_string());
    out.push(',');
}

fn push_bool(out: &mut String, key: &str, v: bool) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":");
    out.push_str(if v { "true" } else { "false" });
    out.push(',');
}

fn push_records(out: &mut String, key: &str, records: &[usize]) {
    out.push('"');
    out.push_str(key);
    out.push_str("\":[");
    for (i, r) in records.iter().take(MAX_RECORDS_IN_RESPONSE).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&r.to_string());
    }
    out.push(']');
    out.push(',');
    if records.len() > MAX_RECORDS_IN_RESPONSE {
        push_bool(out, "truncated", true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ingest_payload_round_trips_through_the_frame_codec() {
        let rows = vec![vec![0.5f32, -1.25, 3.0], vec![0.0, 2.0, 4.5]];
        let payload = encode_ingest_payload("night \"street\"", true, &rows);
        let (name, embedded, back) = decode_ingest_payload(payload.as_bytes()).unwrap();
        assert_eq!(name, "night \"street\"");
        assert!(embedded);
        assert_eq!(back, rows);
    }

    #[test]
    fn malformed_frame_payloads_are_typed_errors_not_panics() {
        assert!(decode_ingest_payload(&[0xff, 0xfe])
            .unwrap_err()
            .contains("UTF-8"));
        assert!(decode_ingest_payload(b"not json")
            .unwrap_err()
            .contains("not JSON"));
        assert!(decode_ingest_payload(b"{\"rows\":[[1.0]]}")
            .unwrap_err()
            .contains("'index'"));
        assert!(decode_ingest_payload(b"{\"index\":\"a\"}")
            .unwrap_err()
            .contains("'rows'"));
        assert!(
            decode_ingest_payload(b"{\"index\":\"a\",\"rows\":[[true]]}")
                .unwrap_err()
                .contains("not a number")
        );
    }
}
