//! The named-index registry: one server, many datasets, many tenants.
//!
//! PR 4's service held exactly one `TastiIndex`, so serving the paper's
//! five workloads needed five deployments. The registry makes indexes a
//! *routed* resource: every entry is a named bundle of
//!
//! * the index itself behind `RwLock<Arc<TastiIndex>>` (readers clone the
//!   `Arc` under a brief read lock, cracking swaps it),
//! * its own [`MeteredLabeler`] — exactly-once oracle accounting is
//!   **per index**, because the oracle answers for one dataset and its
//!   label-cost totals must not be polluted by a co-tenant's traffic,
//! * its own label budget (tenant cost isolation),
//! * its own [`ServeMetrics`] (per-index sections in the `metrics` op),
//! * its own maintenance mutex (cracking one index never serializes
//!   another's fold-ins), and
//! * an optional snapshot path (where the `snapshot` op persists it).
//!
//! Requests carry an optional `"index"` field; absent means the **default
//! entry**, so every pre-registry wire line keeps working unchanged. The
//! default entry can never be unloaded — `Server` teardown and the
//! back-compat accessors on [`crate::TastiService`] rely on it.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, RwLock, TryLockError};

use tasti_ingest::Vfs;

use tasti_core::build::assign_telemetry;
use tasti_core::crack::crack_from_labeler_audited;
use tasti_core::index::{AppendError, CrackReport, TastiIndex};
use tasti_core::persist;
use tasti_core::AssignStats;
use tasti_labeler::{FallibleTargetLabeler, MeteredLabeler};
use tasti_obs::{DriftGauge, IngestTelemetry};

use crate::metrics::ServeMetrics;

/// Anchors a [`DriftGauge`] on an index's current cluster structure:
/// per-rep mean nearest distances (the radius baseline) and the global
/// nearest-distance variance. `O(n_records)`; runs once per entry at first
/// ingest and again after each drift escalation.
fn anchor_gauge(index: &TastiIndex) -> DriftGauge {
    let mink = index.mink();
    let n_reps = mink.n_reps();
    let mut sum = vec![0.0f64; n_reps];
    let mut count = vec![0u64; n_reps];
    let (mut gsum, mut gsumsq, mut gcount) = (0.0f64, 0.0f64, 0u64);
    for r in 0..mink.n_records() {
        let nb = mink.nearest(r);
        let d = f64::from(nb.dist);
        if !d.is_finite() {
            continue;
        }
        sum[nb.rep as usize] += d;
        count[nb.rep as usize] += 1;
        gsum += d;
        gsumsq += d * d;
        gcount += 1;
    }
    let radius: Vec<f64> = (0..n_reps)
        .map(|c| {
            if count[c] > 0 {
                sum[c] / count[c] as f64
            } else {
                0.0
            }
        })
        .collect();
    let variance = if gcount > 0 {
        let mean = gsum / gcount as f64;
        (gsumsq / gcount as f64 - mean * mean).max(0.0)
    } else {
        0.0
    };
    DriftGauge::new(radius, variance)
}

/// The index-side work of one ingest batch: append, watermark, drift
/// observation, and (past the threshold) the drift escalation. Shared by
/// [`IndexEntry::apply_ingest`]'s in-place and clone-and-swap paths.
/// `inline_refresh` decides what an escalation *does*: replay runs the
/// full assignment refresh right here (startup has no request path to
/// protect), the live path only reports it so the serving layer can
/// schedule the refresh on its background maintenance thread. Returns the
/// assigned id range, the drift reading compared against the threshold,
/// whether it escalated, and the refresh stats when one ran inline.
fn ingest_into(
    idx: &mut TastiIndex,
    gauge: &mut DriftGauge,
    rows: &[Vec<f32>],
    embedded: bool,
    seq: u64,
    drift_threshold: f64,
    inline_refresh: bool,
) -> Result<(std::ops::Range<usize>, f64, bool, Option<AssignStats>), AppendError> {
    let range = idx.try_append_rows(rows, embedded)?;
    idx.set_ingest_watermark(seq);
    for r in range.clone() {
        let nb = idx.mink().nearest(r);
        gauge.observe(nb.rep as usize, f64::from(nb.dist));
    }
    let drift = gauge.drift();
    let escalated = drift > drift_threshold && !range.is_empty();
    let assign = if escalated && inline_refresh {
        let stats = idx.refresh_assignment();
        *gauge = anchor_gauge(idx);
        Some(stats)
    } else {
        None
    };
    Ok((range, drift, escalated, assign))
}

/// Per-entry streaming-ingest state: the drift gauge (anchored lazily on
/// first ingest so ingest-free entries pay nothing) and the telemetry
/// record the `metrics` op emits.
#[derive(Default)]
struct IngestState {
    gauge: Option<DriftGauge>,
    telemetry: IngestTelemetry,
}

/// What one applied ingest batch did to an entry's index.
#[derive(Debug, Clone)]
pub struct IngestOutcome {
    /// False when the frame's sequence was at or below the index's ingest
    /// watermark — an already-applied frame seen again during replay.
    pub applied: bool,
    /// First record id assigned to the batch.
    pub start: usize,
    /// Records appended.
    pub added: usize,
    /// Total records in the index after the batch.
    pub total_records: usize,
    /// Whether drift crossed the threshold. During replay the rep
    /// assignment was refreshed inline; on the live path the refresh is
    /// the serving layer's to schedule (see
    /// [`IndexEntry::schedule_refresh`]), keeping it off the request path.
    pub escalated: bool,
    /// True when this batch's escalation newly claimed the background
    /// refresh slot — the serving layer must run
    /// [`IndexEntry::run_scheduled_refresh`] (escalations firing while a
    /// refresh is already pending coalesce and leave this false).
    pub refresh_scheduled: bool,
    /// The drift-gauge reading right after the batch folded in (pre-reset
    /// when it escalated — the value that tripped the threshold).
    pub drift: f64,
}

/// One named index with everything that must travel with it: labeler,
/// budget, metrics, maintenance lock, snapshot target.
pub struct IndexEntry<L: FallibleTargetLabeler> {
    /// The registry name this entry answers to.
    pub name: String,
    index: RwLock<Arc<TastiIndex>>,
    /// The entry's own metered labeler: exactly-once accounting and the
    /// label-cost totals are per index, never shared across tenants.
    pub labeler: MeteredLabeler<L>,
    /// Hard target-labeler budget for this entry's lifetime (`None` =
    /// unlimited). Applied to the labeler at construction.
    pub label_budget: Option<u64>,
    /// Per-index operational metrics (the `metrics` op emits one section
    /// per entry plus the service-wide aggregate).
    pub metrics: ServeMetrics,
    /// Serializes this entry's crack maintenance; queries never wait on it.
    maintenance: Mutex<()>,
    /// Streaming-ingest drift gauge + telemetry. Locked after
    /// `maintenance` (ingest) or alone (telemetry reads).
    ingest: Mutex<IngestState>,
    /// Set while a drift-escalated assignment refresh is scheduled but not
    /// yet completed — deduplicates escalations that fire while the
    /// background refresh is still queued or running.
    refresh_pending: AtomicBool,
    /// Where the `snapshot` op persists this entry. For loaded entries this
    /// defaults to the path the snapshot came from.
    pub snapshot_path: Option<PathBuf>,
}

impl<L: FallibleTargetLabeler> IndexEntry<L> {
    /// Bundles an index and a labeler into a named entry. A `label_budget`
    /// overrides the labeler's own budget (same contract the single-index
    /// service had).
    pub fn new(
        name: impl Into<String>,
        index: TastiIndex,
        mut labeler: MeteredLabeler<L>,
        label_budget: Option<u64>,
        snapshot_path: Option<PathBuf>,
    ) -> Self {
        if label_budget.is_some() {
            labeler.set_budget(label_budget);
        }
        Self {
            name: name.into(),
            index: RwLock::new(Arc::new(index)),
            labeler,
            label_budget,
            metrics: ServeMetrics::new(),
            maintenance: Mutex::new(()),
            ingest: Mutex::new(IngestState::default()),
            refresh_pending: AtomicBool::new(false),
            snapshot_path,
        }
    }

    /// A consistent snapshot of this entry's index (brief read lock, then
    /// lock-free).
    pub fn index(&self) -> Arc<TastiIndex> {
        Arc::clone(&self.index.read().unwrap_or_else(|e| e.into_inner()))
    }

    /// Folds query-paid labels back into this entry's index (§3.3
    /// cracking) without blocking readers: clone the current index, crack
    /// the clone off-lock, swap the `Arc` under a brief write lock. One
    /// pass at a time per entry; callers that lose the `try_lock` race
    /// skip — the winner folds the shared labeler cache in anyway. The
    /// returned [`CrackReport`] makes the maintenance decision visible:
    /// whether the batch stayed on the incremental min-k append path or
    /// escalated to a full assignment rebuild (and with what realized
    /// candidate counts).
    pub fn crack_pending(&self) -> CrackReport {
        let skipped = CrackReport {
            added: 0,
            rebuilt: false,
            assign: None,
        };
        let _guard = match self.maintenance.try_lock() {
            Ok(g) => g,
            Err(TryLockError::WouldBlock) => return skipped,
            Err(TryLockError::Poisoned(e)) => e.into_inner(),
        };
        let snapshot = self.index();
        // Cheap pre-check: anything new to fold in?
        if !self
            .labeler
            .labeled_records()
            .iter()
            .any(|&r| r < snapshot.n_records() && !snapshot.is_rep(r))
        {
            return skipped;
        }
        let mut working = (*snapshot).clone();
        let report = crack_from_labeler_audited(&mut working, &self.labeler);
        if report.added > 0 {
            let next = Arc::new(working);
            *self.index.write().unwrap_or_else(|e| e.into_inner()) = next;
            self.metrics.cracked_reps.add(report.added as u64);
            self.metrics.crack_passes.incr();
            let mut st = self.ingest.lock().unwrap_or_else(|e| e.into_inner());
            if report.rebuilt {
                st.telemetry.crack_rebuilds += 1;
                self.metrics.crack_rebuilds.incr();
                if let Some(stats) = &report.assign {
                    st.telemetry.last_assign = Some(assign_telemetry(stats));
                }
            } else {
                st.telemetry.crack_incremental += 1;
            }
        }
        report
    }

    /// Durably-logged ingest, index side: appends `rows` to this entry's
    /// index, feeds the drift gauge, and escalates when drift crosses
    /// `drift_threshold` — inline during replay, reported for background
    /// scheduling on the live path. `seq` is the batch's segment-log
    /// sequence — it becomes the index's ingest watermark, and a frame at
    /// or below the current watermark is skipped (`applied: false`), which
    /// is what makes startup replay idempotent.
    ///
    /// Takes the maintenance lock *blocking* (unlike cracking, ingest must
    /// never be dropped) and mutates a clone off-lock unless no reader
    /// holds the index, in which case it updates in place under the write
    /// lock. Validation errors leave index and gauge untouched.
    pub fn apply_ingest(
        &self,
        rows: &[Vec<f32>],
        embedded: bool,
        seq: u64,
        drift_threshold: f64,
        replay: bool,
    ) -> Result<IngestOutcome, AppendError> {
        let _guard = self.maintenance.lock().unwrap_or_else(|e| e.into_inner());
        let mut slot = self.index.write().unwrap_or_else(|e| e.into_inner());
        if seq != 0 && slot.ingest_watermark() >= seq {
            return Ok(IngestOutcome {
                applied: false,
                start: slot.n_records(),
                added: 0,
                total_records: slot.n_records(),
                escalated: false,
                refresh_scheduled: false,
                drift: 0.0,
            });
        }
        let mut st = self.ingest.lock().unwrap_or_else(|e| e.into_inner());
        let st = &mut *st;
        if st.gauge.is_none() {
            // Anchor on the pre-ingest structure the FPF pass built.
            st.gauge = Some(anchor_gauge(&slot));
        }
        let gauge = st.gauge.as_mut().expect("anchored above");
        // Replay refreshes inline (startup has no request path to keep
        // fast); live escalations are handed to the background thread.
        let inline = replay;
        // Fast path: no in-flight query holds the index — mutate in place
        // under the write lock (appends are incremental, O(batch)).
        // Otherwise clone off-lock and swap, like cracking.
        let (range, drift, escalated, assign) = match Arc::get_mut(&mut slot) {
            Some(idx) => ingest_into(idx, gauge, rows, embedded, seq, drift_threshold, inline)?,
            None => {
                drop(slot);
                let snapshot = self.index();
                let mut working = (*snapshot).clone();
                drop(snapshot);
                let out = ingest_into(
                    &mut working,
                    gauge,
                    rows,
                    embedded,
                    seq,
                    drift_threshold,
                    inline,
                )?;
                *self.index.write().unwrap_or_else(|e| e.into_inner()) = Arc::new(working);
                out
            }
        };
        st.telemetry.records_ingested += range.len() as u64;
        if replay {
            st.telemetry.replayed_frames += 1;
        } else {
            st.telemetry.batches += 1;
        }
        // Live escalations coalesce onto one pending background refresh;
        // the counter ticks per refresh initiated, not per batch that saw
        // drift above threshold while one was already queued.
        let refresh_scheduled = escalated && !inline && self.schedule_refresh();
        if (escalated && inline) || refresh_scheduled {
            st.telemetry.escalations += 1;
        }
        if let Some(stats) = &assign {
            st.telemetry.last_assign = Some(assign_telemetry(stats));
        }
        st.telemetry.drift_threshold = drift_threshold;
        st.telemetry.drift = st.gauge.as_ref().map(DriftGauge::drift).unwrap_or(0.0);
        Ok(IngestOutcome {
            applied: true,
            start: range.start,
            added: range.len(),
            total_records: range.end,
            escalated,
            refresh_scheduled,
            drift,
        })
    }

    /// Marks a drift escalation as needing a background assignment
    /// refresh. Returns `true` when this call claimed the slot (the caller
    /// should spawn/queue [`IndexEntry::run_scheduled_refresh`]) and
    /// `false` when a refresh is already pending — escalations arriving
    /// while one is queued coalesce into it.
    pub fn schedule_refresh(&self) -> bool {
        self.refresh_pending
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Runs one scheduled drift escalation off the request path: clone the
    /// index, refresh the rep assignment from scratch, swap, re-anchor the
    /// drift gauge on the rebuilt structure. Serialized against ingest and
    /// cracking by the maintenance lock. No-op when nothing was scheduled.
    pub fn run_scheduled_refresh(&self) -> bool {
        if !self.refresh_pending.load(Ordering::Acquire) {
            return false;
        }
        let _guard = self.maintenance.lock().unwrap_or_else(|e| e.into_inner());
        let snapshot = self.index();
        let mut working = (*snapshot).clone();
        drop(snapshot);
        let stats = working.refresh_assignment();
        let rebuilt = anchor_gauge(&working);
        *self.index.write().unwrap_or_else(|e| e.into_inner()) = Arc::new(working);
        let mut st = self.ingest.lock().unwrap_or_else(|e| e.into_inner());
        st.gauge = Some(rebuilt);
        st.telemetry.background_refreshes += 1;
        st.telemetry.last_assign = Some(assign_telemetry(&stats));
        st.telemetry.drift = 0.0;
        drop(st);
        self.refresh_pending.store(false, Ordering::Release);
        true
    }

    /// A point-in-time copy of this entry's ingest telemetry with the
    /// drift gauge's current reading folded in. [`IngestTelemetry::is_idle`]
    /// on the result tells callers whether to emit it at all.
    pub fn ingest_telemetry(&self) -> IngestTelemetry {
        let st = self.ingest.lock().unwrap_or_else(|e| e.into_inner());
        let mut t = st.telemetry.clone();
        if let Some(g) = &st.gauge {
            t.drift = g.drift();
        }
        t
    }

    /// Persists this entry's current index to `path` (atomic temp-file +
    /// rename via `persist::save_with_vfs`, through the service's storage
    /// seam so disk faults are injectable). Returns
    /// `(records, reps, watermark)` of the saved snapshot — the watermark
    /// is what segment-log compaction keys on; bumps this entry's snapshot
    /// counters either way.
    pub fn snapshot_to(
        &self,
        path: &std::path::Path,
        vfs: &dyn Vfs,
    ) -> Result<(usize, usize, u64), String> {
        let idx = self.index();
        match persist::save_with_vfs(&idx, path, vfs) {
            Ok(()) => {
                self.metrics.snapshots.incr();
                Ok((idx.n_records(), idx.reps().len(), idx.ingest_watermark()))
            }
            Err(e) => {
                self.metrics.snapshot_failures.incr();
                Err(format!("snapshot failed: {e}"))
            }
        }
    }
}

impl<L: FallibleTargetLabeler> std::fmt::Debug for IndexEntry<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let idx = self.index();
        f.debug_struct("IndexEntry")
            .field("name", &self.name)
            .field("records", &idx.n_records())
            .field("reps", &idx.reps().len())
            .field("label_budget", &self.label_budget)
            .finish()
    }
}

/// The name → entry map plus the name unnamed requests route to.
///
/// Entries are `Arc`ed so a request can keep serving against an entry that
/// is concurrently unloaded: the unload removes the *route*, the entry
/// itself lives until its last in-flight query drops it.
pub struct IndexRegistry<L: FallibleTargetLabeler> {
    entries: RwLock<BTreeMap<String, Arc<IndexEntry<L>>>>,
    /// The entry unnamed requests route to; protected from unloading.
    default_name: String,
    /// Held separately so back-compat accessors can hand out references
    /// with the service's lifetime.
    default: Arc<IndexEntry<L>>,
}

impl<L: FallibleTargetLabeler> IndexRegistry<L> {
    /// A registry holding only the default entry.
    pub fn new(default: IndexEntry<L>) -> Self {
        let default_name = default.name.clone();
        let default = Arc::new(default);
        let mut entries = BTreeMap::new();
        entries.insert(default_name.clone(), Arc::clone(&default));
        Self {
            entries: RwLock::new(entries),
            default_name,
            default,
        }
    }

    /// The name unnamed requests route to.
    pub fn default_name(&self) -> &str {
        &self.default_name
    }

    /// The default entry (always present).
    pub fn default_entry(&self) -> &Arc<IndexEntry<L>> {
        &self.default
    }

    /// Resolves a request's routing: `None` → the default entry, `Some` →
    /// the named entry (or `None` if no such index is loaded).
    pub fn get(&self, name: Option<&str>) -> Option<Arc<IndexEntry<L>>> {
        match name {
            None => Some(Arc::clone(&self.default)),
            Some(n) => self
                .entries
                .read()
                .unwrap_or_else(|e| e.into_inner())
                .get(n)
                .cloned(),
        }
    }

    /// Registers a new named entry. Rejects duplicates — unload first to
    /// replace, so a tenant's meter can never be silently reset.
    pub fn insert(&self, entry: IndexEntry<L>) -> Result<(), String> {
        let mut entries = self.entries.write().unwrap_or_else(|e| e.into_inner());
        if entries.contains_key(&entry.name) {
            return Err(format!("index '{}' is already loaded", entry.name));
        }
        entries.insert(entry.name.clone(), Arc::new(entry));
        Ok(())
    }

    /// Removes a named entry from routing (in-flight queries against it
    /// finish on their own `Arc`). The default entry cannot be unloaded.
    pub fn remove(&self, name: &str) -> Result<Arc<IndexEntry<L>>, String> {
        if name == self.default_name {
            return Err(format!(
                "index '{name}' is the default index and cannot be unloaded"
            ));
        }
        self.entries
            .write()
            .unwrap_or_else(|e| e.into_inner())
            .remove(name)
            .ok_or_else(|| format!("no index named '{name}' is loaded"))
    }

    /// Every loaded entry, sorted by name.
    pub fn entries(&self) -> Vec<Arc<IndexEntry<L>>> {
        self.entries
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .values()
            .cloned()
            .collect()
    }

    /// Number of loaded entries (≥ 1: the default is always present).
    pub fn len(&self) -> usize {
        self.entries.read().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Never true — the default entry is always present. Provided because
    /// clippy insists a `len` has an `is_empty`.
    pub fn is_empty(&self) -> bool {
        false
    }
}

impl<L: FallibleTargetLabeler> std::fmt::Debug for IndexRegistry<L> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let names: Vec<String> = self.entries().iter().map(|e| e.name.clone()).collect();
        f.debug_struct("IndexRegistry")
            .field("default", &self.default_name)
            .field("entries", &names)
            .finish()
    }
}
