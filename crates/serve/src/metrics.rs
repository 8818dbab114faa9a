//! Operational metrics of the service.
//!
//! Wraps `tasti-obs` counters and histograms behind one struct the server,
//! service, and the `/metrics` admin request all share. Counters are
//! lock-free; per-operation latency histograms sit behind tiny mutexes
//! (recording is O(1), so the critical section is nanoseconds).

use std::sync::Mutex;
use tasti_obs::json::fmt_f64;
use tasti_obs::{Counter, Histogram, HistogramSummary};

use crate::proto::Op;

/// Latency + outcome statistics for one protocol operation.
#[derive(Debug, Default)]
struct OpStats {
    ok: Counter,
    err: Counter,
    latency_micros: Mutex<Histogram>,
}

/// Shared operational metrics, dumped verbatim by the `metrics` request.
#[derive(Debug)]
pub struct ServeMetrics {
    /// Connections the reactor accepted and registered.
    pub connections_accepted: Counter,
    /// Connections rejected by admission control (at `max_connections`).
    pub connections_rejected_overloaded: Counter,
    /// Connections refused because the server was draining.
    pub connections_rejected_shutdown: Counter,
    /// Requests parsed off the wire (well-formed or not).
    pub requests_total: Counter,
    /// Success responses written.
    pub responses_ok: Counter,
    /// Error responses written (any kind).
    pub responses_error: Counter,
    /// Requests that failed to parse.
    pub bad_requests: Counter,
    /// Representatives added by crack maintenance since startup.
    pub cracked_reps: Counter,
    /// Crack maintenance passes that folded in at least one label.
    pub crack_passes: Counter,
    /// Snapshots persisted (admin `snapshot` requests + shutdown snapshot).
    pub snapshots: Counter,
    /// Queries that observed an unrecoverable oracle fault (whether they
    /// were answered degraded or rejected).
    pub oracle_fault_queries: Counter,
    /// `ok` replies that carried a degraded (proxy-only) partial result.
    pub degraded_replies: Counter,
    /// Requests rejected with `labeler_unavailable` (breaker open on entry,
    /// or a mid-query fault with degraded replies disabled).
    pub labeler_unavailable: Counter,
    /// Rejection replies (`overloaded`/`shutting_down`) dropped because the
    /// peer would not accept the write within the rejection write timeout.
    /// The connection is closed either way — this only tracks that the
    /// courtesy error line was lost.
    pub rejection_write_drops: Counter,
    /// Snapshot attempts (admin `snapshot` requests + shutdown snapshot)
    /// that failed to persist (bad path, full disk, …).
    pub snapshot_failures: Counter,
    /// Requests answered `overloaded` because the compute channel was full
    /// (request-level backpressure; the connection stays open).
    pub requests_rejected_overloaded: Counter,
    /// Records durably ingested and applied (acknowledged batches summed).
    pub records_ingested: Counter,
    /// Acknowledged `ingest` batches.
    pub ingest_batches: Counter,
    /// `ingest` batches rejected with the typed `ingest_rejected` error
    /// (no ingest log configured, or the durable append failed).
    pub ingest_rejected: Counter,
    /// Segment-log frames re-applied during startup replay.
    pub ingest_replayed_frames: Counter,
    /// Drift-triggered escalations from incremental rep assignment to a
    /// full assignment refresh.
    pub ingest_escalations: Counter,
    /// Crack maintenance passes that escalated to a full assignment
    /// rebuild (the previously silent reps-grown-by-⅛ heuristic, audited).
    pub crack_rebuilds: Counter,
    /// Drift-escalated assignment refreshes completed off the request path
    /// by the background maintenance thread.
    pub ingest_background_refreshes: Counter,
    /// Acknowledged `ingest` batches whose durability rode a group-commit
    /// fsync led by a concurrent batch (i.e. they shared a sync instead of
    /// issuing their own).
    pub group_commit_batches: Counter,
    /// Index loads that recovered from a corrupt/missing snapshot by
    /// falling back to the rotated last-good (`.prev`) copy.
    pub snapshot_fallback_loads: Counter,
    /// Reactor loop iterations (readiness wakeups + completion and
    /// drain-grace wakeups). Zero for a service driven in-process, without
    /// a socket.
    pub reactor_wakeups: Counter,
    /// Time the reactor spent processing one wakeup (not waiting).
    reactor_loop_micros: Mutex<Histogram>,
    /// Readiness events delivered per wakeup (ready-queue depth).
    reactor_ready_events: Mutex<Histogram>,
    per_op: [OpStats; Op::ALL.len()],
}

impl Default for ServeMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeMetrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        Self {
            connections_accepted: Counter::new(),
            connections_rejected_overloaded: Counter::new(),
            connections_rejected_shutdown: Counter::new(),
            requests_total: Counter::new(),
            responses_ok: Counter::new(),
            responses_error: Counter::new(),
            bad_requests: Counter::new(),
            cracked_reps: Counter::new(),
            crack_passes: Counter::new(),
            snapshots: Counter::new(),
            oracle_fault_queries: Counter::new(),
            degraded_replies: Counter::new(),
            labeler_unavailable: Counter::new(),
            rejection_write_drops: Counter::new(),
            snapshot_failures: Counter::new(),
            requests_rejected_overloaded: Counter::new(),
            records_ingested: Counter::new(),
            ingest_batches: Counter::new(),
            ingest_rejected: Counter::new(),
            ingest_replayed_frames: Counter::new(),
            ingest_escalations: Counter::new(),
            crack_rebuilds: Counter::new(),
            ingest_background_refreshes: Counter::new(),
            group_commit_batches: Counter::new(),
            snapshot_fallback_loads: Counter::new(),
            reactor_wakeups: Counter::new(),
            reactor_loop_micros: Mutex::new(Histogram::default()),
            reactor_ready_events: Mutex::new(Histogram::default()),
            per_op: Default::default(),
        }
    }

    /// Records one reactor loop iteration: processing time and the number
    /// of readiness events it handled.
    pub fn record_reactor_loop(&self, micros: u64, ready_events: u64) {
        self.reactor_loop_micros
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .record(micros);
        self.reactor_ready_events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .record(ready_events);
    }

    /// Latency summary of reactor loop processing time.
    pub fn reactor_loop_summary(&self) -> HistogramSummary {
        self.reactor_loop_micros
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .summary()
    }

    /// Summary of readiness events per reactor wakeup.
    pub fn reactor_ready_summary(&self) -> HistogramSummary {
        self.reactor_ready_events
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .summary()
    }

    fn stats(&self, op: Op) -> &OpStats {
        let idx = Op::ALL.iter().position(|&o| o == op).expect("op in ALL");
        &self.per_op[idx]
    }

    /// Records one handled request for `op`.
    pub fn record(&self, op: Op, micros: u64, ok: bool) {
        let stats = self.stats(op);
        if ok {
            stats.ok.incr();
            self.responses_ok.incr();
        } else {
            stats.err.incr();
            self.responses_error.incr();
        }
        stats
            .latency_micros
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .record(micros);
    }

    /// Latency summary for one operation.
    pub fn latency_summary(&self, op: Op) -> HistogramSummary {
        self.stats(op)
            .latency_micros
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .summary()
    }

    /// Success/error response counts for one operation.
    pub fn op_counts(&self, op: Op) -> (u64, u64) {
        let stats = self.stats(op);
        (stats.ok.get(), stats.err.get())
    }

    /// The inner JSON body of the `metrics` result object (no braces).
    pub fn to_json_body(&self) -> String {
        let mut out = String::new();
        let counter = |key: &str, c: &Counter, out: &mut String| {
            out.push('"');
            out.push_str(key);
            out.push_str("\":");
            out.push_str(&c.get().to_string());
            out.push(',');
        };
        counter("connections_accepted", &self.connections_accepted, &mut out);
        counter(
            "connections_rejected_overloaded",
            &self.connections_rejected_overloaded,
            &mut out,
        );
        counter(
            "connections_rejected_shutdown",
            &self.connections_rejected_shutdown,
            &mut out,
        );
        counter("requests_total", &self.requests_total, &mut out);
        counter("responses_ok", &self.responses_ok, &mut out);
        counter("responses_error", &self.responses_error, &mut out);
        counter("bad_requests", &self.bad_requests, &mut out);
        counter("cracked_reps", &self.cracked_reps, &mut out);
        counter("crack_passes", &self.crack_passes, &mut out);
        counter("snapshots", &self.snapshots, &mut out);
        // Fault-path counters are emitted only once they fire, so the
        // fault-free metrics dump is byte-identical to pre-fault-model
        // output.
        for (key, c) in [
            ("oracle_fault_queries", &self.oracle_fault_queries),
            ("degraded_replies", &self.degraded_replies),
            ("labeler_unavailable", &self.labeler_unavailable),
            ("rejection_write_drops", &self.rejection_write_drops),
            ("snapshot_failures", &self.snapshot_failures),
            (
                "requests_rejected_overloaded",
                &self.requests_rejected_overloaded,
            ),
            // Ingest counters join the same fire-before-emit convention:
            // an ingest-free server's dump stays byte-identical.
            ("records_ingested", &self.records_ingested),
            ("ingest_batches", &self.ingest_batches),
            ("ingest_rejected", &self.ingest_rejected),
            ("ingest_replayed_frames", &self.ingest_replayed_frames),
            ("ingest_escalations", &self.ingest_escalations),
            ("crack_rebuilds", &self.crack_rebuilds),
            // Storage fault-tolerance counters: same convention — absent
            // until the corresponding event fires.
            (
                "ingest_background_refreshes",
                &self.ingest_background_refreshes,
            ),
            ("group_commit_batches", &self.group_commit_batches),
            ("snapshot_fallback_loads", &self.snapshot_fallback_loads),
        ] {
            if c.get() > 0 {
                counter(key, c, &mut out);
            }
        }
        // The reactor section appears only once the reactor has run a loop
        // iteration, so a service driven in-process (no socket) dumps
        // exactly what it did before the reactor existed.
        if self.reactor_wakeups.get() > 0 {
            let summary = |key: &str, s: &HistogramSummary, out: &mut String| {
                out.push('"');
                out.push_str(key);
                out.push_str("\":{\"count\":");
                out.push_str(&s.count.to_string());
                out.push_str(",\"min\":");
                out.push_str(&s.min.to_string());
                out.push_str(",\"max\":");
                out.push_str(&s.max.to_string());
                out.push_str(",\"mean\":");
                out.push_str(&fmt_f64(s.mean));
                out.push_str(",\"p50\":");
                out.push_str(&s.p50.to_string());
                out.push_str(",\"p90\":");
                out.push_str(&s.p90.to_string());
                out.push_str(",\"p99\":");
                out.push_str(&s.p99.to_string());
                out.push('}');
            };
            out.push_str("\"reactor\":{");
            out.push_str("\"wakeups\":");
            out.push_str(&self.reactor_wakeups.get().to_string());
            out.push(',');
            summary("loop_micros", &self.reactor_loop_summary(), &mut out);
            out.push(',');
            summary("ready_events", &self.reactor_ready_summary(), &mut out);
            out.push_str("},");
        }
        out.push_str("\"ops\":{");
        let mut first = true;
        for op in Op::ALL {
            let (ok, err) = self.op_counts(op);
            let s = self.latency_summary(op);
            if s.count == 0 && ok == 0 && err == 0 {
                continue; // keep the dump small: only ops that saw traffic
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push('"');
            out.push_str(op.name());
            out.push_str("\":{\"ok\":");
            out.push_str(&ok.to_string());
            out.push_str(",\"err\":");
            out.push_str(&err.to_string());
            out.push_str(",\"latency_micros\":{\"count\":");
            out.push_str(&s.count.to_string());
            out.push_str(",\"min\":");
            out.push_str(&s.min.to_string());
            out.push_str(",\"max\":");
            out.push_str(&s.max.to_string());
            out.push_str(",\"mean\":");
            out.push_str(&fmt_f64(s.mean));
            out.push_str(",\"p50\":");
            out.push_str(&s.p50.to_string());
            out.push_str(",\"p90\":");
            out.push_str(&s.p90.to_string());
            out.push_str(",\"p99\":");
            out.push_str(&s.p99.to_string());
            out.push_str("}}");
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tasti_obs::JsonValue;

    #[test]
    fn record_updates_totals_and_per_op() {
        let m = ServeMetrics::new();
        m.record(Op::EbsAggregate, 120, true);
        m.record(Op::EbsAggregate, 80, true);
        m.record(Op::LimitQuery, 50, false);
        assert_eq!(m.responses_ok.get(), 2);
        assert_eq!(m.responses_error.get(), 1);
        assert_eq!(m.op_counts(Op::EbsAggregate), (2, 0));
        assert_eq!(m.op_counts(Op::LimitQuery), (0, 1));
        let s = m.latency_summary(Op::EbsAggregate);
        assert_eq!(s.count, 2);
        assert!((s.mean - 100.0).abs() < 1e-9);
    }

    #[test]
    fn fault_counters_are_emitted_only_once_they_fire() {
        let m = ServeMetrics::new();
        let clean = m.to_json_body();
        assert!(!clean.contains("oracle_fault_queries"));
        assert!(!clean.contains("degraded_replies"));
        assert!(!clean.contains("labeler_unavailable"));
        assert!(!clean.contains("rejection_write_drops"));
        assert!(!clean.contains("snapshot_failures"));
        m.oracle_fault_queries.incr();
        m.degraded_replies.incr();
        m.rejection_write_drops.incr();
        m.snapshot_failures.incr();
        let doc = JsonValue::parse(&format!("{{{}}}", m.to_json_body())).unwrap();
        assert_eq!(doc.get("oracle_fault_queries").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("degraded_replies").unwrap().as_u64(), Some(1));
        assert!(doc.get("labeler_unavailable").is_none());
        assert_eq!(doc.get("rejection_write_drops").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("snapshot_failures").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn reactor_section_appears_only_once_the_reactor_runs() {
        let m = ServeMetrics::new();
        assert!(!m.to_json_body().contains("\"reactor\""));
        assert!(!m.to_json_body().contains("requests_rejected_overloaded"));
        m.reactor_wakeups.incr();
        m.record_reactor_loop(75, 3);
        m.requests_rejected_overloaded.incr();
        let doc = JsonValue::parse(&format!("{{{}}}", m.to_json_body())).unwrap();
        assert_eq!(
            doc.get("requests_rejected_overloaded").unwrap().as_u64(),
            Some(1)
        );
        let reactor = doc.get("reactor").unwrap();
        assert_eq!(reactor.get("wakeups").unwrap().as_u64(), Some(1));
        let loop_micros = reactor.get("loop_micros").unwrap();
        assert_eq!(loop_micros.get("count").unwrap().as_u64(), Some(1));
        let ready = reactor.get("ready_events").unwrap();
        assert_eq!(ready.get("count").unwrap().as_u64(), Some(1));
    }

    #[test]
    fn ingest_counters_are_absent_until_ingest_happens() {
        let m = ServeMetrics::new();
        let clean = m.to_json_body();
        for key in [
            "records_ingested",
            "ingest_batches",
            "ingest_rejected",
            "ingest_replayed_frames",
            "ingest_escalations",
            "crack_rebuilds",
        ] {
            assert!(!clean.contains(key), "idle dump must omit {key}");
        }
        m.records_ingested.add(40);
        m.ingest_batches.incr();
        m.crack_rebuilds.incr();
        let doc = JsonValue::parse(&format!("{{{}}}", m.to_json_body())).unwrap();
        assert_eq!(doc.get("records_ingested").unwrap().as_u64(), Some(40));
        assert_eq!(doc.get("ingest_batches").unwrap().as_u64(), Some(1));
        assert_eq!(doc.get("crack_rebuilds").unwrap().as_u64(), Some(1));
        assert!(doc.get("ingest_rejected").is_none());
        assert!(doc.get("ingest_escalations").is_none());
    }

    #[test]
    fn storage_counters_are_absent_until_a_fault_fires() {
        let m = ServeMetrics::new();
        let clean = m.to_json_body();
        for key in [
            "ingest_background_refreshes",
            "group_commit_batches",
            "snapshot_fallback_loads",
        ] {
            assert!(!clean.contains(key), "idle dump must omit {key}");
        }
        m.group_commit_batches.add(3);
        m.snapshot_fallback_loads.incr();
        let doc = JsonValue::parse(&format!("{{{}}}", m.to_json_body())).unwrap();
        assert_eq!(doc.get("group_commit_batches").unwrap().as_u64(), Some(3));
        assert_eq!(
            doc.get("snapshot_fallback_loads").unwrap().as_u64(),
            Some(1)
        );
        assert!(doc.get("ingest_background_refreshes").is_none());
    }

    #[test]
    fn json_body_parses_and_omits_idle_ops() {
        let m = ServeMetrics::new();
        m.connections_accepted.add(3);
        m.record(Op::IndexStats, 10, true);
        let doc = JsonValue::parse(&format!("{{{}}}", m.to_json_body())).unwrap();
        assert_eq!(doc.get("connections_accepted").unwrap().as_u64(), Some(3));
        let ops = doc.get("ops").unwrap();
        assert!(ops.get("index_stats").is_some());
        assert!(ops.get("ebs_aggregate").is_none(), "idle ops omitted");
        assert_eq!(
            ops.get("index_stats")
                .unwrap()
                .get("latency_micros")
                .unwrap()
                .get("count")
                .unwrap()
                .as_u64(),
            Some(1)
        );
    }
}
