//! The metric dictionary (single source of truth; `BENCHMARK.json` mirrors it
//! and a test keeps the two equal), order statistics, and the result line.

use std::collections::BTreeMap;

use tasti::serve::proto::Op;
use tasti_obs::json::{fmt_f64, push_escaped};

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// Relative worsening of `new` against `base` (positive = worse).
    pub fn worsening(self, base: f64, new: f64) -> f64 {
        if base == 0.0 {
            return 0.0;
        }
        match self {
            Better::Lower => (new - base) / base.abs(),
            Better::Higher => (base - new) / base.abs(),
        }
    }
}

/// A declared metric. `bound` is the share of the parent's median by which
/// an end-to-end metric may worsen; per-layer metrics carry none.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: what an analyst or operator of the service sees.
/// Every workload reports every one of them, and none can be 0.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25),
    e2e("query_ops_s", "1/s", Higher, 0.10),
    e2e("query_p50_ms", "ms", Lower, 0.10),
    e2e("invocations_per_query", "count", Lower, 0.10),
    e2e("restart_s", "s", Lower, 0.10),
    e2e("build_s", "s", Lower, 0.15),
    e2e("build_invocations", "count", Lower, 0.01),
    e2e("stored_bytes_per_record", "B", Lower, 0.02),
    e2e("peak_rss_mb", "MB", Lower, 0.20),
];

/// Write-path end-to-end metrics. Only `ingest_mixed` ingests, and the
/// driver wants every end-to-end metric from every workload, so these two
/// are declared per-layer in `BENCHMARK.json`; `tasti-perf compare` still
/// gates them on `ingest_mixed` with the bounds below.
pub const INGEST_GATES: &[(&str, f64)] = &[("ingest.rows_s", 0.10), ("ingest.ack_p50_ms", 0.10)];

/// Per-layer metrics (layer = module). 0 means the workload bypasses the
/// layer, which is itself the signal that the workloads separate layers.
pub const PER_LAYER: &[MetricDef] = &[
    // client (this crate): explains query_p50_ms per op; the open-loop pair
    // is the sensor for queueing/admission claims.
    layer("client.p99_ms", "ms", Lower),
    layer("client.samples", "count", Higher),
    layer("client.ebs_p50_ms", "ms", Lower),
    layer("client.supg_recall_p50_ms", "ms", Lower),
    layer("client.supg_precision_p50_ms", "ms", Lower),
    layer("client.limit_p50_ms", "ms", Lower),
    layer("client.predicate_p50_ms", "ms", Lower),
    layer("client.open_p99_ms", "ms", Lower),
    layer("client.open_lag_p99_ms", "ms", Lower),
    // the write path as its client sees it (ingest_mixed only)
    layer("ingest.rows_s", "1/s", Higher),
    layer("ingest.ack_p50_ms", "ms", Lower),
    // evented: reactor + compute pool, from the server's `metrics` op
    layer("evented.overhead_us", "us", Lower),
    layer("evented.loop_p99_us", "us", Lower),
    layer("evented.wakeups_per_request", "count", Lower),
    layer("evented.ready_events_mean", "count", Higher),
    layer("evented.rejected_overloaded", "count", Lower),
    // proto / json over the captured wire lines
    layer("proto.parse_us", "us", Lower),
    layer("proto.parse_ingest_mb_s", "MB/s", Higher),
    layer("proto.request_encode_us", "us", Lower),
    layer("proto.reply_parse_us", "us", Lower),
    layer("proto.reply_bytes_mean", "B", Lower),
    layer("json.parse_mb_s", "MB/s", Higher),
    // service: TastiService::handle in-process
    layer("service.handle_us", "us", Lower),
    layer("service.self_us", "us", Lower),
    // propagate
    layer("propagate.us", "us", Lower),
    layer("propagate.records_s", "1/s", Higher),
    layer("propagate.limit_ranking_us", "us", Lower),
    // query algorithms, minus time inside the labeler closure
    layer("query.ebs_self_us", "us", Lower),
    layer("query.supg_recall_self_us", "us", Lower),
    layer("query.supg_precision_self_us", "us", Lower),
    layer("query.limit_self_us", "us", Lower),
    layer("query.predicate_self_us", "us", Lower),
    // labeler front door
    layer("labeler.invocations", "count", Lower),
    layer("labeler.cache_hits", "count", Higher),
    layer("labeler.hit_ratio", "ratio", Higher),
    layer("labeler.batch_calls", "count", Lower),
    layer("labeler.batch_us", "us", Lower),
    // cracking
    layer("crack.passes", "count", Lower),
    layer("crack.reps_added", "count", Lower),
    layer("crack.rebuilds", "count", Lower),
    layer("crack.pass_ms", "ms", Lower),
    layer("crack.clone_ms", "ms", Lower),
    layer("crack.noop_us", "us", Lower),
    // segment log
    layer("segment.append_us", "us", Lower),
    layer("segment.fsync_us", "us", Lower),
    layer("segment.fsyncs", "count", Lower),
    layer("segment.bytes_per_row", "ratio", Lower),
    layer("segment.group_commit_batches", "count", Higher),
    layer("segment.replay_ms", "ms", Lower),
    // registry: IndexEntry::apply_ingest
    layer("registry.apply_us_per_row", "us", Lower),
    layer("registry.escalations", "count", Lower),
    layer("registry.background_refreshes", "count", Lower),
    // persist
    layer("persist.save_ms", "ms", Lower),
    layer("persist.load_ms", "ms", Lower),
    layer("persist.to_json_ms", "ms", Lower),
    layer("persist.from_json_ms", "ms", Lower),
    layer("persist.bytes_per_record", "B", Lower),
    // data: dataset regeneration, paid by every serve/build start
    layer("data.generate_ms", "ms", Lower),
    // build stages (BuildReport)
    layer("build.pretrained_embed_s", "s", Lower),
    layer("build.mining_s", "s", Lower),
    layer("build.triplet_train_s", "s", Lower),
    layer("build.embed_s", "s", Lower),
    layer("build.cluster_s", "s", Lower),
    layer("build.distances_s", "s", Lower),
    layer("build.distance_computations", "count", Lower),
    layer("build.assign_candidates_mean", "count", Lower),
    layer("build.assign_audited_recall", "ratio", Higher),
    // cluster kernels at the fixture's shape
    layer("fpf.select_s", "s", Lower),
    layer("knn.exact_assign_s", "s", Lower),
    layer("ann.ivf_assign_s", "s", Lower),
    layer("knn.add_representative_us", "us", Lower),
    layer("knn.append_records_us_per_row", "us", Lower),
    // nn
    layer("nn.forward_rows_s", "1/s", Higher),
    layer("nn.triplet_step_us", "us", Lower),
    // the traced run itself
    layer("trace.overhead_share", "ratio", Lower),
    layer("trace.unattributed_share", "ratio", Lower),
];

/// The workloads, with the one-line reason each exists.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "serve_warm",
        "index once, query forever: 2 connections loop 48 warmed templates, so time is wire, reactor, propagate and query algorithms; oracle, cracking, ingest and persist do nothing",
    ),
    (
        "serve_cold",
        "fresh server, 1 connection, every query distinct: each pays oracle labels and a crack pass, so labeler, cracking and distance kernels dominate and the wire share is small",
    ),
    (
        "ingest_mixed",
        "a writer streams 64-row batches beside a reader looping the warm templates: segment-log fsync, incremental assignment and clone-and-swap under read load, then kill -9 and log replay",
    ),
];

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u32 = 10;

/// `BENCHMARK.json`, generated from the dictionary above so the two cannot
/// drift apart (a test compares the checked-in file with this).
pub fn manifest() -> String {
    let list = |entries: Vec<String>| format!("[\n    {}\n  ]", entries.join(",\n    "));
    let metric = |d: &MetricDef| {
        let bound = d
            .bound
            .map_or(String::new(), |b| format!(", \"bound\": {}", fmt_f64(b)));
        format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
            d.name,
            d.unit,
            d.better.name()
        )
    };
    format!(
        "{{\n  \"command\": [\"bash\", \"perf/run.sh\"],\n  \"paths\": [\"perf\"],\n  \
         \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \
         \"per_layer\": {}\n}}\n",
        list(
            WORKLOADS
                .iter()
                .map(|(name, why)| format!("{{\"name\": \"{name}\", \"why\": \"{why}\"}}"))
                .collect()
        ),
        list(END_TO_END.iter().map(metric).collect()),
        list(PER_LAYER.iter().map(metric).collect()),
    )
}

pub fn find(defs: &'static [MetricDef], name: &str) -> Option<&'static MetricDef> {
    defs.iter().find(|d| d.name == name)
}

/// How metric names abbreviate a query op (`client.<op>_p50_ms`,
/// `query.<op>_self_us`); `None` for ops outside the query mix.
pub fn op_label(op: Op) -> Option<&'static str> {
    Some(match op {
        Op::EbsAggregate => "ebs",
        Op::SupgRecallTarget => "supg_recall",
        Op::SupgPrecisionTarget => "supg_precision",
        Op::LimitQuery => "limit",
        Op::PredicateAggregate => "predicate",
        _ => return None,
    })
}

/// Nearest-rank percentile (`q` in 0..=1) of an unsorted sample; 0 when
/// the sample is empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// What one benchmark run produced: metric values by name plus the
/// operation counts behind them.
#[derive(Debug, Clone, Default)]
pub struct RunResult {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub values: BTreeMap<String, f64>,
    /// Human-readable remarks (violated checks, caveats such as tmpfs).
    pub notes: Vec<String>,
}

impl RunResult {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Marks the run incorrect and remembers why.
    pub fn violation(&mut self, note: impl Into<String>) {
        self.correct = false;
        self.notes.push(note.into());
    }

    /// `"name":{"value":…,"unit":"…"}` for each metric of `defs`, with its
    /// declared unit. A metric the run did not produce reads 0 (per-layer:
    /// the workload bypasses that layer) — end-to-end ones are always
    /// produced.
    pub fn metric_entries(&self, defs: &[MetricDef]) -> Vec<String> {
        defs.iter()
            .map(|def| {
                let v = self.get(def.name);
                let mut out = String::from('"');
                push_escaped(&mut out, def.name);
                out.push_str("\":{\"value\":");
                out.push_str(&fmt_f64(if v.is_finite() { v } else { 0.0 }));
                out.push_str(",\"unit\":\"");
                push_escaped(&mut out, def.unit);
                out.push_str("\"}");
                out
            })
            .collect()
    }

    /// The single-line JSON object the driver reads: exactly the metrics of
    /// `defs`.
    pub fn result_line(&self, defs: &[MetricDef]) -> String {
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            self.metric_entries(defs).join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(percentile(&v, 0.99), 5.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn worsening_respects_direction() {
        assert!((Lower.worsening(100.0, 110.0) - 0.1).abs() < 1e-12);
        assert!((Higher.worsening(100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!(Higher.worsening(100.0, 120.0) < 0.0);
    }

    #[test]
    fn metric_names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(def.name), "duplicate metric {}", def.name);
            assert!(def.name.len() <= 64 && def.unit.len() <= 16);
        }
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        for (gate, _) in INGEST_GATES {
            assert!(find(PER_LAYER, gate).is_some());
        }
        for (name, why) in WORKLOADS {
            assert!(name.len() <= 64 && why.len() <= 200 && !why.contains('\n'));
        }
    }
}
