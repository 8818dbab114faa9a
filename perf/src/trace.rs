//! The traced run: per-layer numbers.
//!
//! The measured crates carry no spans of their own (instrumenting them is a
//! later change), so spans are recorded here, around calls into each layer's
//! public functions. The request stream of a workload is replayed
//! single-threaded against an in-process [`TastiService`]:
//!
//! * `service.handle` (queries), `service.ingest` (ingest batches) and
//!   `crack` spans time the real calls;
//! * the oracle sits behind a recording wrapper, so `labeler.oracle` spans
//!   are real and nested inside their request;
//! * what `handle` does internally — propagation, the query algorithm, the
//!   labeler front door — cannot be wrapped from outside, so each is
//!   *shadowed*: the same public function is called again with the same
//!   inputs (the index snapshot the request saw, the labels it cached) and
//!   that call is timed. A layer's self time is its span minus its children;
//!   `service.self_us` is `handle` minus the shadowed children.
//!
//! A short child-process run supplies the layers only a real server has
//! (`client.*`, `evented.*`, `ingest.*`); kernel and codec micro-measurements
//! at the fixture's shape supply the rest. End-to-end metrics never come
//! from this file.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use tasti::cluster::{fpf, AssignStrategy, IvfParams, MinKTable};
use tasti::index::{persist, TastiIndex};
use tasti::labeler::{
    BatchTargetLabeler, LabelCost, LabelerFault, LabelerOutput, MeteredLabeler, Schema,
    TargetLabeler,
};
use tasti::nn::train::fit_triplet;
use tasti::nn::{Adam, Mlp, MlpConfig, TripletConfig};
use tasti::query::{
    try_ebs_aggregate_batch, try_limit_query_batch, try_predicate_aggregate_batch,
    try_supg_precision_target_batch, try_supg_recall_target_batch, AggregationConfig,
    PredicateAggConfig, QueryOutcome, SupgConfig, SupgPrecisionConfig,
};
use tasti::serve::proto::{Op, Reply, Request};
use tasti::serve::{IndexEntry, ServeConfig, TastiService};
use tasti_ingest::{LogConfig, SegmentLog};
use tasti_obs::JsonValue;

use crate::e2e::{self, RunConfig};
use crate::fixture::{
    self, check_selection, Checker, Template, TemplateTruth, Verdict, CORPUS_SEED,
};
use crate::metrics::{mean, op_label, RunResult};
use crate::server::{disk_bytes, Scratch};

/// One recorded span. `shadow` marks a replayed call (see the module doc):
/// its interval lies after its parent's, its duration is what counts.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
    pub shadow: bool,
}

impl Span {
    fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// In-memory span store, written out when the run ends.
pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Times `f` as a span; returns its value and the span's index.
    fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        shadow: bool,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = Instant::now();
        let value = f();
        let end = Instant::now();
        (value, self.push(name, start, end, parent, request, shadow))
    }

    fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
        shadow: bool,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            parent,
            request,
            shadow,
        });
        self.spans.len() - 1
    }

    /// Self time per span name: duration minus the children's durations.
    pub fn self_time_us(&self) -> BTreeMap<&'static str, f64> {
        let mut own: Vec<f64> = self.spans.iter().map(Span::us).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.us();
            }
        }
        let mut by_name = BTreeMap::new();
        for (s, us) in self.spans.iter().zip(own) {
            *by_name.entry(s.name).or_insert(0.0) += us.max(0.0);
        }
        by_name
    }

    fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::us)
            .collect()
    }

    fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"self_time_us\":{{");
        for (i, (name, us)) in self.self_time_us().iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            write!(out, "{sep}\"{name}\":{us:.1}").expect("String write");
        }
        out.push_str("},\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{sep}\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"request\":{},\"shadow\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request, s.shadow
            )
            .expect("String write");
        }
        out.push_str("\n]}\n");
        out
    }
}

/// The oracle behind a wrapper that records every inner call's interval.
#[derive(Clone)]
pub struct RecordingOracle {
    inner: tasti::data::OracleLabeler,
    calls: Arc<Mutex<Vec<(Instant, Instant)>>>,
}

impl TargetLabeler for RecordingOracle {
    fn label(&self, record: usize) -> LabelerOutput {
        self.label_batch(&[record]).remove(0)
    }
    fn invocation_cost(&self) -> LabelCost {
        self.inner.invocation_cost()
    }
    fn schema(&self) -> Schema {
        self.inner.schema()
    }
    fn name(&self) -> &str {
        self.inner.name()
    }
}

impl BatchTargetLabeler for RecordingOracle {
    fn label_batch(&self, records: &[usize]) -> Vec<LabelerOutput> {
        let start = Instant::now();
        let out = self.inner.label_batch(records);
        self.calls
            .lock()
            .expect("no panic while recording a call")
            .push((start, Instant::now()));
        out
    }
}

type Service = TastiService<RecordingOracle>;

/// What the shadowed replay of one query measured.
struct Shadow {
    propagate: (Instant, Instant),
    query: (Instant, Instant),
    /// Time inside the labeler front door, all cache hits.
    front_door_us: f64,
    front_door_calls: u64,
    verdict: Verdict,
}

/// Replays what `TastiService::run_query` did for `req` on the index
/// snapshot it saw, through the same public functions with the same
/// parameters; labels come from the service's labeler, where the real
/// request has just cached them.
fn shadow_query(
    idx: &TastiIndex,
    labeler: &MeteredLabeler<RecordingOracle>,
    template: &Template,
    truth: &TemplateTruth,
) -> Shadow {
    let req = &template.req;
    let score = req.score.as_ref().expect("query").to_scoring();
    let threshold = req.threshold.unwrap_or(0.5);
    let mut front_door_us = 0.0;
    let mut front_door_calls = 0;
    let mut labels = |recs: &[usize]| -> Vec<LabelerOutput> {
        let t = Instant::now();
        let out = labeler
            .try_label_batch_fallible(recs)
            .expect("the real request cached every label it drew");
        front_door_us += t.elapsed().as_secs_f64() * 1e6;
        front_door_calls += 1;
        out
    };
    let p0 = Instant::now();
    let proxy_or_rank: Result<Vec<f64>, Vec<usize>> = match req.op {
        Op::LimitQuery => Err(idx.limit_ranking(score.as_ref())),
        Op::PredicateAggregate => {
            let pred = req.predicate.as_ref().expect("predicate").to_scoring();
            Ok(idx.propagate(pred.as_ref()))
        }
        _ => Ok(idx.propagate(score.as_ref())),
    };
    let p1 = Instant::now();
    let n = idx.n_records();
    let mut verdict = Verdict::Pass;
    let matches = |outs: Vec<LabelerOutput>| -> Result<Vec<bool>, LabelerFault> {
        Ok(outs.iter().map(|o| score.score(o) >= threshold).collect())
    };
    fn done<R>(out: QueryOutcome<R>) -> R {
        match out {
            QueryOutcome::Complete(r) => r,
            QueryOutcome::Degraded(d) => d.result,
        }
    }
    let q0 = Instant::now();
    match (req.op, proxy_or_rank) {
        (Op::EbsAggregate, Ok(proxy)) => {
            let mut config = AggregationConfig::default();
            config.error_target = req.error_target.unwrap_or(config.error_target);
            config.confidence = req.confidence.unwrap_or(config.confidence);
            config.seed = req.seed.unwrap_or(config.seed);
            done(try_ebs_aggregate_batch(
                &proxy,
                &mut |recs| Ok(labels(recs).iter().map(|o| score.score(o)).collect()),
                &config,
            ));
        }
        (Op::SupgRecallTarget, Ok(proxy)) => {
            let mut config = SupgConfig::default();
            config.recall_target = req.recall_target.unwrap_or(config.recall_target);
            config.confidence = req.confidence.unwrap_or(config.confidence);
            config.budget = req.budget.unwrap_or(config.budget);
            config.seed = req.seed.unwrap_or(config.seed);
            let r = done(try_supg_recall_target_batch(
                &proxy,
                &mut |recs| matches(labels(recs)),
                &config,
            ));
            if r.telemetry.certified {
                verdict = check_selection(truth, template, &r.returned, (n, n));
            }
        }
        (Op::SupgPrecisionTarget, Ok(proxy)) => {
            let mut config = SupgPrecisionConfig::default();
            config.precision_target = req.precision_target.unwrap_or(config.precision_target);
            config.confidence = req.confidence.unwrap_or(config.confidence);
            config.budget = req.budget.unwrap_or(config.budget);
            config.seed = req.seed.unwrap_or(config.seed);
            let r = done(try_supg_precision_target_batch(
                &proxy,
                &mut |recs| matches(labels(recs)),
                &config,
            ));
            if r.telemetry.certified {
                verdict = check_selection(truth, template, &r.returned, (n, n));
            }
        }
        (Op::LimitQuery, Err(ranking)) => {
            done(try_limit_query_batch(
                &ranking,
                &mut |recs| matches(labels(recs)),
                req.k_matches.unwrap_or(10),
                req.max_scan.unwrap_or(ranking.len()),
                req.probe_batch.unwrap_or(1).max(1),
            ));
        }
        (Op::PredicateAggregate, Ok(proxy)) => {
            let pred = req.predicate.as_ref().expect("predicate").to_scoring();
            let mut config = PredicateAggConfig::default();
            config.budget = req.budget.unwrap_or(config.budget);
            config.confidence = req.confidence.unwrap_or(config.confidence);
            config.seed = req.seed.unwrap_or(config.seed);
            done(try_predicate_aggregate_batch(
                &proxy,
                &mut |recs| {
                    Ok(labels(recs)
                        .iter()
                        .map(|o| (pred.score(o) >= threshold).then(|| score.score(o)))
                        .collect())
                },
                &config,
            ));
        }
        (op, _) => unreachable!("{op:?} is not a query op"),
    }
    let q1 = Instant::now();
    Shadow {
        propagate: (p0, p1),
        query: (q0, q1),
        front_door_us,
        front_door_calls,
        verdict,
    }
}

/// Counters gathered beside the spans, at the same boundaries.
#[derive(Default)]
struct Counts {
    requests: u64,
    crack_passes: u64,
    crack_reps: u64,
    crack_rebuilds: u64,
    front_door_calls: u64,
    front_door_us: f64,
    query_self_us: BTreeMap<&'static str, Vec<f64>>,
    parse_us: Vec<f64>,
    encode_us: Vec<f64>,
    reply_parse_us: Vec<f64>,
    reply_bytes: Vec<f64>,
    json_bytes: f64,
    json_s: f64,
    ingest_parse_bytes: f64,
    ingest_parse_s: f64,
    ingest_rows: u64,
}

struct Replay<'a> {
    service: &'a Service,
    oracle_calls: Arc<Mutex<Vec<(Instant, Instant)>>>,
    truths: &'a [TemplateTruth],
    tracer: Tracer,
    counts: Counts,
    checker: Checker,
    /// Shadow the internals of each request (off for the untraced pass).
    traced: bool,
    /// Crack after each query, as `handle` would with cracking on.
    crack: bool,
}

impl Replay<'_> {
    fn entry(&self) -> Arc<IndexEntry<RecordingOracle>> {
        Arc::clone(self.service.registry().default_entry())
    }

    /// One query request, the way a connection would deliver it: encode,
    /// parse, handle (+ crack), parse the reply; then the shadows.
    fn query(&mut self, idx: usize, template: &Template) {
        self.counts.requests += 1;
        let id = self.counts.requests;
        let mut req = template.req.clone();
        req.id = id;
        let t = Instant::now();
        let line = req.to_json();
        self.counts.encode_us.push(t.elapsed().as_secs_f64() * 1e6);
        let t = Instant::now();
        let parsed = Request::parse_line(&line).expect("own request line parses");
        self.counts.parse_us.push(t.elapsed().as_secs_f64() * 1e6);

        let snapshot = self.service.index();
        let service = self.service;
        let (reply_line, handle) = self.tracer.span("service.handle", None, id, false, || {
            service.handle(&parsed)
        });
        for (start, end) in self.oracle_calls.lock().expect("recorder").drain(..) {
            self.tracer
                .push("labeler.oracle", start, end, Some(handle), id, false);
        }
        if self.crack {
            let entry = self.entry();
            let (report, _) = self
                .tracer
                .span("crack", None, id, false, || entry.crack_pending());
            if report.added > 0 {
                self.counts.crack_passes += 1;
                self.counts.crack_reps += report.added as u64;
                self.counts.crack_rebuilds += u64::from(report.rebuilt);
            } else {
                self.tracer.spans.last_mut().expect("just pushed").name = "crack.noop";
            }
        }
        let t = Instant::now();
        let reply = Reply::parse(&reply_line);
        let parse_s = t.elapsed().as_secs_f64();
        self.counts.reply_parse_us.push(parse_s * 1e6);
        self.counts.reply_bytes.push(reply_line.len() as f64);
        let t = Instant::now();
        let _ = JsonValue::parse(&reply_line);
        self.counts.json_s += t.elapsed().as_secs_f64();
        self.counts.json_bytes += reply_line.len() as f64;
        let answer = fixture::answer_hash(&reply_line);
        let unseen = match reply {
            Ok(r) if r.ok && r.id == Some(id) => self.checker.attempt(idx, answer),
            Ok(r) => {
                self.checker.fail(format!(
                    "{} failed in-process: {}",
                    req.op.name(),
                    r.error_message.unwrap_or_default()
                ));
                false
            }
            Err(e) => {
                self.checker.fail(format!("unparsable reply: {e}"));
                false
            }
        };
        if !self.traced {
            return;
        }
        let shadow = shadow_query(
            &snapshot,
            &self.entry().labeler,
            template,
            &self.truths[idx],
        );
        let (p0, p1) = shadow.propagate;
        let name = if req.op == Op::LimitQuery {
            "propagate.limit_ranking"
        } else {
            "propagate"
        };
        self.tracer.push(name, p0, p1, Some(handle), id, true);
        let (q0, q1) = shadow.query;
        let q = self.tracer.push("query", q0, q1, Some(handle), id, true);
        // The front-door time sits inside the query span; give it a child
        // span of the same length so the query's self time excludes it.
        let door = std::time::Duration::from_secs_f64(shadow.front_door_us / 1e6);
        self.tracer
            .push("labeler.front_door", q0, q0 + door, Some(q), id, true);
        self.counts.front_door_calls += shadow.front_door_calls;
        self.counts.front_door_us += shadow.front_door_us;
        let total = (q1 - q0).as_secs_f64() * 1e6;
        if let Some(label) = op_label(req.op) {
            self.counts
                .query_self_us
                .entry(label)
                .or_default()
                .push((total - shadow.front_door_us).max(0.0));
        }
        // The full, untruncated result — what the wire check cannot see.
        if unseen {
            self.checker.record(idx, answer, shadow.verdict);
        }
    }

    /// One ingest batch through `handle`, plus a shadow of its two halves:
    /// the same bytes through a scratch segment log, the same rows through
    /// a replica index entry.
    fn ingest(
        &mut self,
        req: Request,
        shadow_log: &mut SegmentLog,
        replica: &IndexEntry<RecordingOracle>,
        seq: u64,
    ) {
        self.counts.requests += 1;
        let id = self.counts.requests;
        let mut req = req;
        req.id = id;
        let line = req.to_json();
        let t = Instant::now();
        let parsed = Request::parse_line(&line).expect("own ingest line parses");
        self.counts.ingest_parse_s += t.elapsed().as_secs_f64();
        self.counts.ingest_parse_bytes += line.len() as f64;
        let service = self.service;
        // Its own span name: an ingest `handle` can wait on the maintenance
        // lock behind a background refresh, which says nothing about the
        // query path `service.handle_us` explains.
        let (reply_line, handle) = self.tracer.span("service.ingest", None, id, false, || {
            service.handle(&parsed)
        });
        match Reply::parse(&reply_line) {
            Ok(r) if r.ok => {}
            other => self
                .checker
                .fail(format!("in-process ingest failed: {other:?}")),
        }
        if !self.traced {
            return;
        }
        let rows = parsed.rows.as_deref().expect("ingest rows");
        self.counts.ingest_rows += rows.len() as u64;
        let payload = line.as_bytes();
        self.tracer
            .span("segment.append", Some(handle), id, true, || {
                shadow_log
                    .append_unsynced(payload)
                    .expect("scratch log append")
            });
        self.tracer
            .span("segment.fsync", Some(handle), id, true, || {
                shadow_log.sync().expect("scratch log fsync")
            });
        let (outcome, _) = self
            .tracer
            .span("registry.apply", Some(handle), id, true, || {
                replica
                    .apply_ingest(rows, false, seq, 0.5, false)
                    .expect("replica apply")
            });
        if outcome.refresh_scheduled {
            // The service runs a drift-escalated refresh on a background
            // thread, under the maintenance lock the next batches then wait
            // on; the replica runs it here so that wait has a span.
            self.tracer
                .span("registry.refresh", Some(handle), id, true, || {
                    replica.run_scheduled_refresh()
                });
        }
    }
}

/// What a traced run returns besides its metrics.
pub struct Traced {
    pub result: RunResult,
    pub tracer: Tracer,
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs the traced measurement of `workload`.
pub fn run(workload: &str, cfg: &RunConfig) -> Result<Traced, String> {
    // The layers only a real server has: a short child-process run.
    let child_cfg = RunConfig {
        seconds: cfg.seconds / 2.0,
        open_loop: true,
        profile: fixture::Profile {
            build_ramp: 0,
            timed_builds: 1,
            setup_repeats: 1,
            ..cfg.profile
        },
        ..cfg.clone()
    };
    let mut result = e2e::run(workload, &child_cfg)?;
    // Drop what the child run measured end to end: this run reports layers.
    for def in crate::metrics::END_TO_END {
        result.values.remove(def.name);
    }

    let scratch = Scratch::create()?;
    let p = cfg.profile;
    let ingest = workload == "ingest_mixed";
    let (dataset, generate_ms) = fixture::dataset(p.served_records(workload));
    result.set("data.generate_ms", generate_ms);
    let templates = fixture::templates(&p, cfg.seed);
    let truths: Vec<TemplateTruth> = templates
        .iter()
        .map(|t| TemplateTruth::new(&dataset, t))
        .collect();

    // build: BuildReport stages.
    let build_labeler = MeteredLabeler::new(fixture::oracle(dataset.truth_handle()));
    let built = fixture::build_in_process(&dataset, p.records, &p, &build_labeler)?;
    result.set("build.pretrained_embed_s", built.pretrained_embed_s);
    let stage = |name: &str| -> f64 {
        built
            .report
            .stages
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.seconds)
            .sum()
    };
    result.set("build.mining_s", stage("mining"));
    result.set("build.triplet_train_s", stage("triplet-train"));
    result.set("build.embed_s", stage("embed"));
    result.set("build.cluster_s", stage("cluster"));
    result.set("build.distances_s", stage("distances"));
    result.set(
        "build.distance_computations",
        built.report.distance_computations as f64,
    );
    if let Some(a) = &built.report.assign {
        result.set("build.assign_candidates_mean", a.candidate_mean);
        result.set("build.assign_audited_recall", a.audited_recall);
    }
    let index = built.index;

    // persist: the snapshot codec and file path.
    let path = scratch.path("trace-index.json");
    let t = Instant::now();
    let json = persist::to_json(&index);
    result.set("persist.to_json_ms", ms(t));
    let t = Instant::now();
    persist::save(&index, &path).map_err(|e| e.to_string())?;
    result.set("persist.save_ms", ms(t));
    let t = Instant::now();
    persist::load(&path).map_err(|e| e.to_string())?;
    result.set("persist.load_ms", ms(t));
    let t = Instant::now();
    persist::from_json(&json).map_err(|e| e.to_string())?;
    result.set("persist.from_json_ms", ms(t));
    result.set(
        "persist.bytes_per_record",
        json.len() as f64 / index.n_records() as f64,
    );
    drop(json);

    kernels(&mut result, &index, &dataset, &p);

    // The replay: traced, then untraced on a fresh service for the overhead.
    let log_dir = scratch.path("trace-ingest-log");
    let make_service = |dir: Option<std::path::PathBuf>| -> Result<(Service, _), String> {
        let calls = Arc::new(Mutex::new(Vec::new()));
        let oracle = RecordingOracle {
            inner: fixture::oracle(dataset.truth_handle()),
            calls: Arc::clone(&calls),
        };
        let config = ServeConfig {
            // Cracking is driven from here, as its own span.
            crack_after_queries: false,
            ingest_dir: dir,
            ..ServeConfig::default()
        };
        let service = TastiService::new(index.clone(), MeteredLabeler::new(oracle), config);
        if service.config().ingest_dir.is_some() {
            service.open_ingest()?;
        }
        Ok((service, calls))
    };
    let mut walls = [0.0; 2];
    let mut kept = None;
    for (pass, traced) in [(0, true), (1, false)] {
        let dir = ingest.then(|| {
            if traced {
                log_dir.clone()
            } else {
                scratch.path("untraced-log")
            }
        });
        let (service, calls) = make_service(dir)?;
        let mut replay = Replay {
            service: &service,
            oracle_calls: calls,
            truths: &truths,
            tracer: Tracer::new(),
            counts: Counts::default(),
            checker: Checker::default(),
            traced,
            crack: workload == "serve_cold",
        };
        stream(workload, cfg, &mut replay, &templates, &dataset, &scratch)?;
        // Queries and cracks only: how long an ingest batch waits behind a
        // background refresh depends on what ran in between, shadows included.
        walls[pass] = replay.tracer.total("service.handle")
            + replay.tracer.total("crack")
            + replay.tracer.total("crack.noop");
        if traced {
            let meter = &service.registry().default_entry().labeler;
            result.set("labeler.invocations", meter.invocations() as f64);
            result.set("labeler.cache_hits", meter.cache_hits() as f64);
            let lookups = (meter.invocations() + meter.cache_hits()).max(1);
            result.set(
                "labeler.hit_ratio",
                meter.cache_hits() as f64 / lookups as f64,
            );
            let Replay {
                tracer,
                counts,
                checker,
                ..
            } = replay;
            kept = Some((tracer, counts, checker));
        }
    }
    let (tracer, counts, checker) = kept.expect("the traced pass ran");
    summarize(&mut result, &tracer, &counts, &index);
    result.set(
        "trace.overhead_share",
        if walls[1] > 0.0 {
            walls[0] / walls[1] - 1.0
        } else {
            0.0
        },
    );
    if ingest {
        let rows = counts.ingest_rows.max(1) as f64;
        result.set(
            "segment.bytes_per_row",
            disk_bytes(&log_dir) as f64 / (rows * 4.0 * dataset.feature_dim() as f64),
        );
        let t = Instant::now();
        let (_, frames, _) =
            SegmentLog::open(&log_dir, LogConfig::default()).map_err(|e| e.to_string())?;
        result.set("segment.replay_ms", ms(t));
        if frames.len() as u64 * p.batch_rows as u64 != counts.ingest_rows {
            result.violation(format!(
                "log replay found {} frames for {} ingested rows",
                frames.len(),
                counts.ingest_rows
            ));
        }
    }
    result.attempted += checker.attempted;
    result.failed += checker.failed;
    if checker.failed > 0 {
        result.correct = false;
    }
    match checker.guarantees_hold() {
        Ok(tally) => result
            .notes
            .extend(tally.map(|t| format!("in-process: {t}"))),
        Err(why) => result.violation(format!("in-process full-result check: {why}")),
    }
    result.notes.extend(checker.failures);
    Ok(Traced { result, tracer })
}

/// Drives `replay` with the workload's request stream.
fn stream(
    workload: &str,
    cfg: &RunConfig,
    replay: &mut Replay<'_>,
    templates: &[Template],
    dataset: &tasti::data::Dataset,
    scratch: &Scratch,
) -> Result<(), String> {
    let p = cfg.profile;
    let warm = |replay: &mut Replay<'_>| {
        // Unshadowed and then forgotten: the same fixed point the child run
        // warms to, reached before anything is recorded.
        let traced = std::mem::replace(&mut replay.traced, false);
        let meter = replay.entry();
        for _ in 0..4 {
            let before = meter.labeler.invocations();
            for (i, t) in templates.iter().enumerate() {
                replay.query(i, t);
            }
            if meter.labeler.invocations() == before {
                break;
            }
        }
        replay.traced = traced;
        replay.tracer = Tracer::new();
        replay.counts = Counts::default();
    };
    match workload {
        "serve_warm" => {
            warm(replay);
            for _ in 0..3 {
                for (i, t) in templates.iter().enumerate() {
                    replay.query(i, t);
                }
            }
        }
        "serve_cold" => {
            // The child run's cold stream, crack-in included.
            for i in templates.len()..templates.len() + p.counted_queries {
                let q = fixture::cold_query(templates, i, cfg.seed);
                replay.query(i % templates.len(), &q);
            }
        }
        "ingest_mixed" => {
            warm(replay);
            let batches = p.ingest_batches(cfg.seconds).min(40);
            let shadow_dir = scratch.path(if replay.traced {
                "shadow-log"
            } else {
                "shadow-log-2"
            });
            let (mut shadow_log, _, _) =
                SegmentLog::open(&shadow_dir, LogConfig::default()).map_err(|e| e.to_string())?;
            let replica = IndexEntry::new(
                "replica",
                (*replay.service.index()).clone(),
                MeteredLabeler::new(RecordingOracle {
                    inner: fixture::oracle(dataset.truth_handle()),
                    calls: Arc::default(),
                }),
                None,
                None,
            );
            for b in 0..batches {
                let req =
                    fixture::ingest_batch(dataset, p.records + b * p.batch_rows, p.batch_rows);
                replay.ingest(req, &mut shadow_log, &replica, b as u64 + 1);
                // Two reads per write, like the reader beside the writer.
                for j in 0..2 {
                    let idx = (2 * b + j) % templates.len();
                    replay.query(idx, &templates[idx]);
                }
            }
        }
        other => return Err(format!("unknown workload '{other}'")),
    }
    Ok(())
}

/// Turns spans and counts into the per-layer metrics.
fn summarize(result: &mut RunResult, tracer: &Tracer, counts: &Counts, index: &TastiIndex) {
    let handle = tracer.durations("service.handle");
    let crack = tracer.durations("crack");
    let noop = tracer.durations("crack.noop");
    let self_us = tracer.self_time_us();
    let requests = handle.len().max(1) as f64;
    result.set("service.handle_us", mean(&handle));
    let own = |name: &str| self_us.get(name).copied().unwrap_or(0.0);
    result.set("service.self_us", own("service.handle") / requests);
    // Request time no child span covers, queries and ingest batches alike.
    let handled: f64 = ["service.handle", "service.ingest", "crack", "crack.noop"]
        .iter()
        .map(|name| tracer.total(name))
        .sum();
    result.set(
        "trace.unattributed_share",
        if handled > 0.0 {
            (own("service.handle") + own("service.ingest")) / handled
        } else {
            0.0
        },
    );
    let propagate = tracer.durations("propagate");
    result.set("propagate.us", mean(&propagate));
    result.set(
        "propagate.records_s",
        if propagate.is_empty() {
            0.0
        } else {
            index.n_records() as f64 / (mean(&propagate) / 1e6)
        },
    );
    result.set(
        "propagate.limit_ranking_us",
        mean(&tracer.durations("propagate.limit_ranking")),
    );
    for (label, samples) in &counts.query_self_us {
        result.set(&format!("query.{label}_self_us"), mean(samples));
    }
    let oracle = tracer.durations("labeler.oracle");
    let calls = counts.front_door_calls.max(1) as f64;
    result.set("labeler.batch_calls", counts.front_door_calls as f64);
    result.set(
        "labeler.batch_us",
        (counts.front_door_us + oracle.iter().sum::<f64>()) / calls,
    );
    result.set("crack.passes", counts.crack_passes as f64);
    result.set("crack.reps_added", counts.crack_reps as f64);
    result.set("crack.rebuilds", counts.crack_rebuilds as f64);
    result.set("crack.pass_ms", mean(&crack) / 1e3);
    result.set("crack.noop_us", mean(&noop));
    if !crack.is_empty() {
        let t = Instant::now();
        std::hint::black_box(index.clone());
        result.set("crack.clone_ms", ms(t));
    }
    result.set("proto.parse_us", mean(&counts.parse_us));
    result.set("proto.request_encode_us", mean(&counts.encode_us));
    result.set("proto.reply_parse_us", mean(&counts.reply_parse_us));
    result.set("proto.reply_bytes_mean", mean(&counts.reply_bytes));
    if counts.json_s > 0.0 {
        result.set("json.parse_mb_s", counts.json_bytes / 1e6 / counts.json_s);
    }
    if counts.ingest_parse_s > 0.0 {
        result.set(
            "proto.parse_ingest_mb_s",
            counts.ingest_parse_bytes / 1e6 / counts.ingest_parse_s,
        );
    }
    let fsync = tracer.durations("segment.fsync");
    result.set(
        "segment.append_us",
        mean(&tracer.durations("segment.append")),
    );
    result.set("segment.fsync_us", mean(&fsync));
    result.set("segment.fsyncs", fsync.len() as f64);
    if counts.ingest_rows > 0 {
        result.set(
            "registry.apply_us_per_row",
            tracer.total("registry.apply") / counts.ingest_rows as f64,
        );
    }
}

/// Cluster and nn kernels at the fixture's shape (records × dim against the
/// index's representatives), each timed once.
fn kernels(
    result: &mut RunResult,
    index: &TastiIndex,
    dataset: &tasti::data::Dataset,
    p: &fixture::Profile,
) {
    let dim = index.embedding_dim();
    let records = index.embeddings().as_slice();
    let metric = index.metric();
    let reps: Vec<f32> = index
        .reps()
        .iter()
        .flat_map(|&r| index.embeddings().row(r).iter().copied())
        .collect();
    let secs = |t: Instant| t.elapsed().as_secs_f64();

    let t = Instant::now();
    std::hint::black_box(fpf(records, dim, p.reps, metric, 0));
    result.set("fpf.select_s", secs(t));

    let t = Instant::now();
    let exact = MinKTable::build_parallel(records, &reps, dim, index.k(), metric, 0);
    result.set("knn.exact_assign_s", secs(t));

    let t = Instant::now();
    std::hint::black_box(MinKTable::build_with_strategy(
        records,
        &reps,
        dim,
        index.k(),
        metric,
        0,
        &AssignStrategy::Ivf(IvfParams::default()),
    ));
    result.set("ann.ivf_assign_s", secs(t));

    let mut table = exact;
    let adds = 16.min(index.n_records());
    let t = Instant::now();
    for r in 0..adds {
        table.add_representative(records, index.embeddings().row(r), dim, metric);
    }
    result.set("knn.add_representative_us", secs(t) * 1e6 / adds as f64);

    let mut table = MinKTable::build_parallel(records, &reps, dim, index.k(), metric, 0);
    let rows = 256.min(index.n_records());
    let t = Instant::now();
    table.append_records(&records[..rows * dim], &reps, dim, metric);
    result.set("knn.append_records_us_per_row", secs(t) * 1e6 / rows as f64);

    if let Some(model) = index.model() {
        let t = Instant::now();
        std::hint::black_box(model.forward_ref(&dataset.features));
        result.set("nn.forward_rows_s", dataset.len() as f64 / secs(t));
    }
    // One triplet step: a short fit over bucketed training rows, per step.
    let train = p.train.min(dataset.len());
    let rows: Vec<usize> = (0..train).collect();
    let features = dataset.features.select_rows(&rows);
    let buckets: Vec<usize> = rows
        .iter()
        .map(|&r| {
            dataset
                .ground_truth(r)
                .count_class(tasti::labeler::ObjectClass::Car)
                .min(4)
        })
        .collect();
    let mut rng = ChaCha8Rng::seed_from_u64(CORPUS_SEED);
    let mut net = Mlp::new(&MlpConfig::embedding(features.cols(), p.dim), &mut rng);
    let config = TripletConfig {
        steps: 50,
        ..TripletConfig::default()
    };
    let t = Instant::now();
    fit_triplet(
        &mut net,
        &features,
        &buckets,
        &config,
        &mut Adam::new(3e-3),
        &mut rng,
    );
    result.set("nn.triplet_step_us", secs(t) * 1e6 / config.steps as f64);
}
