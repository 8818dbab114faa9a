//! The line-delimited JSON wire protocol.
//!
//! One request per line, one response per line, in order. Grammar (fields
//! beyond `id`/`op` depend on the operation; unknown fields are ignored so
//! old servers tolerate newer clients):
//!
//! ```text
//! request  := { "id": u64, "op": op, ["index": string], [params…] } "\n"
//! op       := "ebs_aggregate" | "supg_recall_target" | "supg_precision_target"
//!           | "limit_query" | "predicate_aggregate" | "ingest"
//!           | "index_stats" | "metrics" | "health"
//!           | "index_load" | "index_unload" | "index_list"
//!           | "snapshot" | "shutdown"
//! score    := { "fn": "count_class" | "has_class" | "has_at_least"
//!                   | "mean_x_position", "class": class, ["count": u64] }
//!           | { "fn": "sql_num_predicates" } | { "fn": "sql_op_is", "op": sqlop }
//!           | { "fn": "speech_is_male" }
//! class    := "car" | "bus" | "truck" | "pedestrian" | "bicycle"
//! sqlop    := "select" | "count" | "max" | "min" | "sum" | "avg"
//! response := { "id": u64|null, "ok": true,  "result": {…},
//!               ["telemetry": {…QueryTelemetry…}] } "\n"
//!           | { "id": u64|null, "ok": false,
//!               "error": { "kind": kind, "message": string,
//!                          ["retry_after_micros": u64],
//!                          ["fault_class": string], ["read_only": true] } } "\n"
//! kind     := "bad_request" | "overloaded" | "shutting_down"
//!           | "budget_exhausted" | "labeler_unavailable"
//!           | "ingest_rejected" | "internal"
//! ```
//!
//! **Storage faults:** when the server's disk rejects writes, `ingest`
//! errors carry `"fault_class":"storage"` and, once the index has entered
//! read-only degradation, `"read_only":true`. Both fields are omitted on
//! every non-storage error, keeping fault-free wire output byte-identical.
//!
//! **Streaming ingest:** `ingest` appends a batch of new records to the
//! routed index: `"rows"` is an array of feature rows (arrays of numbers);
//! `"embedded": true` marks rows already in the index's embedding space
//! (required for TASTI-PT indexes, which carry no embedding model). The
//! batch is acknowledged only after it is durable in the server's segment
//! log; a server running without an ingest log rejects the op with the
//! typed `ingest_rejected` error.
//!
//! Query operations take a `score` (the scoring function executed on
//! representatives and oracle outputs), an optional propagation `k`, an
//! oracle match `threshold` (selection/limit/predicate ops), and the
//! algorithm knobs of the matching `tasti-query` config (defaults apply
//! when absent). `predicate_aggregate` additionally takes a `predicate`
//! score spec; `score` then plays the value role.
//!
//! **Multi-index routing:** every query/admin op accepts an optional
//! `"index": "<name>"` field naming a registry entry; absent routes to the
//! default index, and replies to unrouted requests are byte-identical to
//! the single-index protocol. Routed success replies echo the name as a
//! top-level `"index"` field and inside `telemetry` (so a telemetry
//! object logged apart from its reply still names the index it billed).
//! `index_load` takes `"index"` (the new name),
//! `"path"` (an index snapshot file) and optionally `"budget"` (a
//! per-index label budget); `index_unload` takes `"index"`; `index_list`
//! takes nothing and reports every loaded entry.

use std::fmt;
use tasti_core::scoring::{
    CountClass, HasAtLeast, HasClass, MeanXPosition, ScoringFunction, SpeechIsMale,
    SqlNumPredicates, SqlOpIs,
};
use tasti_labeler::{ObjectClass, SqlOp};
use tasti_obs::json::{fmt_f64, push_escaped, JsonValue};
use tasti_obs::QueryTelemetry;

/// A protocol operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// EBS aggregation with the proxy as a control variate.
    EbsAggregate,
    /// SUPG selection with a recall target.
    SupgRecallTarget,
    /// SUPG selection with a precision target.
    SupgPrecisionTarget,
    /// BlazeIt limit query over the proxy ranking.
    LimitQuery,
    /// Importance-sampled aggregation over records matching a predicate.
    PredicateAggregate,
    /// Durably append a batch of new records to the routed index.
    Ingest,
    /// Index metadata (records, reps, cover radius, …).
    IndexStats,
    /// Full operational-metrics dump (admin).
    Metrics,
    /// Oracle-path health: breaker state, fault counters, meter reservation
    /// status (admin).
    Health,
    /// Load an index snapshot under a registry name (admin).
    IndexLoad,
    /// Unload a named index from the registry (admin).
    IndexUnload,
    /// List every loaded index with its routing/meter summary (admin).
    IndexList,
    /// Persist the current (possibly cracked) index atomically (admin).
    Snapshot,
    /// Graceful drain-and-shutdown (admin).
    Shutdown,
}

impl Op {
    /// Every operation, in protocol order.
    pub const ALL: [Op; 14] = [
        Op::EbsAggregate,
        Op::SupgRecallTarget,
        Op::SupgPrecisionTarget,
        Op::LimitQuery,
        Op::PredicateAggregate,
        Op::Ingest,
        Op::IndexStats,
        Op::Metrics,
        Op::Health,
        Op::IndexLoad,
        Op::IndexUnload,
        Op::IndexList,
        Op::Snapshot,
        Op::Shutdown,
    ];

    /// Wire name.
    pub fn name(self) -> &'static str {
        match self {
            Op::EbsAggregate => "ebs_aggregate",
            Op::SupgRecallTarget => "supg_recall_target",
            Op::SupgPrecisionTarget => "supg_precision_target",
            Op::LimitQuery => "limit_query",
            Op::PredicateAggregate => "predicate_aggregate",
            Op::Ingest => "ingest",
            Op::IndexStats => "index_stats",
            Op::Metrics => "metrics",
            Op::Health => "health",
            Op::IndexLoad => "index_load",
            Op::IndexUnload => "index_unload",
            Op::IndexList => "index_list",
            Op::Snapshot => "snapshot",
            Op::Shutdown => "shutdown",
        }
    }

    /// Parses a wire name.
    pub fn parse(name: &str) -> Option<Op> {
        Op::ALL.into_iter().find(|op| op.name() == name)
    }

    /// Whether the operation runs a query algorithm (touches the labeler
    /// and is followed by crack maintenance).
    pub fn is_query(self) -> bool {
        matches!(
            self,
            Op::EbsAggregate
                | Op::SupgRecallTarget
                | Op::SupgPrecisionTarget
                | Op::LimitQuery
                | Op::PredicateAggregate
        )
    }
}

/// A wire-encodable scoring-function specification (§4.2's `Score` API over
/// the induced schemas the repo ships).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScoreSpec {
    /// Count detections of a class.
    CountClass(ObjectClass),
    /// 1 if any detection of the class is present.
    HasClass(ObjectClass),
    /// 1 if at least `count` detections of the class are present.
    HasAtLeast(ObjectClass, usize),
    /// Mean box-center x of the class's detections.
    MeanXPosition(ObjectClass),
    /// Number of WHERE predicates of a SQL annotation.
    SqlNumPredicates,
    /// 1 if the SQL annotation's operator matches.
    SqlOpIs(SqlOp),
    /// 1 if the speech annotation is a male speaker.
    SpeechIsMale,
}

fn class_name(c: ObjectClass) -> &'static str {
    match c {
        ObjectClass::Car => "car",
        ObjectClass::Bus => "bus",
        ObjectClass::Truck => "truck",
        ObjectClass::Pedestrian => "pedestrian",
        ObjectClass::Bicycle => "bicycle",
    }
}

fn parse_class(name: &str) -> Option<ObjectClass> {
    ObjectClass::ALL
        .into_iter()
        .find(|&c| class_name(c) == name)
}

fn sql_op_name(op: SqlOp) -> &'static str {
    match op {
        SqlOp::Select => "select",
        SqlOp::Count => "count",
        SqlOp::Max => "max",
        SqlOp::Min => "min",
        SqlOp::Sum => "sum",
        SqlOp::Avg => "avg",
    }
}

fn parse_sql_op(name: &str) -> Option<SqlOp> {
    SqlOp::ALL.into_iter().find(|&op| sql_op_name(op) == name)
}

impl ScoreSpec {
    /// Materializes the scoring function.
    pub fn to_scoring(&self) -> Box<dyn ScoringFunction> {
        match *self {
            ScoreSpec::CountClass(c) => Box::new(CountClass(c)),
            ScoreSpec::HasClass(c) => Box::new(HasClass(c)),
            ScoreSpec::HasAtLeast(c, n) => Box::new(HasAtLeast(c, n)),
            ScoreSpec::MeanXPosition(c) => Box::new(MeanXPosition(c)),
            ScoreSpec::SqlNumPredicates => Box::new(SqlNumPredicates),
            ScoreSpec::SqlOpIs(op) => Box::new(SqlOpIs(op)),
            ScoreSpec::SpeechIsMale => Box::new(SpeechIsMale),
        }
    }

    /// Writes the spec as a JSON object.
    pub fn write(&self, out: &mut String) {
        match *self {
            ScoreSpec::CountClass(c) => {
                out.push_str("{\"fn\":\"count_class\",\"class\":\"");
                out.push_str(class_name(c));
                out.push_str("\"}");
            }
            ScoreSpec::HasClass(c) => {
                out.push_str("{\"fn\":\"has_class\",\"class\":\"");
                out.push_str(class_name(c));
                out.push_str("\"}");
            }
            ScoreSpec::HasAtLeast(c, n) => {
                out.push_str("{\"fn\":\"has_at_least\",\"class\":\"");
                out.push_str(class_name(c));
                out.push_str("\",\"count\":");
                out.push_str(&n.to_string());
                out.push('}');
            }
            ScoreSpec::MeanXPosition(c) => {
                out.push_str("{\"fn\":\"mean_x_position\",\"class\":\"");
                out.push_str(class_name(c));
                out.push_str("\"}");
            }
            ScoreSpec::SqlNumPredicates => out.push_str("{\"fn\":\"sql_num_predicates\"}"),
            ScoreSpec::SqlOpIs(op) => {
                out.push_str("{\"fn\":\"sql_op_is\",\"op\":\"");
                out.push_str(sql_op_name(op));
                out.push_str("\"}");
            }
            ScoreSpec::SpeechIsMale => out.push_str("{\"fn\":\"speech_is_male\"}"),
        }
    }

    /// Parses a spec from its JSON object form.
    pub fn parse(v: &JsonValue) -> Result<ScoreSpec, String> {
        let name = v
            .get("fn")
            .and_then(JsonValue::as_str)
            .ok_or("score spec needs a string 'fn' field")?;
        let class = || {
            let c = v
                .get("class")
                .and_then(JsonValue::as_str)
                .ok_or_else(|| format!("score fn '{name}' needs a 'class' field"))?;
            parse_class(c).ok_or(format!(
                "unknown class '{c}' (car|bus|truck|pedestrian|bicycle)"
            ))
        };
        match name {
            "count_class" => Ok(ScoreSpec::CountClass(class()?)),
            "has_class" => Ok(ScoreSpec::HasClass(class()?)),
            "has_at_least" => {
                let n = v
                    .get("count")
                    .and_then(JsonValue::as_u64)
                    .ok_or("has_at_least needs an integer 'count' field")?;
                Ok(ScoreSpec::HasAtLeast(class()?, n as usize))
            }
            "mean_x_position" => Ok(ScoreSpec::MeanXPosition(class()?)),
            "sql_num_predicates" => Ok(ScoreSpec::SqlNumPredicates),
            "sql_op_is" => {
                let o = v
                    .get("op")
                    .and_then(JsonValue::as_str)
                    .ok_or("sql_op_is needs a string 'op' field")?;
                Ok(ScoreSpec::SqlOpIs(parse_sql_op(o).ok_or(format!(
                    "unknown sql op '{o}' (select|count|max|min|sum|avg)"
                ))?))
            }
            "speech_is_male" => Ok(ScoreSpec::SpeechIsMale),
            other => Err(format!("unknown score fn '{other}'")),
        }
    }
}

/// A parsed protocol request. Optional fields default to the matching
/// `tasti-query` config defaults at execution time.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// The operation.
    pub op: Op,
    /// Registry index to route to (absent → the default index). For
    /// `index_load`/`index_unload` this is the registry name operated on.
    pub index: Option<String>,
    /// Index snapshot file to load (`index_load` only).
    pub path: Option<String>,
    /// Feature rows to append (`ingest` only).
    pub rows: Option<Vec<Vec<f32>>>,
    /// Whether `rows` are already in the index's embedding space
    /// (`ingest` only; default false = raw features run through the
    /// index's embedding model).
    pub embedded: Option<bool>,
    /// Scoring function (query ops; the *value* score for
    /// `predicate_aggregate`).
    pub score: Option<ScoreSpec>,
    /// Predicate scoring function (`predicate_aggregate` only).
    pub predicate: Option<ScoreSpec>,
    /// Oracle match threshold: a record matches when its oracle score is
    /// ≥ this (SUPG, limit, and the predicate of `predicate_aggregate`).
    /// Default 0.5 — right for 0/1 predicate scores.
    pub threshold: Option<f64>,
    /// Propagation `k` override (default: the index's own `k`).
    pub k: Option<usize>,
    /// EBS absolute error target.
    pub error_target: Option<f64>,
    /// Confidence level (all guarantee-carrying ops).
    pub confidence: Option<f64>,
    /// SUPG recall target.
    pub recall_target: Option<f64>,
    /// SUPG precision target.
    pub precision_target: Option<f64>,
    /// Oracle budget (SUPG / predicate aggregation).
    pub budget: Option<usize>,
    /// Matches requested (limit queries).
    pub k_matches: Option<usize>,
    /// Scan cap (limit queries; default: all records).
    pub max_scan: Option<usize>,
    /// Probe chunk size (limit queries; default 1 = sequential-identical).
    pub probe_batch: Option<usize>,
    /// RNG seed for the sampling-based ops.
    pub seed: Option<u64>,
    /// Uniform mixing fraction of the importance samplers.
    pub uniform_mix: Option<f64>,
}

impl Request {
    /// A request for `op` with every parameter unset.
    pub fn new(op: Op) -> Self {
        Self {
            id: 0,
            op,
            index: None,
            path: None,
            rows: None,
            embedded: None,
            score: None,
            predicate: None,
            threshold: None,
            k: None,
            error_target: None,
            confidence: None,
            recall_target: None,
            precision_target: None,
            budget: None,
            k_matches: None,
            max_scan: None,
            probe_batch: None,
            seed: None,
            uniform_mix: None,
        }
    }

    /// Serializes to one wire line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"id\":");
        out.push_str(&self.id.to_string());
        out.push_str(",\"op\":\"");
        out.push_str(self.op.name());
        out.push('"');
        if let Some(name) = &self.index {
            out.push_str(",\"index\":\"");
            push_escaped(&mut out, name);
            out.push('"');
        }
        if let Some(path) = &self.path {
            out.push_str(",\"path\":\"");
            push_escaped(&mut out, path);
            out.push('"');
        }
        if let Some(rows) = &self.rows {
            out.push_str(",\"rows\":[");
            for (i, row) in rows.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('[');
                for (j, x) in row.iter().enumerate() {
                    if j > 0 {
                        out.push(',');
                    }
                    out.push_str(&fmt_f64(f64::from(*x)));
                }
                out.push(']');
            }
            out.push(']');
        }
        if let Some(embedded) = self.embedded {
            out.push_str(",\"embedded\":");
            out.push_str(if embedded { "true" } else { "false" });
        }
        if let Some(s) = &self.score {
            out.push_str(",\"score\":");
            s.write(&mut out);
        }
        if let Some(p) = &self.predicate {
            out.push_str(",\"predicate\":");
            p.write(&mut out);
        }
        let num = |key: &str, v: Option<f64>, out: &mut String| {
            if let Some(v) = v {
                out.push_str(",\"");
                out.push_str(key);
                out.push_str("\":");
                out.push_str(&fmt_f64(v));
            }
        };
        num("threshold", self.threshold, &mut out);
        num("error_target", self.error_target, &mut out);
        num("confidence", self.confidence, &mut out);
        num("recall_target", self.recall_target, &mut out);
        num("precision_target", self.precision_target, &mut out);
        num("uniform_mix", self.uniform_mix, &mut out);
        let int = |key: &str, v: Option<u64>, out: &mut String| {
            if let Some(v) = v {
                out.push_str(",\"");
                out.push_str(key);
                out.push_str("\":");
                out.push_str(&v.to_string());
            }
        };
        int("k", self.k.map(|v| v as u64), &mut out);
        int("budget", self.budget.map(|v| v as u64), &mut out);
        int("k_matches", self.k_matches.map(|v| v as u64), &mut out);
        int("max_scan", self.max_scan.map(|v| v as u64), &mut out);
        int("probe_batch", self.probe_batch.map(|v| v as u64), &mut out);
        int("seed", self.seed, &mut out);
        out.push('}');
        out
    }

    /// Parses one wire line. On failure the error carries whatever request
    /// id could be recovered, so the error response still correlates.
    pub fn parse_line(line: &str) -> Result<Request, ProtoError> {
        let v = JsonValue::parse(line).map_err(|e| ProtoError {
            id: None,
            message: format!("malformed JSON: {e}"),
        })?;
        let id = v.get("id").and_then(JsonValue::as_u64);
        let fail = |message: String| ProtoError { id, message };
        let op_name = v
            .get("op")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| fail("request needs a string 'op' field".into()))?;
        let op = Op::parse(op_name).ok_or_else(|| fail(format!("unknown op '{op_name}'")))?;
        let score = match v.get("score") {
            Some(s) => Some(ScoreSpec::parse(s).map_err(&fail)?),
            None => None,
        };
        let predicate = match v.get("predicate") {
            Some(s) => Some(ScoreSpec::parse(s).map_err(&fail)?),
            None => None,
        };
        let f = |key: &str| -> Result<Option<f64>, ProtoError> {
            match v.get(key) {
                None | Some(JsonValue::Null) => Ok(None),
                Some(x) => x.as_f64().map(Some).ok_or_else(|| ProtoError {
                    id,
                    message: format!("field '{key}' must be a number"),
                }),
            }
        };
        let u = |key: &str| -> Result<Option<u64>, ProtoError> {
            match v.get(key) {
                None | Some(JsonValue::Null) => Ok(None),
                Some(x) => x.as_u64().map(Some).ok_or_else(|| ProtoError {
                    id,
                    message: format!("field '{key}' must be a non-negative integer"),
                }),
            }
        };
        let s = |key: &str| -> Result<Option<String>, ProtoError> {
            match v.get(key) {
                None | Some(JsonValue::Null) => Ok(None),
                Some(x) => x
                    .as_str()
                    .map(|s| Some(s.to_string()))
                    .ok_or_else(|| ProtoError {
                        id,
                        message: format!("field '{key}' must be a string"),
                    }),
            }
        };
        let rows = match v.get("rows") {
            None | Some(JsonValue::Null) => None,
            Some(JsonValue::Array(items)) => {
                let mut parsed = Vec::with_capacity(items.len());
                for (i, row) in items.iter().enumerate() {
                    let bad = || ProtoError {
                        id,
                        message: format!("'rows[{i}]' must be an array of numbers"),
                    };
                    let row = row.as_array().ok_or_else(bad)?;
                    let mut vals = Vec::with_capacity(row.len());
                    for x in row {
                        vals.push(x.as_f64().ok_or_else(bad)? as f32);
                    }
                    parsed.push(vals);
                }
                Some(parsed)
            }
            Some(_) => {
                return Err(fail("field 'rows' must be an array of arrays".into()));
            }
        };
        let embedded = match v.get("embedded") {
            None | Some(JsonValue::Null) => None,
            Some(x) => Some(
                x.as_bool()
                    .ok_or_else(|| fail("field 'embedded' must be a boolean".into()))?,
            ),
        };
        Ok(Request {
            id: id.unwrap_or(0),
            op,
            index: s("index")?,
            path: s("path")?,
            rows,
            embedded,
            score,
            predicate,
            threshold: f("threshold")?,
            k: u("k")?.map(|v| v as usize),
            error_target: f("error_target")?,
            confidence: f("confidence")?,
            recall_target: f("recall_target")?,
            precision_target: f("precision_target")?,
            budget: u("budget")?.map(|v| v as usize),
            k_matches: u("k_matches")?.map(|v| v as usize),
            max_scan: u("max_scan")?.map(|v| v as usize),
            probe_batch: u("probe_batch")?.map(|v| v as usize),
            seed: u("seed")?,
            uniform_mix: f("uniform_mix")?,
        })
    }
}

/// A request that could not be parsed; `id` is echoed when recoverable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtoError {
    /// The request id, when the document was well-formed enough to carry
    /// one.
    pub id: Option<u64>,
    /// Why parsing failed.
    pub message: String,
}

impl fmt::Display for ProtoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ProtoError {}

/// Typed error kinds of the wire protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request could not be parsed or misses required parameters.
    BadRequest,
    /// Admission control: the connection queue is full.
    Overloaded,
    /// The server is draining; no new requests are accepted.
    ShuttingDown,
    /// The service-lifetime labeler budget would be exceeded.
    BudgetExhausted,
    /// The oracle path is down: the circuit breaker is open (the error
    /// carries `retry_after_micros`), or degraded replies are disabled and
    /// the oracle faulted mid-query.
    LabelerUnavailable,
    /// An ingest batch could not be accepted: the server runs without an
    /// ingest log, or the durable append itself failed (the batch is NOT
    /// acknowledged and must be retried).
    IngestRejected,
    /// The query panicked or another internal failure occurred.
    Internal,
}

impl ErrorKind {
    /// Wire name.
    pub fn name(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::ShuttingDown => "shutting_down",
            ErrorKind::BudgetExhausted => "budget_exhausted",
            ErrorKind::LabelerUnavailable => "labeler_unavailable",
            ErrorKind::IngestRejected => "ingest_rejected",
            ErrorKind::Internal => "internal",
        }
    }
}

/// Builds a success response line: `result_body` must be the inner JSON of
/// the result object (without braces — e.g. `"estimate":1.5,"samples":100`).
pub fn ok_response(id: u64, result_body: &str, telemetry: Option<&QueryTelemetry>) -> String {
    ok_response_routed(id, result_body, telemetry, None)
}

/// [`ok_response`] for a request that named its index: echoes the name as
/// a top-level `"index"` field and splices it into the telemetry object so
/// a telemetry record kept apart from its reply still names the index whose
/// meter it billed. With `index == None` the
/// output is byte-identical to [`ok_response`] — the back-compat contract
/// for unrouted (pre-registry) request lines.
pub fn ok_response_routed(
    id: u64,
    result_body: &str,
    telemetry: Option<&QueryTelemetry>,
    index: Option<&str>,
) -> String {
    let mut out = String::from("{\"id\":");
    out.push_str(&id.to_string());
    out.push_str(",\"ok\":true,\"result\":{");
    out.push_str(result_body);
    out.push('}');
    if let Some(name) = index {
        out.push_str(",\"index\":\"");
        push_escaped(&mut out, name);
        out.push('"');
    }
    if let Some(t) = telemetry {
        out.push_str(",\"telemetry\":");
        let json = t.to_json();
        match index {
            // Splice `"index"` in before the closing brace; QueryTelemetry
            // stays index-agnostic (routing is a serve-layer concept).
            Some(name) => {
                out.push_str(&json[..json.len() - 1]);
                out.push_str(",\"index\":\"");
                push_escaped(&mut out, name);
                out.push_str("\"}");
            }
            None => out.push_str(&json),
        }
    }
    out.push('}');
    out
}

/// Builds an error response line.
pub fn err_response(id: Option<u64>, kind: ErrorKind, message: &str) -> String {
    err_response_full(id, kind, message, None, None, false)
}

/// The full error-response builder. `retry_after_micros` is a retry hint:
/// clients seeing a `labeler_unavailable` error should back off that long
/// before retrying (the server's circuit-breaker window). `fault_class`
/// names the failing subsystem (`"storage"` for disk faults) and
/// `read_only` marks that the routed index has entered read-only
/// degradation. All three are omitted when absent / false, so every
/// hint-free error stays byte-identical to the pre-fault-model wire form.
pub fn err_response_full(
    id: Option<u64>,
    kind: ErrorKind,
    message: &str,
    retry_after_micros: Option<u64>,
    fault_class: Option<&str>,
    read_only: bool,
) -> String {
    let mut out = String::from("{\"id\":");
    match id {
        Some(id) => out.push_str(&id.to_string()),
        None => out.push_str("null"),
    }
    out.push_str(",\"ok\":false,\"error\":{\"kind\":\"");
    out.push_str(kind.name());
    out.push_str("\",\"message\":\"");
    push_escaped(&mut out, message);
    out.push('"');
    if let Some(micros) = retry_after_micros {
        out.push_str(",\"retry_after_micros\":");
        out.push_str(&micros.to_string());
    }
    if let Some(class) = fault_class {
        out.push_str(",\"fault_class\":\"");
        push_escaped(&mut out, class);
        out.push('"');
    }
    if read_only {
        out.push_str(",\"read_only\":true");
    }
    out.push_str("}}");
    out
}

/// A parsed response line (client side).
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// Echoed request id (`None` for connection-level errors such as
    /// `overloaded`, which precede any request).
    pub id: Option<u64>,
    /// Whether the request succeeded.
    pub ok: bool,
    /// The result object (`Null` on errors).
    pub result: JsonValue,
    /// The registry index the request was routed to (echoed only when the
    /// request named one).
    pub index: Option<String>,
    /// The echoed per-request `QueryTelemetry`, when the op produced one.
    pub telemetry: Option<JsonValue>,
    /// Error kind (`ok == false`).
    pub error_kind: Option<String>,
    /// Error message (`ok == false`).
    pub error_message: Option<String>,
    /// Server backoff hint (`labeler_unavailable` errors): microseconds
    /// until the breaker allows its next probe.
    pub retry_after_micros: Option<u64>,
    /// Failing subsystem on typed faults (`"storage"` for disk failures);
    /// absent on non-fault errors.
    pub fault_class: Option<String>,
    /// Whether the routed index has entered read-only degradation (storage
    /// faults only; `false` when the field is absent).
    pub read_only: bool,
}

impl Reply {
    /// Parses one response line.
    pub fn parse(line: &str) -> Result<Reply, String> {
        let v = JsonValue::parse(line).map_err(|e| format!("malformed response: {e}"))?;
        let ok = v
            .get("ok")
            .and_then(JsonValue::as_bool)
            .ok_or("response needs a boolean 'ok' field")?;
        Ok(Reply {
            id: v.get("id").and_then(JsonValue::as_u64),
            ok,
            result: v.get("result").cloned().unwrap_or(JsonValue::Null),
            index: v
                .get("index")
                .and_then(JsonValue::as_str)
                .map(str::to_string),
            telemetry: v.get("telemetry").cloned(),
            error_kind: v
                .get("error")
                .and_then(|e| e.get("kind"))
                .and_then(JsonValue::as_str)
                .map(str::to_string),
            error_message: v
                .get("error")
                .and_then(|e| e.get("message"))
                .and_then(JsonValue::as_str)
                .map(str::to_string),
            retry_after_micros: v
                .get("error")
                .and_then(|e| e.get("retry_after_micros"))
                .and_then(JsonValue::as_u64),
            fault_class: v
                .get("error")
                .and_then(|e| e.get("fault_class"))
                .and_then(JsonValue::as_str)
                .map(str::to_string),
            read_only: v
                .get("error")
                .and_then(|e| e.get("read_only"))
                .and_then(JsonValue::as_bool)
                .unwrap_or(false),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_op_round_trips_through_its_name() {
        for op in Op::ALL {
            assert_eq!(Op::parse(op.name()), Some(op));
        }
        assert_eq!(Op::parse("nope"), None);
    }

    #[test]
    fn score_specs_round_trip_through_json() {
        let specs = [
            ScoreSpec::CountClass(ObjectClass::Car),
            ScoreSpec::HasClass(ObjectClass::Bus),
            ScoreSpec::HasAtLeast(ObjectClass::Truck, 3),
            ScoreSpec::MeanXPosition(ObjectClass::Pedestrian),
            ScoreSpec::SqlNumPredicates,
            ScoreSpec::SqlOpIs(SqlOp::Select),
            ScoreSpec::SpeechIsMale,
        ];
        for spec in specs {
            let mut json = String::new();
            spec.write(&mut json);
            let parsed = ScoreSpec::parse(&JsonValue::parse(&json).unwrap()).unwrap();
            assert_eq!(parsed, spec, "via {json}");
        }
    }

    #[test]
    fn requests_round_trip_through_json() {
        let mut req = Request::new(Op::SupgRecallTarget);
        req.id = 42;
        req.score = Some(ScoreSpec::HasAtLeast(ObjectClass::Car, 2));
        req.recall_target = Some(0.9);
        req.budget = Some(500);
        req.seed = Some(7);
        let parsed = Request::parse_line(&req.to_json()).unwrap();
        assert_eq!(parsed, req);
        // Unset fields stay unset.
        assert_eq!(parsed.k_matches, None);
        assert_eq!(parsed.threshold, None);
    }

    #[test]
    fn parse_errors_recover_the_request_id() {
        let err = Request::parse_line(r#"{"id":9,"op":"launch_missiles"}"#).unwrap_err();
        assert_eq!(err.id, Some(9));
        assert!(err.message.contains("unknown op"));
        let err = Request::parse_line("not json at all").unwrap_err();
        assert_eq!(err.id, None);
        let err = Request::parse_line(r#"{"id":3,"op":"limit_query","k_matches":-2}"#).unwrap_err();
        assert_eq!(err.id, Some(3));
        assert!(err.message.contains("k_matches"));
    }

    #[test]
    fn responses_round_trip_through_reply() {
        let mut t = QueryTelemetry::new("limit_query");
        t.invocations = 17;
        let line = ok_response(5, "\"found\":[1,2],\"satisfied\":true", Some(&t));
        let reply = Reply::parse(&line).unwrap();
        assert_eq!(reply.id, Some(5));
        assert!(reply.ok);
        assert_eq!(
            reply.result.get("found").unwrap().as_array().unwrap().len(),
            2
        );
        assert_eq!(
            reply
                .telemetry
                .as_ref()
                .unwrap()
                .get("invocations")
                .unwrap()
                .as_u64(),
            Some(17)
        );

        let line = err_response(None, ErrorKind::Overloaded, "queue full (depth 16)");
        let reply = Reply::parse(&line).unwrap();
        assert_eq!(reply.id, None);
        assert!(!reply.ok);
        assert_eq!(reply.error_kind.as_deref(), Some("overloaded"));
        assert!(reply.error_message.unwrap().contains("queue full"));
    }

    #[test]
    fn retry_after_hint_round_trips_and_is_elided_when_absent() {
        let line = err_response_full(
            Some(8),
            ErrorKind::LabelerUnavailable,
            "circuit breaker open",
            Some(750_000),
            None,
            false,
        );
        let reply = Reply::parse(&line).unwrap();
        assert!(!reply.ok);
        assert_eq!(reply.error_kind.as_deref(), Some("labeler_unavailable"));
        assert_eq!(reply.retry_after_micros, Some(750_000));

        let bare = err_response(Some(8), ErrorKind::Internal, "boom");
        assert!(!bare.contains("retry_after_micros"));
        assert_eq!(Reply::parse(&bare).unwrap().retry_after_micros, None);
    }

    #[test]
    fn routed_requests_round_trip_and_reject_non_strings() {
        let mut req = Request::new(Op::LimitQuery);
        req.id = 11;
        req.index = Some("night_street".into());
        req.k_matches = Some(3);
        let parsed = Request::parse_line(&req.to_json()).unwrap();
        assert_eq!(parsed, req);

        let mut load = Request::new(Op::IndexLoad);
        load.index = Some("alt".into());
        load.path = Some("/tmp/idx \"quoted\".json".into());
        let parsed = Request::parse_line(&load.to_json()).unwrap();
        assert_eq!(parsed, load);

        let err = Request::parse_line(r#"{"id":4,"op":"index_stats","index":7}"#).unwrap_err();
        assert_eq!(err.id, Some(4));
        assert!(err.message.contains("'index' must be a string"));
        let err = Request::parse_line(r#"{"id":5,"op":"index_load","path":[]}"#).unwrap_err();
        assert!(err.message.contains("'path' must be a string"));
    }

    #[test]
    fn routed_responses_carry_the_index_everywhere_unrouted_stay_identical() {
        let mut t = QueryTelemetry::new("limit_query");
        t.invocations = 3;
        // No index → byte-identical to the plain builder (back-compat).
        assert_eq!(
            ok_response_routed(7, "\"x\":1", Some(&t), None),
            ok_response(7, "\"x\":1", Some(&t))
        );
        let line = ok_response_routed(7, "\"x\":1", Some(&t), Some("alt"));
        let reply = Reply::parse(&line).unwrap();
        assert_eq!(reply.index.as_deref(), Some("alt"));
        // …and spliced into the telemetry object, which may outlive the reply.
        assert_eq!(
            reply
                .telemetry
                .as_ref()
                .unwrap()
                .get("index")
                .and_then(JsonValue::as_str),
            Some("alt")
        );
        // Telemetry-free admin replies still echo the top-level field.
        let line = ok_response_routed(8, "\"records\":10", None, Some("alt"));
        let reply = Reply::parse(&line).unwrap();
        assert_eq!(reply.index.as_deref(), Some("alt"));
        assert!(reply.telemetry.is_none());
    }

    #[test]
    fn ingest_requests_round_trip_rows_and_embedded_flag() {
        let mut req = Request::new(Op::Ingest);
        req.id = 21;
        req.index = Some("night_street".into());
        req.rows = Some(vec![vec![0.5, -1.25, 3.0], vec![0.0, 2.0, 4.5]]);
        req.embedded = Some(true);
        let line = req.to_json();
        assert!(line.contains("\"op\":\"ingest\""));
        assert!(line.contains("\"rows\":[[0.5,-1.25,3.0],[0.0,2.0,4.5]]"));
        assert!(line.contains("\"embedded\":true"));
        let parsed = Request::parse_line(&line).unwrap();
        assert_eq!(parsed, req);
        // Absent fields stay absent (and off the wire).
        let bare = Request::new(Op::Ingest).to_json();
        assert!(!bare.contains("rows") && !bare.contains("embedded"));
        let parsed = Request::parse_line(&bare).unwrap();
        assert_eq!(parsed.rows, None);
        assert_eq!(parsed.embedded, None);
    }

    #[test]
    fn malformed_ingest_fields_are_typed_parse_errors() {
        let err = Request::parse_line(r#"{"id":6,"op":"ingest","rows":"nope"}"#).unwrap_err();
        assert_eq!(err.id, Some(6));
        assert!(err.message.contains("'rows' must be an array of arrays"));
        let err = Request::parse_line(r#"{"id":7,"op":"ingest","rows":[[1,"x"]]}"#).unwrap_err();
        assert!(err
            .message
            .contains("'rows[0]' must be an array of numbers"));
        let err = Request::parse_line(r#"{"id":8,"op":"ingest","rows":[1]}"#).unwrap_err();
        assert!(err
            .message
            .contains("'rows[0]' must be an array of numbers"));
        let err =
            Request::parse_line(r#"{"id":9,"op":"ingest","rows":[[1]],"embedded":3}"#).unwrap_err();
        assert!(err.message.contains("'embedded' must be a boolean"));
    }

    #[test]
    fn ingest_is_not_a_query_op() {
        assert!(!Op::Ingest.is_query());
        assert_eq!(Op::parse("ingest"), Some(Op::Ingest));
        assert_eq!(ErrorKind::IngestRejected.name(), "ingest_rejected");
    }

    #[test]
    fn unknown_request_fields_are_ignored() {
        let req =
            Request::parse_line(r#"{"id":1,"op":"index_stats","future_field":{"x":1}}"#).unwrap();
        assert_eq!(req.op, Op::IndexStats);
    }
}
