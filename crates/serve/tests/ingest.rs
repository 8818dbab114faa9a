//! Streaming-ingest integration: typed rejections, durable ack + replay
//! after an unclean restart, snapshot-watermark idempotence, queryability
//! of ingested records over the wire on both serving cores, and the
//! byte-compat promise that ingest-free serving emits no ingest fields.

use std::path::PathBuf;
use std::sync::Arc;

use tasti_cluster::{Metric, MinKTable};
use tasti_core::index::TastiIndex;
use tasti_core::persist;
use tasti_labeler::{
    BatchTargetLabeler, Detection, LabelCost, LabelerOutput, MeteredLabeler, ObjectClass, RecordId,
    Schema, TargetLabeler,
};
use tasti_nn::Matrix;
use tasti_obs::json::JsonValue;
use tasti_serve::{Client, Op, Reply, Request, ScoreSpec, ServeConfig, Server, TastiService};

const N_RECORDS: usize = 120;

fn frame(n_cars: usize) -> LabelerOutput {
    LabelerOutput::Detections(
        (0..n_cars)
            .map(|i| Detection {
                class: ObjectClass::Car,
                x: 0.1 * (i + 1) as f32,
                y: 0.5,
                w: 0.1,
                h: 0.1,
            })
            .collect(),
    )
}

struct LineLabeler;

impl TargetLabeler for LineLabeler {
    fn label(&self, record: RecordId) -> LabelerOutput {
        frame(usize::from(record >= N_RECORDS / 2))
    }

    fn invocation_cost(&self) -> LabelCost {
        LabelCost {
            seconds: 0.0,
            dollars: 0.0,
        }
    }

    fn schema(&self) -> Schema {
        Schema::object_detection()
    }

    fn name(&self) -> &str {
        "line"
    }
}

impl BatchTargetLabeler for LineLabeler {}

/// A synthetic model-less index over 1-D embeddings on a line, reps every
/// 20 records: embedded ingest works, raw-feature ingest needs a model.
fn tiny_index() -> TastiIndex {
    let embeddings = Matrix::from_fn(N_RECORDS, 1, |r, _| r as f32);
    let reps: Vec<RecordId> = (0..N_RECORDS).step_by(20).collect();
    let rep_outputs: Vec<LabelerOutput> = reps
        .iter()
        .map(|&r| frame(usize::from(r >= N_RECORDS / 2)))
        .collect();
    let rep_emb: Vec<f32> = reps.iter().map(|&r| r as f32).collect();
    let mink = MinKTable::build(embeddings.as_slice(), &rep_emb, 1, 2, Metric::L2);
    TastiIndex::new(embeddings, Metric::L2, 2, reps, rep_outputs, mink)
}

fn service(config: ServeConfig) -> TastiService<LineLabeler> {
    TastiService::new(tiny_index(), MeteredLabeler::new(LineLabeler), config)
}

/// A fresh scratch directory for one test's ingest log.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tasti-ingest-it-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn ingest_req(rows: Vec<Vec<f32>>, embedded: bool) -> Request {
    let mut req = Request::new(Op::Ingest);
    req.rows = Some(rows);
    req.embedded = Some(embedded);
    req
}

fn result_u64(reply: &Reply, key: &str) -> Option<u64> {
    reply.result.get(key).and_then(JsonValue::as_u64)
}

#[test]
fn ingest_without_a_log_is_typed_ingest_rejected() {
    let svc = service(ServeConfig::default());
    let reply = Reply::parse(&svc.handle(&ingest_req(vec![vec![200.0]], true))).unwrap();
    assert!(!reply.ok);
    assert_eq!(reply.error_kind.as_deref(), Some("ingest_rejected"));
    assert!(reply
        .error_message
        .expect("message")
        .contains("--ingest-dir"));
    assert_eq!(svc.index().n_records(), N_RECORDS, "index untouched");
}

#[test]
fn malformed_batches_are_bad_request_and_never_acknowledged() {
    let dir = scratch("validate");
    let config = ServeConfig {
        ingest_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let svc = service(config.clone());
    svc.open_ingest().expect("open log");

    // Missing/empty rows.
    let mut empty = Request::new(Op::Ingest);
    empty.embedded = Some(true);
    let reply = Reply::parse(&svc.handle(&empty)).unwrap();
    assert_eq!(reply.error_kind.as_deref(), Some("bad_request"));

    // Dimension mismatch against the 1-D index.
    let reply = Reply::parse(&svc.handle(&ingest_req(vec![vec![1.0, 2.0]], true))).unwrap();
    assert_eq!(reply.error_kind.as_deref(), Some("bad_request"));

    // Raw features need an embedding model; this index has none. The old
    // append path panicked here — now it is a typed rejection.
    let reply = Reply::parse(&svc.handle(&ingest_req(vec![vec![1.0]], false))).unwrap();
    assert_eq!(reply.error_kind.as_deref(), Some("bad_request"));
    assert!(reply
        .error_message
        .expect("message")
        .contains("embedding model"));
    assert_eq!(svc.index().n_records(), N_RECORDS);
    drop(svc);

    // None of it was acknowledged, so a restart replays nothing.
    let svc = service(config);
    let replay = svc.open_ingest().expect("reopen log");
    assert_eq!(replay.frames, 0);
    assert_eq!(svc.index().n_records(), N_RECORDS);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn acknowledged_batches_survive_an_unclean_restart() {
    let dir = scratch("replay");
    let config = ServeConfig {
        ingest_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let svc = service(config.clone());
    svc.open_ingest().expect("open log");

    let reply =
        Reply::parse(&svc.handle(&ingest_req(vec![vec![200.0], vec![201.0]], true))).unwrap();
    assert!(reply.ok, "{:?}", reply.error_message);
    assert_eq!(result_u64(&reply, "ingested"), Some(2));
    assert_eq!(result_u64(&reply, "start"), Some(N_RECORDS as u64));
    assert_eq!(result_u64(&reply, "records"), Some(N_RECORDS as u64 + 2));
    assert_eq!(result_u64(&reply, "seq"), Some(1));
    let reply = Reply::parse(&svc.handle(&ingest_req(vec![vec![202.0]], true))).unwrap();
    assert!(reply.ok, "{:?}", reply.error_message);
    assert_eq!(result_u64(&reply, "seq"), Some(2));
    assert_eq!(svc.index().n_records(), N_RECORDS + 3);

    // "kill -9": drop with no snapshot and no graceful shutdown. The acks
    // above promised durability, so a fresh service over the same
    // directory must recover all three records.
    drop(svc);
    let svc = service(config);
    let replay = svc.open_ingest().expect("reopen log");
    assert_eq!(replay.frames, 2);
    assert_eq!(replay.applied, 2);
    assert_eq!(replay.records, 3);
    assert_eq!(replay.already_applied, 0);
    assert_eq!(svc.index().n_records(), N_RECORDS + 3);
    assert_eq!(svc.index().ingest_watermark(), 2);

    // The replayed records are queryable.
    let mut q = Request::new(Op::LimitQuery);
    q.score = Some(ScoreSpec::HasClass(ObjectClass::Car));
    q.k_matches = Some(2);
    let reply = Reply::parse(&svc.handle(&q)).unwrap();
    assert!(reply.ok, "{:?}", reply.error_message);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_watermark_makes_replay_idempotent() {
    let dir = scratch("watermark");
    let snap = dir.join("snap.tasti.json");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let config = ServeConfig {
        ingest_dir: Some(dir.join("log")),
        snapshot_path: Some(snap.clone()),
        ..ServeConfig::default()
    };
    let svc = service(config.clone());
    svc.open_ingest().expect("open log");
    let reply = Reply::parse(&svc.handle(&ingest_req(vec![vec![300.0]], true))).unwrap();
    assert!(reply.ok, "{:?}", reply.error_message);
    let reply = Reply::parse(&svc.handle(&Request::new(Op::Snapshot))).unwrap();
    assert!(reply.ok, "{:?}", reply.error_message);
    drop(svc);

    // Restart *from the snapshot*: it carries the ingested record and the
    // watermark, so replay recognizes the logged frame as already applied.
    let index = persist::load(&snap).expect("load snapshot");
    assert_eq!(index.n_records(), N_RECORDS + 1);
    assert_eq!(index.ingest_watermark(), 1);
    let svc = TastiService::new(index, MeteredLabeler::new(LineLabeler), config);
    let replay = svc.open_ingest().expect("reopen log");
    assert_eq!(replay.frames, 1);
    assert_eq!(replay.already_applied, 1);
    assert_eq!(replay.applied, 0);
    assert_eq!(svc.index().n_records(), N_RECORDS + 1, "no double apply");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ingest_works_over_the_wire() {
    let dir = scratch("wire");
    let svc = service(ServeConfig {
        workers: 2,
        ingest_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    svc.open_ingest().expect("open log");
    let server = Server::start(Arc::new(svc)).expect("bind loopback");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let reply = client
        .call(ingest_req(vec![vec![500.0], vec![501.0]], true))
        .expect("ingest call");
    assert!(reply.ok, "{:?}", reply.error_message);
    assert_eq!(result_u64(&reply, "ingested"), Some(2));

    // The ingested records answer queries on the same connection.
    let mut q = Request::new(Op::LimitQuery);
    q.score = Some(ScoreSpec::HasClass(ObjectClass::Car));
    q.k_matches = Some(2);
    let reply = client.call(q).expect("limit call");
    assert!(reply.ok, "{:?}", reply.error_message);

    // And the ingest counters show up in the metrics dump.
    let reply = client.call(Request::new(Op::Metrics)).expect("metrics");
    assert!(reply.ok);
    assert_eq!(result_u64(&reply, "records_ingested"), Some(2));
    assert_eq!(result_u64(&reply, "ingest_batches"), Some(1));

    server.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn ingest_free_serving_emits_no_ingest_fields() {
    let svc = service(ServeConfig::default());
    let aggregate = svc.handle(&Request::new(Op::Metrics));
    assert!(
        !aggregate.contains("ingest"),
        "aggregate metrics leaked ingest fields: {aggregate}"
    );
    let mut routed = Request::new(Op::Metrics);
    routed.index = Some("default".to_string());
    let per_entry = svc.handle(&routed);
    assert!(
        !per_entry.contains("ingest"),
        "per-entry metrics leaked ingest fields: {per_entry}"
    );
}

/// Drift escalation runs off the request path: the triggering reply
/// reports `escalated: "scheduled"` without paying for the assignment
/// refresh inline, and once the background workers are joined the
/// completed refresh is visible in `ingest_background_refreshes`.
#[test]
fn drift_escalation_schedules_a_background_refresh() {
    let dir = scratch("escalate");
    let svc = service(ServeConfig {
        ingest_dir: Some(dir.clone()),
        drift_threshold: 0.05,
        ..ServeConfig::default()
    });
    svc.open_ingest().expect("open log");

    // A far-off-manifold row pushes the drift gauge over the threshold.
    let reply = Reply::parse(&svc.handle(&ingest_req(vec![vec![5000.0]], true))).unwrap();
    assert!(reply.ok, "{:?}", reply.error_message);
    assert_eq!(
        reply.result.get("escalated").and_then(JsonValue::as_str),
        Some("scheduled"),
        "escalation must be scheduled, not run inline"
    );

    svc.join_background_refreshes();

    let metrics = Reply::parse(&svc.handle(&Request::new(Op::Metrics))).unwrap();
    assert!(metrics.ok);
    assert_eq!(
        result_u64(&metrics, "ingest_background_refreshes"),
        Some(1),
        "the completed refresh must be counted"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
