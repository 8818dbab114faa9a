//! Loopback tests for the named-index registry: one server hosting many
//! indexes, per-index routing/metering/budgets, registry admin ops, and
//! regressions for the serve-layer shutdown/acceptor bugfixes.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use tasti_cluster::{Metric, MinKTable};
use tasti_core::index::TastiIndex;
use tasti_core::persist;
use tasti_labeler::{
    BatchTargetLabeler, Detection, LabelCost, LabelerOutput, MeteredLabeler, ObjectClass, RecordId,
    Schema, TargetLabeler,
};
use tasti_nn::Matrix;
use tasti_serve::{
    Client, LabelerFactory, Op, Reply, Request, ScoreSpec, ServeConfig, Server, TastiService,
};

const N_RECORDS: usize = 120;

fn truth(record: RecordId) -> usize {
    usize::from(record >= N_RECORDS / 2)
}

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

/// Counts how many times each record was labeled — the exactly-once probe,
/// one per hosted index.
#[derive(Default)]
struct CountingLabeler {
    per_record: Mutex<HashMap<RecordId, u64>>,
    total: AtomicU64,
}

impl CountingLabeler {
    fn max_labels_per_record(&self) -> u64 {
        self.per_record
            .lock()
            .unwrap()
            .values()
            .copied()
            .max()
            .unwrap_or(0)
    }

    fn distinct_records(&self) -> u64 {
        self.per_record.lock().unwrap().len() as u64
    }
}

impl TargetLabeler for CountingLabeler {
    fn label(&self, record: RecordId) -> LabelerOutput {
        *self.per_record.lock().unwrap().entry(record).or_insert(0) += 1;
        self.total.fetch_add(1, Ordering::Relaxed);
        frame(truth(record))
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
        "counting"
    }
}

impl BatchTargetLabeler for CountingLabeler {}

/// A synthetic index over `N_RECORDS` 1-D embeddings on a line, reps every
/// 20 records.
fn tiny_index() -> TastiIndex {
    let embeddings = Matrix::from_fn(N_RECORDS, 1, |r, _| r as f32);
    let reps: Vec<RecordId> = (0..N_RECORDS).step_by(20).collect();
    let rep_outputs: Vec<LabelerOutput> = reps.iter().map(|&r| frame(truth(r))).collect();
    let rep_emb: Vec<f32> = reps.iter().map(|&r| r as f32).collect();
    let mink = MinKTable::build(embeddings.as_slice(), &rep_emb, 1, 2, Metric::L2);
    TastiIndex::new(embeddings, Metric::L2, 2, reps, rep_outputs, mink)
}

fn counting_labeler() -> MeteredLabeler<CountingLabeler> {
    MeteredLabeler::new(CountingLabeler::default())
}

/// A server hosting the default index plus two named co-tenants, `night`
/// (unlimited) and `taipei` (label budget 5).
fn start_multi_server(config: ServeConfig) -> Server<CountingLabeler> {
    let service = TastiService::new(tiny_index(), counting_labeler(), config);
    service
        .insert_index("night", tiny_index(), counting_labeler(), None, None)
        .expect("insert night");
    service
        .insert_index("taipei", tiny_index(), counting_labeler(), Some(5), None)
        .expect("insert taipei");
    Server::start(Arc::new(service)).expect("bind loopback")
}

fn has_car() -> ScoreSpec {
    ScoreSpec::HasClass(ObjectClass::Car)
}

fn limit_request(index: Option<&str>) -> Request {
    let mut req = Request::new(Op::LimitQuery);
    req.score = Some(has_car());
    req.k_matches = Some(3);
    req.index = index.map(String::from);
    req
}

#[test]
fn named_indexes_route_and_meter_independently() {
    let server = start_multi_server(ServeConfig {
        workers: 4,
        ..ServeConfig::default()
    });
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("connect");

    // All five query ops against the named index, plus the same limit
    // query against the default: metering must stay per-entry.
    let reply = client.call(limit_request(Some("night"))).expect("limit");
    assert!(reply.ok, "{:?}", reply.error_message);
    assert_eq!(
        reply.index.as_deref(),
        Some("night"),
        "routed replies echo the index"
    );
    let telemetry = reply.telemetry.expect("telemetry");
    assert_eq!(
        telemetry.get("index").and_then(|v| v.as_str()),
        Some("night"),
        "routed telemetry names the index it billed"
    );

    for op in [
        Op::EbsAggregate,
        Op::SupgRecallTarget,
        Op::SupgPrecisionTarget,
        Op::PredicateAggregate,
    ] {
        let mut req = Request::new(op);
        req.index = Some("night".to_string());
        req.seed = Some(7);
        match op {
            Op::EbsAggregate => {
                req.score = Some(ScoreSpec::CountClass(ObjectClass::Car));
                req.error_target = Some(0.2);
            }
            Op::PredicateAggregate => {
                req.predicate = Some(has_car());
                req.score = Some(ScoreSpec::CountClass(ObjectClass::Car));
                req.budget = Some(40);
            }
            _ => {
                req.score = Some(has_car());
                req.recall_target = Some(0.8);
                req.precision_target = Some(0.8);
                req.budget = Some(40);
            }
        }
        let reply = client.call(req).expect("routed query");
        assert!(reply.ok, "{op:?}: {:?}", reply.error_message);
        assert_eq!(reply.index.as_deref(), Some("night"));
    }

    let reply = client.call(limit_request(None)).expect("default limit");
    assert!(reply.ok);
    assert_eq!(reply.index, None, "unrouted replies carry no index");

    // Per-index exactly-once: each entry's counter saw its own records at
    // most once, and the default entry only paid for the default query.
    let service = Arc::clone(server.service());
    let night = service.registry().get(Some("night")).expect("night entry");
    let default = service.registry().get(None).expect("default entry");
    assert!(night.labeler.inner().distinct_records() > 0);
    assert_eq!(night.labeler.inner().max_labels_per_record(), 1);
    assert_eq!(
        night.labeler.invocations(),
        night.labeler.inner().total.load(Ordering::Relaxed)
    );
    assert!(default.labeler.inner().distinct_records() > 0);
    assert_eq!(default.labeler.inner().max_labels_per_record(), 1);
    assert!(
        default.labeler.invocations() < night.labeler.invocations(),
        "five queries on 'night' vs one on default: {} vs {}",
        night.labeler.invocations(),
        default.labeler.invocations()
    );

    // Per-index request accounting: entry metrics split the aggregate.
    assert_eq!(night.metrics.requests_total.get(), 5);
    assert_eq!(default.metrics.requests_total.get(), 1);
    assert_eq!(service.metrics().requests_total.get(), 6);

    // Per-index budget isolation: 'taipei' has budget 5; exhausting it
    // yields the typed error without touching the co-tenants.
    let mut req = Request::new(Op::EbsAggregate);
    req.index = Some("taipei".to_string());
    req.score = Some(ScoreSpec::CountClass(ObjectClass::Car));
    req.error_target = Some(0.01);
    let reply = client.call(req).expect("budget probe");
    assert!(!reply.ok);
    assert_eq!(reply.error_kind.as_deref(), Some("budget_exhausted"));
    let taipei = service.registry().get(Some("taipei")).expect("taipei");
    assert_eq!(taipei.labeler.invocations(), 5);
    assert_eq!(
        night.labeler.inner().max_labels_per_record(),
        1,
        "a co-tenant's budget exhaustion must not touch other meters"
    );

    server.shutdown_and_join();
}

#[test]
fn unknown_index_is_a_typed_bad_request() {
    let server = start_multi_server(ServeConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let reply = client.call(limit_request(Some("nope"))).expect("call");
    assert!(!reply.ok);
    assert_eq!(reply.error_kind.as_deref(), Some("bad_request"));
    let msg = reply.error_message.expect("message");
    assert!(msg.contains("unknown index 'nope'"), "{msg}");
    assert!(msg.contains("index_list"), "{msg}");
    server.shutdown_and_join();
}

#[test]
fn pre_registry_request_lines_keep_their_reply_shape() {
    // PR 4-era clients know nothing about the registry: raw wire lines
    // without an "index" field must produce replies without one.
    let server = start_multi_server(ServeConfig::default());
    let addr = server.local_addr();

    let conn = TcpStream::connect(addr).expect("connect");
    let mut writer = conn.try_clone().expect("clone");
    let mut reader = BufReader::new(conn);
    for raw in [
        r#"{"op":"index_stats","id":1}"#,
        r#"{"op":"health","id":2}"#,
        r#"{"op":"metrics","id":3}"#,
        r#"{"op":"limit_query","id":4,"score":{"fn":"has_class","class":"car"},"k_matches":2}"#,
    ] {
        writeln!(writer, "{raw}").expect("write");
        writer.flush().expect("flush");
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        let reply = Reply::parse(line.trim_end()).expect("parse");
        assert!(reply.ok, "{raw}: {:?}", reply.error_message);
        assert_eq!(reply.index, None, "{raw}");
        assert!(
            !line.contains("\"index\":"),
            "unrouted reply grew an index key: {line}"
        );
    }
    // The aggregate metrics reply in a multi-index deployment does gain a
    // per-index section — under the "indexes" key, never "index".
    writeln!(writer, r#"{{"op":"metrics","id":5}}"#).expect("write");
    writer.flush().expect("flush");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read");
    assert!(line.contains("\"indexes\":{"), "{line}");
    drop(writer);
    server.shutdown_and_join();
}

#[test]
fn index_list_unload_and_default_protection_over_the_wire() {
    let server = start_multi_server(ServeConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // index_list names every entry and the default route.
    let (line, _) = client
        .call_raw(Request::new(Op::IndexList))
        .expect("index_list");
    let reply = Reply::parse(&line).expect("parse");
    assert!(reply.ok);
    assert_eq!(
        reply.result.get("default").and_then(|v| v.as_str()),
        Some("default")
    );
    for name in [
        "\"name\":\"default\"",
        "\"name\":\"night\"",
        "\"name\":\"taipei\"",
    ] {
        assert!(line.contains(name), "{line}");
    }

    // Unload removes the route...
    let mut req = Request::new(Op::IndexUnload);
    req.index = Some("night".to_string());
    let reply = client.call(req).expect("unload");
    assert!(reply.ok, "{:?}", reply.error_message);
    let reply = client.call(limit_request(Some("night"))).expect("query");
    assert!(!reply.ok);
    assert_eq!(reply.error_kind.as_deref(), Some("bad_request"));

    // ...but the default entry is protected,
    let mut req = Request::new(Op::IndexUnload);
    req.index = Some("default".to_string());
    let reply = client.call(req).expect("unload default");
    assert!(!reply.ok);
    assert!(reply
        .error_message
        .expect("message")
        .contains("cannot be unloaded"));

    // and a nameless unload is a bad request.
    let reply = client.call(Request::new(Op::IndexUnload)).expect("call");
    assert!(!reply.ok);
    assert_eq!(reply.error_kind.as_deref(), Some("bad_request"));

    server.shutdown_and_join();
}

#[test]
fn index_load_snapshot_round_trip_over_the_wire() {
    let dir = std::env::temp_dir().join(format!("tasti-multi-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("tenant.tasti.json");
    persist::save(&tiny_index(), &path).expect("save snapshot");

    // A factory-equipped service can both preload and wire-load snapshots.
    let factory: LabelerFactory<CountingLabeler> = Box::new(|_| counting_labeler());
    let service = TastiService::with_factory(
        tiny_index(),
        counting_labeler(),
        ServeConfig {
            preload: vec![("preloaded".to_string(), path.clone())],
            ..ServeConfig::default()
        },
        factory,
    )
    .expect("preload");
    let server = Server::start(Arc::new(service)).expect("bind loopback");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let reply = client
        .call(limit_request(Some("preloaded")))
        .expect("query");
    assert!(
        reply.ok,
        "preloaded index serves: {:?}",
        reply.error_message
    );

    let mut req = Request::new(Op::IndexLoad);
    req.index = Some("loaded".to_string());
    req.path = Some(path.display().to_string());
    req.budget = Some(5);
    let reply = client.call(req.clone()).expect("index_load");
    assert!(reply.ok, "{:?}", reply.error_message);
    assert_eq!(
        reply.result.get("records").and_then(|v| v.as_u64()),
        Some(N_RECORDS as u64)
    );

    // The wire-loaded index serves, under the label budget it was given.
    let reply = client.call(limit_request(Some("loaded"))).expect("query");
    assert!(reply.ok, "{:?}", reply.error_message);
    let entry = server
        .service()
        .registry()
        .get(Some("loaded"))
        .expect("loaded entry");
    assert_eq!(entry.label_budget, Some(5));

    // Duplicate names are rejected; so are loads without a factory-known
    // path.
    let reply = client.call(req).expect("duplicate load");
    assert!(!reply.ok);
    assert!(reply
        .error_message
        .expect("message")
        .contains("already loaded"));
    let mut req = Request::new(Op::IndexLoad);
    req.index = Some("ghost".to_string());
    req.path = Some(dir.join("missing.json").display().to_string());
    let reply = client.call(req).expect("missing load");
    assert!(!reply.ok);
    assert_eq!(reply.error_kind.as_deref(), Some("bad_request"));

    server.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn services_without_a_factory_refuse_wire_loads() {
    let server = start_multi_server(ServeConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let mut req = Request::new(Op::IndexLoad);
    req.index = Some("extra".to_string());
    req.path = Some("/tmp/nope.json".to_string());
    let reply = client.call(req).expect("call");
    assert!(!reply.ok);
    assert!(reply
        .error_message
        .expect("message")
        .contains("no labeler factory"),);
    server.shutdown_and_join();
}

#[test]
fn stalled_rejection_peers_do_not_block_the_acceptor() {
    // Regression: rejection writes used to block without a timeout, so a
    // peer that never read could park the accept path and freeze admission
    // control for everyone. The rejection path here is the reactor's
    // connection cap.
    let server = start_multi_server(ServeConfig {
        max_connections: 1,
        ..ServeConfig::default()
    });
    let addr = server.local_addr();

    // Fill the cap (the round-trip guarantees the reactor holds it).
    let mut held = Client::connect(addr).expect("connect");
    assert!(held.index_stats().expect("stats").ok);
    let service = Arc::clone(server.service());

    // Stalled peers: connect into the rejection path and never read.
    let stalled: Vec<TcpStream> = (0..3)
        .map(|_| TcpStream::connect(addr).expect("connect stalled"))
        .collect();

    // Admission must keep answering promptly: later clients get their
    // typed overloaded reply within a short client-side deadline.
    for round in 0..3 {
        let mut rejected = Client::connect_with_timeouts(
            addr,
            Some(Duration::from_secs(5)),
            Some(Duration::from_secs(2)),
        )
        .expect("connect rejected");
        let reply = rejected
            .index_stats()
            .unwrap_or_else(|e| panic!("acceptor stalled on round {round}: {e}"));
        assert!(!reply.ok);
        assert_eq!(reply.error_kind.as_deref(), Some("overloaded"));
    }
    assert!(service.metrics().connections_rejected_overloaded.get() >= 6);
    drop(stalled);
    drop(held);
    server.shutdown_and_join();
}

#[test]
fn wildcard_bind_server_drains_without_hanging() {
    // Regression: a drain that wakes the acceptor by self-connecting to the
    // *bound* address hangs on a wildcard bind (connecting to 0.0.0.0 can
    // fail, leaving accept() blocked forever). The reactor wakes through
    // its eventfd and needs no self-connection, which this pins down.
    let server = start_multi_server(ServeConfig {
        addr: "0.0.0.0:0".to_string(),
        ..ServeConfig::default()
    });
    let port = server.local_addr().port();
    let mut client = Client::connect(("127.0.0.1", port)).expect("connect");
    assert!(client.index_stats().expect("stats").ok);
    drop(client);

    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        server.shutdown_and_join();
        let _ = tx.send(());
    });
    rx.recv_timeout(Duration::from_secs(30))
        .expect("wildcard-bind shutdown_and_join hung");
}

#[test]
fn shutdown_snapshot_failure_is_surfaced_not_swallowed() {
    // Regression: join() used to discard the shutdown snapshot result, so
    // a failed persist lost the cracked index silently.
    let dir = std::env::temp_dir().join(format!(
        "tasti-multi-missing-{}/no/such/dir",
        std::process::id()
    ));
    let server = start_multi_server(ServeConfig {
        snapshot_path: Some(dir.join("snap.json")),
        snapshot_on_shutdown: true,
        ..ServeConfig::default()
    });
    let service = Arc::clone(server.service());
    let mut client = Client::connect(server.local_addr()).expect("connect");
    assert!(client.call(limit_request(None)).expect("limit").ok);
    drop(client);

    server.shutdown();
    let report = server.join_report();
    let message = report.snapshot_error.expect("failure must be reported");
    assert!(message.contains("snapshot failed"), "{message}");
    assert_eq!(service.metrics().snapshot_failures.get(), 1);
}
