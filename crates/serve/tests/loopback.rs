//! End-to-end loopback tests: a real server on an ephemeral port, real TCP
//! clients, concurrent mixed-type queries over overlapping records.
//!
//! The load-bearing assertion is exactly-once oracle accounting: however
//! many client threads race over the same records, the counting labeler
//! must see each record **at most once**, and the meter's invocation count
//! must equal the number of distinct records labeled.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use tasti_cluster::{Metric, MinKTable};
use tasti_core::index::TastiIndex;
use tasti_core::persist;
use tasti_labeler::{
    BatchTargetLabeler, Detection, LabelCost, LabelerOutput, MeteredLabeler, ObjectClass, RecordId,
    Schema, TargetLabeler,
};
use tasti_nn::Matrix;
use tasti_serve::{Client, ClientError, Op, Request, ScoreSpec, ServeConfig, Server, TastiService};

const N_RECORDS: usize = 120;

/// Ground truth: the upper half of the embedding line has one car.
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

/// A labeler that counts how many times each record was labeled — the
/// exactly-once probe.
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
/// 20 records (correct truth at each rep — an informative proxy).
fn tiny_index() -> TastiIndex {
    let embeddings = Matrix::from_fn(N_RECORDS, 1, |r, _| r as f32);
    let reps: Vec<RecordId> = (0..N_RECORDS).step_by(20).collect();
    let rep_outputs: Vec<LabelerOutput> = reps.iter().map(|&r| frame(truth(r))).collect();
    let rep_emb: Vec<f32> = reps.iter().map(|&r| r as f32).collect();
    let mink = MinKTable::build(embeddings.as_slice(), &rep_emb, 1, 2, Metric::L2);
    TastiIndex::new(embeddings, Metric::L2, 2, reps, rep_outputs, mink)
}

fn start_server(config: ServeConfig) -> Server<CountingLabeler> {
    let labeler = MeteredLabeler::new(CountingLabeler::default());
    let service = Arc::new(TastiService::new(tiny_index(), labeler, config));
    Server::start(service).expect("bind loopback")
}

fn has_car() -> ScoreSpec {
    ScoreSpec::HasClass(ObjectClass::Car)
}

#[test]
fn concurrent_mixed_queries_are_exactly_once() {
    let server = start_server(ServeConfig {
        workers: 8,
        queue_depth: 32,
        ..ServeConfig::default()
    });
    let addr = server.local_addr();
    let initial_reps = server.service().index().reps().len();

    // 8 client threads × 4 requests each, all five query types, heavily
    // overlapping records (every thread queries the same dataset).
    std::thread::scope(|s| {
        for t in 0..8u64 {
            s.spawn(move || {
                let mut client = Client::connect(addr).expect("connect");
                for round in 0..4u64 {
                    let mut req = match (t + round) % 5 {
                        0 => {
                            let mut r = Request::new(Op::EbsAggregate);
                            r.score = Some(ScoreSpec::CountClass(ObjectClass::Car));
                            r.error_target = Some(0.2);
                            r
                        }
                        1 => {
                            let mut r = Request::new(Op::SupgRecallTarget);
                            r.score = Some(has_car());
                            r.recall_target = Some(0.8);
                            r.budget = Some(40);
                            r
                        }
                        2 => {
                            let mut r = Request::new(Op::SupgPrecisionTarget);
                            r.score = Some(has_car());
                            r.precision_target = Some(0.8);
                            r.budget = Some(40);
                            r
                        }
                        3 => {
                            let mut r = Request::new(Op::LimitQuery);
                            r.score = Some(has_car());
                            r.k_matches = Some(5);
                            r
                        }
                        _ => {
                            let mut r = Request::new(Op::PredicateAggregate);
                            r.predicate = Some(has_car());
                            r.score = Some(ScoreSpec::CountClass(ObjectClass::Car));
                            r.budget = Some(40);
                            r
                        }
                    };
                    req.seed = Some(t * 100 + round);
                    let reply = client.call(req).expect("call");
                    assert!(
                        reply.ok,
                        "query failed: {:?} {:?}",
                        reply.error_kind, reply.error_message
                    );
                    let telemetry = reply.telemetry.expect("query ops echo telemetry");
                    assert!(telemetry.get("invocations").unwrap().as_u64().is_some());
                }
            });
        }
    });

    let service = Arc::clone(server.service());
    let metrics = service.metrics();
    assert_eq!(metrics.requests_total.get(), 32);
    assert_eq!(metrics.responses_ok.get(), 32);
    assert_eq!(metrics.responses_error.get(), 0);
    assert_eq!(metrics.connections_accepted.get(), 8);
    assert_eq!(metrics.connections_rejected_overloaded.get(), 0);

    // Exactly-once: no record was ever labeled twice, and the meter agrees
    // with the counting labeler on both axes.
    let labeler = service.labeler();
    let inner = labeler.inner();
    assert!(inner.distinct_records() > 0, "queries did label something");
    assert_eq!(
        inner.max_labels_per_record(),
        1,
        "a record was labeled more than once despite 8 concurrent clients"
    );
    assert_eq!(labeler.invocations(), inner.total.load(Ordering::Relaxed));
    assert_eq!(labeler.invocations(), inner.distinct_records());

    // Cracking folded query-paid labels back in without blocking anything.
    let reps_now = service.index().reps().len();
    assert!(
        reps_now > initial_reps,
        "crack maintenance never folded labels in ({initial_reps} -> {reps_now})"
    );
    assert_eq!(metrics.cracked_reps.get(), (reps_now - initial_reps) as u64);

    // Clean drain: shutdown via the protocol, join returns.
    let mut admin = Client::connect(addr).expect("connect admin");
    let reply = admin.shutdown().expect("shutdown ack");
    assert!(reply.ok);
    server.join();
}

#[test]
fn overloaded_connections_get_a_typed_error() {
    // Connection-level admission: the reactor holds at most
    // `max_connections` sockets; one more is answered and closed.
    let server = start_server(ServeConfig {
        max_connections: 1,
        ..ServeConfig::default()
    });
    let addr = server.local_addr();

    // Fill the cap: a round-trip guarantees the reactor has admitted (and
    // still holds) this keep-alive connection.
    let mut held = Client::connect(addr).expect("connect");
    assert!(held.index_stats().expect("stats").ok);
    let service = Arc::clone(server.service());
    assert_eq!(service.metrics().connections_accepted.get(), 1);

    // One more must be rejected immediately with the typed error.
    let mut rejected = Client::connect(addr).expect("connect rejected");
    match rejected.index_stats() {
        Ok(reply) => {
            assert!(!reply.ok);
            assert_eq!(reply.id, None, "connection-level error carries no id");
            assert_eq!(reply.error_kind.as_deref(), Some("overloaded"));
        }
        Err(e) => panic!("expected an overloaded reply, got {e}"),
    }
    assert_eq!(service.metrics().connections_rejected_overloaded.get(), 1);
    assert_eq!(service.metrics().connections_accepted.get(), 1);

    // The admitted connection is unaffected.
    assert!(held.index_stats().expect("held still served").ok);
    server.shutdown_and_join();
}

#[test]
fn service_label_budget_yields_typed_budget_exhausted() {
    let server = start_server(ServeConfig {
        workers: 2,
        label_budget: Some(5),
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let mut req = Request::new(Op::EbsAggregate);
    req.score = Some(ScoreSpec::CountClass(ObjectClass::Car));
    req.error_target = Some(0.01); // needs far more than 5 labels
    let reply = client.call(req).expect("call");
    assert!(!reply.ok);
    assert_eq!(reply.error_kind.as_deref(), Some("budget_exhausted"));
    // The affordable prefix was still labeled and billed exactly once.
    let service = server.service();
    assert_eq!(service.labeler().invocations(), 5);
    server.shutdown_and_join();
}

#[test]
fn malformed_and_invalid_requests_get_bad_request() {
    let server = start_server(ServeConfig::default());
    let addr = server.local_addr();

    // Raw garbage on the socket.
    use std::io::{BufRead, BufReader, Write};
    let mut raw = std::net::TcpStream::connect(addr).expect("connect");
    raw.write_all(b"this is not json\n").expect("write");
    let mut line = String::new();
    BufReader::new(raw.try_clone().expect("clone"))
        .read_line(&mut line)
        .expect("read");
    let reply = tasti_serve::Reply::parse(line.trim_end()).expect("parse");
    assert!(!reply.ok);
    assert_eq!(reply.error_kind.as_deref(), Some("bad_request"));
    drop(raw);

    // Well-formed JSON, missing score spec.
    let mut client = Client::connect(addr).expect("connect");
    let reply = client.call(Request::new(Op::EbsAggregate)).expect("call");
    assert!(!reply.ok);
    assert_eq!(reply.error_kind.as_deref(), Some("bad_request"));
    assert!(reply.error_message.unwrap().contains("score"));

    let service = Arc::clone(server.service());
    assert_eq!(service.metrics().bad_requests.get(), 1);
    assert_eq!(service.metrics().responses_error.get(), 1);
    server.shutdown_and_join();
}

#[test]
fn snapshot_persists_a_loadable_cracked_index() {
    let dir = std::env::temp_dir().join(format!("tasti-serve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("mkdir");
    let path = dir.join("snapshot.tasti.json");

    let server = start_server(ServeConfig {
        snapshot_path: Some(path.clone()),
        ..ServeConfig::default()
    });
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Pay for some labels so cracking grows the index first. The three
    // positive reps (records 60/80/100) top the limit ranking for free, so
    // asking for five matches is what forces non-rep records to be labeled.
    let mut req = Request::new(Op::LimitQuery);
    req.score = Some(has_car());
    req.k_matches = Some(5);
    assert!(client.call(req).expect("limit").ok);
    assert!(
        server.service().metrics().cracked_reps.get() > 0,
        "precondition: the query must have cracked the index before the snapshot"
    );

    let reply = client.snapshot().expect("snapshot");
    assert!(reply.ok, "{:?}", reply.error_message);
    let saved_reps = reply.result.get("reps").unwrap().as_u64().unwrap();

    let loaded = persist::load(&path).expect("snapshot loads");
    assert_eq!(loaded.n_records(), N_RECORDS);
    assert_eq!(loaded.reps().len() as u64, saved_reps);
    assert!(
        loaded.reps().len() > 6,
        "snapshot should contain cracked reps, got {}",
        loaded.reps().len()
    );

    server.shutdown_and_join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn client_read_deadline_yields_typed_timeout() {
    // A `Client` property, so no server: a bare listener that accepts (the
    // kernel completes the handshake) and never answers.
    let silent = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = silent.local_addr().expect("addr");

    let mut waiting = Client::connect_with_timeouts(
        addr,
        Some(std::time::Duration::from_secs(5)),
        Some(std::time::Duration::from_millis(50)),
    )
    .expect("connect with deadlines");
    match waiting.index_stats() {
        Err(ClientError::Timeout(msg)) => assert!(msg.contains("50"), "got: {msg}"),
        other => panic!("expected a typed timeout, got {other:?}"),
    }
}

#[test]
fn health_reports_meter_state_and_null_oracle_for_plain_labelers() {
    let server = start_server(ServeConfig::default());
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Pay for some labels first so the meter state is non-trivial.
    let mut req = Request::new(Op::LimitQuery);
    req.score = Some(has_car());
    req.k_matches = Some(3);
    assert!(client.call(req).expect("limit").ok);

    let reply = client.health().expect("health");
    assert!(reply.ok);
    let paid = reply.result.get("invocations").unwrap().as_u64().unwrap();
    assert!(paid > 0);
    assert_eq!(reply.result.get("reserved").unwrap().as_u64(), Some(0));
    // CountingLabeler has no resilience middleware: no oracle health.
    assert!(matches!(
        reply.result.get("oracle"),
        Some(tasti_obs::JsonValue::Null)
    ));
    server.shutdown_and_join();
}

#[test]
fn shutdown_drains_and_refuses_new_work() {
    let server = start_server(ServeConfig::default());
    let addr = server.local_addr();

    let mut client = Client::connect(addr).expect("connect");
    assert!(client.index_stats().expect("stats").ok);
    let reply = client.shutdown().expect("shutdown");
    assert!(reply.ok);
    assert_eq!(reply.result.get("draining").unwrap().as_bool(), Some(true));

    server.join();

    // The listener is gone: new connections are refused outright.
    match Client::connect(addr) {
        Err(ClientError::Io(_)) => {}
        Ok(mut c) => {
            // A connection that sneaks in during teardown must still get a
            // shutting_down error, never service.
            match c.index_stats() {
                Ok(reply) => {
                    assert!(!reply.ok);
                    assert_eq!(reply.error_kind.as_deref(), Some("shutting_down"));
                }
                Err(_) => {} // connection dropped — also fine
            }
        }
        Err(e) => panic!("unexpected client error: {e}"),
    }
}
