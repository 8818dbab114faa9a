//! Chaos tests: the full resilience stack under a real server —
//! `MeteredLabeler<ResilientLabeler<FaultInjectingLabeler<CountingLabeler>>>`
//! behind TCP, with faults injected deterministically and time driven by a
//! [`TestClock`] (no real sleeps anywhere).
//!
//! The load-bearing assertions, per ROADMAP acceptance criteria:
//!
//! * **100% typed replies**: every request under the fault storm yields a
//!   parseable reply — `ok` (possibly `degraded`), never a dropped
//!   connection or a panic.
//! * **Zero lost reservations**: the meter's reserved count returns to 0
//!   after the storm, faults and all.
//! * **Exactly-once billing**: no record is ever labeled twice by the
//!   inner oracle, and the meter's invoice matches the oracle's own count.
//! * **Breaker lifecycle over the wire**: fatal faults trip the breaker,
//!   open-breaker queries fail fast with `labeler_unavailable` +
//!   `retry_after_micros`, and the half-open probe closes it again.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use tasti_cluster::{Metric, MinKTable};
use tasti_core::index::TastiIndex;
use tasti_labeler::{
    BatchTargetLabeler, BreakerConfig, Detection, FallibleTargetLabeler, FaultInjectingLabeler,
    FaultKind, FaultPlan, LabelCost, LabelerOutput, MeteredLabeler, ObjectClass, RecordId,
    ResilientLabeler, Schema, TargetLabeler, TestClock,
};
use tasti_nn::Matrix;
use tasti_obs::JsonValue;
use tasti_serve::{Client, Op, Request, ScoreSpec, ServeConfig, Server, TastiService};

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

/// The exactly-once probe: counts how many times each record was labeled.
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

fn tiny_index() -> TastiIndex {
    let embeddings = Matrix::from_fn(N_RECORDS, 1, |r, _| r as f32);
    let reps: Vec<RecordId> = (0..N_RECORDS).step_by(20).collect();
    let rep_outputs: Vec<LabelerOutput> = reps.iter().map(|&r| frame(truth(r))).collect();
    let rep_emb: Vec<f32> = reps.iter().map(|&r| r as f32).collect();
    let mink = MinKTable::build(embeddings.as_slice(), &rep_emb, 1, 2, Metric::L2);
    TastiIndex::new(embeddings, Metric::L2, 2, reps, rep_outputs, mink)
}

type ChaosOracle = ResilientLabeler<FaultInjectingLabeler<CountingLabeler>>;

/// A server whose oracle path is the full resilience stack under a test
/// clock: backoff sleeps advance virtual time instead of blocking.
fn chaos_server(
    plan: FaultPlan,
    breaker: BreakerConfig,
    config: ServeConfig,
) -> (Server<ChaosOracle>, Arc<TestClock>) {
    let clock = Arc::new(TestClock::new());
    let injecting = FaultInjectingLabeler::new(CountingLabeler::default(), plan);
    let resilient = ResilientLabeler::with_clock(injecting, clock.clone()).with_breaker(breaker);
    let service = Arc::new(TastiService::new(
        tiny_index(),
        MeteredLabeler::new(resilient),
        config,
    ));
    (Server::start(service).expect("bind loopback"), clock)
}

fn has_car() -> ScoreSpec {
    ScoreSpec::HasClass(ObjectClass::Car)
}

fn limit_request(seed: u64) -> Request {
    let mut req = Request::new(Op::LimitQuery);
    req.score = Some(has_car());
    req.k_matches = Some(3);
    req.seed = Some(seed);
    req
}

/// 8 clients × 4 mixed queries against an oracle that faults on ~40% of
/// calls. Retries absorb the retryable ones; fatal faults degrade their
/// query. Every reply must be typed, every reservation released, and every
/// record billed at most once — the reactor's scheduled-retry timer must
/// preserve every one of these guarantees.
#[test]
fn storm_of_faults_keeps_replies_typed_and_billing_exact() {
    let plan = FaultPlan {
        transient_rate: 0.25,
        timeout_rate: 0.1,
        fatal_rate: 0.05,
        ..FaultPlan::default()
    };
    // A breaker that cannot trip: this test is about the retry path, and a
    // mid-storm open would make which queries fail order-dependent.
    let breaker = BreakerConfig {
        failure_threshold: u32::MAX,
        ..BreakerConfig::default()
    };
    let (server, _clock) = chaos_server(
        plan,
        breaker,
        ServeConfig {
            workers: 8,
            queue_depth: 32,
            ..ServeConfig::default()
        },
    );
    let addr = server.local_addr();

    let degraded_total = AtomicU64::new(0);
    std::thread::scope(|s| {
        for t in 0..8u64 {
            let degraded_total = &degraded_total;
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
                        3 => limit_request(0),
                        _ => {
                            let mut r = Request::new(Op::PredicateAggregate);
                            r.predicate = Some(has_car());
                            r.score = Some(ScoreSpec::CountClass(ObjectClass::Car));
                            r.budget = Some(40);
                            r
                        }
                    };
                    req.seed = Some(t * 100 + round);
                    let reply = client.call(req).expect("every request gets a reply");
                    // 100% typed: with the breaker pinned shut and no label
                    // budget, every reply is ok — complete or degraded.
                    assert!(
                        reply.ok,
                        "untyped or unexpected failure: {:?} {:?}",
                        reply.error_kind, reply.error_message
                    );
                    if let Some(JsonValue::Bool(true)) = reply.result.get("degraded") {
                        degraded_total.fetch_add(1, Ordering::Relaxed);
                        let telemetry = reply.telemetry.expect("telemetry");
                        assert_eq!(
                            telemetry.get("certified").unwrap().as_bool(),
                            Some(false),
                            "degraded replies are never certified"
                        );
                        assert!(reply.result.get("fault").is_some());
                    }
                }
            });
        }
    });

    let service = Arc::clone(server.service());
    let labeler = service.labeler();
    let resilient = labeler.inner();
    let injecting = resilient.inner();
    let counting = injecting.inner();

    // The storm actually stormed: faults were injected and retried.
    assert!(injecting.injected_faults() > 0, "no faults injected");
    let health = resilient.health().expect("resilient reports health");
    assert!(health.retries > 0, "no retries under a 35% retryable rate");

    // Zero lost reservations, exactly-once billing.
    assert_eq!(labeler.reserved(), 0, "a reservation leaked");
    assert!(counting.distinct_records() > 0);
    assert_eq!(
        counting.max_labels_per_record(),
        1,
        "a record was labeled twice despite retries"
    );
    assert_eq!(
        labeler.invocations(),
        counting.total.load(Ordering::Relaxed)
    );
    assert_eq!(labeler.invocations(), counting.distinct_records());

    // The metrics and health surfaces saw the same story.
    let metrics = service.metrics();
    assert_eq!(metrics.requests_total.get(), 32);
    assert_eq!(metrics.responses_ok.get(), 32);
    assert_eq!(
        metrics.degraded_replies.get(),
        degraded_total.load(Ordering::Relaxed)
    );
    assert_eq!(
        metrics.oracle_fault_queries.get(),
        metrics.degraded_replies.get()
    );

    let mut admin = Client::connect(addr).expect("connect admin");
    let reply = admin.health().expect("health");
    assert!(reply.ok);
    let oracle = reply.result.get("oracle").expect("oracle health present");
    assert!(oracle.get("retries").unwrap().as_u64().unwrap() > 0);
    assert_eq!(reply.result.get("reserved").unwrap().as_u64(), Some(0));

    server.shutdown_and_join();
}

/// Breaker lifecycle over the wire: five fatal faults trip it open, the
/// next query fails fast with a typed `labeler_unavailable` carrying
/// `retry_after_micros`, advancing the clock past the open window admits a
/// half-open probe, and a successful probe closes the breaker again.
#[test]
fn breaker_opens_fails_fast_and_recovers_over_the_wire() {
    let (server, clock) = chaos_server(
        FaultPlan::default(),
        BreakerConfig::default(), // threshold 5, open window 1s
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let service = Arc::clone(server.service());
    let injecting = service.labeler().inner().inner();
    let mut client = Client::connect(server.local_addr()).expect("connect");

    // Five queries, each meeting one scripted fatal fault on its first
    // oracle call (the degrade gate stops calling after the first fault,
    // so each query consumes exactly one script entry).
    injecting.push_script((0..5).map(|_| Some(FaultKind::Fatal)));
    for i in 0..5u64 {
        let reply = client.call(limit_request(i)).expect("reply");
        assert!(reply.ok, "degraded, not dropped: {:?}", reply.error_message);
        assert_eq!(reply.result.get("degraded").unwrap().as_bool(), Some(true));
        let fault = reply.result.get("fault").unwrap().as_str().unwrap();
        assert!(fault.contains("fatal"), "got: {fault}");
        assert_eq!(
            reply
                .telemetry
                .expect("telemetry")
                .get("certified")
                .unwrap()
                .as_bool(),
            Some(false)
        );
    }

    // Sixth query: breaker is open and the window has not elapsed — the
    // service fails fast without touching the oracle.
    let calls_before = injecting.inner_calls();
    let reply = client.call(limit_request(100)).expect("reply");
    assert!(!reply.ok);
    assert_eq!(reply.error_kind.as_deref(), Some("labeler_unavailable"));
    let retry_after = reply
        .retry_after_micros
        .expect("open breaker advertises a retry hint");
    assert!(retry_after > 0, "hint must be in the future");
    assert_eq!(
        injecting.inner_calls(),
        calls_before,
        "fail-fast must not reach the oracle"
    );

    // Health over the wire agrees: breaker open, five fatal faults.
    let health = client.health().expect("health");
    let oracle = health.result.get("oracle").expect("oracle health");
    assert_eq!(oracle.get("breaker").unwrap().as_str(), Some("open"));
    assert_eq!(
        oracle
            .get("faults_by_kind")
            .unwrap()
            .get("fatal")
            .unwrap()
            .as_u64(),
        Some(5)
    );
    assert_eq!(oracle.get("breaker_opens").unwrap().as_u64(), Some(1));

    // Let the open window elapse; the next query is admitted as the
    // half-open probe, succeeds (the script is exhausted, rates are zero),
    // and closes the breaker.
    clock.advance(1_000_001);
    let reply = client.call(limit_request(200)).expect("reply");
    assert!(reply.ok, "{:?}", reply.error_message);
    assert!(reply.result.get("degraded").is_none(), "clean reply");

    let health = client.health().expect("health");
    let oracle = health.result.get("oracle").expect("oracle health");
    assert_eq!(oracle.get("breaker").unwrap().as_str(), Some("closed"));
    assert_eq!(oracle.get("consecutive_faults").unwrap().as_u64(), Some(0));

    // Billing stayed exact through the whole incident.
    let counting = injecting.inner();
    assert_eq!(service.labeler().reserved(), 0);
    assert!(counting.max_labels_per_record() <= 1);
    assert_eq!(service.labeler().invocations(), counting.distinct_records());
    assert_eq!(service.metrics().degraded_replies.get(), 5);
    assert_eq!(service.metrics().labeler_unavailable.get(), 1);

    server.shutdown_and_join();
}

/// With `degraded_replies: false` the service converts a mid-query fault
/// into a typed `labeler_unavailable` error instead of a partial result.
#[test]
fn disabling_degraded_replies_turns_faults_into_typed_errors() {
    let (server, _clock) = chaos_server(
        FaultPlan::default(),
        BreakerConfig::default(),
        ServeConfig {
            workers: 1,
            degraded_replies: false,
            ..ServeConfig::default()
        },
    );
    let service = Arc::clone(server.service());
    service
        .labeler()
        .inner()
        .inner()
        .push_script([Some(FaultKind::Fatal)]);

    let mut client = Client::connect(server.local_addr()).expect("connect");
    let reply = client.call(limit_request(0)).expect("reply");
    assert!(!reply.ok);
    assert_eq!(reply.error_kind.as_deref(), Some("labeler_unavailable"));
    assert!(reply
        .error_message
        .unwrap()
        .contains("degraded replies are disabled"));

    let metrics = service.metrics();
    assert_eq!(metrics.labeler_unavailable.get(), 1);
    assert_eq!(metrics.oracle_fault_queries.get(), 1);
    assert_eq!(metrics.degraded_replies.get(), 0);
    assert_eq!(service.labeler().reserved(), 0, "fault released its hold");

    server.shutdown_and_join();
}
