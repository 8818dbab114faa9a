//! Reactor tests: the idle keep-alive storm the reactor exists for,
//! request-level backpressure, transport transparency (TCP replies equal
//! the in-process service's, byte for byte), a drain releasing a retry
//! backoff parked on the real clock, and regressions for two
//! data-loss bugs a blocking `read_line` front end had (a request line
//! arriving in chunks across read timeouts was truncated; a final
//! unterminated line at EOF was discarded unanswered).

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use tasti_cluster::{Metric, MinKTable};
use tasti_core::index::TastiIndex;
use tasti_labeler::{
    BatchTargetLabeler, Detection, FaultInjectingLabeler, FaultPlan, LabelCost, LabelerOutput,
    MeteredLabeler, ObjectClass, RecordId, ResilientLabeler, RetryPolicy, Schema, TargetLabeler,
};
use tasti_nn::Matrix;
use tasti_serve::proto::err_response;
use tasti_serve::{
    Client, ErrorKind, LabelerFactory, Op, Reply, Request, ScoreSpec, ServeConfig, Server,
    TastiService,
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

#[derive(Default)]
struct CountingLabeler {
    per_record: Mutex<HashMap<RecordId, u64>>,
    total: AtomicU64,
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

fn tiny_service(config: ServeConfig) -> TastiService<CountingLabeler> {
    let labeler = MeteredLabeler::new(CountingLabeler::default());
    TastiService::new(tiny_index(), labeler, config)
}

fn start_server(config: ServeConfig) -> Server<CountingLabeler> {
    Server::start(Arc::new(tiny_service(config))).expect("bind loopback")
}

/// The reactor's reason to exist: far more concurrent idle keep-alive
/// connections than compute threads (64 vs 4 — a 16× ratio a
/// thread-per-connection pool cannot reach, where 4 workers cap at 4
/// concurrent connections), prompt service on a fresh connection while
/// they all sit parked, and a clean drain that farewells every one of them.
#[test]
fn idle_keepalive_storm_outnumbers_compute_threads_16x() {
    const IDLE_CONNS: usize = 64;
    const WORKERS: usize = 4;
    let server = start_server(ServeConfig {
        workers: WORKERS,
        queue_depth: 16,
        max_connections: 256,
        ..ServeConfig::default()
    });
    let addr = server.local_addr();

    // 64 keep-alive connections, each proven live with one round-trip,
    // then left open and idle.
    let mut idle: Vec<Client> = Vec::with_capacity(IDLE_CONNS);
    for _ in 0..IDLE_CONNS {
        let mut c = Client::connect(addr).expect("connect idle");
        assert!(c.index_stats().expect("idle round-trip").ok);
        idle.push(c);
    }
    let service = Arc::clone(server.service());
    assert_eq!(
        service.metrics().connections_accepted.get(),
        IDLE_CONNS as u64,
        "all idle connections admitted concurrently"
    );
    assert_eq!(service.metrics().connections_rejected_overloaded.get(), 0);

    // With every idle connection still parked, fresh work is served
    // promptly: queries answer well inside a client-side deadline.
    let mut active = Client::connect_with_timeouts(
        addr,
        Some(Duration::from_secs(5)),
        Some(Duration::from_secs(10)),
    )
    .expect("connect active");
    for seed in 0..4u64 {
        let mut req = Request::new(Op::LimitQuery);
        req.score = Some(ScoreSpec::HasClass(ObjectClass::Car));
        req.k_matches = Some(3);
        req.seed = Some(seed);
        let reply = active.call(req).expect("prompt query under the storm");
        assert!(reply.ok, "{:?}", reply.error_message);
    }
    drop(active);

    // Clean drain with all 64 still connected: shutdown acks, join
    // returns, and parked clients get the typed farewell (or a prompt
    // close) instead of hanging.
    let mut admin = Client::connect(addr).expect("connect admin");
    assert!(admin.shutdown().expect("shutdown").ok);
    let start = Instant::now();
    server.join();
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "drain with 64 idle connections took {:?}",
        start.elapsed()
    );
    for c in idle.iter_mut().take(4) {
        match c.index_stats() {
            Ok(reply) => {
                assert!(!reply.ok);
                assert_eq!(reply.error_kind.as_deref(), Some("shutting_down"));
            }
            Err(_) => {} // already closed — also a clean farewell
        }
    }
}

/// Writes `line` (plus the newline) in small chunks with 250 ms pauses
/// (longer than the 200 ms read timeout the blocking reader polled with),
/// then reads one reply line.
fn drip_feed(addr: std::net::SocketAddr, line: &str, chunks: usize) -> Reply {
    let mut conn = TcpStream::connect(addr).expect("connect");
    let bytes = format!("{line}\n").into_bytes();
    let step = bytes.len().div_ceil(chunks);
    for chunk in bytes.chunks(step.max(1)) {
        conn.write_all(chunk).expect("write chunk");
        conn.flush().expect("flush");
        // A read_line loop drops the partial line on every empty read.
        std::thread::sleep(Duration::from_millis(250));
    }
    let mut response = String::new();
    BufReader::new(conn)
        .read_line(&mut response)
        .expect("read reply");
    Reply::parse(response.trim_end()).expect("parse reply")
}

/// Regression for the data-loss bug: a request line dripped onto the
/// socket across read timeouts must be reassembled byte-for-byte. A
/// `BufReader::read_line` loop fails this — it truncates the partial line
/// away on every `WouldBlock`, so the eventual parse sees a mangled tail
/// and answers `bad_request` (or nothing).
#[test]
fn slow_writer_request_survives_idle_poll() {
    let server = start_server(ServeConfig::default());
    let reply = drip_feed(server.local_addr(), r#"{"id":11,"op":"index_stats"}"#, 3);
    assert!(
        reply.ok,
        "dripped request was mangled: {:?} {:?}",
        reply.error_kind, reply.error_message
    );
    assert_eq!(reply.id, Some(11));
    assert_eq!(server.service().metrics().bad_requests.get(), 0);
    server.shutdown_and_join();
}

/// Regression for the EOF data-loss bug: a one-shot client that writes its
/// request without a trailing newline and half-closes must be answered, not
/// have the request silently discarded (`Ok(0) => return`).
#[test]
fn unterminated_final_request_is_answered_at_eof() {
    let server = start_server(ServeConfig::default());
    let conn = TcpStream::connect(server.local_addr()).expect("connect");
    let mut writer = conn.try_clone().expect("clone");
    writer
        .write_all(br#"{"id":21,"op":"index_stats"}"#) // no newline
        .expect("write");
    writer.flush().expect("flush");
    conn.shutdown(Shutdown::Write).expect("half-close");
    let mut response = String::new();
    BufReader::new(conn)
        .read_line(&mut response)
        .expect("read reply");
    assert!(
        !response.is_empty(),
        "unterminated final request was discarded at EOF"
    );
    let reply = Reply::parse(response.trim_end()).expect("parse reply");
    assert!(reply.ok, "{:?}", reply.error_message);
    assert_eq!(reply.id, Some(21));
    server.shutdown_and_join();
}

/// A labeler whose `label` blocks until the test opens a gate — pins a
/// compute worker deterministically.
#[derive(Default)]
struct GateLabeler {
    open: Mutex<bool>,
    cv: Condvar,
    entered: AtomicBool,
}

impl GateLabeler {
    fn release(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }
}

impl TargetLabeler for GateLabeler {
    fn label(&self, record: RecordId) -> LabelerOutput {
        self.entered.store(true, Ordering::SeqCst);
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.cv.wait(open).unwrap();
        }
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
        "gate"
    }
}

impl BatchTargetLabeler for GateLabeler {}

/// Request-level backpressure: with the one compute worker pinned and the
/// bounded channel full, the next request gets an immediate typed
/// `overloaded` error — and its connection *stays open* and is served
/// normally once the pressure clears.
#[test]
fn full_compute_channel_yields_typed_overloaded_and_connection_survives() {
    let labeler = MeteredLabeler::new(GateLabeler::default());
    let service = Arc::new(TastiService::new(
        tiny_index(),
        labeler,
        ServeConfig {
            workers: 1,
            queue_depth: 1,
            ..ServeConfig::default()
        },
    ));
    let server = Server::start(Arc::clone(&service)).expect("bind loopback");
    let addr = server.local_addr();

    // Connection A: a query that blocks on the gate, pinning the worker.
    let mut a = TcpStream::connect(addr).expect("connect a");
    writeln!(
        a,
        r#"{{"id":1,"op":"limit_query","score":{{"fn":"has_class","class":"car"}},"k_matches":2,"seed":1}}"#
    )
    .expect("write a");
    let gate = Arc::clone(server.service());
    for _ in 0..400 {
        if gate.labeler().inner().entered.load(Ordering::SeqCst) {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        gate.labeler().inner().entered.load(Ordering::SeqCst),
        "worker never reached the gate"
    );

    // Connection B: its request occupies the single channel slot.
    let mut b = TcpStream::connect(addr).expect("connect b");
    writeln!(b, r#"{{"id":2,"op":"index_stats"}}"#).expect("write b");
    b.flush().expect("flush b");
    // Give the reactor a moment to dispatch B into the channel.
    std::thread::sleep(Duration::from_millis(100));

    // Connection C: channel full — immediate typed overloaded, id-less
    // (connection-level error), connection kept open.
    let mut c = Client::connect_with_timeouts(
        addr,
        Some(Duration::from_secs(5)),
        Some(Duration::from_secs(5)),
    )
    .expect("connect c");
    let reply = c.index_stats().expect("typed overloaded reply");
    assert!(!reply.ok);
    assert_eq!(reply.error_kind.as_deref(), Some("overloaded"));
    assert_eq!(reply.id, None);
    assert!(service.metrics().requests_rejected_overloaded.get() >= 1);

    // Open the gate: A and B complete, and C's connection — never closed —
    // now gets real service.
    service.labeler().inner().release();
    let mut read_a = BufReader::new(a.try_clone().expect("clone a"));
    let mut line = String::new();
    read_a.read_line(&mut line).expect("read a");
    assert!(Reply::parse(line.trim_end()).expect("parse a").ok);
    let mut read_b = BufReader::new(b.try_clone().expect("clone b"));
    line.clear();
    read_b.read_line(&mut line).expect("read b");
    assert!(Reply::parse(line.trim_end()).expect("parse b").ok);
    let reply = c.index_stats().expect("post-pressure call");
    assert!(reply.ok, "rejected connection must remain usable");

    drop((a, b));
    server.shutdown_and_join();
}

/// Blanks the value of every `"wall_seconds":<num>` occurrence — the one
/// legitimately nondeterministic field in query telemetry.
fn normalize_wall_seconds(line: &str) -> String {
    let needle = "\"wall_seconds\":";
    let mut out = String::new();
    let mut rest = line;
    while let Some(pos) = rest.find(needle) {
        let value_start = pos + needle.len();
        out.push_str(&rest[..value_start]);
        out.push('X');
        let tail = &rest[value_start..];
        let end = tail.find(|c| c == ',' || c == '}').unwrap_or(tail.len());
        rest = &tail[end..];
    }
    out.push_str(rest);
    out
}

/// The transport is transparent: a request script over TCP yields exactly
/// the lines an identically constructed in-process service returns from
/// `Request::parse_line` → `handle` (or the bad-request `err_response`),
/// modulo wall-clock telemetry — the reactor adds and removes no bytes.
/// Comparing two live runs (not a golden transcript) keeps this
/// independent of the RNG stream behind the query replies.
#[test]
fn transport_adds_and_removes_no_bytes() {
    let script: &[&str] = &[
        r#"{"id":1,"op":"index_stats"}"#,
        r#"{"id":2,"op":"limit_query","score":{"fn":"has_class","class":"car"},"k_matches":3,"seed":7}"#,
        "this is not json",
        r#"{"id":4,"op":"health"}"#,
        r#"{"id":5,"op":"ebs_aggregate","score":{"fn":"count_class","class":"car"},"error_target":0.2,"seed":9}"#,
    ];

    let server = start_server(ServeConfig::default());
    let conn = TcpStream::connect(server.local_addr()).expect("connect");
    let mut writer = conn.try_clone().expect("clone");
    let mut reader = BufReader::new(conn);
    let mut over_tcp = Vec::new();
    for raw in script {
        writeln!(writer, "{raw}").expect("write");
        writer.flush().expect("flush");
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        assert!(
            line.ends_with('\n'),
            "reply is one terminated line: {line:?}"
        );
        over_tcp.push(normalize_wall_seconds(line.trim_end_matches('\n')));
    }
    drop(writer);
    server.shutdown_and_join();

    let service = tiny_service(ServeConfig::default());
    for (i, raw) in script.iter().enumerate() {
        let in_process = match Request::parse_line(raw) {
            Ok(req) => service.handle(&req),
            Err(e) => err_response(e.id, ErrorKind::BadRequest, &e.message),
        };
        assert_eq!(
            over_tcp[i],
            normalize_wall_seconds(&in_process),
            "response {i} over TCP differs from the in-process reply for {raw:?}"
        );
    }
}

type FlakyOracle = ResilientLabeler<FaultInjectingLabeler<CountingLabeler>>;

/// An oracle that always faults transiently, retried once on the **real**
/// clock after a 30 s backoff — far longer than any drain may take.
fn flaky_labeler() -> MeteredLabeler<FlakyOracle> {
    let always_transient = FaultPlan::transient(1.0, 7);
    let injecting = FaultInjectingLabeler::new(CountingLabeler::default(), always_transient);
    MeteredLabeler::new(ResilientLabeler::new(injecting).with_policy(RetryPolicy {
        max_attempts: 2,
        base_backoff_micros: 30_000_000,
        max_backoff_micros: 30_000_000,
        ..RetryPolicy::default()
    }))
}

/// Sends one query to `index` (loading it over the wire first when named),
/// waits for the oracle's first faulted attempt — so the compute worker is
/// in, or about to enter, its 30 s backoff — then drains: the server must
/// be down within 2 s and the query answered with a typed reply.
fn drain_releases_a_parked_backoff(index: Option<&str>) {
    let factory: LabelerFactory<FlakyOracle> = Box::new(|_| flaky_labeler());
    let service = TastiService::with_factory(
        tiny_index(),
        flaky_labeler(),
        ServeConfig::default(),
        factory,
    )
    .expect("service");
    let server = Server::start(Arc::new(service)).expect("bind loopback");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    if let Some(name) = index {
        let dir = std::env::temp_dir().join(format!("tasti-evented-drain-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("tenant.tasti.json");
        tasti_core::persist::save(&tiny_index(), &path).expect("save snapshot");
        let mut load = Request::new(Op::IndexLoad);
        load.index = Some(name.to_string());
        load.path = Some(path.display().to_string());
        let reply = client.call(load).expect("index_load");
        let _ = std::fs::remove_dir_all(&dir);
        assert!(reply.ok, "{:?}", reply.error_message);
    }
    let entry = server.service().registry().get(index).expect("entry");

    let mut query = Request::new(Op::LimitQuery);
    query.index = index.map(str::to_string);
    query.score = Some(ScoreSpec::HasClass(ObjectClass::Car));
    query.k_matches = Some(3);
    let asker = std::thread::spawn(move || client.call(query));

    let waited = Instant::now();
    while entry.labeler.inner().inner().inner_calls() == 0 {
        assert!(
            waited.elapsed() < Duration::from_secs(10),
            "the query never reached the oracle"
        );
        std::thread::sleep(Duration::from_millis(5));
    }

    let drain_started = Instant::now();
    server.shutdown_and_join();
    let drained_in = drain_started.elapsed();
    assert!(
        drained_in < Duration::from_secs(2),
        "the drain waited out a backoff: {drained_in:?}"
    );

    let reply = asker
        .join()
        .expect("asker")
        .expect("a reply, not a dropped connection");
    let degraded = matches!(
        reply.result.get("degraded"),
        Some(tasti_obs::JsonValue::Bool(true))
    );
    assert!(
        (reply.ok && degraded) || reply.error_kind.as_deref() == Some("labeler_unavailable"),
        "reply must be typed: {reply:?}"
    );
}

#[test]
fn drain_releases_a_real_clock_backoff_on_the_default_index() {
    drain_releases_a_parked_backoff(None);
}

/// Regression: indexes registered after start used to keep the default
/// sleeping timer, so a drain waited out their every backoff.
#[test]
fn drain_releases_a_real_clock_backoff_on_a_wire_loaded_index() {
    drain_releases_a_parked_backoff(Some("loaded"));
}
