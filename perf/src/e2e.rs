//! The three workloads, end to end: fixture → server → traffic → snapshot →
//! kill → restart, with every answer checked against ground truth.
//!
//! Every run has the same skeleton so every end-to-end metric is defined on
//! every workload; the workloads differ in the traffic of the measured phase
//! (see [`crate::metrics::WORKLOADS`]). Load shape: closed loop, one
//! generator process, servers started with `--workers 2 --queue-depth 16`,
//! default evented core, cracking on.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use tasti::data::Dataset;
use tasti::serve::proto::{Op, Reply, Request};
use tasti_obs::JsonValue;

use crate::fixture::{self, Checker, Profile, Template, TemplateTruth};
use crate::load::{index_stats, open_loop, OpenLoop, QueryConn, Stats};
use crate::metrics::{mean, median, op_label, percentile, RunResult};
use crate::server::{disk_bytes, Backend, BuildOutcome, Running, Scratch, ServeSpec};

/// Warm-up passes after which a set of templates that still bills labels is
/// reported as a failed check instead of looping forever.
const MAX_WARM_PASSES: usize = 12;

#[derive(Debug, Clone)]
pub struct RunConfig {
    pub profile: Profile,
    pub seed: u64,
    /// Length of the measured traffic phase.
    pub seconds: f64,
    pub backend: Backend,
    /// Append the open-loop phase to `serve_warm` (traced runs only: it
    /// feeds per-layer metrics, never end-to-end ones).
    pub open_loop: bool,
}

/// Runs one workload end to end.
pub fn run(workload: &str, cfg: &RunConfig) -> Result<RunResult, String> {
    let scratch = Scratch::create()?;
    let mut run = Run::new(cfg, &scratch, workload)?;
    match workload {
        "serve_warm" => run.serve_warm()?,
        "serve_cold" => run.serve_cold()?,
        "ingest_mixed" => run.ingest_mixed()?,
        other => return Err(format!("unknown workload '{other}'")),
    }
    Ok(run.finish())
}

/// Counters of the server's `metrics` op the per-layer metrics read.
#[derive(Debug, Clone, Default)]
struct ServerMetrics {
    requests_total: f64,
    wakeups: f64,
    loop_p99_us: f64,
    ready_events_mean: f64,
    rejected_overloaded: f64,
    group_commit_batches: f64,
    escalations: f64,
    background_refreshes: f64,
    /// Per query op: (replies, mean server-side latency in µs).
    ops: Vec<(Op, f64, f64)>,
}

fn server_metrics(reply: &Reply) -> ServerMetrics {
    let r = &reply.result;
    let num = |v: Option<&JsonValue>| v.and_then(JsonValue::as_f64).unwrap_or(0.0);
    let reactor = r.get("reactor");
    let sub = |section: Option<&JsonValue>, a: &str, b: &str| {
        num(section.and_then(|s| s.get(a)).and_then(|s| s.get(b)))
    };
    ServerMetrics {
        requests_total: num(r.get("requests_total")),
        wakeups: num(reactor.and_then(|s| s.get("wakeups"))),
        loop_p99_us: sub(reactor, "loop_micros", "p99"),
        ready_events_mean: sub(reactor, "ready_events", "mean"),
        rejected_overloaded: num(r.get("requests_rejected_overloaded")),
        group_commit_batches: num(r.get("group_commit_batches")),
        escalations: num(r.get("ingest_escalations")),
        background_refreshes: num(r.get("ingest_background_refreshes")),
        ops: Op::ALL
            .into_iter()
            .filter(|op| op.is_query())
            .map(|op| {
                let lat = r
                    .get("ops")
                    .and_then(|o| o.get(op.name()))
                    .and_then(|o| o.get("latency_micros"));
                (
                    op,
                    num(lat.and_then(|l| l.get("count"))),
                    num(lat.and_then(|l| l.get("mean"))),
                )
            })
            .collect(),
    }
}

struct Run<'a> {
    cfg: &'a RunConfig,
    scratch: &'a Scratch,
    /// The dataset the server's oracle answers from.
    dataset: Dataset,
    templates: Vec<Template>,
    truths: Arc<Vec<TemplateTruth>>,
    result: RunResult,
    checker: Checker,
    /// Server start + priming, one sample per set-up.
    start_prime_s: Vec<f64>,
    build_s: Vec<f64>,
    restart_s: Vec<f64>,
    peak_rss_mb: f64,
    /// Latency samples of the measured phase, all connections.
    samples: Vec<(Op, f64)>,
    /// Whether this workload's servers crack (see `serve_warm`).
    crack: bool,
}

impl<'a> Run<'a> {
    fn new(cfg: &'a RunConfig, scratch: &'a Scratch, workload: &str) -> Result<Self, String> {
        let p = &cfg.profile;
        let (dataset, _) = fixture::dataset(p.served_records(workload));
        let templates = fixture::templates(p, cfg.seed);
        let truths = Arc::new(
            templates
                .iter()
                .map(|t| TemplateTruth::new(&dataset, t))
                .collect(),
        );
        let mut result = RunResult {
            correct: true,
            ..RunResult::default()
        };
        if workload == "ingest_mixed" {
            result.notes.push(
                "kill -9 leaves the OS page cache intact: the no-acknowledged-row-lost check \
                 covers a process crash, not a power loss"
                    .into(),
            );
            if scratch.fs_type() == "tmpfs" {
                result.notes.push(
                    "scratch is on tmpfs: fsync is free there, so ingest.ack_p50_ms and \
                     ingest.rows_s understate a real disk"
                        .into(),
                );
            }
        }
        Ok(Self {
            cfg,
            scratch,
            dataset,
            templates,
            truths,
            result,
            checker: Checker::default(),
            start_prime_s: Vec::new(),
            build_s: Vec::new(),
            restart_s: Vec::new(),
            peak_rss_mb: 0.0,
            samples: Vec::new(),
            // Cracking has no fixed point under importance-sampled queries:
            // every crack pass moves the proxy, which moves the next draw of
            // SUPG and predicate aggregation onto unlabeled records (a
            // 48-template set still billed labels after 12 passes). A warm
            // steady state therefore needs a frozen index, so the two
            // workloads that replay templates serve with `--no-crack`;
            // `serve_cold` is where cracking is on and measured.
            crack: workload == "serve_cold",
        })
    }

    fn index_path(&self) -> PathBuf {
        self.scratch.path("index.json")
    }

    fn snapshot_path(&self) -> PathBuf {
        self.scratch.path("snapshot.json")
    }

    fn spec(&self, index: PathBuf, ingest: bool) -> ServeSpec {
        ServeSpec {
            crack: self.crack,
            index,
            n: self.dataset.len(),
            snapshot: self.snapshot_path(),
            ingest_dir: ingest.then(|| self.scratch.path("ingest-log")),
        }
    }

    fn conn(&self, server: &Running) -> Result<QueryConn, String> {
        Ok(QueryConn::new(server.connect()?, Arc::clone(&self.truths)))
    }

    /// Folds a finished connection's tallies into the run; its latency
    /// samples count only when it carried measured-phase traffic.
    fn absorb(&mut self, conn: QueryConn, measured: bool) {
        self.checker.merge(conn.checker);
        if measured {
            self.samples.extend(conn.samples);
        }
    }

    /// The `i`-th distinct query a fresh server is asked: the templates
    /// first, then cold variants of them. Returns it with its template's
    /// position.
    fn distinct_query(&self, i: usize) -> (usize, Template) {
        let idx = i % self.templates.len();
        let query = if i < self.templates.len() {
            self.templates[idx].clone()
        } else {
            fixture::cold_query(&self.templates, i, self.cfg.seed)
        };
        (idx, query)
    }

    /// Sets `invocations_per_query` from the meter of a server that has
    /// answered exactly its first `counted_queries` distinct queries.
    fn set_label_cost(&mut self, fresh: Stats, now: Stats) {
        self.result.set(
            "invocations_per_query",
            (now.invocations - fresh.invocations) as f64 / self.cfg.profile.counted_queries as f64,
        );
    }

    /// Asks a fresh, frozen server its first `counted_queries` distinct
    /// queries and counts the labels they bill. One connection per query,
    /// as `tasti_cli probe` does: this counts labels, it times nothing, and
    /// a kept-alive connection would spend 40 ms per request on the
    /// client's delayed-ACK stall (see the README). The templates come
    /// first, so the warm-up that follows finds their labels cached.
    fn count_label_cost(&mut self, server: &Running, fresh: Stats) -> Result<(), String> {
        let p = self.cfg.profile;
        for i in 0..p.counted_queries {
            let (idx, query) = self.distinct_query(i);
            let mut conn = self.conn(server)?;
            conn.issue(idx, &query, || (p.records, p.records));
            self.absorb(conn, false);
        }
        let mut conn = self.conn(server)?;
        let now = index_stats(&mut conn).ok_or("index_stats failed after the label count")?;
        self.absorb(conn, false);
        self.set_label_cost(fresh, now);
        Ok(())
    }

    /// Replays the template set on one connection until a full pass bills
    /// no label and adds no representative. Returns the stats after the
    /// last pass.
    fn warm_up(&mut self, server: &Running) -> Result<Stats, String> {
        let records = self.cfg.profile.records;
        let mut conn = self.conn(server)?;
        let mut before = index_stats(&mut conn).ok_or("index_stats failed before warm-up")?;
        let mut converged = false;
        for _ in 0..MAX_WARM_PASSES {
            for (i, t) in self.templates.iter().enumerate() {
                conn.issue(i, t, || (records, records));
            }
            let after = index_stats(&mut conn).ok_or("index_stats failed during warm-up")?;
            converged = after.invocations == before.invocations && after.reps == before.reps;
            before = after;
            if converged {
                break;
            }
        }
        self.absorb(conn, false);
        if !converged {
            self.result.violation(format!(
                "warm-up still billed labels after {MAX_WARM_PASSES} passes over the templates"
            ));
        }
        Ok(before)
    }

    /// The first `crack_in` queries of the cold stream, on one connection.
    /// A crack pass that grows the representative set by more than an
    /// eighth rebuilds the whole assignment (≈ 0.4 s); on a fresh 800-rep
    /// index the first few EBS queries do, how many depends on the seed, and
    /// after `crack_in` queries the set is too large for any one query to.
    /// That transient belongs to set-up (`setup_s` carries it); the measured
    /// phase then times steady cracking.
    fn crack_in(&mut self, server: &Running) -> Result<Stats, String> {
        let p = self.cfg.profile;
        let mut conn = self.conn(server)?;
        for i in 0..p.crack_in {
            let (idx, query) = self.distinct_query(self.templates.len() + i);
            conn.issue(idx, &query, || (p.records, p.records));
        }
        let stats = index_stats(&mut conn).ok_or("index_stats failed after the crack-in")?;
        self.absorb(conn, false);
        Ok(stats)
    }

    /// Snapshot, then `restarts` × (SIGKILL, restart from the snapshot and
    /// the log, first ok `index_stats`). `expect_records` is what the
    /// server must report before the kill and after every restart: no
    /// acknowledged row may be lost.
    fn snapshot_kill_restart(
        &mut self,
        mut server: Running,
        ingest: bool,
        snapshot_taken: bool,
        expect_records: u64,
    ) -> Result<(), String> {
        {
            let mut conn = self.conn(&server)?;
            if !snapshot_taken {
                conn.admin(Request::new(Op::Snapshot));
            }
            match index_stats(&mut conn) {
                Some(s) if s.records == expect_records => {}
                Some(s) => self.result.violation(format!(
                    "server reports {} records before the kill, expected {expect_records}",
                    s.records
                )),
                None => {}
            }
            self.absorb(conn, false);
        }
        let stored =
            disk_bytes(&self.snapshot_path()) + disk_bytes(&self.scratch.path("ingest-log"));
        self.result.set(
            "stored_bytes_per_record",
            stored as f64 / expect_records as f64,
        );
        for _ in 0..self.cfg.profile.restarts.max(1) {
            self.peak_rss_mb = self.peak_rss_mb.max(server.peak_rss_mb());
            server.kill();
            let t = Instant::now();
            server = self
                .cfg
                .backend
                .serve(&self.spec(self.snapshot_path(), ingest))?;
            let mut conn = self.conn(&server)?;
            let stats = index_stats(&mut conn);
            self.restart_s.push(t.elapsed().as_secs_f64());
            match stats {
                Some(s) if s.records == expect_records => {}
                Some(s) => self.result.violation(format!(
                    "restart lost acknowledged rows: {} records, expected {expect_records}",
                    s.records
                )),
                None => {}
            }
            self.absorb(conn, false);
        }
        self.peak_rss_mb = self.peak_rss_mb.max(server.peak_rss_mb());
        server.kill();
        Ok(())
    }

    /// Sets the metrics read off the server's `metrics` dumps around the
    /// measured phase: `evented.*` and the ingest counters.
    fn server_side(&mut self, before: &ServerMetrics, after: &ServerMetrics) {
        let requests = (after.requests_total - before.requests_total).max(1.0);
        // Client mean − server-reported mean, weighted by the phase's
        // replies per op: loopback + linebuf + dispatch + queue wait +
        // write-drain + reply parse.
        let mut weighted = 0.0;
        let mut weight = 0.0;
        for ((op, n1, m1), (_, n0, m0)) in after.ops.iter().zip(&before.ops) {
            let n = n1 - n0;
            let client_ms = self.latencies_of(*op);
            if n <= 0.0 || client_ms.is_empty() {
                continue;
            }
            let server_mean = (n1 * m1 - n0 * m0) / n;
            weighted += (mean(&client_ms) * 1e3 - server_mean) * n;
            weight += n;
        }
        let r = &mut self.result;
        r.set(
            "evented.overhead_us",
            if weight > 0.0 { weighted / weight } else { 0.0 },
        );
        r.set("evented.loop_p99_us", after.loop_p99_us);
        r.set(
            "evented.wakeups_per_request",
            (after.wakeups - before.wakeups) / requests,
        );
        r.set("evented.ready_events_mean", after.ready_events_mean);
        r.set(
            "evented.rejected_overloaded",
            after.rejected_overloaded - before.rejected_overloaded,
        );
        r.set("segment.group_commit_batches", after.group_commit_batches);
        r.set("registry.escalations", after.escalations);
        r.set("registry.background_refreshes", after.background_refreshes);
    }

    fn metrics_dump(&mut self, server: &Running) -> Result<ServerMetrics, String> {
        let mut conn = self.conn(server)?;
        let dump = conn
            .admin(Request::new(Op::Metrics))
            .map(|r| server_metrics(&r))
            .unwrap_or_default();
        self.absorb(conn, false);
        Ok(dump)
    }

    /// Builds the fixture `build_ramp + timed_builds` times back to back and
    /// times the last `timed_builds`. With `ingest` the index covers
    /// only the first `records` of the served dataset: the rest are the
    /// rows to ingest, so the oracle can label them.
    fn build_fixture(&mut self, ingest: bool) -> Result<(), String> {
        let p = self.cfg.profile;
        for round in 0..p.build_ramp + p.timed_builds.max(1) {
            let built = if ingest {
                // `tasti_cli build` cannot build on a prefix of a dataset,
                // so this fixture is built with the same library calls here.
                let t = Instant::now();
                let invocations =
                    fixture::build_fixture(self.dataset.len(), p.records, &p, &self.index_path())?;
                BuildOutcome {
                    wall_s: t.elapsed().as_secs_f64(),
                    invocations,
                }
            } else {
                self.cfg.backend.build(&p, &self.index_path())?
            };
            if round >= p.build_ramp {
                self.build_s.push(built.wall_s);
            }
            self.result
                .set("build_invocations", built.invocations as f64);
        }
        Ok(())
    }

    /// Builds the fixture, then `setup_repeats` × (start a server on it,
    /// prime it); keeps the last server. Priming is the crack-in on
    /// `serve_cold`, and the label count followed by the warm-up on the
    /// other two. Returns the server with its stats when fresh and when
    /// primed. With `ingest` the server gets an ingest log.
    fn set_up_served(&mut self, ingest: bool) -> Result<(Running, Stats, Stats), String> {
        self.build_fixture(ingest)?;
        let mut last = None;
        for _ in 0..self.cfg.profile.setup_repeats.max(1) {
            drop(last.take());
            let _ = std::fs::remove_dir_all(self.scratch.path("ingest-log"));
            let _ = std::fs::remove_file(self.snapshot_path());
            let t = Instant::now();
            let server = self
                .cfg
                .backend
                .serve(&self.spec(self.index_path(), ingest))?;
            let mut conn = self.conn(&server)?;
            let fresh = index_stats(&mut conn).ok_or("index_stats failed after start")?;
            self.absorb(conn, false);
            let primed = if self.crack {
                self.crack_in(&server)?
            } else {
                self.count_label_cost(&server, fresh)?;
                self.warm_up(&server)?
            };
            self.start_prime_s.push(t.elapsed().as_secs_f64());
            last = Some((server, fresh, primed));
        }
        Ok(last.expect("at least one set-up"))
    }

    fn serve_warm(&mut self) -> Result<(), String> {
        let p = self.cfg.profile;
        let (server, _, warm_stats) = self.set_up_served(false)?;
        let before = self.metrics_dump(&server)?;
        // Closed loop: 2 connections = 2 client threads, each looping over
        // the templates from its own offset.
        let seconds = Duration::from_secs_f64(self.cfg.seconds);
        let mut conns = [self.conn(&server)?, self.conn(&server)?];
        let barrier = Barrier::new(conns.len());
        let templates = &self.templates;
        let elapsed: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = conns
                .iter_mut()
                .enumerate()
                .map(|(c, conn)| {
                    let barrier = &barrier;
                    s.spawn(move || {
                        barrier.wait();
                        let start = Instant::now();
                        let mut i = c * templates.len() / 2;
                        while start.elapsed() < seconds {
                            let idx = i % templates.len();
                            conn.issue(idx, &templates[idx], || (p.records, p.records));
                            i += 1;
                        }
                        start.elapsed().as_secs_f64()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let ok_queries: usize = conns.iter().map(|c| c.samples.len()).sum();
        for conn in conns {
            self.absorb(conn, true);
        }
        let wall = elapsed.iter().cloned().fold(0.0, f64::max);
        self.result.set("query_ops_s", ok_queries as f64 / wall);
        let after = self.metrics_dump(&server)?;
        self.server_side(&before, &after);
        // The steady state must be free: no label billed, no rep added.
        let mut conn = self.conn(&server)?;
        if let Some(end) = index_stats(&mut conn) {
            if end.invocations != warm_stats.invocations || end.reps != warm_stats.reps {
                self.result.violation(format!(
                    "warm phase billed {} labels and added {} reps; both must be 0",
                    end.invocations - warm_stats.invocations,
                    end.reps - warm_stats.reps
                ));
            }
        }
        self.absorb(conn, false);
        if self.cfg.open_loop {
            let open = self.open_loop_phase(&server)?;
            self.result
                .set("client.open_p99_ms", percentile(&open.latency_ms, 0.99));
            self.result
                .set("client.open_lag_p99_ms", percentile(&open.lag_ms, 0.99));
        }
        self.snapshot_kill_restart(server, false, false, p.records as u64)
    }

    /// A third of the measured time at one fixed rate, 2 connections taking
    /// alternate requests of the schedule.
    fn open_loop_phase(&mut self, server: &Running) -> Result<OpenLoop, String> {
        let p = self.cfg.profile;
        let mut conns = [self.conn(server)?, self.conn(server)?];
        let start = Instant::now() + Duration::from_millis(20);
        let until = start + Duration::from_secs_f64(self.cfg.seconds / 3.0);
        let templates = &self.templates;
        let n_conns = conns.len();
        let parts: Vec<OpenLoop> = std::thread::scope(|s| {
            let handles: Vec<_> = conns
                .iter_mut()
                .enumerate()
                .map(|(c, conn)| {
                    s.spawn(move || {
                        let mine = (c..).step_by(n_conns);
                        open_loop(conn, templates, p.records, start, p.open_rate, mine, until)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("open-loop thread panicked"))
                .collect()
        });
        for conn in conns {
            self.absorb(conn, false);
        }
        let mut all = OpenLoop::default();
        for part in parts {
            all.latency_ms.extend(part.latency_ms);
            all.lag_ms.extend(part.lag_ms);
        }
        Ok(all)
    }

    fn serve_cold(&mut self) -> Result<(), String> {
        let p = self.cfg.profile;
        let (server, fresh, _) = self.set_up_served(false)?;
        let before = self.metrics_dump(&server)?;
        // One connection, every query distinct; the stream goes on from
        // where the crack-in stopped. The labels of the server's first
        // `counted_queries` are counted exactly, however long those take;
        // past them the stream runs until the measured time is up.
        let seconds = Duration::from_secs_f64(self.cfg.seconds);
        let counted = p.counted_queries - p.crack_in;
        let mut conn = self.conn(&server)?;
        let start = Instant::now();
        let mut i = 0;
        while i < counted || start.elapsed() < seconds {
            let (idx, query) = self.distinct_query(self.templates.len() + p.crack_in + i);
            conn.issue(idx, &query, || (p.records, p.records));
            i += 1;
            if i == counted {
                if let Some(now) = index_stats(&mut conn) {
                    self.set_label_cost(fresh, now);
                }
            }
        }
        let wall = start.elapsed().as_secs_f64();
        self.result
            .set("query_ops_s", conn.samples.len() as f64 / wall);
        self.absorb(conn, true);
        let after = self.metrics_dump(&server)?;
        self.server_side(&before, &after);
        self.snapshot_kill_restart(server, false, false, p.records as u64)
    }

    fn ingest_mixed(&mut self) -> Result<(), String> {
        let p = self.cfg.profile;
        let base = p.records;
        let (server, ..) = self.set_up_served(true)?;
        let before = self.metrics_dump(&server)?;

        let seconds = Duration::from_secs_f64(self.cfg.seconds);
        // A count, not a deadline: the frames above the snapshot's
        // watermark — what the restart replays — are then the same every run.
        let batches = p.ingest_batches(self.cfg.seconds);
        let snapshot_after = batches * 2 / 3;
        let acked = AtomicUsize::new(0);
        let writer_done = AtomicBool::new(false);
        let mut writer = self.conn(&server)?;
        let mut reader = self.conn(&server)?;
        let barrier = Barrier::new(2);
        let (templates, dataset) = (&self.templates, &self.dataset);
        let (ack_ms, writer_s, snapshot_ok, reader_s) = std::thread::scope(|s| {
            // Connection A: back-to-back ingest batches, each acknowledged
            // only once durable; two thirds in, a snapshot, so the restart
            // has a snapshot to load *and* frames above it to replay.
            let w = s.spawn(|| {
                barrier.wait();
                let mut ack_ms = Vec::new();
                let mut busy = Duration::ZERO;
                let mut snapshot_ok = false;
                for b in 0..batches {
                    let req = fixture::ingest_batch(dataset, base + b * p.batch_rows, p.batch_rows);
                    let t = Instant::now();
                    if writer.admin(req).is_some() {
                        ack_ms.push(t.elapsed().as_secs_f64() * 1e3);
                        acked.fetch_add(p.batch_rows, Ordering::SeqCst);
                    }
                    busy += t.elapsed();
                    if b + 1 == snapshot_after {
                        snapshot_ok = writer.admin(Request::new(Op::Snapshot)).is_some();
                    }
                }
                writer_done.store(true, Ordering::SeqCst);
                (ack_ms, busy.as_secs_f64(), snapshot_ok)
            });
            // Connection B: the warm templates, beside the writer for as
            // long as it writes and for at least the measured time.
            barrier.wait();
            let start = Instant::now();
            let mut i = 0;
            while start.elapsed() < seconds || !writer_done.load(Ordering::SeqCst) {
                let idx = i % templates.len();
                let lo = base + acked.load(Ordering::SeqCst);
                // The server may have answered over anything from the rows
                // acknowledged at send time to those acknowledged at reply
                // time plus the batch applied but not yet acknowledged.
                reader.issue(idx, &templates[idx], || {
                    let in_flight = if writer_done.load(Ordering::SeqCst) {
                        0
                    } else {
                        p.batch_rows
                    };
                    (lo, base + acked.load(Ordering::SeqCst) + in_flight)
                });
                i += 1;
            }
            let reader_s = start.elapsed().as_secs_f64();
            let (ack_ms, writer_s, snapshot_ok) = w.join().expect("writer thread panicked");
            (ack_ms, writer_s, snapshot_ok, reader_s)
        });
        let rows = acked.load(Ordering::SeqCst);
        self.result
            .set("query_ops_s", reader.samples.len() as f64 / reader_s);
        self.absorb(reader, true);
        self.absorb(writer, false);
        if rows != batches * p.batch_rows {
            self.result.violation(format!(
                "{rows} rows acknowledged of {} sent",
                batches * p.batch_rows
            ));
        }
        // Rows over the time spent waiting for acks (the snapshot excluded).
        self.result
            .set("ingest.rows_s", rows as f64 / writer_s.max(1e-9));
        self.result.set("ingest.ack_p50_ms", median(&ack_ms));
        let after = self.metrics_dump(&server)?;
        self.server_side(&before, &after);
        self.snapshot_kill_restart(server, true, snapshot_ok, (base + rows) as u64)
    }

    /// Measured-phase latencies of `op`, in ms.
    fn latencies_of(&self, op: Op) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|(o, _)| *o == op)
            .map(|(_, ms)| *ms)
            .collect()
    }

    fn finish(mut self) -> RunResult {
        let all: Vec<f64> = self.samples.iter().map(|(_, ms)| *ms).collect();
        let per_op: Vec<(&str, f64)> = Op::ALL
            .into_iter()
            .filter_map(|op| Some((op_label(op)?, median(&self.latencies_of(op)))))
            .collect();
        let r = &mut self.result;
        r.set(
            "setup_s",
            median(&self.build_s) + median(&self.start_prime_s),
        );
        r.set("build_s", median(&self.build_s));
        r.set("restart_s", median(&self.restart_s));
        r.set("peak_rss_mb", self.peak_rss_mb);
        r.set("query_p50_ms", median(&all));
        r.set("client.p99_ms", percentile(&all, 0.99));
        r.set("client.samples", all.len() as f64);
        for (label, p50) in per_op {
            r.set(&format!("client.{label}_p50_ms"), p50);
        }
        match self.checker.guarantees_hold() {
            Ok(tally) => r.notes.extend(tally),
            Err(why) => r.violation(why),
        }
        r.attempted = self.checker.attempted;
        r.failed = self.checker.failed;
        if self.checker.failed > 0 {
            r.correct = false;
        }
        r.notes.extend(self.checker.failures.iter().cloned());
        self.result
    }
}
