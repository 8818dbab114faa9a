//! The serving core: a readiness-driven reactor front end.
//!
//! One reactor thread owns the listener, every client socket (all
//! nonblocking), and the poller. Each connection is a
//! small state machine — read-accumulate (into a [`LineBuffer`], so a
//! request line arriving in arbitrary chunks is never mangled) → parse →
//! dispatch → write-drain with backpressure. Compute (request parsing,
//! `TastiService::handle`, oracle work) runs on a small fixed pool of
//! worker threads fed by a [`Bounded`] job channel, so a slow oracle can
//! never block the reactor; a request arriving with the channel full gets
//! an immediate typed `overloaded` error on its own connection (the
//! connection stays open). Completions flow back through a mutex-guarded
//! vector plus an eventfd wakeup.
//!
//! The idle cost model is the point: an idle keep-alive connection is one
//! registered file descriptor and a few hundred bytes of buffer — not a
//! parked worker thread — so the server sustains far more concurrent
//! connections than it has compute threads.
//!
//! The labeler path gets a drain-aware wait here too: [`DrainSignal`]
//! implements [`tasti_labeler::RetryTimer`] by parking retry backoff on a
//! condvar with the delay as its timeout instead of `thread::sleep`, so a
//! drain releases every pending backoff immediately instead of waiting it
//! out. Virtual clocks (tests) keep sleeping virtually and stay instant.
//!
//! Ordering contract: one request at a time per connection, responses in
//! request order.

use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use tasti_labeler::{Clock, FallibleTargetLabeler, RetryTimer};

use crate::linebuf::{LineBuffer, LineError};
use crate::metrics::ServeMetrics;
use crate::poll::{Event, Poller, Waker};
use crate::proto::{err_response, ErrorKind, Op, Request};
use crate::service::TastiService;

/// Token of the listening socket.
const TOKEN_LISTENER: u64 = 0;
/// Token of the poller's internal wakeup eventfd.
const TOKEN_WAKER: u64 = 1;
/// First connection token. Tokens only ever increase, so a completion for
/// a closed connection can never be misdelivered to a new one.
const TOKEN_FIRST_CONN: u64 = 2;

/// Grace the drain gives stalled peers to take their final bytes before
/// their connections are force-closed (counted in `rejection_write_drops`,
/// like a dropped admission rejection).
const DRAIN_GRACE: Duration = Duration::from_millis(150);

/// A request line dispatched to the compute pool.
struct Job {
    token: u64,
    line: String,
}

/// A finished response travelling back to the reactor.
struct Completion {
    token: u64,
    line: String,
    /// The request was `shutdown`: write the response, then drain.
    shutdown: bool,
}

/// Why [`Bounded::try_push`] refused an item.
enum PushError {
    /// The channel is at capacity (backpressure).
    Full,
    /// The channel was closed (drain in progress).
    Closed,
}

/// A bounded MPMC job channel: `Mutex<VecDeque>` + `Condvar`.
/// (`std::sync::mpsc` is single-consumer, and the compute pool has many.)
/// The producer side never blocks — the reactor only `try_push`es.
struct Bounded<T> {
    inner: Mutex<BoundedInner<T>>,
    ready: Condvar,
    cap: usize,
}

struct BoundedInner<T> {
    queue: VecDeque<T>,
    closed: bool,
}

impl<T> Bounded<T> {
    fn new(cap: usize) -> Self {
        Bounded {
            inner: Mutex::new(BoundedInner {
                queue: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            cap,
        }
    }

    /// Enqueues without blocking; refuses when full or closed.
    fn try_push(&self, item: T) -> Result<(), PushError> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.closed {
            return Err(PushError::Closed);
        }
        if inner.queue.len() >= self.cap {
            return Err(PushError::Full);
        }
        inner.queue.push_back(item);
        drop(inner);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next item; `None` once closed *and* empty (queued
    /// jobs are still drained after close, so accepted work finishes).
    fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(item) = inner.queue.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Stops accepting new items and releases blocked consumers once the
    /// queue empties. Idempotent.
    fn close(&self) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.closed = true;
        drop(inner);
        self.ready.notify_all();
    }
}

/// State shared between the reactor and the compute pool.
struct ReactorShared {
    /// [`EventedCore::shutdown`] asked for a drain; the reactor reads it
    /// once per wakeup until it has begun one.
    shutting_down: AtomicBool,
    waker: Waker,
    completions: Mutex<Vec<Completion>>,
    jobs: Bounded<Job>,
}

/// The drain-aware face of `ResilientLabeler` backoff: instead of
/// `thread::sleep` parking a compute worker blindly, the worker parks on
/// this condvar with the delay as its timeout, and the drain sets the flag
/// — returning early is allowed then, holding the shutdown hostage for a
/// multi-second backoff is not. Virtual clocks keep their virtual sleep,
/// so tests running on `TestClock` stay instant.
#[derive(Default)]
struct DrainSignal {
    draining: Mutex<bool>,
    cv: Condvar,
}

impl DrainSignal {
    /// Releases every parked waiter, and every later one at once.
    fn set(&self) {
        *self.draining.lock().unwrap_or_else(|e| e.into_inner()) = true;
        self.cv.notify_all();
    }
}

impl RetryTimer for DrainSignal {
    fn wait(&self, clock: &dyn Clock, micros: u64) {
        if clock.is_virtual() {
            clock.sleep_micros(micros);
            return;
        }
        let draining = self.draining.lock().unwrap_or_else(|e| e.into_inner());
        let (_guard, _timed_out) = self
            .cv
            .wait_timeout_while(draining, Duration::from_micros(micros), |d| !*d)
            .unwrap_or_else(|e| e.into_inner());
    }
}

/// Handles to the running reactor and compute pool, held by [`crate::Server`].
pub(crate) struct EventedCore {
    shared: Arc<ReactorShared>,
    reactor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl EventedCore {
    /// Flags the drain and interrupts the reactor's wait. Idempotent.
    pub fn shutdown(&self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        self.shared.waker.wake();
    }

    /// Joins the reactor (which exits once the drain completes) and the
    /// compute pool.
    pub fn join_threads(&mut self) {
        if let Some(reactor) = self.reactor.take() {
            let _ = reactor.join();
        }
        // The reactor's drain closes the channel; repeat defensively in
        // case it died early, so workers cannot hang in `pop`.
        self.shared.jobs.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Binds the core onto an already-bound listener: spawns the compute pool
/// and the reactor thread, and installs the drain-aware retry timer into
/// the service (every labeler it has registered or registers later).
pub(crate) fn start<L: FallibleTargetLabeler + 'static>(
    service: Arc<TastiService<L>>,
    listener: TcpListener,
) -> io::Result<EventedCore> {
    listener.set_nonblocking(true)?;
    let poller = Poller::new(TOKEN_WAKER)?;
    poller.register(listener.as_raw_fd(), TOKEN_LISTENER, true, false)?;
    let config = service.config().clone();
    let shared = Arc::new(ReactorShared {
        shutting_down: AtomicBool::new(false),
        waker: poller.waker(),
        completions: Mutex::new(Vec::new()),
        jobs: Bounded::new(config.queue_depth.max(1)),
    });

    let drain = Arc::new(DrainSignal::default());
    service.install_retry_timer(Arc::clone(&drain) as Arc<dyn RetryTimer>);

    let mut workers = Vec::with_capacity(config.workers.max(1));
    for i in 0..config.workers.max(1) {
        let shared = Arc::clone(&shared);
        let service = Arc::clone(&service);
        workers.push(
            std::thread::Builder::new()
                .name(format!("tasti-serve-compute-{i}"))
                .spawn(move || compute_loop(&shared, &service))?,
        );
    }

    let reactor = {
        let shared = Arc::clone(&shared);
        std::thread::Builder::new()
            .name("tasti-serve-reactor".to_string())
            .spawn(move || {
                Reactor {
                    service,
                    shared,
                    poller,
                    listener,
                    conns: HashMap::new(),
                    next_token: TOKEN_FIRST_CONN,
                    max_connections: config.max_connections.max(1),
                    drain,
                    draining: false,
                    drain_deadline: None,
                }
                .run()
            })?
    };

    Ok(EventedCore {
        shared,
        reactor: Some(reactor),
        workers,
    })
}

/// One compute worker: pop a request line, parse, handle, push the
/// completion back, wake the reactor. Exits when the channel closes.
fn compute_loop<L: FallibleTargetLabeler + 'static>(
    shared: &ReactorShared,
    service: &TastiService<L>,
) {
    while let Some(job) = shared.jobs.pop() {
        let (line, shutdown) = match Request::parse_line(job.line.trim()) {
            Ok(req) => {
                let response = service.handle(&req);
                (response, req.op == Op::Shutdown)
            }
            Err(e) => {
                service.metrics().requests_total.incr();
                service.metrics().bad_requests.incr();
                (err_response(e.id, ErrorKind::BadRequest, &e.message), false)
            }
        };
        shared
            .completions
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Completion {
                token: job.token,
                line,
                shutdown,
            });
        shared.waker.wake();
    }
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    /// Read-accumulate: raw bytes in, complete lines out. A read that ends
    /// mid-line loses nothing.
    rbuf: LineBuffer,
    /// Write-drain: bytes queued for the peer, `wpos` already written.
    wbuf: Vec<u8>,
    wpos: usize,
    /// A request from this connection is in the compute pool; further
    /// buffered lines wait (one request at a time, responses in order).
    inflight: bool,
    /// Peer half-closed its write side; serve what is buffered, then close.
    peer_eof: bool,
    /// Close as soon as `wbuf` drains; stop dispatching new requests.
    close_after_flush: bool,
    /// Write interest currently registered with the poller.
    want_write: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            rbuf: LineBuffer::new(),
            wbuf: Vec::new(),
            wpos: 0,
            inflight: false,
            peer_eof: false,
            close_after_flush: false,
            want_write: false,
        }
    }

    /// Queues one response line (newline appended) for the write-drain.
    fn queue_line(&mut self, line: &str) {
        self.wbuf.extend_from_slice(line.as_bytes());
        self.wbuf.push(b'\n');
    }

    fn unsent(&self) -> bool {
        self.wpos < self.wbuf.len()
    }
}

struct Reactor<L: FallibleTargetLabeler + 'static> {
    service: Arc<TastiService<L>>,
    shared: Arc<ReactorShared>,
    poller: Poller,
    listener: TcpListener,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    max_connections: usize,
    /// Set by [`Reactor::begin_drain`]; parked retry backoffs wait on it.
    drain: Arc<DrainSignal>,
    draining: bool,
    /// When the current drain grace round ends; sizes the poller timeout.
    drain_deadline: Option<Instant>,
}

impl<L: FallibleTargetLabeler + 'static> Reactor<L> {
    fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            if self.shared.shutting_down.load(Ordering::SeqCst) && !self.draining {
                self.begin_drain();
            }
            if self.draining {
                if self.conns.is_empty() {
                    break;
                }
                if self.drain_deadline.is_some_and(|d| Instant::now() >= d) {
                    self.force_close_round();
                    if self.conns.is_empty() {
                        break;
                    }
                }
            }
            let timeout = self
                .drain_deadline
                .map(|d| d.saturating_duration_since(Instant::now()));
            events.clear();
            if let Err(e) = self.poller.wait(&mut events, timeout) {
                eprintln!("tasti-serve: reactor poll failed, shutting down: {e}");
                self.begin_drain();
                break;
            }
            let woke_at = Instant::now();
            self.service.metrics().reactor_wakeups.incr();
            self.handle_completions();
            for ev in &events {
                match ev.token {
                    TOKEN_LISTENER => self.accept_ready(),
                    token if ev.closed => self.close_conn(token, false),
                    token => {
                        if ev.readable {
                            self.read_conn(token);
                        }
                        if ev.writable {
                            self.flush_conn(token);
                        }
                    }
                }
            }
            self.service
                .metrics()
                .record_reactor_loop(woke_at.elapsed().as_micros() as u64, events.len() as u64);
        }
    }

    /// Accepts until the listener would block. Admission control: over the
    /// connection cap (or during a drain) the peer gets a bounded-write
    /// courtesy rejection and an immediate close.
    fn accept_ready(&mut self) {
        loop {
            let stream = match self.listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            };
            let metrics = self.service.metrics();
            if self.draining {
                metrics.connections_rejected_shutdown.incr();
                write_rejection(
                    metrics,
                    &stream,
                    &err_response(None, ErrorKind::ShuttingDown, "server is draining"),
                );
                continue;
            }
            if self.conns.len() >= self.max_connections {
                metrics.connections_rejected_overloaded.incr();
                let cap = self.max_connections;
                write_rejection(
                    metrics,
                    &stream,
                    &err_response(
                        None,
                        ErrorKind::Overloaded,
                        &format!("connection limit reached ({cap}); retry later"),
                    ),
                );
                continue;
            }
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let token = self.next_token;
            self.next_token += 1;
            if self
                .poller
                .register(stream.as_raw_fd(), token, true, false)
                .is_err()
            {
                continue;
            }
            metrics.connections_accepted.incr();
            self.conns.insert(token, Conn::new(stream));
        }
    }

    /// Drains readiness: read until the socket would block, then pump.
    fn read_conn(&mut self, token: u64) {
        let mut failed = false;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            let mut chunk = [0u8; 8192];
            loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => {
                        conn.peer_eof = true;
                        break;
                    }
                    Ok(n) => {
                        // A closing connection's trailing bytes are noise.
                        if !conn.close_after_flush {
                            conn.rbuf.extend(&chunk[..n]);
                        }
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        failed = true;
                        break;
                    }
                }
            }
        }
        if failed {
            self.close_conn(token, false);
        } else {
            self.pump_conn(token);
        }
    }

    /// The parse→dispatch stage: pops complete lines while the connection
    /// is free, hands them to the compute pool, applies the EOF rules
    /// (a final unterminated line is served, not discarded), then flushes.
    fn pump_conn(&mut self, token: u64) {
        let shared = Arc::clone(&self.shared);
        let service = Arc::clone(&self.service);
        let mut fatal = false;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            while !conn.inflight && !conn.close_after_flush {
                match conn.rbuf.next_line() {
                    Some(Ok(line)) => {
                        if line.trim().is_empty() {
                            continue;
                        }
                        dispatch(&shared, service.metrics(), conn, token, line);
                    }
                    Some(Err(LineError::Utf8)) => {
                        // Parity with the old `read_line` contract: a
                        // non-UTF-8 line is connection-fatal.
                        fatal = true;
                        break;
                    }
                    None => {
                        if conn.peer_eof {
                            match conn.rbuf.take_trailing() {
                                Some(Ok(line)) if !line.trim().is_empty() => {
                                    dispatch(&shared, service.metrics(), conn, token, line);
                                }
                                Some(Err(LineError::Utf8)) => fatal = true,
                                _ => {}
                            }
                            if !conn.inflight && !fatal {
                                conn.close_after_flush = true;
                            }
                        }
                        break;
                    }
                }
            }
        }
        if fatal {
            self.close_conn(token, false);
        } else {
            self.flush_conn(token);
        }
    }

    /// Write-drains `wbuf`, updates poller write interest, and closes once
    /// a finished connection has flushed.
    fn flush_conn(&mut self, token: u64) {
        let mut close = false;
        {
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            while conn.unsent() {
                match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                    Ok(0) => {
                        close = true;
                        break;
                    }
                    Ok(n) => conn.wpos += n,
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(_) => {
                        close = true;
                        break;
                    }
                }
            }
            if !close {
                if !conn.unsent() {
                    conn.wbuf.clear();
                    conn.wpos = 0;
                    if conn.close_after_flush {
                        close = true;
                    }
                }
                if !close && conn.want_write != conn.unsent() {
                    conn.want_write = conn.unsent();
                    let _ = self.poller.reregister(
                        conn.stream.as_raw_fd(),
                        token,
                        true,
                        conn.want_write,
                    );
                }
            }
        }
        if close {
            self.close_conn(token, false);
        }
    }

    /// Delivers finished responses: write, then either dispatch the next
    /// buffered request or finish the connection.
    fn handle_completions(&mut self) {
        let completions = std::mem::take(
            &mut *self
                .shared
                .completions
                .lock()
                .unwrap_or_else(|e| e.into_inner()),
        );
        for c in completions {
            if let Some(conn) = self.conns.get_mut(&c.token) {
                conn.inflight = false;
                conn.queue_line(&c.line);
                if c.shutdown || self.draining {
                    conn.close_after_flush = true;
                }
            }
            if c.shutdown {
                // The `shutdown` requester already holds its response; the
                // drain farewells everyone else.
                self.begin_drain();
            }
            self.pump_conn(c.token);
        }
    }

    /// Starts the drain: close the job channel (queued work still
    /// finishes), release every parked backoff immediately, farewell idle
    /// connections, and give stalled writers a bounded grace.
    fn begin_drain(&mut self) {
        if self.draining {
            return;
        }
        self.draining = true;
        self.shared.jobs.close();
        self.drain.set();
        let farewell = err_response(None, ErrorKind::ShuttingDown, "server is draining");
        let mut flush: Vec<u64> = Vec::new();
        for (&token, conn) in self.conns.iter_mut() {
            if !conn.close_after_flush {
                if !conn.inflight {
                    self.service.metrics().connections_rejected_shutdown.incr();
                    conn.queue_line(&farewell);
                    conn.close_after_flush = true;
                }
                // In-flight connections get their response, then close
                // (handle_completions marks them during a drain).
            }
            flush.push(token);
        }
        for token in flush {
            self.flush_conn(token);
        }
        self.drain_deadline = Some(Instant::now() + DRAIN_GRACE);
    }

    /// The drain grace expired: force-close every connection not waiting
    /// on compute, counting unsent farewell bytes as write drops. If
    /// in-flight connections remain, they get one more grace round.
    fn force_close_round(&mut self) {
        let stalled: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| !c.inflight)
            .map(|(&t, _)| t)
            .collect();
        for token in stalled {
            self.close_conn(token, true);
        }
        self.drain_deadline = Some(Instant::now() + DRAIN_GRACE);
    }

    /// Removes the connection; `forced` counts undeliverable bytes in
    /// `rejection_write_drops`.
    fn close_conn(&mut self, token: u64, forced: bool) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.deregister(conn.stream.as_raw_fd());
            if forced && conn.unsent() {
                self.service.metrics().rejection_write_drops.incr();
            }
        }
    }
}

/// How long an admission-rejection write may block before the courtesy
/// error line is dropped. The connection closes either way; without this
/// bound a peer that never reads would park the reactor's accept path.
const REJECT_WRITE_TIMEOUT: Duration = Duration::from_millis(100);

/// Writes a rejection line to a not-yet-registered (still blocking) socket
/// with [`REJECT_WRITE_TIMEOUT`] applied, counting a drop (instead of
/// blocking or erroring) when the peer won't take it.
fn write_rejection(metrics: &ServeMetrics, mut conn: &TcpStream, line: &str) {
    let _ = conn.set_write_timeout(Some(REJECT_WRITE_TIMEOUT));
    if writeln!(conn, "{line}").is_err() {
        metrics.rejection_write_drops.incr();
    }
}

/// Hands one request line to the compute pool, or answers with typed
/// backpressure when the pool's channel is full.
fn dispatch(
    shared: &ReactorShared,
    metrics: &ServeMetrics,
    conn: &mut Conn,
    token: u64,
    line: String,
) {
    match shared.jobs.try_push(Job { token, line }) {
        Ok(()) => conn.inflight = true,
        Err(PushError::Full) => {
            metrics.requests_rejected_overloaded.incr();
            conn.queue_line(&err_response(
                None,
                ErrorKind::Overloaded,
                "compute queue full; retry later",
            ));
        }
        Err(PushError::Closed) => {
            conn.queue_line(&err_response(
                None,
                ErrorKind::ShuttingDown,
                "server is draining",
            ));
            conn.close_after_flush = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounded_channel_backpressure_and_close() {
        let q: Bounded<u32> = Bounded::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert!(matches!(q.try_push(3), Err(PushError::Full)));
        assert_eq!(q.pop(), Some(1));
        assert!(q.try_push(3).is_ok());
        q.close();
        assert!(matches!(q.try_push(4), Err(PushError::Closed)));
        // Queued jobs still drain after close; then consumers are released.
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), Some(3));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn bounded_channel_releases_blocked_consumer_on_close() {
        let q: Arc<Bounded<u32>> = Arc::new(Bounded::new(1));
        let consumer = {
            let q = Arc::clone(&q);
            std::thread::spawn(move || q.pop())
        };
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(consumer.join().unwrap(), None);
    }
}
