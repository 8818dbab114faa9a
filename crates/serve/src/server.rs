//! The TCP front end: a thin lifecycle ([`Server::start`] /
//! [`Server::local_addr`] / [`Server::shutdown`] / [`Server::join_report`])
//! over the readiness-driven reactor in [`crate::evented`].
//!
//! One reactor thread drives every socket through a readiness poller
//! (epoll) while a small fixed compute pool handles requests — an idle
//! keep-alive connection costs a file descriptor, not a thread. See
//! [`crate::evented`] (and DESIGN.md §7) for the state machine.
//!
//! The reactor is Linux-only (raw epoll + eventfd). On other platforms
//! [`Server::start`] returns [`io::ErrorKind::Unsupported`];
//! [`TastiService`] itself is portable and can be driven in-process.
//!
//! Shutdown (admin `shutdown` request or [`Server::shutdown`]) drains: stop
//! accepting, let in-flight work finish, farewell idle connections with a
//! `shutting_down` error. [`Server::join_report`] runs one final crack
//! fold-in and, when configured, persists a shutdown snapshot — surfacing
//! (not swallowing) a snapshot failure.

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;

use tasti_labeler::FallibleTargetLabeler;

use crate::evented::{self, EventedCore};
use crate::service::TastiService;

/// The outcome of [`Server::join_report`].
#[derive(Debug)]
pub struct JoinReport {
    /// Reps the final crack fold-in added.
    pub reps_added: usize,
    /// Why the shutdown snapshot failed, when one was configured and did
    /// (also logged to stderr and counted in the `snapshot_failures`
    /// metric). `None` when it succeeded or none was configured.
    pub snapshot_error: Option<String>,
}

/// A running server. Dropping it does *not* stop the threads — call
/// [`Server::shutdown_and_join`] (or send the `shutdown` request).
pub struct Server<L: FallibleTargetLabeler + 'static> {
    service: Arc<TastiService<L>>,
    addr: SocketAddr,
    core: EventedCore,
}

impl<L: FallibleTargetLabeler + 'static> Server<L> {
    /// Binds the configured address and spawns the reactor and its compute
    /// pool. The service's config supplies the bind address, compute pool
    /// size, queue depth, and connection cap.
    ///
    /// Linux only: elsewhere this returns [`io::ErrorKind::Unsupported`]
    /// (there is no second backend).
    pub fn start(service: Arc<TastiService<L>>) -> io::Result<Server<L>> {
        let listener = TcpListener::bind(&service.config().addr)?;
        let addr = listener.local_addr()?;
        let core = evented::start(Arc::clone(&service), listener)?;
        Ok(Server {
            service,
            addr,
            core,
        })
    }

    /// The bound address (read the ephemeral port from here).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared service.
    pub fn service(&self) -> &Arc<TastiService<L>> {
        &self.service
    }

    /// Initiates a graceful drain: stop accepting, let in-flight
    /// connections finish, answer queued ones with `shutting_down`.
    /// Idempotent; returns immediately. Follow with [`Server::join`].
    pub fn shutdown(&self) {
        self.core.shutdown();
    }

    /// Waits for every thread to exit, then runs the final crack fold-in
    /// and (when configured) the shutdown snapshot. Returns the number of
    /// reps the final fold-in added; a snapshot failure is logged and
    /// counted but not returned — use [`Server::join_report`] to act on it.
    pub fn join(self) -> usize {
        self.join_report().reps_added
    }

    /// [`Server::join`], but reporting the shutdown snapshot's outcome so
    /// callers (the CLI exit path) can surface a persistence failure
    /// instead of silently losing the cracked index.
    pub fn join_report(mut self) -> JoinReport {
        self.core.join_threads();
        // Background drift-escalation workers finish first so the final
        // crack and the shutdown snapshot see the refreshed assignment.
        self.service.join_background_refreshes();
        let reps_added = self.service.crack_pending();
        let config = self.service.config();
        let mut snapshot_error = None;
        if config.snapshot_on_shutdown {
            if let Some(path) = config.snapshot_path.clone() {
                // `snapshot_to` already bumps the `snapshot_failures`
                // metric; this path makes the failure *loud*.
                if let Err((_, message)) = self.service.snapshot_to(&path) {
                    eprintln!(
                        "tasti-serve: shutdown snapshot to {} failed: {message}",
                        path.display()
                    );
                    snapshot_error = Some(message);
                }
            }
        }
        JoinReport {
            reps_added,
            snapshot_error,
        }
    }

    /// [`Server::shutdown`] followed by [`Server::join`].
    pub fn shutdown_and_join(self) -> usize {
        self.shutdown();
        self.join()
    }
}
