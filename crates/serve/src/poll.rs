//! A minimal readiness poller: epoll on Linux, behind a small `std`-only
//! abstraction.
//!
//! This is the only module in the crate that needs `unsafe`: `std` exposes
//! no readiness API, and the no-new-dependencies rule rules out `libc`/
//! `mio`, so the four syscalls the reactor needs (`epoll_create1`,
//! `epoll_ctl`, `epoll_wait`, `eventfd`) are declared here directly against
//! the C library `std` already links. Everything above this module is safe
//! code: the [`Poller`]/[`Waker`] wrappers own their file descriptors and
//! close them on drop.
//!
//! On non-Linux targets this module (and the reactor that uses it) is not
//! compiled and `Server::start` returns `Unsupported`: there is no second
//! backend.

/// One readiness event delivered by [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    /// The token the file descriptor was registered with.
    pub token: u64,
    /// Readable (or a pending accept, or peer half-close — reads will
    /// return promptly).
    pub readable: bool,
    /// Writable without blocking.
    pub writable: bool,
    /// Error or hangup: the connection is dead, reads/writes will fail.
    pub closed: bool,
}

pub(crate) use linux::{Poller, Waker};

// Justification for the unsafe allowance: raw `epoll`/`eventfd` FFI — the
// crate forbids unsafe code everywhere else; see the module docs.
#[allow(unsafe_code)]
mod linux {
    use super::Event;
    use std::io;
    use std::os::raw::{c_int, c_uint, c_void};
    use std::os::unix::io::RawFd;
    use std::sync::Arc;
    use std::time::Duration;

    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EFD_CLOEXEC: c_int = 0o2000000;
    const EFD_NONBLOCK: c_int = 0o4000;
    const EINTR: c_int = 4;

    /// The kernel's `struct epoll_event`; packed on x86-64 (the kernel ABI
    /// packs it there so 32-bit and 64-bit layouts match).
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn eventfd(initval: c_uint, flags: c_int) -> c_int;
        fn close(fd: c_int) -> c_int;
        fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
    }

    fn cvt(ret: c_int) -> io::Result<c_int> {
        if ret < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(ret)
        }
    }

    /// An owned file descriptor that closes on drop.
    #[derive(Debug)]
    struct OwnedFd(RawFd);

    impl Drop for OwnedFd {
        fn drop(&mut self) {
            // Errors on close are unreportable here; the fd is gone either
            // way.
            unsafe { close(self.0) };
        }
    }

    /// Wakes a [`Poller`] blocked in [`Poller::wait`] from another thread.
    /// Cloneable and cheap; coalesces (many wakes, one wakeup event).
    #[derive(Debug, Clone)]
    pub struct Waker {
        fd: Arc<OwnedFd>,
    }

    impl Waker {
        /// Interrupts the poller's current (or next) wait.
        pub fn wake(&self) {
            let one: u64 = 1;
            // A full eventfd counter (EAGAIN) already guarantees a pending
            // wakeup, so the result is ignorable.
            unsafe { write(self.fd.0, (&one as *const u64).cast(), 8) };
        }
    }

    /// The epoll instance plus its wakeup eventfd.
    #[derive(Debug)]
    pub struct Poller {
        epfd: OwnedFd,
        wake: Arc<OwnedFd>,
        /// Token delivered for wakeup events.
        wake_token: u64,
    }

    impl Poller {
        /// Creates the epoll instance and registers an internal wakeup
        /// eventfd under `wake_token`.
        pub fn new(wake_token: u64) -> io::Result<Poller> {
            let epfd = OwnedFd(cvt(unsafe { epoll_create1(EPOLL_CLOEXEC) })?);
            let wake = OwnedFd(cvt(unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) })?);
            let poller = Poller {
                epfd,
                wake: Arc::new(wake),
                wake_token,
            };
            poller.ctl(EPOLL_CTL_ADD, poller.wake.0, EPOLLIN, wake_token)?;
            Ok(poller)
        }

        /// A handle other threads use to interrupt [`Poller::wait`].
        pub fn waker(&self) -> Waker {
            Waker {
                fd: Arc::clone(&self.wake),
            }
        }

        fn ctl(&self, op: c_int, fd: RawFd, events: u32, token: u64) -> io::Result<()> {
            let mut ev = EpollEvent {
                events,
                data: token,
            };
            cvt(unsafe { epoll_ctl(self.epfd.0, op, fd, &mut ev) })?;
            Ok(())
        }

        fn interest(readable: bool, writable: bool) -> u32 {
            let mut events = EPOLLRDHUP; // always observe peer half-close
            if readable {
                events |= EPOLLIN;
            }
            if writable {
                events |= EPOLLOUT;
            }
            events
        }

        /// Registers `fd` under `token` with the given interests
        /// (level-triggered).
        pub fn register(
            &self,
            fd: RawFd,
            token: u64,
            readable: bool,
            writable: bool,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, Self::interest(readable, writable), token)
        }

        /// Updates the interests of an already registered `fd`.
        pub fn reregister(
            &self,
            fd: RawFd,
            token: u64,
            readable: bool,
            writable: bool,
        ) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, Self::interest(readable, writable), token)
        }

        /// Removes `fd` from the poller (also implicit when the fd closes).
        pub fn deregister(&self, fd: RawFd) -> io::Result<()> {
            self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
        }

        /// Blocks until readiness, wakeup, or `timeout` (`None` = forever),
        /// appending events to `out`. Wakeup events are drained internally
        /// and not surfaced.
        pub fn wait(&self, out: &mut Vec<Event>, timeout: Option<Duration>) -> io::Result<()> {
            let timeout_ms: c_int = match timeout {
                // Round up so a sub-millisecond deadline polls once, not
                // hot-spins at timeout 0.
                Some(t) => t.as_millis().saturating_add(1).min(c_int::MAX as u128) as c_int,
                None => -1,
            };
            const CAP: usize = 64;
            let mut events = [EpollEvent { events: 0, data: 0 }; CAP];
            let n = loop {
                let ret = unsafe {
                    epoll_wait(self.epfd.0, events.as_mut_ptr(), CAP as c_int, timeout_ms)
                };
                if ret >= 0 {
                    break ret as usize;
                }
                let err = io::Error::last_os_error();
                if err.raw_os_error() != Some(EINTR) {
                    return Err(err);
                }
            };
            for ev in &events[..n] {
                let bits = ev.events;
                let token = ev.data;
                if token == self.wake_token {
                    let mut count: u64 = 0;
                    unsafe { read(self.wake.0, (&mut count as *mut u64).cast(), 8) };
                    continue;
                }
                out.push(Event {
                    token,
                    readable: bits & (EPOLLIN | EPOLLRDHUP) != 0,
                    writable: bits & EPOLLOUT != 0,
                    closed: bits & (EPOLLERR | EPOLLHUP) != 0,
                });
            }
            Ok(())
        }
    }
}
