//! A small readiness-polling abstraction over epoll.
//!
//! [`Poller`] wraps an epoll instance — register an fd with an
//! [`Interest`], wait, get back [`PollEvent`]s keyed by caller-chosen
//! tokens. Both level- and edge-triggered registration are supported
//! (`Interest::edge`); the server core runs level-triggered for
//! connections and edge-triggered for its waker.

use std::io;
use std::time::Duration;

use super::sys as ll;

/// Which readiness transitions a registration watches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd becomes readable.
    pub readable: bool,
    /// Wake when the fd becomes writable.
    pub writable: bool,
    /// Wake when the peer shuts down its write side (half-close);
    /// maps to `EPOLLRDHUP`.
    pub rdhup: bool,
    /// Edge-triggered: report each readiness transition once instead
    /// of while the condition holds.
    pub edge: bool,
}

impl Interest {
    /// Readable, with half-close detection (the common accept-side
    /// registration).
    pub fn readable() -> Self {
        Interest {
            readable: true,
            rdhup: true,
            ..Interest::default()
        }
    }

    /// Writable only (flushing a blocked response).
    pub fn writable() -> Self {
        Interest {
            writable: true,
            ..Interest::default()
        }
    }
}

/// One readiness event from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub struct PollEvent {
    /// The token supplied at registration.
    pub token: u64,
    /// The fd is readable (or has pending error/EOF to read out).
    pub readable: bool,
    /// The fd is writable.
    pub writable: bool,
    /// The peer hung up (error, full close, or `rdhup` half-close).
    pub hangup: bool,
}

/// Internal event buffer size per `wait` call.
const WAIT_BATCH: usize = 256;

/// OS readiness queue: register fds with an [`Interest`], then [`wait`]
/// for [`PollEvent`]s.
///
/// [`wait`]: Poller::wait
#[derive(Debug)]
pub struct Poller {
    epfd: i32,
}

impl Poller {
    /// Creates a poller.
    ///
    /// # Errors
    ///
    /// The `epoll_create1` failure.
    pub fn new() -> io::Result<Poller> {
        Ok(Poller {
            epfd: ll::epoll_create()?,
        })
    }

    fn ctl(&self, op: i32, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
        let mut events = 0u32;
        if interest.readable {
            events |= ll::EPOLLIN;
        }
        if interest.writable {
            events |= ll::EPOLLOUT;
        }
        if interest.rdhup {
            events |= ll::EPOLLRDHUP;
        }
        if interest.edge {
            events |= ll::EPOLLET;
        }
        ll::epoll_control(self.epfd, op, fd, events, token)
    }

    /// Registers `fd` under `token`.
    ///
    /// # Errors
    ///
    /// The underlying `epoll_ctl` failure (e.g. already registered).
    pub fn register(&self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(ll::EPOLL_CTL_ADD, fd, token, interest)
    }

    /// Replaces the interest set of an already-registered `fd`.
    ///
    /// # Errors
    ///
    /// The underlying `epoll_ctl` failure.
    pub fn reregister(&self, fd: i32, token: u64, interest: Interest) -> io::Result<()> {
        self.ctl(ll::EPOLL_CTL_MOD, fd, token, interest)
    }

    /// Removes `fd` from the poller.
    ///
    /// # Errors
    ///
    /// The underlying `epoll_ctl` failure (e.g. not registered).
    pub fn deregister(&self, fd: i32) -> io::Result<()> {
        ll::epoll_control(self.epfd, ll::EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Appends ready events to `out` (does not clear it), waiting at
    /// most `timeout` (`None` = forever). Interrupted waits return
    /// normally with no events.
    ///
    /// # Errors
    ///
    /// The underlying `epoll_wait` failure.
    pub fn wait(&self, out: &mut Vec<PollEvent>, timeout: Option<Duration>) -> io::Result<()> {
        let timeout_ms = match timeout {
            None => -1,
            // Round up so a 0.4 ms deadline does not spin at 0 ms.
            Some(d) => (d.as_nanos().div_ceil(1_000_000)).min(i32::MAX as u128) as i32,
        };
        let mut buf = [ll::EpollEvent { events: 0, data: 0 }; WAIT_BATCH];
        let n = ll::epoll_pwait(self.epfd, &mut buf, timeout_ms)?;
        for ev in &buf[..n] {
            // Copy out of the possibly-packed struct before use.
            let (events, data) = (ev.events, ev.data);
            out.push(PollEvent {
                token: data,
                readable: events & (ll::EPOLLIN | ll::EPOLLERR) != 0,
                writable: events & ll::EPOLLOUT != 0,
                hangup: events & (ll::EPOLLHUP | ll::EPOLLRDHUP | ll::EPOLLERR) != 0,
            });
        }
        Ok(())
    }
}

impl Drop for Poller {
    fn drop(&mut self) {
        ll::close_fd(self.epfd);
    }
}

/// Cross-thread wakeup for a [`Poller`] loop: worker threads call
/// [`wake`](Waker::wake) after publishing a completion, which makes
/// the loop's current (or next) `wait` return. Backed by an `eventfd`
/// registered edge-triggered in the loop's poller.
#[derive(Debug)]
pub struct Waker {
    fd: i32,
}

impl Waker {
    /// Creates a waker.
    ///
    /// # Errors
    ///
    /// The `eventfd` failure.
    pub fn new() -> io::Result<Waker> {
        Ok(Waker {
            fd: ll::eventfd_new()?,
        })
    }

    /// The fd to register in the owning loop's poller.
    pub fn fd(&self) -> i32 {
        self.fd
    }

    /// Rings the waker; cheap and safe from any thread.
    pub fn wake(&self) {
        ll::eventfd_wake(self.fd);
    }

    /// Drains pending wakeups so the eventfd can ring again (called by
    /// the loop when it sees the waker token).
    pub fn drain(&self) {
        ll::eventfd_drain(self.fd);
    }
}

impl Drop for Waker {
    fn drop(&mut self) {
        ll::close_fd(self.fd);
    }
}
