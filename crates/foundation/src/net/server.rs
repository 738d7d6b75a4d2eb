//! The event-loop server core: one epoll loop owns the listener and
//! every nonblocking connection as an explicit state machine, and a
//! bounded worker pool runs request handlers so CPU-heavy solves never
//! stall the loop.
//!
//! ```text
//!            ┌─────────────────── event loop ───────────────────┐
//!  accept ──▶│ Reading ──parse──▶ Handling ──complete──▶ Writing │──▶ close
//!            │    ▲  (incremental)   (queued to          (flush, │
//!            │    └──────────────── worker pool)   may block on  │
//!            │          keep-alive / pipelined tail   EPOLLOUT) ─┘
//!            └──────────────────────────────────────────────────┘
//! ```
//!
//! Only the loop touches a connection's buffers, which is what keeps
//! responses on one connection strictly in request order.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use super::parser::{self, NetError, Parsed, Request, Response};
use super::poller::{Interest, PollEvent, Poller, Waker};
use super::sys;
use super::BoundedQueue;

/// Poller token of the listener.
const TOKEN_LISTENER: u64 = 0;
/// Poller token of the cross-thread waker.
const TOKEN_WAKER: u64 = 1;
/// First token handed to accepted connections.
const FIRST_CONN_TOKEN: u64 = 2;
/// Bytes read from a ready socket per `read` call.
const READ_CHUNK: usize = 16 * 1024;
/// Poll timeout while draining, bounding shutdown-detection latency.
const DRAIN_POLL: Duration = Duration::from_millis(20);

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address, e.g. `127.0.0.1:0` (port 0 = ephemeral).
    pub addr: String,
    /// Worker threads running request handlers.
    pub workers: usize,
    /// Handler-queue capacity; beyond it requests get `503`.
    pub queue_capacity: usize,
    /// How long a connection may sit on a partially received request
    /// before being closed with `408` (slow-header defense), and how
    /// long a partly flushed response may wait for the peer to read
    /// more before the connection is closed (stalled-write defense).
    /// Idle keep-alive connections with nothing buffered are exempt.
    pub read_deadline: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: crate::par::num_threads(),
            queue_capacity: 128,
            read_deadline: Duration::from_secs(10),
        }
    }
}

/// Counters the server keeps while running (monotonic except
/// `open_connections`).
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted.
    pub accepted: AtomicU64,
    /// Requests refused with `503` because the handler queue was full.
    pub rejected: AtomicU64,
    /// Requests answered (any status).
    pub requests: AtomicU64,
    /// Requests that failed to parse (answered `400`).
    pub malformed: AtomicU64,
    /// Connections currently open.
    pub open_connections: AtomicU64,
    /// Connections closed with `408` after the read deadline expired
    /// mid-request.
    pub timed_out: AtomicU64,
    /// Requests whose handler panicked (answered `500`).
    pub panics: AtomicU64,
    /// Connections closed because a partly flushed response made no
    /// progress within the read deadline.
    pub write_timeouts: AtomicU64,
}

/// One handler invocation in flight from a loop to the worker pool.
struct Job {
    token: u64,
    request: Request,
}

/// A finished handler invocation on its way back to the loop.
struct Completion {
    token: u64,
    response: Response,
}

struct Shared {
    shutdown: AtomicBool,
    queue: BoundedQueue<Job>,
    stats: ServerStats,
    handler: Box<dyn Fn(&Request) -> Response + Send + Sync>,
    /// The loop's mailbox: workers push completions and ring `waker`.
    completions: Mutex<Vec<Completion>>,
    waker: Waker,
    read_deadline: Duration,
}

/// Accessors for the transport metrics in the [`crate::obs::global`]
/// registry. Called once at server start so a scrape shows the full
/// family at zero, then reused per event via the macro's call-site
/// cache.
mod metrics {
    use crate::obs;

    pub(super) fn accepted() -> &'static obs::Counter {
        crate::obs_counter!(
            "dwm_net_connections_accepted_total",
            "Connections accepted by the event loop"
        )
    }

    pub(super) fn rejected() -> &'static obs::Counter {
        crate::obs_counter!(
            "dwm_net_connections_rejected_total",
            "Requests refused with 503 because the handler queue was full"
        )
    }

    pub(super) fn requests() -> &'static obs::Counter {
        crate::obs_counter!(
            "dwm_net_requests_total",
            "Requests parsed off connections and answered (any status)"
        )
    }

    pub(super) fn malformed() -> &'static obs::Counter {
        crate::obs_counter!(
            "dwm_net_malformed_requests_total",
            "Requests that failed to parse and were answered 400"
        )
    }

    pub(super) fn queue_depth() -> &'static obs::Gauge {
        crate::obs_gauge!(
            "dwm_net_queue_depth",
            "Requests currently waiting for a handler worker"
        )
    }

    pub(super) fn handler_latency() -> &'static obs::Histogram {
        crate::obs_histogram!(
            "dwm_net_handler_latency_ns",
            "Wall-clock nanoseconds spent inside the request handler"
        )
    }

    pub(super) fn wakeups() -> &'static obs::Counter {
        crate::obs_counter!(
            "dwm_net_loop_wakeups_total",
            "Event-loop wakeups that delivered at least one readiness event"
        )
    }

    pub(super) fn readiness_depth() -> &'static obs::Gauge {
        crate::obs_gauge!(
            "dwm_net_readiness_queue_depth",
            "Readiness events delivered by the most recent event-loop wakeup"
        )
    }

    pub(super) fn open_conns() -> &'static obs::Gauge {
        crate::obs_gauge!("dwm_net_open_connections", "Connections currently open")
    }

    pub(super) fn timeouts() -> &'static obs::Counter {
        crate::obs_counter!(
            "dwm_net_read_timeouts_total",
            "Connections closed with 408 after the read deadline expired mid-request"
        )
    }

    pub(super) fn handler_panics() -> &'static obs::Counter {
        crate::obs_counter!(
            "dwm_net_handler_panics_total",
            "Requests whose handler panicked and were answered 500"
        )
    }

    pub(super) fn write_timeouts() -> &'static obs::Counter {
        crate::obs_counter!(
            "dwm_net_write_timeouts_total",
            "Connections closed after a partly flushed response made no progress within the read deadline"
        )
    }

    /// Touches every transport metric so they exist before traffic.
    pub(super) fn register() {
        let _ = (
            accepted(),
            rejected(),
            requests(),
            malformed(),
            queue_depth(),
            handler_latency(),
            wakeups(),
            readiness_depth(),
            open_conns(),
            timeouts(),
            handler_panics(),
            write_timeouts(),
        );
    }
}

/// Where a connection's state machine currently is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// Accumulating request bytes (also the idle keep-alive state).
    Reading,
    /// A parsed request is with the worker pool; the loop only
    /// watches for hangup.
    Handling,
    /// A serialized response is being flushed, possibly across
    /// several `EPOLLOUT` rounds.
    Writing,
}

/// One nonblocking connection owned by the event loop.
struct Conn {
    stream: TcpStream,
    state: ConnState,
    inbuf: Vec<u8>,
    outbuf: Vec<u8>,
    outpos: usize,
    /// The in-flight request carried `connection: close`.
    close_request: bool,
    /// The staged response is the last one on this connection.
    close_after: bool,
    /// A hangup event was observed (peer closed or reset).
    peer_closed: bool,
    /// The fd is currently registered in the poller.
    registered: bool,
    /// The currently registered interest (skip redundant syscalls).
    interest: Interest,
    /// Armed while a partial request is buffered, or while a partly
    /// flushed response waits for the peer to read more.
    deadline: Option<Instant>,
}

impl Conn {
    fn new(stream: TcpStream, interest: Interest) -> Self {
        Conn {
            stream,
            state: ConnState::Reading,
            inbuf: Vec::new(),
            outbuf: Vec::new(),
            outpos: 0,
            close_request: false,
            close_after: false,
            peer_closed: false,
            registered: true,
            interest,
            deadline: None,
        }
    }
}

/// What an event handler decided about a connection's future.
enum Flow {
    Keep,
    Close,
}

/// Flushes as much of the staged response as the socket accepts.
/// `Ok(true)` = fully flushed, `Ok(false)` = socket buffer full.
fn flush_outbuf(conn: &mut Conn) -> io::Result<bool> {
    while conn.outpos < conn.outbuf.len() {
        match (&conn.stream).write(&conn.outbuf[conn.outpos..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => conn.outpos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(true)
}

/// The epoll loop: it owns the listener and every connection, and
/// wakes on the shared waker to apply completions.
struct EventLoop {
    shared: Arc<Shared>,
    poller: Poller,
    listener: Option<TcpListener>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// Min-heap of `(deadline, token)`, lazily invalidated: an entry
    /// only fires if the conn still carries that exact deadline.
    deadlines: BinaryHeap<Reverse<(Instant, u64)>>,
}

impl EventLoop {
    fn run(mut self) {
        let mut events: Vec<PollEvent> = Vec::with_capacity(256);
        loop {
            let draining = self.shared.shutdown.load(Ordering::SeqCst);
            if draining {
                self.begin_drain();
                if self.conns.is_empty() {
                    break;
                }
            }
            let timeout = self.next_timeout(draining);
            events.clear();
            if self.poller.wait(&mut events, timeout).is_err() {
                // A broken poller cannot make progress; exiting beats
                // spinning. (Never observed outside fd exhaustion.)
                break;
            }
            if !events.is_empty() {
                metrics::wakeups().inc();
                metrics::readiness_depth().set_always(events.len() as i64);
            }
            for ev in &events {
                match ev.token {
                    TOKEN_LISTENER => self.on_accept(),
                    TOKEN_WAKER => self.on_wake(),
                    token => self.on_conn_event(token, *ev),
                }
            }
            self.expire_deadlines();
        }
    }

    /// Accepts until the listener runs dry (level-triggered, so any
    /// leftover backlog re-fires on the next wait).
    fn on_accept(&mut self) {
        loop {
            let accepted = match &self.listener {
                Some(l) => l.accept(),
                None => return,
            };
            match accepted {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token;
                    self.next_token += 1;
                    let interest = Interest::readable();
                    if self
                        .poller
                        .register(sys::raw_fd(&stream), token, interest)
                        .is_err()
                    {
                        continue; // dropping the stream closes it
                    }
                    self.shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
                    metrics::accepted().inc();
                    self.shared
                        .stats
                        .open_connections
                        .fetch_add(1, Ordering::Relaxed);
                    metrics::open_conns().add_always(1);
                    self.conns.insert(token, Conn::new(stream, interest));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return,
            }
        }
    }

    /// Drains the waker and applies completions workers published.
    fn on_wake(&mut self) {
        self.shared.waker.drain();
        let completions = std::mem::take(
            &mut *self
                .shared
                .completions
                .lock()
                .expect("completions lock poisoned"),
        );
        for c in completions {
            self.on_completion(c.token, c.response);
        }
    }

    /// A handler finished: stage and flush its response.
    fn on_completion(&mut self, token: u64, response: Response) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return; // connection died while the handler ran
        };
        debug_assert_eq!(conn.state, ConnState::Handling);
        self.stage_response(&mut conn, &response, false);
        match self.pump(token, &mut conn) {
            Flow::Keep => {
                self.conns.insert(token, conn);
            }
            Flow::Close => self.drop_conn(conn),
        }
    }

    /// Readiness on a connection fd.
    fn on_conn_event(&mut self, token: u64, ev: PollEvent) {
        let Some(mut conn) = self.conns.remove(&token) else {
            return; // stale event for an already-closed token
        };
        if ev.hangup {
            conn.peer_closed = true;
        }
        let mut flow = Flow::Keep;
        if ev.readable && conn.state == ConnState::Reading {
            flow = self.fill_inbuf(token, &mut conn);
        }
        if matches!(flow, Flow::Keep) && ev.writable && conn.state == ConnState::Writing {
            flow = self.pump(token, &mut conn);
        }
        if matches!(flow, Flow::Keep) && ev.hangup {
            flow = self.on_hangup(token, &mut conn);
        }
        match flow {
            Flow::Keep => {
                self.conns.insert(token, conn);
            }
            Flow::Close => self.drop_conn(conn),
        }
    }

    /// The peer hung up. Readable data (a request raced with the FIN)
    /// has already been drained by the readable branch.
    fn on_hangup(&mut self, token: u64, conn: &mut Conn) -> Flow {
        match conn.state {
            // Read path observes EOF and closes.
            ConnState::Reading => self.fill_inbuf(token, conn),
            // Try to flush what remains; a reset surfaces as EPIPE.
            ConnState::Writing => self.pump(token, conn),
            // Handler still running: stop watching the fd (a
            // level-triggered hangup would wake every iteration); the
            // completion's write discovers the dead peer.
            ConnState::Handling => {
                if conn.registered {
                    let _ = self.poller.deregister(sys::raw_fd(&conn.stream));
                    conn.registered = false;
                }
                Flow::Keep
            }
        }
    }

    /// Reads until the socket runs dry, feeding the state machine
    /// after every chunk; stops early once a request is dispatched
    /// (one in flight per connection).
    fn fill_inbuf(&mut self, token: u64, conn: &mut Conn) -> Flow {
        let mut buf = [0u8; READ_CHUNK];
        loop {
            if conn.state != ConnState::Reading {
                return Flow::Keep;
            }
            match (&conn.stream).read(&mut buf) {
                // EOF: clean keep-alive teardown if idle; a torn
                // request otherwise — either way nothing more arrives.
                Ok(0) => {
                    conn.peer_closed = true;
                    return Flow::Close;
                }
                Ok(n) => {
                    conn.inbuf.extend_from_slice(&buf[..n]);
                    if let Flow::Close = self.pump(token, conn) {
                        return Flow::Close;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Flow::Keep,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return Flow::Close,
            }
        }
    }

    /// Advances the state machine until it blocks: parses buffered
    /// bytes, dispatches complete requests, flushes staged responses,
    /// and loops through the pipelined tail after each response.
    fn pump(&mut self, token: u64, conn: &mut Conn) -> Flow {
        loop {
            match conn.state {
                ConnState::Reading => match parser::try_parse_request(&conn.inbuf) {
                    Ok(Parsed::Incomplete) => {
                        if conn.inbuf.is_empty() {
                            conn.deadline = None;
                        } else if conn.deadline.is_none() {
                            // Partial request buffered: arm the
                            // slow-header deadline. Idle keep-alive
                            // (empty buffer) is deliberately exempt.
                            self.arm_deadline(token, conn);
                        }
                        self.update_interest(token, conn, Interest::readable());
                        return Flow::Keep;
                    }
                    Ok(Parsed::Complete(request, consumed)) => {
                        conn.inbuf.drain(..consumed);
                        conn.deadline = None;
                        conn.close_request = request.header("connection") == Some("close");
                        self.shared.stats.requests.fetch_add(1, Ordering::Relaxed);
                        metrics::requests().inc();
                        let job = Job { token, request };
                        match self.shared.queue.try_push(job) {
                            Ok(()) => {
                                metrics::queue_depth().add_always(1);
                                conn.state = ConnState::Handling;
                                // Park read interest; only hangup
                                // matters until the handler returns.
                                self.update_interest(
                                    token,
                                    conn,
                                    Interest {
                                        rdhup: true,
                                        ..Interest::default()
                                    },
                                );
                                return Flow::Keep;
                            }
                            Err(_) => {
                                // Backpressure: answer 503 in-line and
                                // keep the connection unless the
                                // client asked to close.
                                self.shared.stats.rejected.fetch_add(1, Ordering::Relaxed);
                                metrics::rejected().inc();
                                self.stage_response(
                                    conn,
                                    &Response::text(503, "server overloaded\n"),
                                    false,
                                );
                            }
                        }
                    }
                    Err(NetError::Malformed(m)) => {
                        self.shared.stats.malformed.fetch_add(1, Ordering::Relaxed);
                        metrics::malformed().inc();
                        self.stage_response(conn, &Response::text(400, format!("{m}\n")), true);
                    }
                    // The incremental parser never does I/O.
                    Err(NetError::Io(_)) => return Flow::Close,
                },
                ConnState::Handling => return Flow::Keep,
                ConnState::Writing => {
                    let sent = conn.outpos;
                    match flush_outbuf(conn) {
                        Ok(true) => {
                            conn.deadline = None;
                            if conn.close_after
                                || conn.peer_closed
                                || self.shared.shutdown.load(Ordering::SeqCst)
                            {
                                return Flow::Close;
                            }
                            conn.state = ConnState::Reading;
                            conn.outbuf.clear();
                            conn.outpos = 0;
                            conn.close_request = false;
                            // Loop: parse the pipelined tail, if any.
                        }
                        Ok(false) => {
                            // A peer that stops reading must not hold the
                            // connection, or drain, forever: the deadline
                            // runs from the last flush that made progress.
                            if conn.outpos > sent || conn.deadline.is_none() {
                                self.arm_deadline(token, conn);
                            }
                            self.update_interest(
                                token,
                                conn,
                                Interest {
                                    writable: true,
                                    rdhup: !conn.peer_closed,
                                    ..Interest::default()
                                },
                            );
                            return Flow::Keep;
                        }
                        Err(_) => return Flow::Close,
                    }
                }
            }
        }
    }

    /// Serializes `response` into the connection's output buffer and
    /// moves it to `Writing`, with no deadline until a flush stalls.
    /// The `connection:` header closes when the request or server
    /// lifecycle demands it.
    fn stage_response(&self, conn: &mut Conn, response: &Response, force_close: bool) {
        let close = force_close
            || conn.close_request
            || conn.peer_closed
            || self.shared.shutdown.load(Ordering::SeqCst);
        conn.deadline = None;
        conn.outbuf.clear();
        conn.outpos = 0;
        response
            .write_to(&mut conn.outbuf, close)
            .expect("serializing a response into a Vec cannot fail");
        conn.close_after = close;
        conn.state = ConnState::Writing;
    }

    /// Arms the connection's deadline `read_deadline` from now.
    fn arm_deadline(&mut self, token: u64, conn: &mut Conn) {
        let deadline = Instant::now() + self.shared.read_deadline;
        conn.deadline = Some(deadline);
        self.deadlines.push(Reverse((deadline, token)));
    }

    /// Registers or re-registers the fd so its watched interest
    /// matches `want`, skipping redundant syscalls.
    fn update_interest(&mut self, token: u64, conn: &mut Conn, want: Interest) {
        if conn.registered && conn.interest == want {
            return;
        }
        let fd = sys::raw_fd(&conn.stream);
        let result = if conn.registered {
            self.poller.reregister(fd, token, want)
        } else {
            self.poller.register(fd, token, want)
        };
        if result.is_ok() {
            conn.registered = true;
            conn.interest = want;
        }
    }

    /// Acts on connections whose deadline passed: a partial request is
    /// answered `408`; a stalled response is closed, since nothing can
    /// follow a partial response. Entries are lazily invalidated: a
    /// completed parse or flush clears `conn.deadline`, and a re-arm
    /// replaces it, orphaning the old heap entry.
    fn expire_deadlines(&mut self) {
        let now = Instant::now();
        while let Some(&Reverse((when, token))) = self.deadlines.peek() {
            if when > now {
                break;
            }
            self.deadlines.pop();
            let live = self
                .conns
                .get(&token)
                .is_some_and(|c| c.deadline == Some(when));
            if !live {
                continue;
            }
            let mut conn = self.conns.remove(&token).expect("conn exists");
            if conn.state == ConnState::Writing {
                self.shared
                    .stats
                    .write_timeouts
                    .fetch_add(1, Ordering::Relaxed);
                metrics::write_timeouts().inc();
                self.drop_conn(conn);
                continue;
            }
            self.shared.stats.timed_out.fetch_add(1, Ordering::Relaxed);
            metrics::timeouts().inc();
            self.stage_response(
                &mut conn,
                &Response::text(408, "request header timeout\n"),
                true,
            );
            match self.pump(token, &mut conn) {
                Flow::Keep => {
                    self.conns.insert(token, conn);
                }
                Flow::Close => self.drop_conn(conn),
            }
        }
    }

    /// How long the next wait may block: until the nearest live
    /// deadline, bounded by [`DRAIN_POLL`] while draining.
    fn next_timeout(&mut self, draining: bool) -> Option<Duration> {
        let pending = loop {
            match self.deadlines.peek() {
                Some(&Reverse((when, token))) => {
                    let live = self
                        .conns
                        .get(&token)
                        .is_some_and(|c| c.deadline == Some(when));
                    if live {
                        break Some(when);
                    }
                    self.deadlines.pop();
                }
                None => break None,
            }
        };
        let until = pending.map(|when| when.saturating_duration_since(Instant::now()));
        if draining {
            Some(until.map_or(DRAIN_POLL, |d| d.min(DRAIN_POLL)))
        } else {
            until
        }
    }

    /// First drain step (idempotent): stop accepting and shed idle
    /// connections. In-flight requests (`Handling`/`Writing`) complete
    /// naturally — their responses go out with `connection: close`.
    fn begin_drain(&mut self) {
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.deregister(sys::raw_fd(&listener));
        }
        let idle: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| c.state == ConnState::Reading)
            .map(|(&t, _)| t)
            .collect();
        for token in idle {
            if let Some(conn) = self.conns.remove(&token) {
                self.drop_conn(conn);
            }
        }
    }

    /// Deregisters and drops a connection, keeping the gauges honest.
    fn drop_conn(&mut self, conn: Conn) {
        if conn.registered {
            let _ = self.poller.deregister(sys::raw_fd(&conn.stream));
        }
        self.shared
            .stats
            .open_connections
            .fetch_sub(1, Ordering::Relaxed);
        metrics::open_conns().add_always(-1);
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    // `pop` returns `None` only once the queue is closed and drained,
    // so every dispatched request is answered even across shutdown.
    while let Some(job) = shared.queue.pop() {
        metrics::queue_depth().add_always(-1);
        let response = {
            let _span = metrics::handler_latency().span();
            // A panic must not take the worker or the request with it:
            // an unanswered request keeps its connection in `Handling`,
            // and drain waits for every connection to close.
            let handled = panic::catch_unwind(AssertUnwindSafe(|| (shared.handler)(&job.request)));
            handled.unwrap_or_else(|_| {
                shared.stats.panics.fetch_add(1, Ordering::Relaxed);
                metrics::handler_panics().inc();
                Response::text(500, "handler panicked\n")
            })
        };
        shared
            .completions
            .lock()
            .expect("completions lock poisoned")
            .push(Completion {
                token: job.token,
                response,
            });
        shared.waker.wake();
    }
}

/// A running TCP server; dropping the handle without calling
/// [`ServerHandle::join`] detaches the threads.
pub struct Server;

/// Handle to a running [`Server`]: address, stats, shutdown, join.
pub struct ServerHandle {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for ServerHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerHandle")
            .field("local_addr", &self.local_addr)
            .finish_non_exhaustive()
    }
}

impl Server {
    /// Binds `config.addr` and starts the event loop plus handler
    /// workers. `handler` must be a pure function of the request for
    /// the service's determinism guarantee to hold end to end.
    ///
    /// # Errors
    ///
    /// Propagates bind/poller-setup failures, including `AddrInUse`
    /// when another socket already listens on the address.
    pub fn start<H>(config: ServerConfig, handler: H) -> io::Result<ServerHandle>
    where
        H: Fn(&Request) -> Response + Send + Sync + 'static,
    {
        metrics::register();
        // Connections cost one fd each and nothing else; make sure the
        // fd budget — not a 1024 default soft limit — is the ceiling,
        // or a C10k hold would die at accept long before memory.
        sys::raise_nofile_limit();

        let listener = TcpListener::bind(config.addr.as_str())?;
        sys::raise_backlog(&listener)?;
        listener.set_nonblocking(true)?;
        let local_addr = listener.local_addr()?;
        let poller = Poller::new()?;
        let waker = Waker::new()?;
        poller.register(sys::raw_fd(&listener), TOKEN_LISTENER, Interest::readable())?;
        poller.register(
            waker.fd(),
            TOKEN_WAKER,
            Interest {
                readable: true,
                edge: true,
                ..Interest::default()
            },
        )?;
        let shared = Arc::new(Shared {
            shutdown: AtomicBool::new(false),
            queue: BoundedQueue::new(config.queue_capacity),
            stats: ServerStats::default(),
            handler: Box::new(handler),
            completions: Mutex::new(Vec::new()),
            waker,
            read_deadline: config.read_deadline,
        });

        let event_loop = EventLoop {
            shared: Arc::clone(&shared),
            poller,
            listener: Some(listener),
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            deadlines: BinaryHeap::new(),
        };
        let mut threads = vec![std::thread::Builder::new()
            .name("dwm-net-loop".to_owned())
            .spawn(move || event_loop.run())?];
        for i in 0..config.workers.max(1) {
            let worker = Arc::clone(&shared);
            threads.push(
                std::thread::Builder::new()
                    .name(format!("dwm-net-worker-{i}"))
                    .spawn(move || worker_loop(&worker))?,
            );
        }
        Ok(ServerHandle {
            local_addr,
            shared,
            threads,
        })
    }
}

impl ServerHandle {
    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Server counters.
    pub fn stats(&self) -> &ServerStats {
        &self.shared.stats
    }

    /// Signals graceful shutdown: stop accepting, shed idle
    /// connections, drain queued and in-flight requests. Returns
    /// immediately; pair with [`join`](Self::join).
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.queue.close();
        self.shared.waker.wake();
    }

    /// Whether shutdown has been signalled.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Waits for the event loop and every worker to exit. Call
    /// [`shutdown`](Self::shutdown) first, or this blocks forever.
    pub fn join(mut self) {
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}
