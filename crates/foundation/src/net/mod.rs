//! Minimal HTTP/1.1-style framing and an epoll event-loop TCP server.
//!
//! The serving subsystem (`dwm-serve`) needs a long-running daemon
//! that holds thousands of keep-alive connections, but the workspace
//! is hermetic — no tokio, no hyper, no libc. This module covers
//! exactly what a placement service requires with `std` plus a few
//! raw syscalls:
//!
//! * [`Request`]/[`Response`] — a request parser and response writer
//!   for the HTTP/1.1 subset the service speaks (request line, headers,
//!   `Content-Length` bodies, keep-alive connections), in both a
//!   blocking flavor (clients) and an incremental flavor
//!   ([`try_parse_request`]) the event loop feeds byte-wise;
//! * [`Poller`] — a small readiness abstraction over epoll with level-
//!   and edge-triggered registration, plus an eventfd [`Waker`] for
//!   cross-thread wakeups;
//! * [`BoundedQueue`] — a capacity-limited MPMC handoff queue whose
//!   `try_push` refuses work when full, giving the server backpressure
//!   instead of unbounded memory growth;
//! * [`Server`] — per-shard event loops (one `SO_REUSEPORT` listener
//!   each) driving nonblocking connections as explicit state machines
//!   (reading → handling → writing → keep-alive), with parsed requests
//!   handed to a bounded worker pool so handler CPU time never blocks
//!   a loop. Overload answers `503` per request; slow-header peers are
//!   cut off with `408` after [`ServerConfig::read_deadline`];
//!   shutdown is graceful: accepting stops, idle connections shed,
//!   in-flight requests drain to completion, and every thread joins.
//!
//! Connection count is bounded by fds, not threads: 10 000 idle
//! keep-alive connections cost 10 000 fds and their buffers, while
//! thread count stays `workers + shards`.
//!
//! Determinism note: a connection belongs to exactly one event loop,
//! and only one request per connection is ever in flight, so a single
//! client always observes its responses in request order;
//! cross-connection scheduling is left to the OS, which is fine
//! because the service's response bodies are a pure function of the
//! request. See `docs/SERVING.md` for the full determinism contract.
//!
//! The module is Linux-only: the event loop is built on epoll and
//! eventfd, declared directly as raw syscalls.

#[cfg(not(target_os = "linux"))]
compile_error!("foundation::net is Linux-only: its event loop runs on epoll and eventfd");

mod parser;
mod poller;
mod server;
mod sys;

pub use parser::{
    read_request, read_response, try_parse_request, NetError, Parsed, Request, Response,
};
pub use poller::{Interest, PollEvent, Poller, Waker};
pub use server::{Server, ServerConfig, ServerHandle, ServerStats};
pub use sys::raise_nofile_limit;

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};

/// A capacity-bounded MPMC queue with closing semantics.
///
/// `try_push` never blocks: a full (or closed) queue hands the item
/// straight back, which is how the event loop converts overload into
/// an immediate `503` instead of queueing unboundedly. `pop` blocks
/// until an item arrives or the queue is closed *and* drained, so
/// workers naturally finish all accepted work before exiting.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    inner: Mutex<QueueInner<T>>,
    ready: Condvar,
    capacity: usize,
}

#[derive(Debug)]
struct QueueInner<T> {
    items: VecDeque<T>,
    closed: bool,
}

impl<T> BoundedQueue<T> {
    /// A queue holding at most `capacity` items (min 1).
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(QueueInner {
                items: VecDeque::new(),
                closed: false,
            }),
            ready: Condvar::new(),
            capacity: capacity.max(1),
        }
    }

    /// Enqueues `item`, or returns it when the queue is full or closed.
    ///
    /// # Errors
    ///
    /// The rejected item itself, so the caller can dispose of it (e.g.
    /// answer `503` on the connection).
    pub fn try_push(&self, item: T) -> Result<(), T> {
        let mut inner = self.inner.lock().expect("queue lock poisoned");
        if inner.closed || inner.items.len() >= self.capacity {
            return Err(item);
        }
        inner.items.push_back(item);
        self.ready.notify_one();
        Ok(())
    }

    /// Dequeues the next item, blocking while the queue is open and
    /// empty. `None` means closed and fully drained.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("queue lock poisoned");
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.ready.wait(inner).expect("queue lock poisoned");
        }
    }

    /// Closes the queue: pending items remain poppable, new pushes are
    /// rejected, and blocked `pop`s wake up.
    pub fn close(&self) {
        self.inner.lock().expect("queue lock poisoned").closed = true;
        self.ready.notify_all();
    }

    /// Current queue depth.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue lock poisoned").items.len()
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{self, BufReader, Cursor, Write};
    use std::net::TcpStream;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;
    use std::time::Duration;

    fn parse(bytes: &[u8]) -> Result<Option<Request>, NetError> {
        read_request(&mut BufReader::new(Cursor::new(bytes.to_vec())))
    }

    #[test]
    fn parses_a_post_with_body() {
        let raw = b"POST /solve HTTP/1.1\r\ncontent-length: 4\r\nx-k: v\r\n\r\nabcd";
        let req = parse(raw).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/solve");
        assert_eq!(req.header("X-K"), Some("v"));
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn clean_eof_is_none_and_torn_requests_are_errors() {
        assert!(parse(b"").unwrap().is_none());
        assert!(parse(b"GET /x HTTP/1.1\r\n").is_err()); // EOF in headers
        assert!(parse(b"garbage\r\n\r\n").is_err());
        assert!(parse(b"POST / HTTP/1.1\r\ncontent-length: pony\r\n\r\n").is_err());
    }

    #[test]
    fn request_and_response_round_trip_wire_form() {
        let mut wire = Vec::new();
        Request::post("/solve", "{}").write_to(&mut wire).unwrap();
        let back = parse(&wire).unwrap().unwrap();
        assert_eq!(back.path, "/solve");
        assert_eq!(back.body, b"{}");

        let mut wire = Vec::new();
        Response::json(200, "{\"ok\":true}")
            .with_header("x-dwm-elapsed-us", "12")
            .write_to(&mut wire, false)
            .unwrap();
        let resp = read_response(&mut BufReader::new(Cursor::new(wire)))
            .unwrap()
            .unwrap();
        assert_eq!(resp.status, 200);
        assert!(resp.is_success());
        assert_eq!(resp.header("X-DWM-Elapsed-Us"), Some("12"));
        assert_eq!(resp.header("connection"), Some("keep-alive"));
        assert_eq!(resp.body_str(), Some("{\"ok\":true}"));
    }

    #[test]
    fn bounded_queue_backpressure_and_close() {
        let q = BoundedQueue::new(2);
        assert!(q.try_push(1).is_ok());
        assert!(q.try_push(2).is_ok());
        assert_eq!(q.try_push(3), Err(3));
        assert_eq!(q.len(), 2);
        q.close();
        assert_eq!(q.try_push(4), Err(4));
        // Pending items stay poppable after close, then None.
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn closed_queue_wakes_blocked_pops() {
        let q = Arc::new(BoundedQueue::<u8>::new(1));
        let q2 = Arc::clone(&q);
        let t = std::thread::spawn(move || q2.pop());
        std::thread::sleep(Duration::from_millis(20));
        q.close();
        assert_eq!(t.join().unwrap(), None);
    }

    #[test]
    fn server_round_trip_and_graceful_shutdown() {
        let handle = Server::start(ServerConfig::default(), |req| {
            Response::text(200, format!("echo:{}", req.path))
        })
        .unwrap();
        let addr = handle.local_addr();
        let mut responses = Vec::new();
        for i in 0..3 {
            let stream = TcpStream::connect(addr).unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            Request::new("GET", &format!("/r{i}"))
                .write_to(&mut writer)
                .unwrap();
            let resp = read_response(&mut reader).unwrap().unwrap();
            responses.push(resp.body_str().unwrap().to_owned());
        }
        assert_eq!(responses, vec!["echo:/r0", "echo:/r1", "echo:/r2"]);
        assert_eq!(handle.stats().requests.load(Ordering::Relaxed), 3);
        handle.shutdown();
        assert!(handle.is_shutting_down());
        handle.join();
    }

    #[test]
    fn keep_alive_serves_multiple_requests_per_connection() {
        let handle = Server::start(ServerConfig::default(), |req| {
            Response::json(200, format!("{{\"len\":{}}}", req.body.len()))
        })
        .unwrap();
        let stream = TcpStream::connect(handle.local_addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        for body in ["x", "yy", "zzz"] {
            Request::post("/b", body).write_to(&mut writer).unwrap();
            let resp = loop {
                match read_response(&mut reader) {
                    Ok(Some(r)) => break r,
                    Ok(None) => panic!("server closed keep-alive connection"),
                    Err(NetError::Io(e))
                        if e.kind() == io::ErrorKind::WouldBlock
                            || e.kind() == io::ErrorKind::TimedOut =>
                    {
                        continue
                    }
                    Err(e) => panic!("read: {e}"),
                }
            };
            assert_eq!(
                resp.body_str().unwrap(),
                format!("{{\"len\":{}}}", body.len())
            );
        }
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn pipelined_requests_answered_in_order() {
        let handle = Server::start(ServerConfig::default(), |req| {
            Response::text(200, format!("echo:{}", req.path))
        })
        .unwrap();
        let stream = TcpStream::connect(handle.local_addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        // Three requests in one burst, no reads in between.
        let mut burst = Vec::new();
        for i in 0..3 {
            Request::new("GET", &format!("/p{i}"))
                .write_to(&mut burst)
                .unwrap();
        }
        writer.write_all(&burst).unwrap();
        let mut reader = BufReader::new(stream);
        for i in 0..3 {
            let resp = read_response(&mut reader).unwrap().unwrap();
            assert_eq!(resp.body_str().unwrap(), format!("echo:/p{i}"));
        }
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn slow_header_client_gets_408() {
        let config = ServerConfig {
            read_deadline: Duration::from_millis(100),
            ..ServerConfig::default()
        };
        let handle = Server::start(config, |_| Response::text(200, "ok")).unwrap();
        let mut stream = TcpStream::connect(handle.local_addr()).unwrap();
        // A partial request line, then silence past the deadline.
        stream.write_all(b"GET /slow").unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let resp = read_response(&mut reader).unwrap().unwrap();
        assert_eq!(resp.status, 408);
        assert_eq!(resp.header("connection"), Some("close"));
        assert_eq!(handle.stats().timed_out.load(Ordering::Relaxed), 1);
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn idle_keep_alive_connection_survives_the_read_deadline() {
        let config = ServerConfig {
            read_deadline: Duration::from_millis(50),
            ..ServerConfig::default()
        };
        let handle = Server::start(config, |_| Response::text(200, "ok")).unwrap();
        let stream = TcpStream::connect(handle.local_addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        Request::new("GET", "/a").write_to(&mut writer).unwrap();
        assert_eq!(read_response(&mut reader).unwrap().unwrap().status, 200);
        // Idle (no buffered bytes) well past the deadline: the
        // connection must stay usable — that exemption is what makes
        // 10k parked keep-alive clients possible.
        std::thread::sleep(Duration::from_millis(150));
        Request::new("GET", "/b").write_to(&mut writer).unwrap();
        assert_eq!(read_response(&mut reader).unwrap().unwrap().status, 200);
        assert_eq!(handle.stats().timed_out.load(Ordering::Relaxed), 0);
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn mid_response_disconnect_does_not_wedge_the_server() {
        let handle = Server::start(ServerConfig::default(), |_| {
            Response::text(200, vec![b'x'; 4 * 1024 * 1024])
        })
        .unwrap();
        // Fire a request and vanish without reading the 4 MiB reply.
        {
            let stream = TcpStream::connect(handle.local_addr()).unwrap();
            let mut writer = stream.try_clone().unwrap();
            Request::new("GET", "/big").write_to(&mut writer).unwrap();
        }
        // The server must still answer fresh connections.
        let stream = TcpStream::connect(handle.local_addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        Request::new("GET", "/after").write_to(&mut writer).unwrap();
        assert!(read_response(&mut reader).unwrap().unwrap().is_success());
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn a_panicking_handler_answers_500_and_the_server_still_drains() {
        const WORKERS: usize = 2;
        const BOUND: Duration = Duration::from_secs(10);
        let config = ServerConfig {
            workers: WORKERS,
            ..ServerConfig::default()
        };
        let handle = Server::start(config, |req| {
            assert_ne!(req.path, "/panic", "this handler panics on /panic");
            Response::text(200, "ok")
        })
        .unwrap();
        let addr = handle.local_addr();
        let connect = || {
            let stream = TcpStream::connect(addr).unwrap();
            stream.set_read_timeout(Some(BOUND)).unwrap();
            (stream.try_clone().unwrap(), BufReader::new(stream))
        };
        let status = |(writer, reader): &mut (TcpStream, BufReader<TcpStream>), path: &str| {
            Request::new("GET", path).write_to(writer).unwrap();
            read_response(reader)
                .expect("answered within the bound")
                .expect("connection still open")
                .status
        };
        // More panics than workers: a worker lost per panic would leave
        // none to answer what follows.
        let mut conn = connect();
        for _ in 0..=WORKERS {
            assert_eq!(status(&mut conn, "/panic"), 500);
        }
        assert_eq!(status(&mut conn, "/ok"), 200);
        assert_eq!(status(&mut connect(), "/ok"), 200);
        assert_eq!(
            handle.stats().panics.load(Ordering::Relaxed),
            WORKERS as u64 + 1
        );
        let (done, finished) = std::sync::mpsc::channel();
        let drain = std::thread::spawn(move || {
            handle.shutdown();
            handle.join();
            let _ = done.send(());
        });
        assert!(finished.recv_timeout(BOUND).is_ok(), "drain did not finish");
        drain.join().expect("the drain thread returned");
    }
}
