//! The daemon: [`ServeConfig`], [`start`], and [`ServeHandle`].
//!
//! This binds the transport-agnostic [`Engine`] (or, with
//! `cluster > 1`, the consistent-hashing [`Cluster`] front) onto the
//! [`net::Server`] epoll event loop. Backpressure semantics come from
//! `net`: when the handler queue is full the server answers `503`
//! rather than letting work pile up; slow header writers are cut off
//! with `408`; on shutdown it stops accepting, finishes in-flight
//! requests, flushes staged responses, and closes. The daemon adds one
//! transport-level endpoint of its own, `POST /admin/drain`, which
//! flips a flag the process owner (the CLI's `serve drain`-initiated
//! loop) polls via [`ServeHandle::drain_requested`] to begin a
//! graceful shutdown from the outside.

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dwm_foundation::net::{self, Request, Response, ServerStats};
use dwm_foundation::par;

use crate::cluster::Cluster;
use crate::engine::{Engine, EngineConfig};

/// Environment variable overriding the default listen address.
pub const ADDR_ENV: &str = "DWM_SERVE_ADDR";

/// Default listen address when neither the config nor [`ADDR_ENV`]
/// says otherwise.
pub const DEFAULT_ADDR: &str = "127.0.0.1:7077";

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7077` (port 0 picks a free
    /// port — tests use this).
    pub addr: String,
    /// Worker threads handling connections.
    pub workers: usize,
    /// Accept-queue depth; beyond this, connections get `503`.
    pub queue_capacity: usize,
    /// Solve-cache entry budget (0 disables memoization).
    pub cache_capacity: usize,
    /// Streaming-session budget (0 = unlimited); the least-recently-
    /// used session gives way when the budget is exhausted.
    pub session_capacity: usize,
    /// Idle time after which a session expires (zero = never).
    pub session_ttl: Duration,
    /// Whether `quality:"best"` solves enqueue background tier-2
    /// upgrades (`--no-upgrades` turns this off).
    pub upgrades: bool,
    /// Engine shards behind the consistent-hash front (`--cluster N`).
    /// 1 (the default) serves from a single unlabeled engine; values
    /// above 1 split the solve cache into disjoint per-shard slices.
    pub cluster: usize,
    /// Slow-header cutoff: a connection sitting on a partial request
    /// longer than this is answered `408` and closed. Idle keep-alive
    /// connections are exempt. A response the peer stops reading for
    /// this long has its connection closed.
    pub read_deadline: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: std::env::var(ADDR_ENV).unwrap_or_else(|_| DEFAULT_ADDR.to_owned()),
            workers: par::num_threads(),
            queue_capacity: 128,
            cache_capacity: 1024,
            session_capacity: 64,
            session_ttl: Duration::from_secs(600),
            upgrades: true,
            cluster: 1,
            read_deadline: Duration::from_secs(10),
        }
    }
}

impl ServeConfig {
    /// A config listening on an OS-assigned loopback port — what tests
    /// and benches use to avoid clashing with a real daemon.
    pub fn ephemeral() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            ..ServeConfig::default()
        }
    }
}

/// A running daemon: the transport handle plus its engine(s).
pub struct ServeHandle {
    server: net::ServerHandle,
    engine: Arc<Engine>,
    cluster: Option<Arc<Cluster>>,
    drain: Arc<AtomicBool>,
}

impl ServeHandle {
    /// The bound listen address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// The engine, for inspecting cache/request counters in-process.
    /// With `cluster > 1` this is shard 0 (the session/error owner);
    /// use [`cluster`](Self::cluster) for the full shard set.
    pub fn engine(&self) -> &Arc<Engine> {
        &self.engine
    }

    /// The cluster front, when running with `cluster > 1`.
    pub fn cluster(&self) -> Option<&Arc<Cluster>> {
        self.cluster.as_ref()
    }

    /// Whether a `POST /admin/drain` request has arrived. The process
    /// owner polls this and calls [`shutdown`](Self::shutdown) when it
    /// flips — the handler itself never tears the server down, so the
    /// drain response is always delivered first.
    pub fn drain_requested(&self) -> bool {
        self.drain.load(Ordering::Acquire)
    }

    /// Transport counters (accepted/rejected/handled).
    pub fn stats(&self) -> &ServerStats {
        self.server.stats()
    }

    /// Begins a graceful shutdown: stop accepting, drain the queue,
    /// finish in-flight requests. Returns immediately; use
    /// [`join`](Self::join) to wait for completion.
    pub fn shutdown(&self) {
        self.server.shutdown();
    }

    /// Waits for every server thread to exit.
    pub fn join(self) {
        self.server.join();
    }
}

/// Starts the daemon described by `config`.
///
/// # Errors
///
/// Fails if the listen address cannot be bound.
pub fn start(config: ServeConfig) -> io::Result<ServeHandle> {
    let engine_config = EngineConfig {
        cache_capacity: config.cache_capacity,
        session_capacity: config.session_capacity,
        session_ttl: config.session_ttl,
        upgrades: config.upgrades,
        shard: None,
    };
    let (engine, cluster): (Arc<Engine>, Option<Arc<Cluster>>) = if config.cluster > 1 {
        let cluster = Arc::new(Cluster::new(config.cluster, engine_config));
        (Arc::clone(&cluster.shards()[0]), Some(cluster))
    } else {
        (Arc::new(Engine::with_config(engine_config)), None)
    };
    let drain = Arc::new(AtomicBool::new(false));

    let handler_engine = Arc::clone(&engine);
    let handler_cluster = cluster.clone();
    let handler_drain = Arc::clone(&drain);
    let server = net::Server::start(
        net::ServerConfig {
            addr: config.addr,
            workers: config.workers.max(1),
            queue_capacity: config.queue_capacity.max(1),
            read_deadline: config.read_deadline,
        },
        move |req| {
            if req.path == "/admin/drain" {
                return admin_drain(req, &handler_drain);
            }
            match &handler_cluster {
                Some(cluster) => cluster.handle(req),
                None => handler_engine.handle(req),
            }
        },
    )?;
    Ok(ServeHandle {
        server,
        engine,
        cluster,
        drain,
    })
}

/// `POST /admin/drain`: flips the drain flag and acknowledges. The
/// acknowledgement goes out before the owner (polling
/// [`ServeHandle::drain_requested`]) starts the shutdown, so clients
/// always see the response.
fn admin_drain(req: &Request, drain: &AtomicBool) -> Response {
    if req.method != "POST" {
        return Response::text(405, "drain requires POST\n");
    }
    drain.store(true, Ordering::Release);
    Response::json(200, r#"{"draining":true}"#)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::ClientConn;

    #[test]
    fn daemon_serves_health_over_loopback_and_drains_on_shutdown() {
        let handle = start(ServeConfig {
            workers: 2,
            cache_capacity: 16,
            ..ServeConfig::ephemeral()
        })
        .unwrap();
        let addr = handle.local_addr();

        let mut conn = ClientConn::connect(addr).unwrap();
        let resp = conn.get("/health").unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(
            resp.body_str().unwrap(),
            r#"{"status":"ok","service":"dwm-serve"}"#
        );

        let solve = conn.post_json("/solve", r#"{"ids":[0,1,0,2,1]}"#).unwrap();
        assert_eq!(solve.status, 200);
        assert_eq!(handle.engine().cache().stats().entries, 1);

        handle.shutdown();
        handle.join();
    }

    #[test]
    fn admin_drain_flips_the_flag_without_killing_the_connection() {
        let handle = start(ServeConfig::ephemeral()).unwrap();
        assert!(!handle.drain_requested());
        let mut conn = ClientConn::connect(handle.local_addr()).unwrap();
        let not_post = conn.get("/admin/drain").unwrap();
        assert_eq!(not_post.status, 405);
        assert!(!handle.drain_requested());
        let resp = conn.post_json("/admin/drain", "{}").unwrap();
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body_str().unwrap(), r#"{"draining":true}"#);
        assert!(handle.drain_requested());
        // The connection that asked is still usable until the owner
        // acts on the flag.
        assert_eq!(conn.get("/health").unwrap().status, 200);
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn clustered_daemon_serves_identical_bodies() {
        let handle = start(ServeConfig {
            cluster: 4,
            ..ServeConfig::ephemeral()
        })
        .unwrap();
        let single = start(ServeConfig::ephemeral()).unwrap();
        let mut a = ClientConn::connect(handle.local_addr()).unwrap();
        let mut b = ClientConn::connect(single.local_addr()).unwrap();
        for body in [
            r#"{"ids":[0,1,0,2,1]}"#,
            r#"{"ids":[5,4,3,2,1,0,5,4]}"#,
            "not json",
        ] {
            let ra = a.post_json("/solve", body).unwrap();
            let rb = b.post_json("/solve", body).unwrap();
            assert_eq!(ra.status, rb.status);
            assert_eq!(ra.body, rb.body);
        }
        assert!(handle.cluster().is_some());
        assert_eq!(handle.cluster().unwrap().shard_count(), 4);
        handle.shutdown();
        single.shutdown();
        handle.join();
        single.join();
    }

    #[test]
    fn ephemeral_config_binds_port_zero() {
        let cfg = ServeConfig::ephemeral();
        assert_eq!(cfg.addr, "127.0.0.1:0");
        let handle = start(cfg).unwrap();
        assert_ne!(handle.local_addr().port(), 0);
        handle.shutdown();
        handle.join();
    }
}
