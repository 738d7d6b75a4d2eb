//! Closed-loop loopback load harness (the `serve_load` binary's core).
//!
//! `clients` threads each hold one keep-alive connection and fire
//! requests back-to-back (closed loop: next request only after the
//! previous response). The workload mix is seeded and finite — a pool
//! of pre-rendered solve bodies drawn from Zipf and Markov generators —
//! so a run is reproducible and, crucially, *checkable*: every client
//! records the first response body seen per workload and flags any
//! later response that differs. A mismatch means the server broke its
//! determinism contract under concurrency.
//!
//! Latency is recorded per request into a
//! [`dwm_foundation::bench::Histogram`]; the report carries p50/p90/p99
//! and throughput.
//!
//! [`run_sessions`] is the streaming twin: instead of stateless
//! `/solve` calls, each client drives a set of long-lived sessions
//! through `POST /session/{id}/accesses` in fixed-size chunks and the
//! determinism check compares final placements across sessions that
//! replayed the same stream.
//!
//! # Deadline contracts
//!
//! With [`LoadConfig::quality`] / [`LoadConfig::deadline_us`] set, the
//! solve bodies switch from the legacy `algorithm` form to the tiered
//! form, and the harness additionally records the *server-side* time
//! each request took (from the `x-dwm-elapsed-us` response header) into
//! [`LoadReport::server_elapsed`]. Every tiered response whose
//! server-side time exceeded the requested budget counts as a
//! [`LoadReport::deadline_misses`] — the CI deadline-contract step
//! asserts this stays zero at `quality:"fast"`.
//!
//! # The C10k proof
//!
//! With [`LoadConfig::idle_conns`] set, the harness parks that many
//! extra keep-alive connections — each verified with a `/health`
//! round-trip — before the clock starts, leaves them untouched for the
//! whole run, and re-verifies every one afterwards on the same socket.
//! [`LoadReport::idle_held`] counts the survivors; a parked connection
//! the server shed under load counts as an error. This is the harness
//! side of the event loop's cheap-idle-connection promise (idle
//! keep-alive connections are exempt from the read deadline and cost
//! no worker thread), exercised at 10 000 connections in CI.
//!
//! [`wait_ready`] is the polling twin of a shell spin-wait: it retries
//! `GET /health` until the daemon answers 200 or the timeout lapses,
//! so scripts can start a daemon in the background and block on
//! readiness without sleeping a fixed amount.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dwm_foundation::bench::Histogram;
use dwm_foundation::json::parse;
use dwm_foundation::rng::Rng;
use dwm_trace::synth::{MarkovGen, TraceGenerator, ZipfGen};

use crate::client::ClientConn;
use crate::engine::ELAPSED_HEADER;

/// Load-run parameters.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Daemon address.
    pub addr: SocketAddr,
    /// Total requests across all clients.
    pub requests: usize,
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Distinct workloads in the pool.
    pub workloads: usize,
    /// Items per workload.
    pub items: usize,
    /// Accesses per workload.
    pub len: usize,
    /// Master seed for the workload pool and the per-client pick RNG.
    pub seed: u64,
    /// Algorithm requested from the server (legacy solve form; ignored
    /// when a tier knob below is set).
    pub algorithm: String,
    /// Tiered-solve quality knob (`"fast"`, `"balanced"`, `"best"`).
    /// Setting this (or `deadline_us`) switches the solve bodies to
    /// the tiered form; in session mode it is forwarded to the session
    /// create request so re-placement runs through the portfolio.
    pub quality: Option<String>,
    /// Tiered-solve deadline budget in microseconds. Responses whose
    /// server-side elapsed time exceeds it count as deadline misses.
    /// In session mode this is forwarded as `replace_deadline_us`.
    pub deadline_us: Option<u64>,
    /// Idle keep-alive connections parked for the whole run (the C10k
    /// proof). Each proves itself live with one `/health` round-trip
    /// before the clock starts, then just sits there; the active
    /// clients must be unaffected. 0 disables.
    pub idle_conns: usize,
}

impl LoadConfig {
    /// Defaults sized for a quick CI smoke run against `addr`.
    pub fn new(addr: SocketAddr) -> Self {
        LoadConfig {
            addr,
            requests: 200,
            clients: 4,
            workloads: 8,
            items: 48,
            len: 2400,
            seed: 7,
            algorithm: "hybrid".to_owned(),
            quality: None,
            deadline_us: None,
            idle_conns: 0,
        }
    }
}

/// Outcome of one load run.
#[derive(Debug)]
pub struct LoadReport {
    /// Requests attempted.
    pub sent: u64,
    /// 2xx responses with consistent bodies.
    pub ok: u64,
    /// Transport failures or non-2xx responses.
    pub errors: u64,
    /// Responses whose body differed from the first one seen for the
    /// same workload — determinism violations.
    pub mismatches: u64,
    /// Responses the server reported as cache hits.
    pub hits: u64,
    /// Responses the server reported as cache misses.
    pub misses: u64,
    /// Wall-clock duration of the whole run.
    pub elapsed: Duration,
    /// Per-request latency distribution (nanoseconds).
    pub latency: Histogram,
    /// Server-side per-request time distribution (microseconds, from
    /// the `x-dwm-elapsed-us` header) — the side the deadline contract
    /// is written against. Empty in session mode.
    pub server_elapsed: Histogram,
    /// Responses whose server-side time exceeded
    /// [`LoadConfig::deadline_us`]. Always zero without a deadline.
    pub deadline_misses: u64,
    /// Idle keep-alive connections held open for the whole run — each
    /// verified live with a `/health` round-trip both before the clock
    /// started *and after the load finished* (a parked connection that
    /// silently died in between counts as an error instead).
    pub idle_held: u64,
}

impl LoadReport {
    /// Requests per second over the run.
    pub fn rps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            self.sent as f64 / secs
        } else {
            0.0
        }
    }

    /// Whether every request succeeded with a consistent body.
    pub fn all_ok(&self) -> bool {
        self.errors == 0 && self.mismatches == 0 && self.ok == self.sent
    }

    /// One-paragraph human summary.
    pub fn summary(&self) -> String {
        let pct = |q: f64| {
            self.latency
                .percentile(q)
                .map_or_else(|| "-".to_owned(), |ns| format!("{:.1}us", ns as f64 / 1e3))
        };
        let mut line = format!(
            "{} requests in {:.2}s ({:.0} req/s): {} ok, {} errors, {} mismatches, \
             {} hits / {} misses, latency p50 {} p90 {} p99 {}",
            self.sent,
            self.elapsed.as_secs_f64(),
            self.rps(),
            self.ok,
            self.errors,
            self.mismatches,
            self.hits,
            self.misses,
            pct(0.50),
            pct(0.90),
            pct(0.99),
        );
        if self.server_elapsed.count() > 0 {
            let server_pct = |q: f64| {
                self.server_elapsed
                    .percentile(q)
                    .map_or_else(|| "-".to_owned(), |us| format!("{us}us"))
            };
            line.push_str(&format!(
                ", server p50 {} p99 {}, {} deadline misses",
                server_pct(0.50),
                server_pct(0.99),
                self.deadline_misses,
            ));
        }
        if self.idle_held > 0 {
            line.push_str(&format!(
                ", {} idle connections held through the run",
                self.idle_held
            ));
        }
        line
    }
}

/// Renders the pool of solve request bodies for `config`.
///
/// Even-indexed workloads draw from a Zipf generator, odd ones from a
/// clustered Markov walk, each with a seed derived from the master
/// seed — a mix of skewed-hot and phase-local access patterns. With a
/// tier knob set the bodies take the tiered form (`quality` /
/// `deadline_us`) instead of the legacy `algorithm` form.
pub fn workload_bodies(config: &LoadConfig) -> Vec<String> {
    let prefix = solve_body_prefix(config);
    (0..config.workloads)
        .map(|k| {
            let seed = config.seed.wrapping_mul(1_000_003).wrapping_add(k as u64);
            let trace = if k % 2 == 0 {
                ZipfGen::new(config.items, seed).generate(config.len)
            } else {
                MarkovGen::new(config.items, 4, seed).generate(config.len)
            };
            let ids: Vec<String> = trace.iter().map(|a| a.item.index().to_string()).collect();
            format!(r#"{{{prefix}"ids":[{}]}}"#, ids.join(","))
        })
        .collect()
}

/// The knob fields preceding `"ids"` in a solve body: tier knobs when
/// any is set, the legacy `algorithm` field otherwise (the two are
/// mutually exclusive on the wire).
fn solve_body_prefix(config: &LoadConfig) -> String {
    if config.quality.is_none() && config.deadline_us.is_none() {
        return format!(r#""algorithm":"{}","#, config.algorithm);
    }
    let mut prefix = String::new();
    if let Some(quality) = &config.quality {
        prefix.push_str(&format!(r#""quality":"{quality}","#));
    }
    if let Some(deadline) = config.deadline_us {
        prefix.push_str(&format!(r#""deadline_us":{deadline},"#));
    }
    prefix
}

/// Runs the closed-loop load test and gathers the report.
///
/// # Errors
///
/// Fails only when a client cannot *connect*; request-level failures
/// are counted in the report instead.
pub fn run(config: &LoadConfig) -> std::io::Result<LoadReport> {
    let bodies = workload_bodies(config);
    // First-seen response body per workload, for the determinism check.
    let reference: Vec<Mutex<Option<String>>> =
        (0..bodies.len()).map(|_| Mutex::new(None)).collect();

    let remaining = AtomicUsize::new(config.requests);
    let ok = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    let mismatches = AtomicU64::new(0);
    let hits = AtomicU64::new(0);
    let misses = AtomicU64::new(0);
    let deadline_misses = AtomicU64::new(0);
    let histograms: Vec<Mutex<Histogram>> = (0..config.clients.max(1))
        .map(|_| Mutex::new(Histogram::new()))
        .collect();
    let server_histograms: Vec<Mutex<Histogram>> = (0..config.clients.max(1))
        .map(|_| Mutex::new(Histogram::new()))
        .collect();

    // C10k proof: park the idle keep-alive connections first, each
    // verified live with one /health round-trip. They sit untouched
    // for the whole run — the event loop must hold them at zero cost
    // while the active clients below get full service.
    let mut idle = Vec::with_capacity(config.idle_conns);
    if config.idle_conns > 0 {
        dwm_foundation::net::raise_nofile_limit();
        for i in 0..config.idle_conns {
            let mut conn = ClientConn::connect(config.addr).map_err(|e| {
                std::io::Error::other(format!(
                    "idle connection {i}/{} failed to open: {e}",
                    config.idle_conns
                ))
            })?;
            let live = conn.get("/health").map(|r| r.is_success()).unwrap_or(false);
            if !live {
                return Err(std::io::Error::other(format!(
                    "idle connection {i}/{} failed its liveness probe",
                    config.idle_conns
                )));
            }
            idle.push(conn);
        }
    }

    // Connect the active clients before starting the clock.
    let mut conns = Vec::new();
    for _ in 0..config.clients.max(1) {
        conns.push(Some(ClientConn::connect(config.addr)?));
    }

    let started = Instant::now();
    std::thread::scope(|s| {
        for (c, conn) in conns.iter_mut().enumerate() {
            let bodies = &bodies;
            let reference = &reference;
            let remaining = &remaining;
            let ok = &ok;
            let errors = &errors;
            let mismatches = &mismatches;
            let hits = &hits;
            let misses = &misses;
            let deadline_misses = &deadline_misses;
            let histogram = &histograms[c];
            let server_histogram = &server_histograms[c];
            let mut conn = conn.take().expect("connection present");
            let mut rng = Rng::seed_from_u64(config.seed ^ (0x9E37 + c as u64));
            s.spawn(move || {
                loop {
                    // Claim one request slot; stop when the budget is
                    // spent.
                    if remaining
                        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
                        .is_err()
                    {
                        break;
                    }
                    let w = rng.gen_range(0..bodies.len());
                    let sent_at = Instant::now();
                    let resp = conn.post_json("/solve", bodies[w].as_str());
                    let nanos = sent_at.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                    histogram.lock().unwrap().record(nanos);
                    let Ok(resp) = resp else {
                        errors.fetch_add(1, Ordering::Relaxed);
                        continue;
                    };
                    if !resp.is_success() {
                        errors.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    if let Some(us) = resp
                        .header(ELAPSED_HEADER)
                        .and_then(|v| v.parse::<u64>().ok())
                    {
                        server_histogram.lock().unwrap().record(us);
                        if config.deadline_us.is_some_and(|budget| us > budget) {
                            deadline_misses.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    let Some(body) = resp.body_str() else {
                        errors.fetch_add(1, Ordering::Relaxed);
                        continue;
                    };
                    tally_cache_labels(body, hits, misses);
                    // Determinism check on the results portion: the
                    // "cache" field legitimately differs between the
                    // first (miss) and later (hit) responses.
                    let results = results_portion(body);
                    let mut slot = reference[w].lock().unwrap();
                    match slot.as_ref() {
                        None => {
                            *slot = Some(results);
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Some(first) if *first == results => {
                            ok.fetch_add(1, Ordering::Relaxed);
                        }
                        Some(_) => {
                            mismatches.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
            });
        }
    });
    let elapsed = started.elapsed();

    // The parked connections must have survived the load untouched:
    // each answers one more /health on the same keep-alive socket. A
    // dead one means the server shed idle connections under load.
    let mut idle_held = 0u64;
    let mut idle_errors = 0u64;
    for conn in &mut idle {
        match conn.get("/health") {
            Ok(r) if r.is_success() => idle_held += 1,
            _ => idle_errors += 1,
        }
    }
    drop(idle);

    let mut latency = Histogram::new();
    for h in &histograms {
        latency.merge(&h.lock().unwrap());
    }
    let mut server_elapsed = Histogram::new();
    for h in &server_histograms {
        server_elapsed.merge(&h.lock().unwrap());
    }
    Ok(LoadReport {
        sent: config.requests as u64,
        ok: ok.load(Ordering::Relaxed),
        errors: errors.load(Ordering::Relaxed) + idle_errors,
        mismatches: mismatches.load(Ordering::Relaxed),
        hits: hits.load(Ordering::Relaxed),
        misses: misses.load(Ordering::Relaxed),
        elapsed,
        latency,
        server_elapsed,
        deadline_misses: deadline_misses.load(Ordering::Relaxed),
        idle_held,
    })
}

/// Renders the per-stream access sequences for session-mode load:
/// the same Zipf/Markov mix as [`workload_bodies`], as raw id vectors.
/// Sessions are assigned streams round-robin, so with more sessions
/// than streams several sessions replay the *same* stream — the
/// determinism check compares their placements at the end.
pub fn session_streams(config: &LoadConfig) -> Vec<Vec<u32>> {
    (0..config.workloads)
        .map(|k| {
            let seed = config.seed.wrapping_mul(1_000_003).wrapping_add(k as u64);
            let trace = if k % 2 == 0 {
                ZipfGen::new(config.items, seed).generate(config.len)
            } else {
                MarkovGen::new(config.items, 4, seed).generate(config.len)
            };
            trace.iter().map(|a| a.item.index() as u32).collect()
        })
        .collect()
}

/// Accesses per ingest request in session mode.
pub const SESSION_CHUNK: usize = 256;

/// Session-mode load: opens `sessions` streaming sessions, streams
/// each its workload in [`SESSION_CHUNK`]-access chunks closed-loop
/// (clients own disjoint session subsets and round-robin over them),
/// and reports ingest latency percentiles. After the streams drain,
/// sessions that replayed the same stream must answer `GET
/// …/placement` byte-identically (minus the session id) — any
/// difference counts as a mismatch.
///
/// # Errors
///
/// Fails when a connection cannot be established or a session cannot
/// be created; ingest-level failures are counted in the report.
pub fn run_sessions(config: &LoadConfig, sessions: usize) -> std::io::Result<LoadReport> {
    let streams = session_streams(config);
    let chunk_bodies: Vec<Vec<String>> = streams
        .iter()
        .map(|stream| {
            stream
                .chunks(SESSION_CHUNK)
                .map(|chunk| {
                    let ids: Vec<String> = chunk.iter().map(u32::to_string).collect();
                    format!(r#"{{"ids":[{}]}}"#, ids.join(","))
                })
                .collect()
        })
        .collect();

    // A control connection creates every session up front, then
    // closes before any client connects, so the streaming phase runs
    // over the client connections alone. Holding it open would cost
    // the daemon one idle connection (a file descriptor) and no
    // worker: workers serve requests, not connections.
    let mut session_ids: Vec<(String, usize)> = Vec::new(); // (id, stream)
    {
        let mut create_body = String::from(r#"{"window":256,"migration_shifts_per_item":8"#);
        if let Some(quality) = &config.quality {
            create_body.push_str(&format!(r#","quality":"{quality}""#));
        }
        if let Some(deadline) = config.deadline_us {
            create_body.push_str(&format!(r#","replace_deadline_us":{deadline}"#));
        }
        create_body.push('}');
        let mut control = ClientConn::connect(config.addr)?;
        for k in 0..sessions {
            let resp = control.post_json("/session", create_body.as_str())?;
            let id = resp
                .body_str()
                .filter(|_| resp.is_success())
                .and_then(|b| parse(b).ok())
                .and_then(|v| v.as_object().and_then(|o| o.get("session").cloned()))
                .and_then(|v| v.as_str().map(str::to_owned))
                .ok_or_else(|| {
                    std::io::Error::other(format!("session create answered without an id ({k})"))
                })?;
            session_ids.push((id, k % streams.len()));
        }
    }

    let clients = config.clients.max(1).min(sessions.max(1));
    let ok = AtomicU64::new(0);
    let errors = AtomicU64::new(0);
    let sent = AtomicU64::new(0);
    let histograms: Vec<Mutex<Histogram>> =
        (0..clients).map(|_| Mutex::new(Histogram::new())).collect();
    let mut conns = Vec::new();
    for _ in 0..clients {
        conns.push(Some(ClientConn::connect(config.addr)?));
    }

    let started = Instant::now();
    std::thread::scope(|s| {
        for (c, conn) in conns.iter_mut().enumerate() {
            // Client c owns sessions c, c+clients, c+2·clients, …
            let owned: Vec<&(String, usize)> =
                session_ids.iter().skip(c).step_by(clients).collect();
            let chunk_bodies = &chunk_bodies;
            let ok = &ok;
            let errors = &errors;
            let sent = &sent;
            let histogram = &histograms[c];
            let mut conn = conn.take().expect("connection present");
            s.spawn(move || {
                // Round-robin chunk j over every owned session before
                // moving to chunk j+1 — all sessions progress together.
                let max_chunks = owned
                    .iter()
                    .map(|(_, w)| chunk_bodies[*w].len())
                    .max()
                    .unwrap_or(0);
                for j in 0..max_chunks {
                    for (id, w) in &owned {
                        let Some(body) = chunk_bodies[*w].get(j) else {
                            continue;
                        };
                        sent.fetch_add(1, Ordering::Relaxed);
                        let sent_at = Instant::now();
                        let resp =
                            conn.post_json(&format!("/session/{id}/accesses"), body.as_str());
                        let nanos = sent_at.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
                        histogram.lock().unwrap().record(nanos);
                        match resp {
                            Ok(r) if r.is_success() => {
                                ok.fetch_add(1, Ordering::Relaxed);
                            }
                            _ => {
                                errors.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                    }
                }
            });
        }
    });
    let elapsed = started.elapsed();

    // Determinism check: sessions that replayed the same stream must
    // hold identical placements (the body differs only in the id).
    // Fresh connection — the streaming ones have closed by now.
    let mut control = ClientConn::connect(config.addr)?;
    let mut mismatches = 0u64;
    let mut reference: Vec<Option<String>> = vec![None; streams.len()];
    for (id, w) in &session_ids {
        let Ok(resp) = control.get(&format!("/session/{id}/placement")) else {
            mismatches += 1;
            continue;
        };
        let Some(body) = resp.body_str().filter(|_| resp.is_success()) else {
            mismatches += 1;
            continue;
        };
        // Strip the leading `{"session":"s-…",` so only state remains.
        let state = body.split_once(',').map_or(body, |(_, rest)| rest);
        match &reference[*w] {
            None => reference[*w] = Some(state.to_owned()),
            Some(first) if first == state => {}
            Some(_) => mismatches += 1,
        }
    }

    let mut latency = Histogram::new();
    for h in &histograms {
        latency.merge(&h.lock().unwrap());
    }
    Ok(LoadReport {
        sent: sent.load(Ordering::Relaxed),
        ok: ok.load(Ordering::Relaxed),
        errors: errors.load(Ordering::Relaxed),
        mismatches,
        hits: 0,
        misses: 0,
        elapsed,
        latency,
        server_elapsed: Histogram::new(),
        deadline_misses: 0,
        idle_held: 0,
    })
}

/// Polls `GET /health` until the daemon answers 200 or `timeout`
/// lapses — the scripted replacement for spin-waiting on a freshly
/// started daemon. Returns how long readiness took.
///
/// # Errors
///
/// `TimedOut` when the daemon never became ready. A zero timeout
/// makes exactly one attempt (a fail-fast liveness probe).
pub fn wait_ready(addr: SocketAddr, timeout: Duration) -> std::io::Result<Duration> {
    let started = Instant::now();
    loop {
        if let Ok(resp) = ClientConn::connect(addr).and_then(|mut conn| conn.get("/health")) {
            if resp.is_success() {
                return Ok(started.elapsed());
            }
        }
        if started.elapsed() >= timeout {
            return Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                format!(
                    "daemon at {addr} not ready within {:.1}s",
                    timeout.as_secs_f64()
                ),
            ));
        }
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// Extracts the `"results":…` suffix of a solve body — the part that
/// must be byte-identical across repeats (the `cache` prefix is not).
fn results_portion(body: &str) -> String {
    body.split_once(r#""results":"#)
        .map_or_else(|| body.to_owned(), |(_, rest)| rest.to_owned())
}

fn tally_cache_labels(body: &str, hits: &AtomicU64, misses: &AtomicU64) {
    let Ok(value) = parse(body) else { return };
    let Some(labels) = value.as_object().and_then(|o| o.get("cache")) else {
        return;
    };
    let Some(arr) = labels.as_array() else { return };
    for label in arr {
        // Legacy solves label with bare strings; tiered solves with
        // provenance objects carrying a "status" field.
        let status = label.as_str().or_else(|| {
            label
                .as_object()
                .and_then(|o| o.get("status"))
                .and_then(|v| v.as_str())
        });
        match status {
            Some("hit") => {
                hits.fetch_add(1, Ordering::Relaxed);
            }
            Some("miss") => {
                misses.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{start, ServeConfig};

    #[test]
    fn load_run_is_clean_and_mostly_cached() {
        let handle = start(ServeConfig {
            workers: 2,
            cache_capacity: 64,
            ..ServeConfig::ephemeral()
        })
        .unwrap();
        let config = LoadConfig {
            requests: 40,
            clients: 3,
            workloads: 4,
            items: 24,
            len: 600,
            ..LoadConfig::new(handle.local_addr())
        };
        let report = run(&config).unwrap();
        handle.shutdown();
        handle.join();

        assert!(report.all_ok(), "{}", report.summary());
        assert_eq!(report.sent, 40);
        // Once a workload is cached every later request hits; only the
        // racing first solves can miss, so at most clients × workloads
        // misses (and in practice far fewer).
        assert!(report.misses <= 12, "{}", report.summary());
        assert!(report.hits >= report.sent - 12, "{}", report.summary());
        assert_eq!(report.hits + report.misses, report.sent);
        assert_eq!(report.latency.count(), 40);
        assert!(report.rps() > 0.0);
        assert!(report.summary().contains("req/s"));
    }

    #[test]
    fn session_load_streams_and_matches_placements() {
        let handle = start(ServeConfig {
            workers: 2,
            session_capacity: 16,
            ..ServeConfig::ephemeral()
        })
        .unwrap();
        let config = LoadConfig {
            clients: 3,
            workloads: 2,
            items: 24,
            len: 1200,
            ..LoadConfig::new(handle.local_addr())
        };
        // Four sessions over two streams: 0 and 2 replay stream 0,
        // 1 and 3 replay stream 1 — the placement cross-check runs.
        let report = run_sessions(&config, 4).unwrap();
        handle.shutdown();
        handle.join();

        assert!(report.all_ok(), "{}", report.summary());
        // ceil(1200 / 256) = 5 chunks per stream, times 4 sessions.
        assert_eq!(report.sent, 20);
        assert_eq!(report.latency.count(), 20);
        assert_eq!(report.hits + report.misses, 0);
    }

    #[test]
    fn tiered_load_meets_the_fast_deadline_contract() {
        let handle = start(ServeConfig {
            workers: 2,
            cache_capacity: 64,
            ..ServeConfig::ephemeral()
        })
        .unwrap();
        let config = LoadConfig {
            requests: 30,
            clients: 3,
            workloads: 3,
            items: 24,
            len: 600,
            quality: Some("fast".to_owned()),
            // Generous budget: tier 0 on a 24-item workload finishes in
            // well under a second even in debug builds.
            deadline_us: Some(1_000_000),
            ..LoadConfig::new(handle.local_addr())
        };
        let report = run(&config).unwrap();
        handle.shutdown();
        handle.join();

        assert!(report.all_ok(), "{}", report.summary());
        // Object-form cache labels are tallied like legacy strings.
        assert_eq!(report.hits + report.misses, report.sent);
        assert_eq!(report.server_elapsed.count(), 30);
        assert_eq!(report.deadline_misses, 0, "{}", report.summary());
        assert!(
            report.server_elapsed.percentile(0.99).unwrap() <= 1_000_000,
            "{}",
            report.summary()
        );
        assert!(report.summary().contains("deadline misses"));
    }

    #[test]
    fn tiered_session_load_forwards_knobs_and_matches_placements() {
        let handle = start(ServeConfig {
            workers: 2,
            session_capacity: 16,
            ..ServeConfig::ephemeral()
        })
        .unwrap();
        let config = LoadConfig {
            clients: 2,
            workloads: 2,
            items: 24,
            len: 600,
            quality: Some("balanced".to_owned()),
            deadline_us: Some(500_000),
            ..LoadConfig::new(handle.local_addr())
        };
        // Sessions 0 and 2 replay stream 0, 1 and 3 stream 1: the
        // cross-check proves tiered re-placement is deterministic.
        let report = run_sessions(&config, 4).unwrap();
        handle.shutdown();
        handle.join();

        assert!(report.all_ok(), "{}", report.summary());
        assert_eq!(report.sent, 12); // ceil(600/256)=3 chunks × 4 sessions
    }

    #[test]
    fn idle_connections_survive_an_active_load_run() {
        let handle = start(ServeConfig {
            workers: 2,
            cache_capacity: 64,
            ..ServeConfig::ephemeral()
        })
        .unwrap();
        let config = LoadConfig {
            requests: 30,
            clients: 3,
            workloads: 3,
            items: 24,
            len: 600,
            idle_conns: 200,
            ..LoadConfig::new(handle.local_addr())
        };
        let report = run(&config).unwrap();
        handle.shutdown();
        handle.join();

        assert!(report.all_ok(), "{}", report.summary());
        assert_eq!(report.idle_held, 200, "{}", report.summary());
        // The parked connections never send requests, so the request
        // tally is untouched by them.
        assert_eq!(report.sent, 30);
        assert!(report.summary().contains("200 idle connections"));
    }

    #[test]
    fn wait_ready_answers_for_a_live_daemon_and_fails_fast_otherwise() {
        let handle = start(ServeConfig {
            workers: 1,
            ..ServeConfig::ephemeral()
        })
        .unwrap();
        let addr = handle.local_addr();
        let took = wait_ready(addr, Duration::from_secs(5)).unwrap();
        assert!(took < Duration::from_secs(5));
        handle.shutdown();
        handle.join();

        // The port is closed now: a zero timeout makes one attempt and
        // reports TimedOut instead of hanging.
        let err = wait_ready(addr, Duration::ZERO).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::TimedOut);
        assert!(err.to_string().contains("not ready"));
    }

    #[test]
    fn workload_bodies_render_the_requested_knob_form() {
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let legacy = workload_bodies(&LoadConfig::new(addr));
        assert!(legacy[0].starts_with(r#"{"algorithm":"hybrid","ids":["#));

        let tiered = workload_bodies(&LoadConfig {
            quality: Some("fast".to_owned()),
            deadline_us: Some(500),
            ..LoadConfig::new(addr)
        });
        assert!(tiered[0].starts_with(r#"{"quality":"fast","deadline_us":500,"ids":["#));
        // Same trace pool either way — only the knob prefix differs.
        assert_eq!(
            legacy[0].split_once(r#""ids":"#).map(|x| x.1.to_owned()),
            tiered[0].split_once(r#""ids":"#).map(|x| x.1.to_owned()),
        );

        let deadline_only = workload_bodies(&LoadConfig {
            deadline_us: Some(500),
            ..LoadConfig::new(addr)
        });
        assert!(deadline_only[0].starts_with(r#"{"deadline_us":500,"ids":["#));
    }

    #[test]
    fn workload_bodies_are_reproducible_and_mixed() {
        let addr: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let a = workload_bodies(&LoadConfig::new(addr));
        let b = workload_bodies(&LoadConfig::new(addr));
        assert_eq!(a, b);
        assert_eq!(a.len(), 8);
        // Distinct workloads render distinct bodies.
        assert!(a.iter().collect::<std::collections::HashSet<_>>().len() == a.len());
    }

    #[test]
    fn results_portion_strips_the_cache_prefix() {
        let hit = r#"{"cache":["hit"],"results":[{"cost":1}]}"#;
        let miss = r#"{"cache":["miss"],"results":[{"cost":1}]}"#;
        assert_eq!(results_portion(hit), results_portion(miss));
    }
}
