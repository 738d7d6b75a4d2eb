//! The three workloads: inputs, set-up, the measured loop, and the
//! checks on every answer.
//!
//! All three are closed loops. An open-loop workload (Poisson arrivals
//! against a two-shard cluster) was measured and dropped: queueing
//! behind the machine's stalls made its latency the least steady
//! number of all (see the package README).

use std::time::{Duration, Instant};

use dwm_foundation::json::Value;
use dwm_foundation::net::{Request, Response};
use dwm_serve::engine::ELAPSED_HEADER;
use dwm_serve::ClientConn;

use crate::check::{self, Shifts};
use crate::daemon::{self, Daemon};
use crate::gate::Timing;
use crate::inputs;

/// A named traffic shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, one connection, every request a cache hit.
    SolveHit,
    /// Closed loop, one connection, every request a never-seen miss.
    SolveMiss,
    /// Closed loop, one connection, streaming sessions.
    SessionStream,
}

/// Daemon start-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// The replay's sample sizes.
const REPLAY_HITS: usize = 800;
const REPLAY_MISSES: usize = 40;

impl Workload {
    /// Every workload, in catalog order.
    pub const ALL: [Workload; 3] = [
        Workload::SolveHit,
        Workload::SolveMiss,
        Workload::SessionStream,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SolveHit => "solve_hit",
            Workload::SolveMiss => "solve_miss",
            Workload::SessionStream => "session_stream",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The latency limit `within_slo_pct` counts against.
    pub fn limit(self) -> Duration {
        Duration::from_millis(match self {
            Workload::SolveHit => 2,
            Workload::SolveMiss => 25,
            Workload::SessionStream => 10,
        })
    }
}

/// One measured request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Due, send and answer times, ns since the measured span began.
    pub t: Timing,
    /// Answered 2xx and passed its checks.
    pub ok: bool,
    /// The daemon's own `x-dwm-elapsed-us` for it.
    pub server_us: Option<u64>,
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests of the measured span.
    pub samples: Vec<Sample>,
    /// Length of the measured span.
    pub span_ns: u64,
    /// Daemon CPU time (ns) spent on the measured span's requests.
    pub cpu_ns: u64,
    /// Share of the machine's CPU time the hypervisor stole during the
    /// measured span, in percent.
    pub steal_pct: f64,
    /// Daemon peak resident set at the end of the measured span.
    pub peak_rss: u64,
    /// Seconds each set-up took.
    pub setups: Vec<f64>,
    /// The shifts of the workload's reference corpus, complete.
    pub shifts: Vec<Shifts>,
    /// Measured solve answers labelled hit.
    pub hits: u64,
    /// Measured solve answers carrying a cache label.
    pub labeled: u64,
    /// Cache evictions reported by `/stats`.
    pub evictions: u64,
    /// Requests refused with 503 or 408 during the run.
    pub rejected: u64,
    /// Session ingests sent.
    pub ingests: u64,
    /// Re-placements adopted across all sessions.
    pub replacements: u64,
    /// Every request sent to the daemon.
    pub attempted: u64,
    /// Failed requests and failed checks.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl Outcome {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(msg);
        }
    }
}

fn io(e: std::io::Error) -> String {
    e.to_string()
}

fn server_us(resp: &Response) -> Option<u64> {
    resp.header(ELAPSED_HEADER).and_then(|v| v.parse().ok())
}

/// A primed workload: its ids and its request.
struct Primed {
    ids: Vec<u32>,
    req: Request,
}

fn primed(ids: Vec<u32>) -> Primed {
    let req = Request::post("/solve", inputs::hybrid_body(&ids));
    Primed { ids, req }
}

/// Runs `workload` for `seconds` of measurement and, when `trace` is
/// set, the traced replay after it.
///
/// # Errors
///
/// The harness itself failing: the daemon not starting or dropping a
/// connection. Failed requests and checks are counted in the outcome
/// instead.
pub fn run(
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
) -> Result<(Outcome, Option<crate::replay::Metrics>), String> {
    let span = Duration::from_secs(seconds);
    let warmup = (span / 10).clamp(Duration::from_millis(200), Duration::from_secs(1));
    let mut out = Outcome::default();

    // Inputs are built before any daemon starts: generating them is
    // neither set-up nor measured work.
    let primed_set: Vec<Primed> = match workload {
        Workload::SolveHit => (0..inputs::HIT_WORKLOADS)
            .map(|k| primed(inputs::hit_ids(seed, k)))
            .collect(),
        _ => Vec::new(),
    };
    let streams: Vec<Vec<u32>> = match workload {
        Workload::SessionStream => (0..inputs::STREAMS)
            .map(|k| inputs::session_stream(seed, k))
            .collect(),
        _ => Vec::new(),
    };

    let (daemon, expected) = set_up(&primed_set, &mut out)?;
    let metrics_before = get(&daemon, "/metrics")?;
    match workload {
        Workload::SolveHit => {
            let mut traffic = Hits {
                reqs: primed_set.iter().map(|p| p.req.clone()).collect(),
                expected: expected.clone(),
                next: 0,
                current: 0,
            };
            closed_loop(&daemon, &mut traffic, warmup, span, &mut out)?;
            out.hits = out.samples.iter().filter(|s| s.ok).count() as u64;
            out.labeled = out.samples.len() as u64;
        }
        Workload::SolveMiss => {
            let mut traffic = Misses {
                seed,
                next: 0,
                answers: Vec::new(),
            };
            closed_loop(&daemon, &mut traffic, warmup, span, &mut out)?;
            out.labeled = out.samples.len() as u64;
            for (i, resp) in traffic.answers {
                if let Err(e) = check::solve(&inputs::miss_ids(seed, i), &resp, "miss") {
                    out.fail(format!("solve_miss request {i}: {e}"));
                }
            }
        }
        Workload::SessionStream => {
            let mut traffic = Sessions::new(streams, inputs::SESSIONS);
            closed_loop(&daemon, &mut traffic, warmup, span, &mut out)?;
            out.ingests = traffic.ingests;
        }
    }

    let stats = check::object(&get(&daemon, "/stats")?)?;
    out.evictions = stat(&stats, "cache", "evictions");
    out.replacements = stat(&stats, "sessions", "replacements");
    let metrics_after = get(&daemon, "/metrics")?;
    let refused = |text: &str| {
        counter(text, "dwm_net_connections_rejected_total")
            + counter(text, "dwm_net_read_timeouts_total")
    };
    out.rejected = refused(metrics_after.body_str().unwrap_or(""))
        .saturating_sub(refused(metrics_before.body_str().unwrap_or("")));
    out.peak_rss = daemon.peak_rss_bytes().map_err(io)?;
    reference(workload, &daemon, &mut out)?;
    daemon.stop().map_err(io)?;

    let layers = if trace {
        Some(replay(workload, seed, &primed_set)?)
    } else {
        None
    };
    Ok((out, layers))
}

fn get(daemon: &Daemon, path: &str) -> Result<Response, String> {
    ClientConn::connect(daemon.addr)
        .and_then(|mut c| c.get(path))
        .map_err(|e| format!("GET {path}: {e}"))
}

/// `/stats` `section.field`, or 0 when the section lacks it.
fn stat(stats: &dwm_foundation::json::Object, section: &str, field: &str) -> u64 {
    stats
        .get(section)
        .and_then(Value::as_object)
        .and_then(|s| check::uint(s, field).ok())
        .unwrap_or(0)
}

/// Sum of every series of a Prometheus counter.
fn counter(exposition: &str, name: &str) -> u64 {
    exposition
        .lines()
        .filter(|l| {
            l.strip_prefix(name)
                .is_some_and(|rest| rest.starts_with(' ') || rest.starts_with('{'))
        })
        .filter_map(|l| l.rsplit(' ').next()?.parse::<f64>().ok())
        .sum::<f64>() as u64
}

/// Starts the daemon `SETUPS` times — spawn, health, priming — and
/// keeps the last one. Returns it with the body every later hit on
/// each primed workload must repeat.
fn set_up(primed: &[Primed], out: &mut Outcome) -> Result<(Daemon, Vec<Vec<u8>>), String> {
    let mut expected: Vec<Vec<u8>> = Vec::new();
    let mut daemon: Option<Daemon> = None;
    for round in 0..SETUPS {
        if let Some(d) = daemon.take() {
            d.stop().map_err(io)?;
        }
        let t0 = Instant::now();
        let d = Daemon::spawn().map_err(io)?;
        let mut conn = ClientConn::connect(d.addr).map_err(io)?;
        for (k, p) in primed.iter().enumerate() {
            out.attempted += 1;
            let resp = conn.request(&p.req).map_err(io)?;
            match check::solve(&p.ids, &resp, "miss") {
                Ok(_) if round == 0 => expected.push(check::expected_hit_body(&resp)?),
                Ok(_) if check::expected_hit_body(&resp)? != expected[k] => {
                    out.fail(format!(
                        "primed workload {k} answered differently on restart"
                    ));
                }
                Ok(_) => {}
                Err(e) => {
                    out.fail(format!("priming workload {k}: {e}"));
                    if round == 0 {
                        expected.push(Vec::new());
                    }
                }
            }
        }
        out.setups.push(t0.elapsed().as_secs_f64());
        daemon = Some(d);
    }
    Ok((daemon.expect("at least one set-up"), expected))
}

/// Sends the workload's reference corpus after the measured span, one
/// request after another, and keeps its shifts for
/// `shift_reduction_pct`: [`inputs::REFERENCE`] never-seen solves of
/// the workload's shape, or one whole session lifecycle per reference
/// stream. The corpus comes from a fixed seed and is answered in full
/// before the run reports, so the metric is one exact number per
/// commit, whatever the `--seed`, the run length or the machine's
/// speed. Every answer is checked like a measured one.
fn reference(workload: Workload, daemon: &Daemon, out: &mut Outcome) -> Result<(), String> {
    let mut conn = ClientConn::connect(daemon.addr).map_err(io)?;
    let mut fails = Vec::new();
    if workload == Workload::SessionStream {
        let streams = (0..inputs::STREAMS).map(inputs::reference_stream).collect();
        let mut traffic = Sessions::new(streams, inputs::STREAMS);
        loop {
            if let Some(shifts) = traffic.shifts() {
                out.shifts = shifts;
                break;
            }
            let req = traffic.next();
            out.attempted += 1;
            traffic.answer(conn.request(&req).map_err(io)?, &mut fails);
        }
    } else {
        let miss = workload == Workload::SolveMiss;
        for k in 0..inputs::REFERENCE {
            let (ids, body) = if miss {
                let ids = inputs::reference_miss_ids(k);
                let body = inputs::balanced_body(&ids);
                (ids, body)
            } else {
                let ids = inputs::reference_small_ids(k);
                let body = inputs::hybrid_body(&ids);
                (ids, body)
            };
            out.attempted += 1;
            let resp = conn.request(&Request::post("/solve", body)).map_err(io)?;
            match check::solve(&ids, &resp, "miss") {
                Ok(shifts) => out.shifts.push(shifts),
                Err(e) => fails.push(format!("reference workload {k}: {e}")),
            }
        }
    }
    for f in fails {
        out.fail(f);
    }
    Ok(())
}

/// A closed-loop request sequence.
trait Traffic {
    /// The next request; building it is the generator's think time.
    fn next(&mut self) -> Request;
    /// Checks one answer, pushing a message per failed check.
    fn answer(&mut self, resp: Response, fails: &mut Vec<String>);
}

/// Sends `traffic` over one keep-alive connection, each request after
/// the previous answer, for `warmup` and then `span` of measurement.
fn closed_loop(
    daemon: &Daemon,
    traffic: &mut dyn Traffic,
    warmup: Duration,
    span: Duration,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut conn = ClientConn::connect(daemon.addr).map_err(io)?;
    let origin = Instant::now();
    let ns = || origin.elapsed().as_nanos() as u64;
    let (from, span) = (warmup.as_nanos() as u64, span.as_nanos() as u64);
    let mut start: Option<u64> = None;
    let mut marks = None;
    let mut due = 0u64;
    let mut fails = Vec::new();
    loop {
        let now = ns();
        if start.is_none() && now >= from {
            start = Some(now);
            marks = Some(SpanStart::now(daemon)?);
        }
        if start.is_some_and(|begin| now - begin >= span) {
            break;
        }
        let req = traffic.next();
        let sent = ns();
        let result = conn.request(&req);
        let done = ns();
        out.attempted += 1;
        let server = match result {
            Ok(resp) => {
                let server = server_us(&resp);
                traffic.answer(resp, &mut fails);
                server
            }
            Err(e) => {
                fails.push(format!("transport: {e}"));
                conn = ClientConn::connect(daemon.addr).map_err(io)?;
                None
            }
        };
        let ok = fails.is_empty();
        for f in fails.drain(..) {
            out.fail(f);
        }
        if let Some(begin) = start {
            out.samples.push(Sample {
                t: Timing {
                    due: due.saturating_sub(begin),
                    sent: sent - begin,
                    done: done - begin,
                },
                ok,
                server_us: server,
            });
        }
        due = done;
    }
    if let Some(marks) = marks {
        marks.end(daemon, out)?;
    }
    out.span_ns = span;
    Ok(())
}

/// The daemon's CPU time and the machine's CPU ticks when the measured
/// span began.
struct SpanStart {
    cpu_ns: u64,
    host: (u64, u64),
}

impl SpanStart {
    fn now(daemon: &Daemon) -> Result<SpanStart, String> {
        Ok(SpanStart {
            cpu_ns: daemon.cpu_ns().map_err(io)?,
            host: daemon::host_ticks().map_err(io)?,
        })
    }

    /// Records the daemon's CPU time and the machine's steal share
    /// since the span began.
    fn end(self, daemon: &Daemon, out: &mut Outcome) -> Result<(), String> {
        out.cpu_ns = daemon.cpu_ns().map_err(io)? - self.cpu_ns;
        let (steal, total) = daemon::host_ticks().map_err(io)?;
        let total = total.saturating_sub(self.host.1);
        out.steal_pct = if total == 0 {
            0.0
        } else {
            steal.saturating_sub(self.host.0) as f64 * 100.0 / total as f64
        };
        Ok(())
    }
}

/// `solve_hit`: cycles over the primed workloads.
struct Hits {
    reqs: Vec<Request>,
    expected: Vec<Vec<u8>>,
    next: usize,
    current: usize,
}

impl Traffic for Hits {
    fn next(&mut self) -> Request {
        self.current = self.next % self.reqs.len();
        self.next += 1;
        self.reqs[self.current].clone()
    }

    fn answer(&mut self, resp: Response, fails: &mut Vec<String>) {
        if resp.status != 200 || resp.body != self.expected[self.current] {
            fails.push(format!(
                "hit on workload {} answered {} with a body other than its first answer's",
                self.current, resp.status
            ));
        }
    }
}

/// `solve_miss`: request `i` solves a workload generated from
/// `(seed, i)`; answers are checked after the run.
struct Misses {
    seed: u64,
    next: usize,
    answers: Vec<(usize, Response)>,
}

impl Traffic for Misses {
    fn next(&mut self) -> Request {
        let ids = inputs::miss_ids(self.seed, self.next);
        self.next += 1;
        Request::post("/solve", inputs::balanced_body(&ids))
    }

    fn answer(&mut self, resp: Response, fails: &mut Vec<String>) {
        if resp.is_success() {
            self.answers.push((self.next - 1, resp));
        } else {
            fails.push(format!("miss answered {}", resp.status));
        }
    }
}

/// How a session ended one lifecycle.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct SessionEnd {
    /// `naive_shifts`, `access_shifts`, `migration_shifts`.
    shifts: [u64; 3],
    placement: Vec<usize>,
    cost: u64,
    naive_cost: u64,
    fingerprint: String,
}

/// Turns each session slot sits out before its first lifecycle,
/// times its index.
const STAGGER: usize = 4;

/// One session slot. A slot's lifecycle creates a session, ingests its
/// stream chunk by chunk, reads the session's stats and placement, and
/// closes it; then it starts over. Slot `k` of `n` replays stream
/// `k % streams`, so with twice as many slots as streams, slots `k`
/// and `k + streams` are twins.
#[derive(Default)]
struct Slot {
    /// Turns left to sit out.
    delay: usize,
    /// Position in the lifecycle.
    step: usize,
    id: String,
    end: SessionEnd,
    first: Option<SessionEnd>,
}

/// `session_stream`: the slots take turns, one request per turn.
/// Staggered starts spread the streams' phase changes — and the
/// re-placements they trigger — evenly over time, so any stretch of
/// the run holds alike mixes of cheap and costly ingests and where the
/// measured span starts or ends does not bias its totals.
struct Sessions {
    streams: Vec<Vec<u32>>,
    /// Ingest bodies, by stream and chunk.
    chunks: Vec<Vec<String>>,
    slots: Vec<Slot>,
    current: usize,
    ingests: u64,
}

enum SessionStep {
    Create,
    Ingest(usize),
    Stats,
    Placement,
    Delete,
}

impl Sessions {
    fn new(streams: Vec<Vec<u32>>, slots: usize) -> Self {
        let chunks = streams
            .iter()
            .map(|s| s.chunks(inputs::CHUNK).map(inputs::chunk_body).collect())
            .collect();
        Sessions {
            streams,
            chunks,
            slots: (0..slots)
                .map(|k| Slot {
                    delay: k * STAGGER,
                    ..Slot::default()
                })
                .collect(),
            current: slots - 1,
            ingests: 0,
        }
    }

    fn stream(&self, k: usize) -> usize {
        k % self.streams.len()
    }

    /// The shifts of every slot's first lifecycle, once all have ended
    /// one: `naive_shifts` against `access_shifts + migration_shifts`.
    fn shifts(&self) -> Option<Vec<Shifts>> {
        self.slots
            .iter()
            .map(|s| {
                s.first.as_ref().map(|e| Shifts {
                    naive: e.shifts[0],
                    cost: e.shifts[1] + e.shifts[2],
                })
            })
            .collect()
    }

    fn step(&self, k: usize) -> SessionStep {
        let chunks = self.chunks[self.stream(k)].len();
        match self.slots[k].step {
            0 => SessionStep::Create,
            s if s <= chunks => SessionStep::Ingest(s - 1),
            s if s == chunks + 1 => SessionStep::Stats,
            s if s == chunks + 2 => SessionStep::Placement,
            _ => SessionStep::Delete,
        }
    }

    /// Lifecycle-end checks: the placement's costs match the client's
    /// replay of the stream, twins agree, and every lifecycle of a slot
    /// ends as its first did.
    fn close(&mut self, k: usize, fails: &mut Vec<String>) {
        let end = std::mem::take(&mut self.slots[k].end);
        if let Err(e) = check_session(&self.streams[self.stream(k)], &end) {
            fails.push(format!("session slot {k}: {e}"));
        }
        match &self.slots[k].first {
            Some(first) if *first != end => {
                fails.push(format!(
                    "session slot {k} ended differently from its first lifecycle"
                ));
            }
            Some(_) => {}
            None => {
                let twin = (k + self.streams.len()) % self.slots.len();
                if self.slots[twin].first.as_ref().is_some_and(|t| *t != end) {
                    fails.push(format!(
                        "twin session slots {k} and {twin} ended differently"
                    ));
                }
                self.slots[k].first = Some(end);
            }
        }
    }
}

/// A session's placement is a permutation whose cost and naive cost
/// equal the client's recomputation over the whole stream.
fn check_session(stream: &[u32], end: &SessionEnd) -> Result<(), String> {
    let (want, _) = check::replay(stream, &end.placement)?;
    let got = Shifts {
        naive: end.naive_cost,
        cost: end.cost,
    };
    if got != want {
        return Err(format!("body says {got:?}, recomputed {want:?}"));
    }
    Ok(())
}

impl Traffic for Sessions {
    fn next(&mut self) -> Request {
        loop {
            self.current = (self.current + 1) % self.slots.len();
            let slot = &mut self.slots[self.current];
            if slot.delay == 0 {
                break;
            }
            slot.delay -= 1;
        }
        let k = self.current;
        let id = self.slots[k].id.clone();
        match self.step(k) {
            SessionStep::Create => {
                Request::post("/session", format!("{{\"window\":{}}}", inputs::WINDOW))
            }
            SessionStep::Ingest(c) => {
                self.ingests += 1;
                Request::post(
                    &format!("/session/{id}/accesses"),
                    self.chunks[self.stream(k)][c].clone(),
                )
            }
            SessionStep::Stats => Request::new("GET", &format!("/session/{id}/stats")),
            SessionStep::Placement => Request::new("GET", &format!("/session/{id}/placement")),
            SessionStep::Delete => Request::new("DELETE", &format!("/session/{id}")),
        }
    }

    fn answer(&mut self, resp: Response, fails: &mut Vec<String>) {
        let k = self.current;
        let step = self.step(k);
        let len = self.streams[self.stream(k)].len();
        let read = |body: &dwm_foundation::json::Object, slot: &mut Slot| -> Result<(), String> {
            match step {
                SessionStep::Create => {
                    slot.id = body
                        .get("session")
                        .and_then(Value::as_str)
                        .ok_or("create answered no session id")?
                        .to_owned();
                }
                SessionStep::Ingest(c) => {
                    let sent = inputs::CHUNK.min(len - c * inputs::CHUNK);
                    if check::uint(body, "accepted")? != sent as u64 {
                        return Err("ingest accepted a different count".into());
                    }
                }
                SessionStep::Stats => {
                    slot.end.shifts = [
                        check::uint(body, "naive_shifts")?,
                        check::uint(body, "access_shifts")?,
                        check::uint(body, "migration_shifts")?,
                    ];
                }
                SessionStep::Placement => {
                    slot.end.placement = check::uints(body, "placement")?;
                    slot.end.cost = check::uint(body, "cost")?;
                    slot.end.naive_cost = check::uint(body, "naive_cost")?;
                    slot.end.fingerprint = body
                        .get("fingerprint")
                        .and_then(Value::as_str)
                        .unwrap_or("")
                        .to_owned();
                }
                SessionStep::Delete => {}
            }
            Ok(())
        };
        let mut slot = std::mem::take(&mut self.slots[k]);
        if let Err(e) = check::object(&resp).and_then(|body| read(&body, &mut slot)) {
            fails.push(format!("session slot {k}: {e}"));
        }
        let closing = matches!(step, SessionStep::Delete);
        slot.step = if closing { 0 } else { slot.step + 1 };
        self.slots[k] = slot;
        if closing {
            self.close(k, fails);
        }
    }
}

/// The traced replay of a sample of this workload's requests.
fn replay(
    workload: Workload,
    seed: u64,
    primed: &[Primed],
) -> Result<crate::replay::Metrics, String> {
    use crate::replay::Step;
    let solve = |r: &Request| Step::Solve(r.clone());
    let mut steps: Vec<Step> = primed.iter().map(|p| solve(&p.req)).collect();
    let mut sessions = 0;
    match workload {
        Workload::SolveHit => {
            steps.extend((0..REPLAY_HITS).map(|i| solve(&primed[i % primed.len()].req)));
        }
        Workload::SolveMiss => {
            steps.extend((0..REPLAY_MISSES).map(|i| {
                let body = inputs::balanced_body(&inputs::miss_ids(seed, i));
                Step::Solve(Request::post("/solve", body))
            }));
        }
        Workload::SessionStream => {
            sessions = inputs::SESSIONS;
            // One whole round: every chunk of every session.
            let chunks: Vec<Vec<String>> = (0..inputs::STREAMS)
                .map(|k| {
                    inputs::session_stream(seed, k)
                        .chunks(inputs::CHUNK)
                        .map(inputs::chunk_body)
                        .collect()
                })
                .collect();
            let per_stream = chunks[0].len();
            steps.extend((0..per_stream).flat_map(|c| {
                let chunks = &chunks;
                (0..sessions).map(move |k| Step::Ingest(k, chunks[k % inputs::STREAMS][c].clone()))
            }));
        }
    }
    crate::replay::run(workload.name(), sessions, &steps)
}
