//! Zero-dependency metrics and tracing — the workspace's
//! observability substrate.
//!
//! The paper's whole argument is a cost model (shifts saved per
//! access), so the reproduction needs to show its work at runtime:
//! moves proposed vs. accepted, shift-distance distributions, cache
//! hit rates. This module provides that introspection without pulling
//! `prometheus`/`metrics`/`tracing` from crates.io:
//!
//! * [`Counter`] — monotonic, one relaxed atomic (hot loops batch
//!   locally and add once per call);
//! * [`Gauge`] — a signed point-in-time value (queue depths);
//! * [`Histogram`] — an atomic log-bucketed histogram sharing the
//!   bucketing scheme of [`crate::bench::Histogram`] (≤ ~1.6%
//!   relative quantization error), with [`Histogram::span`] timers
//!   for scoped latency measurement;
//! * [`Registry`] — one locked, name-ordered metric map. Each metric is
//!   registered once and handed out as a cheap [`Arc`] handle;
//!   instrument code caches the handle in a `static` (see the
//!   [`obs_counter!`](crate::obs_counter) family of macros), so the
//!   steady-state cost of an increment is a relaxed atomic load (the
//!   [`enabled`] check) plus one relaxed `fetch_add`.
//!
//! # The `DWM_OBS` knob
//!
//! Recording is gated on [`enabled`], resolved once from the
//! [`OBS_ENV`] (`DWM_OBS`) environment variable: unset or any value
//! other than `0`/`false`/`off`/`no` means **on** (observability is on
//! by default). When disabled, every gated `record`/`add` is a single
//! relaxed atomic load and an untaken branch — cheap enough to leave
//! the instrumentation compiled in unconditionally. Tests and benches
//! flip the state with [`override_enabled`] (serialize via
//! [`TEST_OVERRIDE_LOCK`], mirroring `par::override_threads`).
//!
//! A few call sites bypass the gate on purpose: counters that double
//! as a service's *source of truth* (the request counters backing
//! `dwm-serve`'s `/stats`) use [`Counter::add_always`] so the endpoint
//! stays correct even with `DWM_OBS=0`.
//!
//! # Determinism
//!
//! Metrics never flow into response bodies or solver artifacts — they
//! are exported only through dedicated channels (`GET /metrics`, the
//! CLI `--obs` dump, [`render_prometheus`]/[`dump_json`]). Solver
//! *outputs* therefore stay byte-identical at any `DWM_THREADS` with
//! observability on; the metric *values* themselves are allowed to
//! vary where the underlying work genuinely does (branch-and-bound
//! prune counts depend on incumbent-propagation timing across
//! threads).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use crate::bench;
use crate::json::{Number, Object, Value};

/// Environment variable gating metric recording: unset or anything
/// other than `0`/`false`/`off`/`no` enables observability.
pub const OBS_ENV: &str = "DWM_OBS";

const UNINIT: u8 = 0;
const OFF: u8 = 1;
const ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(UNINIT);

/// Whether metric recording is on. First call resolves [`OBS_ENV`];
/// afterwards this is a single relaxed atomic load.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        ON => true,
        OFF => false,
        _ => init_enabled(),
    }
}

#[cold]
fn init_enabled() -> bool {
    let on = match std::env::var(OBS_ENV) {
        Ok(v) => !matches!(v.trim(), "0" | "false" | "off" | "no"),
        Err(_) => true,
    };
    // Keep whatever an `override_enabled` installed concurrently.
    let _ = STATE.compare_exchange(
        UNINIT,
        if on { ON } else { OFF },
        Ordering::Relaxed,
        Ordering::Relaxed,
    );
    STATE.load(Ordering::Relaxed) == ON
}

/// Restores the pre-override enablement state on drop (see
/// [`override_enabled`]).
#[must_use = "dropping the guard immediately reverts the override"]
#[derive(Debug)]
pub struct ObsOverrideGuard {
    prev: u8,
}

/// Forces recording on or off for the lifetime of the returned guard,
/// ignoring [`OBS_ENV`]. Process-global: tests that combine an
/// override with assertions on gated metrics must hold
/// [`TEST_OVERRIDE_LOCK`] to avoid cross-test interference.
pub fn override_enabled(on: bool) -> ObsOverrideGuard {
    let prev = STATE.swap(if on { ON } else { OFF }, Ordering::SeqCst);
    ObsOverrideGuard { prev }
}

impl Drop for ObsOverrideGuard {
    fn drop(&mut self) {
        STATE.store(self.prev, Ordering::SeqCst);
    }
}

/// Serializes tests that call [`override_enabled`] against tests that
/// assert on gated metric values (`cargo test` shares one process).
pub static TEST_OVERRIDE_LOCK: Mutex<()> = Mutex::new(());

/// A monotonic counter: one relaxed atomic. Hot loops batch their
/// increments locally and add once per call, so a counter sees a few
/// adds per request at most.
#[derive(Debug)]
pub struct Counter {
    name: String,
    help: String,
    value: AtomicU64,
}

impl Counter {
    fn new(name: String, help: String) -> Self {
        Counter {
            name,
            help,
            value: AtomicU64::new(0),
        }
    }

    /// Full metric name, including any label suffix.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Help text supplied at registration.
    pub fn help(&self) -> &str {
        &self.help
    }

    /// Adds 1 when observability is [`enabled`].
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` when observability is [`enabled`]. Hot loops should
    /// accumulate into a local `u64` and call this once per batch.
    #[inline]
    pub fn add(&self, n: u64) {
        if enabled() {
            self.add_always(n);
        }
    }

    /// Adds 1 regardless of the [`enabled`] gate.
    #[inline]
    pub fn inc_always(&self) {
        self.add_always(1);
    }

    /// Adds `n` regardless of the [`enabled`] gate — for counters that
    /// are a service's source of truth (e.g. the request counters
    /// backing `dwm-serve`'s `/stats`), which must keep counting even
    /// with `DWM_OBS=0`.
    #[inline]
    pub fn add_always(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A signed point-in-time value (queue depths, capacities).
#[derive(Debug)]
pub struct Gauge {
    name: String,
    help: String,
    value: AtomicI64,
}

impl Gauge {
    fn new(name: String, help: String) -> Self {
        Gauge {
            name,
            help,
            value: AtomicI64::new(0),
        }
    }

    /// Full metric name, including any label suffix.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Help text supplied at registration.
    pub fn help(&self) -> &str {
        &self.help
    }

    /// Sets the gauge when observability is [`enabled`].
    #[inline]
    pub fn set(&self, v: i64) {
        if enabled() {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    /// Adds `delta` (may be negative) when observability is
    /// [`enabled`].
    #[inline]
    pub fn add(&self, delta: i64) {
        if enabled() {
            self.add_always(delta);
        }
    }

    /// Adds `delta` regardless of the gate — use for paired
    /// inc/dec tracking (queue depth) so a mid-flight toggle cannot
    /// skew the balance.
    #[inline]
    pub fn add_always(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    /// Sets the gauge regardless of the gate.
    #[inline]
    pub fn set_always(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// An atomic log-bucketed histogram sharing the bucket layout of
/// [`bench::Histogram`] (64 sub-buckets per power of two, ≤ ~1.6%
/// relative error). Values are `u64`; latency metrics record
/// nanoseconds by convention (`*_ns` names).
#[derive(Debug)]
pub struct Histogram {
    name: String,
    help: String,
    counts: Box<[AtomicU64]>,
    total: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Histogram {
    fn new(name: String, help: String) -> Self {
        let counts: Vec<AtomicU64> = (0..bench::HIST_BUCKETS)
            .map(|_| AtomicU64::new(0))
            .collect();
        Histogram {
            name,
            help,
            counts: counts.into_boxed_slice(),
            total: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Full metric name, including any label suffix.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Help text supplied at registration.
    pub fn help(&self) -> &str {
        &self.help
    }

    /// Records one value when observability is [`enabled`].
    #[inline]
    pub fn record(&self, value: u64) {
        if !enabled() {
            return;
        }
        self.counts[bench::hist_bucket(value)].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Starts a span timer that records its elapsed nanoseconds here
    /// when dropped. When observability is disabled at span start, the
    /// clock is never read and the drop is a no-op.
    pub fn span(&self) -> SpanTimer<'_> {
        SpanTimer {
            hist: self,
            start: enabled().then(Instant::now),
        }
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// A point-in-time copy as a [`bench::Histogram`], for percentile
    /// queries and merging. Concurrent recording makes the copy
    /// slightly fuzzy (counts and extrema are read independently),
    /// which is fine for a monitoring scrape.
    pub fn snapshot(&self) -> bench::Histogram {
        let counts: Vec<u64> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect();
        let total = counts.iter().sum();
        bench::Histogram::from_raw(
            counts,
            total,
            self.min.load(Ordering::Relaxed),
            self.max.load(Ordering::Relaxed),
        )
    }

    /// The `q`-quantile of a [`snapshot`](Self::snapshot), or `None`
    /// when empty.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        self.snapshot().percentile(q)
    }
}

/// Scoped timer: records elapsed nanoseconds into its histogram on
/// drop. Created by [`Histogram::span`].
#[must_use = "dropping the span immediately records ~0ns"]
#[derive(Debug)]
pub struct SpanTimer<'a> {
    hist: &'a Histogram,
    start: Option<Instant>,
}

impl Drop for SpanTimer<'_> {
    fn drop(&mut self) {
        if let Some(start) = self.start {
            self.hist.record(start.elapsed().as_nanos() as u64);
        }
    }
}

/// What a scrape-time callback metric reports as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FnKind {
    /// Rendered as a monotonic counter.
    Counter,
    /// Rendered as a gauge.
    Gauge,
}

/// A metric whose value is computed at scrape time by a callback —
/// used to export an external source of truth (e.g. the solve cache's
/// own counters) so two endpoints can never disagree about it.
pub struct FnMetric {
    name: String,
    help: String,
    kind: FnKind,
    read: Box<dyn Fn() -> u64 + Send + Sync>,
}

impl std::fmt::Debug for FnMetric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FnMetric")
            .field("name", &self.name)
            .field("kind", &self.kind)
            .finish_non_exhaustive()
    }
}

impl FnMetric {
    /// Full metric name, including any label suffix.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Help text supplied at registration.
    pub fn help(&self) -> &str {
        &self.help
    }

    /// How the metric renders (counter or gauge).
    pub fn kind(&self) -> FnKind {
        self.kind
    }

    /// Invokes the callback.
    pub fn value(&self) -> u64 {
        (self.read)()
    }
}

/// One registered metric, as handed back by [`Registry::metrics`].
#[derive(Debug, Clone)]
pub enum Metric {
    /// A [`Counter`].
    Counter(Arc<Counter>),
    /// A [`Gauge`].
    Gauge(Arc<Gauge>),
    /// A [`Histogram`].
    Histogram(Arc<Histogram>),
    /// A scrape-time callback ([`FnMetric`]).
    Fn(Arc<FnMetric>),
}

impl Metric {
    /// Full metric name, including any label suffix.
    pub fn name(&self) -> &str {
        match self {
            Metric::Counter(c) => c.name(),
            Metric::Gauge(g) => g.name(),
            Metric::Histogram(h) => h.name(),
            Metric::Fn(f) => f.name(),
        }
    }

    /// Help text supplied at registration.
    pub fn help(&self) -> &str {
        match self {
            Metric::Counter(c) => c.help(),
            Metric::Gauge(g) => g.help(),
            Metric::Histogram(h) => h.help(),
            Metric::Fn(f) => f.help(),
        }
    }
}

/// A name → metric map. Metrics register once (idempotently — a
/// second registration under the same name returns the existing
/// handle) and are read out for export sorted by name, so rendered
/// output is deterministic. Registration happens at start-up or on a
/// metric's first use, so one lock over one ordered map serves.
///
/// Two registries matter in practice: the process-wide [`global`] one
/// (solver, simulator, and transport metrics) and per-`Engine`
/// registries in `dwm-serve` (request/cache metrics, so tests can
/// spin up engines without sharing counter state).
#[derive(Debug)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
    /// Labels stamped onto every metric registered here, ahead of any
    /// call-site labels. Lets N otherwise-identical registries (e.g.
    /// per-shard engines in a `dwm-serve` cluster) render side by side
    /// without name collisions.
    default_labels: Vec<(String, String)>,
}

impl Default for Registry {
    fn default() -> Self {
        Self::new()
    }
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::with_labels(&[])
    }

    /// An empty registry whose every metric carries `labels` (before
    /// any labels passed at the registration call site).
    pub fn with_labels(labels: &[(&str, &str)]) -> Self {
        Registry {
            metrics: Mutex::new(BTreeMap::new()),
            default_labels: labels
                .iter()
                .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
                .collect(),
        }
    }

    /// Builds the full metric key, merging the registry's default
    /// labels ahead of the call-site ones.
    fn key(&self, name: &str, labels: &[(&str, &str)]) -> String {
        if self.default_labels.is_empty() {
            return full_name(name, labels);
        }
        let merged: Vec<(&str, &str)> = self
            .default_labels
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
            .chain(labels.iter().copied())
            .collect();
        full_name(name, &merged)
    }

    fn get_or_insert(&self, key: String, make: impl FnOnce(String) -> Metric) -> Metric {
        let mut metrics = self.metrics.lock().expect("registry lock poisoned");
        if let Some(existing) = metrics.get(&key) {
            return existing.clone();
        }
        let metric = make(key.clone());
        metrics.insert(key, metric.clone());
        metric
    }

    /// Registers (or fetches) a counter.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric
    /// type.
    pub fn counter(&self, name: &str, help: &str) -> Arc<Counter> {
        self.counter_with(name, &[], help)
    }

    /// [`counter`](Self::counter) with labels (pass them pre-sorted —
    /// the label set is part of the metric identity).
    pub fn counter_with(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Arc<Counter> {
        let key = self.key(name, labels);
        match self.get_or_insert(key, |k| {
            Metric::Counter(Arc::new(Counter::new(k, help.to_owned())))
        }) {
            Metric::Counter(c) => c,
            other => panic!("{} already registered as {other:?}", name),
        }
    }

    /// Registers (or fetches) a gauge.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric
    /// type.
    pub fn gauge(&self, name: &str, help: &str) -> Arc<Gauge> {
        self.gauge_with(name, &[], help)
    }

    /// [`gauge`](Self::gauge) with labels.
    pub fn gauge_with(&self, name: &str, labels: &[(&str, &str)], help: &str) -> Arc<Gauge> {
        let key = self.key(name, labels);
        match self.get_or_insert(key, |k| {
            Metric::Gauge(Arc::new(Gauge::new(k, help.to_owned())))
        }) {
            Metric::Gauge(g) => g,
            other => panic!("{} already registered as {other:?}", name),
        }
    }

    /// Registers (or fetches) a histogram.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric
    /// type.
    pub fn histogram(&self, name: &str, help: &str) -> Arc<Histogram> {
        self.histogram_with(name, &[], help)
    }

    /// [`histogram`](Self::histogram) with labels.
    pub fn histogram_with(
        &self,
        name: &str,
        labels: &[(&str, &str)],
        help: &str,
    ) -> Arc<Histogram> {
        let key = self.key(name, labels);
        match self.get_or_insert(key, |k| {
            Metric::Histogram(Arc::new(Histogram::new(k, help.to_owned())))
        }) {
            Metric::Histogram(h) => h,
            other => panic!("{} already registered as {other:?}", name),
        }
    }

    /// Registers a scrape-time callback metric (idempotent by name;
    /// the first callback wins).
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a non-callback
    /// metric.
    pub fn register_fn(
        &self,
        name: &str,
        help: &str,
        kind: FnKind,
        read: impl Fn() -> u64 + Send + Sync + 'static,
    ) -> Arc<FnMetric> {
        let key = self.key(name, &[]);
        match self.get_or_insert(key, |k| {
            Metric::Fn(Arc::new(FnMetric {
                name: k,
                help: help.to_owned(),
                kind,
                read: Box::new(read),
            }))
        }) {
            Metric::Fn(f) => f,
            other => panic!("{} already registered as {other:?}", name),
        }
    }

    /// Every registered metric, sorted by full name.
    pub fn metrics(&self) -> Vec<Metric> {
        let metrics = self.metrics.lock().expect("registry lock poisoned");
        metrics.values().cloned().collect()
    }

    /// The registry as a JSON value (see [`dump_json`]).
    pub fn to_json(&self) -> Value {
        dump_json(&[self])
    }
}

/// The process-wide registry used by solver, simulator, graph, and
/// transport instrumentation (the [`obs_counter!`](crate::obs_counter)
/// macros register here).
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

/// Builds the full metric key `name{k="v",…}`, escaping label values.
fn full_name(name: &str, labels: &[(&str, &str)]) -> String {
    debug_assert!(
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
            && !name.starts_with(|c: char| c.is_ascii_digit()),
        "invalid metric name {name:?}"
    );
    if labels.is_empty() {
        return name.to_owned();
    }
    let mut out = String::with_capacity(name.len() + 16 * labels.len());
    out.push_str(name);
    out.push('{');
    for (i, (k, v)) in labels.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(k);
        out.push_str("=\"");
        for c in v.chars() {
            match c {
                '\\' => out.push_str("\\\\"),
                '"' => out.push_str("\\\""),
                '\n' => out.push_str("\\n"),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    out.push('}');
    out
}

/// Splits a full key into `(family, label_block)` where `label_block`
/// includes the braces (`{…}`) or is empty.
fn split_key(key: &str) -> (&str, &str) {
    match key.find('{') {
        Some(i) => key.split_at(i),
        None => (key, ""),
    }
}

/// Merges an extra `k="v"` pair into an existing label block.
fn with_extra_label(labels: &str, extra: &str) -> String {
    if labels.is_empty() {
        format!("{{{extra}}}")
    } else {
        format!("{},{extra}}}", &labels[..labels.len() - 1])
    }
}

fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Quantiles exported for each histogram in both renderings.
const EXPORT_QUANTILES: [(f64, &str); 3] = [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")];

/// Renders the given registries (in order, merged and name-sorted) in
/// the Prometheus text exposition format, version 0.0.4. Histograms
/// render as summaries (`quantile` samples plus `_sum`/`_count`);
/// empty histograms report `NaN` quantiles, as the format prescribes.
pub fn render_prometheus(registries: &[&Registry]) -> String {
    let mut metrics: Vec<Metric> = registries.iter().flat_map(|r| r.metrics()).collect();
    metrics.sort_by(|a, b| a.name().cmp(b.name()));
    let mut out = String::new();
    let mut last_family = "";
    for metric in &metrics {
        let (family, labels) = split_key(metric.name());
        if family != last_family {
            let kind = match metric {
                Metric::Counter(_) => "counter",
                Metric::Gauge(_) => "gauge",
                Metric::Histogram(_) => "summary",
                Metric::Fn(f) => match f.kind() {
                    FnKind::Counter => "counter",
                    FnKind::Gauge => "gauge",
                },
            };
            out.push_str(&format!("# HELP {family} {}\n", escape_help(metric.help())));
            out.push_str(&format!("# TYPE {family} {kind}\n"));
            last_family = family;
        }
        match metric {
            Metric::Counter(c) => {
                out.push_str(&format!("{} {}\n", c.name(), c.value()));
            }
            Metric::Gauge(g) => {
                out.push_str(&format!("{} {}\n", g.name(), g.value()));
            }
            Metric::Fn(f) => {
                out.push_str(&format!("{} {}\n", f.name(), f.value()));
            }
            Metric::Histogram(h) => {
                let snap = h.snapshot();
                for (q, qs) in EXPORT_QUANTILES {
                    let block = with_extra_label(labels, &format!("quantile=\"{qs}\""));
                    match snap.percentile(q) {
                        Some(v) => out.push_str(&format!("{family}{block} {v}\n")),
                        None => out.push_str(&format!("{family}{block} NaN\n")),
                    }
                }
                out.push_str(&format!("{family}_sum{labels} {}\n", h.sum()));
                out.push_str(&format!("{family}_count{labels} {}\n", h.count()));
            }
        }
    }
    out
}

/// Dumps the given registries (merged and name-sorted) as one JSON
/// object: `{"metrics": [{"name", "type", …}, …]}`. This is what the
/// CLI `--obs` flag prints.
pub fn dump_json(registries: &[&Registry]) -> Value {
    let mut metrics: Vec<Metric> = registries.iter().flat_map(|r| r.metrics()).collect();
    metrics.sort_by(|a, b| a.name().cmp(b.name()));
    let items = metrics
        .iter()
        .map(|metric| {
            let mut obj = Object::new();
            obj.insert("name", Value::Str(metric.name().to_owned()));
            match metric {
                Metric::Counter(c) => {
                    obj.insert("type", Value::Str("counter".into()));
                    obj.insert("value", Value::Num(Number::U(c.value())));
                }
                Metric::Gauge(g) => {
                    obj.insert("type", Value::Str("gauge".into()));
                    let v = g.value();
                    let num = if v < 0 {
                        Number::I(v)
                    } else {
                        Number::U(v as u64)
                    };
                    obj.insert("value", Value::Num(num));
                }
                Metric::Fn(f) => {
                    obj.insert(
                        "type",
                        Value::Str(match f.kind() {
                            FnKind::Counter => "counter".into(),
                            FnKind::Gauge => "gauge".into(),
                        }),
                    );
                    obj.insert("value", Value::Num(Number::U(f.value())));
                }
                Metric::Histogram(h) => {
                    obj.insert("type", Value::Str("histogram".into()));
                    let snap = h.snapshot();
                    obj.insert("count", Value::Num(Number::U(h.count())));
                    obj.insert("sum", Value::Num(Number::U(h.sum())));
                    for (q, qs) in EXPORT_QUANTILES {
                        let key = format!("p{}", qs.trim_start_matches("0."));
                        match snap.percentile(q) {
                            Some(v) => obj.insert(&key, Value::Num(Number::U(v))),
                            None => obj.insert(&key, Value::Null),
                        }
                    }
                }
            }
            Value::Obj(obj)
        })
        .collect();
    let mut root = Object::new();
    root.insert("metrics", Value::Arr(items));
    Value::Obj(root)
}

/// Call-site-cached [`Counter`] handle in the [`global`](crate::obs::global)
/// registry: registers on first evaluation, then reuses the handle, so
/// the per-call cost is one initialized-check plus the increment.
#[macro_export]
macro_rules! obs_counter {
    ($name:expr, $help:expr $(,)?) => {{
        static __OBS_CELL: ::std::sync::OnceLock<::std::sync::Arc<$crate::obs::Counter>> =
            ::std::sync::OnceLock::new();
        &**__OBS_CELL.get_or_init(|| $crate::obs::global().counter($name, $help))
    }};
}

/// Call-site-cached [`Gauge`] handle in the [`global`](crate::obs::global)
/// registry (see [`obs_counter!`](crate::obs_counter)).
#[macro_export]
macro_rules! obs_gauge {
    ($name:expr, $help:expr $(,)?) => {{
        static __OBS_CELL: ::std::sync::OnceLock<::std::sync::Arc<$crate::obs::Gauge>> =
            ::std::sync::OnceLock::new();
        &**__OBS_CELL.get_or_init(|| $crate::obs::global().gauge($name, $help))
    }};
}

/// Call-site-cached [`Histogram`] handle in the
/// [`global`](crate::obs::global) registry (see
/// [`obs_counter!`](crate::obs_counter)).
#[macro_export]
macro_rules! obs_histogram {
    ($name:expr, $help:expr $(,)?) => {{
        static __OBS_CELL: ::std::sync::OnceLock<::std::sync::Arc<$crate::obs::Histogram>> =
            ::std::sync::OnceLock::new();
        &**__OBS_CELL.get_or_init(|| $crate::obs::global().histogram($name, $help))
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_threads() {
        let _l = TEST_OVERRIDE_LOCK.lock().unwrap();
        let _on = override_enabled(true);
        let r = Registry::new();
        let c = r.counter("test_obs_threads_total", "t");
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(c.value(), 8000);
    }

    #[test]
    fn registration_is_idempotent_and_returns_the_same_cells() {
        let r = Registry::new();
        let a = r.counter("test_obs_idem_total", "h");
        let b = r.counter("test_obs_idem_total", "ignored on rehit");
        a.add_always(3);
        assert_eq!(b.value(), 3);
        assert_eq!(r.metrics().len(), 1);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        let _ = r.counter("test_obs_kind", "h");
        let _ = r.gauge("test_obs_kind", "h");
    }

    #[test]
    fn disabled_mode_is_a_no_op_for_gated_paths() {
        let _l = TEST_OVERRIDE_LOCK.lock().unwrap();
        let _off = override_enabled(false);
        let r = Registry::new();
        let c = r.counter("test_obs_off_total", "t");
        let g = r.gauge("test_obs_off_gauge", "t");
        let h = r.histogram("test_obs_off_hist", "t");
        c.inc();
        c.add(10);
        g.set(7);
        g.add(7);
        h.record(123);
        drop(h.span());
        assert_eq!(c.value(), 0);
        assert_eq!(g.value(), 0);
        assert_eq!(h.count(), 0);
        // The always-variants still land: they are the /stats backbone.
        c.add_always(2);
        g.add_always(-3);
        assert_eq!(c.value(), 2);
        assert_eq!(g.value(), -3);
    }

    #[test]
    fn histogram_matches_bench_bucketing_and_tracks_sum() {
        let _l = TEST_OVERRIDE_LOCK.lock().unwrap();
        let _on = override_enabled(true);
        let r = Registry::new();
        let h = r.histogram("test_obs_hist_ns", "t");
        let mut reference = bench::Histogram::new();
        for v in [1u64, 7, 100, 5_000, 123_456, 9_999_999] {
            h.record(v);
            reference.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 1 + 7 + 100 + 5_000 + 123_456 + 9_999_999);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(h.percentile(q), reference.percentile(q), "q={q}");
        }
    }

    #[test]
    fn histogram_empty_and_single_sample_edges() {
        let _l = TEST_OVERRIDE_LOCK.lock().unwrap();
        let _on = override_enabled(true);
        let r = Registry::new();
        let h = r.histogram("test_obs_hist_edge", "t");
        assert_eq!(h.count(), 0);
        assert_eq!(h.percentile(0.5), None);
        assert_eq!(h.snapshot().min(), None);
        h.record(42);
        // A single sample is every percentile (clamped to min..=max).
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.percentile(q), Some(42), "q={q}");
        }
    }

    #[test]
    fn span_records_elapsed_time_when_enabled() {
        let _l = TEST_OVERRIDE_LOCK.lock().unwrap();
        let _on = override_enabled(true);
        let r = Registry::new();
        let h = r.histogram("test_obs_span_ns", "t");
        {
            let _span = h.span();
            std::hint::black_box((0..1000u64).sum::<u64>());
        }
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn fn_metrics_report_their_callback_value() {
        let source = Arc::new(AtomicU64::new(0));
        let r = Registry::new();
        let reader = Arc::clone(&source);
        let f = r.register_fn("test_obs_fn_total", "t", FnKind::Counter, move || {
            reader.load(Ordering::Relaxed)
        });
        source.store(41, Ordering::Relaxed);
        assert_eq!(f.value(), 41);
        let rendered = render_prometheus(&[&r]);
        assert!(rendered.contains("test_obs_fn_total 41"), "{rendered}");
    }

    #[test]
    fn prometheus_rendering_is_sorted_and_well_formed() {
        let _l = TEST_OVERRIDE_LOCK.lock().unwrap();
        let _on = override_enabled(true);
        let r = Registry::new();
        r.counter("test_zz_total", "last").add(1);
        r.counter_with("test_aa_total", &[("algo", "x\"y")], "first")
            .add(2);
        let g = r.gauge("test_mm_depth", "middle\nline");
        g.set(-4);
        let h = r.histogram("test_hh_ns", "hist");
        h.record(1000);
        let text = render_prometheus(&[&r]);
        let lines: Vec<&str> = text.lines().collect();
        // Families arrive sorted; labels escaped; help newline escaped.
        let first_sample = lines.iter().position(|l| !l.starts_with('#')).unwrap();
        assert_eq!(lines[first_sample], "test_aa_total{algo=\"x\\\"y\"} 2");
        assert!(text.contains("# TYPE test_hh_ns summary"));
        assert!(text.contains("test_hh_ns{quantile=\"0.5\"} "));
        assert!(text.contains("test_hh_ns_sum 1000"));
        assert!(text.contains("test_hh_ns_count 1"));
        assert!(text.contains("# HELP test_mm_depth middle\\nline"));
        assert!(text.contains("test_mm_depth -4"));
        assert!(text.ends_with('\n'));
        // Every non-comment line is `name value`.
        for line in lines.iter().filter(|l| !l.starts_with('#')) {
            let (_, value) = line.rsplit_once(' ').expect("sample shape");
            assert!(
                value.parse::<f64>().is_ok() || value == "NaN",
                "bad sample value in {line:?}"
            );
        }
    }

    #[test]
    fn empty_histogram_renders_nan_quantiles() {
        let r = Registry::new();
        let _ = r.histogram("test_empty_hist_ns", "t");
        let text = render_prometheus(&[&r]);
        assert!(text.contains("test_empty_hist_ns{quantile=\"0.5\"} NaN"));
        assert!(text.contains("test_empty_hist_ns_count 0"));
    }

    #[test]
    fn json_dump_covers_every_metric_kind() {
        let _l = TEST_OVERRIDE_LOCK.lock().unwrap();
        let _on = override_enabled(true);
        let r = Registry::new();
        r.counter("test_json_total", "t").add(5);
        r.gauge("test_json_depth", "t").set(-2);
        r.histogram("test_json_ns", "t").record(10);
        r.register_fn("test_json_fn", "t", FnKind::Gauge, || 9);
        let dump = dump_json(&[&r]);
        let text = dump.to_compact();
        let parsed = crate::json::parse(&text).unwrap();
        let metrics = parsed
            .as_object()
            .unwrap()
            .get("metrics")
            .unwrap()
            .as_array()
            .unwrap();
        assert_eq!(metrics.len(), 4);
        let names: Vec<&str> = metrics
            .iter()
            .map(|m| {
                m.as_object()
                    .unwrap()
                    .get("name")
                    .unwrap()
                    .as_str()
                    .unwrap()
            })
            .collect();
        assert_eq!(
            names,
            [
                "test_json_depth",
                "test_json_fn",
                "test_json_ns",
                "test_json_total"
            ]
        );
    }

    #[test]
    fn override_guard_restores_previous_state() {
        let _l = TEST_OVERRIDE_LOCK.lock().unwrap();
        let outer = override_enabled(true);
        assert!(enabled());
        {
            let _inner = override_enabled(false);
            assert!(!enabled());
        }
        assert!(enabled());
        drop(outer);
    }

    #[test]
    fn macros_register_in_the_global_registry() {
        let c = crate::obs_counter!("test_obs_macro_total", "macro counter");
        c.add_always(1);
        assert!(global()
            .metrics()
            .iter()
            .any(|m| m.name() == "test_obs_macro_total"));
        let h = crate::obs_histogram!("test_obs_macro_ns", "macro histogram");
        let g = crate::obs_gauge!("test_obs_macro_depth", "macro gauge");
        let _ = (h.count(), g.value());
    }
}
