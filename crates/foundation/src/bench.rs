//! A lightweight timing harness — the in-tree criterion replacement.
//!
//! Each benchmark auto-calibrates an iteration count so one sample
//! takes roughly a millisecond, runs a warmup, then collects N timed
//! samples and reports min / median / p95 / mean per-iteration times.
//! Results print as an aligned table and can be written as JSON for
//! machine consumption.
//!
//! Environment knobs:
//!
//! * `DWM_BENCH_SAMPLES` — samples per benchmark (default 30)
//! * `DWM_BENCH_WARMUP_MS` — warmup time per benchmark (default 100)
//! * `DWM_BENCH_JSON` — where to write the JSON report: a file path,
//!   or an existing directory (the report lands at `<dir>/<suite>.json`
//!   so one `cargo bench` run with several suites keeps them all)
//!
//! The table goes to a locked stdout. A reader that goes away
//! (`bench_sweep --bench | head`) only stops the printing: the run
//! still finishes and still writes its JSON report.
//!
//! A single positional CLI argument acts as a substring filter on
//! benchmark ids, mirroring `cargo bench <filter>`.
//!
//! [`Harness::bench_threads`] times the same closure at 1 thread and at
//! [`THREAD_POINTS`]`[1]` threads (via [`crate::par::override_threads`])
//! and records both, so parallel speedup is visible in every report.
//! Like [`Harness::bench_pair`], it takes the two sides' samples
//! alternately under one iteration count.

use std::fmt;
use std::io::Write;
use std::time::Instant;

use crate::json::{Object, ToJson, Value};

/// Re-export of [`std::hint::black_box`] so benches need no extra
/// imports.
pub use std::hint::black_box;

/// Timing summary of one benchmark, in nanoseconds per iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchResult {
    /// Benchmark id (e.g. `placement/chain-growth/fft`).
    pub id: String,
    /// Iterations per timed sample.
    pub iters_per_sample: u64,
    /// Number of timed samples.
    pub samples: usize,
    /// Fastest sample.
    pub min_ns: f64,
    /// Median sample.
    pub median_ns: f64,
    /// 95th-percentile sample.
    pub p95_ns: f64,
    /// 99th-percentile sample. With few samples this degenerates to
    /// the maximum, which is exactly what a tail-latency gate wants.
    pub p99_ns: f64,
    /// Mean over all samples.
    pub mean_ns: f64,
}

crate::json_struct!(BenchResult {
    id,
    iters_per_sample,
    samples,
    min_ns,
    median_ns,
    p95_ns,
    p99_ns,
    mean_ns
});

/// The benchmark harness: collects [`BenchResult`]s and reports them.
///
/// # Example
///
/// ```no_run
/// use dwm_foundation::bench::{black_box, Harness};
///
/// let mut h = Harness::from_env("demo");
/// h.bench("sum/1k", || (0..1000u64).map(black_box).sum::<u64>());
/// h.finish();
/// ```
#[derive(Debug)]
pub struct Harness {
    suite: String,
    samples: usize,
    warmup_ms: u64,
    filter: Option<String>,
    /// `DWM_BENCH_JSON`, read at construction.
    json: Option<String>,
    out: Sink,
    results: Vec<BenchResult>,
}

/// Where the harness prints its table: stdout, or a writer a test
/// swaps in. The first failed write closes the sink and the run goes
/// on without printing; a `BrokenPipe` (the reader went away) closes it
/// silently, as `dwmplace` treats a closed stdout, and any other error
/// is reported once on stderr.
enum Sink {
    Stdout,
    Writer(Box<dyn Write>),
    Closed,
}

impl Sink {
    fn line(&mut self, args: fmt::Arguments<'_>) {
        let written = match self {
            Sink::Stdout => writeln!(std::io::stdout().lock(), "{args}"),
            Sink::Writer(w) => writeln!(w, "{args}").and_then(|()| w.flush()),
            Sink::Closed => return,
        };
        if let Err(e) = written {
            if e.kind() != std::io::ErrorKind::BrokenPipe {
                eprintln!("warning: cannot print bench results: {e}");
            }
            *self = Sink::Closed;
        }
    }
}

impl fmt::Debug for Sink {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Sink::Stdout => "Stdout",
            Sink::Writer(_) => "Writer",
            Sink::Closed => "Closed",
        })
    }
}

/// The thread counts [`Harness::bench_threads`] records, low to high.
/// Fixed (rather than `available_parallelism`) so benchmark ids — and
/// therefore the checked-in regression baseline — are machine-stable.
pub const THREAD_POINTS: [usize; 2] = [1, 4];

impl Harness {
    /// A harness configured from the environment and CLI arguments
    /// (see the module docs for the knobs).
    pub fn from_env(suite: &str) -> Self {
        // `cargo bench` invokes bench binaries with `--bench` (and
        // test-harness flags); the first non-flag argument is a
        // substring filter, criterion-style.
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        Self::from_lookup(suite, |key| std::env::var(key).ok(), filter)
    }

    /// [`Harness::from_env`] with the environment abstracted behind
    /// `lookup`, so the knob parsing is testable without mutating the
    /// process environment.
    pub fn from_lookup<L: Fn(&str) -> Option<String>>(
        suite: &str,
        lookup: L,
        filter: Option<String>,
    ) -> Self {
        let samples = lookup("DWM_BENCH_SAMPLES")
            .and_then(|v| v.parse().ok())
            .unwrap_or(30)
            .max(3);
        let warmup_ms = lookup("DWM_BENCH_WARMUP_MS")
            .and_then(|v| v.parse().ok())
            .unwrap_or(100);
        Harness {
            suite: suite.to_owned(),
            samples,
            warmup_ms,
            filter,
            json: lookup("DWM_BENCH_JSON"),
            out: Sink::Stdout,
            results: Vec::new(),
        }
    }

    /// Overrides the sample count (primarily for tests).
    pub fn with_samples(mut self, samples: usize) -> Self {
        self.samples = samples.max(3);
        self
    }

    /// Overrides the warmup budget in milliseconds.
    pub fn with_warmup_ms(mut self, warmup_ms: u64) -> Self {
        self.warmup_ms = warmup_ms;
        self
    }

    /// Prints the table to `out` instead of stdout (primarily for
    /// tests).
    pub fn with_output(mut self, out: impl Write + 'static) -> Self {
        self.out = Sink::Writer(Box::new(out));
        self
    }

    /// Whether a CLI filter is set and `id` does not contain it.
    fn filtered_out(&self, id: &str) -> bool {
        self.filter
            .as_ref()
            .is_some_and(|f| !id.contains(f.as_str()))
    }

    /// Sorts `sample_ns`, derives the summary statistics, prints the
    /// table row, and records the result under `id`.
    fn record(&mut self, id: &str, iters: u64, mut sample_ns: Vec<f64>) {
        sample_ns.sort_by(|a, b| a.total_cmp(b));
        let pick = |q: f64| sample_ns[((sample_ns.len() - 1) as f64 * q).round() as usize];
        let result = BenchResult {
            id: id.to_owned(),
            iters_per_sample: iters,
            samples: sample_ns.len(),
            min_ns: sample_ns[0],
            median_ns: pick(0.5),
            p95_ns: pick(0.95),
            p99_ns: pick(0.99),
            mean_ns: sample_ns.iter().sum::<f64>() / sample_ns.len() as f64,
        };
        self.out.line(format_args!(
            "{:<44} {:>12} {:>12} {:>12}",
            result.id,
            format_ns(result.median_ns),
            format_ns(result.p95_ns),
            format_ns(result.min_ns),
        ));
        self.results.push(result);
    }

    /// Takes `self.samples` rounds of one sample per side, the sides in
    /// turn, under one iteration count calibrated on side 0 and after a
    /// warmup that alternates the sides too. `run(side, iters)` times
    /// `iters` calls of that side and returns nanoseconds per call.
    fn sample_alternating(
        &self,
        sides: usize,
        mut run: impl FnMut(usize, u64) -> f64,
    ) -> (u64, Vec<Vec<f64>>) {
        let iters = calibrate(|n| run(0, n));
        let warmup_deadline = Instant::now();
        while warmup_deadline.elapsed().as_millis() < self.warmup_ms as u128 {
            for side in 0..sides {
                run(side, 1);
            }
        }
        let mut samples = vec![Vec::with_capacity(self.samples); sides];
        for _ in 0..self.samples {
            for (side, sample_ns) in samples.iter_mut().enumerate() {
                sample_ns.push(run(side, iters));
            }
        }
        (iters, samples)
    }

    /// Records each side's samples under its id, skipping ids the CLI
    /// filter rules out.
    fn record_sides(&mut self, ids: &[&str], iters: u64, samples: Vec<Vec<f64>>) {
        for (id, sample_ns) in ids.iter().zip(samples) {
            if !self.filtered_out(id) {
                self.record(id, iters, sample_ns);
            }
        }
    }

    /// Times `f`, recording the result under `id`. Skipped (silently)
    /// when a CLI filter is set and `id` does not contain it.
    pub fn bench<R, F: FnMut() -> R>(&mut self, id: &str, mut f: F) {
        if self.filtered_out(id) {
            return;
        }
        let (iters, samples) = self.sample_alternating(1, |_, n| time_sample(&mut f, n));
        self.record_sides(&[id], iters, samples);
    }

    /// Times `fa` and `fb` with *alternating* samples, recording them
    /// under `id_a` and `id_b`.
    ///
    /// Both closures share one iteration count (calibrated on `fa`),
    /// and every sample of one side is taken immediately next to a
    /// sample of the other — so machine-load drift over the run lands
    /// on both sides roughly equally instead of inflating whichever
    /// side happened to run during a spike. Use this when a gate
    /// bounds the *ratio* of the two results tightly (e.g. the
    /// observability-overhead pair in `scripts/bench_gate.sh`, bounded
    /// at 5% — far below the run-to-run noise a sequential A-then-B
    /// layout exhibits on a shared machine).
    ///
    /// A CLI filter applies per id: a side whose id does not match is
    /// still timed (the alternation is the point) but not recorded.
    pub fn bench_pair<RA, RB, FA: FnMut() -> RA, FB: FnMut() -> RB>(
        &mut self,
        id_a: &str,
        id_b: &str,
        mut fa: FA,
        mut fb: FB,
    ) {
        if self.filtered_out(id_a) && self.filtered_out(id_b) {
            return;
        }
        let (iters, samples) = self.sample_alternating(2, |side, n| match side {
            0 => time_sample(&mut fa, n),
            _ => time_sample(&mut fb, n),
        });
        self.record_sides(&[id_a, id_b], iters, samples);
    }

    /// Times `f` once per entry of [`THREAD_POINTS`], recording
    /// `{id}/t{n}` under a [`crate::par::override_threads`] guard for
    /// each, so the report shows sequential-vs-parallel medians side by
    /// side. The closure should run a `par_*`-based workload for the
    /// comparison to mean anything.
    ///
    /// The thread points are sampled alternately under one iteration
    /// count (calibrated at the first point), as in
    /// [`bench_pair`](Self::bench_pair), so a gate on their ratio sees
    /// both sides under the same machine load. The filter applies per
    /// id, as there.
    pub fn bench_threads<R, F: FnMut() -> R>(&mut self, id: &str, mut f: F) {
        let ids = THREAD_POINTS.map(|threads| format!("{id}/t{threads}"));
        if ids.iter().all(|id| self.filtered_out(id)) {
            return;
        }
        let (iters, samples) = self.sample_alternating(THREAD_POINTS.len(), |side, n| {
            let _guard = crate::par::override_threads(THREAD_POINTS[side]);
            time_sample(&mut f, n)
        });
        self.record_sides(&ids.each_ref().map(String::as_str), iters, samples);
    }

    /// The collected results so far.
    pub fn results(&self) -> &[BenchResult] {
        &self.results
    }

    /// The whole run as a JSON value (`{"suite": …, "results": […]}`).
    pub fn to_json(&self) -> Value {
        let mut obj = Object::new();
        obj.insert("suite", Value::Str(self.suite.clone()));
        obj.insert("results", self.results.to_json());
        Value::Obj(obj)
    }

    /// Prints the footer and, when `DWM_BENCH_JSON` is set, writes the
    /// JSON report there. A directory value receives
    /// `<dir>/<suite>.json`; anything else is treated as a file path.
    pub fn finish(mut self) {
        self.out.line(format_args!(
            "{} benchmark(s) in suite '{}' (median/p95/min per iteration)",
            self.results.len(),
            self.suite
        ));
        if let Some(path) = self.json.take() {
            let target = if std::path::Path::new(&path).is_dir() {
                format!("{path}/{}.json", self.suite)
            } else {
                path
            };
            let json = self.to_json().to_pretty();
            if let Err(e) = std::fs::write(&target, json) {
                eprintln!("warning: could not write {target}: {e}");
            }
        }
    }
}

/// Grows the per-sample iteration count until one sample costs ≳ 1 ms
/// (so timer resolution is negligible). `time(iters)` times one sample
/// and returns nanoseconds per iteration.
fn calibrate(mut time: impl FnMut(u64) -> f64) -> u64 {
    let mut iters: u64 = 1;
    loop {
        let per_iter = time(iters);
        if per_iter * iters as f64 >= 1_000_000.0 || iters >= 1 << 30 {
            break;
        }
        // Aim straight at 1.2 ms instead of stepping by doubling.
        iters = ((1_200_000.0 / per_iter.max(1.0)) as u64)
            .max(iters * 2)
            .min(1 << 30);
    }
    iters
}

/// One timed sample: `iters` calls of `f`, returned as ns/iteration.
fn time_sample<R, F: FnMut() -> R>(f: &mut F, iters: u64) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        black_box(f());
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// A log-bucketed latency histogram over `u64` values (nanoseconds by
/// convention).
///
/// Values are binned into buckets of the form `2^e · (64 + m) / 64`
/// (64 sub-buckets per power of two), giving ≤ ~1.6% relative
/// quantization error across the full `u64` range in a fixed 4 KiB-ish
/// footprint — enough resolution for p50/p95/p99 reporting without
/// keeping every sample. Used by the `serve_load` load generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    min: u64,
    max: u64,
}

/// Sub-buckets per power of two in [`Histogram`].
const HIST_SUB: u64 = 64;

/// Total bucket count (64 exponents × [`HIST_SUB`] sub-buckets covers
/// all of `u64`). Shared with [`crate::obs`], whose atomic histogram
/// uses the same layout.
pub(crate) const HIST_BUCKETS: usize = 64 * HIST_SUB as usize;

/// The bucket index `value` falls in — exposed crate-internally so
/// [`crate::obs::Histogram`] bins identically to [`Histogram`].
#[inline]
pub(crate) fn hist_bucket(value: u64) -> usize {
    Histogram::bucket(value)
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        // 64 exponents × 64 sub-buckets covers all of u64.
        Histogram {
            counts: vec![0; 64 * HIST_SUB as usize],
            total: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket(value: u64) -> usize {
        let v = value.max(1);
        let e = 63 - v.leading_zeros() as u64; // floor(log2 v)
        let sub = if e >= 6 {
            (v >> (e - 6)) - HIST_SUB // top 6 mantissa bits after the leader
        } else {
            (v << (6 - e)) - HIST_SUB
        };
        (e * HIST_SUB + sub) as usize
    }

    /// Rebuilds a histogram from a raw bucket snapshot — how
    /// [`crate::obs::Histogram::snapshot`] converts its atomic counts
    /// into a queryable value. `counts` must use the [`HIST_BUCKETS`]
    /// layout; `min`/`max` keep their empty-state sentinels
    /// (`u64::MAX`/`0`) when `total` is zero.
    pub(crate) fn from_raw(counts: Vec<u64>, total: u64, min: u64, max: u64) -> Self {
        debug_assert_eq!(counts.len(), HIST_BUCKETS);
        Histogram {
            counts,
            total,
            min,
            max,
        }
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::bucket(value)] += 1;
        self.total += 1;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Smallest recorded value (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.total > 0).then_some(self.min)
    }

    /// Largest recorded value (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max)
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) as a representative bucket
    /// value, or `None` when empty. Exact at the bucket resolution.
    pub fn percentile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((self.total as f64 * q.clamp(0.0, 1.0)).ceil() as u64).clamp(1, self.total);
        if rank == self.total {
            return Some(self.max);
        }
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Representative value: lower edge of the bucket.
                let e = i as u64 / HIST_SUB;
                let sub = i as u64 % HIST_SUB;
                let lower = if e >= 6 {
                    (HIST_SUB + sub) << (e - 6)
                } else {
                    (HIST_SUB + sub) >> (6 - e)
                };
                return Some(lower.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

fn format_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::from_str;

    fn tiny() -> Harness {
        Harness::from_lookup("test", |_| None, None)
            .with_samples(5)
            .with_warmup_ms(0)
    }

    /// A writer whose every write fails with `BrokenPipe`, counting the
    /// attempts.
    struct ClosedPipe(std::rc::Rc<std::cell::Cell<usize>>);

    impl Write for ClosedPipe {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            self.0.set(self.0.get() + 1);
            Err(std::io::ErrorKind::BrokenPipe.into())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_closed_pipe_stops_the_table_but_not_the_run() {
        let report =
            std::env::temp_dir().join(format!("dwm_bench_pipe_{}.json", std::process::id()));
        let path = report.display().to_string();
        let attempts = std::rc::Rc::new(std::cell::Cell::new(0));
        let lookup = |key: &str| (key == "DWM_BENCH_JSON").then(|| path.clone());
        let mut h = Harness::from_lookup("pipe", lookup, None)
            .with_samples(3)
            .with_warmup_ms(0)
            .with_output(ClosedPipe(attempts.clone()));
        h.bench("first", || black_box(1u8));
        h.bench("second", || black_box(2u8));
        h.finish();
        assert_eq!(attempts.get(), 1, "the first failed write closes the sink");
        let json = std::fs::read_to_string(&report).expect("the report is still written");
        std::fs::remove_file(&report).ok();
        let v = crate::json::parse(&json).unwrap();
        let results = v
            .as_object()
            .unwrap()
            .get("results")
            .unwrap()
            .as_array()
            .unwrap();
        assert_eq!(results.len(), 2);
    }

    #[test]
    fn bench_produces_ordered_statistics() {
        let mut h = tiny();
        h.bench("noop", || black_box(1u64 + 1));
        let r = &h.results()[0];
        assert_eq!(r.samples, 5);
        assert!(r.min_ns <= r.median_ns);
        assert!(r.median_ns <= r.p95_ns);
        assert!(r.p95_ns <= r.p99_ns);
        assert!(r.iters_per_sample >= 1);
    }

    #[test]
    fn filter_skips_non_matching_ids() {
        let mut h = tiny();
        h.filter = Some("keep".into());
        h.bench("keep/this", || black_box(0u8));
        h.bench("drop/this", || black_box(0u8));
        assert_eq!(h.results().len(), 1);
        assert_eq!(h.results()[0].id, "keep/this");
    }

    #[test]
    fn bench_pair_records_both_sides_with_shared_iters() {
        let mut h = tiny();
        h.bench_pair(
            "pair/a",
            "pair/b",
            || black_box(1u64 + 1),
            || black_box(2u64 + 2),
        );
        let ids: Vec<&str> = h.results().iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids, vec!["pair/a", "pair/b"]);
        assert_eq!(
            h.results()[0].iters_per_sample,
            h.results()[1].iters_per_sample,
            "pair sides must be sampled at the same iteration count"
        );
        assert_eq!(h.results()[0].samples, 5);
        assert_eq!(h.results()[1].samples, 5);
    }

    #[test]
    fn bench_pair_filter_applies_per_side() {
        let mut h = tiny();
        h.filter = Some("keep".into());
        h.bench_pair("keep/a", "drop/b", || black_box(0u8), || black_box(0u8));
        h.bench_pair("drop/c", "drop/d", || black_box(0u8), || black_box(0u8));
        let ids: Vec<&str> = h.results().iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids, vec!["keep/a"]);
    }

    #[test]
    fn json_report_round_trips() {
        let mut h = tiny();
        h.bench("a", || black_box(2u32 * 2));
        let json = h.to_json().to_compact();
        let v = crate::json::parse(&json).unwrap();
        let results = v.as_object().unwrap().get("results").unwrap();
        let back: Vec<BenchResult> = from_str::<Vec<BenchResult>>(&results.to_compact()).unwrap();
        assert_eq!(back, h.results());
    }

    #[test]
    fn from_lookup_parses_env_knobs() {
        let env = |key: &str| match key {
            "DWM_BENCH_SAMPLES" => Some("12".to_string()),
            "DWM_BENCH_WARMUP_MS" => Some("7".to_string()),
            _ => None,
        };
        let h = Harness::from_lookup("suite", env, Some("flt".into()));
        assert_eq!(h.samples, 12);
        assert_eq!(h.warmup_ms, 7);
        assert_eq!(h.filter.as_deref(), Some("flt"));
    }

    #[test]
    fn from_lookup_defaults_and_clamps() {
        // No knobs set: defaults.
        let h = Harness::from_lookup("s", |_| None, None);
        assert_eq!(h.samples, 30);
        assert_eq!(h.warmup_ms, 100);
        assert_eq!(h.filter, None);
        // Garbage values fall back; tiny sample counts clamp to 3.
        let env = |key: &str| match key {
            "DWM_BENCH_SAMPLES" => Some("1".to_string()),
            "DWM_BENCH_WARMUP_MS" => Some("banana".to_string()),
            _ => None,
        };
        let h = Harness::from_lookup("s", env, None);
        assert_eq!(h.samples, 3);
        assert_eq!(h.warmup_ms, 100);
    }

    #[test]
    fn substring_filter_applies_to_thread_variants_too() {
        let _l = crate::par::TEST_OVERRIDE_LOCK.lock().unwrap();
        let mut h = tiny();
        h.filter = Some("keep".into());
        h.bench_threads("keep/job", || black_box(1u8));
        h.bench_threads("drop/job", || black_box(1u8));
        let ids: Vec<&str> = h.results().iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids, vec!["keep/job/t1", "keep/job/t4"]);
    }

    #[test]
    fn bench_threads_records_every_thread_point() {
        let _l = crate::par::TEST_OVERRIDE_LOCK.lock().unwrap();
        let mut h = tiny();
        h.bench_threads("tp", || {
            crate::par::par_map(&[1u64, 2, 3], |&x| black_box(x + 1))
        });
        let ids: Vec<&str> = h.results().iter().map(|r| r.id.as_str()).collect();
        assert_eq!(ids, vec!["tp/t1", "tp/t4"]);
    }

    #[test]
    fn bench_threads_alternates_its_thread_points() {
        let _l = crate::par::TEST_OVERRIDE_LOCK.lock().unwrap();
        let mut h = tiny();
        // Each call outlasts the 1-ms calibration target, so every
        // sample is one call and the log shows the sampling order.
        let mut seen = Vec::new();
        h.bench_threads("alt", || {
            seen.push(crate::par::num_threads());
            std::thread::sleep(std::time::Duration::from_micros(1100));
        });
        // One calibration call at the first point, then 5 rounds.
        assert_eq!(seen, [1, 1, 4, 1, 4, 1, 4, 1, 4, 1, 4]);
        let iters: Vec<u64> = h.results().iter().map(|r| r.iters_per_sample).collect();
        assert_eq!(iters, [1, 1]);
    }

    #[test]
    fn histogram_percentiles_track_recorded_values() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v * 1000); // 1µs .. 1ms in ns
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), Some(1000));
        assert_eq!(h.max(), Some(1_000_000));
        // Log-bucketing quantizes to ≤ ~1.6%; allow 5% slack.
        let p50 = h.percentile(0.5).unwrap() as f64;
        assert!((p50 - 500_000.0).abs() / 500_000.0 < 0.05, "p50 {p50}");
        let p99 = h.percentile(0.99).unwrap() as f64;
        assert!((p99 - 990_000.0).abs() / 990_000.0 < 0.05, "p99 {p99}");
        assert_eq!(h.percentile(0.0), Some(1000));
        assert_eq!(h.percentile(1.0), Some(1_000_000));
    }

    #[test]
    fn histogram_merge_and_empty_behaviour() {
        let empty = Histogram::new();
        assert_eq!(empty.percentile(0.5), None);
        assert_eq!(empty.min(), None);
        let mut a = Histogram::new();
        a.record(10);
        let mut b = Histogram::new();
        b.record(1_000_000);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), Some(10));
        assert_eq!(a.max(), Some(1_000_000));
        // Extreme values (0 maps to the bottom bucket) stay in range.
        let mut z = Histogram::new();
        z.record(0);
        z.record(u64::MAX);
        assert_eq!(z.count(), 2);
        assert!(z.percentile(0.5).is_some());
    }

    #[test]
    fn format_ns_picks_sensible_units() {
        assert_eq!(format_ns(500.0), "500 ns");
        assert_eq!(format_ns(1500.0), "1.50 µs");
        assert_eq!(format_ns(2_500_000.0), "2.50 ms");
        assert_eq!(format_ns(3_000_000_000.0), "3.00 s");
    }
}
