//! `bench_e2e`: the end-to-end benchmark of the placement daemon.
//!
//! ```text
//! bench_e2e --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]
//! bench_e2e compare <parent.jsonl> <change.jsonl>
//! ```
//!
//! A run starts `dwm-serve` as a child process (this binary re-executed
//! as `bench_e2e daemon …`), drives one workload against it from a
//! single generator thread over one keep-alive connection,
//! checks every answer, and prints one JSON line per metric followed
//! by a summary line:
//!
//! ```text
//! {"correct":true,"attempted":…,"failed":0,"metrics":{"<name>":{"value":…,"unit":"…"},…}}
//! ```
//!
//! With `--trace 0` the summary carries the end-to-end metrics; with
//! `--trace 1` the run also replays a sample of its requests
//! in-process through each layer's public functions, with spans
//! around every call, and the summary carries the per-layer metrics.
//! Measured inputs are a pure function of `--seed`; the reference
//! corpus `shift_reduction_pct` is measured on comes from a fixed seed.
//! Any failed request or check makes `correct` false and the exit
//! status 1.
//!
//! `compare` applies the regression rule to two sets of runs' output,
//! using the bounds in `BENCHMARK.json`. The metric catalog,
//! the workloads and how to read the span files are in this
//! package's `README.md`.

mod check;
mod daemon;
mod gate;
mod inputs;
mod replay;
mod run;

use std::process::ExitCode;

use dwm_foundation::json::{self, Number, Object, Value};

use crate::gate::{median, percentile, tail_quantile};
use crate::run::{Outcome, Workload};

/// `(name, value, unit)`.
type Metric = (String, f64, &'static str);

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("daemon") => daemon::serve().map_err(|e| e.to_string()).map(|()| true),
        Some("compare") if args.len() == 3 => compare(&args[1], &args[2]),
        _ => bench(&args),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench_e2e: {e}");
            ExitCode::from(2)
        }
    }
}

fn flag(args: &[String], name: &str) -> Result<String, String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
        .ok_or_else(|| format!("missing {name}"))
}

fn opt_flag(args: &[String], name: &str, default: &str) -> String {
    flag(args, name).unwrap_or_else(|_| default.to_owned())
}

/// One benchmark run; `Ok(false)` when a request or check failed.
fn bench(args: &[String]) -> Result<bool, String> {
    let name = flag(args, "--workload")?;
    let workload = Workload::parse(&name).ok_or_else(|| {
        let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!(
            "unknown workload {name:?}; expected one of {}",
            names.join(", ")
        )
    })?;
    let seed: u64 = flag(args, "--seed")?
        .parse()
        .map_err(|_| "--seed takes an unsigned integer")?;
    let seconds: u64 = opt_flag(args, "--seconds", "10")
        .parse()
        .ok()
        .filter(|s| (1..=60).contains(s))
        .ok_or("--seconds takes a whole number from 1 to 60")?;
    let trace = match opt_flag(args, "--trace", "0").as_str() {
        "0" => false,
        "1" => true,
        _ => return Err("--trace takes 0 or 1".into()),
    };

    let (outcome, layers) = run::run(workload, seed, seconds, trace)?;
    if outcome.samples.is_empty() {
        return Err("the measured span completed no request".into());
    }
    let lat = latencies(&outcome);
    let metrics = match layers {
        Some(replayed) => {
            let mut m = per_layer(&outcome);
            m.extend(replayed);
            m
        }
        None => end_to_end(workload, &outcome, &lat),
    };

    println!("{}", machine_record());
    // Latency quantiles over every request: reported, not gated (see
    // `end_to_end`).
    let mut sorted = lat.clone();
    sorted.sort_unstable();
    let us = |q: f64| Value::Num(Number::F(percentile(&sorted, q) as f64 / 1000.0));
    let mut info = Object::new();
    info.insert("workload", Value::Str(workload.name().into()));
    info.insert("samples", Value::Num(Number::U(lat.len() as u64)));
    info.insert("host_steal_pct", Value::Num(Number::F(outcome.steal_pct)));
    info.insert("latency_p50_us", us(0.5));
    info.insert("latency_p90_us", us(0.9));
    info.insert("latency_p99_us", us(0.99));
    if let Some(q) = tail_quantile(lat.len()) {
        info.insert("tail_quantile", Value::Num(Number::F(q)));
        info.insert("tail_latency_us", us(q));
    }
    println!("{}", Value::Obj(info).to_compact());
    for (name, value, unit) in &metrics {
        let mut line = Object::new();
        line.insert("workload", Value::Str(workload.name().into()));
        line.insert("seed", Value::Num(Number::U(seed)));
        line.insert("metric", Value::Str(name.clone()));
        line.insert("value", Value::Num(Number::F(*value)));
        line.insert("unit", Value::Str((*unit).into()));
        println!("{}", Value::Obj(line).to_compact());
    }
    for e in &outcome.errors {
        eprintln!("bench_e2e: {}: {e}", workload.name());
    }

    let mut summary_metrics = Object::new();
    for (name, value, unit) in metrics {
        let mut m = Object::new();
        m.insert("value", Value::Num(Number::F(value)));
        m.insert("unit", Value::Str(unit.into()));
        summary_metrics.insert(name, Value::Obj(m));
    }
    let correct = outcome.failed == 0;
    let mut summary = Object::new();
    summary.insert("correct", Value::Bool(correct));
    summary.insert("attempted", Value::Num(Number::U(outcome.attempted)));
    summary.insert("failed", Value::Num(Number::U(outcome.failed)));
    summary.insert("metrics", Value::Obj(summary_metrics));
    println!("{}", Value::Obj(summary).to_compact());
    Ok(correct)
}

/// Per-request latency, from the send, in request order.
fn latencies(o: &Outcome) -> Vec<u64> {
    o.samples.iter().map(|s| s.t.since_send()).collect()
}

/// The end-to-end metrics, each over every request of the measured
/// span. `lat` is [`latencies`].
///
/// Timings are gated as whole-span totals (requests per second and
/// mean latency), not as quantiles. The shared virtual machine this
/// benchmark was written on switches, every fraction of a second to a
/// few seconds, between a fast state and one about 1.6× slower, so a
/// run's latencies form two modes whose weights follow the machine.
/// A quantile falls in the gap between them and jumps with those
/// weights; a total moves only in proportion. Cut from one 600-s
/// `solve_miss` run into 25-s blocks, the blocks' quartile spread was
/// 0.26 for p50 and 0.17 for the median over 1-s windows of requests
/// completed, but 0.08 for mean latency and for completed ÷ span.
/// p50, p90, p99 and the highest percentile with ten samples beyond it
/// are printed on the info line, not gated.
fn end_to_end(workload: Workload, o: &Outcome, lat: &[u64]) -> Vec<Metric> {
    let n = lat.len() as f64;
    let limit = workload.limit().as_nanos() as u64;
    let within = o
        .samples
        .iter()
        .zip(lat)
        .filter(|(s, &l)| s.ok && l <= limit)
        .count();
    let mean_us = lat.iter().sum::<u64>() as f64 / n / 1000.0;
    vec![
        ("setup_s".into(), median(&o.setups), "s"),
        ("throughput_rps".into(), n * 1e9 / o.span_ns as f64, "req/s"),
        ("latency_mean_us".into(), mean_us, "us"),
        ("within_slo_pct".into(), within as f64 * 100.0 / n, "%"),
        (
            "shift_reduction_pct".into(),
            check::reduction_pct(&o.shifts),
            "%",
        ),
        (
            "server_cpu_us_per_req".into(),
            o.cpu_ns as f64 / 1000.0 / n,
            "us",
        ),
        (
            "peak_rss_mb".into(),
            o.peak_rss as f64 / (1024.0 * 1024.0),
            "MiB",
        ),
    ]
}

/// The per-layer numbers the end-to-end run itself yields.
fn per_layer(o: &Outcome) -> Vec<Metric> {
    let mut transport: Vec<u64> = o
        .samples
        .iter()
        .filter_map(|s| Some(s.t.since_send().saturating_sub(s.server_us? * 1000)))
        .collect();
    transport.sort_unstable();
    let mut late: Vec<u64> = o.samples.iter().map(|s| s.t.lateness()).collect();
    late.sort_unstable();
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    vec![
        (
            "net.transport_us".into(),
            if transport.is_empty() {
                0.0
            } else {
                percentile(&transport, 0.5) as f64 / 1000.0
            },
            "us",
        ),
        ("net.rejected".into(), o.rejected as f64, "count"),
        ("cache.hit_ratio".into(), ratio(o.hits, o.labeled), "ratio"),
        ("cache.evictions".into(), o.evictions as f64, "count"),
        (
            "gen.lateness_us".into(),
            percentile(&late, 0.5) as f64 / 1000.0,
            "us",
        ),
        (
            "gen.lateness_p99_us".into(),
            percentile(&late, 0.99) as f64 / 1000.0,
            "us",
        ),
        (
            "session.replacements_per_1k_chunks".into(),
            ratio(o.replacements * 1000, o.ingests),
            "count",
        ),
    ]
}

/// What the numbers ran on, as one JSON line.
fn machine_record() -> String {
    let env = |k: &str| Value::Str(std::env::var(k).unwrap_or_else(|_| "unset".into()));
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".into());
    let mut m = Object::new();
    m.insert(
        "available_parallelism",
        Value::Num(Number::U(
            std::thread::available_parallelism().map_or(0, |n| n.get() as u64),
        )),
    );
    m.insert("DWM_THREADS", env("DWM_THREADS"));
    m.insert("DWM_OBS", env("DWM_OBS"));
    m.insert("rustc", Value::Str(rustc));
    m.insert("revision", Value::Str(git_revision()));
    let mut line = Object::new();
    line.insert("machine", Value::Obj(m));
    Value::Obj(line).to_compact()
}

/// The checkout's commit, read from `.git` in the working directory
/// only (never a repository further up), or `"unknown"`.
fn git_revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok().map(|s| s.trim().to_owned());
    match read(".git/HEAD") {
        Some(head) => match head.strip_prefix("ref: ") {
            Some(r) => read(&format!(".git/{r}")).or_else(|| {
                read(".git/packed-refs")?
                    .lines()
                    .find(|l| l.ends_with(r))
                    .and_then(|l| l.split_whitespace().next())
                    .map(str::to_owned)
            }),
            None => Some(head),
        },
        None => None,
    }
    .unwrap_or_else(|| "unknown".into())
}

/// `bench_e2e compare`: judges a change's runs against its parent's
/// (see [`gate::judge`]) on every end-to-end metric in
/// `BENCHMARK.json`, and prints one verdict per workload and metric.
/// `Ok(false)` on a regression.
fn compare(parent: &str, change: &str) -> Result<bool, String> {
    let read = |path: &str| std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"));
    let spec = json::parse(&read("BENCHMARK.json")?).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let specs = spec
        .as_object()
        .and_then(|o| o.get("end_to_end"))
        .and_then(Value::as_array)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|entry| {
            let entry = entry.as_object()?;
            Some(gate::Spec {
                name: entry.get("name")?.as_str()?.to_owned(),
                bound: entry.get("bound")?.as_number()?.as_f64(),
                higher_is_better: entry.get("better")?.as_str()? == "higher",
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("an end_to_end entry lacks its name, bound or direction")?;
    let judged = gate::judge(
        &gate::RunSet::parse(&read(parent)?),
        &gate::RunSet::parse(&read(change)?),
        &specs,
    );
    for j in &judged {
        println!(
            "{:<20} {:<22} {:<10} {}",
            j.workload,
            j.what,
            j.verdict.name(),
            j.detail
        );
    }
    Ok(judged.iter().all(|j| j.verdict != gate::Verdict::Worse))
}
