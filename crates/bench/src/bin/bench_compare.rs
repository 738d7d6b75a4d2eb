//! CLI front-end for the benchmark regression gate (see
//! [`dwm_bench::gate`]).
//!
//! ```text
//! bench_compare [--threshold F] [--write-baseline]
//!               [--pair NUM DEN]... [--pair-threshold F]
//!               [--min-speedup NUM DEN RATIO]...
//!               [--p99-tail PREFIX FACTOR]...
//!               [--summary-json DIR]
//!               <baseline.json> <report>...
//! ```
//!
//! Each `<report>` is one run: a suite JSON written by the harness
//! (`DWM_BENCH_JSON`), or a directory of them. Several runs merge into
//! one entry per id holding the slowest statistics any run recorded
//! ([`gate::merge_worst`]). Normal mode compares that against the
//! baseline and exits non-zero when any benchmark's minimum iteration
//! time regressed beyond the threshold (default 0.25 = 25%; see
//! [`dwm_bench::gate`] for why minima, not medians). `--write-baseline`
//! instead (re)writes `<baseline.json>` from it — run it after
//! intentional performance changes and commit the file.
//! `scripts/bench_gate.sh --rebaseline` passes three runs.
//!
//! `--pair NUM DEN` additionally bounds the ratio of two *minimum*
//! iteration times from the *current* run (`NUM / DEN ≤ 1 +
//! pair-threshold`, default 0.05). Because both sides ran on the same
//! machine seconds apart — and minima filter scheduler noise that
//! swings medians — this holds a much tighter bound than the baseline
//! gate; it is how CI proves observability costs < 5%. Pairs are
//! checked in both normal and `--write-baseline` mode, within each run.
//!
//! `--min-speedup NUM DEN RATIO` is the same same-run minima ratio
//! pointed the other way: it *fails unless* `NUM / DEN ≥ RATIO`. CI
//! uses it to enforce that an optimized kernel actually keeps its
//! speedup over the scalar reference it is benched against (e.g. the
//! window-local local-search kernel must stay ≥ 2× its scalar twin).
//!
//! `--p99-tail PREFIX FACTOR` bounds *tail latency* for every
//! benchmark id under `PREFIX` in the current run: each one's
//! `p99_ns` must stay within `FACTOR` times its own median. Like the
//! pair bounds this is a same-run statistic — machine drift scales
//! p99 and median together, so the ratio is stable across boxes,
//! while an event-loop pathology (a lost wakeup, a convoy behind the
//! accept path) inflates the p99 by orders of magnitude over the
//! median. CI points this at `serve/` so the request-latency tail is
//! gated, not just the best case. It is an error if no id matches the
//! prefix. Checked in both normal and `--write-baseline` mode, within
//! each run, like the speedup floors.
//!
//! `--summary-json DIR` additionally writes the merged entries as a
//! perf-trajectory snapshot `DIR/BENCH_<n>.json` (`n` = one past the
//! highest existing snapshot; the baseline file's schema plus the
//! machine's `available_parallelism` and `DWM_OBS` setting beside
//! `entries`, see [`gate::snapshot_json`]), so a CI history of runs
//! accumulates into a diffable performance record.

use std::path::Path;
use std::process::ExitCode;

use dwm_bench::gate::{self, Entry};

fn usage() -> ! {
    eprintln!(
        "usage: bench_compare [--threshold F] [--write-baseline] \
         [--pair NUM DEN]... [--pair-threshold F] \
         [--min-speedup NUM DEN RATIO]... [--p99-tail PREFIX FACTOR]... \
         [--summary-json DIR] <baseline.json> <report>..."
    );
    std::process::exit(2);
}

/// Reads one run: a suite report, or a directory of them.
fn collect_run(p: &str) -> Result<Vec<Entry>, String> {
    let files = if Path::new(p).is_dir() {
        let mut in_dir: Vec<String> = std::fs::read_dir(p)
            .map_err(|e| format!("{p}: {e}"))?
            .filter_map(|entry| entry.ok())
            .map(|entry| entry.path().to_string_lossy().into_owned())
            .filter(|name| name.ends_with(".json"))
            .collect();
        in_dir.sort();
        if in_dir.is_empty() {
            return Err(format!("{p}: no .json reports in directory"));
        }
        in_dir
    } else {
        vec![p.to_owned()]
    };
    let mut entries = Vec::new();
    for file in files {
        let text = std::fs::read_to_string(&file).map_err(|e| format!("{file}: {e}"))?;
        entries.extend(gate::parse_suite_report(&text).map_err(|e| format!("{file}: {e}"))?);
    }
    Ok(entries)
}

/// Checks every `--min-speedup` floor against the current run;
/// returns whether all held.
fn check_speedups(current: &[Entry], floors: &[(String, String, f64)]) -> Result<bool, String> {
    let mut ok = true;
    for (num, den, floor) in floors {
        let ratio = gate::pair_ratio(current, num, den)?;
        let failed = ratio < *floor;
        println!(
            "speedup {num} / {den} = {ratio:.2}x (floor {floor:.2}x){}",
            if failed { "  BELOW FLOOR" } else { "" }
        );
        ok &= !failed;
    }
    Ok(ok)
}

/// Writes the merged entries as `DIR/BENCH_<n>.json`, `n` one past
/// the highest existing snapshot index.
fn write_summary(dir: &str, current: &[Entry]) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
    let next = std::fs::read_dir(dir)
        .map_err(|e| format!("{dir}: {e}"))?
        .filter_map(|entry| entry.ok())
        .filter_map(|entry| {
            let name = entry.file_name().to_string_lossy().into_owned();
            name.strip_prefix("BENCH_")?
                .strip_suffix(".json")?
                .parse::<u64>()
                .ok()
        })
        .max()
        .map_or(1, |n| n + 1);
    let path = format!("{dir}/BENCH_{next}.json");
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let obs = std::env::var(dwm_foundation::obs::OBS_ENV).ok();
    let text = gate::snapshot_json(current, cores, obs.as_deref());
    std::fs::write(&path, text).map_err(|e| format!("{path}: {e}"))?;
    println!("summary snapshot: {path} ({} entries)", current.len());
    Ok(())
}

/// Checks every `--p99-tail` bound against the current run; returns
/// whether all held.
fn check_tails(current: &[Entry], tails: &[(String, f64)]) -> Result<bool, String> {
    let mut ok = true;
    for (prefix, factor) in tails {
        for check in gate::p99_tail_checks(current, prefix)? {
            let failed = check.exceeded(*factor);
            println!(
                "p99 tail {:<44} {:>11.0} ns over median {:>11.0} ns = {:>6.2}x \
                 (bound {factor:.0}x){}",
                check.id,
                check.p99_ns,
                check.median_ns,
                check.ratio(),
                if failed { "  EXCEEDED" } else { "" }
            );
            ok &= !failed;
        }
    }
    Ok(ok)
}

/// Checks every `--pair` bound against the current run; returns
/// whether all held.
fn check_pairs(
    current: &[Entry],
    pairs: &[(String, String)],
    threshold: f64,
) -> Result<bool, String> {
    let mut ok = true;
    for (num, den) in pairs {
        let ratio = gate::pair_ratio(current, num, den)?;
        let failed = ratio > 1.0 + threshold;
        println!(
            "pair {num} / {den} = {ratio:.3}x (bound {:.3}x){}",
            1.0 + threshold,
            if failed { "  EXCEEDED" } else { "" }
        );
        ok &= !failed;
    }
    Ok(ok)
}

fn run() -> Result<bool, String> {
    let mut threshold = 0.25f64;
    let mut pair_threshold = 0.05f64;
    let mut pairs: Vec<(String, String)> = Vec::new();
    let mut speedups: Vec<(String, String, f64)> = Vec::new();
    let mut tails: Vec<(String, f64)> = Vec::new();
    let mut summary_dir: Option<String> = None;
    let mut write_baseline = false;
    let mut positional: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threshold" => {
                let v = args.next().unwrap_or_else(|| usage());
                threshold = v.parse().map_err(|_| format!("invalid threshold '{v}'"))?;
            }
            "--pair" => {
                let num = args.next().unwrap_or_else(|| usage());
                let den = args.next().unwrap_or_else(|| usage());
                pairs.push((num, den));
            }
            "--min-speedup" => {
                let num = args.next().unwrap_or_else(|| usage());
                let den = args.next().unwrap_or_else(|| usage());
                let v = args.next().unwrap_or_else(|| usage());
                let floor = v
                    .parse()
                    .map_err(|_| format!("invalid speedup floor '{v}'"))?;
                speedups.push((num, den, floor));
            }
            "--p99-tail" => {
                let prefix = args.next().unwrap_or_else(|| usage());
                let v = args.next().unwrap_or_else(|| usage());
                let factor = v
                    .parse()
                    .map_err(|_| format!("invalid p99 tail factor '{v}'"))?;
                tails.push((prefix, factor));
            }
            "--summary-json" => {
                summary_dir = Some(args.next().unwrap_or_else(|| usage()));
            }
            "--pair-threshold" => {
                let v = args.next().unwrap_or_else(|| usage());
                pair_threshold = v
                    .parse()
                    .map_err(|_| format!("invalid pair threshold '{v}'"))?;
            }
            "--write-baseline" => write_baseline = true,
            "--help" | "-h" => usage(),
            _ if arg.starts_with('-') => usage(),
            _ => positional.push(arg),
        }
    }
    if positional.len() < 2 {
        usage();
    }
    let baseline_path = positional.remove(0);
    let runs = positional
        .iter()
        .map(|p| collect_run(p))
        .collect::<Result<Vec<_>, _>>()?;
    let current = gate::merge_worst(&runs);
    if let Some(dir) = &summary_dir {
        write_summary(dir, &current)?;
    }

    // Same-run bounds hold only if they hold in every run.
    let (mut pairs_ok, mut speedups_ok, mut tails_ok) = (true, true, true);
    for (i, run) in runs.iter().enumerate() {
        if runs.len() > 1 {
            println!("run {} of {}:", i + 1, runs.len());
        }
        pairs_ok &= check_pairs(run, &pairs, pair_threshold)?;
        speedups_ok &= check_speedups(run, &speedups)?;
        tails_ok &= check_tails(run, &tails)?;
    }

    if write_baseline {
        std::fs::write(&baseline_path, gate::baseline_json(&current))
            .map_err(|e| format!("{baseline_path}: {e}"))?;
        println!(
            "wrote {} entr{} to {baseline_path} (slowest minimum of {} run{})",
            current.len(),
            if current.len() == 1 { "y" } else { "ies" },
            runs.len(),
            if runs.len() == 1 { "" } else { "s" }
        );
        return Ok(pairs_ok && speedups_ok && tails_ok);
    }

    let text = std::fs::read_to_string(&baseline_path)
        .map_err(|e| format!("{baseline_path}: {e} (run with --write-baseline first?)"))?;
    let baseline = gate::parse_baseline(&text).map_err(|e| format!("{baseline_path}: {e}"))?;
    let report = gate::compare(&baseline, &current);

    println!(
        "{:<52} {:>14} {:>14} {:>8}",
        "benchmark", "baseline", "current", "ratio"
    );
    for c in &report.comparisons {
        println!(
            "{:<52} {:>11.0} ns {:>11.0} ns {:>7.2}x{}",
            c.id,
            c.baseline_ns,
            c.current_ns,
            c.ratio(),
            if c.regressed(threshold) {
                "  REGRESSED"
            } else {
                ""
            }
        );
    }
    for id in &report.missing {
        eprintln!("warning: baseline id '{id}' missing from current run (re-baseline?)");
    }
    for id in &report.added {
        eprintln!("warning: new benchmark '{id}' not in baseline (re-baseline to track)");
    }
    let regressions = report.regressions(threshold);
    if regressions.is_empty() && pairs_ok && speedups_ok && tails_ok {
        println!(
            "gate OK: {} benchmark(s) within {:.0}% of baseline",
            report.comparisons.len(),
            threshold * 100.0
        );
        Ok(true)
    } else {
        if !regressions.is_empty() {
            eprintln!(
                "gate FAILED: {} benchmark(s) regressed more than {:.0}%",
                regressions.len(),
                threshold * 100.0
            );
        }
        if !pairs_ok {
            eprintln!(
                "gate FAILED: pair ratio(s) exceeded {:.0}% bound",
                pair_threshold * 100.0
            );
        }
        if !speedups_ok {
            eprintln!("gate FAILED: speedup floor(s) not met");
        }
        if !tails_ok {
            eprintln!("gate FAILED: p99 tail bound(s) exceeded");
        }
        Ok(false)
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench_compare: {e}");
            ExitCode::from(2)
        }
    }
}
