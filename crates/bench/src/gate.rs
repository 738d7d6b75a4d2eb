//! The benchmark regression gate: compares a fresh benchmark run
//! against the checked-in baseline (`results/bench_baseline.json`) and
//! reports any benchmark whose **minimum** iteration time slowed down
//! beyond a threshold.
//!
//! Minima, not medians: on a small shared machine, scheduler noise
//! swings medians by tens of percent run-to-run, while the best-case
//! sample — which still pays all per-iteration work — stays within a
//! few percent. A real regression (more work per iteration) raises the
//! minimum just as surely as the median; only regressions that
//! manifest purely as occasional latency spikes would hide, and these
//! CPU-bound microbenches have none.
//!
//! The comparison logic lives here (rather than in the
//! [`bench_compare`](../../src/bin/bench_compare.rs) binary) so the
//! threshold semantics are unit-testable against fixture JSON —
//! `scripts/bench_gate.sh` is then a thin wrapper.
//!
//! Baseline format: `{"entries": [{"id": "...", "median_ns": ...,
//! "min_ns": ..., "p99_ns": ...}]}` with ids of the form
//! `<suite>/<bench id>` (the median and p99 ride along for human
//! diffing; `min_ns` falls back to the median in old files, `p99_ns`
//! to the p95 and then the median). Re-baseline with
//! `scripts/bench_gate.sh --rebaseline` after intentional performance
//! changes (and commit the result): it runs the suites three times and
//! records each id's slowest minimum ([`merge_worst`]).
//!
//! Tail latency is gated differently from throughput: instead of
//! comparing p99 against a baseline (machine drift swings tails far
//! more than minima), [`p99_tail_checks`] bounds the *same-run* ratio
//! `p99 / median` for every benchmark under a prefix. A lost wakeup,
//! a lock convoy, or an accept storm in the serve path shows up as a
//! p99 several orders of magnitude over the median; honest scheduler
//! noise does not.

use dwm_foundation::json::{parse, Number, Object, Value};

/// One benchmark result, keyed by `<suite>/<bench id>`.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// Suite-qualified benchmark id.
    pub id: String,
    /// Median nanoseconds per iteration.
    pub median_ns: f64,
    /// Minimum nanoseconds per iteration (falls back to the median
    /// when the report predates the field). The pair gate compares
    /// minima: they filter scheduler noise that swings medians by
    /// ±10%, while real per-iteration overhead still shows up.
    pub min_ns: f64,
    /// 99th-percentile nanoseconds per iteration (falls back to the
    /// p95, then the median, when the report predates the field).
    /// Gated by the same-run tail bound ([`p99_tail_checks`]), never
    /// against the baseline — tails drift with the machine.
    pub p99_ns: f64,
}

/// A baseline/current pair for one benchmark id.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Suite-qualified benchmark id.
    pub id: String,
    /// Minimum iteration time in the baseline.
    pub baseline_ns: f64,
    /// Minimum iteration time in the current run.
    pub current_ns: f64,
}

impl Comparison {
    /// `current / baseline` — 1.0 is unchanged, 2.0 is twice as slow.
    pub fn ratio(&self) -> f64 {
        if self.baseline_ns <= 0.0 {
            1.0
        } else {
            self.current_ns / self.baseline_ns
        }
    }

    /// Whether the current minimum exceeds the baseline by more than
    /// `threshold` (0.25 = fail when >25% slower).
    pub fn regressed(&self, threshold: f64) -> bool {
        self.ratio() > 1.0 + threshold
    }
}

/// Outcome of matching a current run against a baseline.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GateReport {
    /// Ids present in both, with their minimum iteration times.
    pub comparisons: Vec<Comparison>,
    /// Baseline ids absent from the current run (renamed or filtered
    /// benchmarks — re-baseline to silence).
    pub missing: Vec<String>,
    /// Current ids absent from the baseline (new benchmarks —
    /// re-baseline to start tracking them).
    pub added: Vec<String>,
}

impl GateReport {
    /// The comparisons that regressed beyond `threshold`.
    pub fn regressions(&self, threshold: f64) -> Vec<&Comparison> {
        self.comparisons
            .iter()
            .filter(|c| c.regressed(threshold))
            .collect()
    }
}

fn entry_list(value: &Value, key: &str, id_prefix: &str) -> Result<Vec<Entry>, String> {
    let obj = value
        .as_object()
        .ok_or_else(|| format!("expected a JSON object with '{key}'"))?;
    let items = obj
        .get(key)
        .and_then(Value::as_array)
        .ok_or_else(|| format!("missing '{key}' array"))?;
    items
        .iter()
        .map(|item| {
            let o = item.as_object().ok_or("entry is not an object")?;
            let id = o
                .get("id")
                .and_then(Value::as_str)
                .ok_or("entry without string 'id'")?;
            let median_ns = o
                .get("median_ns")
                .and_then(Value::as_number)
                .ok_or("entry without numeric 'median_ns'")?
                .as_f64();
            let min_ns = o
                .get("min_ns")
                .and_then(Value::as_number)
                .map(Number::as_f64)
                .unwrap_or(median_ns);
            let p99_ns = o
                .get("p99_ns")
                .or_else(|| o.get("p95_ns"))
                .and_then(Value::as_number)
                .map(Number::as_f64)
                .unwrap_or(median_ns);
            Ok(Entry {
                id: format!("{id_prefix}{id}"),
                median_ns,
                min_ns,
                p99_ns,
            })
        })
        .collect::<Result<Vec<_>, &str>>()
        .map_err(str::to_owned)
}

/// Parses one suite report as written by
/// [`Harness::finish`](dwm_foundation::bench::Harness::finish),
/// qualifying each id with the suite name.
///
/// # Errors
///
/// Returns a description of the first structural problem (not JSON, no
/// `suite`/`results`, malformed result entries).
pub fn parse_suite_report(text: &str) -> Result<Vec<Entry>, String> {
    let value = parse(text).map_err(|e| e.to_string())?;
    let suite = value
        .as_object()
        .and_then(|o| o.get("suite"))
        .and_then(Value::as_str)
        .ok_or("report without string 'suite'")?
        .to_owned();
    entry_list(&value, "results", &format!("{suite}/"))
}

/// Parses a baseline file (`{"entries": [...]}`).
///
/// # Errors
///
/// Returns a description of the first structural problem.
pub fn parse_baseline(text: &str) -> Result<Vec<Entry>, String> {
    let value = parse(text).map_err(|e| e.to_string())?;
    entry_list(&value, "entries", "")
}

/// Serializes entries as a baseline file (pretty JSON, trailing
/// newline, ids sorted so diffs are stable). All three statistics are
/// written: the gate compares `min_ns`; `median_ns` and `p99_ns` ride
/// along so a human diffing a re-baseline sees the typical cost and
/// the tail too.
pub fn baseline_json(entries: &[Entry]) -> String {
    let mut sorted: Vec<&Entry> = entries.iter().collect();
    sorted.sort_by(|a, b| a.id.cmp(&b.id));
    let items: Vec<Value> = sorted
        .into_iter()
        .map(|e| {
            let mut o = Object::new();
            o.insert("id", Value::Str(e.id.clone()));
            o.insert("median_ns", Value::Num(Number::F(e.median_ns)));
            o.insert("min_ns", Value::Num(Number::F(e.min_ns)));
            o.insert("p99_ns", Value::Num(Number::F(e.p99_ns)));
            Value::Obj(o)
        })
        .collect();
    let mut root = Object::new();
    root.insert("entries", Value::Arr(items));
    let mut text = Value::Obj(root).to_pretty();
    text.push('\n');
    text
}

/// Compares two benchmarks *within the same run*: `num / den` of
/// their **minimum** iteration times. Unlike the baseline gate, a
/// pair ratio is immune to machine drift — both sides ran on the same
/// box seconds apart — so it can hold a much tighter bound (e.g.
/// "observability on costs < 5% over observability off"). Minima are
/// compared rather than medians because scheduler noise swings
/// medians by ±10% while leaving the best-case iteration (which still
/// contains all per-iteration overhead) stable.
///
/// # Errors
///
/// Returns which id is missing when either side is absent from the
/// run, or when the denominator's minimum is not positive.
pub fn pair_ratio(current: &[Entry], num_id: &str, den_id: &str) -> Result<f64, String> {
    let min = |id: &str| {
        current
            .iter()
            .find(|e| e.id == id)
            .map(|e| e.min_ns)
            .ok_or_else(|| format!("pair benchmark '{id}' missing from current run"))
    };
    let num = min(num_id)?;
    let den = min(den_id)?;
    if den <= 0.0 {
        return Err(format!(
            "pair benchmark '{den_id}' has non-positive minimum"
        ));
    }
    Ok(num / den)
}

/// One same-run tail-amplification measurement: how far a benchmark's
/// 99th-percentile iteration time sits above its own median.
#[derive(Debug, Clone, PartialEq)]
pub struct TailCheck {
    /// Suite-qualified benchmark id.
    pub id: String,
    /// Median iteration time in the current run.
    pub median_ns: f64,
    /// 99th-percentile iteration time in the current run.
    pub p99_ns: f64,
}

impl TailCheck {
    /// `p99 / median` — 1.0 is a perfectly flat distribution. A
    /// non-positive median reads as 1.0 (mirroring
    /// [`Comparison::ratio`]'s zero policy).
    pub fn ratio(&self) -> f64 {
        if self.median_ns <= 0.0 {
            1.0
        } else {
            self.p99_ns / self.median_ns
        }
    }

    /// Whether the tail exceeds `factor` times the median (strictly —
    /// exactly at the bound passes, matching the baseline gate).
    pub fn exceeded(&self, factor: f64) -> bool {
        self.ratio() > factor
    }
}

/// Collects the same-run `p99 / median` tail checks for every
/// benchmark whose id starts with `prefix` (e.g. `"serve/"`). Tails
/// are bounded within one run rather than against the baseline
/// because machine drift swings a p99 by integer factors while the
/// p99/median *shape* of a healthy benchmark stays put; an event-loop
/// pathology (lost wakeup, convoy) inflates the ratio by orders of
/// magnitude.
///
/// # Errors
///
/// Returns an error when no current id matches `prefix` — a tail gate
/// that silently matches nothing would pass forever.
pub fn p99_tail_checks(current: &[Entry], prefix: &str) -> Result<Vec<TailCheck>, String> {
    let checks: Vec<TailCheck> = current
        .iter()
        .filter(|e| e.id.starts_with(prefix))
        .map(|e| TailCheck {
            id: e.id.clone(),
            median_ns: e.median_ns,
            p99_ns: e.p99_ns,
        })
        .collect();
    if checks.is_empty() {
        return Err(format!(
            "no benchmark id under prefix '{prefix}' in the current run"
        ));
    }
    Ok(checks)
}

/// Merges several runs of the same suites into one entry per id whose
/// statistics are the largest (slowest) the runs recorded. This is the
/// baseline a re-baseline writes: on a machine whose speed swings
/// within minutes, one run's minima may come from a fast patch the
/// next run never sees again, and the slowest of several runs' minima
/// is likelier to be one the machine reproduces. Ids keep their order
/// of first appearance; an id missing from some runs keeps the values
/// of the runs it appears in.
pub fn merge_worst(runs: &[Vec<Entry>]) -> Vec<Entry> {
    let mut merged: Vec<Entry> = Vec::new();
    for entry in runs.iter().flatten() {
        match merged.iter_mut().find(|m| m.id == entry.id) {
            Some(m) => {
                m.median_ns = m.median_ns.max(entry.median_ns);
                m.min_ns = m.min_ns.max(entry.min_ns);
                m.p99_ns = m.p99_ns.max(entry.p99_ns);
            }
            None => merged.push(entry.clone()),
        }
    }
    merged
}

/// Matches `current` against `baseline` by id, comparing minimum
/// iteration times (see the module docs for why not medians).
pub fn compare(baseline: &[Entry], current: &[Entry]) -> GateReport {
    let mut report = GateReport::default();
    for b in baseline {
        match current.iter().find(|c| c.id == b.id) {
            Some(c) => report.comparisons.push(Comparison {
                id: b.id.clone(),
                baseline_ns: b.min_ns,
                current_ns: c.min_ns,
            }),
            None => report.missing.push(b.id.clone()),
        }
    }
    for c in current {
        if !baseline.iter().any(|b| b.id == c.id) {
            report.added.push(c.id.clone());
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries(pairs: &[(&str, f64)]) -> Vec<Entry> {
        pairs
            .iter()
            .map(|&(id, median_ns)| Entry {
                id: id.into(),
                median_ns,
                min_ns: median_ns,
                p99_ns: median_ns,
            })
            .collect()
    }

    #[test]
    fn suite_report_is_parsed_with_qualified_ids() {
        // Shape produced by Harness::to_json (extra fields ignored).
        let text = r#"{
            "suite": "sweep",
            "results": [
                {"id": "replay/16", "iters_per_sample": 4, "samples": 3,
                 "min_ns": 9.0, "median_ns": 10.0, "p95_ns": 12.0,
                 "p99_ns": 14.0, "mean_ns": 10.5},
                {"id": "replay/32", "median_ns": 20.0, "p95_ns": 25.0},
                {"id": "replay/64", "median_ns": 40.0}
            ]
        }"#;
        let entries = parse_suite_report(text).unwrap();
        assert_eq!(
            entries,
            vec![
                Entry {
                    id: "sweep/replay/16".into(),
                    median_ns: 10.0,
                    min_ns: 9.0,
                    p99_ns: 14.0
                },
                Entry {
                    id: "sweep/replay/32".into(),
                    median_ns: 20.0,
                    // No p99_ns (pre-field report): falls back to p95.
                    min_ns: 20.0,
                    p99_ns: 25.0
                },
                Entry {
                    id: "sweep/replay/64".into(),
                    median_ns: 40.0,
                    // No min_ns/p95_ns either: everything falls back
                    // to the median.
                    min_ns: 40.0,
                    p99_ns: 40.0
                },
            ]
        );
    }

    #[test]
    fn malformed_reports_are_rejected_with_reasons() {
        assert!(parse_suite_report("nonsense").is_err());
        assert!(parse_suite_report(r#"{"results": []}"#)
            .unwrap_err()
            .contains("suite"));
        assert!(parse_suite_report(r#"{"suite": "s"}"#)
            .unwrap_err()
            .contains("results"));
        assert!(
            parse_suite_report(r#"{"suite": "s", "results": [{"id": "x"}]}"#)
                .unwrap_err()
                .contains("median_ns")
        );
    }

    #[test]
    fn baseline_round_trips_sorted() {
        let text = baseline_json(&entries(&[("b/2", 2.0), ("a/1", 1.5)]));
        let back = parse_baseline(&text).unwrap();
        assert_eq!(back, entries(&[("a/1", 1.5), ("b/2", 2.0)]));
    }

    #[test]
    fn threshold_is_strictly_greater_than() {
        let c = Comparison {
            id: "x".into(),
            baseline_ns: 100.0,
            current_ns: 125.0,
        };
        // Exactly 25% slower is NOT a regression at threshold 0.25 —
        // the gate fails only strictly beyond it.
        assert!(!c.regressed(0.25));
        let c = Comparison {
            current_ns: 125.1,
            ..c
        };
        assert!(c.regressed(0.25));
        // Speedups never trip the gate.
        let c = Comparison {
            current_ns: 10.0,
            ..c
        };
        assert!(!c.regressed(0.0));
    }

    #[test]
    fn compare_classifies_matched_missing_and_added() {
        let baseline = entries(&[("s/a", 100.0), ("s/gone", 50.0)]);
        let current = entries(&[("s/a", 90.0), ("s/new", 5.0)]);
        let report = compare(&baseline, &current);
        assert_eq!(
            report.comparisons,
            vec![Comparison {
                id: "s/a".into(),
                baseline_ns: 100.0,
                current_ns: 90.0
            }]
        );
        assert_eq!(report.missing, vec!["s/gone".to_string()]);
        assert_eq!(report.added, vec!["s/new".to_string()]);
        assert!(report.regressions(0.25).is_empty());
    }

    #[test]
    fn regressions_filter_by_threshold_from_fixture_json() {
        let baseline = parse_baseline(
            r#"{"entries": [
                {"id": "s/fast", "median_ns": 100.0},
                {"id": "s/slow", "median_ns": 100.0},
                {"id": "s/awful", "median_ns": 100.0}
            ]}"#,
        )
        .unwrap();
        let current = entries(&[("s/fast", 80.0), ("s/slow", 130.0), ("s/awful", 300.0)]);
        let report = compare(&baseline, &current);
        let ids = |th: f64| -> Vec<&str> {
            report
                .regressions(th)
                .iter()
                .map(|c| c.id.as_str())
                .collect()
        };
        assert_eq!(ids(0.25), vec!["s/slow", "s/awful"]);
        assert_eq!(ids(0.5), vec!["s/awful"]);
        assert_eq!(ids(3.0), Vec::<&str>::new());
    }

    #[test]
    fn compare_uses_minima_not_medians() {
        let baseline = vec![Entry {
            id: "s/x".into(),
            median_ns: 500.0,
            min_ns: 100.0,
            p99_ns: 500.0,
        }];
        // Median doubled (machine noise) but the minimum held: the
        // gate must read this as a 10% change, not 2x.
        let current = vec![Entry {
            id: "s/x".into(),
            median_ns: 1000.0,
            min_ns: 110.0,
            p99_ns: 1000.0,
        }];
        let report = compare(&baseline, &current);
        assert!((report.comparisons[0].ratio() - 1.1).abs() < 1e-12);
        assert!(report.regressions(0.25).is_empty());
    }

    #[test]
    fn pair_ratio_divides_minima_within_one_run() {
        let current = vec![
            Entry {
                id: "s/on".into(),
                median_ns: 120.0, // noisy median would read 1.20x…
                min_ns: 104.0,
                p99_ns: 120.0,
            },
            Entry {
                id: "s/off".into(),
                median_ns: 100.0,
                min_ns: 100.0,
                p99_ns: 100.0,
            },
        ];
        // …but the pair compares minima: 1.04x.
        let ratio = pair_ratio(&current, "s/on", "s/off").unwrap();
        assert!((ratio - 1.04).abs() < 1e-12);
        // A missing side names the missing id; a zero denominator is
        // rejected rather than producing infinity.
        assert!(pair_ratio(&current, "s/on", "s/gone")
            .unwrap_err()
            .contains("s/gone"));
        assert!(pair_ratio(&current, "s/gone", "s/off")
            .unwrap_err()
            .contains("s/gone"));
        let degenerate = entries(&[("s/on", 104.0), ("s/off", 0.0)]);
        assert!(pair_ratio(&degenerate, "s/on", "s/off").is_err());
    }

    #[test]
    fn tail_checks_cover_exactly_the_prefix() {
        let current = vec![
            Entry {
                id: "serve/serve/solve_hit".into(),
                median_ns: 100.0,
                min_ns: 90.0,
                p99_ns: 500.0,
            },
            Entry {
                id: "serve/serve/health".into(),
                median_ns: 10.0,
                min_ns: 9.0,
                p99_ns: 12.0,
            },
            Entry {
                id: "graph/build".into(),
                median_ns: 1.0,
                min_ns: 1.0,
                p99_ns: 1e9, // outside the prefix: never checked
            },
        ];
        let checks = p99_tail_checks(&current, "serve/").unwrap();
        assert_eq!(checks.len(), 2);
        assert!((checks[0].ratio() - 5.0).abs() < 1e-12);
        // Exactly at the bound passes; strictly beyond fails.
        assert!(!checks[0].exceeded(5.0));
        assert!(checks[0].exceeded(4.9));
        assert!(!checks[1].exceeded(5.0));
        // An empty prefix match is an error, not a silent pass.
        assert!(p99_tail_checks(&current, "nope/")
            .unwrap_err()
            .contains("nope/"));
    }

    #[test]
    fn tail_ratio_survives_degenerate_medians() {
        let t = TailCheck {
            id: "z".into(),
            median_ns: 0.0,
            p99_ns: 50.0,
        };
        assert_eq!(t.ratio(), 1.0);
        assert!(!t.exceeded(1.5));
    }

    #[test]
    fn merge_keeps_each_ids_slowest_statistics() {
        let stats = |id: &str, median_ns: f64, min_ns: f64, p99_ns: f64| Entry {
            id: id.into(),
            median_ns,
            min_ns,
            p99_ns,
        };
        let runs = vec![
            vec![
                stats("s/a", 100.0, 90.0, 300.0),
                stats("s/b", 10.0, 9.0, 12.0),
            ],
            vec![
                stats("s/b", 11.0, 10.0, 11.0),
                stats("s/a", 120.0, 80.0, 200.0),
            ],
            vec![
                stats("s/a", 90.0, 85.0, 250.0),
                stats("s/new", 5.0, 4.0, 6.0),
            ],
        ];
        assert_eq!(
            merge_worst(&runs),
            vec![
                stats("s/a", 120.0, 90.0, 300.0),
                stats("s/b", 11.0, 10.0, 12.0),
                stats("s/new", 5.0, 4.0, 6.0),
            ]
        );
        // One run merges to itself.
        assert_eq!(merge_worst(&runs[..1]), runs[0]);
        assert!(merge_worst(&[]).is_empty());
    }

    #[test]
    fn zero_baseline_never_divides() {
        let c = Comparison {
            id: "z".into(),
            baseline_ns: 0.0,
            current_ns: 50.0,
        };
        assert_eq!(c.ratio(), 1.0);
        assert!(!c.regressed(0.25));
    }
}
