//! Statistics the benchmark reports with, and the regression rule a
//! change is judged by.
//!
//! Percentiles are exact (nearest rank over every sample), not
//! histogram buckets: a bucketed value can read identically on every
//! run, which hides real movement. Quartiles follow Python's
//! `statistics.quantiles(values, n=4)` (the "exclusive" method), so
//! spreads computed here match spreads computed from the printed
//! values with the standard library.

use std::collections::{BTreeMap, BTreeSet};

use dwm_foundation::json::{self, Value};

/// Exact nearest-rank `q`-quantile of an ascending slice.
///
/// # Panics
///
/// Panics on an empty slice: every caller has at least one sample.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The highest tail quantile (p50, p90, p99, p99.9, p99.99) that has at
/// least ten samples beyond it, or `None` below 20 samples. p99 needs
/// 1000 samples.
pub fn tail_quantile(samples: usize) -> Option<f64> {
    [10_000usize, 1000, 100, 10, 2]
        .into_iter()
        .find(|&tail| samples >= 10 * tail)
        .map(|tail| 1.0 - 1.0 / tail as f64)
}

/// Median of `values` (mean of the middle pair for even lengths).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile, as `statistics.quantiles(values, n=4)`
/// computes them. A single value is its own quartiles.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld == 1 {
        return (v[0], v[0]);
    }
    let q = |i: usize| {
        let m = ld + 1;
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// When one closed-loop request was due, sent and answered, in ns
/// since the measured span began. `due` is the previous response's
/// arrival, so `lateness` is the generator's own think time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timing {
    /// When the request could have left.
    pub due: u64,
    /// When it left.
    pub sent: u64,
    /// When its response was read.
    pub done: u64,
}

impl Timing {
    /// Latency as a closed loop counts it: from the send.
    pub fn since_send(&self) -> u64 {
        self.done.saturating_sub(self.sent)
    }

    /// How late the generator sent the request.
    pub fn lateness(&self) -> u64 {
        self.sent.saturating_sub(self.due)
    }
}

/// How a change's runs compare with its parent's on one metric of one
/// workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins at least nine pairs in ten and the medians
    /// differ by more than the parent's own quartile spread.
    Better,
    /// The change's median is worse than the parent's by more than
    /// the bound.
    Worse,
    /// The parent's spread is wider than the bound and the change does
    /// not beat every parent run, so "no regression" cannot be shown.
    Unresolved,
    /// Within the bound, and the parent's spread resolves the bound.
    Same,
}

impl Verdict {
    /// Lower-case name as printed by `bench_e2e compare`.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Same => "same",
        }
    }
}

/// The regression rule: `parent` and `change` are one metric's values
/// over paired runs (pair `i` ran back to back, on the same seed),
/// `bound` the share of the parent's median the metric may worsen by.
///
/// A bound of 0 marks an exact metric, one no performance change may
/// move: any difference from the parent, in either direction, is
/// [`Verdict::Worse`].
///
/// # Panics
///
/// Panics when either side has no runs.
pub fn compare(parent: &[f64], change: &[f64], bound: f64, higher_is_better: bool) -> Verdict {
    if bound == 0.0 {
        return if parent == change {
            Verdict::Same
        } else {
            Verdict::Worse
        };
    }
    // Fold the direction in once: below, smaller is better.
    let sign = if higher_is_better { -1.0 } else { 1.0 };
    let p: Vec<f64> = parent.iter().map(|v| v * sign).collect();
    let c: Vec<f64> = change.iter().map(|v| v * sign).collect();
    let (pm, cm) = (median(&p), median(&c));
    let (q1, q3) = quartiles(&p);
    let spread = q3 - q1;
    let pairs = p.len().min(c.len());
    let wins = p.iter().zip(&c).filter(|(p, c)| c < p).count();
    if pairs > 0 && wins * 10 >= pairs * 9 && pm - cm > spread {
        return Verdict::Better;
    }
    let allowed = bound * pm.abs();
    if cm - pm > allowed {
        return Verdict::Worse;
    }
    let change_worst = c.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let parent_best = p.iter().copied().fold(f64::INFINITY, f64::min);
    if spread > allowed && change_worst >= parent_best {
        return Verdict::Unresolved;
    }
    Verdict::Same
}

/// An end-to-end metric as `BENCHMARK.json` lists it.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Metric name.
    pub name: String,
    /// Share of the parent's median it may worsen by; 0 for exact.
    pub bound: f64,
    /// Whether higher values are better.
    pub higher_is_better: bool,
}

/// What one set of runs printed, by workload.
#[derive(Debug, Default)]
pub struct RunSet {
    /// Metric values by workload and metric, in run order.
    values: BTreeMap<String, BTreeMap<String, Vec<f64>>>,
    /// By workload: the runs that printed a summary, and the failed
    /// operations those summaries counted.
    tallies: BTreeMap<String, (u64, u64)>,
}

impl RunSet {
    /// Reads runs' standard output, concatenated. Metric lines name
    /// their workload; a summary line does not, and belongs to the
    /// workload named by the lines before it. A run that crashed
    /// prints no summary and so is not counted.
    pub fn parse(text: &str) -> RunSet {
        let mut set = RunSet::default();
        let mut workload: Option<String> = None;
        for line in text.lines() {
            let Ok(Value::Obj(o)) = json::parse(line) else {
                continue;
            };
            if let Some(w) = o.get("workload").and_then(Value::as_str) {
                workload = Some(w.to_owned());
            }
            let Some(w) = workload.clone() else {
                continue;
            };
            let metric = o.get("metric").and_then(Value::as_str);
            if let (Some(m), Some(v)) = (metric, o.get("value").and_then(Value::as_number)) {
                set.values
                    .entry(w)
                    .or_default()
                    .entry(m.to_owned())
                    .or_default()
                    .push(v.as_f64());
            } else if o.get("correct").is_some() {
                let failed = o
                    .get("failed")
                    .and_then(Value::as_number)
                    .and_then(|n| n.as_u64())
                    .unwrap_or(1);
                let tally = set.tallies.entry(w).or_default();
                tally.0 += 1;
                tally.1 += failed;
            }
        }
        set
    }

    fn workloads(&self) -> impl Iterator<Item = &String> {
        self.values.keys().chain(self.tallies.keys())
    }
}

/// One line of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Judgement {
    /// Workload name.
    pub workload: String,
    /// A metric name, or `runs` for the runs themselves.
    pub what: String,
    /// The verdict.
    pub verdict: Verdict,
    /// Both sides' numbers, or why a side has none.
    pub detail: String,
}

/// Compares a change's runs with its parent's: on every workload either
/// side ran, the runs themselves and every metric in `specs`. A
/// workload or metric that only one side printed, fewer finished runs
/// or more failed operations on the change's side are all
/// [`Verdict::Worse`]: a gain does not count when more fails.
pub fn judge(parent: &RunSet, change: &RunSet, specs: &[Spec]) -> Vec<Judgement> {
    let workloads: BTreeSet<&String> = parent.workloads().chain(change.workloads()).collect();
    let mut out = Vec::new();
    for w in workloads {
        let mut line = |what: &str, verdict, detail: String| {
            out.push(Judgement {
                workload: w.clone(),
                what: what.to_owned(),
                verdict,
                detail,
            });
        };
        let (pr, pf) = parent.tallies.get(w).copied().unwrap_or_default();
        let (cr, cf) = change.tallies.get(w).copied().unwrap_or_default();
        let runs = if cr < pr || cf > pf {
            Verdict::Worse
        } else {
            Verdict::Same
        };
        line(
            "runs",
            runs,
            format!("parent {pr} runs, {pf} failed ops; change {cr} runs, {cf} failed ops"),
        );
        let empty = BTreeMap::new();
        let (pv, cv) = (
            parent.values.get(w).unwrap_or(&empty),
            change.values.get(w).unwrap_or(&empty),
        );
        for spec in specs {
            match (pv.get(&spec.name), cv.get(&spec.name)) {
                (Some(p), Some(c)) => {
                    let (pq1, pq3) = quartiles(p);
                    let (cq1, cq3) = quartiles(c);
                    line(
                        &spec.name,
                        compare(p, c, spec.bound, spec.higher_is_better),
                        format!(
                            "parent {:.4} [{pq1:.4}, {pq3:.4}]  change {:.4} [{cq1:.4}, {cq3:.4}]",
                            median(p),
                            median(c)
                        ),
                    );
                }
                (Some(_), None) => {
                    line(&spec.name, Verdict::Worse, "missing from the change".into())
                }
                (None, Some(_)) => {
                    line(&spec.name, Verdict::Worse, "missing from the parent".into())
                }
                (None, None) => {}
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn tail_quantile_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(19), None);
        assert_eq!(tail_quantile(20), Some(0.5));
        assert_eq!(tail_quantile(999), Some(0.9));
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(9_999), Some(0.99));
        assert_eq!(tail_quantile(10_000), Some(0.999));
        assert_eq!(tail_quantile(100_000), Some(0.9999));
        // Whatever it picks, at least ten samples lie beyond it.
        for n in [20usize, 150, 1000, 4321, 25_000, 2_000_000] {
            let q = tail_quantile(n).unwrap();
            let beyond = n - (n as f64 * q).ceil() as usize;
            assert!(beyond >= 10, "n={n} q={q} leaves {beyond}");
        }
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn compare_applies_the_regression_rule() {
        let parent = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8, 100.1, 99.9,
        ];
        // Clearly faster in every pair, beyond the parent's spread.
        let faster: Vec<f64> = parent.iter().map(|v| v * 0.8).collect();
        assert_eq!(compare(&parent, &faster, 0.1, false), Verdict::Better);
        // The same numbers read as throughput are a regression.
        assert_eq!(compare(&parent, &faster, 0.1, true), Verdict::Worse);
        // 5% slower against a 10% bound: no regression.
        let slower: Vec<f64> = parent.iter().map(|v| v * 1.05).collect();
        assert_eq!(compare(&parent, &slower, 0.1, false), Verdict::Same);
        // 15% slower against a 10% bound: a regression.
        let much_slower: Vec<f64> = parent.iter().map(|v| v * 1.15).collect();
        assert_eq!(compare(&parent, &much_slower, 0.1, false), Verdict::Worse);
        // Identical runs are the same, not better.
        assert_eq!(compare(&parent, &parent, 0.1, false), Verdict::Same);
    }

    #[test]
    fn compare_is_unresolved_when_the_spread_exceeds_the_bound() {
        let noisy = [
            60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0,
        ];
        // Medians equal, but a quartile spread of ~45% cannot resolve
        // a 10% bound.
        assert_eq!(compare(&noisy, &noisy, 0.1, false), Verdict::Unresolved);
        // Unless every change run beats every parent run.
        let all_better = [50.0; 10];
        assert_eq!(compare(&noisy, &all_better, 0.1, false), Verdict::Better);
        let all_better_but_close = [59.0, 59.5, 58.0, 59.0, 59.9, 58.5, 59.0, 59.0, 59.2, 58.8];
        assert_ne!(
            compare(&noisy, &all_better_but_close, 0.1, false),
            Verdict::Unresolved
        );
    }

    #[test]
    fn an_exact_metric_may_not_move_either_way() {
        let parent = [42.5, 42.5, 42.5];
        assert_eq!(compare(&parent, &parent, 0.0, true), Verdict::Same);
        // 42% → 34%: worse, however the bound would have read it.
        assert_eq!(compare(&parent, &[34.0; 3], 0.0, true), Verdict::Worse);
        // Higher is better, but an exact metric that rose also moved.
        assert_eq!(compare(&parent, &[43.0; 3], 0.0, true), Verdict::Worse);
        let nudged = [42.5, 42.500_000_000_001, 42.5];
        assert_eq!(compare(&parent, &nudged, 0.0, true), Verdict::Worse);
    }

    /// The stdout of one run: machine, info, metric and summary lines.
    fn run_output(workload: &str, metrics: &[(&str, f64)], failed: u64) -> String {
        let mut out = String::from("{\"machine\":{\"available_parallelism\":2}}\n");
        out += &format!("{{\"workload\":\"{workload}\",\"samples\":1000}}\n");
        for (m, v) in metrics {
            out += &format!(
                "{{\"workload\":\"{workload}\",\"seed\":1,\"metric\":\"{m}\",\"value\":{v},\"unit\":\"us\"}}\n"
            );
        }
        out += &format!(
            "{{\"correct\":{},\"attempted\":10,\"failed\":{failed},\"metrics\":{{}}}}\n",
            failed == 0
        );
        out
    }

    fn specs() -> Vec<Spec> {
        vec![
            Spec {
                name: "latency_mean_us".into(),
                bound: 0.1,
                higher_is_better: false,
            },
            Spec {
                name: "shift_reduction_pct".into(),
                bound: 0.0,
                higher_is_better: true,
            },
        ]
    }

    fn verdicts(parent: &str, change: &str) -> Vec<(String, String, Verdict)> {
        judge(&RunSet::parse(parent), &RunSet::parse(change), &specs())
            .into_iter()
            .map(|j| (j.workload, j.what, j.verdict))
            .collect()
    }

    fn v(workload: &str, what: &str, verdict: Verdict) -> (String, String, Verdict) {
        (workload.into(), what.into(), verdict)
    }

    #[test]
    fn judge_compares_runs_and_metrics_per_workload() {
        let metrics = [("latency_mean_us", 100.0), ("shift_reduction_pct", 42.0)];
        let set = run_output("hit", &metrics, 0) + &run_output("hit", &metrics, 0);
        assert_eq!(
            verdicts(&set, &set),
            vec![
                v("hit", "runs", Verdict::Same),
                v("hit", "latency_mean_us", Verdict::Same),
                v("hit", "shift_reduction_pct", Verdict::Same),
            ]
        );
    }

    #[test]
    fn a_workload_or_metric_on_one_side_only_is_worse() {
        let both = [("latency_mean_us", 100.0), ("shift_reduction_pct", 42.0)];
        let parent = run_output("hit", &both, 0) + &run_output("miss", &both, 0);
        // The change's `miss` run crashed before printing anything, and
        // its `hit` run lost a metric.
        let change = run_output("hit", &both[..1], 0);
        assert_eq!(
            verdicts(&parent, &change),
            vec![
                v("hit", "runs", Verdict::Same),
                v("hit", "latency_mean_us", Verdict::Same),
                v("hit", "shift_reduction_pct", Verdict::Worse),
                v("miss", "runs", Verdict::Worse),
                v("miss", "latency_mean_us", Verdict::Worse),
                v("miss", "shift_reduction_pct", Verdict::Worse),
            ]
        );
        // A workload only the change ran is not comparable either.
        let extra = run_output("hit", &both, 0) + &run_output("new", &both[..1], 0);
        let judged = verdicts(&run_output("hit", &both, 0), &extra);
        assert!(judged.contains(&v("new", "latency_mean_us", Verdict::Worse)));
    }

    #[test]
    fn more_failed_operations_than_the_parent_is_worse_whatever_the_gain() {
        let slow = [("latency_mean_us", 100.0), ("shift_reduction_pct", 42.0)];
        let fast = [("latency_mean_us", 50.0), ("shift_reduction_pct", 42.0)];
        let parent = run_output("hit", &slow, 0).repeat(10);
        let change = run_output("hit", &fast, 0).repeat(9) + &run_output("hit", &fast, 3);
        let judged = verdicts(&parent, &change);
        assert_eq!(judged[0], v("hit", "runs", Verdict::Worse));
        assert_eq!(judged[1], v("hit", "latency_mean_us", Verdict::Better));
        // A change that fails no more than its parent is judged on
        // its numbers alone.
        let judged = verdicts(&change, &change);
        assert_eq!(judged[0], v("hit", "runs", Verdict::Same));
    }
}
