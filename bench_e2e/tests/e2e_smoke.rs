//! Smoke test: every workload through the real binary for one second,
//! untraced and traced. Every metric `BENCHMARK.json` names must be
//! printed, nothing may fail, and the paper's objective
//! (`shift_reduction_pct`, measured on a fixed reference corpus) must
//! repeat exactly, even for another seed.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

use dwm_foundation::json::{self, Object, Value};

/// The `name` of every entry in one of `BENCHMARK.json`'s lists.
fn names_in(section: &str) -> BTreeSet<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    json::parse(&text)
        .expect("BENCHMARK.json parses")
        .as_object()
        .and_then(|o| o.get(section))
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {section} list"))
        .iter()
        .filter_map(Value::as_object)
        .filter_map(|entry| entry.get("name").and_then(Value::as_str))
        .map(str::to_owned)
        .collect()
}

/// Runs one workload and returns its summary line.
fn run(workload: &str, seed: u64, trace: u8) -> Object {
    let out = Command::new(env!("CARGO_BIN_EXE_bench_e2e"))
        .args(["--workload", workload, "--seconds", "1"])
        .args(["--seed", &seed.to_string(), "--trace", &trace.to_string()])
        .output()
        .expect("bench_e2e runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} exited {}:\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a summary line");
    match json::parse(last) {
        Ok(Value::Obj(o)) => o,
        _ => panic!("summary is not a JSON object: {last}"),
    }
}

fn metrics(summary: &Object) -> &Object {
    summary
        .get("metrics")
        .and_then(Value::as_object)
        .expect("metrics object")
}

fn count(summary: &Object, key: &str) -> u64 {
    summary
        .get(key)
        .and_then(Value::as_number)
        .and_then(|n| n.as_u64())
        .unwrap_or_else(|| panic!("{key} missing"))
}

fn shift_reduction(summary: &Object) -> u64 {
    metrics(summary)
        .get("shift_reduction_pct")
        .and_then(Value::as_object)
        .and_then(|m| m.get("value"))
        .and_then(Value::as_number)
        .expect("shift_reduction_pct value")
        .as_f64()
        .to_bits()
}

/// A clean run that printed exactly the `want` metrics.
fn assert_clean(summary: &Object, want: &BTreeSet<String>, what: &str) {
    assert_eq!(summary.get("correct"), Some(&Value::Bool(true)), "{what}");
    assert_eq!(count(summary, "failed"), 0, "{what}");
    assert!(count(summary, "attempted") > 0, "{what}");
    let printed: BTreeSet<String> = metrics(summary).iter().map(|(k, _)| k.to_owned()).collect();
    assert_eq!(&printed, want, "{what}: metric names");
}

#[test]
fn every_workload_prints_every_metric_and_fails_nothing() {
    let end_to_end = names_in("end_to_end");
    let per_layer = names_in("per_layer");
    let workloads = names_in("workloads");
    assert_eq!(workloads.len(), 3);
    for workload in &workloads {
        let untraced = run(workload, 7, 0);
        assert_clean(&untraced, &end_to_end, workload);
        assert_clean(&run(workload, 7, 1), &per_layer, workload);
        let other_seed = run(workload, 8, 0);
        assert_clean(&other_seed, &end_to_end, workload);
        assert_eq!(
            shift_reduction(&untraced),
            shift_reduction(&other_seed),
            "{workload}: the paper's objective must repeat bit for bit"
        );
    }
}
