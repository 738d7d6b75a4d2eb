//! Integration tests for the `dwm_foundation::obs` observability
//! substrate: concurrent-increment exactness (property-tested via the
//! seeded [`Checker`] harness), end-to-end solver instrumentation, and
//! the disabled-mode no-op guarantee.
//!
//! Tests that flip the process-global `DWM_OBS` override hold
//! [`obs::TEST_OVERRIDE_LOCK`] for their whole body so they serialize
//! against each other (the same pattern `par::override_threads` tests
//! use for `DWM_THREADS`).

use dwm_foundation::obs::{self, Registry};
use dwm_foundation::{require_eq, Checker, Rng};
use dwm_placement::prelude::*;
use dwm_placement::trace::kernels::Kernel;

/// Counters lose no increments under contention: for any
/// thread count and per-thread workload, the value is the exact sum.
#[test]
fn concurrent_counter_increments_are_exact() {
    let _lock = obs::TEST_OVERRIDE_LOCK.lock().unwrap();
    let _on = obs::override_enabled(true);
    Checker::new("concurrent_counter_increments_are_exact")
        .cases(24)
        .run(
            |rng: &mut Rng| {
                let threads = rng.gen_range(1..=8usize);
                let per_thread: Vec<u64> =
                    (0..threads).map(|_| rng.gen_range(1..=2000u64)).collect();
                per_thread
            },
            |per_thread| {
                let registry = Registry::new();
                let counter = registry.counter("dwm_test_contended_total", "test");
                std::thread::scope(|scope| {
                    for &n in per_thread {
                        let counter = &counter;
                        scope.spawn(move || {
                            for _ in 0..n {
                                counter.inc();
                            }
                        });
                    }
                });
                require_eq!(counter.value(), per_thread.iter().sum::<u64>());
                Ok(())
            },
        );
}

/// Atomic histograms lose no samples under contention, and the
/// snapshot's percentiles stay within the recorded range.
#[test]
fn concurrent_histogram_records_are_exact() {
    let _lock = obs::TEST_OVERRIDE_LOCK.lock().unwrap();
    let _on = obs::override_enabled(true);
    Checker::new("concurrent_histogram_records_are_exact")
        .cases(16)
        .run(
            |rng: &mut Rng| {
                let threads = rng.gen_range(2..=6usize);
                (0..threads)
                    .map(|_| {
                        (0..rng.gen_range(1..=500usize))
                            .map(|_| rng.gen_range(0..1_000_000u64))
                            .collect::<Vec<u64>>()
                    })
                    .collect::<Vec<_>>()
            },
            |samples| {
                let registry = Registry::new();
                let hist = registry.histogram("dwm_test_latency_ns", "test");
                std::thread::scope(|scope| {
                    for batch in samples {
                        let hist = &hist;
                        scope.spawn(move || {
                            for &v in batch {
                                hist.record(v);
                            }
                        });
                    }
                });
                let total: usize = samples.iter().map(Vec::len).sum();
                let snapshot = hist.snapshot();
                require_eq!(snapshot.count(), total as u64);
                let lo = *samples.iter().flatten().min().unwrap();
                let hi = *samples.iter().flatten().max().unwrap();
                let p50 = snapshot.percentile(0.5).unwrap();
                // Bucketed percentiles report a bucket upper bound, so
                // allow the coarse (~1.6%) bucket slack above `hi`.
                dwm_foundation::require!(
                    p50 >= lo && p50 <= hi + hi / 32 + 1,
                    "p50 {p50} outside recorded range [{lo}, {hi}]"
                );
                Ok(())
            },
        );
}

/// Running an instrumented solver advances its global counters: the
/// wiring is live end to end, not just registered.
#[test]
fn solver_runs_advance_global_metrics() {
    let _lock = obs::TEST_OVERRIDE_LOCK.lock().unwrap();
    let _on = obs::override_enabled(true);
    let moves = obs::global().counter(
        "dwm_solver_annealing_moves_proposed_total",
        "Annealing move proposals",
    );
    let evals = obs::global().counter(
        "dwm_graph_eval_delta_evals_total",
        "Incremental delta evaluations",
    );
    let (moves_before, evals_before) = (moves.value(), evals.value());

    let trace = Kernel::MatMul { n: 6, block: 2 }.trace();
    let graph = AccessGraph::from_trace(&trace);
    let placement = SimulatedAnnealing::new(7).place(&graph);
    assert_eq!(placement.num_items(), graph.num_items());

    // Strictly greater: counters are monotonic and global, so
    // concurrent work elsewhere can only push them further up.
    assert!(moves.value() > moves_before, "annealing counter static");
    assert!(evals.value() > evals_before, "delta-eval counter static");
}

/// With the knob off, the same solver run moves nothing — the gated
/// hot paths really are no-ops, not just cheaper.
#[test]
fn disabled_mode_leaves_solver_metrics_untouched() {
    let _lock = obs::TEST_OVERRIDE_LOCK.lock().unwrap();
    let _off = obs::override_enabled(false);
    let moves = obs::global().counter(
        "dwm_solver_annealing_moves_proposed_total",
        "Annealing move proposals",
    );
    let before = moves.value();

    let trace = Kernel::Fft { n: 32, block: 1 }.trace();
    let graph = AccessGraph::from_trace(&trace);
    let placement = SimulatedAnnealing::new(11).place(&graph);
    assert_eq!(placement.num_items(), graph.num_items());

    // Only this binary's tests touch solver metrics in this process,
    // and all of them hold TEST_OVERRIDE_LOCK, so no concurrent bump.
    assert_eq!(moves.value(), before, "disabled counter moved");
}
