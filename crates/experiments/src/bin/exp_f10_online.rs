//! Experiment F10 (extension): online adaptive placement.
//!
//! A phase-changing workload (four Markov phases whose hot clusters
//! live on disjoint, shuffled parts of the item space) is served by:
//!
//! * `static-naive` — identity placement, never changes;
//! * `static-oracle` — one hybrid placement computed offline from the
//!   *whole* trace (the best any static scheme can do with perfect
//!   profile knowledge);
//! * `online` — the windowed adaptive placer at three migration-cost
//!   settings, paying explicit migration shifts at every re-placement.
//!
//! The point of the figure: adaptation beats even the oracle when
//! phases disagree, and its migration overhead stays a small fraction
//! of the access bill.
//!
//! The window profiles (per-window traces and graphs) depend only on
//! the trace and the window length, so they are computed **once** and
//! shared across the configuration sweep via
//! [`OnlinePlacer::run_profiles`] — replaying the whole trace from
//! offset 0 per configuration would redo that dominant work per row.
//! The dedupe is guarded: the headline configuration is also replayed
//! the slow way and must match the profile-based run exactly.

use dwm_core::online::{window_profiles, OnlineConfig, OnlinePlacer};
use dwm_core::{Hybrid, Placement, PlacementAlgorithm, TopologyCost};
use dwm_device::Topology;
use dwm_experiments::{percent_reduction, Table, EXPERIMENT_SEED};
use dwm_graph::AccessGraph;
use dwm_trace::synth::{PhasedGen, TraceGenerator};

const WINDOW: usize = 1000;

fn main() {
    println!("Figure 10: static vs. online placement on a 4-phase workload (64 items)\n");
    let trace = PhasedGen::new(64, 4, EXPERIMENT_SEED).generate(20_000);
    let n = trace.num_items();
    let model = TopologyCost::single_port(Topology::linear(), n);

    let naive = model
        .trace_cost(&Placement::identity(n), &trace)
        .stats
        .shifts;
    let oracle_placement = Hybrid::default().place(&AccessGraph::from_trace(&trace));
    let oracle = model.trace_cost(&oracle_placement, &trace).stats.shifts;

    // One profile pass shared by every online configuration.
    let profiles = window_profiles(&trace, WINDOW, n);
    let config = |migration_shifts_per_item| OnlineConfig {
        window: WINDOW,
        migration_shifts_per_item,
        ..OnlineConfig::default()
    };
    let online: Vec<_> = [16u64, 64, 256]
        .into_iter()
        .map(|m| (m, OnlinePlacer::new(config(m)).run_profiles(n, &profiles)))
        .collect();
    // Guard the dedupe: shared profiles must reproduce the per-config
    // full replay bit for bit (checked on the headline setting).
    assert_eq!(
        online[1].1,
        OnlinePlacer::new(config(64)).run(&trace),
        "profile-based replay diverged from the full trace replay"
    );

    let mut t = Table::new([
        "scheme",
        "access shifts",
        "migration shifts",
        "total",
        "vs naive",
    ]);
    t.row([
        "static-naive".to_string(),
        naive.to_string(),
        "0".into(),
        naive.to_string(),
        "0.0%".into(),
    ]);
    t.row([
        "static-oracle".to_string(),
        oracle.to_string(),
        "0".into(),
        oracle.to_string(),
        percent_reduction(naive, oracle),
    ]);
    for (m, report) in &online {
        t.row([
            format!("online (m={m})"),
            report.access_shifts.to_string(),
            report.migration_shifts.to_string(),
            report.total_shifts().to_string(),
            percent_reduction(naive, report.total_shifts()),
        ]);
    }
    t.print();
    let (_, headline) = &online[1];
    println!(
        "\nonline (m=64) adaptations: {} ({} items moved in total)",
        headline.migrations, headline.items_moved
    );
}
