//! Online placement on a phase-changing workload.
//!
//! Constructs a workload whose hot clusters rotate every few thousand
//! accesses and compares static placements against the windowed
//! adaptive placer (which pays explicit migration shifts).
//!
//! ```text
//! cargo run --release --example adaptive_placement
//! ```

use dwm_placement::core::online::{OnlineConfig, OnlinePlacer};
use dwm_placement::prelude::*;

fn main() {
    // Three phases, each a clustered walk over a different shuffle of
    // 48 items.
    let mut ids = Vec::new();
    for phase in 0..3u64 {
        let t = MarkovGen::new(48, 6, phase).with_stay(0.95).generate(6000);
        let stride = 2 * phase as usize + 1;
        ids.extend(
            t.iter()
                .map(|a| ((a.item.index() * stride + 5) % 48) as u32),
        );
    }
    let trace = Trace::from_ids(ids);
    println!("workload: {}\n", trace.stats());

    let model = TopologyCost::single_port(Topology::linear(), trace.num_items());
    let naive = model
        .trace_cost(&Placement::identity(trace.num_items()), &trace)
        .stats
        .shifts;
    let oracle = model
        .trace_cost(
            &Hybrid::default().place(&AccessGraph::from_trace(&trace)),
            &trace,
        )
        .stats
        .shifts;
    let report = OnlinePlacer::new(OnlineConfig {
        window: 1500,
        migration_shifts_per_item: 48,
        ..OnlineConfig::default()
    })
    .run(&trace);

    println!("static-naive : {naive} shifts");
    println!(
        "static-oracle: {oracle} shifts ({:.1}% better than naive)",
        100.0 * (naive - oracle) as f64 / naive as f64
    );
    println!(
        "online       : {} shifts = {} access + {} migration ({:.1}% better than naive, {} adaptations)",
        report.total_shifts(),
        report.access_shifts,
        report.migration_shifts,
        100.0 * (naive as f64 - report.total_shifts() as f64) / naive as f64,
        report.migrations
    );
}
