//! Compare the full algorithm suite on one benchmark kernel.
//!
//! ```text
//! cargo run --release --example placement_compare [kernel]
//! ```
//!
//! `kernel` is one of: matmul, fft, insertion-sort, merge-sort,
//! stencil2d, histogram, lu, bfs (default: histogram).

use dwm_placement::core::algorithms::standard_suite;
use dwm_placement::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let wanted = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "histogram".into());
    let kernel = Kernel::suite()
        .into_iter()
        .find(|k| k.name() == wanted)
        .ok_or_else(|| {
            format!(
                "unknown kernel {wanted:?}; choose from: {}",
                Kernel::suite()
                    .iter()
                    .map(|k| k.name())
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        })?;

    let trace = kernel.trace();
    let graph = AccessGraph::from_trace(&trace);
    println!("{}: {}\n", kernel.name(), trace.stats());

    let model = TopologyCost::single_port(Topology::linear(), graph.num_items());
    let config = DeviceConfig::default();
    let projection = CostProjection::new(&config);

    println!(
        "{:<16} {:>10} {:>12} {:>12} {:>10}",
        "algorithm", "shifts", "cycles", "energy (nJ)", "vs naive"
    );
    let naive = model
        .trace_cost(&Placement::identity(graph.num_items()), &trace)
        .stats
        .shifts;
    for alg in standard_suite(42) {
        let stats = model.trace_cost(&alg.place(&graph), &trace).stats;
        println!(
            "{:<16} {:>10} {:>12} {:>12.2} {:>9.1}%",
            alg.name(),
            stats.shifts,
            projection.latency(&stats).total_cycles(),
            projection.energy(&stats).total_nj(),
            100.0 * (naive as f64 - stats.shifts as f64) / naive as f64
        );
    }
    Ok(())
}
