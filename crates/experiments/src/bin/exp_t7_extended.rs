//! Experiment T7 (extension): the five extended kernels.
//!
//! Validates that the headline T3 result generalizes beyond the base
//! suite: image processing (conv2d), clustering (kmeans), shortest
//! paths (dijkstra), sparse algebra (spmv), and text search
//! (string-match), all on the single-port DBC with the hybrid pipeline.

use dwm_core::{Hybrid, OrderOfAppearance, OrganPipe, PlacementAlgorithm, TopologyCost};
use dwm_device::Topology;
use dwm_experiments::{percent_reduction, Table};
use dwm_foundation::par;
use dwm_graph::AccessGraph;
use dwm_trace::kernels::Kernel;

fn main() {
    println!("Table 7: extended kernels, shifts on a single-port DBC\n");
    let mut t = Table::new([
        "benchmark",
        "items",
        "accesses",
        "naive",
        "organ-pipe",
        "hybrid",
        "reduction",
    ]);
    // Kernels are independent; rows come back in suite order.
    let kernels = Kernel::extended_suite();
    let rows = par::par_map(&kernels, |kernel| {
        let trace = kernel.trace();
        let graph = AccessGraph::from_trace(&trace);
        let model = TopologyCost::single_port(Topology::linear(), graph.num_items());
        let naive = model
            .trace_cost(&OrderOfAppearance.place(&graph), &trace)
            .stats
            .shifts;
        let pipe = model
            .trace_cost(&OrganPipe.place(&graph), &trace)
            .stats
            .shifts;
        let hybrid = model
            .trace_cost(&Hybrid::default().place(&graph), &trace)
            .stats
            .shifts;
        [
            kernel.name().to_string(),
            graph.num_items().to_string(),
            trace.len().to_string(),
            naive.to_string(),
            pipe.to_string(),
            hybrid.to_string(),
            percent_reduction(naive, hybrid),
        ]
    });
    for row in rows {
        t.row(row);
    }
    t.print();
}
