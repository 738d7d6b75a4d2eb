//! Experiment F5: sensitivity to the number of access ports.
//!
//! More ports shrink shift distances for *any* placement (at an area
//! and padding cost, see T1b); the question is whether placement still
//! matters. We replay the kernel suite under 1/2/4/8 evenly spaced
//! ports and report aggregate shifts of naive vs. the hybrid pipeline and
//! the surviving reduction.

use dwm_core::{Hybrid, OrderOfAppearance, PlacementAlgorithm, TopologyCost, TraceRefiner};
use dwm_device::{PortLayout, Topology};
use dwm_experiments::{percent_reduction, workload_suite, Table};
use dwm_foundation::par;
use dwm_graph::AccessGraph;

fn main() {
    println!("Figure 5: total shifts (kernel suite) vs. port count, L = 64\n");
    let mut t = Table::new(["ports", "naive", "hybrid", "hybrid+tr", "reduction (tr)"]);
    let workloads = workload_suite();
    // port-count × workload cells are all independent; fan the port
    // rows out and let the inner placement portfolio parallelize too.
    let port_counts = [1usize, 2, 4, 8];
    let rows = par::par_map(&port_counts, |&ports| {
        let model = TopologyCost::new(Topology::linear(), PortLayout::evenly_spaced(ports, 64), 64);
        let mut naive_total = 0u64;
        let mut hybrid_total = 0u64;
        let mut refined_total = 0u64;
        for (_, trace) in &workloads {
            let graph = AccessGraph::from_trace(trace);
            naive_total += model
                .trace_cost(&OrderOfAppearance.place(&graph), trace)
                .stats
                .shifts;
            let hybrid = Hybrid::default().place(&graph);
            hybrid_total += model.trace_cost(&hybrid, trace).stats.shifts;
            // Model-aware retuning: repair the single-port bias for
            // this port geometry (see core::algorithms::TraceRefiner).
            let mut refined = hybrid;
            TraceRefiner::default().refine(&model, trace, &mut refined);
            refined_total += model.trace_cost(&refined, trace).stats.shifts;
        }
        [
            ports.to_string(),
            naive_total.to_string(),
            hybrid_total.to_string(),
            refined_total.to_string(),
            percent_reduction(naive_total, refined_total),
        ]
    });
    for row in rows {
        t.row(row);
    }
    t.print();
}
