//! Experiment F6: latency and energy improvement.
//!
//! Projects the T3 shift reductions through the device timing/energy
//! model (experiment T1's parameters): per benchmark, total access
//! latency and energy of the naive vs. hybrid placements.

use dwm_core::{Hybrid, OrderOfAppearance, PlacementAlgorithm, TopologyCost};
use dwm_device::{CostProjection, DeviceConfig, Topology};
use dwm_experiments::{workload_suite, Table};
use dwm_graph::AccessGraph;

fn main() {
    println!("Figure 6: latency / energy of naive vs. hybrid (single-port DBC)\n");
    let mut t = Table::new([
        "benchmark",
        "naive cycles",
        "hybrid cycles",
        "latency gain",
        "naive nJ",
        "hybrid nJ",
        "energy gain",
    ]);
    let config = DeviceConfig::default();
    let projection = CostProjection::new(&config);
    for (name, trace) in workload_suite() {
        let graph = AccessGraph::from_trace(&trace);
        let model = TopologyCost::single_port(Topology::linear(), graph.num_items());
        let naive = model
            .trace_cost(&OrderOfAppearance.place(&graph), &trace)
            .stats;
        let grouped = model
            .trace_cost(&Hybrid::default().place(&graph), &trace)
            .stats;
        let (nl, gl) = (
            projection.latency(&naive).total_cycles(),
            projection.latency(&grouped).total_cycles(),
        );
        let (ne, ge) = (
            projection.energy(&naive).total_nj(),
            projection.energy(&grouped).total_nj(),
        );
        t.row([
            name,
            nl.to_string(),
            gl.to_string(),
            format!("{:.2}x", nl as f64 / gl.max(1) as f64),
            format!("{ne:.2}"),
            format!("{ge:.2}"),
            format!("{:.2}x", ne / ge.max(1e-12)),
        ]);
    }
    t.print();
}
