//! Experiment V1 (sanity, not in the paper): cross-validation of the
//! analytic cost model against the bit-level simulator.
//!
//! For every kernel, the single-port analytic shift count and the
//! functional simulator's shift count must agree exactly, and the
//! simulator's data-integrity check must report zero errors. The
//! binary exits nonzero on any mismatch so it can gate CI.

use dwm_core::{GroupedChainGrowth, PlacementAlgorithm, TopologyCost};
use dwm_device::{DeviceConfig, Topology};
use dwm_experiments::{workload_suite, Table};
use dwm_graph::AccessGraph;
use dwm_sim::SpmSimulator;

fn main() {
    println!("V1: analytic model vs. bit-level simulator (grouped-chain placement)\n");
    let mut t = Table::new(["benchmark", "analytic", "simulated", "integrity", "match"]);
    let mut ok = true;
    for (name, trace) in workload_suite() {
        let graph = AccessGraph::from_trace(&trace);
        let placement = GroupedChainGrowth.place(&graph);
        let analytic = TopologyCost::single_port(Topology::linear(), graph.num_items())
            .trace_cost(&placement, &trace)
            .stats
            .shifts;
        let config = DeviceConfig::builder()
            .domains_per_track(trace.num_items().max(1))
            .tracks_per_dbc(32)
            .build()
            .expect("valid config");
        let mut sim = SpmSimulator::new(&config, &placement).expect("geometry fits");
        let report = sim.run(&trace).expect("replay succeeds");
        let matched = report.stats.shifts == analytic && report.integrity_errors == 0;
        ok &= matched;
        t.row([
            name,
            analytic.to_string(),
            report.stats.shifts.to_string(),
            report.integrity_errors.to_string(),
            if matched { "OK" } else { "MISMATCH" }.to_string(),
        ]);
    }
    t.print();
    if !ok {
        eprintln!("cross-validation FAILED");
        std::process::exit(1);
    }
    println!("\nall benchmarks cross-validate");
}
