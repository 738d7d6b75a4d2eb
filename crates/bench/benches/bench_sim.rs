//! F6/V1: bit-level simulator replay throughput vs. the analytic model.

use dwm_bench::matmul_fixture;
use dwm_core::{Hybrid, PlacementAlgorithm, TopologyCost};
use dwm_device::{DeviceConfig, Topology};
use dwm_foundation::bench::{black_box, Harness};
use dwm_sim::SpmSimulator;

fn main() {
    let (trace, graph) = matmul_fixture();
    let n = graph.num_items();
    let placement = Hybrid::default().place(&graph);
    let config = DeviceConfig::builder()
        .domains_per_track(n)
        .tracks_per_dbc(32)
        .build()
        .expect("valid");

    let mut h = Harness::from_env("sim");
    let model = TopologyCost::single_port(Topology::linear(), n);
    h.bench("replay/analytic", || {
        model.trace_cost(black_box(&placement), &trace)
    });
    h.bench("replay/bit_level_sim", || {
        let mut sim = SpmSimulator::new(&config, &placement).expect("fits");
        sim.run(black_box(&trace)).expect("replay")
    });

    // Non-linear topology replay: the ring's min-of-two-directions plan
    // and the grid's two-axis plan.
    let ring = TopologyCost::single_port(Topology::parse("ring").expect("valid"), n);
    h.bench("shift_ring", || {
        ring.trace_cost(black_box(&placement), &trace)
    });
    let cols = n.div_ceil(8).max(1);
    let grid = TopologyCost::single_port(
        Topology::parse(&format!("grid2d:8x{cols}")).expect("valid"),
        n,
    );
    h.bench("shift_grid2d", || {
        grid.trace_cost(black_box(&placement), &trace)
    });
    h.finish();
}
