//! Experiment: track-topology sweep — shifts, energy, and wear per
//! kernel under all four geometries.
//!
//! The same hybrid placement (the solver optimizes adjacency, which is
//! geometry-agnostic) is replayed through the single-port
//! [`TopologyCost`] for each topology, so the table isolates what the
//! *geometry* buys or costs on an identical data layout:
//!
//! - `linear` is the paper's model and the baseline row per kernel.
//! - `ring` can only shorten distances (wraparound offers a second
//!   direction for every move), so its shifts are ≤ linear everywhere.
//! - `grid2d` folds the tape into rows of 8; row hops cost 2x a column
//!   hop, so whether it wins depends on the kernel's stride pattern.
//! - `pirm` quantizes to 4-word transverse windows (intra-window moves
//!   are free) but pays a 1.5x per-step energy/wear weight.
//!
//! Energy goes through [`CostProjection::with_topology`] on a device
//! sized to the kernel; wear is shift steps scaled by the topology's
//! wear weight. `--small` restricts to kernels with ≤ 64 items (the CI
//! smoke corpus); `--csv` emits machine-readable rows.

use dwm_core::{Hybrid, PlacementAlgorithm, TopologyCost};
use dwm_device::{CostProjection, DeviceConfig, Topology, TrackTopology};
use dwm_experiments::{workload_suite, Table};
use dwm_graph::AccessGraph;

/// The four geometries swept per kernel; the grid folds `n` words into
/// rows of 8 (the smallest grid of 8-word rows that holds the track).
fn topologies(n: usize) -> Vec<Topology> {
    let cols = n.div_ceil(8).max(1);
    vec![
        Topology::linear(),
        Topology::parse("ring").expect("valid spec"),
        Topology::parse(&format!("grid2d:8x{cols}")).expect("valid spec"),
        Topology::parse("pirm:4").expect("valid spec"),
    ]
}

fn main() {
    let small = std::env::args().any(|a| a == "--small");
    println!("Topology sweep: shifts / energy / wear per kernel (hybrid placement, 1 port)\n");
    let mut t = Table::new([
        "benchmark",
        "topology",
        "shifts",
        "vs linear",
        "energy (nJ)",
        "wear (units)",
    ]);
    for (name, trace) in workload_suite() {
        let graph = AccessGraph::from_trace(&trace);
        let n = graph.num_items();
        if small && n > 64 {
            continue;
        }
        let placement = Hybrid::default().place(&graph);
        let config = DeviceConfig::builder()
            .domains_per_track(n.next_power_of_two().max(64))
            .tracks_per_dbc(32)
            .build()
            .expect("valid device config");
        let mut linear_shifts = 0u64;
        for topology in topologies(n) {
            let model = TopologyCost::single_port(topology, n);
            let stats = model.trace_cost(&placement, &trace).stats;
            if topology.is_linear() {
                linear_shifts = stats.shifts;
            }
            let energy = CostProjection::with_topology(&config, &topology)
                .energy(&stats)
                .total_nj();
            t.row([
                name.clone(),
                topology.canonical(),
                stats.shifts.to_string(),
                format!(
                    "{:+.1}%",
                    100.0 * (stats.shifts as f64 - linear_shifts as f64)
                        / linear_shifts.max(1) as f64
                ),
                format!("{energy:.1}"),
                format!("{:.0}", topology.wear_units(&stats)),
            ]);
        }
    }
    t.print();
    println!(
        "\n(same placement everywhere: ring wraparound only shortens distances, the grid \
         trades row hops at 2x a column hop, and pirm's free intra-window moves pay a \
         1.5x transverse energy/wear weight)"
    );
}
