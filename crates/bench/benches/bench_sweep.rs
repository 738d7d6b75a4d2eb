//! F4/F5: cost-model replay across tape lengths and port counts, plus
//! the parallel sweep (one hybrid-pipeline cell per workload, fanned
//! over the `dwm_foundation::par` workers).

use dwm_bench::{markov_fixture, suite_fixture};
use dwm_core::{Hybrid, PlacementAlgorithm, TopologyCost};
use dwm_device::{PortLayout, Topology};
use dwm_foundation::bench::{black_box, Harness};
use dwm_foundation::par;

fn main() {
    let mut h = Harness::from_env("sweep");
    for l in [16usize, 64, 256] {
        let (trace, graph) = markov_fixture(l);
        let placement = Hybrid::default().place(&graph);
        let model = TopologyCost::single_port(Topology::linear(), l);
        h.bench(&format!("replay_tape_length/{l}"), || {
            model.trace_cost(black_box(&placement), black_box(&trace))
        });
    }
    let (trace, graph) = markov_fixture(64);
    let placement = Hybrid::default().place(&graph);
    for ports in [1usize, 2, 4, 8] {
        let model = TopologyCost::new(Topology::linear(), PortLayout::evenly_spaced(ports, 64), 64);
        h.bench(&format!("replay_ports/{ports}"), || {
            model.trace_cost(black_box(&placement), &trace)
        });
    }
    // The F4/F5-style sweep the experiment bins actually run: place and
    // replay every suite kernel. Cells are independent, so this is the
    // sequential-vs-parallel comparison the CI gate tracks.
    let suite = suite_fixture();
    h.bench_threads("suite_hybrid_sweep", || {
        par::par_map(&suite, |(_, trace, graph)| {
            let placement = Hybrid::default().place(black_box(graph));
            let model = TopologyCost::single_port(Topology::linear(), graph.num_items());
            model.trace_cost(&placement, trace).stats.shifts
        })
    });
    h.finish();
}
