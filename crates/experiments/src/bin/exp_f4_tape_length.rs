//! Experiment F4: sensitivity to tape length (domains per track).
//!
//! Longer tapes hold more items but make bad placements costlier. We
//! scale a Markov-clustered workload to fill tapes of L ∈
//! {16,32,64,128,256} words and report shifts-per-access of the naive,
//! organ-pipe, and grouped-chain placements, plus the reduction of
//! grouped over naive at each L.

use dwm_core::{
    GroupedChainGrowth, OrderOfAppearance, OrganPipe, PlacementAlgorithm, TopologyCost,
};
use dwm_device::Topology;
use dwm_experiments::{percent_reduction, Table, EXPERIMENT_SEED};
use dwm_foundation::par;
use dwm_graph::AccessGraph;
use dwm_trace::synth::{MarkovGen, TraceGenerator};

fn main() {
    println!("Figure 4: shifts/access vs. tape length L (Markov workload, 20k accesses)\n");
    let mut t = Table::new(["L", "naive", "organ-pipe", "grouped-chain", "reduction"]);
    let lengths = [16usize, 32, 64, 128, 256];
    // Each tape length is an independent cell; par_map keeps the rows
    // in L order regardless of DWM_THREADS.
    let rows = par::par_map(&lengths, |&l| {
        let trace = MarkovGen::new(l, (l / 8).max(2), EXPERIMENT_SEED)
            .with_stay(0.9)
            .generate(20_000)
            .normalize();
        let graph = AccessGraph::from_trace(&trace);
        let model = TopologyCost::single_port(Topology::linear(), graph.num_items());
        let naive = model
            .trace_cost(&OrderOfAppearance.place(&graph), &trace)
            .stats;
        let pipe = model.trace_cost(&OrganPipe.place(&graph), &trace).stats;
        let grouped = model
            .trace_cost(&GroupedChainGrowth.place(&graph), &trace)
            .stats;
        [
            l.to_string(),
            format!("{:.2}", naive.mean_shift()),
            format!("{:.2}", pipe.mean_shift()),
            format!("{:.2}", grouped.mean_shift()),
            percent_reduction(naive.shifts, grouped.shifts),
        ]
    });
    for row in rows {
        t.row(row);
    }
    t.print();
}
