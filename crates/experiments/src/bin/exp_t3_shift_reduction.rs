//! Experiment T3 (headline table): shift counts per algorithm per
//! benchmark on a single-port DBC, with reduction relative to the
//! naive order-of-appearance placement.
//!
//! The last column adds local-search refinement on top of the proposed
//! grouped-chain algorithm ("grouped+ls"), the full pipeline.

use dwm_core::{GroupedChainGrowth, LocalSearch, TopologyCost};
use dwm_device::Topology;
use dwm_experiments::{algorithm_suite, percent_reduction, workload_suite, Table};
use dwm_foundation::par;
use dwm_graph::AccessGraph;

fn main() {
    println!("Table 3: total shifts per benchmark (single-port DBC); (reduction vs naive)\n");
    let algorithms = algorithm_suite();
    let mut header: Vec<String> = vec!["benchmark".into()];
    header.extend(algorithms.iter().map(|a| a.name()));
    header.push("grouped+ls".into());
    let mut t = Table::new(header);

    // One row per benchmark, computed independently; row order follows
    // the workload suite at every DWM_THREADS setting.
    let workloads = workload_suite();
    let rows = par::par_map(&workloads, |(name, trace)| {
        let graph = AccessGraph::from_trace(trace);
        let model = TopologyCost::single_port(Topology::linear(), graph.num_items());
        let mut cells = vec![name.clone()];
        let naive_shifts = model
            .trace_cost(&algorithms[0].place(&graph), trace)
            .stats
            .shifts;
        for alg in &algorithms {
            let shifts = model.trace_cost(&alg.place(&graph), trace).stats.shifts;
            if alg.name() == "naive" {
                cells.push(shifts.to_string());
            } else {
                cells.push(format!(
                    "{} ({})",
                    shifts,
                    percent_reduction(naive_shifts, shifts)
                ));
            }
        }
        let refined = LocalSearch::default().refine_placement_of(&GroupedChainGrowth, &graph);
        let shifts = model.trace_cost(&refined, trace).stats.shifts;
        cells.push(format!(
            "{} ({})",
            shifts,
            percent_reduction(naive_shifts, shifts)
        ));
        cells
    });
    for row in rows {
        t.row(row);
    }
    t.print();
}
