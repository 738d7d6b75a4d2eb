//! Experiment F3: normalized shift count per benchmark (bar-chart
//! data). Every algorithm's shifts are divided by the naive placement's
//! shifts; 1.000 = naive, lower is better. The "gmean" row is the
//! geometric mean across benchmarks — the headline reduction figure.

use dwm_core::TopologyCost;
use dwm_device::Topology;
use dwm_experiments::{algorithm_suite, workload_suite, Table};
use dwm_graph::AccessGraph;

fn main() {
    println!("Figure 3: shifts normalized to the naive placement (lower is better)\n");
    let algorithms = algorithm_suite();
    let mut header: Vec<String> = vec!["benchmark".into()];
    header.extend(algorithms.iter().map(|a| a.name()));
    let mut t = Table::new(header);

    let mut log_sums = vec![0.0f64; algorithms.len()];
    let workloads = workload_suite();
    for (name, trace) in &workloads {
        let graph = AccessGraph::from_trace(trace);
        let model = TopologyCost::single_port(Topology::linear(), graph.num_items());
        let naive = model
            .trace_cost(&algorithms[0].place(&graph), trace)
            .stats
            .shifts;
        let mut cells = vec![name.clone()];
        for (i, alg) in algorithms.iter().enumerate() {
            let shifts = model.trace_cost(&alg.place(&graph), trace).stats.shifts;
            let ratio = shifts as f64 / naive.max(1) as f64;
            log_sums[i] += ratio.ln();
            cells.push(format!("{ratio:.3}"));
        }
        t.row(cells);
    }
    let mut gmean = vec!["gmean".to_string()];
    for s in &log_sums {
        gmean.push(format!("{:.3}", (s / workloads.len() as f64).exp()));
    }
    t.row(gmean);
    t.print();
}
