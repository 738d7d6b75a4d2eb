//! Experiment F8 (ablation): read-only vs. read-write port mix.
//!
//! Real DWM macros pair many cheap read heads with few expensive write
//! heads. Fixing 4 ports on a 64-word tape, we sweep how many are
//! read-write and replay the kernel suite with the hybrid placement.
//! Write-heavy kernels (fft, histogram, merge-sort) pay the most for
//! losing writers; read-dominated ones (bfs, stencil) barely notice.

use dwm_core::{Hybrid, PlacementAlgorithm, TopologyCost};
use dwm_device::{Topology, TypedPortLayout};
use dwm_experiments::{workload_suite, Table};
use dwm_graph::AccessGraph;

fn main() {
    println!("Figure 8: total shifts vs. read-write port count (4 ports total, L = 64)\n");
    let mut header = vec!["benchmark".to_string(), "write share".into()];
    for rw in [4usize, 2, 1] {
        header.push(format!("{rw}rw"));
    }
    header.push("penalty 4rw->1rw".into());
    let mut t = Table::new(header);

    for (name, trace) in workload_suite() {
        let graph = AccessGraph::from_trace(&trace);
        let placement = Hybrid::default().place(&graph);
        let stats = trace.stats();
        let mut shifts = Vec::new();
        for rw in [4usize, 2, 1] {
            let ports = TypedPortLayout::evenly_spaced(4, rw, 64);
            let model = TopologyCost::typed(Topology::linear(), &ports, 64);
            shifts.push(model.trace_cost(&placement, &trace).stats.shifts);
        }
        let mut cells = vec![
            name,
            format!("{:.0}%", 100.0 * stats.writes as f64 / stats.length as f64),
        ];
        for &s in &shifts {
            cells.push(s.to_string());
        }
        cells.push(format!(
            "{:.2}x",
            shifts[2] as f64 / shifts[0].max(1) as f64
        ));
        t.row(cells);
    }
    t.print();
}
