//! Experiment F9 (extension): shift-fault exposure.
//!
//! With a per-shift slip probability of 1e-3, fewer shifts means fewer
//! position errors. For each kernel we report the analytic expected
//! slip count of the naive and hybrid placements, and the slips the
//! fault-injecting simulator actually observed (seeded, p scaled to
//! 2e-2 so counts are non-trivial at these trace lengths).

use dwm_core::{Hybrid, OrderOfAppearance, PlacementAlgorithm, TopologyCost};
use dwm_device::fault::ShiftFaultModel;
use dwm_device::{DeviceConfig, Topology};
use dwm_experiments::{workload_suite, Table, EXPERIMENT_SEED};
use dwm_graph::AccessGraph;
use dwm_sim::SpmSimulator;

fn main() {
    println!("Figure 9: shift-slip exposure, naive vs. hybrid placement\n");
    let analytic_model = ShiftFaultModel::new(1e-3);
    let injected_model = ShiftFaultModel::new(2e-2);
    let mut t = Table::new([
        "benchmark",
        "naive E[slips] (p=1e-3)",
        "hybrid E[slips]",
        "naive slips (sim, p=2e-2)",
        "hybrid slips (sim)",
    ]);
    for (name, trace) in workload_suite() {
        let graph = AccessGraph::from_trace(&trace);
        let cost = TopologyCost::single_port(Topology::linear(), graph.num_items());
        let naive_p = OrderOfAppearance.place(&graph);
        let hybrid_p = Hybrid::default().place(&graph);
        let naive_shifts = cost.trace_cost(&naive_p, &trace).stats.shifts;
        let hybrid_shifts = cost.trace_cost(&hybrid_p, &trace).stats.shifts;

        let config = DeviceConfig::builder()
            .domains_per_track(graph.num_items().max(1))
            .tracks_per_dbc(32)
            .build()
            .expect("valid");
        let simulate = |placement| {
            SpmSimulator::new(&config, placement)
                .expect("fits")
                .with_fault_injection(injected_model, EXPERIMENT_SEED)
                .run(&trace)
                .expect("replay")
        };
        let naive_sim = simulate(&naive_p);
        let hybrid_sim = simulate(&hybrid_p);
        assert_eq!(naive_sim.integrity_errors, 0);
        assert_eq!(hybrid_sim.integrity_errors, 0);
        t.row([
            name,
            format!("{:.2}", analytic_model.expected_slips(naive_shifts)),
            format!("{:.2}", analytic_model.expected_slips(hybrid_shifts)),
            naive_sim.slip_events.to_string(),
            hybrid_sim.slip_events.to_string(),
        ]);
    }
    t.print();
}
