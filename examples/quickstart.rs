//! Quickstart: place a tiny workload on a DWM tape and count shifts.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use dwm_placement::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A workload: the FFT kernel's real access sequence.
    let trace = Kernel::Fft { n: 32, block: 1 }.trace();
    println!("workload: {} — {}", trace.label(), trace.stats());

    // 2. Its access graph: edge weight = adjacent co-access count.
    let graph = AccessGraph::from_trace(&trace);
    println!(
        "access graph: {} items, {} edges, total weight {}",
        graph.num_items(),
        graph.num_edges(),
        graph.total_weight()
    );

    // 3. Compare the naive first-touch placement with the proposed
    //    hybrid pipeline under the single-port shift model.
    let model = TopologyCost::single_port(Topology::linear(), graph.num_items());
    let naive = Placement::identity(graph.num_items());
    let tuned = Hybrid::default().place(&graph);
    let naive_shifts = model.trace_cost(&naive, &trace).stats.shifts;
    let tuned_shifts = model.trace_cost(&tuned, &trace).stats.shifts;
    println!("naive placement : {naive_shifts} shifts");
    println!(
        "hybrid placement: {tuned_shifts} shifts ({:.1}% fewer)",
        100.0 * (naive_shifts - tuned_shifts) as f64 / naive_shifts as f64
    );

    // 4. Verify on the bit-level simulator: same count, data intact.
    let config = DeviceConfig::builder()
        .domains_per_track(graph.num_items())
        .tracks_per_dbc(32)
        .build()?;
    let mut sim = SpmSimulator::new(&config, &tuned)?;
    let report = sim.run(&trace)?;
    assert_eq!(report.stats.shifts, tuned_shifts);
    assert_eq!(report.integrity_errors, 0);
    println!("simulator agrees: {report}");
    Ok(())
}
