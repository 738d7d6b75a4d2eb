//! Explore the access-port count tradeoff.
//!
//! More ports mean shorter shifts but more padding domains (lower
//! storage efficiency). This example sweeps 1–8 ports on a Zipf
//! workload and prints shifts/access, padding overhead, and the
//! efficiency-adjusted figure a designer actually trades off.
//!
//! ```text
//! cargo run --release --example port_sweep
//! ```

use dwm_placement::prelude::*;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let l = 64;
    let trace = ZipfGen::new(l, 7).generate(20_000).normalize();
    let graph = AccessGraph::from_trace(&trace);
    let placement = Hybrid::default().place(&graph);

    println!("Zipf workload, {l}-word DBC, hybrid placement\n");
    println!(
        "{:>6} {:>14} {:>16} {:>12}",
        "ports", "shifts/access", "padding domains", "efficiency"
    );
    for ports in [1usize, 2, 4, 8] {
        let config = DeviceConfig::builder()
            .domains_per_track(l)
            .ports(ports)
            .build()?;
        let model = TopologyCost::new(Topology::linear(), config.port_layout().clone(), l);
        let stats = model.trace_cost(&placement, &trace).stats;
        println!(
            "{:>6} {:>14.2} {:>16} {:>11.1}%",
            ports,
            stats.mean_shift(),
            config.overhead_domains(),
            config.storage_efficiency() * 100.0
        );
    }
    Ok(())
}
