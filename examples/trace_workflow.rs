//! Trace files as the interchange format: record, save, reload, place.
//!
//! Demonstrates the workflow a compiler or pin-tool integration would
//! use — dump an access trace to the line-oriented text format, load
//! it back later, and compute a placement for it.
//!
//! ```text
//! cargo run --release --example trace_workflow
//! ```

use dwm_placement::prelude::*;
use dwm_placement::trace::io;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Record a trace (here: the BFS kernel stands in for instrumented
    // application code).
    let recorded = Kernel::Bfs {
        nodes: 48,
        degree: 3,
        seed: 99,
    }
    .trace();

    // Persist it in the text format (one `r <id>` / `w <id>` per line).
    let path = std::env::temp_dir().join("bfs.trace");
    io::save_text(&recorded, &path)?;
    println!(
        "saved {} accesses to {} ({} bytes)",
        recorded.len(),
        path.display(),
        std::fs::metadata(&path)?.len()
    );

    // ... later, in the placement tool ...
    let loaded = io::load_text(&path)?;
    assert_eq!(loaded, recorded);
    println!("reloaded: {}", loaded.stats());

    let graph = AccessGraph::from_trace(&loaded);
    let placement = Hybrid::default().place(&graph);
    let model = TopologyCost::single_port(Topology::linear(), graph.num_items());
    let naive = model
        .trace_cost(&Placement::identity(graph.num_items()), &loaded)
        .stats
        .shifts;
    let tuned = model.trace_cost(&placement, &loaded).stats.shifts;
    println!("placement: {naive} → {tuned} shifts");

    // The tape order, ready to hand to an allocator.
    println!(
        "first 10 tape slots: {:?}",
        &placement.order()[..10.min(placement.num_items())]
    );
    std::fs::remove_file(&path).ok();
    Ok(())
}
