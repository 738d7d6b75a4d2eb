//! Experiment S20: tiered anytime-portfolio quality/latency tradeoff.
//!
//! The serving path (`dwm-serve`, DESIGN.md §S20) exposes the paper's
//! quality/latency spectrum as three tiers: the greedy CSR fast path
//! (tier 0), windowed local search under a pass budget (tier 1), and
//! the heavy parallel portfolio (tier 2). This sweep runs every
//! benchmark kernel through all three tiers and records, per cell:
//!
//! * the arrangement cost and its reduction vs the naive
//!   order-of-appearance placement;
//! * the winning portfolio member (tier 2 only — provenance the serve
//!   cache records per entry);
//! * the closed-form planner estimate `estimate_us` next to measured
//!   wall-clock, since deadline-driven tier selection trusts the
//!   estimate and only audits the clock after the fact.
//!
//! The binary asserts the anytime ladder cell by cell: each tier is
//! never worse than the one below it, and tier 0 is never worse than
//! naive — the invariant that makes background cache upgrades safe.

use std::time::Instant;

use dwm_core::anytime::{self, AnytimeSolver, Tier};
use dwm_core::Placement;
use dwm_experiments::{percent_reduction, workload_suite, Table, EXPERIMENT_SEED};
use dwm_graph::AccessGraph;

fn main() {
    println!(
        "Experiment S20: anytime tier tradeoff per benchmark \
         (costs are single-port arrangement shifts)\n"
    );
    let mut t = Table::new([
        "benchmark",
        "items",
        "edges",
        "naive",
        "tier0",
        "tier1",
        "tier2",
        "tier2 winner",
        "est t0/t1 (us)",
        "measured t0/t1/t2 (us)",
    ]);

    let solver = AnytimeSolver::new(EXPERIMENT_SEED);
    for (name, trace) in workload_suite() {
        let graph = AccessGraph::from_trace(&trace);
        let (n, m) = (graph.num_items(), graph.num_edges());
        let naive = graph.arrangement_cost(Placement::identity(n).offsets());

        let mut outcomes = Vec::new();
        let mut measured = Vec::new();
        // The heuristic ladder only: tier 3 (exact) is size-bounded
        // and falls back to the tier-2 portfolio past 12 items, so it
        // adds nothing on these benchmarks.
        for tier in [Tier::Fast, Tier::Refined, Tier::Thorough] {
            let started = Instant::now();
            let outcome = solver.solve(&graph, tier, anytime::MAX_PASSES);
            measured.push(started.elapsed().as_micros());
            outcomes.push(outcome);
        }

        // The anytime ladder: each tier at least matches the one
        // below, and tier 0 at least matches naive. Background cache
        // upgrades in dwm-serve are sound *because* of this chain.
        assert!(
            outcomes[0].cost <= naive
                && outcomes[1].cost <= outcomes[0].cost
                && outcomes[2].cost <= outcomes[1].cost,
            "anytime ladder violated on {name}: naive {naive}, tiers {:?}",
            outcomes.iter().map(|o| o.cost).collect::<Vec<_>>(),
        );

        t.row([
            name.clone(),
            n.to_string(),
            m.to_string(),
            naive.to_string(),
            format!(
                "{} ({})",
                outcomes[0].cost,
                percent_reduction(naive, outcomes[0].cost)
            ),
            format!(
                "{} ({})",
                outcomes[1].cost,
                percent_reduction(naive, outcomes[1].cost)
            ),
            format!(
                "{} ({})",
                outcomes[2].cost,
                percent_reduction(naive, outcomes[2].cost)
            ),
            outcomes[2].solver.to_string(),
            format!(
                "{}/{}",
                anytime::estimate_us(Tier::Fast, n, m),
                anytime::estimate_us(Tier::Refined, n, m)
            ),
            format!("{}/{}/{}", measured[0], measured[1], measured[2]),
        ]);
    }
    t.print();
    println!(
        "\nladder held on every benchmark: tier2 <= tier1 <= tier0 <= naive \
         (wall-clock columns vary by host; costs and winners are deterministic)"
    );
}
