//! The placement algorithm suite.
//!
//! Every algorithm consumes an [`AccessGraph`] (edge weights = adjacent
//! co-access counts, vertex weights = access frequencies) and produces
//! a [`Placement`]. The graph is already in CSR form, so each solver
//! has one entry point per job and walks flat neighbour rows directly;
//! no solver builds or converts a graph of its own. The suite mirrors
//! the comparison set of the paper's evaluation:
//!
//! | Algorithm | Role |
//! |-----------|------|
//! | [`OrderOfAppearance`] | naive baseline (first-touch order) |
//! | [`RandomPlacement`] | randomized baseline |
//! | [`OrganPipe`] | classic frequency-only placement (prior work) |
//! | [`ChainGrowth`] | adjacency-driven greedy chain merging |
//! | [`GreedyInsertion`] | best-position insertion (classic MinLA construction) |
//! | [`GroupedChainGrowth`] | chain growth + frequency-anchored group ordering (**the proposed algorithm**) |
//! | [`Spectral`] | Fiedler-vector ordering |
//! | [`SimulatedAnnealing`] | stochastic search comparator |
//! | [`LocalSearch`] | refinement pass composable with any of the above |
//! | [`Hybrid`] | **the full proposed pipeline**: best deterministic candidate + windowed local search (never worse than naive) |
//! | [`TraceRefiner`] | model-aware hill climbing — retunes a placement for multi-/typed-port tapes by replaying the trace |
//! | [`WindowedDp`] | sliding-window *exact* refinement: provably optimal reordering of each window, boundary-aware |

mod annealing;
mod baseline;
mod chain;
mod frequency;
mod hybrid;
mod insertion;
mod local_search;
mod multi_start;
mod spectral;
mod trace_refine;
mod window_dp;

pub use annealing::SimulatedAnnealing;
pub use baseline::{OrderOfAppearance, RandomPlacement};
pub use chain::{ChainGrowth, GroupedChainGrowth};
pub use frequency::OrganPipe;
pub use hybrid::Hybrid;
pub use insertion::GreedyInsertion;
pub use local_search::LocalSearch;
pub use multi_start::MultiStart;
pub use spectral::Spectral;
pub use trace_refine::TraceRefiner;
pub use window_dp::WindowedDp;

/// Touches every solver metric owned by this module so scrapes list
/// the full family (at zero) before any solve has run.
pub(crate) fn register_obs_metrics() {
    let _ = (
        annealing::moves_proposed_counter(),
        annealing::moves_accepted_counter(),
        local_search::window_passes_counter(),
        local_search::improving_swaps_counter(),
    );
}

use dwm_graph::AccessGraph;

use crate::placement::Placement;

/// A data-placement algorithm.
///
/// Implementations are cheap value types holding tuning parameters;
/// [`place`](PlacementAlgorithm::place) is a pure function of the
/// graph (seeded algorithms hold their seed, so results are
/// reproducible). The trait is object-safe: experiment sweeps iterate
/// over `&[&dyn PlacementAlgorithm]`. The `Send + Sync` bound lets
/// those sweeps fan algorithm×workload cells out over the
/// [`dwm_foundation::par`] workers; every implementor is a plain value
/// type, so the bound costs nothing.
pub trait PlacementAlgorithm: Send + Sync {
    /// Short, stable name for report tables.
    fn name(&self) -> String;

    /// Computes a placement of the graph's items onto offsets
    /// `0..num_items`.
    fn place(&self, graph: &AccessGraph) -> Placement;
}

/// The standard comparison suite used by the experiments, boxed for
/// uniform iteration. `seed` feeds the randomized algorithms.
pub fn standard_suite(seed: u64) -> Vec<Box<dyn PlacementAlgorithm>> {
    vec![
        Box::new(OrderOfAppearance),
        Box::new(RandomPlacement::new(seed)),
        Box::new(OrganPipe),
        Box::new(ChainGrowth),
        Box::new(GroupedChainGrowth),
        Box::new(GreedyInsertion),
        Box::new(Spectral::default()),
        Box::new(SimulatedAnnealing::new(seed)),
        Box::new(Hybrid::default()),
    ]
}

#[cfg(test)]
pub(crate) mod test_support {
    use dwm_graph::generators::degree_weighted;
    use dwm_graph::AccessGraph;
    use dwm_trace::Trace;

    /// Serializes tests that install `par::override_threads` guards —
    /// the override is process-global, so concurrent installs from
    /// parallel test threads would interleave.
    pub static PAR_TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    /// A small graph with an obvious good order: two heavy clusters.
    pub fn two_cluster_graph() -> AccessGraph {
        // Cluster {0,1,2} and {3,4,5}, heavy inside, light across.
        degree_weighted(
            6,
            vec![
                (0, 1, 10),
                (1, 2, 10),
                (0, 2, 10),
                (3, 4, 10),
                (4, 5, 10),
                (3, 5, 10),
                (2, 3, 1),
            ],
        )
    }

    /// Graph of a short representative trace.
    pub fn kernel_graph() -> AccessGraph {
        let t = Trace::from_ids([0u32, 1, 2, 1, 0, 3, 4, 3, 0, 1, 5, 4, 3, 2, 1, 0]);
        AccessGraph::from_trace(&t)
    }

    /// Two heavy clusters whose members are *interleaved* in id space
    /// ({0,2,4} and {1,3,5}), so the identity placement scatters them —
    /// the case adjacency-driven placement exists to fix.
    pub fn interleaved_cluster_graph() -> AccessGraph {
        degree_weighted(
            6,
            vec![
                (0, 2, 10),
                (2, 4, 10),
                (0, 4, 10),
                (1, 3, 10),
                (3, 5, 10),
                (1, 5, 10),
                (4, 1, 1),
            ],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use test_support::{kernel_graph, two_cluster_graph};

    #[test]
    fn suite_produces_valid_placements_on_all_graphs() {
        for g in [
            two_cluster_graph(),
            kernel_graph(),
            AccessGraph::with_items(0),
            AccessGraph::with_items(1),
            AccessGraph::with_items(7), // edgeless
        ] {
            for alg in standard_suite(42) {
                let p = alg.place(&g);
                assert_eq!(p.num_items(), g.num_items(), "{}", alg.name());
                // Bijection: every item appears exactly once.
                let mut seen = vec![false; g.num_items()];
                for off in 0..g.num_items() {
                    let item = p.item_at(off);
                    assert!(!seen[item], "{} duplicated item {item}", alg.name());
                    seen[item] = true;
                }
            }
        }
    }

    #[test]
    fn suite_names_are_distinct() {
        let mut names: Vec<String> = standard_suite(1).iter().map(|a| a.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 9);
    }

    #[test]
    fn adjacency_algorithms_beat_naive_on_interleaved_clusters() {
        let g = test_support::interleaved_cluster_graph();
        let naive = OrderOfAppearance.place(&g);
        let naive_cost = g.arrangement_cost(naive.offsets());
        for alg in [
            &ChainGrowth as &dyn PlacementAlgorithm,
            &GroupedChainGrowth,
            &Spectral::default(),
        ] {
            let p = alg.place(&g);
            assert!(
                g.arrangement_cost(p.offsets()) <= naive_cost,
                "{} worse than naive",
                alg.name()
            );
        }
    }
}
