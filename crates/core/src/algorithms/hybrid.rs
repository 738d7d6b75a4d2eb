use dwm_foundation::par;
use dwm_graph::AccessGraph;

use crate::algorithms::chain::{ChainGrowth, GroupedChainGrowth};
use crate::algorithms::frequency::OrganPipe;
use crate::algorithms::insertion::GreedyInsertion;
use crate::algorithms::local_search::LocalSearch;
use crate::algorithms::spectral::Spectral;
use crate::algorithms::PlacementAlgorithm;
use crate::placement::Placement;

/// The full proposed pipeline: portfolio construction + local search.
///
/// No single constructive heuristic dominates across workload shapes —
/// chain growth wins on trace-like graphs, spectral on grids and
/// butterflies, organ pipe on frequency-skewed independent accesses,
/// and the naive first-touch order is already strong on streaming
/// kernels. `Hybrid` therefore evaluates all deterministic candidates
/// (including the naive order), keeps the cheapest, and refines it with
/// windowed [`LocalSearch`].
///
/// Two properties follow by construction and are enforced by tests:
///
/// * **Never worse than naive** — the naive placement is in the
///   candidate pool, so the selected start (and local search, which
///   never increases cost) is at most its cost.
/// * **Deterministic** — every candidate and the refiner are
///   deterministic.
///
/// # Example
///
/// ```
/// use dwm_trace::kernels::Kernel;
/// use dwm_graph::AccessGraph;
/// use dwm_core::{Hybrid, PlacementAlgorithm, Placement};
///
/// let trace = Kernel::Stencil2d { rows: 8, cols: 8, block: 2 }.trace();
/// let graph = AccessGraph::from_trace(&trace);
/// let placement = Hybrid::default().place(&graph);
/// let naive = graph.arrangement_cost(Placement::identity(graph.num_items()).offsets());
/// assert!(graph.arrangement_cost(placement.offsets()) <= naive);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Hybrid {
    /// The refiner applied to the best candidate.
    pub refiner: LocalSearch,
}

impl Hybrid {
    /// A hybrid pipeline with a custom refiner.
    pub fn with_refiner(refiner: LocalSearch) -> Self {
        Hybrid { refiner }
    }
}

impl PlacementAlgorithm for Hybrid {
    fn name(&self) -> String {
        "hybrid".into()
    }

    fn place(&self, graph: &AccessGraph) -> Placement {
        // Every candidate, the scoring, and the refiner share the
        // graph's CSR rows. The portfolio's constructive candidates run
        // in parallel (they are independent); the winner is picked by
        // (cost, roster position), so the choice is identical at any
        // worker count. The naive identity placement leads the roster,
        // preserving the never-worse-than-naive guarantee.
        type Candidate<'a> = Box<dyn Fn() -> Placement + Sync + 'a>;
        let mut candidates: Vec<Candidate<'_>> = vec![
            Box::new(|| Placement::identity(graph.num_items())),
            Box::new(|| OrganPipe.place(graph)),
            Box::new(|| ChainGrowth.place(graph)),
            Box::new(|| GroupedChainGrowth.place(graph)),
            Box::new(|| Spectral::default().place(graph)),
        ];
        // GreedyInsertion scales as O(n·(n + E)); skip it on large
        // graphs where its marginal benefit cannot justify the latency.
        if graph.num_items() <= 512 {
            candidates.push(Box::new(|| GreedyInsertion.place(graph)));
        }
        let scored = par::par_map(&candidates, |candidate| {
            let p = candidate();
            let cost = graph.arrangement_cost(p.offsets());
            (cost, p)
        });
        let mut best = scored
            .into_iter()
            .min_by_key(|(cost, _)| *cost)
            .expect("roster is never empty")
            .1;
        self.refiner.refine(graph, &mut best);
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::test_support::{
        interleaved_cluster_graph, kernel_graph, two_cluster_graph,
    };
    use dwm_graph::generators::{clustered_graph, random_graph};

    #[test]
    fn never_worse_than_naive() {
        let graphs = vec![
            two_cluster_graph(),
            interleaved_cluster_graph(),
            kernel_graph(),
            random_graph(24, 0.3, 6, 1),
            clustered_graph(30, 5, 0.8, 0.1, 8, 2),
            AccessGraph::with_items(0),
            AccessGraph::with_items(3),
        ];
        for g in graphs {
            let naive = g.arrangement_cost(Placement::identity(g.num_items()).offsets());
            let hybrid = g.arrangement_cost(Hybrid::default().place(&g).offsets());
            assert!(hybrid <= naive, "hybrid {hybrid} > naive {naive}");
        }
    }

    #[test]
    fn at_least_as_good_as_every_candidate() {
        let g = kernel_graph();
        let hybrid = g.arrangement_cost(Hybrid::default().place(&g).offsets());
        for alg in [
            &OrganPipe as &dyn PlacementAlgorithm,
            &ChainGrowth,
            &GroupedChainGrowth,
            &Spectral::default(),
        ] {
            let c = g.arrangement_cost(alg.place(&g).offsets());
            assert!(hybrid <= c, "hybrid {hybrid} worse than {} {c}", alg.name());
        }
    }

    #[test]
    fn deterministic() {
        let g = random_graph(20, 0.4, 5, 7);
        assert_eq!(Hybrid::default().place(&g), Hybrid::default().place(&g));
    }

    #[test]
    fn produces_valid_permutation() {
        let g = random_graph(15, 0.5, 4, 3);
        let p = Hybrid::default().place(&g);
        let mut seen = [false; 15];
        for off in 0..15 {
            let item = p.item_at(off);
            assert!(!seen[item]);
            seen[item] = true;
        }
    }
}
