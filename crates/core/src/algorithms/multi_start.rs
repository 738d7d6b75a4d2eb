use dwm_foundation::par;
use dwm_graph::AccessGraph;

use crate::algorithms::annealing::SimulatedAnnealing;
use crate::algorithms::chain::ChainGrowth;
use crate::algorithms::local_search::LocalSearch;
use crate::algorithms::PlacementAlgorithm;
use crate::placement::Placement;

/// Parallel multi-start wrapper around [`SimulatedAnnealing`].
///
/// Stochastic search quality varies a lot with the seed; the classic
/// remedy is to run several independently seeded restarts and keep the
/// best. The restarts are embarrassingly parallel, so they fan out over
/// the [`dwm_foundation::par`] workers: restart `i` runs with seed
/// `seed + i` and the winner is picked by `(cost, restart index)` —
/// byte-identical output at any `DWM_THREADS` setting.
///
/// Each restart's result is polished with the configured
/// [`LocalSearch`] before scoring, mirroring the
/// [`Hybrid`](crate::Hybrid) pipeline's construction + refinement
/// split.
///
/// # Example
///
/// ```
/// use dwm_graph::generators::clustered_graph;
/// use dwm_core::{MultiStart, SimulatedAnnealing, PlacementAlgorithm};
///
/// let g = clustered_graph(20, 4, 0.85, 0.1, 6, 3);
/// let multi = MultiStart::new(4, 11).place(&g);
/// let single = SimulatedAnnealing::new(11).place(&g);
/// assert!(g.arrangement_cost(multi.offsets()) <= g.arrangement_cost(single.offsets()));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiStart {
    /// Number of independent restarts.
    pub starts: usize,
    /// Base seed; restart `i` uses `seed + i`.
    pub seed: u64,
    /// Annealer template every restart runs (its `seed` is replaced).
    pub annealer: SimulatedAnnealing,
    /// Refiner applied to every restart's result before scoring.
    pub refiner: LocalSearch,
}

impl MultiStart {
    /// A multi-start annealer with `starts` restarts from `seed`.
    pub fn new(starts: usize, seed: u64) -> Self {
        MultiStart {
            starts: starts.max(1),
            seed,
            annealer: SimulatedAnnealing::new(seed),
            refiner: LocalSearch::default(),
        }
    }

    /// Replaces the annealer template (e.g. to shrink the iteration
    /// budget per restart).
    pub fn with_annealer(mut self, annealer: SimulatedAnnealing) -> Self {
        self.annealer = annealer;
        self
    }
}

impl PlacementAlgorithm for MultiStart {
    fn name(&self) -> String {
        format!("multi-start({})", self.starts)
    }

    fn place(&self, graph: &AccessGraph) -> Placement {
        // The (seed-independent) ChainGrowth start is computed once;
        // every restart shares it.
        let n = graph.num_items();
        let start = if n < 2 {
            Placement::identity(n)
        } else {
            ChainGrowth.place(graph)
        };
        let seeds: Vec<u64> = (0..self.starts as u64).map(|i| self.seed + i).collect();
        let scored = par::par_map(&seeds, |&restart_seed| {
            let mut annealer = self.annealer;
            annealer.seed = restart_seed;
            let mut p = annealer.anneal(graph, start.clone());
            self.refiner.refine(graph, &mut p);
            (graph.arrangement_cost(p.offsets()), p)
        });
        scored
            .into_iter()
            .min_by_key(|(cost, _)| *cost)
            .expect("at least one restart")
            .1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::test_support::{kernel_graph, PAR_TEST_LOCK};
    use dwm_foundation::par::override_threads;
    use dwm_graph::generators::{clustered_graph, random_graph};

    #[test]
    fn never_worse_than_any_single_restart() {
        let g = clustered_graph(24, 4, 0.9, 0.05, 8, 2);
        let multi = MultiStart::new(4, 42);
        let best = g.arrangement_cost(multi.place(&g).offsets());
        for i in 0..4 {
            let mut p = SimulatedAnnealing::new(42 + i).place(&g);
            LocalSearch::default().refine(&g, &mut p);
            assert!(best <= g.arrangement_cost(p.offsets()), "restart {i}");
        }
    }

    #[test]
    fn identical_placement_at_any_worker_count() {
        let _l = PAR_TEST_LOCK.lock().unwrap();
        let g = random_graph(18, 0.4, 6, 9);
        let multi = MultiStart::new(6, 5);
        let sequential = {
            let _g = override_threads(1);
            multi.place(&g)
        };
        let parallel = {
            let _g = override_threads(8);
            multi.place(&g)
        };
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn produces_valid_permutation() {
        let g = kernel_graph();
        let p = MultiStart::new(3, 1).place(&g);
        let mut seen = vec![false; g.num_items()];
        for off in 0..g.num_items() {
            let item = p.item_at(off);
            assert!(!seen[item]);
            seen[item] = true;
        }
    }

    #[test]
    fn zero_starts_clamps_to_one() {
        let m = MultiStart::new(0, 3);
        assert_eq!(m.starts, 1);
        assert_eq!(m.name(), "multi-start(1)");
    }
}
