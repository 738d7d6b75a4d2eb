use dwm_foundation::Rng;

use dwm_graph::{AccessGraph, ArrangementEval};

use crate::algorithms::chain::ChainGrowth;
use crate::algorithms::PlacementAlgorithm;
use crate::placement::Placement;

/// Simulated annealing over item-swap moves.
///
/// A strong stochastic comparator: starts from the [`ChainGrowth`]
/// solution and explores swaps of two items' offsets with the classic
/// Metropolis acceptance rule and geometric cooling. All cost deltas
/// come from an [`ArrangementEval`] over the graph's CSR rows, so each
/// move is `O(deg(a) + deg(b))` over flat arrays rather than an `O(E)`
/// recompute. The best placement is not
/// cloned on improvement; it is recorded as a depth into the
/// evaluator's move log and recovered by unwinding at the end.
///
/// Deterministic for a fixed seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimulatedAnnealing {
    /// Number of proposed moves.
    pub iterations: usize,
    /// Initial temperature (in cost units).
    pub initial_temperature: f64,
    /// Geometric cooling factor applied every `iterations / 100` moves.
    pub cooling: f64,
    /// RNG seed.
    pub seed: u64,
}

impl SimulatedAnnealing {
    /// Default-tuned annealer with the given seed.
    pub fn new(seed: u64) -> Self {
        SimulatedAnnealing {
            iterations: 20_000,
            initial_temperature: 50.0,
            cooling: 0.95,
            seed,
        }
    }

    /// Sets the iteration budget.
    pub fn with_iterations(mut self, iterations: usize) -> Self {
        self.iterations = iterations;
        self
    }

    /// Anneals `graph` from `start`. This is the whole algorithm;
    /// [`place`](PlacementAlgorithm::place) starts it from
    /// [`ChainGrowth`], and portfolios (e.g.
    /// [`MultiStart`](crate::MultiStart)) call it from starts of their
    /// own.
    pub fn anneal(&self, graph: &AccessGraph, start: Placement) -> Placement {
        let n = graph.num_items();
        if n < 2 {
            return start;
        }
        let mut rng = Rng::seed_from_u64(self.seed);
        let mut eval = ArrangementEval::new(graph, start.offsets());
        let mut current_cost = eval.total() as i64;
        let mut best_cost = current_cost;
        // Depth into the move log at which the best placement lives;
        // unwound at the end instead of cloning on every improvement.
        let mut best_depth = 0usize;

        let mut temperature = self.initial_temperature.max(f64::MIN_POSITIVE);
        let cool_every = (self.iterations / 100).max(1);
        // Metrics accumulate locally and flush once after the loop, so
        // the hot path never touches an atomic.
        let (mut proposed, mut accepted_moves) = (0u64, 0u64);

        for step in 0..self.iterations {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            if a == b {
                continue;
            }
            proposed += 1;
            let delta = eval.swap_delta(a, b);
            // Metropolis acceptance, `u < exp(−delta/temperature)`
            // with `u = next_f64()`. The uniform draw comes first so
            // the comparison can usually skip the transcendental:
            // `u` is a multiple of 2⁻⁵³, and for exponents ≤ −37,
            // exp() is below e⁻³⁷ < 2⁻⁵³ — smaller than every nonzero
            // `u` — so the draw decides by itself unless it is exactly
            // 0.0 (probability 2⁻⁵³). Identical accept decisions and
            // RNG stream as computing exp() every time.
            let accept = delta <= 0 || {
                let x = -(delta as f64) / temperature;
                let u = rng.next_f64();
                if x <= -37.0 {
                    u == 0.0 && x.exp() > 0.0
                } else {
                    u < x.exp()
                }
            };
            if accept {
                accepted_moves += 1;
                eval.apply_swap_with_delta(a, b, delta);
                current_cost += delta;
                if current_cost < best_cost {
                    best_cost = current_cost;
                    best_depth = eval.log_len();
                }
            }
            if step % cool_every == cool_every - 1 {
                temperature = (temperature * self.cooling).max(1e-9);
            }
        }
        while eval.log_len() > best_depth {
            eval.undo();
        }
        debug_assert_eq!(eval.total() as i64, best_cost);
        moves_proposed_counter().add(proposed);
        moves_accepted_counter().add(accepted_moves);
        Placement::from_offsets(eval.positions().to_vec())
            .expect("evaluator maintains a permutation")
    }
}

/// Moves proposed across all annealing runs in this process.
pub(crate) fn moves_proposed_counter() -> &'static dwm_foundation::obs::Counter {
    dwm_foundation::obs_counter!(
        "dwm_solver_annealing_moves_proposed_total",
        "Swap moves proposed by simulated annealing (distinct-slot proposals)"
    )
}

/// Moves accepted across all annealing runs in this process.
pub(crate) fn moves_accepted_counter() -> &'static dwm_foundation::obs::Counter {
    dwm_foundation::obs_counter!(
        "dwm_solver_annealing_moves_accepted_total",
        "Swap moves accepted by the Metropolis criterion in simulated annealing"
    )
}

impl PlacementAlgorithm for SimulatedAnnealing {
    fn name(&self) -> String {
        "annealing".into()
    }

    fn place(&self, graph: &AccessGraph) -> Placement {
        let n = graph.num_items();
        if n < 2 {
            return Placement::identity(n);
        }
        self.anneal(graph, ChainGrowth.place(graph))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::test_support::{kernel_graph, two_cluster_graph};

    #[test]
    fn eval_swap_delta_matches_graph_recomputation() {
        let g = kernel_graph();
        let mut p = ChainGrowth.place(&g);
        let before = g.arrangement_cost(p.offsets()) as i64;
        let eval = ArrangementEval::new(&g, p.offsets());
        for (a, b) in [(0usize, 3usize), (1, 5), (2, 4)] {
            let delta = eval.swap_delta(a, b);
            p.swap_items(a, b);
            let after = g.arrangement_cost(p.offsets()) as i64;
            assert_eq!(after - before, delta, "delta mismatch for swap {a},{b}");
            p.swap_items(a, b); // restore
        }
    }

    #[test]
    fn never_worse_than_its_chain_growth_start() {
        let g = two_cluster_graph();
        let start = g.arrangement_cost(ChainGrowth.place(&g).offsets());
        let annealed = g.arrangement_cost(SimulatedAnnealing::new(7).place(&g).offsets());
        assert!(annealed <= start);
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let g = kernel_graph();
        let a = SimulatedAnnealing::new(3).with_iterations(2000).place(&g);
        let b = SimulatedAnnealing::new(3).with_iterations(2000).place(&g);
        assert_eq!(a, b);
    }

    #[test]
    fn tiny_graphs_short_circuit() {
        for n in 0..2 {
            let g = AccessGraph::with_items(n);
            assert_eq!(SimulatedAnnealing::new(1).place(&g), Placement::identity(n));
        }
    }

    #[test]
    fn zero_iterations_returns_start() {
        let g = kernel_graph();
        let p = SimulatedAnnealing::new(1).with_iterations(0).place(&g);
        assert_eq!(p, ChainGrowth.place(&g));
    }

    #[test]
    fn place_anneals_from_chain_growth() {
        let g = two_cluster_graph();
        let via_place = SimulatedAnnealing::new(5).with_iterations(3000).place(&g);
        let via_anneal = SimulatedAnnealing::new(5)
            .with_iterations(3000)
            .anneal(&g, ChainGrowth.place(&g));
        assert_eq!(via_place, via_anneal);
    }
}
