//! Exact optimal placement by branch and bound.
//!
//! An independent exact solver used to cross-check the subset DP in
//! [`crate::exact`] (two implementations agreeing on the optimum is a
//! strong correctness signal) and to handle slightly larger sparse
//! instances: where the DP's `O(2ⁿ)` table is indifferent to structure,
//! branch and bound prunes aggressively on graphs with strong locality.
//!
//! # Search and bounds
//!
//! Positions are filled left to right; a node of the search tree is a
//! prefix of the order. Its cost-so-far uses the prefix-cut identity
//! (see [`crate::exact`]): extending the prefix adds `cut(prefix)` to
//! the objective. The lower bound is `cost_so_far + Σ w(u,v)` over
//! edges with **both endpoints unplaced** — each such edge will span at
//! least one future boundary, while an edge already crossing the
//! boundary may contribute nothing more. The incumbent is seeded with
//! the [`Hybrid`](crate::Hybrid) heuristic so pruning bites from the
//! first descent, and children are explored weakest-cut-first.
//!
//! # Parallel root branching
//!
//! The first level of the search tree (the choice of leftmost item) is
//! fanned out over [`dwm_foundation::par`] workers, which share the
//! incumbent *bound* through an [`AtomicMin`]. Sharing is asymmetric by
//! design to keep the result byte-deterministic at any `DWM_THREADS`:
//!
//! * each root subtree records only orders **strictly better** than its
//!   own local record (seeded at the heuristic cost), so which order a
//!   root reports never depends on other workers;
//! * the shared bound prunes only nodes whose lower bound is
//!   **strictly above** it. Since the bound never drops below the true
//!   optimum `C`, a path to a cost-`C` order (every prefix of which has
//!   lower bound `≤ C`) can never be cut by another worker's progress —
//!   pruning timing affects wasted work, not recorded optima;
//! * the final winner is the lowest-cost root record, ties broken by
//!   root order.

use dwm_foundation::par::{self, AtomicMin};
use dwm_graph::AccessGraph;

use crate::algorithms::PlacementAlgorithm;
use crate::error::PlacementError;
use crate::placement::Placement;

/// Hard limit for the branch-and-bound solver. Above ~24 items even
/// well-pruned search trees explode on dense graphs.
pub const MAX_BB_ITEMS: usize = 24;

struct Search<'g> {
    graph: &'g AccessGraph,
    n: usize,
    /// Record threshold: starts at the heuristic seed cost; only
    /// strictly better complete orders are recorded. Purely local, so
    /// the recorded order is independent of other workers' timing.
    local_best: u64,
    /// Best complete order found in this subtree, if any beat the seed.
    best_order: Option<Vec<usize>>,
    /// Shared incumbent bound across all root subtrees.
    global_best: &'g AtomicMin,
    /// Current prefix.
    prefix: Vec<usize>,
    in_prefix: Vec<bool>,
    /// Σ of weights of edges with *both* endpoints unplaced. Each such
    /// edge will span at least one future boundary, so it contributes
    /// at least its weight to the final cost; edges already crossing
    /// the prefix boundary can contribute 0 more (their second endpoint
    /// may be placed immediately next), so they are excluded.
    remaining_edge_weight: u64,
    /// Nodes this subtree visited — flushed to the obs registry by the
    /// caller after the subtree completes.
    nodes: u64,
    /// Nodes cut off by the bound check. Unlike everything the solver
    /// *returns*, this count legitimately varies with `DWM_THREADS`:
    /// pruning depends on when other workers publish a better shared
    /// incumbent.
    pruned: u64,
}

impl<'g> Search<'g> {
    fn run(&mut self, cost_so_far: u64, cut: u64) {
        self.nodes += 1;
        if self.prefix.len() == self.n {
            if cost_so_far < self.local_best {
                self.local_best = cost_so_far;
                self.best_order = Some(self.prefix.clone());
                self.global_best.improve(cost_so_far);
            }
            return;
        }
        // Lower bound: every still-internal edge of the complement
        // contributes at least its weight once both ends are placed.
        // Local pruning is non-strict (nothing >= our own record can
        // improve it); shared pruning is strict (see module docs).
        let bound = cost_so_far + self.remaining_edge_weight;
        if bound >= self.local_best || bound > self.global_best.get() {
            self.pruned += 1;
            return;
        }
        // Order candidates by the cut they would produce (weakest cut
        // first) — good solutions early tighten the bound.
        let mut candidates: Vec<(u64, u64, usize)> = (0..self.n)
            .filter(|&v| !self.in_prefix[v])
            .map(|v| {
                // cut(prefix ∪ {v}) = cut + deg(v) − 2·w(v, prefix)
                let mut into = 0u64;
                let mut outside = 0u64;
                let (us, ws) = self.graph.neighbor_slices(v);
                for (&u, &w) in us.iter().zip(ws) {
                    if self.in_prefix[u as usize] {
                        into += w;
                    } else {
                        outside += w;
                    }
                }
                (cut + self.graph.degree(v) - 2 * into, outside, v)
            })
            .collect();
        candidates.sort_unstable();

        for (next_cut, edge_to_unplaced, v) in candidates {
            // Placing v turns its fully-unplaced edges into crossing
            // edges, which leave the remaining-edge bound.
            self.prefix.push(v);
            self.in_prefix[v] = true;
            self.remaining_edge_weight -= edge_to_unplaced;
            let add = if self.prefix.len() == self.n {
                0
            } else {
                next_cut
            };
            self.run(cost_so_far + add, next_cut);
            self.remaining_edge_weight += edge_to_unplaced;
            self.in_prefix[v] = false;
            self.prefix.pop();
        }
    }
}

/// Computes a provably optimal placement by branch and bound.
///
/// The root level of the search fans out over `DWM_THREADS` workers
/// (see the module docs); the returned order is identical at any
/// worker count. Produces the same cost as
/// [`crate::exact::optimal_placement`] (verified by tests); the
/// returned order may differ when several optima exist.
///
/// # Errors
///
/// Returns [`PlacementError::TooLargeForExact`] when the graph has more
/// than [`MAX_BB_ITEMS`] items.
///
/// # Example
///
/// ```
/// use dwm_graph::generators::path_graph;
/// use dwm_core::exact_bb::branch_and_bound_placement;
///
/// let g = path_graph(8, 2);
/// let (_, cost) = branch_and_bound_placement(&g)?;
/// assert_eq!(cost, 14);
/// # Ok::<(), dwm_core::PlacementError>(())
/// ```
pub fn branch_and_bound_placement(graph: &AccessGraph) -> Result<(Placement, u64), PlacementError> {
    let n = graph.num_items();
    if n > MAX_BB_ITEMS {
        return Err(PlacementError::TooLargeForExact {
            items: n,
            limit: MAX_BB_ITEMS,
        });
    }
    if n == 0 {
        return Ok((Placement::identity(0), 0));
    }
    // Seed the incumbent with a good heuristic so pruning bites
    // immediately.
    let seed = crate::algorithms::Hybrid::default().place(graph);
    let seed_cost = graph.arrangement_cost(seed.offsets());
    let global_best = AtomicMin::new(seed_cost);

    // Root candidates, ordered exactly as the sequential search orders
    // children: weakest first cut (here: degree) first.
    let mut roots: Vec<(u64, usize)> = (0..n).map(|v| (graph.degree(v), v)).collect();
    roots.sort_unstable();

    // One independent subtree search per root; the shared bound only
    // accelerates pruning (see module docs for why this stays
    // deterministic at any worker count).
    let results: Vec<(u64, Option<Vec<usize>>)> = par::par_map(&roots, |&(root_cut, v)| {
        let mut in_prefix = vec![false; n];
        in_prefix[v] = true;
        let mut search = Search {
            graph,
            n,
            local_best: seed_cost,
            best_order: None,
            global_best: &global_best,
            prefix: vec![v],
            in_prefix,
            remaining_edge_weight: graph.total_weight() - graph.degree(v),
            nodes: 0,
            pruned: 0,
        };
        let add = if n == 1 { 0 } else { root_cut };
        search.run(add, root_cut);
        nodes_counter().add(search.nodes);
        pruned_counter().add(search.pruned);
        (search.local_best, search.best_order)
    });

    let mut best_cost = seed_cost;
    let mut best_order = seed.order().to_vec();
    for (cost, order) in results {
        if let Some(order) = order {
            if cost < best_cost {
                best_cost = cost;
                best_order = order;
            }
        }
    }
    let placement = Placement::from_order(best_order);
    debug_assert_eq!(graph.arrangement_cost(placement.offsets()), best_cost);
    Ok((placement, best_cost))
}

/// Search-tree nodes visited across all branch-and-bound runs.
pub(crate) fn nodes_counter() -> &'static dwm_foundation::obs::Counter {
    dwm_foundation::obs_counter!(
        "dwm_solver_bb_nodes_total",
        "Search-tree nodes visited by branch and bound"
    )
}

/// Subtrees pruned across all branch-and-bound runs. Varies with
/// `DWM_THREADS` (shared-incumbent timing); the *returned placement*
/// does not.
pub(crate) fn pruned_counter() -> &'static dwm_foundation::obs::Counter {
    dwm_foundation::obs_counter!(
        "dwm_solver_bb_pruned_total",
        "Subtrees cut off by the branch-and-bound lower bound"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::optimal_placement;
    use dwm_graph::generators::{clustered_graph, path_graph, random_graph};

    #[test]
    fn agrees_with_subset_dp_on_random_graphs() {
        for seed in 0..10 {
            let g = random_graph(10, 0.5, 7, seed);
            let (_, dp) = optimal_placement(&g).unwrap();
            let (p, bb) = branch_and_bound_placement(&g).unwrap();
            assert_eq!(dp, bb, "seed {seed}");
            assert_eq!(g.arrangement_cost(p.offsets()), bb);
        }
    }

    #[test]
    fn agrees_with_subset_dp_on_clustered_graphs() {
        for seed in 0..6 {
            let g = clustered_graph(12, 3, 0.8, 0.2, 5, seed);
            let (_, dp) = optimal_placement(&g).unwrap();
            let (_, bb) = branch_and_bound_placement(&g).unwrap();
            assert_eq!(dp, bb, "seed {seed}");
        }
    }

    #[test]
    fn path_is_solved_exactly() {
        let g = path_graph(12, 4);
        let (_, cost) = branch_and_bound_placement(&g).unwrap();
        assert_eq!(cost, 11 * 4);
    }

    #[test]
    fn rejects_oversized_instances() {
        let g = AccessGraph::with_items(MAX_BB_ITEMS + 1);
        assert!(matches!(
            branch_and_bound_placement(&g),
            Err(PlacementError::TooLargeForExact { .. })
        ));
    }

    #[test]
    fn trivial_instances() {
        let (p, c) = branch_and_bound_placement(&AccessGraph::with_items(0)).unwrap();
        assert_eq!((p.num_items(), c), (0, 0));
        let (p, c) = branch_and_bound_placement(&AccessGraph::with_items(1)).unwrap();
        assert_eq!((p.num_items(), c), (1, 0));
    }

    #[test]
    fn handles_sparse_larger_instances() {
        // 22 items is beyond the DP's comfort but fine for B&B on a
        // path-like sparse graph.
        let g = path_graph(22, 2);
        let (_, cost) = branch_and_bound_placement(&g).unwrap();
        assert_eq!(cost, 21 * 2);
    }

    #[test]
    fn identical_placement_at_any_worker_count() {
        use dwm_foundation::par::override_threads;
        let _l = crate::algorithms::test_support::PAR_TEST_LOCK
            .lock()
            .unwrap();
        for seed in 0..5 {
            let g = random_graph(11, 0.45, 6, seed);
            let sequential = {
                let _g = override_threads(1);
                branch_and_bound_placement(&g).unwrap()
            };
            let parallel = {
                let _g = override_threads(8);
                branch_and_bound_placement(&g).unwrap()
            };
            assert_eq!(sequential, parallel, "seed {seed}");
        }
    }
}
