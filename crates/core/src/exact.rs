//! Exact optimal placement by dynamic programming over vertex subsets.
//!
//! The optimality-gap study (experiment T4) needs the true optimum on
//! small instances. The original evaluation used an ILP solver; this
//! reproduction uses an equivalent subset DP (documented substitution
//! in `DESIGN.md` §2), which produces the same optimum without an
//! external solver.
//!
//! # The recurrence
//!
//! The linear arrangement cost of an order `v_1 … v_n` can be rewritten
//! as a sum of prefix cuts:
//!
//! ```text
//! Σ_{(u,v)∈E} w(u,v)·|pos(u) − pos(v)|  =  Σ_{i=1}^{n−1} cut({v_1…v_i})
//! ```
//!
//! because an edge spanning distance `d` crosses exactly `d` prefix
//! boundaries. Hence the minimum over orders satisfies
//!
//! ```text
//! f(S) = cut(S) + min_{v ∈ S} f(S ∖ {v}),     f(∅) = −cut(∅) = 0
//! ```
//!
//! where `f(S)` is the best cost of arranging the items of `S` in the
//! first `|S|` positions. `cut(S)` itself satisfies the incremental
//! identity `cut(S) = cut(S∖{v}) + deg(v) − 2·w(v, S∖{v})`, so the
//! whole table fills in `O(2ⁿ·n)` time and `O(2ⁿ)` space.

use dwm_graph::AccessGraph;

use crate::error::PlacementError;
use crate::placement::Placement;

/// Hard limit on the exact solver's instance size (`2^24` table
/// entries ≈ 450 MB would be the next step up; 20 keeps runtime and
/// memory comfortable for the optimality study).
pub const MAX_EXACT_ITEMS: usize = 20;

/// Computes a provably optimal placement for `graph`.
///
/// # Errors
///
/// Returns [`PlacementError::TooLargeForExact`] when the graph has more
/// than [`MAX_EXACT_ITEMS`] items.
///
/// # Example
///
/// ```
/// use dwm_graph::generators::path_graph;
/// use dwm_core::exact::optimal_placement;
///
/// let g = path_graph(8, 2);
/// let (placement, cost) = optimal_placement(&g)?;
/// // A path's optimal arrangement is the path itself: 7 edges × 2.
/// assert_eq!(cost, 14);
/// assert_eq!(g.arrangement_cost(placement.offsets()), 14);
/// # Ok::<(), dwm_core::PlacementError>(())
/// ```
pub fn optimal_placement(graph: &AccessGraph) -> Result<(Placement, u64), PlacementError> {
    let n = graph.num_items();
    if n > MAX_EXACT_ITEMS {
        return Err(PlacementError::TooLargeForExact {
            items: n,
            limit: MAX_EXACT_ITEMS,
        });
    }
    if n == 0 {
        return Ok((Placement::identity(0), 0));
    }
    // The DP's inner loop streams the graph's flat neighbour slices.

    let full: usize = if n == usize::BITS as usize {
        usize::MAX
    } else {
        (1usize << n) - 1
    };
    let size = full + 1;

    // cut[s] = weight of edges crossing between s and its complement.
    let mut cut = vec![0u64; size];
    // f[s] = min cost of arranging the items of s in the first |s|
    // positions; parent[s] = the item placed last among s in the optimum.
    let mut f = vec![u64::MAX; size];
    let mut parent = vec![u8::MAX; size];
    f[0] = 0;

    for s in 1..size {
        let low = s.trailing_zeros() as usize;
        let rest = s & (s - 1); // s without its lowest set bit
                                // w(low, rest): weight from `low` into the rest of the subset.
        let mut w_into = 0u64;
        let (vs, ws) = graph.neighbor_slices(low);
        for (&v, &w) in vs.iter().zip(ws) {
            if rest >> v & 1 == 1 {
                w_into += w;
            }
        }
        cut[s] = cut[rest] + graph.degree(low) - 2 * w_into;

        // f(s) = cut(s) + min over last-removed v of f(s \ v).
        let mut best = u64::MAX;
        let mut best_v = u8::MAX;
        let mut t = s;
        while t != 0 {
            let v = t.trailing_zeros() as usize;
            t &= t - 1;
            let prev = f[s & !(1 << v)];
            if prev < best {
                best = prev;
                best_v = v as u8;
            }
        }
        // cut(full set) is 0, so adding it for s == full is harmless
        // and keeps the recurrence uniform.
        f[s] = best + cut[s];
        parent[s] = best_v;
    }

    // Reconstruct the order back-to-front.
    let mut order = vec![0usize; n];
    let mut s = full;
    for pos in (0..n).rev() {
        let v = parent[s] as usize;
        order[pos] = v;
        s &= !(1 << v);
    }
    let placement = Placement::from_order(order);
    let cost = f[full];
    debug_assert_eq!(graph.arrangement_cost(placement.offsets()), cost);
    Ok((placement, cost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{
        ChainGrowth, GroupedChainGrowth, OrganPipe, PlacementAlgorithm, Spectral,
    };
    use dwm_graph::generators::{clustered_graph, path_graph, random_graph};

    #[test]
    fn optimum_on_path_is_the_path() {
        let g = path_graph(9, 3);
        let (p, cost) = optimal_placement(&g).unwrap();
        assert_eq!(cost, 8 * 3);
        assert_eq!(g.arrangement_cost(p.offsets()), cost);
    }

    #[test]
    fn optimum_matches_brute_force_on_small_graphs() {
        use std::collections::HashSet;
        for seed in 0..5 {
            let g = random_graph(7, 0.5, 6, seed);
            let (p, cost) = optimal_placement(&g).unwrap();
            assert_eq!(g.arrangement_cost(p.offsets()), cost);
            // Brute force all 7! orders.
            let mut best = u64::MAX;
            let mut order = [0usize; 7];
            permute(&mut order, 0, &mut HashSet::new(), &g, &mut best);
            assert_eq!(cost, best, "seed {seed}");
        }
    }

    fn permute(
        order: &mut [usize; 7],
        depth: usize,
        used: &mut std::collections::HashSet<usize>,
        g: &AccessGraph,
        best: &mut u64,
    ) {
        if depth == 7 {
            let mut pos = [0usize; 7];
            for (off, &item) in order.iter().enumerate() {
                pos[item] = off;
            }
            *best = (*best).min(g.arrangement_cost(&pos));
            return;
        }
        for v in 0..7 {
            if used.insert(v) {
                order[depth] = v;
                permute(order, depth + 1, used, g, best);
                used.remove(&v);
            }
        }
    }

    #[test]
    fn heuristics_never_beat_the_optimum() {
        for seed in 0..8 {
            let g = clustered_graph(10, 3, 0.8, 0.15, 5, seed);
            let (_, opt) = optimal_placement(&g).unwrap();
            for alg in [
                &ChainGrowth as &dyn PlacementAlgorithm,
                &GroupedChainGrowth,
                &OrganPipe,
                &Spectral::default(),
            ] {
                let cost = g.arrangement_cost(alg.place(&g).offsets());
                assert!(cost >= opt, "{} below optimum on seed {seed}", alg.name());
            }
        }
    }

    #[test]
    fn too_large_instances_are_rejected() {
        let g = AccessGraph::with_items(MAX_EXACT_ITEMS + 1);
        assert!(matches!(
            optimal_placement(&g),
            Err(PlacementError::TooLargeForExact { .. })
        ));
    }

    #[test]
    fn empty_and_singleton() {
        let (p, c) = optimal_placement(&AccessGraph::with_items(0)).unwrap();
        assert_eq!((p.num_items(), c), (0, 0));
        let (p, c) = optimal_placement(&AccessGraph::with_items(1)).unwrap();
        assert_eq!((p.num_items(), c), (1, 0));
    }

    #[test]
    fn optimum_is_mirror_invariant() {
        let g = random_graph(8, 0.6, 4, 99);
        let (mut p, cost) = optimal_placement(&g).unwrap();
        p.mirror();
        assert_eq!(g.arrangement_cost(p.offsets()), cost);
    }
}
