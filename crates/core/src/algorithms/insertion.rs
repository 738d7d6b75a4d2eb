use dwm_graph::AccessGraph;

use crate::algorithms::PlacementAlgorithm;
use crate::placement::Placement;

/// Greedy best-position insertion (classic MinLA construction).
///
/// Items are considered in descending weighted-degree order; each item
/// is inserted into the *position* of the partial order that minimizes
/// the partial arrangement cost, shifting later items right. Unlike
/// [`ChainGrowth`](crate::ChainGrowth), which commits to heavy edges
/// pairwise, insertion evaluates each item against the whole prefix, so
/// it handles high-degree "hub" vertices (grids, stars) better.
///
/// The candidate costs are computed with one incremental sweep per
/// item instead of re-scoring the prefix per slot: inserting `v` at
/// slot `k` costs
///
/// ```text
/// cost(k) = C + cut(k) + ext(k)
/// ```
///
/// where `C` is the running cost of the placed prefix, `cut(k)` is the
/// placed-edge weight crossing slot boundary `k` (every placed pair
/// the insertion pushes apart by one), and `ext(k)` sums `v`'s own
/// edge lengths. Both terms update in `O(1)`–`O(deg)` as `k` advances,
/// so one item costs `O(m + Σ deg(placed) + deg(v))` and the whole
/// construction `O(n·(n + E))` — down from `O(n³·d̄)` for the
/// re-scoring formulation, with bit-identical slot costs and
/// tie-breaking.
///
/// # Example
///
/// ```
/// use dwm_graph::generators::path_graph;
/// use dwm_core::{GreedyInsertion, PlacementAlgorithm};
///
/// let g = path_graph(12, 2);
/// let p = GreedyInsertion::default().place(&g);
/// // A path's optimal arrangement cost is (n-1)·w = 22.
/// assert_eq!(g.arrangement_cost(p.offsets()), 22);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GreedyInsertion;

impl PlacementAlgorithm for GreedyInsertion {
    fn name(&self) -> String {
        "insertion".into()
    }

    fn place(&self, graph: &AccessGraph) -> Placement {
        let n = graph.num_items();
        if n == 0 {
            return Placement::identity(0);
        }
        let mut items: Vec<usize> = (0..n).collect();
        items.sort_by_key(|&v| (std::cmp::Reverse(graph.degree(v)), v));

        let mut order: Vec<usize> = Vec::with_capacity(n);
        let mut pos = vec![usize::MAX; n];
        // Scatter array: weight_to_v[u] = w(v, u) for the item being
        // inserted (reset after each item).
        let mut weight_to_v = vec![0u64; n];
        // Running arrangement cost of the placed prefix.
        let mut prefix_cost = 0u64;
        for v in items {
            let m = order.len();
            // ext(k) = Σ_z w(v,z)·(k − pos(z))        for placed z left of k
            //        + Σ_z w(v,z)·(pos(z) + 1 − k)    for placed z at/after k
            // tracked via weight sums (s_*) and position moments (m_*).
            let (mut s_less, mut m_less, mut s_geq, mut m_geq) = (0u64, 0u64, 0u64, 0u64);
            let (vs, ws) = graph.neighbor_slices(v);
            for (&z, &w) in vs.iter().zip(ws) {
                weight_to_v[z as usize] = w;
                let pz = pos[z as usize];
                if pz != usize::MAX {
                    s_geq += w;
                    m_geq += w * pz as u64;
                }
            }
            // cut(k): placed-edge weight crossing boundary k, advanced
            // by one placed item per step.
            let mut cut = 0u64;
            let mut best_slot = 0usize;
            let mut best_cost = u64::MAX;
            // Indexes slots 0..=m but reads `order[k]` only for k < m.
            #[allow(clippy::needless_range_loop)]
            for k in 0..=m {
                let ku = k as u64;
                let cost =
                    prefix_cost + cut + (ku * s_less - m_less) + (m_geq + s_geq - ku * s_geq);
                if cost < best_cost {
                    best_cost = cost;
                    best_slot = k;
                }
                if k == m {
                    break;
                }
                // Advance the boundary past order[k].
                let u = order[k];
                let (uvs, uws) = graph.neighbor_slices(u);
                let (mut to_left, mut to_right) = (0u64, 0u64);
                for (&z, &w) in uvs.iter().zip(uws) {
                    let pz = pos[z as usize];
                    if pz == usize::MAX {
                        continue;
                    }
                    if pz < k {
                        to_left += w;
                    } else if pz > k {
                        to_right += w;
                    }
                }
                cut = cut + to_right - to_left;
                let w_uv = weight_to_v[u];
                if w_uv != 0 {
                    s_geq -= w_uv;
                    m_geq -= w_uv * ku;
                    s_less += w_uv;
                    m_less += w_uv * ku;
                }
            }
            for &z in vs {
                weight_to_v[z as usize] = 0;
            }
            order.insert(best_slot, v);
            for (p, &u) in order.iter().enumerate().skip(best_slot) {
                pos[u] = p;
            }
            prefix_cost = best_cost;
        }
        Placement::from_order(order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::test_support::{interleaved_cluster_graph, kernel_graph};
    use dwm_graph::generators::{path_graph, random_graph};

    /// The pre-incremental formulation: re-score the whole prefix for
    /// every candidate slot. Kept as the reference the sweep must match
    /// slot for slot.
    fn reference_place(graph: &AccessGraph) -> Placement {
        let n = graph.num_items();
        if n == 0 {
            return Placement::identity(0);
        }
        let mut items: Vec<usize> = (0..n).collect();
        items.sort_by_key(|&v| (std::cmp::Reverse(graph.degree(v)), v));
        let mut order: Vec<usize> = Vec::with_capacity(n);
        let mut pos = vec![usize::MAX; n];
        for v in items {
            let mut best_slot = 0usize;
            let mut best_cost = u64::MAX;
            for slot in 0..=order.len() {
                order.insert(slot, v);
                for (p, &u) in order.iter().enumerate() {
                    pos[u] = p;
                }
                let mut cost = 0u64;
                for &u in &order {
                    for (z, w) in graph.neighbors(u) {
                        if z > u && pos[z] != usize::MAX {
                            cost += w * (pos[u] as i64).abs_diff(pos[z] as i64);
                        }
                    }
                }
                if cost < best_cost {
                    best_cost = cost;
                    best_slot = slot;
                }
                order.remove(slot);
            }
            order.insert(best_slot, v);
            for (p, &u) in order.iter().enumerate() {
                pos[u] = p;
            }
            pos[v] = best_slot;
        }
        Placement::from_order(order)
    }

    #[test]
    fn matches_rescoring_reference() {
        for seed in 0..6 {
            let g = random_graph(20, 0.35, 6, seed);
            assert_eq!(
                GreedyInsertion.place(&g),
                reference_place(&g),
                "seed {seed}"
            );
        }
        assert_eq!(
            GreedyInsertion.place(&kernel_graph()),
            reference_place(&kernel_graph())
        );
    }

    #[test]
    fn recovers_path_order() {
        let g = path_graph(10, 3);
        let p = GreedyInsertion.place(&g);
        assert_eq!(g.arrangement_cost(p.offsets()), 9 * 3);
    }

    #[test]
    fn valid_permutation_on_random_graphs() {
        for seed in 0..5 {
            let g = random_graph(18, 0.4, 5, seed);
            let p = GreedyInsertion.place(&g);
            let mut seen = [false; 18];
            for off in 0..18 {
                assert!(!seen[p.item_at(off)]);
                seen[p.item_at(off)] = true;
            }
        }
    }

    #[test]
    fn groups_interleaved_clusters() {
        let g = interleaved_cluster_graph();
        let naive = g.arrangement_cost(Placement::identity(6).offsets());
        let ins = g.arrangement_cost(GreedyInsertion.place(&g).offsets());
        assert!(ins < naive);
    }

    #[test]
    fn deterministic() {
        let g = kernel_graph();
        assert_eq!(GreedyInsertion.place(&g), GreedyInsertion.place(&g));
    }

    #[test]
    fn handles_trivial_graphs() {
        assert_eq!(
            GreedyInsertion
                .place(&AccessGraph::with_items(0))
                .num_items(),
            0
        );
        assert_eq!(
            GreedyInsertion
                .place(&AccessGraph::with_items(1))
                .num_items(),
            1
        );
        assert_eq!(
            GreedyInsertion
                .place(&AccessGraph::with_items(5))
                .num_items(),
            5
        );
    }
}
