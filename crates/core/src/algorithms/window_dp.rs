use dwm_graph::AccessGraph;

use crate::placement::Placement;

/// Sliding-window exact refinement.
///
/// Takes an existing placement and, for each window of `window`
/// consecutive tape positions, finds the *provably optimal* ordering of
/// the items inside that window — holding everything outside fixed —
/// by a subset DP with boundary terms. Windows slide by half their
/// length, so improvements propagate; passes repeat until a full sweep
/// yields nothing.
///
/// This is the strongest polynomial refiner in the suite: where
/// [`LocalSearch`](crate::LocalSearch) explores single swaps,
/// `WindowedDp` explores all `window!` orderings of each region at
/// `O(2^w · w)` per window. It never increases cost.
///
/// # The DP
///
/// Inside a window starting at tape position `base`, the cost of an
/// ordering decomposes into (a) internal edges, handled by the prefix-
/// cut identity exactly as in [`crate::exact`], and (b) edges to items
/// outside the window, whose endpoints are fixed — so placing item `v`
/// at slot `base + k` contributes a precomputable `ext(v, k)`. Thus
///
/// ```text
/// f(S) = min_{v ∈ S} [ f(S∖{v}) + ext(v, |S|−1) ] + cut(S)·span(S)
/// ```
///
/// with `cut(S)` the internal cut of the window's subset (each
/// internal prefix boundary contributes once).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowedDp {
    /// Window length in tape positions (≤ 16; the DP table is `2^w`).
    pub window: usize,
    /// Maximum full sweeps.
    pub max_passes: usize,
}

impl Default for WindowedDp {
    fn default() -> Self {
        WindowedDp {
            window: 10,
            max_passes: 8,
        }
    }
}

impl WindowedDp {
    /// A refiner with the given window (clamped to `2..=16`).
    pub fn new(window: usize) -> Self {
        WindowedDp {
            window: window.clamp(2, 16),
            ..WindowedDp::default()
        }
    }

    /// Optimally reorders the items at positions `base..base+w` of
    /// `placement`; returns `true` if the order changed.
    fn solve_window(
        &self,
        graph: &AccessGraph,
        placement: &mut Placement,
        base: usize,
        local_of: &mut [usize],
    ) -> bool {
        let n = placement.num_items();
        let w = self.window.min(n - base);
        if w < 2 {
            return false;
        }
        let items: Vec<usize> = (0..w).map(|k| placement.item_at(base + k)).collect();
        // Scatter index: local_of[v] = v's window slot, usize::MAX
        // outside (reset before returning).
        for (li, &v) in items.iter().enumerate() {
            local_of[v] = li;
        }

        // One CSR pass builds both the external-edge slot costs
        // (ext[v_local][k] = cost of v's external edges if v sits at
        // slot base + k) and the internal weights in local indexing.
        let mut ext = vec![vec![0u64; w]; w];
        let mut wmat = vec![0u64; w * w];
        for (li, &v) in items.iter().enumerate() {
            let (us, ws) = graph.neighbor_slices(v);
            for (&u, &weight) in us.iter().zip(ws) {
                let lj = local_of[u as usize];
                if lj != usize::MAX {
                    wmat[li * w + lj] = weight;
                    continue;
                }
                let pu = placement.offset_of(u as usize) as i64;
                for (k, slot_cost) in ext[li].iter_mut().enumerate() {
                    *slot_cost += weight * ((base + k) as i64).abs_diff(pu);
                }
            }
        }
        for &v in &items {
            local_of[v] = usize::MAX;
        }
        let degree: Vec<u64> = (0..w)
            .map(|li| (0..w).map(|lj| wmat[li * w + lj]).sum())
            .collect();

        let full = (1usize << w) - 1;
        let mut cut = vec![0u64; full + 1];
        let mut f = vec![u64::MAX; full + 1];
        let mut parent = vec![u8::MAX; full + 1];
        f[0] = 0;
        for s in 1..=full {
            let low = s.trailing_zeros() as usize;
            let rest = s & (s - 1);
            let mut w_into = 0u64;
            let mut t = rest;
            while t != 0 {
                let v = t.trailing_zeros() as usize;
                t &= t - 1;
                w_into += wmat[low * w + v];
            }
            cut[s] = cut[rest] + degree[low] - 2 * w_into;

            let slot = s.count_ones() as usize - 1;
            let mut best = u64::MAX;
            let mut best_v = u8::MAX;
            let mut t = s;
            while t != 0 {
                let v = t.trailing_zeros() as usize;
                t &= t - 1;
                let prev = f[s & !(1 << v)];
                if prev == u64::MAX {
                    continue;
                }
                let cand = prev + ext[v][slot];
                if cand < best {
                    best = cand;
                    best_v = v as u8;
                }
            }
            // Internal prefix cut contributes once per boundary inside
            // the window (the final boundary, s == full, is external
            // and already priced by ext terms).
            f[s] = best + if s == full { 0 } else { cut[s] };
            parent[s] = best_v;
        }

        // Reconstruct and compare against the current order's cost.
        let mut order = vec![0usize; w];
        let mut s = full;
        for slot in (0..w).rev() {
            let v = parent[s] as usize;
            order[slot] = v;
            s &= !(1 << v);
        }
        let changed = order
            .iter()
            .enumerate()
            .any(|(k, &li)| items[li] != items[k]);
        if !changed {
            return false;
        }
        // Apply only if the full arrangement cost actually improves
        // (guards the window model against edge-case mismatches).
        let before = graph.arrangement_cost(placement.offsets());
        let mut candidate = placement.clone();
        apply_window_order(&mut candidate, base, &items, &order);
        let after = graph.arrangement_cost(candidate.offsets());
        if after < before {
            *placement = candidate;
            true
        } else {
            false
        }
    }

    /// Refines `placement` in place; returns the total cost reduction.
    pub fn refine(&self, graph: &AccessGraph, placement: &mut Placement) -> u64 {
        let n = placement.num_items();
        if n < 3 {
            return 0;
        }
        let before = graph.arrangement_cost(placement.offsets());
        let step = (self.window / 2).max(1);
        let mut local_of = vec![usize::MAX; n];
        for _ in 0..self.max_passes {
            let mut improved = false;
            let mut base = 0usize;
            while base + 2 <= n {
                improved |= self.solve_window(graph, placement, base, &mut local_of);
                base += step;
            }
            if !improved {
                break;
            }
        }
        before - graph.arrangement_cost(placement.offsets())
    }
}

fn apply_window_order(placement: &mut Placement, base: usize, items: &[usize], order: &[usize]) {
    // Rebuild the window as a sequence of swaps: walk the slots,
    // swapping the desired item into place.
    for (k, &li) in order.iter().enumerate() {
        let want = items[li];
        let have = placement.item_at(base + k);
        if have != want {
            placement.swap_items(have, want);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{Hybrid, PlacementAlgorithm, RandomPlacement};
    use crate::exact::optimal_placement;
    use dwm_graph::generators::{clustered_graph, path_graph, random_graph};

    #[test]
    fn never_increases_cost() {
        for seed in 0..6 {
            let g = random_graph(30, 0.3, 6, seed);
            let mut p = RandomPlacement::new(seed).place(&g);
            let before = g.arrangement_cost(p.offsets());
            let saved = WindowedDp::default().refine(&g, &mut p);
            let after = g.arrangement_cost(p.offsets());
            assert!(after <= before);
            assert_eq!(before - after, saved);
        }
    }

    #[test]
    fn window_covering_whole_instance_reaches_optimum() {
        for seed in 0..5 {
            let g = random_graph(9, 0.5, 5, seed);
            let (_, opt) = optimal_placement(&g).unwrap();
            let mut p = RandomPlacement::new(seed + 100).place(&g);
            WindowedDp::new(9).refine(&g, &mut p);
            assert_eq!(
                g.arrangement_cost(p.offsets()),
                opt,
                "whole-instance window must find the optimum (seed {seed})"
            );
        }
    }

    #[test]
    fn recovers_scrambled_path() {
        let g = path_graph(20, 3);
        let mut p = RandomPlacement::new(7).place(&g);
        WindowedDp::default().refine(&g, &mut p);
        // The path optimum is 19·3 = 57; windows of 10 with overlap
        // should get close (within 2× is already strong from random).
        assert!(g.arrangement_cost(p.offsets()) <= 2 * 57);
    }

    #[test]
    fn improves_on_hybrid_sometimes_never_hurts() {
        for seed in 0..5 {
            let g = clustered_graph(28, 4, 0.7, 0.1, 6, seed);
            let mut p = Hybrid::default().place(&g);
            let before = g.arrangement_cost(p.offsets());
            WindowedDp::default().refine(&g, &mut p);
            assert!(g.arrangement_cost(p.offsets()) <= before);
        }
    }

    #[test]
    fn result_is_a_permutation() {
        let g = random_graph(25, 0.4, 5, 3);
        let mut p = RandomPlacement::new(1).place(&g);
        WindowedDp::new(8).refine(&g, &mut p);
        let mut seen = [false; 25];
        for off in 0..25 {
            assert!(!seen[p.item_at(off)]);
            seen[p.item_at(off)] = true;
        }
    }

    #[test]
    fn tiny_instances_are_no_ops() {
        for n in 0..3 {
            let g = AccessGraph::with_items(n);
            let mut p = Placement::identity(n);
            assert_eq!(WindowedDp::default().refine(&g, &mut p), 0);
        }
    }

    #[test]
    fn window_is_clamped() {
        assert_eq!(WindowedDp::new(1).window, 2);
        assert_eq!(WindowedDp::new(64).window, 16);
    }
}
