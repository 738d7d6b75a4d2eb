//! Incremental arrangement evaluation over the CSR access graph.
//!
//! [`AccessGraph`] stores its rows in compressed sparse row form, so
//! every solver walks flat neighbour slices. [`ArrangementEval`] layers
//! incremental cost evaluation on top: it tracks a placement and its
//! arrangement cost, answers `O(deg(a) + deg(b))` swap deltas, and
//! applies/undoes swaps while keeping the running total exact — no
//! full recompute ever. The arithmetic matches the historical
//! per-algorithm delta code term for term, so rewiring a solver onto
//! the evaluator cannot change its decisions (see
//! `tests/csr_equivalence.rs`).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::graph::AccessGraph;

/// Global counter of incremental swap-delta evaluations answered by
/// [`ArrangementEval`] — the denominator of every solver's
/// moves-per-evaluation story. Evaluators count into a per-evaluator
/// relaxed atomic (uncontended unless the *same* evaluator is shared
/// across threads) and flush to the global counter once on drop.
pub(crate) fn delta_eval_counter() -> &'static dwm_foundation::obs::Counter {
    dwm_foundation::obs_counter!(
        "dwm_graph_eval_delta_evals_total",
        "Incremental swap-delta evaluations answered by ArrangementEval"
    )
}

/// The former name of [`AccessGraph`], from when solvers froze a
/// separate CSR copy of a tree-based graph. The end-to-end benchmark's
/// in-process replay (`bench_e2e/src/replay.rs`) still names it and
/// times a `graph.freeze` span; the alias and [`AccessGraph::freeze`]
/// go together with that replay. New code uses [`AccessGraph`].
pub type CsrGraph = AccessGraph;

impl AccessGraph {
    /// A copy of `graph`. The graph is already in CSR form, so there is
    /// nothing left to freeze; kept only for the replay named at
    /// [`CsrGraph`].
    pub fn freeze(graph: &AccessGraph) -> Self {
        graph.clone()
    }
}

/// Incremental arrangement-cost evaluator over an [`AccessGraph`].
///
/// Holds a position assignment (item → slot, plus the inverse), the
/// exact running arrangement cost, and an undo log. [`swap_delta`] is
/// a query; [`apply_swap_with_delta`] commits a swap and updates the
/// total without re-walking the graph; [`undo`] reverses the most
/// recent swap. The running total always equals
/// `graph.arrangement_cost(positions())` — enforced by the property
/// suite — so a full recompute is never needed after construction.
///
/// [`swap_delta`]: ArrangementEval::swap_delta
/// [`apply_swap_with_delta`]: ArrangementEval::apply_swap_with_delta
/// [`undo`]: ArrangementEval::undo
#[derive(Debug)]
pub struct ArrangementEval<'g> {
    graph: &'g AccessGraph,
    /// Slot of each item, padded with zeros to a power-of-two length
    /// (entries `num_items()..` are never read). The padding lets the
    /// hot delta walks index with `pos[v & (pos.len() - 1)]`, which
    /// the compiler can prove in-bounds — no per-neighbour check.
    pos: Vec<usize>,
    /// Item at each slot (inverse of `pos`).
    item_at: Vec<usize>,
    /// Exact running arrangement cost.
    total: u64,
    /// Applied swaps `(a, b, delta)`, most recent last.
    log: Vec<(usize, usize, i64)>,
    /// Delta evaluations not yet flushed to [`delta_eval_counter`].
    /// Atomic (not `Cell`) so read-only delta queries may be shared
    /// across threads; relaxed and usually uncontended.
    delta_evals: AtomicU64,
}

impl Drop for ArrangementEval<'_> {
    fn drop(&mut self) {
        let n = *self.delta_evals.get_mut();
        if n > 0 {
            delta_eval_counter().add(n);
        }
    }
}

impl<'g> ArrangementEval<'g> {
    /// Starts evaluating from `position` (item → slot, a permutation of
    /// `0..n`). One full `O(n + E)` cost computation — the last one.
    ///
    /// # Panics
    ///
    /// Panics if `position` is not a permutation of `0..num_items()`.
    pub fn new(graph: &'g AccessGraph, position: &[usize]) -> Self {
        let n = graph.num_items();
        assert_eq!(position.len(), n, "position length != item count");
        let mut item_at = vec![usize::MAX; n];
        for (item, &slot) in position.iter().enumerate() {
            assert!(slot < n, "slot out of range");
            assert_eq!(item_at[slot], usize::MAX, "duplicate slot in position");
            item_at[slot] = item;
        }
        let total = graph.arrangement_cost(position);
        let mut pos = position.to_vec();
        pos.resize(n.next_power_of_two().max(1), 0);
        ArrangementEval {
            graph,
            pos,
            item_at,
            total,
            log: Vec::new(),
            delta_evals: AtomicU64::new(0),
        }
    }

    /// The underlying graph.
    pub fn graph(&self) -> &'g AccessGraph {
        self.graph
    }

    /// The exact arrangement cost of the current positions.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Current slot of `item`.
    #[inline]
    pub fn position_of(&self, item: usize) -> usize {
        self.pos[item]
    }

    /// Item currently at `slot`.
    #[inline]
    pub fn item_at(&self, slot: usize) -> usize {
        self.item_at[slot]
    }

    /// The full item → slot assignment.
    #[inline]
    pub fn positions(&self) -> &[usize] {
        &self.pos[..self.item_at.len()]
    }

    /// Number of applied swaps available to [`undo`](Self::undo).
    #[inline]
    pub fn log_len(&self) -> usize {
        self.log.len()
    }

    /// Cost change of swapping the slots of items `a` and `b`.
    /// `O(deg(a) + deg(b))`. Term-for-term the arithmetic of the
    /// historical per-algorithm delta functions.
    #[inline]
    pub fn swap_delta(&self, a: usize, b: usize) -> i64 {
        self.delta_evals.fetch_add(1, Ordering::Relaxed);
        let (pa, pb) = (self.pos[a] as i64, self.pos[b] as i64);
        // Fast path over the interleaved rows: one 8-byte load per
        // neighbour. The weight fits u32 there, so `(e >> 32) as i64`
        // is the exact weight and the sum is identical to the
        // two-stream walk below.
        if let (Some(ra), Some(rb)) = (self.graph.packed_row(a), self.graph.packed_row(b)) {
            return self.packed_half_delta(ra, b, pa, pb) + self.packed_half_delta(rb, a, pb, pa);
        }
        let mut delta = 0i64;
        let (vs, ws) = self.graph.neighbor_slices(a);
        for (&v, &w) in vs.iter().zip(ws) {
            let v = v as usize;
            if v == b {
                continue; // the (a,b) edge length is unchanged by a swap
            }
            let pv = self.pos[v] as i64;
            delta += w as i64 * ((pb - pv).abs() - (pa - pv).abs());
        }
        let (vs, ws) = self.graph.neighbor_slices(b);
        for (&v, &w) in vs.iter().zip(ws) {
            let v = v as usize;
            if v == a {
                continue;
            }
            let pv = self.pos[v] as i64;
            delta += w as i64 * ((pa - pv).abs() - (pb - pv).abs());
        }
        delta
    }

    /// One endpoint's contribution to a swap delta, over its
    /// interleaved row: the item moves from slot `p_old` to `p_new`,
    /// and the edge to `skip` (the swap partner) keeps its length.
    ///
    /// The masked index is a no-op (`v < num_items() ≤ pos.len()`, a
    /// power of two), but makes the in-bounds proof trivial, so the
    /// inner loop carries no bounds check. The partner edge is
    /// excluded by an arithmetic select rather than a `continue`: the
    /// loop body is branch-free, so the compiler can unroll and
    /// vectorize the accumulation.
    #[inline]
    fn packed_half_delta(&self, row: &[u64], skip: usize, p_old: i64, p_new: i64) -> i64 {
        let pos = self.pos.as_slice();
        let mask = pos.len() - 1;
        let mut delta = 0i64;
        for &e in row {
            let v = (e as u32) as usize;
            let keep = i64::from(v != skip);
            let pv = pos[v & mask] as i64;
            delta += keep * (e >> 32) as i64 * ((p_new - pv).abs() - (p_old - pv).abs());
        }
        delta
    }

    /// Commits the swap of items `a` and `b`, taking the caller's
    /// already-computed [`swap_delta`](Self::swap_delta) so the accept
    /// path does not re-walk the neighbour lists. `O(1)`.
    #[inline]
    pub fn apply_swap_with_delta(&mut self, a: usize, b: usize, delta: i64) {
        debug_assert_eq!(delta, self.swap_delta(a, b), "stale swap delta");
        self.pos.swap(a, b);
        self.item_at.swap(self.pos[a], self.pos[b]);
        self.total = self
            .total
            .checked_add_signed(delta)
            .expect("cost underflow");
        self.log.push((a, b, delta));
    }

    /// Reverses the most recently applied swap. Returns `false` when
    /// the log is empty.
    pub fn undo(&mut self) -> bool {
        let Some((a, b, delta)) = self.log.pop() else {
            return false;
        };
        self.pos.swap(a, b);
        self.item_at.swap(self.pos[a], self.pos[b]);
        self.total = self
            .total
            .checked_add_signed(-delta)
            .expect("cost underflow");
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwm_foundation::Rng;

    fn diamond() -> AccessGraph {
        AccessGraph::from_edges(vec![0; 4], [(0, 1, 5), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
    }

    fn random_graph(n: usize, seed: u64) -> AccessGraph {
        let mut rng = Rng::seed_from_u64(seed);
        let mut edges = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                if rng.gen_bool(0.4) {
                    edges.push((u, v, rng.gen_range(1u64..9)));
                }
            }
        }
        AccessGraph::from_edges(vec![0; n], edges)
    }

    fn random_positions(n: usize, rng: &mut Rng) -> Vec<usize> {
        let mut slots: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            slots.swap(i, rng.gen_range(0..i + 1));
        }
        slots
    }

    #[test]
    fn swap_delta_matches_recomputation() {
        let g = random_graph(15, 11);
        let mut rng = Rng::seed_from_u64(2);
        let pos = random_positions(15, &mut rng);
        let eval = ArrangementEval::new(&g, &pos);
        for a in 0..15 {
            for b in (a + 1)..15 {
                let mut moved = pos.clone();
                moved.swap(a, b);
                let expect = g.arrangement_cost(&moved) as i64 - eval.total() as i64;
                assert_eq!(eval.swap_delta(a, b), expect, "swap {a},{b}");
            }
        }
    }

    #[test]
    fn apply_and_undo_round_trip() {
        let g = random_graph(19, 17);
        let mut rng = Rng::seed_from_u64(6);
        let pos = random_positions(19, &mut rng);
        let mut eval = ArrangementEval::new(&g, &pos);
        let mut totals = vec![eval.total()];
        for _ in 0..60 {
            let a = rng.gen_range(0usize..19);
            let b = rng.gen_range(0usize..19);
            let delta = eval.swap_delta(a, b);
            eval.apply_swap_with_delta(a, b, delta);
            assert_eq!(eval.total(), g.arrangement_cost(eval.positions()));
            totals.push(eval.total());
        }
        while eval.undo() {
            totals.pop();
            assert_eq!(eval.total(), *totals.last().unwrap());
            assert_eq!(eval.total(), g.arrangement_cost(eval.positions()));
        }
        assert_eq!(eval.positions(), &pos[..]);
        assert_eq!(eval.log_len(), 0);
    }

    #[test]
    fn eval_on_diamond_matches_hand_costs() {
        let g = diamond();
        let eval = ArrangementEval::new(&g, &[0, 1, 2, 3]);
        assert_eq!(eval.total(), 10);
        assert_eq!(eval.item_at(2), 2);
        assert_eq!(eval.position_of(3), 3);
    }

    #[test]
    fn trivial_graphs() {
        for n in 0..2usize {
            let g = AccessGraph::with_items(n);
            assert_eq!(g.num_items(), n);
            assert_eq!(g.num_edges(), 0);
            let pos: Vec<usize> = (0..n).collect();
            let mut eval = ArrangementEval::new(&g, &pos);
            assert_eq!(eval.total(), 0);
            assert!(!eval.undo());
        }
    }
}
