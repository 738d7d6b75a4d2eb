//! Incremental arrangement evaluation over the CSR access graph.
//!
//! [`AccessGraph`] stores its rows in compressed sparse row form, so
//! every solver walks flat neighbour slices. [`ArrangementEval`] layers
//! incremental cost evaluation on top: it tracks a placement and its
//! arrangement cost, answers `O(deg(a) + deg(b))` swap deltas and
//! `O(deg(x))` relocate deltas, and applies/undoes moves while keeping
//! the running total exact — no full recompute ever. The arithmetic
//! matches the historical per-algorithm delta code term for term, so
//! rewiring a solver onto the evaluator cannot change its decisions
//! (see `tests/csr_equivalence.rs`).

use std::sync::atomic::{AtomicU64, Ordering};

use crate::graph::AccessGraph;

/// Global counter of incremental delta evaluations (swap, relocate)
/// answered by [`ArrangementEval`] — the denominator of every solver's
/// moves-per-evaluation story. Evaluators count into a per-evaluator
/// relaxed atomic (uncontended unless the *same* evaluator is shared
/// across threads) and flush to the global striped counter once on
/// drop.
pub(crate) fn delta_eval_counter() -> &'static dwm_foundation::obs::Counter {
    dwm_foundation::obs_counter!(
        "dwm_graph_eval_delta_evals_total",
        "Incremental cost-delta evaluations (swap/relocate) answered by ArrangementEval"
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

/// One reversible move recorded by [`ArrangementEval`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Move {
    /// Items `a` and `b` exchanged slots; cost changed by `delta`.
    Swap { a: usize, b: usize, delta: i64 },
    /// The item that was at slot `from` moved to slot `to` (the block
    /// in between shifted by one); cost changed by `delta`.
    Relocate { from: usize, to: usize, delta: i64 },
}

/// Incremental arrangement-cost evaluator over an [`AccessGraph`].
///
/// Holds a position assignment (item → slot, plus the inverse), the
/// exact running arrangement cost, and an undo log. Deltas are queries
/// ([`swap_delta`], [`relocate_delta`]); `apply_*` commits a move and
/// updates the total without re-walking the graph; [`undo`] reverses
/// the most recent move. The running total always equals
/// `graph.arrangement_cost(positions())` — enforced by the property
/// suite — so a full recompute is never needed after construction.
///
/// Relocation deltas use the *cut identity*: the arrangement cost
/// equals the sum over slot boundaries `i` of the weight crossing
/// between slots `≤ i` and `> i`. The boundary-cut array is built
/// lazily on the first relocation query (`O(n + E)`), kept current
/// across relocations in `O(deg + span)`, and simply dropped by swaps
/// — swap-only consumers such as annealing never pay for it.
///
/// [`swap_delta`]: ArrangementEval::swap_delta
/// [`relocate_delta`]: ArrangementEval::relocate_delta
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
    /// Boundary cuts (`cuts[i]` = weight crossing boundary `i`),
    /// lazily materialised for relocation queries.
    cuts: Option<Vec<u64>>,
    /// Applied moves, most recent last.
    log: Vec<Move>,
    /// Delta evaluations not yet flushed to [`delta_eval_counter`].
    /// Atomic (not `Cell`) so read-only delta queries may be shared
    /// across threads; relaxed and usually uncontended.
    delta_evals: AtomicU64,
}

impl Clone for ArrangementEval<'_> {
    fn clone(&self) -> Self {
        ArrangementEval {
            graph: self.graph,
            pos: self.pos.clone(),
            item_at: self.item_at.clone(),
            total: self.total,
            cuts: self.cuts.clone(),
            log: self.log.clone(),
            // The original still owns (and will flush) its pending
            // count; the clone starts a tally of its own.
            delta_evals: AtomicU64::new(0),
        }
    }
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
            cuts: None,
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

    /// Number of applied moves available to [`undo`](Self::undo).
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
        // Every boundary cut between the two slots changes; drop the
        // lazy array instead of re-walking the span (swap consumers
        // never query cuts, relocate consumers rebuild on demand).
        self.cuts = None;
        self.log.push(Move::Swap { a, b, delta });
    }

    /// Computes the swap delta, commits the swap, and returns the
    /// delta. `O(deg(a) + deg(b))`.
    pub fn apply_swap(&mut self, a: usize, b: usize) -> i64 {
        let delta = self.swap_delta(a, b);
        self.apply_swap_with_delta(a, b, delta);
        delta
    }

    /// Cost change of moving the item at slot `from` to slot `to`,
    /// shifting the block in between by one slot towards `from`.
    /// `O(deg(item))` once the boundary-cut array is materialised
    /// (first call after construction or a swap: `O(n + E)`).
    pub fn relocate_delta(&mut self, from: usize, to: usize) -> i64 {
        if from == to {
            return 0;
        }
        self.delta_evals.fetch_add(1, Ordering::Relaxed);
        self.ensure_cuts();
        let x = self.item_at[from];
        let (lo, hi) = (from.min(to), from.max(to));
        // Own edges of x: recompute each incident distance directly,
        // accounting for the block's one-slot shift towards `from`.
        let mut own = 0i64;
        // x's weight to the two unshifted regions (slots < lo, > hi).
        let (mut w_before, mut w_after) = (0i64, 0i64);
        let (vs, ws) = self.graph.neighbor_slices(x);
        for (&v, &w) in vs.iter().zip(ws) {
            let pv = self.pos[v as usize];
            if pv < lo {
                w_before += w as i64;
            } else if pv > hi {
                w_after += w as i64;
            }
            let pv_new = if to > from && pv > from && pv <= to {
                pv - 1
            } else if to < from && pv >= to && pv < from {
                pv + 1
            } else {
                pv
            } as i64;
            own += w as i64 * ((to as i64 - pv_new).abs() - (from as i64 - pv as i64).abs());
        }
        // Block term: every block item shifts one slot towards `from`,
        // so in-block distances are preserved and only edges leaving
        // the span [lo, hi] change, by ±1 each. Their net weight
        // telescopes to two boundary cuts minus x's own crossings:
        //   Σ_{y∈block} (w(y, far side) − w(y, near side))
        //     = cut(hi) − cut(lo − 1) − w(x, > hi) + w(x, < lo),
        // signed by the direction of the move.
        let cuts = self.cuts.as_ref().expect("materialised above");
        let outer = cut_at(cuts, hi as i64) as i64;
        let inner = cut_at(cuts, lo as i64 - 1) as i64;
        let block = outer - inner - w_after + w_before;
        own + if to > from { block } else { -block }
    }

    /// Commits the relocation of the item at slot `from` to slot `to`
    /// with the caller's already-computed delta. `O(deg(item) + span)`.
    pub fn apply_relocate_with_delta(&mut self, from: usize, to: usize, delta: i64) {
        debug_assert_eq!(delta, self.relocate_delta(from, to), "stale relocate delta");
        self.commit_relocate(from, to, delta);
        self.log.push(Move::Relocate { from, to, delta });
    }

    /// Computes the relocation delta, commits it, and returns the
    /// delta. `O(deg(item) + span)` once cuts are materialised.
    pub fn apply_relocate(&mut self, from: usize, to: usize) -> i64 {
        let delta = self.relocate_delta(from, to);
        self.apply_relocate_with_delta(from, to, delta);
        delta
    }

    /// Reverses the most recently applied move. Returns `false` when
    /// the log is empty.
    pub fn undo(&mut self) -> bool {
        match self.log.pop() {
            Some(Move::Swap { a, b, delta }) => {
                self.pos.swap(a, b);
                self.item_at.swap(self.pos[a], self.pos[b]);
                self.total = self
                    .total
                    .checked_add_signed(-delta)
                    .expect("cost underflow");
                self.cuts = None;
                true
            }
            Some(Move::Relocate { from, to, delta }) => {
                // The inverse relocation: the moved item now sits at
                // `to`; send it back to `from`.
                self.commit_relocate(to, from, -delta);
                true
            }
            None => false,
        }
    }

    /// Boundary cut at `i`: total weight crossing between slots `≤ i`
    /// and `> i` (valid `i`: `0..n − 1`). Materialises the cut array on
    /// first use. The cut identity gives `Σ_i boundary_cut(i) ==
    /// total()`, which the property suite checks.
    pub fn boundary_cut(&mut self, i: usize) -> u64 {
        self.ensure_cuts();
        self.cuts.as_ref().expect("materialised above")[i]
    }

    fn ensure_cuts(&mut self) {
        if self.cuts.is_some() {
            return;
        }
        let n = self.graph.num_items();
        // cut(i) − cut(i − 1) = deg(u_i) − 2·w(u_i, slots < i): the item
        // entering the prefix adds its outward weight and converts its
        // inward weight from crossing to internal.
        let mut cuts = vec![0u64; n.saturating_sub(1)];
        let mut running = 0i64;
        for (i, cut) in cuts.iter_mut().enumerate() {
            let u = self.item_at[i];
            let mut w_in = 0i64;
            let (vs, ws) = self.graph.neighbor_slices(u);
            for (&v, &w) in vs.iter().zip(ws) {
                if self.pos[v as usize] < i {
                    w_in += w as i64;
                }
            }
            running += self.graph.degree(u) as i64 - 2 * w_in;
            *cut = u64::try_from(running).expect("negative cut");
        }
        self.cuts = Some(cuts);
    }

    /// Moves `item_at[from]` to `to`, rotating the block in between,
    /// and updates positions, total, and (when materialised) the cut
    /// array. Does not touch the log.
    fn commit_relocate(&mut self, from: usize, to: usize, delta: i64) {
        if let Some(cuts) = self.cuts.take() {
            self.cuts = Some(self.shifted_cuts(cuts, from, to));
        }
        let x = self.item_at[from];
        if to > from {
            for slot in from..to {
                self.item_at[slot] = self.item_at[slot + 1];
                self.pos[self.item_at[slot]] = slot;
            }
        } else {
            for slot in (to..from).rev() {
                self.item_at[slot + 1] = self.item_at[slot];
                self.pos[self.item_at[slot + 1]] = slot + 1;
            }
        }
        self.item_at[to] = x;
        self.pos[x] = to;
        self.total = self
            .total
            .checked_add_signed(delta)
            .expect("cost underflow");
    }

    /// The boundary-cut array after relocating `item_at[from]` to `to`.
    /// Called with *pre-move* positions. Only boundaries inside the
    /// span change: for `to > from`, the new prefix at boundary
    /// `i ∈ [from, to)` is the old prefix at `i + 1` minus the moved
    /// item, so `cut'(i) = cut(i + 1) − deg(x) + 2·w(x, old slots ≤
    /// i + 1, minus x)`; symmetrically for `to < from`. `O(deg(x) +
    /// span)` via one incremental sweep over x's neighbour slots.
    fn shifted_cuts(&self, mut cuts: Vec<u64>, from: usize, to: usize) -> Vec<u64> {
        let x = self.item_at[from];
        let degx = self.graph.degree(x) as i64;
        let (lo, hi) = (from.min(to), from.max(to));
        // Bucket x's neighbour weights by old slot across the span.
        let mut at_slot = vec![0i64; hi - lo + 1];
        let mut w_below = 0i64; // w(x, slots < lo)
        let (vs, ws) = self.graph.neighbor_slices(x);
        for (&v, &w) in vs.iter().zip(ws) {
            let pv = self.pos[v as usize];
            if pv < lo {
                w_below += w as i64;
            } else if pv <= hi {
                at_slot[pv - lo] += w as i64;
            }
        }
        if to > from {
            // wx tracks w(x, old slots ≤ i + 1, minus x) as i sweeps up.
            let mut wx = w_below;
            for i in from..to {
                wx += at_slot[i + 1 - lo];
                let old = cut_at(&cuts, i as i64 + 1) as i64;
                cuts[i] = u64::try_from(old - degx + 2 * wx).expect("negative cut");
            }
        } else {
            // wx tracks w(x, old slots ≤ i − 1) as i sweeps down; at
            // the top of the span that is w(x, old slots < from).
            let mut wx: i64 = w_below + at_slot.iter().sum::<i64>() - at_slot[from - lo];
            for i in (to..from).rev() {
                wx -= at_slot[i - lo];
                let old = cut_at(&cuts, i as i64 - 1) as i64;
                cuts[i] = u64::try_from(old + degx - 2 * wx).expect("negative cut");
            }
        }
        cuts
    }
}

/// Boundary-cut lookup with the natural out-of-range extension
/// (`cut(−1) = cut(n − 1) = 0`: empty side, nothing crosses).
fn cut_at(cuts: &[u64], i: i64) -> u64 {
    if i < 0 || i as usize >= cuts.len() {
        0
    } else {
        cuts[i as usize]
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
    fn relocate_delta_matches_recomputation() {
        let g = random_graph(13, 13);
        let mut rng = Rng::seed_from_u64(4);
        let pos = random_positions(13, &mut rng);
        let mut eval = ArrangementEval::new(&g, &pos);
        for from in 0..13 {
            for to in 0..13 {
                // Reference: rebuild the moved position vector.
                let mut order: Vec<usize> = (0..13).map(|s| eval.item_at(s)).collect();
                let x = order.remove(from);
                order.insert(to, x);
                let mut moved = vec![0usize; 13];
                for (slot, &item) in order.iter().enumerate() {
                    moved[item] = slot;
                }
                let expect = g.arrangement_cost(&moved) as i64 - eval.total() as i64;
                assert_eq!(eval.relocate_delta(from, to), expect, "move {from}->{to}");
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
        for step in 0..60 {
            if step % 3 == 0 {
                let from = rng.gen_range(0usize..19);
                let to = rng.gen_range(0usize..19);
                eval.apply_relocate(from, to);
            } else {
                let a = rng.gen_range(0usize..19);
                let b = rng.gen_range(0usize..19);
                if a != b {
                    eval.apply_swap(a, b);
                } else {
                    eval.apply_relocate(a, b);
                }
            }
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
    fn boundary_cuts_sum_to_total() {
        let g = random_graph(21, 19);
        let mut rng = Rng::seed_from_u64(8);
        let pos = random_positions(21, &mut rng);
        let mut eval = ArrangementEval::new(&g, &pos);
        let sum: u64 = (0..20).map(|i| eval.boundary_cut(i)).sum();
        assert_eq!(sum, eval.total());
        // And the array stays consistent across relocations.
        for _ in 0..20 {
            let from = rng.gen_range(0usize..21);
            let to = rng.gen_range(0usize..21);
            eval.apply_relocate(from, to);
            let sum: u64 = (0..20).map(|i| eval.boundary_cut(i)).sum();
            assert_eq!(sum, eval.total());
        }
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
