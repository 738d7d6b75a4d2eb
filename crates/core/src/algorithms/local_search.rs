use dwm_graph::{AccessGraph, ArrangementEval};

use crate::algorithms::PlacementAlgorithm;
use crate::placement::Placement;

/// Local-search refinement: repeated first-improvement passes of
/// *windowed* position swaps until a pass yields no improvement (or
/// the pass budget is exhausted).
///
/// Each pass tries swapping the items at offsets `k` and `k + d` for
/// every `k` and every `d ≤ window`. Adjacent swaps (`window = 1`)
/// converge fast but get trapped in shallow minima on structured
/// graphs (grids, butterflies); a modest window escapes most of them
/// while keeping a pass at `O(n · window + E)`: each candidate pair's
/// delta is `O(1)` from window-local sums over the graph's CSR rows
/// (see [`refine`](LocalSearch::refine)).
///
/// `LocalSearch` is both a standalone algorithm (it refines the
/// identity placement) and composable: call
/// [`refine`](LocalSearch::refine) on any algorithm's output, which is
/// what the experiment harness's "+LS" variants and the
/// [`Hybrid`](crate::algorithms::Hybrid) pipeline do.
///
/// Refinement never increases cost (each accepted move strictly
/// decreases it), an invariant the property tests enforce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalSearch {
    /// Maximum number of full passes.
    pub max_passes: usize,
    /// Maximum distance between swapped positions; a window past
    /// `n − 1` searches exactly as `n − 1` does.
    pub window: usize,
}

impl Default for LocalSearch {
    fn default() -> Self {
        LocalSearch {
            max_passes: 50,
            window: 12,
        }
    }
}

impl LocalSearch {
    /// A refiner with the given pass budget and the default window.
    pub fn new(max_passes: usize) -> Self {
        LocalSearch {
            max_passes,
            ..LocalSearch::default()
        }
    }

    /// Sets the swap window (1 = adjacent swaps only).
    pub fn with_window(mut self, window: usize) -> Self {
        self.window = window.max(1);
        self
    }

    /// Refines `placement` in place; returns the total cost reduction
    /// achieved (non-negative).
    ///
    /// Every candidate pair's delta is exact and `O(1)`: it is read off
    /// window-local state instead of the two items' neighbour rows.
    /// With the anchor `a` at slot `k`, the candidate `b` at slot
    /// `j = k + d`, and `ω(s, q)` the weight between the items at slots
    /// `s` and `q`, the state is
    ///
    /// * `L(x)`, the weight of `x`'s neighbours left of `x` (kept per
    ///   item across passes), and `W(x)`, the CSR's cached weighted
    ///   degree;
    /// * `S_a = Σ_{k<q≤j} ω(k,q)` and `Q_a = Σ_{k<q≤j} q·ω(k,q)`,
    ///   running sums over `j`;
    /// * `S_b = Σ_{k≤q<j} ω(j,q)` and `Q_b = Σ_{k≤q<j} q·ω(j,q)`, kept
    ///   per window slot across anchors;
    ///
    /// and the delta is
    ///
    /// ```text
    /// d·L(a) − d·(W(a) − L(a) − S_a) + (j+k)·S_a − 2·Q_a
    ///   − d·(L(b) − S_b) + d·(W(b) − L(b)) + 2·Q_b − (j+k)·S_b + 2·d·ω(k,j)
    /// ```
    ///
    /// (neighbours outside `[k, j]` move `d` slots nearer or farther,
    /// those inside are summed exactly, and the shared edge keeps its
    /// length). The weights among the ≤ `w + 1` items in the window
    /// live in a ring indexed by slot, so a slot entering the window
    /// walks its CSR row once per pass, and an accepted swap updates
    /// `L`, the per-slot sums and two ring rows and columns in `O(w)`.
    /// A pass costs `O(n·w + E + swaps·w)`; scratch is `O(n + w²)`.
    ///
    /// All-integer: each delta equals [`ArrangementEval::swap_delta`]
    /// exactly (the apply re-checks that in debug builds), so the swap
    /// sequence is byte-identical to
    /// [`refine_scalar`](Self::refine_scalar) — the golden equivalence
    /// tests and a differential property test pin that.
    pub fn refine(&self, graph: &AccessGraph, placement: &mut Placement) -> u64 {
        let n = placement.num_items();
        if n < 2 {
            return 0;
        }
        let w = self.window.min(n - 1);
        let mut eval = ArrangementEval::new(graph, placement.offsets());
        let mut left: Vec<i64> = (0..n)
            .map(|x| {
                let px = eval.position_of(x);
                graph
                    .neighbors(x)
                    .filter(|&(v, _)| eval.position_of(v) < px)
                    .map(|(_, wt)| wt as i64)
                    .sum()
            })
            .collect();
        let mut window = Window::new(w);
        let mut saved = 0i64;
        // Metrics accumulate locally and flush after the pass loop.
        let (mut passes, mut swaps) = (0u64, 0u64);
        for _ in 0..self.max_passes {
            passes += 1;
            let mut pass_swaps = 0u64;
            for e in 0..=w {
                window.enter(&eval, e, 0);
            }
            for k in 0..n - 1 {
                let hi = (k + w).min(n - 1);
                if k > 0 && hi == k + w {
                    window.enter(&eval, hi, k);
                }
                let mut a = eval.item_at(k);
                let (mut s_a, mut q_a) = (0i64, 0i64);
                for j in (k + 1)..=hi {
                    let b = eval.item_at(j);
                    let ab = window.weight(k, j);
                    s_a += ab;
                    q_a += j as i64 * ab;
                    let (s_b, q_b) = window.sums(j);
                    let (d, jk) = ((j - k) as i64, (j + k) as i64);
                    let (la, wa) = (left[a], graph.degree(a) as i64);
                    let (lb, wb) = (left[b], graph.degree(b) as i64);
                    // a's own edges, b's own edges, the shared edge.
                    let moved_a = d * la - d * (wa - la - s_a) + jk * s_a - 2 * q_a;
                    let moved_b = d * (wb - lb) - d * (lb - s_b) + 2 * q_b - jk * s_b;
                    let delta = moved_a + moved_b + 2 * d * ab;
                    if delta < 0 {
                        pass_swaps += 1;
                        window.swap(&eval, &mut left, k, j, hi, (s_a, q_a));
                        eval.apply_swap_with_delta(a, b, delta);
                        saved -= delta;
                        // Slot k now holds b: its sums up to j are b's
                        // old sums seen from the other end.
                        a = b;
                        s_a = s_b;
                        q_a = q_b + d * ab;
                    }
                }
                window.leave(k, hi);
            }
            swaps += pass_swaps;
            if pass_swaps == 0 {
                break;
            }
        }
        window_passes_counter().add(passes);
        improving_swaps_counter().add(swaps);
        *placement = Placement::from_offsets(eval.positions().to_vec())
            .expect("evaluator maintains a permutation");
        saved as u64
    }

    /// The scalar reference for [`refine`](Self::refine):
    /// the same windowed first-improvement scan, but every candidate
    /// pair pays a full two-row [`ArrangementEval::swap_delta`]. Kept
    /// callable so the golden equivalence tests and the
    /// `algo/local_search` bench pairs can pin the window-local kernel
    /// against it; both must produce byte-identical placements and
    /// savings.
    pub fn refine_scalar(&self, graph: &AccessGraph, placement: &mut Placement) -> u64 {
        let n = placement.num_items();
        if n < 2 {
            return 0;
        }
        let w = self.window.min(n - 1);
        let mut eval = ArrangementEval::new(graph, placement.offsets());
        let mut saved = 0i64;
        let (mut passes, mut swaps) = (0u64, 0u64);
        for _ in 0..self.max_passes {
            passes += 1;
            let mut improved = false;
            for k in 0..n - 1 {
                let hi = (k + w).min(n - 1);
                let mut a = eval.item_at(k);
                for j in (k + 1)..=hi {
                    let b = eval.item_at(j);
                    let delta = eval.swap_delta(a, b);
                    if delta < 0 {
                        swaps += 1;
                        eval.apply_swap_with_delta(a, b, delta);
                        saved -= delta;
                        improved = true;
                        a = b; // slot k now holds b
                    }
                }
            }
            if !improved {
                break;
            }
        }
        window_passes_counter().add(passes);
        improving_swaps_counter().add(swaps);
        *placement = Placement::from_offsets(eval.positions().to_vec())
            .expect("evaluator maintains a permutation");
        saved as u64
    }

    /// Convenience: place with `base`, then refine.
    pub fn refine_placement_of(
        &self,
        base: &dyn PlacementAlgorithm,
        graph: &AccessGraph,
    ) -> Placement {
        let mut p = base.place(graph);
        self.refine(graph, &mut p);
        p
    }
}

/// The window-local state of [`LocalSearch::refine`]'s scan
/// at anchor slot `k`, for the window of slots `[k, hi]`: the weights
/// `ω(s, q)` among the window's items, in a `size × size` ring indexed
/// by `slot & mask`, and each window slot `q`'s partial sums
/// `S(q) = Σ_{k≤r<q} ω(q,r)` and `Q(q) = Σ_{k≤r<q} r·ω(q,r)` against
/// the window slots left of it. `size` is a power of two, so the ring
/// is indexed by mask rather than by remainder.
struct Window {
    mask: usize,
    shift: u32,
    ring: Vec<i64>,
    s: Vec<i64>,
    q: Vec<i64>,
}

impl Window {
    /// Scratch for windows of `w + 1` slots.
    fn new(w: usize) -> Self {
        let size = (w + 1).next_power_of_two();
        Window {
            mask: size - 1,
            shift: size.trailing_zeros(),
            ring: vec![0; size * size],
            s: vec![0; size],
            q: vec![0; size],
        }
    }

    /// The ring index of the slot pair `(s, q)`.
    #[inline]
    fn at(&self, s: usize, q: usize) -> usize {
        ((s & self.mask) << self.shift) | (q & self.mask)
    }

    /// `ω(s, q)` for two slots in the window.
    #[inline]
    fn weight(&self, s: usize, q: usize) -> i64 {
        self.ring[self.at(s, q)]
    }

    /// `(S(q), Q(q))` of a window slot.
    #[inline]
    fn sums(&self, q: usize) -> (i64, i64) {
        (self.s[q & self.mask], self.q[q & self.mask])
    }

    /// Slot `e` joins the window anchored at slot `lo` as its right
    /// end: one walk of its item's CSR row refills its ring row and
    /// column and its partial sums.
    fn enter(&mut self, eval: &ArrangementEval<'_>, e: usize, lo: usize) {
        for x in 0..=self.mask {
            let (row, column) = (self.at(e, x), self.at(x, e));
            self.ring[row] = 0;
            self.ring[column] = 0;
        }
        let (mut s, mut q) = (0i64, 0i64);
        let (vs, ws) = eval.graph().neighbor_slices(eval.item_at(e));
        for (&v, &wt) in vs.iter().zip(ws) {
            let p = eval.position_of(v as usize);
            if (lo..e).contains(&p) {
                let (row, column, wt) = (self.at(e, p), self.at(p, e), wt as i64);
                self.ring[row] = wt;
                self.ring[column] = wt;
                s += wt;
                q += p as i64 * wt;
            }
        }
        self.s[e & self.mask] = s;
        self.q[e & self.mask] = q;
    }

    /// The anchor slot `k` leaves the window `[k, hi]`: every other
    /// slot drops its term against it.
    fn leave(&mut self, k: usize, hi: usize) {
        for q in k + 1..=hi {
            let w = self.weight(q, k);
            self.s[q & self.mask] -= w;
            self.q[q & self.mask] -= k as i64 * w;
        }
    }

    /// The anchor at slot `k` and the candidate at slot `j` of the
    /// window `[k, hi]` are about to swap; `(s_a, q_a)` are the
    /// anchor's running sums up to `j`. Updates the left weights of the
    /// two items and of those between them, the window slots' partial
    /// sums, and exchanges the two slots' ring rows and columns. `O(w)`.
    fn swap(
        &mut self,
        eval: &ArrangementEval<'_>,
        left: &mut [i64],
        k: usize,
        j: usize,
        hi: usize,
        (s_a, q_a): (i64, i64),
    ) {
        let d = (j - k) as i64;
        // The anchor moves right past slots (k, j], the candidate left
        // past [k, j).
        left[eval.item_at(k)] += s_a;
        left[eval.item_at(j)] -= self.s[j & self.mask];
        for q in k + 1..j {
            // The item at q loses the anchor from its left and gains the
            // candidate there.
            let diff = self.weight(q, j) - self.weight(q, k);
            left[eval.item_at(q)] += diff;
            self.s[q & self.mask] += diff;
            self.q[q & self.mask] += k as i64 * diff;
        }
        self.s[j & self.mask] = s_a;
        self.q[j & self.mask] = q_a - d * self.weight(k, j);
        for q in j + 1..=hi {
            // Same two slots left of q, holding each other's items.
            self.q[q & self.mask] += d * (self.weight(q, k) - self.weight(q, j));
        }
        for x in 0..=self.mask {
            let (row_k, row_j) = (self.at(k, x), self.at(j, x));
            self.ring.swap(row_k, row_j);
        }
        for x in 0..=self.mask {
            let (column_k, column_j) = (self.at(x, k), self.at(x, j));
            self.ring.swap(column_k, column_j);
        }
    }
}

/// Window passes executed across all local-search runs.
pub(crate) fn window_passes_counter() -> &'static dwm_foundation::obs::Counter {
    dwm_foundation::obs_counter!(
        "dwm_solver_local_search_passes_total",
        "Windowed improvement passes executed by local search"
    )
}

/// Improving swaps applied across all local-search runs.
pub(crate) fn improving_swaps_counter() -> &'static dwm_foundation::obs::Counter {
    dwm_foundation::obs_counter!(
        "dwm_solver_local_search_swaps_total",
        "Improving swaps applied by local search"
    )
}

impl PlacementAlgorithm for LocalSearch {
    fn name(&self) -> String {
        "local-search".into()
    }

    /// As a standalone algorithm, refines the identity placement.
    fn place(&self, graph: &AccessGraph) -> Placement {
        let mut p = Placement::identity(graph.num_items());
        self.refine(graph, &mut p);
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::test_support::{kernel_graph, two_cluster_graph};
    use crate::algorithms::{ChainGrowth, OrganPipe, RandomPlacement};

    #[test]
    fn refine_never_increases_cost() {
        let g = kernel_graph();
        for base in [
            &RandomPlacement::new(5) as &dyn PlacementAlgorithm,
            &ChainGrowth,
            &OrganPipe,
        ] {
            let mut p = base.place(&g);
            let before = g.arrangement_cost(p.offsets());
            let saved = LocalSearch::default().refine(&g, &mut p);
            let after = g.arrangement_cost(p.offsets());
            assert!(after <= before, "{} got worse", base.name());
            assert_eq!(before - after, saved, "reported saving mismatch");
        }
    }

    #[test]
    fn eval_position_swap_delta_matches_recomputation() {
        let g = two_cluster_graph();
        let mut p = RandomPlacement::new(11).place(&g);
        let n = p.num_items();
        for k in 0..n {
            for j in (k + 1)..n {
                let before = g.arrangement_cost(p.offsets()) as i64;
                let eval = ArrangementEval::new(&g, p.offsets());
                let (a, b) = (p.item_at(k), p.item_at(j));
                let delta = eval.swap_delta(a, b);
                p.swap_items(a, b);
                let after = g.arrangement_cost(p.offsets()) as i64;
                assert_eq!(after - before, delta);
                p.swap_items(a, b);
            }
        }
    }

    #[test]
    fn converges_to_local_optimum() {
        let g = kernel_graph();
        let mut p = RandomPlacement::new(3).place(&g);
        LocalSearch::default().refine(&g, &mut p);
        // No in-window swap may improve further.
        let eval = ArrangementEval::new(&g, p.offsets());
        let n = p.num_items();
        for k in 0..n - 1 {
            for j in (k + 1)..(k + 1 + LocalSearch::default().window).min(n) {
                assert!(eval.swap_delta(eval.item_at(k), eval.item_at(j)) >= 0);
            }
        }
    }

    #[test]
    fn windows_wider_than_the_tape_search_the_whole_tape() {
        let g = dwm_graph::generators::random_graph(10, 0.5, 9, 4);
        let start = RandomPlacement::new(2).place(&g);
        let kernels: [fn(&LocalSearch, &AccessGraph, &mut Placement) -> u64; 2] =
            [LocalSearch::refine, LocalSearch::refine_scalar];
        let mut results = Vec::new();
        for window in [9, 10, 1 << 40, usize::MAX] {
            let ls = LocalSearch::default().with_window(window);
            for kernel in kernels {
                let mut p = start.clone();
                let saved = kernel(&ls, &g, &mut p);
                results.push((p, saved));
            }
        }
        assert!(results[0].1 > 0, "the start should be improvable");
        assert!(results.iter().all(|r| *r == results[0]));
    }

    #[test]
    fn window_local_kernel_matches_the_scalar_reference() {
        for (g, seeds) in [
            (kernel_graph(), [3u64, 7, 11]),
            (two_cluster_graph(), [1, 5, 9]),
        ] {
            for seed in seeds {
                let mut fast = RandomPlacement::new(seed).place(&g);
                let mut scalar = fast.clone();
                let ls = LocalSearch::default();
                let saved_fast = ls.refine(&g, &mut fast);
                let saved_scalar = ls.refine_scalar(&g, &mut scalar);
                assert_eq!(fast, scalar, "placements diverged (seed {seed})");
                assert_eq!(saved_fast, saved_scalar, "savings diverged (seed {seed})");
            }
        }
    }

    #[test]
    fn refine_placement_of_composes() {
        let g = kernel_graph();
        let base = ChainGrowth;
        let refined = LocalSearch::default().refine_placement_of(&base, &g);
        assert!(
            g.arrangement_cost(refined.offsets()) <= g.arrangement_cost(base.place(&g).offsets())
        );
    }

    #[test]
    fn handles_trivial_graphs() {
        for n in 0..2 {
            let g = AccessGraph::with_items(n);
            let mut p = Placement::identity(n);
            assert_eq!(LocalSearch::default().refine(&g, &mut p), 0);
        }
    }
}
