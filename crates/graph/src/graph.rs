use dwm_trace::Trace;

use crate::digest::GraphDigest;

/// One weighted undirected edge of an [`AccessGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Edge {
    /// Smaller endpoint.
    pub u: usize,
    /// Larger endpoint.
    pub v: usize,
    /// Number of adjacent co-accesses of `u` and `v` in the trace.
    pub weight: u64,
}

/// Undirected, integer-weighted graph over data items, in compressed
/// sparse row (CSR) form.
///
/// Vertices are dense item indices `0..n`. Each vertex's neighbours
/// are stored contiguously in ascending vertex order, so iteration is
/// deterministic (required for reproducible placements) and every
/// solver's inner loop walks flat arrays instead of chasing pointers.
/// Weighted degrees, the total edge weight and interleaved
/// `(weight, neighbour)` rows are derived once at construction; the
/// graph is immutable after that. Streaming consumers that need to add
/// weight over time use [`DeltaGraph`](crate::DeltaGraph).
///
/// Every graph is assembled in one place from already-sorted rows, fed
/// by [`GraphDigest::to_graph`] (and through it
/// [`from_trace`](AccessGraph::from_trace)), by
/// [`from_edges`](AccessGraph::from_edges), and by
/// [`DeltaGraph::refreeze`](crate::DeltaGraph::refreeze) — so two
/// routes to the same adjacency produce equal (`==`) graphs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessGraph {
    /// `row_offsets[u]..row_offsets[u + 1]` indexes `u`'s slice of
    /// `neighbors`/`weights`.
    row_offsets: Vec<u32>,
    /// Concatenated neighbour lists, ascending within each vertex.
    neighbors: Vec<u32>,
    /// Edge weights, parallel to `neighbors`.
    weights: Vec<u64>,
    /// Cached weighted degree per vertex.
    degree: Vec<u64>,
    /// Cached sum of all (undirected) edge weights.
    total_weight: u64,
    /// Interleaved `(weight << 32) | neighbor` rows, parallel to
    /// `neighbors`, built when every weight fits in 32 bits (always
    /// true for trace-derived counts). The swap-delta walk then reads
    /// one 8-byte word per neighbour instead of two parallel streams.
    /// Empty when some weight overflows u32.
    packed: Vec<u64>,
    /// Per-item total access count (vertex weights; used by
    /// frequency-aware placement).
    frequency: Vec<u64>,
}

impl AccessGraph {
    /// An edgeless graph over `n` items, all with frequency 0.
    pub fn with_items(n: usize) -> Self {
        AccessGraph::from_parts(vec![0; n + 1], Vec::new(), Vec::new(), vec![0; n])
    }

    /// Builds the access graph of a trace: edge `{u,v}` counts adjacent
    /// accesses of distinct items `u, v`; vertex weights count accesses.
    /// The counting is [`GraphDigest`]'s, so this graph and a digest of
    /// the same ids always agree.
    ///
    /// The trace must use dense item ids (see
    /// [`Trace::normalize`](dwm_trace::Trace::normalize)); all kernel
    /// and generator traces already do.
    pub fn from_trace(trace: &Trace) -> Self {
        GraphDigest::from_dense(trace.num_items(), trace.iter().map(|a| a.item.index())).to_graph()
    }

    /// Builds a graph over `frequency.len()` items with the given
    /// per-item access counts and weighted edges `(u, v, w)`. Edges may
    /// come in any order and orientation; repeats of one pair add up.
    ///
    /// # Panics
    ///
    /// Panics if an edge is a self-loop (`u == v`; self-transitions
    /// carry no shift cost) or an endpoint is out of range.
    pub fn from_edges<I>(frequency: Vec<u64>, edges: I) -> Self
    where
        I: IntoIterator<Item = (usize, usize, u64)>,
    {
        let n = frequency.len();
        let id = |x: usize| u32::try_from(x).expect("vertex id exceeds u32");
        let mut half = Vec::new();
        for (u, v, w) in edges {
            assert_ne!(u, v, "self-loops are not representable");
            assert!(u < n && v < n, "vertex out of range");
            let (u, v) = (id(u), id(v));
            half.extend([(u, v, w), (v, u, w)]);
        }
        half.sort_unstable_by_key(|&(u, v, _)| (u, v));
        let mut row_offsets = vec![0u32; n + 1];
        let mut neighbors: Vec<u32> = Vec::with_capacity(half.len());
        let mut weights: Vec<u64> = Vec::with_capacity(half.len());
        let mut last = None;
        for (u, v, w) in half {
            if last == Some((u, v)) {
                *weights
                    .last_mut()
                    .expect("a repeat follows its first entry") += w;
            } else {
                row_offsets[u as usize + 1] += 1;
                neighbors.push(v);
                weights.push(w);
                last = Some((u, v));
            }
        }
        for u in 0..n {
            row_offsets[u + 1] += row_offsets[u];
        }
        AccessGraph::from_parts(row_offsets, neighbors, weights, frequency)
    }

    /// Assembles a graph from already-flattened rows (ascending
    /// neighbours per vertex, each undirected edge present from both
    /// endpoints) and per-item frequencies. Every cache — degrees,
    /// total weight, the interleaved rows — is derived here and
    /// nowhere else.
    pub(crate) fn from_parts(
        row_offsets: Vec<u32>,
        neighbors: Vec<u32>,
        weights: Vec<u64>,
        frequency: Vec<u64>,
    ) -> Self {
        let n = row_offsets.len() - 1;
        debug_assert_eq!(n, frequency.len());
        let mut degree = Vec::with_capacity(n);
        let mut total_weight = 0u64;
        for u in 0..n {
            let (lo, hi) = (row_offsets[u] as usize, row_offsets[u + 1] as usize);
            let mut deg = 0u64;
            for (&v, &w) in neighbors[lo..hi].iter().zip(&weights[lo..hi]) {
                deg += w;
                if (u as u32) < v {
                    total_weight += w;
                }
            }
            degree.push(deg);
        }
        let packed = if weights.iter().all(|&w| w <= u64::from(u32::MAX)) {
            neighbors
                .iter()
                .zip(&weights)
                .map(|(&v, &w)| (w << 32) | u64::from(v))
                .collect()
        } else {
            Vec::new()
        };
        AccessGraph {
            row_offsets,
            neighbors,
            weights,
            degree,
            total_weight,
            packed,
            frequency,
        }
    }

    /// Number of items (vertices).
    #[inline]
    pub fn num_items(&self) -> usize {
        self.degree.len()
    }

    /// Number of distinct edges.
    pub fn num_edges(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Weight of edge `{u, v}` (0 if absent, if `u == v`, or if `u` is
    /// out of range). `O(log deg(u))`.
    pub fn weight(&self, u: usize, v: usize) -> u64 {
        if u >= self.num_items() {
            return 0;
        }
        let (vs, ws) = self.neighbor_slices(u);
        match u32::try_from(v).map(|v| vs.binary_search(&v)) {
            Ok(Ok(i)) => ws[i],
            _ => 0,
        }
    }

    /// Access count of item `i` (vertex weight).
    pub fn frequency(&self, i: usize) -> u64 {
        self.frequency.get(i).copied().unwrap_or(0)
    }

    /// All per-item access counts.
    pub fn frequencies(&self) -> &[u64] {
        &self.frequency
    }

    /// Weighted degree of vertex `u` (sum of incident edge weights),
    /// from the build-time cache. `O(1)`.
    #[inline]
    pub fn degree(&self, u: usize) -> u64 {
        self.degree[u]
    }

    /// Sum of all edge weights (= number of distinct-item transitions
    /// in the source trace), from the build-time cache. `O(1)`.
    #[inline]
    pub fn total_weight(&self) -> u64 {
        self.total_weight
    }

    /// `u`'s neighbour ids and weights as parallel slices, ascending by
    /// vertex — the zero-overhead form for hot loops.
    #[inline]
    pub fn neighbor_slices(&self, u: usize) -> (&[u32], &[u64]) {
        let lo = self.row_offsets[u] as usize;
        let hi = self.row_offsets[u + 1] as usize;
        (&self.neighbors[lo..hi], &self.weights[lo..hi])
    }

    /// Neighbours of `u` with edge weights, in ascending vertex order.
    pub fn neighbors(&self, u: usize) -> impl Iterator<Item = (usize, u64)> + '_ {
        let (vs, ws) = self.neighbor_slices(u);
        vs.iter().zip(ws).map(|(&v, &w)| (v as usize, w))
    }

    /// `u`'s interleaved `(weight << 32) | neighbor` row, when built.
    #[inline]
    pub(crate) fn packed_row(&self, u: usize) -> Option<&[u64]> {
        if self.packed.len() != self.neighbors.len() {
            return None;
        }
        let lo = self.row_offsets[u] as usize;
        let hi = self.row_offsets[u + 1] as usize;
        Some(&self.packed[lo..hi])
    }

    /// All edges, each reported once with `u < v`, in lexicographic
    /// order.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        (0..self.num_items()).flat_map(move |u| {
            self.neighbors(u)
                .filter(move |&(v, _)| u < v)
                .map(move |(v, weight)| Edge { u, v, weight })
        })
    }

    /// Linear arrangement cost of placing item `i` at position
    /// `position[i]`: `Σ w(u,v)·|position[u] − position[v]|`.
    ///
    /// This is the single-port shift count of the placement, minus the
    /// initial alignment (which no placement can influence in the
    /// steady state).
    ///
    /// # Panics
    ///
    /// Panics if `position.len() < num_items()`.
    pub fn arrangement_cost(&self, position: &[usize]) -> u64 {
        assert!(
            position.len() >= self.num_items(),
            "position vector shorter than item count"
        );
        let mut cost = 0u64;
        for u in 0..self.num_items() {
            let pu = position[u];
            let (vs, ws) = self.neighbor_slices(u);
            for (&v, &w) in vs.iter().zip(ws) {
                let v = v as usize;
                if u < v {
                    cost += w * pu.abs_diff(position[v]) as u64;
                }
            }
        }
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> AccessGraph {
        // 0-1 heavy, 1-2, 2-3, 0-3 light.
        AccessGraph::from_edges(vec![0; 4], [(0, 1, 5), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
    }

    #[test]
    fn from_trace_counts_transitions() {
        let t = Trace::from_ids([0u32, 1, 1, 2, 0]);
        let g = AccessGraph::from_trace(&t);
        assert_eq!(g.weight(0, 1), 1);
        assert_eq!(g.weight(1, 2), 1);
        assert_eq!(g.weight(0, 2), 1);
        // Self-transition 1→1 is not an edge.
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.frequency(0), 2);
        assert_eq!(g.frequency(1), 2);
    }

    #[test]
    fn weight_is_symmetric() {
        let g = diamond();
        for u in 0..4 {
            for v in 0..4 {
                assert_eq!(g.weight(u, v), g.weight(v, u));
            }
        }
        assert_eq!(g.weight(9, 0), 0, "out-of-range vertices have no edges");
    }

    #[test]
    fn degree_sums_incident_weights() {
        let g = diamond();
        assert_eq!(g.degree(0), 6);
        assert_eq!(g.degree(1), 6);
        assert_eq!(g.degree(2), 2);
    }

    #[test]
    fn edges_are_unique_and_ordered() {
        let g = diamond();
        let edges: Vec<Edge> = g.edges().collect();
        assert_eq!(edges.len(), 4);
        assert!(edges.windows(2).all(|w| w[0] < w[1]));
        assert!(edges.iter().all(|e| e.u < e.v));
    }

    #[test]
    fn from_edges_accumulates_repeats_in_either_orientation() {
        let g = AccessGraph::from_edges(vec![1, 2, 3], [(2, 0, 4), (0, 2, 1), (1, 0, 2)]);
        assert_eq!(g.weight(0, 2), 5);
        assert_eq!(g.weight(0, 1), 2);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.frequencies(), &[1, 2, 3]);
        let rows: Vec<Vec<(usize, u64)>> = (0..3).map(|u| g.neighbors(u).collect()).collect();
        assert_eq!(rows, [vec![(1, 2), (2, 5)], vec![(0, 2)], vec![(0, 5)]]);
    }

    #[test]
    fn total_weight_matches_trace_transitions() {
        let t = Trace::from_ids([3u32, 1, 4, 1, 5, 5]).normalize();
        let g = AccessGraph::from_trace(&t);
        assert_eq!(g.total_weight() as usize, t.stats().transitions);
    }

    #[test]
    fn arrangement_cost_of_identity() {
        let g = diamond();
        // |0−1|·5 + |1−2|·1 + |2−3|·1 + |0−3|·1.
        assert_eq!(g.arrangement_cost(&[0, 1, 2, 3]), 5 + 1 + 1 + 3);
    }

    #[test]
    fn arrangement_cost_detects_better_order() {
        let g = diamond();
        let better = [1usize, 0, 2, 3]; // positions indexed by item
        assert!(g.arrangement_cost(&better) <= g.arrangement_cost(&[0, 1, 2, 3]));
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        AccessGraph::from_edges(vec![0; 3], [(2, 2, 1)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_rejected() {
        AccessGraph::from_edges(vec![0; 3], [(0, 3, 1)]);
    }

    #[test]
    fn wide_weights_skip_the_packed_rows() {
        let g = AccessGraph::from_edges(vec![0; 3], [(0, 1, 1 << 40), (1, 2, 3)]);
        assert_eq!(g.packed_row(0), None);
        assert_eq!(g.degree(1), (1 << 40) + 3);
        let narrow = diamond();
        assert_eq!(narrow.packed_row(1), Some(&[(5 << 32), (1 << 32) | 2][..]));
    }

    #[test]
    fn trivial_graphs() {
        for n in 0..2usize {
            let g = AccessGraph::with_items(n);
            assert_eq!(g.num_items(), n);
            assert_eq!(g.num_edges(), 0);
            assert_eq!(g.total_weight(), 0);
        }
    }
}
