use std::collections::BTreeMap;

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

dwm_foundation::json_struct!(Edge { u, v, weight });

/// Undirected, integer-weighted graph over data items.
///
/// Vertices are dense item indices `0..n`. Adjacency is stored as one
/// ordered map per vertex, which keeps iteration deterministic (required
/// for reproducible placements) and scales to the few-thousand-item
/// graphs of the runtime-scaling experiment without a dense `n²` matrix.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AccessGraph {
    adj: Vec<BTreeMap<usize, u64>>,
    /// Per-item total access count (vertex weights; used by
    /// frequency-aware placement).
    frequency: Vec<u64>,
}

dwm_foundation::json_struct!(AccessGraph { adj, frequency });

impl AccessGraph {
    /// An edgeless graph over `n` items.
    pub fn with_items(n: usize) -> Self {
        AccessGraph {
            adj: vec![BTreeMap::new(); n],
            frequency: vec![0; n],
        }
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

    /// Assembles a graph from symmetric adjacency maps and frequencies
    /// (the digest's conversion).
    pub(crate) fn from_parts(adj: Vec<BTreeMap<usize, u64>>, frequency: Vec<u64>) -> Self {
        debug_assert_eq!(adj.len(), frequency.len());
        AccessGraph { adj, frequency }
    }

    /// Number of items (vertices).
    pub fn num_items(&self) -> usize {
        self.adj.len()
    }

    /// Number of distinct edges.
    pub fn num_edges(&self) -> usize {
        self.adj.iter().map(|m| m.len()).sum::<usize>() / 2
    }

    /// Adds `w` to the weight of edge `{u, v}`.
    ///
    /// # Panics
    ///
    /// Panics if `u == v` (self-loops carry no shift cost and are
    /// rejected to keep invariants simple) or if either endpoint is out
    /// of range.
    pub fn add_weight(&mut self, u: usize, v: usize, w: u64) {
        assert_ne!(u, v, "self-loops are not representable");
        assert!(
            u < self.adj.len() && v < self.adj.len(),
            "vertex out of range"
        );
        *self.adj[u].entry(v).or_insert(0) += w;
        *self.adj[v].entry(u).or_insert(0) += w;
    }

    /// Weight of edge `{u, v}` (0 if absent or if `u == v`).
    pub fn weight(&self, u: usize, v: usize) -> u64 {
        self.adj
            .get(u)
            .and_then(|m| m.get(&v))
            .copied()
            .unwrap_or(0)
    }

    /// Access count of item `i` (vertex weight).
    pub fn frequency(&self, i: usize) -> u64 {
        self.frequency.get(i).copied().unwrap_or(0)
    }

    /// All per-item access counts.
    pub fn frequencies(&self) -> &[u64] {
        &self.frequency
    }

    /// Sets the access count of item `i` (used by generators).
    pub fn set_frequency(&mut self, i: usize, f: u64) {
        self.frequency[i] = f;
    }

    /// Weighted degree of vertex `u` (sum of incident edge weights).
    pub fn degree(&self, u: usize) -> u64 {
        self.adj[u].values().sum()
    }

    /// Neighbours of `u` with edge weights, in ascending vertex order.
    pub fn neighbors(&self, u: usize) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.adj[u].iter().map(|(&v, &w)| (v, w))
    }

    /// All edges, each reported once with `u < v`, in lexicographic
    /// order.
    pub fn edges(&self) -> impl Iterator<Item = Edge> + '_ {
        self.adj.iter().enumerate().flat_map(|(u, m)| {
            m.iter()
                .filter(move |&(&v, _)| u < v)
                .map(move |(&v, &w)| Edge { u, v, weight: w })
        })
    }

    /// Sum of all edge weights (= number of distinct-item transitions
    /// in the source trace).
    pub fn total_weight(&self) -> u64 {
        self.edges().map(|e| e.weight).sum()
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
        self.edges()
            .map(|e| e.weight * (position[e.u] as i64).abs_diff(position[e.v] as i64))
            .sum()
    }

    /// Weight of the cut between `set` (as a bitmask over vertices,
    /// only valid for `n ≤ 64`) and its complement. Used by the exact
    /// DP, whose instances are capped well below 64 items.
    pub fn cut_weight_mask(&self, set: u64) -> u64 {
        let mut cut = 0;
        for e in self.edges() {
            let in_u = set >> e.u & 1;
            let in_v = set >> e.v & 1;
            if in_u != in_v {
                cut += e.weight;
            }
        }
        cut
    }

    /// Dense Laplacian matrix `L = D − W` in row-major `f64`, used by
    /// the spectral placement algorithm.
    pub fn laplacian(&self) -> Vec<f64> {
        let n = self.num_items();
        let mut l = vec![0.0; n * n];
        for u in 0..n {
            l[u * n + u] = self.degree(u) as f64;
            for (v, w) in self.neighbors(u) {
                l[u * n + v] = -(w as f64);
            }
        }
        l
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> AccessGraph {
        // 0-1 heavy, 1-2, 2-3, 0-3 light.
        let mut g = AccessGraph::with_items(4);
        g.add_weight(0, 1, 5);
        g.add_weight(1, 2, 1);
        g.add_weight(2, 3, 1);
        g.add_weight(0, 3, 1);
        g
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
    fn total_weight_matches_trace_transitions() {
        let t = Trace::from_ids([3u32, 1, 4, 1, 5, 5]).normalize();
        let g = AccessGraph::from_trace(&t);
        assert_eq!(g.total_weight() as usize, t.stats().transitions);
    }

    #[test]
    fn arrangement_cost_of_identity() {
        let g = diamond();
        // |0−1|·5 + |1−2|·1 + |2−3|·1 + |0−3|·3? no: |0−3|·1 = 3.
        assert_eq!(g.arrangement_cost(&[0, 1, 2, 3]), 5 + 1 + 1 + 3);
    }

    #[test]
    fn arrangement_cost_detects_better_order() {
        let g = diamond();
        // Keeping the heavy pair adjacent and closing the cycle:
        // order 1,0,3,2 → pos[1]=0,pos[0]=1,pos[3]=2,pos[2]=3.
        let better = [1usize, 0, 2, 3]; // positions indexed by item
        assert!(g.arrangement_cost(&better) <= g.arrangement_cost(&[0, 1, 2, 3]));
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        diamond().add_weight(2, 2, 1);
    }

    #[test]
    fn cut_weight_mask_counts_crossing_edges() {
        let g = diamond();
        // set = {0,1}: crossing edges 1-2 (1) and 0-3 (1).
        assert_eq!(g.cut_weight_mask(0b0011), 2);
        // set = {0}: crossing 0-1 (5) and 0-3 (1).
        assert_eq!(g.cut_weight_mask(0b0001), 6);
        assert_eq!(g.cut_weight_mask(0b1111), 0);
        assert_eq!(g.cut_weight_mask(0), 0);
    }

    #[test]
    fn laplacian_rows_sum_to_zero() {
        let g = diamond();
        let l = g.laplacian();
        for u in 0..4 {
            let row_sum: f64 = (0..4).map(|v| l[u * 4 + v]).sum();
            assert!(row_sum.abs() < 1e-12);
        }
        assert_eq!(l[0], 6.0);
        assert_eq!(l[1], -5.0);
    }

    #[test]
    fn json_round_trip() {
        let g = diamond();
        let json = dwm_foundation::json::to_string(&g);
        let back: AccessGraph = dwm_foundation::json::from_str(&json).unwrap();
        assert_eq!(g, back);
    }
}
