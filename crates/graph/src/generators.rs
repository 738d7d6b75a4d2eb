//! Synthetic access-graph generators.
//!
//! The optimality-gap study (T4) and the runtime-scaling study (F7)
//! need graphs of controlled size and structure without going through a
//! trace. All generators are deterministic given their seed.

use dwm_foundation::Rng;

use crate::graph::AccessGraph;

/// Erdős–Rényi-style weighted graph: each pair becomes an edge with
/// probability `density`, with weight uniform in `1..=max_weight`.
///
/// Vertex frequencies are set to the weighted degrees so that
/// frequency-aware algorithms behave sensibly on generated graphs.
///
/// # Panics
///
/// Panics if `max_weight == 0`.
pub fn random_graph(n: usize, density: f64, max_weight: u64, seed: u64) -> AccessGraph {
    assert!(max_weight > 0, "max_weight must be nonzero");
    let mut rng = Rng::seed_from_u64(seed);
    let mut edges = Vec::new();
    for u in 0..n {
        for v in (u + 1)..n {
            if rng.gen_bool(density.clamp(0.0, 1.0)) {
                edges.push((u, v, rng.gen_range(1..=max_weight)));
            }
        }
    }
    degree_weighted(n, edges)
}

/// A weighted path `0—1—…—(n−1)`, every edge of weight `w`.
///
/// Paths are the best case for linear arrangement (the identity order
/// is optimal), which makes them handy ground truth in tests.
pub fn path_graph(n: usize, w: u64) -> AccessGraph {
    degree_weighted(n, (1..n).map(|v| (v - 1, v, w)).collect())
}

/// Clustered graph: `n` vertices in `k` equal clusters; intra-cluster
/// pairs get weight `w_in` with probability `p_in`, inter-cluster pairs
/// weight 1 with probability `p_out`.
///
/// This mimics the access graphs of phase-local programs and is the
/// structure on which adjacency-driven placement beats frequency-only
/// placement by the widest margin.
///
/// # Panics
///
/// Panics if `k == 0`.
pub fn clustered_graph(
    n: usize,
    k: usize,
    p_in: f64,
    p_out: f64,
    w_in: u64,
    seed: u64,
) -> AccessGraph {
    assert!(k > 0, "cluster count must be nonzero");
    let mut rng = Rng::seed_from_u64(seed);
    let mut edges = Vec::new();
    let cluster = |v: usize| v * k / n.max(1);
    for u in 0..n {
        for v in (u + 1)..n {
            if cluster(u) == cluster(v) {
                if rng.gen_bool(p_in.clamp(0.0, 1.0)) {
                    edges.push((u, v, w_in));
                }
            } else if rng.gen_bool(p_out.clamp(0.0, 1.0)) {
                edges.push((u, v, 1));
            }
        }
    }
    degree_weighted(n, edges)
}

/// The graph over `n` items with `edges`, each item's frequency set to
/// its weighted degree, so frequency-aware algorithms behave sensibly
/// on graphs that never came from a trace.
///
/// # Panics
///
/// Panics on a self-loop or an out-of-range endpoint, as
/// [`AccessGraph::from_edges`] does.
pub fn degree_weighted(n: usize, edges: Vec<(usize, usize, u64)>) -> AccessGraph {
    let mut frequency = vec![0u64; n];
    for &(u, v, w) in &edges {
        if u < n && v < n {
            frequency[u] += w;
            frequency[v] += w;
        }
    }
    AccessGraph::from_edges(frequency, edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_graph_is_deterministic() {
        assert_eq!(random_graph(20, 0.3, 9, 5), random_graph(20, 0.3, 9, 5));
        assert_ne!(random_graph(20, 0.3, 9, 5), random_graph(20, 0.3, 9, 6));
    }

    #[test]
    fn random_graph_density_extremes() {
        let empty = random_graph(10, 0.0, 5, 1);
        assert_eq!(empty.num_edges(), 0);
        let full = random_graph(10, 1.0, 5, 1);
        assert_eq!(full.num_edges(), 45);
    }

    #[test]
    fn path_graph_identity_cost_is_total_weight() {
        let g = path_graph(12, 3);
        let identity: Vec<usize> = (0..12).collect();
        assert_eq!(g.arrangement_cost(&identity), 11 * 3);
        assert_eq!(g.num_edges(), 11);
    }

    #[test]
    fn clustered_graph_has_heavier_intra_edges() {
        let g = clustered_graph(24, 4, 0.9, 0.05, 8, 7);
        let cluster = |v: usize| v * 4 / 24;
        let intra: u64 = g
            .edges()
            .filter(|e| cluster(e.u) == cluster(e.v))
            .map(|e| e.weight)
            .sum();
        let inter: u64 = g
            .edges()
            .filter(|e| cluster(e.u) != cluster(e.v))
            .map(|e| e.weight)
            .sum();
        assert!(intra > inter);
    }

    #[test]
    fn frequencies_match_degrees() {
        let g = random_graph(15, 0.4, 4, 9);
        for u in 0..15 {
            assert_eq!(g.frequency(u), g.degree(u));
        }
    }
}
