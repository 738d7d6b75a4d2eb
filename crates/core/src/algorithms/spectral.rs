use dwm_graph::AccessGraph;

use crate::algorithms::PlacementAlgorithm;
use crate::placement::Placement;

/// Spectral (Fiedler-vector) ordering.
///
/// Sorting vertices by their component in the Laplacian's second-
/// smallest eigenvector is the classic continuous relaxation of minimum
/// linear arrangement. The eigenvector is computed matrix-free with
/// shifted power iteration: iterate `y = (cI − L)x` with `c` above the
/// spectral radius (Gershgorin bound `2·max_degree`), projecting out
/// the all-ones kernel each step. No external linear-algebra crate is
/// needed and memory stays `O(V + E)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spectral {
    /// Maximum power-iteration steps.
    pub max_iters: usize,
    /// Convergence tolerance on the iterate's change (L∞ norm).
    pub tolerance: f64,
}

impl Default for Spectral {
    fn default() -> Self {
        Spectral {
            max_iters: 600,
            tolerance: 1e-10,
        }
    }
}

impl Spectral {
    /// Computes (an approximation of) the Fiedler vector of `graph`.
    ///
    /// Returns a zero vector for graphs with fewer than 2 vertices.
    /// The power iteration streams CSR neighbour slices in ascending
    /// neighbour order, so the floating-point accumulation — and
    /// therefore the resulting ordering — is fixed for a given graph.
    pub fn fiedler_vector(&self, graph: &AccessGraph) -> Vec<f64> {
        let n = graph.num_items();
        if n < 2 {
            return vec![0.0; n];
        }
        let c = 2.0 * (0..n).map(|u| graph.degree(u) as f64).fold(0.0, f64::max) + 1.0;

        // Deterministic, non-degenerate start vector orthogonal to 1.
        let mut x: Vec<f64> = (0..n).map(|i| (i as f64).sin() + 0.25).collect();
        project_out_ones(&mut x);
        normalize(&mut x);

        let mut y = vec![0.0; n];
        for _ in 0..self.max_iters {
            // y = (cI − L)x = c·x − D·x + W·x, matrix-free.
            for (u, out) in y.iter_mut().enumerate() {
                let mut acc = (c - graph.degree(u) as f64) * x[u];
                let (vs, ws) = graph.neighbor_slices(u);
                for (&v, &w) in vs.iter().zip(ws) {
                    acc += w as f64 * x[v as usize];
                }
                *out = acc;
            }
            project_out_ones(&mut y);
            normalize(&mut y);
            let delta = x
                .iter()
                .zip(&y)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            std::mem::swap(&mut x, &mut y);
            if delta < self.tolerance {
                break;
            }
        }
        x
    }
}

/// Sorts items by Fiedler component (ties break by index) into a
/// placement.
fn spectral_order(fiedler: &[f64], n: usize) -> Placement {
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        fiedler[a]
            .partial_cmp(&fiedler[b])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    Placement::from_order(order)
}

fn project_out_ones(x: &mut [f64]) {
    let mean = x.iter().sum::<f64>() / x.len() as f64;
    for v in x.iter_mut() {
        *v -= mean;
    }
}

fn normalize(x: &mut [f64]) {
    let norm = x.iter().map(|v| v * v).sum::<f64>().sqrt();
    if norm > 1e-300 {
        for v in x.iter_mut() {
            *v /= norm;
        }
    } else {
        // Degenerate iterate (disconnected or tiny graph): restart from
        // a fixed non-constant vector.
        for (i, v) in x.iter_mut().enumerate() {
            *v = if i % 2 == 0 { 1.0 } else { -1.0 };
        }
    }
}

impl PlacementAlgorithm for Spectral {
    fn name(&self) -> String {
        "spectral".into()
    }

    fn place(&self, graph: &AccessGraph) -> Placement {
        spectral_order(&self.fiedler_vector(graph), graph.num_items())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::test_support::two_cluster_graph;
    use dwm_graph::generators::path_graph;

    #[test]
    fn recovers_path_order() {
        // On a path graph the Fiedler vector is monotone along the
        // path, so spectral ordering must recover the path (possibly
        // mirrored) — the known-optimal arrangement.
        let g = path_graph(10, 1);
        let p = Spectral::default().place(&g);
        let cost = g.arrangement_cost(p.offsets());
        assert_eq!(cost, 9, "spectral should recover the optimal path order");
    }

    #[test]
    fn separates_clusters() {
        let g = two_cluster_graph();
        let p = Spectral::default().place(&g);
        // All of cluster {0,1,2} on one side, {3,4,5} on the other.
        let side: Vec<bool> = (0..6).map(|i| p.offset_of(i) < 3).collect();
        assert_eq!(side[0], side[1]);
        assert_eq!(side[1], side[2]);
        assert_eq!(side[3], side[4]);
        assert_eq!(side[4], side[5]);
        assert_ne!(side[0], side[3]);
    }

    #[test]
    fn fiedler_vector_is_unit_and_centred() {
        let g = two_cluster_graph();
        let f = Spectral::default().fiedler_vector(&g);
        let norm: f64 = f.iter().map(|v| v * v).sum();
        let mean: f64 = f.iter().sum::<f64>() / f.len() as f64;
        assert!((norm - 1.0).abs() < 1e-6);
        assert!(mean.abs() < 1e-6);
    }

    #[test]
    fn tiny_graphs_do_not_panic() {
        for n in 0..3 {
            let g = AccessGraph::with_items(n);
            assert_eq!(Spectral::default().place(&g).num_items(), n);
        }
    }

    #[test]
    fn deterministic() {
        let g = two_cluster_graph();
        assert_eq!(Spectral::default().place(&g), Spectral::default().place(&g));
    }
}
