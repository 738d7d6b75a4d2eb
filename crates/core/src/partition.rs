//! Capacity-constrained graph partitioning for multi-DBC scratchpads.
//!
//! A scratchpad built from `k` DBCs of `L` words each holds `k·L`
//! items, but shifts only couple items *within* a DBC — the clusters
//! shift independently. Placement across a multi-DBC SPM therefore
//! decomposes into (1) partitioning the item set into `k` parts of at
//! most `L` items while minimizing the weight of *intra*-part tape
//! traffic spread and (2) ordering each part on its own tape.
//!
//! Step (1) here uses heaviest-edge greedy agglomeration (Kruskal-style
//! with a capacity cap) followed by Kernighan–Lin-style pairwise swap
//! refinement. The objective is to *maximize* the weight captured
//! inside parts with small diameter — equivalently, heavy edges should
//! not be split, and no part may overflow.
//!
//! Each refinement pass scores every cross-part swap in parallel
//! against the frozen pass-start state, then applies the improving
//! swaps best-first with sequential re-validation, so the result is
//! byte-identical at any `DWM_THREADS` worker count.

use dwm_foundation::par;
use dwm_graph::AccessGraph;

use crate::error::PlacementError;

/// An assignment of items to `k` parts with a per-part capacity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partition {
    /// `part_of[item] = part index`.
    part_of: Vec<usize>,
    /// Items of each part, in ascending item order.
    parts: Vec<Vec<usize>>,
}

dwm_foundation::json_struct!(Partition { part_of, parts });

impl Partition {
    fn from_assignment(part_of: Vec<usize>, k: usize) -> Self {
        let mut parts = vec![Vec::new(); k];
        for (item, &p) in part_of.iter().enumerate() {
            parts[p].push(item);
        }
        Partition { part_of, parts }
    }

    /// Part index of `item`.
    pub fn part_of(&self, item: usize) -> usize {
        self.part_of[item]
    }

    /// Items of part `p`.
    pub fn part(&self, p: usize) -> &[usize] {
        &self.parts[p]
    }

    /// Number of parts.
    pub fn num_parts(&self) -> usize {
        self.parts.len()
    }

    /// Number of items.
    pub fn num_items(&self) -> usize {
        self.part_of.len()
    }

    /// Total weight of edges whose endpoints lie in different parts.
    ///
    /// Cross-part edges cost nothing in shifts (independent tapes), but
    /// a *lower* external weight means more of the traffic is available
    /// for intra-tape locality optimization, so this is the classic
    /// quality metric the refinement minimizes.
    pub fn external_weight(&self, graph: &AccessGraph) -> u64 {
        graph
            .edges()
            .filter(|e| self.part_of[e.u] != self.part_of[e.v])
            .map(|e| e.weight)
            .sum()
    }
}

/// What the partitioner optimizes.
///
/// On a multi-DBC scratchpad the tapes shift independently, so a
/// transition between items on *different* DBCs costs nothing — the
/// expensive traffic is the *internal* weight each tape must then
/// absorb as shifts. [`Objective::MinimizeInternal`] therefore spreads
/// temporally adjacent items across DBCs and is the right choice for
/// DWM SPM allocation ([`SpmAllocator`](crate::spm::SpmAllocator) uses
/// it). [`Objective::MinimizeExternal`] is the classic clustering
/// objective, appropriate when crossing parts is what costs (e.g.
/// banked memories with switch penalties); it is kept for comparison
/// and for the clustering experiments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Objective {
    /// Keep heavy edges inside parts (classic min-cut clustering).
    #[default]
    MinimizeExternal,
    /// Push heavy edges across parts (anti-affinity; right for
    /// independently shifting tapes).
    MinimizeInternal,
}

/// Capacity-constrained partitioner: greedy seeding plus KL-style swap
/// refinement, under either [`Objective`].
///
/// # Example
///
/// ```
/// use dwm_graph::generators::clustered_graph;
/// use dwm_core::partition::Partitioner;
///
/// let g = clustered_graph(24, 4, 0.9, 0.05, 8, 1);
/// let partition = Partitioner::new(4, 6).partition(&g)?;
/// assert_eq!(partition.num_parts(), 4);
/// // Every part respects its capacity.
/// for p in 0..4 {
///     assert!(partition.part(p).len() <= 6);
/// }
/// # Ok::<(), dwm_core::PlacementError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partitioner {
    /// Number of parts (DBCs).
    pub parts: usize,
    /// Capacity of each part (words per DBC).
    pub capacity: usize,
    /// Maximum refinement passes.
    pub refine_passes: usize,
    /// Optimization objective.
    pub objective: Objective,
}

impl Partitioner {
    /// A partitioner into `parts` parts of `capacity` items each, with
    /// the default clustering objective and refinement budget.
    pub fn new(parts: usize, capacity: usize) -> Self {
        Partitioner {
            parts,
            capacity,
            refine_passes: 10,
            objective: Objective::MinimizeExternal,
        }
    }

    /// Switches the optimization objective.
    pub fn with_objective(mut self, objective: Objective) -> Self {
        self.objective = objective;
        self
    }

    /// Partitions the graph's items.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError::InvalidPartition`] when `parts == 0`
    /// or [`PlacementError::CapacityExceeded`] when
    /// `parts · capacity < num_items`.
    pub fn partition(&self, graph: &AccessGraph) -> Result<Partition, PlacementError> {
        let n = graph.num_items();
        if self.parts == 0 {
            return Err(PlacementError::InvalidPartition {
                reason: "zero parts requested".into(),
            });
        }
        if n > self.parts * self.capacity {
            return Err(PlacementError::CapacityExceeded {
                items: n,
                capacity: self.parts * self.capacity,
            });
        }

        if self.objective == Objective::MinimizeInternal {
            return self.partition_minimize_internal(graph);
        }

        // --- Phase 1: capacity-capped Kruskal agglomeration. ---
        // cluster_of[v]: current cluster id; clusters merge greedily on
        // heavy edges while the merged size fits one part.
        let mut cluster_of: Vec<usize> = (0..n).collect();
        let mut members: Vec<Vec<usize>> = (0..n).map(|v| vec![v]).collect();
        let mut edges: Vec<_> = graph.edges().collect();
        edges.sort_by_key(|e| (std::cmp::Reverse(e.weight), e.u, e.v));
        for e in edges {
            let (cu, cv) = (cluster_of[e.u], cluster_of[e.v]);
            if cu == cv || members[cu].len() + members[cv].len() > self.capacity {
                continue;
            }
            let moved = std::mem::take(&mut members[cv]);
            for &x in &moved {
                cluster_of[x] = cu;
            }
            members[cu].extend(moved);
        }

        // --- Phase 2: bin-pack clusters into parts, largest first. ---
        let mut clusters: Vec<Vec<usize>> = members.into_iter().filter(|m| !m.is_empty()).collect();
        clusters.sort_by_key(|c| (std::cmp::Reverse(c.len()), c[0]));
        let mut load = vec![0usize; self.parts];
        let mut part_of = vec![0usize; n];
        for cluster in clusters {
            // First-fit-decreasing into the least-loaded part that fits.
            let target = (0..self.parts)
                .filter(|&p| load[p] + cluster.len() <= self.capacity)
                .min_by_key(|&p| (load[p], p))
                .ok_or_else(|| PlacementError::InvalidPartition {
                    reason: "bin packing failed despite sufficient total capacity; \
                             try a larger capacity or fewer parts"
                        .into(),
                })?;
            load[target] += cluster.len();
            for v in cluster {
                part_of[v] = target;
            }
        }

        // --- Phase 3: KL-style pairwise swap refinement. ---
        let mut partition = Partition::from_assignment(part_of, self.parts);
        self.refine(graph, &mut partition);
        Ok(partition)
    }

    /// Anti-affinity seeding: items in descending degree order each go
    /// to the part where they add the least internal weight (ties to
    /// the least-loaded part), then swap refinement maximizes external
    /// weight.
    fn partition_minimize_internal(
        &self,
        graph: &AccessGraph,
    ) -> Result<Partition, PlacementError> {
        let n = graph.num_items();
        let mut items: Vec<usize> = (0..n).collect();
        items.sort_by_key(|&v| (std::cmp::Reverse(graph.degree(v)), v));
        let mut part_of = vec![usize::MAX; n];
        let mut load = vec![0usize; self.parts];
        for v in items {
            let target = (0..self.parts)
                .filter(|&p| load[p] < self.capacity)
                .min_by_key(|&p| {
                    let internal: u64 = graph
                        .neighbors(v)
                        .filter(|&(u, _)| part_of[u] == p)
                        .map(|(_, w)| w)
                        .sum();
                    (internal, load[p], p)
                })
                .ok_or_else(|| PlacementError::InvalidPartition {
                    reason: "no part with spare capacity".into(),
                })?;
            part_of[v] = target;
            load[target] += 1;
        }
        let mut partition = Partition::from_assignment(part_of, self.parts);
        self.refine(graph, &mut partition);
        Ok(partition)
    }

    /// External weight change of swapping the parts of `a` and `b`
    /// (which must be in different parts).
    fn swap_gain(graph: &AccessGraph, partition: &Partition, a: usize, b: usize) -> i64 {
        let (pa, pb) = (partition.part_of(a), partition.part_of(b));
        let mut delta = 0i64;
        let (vs, ws) = graph.neighbor_slices(a);
        for (&v, &w) in vs.iter().zip(ws) {
            let v = v as usize;
            if v == b {
                continue;
            }
            let pv = partition.part_of(v);
            delta += w as i64 * ((pb != pv) as i64 - (pa != pv) as i64);
        }
        let (vs, ws) = graph.neighbor_slices(b);
        for (&v, &w) in vs.iter().zip(ws) {
            let v = v as usize;
            if v == a {
                continue;
            }
            let pv = partition.part_of(v);
            delta += w as i64 * ((pa != pv) as i64 - (pb != pv) as i64);
        }
        delta
    }

    fn refine(&self, graph: &AccessGraph, partition: &mut Partition) {
        let n = partition.num_items();
        // MinimizeExternal accepts swaps with negative external-weight
        // delta; MinimizeInternal accepts positive ones (more external
        // weight = less internal).
        let sign = match self.objective {
            Objective::MinimizeExternal => 1,
            Objective::MinimizeInternal => -1,
        };
        // Metrics accumulate locally and flush after the pass loop.
        let (mut passes, mut applied) = (0u64, 0u64);
        let gain_hist = swap_gain_histogram();
        for _ in 0..self.refine_passes {
            passes += 1;
            // Score all candidate swaps against the frozen pass-start
            // state in parallel (scoring is the O(n²·d̄) hot loop), then
            // apply them sequentially best-gain-first, re-validating
            // each against the mutated state. Both phases are
            // deterministic, so the result is identical at any
            // `DWM_THREADS` setting.
            let rows: Vec<usize> = (0..n).collect();
            let mut candidates: Vec<(i64, usize, usize)> = par::par_map(&rows, |&a| {
                let mut improving = Vec::new();
                for b in (a + 1)..n {
                    if partition.part_of[a] == partition.part_of[b] {
                        continue;
                    }
                    let gain = sign * Self::swap_gain(graph, partition, a, b);
                    if gain < 0 {
                        improving.push((gain, a, b));
                    }
                }
                improving
            })
            .into_iter()
            .flatten()
            .collect();
            candidates.sort_unstable();

            let mut improved = false;
            for (_, a, b) in candidates {
                if partition.part_of[a] == partition.part_of[b] {
                    continue;
                }
                // Earlier applied swaps may have invalidated the
                // pass-start score; recheck before committing.
                let gain = sign * Self::swap_gain(graph, partition, a, b);
                if gain < 0 {
                    let (pa, pb) = (partition.part_of[a], partition.part_of[b]);
                    partition.part_of[a] = pb;
                    partition.part_of[b] = pa;
                    improved = true;
                    applied += 1;
                    gain_hist.record((-gain) as u64);
                }
            }
            if !improved {
                break;
            }
        }
        refine_passes_counter().add(passes);
        swaps_applied_counter().add(applied);
        *partition = Partition::from_assignment(
            std::mem::take(&mut partition.part_of),
            partition.parts.len(),
        );
    }
}

/// KL refinement passes executed across all partitioner runs.
pub(crate) fn refine_passes_counter() -> &'static dwm_foundation::obs::Counter {
    dwm_foundation::obs_counter!(
        "dwm_solver_kl_passes_total",
        "Kernighan-Lin refinement passes executed by the partitioner"
    )
}

/// KL swaps committed across all partitioner runs.
pub(crate) fn swaps_applied_counter() -> &'static dwm_foundation::obs::Counter {
    dwm_foundation::obs_counter!(
        "dwm_solver_kl_swaps_total",
        "Kernighan-Lin swaps committed during partition refinement"
    )
}

/// Distribution of committed KL swap gains (objective improvement per
/// swap, in edge-weight units).
pub(crate) fn swap_gain_histogram() -> &'static dwm_foundation::obs::Histogram {
    dwm_foundation::obs_histogram!(
        "dwm_solver_kl_swap_gain",
        "Objective improvement per committed Kernighan-Lin swap (edge-weight units)"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwm_graph::generators::{clustered_graph, random_graph};

    #[test]
    fn recovers_planted_clusters() {
        // 4 planted clusters of 6; partition into 4 parts of capacity 6
        // should capture almost all heavy intra-cluster weight.
        let g = clustered_graph(24, 4, 0.95, 0.02, 10, 3);
        let p = Partitioner::new(4, 6).partition(&g).unwrap();
        let external = p.external_weight(&g);
        let total = g.total_weight();
        assert!(
            (external as f64) < 0.25 * total as f64,
            "external {external} of {total}"
        );
    }

    #[test]
    fn respects_capacity() {
        let g = random_graph(30, 0.3, 5, 1);
        let p = Partitioner::new(5, 7).partition(&g).unwrap();
        for i in 0..5 {
            assert!(p.part(i).len() <= 7);
        }
        // Every item assigned exactly once.
        let covered: usize = (0..5).map(|i| p.part(i).len()).sum();
        assert_eq!(covered, 30);
    }

    #[test]
    fn rejects_overflow() {
        let g = random_graph(10, 0.5, 3, 2);
        assert!(matches!(
            Partitioner::new(2, 4).partition(&g),
            Err(PlacementError::CapacityExceeded { .. })
        ));
    }

    #[test]
    fn rejects_zero_parts() {
        let g = random_graph(4, 0.5, 3, 2);
        assert!(matches!(
            Partitioner::new(0, 4).partition(&g),
            Err(PlacementError::InvalidPartition { .. })
        ));
    }

    #[test]
    fn swap_gain_matches_recomputation() {
        let g = random_graph(12, 0.5, 6, 8);
        let p = Partitioner::new(3, 4).partition(&g).unwrap();
        let mut q = p.clone();
        for a in 0..12 {
            for b in 0..12 {
                if a == b || p.part_of(a) == p.part_of(b) {
                    continue;
                }
                let before = q.external_weight(&g) as i64;
                let gain = Partitioner::swap_gain(&g, &q, a, b);
                let (pa, pb) = (q.part_of[a], q.part_of[b]);
                q.part_of[a] = pb;
                q.part_of[b] = pa;
                let q2 = Partition::from_assignment(q.part_of.clone(), 3);
                assert_eq!(q2.external_weight(&g) as i64 - before, gain);
                q.part_of[a] = pa;
                q.part_of[b] = pb;
            }
        }
    }

    #[test]
    fn single_part_takes_everything() {
        let g = random_graph(8, 0.4, 3, 5);
        let p = Partitioner::new(1, 8).partition(&g).unwrap();
        assert_eq!(p.part(0).len(), 8);
        assert_eq!(p.external_weight(&g), 0);
    }

    #[test]
    fn identical_partition_at_any_worker_count() {
        use dwm_foundation::par::override_threads;
        let _l = crate::algorithms::test_support::PAR_TEST_LOCK
            .lock()
            .unwrap();
        for objective in [Objective::MinimizeExternal, Objective::MinimizeInternal] {
            let g = clustered_graph(30, 5, 0.8, 0.1, 8, 4);
            let partitioner = Partitioner::new(5, 6).with_objective(objective);
            let sequential = {
                let _g = override_threads(1);
                partitioner.partition(&g).unwrap()
            };
            let parallel = {
                let _g = override_threads(8);
                partitioner.partition(&g).unwrap()
            };
            assert_eq!(sequential, parallel, "{objective:?}");
        }
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = AccessGraph::with_items(0);
        let p = Partitioner::new(2, 4).partition(&g).unwrap();
        assert_eq!(p.num_items(), 0);
        assert_eq!(p.num_parts(), 2);
    }
}
