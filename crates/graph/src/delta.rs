//! Incremental graph maintenance: a mutable edge-delta overlay on an
//! immutable [`AccessGraph`] base.
//!
//! Streaming consumers (the `dwm-serve` session subsystem) see accesses
//! arrive over time and need the current access graph after every
//! chunk. Rebuilding an [`AccessGraph`] from the full history is
//! `O(history)` per chunk; mutating its CSR rows in place would wreck
//! the cache-friendly layout every solver depends on. [`DeltaGraph`]
//! splits the difference: the bulk of the graph stays in an
//! [`AccessGraph`], new edge weight accumulates in a small per-vertex
//! overlay, and when the overlay crosses a threshold the two are
//! merged back into a fresh base ([`refreeze`](DeltaGraph::refreeze))
//! in one `O(n + E)` pass.
//!
//! The defining invariant — pinned by the property suite — is that a
//! delta graph fed a stream incrementally is *indistinguishable* from
//! an [`AccessGraph`] rebuilt from scratch over the whole stream:
//! [`to_access_graph`](DeltaGraph::to_access_graph) is structurally
//! equal (`==`), the arrangement cost and fingerprint agree, and a
//! refrozen base equals the rebuilt graph field for field, regardless
//! of how the stream was chunked or when refreezes happened.

use std::collections::BTreeMap;

use crate::fingerprint::{fingerprint_with, Fingerprint};
use crate::graph::AccessGraph;

/// A mutable overlay of edge-weight deltas and item frequencies on top
/// of an [`AccessGraph`] base. See the module docs.
#[derive(Debug, Clone)]
pub struct DeltaGraph {
    /// The graph as of the last refreeze, frequencies included. May
    /// cover fewer items than the overlay when items appeared after
    /// that refreeze.
    base: AccessGraph,
    /// Per-vertex weight added since the last refreeze, symmetric like
    /// the base's rows. Length is the authoritative item count.
    overlay: Vec<BTreeMap<u32, u64>>,
    /// Current per-item access counts (the base's are a snapshot).
    frequency: Vec<u64>,
    /// Distinct undirected edges present in the overlay.
    overlay_edges: usize,
    /// Refreezes performed over this graph's lifetime.
    refreezes: u64,
}

impl DeltaGraph {
    /// An edgeless delta graph over `n` items.
    pub fn new(n: usize) -> Self {
        DeltaGraph {
            base: AccessGraph::with_items(n),
            overlay: vec![BTreeMap::new(); n],
            frequency: vec![0; n],
            overlay_edges: 0,
            refreezes: 0,
        }
    }

    /// Number of items (vertices), including any added since the last
    /// refreeze.
    pub fn num_items(&self) -> usize {
        self.overlay.len()
    }

    /// Grows the item space to at least `n` vertices (new vertices are
    /// isolated with zero frequency). The base is untouched —
    /// new items live purely in the overlay until the next refreeze.
    pub fn ensure_items(&mut self, n: usize) {
        if n > self.overlay.len() {
            self.overlay.resize(n, BTreeMap::new());
            self.frequency.resize(n, 0);
        }
    }

    /// Adds `w` to the weight of edge `{u, v}` in the overlay.
    ///
    /// # Panics
    ///
    /// Panics if `u == v` or either endpoint is out of range (grow
    /// first with [`ensure_items`](Self::ensure_items)), as
    /// [`AccessGraph::from_edges`] does.
    pub fn add_weight(&mut self, u: usize, v: usize, w: u64) {
        assert_ne!(u, v, "self-loops are not representable");
        assert!(
            u < self.overlay.len() && v < self.overlay.len(),
            "vertex out of range"
        );
        let entry = self.overlay[u].entry(v as u32).or_insert(0);
        if *entry == 0 {
            self.overlay_edges += 1;
        }
        *entry += w;
        *self.overlay[v].entry(u as u32).or_insert(0) += w;
    }

    /// Increments item `i`'s access count.
    pub fn record_access(&mut self, i: usize) {
        self.frequency[i] += 1;
    }

    /// Distinct edges currently in the overlay — the refreeze trigger.
    pub fn overlay_edges(&self) -> usize {
        self.overlay_edges
    }

    /// Refreezes performed so far.
    pub fn refreezes(&self) -> u64 {
        self.refreezes
    }

    /// The base: the graph as of the last refreeze (excludes any
    /// pending overlay weight and later accesses).
    pub fn base(&self) -> &AccessGraph {
        &self.base
    }

    /// Linear arrangement cost `Σ w(u,v)·|position[u] − position[v]|`
    /// over base plus overlay; identical to
    /// [`AccessGraph::arrangement_cost`] on the rebuilt graph.
    ///
    /// # Panics
    ///
    /// Panics if `position.len() < num_items()`.
    pub fn arrangement_cost(&self, position: &[usize]) -> u64 {
        assert!(
            position.len() >= self.num_items(),
            "position vector shorter than item count"
        );
        let mut cost = self.base.arrangement_cost(position);
        for (u, row) in self.overlay.iter().enumerate() {
            for (&v, &w) in row.iter() {
                let v = v as usize;
                if u < v {
                    cost += w * position[u].abs_diff(position[v]) as u64;
                }
            }
        }
        cost
    }

    /// `u`'s merged neighbour row (base + overlay), ascending by
    /// vertex — the same order [`AccessGraph::neighbors`] yields.
    fn merged_row(&self, u: usize) -> Vec<(u32, u64)> {
        let (bvs, bws): (&[u32], &[u64]) = if u < self.base.num_items() {
            self.base.neighbor_slices(u)
        } else {
            (&[], &[])
        };
        let mut row = Vec::with_capacity(bvs.len() + self.overlay[u].len());
        let mut overlay = self.overlay[u].iter().peekable();
        for (&v, &w) in bvs.iter().zip(bws) {
            while let Some((&ov, &ow)) = overlay.peek() {
                if ov < v {
                    row.push((ov, ow));
                    overlay.next();
                } else {
                    break;
                }
            }
            let extra = match overlay.peek() {
                Some((&ov, &ow)) if ov == v => {
                    overlay.next();
                    ow
                }
                _ => 0,
            };
            row.push((v, w + extra));
        }
        row.extend(overlay.map(|(&v, &w)| (v, w)));
        row
    }

    /// Merges the overlay into the base in one `O(n + E)` pass, leaving
    /// the overlay empty. The resulting base is equal (`==`) to the
    /// graph rebuilt from scratch over the stream so far.
    pub fn refreeze(&mut self) {
        self.base = self.to_access_graph();
        self.overlay = vec![BTreeMap::new(); self.base.num_items()];
        self.overlay_edges = 0;
        self.refreezes += 1;
    }

    /// Refreezes when the overlay holds at least `threshold` distinct
    /// edges (a threshold of 0 never refreezes). Returns whether a
    /// refreeze happened.
    pub fn maybe_refreeze(&mut self, threshold: usize) -> bool {
        if threshold > 0 && self.overlay_edges >= threshold {
            self.refreeze();
            true
        } else {
            false
        }
    }

    /// Exports the full current graph (base + overlay + frequencies) as
    /// an [`AccessGraph`] — structurally equal to one rebuilt from
    /// scratch over the same stream.
    pub fn to_access_graph(&self) -> AccessGraph {
        let n = self.num_items();
        let mut row_offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::new();
        let mut weights = Vec::new();
        row_offsets.push(0);
        for u in 0..n {
            for (v, w) in self.merged_row(u) {
                neighbors.push(v);
                weights.push(w);
            }
            row_offsets.push(u32::try_from(neighbors.len()).expect("edge count exceeds u32"));
        }
        AccessGraph::from_parts(row_offsets, neighbors, weights, self.frequency.clone())
    }

    /// Canonical fingerprint of the current graph — equal to
    /// [`fn@crate::fingerprint`] of the rebuilt [`AccessGraph`]. Free
    /// when the overlay is empty; otherwise pays one merge pass.
    pub fn fingerprint(&self) -> Fingerprint {
        if self.overlay_edges == 0 && self.base.num_items() == self.num_items() {
            fingerprint_with(&self.base, &self.frequency)
        } else {
            crate::fingerprint::fingerprint(&self.to_access_graph())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphDigest;
    use dwm_foundation::Rng;

    /// Feeds `stream` as adjacent-transition edges (the access-graph
    /// construction rule) into a DeltaGraph — chunked, with refreezes
    /// sprinkled in — and returns it beside the graph rebuilt from
    /// scratch over the whole stream.
    fn feed(stream: &[u32], refreeze_every: usize) -> (DeltaGraph, AccessGraph) {
        let n = stream.iter().map(|&i| i as usize + 1).max().unwrap_or(0);
        let mut delta = DeltaGraph::new(0);
        for (k, pair) in stream.windows(2).enumerate() {
            let (u, v) = (pair[0] as usize, pair[1] as usize);
            delta.ensure_items(u.max(v) + 1);
            if u != v {
                delta.add_weight(u, v, 1);
            }
            if refreeze_every > 0 && (k + 1) % refreeze_every == 0 {
                delta.refreeze();
            }
        }
        for &i in stream {
            delta.ensure_items(i as usize + 1);
            delta.record_access(i as usize);
        }
        delta.ensure_items(n);
        let scratch = GraphDigest::from_dense(n, stream.iter().map(|&i| i as usize)).to_graph();
        (delta, scratch)
    }

    fn random_stream(len: usize, items: u32, seed: u64) -> Vec<u32> {
        let mut rng = Rng::seed_from_u64(seed);
        (0..len).map(|_| rng.gen_range(0..items)).collect()
    }

    #[test]
    fn incremental_equals_rebuilt_at_every_refreeze_cadence() {
        let stream = random_stream(600, 23, 42);
        for cadence in [0usize, 1, 7, 100] {
            let (delta, scratch) = feed(&stream, cadence);
            assert_eq!(delta.num_items(), scratch.num_items());
            assert_eq!(delta.to_access_graph(), scratch, "cadence {cadence}");
            assert_eq!(
                delta.fingerprint(),
                crate::fingerprint::fingerprint(&scratch)
            );
        }
    }

    #[test]
    fn refrozen_base_equals_the_rebuilt_graph() {
        let stream = random_stream(400, 17, 7);
        let (mut delta, scratch) = feed(&stream, 13);
        delta.refreeze();
        assert_eq!(delta.base(), &scratch);
        assert_eq!(delta.overlay_edges(), 0);
        assert!(delta.refreezes() > 0);
    }

    #[test]
    fn arrangement_cost_matches_rebuilt_graph() {
        let stream = random_stream(500, 19, 11);
        let (delta, scratch) = feed(&stream, 29);
        let n = scratch.num_items();
        let mut rng = Rng::seed_from_u64(3);
        for _ in 0..5 {
            let mut pos: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                pos.swap(i, rng.gen_range(0..i + 1));
            }
            assert_eq!(delta.arrangement_cost(&pos), scratch.arrangement_cost(&pos));
        }
    }

    #[test]
    fn maybe_refreeze_honours_the_threshold() {
        let mut delta = DeltaGraph::new(8);
        delta.add_weight(0, 1, 1);
        delta.add_weight(2, 3, 1);
        assert!(!delta.maybe_refreeze(3), "2 overlay edges < 3");
        assert!(!delta.maybe_refreeze(0), "0 disables refreeze");
        assert!(delta.maybe_refreeze(2));
        assert_eq!(delta.overlay_edges(), 0);
        assert_eq!(delta.refreezes(), 1);
        assert_eq!(
            delta.to_access_graph().weight(0, 1),
            1,
            "weight survives the refreeze"
        );
    }

    #[test]
    fn growth_keeps_new_items_isolated_until_touched() {
        let mut delta = DeltaGraph::new(2);
        delta.add_weight(0, 1, 4);
        delta.refreeze();
        delta.ensure_items(5);
        assert_eq!(delta.num_items(), 5);
        assert_eq!(delta.to_access_graph().degree(4), 0);
        delta.add_weight(1, 4, 2);
        let graph = delta.to_access_graph();
        assert_eq!(graph.weight(4, 1), 2);
        assert_eq!(graph.weight(0, 1), 4);
        // A refreeze folds the grown item space into the base.
        delta.refreeze();
        assert_eq!(delta.base().num_items(), 5);
        assert_eq!(delta.base().total_weight(), 6);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_rejected() {
        DeltaGraph::new(3).add_weight(1, 1, 1);
    }
}
