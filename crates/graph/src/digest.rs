//! One pass from an id sequence to the canonical access-graph rows.
//!
//! A [`GraphDigest`] is what every consumer of a trace's access graph
//! actually needs: the dense item count, per-item frequencies, and the
//! weighted neighbour rows in ascending order (the same rows
//! [`CsrGraph::freeze`](crate::CsrGraph::freeze) would produce). It is
//! built without a `Trace`, a SipHash map or per-vertex trees:
//!
//! 1. raw ids are remapped densely in first-appearance order — exactly
//!    [`Trace::normalize`](dwm_trace::Trace::normalize)'s numbering —
//!    through a small open-addressing table whose hash is keyed per
//!    table, so ids chosen by a client cannot be made to collide;
//! 2. frequencies and per-item transition counts are tallied in one
//!    walk, and every transition `u → v` (`u ≠ v`) is bucketed under
//!    both endpoints;
//! 3. walking the buckets in ascending item order hands each item its
//!    neighbours already sorted, so rows are run-length counted in
//!    place without a sort.
//!
//! The digest's [`fingerprint`](GraphDigest::fingerprint) equals
//! [`fn@crate::fingerprint`] of the equivalent [`AccessGraph`] bit for bit,
//! and [`AccessGraph::from_trace`] is itself built on these rows, so
//! there is one edge-counting routine in the crate.

use std::collections::BTreeMap;
use std::hash::{BuildHasher, RandomState};

use dwm_foundation::rng::splitmix64;

use crate::fingerprint::{fingerprint_rows, Fingerprint};
use crate::graph::AccessGraph;

/// Frequencies and ascending weighted neighbour rows of one trace's
/// access graph.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct GraphDigest {
    /// Per-item access counts, indexed by dense item id.
    frequency: Vec<u64>,
    /// `row_offsets[u]..row_offsets[u + 1]` indexes `u`'s row.
    row_offsets: Vec<usize>,
    /// Concatenated `(neighbour, weight)` rows, ascending within each
    /// item; every edge appears once from each endpoint.
    rows: Vec<(u32, u64)>,
}

impl GraphDigest {
    /// Digests a raw id sequence. Ids are remapped to `0..n` in order
    /// of first appearance, as `Trace::normalize` does, so the result
    /// describes the normalized trace's graph.
    ///
    /// # Panics
    ///
    /// Panics if `ids` has `u32::MAX` or more distinct values.
    pub fn from_ids(ids: &[u32]) -> Self {
        let mut table = DenseIds::new();
        let dense: Vec<u32> = ids.iter().map(|&id| table.intern(id)).collect();
        GraphDigest::from_dense(table.len(), dense.iter().map(|&d| d as usize))
    }

    /// Digests a sequence already over items `0..n`; items that never
    /// occur stay isolated vertices.
    ///
    /// # Panics
    ///
    /// Panics if an item is `>= n`.
    pub fn from_dense<I>(n: usize, items: I) -> Self
    where
        I: IntoIterator<Item = usize>,
        I::IntoIter: Clone,
    {
        let items = items.into_iter();
        let mut frequency = vec![0u64; n];
        // bucket[u] counts the transitions touching u, then becomes its
        // fill cursor into `slots`.
        let mut bucket = vec![0usize; n + 1];
        let mut prev = None;
        for x in items.clone() {
            frequency[x] += 1;
            if let Some(p) = prev.filter(|&p| p != x) {
                bucket[p] += 1;
                bucket[x] += 1;
            }
            prev = Some(x);
        }
        let mut start = 0;
        for b in bucket.iter_mut() {
            let count = *b;
            *b = start;
            start += count;
        }
        let bounds = bucket.clone();
        let mut slots = vec![0u32; start];
        let mut prev = None;
        for x in items {
            if let Some(p) = prev.filter(|&p| p != x) {
                slots[bucket[p]] = x as u32;
                bucket[p] += 1;
                slots[bucket[x]] = p as u32;
                bucket[x] += 1;
            }
            prev = Some(x);
        }

        // Bucket v lists every u adjacent to v, once per transition, and
        // adjacency is symmetric: walking the buckets in ascending v and
        // handing v to each listed u fills every row in ascending order,
        // with repeats of one neighbour back to back — no sorting. The
        // first walk sizes the rows, the second fills them; both are
        // branch-free, since whether u saw v last is a coin flip.
        let mut last = vec![usize::MAX; n];
        let mut row_offsets = vec![0usize; n + 1];
        for v in 0..n {
            for &u in &slots[bounds[v]..bounds[v + 1]] {
                let u = u as usize;
                row_offsets[u + 1] += usize::from(last[u] != v);
                last[u] = v;
            }
        }
        for u in 0..n {
            row_offsets[u + 1] += row_offsets[u];
        }
        last.fill(usize::MAX);
        // cursor[u] is one past u's newest entry; an entry is zero until
        // first written, so "start a new entry" and "bump the newest"
        // are the same increment.
        let mut cursor = row_offsets.clone();
        let mut rows = vec![(0u32, 0u64); row_offsets[n]];
        for v in 0..n {
            for &u in &slots[bounds[v]..bounds[v + 1]] {
                let u = u as usize;
                cursor[u] += usize::from(last[u] != v);
                last[u] = v;
                let entry = &mut rows[cursor[u] - 1];
                entry.0 = v as u32;
                entry.1 += 1;
            }
        }
        GraphDigest {
            frequency,
            row_offsets,
            rows,
        }
    }

    /// Number of items (vertices).
    pub fn num_items(&self) -> usize {
        self.frequency.len()
    }

    /// Number of distinct edges.
    pub fn num_edges(&self) -> usize {
        self.rows.len() / 2
    }

    /// Per-item access counts.
    pub fn frequencies(&self) -> &[u64] {
        &self.frequency
    }

    /// `u`'s `(neighbour, edge weight)` row, ascending by neighbour.
    pub fn row(&self, u: usize) -> &[(u32, u64)] {
        &self.rows[self.row_offsets[u]..self.row_offsets[u + 1]]
    }

    /// The canonical fingerprint, equal to [`fn@crate::fingerprint`] of
    /// [`GraphDigest::to_graph`].
    pub fn fingerprint(&self) -> Fingerprint {
        fingerprint_rows(
            (0..self.num_items()).map(|u| self.row(u).iter().map(|&(v, w)| (u64::from(v), w))),
            &self.frequency,
        )
    }

    /// The digest as an [`AccessGraph`].
    pub fn to_graph(&self) -> AccessGraph {
        let adj = (0..self.num_items())
            .map(|u| {
                self.row(u)
                    .iter()
                    .map(|&(v, w)| (v as usize, w))
                    .collect::<BTreeMap<_, _>>()
            })
            .collect();
        AccessGraph::from_parts(adj, self.frequency.clone())
    }
}

/// First-appearance dense numbering of raw `u32` ids: an
/// open-addressing table with linear probing, resized at half load.
///
/// Ids arrive from untrusted request bodies, so the home slot is
/// splitmix64 of the id under a random per-table key (std's `HashMap`
/// keys SipHash the same way): with a fixed hash a client could pick
/// thousands of ids sharing one home slot and make every insert and
/// lookup walk the whole cluster. The key never shows in the output —
/// dense ids depend only on the order of first appearance.
struct DenseIds {
    /// `(raw id, dense id)` slots; `EMPTY` dense ids mark free slots.
    slots: Vec<(u32, u32)>,
    len: u32,
    key: u64,
}

const EMPTY: u32 = u32::MAX;

impl DenseIds {
    fn new() -> Self {
        DenseIds {
            slots: vec![(0, EMPTY); 64],
            len: 0,
            key: RandomState::new().hash_one(0u64),
        }
    }

    fn len(&self) -> usize {
        self.len as usize
    }

    fn home(&self, id: u32) -> usize {
        let bits = self.slots.len().trailing_zeros();
        (splitmix64(&mut (u64::from(id) ^ self.key)) >> (64 - bits)) as usize
    }

    /// The dense id of `id`, assigning the next one on first sight.
    fn intern(&mut self, id: u32) -> u32 {
        let mask = self.slots.len() - 1;
        let mut i = self.home(id);
        loop {
            let (key, dense) = self.slots[i];
            if dense == EMPTY {
                break;
            }
            if key == id {
                return dense;
            }
            i = (i + 1) & mask;
        }
        assert!(self.len < EMPTY, "more than u32::MAX - 1 distinct ids");
        let dense = self.len;
        self.slots[i] = (id, dense);
        self.len += 1;
        if self.len as usize * 2 > self.slots.len() {
            self.grow();
        }
        dense
    }

    fn grow(&mut self) {
        let doubled = vec![(0, EMPTY); self.slots.len() * 2];
        let old = std::mem::replace(&mut self.slots, doubled);
        let mask = self.slots.len() - 1;
        for (key, dense) in old.into_iter().filter(|&(_, d)| d != EMPTY) {
            let mut i = self.home(key);
            while self.slots[i].1 != EMPTY {
                i = (i + 1) & mask;
            }
            self.slots[i] = (key, dense);
        }
    }

    /// Total distance of the stored ids from their home slots: looking
    /// every id up once costs this many probes plus one per id.
    #[cfg(test)]
    fn displacement(&self) -> usize {
        let mask = self.slots.len() - 1;
        self.slots
            .iter()
            .enumerate()
            .filter(|&(_, &(_, dense))| dense != EMPTY)
            .map(|(i, &(key, _))| i.wrapping_sub(self.home(key)) & mask)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwm_trace::Trace;

    #[test]
    fn remaps_in_first_appearance_order() {
        let d = GraphDigest::from_ids(&[9, 4, 9, 7, 7]);
        assert_eq!(d.num_items(), 3);
        assert_eq!(d.frequencies(), &[2, 1, 2]);
        // 9→4, 4→9, 9→7: edges {0,1}×2 and {0,2}×1; 7→7 is no edge.
        assert_eq!(d.row(0), &[(1, 2), (2, 1)]);
        assert_eq!(d.row(1), &[(0, 2)]);
        assert_eq!(d.row(2), &[(0, 1)]);
        assert_eq!(d.num_edges(), 2);
    }

    #[test]
    fn matches_the_normalized_trace_graph() {
        let ids = [5u32, u32::MAX, 0, 5, 5, 0, 123_456_789, u32::MAX, 0];
        let digest = GraphDigest::from_ids(&ids);
        let graph = AccessGraph::from_trace(&Trace::from_ids(ids).normalize());
        assert_eq!(digest.to_graph(), graph);
        assert_eq!(digest.fingerprint(), crate::fingerprint(&graph));
    }

    #[test]
    fn dense_table_survives_growth() {
        let ids: Vec<u32> = (0..5000u32)
            .map(|i| i.wrapping_mul(2_654_435_761))
            .collect();
        let mut table = DenseIds::new();
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(table.intern(id), i as u32);
        }
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(table.intern(id), i as u32);
        }
        assert_eq!(table.len(), 5000);
    }

    #[test]
    fn ids_chosen_to_collide_under_a_fixed_hash_stay_spread() {
        // Under the unkeyed Fibonacci hash `id · 0x9E37…7C15 >> (64 - bits)`
        // every id below has the top 16 product bits zero, so all share
        // slot 0 at every table size up to 2^16. F35 and F36 are
        // best rational approximations of the golden ratio behind that
        // multiplier, so small combinations a·F35 + b·F36 multiply to
        // just past a multiple of 2^64 (a reduced basis of the lattice
        // {(x, x·C mod 2^64)}).
        let fixed_home = |id: u32| u64::from(id).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48;
        let (f35, f36) = (9_227_465i64, 14_930_352i64);
        let mut ids: Vec<u32> = (0..=356i64)
            .flat_map(|a| (-140..=207i64).map(move |b| a * f35 + b * f36))
            .filter_map(|x| u32::try_from(x).ok())
            .filter(|&id| fixed_home(id) == 0)
            .collect();
        ids.sort_unstable();
        ids.truncate(1 << 15);
        assert_eq!(ids.len(), 1 << 15);

        // Filling one run from slot 0 would leave a displacement of
        // n²/2 ≈ 5·10^8 (and as many probes to build the table); the
        // keyed hash leaves about half a slot per id at half load.
        let mut table = DenseIds::new();
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(table.intern(id), i as u32);
        }
        let displacement = table.displacement();
        assert!(displacement < 4 * ids.len(), "displacement {displacement}");
        assert_eq!(GraphDigest::from_ids(&ids).num_items(), ids.len());
    }

    #[test]
    fn degenerate_sequences() {
        assert_eq!(GraphDigest::from_ids(&[]).num_items(), 0);
        let one = GraphDigest::from_ids(&[42]);
        assert_eq!((one.num_items(), one.num_edges()), (1, 0));
        let same = GraphDigest::from_ids(&[3, 3, 3]);
        assert_eq!(same.frequencies(), &[3]);
        assert_eq!(same.num_edges(), 0);
        // Unused dense items stay isolated vertices.
        let sparse = GraphDigest::from_dense(4, [3, 0, 3]);
        assert_eq!(sparse.frequencies(), &[1, 0, 0, 2]);
        assert_eq!(sparse.row(3), &[(0, 2)]);
    }
}
