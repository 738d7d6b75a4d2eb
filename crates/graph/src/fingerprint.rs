//! Stable 128-bit workload fingerprints over canonical CSR form.
//!
//! The solve cache in `dwm-serve` must recognize "the same workload"
//! across requests, processes, and machines. Hashing the request bytes
//! is wrong — two traces with differently-ordered but equivalent JSON,
//! or different access interleavings with the same adjacency structure,
//! would miss the cache even though every placement algorithm sees the
//! identical input. The canonical identity of a placement problem is
//! its access graph: algorithms consume only the weighted adjacency
//! structure plus per-item frequencies, so the fingerprint hashes
//! exactly that, in the frozen CSR order (which is itself canonical —
//! ascending neighbour lists per vertex).
//!
//! One hash stream serves every row source: [`CsrGraph`] slices,
//! [`AccessGraph`] neighbour walks, and the rows of a
//! [`GraphDigest`](crate::GraphDigest) — the serving path's route from
//! raw request ids straight to a cache key, which never materializes
//! a trace or a graph. The same adjacency therefore hashes the same
//! whichever way it was built.
//!
//! The hash is a fixed, dependency-free 2-lane construction over `u64`
//! words (SplitMix64 finalizers over distinct seeds, length-finalized),
//! chosen for speed and stability: the same graph produces the same
//! 128-bit value on every platform, every build, forever. It is *not*
//! cryptographic — cache keys need collision resistance against
//! accident, not adversaries.

use std::fmt;

use crate::csr::CsrGraph;
use crate::graph::AccessGraph;

/// A 128-bit stable hash of a workload's canonical access graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fingerprint {
    /// High 64 bits.
    pub hi: u64,
    /// Low 64 bits.
    pub lo: u64,
}

impl Fingerprint {
    /// The fingerprint as one `u128`.
    pub fn as_u128(self) -> u128 {
        (u128::from(self.hi) << 64) | u128::from(self.lo)
    }

    /// Lower-case 32-character hex form (the wire / CLI spelling).
    pub fn to_hex(self) -> String {
        format!("{:016x}{:016x}", self.hi, self.lo)
    }

    /// Parses the 32-character hex form.
    pub fn parse_hex(s: &str) -> Option<Self> {
        if s.len() != 32 {
            return None;
        }
        let hi = u64::from_str_radix(&s[..16], 16).ok()?;
        let lo = u64::from_str_radix(&s[16..], 16).ok()?;
        Some(Fingerprint { hi, lo })
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

/// SplitMix64 finalizer: a full-avalanche 64-bit mixer.
#[inline]
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Two independent accumulation lanes over a stream of `u64` words.
struct Lanes {
    a: u64,
    b: u64,
    words: u64,
}

impl Lanes {
    fn new() -> Self {
        // Arbitrary distinct seeds (digits of π and e).
        Lanes {
            a: 0x2436_3F84_A885_A308,
            b: 0xB7E1_5162_8AED_2A6A,
            words: 0,
        }
    }

    #[inline]
    fn feed(&mut self, w: u64) {
        self.a = mix(self.a ^ w);
        self.b = mix(self.b.rotate_left(23) ^ w.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        self.words += 1;
    }

    fn finish(mut self) -> Fingerprint {
        let n = self.words;
        self.feed(n ^ 0x5349_4E47_4C45_5452); // length finalization
        Fingerprint {
            hi: mix(self.a ^ self.b.rotate_left(32)),
            lo: mix(self.b ^ self.a.rotate_left(17)),
        }
    }
}

/// The one hash stream behind every fingerprint: item count, then per
/// vertex a marker and its `(neighbour, weight)` row in ascending
/// neighbour order, a section separator, then per-item frequencies.
/// Any row source works — CSR slices, digest rows, or tree walks —
/// because the stream depends only on the rows' contents.
pub(crate) fn fingerprint_rows<R>(
    rows: impl ExactSizeIterator<Item = R>,
    frequencies: &[u64],
) -> Fingerprint
where
    R: IntoIterator<Item = (u64, u64)>,
{
    let mut lanes = Lanes::new();
    lanes.feed(rows.len() as u64);
    for (u, row) in rows.enumerate() {
        lanes.feed(u as u64 ^ 0x8000_0000_0000_0000);
        for (v, w) in row {
            lanes.feed(v);
            lanes.feed(w);
        }
    }
    lanes.feed(0xF8E9_7A5B_3C2D_1E0F); // section separator
    for &f in frequencies {
        lanes.feed(f);
    }
    lanes.finish()
}

/// Fingerprints a frozen graph (see the module docs for what counts as
/// canonical). The stream is: item count, per-vertex neighbour lists
/// (vertex, neighbour, weight triples in CSR order), then per-item
/// frequencies.
pub fn fingerprint_csr(csr: &CsrGraph, frequencies: &[u64]) -> Fingerprint {
    fingerprint_rows(
        (0..csr.num_items()).map(|u| {
            let (vs, ws) = csr.neighbor_slices(u);
            vs.iter().zip(ws).map(|(&v, &w)| (u64::from(v), w))
        }),
        frequencies,
    )
}

/// Fingerprints an [`AccessGraph`] over its ascending neighbour lists
/// (the rows [`CsrGraph::freeze`] would flatten). Two graphs compare
/// equal under this fingerprint exactly when they have the same vertex
/// count, edge weights, and item frequencies — the full input every
/// placement algorithm consumes.
pub fn fingerprint(graph: &AccessGraph) -> Fingerprint {
    fingerprint_rows(
        (0..graph.num_items()).map(|u| graph.neighbors(u).map(|(v, w)| (v as u64, w))),
        graph.frequencies(),
    )
}

/// Fingerprints a graph *under a track topology*: the same adjacency
/// structure solved for different geometries is a different placement
/// problem, so cache keys must not alias across topologies.
///
/// `topology` is the canonical parameter string (`"linear"`,
/// `"ring"`, `"grid2d:4x16"`, `"pirm:4"` — see the topology subsystem
/// in `dwm-device`; this crate takes the string so it stays
/// device-agnostic). The linear topology is the identity: its
/// fingerprint equals [`fingerprint`], preserving every persisted cache
/// key and pinned hash from before topologies existed. Any other
/// canonical string remixes the base fingerprint with the string's
/// bytes, so distinct topologies (and distinct parameters of the same
/// topology) get distinct identities.
pub fn fingerprint_topology(graph: &AccessGraph, topology: &str) -> Fingerprint {
    fingerprint_retag(fingerprint(graph), topology)
}

/// The remix step of [`fingerprint_topology`], for callers that already
/// hold a base fingerprint (e.g. the incrementally maintained graphs in
/// `dwm-serve` sessions). `"linear"` is the identity.
pub fn fingerprint_retag(base: Fingerprint, topology: &str) -> Fingerprint {
    if topology == "linear" {
        return base;
    }
    let mut lanes = Lanes::new();
    lanes.feed(base.hi);
    lanes.feed(base.lo);
    lanes.feed(0x544F_504F_4C4F_4759); // section separator ("TOPOLOGY")
    for chunk in topology.as_bytes().chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        lanes.feed(u64::from_le_bytes(word));
    }
    lanes.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwm_trace::synth::{TraceGenerator, ZipfGen};
    use dwm_trace::Trace;

    fn graph_of(ids: &[u32]) -> AccessGraph {
        AccessGraph::from_trace(&Trace::from_ids(ids.iter().copied()).normalize())
    }

    #[test]
    fn equal_graphs_fingerprint_equal() {
        let a = graph_of(&[0, 1, 0, 2, 1, 2]);
        let b = graph_of(&[0, 1, 0, 2, 1, 2]);
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn any_structural_change_changes_the_fingerprint() {
        let base = fingerprint(&graph_of(&[0, 1, 0, 2, 1, 2]));
        // Different edge weight.
        assert_ne!(base, fingerprint(&graph_of(&[0, 1, 0, 2, 1, 2, 1])));
        // Same edges, different frequency split.
        let mut g1 = graph_of(&[0, 1, 0, 2, 1, 2]);
        g1.set_frequency(0, g1.frequency(0) + 1);
        assert_ne!(base, fingerprint(&g1));
        // Extra isolated vertex.
        let mut g2 = AccessGraph::with_items(4);
        g2.add_weight(0, 1, 2);
        g2.add_weight(0, 2, 1);
        g2.add_weight(1, 2, 2);
        let mut g3 = AccessGraph::with_items(3);
        g3.add_weight(0, 1, 2);
        g3.add_weight(0, 2, 1);
        g3.add_weight(1, 2, 2);
        assert_ne!(fingerprint(&g2), fingerprint(&g3));
    }

    #[test]
    fn access_order_within_the_same_graph_is_canonicalized() {
        // Two traces with different interleavings but identical
        // adjacency counts and frequencies hash equal.
        let a = graph_of(&[0, 1, 0, 1, 2, 0]);
        let b = graph_of(&[0, 1, 0, 1, 2, 0]);
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn hex_round_trips_and_rejects_garbage() {
        let fp = fingerprint(&graph_of(&[3, 1, 4, 1, 5, 9, 2, 6]));
        let hex = fp.to_hex();
        assert_eq!(hex.len(), 32);
        assert_eq!(Fingerprint::parse_hex(&hex), Some(fp));
        assert_eq!(Fingerprint::parse_hex("short"), None);
        assert_eq!(Fingerprint::parse_hex(&"g".repeat(32)), None);
        assert_eq!(format!("{fp}"), hex);
    }

    #[test]
    fn golden_value_is_stable_across_releases() {
        // Pinned fingerprint of a fixed workload: if this test fails,
        // the hash function changed and every persisted cache identity
        // (CLI `hash` outputs, cross-process cache keys) silently
        // broke. Bump intentionally or not at all.
        let trace = ZipfGen::new(16, 7).generate(500).normalize();
        let fp = fingerprint(&AccessGraph::from_trace(&trace));
        assert_eq!(fp.to_hex(), "d711d2669b304ba39425ee4d803d5b8c");
    }

    #[test]
    fn linear_topology_fingerprint_is_the_identity() {
        let g = graph_of(&[0, 1, 0, 2, 1, 2]);
        assert_eq!(fingerprint_topology(&g, "linear"), fingerprint(&g));
    }

    #[test]
    fn topologies_never_alias_each_other_or_the_base() {
        let g = graph_of(&[0, 1, 0, 2, 1, 2]);
        let tags = ["ring", "grid2d:4x16", "grid2d:8x8", "pirm:4", "pirm:8"];
        let mut fps: Vec<Fingerprint> = vec![fingerprint(&g)];
        for t in tags {
            fps.push(fingerprint_topology(&g, t));
        }
        for i in 0..fps.len() {
            for j in (i + 1)..fps.len() {
                assert_ne!(fps[i], fps[j], "alias between entry {i} and {j}");
            }
        }
        // Deterministic: same graph + tag, same identity.
        assert_eq!(
            fingerprint_topology(&g, "ring"),
            fingerprint_topology(&g, "ring")
        );
        // Still sensitive to the graph.
        let other = graph_of(&[0, 1, 0, 2, 1, 2, 1]);
        assert_ne!(
            fingerprint_topology(&g, "ring"),
            fingerprint_topology(&other, "ring")
        );
    }

    #[test]
    fn empty_graph_has_a_fingerprint() {
        let fp = fingerprint(&AccessGraph::with_items(0));
        assert_ne!(fp.as_u128(), 0);
        assert_ne!(fp, fingerprint(&AccessGraph::with_items(1)));
    }
}
