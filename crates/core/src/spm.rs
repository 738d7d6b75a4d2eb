//! Multi-DBC scratchpad allocation: partition, then place per tape.
//!
//! Extends the single-tape placement of the paper to a scratchpad of
//! `k` independent DBCs (experiment T5): items are partitioned across
//! DBCs by [`Partitioner`], each part is ordered on its tape by any
//! [`PlacementAlgorithm`], and the resulting [`SpmLayout`] is evaluated
//! by replaying the trace with one displacement state per DBC.

use dwm_device::{PortLayout, ShiftStats, Topology, TopologyReplayer};
use dwm_graph::{AccessGraph, GraphDigest};
use dwm_trace::Trace;

use crate::algorithms::PlacementAlgorithm;
use crate::error::PlacementError;
use crate::partition::{Objective, Partitioner};

/// Where each item lives in a multi-DBC scratchpad.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpmLayout {
    /// `dbc_of[item] = DBC index`.
    dbc_of: Vec<usize>,
    /// `offset_of[item] = word offset within its DBC`.
    offset_of: Vec<usize>,
    /// Number of DBCs.
    dbcs: usize,
    /// Words per DBC.
    words_per_dbc: usize,
}

dwm_foundation::json_struct!(SpmLayout {
    dbc_of,
    offset_of,
    dbcs,
    words_per_dbc
});

impl SpmLayout {
    /// DBC index of `item`.
    pub fn dbc_of(&self, item: usize) -> usize {
        self.dbc_of[item]
    }

    /// Word offset of `item` within its DBC.
    pub fn offset_of(&self, item: usize) -> usize {
        self.offset_of[item]
    }

    /// Number of DBCs in the layout.
    pub fn dbcs(&self) -> usize {
        self.dbcs
    }

    /// Words per DBC.
    pub fn words_per_dbc(&self) -> usize {
        self.words_per_dbc
    }

    /// Number of items placed.
    pub fn num_items(&self) -> usize {
        self.dbc_of.len()
    }

    /// Replays `trace` against this layout: each DBC keeps its own
    /// displacement state and ports; an access shifts only its item's
    /// DBC. Returns aggregate counters and the per-DBC breakdown.
    ///
    /// # Panics
    ///
    /// Panics if the trace references an item not in the layout.
    pub fn trace_cost(&self, trace: &Trace, ports: &PortLayout) -> (ShiftStats, Vec<ShiftStats>) {
        self.trace_cost_with(trace, ports, &Topology::linear())
    }

    /// Like [`trace_cost`](Self::trace_cost) but replaying each DBC's
    /// tape under an arbitrary [`Topology`] (the track length seen by
    /// the topology is [`words_per_dbc`](Self::words_per_dbc)). With
    /// [`Topology::linear`] this is byte-identical to `trace_cost`.
    ///
    /// # Panics
    ///
    /// Panics if the trace references an item not in the layout.
    pub fn trace_cost_with(
        &self,
        trace: &Trace,
        ports: &PortLayout,
        topology: &Topology,
    ) -> (ShiftStats, Vec<ShiftStats>) {
        let mut tapes: Vec<TopologyReplayer<'_>> = (0..self.dbcs)
            .map(|_| TopologyReplayer::new(topology, ports, self.words_per_dbc))
            .collect();
        let mut per_dbc = vec![ShiftStats::new(); self.dbcs];
        let mut total = ShiftStats::new();
        for a in trace.iter() {
            let item = a.item.index();
            let dbc = self.dbc_of[item];
            let distance = tapes[dbc].access(self.offset_of[item]);
            per_dbc[dbc].record(distance, a.kind.is_write());
            total.record(distance, a.kind.is_write());
        }
        (total, per_dbc)
    }
}

/// Allocator: partitions the access graph across DBCs and orders each
/// part with an intra-tape placement algorithm.
///
/// # Example
///
/// ```
/// use dwm_trace::kernels::Kernel;
/// use dwm_graph::AccessGraph;
/// use dwm_device::PortLayout;
/// use dwm_core::prelude::*;
///
/// let trace = Kernel::MatMul { n: 8, block: 2 }.trace();
/// let alloc = SpmAllocator::new(4, 16); // 4 DBCs × 16 words
/// let layout = alloc.allocate(&trace, &GroupedChainGrowth::default())?;
/// let (stats, _) = layout.trace_cost(&trace, &PortLayout::single());
/// assert!(stats.shifts > 0);
/// # Ok::<(), dwm_core::PlacementError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpmAllocator {
    /// Number of DBCs.
    pub dbcs: usize,
    /// Words per DBC.
    pub words_per_dbc: usize,
}

impl SpmAllocator {
    /// An allocator for a `dbcs × words_per_dbc` scratchpad.
    pub fn new(dbcs: usize, words_per_dbc: usize) -> Self {
        SpmAllocator {
            dbcs,
            words_per_dbc,
        }
    }

    /// Round-robin baseline: item `i` goes to DBC `i % k` at the next
    /// free offset — what an interleaved address mapping produces.
    ///
    /// # Errors
    ///
    /// Returns [`PlacementError::CapacityExceeded`] if the items do not
    /// fit.
    pub fn allocate_round_robin(&self, num_items: usize) -> Result<SpmLayout, PlacementError> {
        if num_items > self.dbcs * self.words_per_dbc {
            return Err(PlacementError::CapacityExceeded {
                items: num_items,
                capacity: self.dbcs * self.words_per_dbc,
            });
        }
        let mut dbc_of = vec![0usize; num_items];
        let mut offset_of = vec![0usize; num_items];
        for i in 0..num_items {
            dbc_of[i] = i % self.dbcs;
            offset_of[i] = i / self.dbcs;
        }
        Ok(SpmLayout {
            dbc_of,
            offset_of,
            dbcs: self.dbcs,
            words_per_dbc: self.words_per_dbc,
        })
    }

    /// Full allocation: partition with the anti-affinity objective
    /// ([`Objective::MinimizeInternal`]) — since independently shifting
    /// tapes make cross-DBC transitions free, temporally adjacent items
    /// are spread across DBCs — then order each DBC by the access graph
    /// of its *projected* trace.
    ///
    /// The projection step is the crucial subtlety: once accesses are
    /// split across tapes, the consecutive pairs a tape actually sees
    /// are pairs of *its own* accesses, which may be far apart in the
    /// global trace. Ordering on the projected access graph optimizes
    /// exactly the cost the tape pays.
    ///
    /// # Errors
    ///
    /// Propagates partitioning errors (zero parts, capacity overflow).
    pub fn allocate(
        &self,
        trace: &Trace,
        intra: &dyn PlacementAlgorithm,
    ) -> Result<SpmLayout, PlacementError> {
        self.allocate_with_objective(trace, intra, Objective::MinimizeInternal)
    }

    /// Like [`allocate`](Self::allocate) but with an explicit
    /// partitioning objective (the SPM ablation experiment compares
    /// both).
    ///
    /// # Errors
    ///
    /// Propagates partitioning errors (zero parts, capacity overflow).
    pub fn allocate_with_objective(
        &self,
        trace: &Trace,
        intra: &dyn PlacementAlgorithm,
        objective: Objective,
    ) -> Result<SpmLayout, PlacementError> {
        let graph = AccessGraph::from_trace(trace);
        let partition = Partitioner::new(self.dbcs, self.words_per_dbc)
            .with_objective(objective)
            .partition(&graph)?;
        let n = graph.num_items();
        let mut dbc_of = vec![0usize; n];
        let mut offset_of = vec![0usize; n];

        // Project the trace onto each DBC: the subsequence of accesses
        // whose items live there, with items renumbered locally.
        let mut local_id = vec![usize::MAX; n];
        let mut projected: Vec<Vec<u32>> = vec![Vec::new(); partition.num_parts()];
        for p in 0..partition.num_parts() {
            for (li, &item) in partition.part(p).iter().enumerate() {
                local_id[item] = li;
                dbc_of[item] = p;
            }
        }
        for a in trace.iter() {
            let item = a.item.index();
            projected[dbc_of[item]].push(local_id[item] as u32);
        }

        // `p` indexes the partition and `projected` in lockstep.
        #[allow(clippy::needless_range_loop)]
        for p in 0..partition.num_parts() {
            let items = partition.part(p);
            if items.is_empty() {
                continue;
            }
            // Access graph of the projected subsequence. Local ids may
            // exceed the subsequence's own alphabet, so size the graph
            // by the part's item count. The projection holds every
            // access of the part's items, so its counts are the parent
            // graph's frequencies.
            let sub =
                GraphDigest::from_dense(items.len(), projected[p].iter().map(|&li| li as usize))
                    .to_graph();
            let placement = intra.place(&sub);
            for (li, &item) in items.iter().enumerate() {
                offset_of[item] = placement.offset_of(li);
            }
        }
        Ok(SpmLayout {
            dbc_of,
            offset_of,
            dbcs: self.dbcs,
            words_per_dbc: self.words_per_dbc,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{GroupedChainGrowth, OrderOfAppearance};
    use dwm_trace::kernels::Kernel;

    fn setup() -> (Trace, AccessGraph) {
        let t = Kernel::MatMul { n: 8, block: 2 }.trace();
        let g = AccessGraph::from_trace(&t);
        (t, g)
    }

    #[test]
    fn round_robin_interleaves() {
        let l = SpmAllocator::new(4, 8).allocate_round_robin(16).unwrap();
        assert_eq!(l.dbc_of(0), 0);
        assert_eq!(l.dbc_of(5), 1);
        assert_eq!(l.offset_of(5), 1);
        assert_eq!(l.dbcs(), 4);
        assert_eq!(l.num_items(), 16);
    }

    #[test]
    fn round_robin_rejects_overflow() {
        assert!(matches!(
            SpmAllocator::new(2, 4).allocate_round_robin(9),
            Err(PlacementError::CapacityExceeded { .. })
        ));
    }

    #[test]
    fn allocate_respects_geometry() {
        let (t, _g) = setup();
        let layout = SpmAllocator::new(4, 16)
            .allocate(&t, &GroupedChainGrowth)
            .unwrap();
        let mut used = std::collections::HashSet::new();
        for item in 0..layout.num_items() {
            assert!(layout.dbc_of(item) < 4);
            assert!(layout.offset_of(item) < 16);
            assert!(
                used.insert((layout.dbc_of(item), layout.offset_of(item))),
                "slot collision"
            );
        }
    }

    #[test]
    fn affinity_allocation_beats_round_robin() {
        let (t, g) = setup();
        let alloc = SpmAllocator::new(4, 16);
        let smart = alloc.allocate(&t, &GroupedChainGrowth).unwrap();
        let rr = alloc.allocate_round_robin(g.num_items()).unwrap();
        let ports = PortLayout::single();
        let (smart_stats, _) = smart.trace_cost(&t, &ports);
        let (rr_stats, _) = rr.trace_cost(&t, &ports);
        assert!(
            smart_stats.shifts < rr_stats.shifts,
            "smart {} vs rr {}",
            smart_stats.shifts,
            rr_stats.shifts
        );
    }

    #[test]
    fn per_dbc_stats_sum_to_total() {
        let (t, _g) = setup();
        let layout = SpmAllocator::new(4, 16)
            .allocate(&t, &OrderOfAppearance)
            .unwrap();
        let (total, per_dbc) = layout.trace_cost(&t, &PortLayout::single());
        let sum: u64 = per_dbc.iter().map(|s| s.shifts).sum();
        assert_eq!(total.shifts, sum);
        let accesses: u64 = per_dbc.iter().map(|s| s.accesses()).sum();
        assert_eq!(total.accesses(), accesses);
    }

    #[test]
    fn trace_cost_with_linear_matches_legacy_and_ring_differs() {
        let (t, _g) = setup();
        let layout = SpmAllocator::new(4, 16)
            .allocate(&t, &GroupedChainGrowth)
            .unwrap();
        let ports = PortLayout::single();
        let (legacy, legacy_per) = layout.trace_cost(&t, &ports);
        let (linear, linear_per) = layout.trace_cost_with(&t, &ports, &Topology::linear());
        assert_eq!(legacy, linear);
        assert_eq!(legacy_per, linear_per);
        let ring = Topology::parse("ring").unwrap();
        let (ring_stats, _) = layout.trace_cost_with(&t, &ports, &ring);
        assert!(ring_stats.shifts <= legacy.shifts);
        assert_eq!(ring_stats.accesses(), legacy.accesses());
    }

    #[test]
    fn single_dbc_spm_matches_single_tape_model() {
        let (t, g) = setup();
        let layout = SpmAllocator::new(1, 64)
            .allocate(&t, &OrderOfAppearance)
            .unwrap();
        let (stats, _) = layout.trace_cost(&t, &PortLayout::single());
        let single = crate::cost::TopologyCost::single_port(Topology::linear(), 64)
            .trace_cost(&crate::Placement::identity(g.num_items()), &t)
            .stats;
        assert_eq!(stats.shifts, single.shifts);
    }
}
