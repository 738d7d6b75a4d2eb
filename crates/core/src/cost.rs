//! The analytic shift-cost model.
//!
//! [`TopologyCost`] replays a trace against a placement and counts
//! shifts *without* instantiating the bit-level device — it is the
//! inner loop of every algorithm comparison and sweep. The functional
//! simulator in `dwm-sim` replays the same accesses on a real
//! [`Dbc`](dwm_device::Dbc) and must produce identical shift counts
//! (cross-validation experiment V1).

use dwm_device::{PortLayout, ShiftStats, TapeState, Topology, TrackTopology, TypedPortLayout};
use dwm_graph::AccessGraph;
use dwm_trace::Trace;

use crate::placement::Placement;

/// Outcome of replaying a trace under a cost model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CostReport {
    /// Shift/access counters (`stats.shifts` is the figure of merit).
    pub stats: ShiftStats,
}

impl CostReport {
    /// Shift count per access.
    pub fn shifts_per_access(&self) -> f64 {
        self.stats.mean_shift()
    }
}

/// The shift-cost model: replays a trace under any [`Topology`]
/// (linear / ring / 2-D grid / PIRM) and port layout, with
/// [`TrackTopology::plan`] as the single source of truth for shift
/// arithmetic.
///
/// Each access aligns its word with the nearest port it may use (ties
/// to the lowest-numbered port), starting from the tape at rest. Reads
/// may use any port; writes only the write-eligible ones. A model from
/// [`new`](Self::new) makes every port read-write. One from
/// [`typed`](Self::typed) takes the write-eligible subset from a
/// [`TypedPortLayout`]: the DWM macro in which cheap read heads
/// outnumber expensive write heads, where write-heavy traces pay longer
/// shifts (the asymmetry the F8 ablation sweeps).
///
/// On the linear tape with a single port at offset 0, consecutive
/// accesses `a → b` cost `|pos(a) − pos(b)|` shifts, so the total
/// (excluding the first alignment) is the [linear arrangement
/// cost](AccessGraph::arrangement_cost) of the placement on the trace's
/// access graph — the identity the paper's problem formulation rests
/// on, which [`graph_cost`](Self::graph_cost) exposes directly.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologyCost {
    topology: Topology,
    layout: PortLayout,
    writers: PortLayout,
    len: usize,
}

impl TopologyCost {
    /// Model for the given topology, port layout (every port
    /// read-write), and track length (`len` is the word count of the
    /// tape — ring and grid geometries need it; linear ignores it).
    pub fn new(topology: Topology, layout: PortLayout, len: usize) -> Self {
        TopologyCost {
            topology,
            writers: layout.clone(),
            layout,
            len,
        }
    }

    /// Single-port convenience over `len` words: one port at offset 0.
    pub fn single_port(topology: Topology, len: usize) -> Self {
        TopologyCost::new(topology, PortLayout::single(), len)
    }

    /// Model whose writes may align only with the read-write ports of
    /// `ports`; reads may use every port.
    pub fn typed(topology: Topology, ports: &TypedPortLayout, len: usize) -> Self {
        TopologyCost {
            topology,
            layout: ports.read_layout().clone(),
            writers: ports.write_layout().clone(),
            len,
        }
    }

    /// The topology this model replays against.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The port layout this model replays against (every port,
    /// read-only ones included).
    pub fn layout(&self) -> &PortLayout {
        &self.layout
    }

    /// Short name for report tables: `{n}-port` on the linear tape and
    /// `{topology}@{n}-port` otherwise, where `n` counts every port.
    pub fn name(&self) -> String {
        if self.topology.is_linear() {
            format!("{}-port", self.layout.len())
        } else {
            format!("{}@{}-port", self.topology, self.layout.len())
        }
    }

    /// Checks that `placement` fits this model's tape: the tape holds
    /// every item, and no two ports share a position. [`new`](Self::new)
    /// takes any shape; callers that cost a layout given from outside
    /// (the CLI's `eval`, the daemon's `/evaluate`) check it here first.
    ///
    /// # Errors
    ///
    /// A one-line message naming the violated constraint.
    pub fn check_fit(&self, placement: &Placement) -> Result<(), String> {
        if self.len < placement.num_items() {
            return Err(format!(
                "a {}-item placement does not fit a {}-word tape",
                placement.num_items(),
                self.len
            ));
        }
        if self.layout.positions().windows(2).any(|w| w[0] == w[1]) {
            return Err(format!(
                "{} ports on a {}-word tape share positions {:?}",
                self.layout.len(),
                self.len,
                self.layout.positions()
            ));
        }
        Ok(())
    }

    /// Replays `trace` under `placement` and returns the counters.
    ///
    /// # Panics
    ///
    /// Panics if the trace references items outside the placement
    /// (callers pair a trace with a placement built from the same
    /// trace/graph).
    pub fn trace_cost(&self, placement: &Placement, trace: &Trace) -> CostReport {
        let stats = match &self.topology {
            Topology::Linear(t) => self.replay(t, placement, trace),
            Topology::Ring(t) => self.replay(t, placement, trace),
            Topology::Grid2d(t) => self.replay(t, placement, trace),
            Topology::Pirm(t) => self.replay(t, placement, trace),
        };
        CostReport { stats }
    }

    /// Steady-state graph cost: sum over access-graph edges of
    /// `weight × shift_distance(pos(u), pos(v))` under this topology,
    /// with every port serving (the graph carries no access kinds).
    ///
    /// For a linear single-port tape this equals
    /// [`AccessGraph::arrangement_cost`] — the minimum-linear-arrangement
    /// objective; other topologies substitute their own distance metric
    /// (circular for ring, Manhattan-weighted for grids, windowed for
    /// PIRM).
    pub fn graph_cost(&self, placement: &Placement, graph: &AccessGraph) -> u64 {
        match &self.topology {
            Topology::Linear(t) => self.edge_sum(t, placement, graph),
            Topology::Ring(t) => self.edge_sum(t, placement, graph),
            Topology::Grid2d(t) => self.edge_sum(t, placement, graph),
            Topology::Pirm(t) => self.edge_sum(t, placement, graph),
        }
    }

    // `replay` and `edge_sum` are generic so that the public entry
    // points dispatch on the topology once per call: `plan` is then a
    // static, inlinable call in the per-access and per-edge loops.

    fn replay<T: TrackTopology>(
        &self,
        topology: &T,
        placement: &Placement,
        trace: &Trace,
    ) -> ShiftStats {
        let (readers, writers, len) = (&self.layout, &self.writers, self.len);
        // With every port write-eligible, the per-access choice of port
        // set drops out of the loop.
        if writers == readers {
            walk(topology, |_| readers, len, placement, trace)
        } else {
            let ports = |write| if write { writers } else { readers };
            walk(topology, ports, len, placement, trace)
        }
    }

    fn edge_sum<T: TrackTopology>(
        &self,
        topology: &T,
        placement: &Placement,
        graph: &AccessGraph,
    ) -> u64 {
        let pos = placement.offsets();
        graph
            .edges()
            .map(|e| e.weight * topology.shift_distance(&self.layout, self.len, pos[e.u], pos[e.v]))
            .sum()
    }
}

/// Replays `trace` from the tape at rest, aligning each access with
/// the nearest port of `ports(is_write)`. Kept out of line so that each
/// instance's loop gets registers of its own.
#[inline(never)]
fn walk<'a, T: TrackTopology>(
    topology: &T,
    ports: impl Fn(bool) -> &'a PortLayout,
    len: usize,
    placement: &Placement,
    trace: &Trace,
) -> ShiftStats {
    let mut stats = ShiftStats::new();
    let mut state = TapeState::rest();
    for a in trace.iter() {
        let write = a.kind.is_write();
        let plan = topology.plan(ports(write), len, state, placement.offset_of_id(a.item));
        stats.record(plan.distance, write);
        state = plan.state;
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use dwm_trace::Access;

    fn trace() -> Trace {
        Trace::from_ids([0u32, 3, 1, 1, 2, 0])
    }

    fn linear(ports: usize, len: usize) -> TopologyCost {
        TopologyCost::new(
            Topology::linear(),
            PortLayout::evenly_spaced(ports, len),
            len,
        )
    }

    #[test]
    fn single_port_counts_pairwise_distances() {
        let t = trace();
        let p = Placement::identity(4);
        let report = TopologyCost::single_port(Topology::linear(), 4).trace_cost(&p, &t);
        // 0(first) + |0−3| + |3−1| + 0 + |1−2| + |2−0| = 8.
        assert_eq!(report.stats.shifts, 8);
        assert_eq!(report.stats.accesses(), 6);
        assert_eq!(report.stats.aligned_hits, 2); // first access + repeat
    }

    #[test]
    fn graph_cost_matches_trace_cost_steady_state() {
        let t = trace();
        let g = AccessGraph::from_trace(&t);
        let model = TopologyCost::single_port(Topology::linear(), 4);
        for p in [Placement::from_order([2, 0, 3, 1]), Placement::identity(4)] {
            let replay = model.trace_cost(&p, &t).stats.shifts;
            let first_alignment = p.offset_of(0) as u64; // first access is item 0
            assert_eq!(model.graph_cost(&p, &g), replay - first_alignment);
            assert_eq!(model.graph_cost(&p, &g), g.arrangement_cost(p.offsets()));
        }
    }

    #[test]
    fn more_ports_help_far_jumps() {
        // Alternating far jumps: a single end port pays the full span
        // every time; spread ports serve each end locally. (On monotone
        // sweeps the greedy nearest-port policy gains nothing — every
        // port's required displacement advances in lockstep — so this
        // is the workload class where port count actually matters.)
        let ids: Vec<u32> = (0..32).flat_map(|_| [0u32, 63]).collect();
        let t = Trace::from_ids(ids);
        let p = Placement::identity(64);
        let one = linear(1, 64).trace_cost(&p, &t);
        let four = linear(4, 64).trace_cost(&p, &t);
        assert!(four.stats.shifts < one.stats.shifts);
    }

    #[test]
    fn placement_changes_cost() {
        let t = trace();
        let good = Placement::identity(4);
        // Scatter the hot pair 1–1,0 far apart.
        let bad = Placement::from_order([0, 3, 2, 1]);
        let m = TopologyCost::single_port(Topology::linear(), 4);
        assert_ne!(
            m.trace_cost(&good, &t).stats.shifts,
            m.trace_cost(&bad, &t).stats.shifts
        );
    }

    #[test]
    fn report_exposes_mean() {
        let t = Trace::from_ids([0u32, 1]);
        let r = TopologyCost::single_port(Topology::linear(), 2)
            .trace_cost(&Placement::identity(2), &t);
        assert!((r.shifts_per_access() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn typed_all_rw_matches_untyped() {
        let t = Trace::from_accesses([
            Access::read(0u32),
            Access::write(3u32),
            Access::read(1u32),
            Access::write(2u32),
        ]);
        let p = Placement::identity(4);
        let typed = TopologyCost::typed(
            Topology::linear(),
            &TypedPortLayout::evenly_spaced(2, 2, 4),
            4,
        );
        assert_eq!(typed, linear(2, 4));
        assert_eq!(
            typed.trace_cost(&p, &t).stats.shifts,
            linear(2, 4).trace_cost(&p, &t).stats.shifts
        );
    }

    #[test]
    fn fewer_writers_cost_more_on_write_heavy_traces() {
        // Writes alternating between the two ends of a 64-word tape.
        let t =
            Trace::from_accesses((0..32).flat_map(|_| [Access::write(0u32), Access::write(63u32)]));
        let p = Placement::identity(64);
        let typed = |writers| {
            TopologyCost::typed(
                Topology::linear(),
                &TypedPortLayout::evenly_spaced(4, writers, 64),
                64,
            )
        };
        assert!(
            typed(1).trace_cost(&p, &t).stats.shifts > typed(4).trace_cost(&p, &t).stats.shifts
        );
    }

    #[test]
    fn read_only_ports_still_serve_reads() {
        let t = Trace::from_ids([0u32, 63, 0, 63]);
        let p = Placement::identity(64);
        let typed = TopologyCost::typed(
            Topology::linear(),
            &TypedPortLayout::evenly_spaced(4, 1, 64),
            64,
        );
        let single = TopologyCost::single_port(Topology::linear(), 64);
        // Reads can use the read-only heads, so the typed layout beats
        // a pure single-port tape on read ping-pong.
        assert!(typed.trace_cost(&p, &t).stats.shifts < single.trace_cost(&p, &t).stats.shifts);
    }

    #[test]
    fn ring_never_costs_more_than_linear() {
        let ids: Vec<u32> = (0..32).flat_map(|_| [0u32, 63]).collect();
        let t = Trace::from_ids(ids);
        let p = Placement::identity(64);
        let linear = TopologyCost::single_port(Topology::linear(), 64);
        let ring = TopologyCost::single_port(Topology::parse("ring").unwrap(), 64);
        let (ls, rs) = (
            linear.trace_cost(&p, &t).stats.shifts,
            ring.trace_cost(&p, &t).stats.shifts,
        );
        // End-to-end ping-pong: the ring wraps in 1 step, linear pays 63.
        assert!(rs < ls, "ring {rs} vs linear {ls}");
    }

    #[test]
    fn topologies_produce_distinct_graph_costs() {
        let ids: Vec<u32> = (0..8)
            .flat_map(|k| [k as u32, ((k * 7) % 64) as u32])
            .collect();
        let t = Trace::from_ids(ids);
        let g = AccessGraph::from_trace(&t);
        let p = Placement::identity(64);
        let costs: Vec<u64> = ["linear", "ring", "grid2d:8x8", "pirm:4"]
            .iter()
            .map(|s| TopologyCost::single_port(Topology::parse(s).unwrap(), 64).graph_cost(&p, &g))
            .collect();
        // All four geometries price the same placement differently.
        for i in 0..costs.len() {
            for j in (i + 1)..costs.len() {
                assert_ne!(costs[i], costs[j], "{i} vs {j}: {costs:?}");
            }
        }
    }

    #[test]
    fn names_carry_the_port_count_and_non_linear_topology() {
        assert_eq!(
            TopologyCost::single_port(Topology::linear(), 8).name(),
            "1-port"
        );
        assert_eq!(linear(4, 64).name(), "4-port");
        let ring = Topology::parse("ring").unwrap();
        assert_eq!(TopologyCost::single_port(ring, 8).name(), "ring@1-port");
        let grid = Topology::parse("grid2d:4x8").unwrap();
        let typed = TopologyCost::typed(grid, &TypedPortLayout::evenly_spaced(2, 1, 8), 32);
        assert_eq!(typed.name(), "grid2d:4x8@2-port");
    }
}
