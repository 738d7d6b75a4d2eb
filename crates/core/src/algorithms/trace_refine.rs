use dwm_trace::Trace;

use crate::cost::TopologyCost;
use crate::placement::Placement;

/// Trace-aware refinement against any shift-cost model.
///
/// The graph-based [`LocalSearch`](crate::LocalSearch) optimizes the
/// arrangement cost, which equals the *single-port* shift count — but
/// multi-port and typed-port tapes have different geometry, and a
/// placement tuned for `|Δoffset|` can even lose to naive there
/// (experiment F5 shows this at 8 ports). `TraceRefiner` closes that
/// gap: it hill-climbs swap moves evaluated by *replaying the trace
/// under the actual cost model*. Each probe costs a full replay, so a
/// pass is `O(n · window · T)` — fine for DBC-sized item counts, and
/// the candidate placement it starts from is already good.
///
/// Never increases the model's cost (first-improvement hill climbing).
///
/// # Example
///
/// ```
/// use dwm_trace::Trace;
/// use dwm_graph::AccessGraph;
/// use dwm_device::{PortLayout, Topology};
/// use dwm_core::{Hybrid, PlacementAlgorithm, TopologyCost};
/// use dwm_core::algorithms::TraceRefiner;
///
/// let trace = Trace::from_ids([0u32, 7, 1, 6, 2, 5, 3, 4, 0, 7]);
/// let graph = AccessGraph::from_trace(&trace);
/// let mut placement = Hybrid::default().place(&graph);
/// let model = TopologyCost::new(Topology::linear(), PortLayout::evenly_spaced(2, 8), 8);
/// let before = model.trace_cost(&placement, &trace).stats.shifts;
/// TraceRefiner::default().refine(&model, &trace, &mut placement);
/// let after = model.trace_cost(&placement, &trace).stats.shifts;
/// assert!(after <= before);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRefiner {
    /// Maximum full passes over all positions.
    pub max_passes: usize,
    /// Maximum distance between swapped positions per probe.
    pub window: usize,
}

impl Default for TraceRefiner {
    fn default() -> Self {
        TraceRefiner {
            max_passes: 6,
            window: 6,
        }
    }
}

impl TraceRefiner {
    /// A refiner with the given pass budget and window.
    pub fn new(max_passes: usize, window: usize) -> Self {
        TraceRefiner {
            max_passes,
            window: window.max(1),
        }
    }

    /// Refines `placement` in place against `model` on `trace`;
    /// returns the cost reduction achieved (in the model's shifts).
    ///
    /// Probes replay a *collapsed* copy of the trace: an access
    /// repeating the previous `(item, kind)` pair costs zero shifts
    /// under every shift-cost model (the port aligned by the previous
    /// access is still aligned) and leaves the tape state unchanged,
    /// so dropping such runs changes no placement's shift total. On
    /// reuse-heavy traces this shrinks each probe replay several-fold.
    pub fn refine(&self, model: &TopologyCost, trace: &Trace, placement: &mut Placement) -> u64 {
        let n = placement.num_items();
        if n < 2 || trace.is_empty() {
            return 0;
        }
        let trace = &collapse_repeats(trace);
        let mut current = model.trace_cost(placement, trace).stats.shifts;
        let start = current;
        for _ in 0..self.max_passes {
            let mut improved = false;
            for k in 0..n - 1 {
                for j in (k + 1)..(k + 1 + self.window).min(n) {
                    let (a, b) = (placement.item_at(k), placement.item_at(j));
                    placement.swap_items(a, b);
                    let cost = model.trace_cost(placement, trace).stats.shifts;
                    if cost < current {
                        current = cost;
                        improved = true;
                    } else {
                        placement.swap_items(a, b); // revert
                    }
                }
            }
            if !improved {
                break;
            }
        }
        start - current
    }
}

/// Drops every access whose `(item, kind)` equals the previous
/// access's. Shift-invariant for any cost model whose state is the
/// tape alignment (see [`TraceRefiner::refine`]).
fn collapse_repeats(trace: &Trace) -> Trace {
    let mut prev: Option<(dwm_trace::ItemId, bool)> = None;
    Trace::from_accesses(
        trace
            .iter()
            .filter(|a| {
                let key = (a.item, a.kind.is_write());
                if prev == Some(key) {
                    false
                } else {
                    prev = Some(key);
                    true
                }
            })
            .copied(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{Hybrid, PlacementAlgorithm, RandomPlacement};
    use dwm_device::{PortLayout, Topology, TypedPortLayout};
    use dwm_graph::AccessGraph;
    use dwm_trace::synth::{TraceGenerator, ZipfGen};

    fn single_port() -> TopologyCost {
        // The linear tape never reads the track length.
        TopologyCost::single_port(Topology::linear(), 0)
    }

    fn multi_port(ports: usize, len: usize) -> TopologyCost {
        TopologyCost::new(
            Topology::linear(),
            PortLayout::evenly_spaced(ports, len),
            len,
        )
    }

    /// A single-port, a multi-port and a one-writer typed model over
    /// `len` words.
    fn models(ports: usize, len: usize) -> [TopologyCost; 3] {
        let typed = TypedPortLayout::evenly_spaced(ports, 1, len);
        [
            single_port(),
            multi_port(ports, len),
            TopologyCost::typed(Topology::linear(), &typed, len),
        ]
    }

    #[test]
    fn never_increases_cost_under_any_model() {
        let trace = ZipfGen::new(24, 9).generate(800).normalize();
        let graph = AccessGraph::from_trace(&trace);
        for model in &models(4, 24) {
            let mut p = RandomPlacement::new(4).place(&graph);
            let before = model.trace_cost(&p, &trace).stats.shifts;
            let saved = TraceRefiner::default().refine(model, &trace, &mut p);
            let after = model.trace_cost(&p, &trace).stats.shifts;
            assert!(after <= before, "{model:?} got worse");
            assert_eq!(before - after, saved, "{model:?} saving mismatch");
        }
    }

    #[test]
    fn repairs_multi_port_mismatch() {
        // A single-port-optimized placement refined for an 8-port tape
        // must match or beat its unrefined self under that tape.
        let trace = ZipfGen::new(32, 5).generate(2000).normalize();
        let graph = AccessGraph::from_trace(&trace);
        let model = multi_port(8, 32);
        let base = Hybrid::default().place(&graph);
        let base_cost = model.trace_cost(&base, &trace).stats.shifts;
        let mut refined = base.clone();
        TraceRefiner::default().refine(&model, &trace, &mut refined);
        let refined_cost = model.trace_cost(&refined, &trace).stats.shifts;
        assert!(refined_cost <= base_cost);
    }

    #[test]
    fn result_is_a_permutation() {
        let trace = ZipfGen::new(16, 2).generate(300).normalize();
        let graph = AccessGraph::from_trace(&trace);
        let mut p = Hybrid::default().place(&graph);
        TraceRefiner::new(2, 4).refine(&single_port(), &trace, &mut p);
        let mut seen = [false; 16];
        for off in 0..16 {
            assert!(!seen[p.item_at(off)]);
            seen[p.item_at(off)] = true;
        }
    }

    #[test]
    fn collapsed_trace_preserves_shift_totals() {
        use dwm_trace::{Access, Trace};
        // Reuse-heavy trace with read/write runs: collapse must drop
        // only exact (item, kind) repeats and keep shift totals equal
        // under every model, for several placements.
        let mut t = Trace::new();
        for &(id, write, reps) in &[
            (0u32, false, 3usize),
            (5, true, 2),
            (5, false, 1),
            (5, false, 4),
            (2, true, 1),
            (0, false, 2),
            (7, true, 3),
        ] {
            for _ in 0..reps {
                t.push(if write {
                    Access::write(id)
                } else {
                    Access::read(id)
                });
            }
        }
        let t = t.normalize();
        let collapsed = super::collapse_repeats(&t);
        assert!(collapsed.len() < t.len());
        for model in &models(3, t.num_items()) {
            for seed in 0..4 {
                let g = AccessGraph::from_trace(&t);
                let p = RandomPlacement::new(seed).place(&g);
                assert_eq!(
                    model.trace_cost(&p, &t).stats.shifts,
                    model.trace_cost(&p, &collapsed).stats.shifts,
                    "{model:?} seed {seed}"
                );
            }
        }
    }

    #[test]
    fn trivial_inputs_are_no_ops() {
        let mut p = Placement::identity(1);
        let saved = TraceRefiner::default().refine(
            &single_port(),
            &dwm_trace::Trace::from_ids([0u32]),
            &mut p,
        );
        assert_eq!(saved, 0);
        let mut p = Placement::identity(4);
        let saved =
            TraceRefiner::default().refine(&single_port(), &dwm_trace::Trace::new(), &mut p);
        assert_eq!(saved, 0);
    }
}
