//! The data-layout pass: program → trace → placement → per-array map.

use dwm_core::{Placement, PlacementAlgorithm, TopologyCost};
use dwm_device::Topology;
use dwm_graph::GraphDigest;
use dwm_trace::Trace;

use crate::exec::{execute, ExecError};
use crate::ir::{ArrayId, Program};

/// A computed layout: the placement over the program's data items plus
/// its predicted cost against the naive declaration-order layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataLayout {
    /// The trace the layout was derived from.
    pub trace: Trace,
    /// Item placement (items are array blocks in declaration order).
    pub placement: Placement,
    /// Shift count of the naive declaration-order layout.
    pub naive_shifts: u64,
    /// Shift count of the computed layout.
    pub tuned_shifts: u64,
    /// Item bases per array (for [`DataLayout::offset_of`]).
    array_bases: Vec<usize>,
    /// Block size per array.
    array_blocks: Vec<usize>,
}

impl DataLayout {
    /// Tape offset assigned to element `index` of `array`.
    ///
    /// # Panics
    ///
    /// Panics if the array id or element index is out of range.
    pub fn offset_of(&self, array: ArrayId, index: usize) -> usize {
        let item = self.array_bases[array.0] + index / self.array_blocks[array.0];
        self.placement.offset_of(item)
    }

    /// Fractional shift reduction over the naive layout (0.0 when the
    /// naive layout was already optimal).
    pub fn reduction(&self) -> f64 {
        if self.naive_shifts == 0 {
            0.0
        } else {
            (self.naive_shifts as f64 - self.tuned_shifts as f64) / self.naive_shifts as f64
        }
    }
}

/// Runs the full pass: execute `program`, build the access graph, place
/// with `algorithm`, and cost both layouts.
///
/// # Errors
///
/// Propagates [`ExecError`] from program execution.
///
/// # Example
///
/// See the [crate-level example](crate).
pub fn assign_layout(
    program: &Program,
    algorithm: &dyn PlacementAlgorithm,
) -> Result<DataLayout, ExecError> {
    let trace = execute(program)?;
    // Items are dense by construction (array blocks in declaration
    // order), but a program need not touch every block; pad the graph
    // to the program's full item count so untouched blocks still get
    // offsets.
    let graph =
        GraphDigest::from_dense(program.total_items(), trace.iter().map(|a| a.item.index()))
            .to_graph();
    let placement = algorithm.place(&graph);
    let model = TopologyCost::single_port(Topology::linear(), program.total_items());
    let naive_shifts = model
        .trace_cost(&Placement::identity(program.total_items()), &trace)
        .stats
        .shifts;
    let tuned_shifts = model.trace_cost(&placement, &trace).stats.shifts;
    Ok(DataLayout {
        trace,
        placement,
        naive_shifts,
        tuned_shifts,
        array_bases: (0..program.arrays().len())
            .map(|a| program.array_base(ArrayId(a)))
            .collect(),
        array_blocks: program.arrays().iter().map(|a| a.block).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ir::AffineExpr;
    use dwm_core::Hybrid;

    /// y[i] += a[i] * x[col(i)] with a strided gather.
    fn gather_program() -> Program {
        let mut p = Program::new();
        let a = p.array("a", 16, 2);
        let x = p.array("x", 32, 2);
        let y = p.array("y", 16, 2);
        let i = p.loop_var("i");
        p.for_loop(i, 0, 16, |b| {
            b.read(y, AffineExpr::var(i));
            b.read(a, AffineExpr::var(i));
            b.read(x, AffineExpr::var(i).scale(5).modulo(32));
            b.write(y, AffineExpr::var(i));
        });
        p
    }

    #[test]
    fn layout_improves_on_naive() {
        let layout = assign_layout(&gather_program(), &Hybrid::default()).unwrap();
        assert!(layout.tuned_shifts <= layout.naive_shifts);
        assert!(layout.reduction() >= 0.0);
    }

    #[test]
    fn every_element_gets_a_unique_block_offset() {
        let p = gather_program();
        let layout = assign_layout(&p, &Hybrid::default()).unwrap();
        let mut offsets = std::collections::HashSet::new();
        for (aid, decl) in p.arrays().iter().enumerate() {
            for block in 0..decl.items() {
                let off = layout.offset_of(ArrayId(aid), block * decl.block);
                assert!(offsets.insert(off), "offset {off} assigned twice");
            }
        }
        assert_eq!(offsets.len(), p.total_items());
    }

    #[test]
    fn elements_in_same_block_share_an_offset() {
        let p = gather_program();
        let layout = assign_layout(&p, &Hybrid::default()).unwrap();
        let a = ArrayId(0); // block = 2
        assert_eq!(layout.offset_of(a, 0), layout.offset_of(a, 1));
        assert_ne!(layout.offset_of(a, 0), layout.offset_of(a, 2));
    }

    #[test]
    fn untouched_blocks_still_get_offsets() {
        let mut p = Program::new();
        let a = p.array("a", 8, 1);
        // Touch only element 0.
        p.access(a, AffineExpr::constant(0), false);
        let layout = assign_layout(&p, &Hybrid::default()).unwrap();
        assert_eq!(layout.placement.num_items(), 8);
        let _ = layout.offset_of(a, 7); // must not panic
    }

    #[test]
    fn exec_errors_propagate() {
        let mut p = Program::new();
        let a = p.array("a", 2, 1);
        p.access(a, AffineExpr::constant(5), false);
        assert!(assign_layout(&p, &Hybrid::default()).is_err());
    }
}
