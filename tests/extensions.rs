//! Cross-crate integration over the extension systems: cache,
//! compiler pass, instruction layout, online placement, wear leveling,
//! typed ports, and the trace-aware refiner — exercised together the
//! way the extension experiments (T6–T9, F8–F11, A1) use them.

use dwm_placement::compile::ir::{AffineExpr, Program};
use dwm_placement::compile::layout::assign_layout;
use dwm_placement::core::algorithms::TraceRefiner;
use dwm_placement::core::online::{OnlineConfig, OnlinePlacer};
use dwm_placement::core::wear::{RotatingEvaluator, WearConfig};
use dwm_placement::isa::{best_layout, BlockOrder, Cfg};
use dwm_placement::prelude::*;

/// The compiler pass's placement, run through the bit-level simulator,
/// produces the exact shift count the pass predicted.
#[test]
fn compiler_pass_cross_validates_on_simulator() {
    let mut p = Program::new();
    let a = p.array("a", 32, 2);
    let b = p.array("b", 32, 2);
    let i = p.loop_var("i");
    p.for_loop(i, 0, 32, |body| {
        body.read(a, AffineExpr::var(i));
        body.read(b, AffineExpr::var(i).scale(7).modulo(32));
        body.write(a, AffineExpr::var(i));
    });
    let layout = assign_layout(&p, &Hybrid::default()).expect("valid program");
    let config = DeviceConfig::builder()
        .domains_per_track(layout.placement.num_items())
        .tracks_per_dbc(32)
        .build()
        .expect("valid config");
    let mut sim = SpmSimulator::new(&config, &layout.placement).expect("fits");
    let report = sim.run(&layout.trace).expect("replay");
    assert_eq!(report.stats.shifts, layout.tuned_shifts);
    assert_eq!(report.integrity_errors, 0);
}

/// Kernel traces drive the DWM cache; shift-aware policies never cost
/// more shifts than plain LRU on the whole suite in aggregate.
#[test]
fn cache_shift_aware_wins_in_aggregate() {
    let mut lru_total = 0u64;
    let mut aware_total = 0u64;
    for kernel in Kernel::suite() {
        let trace = kernel.trace();
        let mut lru = DwmCache::new(CacheConfig::new(4, 8).expect("valid"));
        lru_total += lru.run_trace(&trace).shifts;
        let mut aware = DwmCache::new(
            CacheConfig::new(4, 8)
                .expect("valid")
                .with_replacement(ReplacementPolicy::ShiftAwareLru { window: 2 }),
        );
        aware_total += aware.run_trace(&trace).shifts;
    }
    assert!(
        aware_total <= lru_total,
        "shift-aware {aware_total} vs lru {lru_total}"
    );
}

/// The instruction-layout pipeline respects its never-worse guarantee
/// across CFG shapes, and its output is a valid permutation.
#[test]
fn instruction_layout_guarantees() {
    for cfg in [
        Cfg::random(32, 3, 1),
        Cfg::random(48, 4, 2),
        Cfg::structured(4, 5, 500),
    ] {
        let naive = BlockOrder::program_order(&cfg).cost(&cfg);
        let tuned = best_layout(&cfg);
        assert!(tuned.cost(&cfg) <= naive);
        let mut seen = vec![false; cfg.num_blocks()];
        for k in 0..cfg.num_blocks() {
            let b = tuned.block_at(k);
            assert!(!seen[b.0]);
            seen[b.0] = true;
        }
    }
}

/// Online placement wins on workloads with *stable* phases (its design
/// premise: the last window predicts the next). On rapidly churning
/// patterns like FFT stages the lookbehind predictor loses — a
/// documented limitation, not asserted here.
#[test]
fn online_placement_wins_on_stable_phases() {
    // Two long phases of clustered traffic over shuffled item spaces.
    let mut ids = Vec::new();
    for phase in 0..2u64 {
        let t = MarkovGen::new(32, 4, phase).with_stay(0.95).generate(4000);
        let stride = 2 * phase as usize + 1;
        ids.extend(t.iter().map(|a| ((a.item.index() * stride) % 32) as u32));
    }
    let trace = Trace::from_ids(ids);
    let report = OnlinePlacer::new(OnlineConfig {
        window: 512,
        migration_shifts_per_item: 32,
        ..OnlineConfig::default()
    })
    .run(&trace);
    let naive = TopologyCost::single_port(Topology::linear(), 32)
        .trace_cost(&Placement::identity(32), &trace)
        .stats
        .shifts;
    assert!(
        report.total_shifts() < naive,
        "online {} vs naive {naive}",
        report.total_shifts()
    );
    assert!(report.migrations >= 1);
}

/// Wear leveling composes with the hybrid placement: rotation levels
/// the write histogram of a skewed kernel without breaking the shift
/// accounting.
#[test]
fn wear_leveling_composes_with_placement() {
    let trace = Kernel::Histogram {
        bins: 48,
        samples: 600,
        seed: 1,
    }
    .trace();
    let graph = AccessGraph::from_trace(&trace);
    let placement = Hybrid::default().place(&graph);
    let n = graph.num_items();
    let fixed = RotatingEvaluator::new(WearConfig::disabled()).evaluate(&placement, &trace);
    let level =
        RotatingEvaluator::new(WearConfig::every_writes(32, n)).evaluate(&placement, &trace);
    assert!(level.imbalance() < fixed.imbalance());
    let fixed_writes: u64 = fixed.slot_writes.iter().sum();
    let level_writes: u64 = level.slot_writes.iter().sum();
    assert_eq!(fixed_writes, level_writes, "rotation must conserve writes");
}

/// Typed ports + trace refiner: starting from the hybrid placement,
/// refining under the typed model never hurts and the typed cost stays
/// bounded below by the all-writer configuration.
#[test]
fn typed_ports_with_trace_refiner() {
    let trace = Kernel::MergeSort {
        n: 32,
        block: 2,
        seed: 9,
    }
    .trace();
    let graph = AccessGraph::from_trace(&trace);
    let n = graph.num_items();
    let typed = |writers| {
        let ports = TypedPortLayout::evenly_spaced(4, writers, n);
        TopologyCost::typed(Topology::linear(), &ports, n)
    };
    let (one_writer, all_writers) = (typed(1), typed(4));
    let base = Hybrid::default().place(&graph);
    let mut refined = base.clone();
    TraceRefiner::default().refine(&one_writer, &trace, &mut refined);
    let refined_cost = one_writer.trace_cost(&refined, &trace).stats.shifts;
    assert!(refined_cost <= one_writer.trace_cost(&base, &trace).stats.shifts);
    assert!(all_writers.trace_cost(&refined, &trace).stats.shifts <= refined_cost);
}

/// The whole extension stack in one flow: IR program → trace → cache
/// replay → placement → wear report. Nothing panics, counters stay
/// consistent.
#[test]
fn full_extension_pipeline_smoke() {
    let mut p = Program::new();
    let a = p.array("a", 48, 2);
    let i = p.loop_var("i");
    let j = p.loop_var("j");
    p.for_loop(i, 0, 6, |bi| {
        bi.for_loop(j, 0, 48, |bj| {
            bj.read(a, AffineExpr::var(j));
            bj.write(a, AffineExpr::var(j).scale(5).modulo(48));
        });
    });
    let layout = assign_layout(&p, &Hybrid::default()).expect("valid");
    let mut cache = DwmCache::new(CacheConfig::new(4, 4).expect("valid"));
    let cache_stats = cache.run_trace(&layout.trace);
    assert_eq!(cache_stats.accesses(), layout.trace.len() as u64);
    let wear = RotatingEvaluator::new(WearConfig::every_writes(64, 24))
        .evaluate(&layout.placement, &layout.trace);
    assert_eq!(
        wear.slot_writes.iter().sum::<u64>(),
        layout.trace.stats().writes as u64
    );
}
