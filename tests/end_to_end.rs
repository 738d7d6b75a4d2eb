//! Cross-crate integration: kernels → graphs → placements → cost
//! models → bit-level simulator, exercised together the way the
//! experiment harness uses them.

use dwm_placement::core::algorithms::standard_suite;
use dwm_placement::core::exact::optimal_placement;
use dwm_placement::prelude::*;

/// Every algorithm produces a valid placement for every kernel, and
/// the proposed hybrid never loses to the naive baseline.
#[test]
fn full_suite_on_all_kernels() {
    for kernel in Kernel::suite() {
        let trace = kernel.trace();
        let graph = AccessGraph::from_trace(&trace);
        let model = TopologyCost::single_port(Topology::linear(), graph.num_items());
        let naive = model
            .trace_cost(&Placement::identity(graph.num_items()), &trace)
            .stats
            .shifts;
        for alg in standard_suite(7) {
            let placement = alg.place(&graph);
            assert_eq!(placement.num_items(), graph.num_items());
            let shifts = model.trace_cost(&placement, &trace).stats.shifts;
            assert!(shifts > 0, "{} produced a zero-shift replay", alg.name());
            if alg.name() == "hybrid" {
                assert!(
                    shifts <= naive,
                    "hybrid lost to naive on {}: {shifts} > {naive}",
                    kernel.name()
                );
            }
        }
    }
}

/// The analytic single-port model and the bit-level simulator agree
/// exactly for every kernel × a representative algorithm set.
#[test]
fn simulator_cross_validates_analytic_model() {
    for kernel in Kernel::suite() {
        let trace = kernel.trace();
        let graph = AccessGraph::from_trace(&trace);
        let model = TopologyCost::single_port(Topology::linear(), graph.num_items());
        for alg in [
            &OrderOfAppearance as &dyn PlacementAlgorithm,
            &GroupedChainGrowth,
            &Hybrid::default(),
        ] {
            let placement = alg.place(&graph);
            let analytic = model.trace_cost(&placement, &trace).stats.shifts;
            let config = DeviceConfig::builder()
                .domains_per_track(graph.num_items())
                .tracks_per_dbc(32)
                .build()
                .expect("valid config");
            let mut sim = SpmSimulator::new(&config, &placement).expect("fits");
            let report = sim.run(&trace).expect("replay");
            assert_eq!(
                report.stats.shifts,
                analytic,
                "{} on {}",
                alg.name(),
                kernel.name()
            );
            assert_eq!(report.integrity_errors, 0);
        }
    }
}

/// Multi-port replay through the analytic model matches the device
/// model's own nearest-port bookkeeping (via a real Dbc).
#[test]
fn multi_port_model_matches_device() {
    let trace = Kernel::Histogram {
        bins: 32,
        samples: 400,
        seed: 3,
    }
    .trace();
    let graph = AccessGraph::from_trace(&trace);
    let placement = Hybrid::default().place(&graph);
    for ports in [1usize, 2, 4] {
        let config = DeviceConfig::builder()
            .domains_per_track(32)
            .tracks_per_dbc(32)
            .ports(ports)
            .build()
            .expect("valid");
        let model = TopologyCost::new(Topology::linear(), config.port_layout().clone(), 32);
        let analytic = model.trace_cost(&placement, &trace).stats.shifts;
        let mut dbc = Dbc::new(&config);
        for a in trace.iter() {
            let off = placement.offset_of(a.item.index());
            if a.kind.is_write() {
                dbc.write(off, 1).expect("in range");
            } else {
                dbc.read(off).expect("in range");
            }
        }
        assert_eq!(dbc.stats().shifts, analytic, "{ports} ports");
    }
}

/// On exactly solvable instances, every heuristic is lower-bounded by
/// the DP optimum and the hybrid lands within a small gap.
#[test]
fn hybrid_is_near_optimal_on_small_instances() {
    use dwm_placement::graph::generators::clustered_graph;
    let mut total_opt = 0u64;
    let mut total_hybrid = 0u64;
    for seed in 0..6 {
        let g = clustered_graph(12, 3, 0.8, 0.2, 5, seed);
        let (_, opt) = optimal_placement(&g).expect("n=12 is exact-solvable");
        let hybrid = g.arrangement_cost(Hybrid::default().place(&g).offsets());
        assert!(hybrid >= opt);
        total_opt += opt;
        total_hybrid += hybrid;
    }
    // Aggregate gap under 15%.
    assert!(
        (total_hybrid as f64) <= 1.15 * total_opt as f64,
        "hybrid {total_hybrid} vs optimal {total_opt}"
    );
}

/// SPM allocation end-to-end: allocation fits, beats round-robin on
/// the kernel suite in aggregate, and cross-validates on the layout
/// simulator.
#[test]
fn spm_allocation_end_to_end() {
    let alloc = SpmAllocator::new(4, 16);
    let ports = PortLayout::single();
    let mut rr_total = 0u64;
    let mut anti_total = 0u64;
    for kernel in Kernel::suite() {
        let trace = kernel.trace();
        let rr = alloc.allocate_round_robin(trace.num_items()).expect("fits");
        let anti = alloc.allocate(&trace, &GroupedChainGrowth).expect("fits");
        rr_total += rr.trace_cost(&trace, &ports).0.shifts;
        anti_total += anti.trace_cost(&trace, &ports).0.shifts;

        let config = DeviceConfig::builder()
            .dbcs(4)
            .domains_per_track(16)
            .tracks_per_dbc(32)
            .build()
            .expect("valid");
        let mut sim = SpmSimulator::with_layout(&config, &anti).expect("geometry");
        let report = sim.run(&trace).expect("replay");
        assert_eq!(
            report.stats.shifts,
            anti.trace_cost(&trace, &ports).0.shifts
        );
        assert_eq!(report.integrity_errors, 0);
    }
    assert!(
        anti_total < rr_total,
        "anti-affinity {anti_total} did not beat round-robin {rr_total}"
    );
}

/// Latency/energy projection is monotone in shift count for a fixed
/// access mix — fewer shifts always means faster and cheaper.
#[test]
fn projection_is_monotone_in_shifts() {
    let trace = Kernel::Fft { n: 32, block: 1 }.trace();
    let graph = AccessGraph::from_trace(&trace);
    let model = TopologyCost::single_port(Topology::linear(), graph.num_items());
    let projection = CostProjection::new(&DeviceConfig::default());
    let naive = model
        .trace_cost(&Placement::identity(graph.num_items()), &trace)
        .stats;
    let tuned = model
        .trace_cost(&Hybrid::default().place(&graph), &trace)
        .stats;
    assert!(tuned.shifts < naive.shifts);
    assert!(projection.latency(&tuned).total_cycles() < projection.latency(&naive).total_cycles());
    assert!(projection.energy(&tuned).total_pj() < projection.energy(&naive).total_pj());
}

/// Trace text round-trip composes with the whole pipeline.
#[test]
fn trace_io_pipeline() {
    use dwm_placement::trace::io;
    let original = Kernel::Lu { n: 16 }.trace();
    let text = io::to_text(&original);
    let reloaded = io::from_text(&text).expect("parse");
    assert_eq!(reloaded, original);
    let graph = AccessGraph::from_trace(&reloaded);
    let placement = Hybrid::default().place(&graph);
    assert_eq!(placement.num_items(), 16);
}
