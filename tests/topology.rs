//! Topology laws and the linear golden pin.
//!
//! The `TrackTopology` refactor routed every shift-cost consumer
//! through one geometry model (`dwm_device::topology`). Two kinds of
//! contract keep it honest:
//!
//! * **Geometry laws** — relations that hold by construction and must
//!   keep holding: the ring metric is symmetric and never exceeds the
//!   linear metric (wraparound only adds a second direction), and a
//!   one-row grid degenerates byte-for-byte to the linear tape.
//! * **The linear golden pin** — `Topology::linear()` must reproduce
//!   the pre-topology shift distances and simulator reports exactly.
//!   Each artifact is hashed FNV-1a style (as in
//!   `tests/csr_equivalence.rs`) and required to be byte-identical at
//!   `DWM_THREADS=1` and `=8`. The hashes were captured before the
//!   refactor. Before hashing, each analytic artifact is asserted equal
//!   to an independent reference — a test-local nearest-port fold over
//!   the port positions — and the bit-level simulator's shift total to
//!   the analytic one, so a drift is named before it breaks a hash.
//!
//! Regenerating (only after an *intentional* model change): run with
//! `DWM_GOLDEN_PRINT=1` and paste the printed table.

use std::sync::Mutex;

use dwm_placement::prelude::*;
use dwm_placement::trace::kernels::Kernel;
use dwm_placement::trace::Trace;

/// `DWM_THREADS` is process-global; tests that flip it must not
/// interleave (mirrors `tests/parallel.rs`).
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    std::env::set_var("DWM_THREADS", threads.to_string());
    let result = f();
    std::env::remove_var("DWM_THREADS");
    result
}

/// FNV-1a, 64-bit: stable across platforms and Rust versions.
fn fnv64(text: &str) -> u64 {
    let mut hash = 0xcbf29ce484222325u64;
    for b in text.bytes() {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

fn kernels() -> Vec<(&'static str, Trace)> {
    vec![
        ("fft", Kernel::Fft { n: 32, block: 1 }.trace()),
        ("matmul", Kernel::MatMul { n: 8, block: 2 }.trace()),
        ("isort", Kernel::InsertionSort { n: 24, seed: 9 }.trace()),
    ]
}

fn topo(spec: &str) -> Topology {
    Topology::parse(spec).expect("valid spec")
}

// ---------------------------------------------------------------- laws

#[test]
fn ring_metric_is_symmetric_and_never_exceeds_linear() {
    let ring = topo("ring");
    let linear = Topology::linear();
    let single = PortLayout::single();
    for len in [2usize, 5, 16, 64] {
        for a in 0..len {
            for b in 0..len {
                let d = ring.shift_distance(&single, len, a, b);
                assert_eq!(
                    d,
                    ring.shift_distance(&single, len, b, a),
                    "ring metric must be symmetric (len={len} a={a} b={b})"
                );
                assert!(
                    d <= linear.shift_distance(&single, len, a, b),
                    "wraparound can only shorten a move (len={len} a={a} b={b})"
                );
            }
        }
    }
}

#[test]
fn ring_replay_never_costs_more_than_linear_on_any_kernel() {
    // The per-pair law lifts to whole traces: same placement, same
    // single-port layout, ring total ≤ linear total.
    for (name, trace) in kernels() {
        let graph = AccessGraph::from_trace(&trace);
        let placement = Hybrid::default().place(&graph);
        let n = graph.num_items();
        let linear = TopologyCost::single_port(Topology::linear(), n)
            .trace_cost(&placement, &trace)
            .stats;
        let ring = TopologyCost::single_port(topo("ring"), n)
            .trace_cost(&placement, &trace)
            .stats;
        assert!(
            ring.shifts <= linear.shifts,
            "{name}: ring {} > linear {}",
            ring.shifts,
            linear.shifts
        );
        assert_eq!(ring.accesses(), linear.accesses());
    }
}

#[test]
fn one_row_grid_is_byte_identical_to_linear() {
    // With a single row the transverse term is identically zero and
    // the grid must degenerate to the linear tape — same stats, not
    // merely the same total.
    for (name, trace) in kernels() {
        let graph = AccessGraph::from_trace(&trace);
        let placement = Hybrid::default().place(&graph);
        let n = graph.num_items();
        for ports in [1usize, 2, 4] {
            let layout = PortLayout::evenly_spaced(ports, n);
            let grid = TopologyCost::new(topo(&format!("grid2d:1x{n}")), layout.clone(), n)
                .trace_cost(&placement, &trace)
                .stats;
            let linear = TopologyCost::new(Topology::linear(), layout, n)
                .trace_cost(&placement, &trace)
                .stats;
            assert_eq!(grid, linear, "{name} at {ports} port(s)");
        }
    }
}

// ---------------------------------------------------- linear golden pin

/// The independent linear reference: from rest, each access aligns its
/// word with the port needing the fewest shifts (ties to the lowest
/// position), folded straight over the sorted port positions.
fn nearest_port_reference(ports: &PortLayout, placement: &Placement, trace: &Trace) -> ShiftStats {
    let mut stats = ShiftStats::new();
    let mut displacement = 0i64;
    for a in trace.iter() {
        let offset = placement.offset_of_id(a.item) as i64;
        let (distance, target) = ports
            .positions()
            .iter()
            .map(|&p| {
                let target = offset - p as i64;
                (target.abs_diff(displacement), target)
            })
            .min_by_key(|&(d, _)| d)
            .expect("at least one port");
        stats.record(distance, a.kind.is_write());
        displacement = target;
    }
    stats
}

/// One artifact string per (kernel, replay path). Every analytic
/// string is asserted equal to the reference fold before it is hashed.
fn linear_artifacts() -> Vec<(String, String)> {
    let mut out = Vec::new();
    for (name, trace) in kernels() {
        let graph = AccessGraph::from_trace(&trace);
        let placement = Hybrid::default().place(&graph);
        let n = graph.num_items();

        // Analytic single-port.
        let single = TopologyCost::single_port(Topology::linear(), n)
            .trace_cost(&placement, &trace)
            .stats;
        let reference = nearest_port_reference(&PortLayout::single(), &placement, &trace);
        assert_eq!(single, reference, "{name}: linear single-port drifted");
        out.push((
            format!("{name}/single-port"),
            dwm_foundation::json::to_string(&single),
        ));

        // Analytic multi-port (nearest-port policy over 2 ports).
        let layout = PortLayout::evenly_spaced(2, n);
        let reference = nearest_port_reference(&layout, &placement, &trace);
        let multi = TopologyCost::new(Topology::linear(), layout, n)
            .trace_cost(&placement, &trace)
            .stats;
        assert_eq!(multi, reference, "{name}: linear multi-port drifted");
        out.push((
            format!("{name}/multi-port"),
            dwm_foundation::json::to_string(&multi),
        ));

        // Bit-level simulator report (device layer consumes the same
        // topology plans).
        let config = DeviceConfig::builder()
            .domains_per_track(n)
            .tracks_per_dbc(32)
            .build()
            .expect("valid config");
        let mut sim = SpmSimulator::new(&config, &placement).expect("fits");
        let report = sim.run(&trace).expect("replay");
        assert_eq!(report.integrity_errors, 0, "{name}: integrity");
        assert_eq!(
            report.stats.shifts, single.shifts,
            "{name}: simulator disagrees with the analytic linear model"
        );
        out.push((
            format!("{name}/sim"),
            format!(
                "{} integrity={}",
                dwm_foundation::json::to_string(&report.stats),
                report.integrity_errors
            ),
        ));
    }
    out
}

/// Golden hashes of the pre-topology linear replay (see module docs:
/// captured through the cost models that predate the `TrackTopology`
/// refactor).
const GOLDEN: &[(&str, u64)] = &[
    ("fft/single-port", 0xd9fdaf61df598afa),
    ("fft/multi-port", 0x2ef70ed358d41c5b),
    ("fft/sim", 0x5e20e01a2190d100),
    ("matmul/single-port", 0xba1024039f78b638),
    ("matmul/multi-port", 0x43e477683a83c867),
    ("matmul/sim", 0x7288f500cb85472a),
    ("isort/single-port", 0x9febd2ab2f23df67),
    ("isort/multi-port", 0x369bf0f2d18a9756),
    ("isort/sim", 0xe12848683bb9f919),
];

fn check_against_golden(label: &str) {
    let actual = linear_artifacts();
    if std::env::var("DWM_GOLDEN_PRINT").is_ok() {
        for (name, text) in &actual {
            println!("    (\"{name}\", 0x{:016x}),", fnv64(text));
        }
    }
    assert_eq!(actual.len(), GOLDEN.len(), "artifact roster drifted");
    for ((name, text), (gname, ghash)) in actual.iter().zip(GOLDEN) {
        assert_eq!(name, gname, "artifact roster order drifted");
        assert_eq!(
            fnv64(text),
            *ghash,
            "{label}: '{name}' diverged from the pre-topology linear replay \
             (rerun with DWM_GOLDEN_PRINT=1 only for intentional model changes)"
        );
    }
}

#[test]
fn linear_replay_matches_pre_topology_goldens_at_1_thread() {
    let _guard = ENV_LOCK.lock().unwrap();
    with_threads(1, || check_against_golden("DWM_THREADS=1"));
}

#[test]
fn linear_replay_matches_pre_topology_goldens_at_8_threads() {
    let _guard = ENV_LOCK.lock().unwrap();
    with_threads(8, || check_against_golden("DWM_THREADS=8"));
}
