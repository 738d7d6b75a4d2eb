//! CSR-rewire equivalence: the CSR access graph must be a pure
//! representation change.
//!
//! Every solver's output is pinned to a golden FNV-1a hash of its
//! serialized placement, captured from the pre-CSR `BTreeMap`
//! adjacency implementation. The hashes must stay identical after the
//! rewire onto the CSR `AccessGraph` / `ArrangementEval` — any drift
//! means a heuristic changed, not just its data layout. Each artifact
//! is also required to be byte-identical at `DWM_THREADS=1` and `=8`,
//! so the CSR paths keep the pool-size-invariance contract of
//! `tests/parallel.rs`.
//!
//! Regenerating (only after an *intentional* heuristic change): run
//! with `DWM_GOLDEN_PRINT=1` and paste the printed table.

use std::sync::Mutex;

use dwm_placement::core::algorithms::TraceRefiner;
use dwm_placement::core::online::{OnlineConfig, OnlinePlacer};
use dwm_placement::core::partition::{Objective, Partitioner};
use dwm_placement::graph::generators::{clustered_graph, random_graph};
use dwm_placement::prelude::*;
use dwm_placement::trace::kernels::Kernel;
use dwm_placement::trace::synth::{MarkovGen, TraceGenerator};

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

fn json(p: &Placement) -> String {
    dwm_foundation::json::to_string(p)
}

/// Every solver and refiner the CSR rewire touches, as (name, artifact)
/// pairs. Deterministic: all inputs are seeded.
fn artifacts() -> Vec<(&'static str, String)> {
    let mut out: Vec<(&'static str, String)> = Vec::new();

    let markov = MarkovGen::new(96, 12, 0xBEEC).generate(1920).normalize();
    let mg = AccessGraph::from_trace(&markov);
    let rg = random_graph(40, 0.3, 6, 7);
    let cg = clustered_graph(36, 6, 0.85, 0.1, 8, 5);

    // Constructive algorithms on the Markov-clustered graph.
    out.push(("chain", json(&ChainGrowth.place(&mg))));
    out.push(("grouped-chain", json(&GroupedChainGrowth.place(&mg))));
    out.push(("organ-pipe", json(&OrganPipe.place(&mg))));
    out.push(("spectral", json(&Spectral::default().place(&mg))));
    out.push(("insertion", json(&GreedyInsertion.place(&mg))));
    out.push(("insertion/random", json(&GreedyInsertion.place(&rg))));

    // Stochastic / refining algorithms.
    out.push((
        "annealing",
        json(&SimulatedAnnealing::new(11).with_iterations(4000).place(&rg)),
    ));
    out.push(("local-search", {
        let mut p = RandomPlacement::new(3).place(&mg);
        let saved = LocalSearch::default().refine(&mg, &mut p);
        format!("{} saved={saved}", json(&p))
    }));
    // The scalar reference kernel must stay byte-identical to the
    // window-local kernel above (same golden hash): the kernel is a
    // performance decision, never a behavioral one.
    out.push(("local-search/scalar", {
        let mut p = RandomPlacement::new(3).place(&mg);
        let saved = LocalSearch::default().refine_scalar(&mg, &mut p);
        format!("{} saved={saved}", json(&p))
    }));
    out.push(("window-dp", {
        let mut p = RandomPlacement::new(5).place(&rg);
        let saved = WindowedDp::default().refine(&rg, &mut p);
        format!("{} saved={saved}", json(&p))
    }));
    out.push(("hybrid", json(&Hybrid::default().place(&mg))));
    out.push(("multi-start", json(&MultiStart::new(3, 9).place(&cg))));

    // Exact solvers.
    let xg = random_graph(12, 0.5, 8, 0xD15C);
    let (dp, dp_cost) = optimal_placement(&xg).expect("solvable");
    out.push(("exact-dp", format!("{} cost={dp_cost}", json(&dp))));
    let (bb, bb_cost) = branch_and_bound_placement(&xg).expect("solvable");
    out.push(("exact-bb", format!("{} cost={bb_cost}", json(&bb))));

    // Partitioning (KL swap refinement) under both objectives.
    for (name, objective) in [
        ("partition/min-external", Objective::MinimizeExternal),
        ("partition/min-internal", Objective::MinimizeInternal),
    ] {
        let part = Partitioner::new(6, 6)
            .with_objective(objective)
            .partition(&cg)
            .expect("fits");
        out.push((name, dwm_foundation::json::to_string(&part)));
    }

    // Trace-replaying paths.
    let trace = Kernel::MatMul { n: 8, block: 2 }.trace();
    let tg = AccessGraph::from_trace(&trace);
    out.push(("trace-refine", {
        let n = tg.num_items();
        let model = TopologyCost::new(Topology::linear(), PortLayout::evenly_spaced(4, n), n);
        let mut p = Hybrid::default().place(&tg);
        let saved = TraceRefiner::default().refine(&model, &trace, &mut p);
        let cost = model.trace_cost(&p, &trace).stats.shifts;
        format!("{} saved={saved} cost={cost}", json(&p))
    }));
    out.push(("online", {
        let report = OnlinePlacer::new(OnlineConfig {
            window: 256,
            migration_shifts_per_item: 8,
            ..OnlineConfig::default()
        })
        .run(&trace);
        format!(
            "{} total={} migrations={}",
            json(&report.final_placement),
            report.total_shifts(),
            report.migrations
        )
    }));

    out
}

/// Golden hashes captured from the pre-CSR implementation (seed commit
/// lineage: `BTreeMap` adjacency walks in every inner loop).
const GOLDEN: &[(&str, u64)] = &[
    ("chain", 0x80f36887b38c46ab),
    ("grouped-chain", 0x502b02a2bc62637f),
    ("organ-pipe", 0x0836ef7699767899),
    ("spectral", 0xe4c04ccd70b78571),
    ("insertion", 0x8a196729f003c8f9),
    ("insertion/random", 0x215c842e03a9c1db),
    ("annealing", 0x9dd3eefbf441267b),
    ("local-search", 0xd19e48e414ca72e8),
    ("local-search/scalar", 0xd19e48e414ca72e8),
    ("window-dp", 0xa5227ffb3dfc8772),
    ("hybrid", 0xe8c1d4aaee982cbd),
    ("multi-start", 0x3a2b9f3e2c421b0b),
    ("exact-dp", 0x45772a1f9c973cf9),
    ("exact-bb", 0x45772a1f9c973cf9),
    ("partition/min-external", 0xb2470907221af344),
    ("partition/min-internal", 0xa12b05815425fdca),
    ("trace-refine", 0xaf7b203006eb557e),
    ("online", 0xc2658920fa120cc6),
];

fn check_against_golden(label: &str) {
    let actual = artifacts();
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
            "{label}: '{name}' diverged from the pre-CSR golden placement \
             (rerun with DWM_GOLDEN_PRINT=1 only for intentional heuristic changes)"
        );
    }
}

#[test]
fn solver_outputs_match_pre_csr_goldens_at_1_thread() {
    let _guard = ENV_LOCK.lock().unwrap();
    with_threads(1, || check_against_golden("DWM_THREADS=1"));
}

#[test]
fn solver_outputs_match_pre_csr_goldens_at_8_threads() {
    let _guard = ENV_LOCK.lock().unwrap();
    with_threads(8, || check_against_golden("DWM_THREADS=8"));
}
