//! Property-based tests over the core invariants.
//!
//! These check the invariants listed in `DESIGN.md` §7 on randomly
//! generated traces, graphs, and placements rather than hand-picked
//! cases, using the seeded [`Checker`] harness from `dwm-foundation`
//! (48 cases per property; crank `DWM_CHECK_CASES` for soak runs, or
//! replay one failure with `DWM_CHECK_SEED`).

use dwm_foundation::{require, require_eq, Checker, Rng};
use dwm_placement::core::algorithms::standard_suite;
use dwm_placement::core::exact::optimal_placement;
use dwm_placement::prelude::*;

/// Generator: a random trace over `1..=max_items` items.
fn arb_trace(rng: &mut Rng, max_items: usize, max_len: usize) -> Trace {
    let items = rng.gen_range(1..=max_items);
    let len = rng.gen_range(1..=max_len);
    Trace::from_accesses((0..len).map(|_| {
        let id = rng.gen_range(0..items as u32);
        if rng.gen_bool(0.5) {
            Access::write(id)
        } else {
            Access::read(id)
        }
    }))
    .normalize()
}

/// Generator: a random access graph over `1..=n` items.
fn arb_graph(rng: &mut Rng, n: usize) -> AccessGraph {
    AccessGraph::from_trace(&arb_trace(rng, n, 200))
}

/// Every algorithm always produces a bijection.
#[test]
fn placements_are_permutations() {
    Checker::new("placements_are_permutations").run(
        |rng| (arb_graph(rng, 24), rng.gen_range(0..1000u64)),
        |(graph, seed)| {
            for alg in standard_suite(*seed) {
                let p = alg.place(graph);
                require_eq!(p.num_items(), graph.num_items());
                let mut seen = vec![false; graph.num_items()];
                for off in 0..graph.num_items() {
                    let item = p.item_at(off);
                    require!(!seen[item], "{} duplicated item", alg.name());
                    seen[item] = true;
                    require_eq!(p.offset_of(item), off);
                }
            }
            Ok(())
        },
    );
}

/// Trace replay cost = arrangement cost + first-access alignment,
/// for any placement and any trace (single-port model).
#[test]
fn trace_cost_equals_graph_cost_plus_alignment() {
    Checker::new("trace_cost_equals_graph_cost_plus_alignment").run(
        |rng| (arb_trace(rng, 16, 300), rng.gen_range(0..100u64)),
        |(trace, seed)| {
            let graph = AccessGraph::from_trace(trace);
            let placement = RandomPlacement::new(*seed).place(&graph);
            let model = TopologyCost::single_port(Topology::linear(), graph.num_items());
            let replay = model.trace_cost(&placement, trace).stats.shifts;
            let arrangement = graph.arrangement_cost(placement.offsets());
            let first = trace.accesses()[0].item;
            let alignment = placement.offset_of_id(first) as u64;
            require_eq!(replay, arrangement + alignment);
            Ok(())
        },
    );
}

/// No heuristic ever beats the exact optimum (n ≤ 9 keeps the DP fast
/// under the property-case count).
#[test]
fn heuristics_respect_the_optimum() {
    Checker::new("heuristics_respect_the_optimum").run(
        |rng| (arb_graph(rng, 9), rng.gen_range(0..100u64)),
        |(graph, seed)| {
            let (_, opt) = optimal_placement(graph).expect("small instance");
            for alg in standard_suite(*seed) {
                let cost = graph.arrangement_cost(alg.place(graph).offsets());
                require!(
                    cost >= opt,
                    "{} cost {} below optimum {}",
                    alg.name(),
                    cost,
                    opt
                );
            }
            Ok(())
        },
    );
}

/// Local search never increases the arrangement cost, from any
/// starting placement.
#[test]
fn local_search_is_monotone() {
    Checker::new("local_search_is_monotone").run(
        |rng| (arb_graph(rng, 20), rng.gen_range(0..1000u64)),
        |(graph, seed)| {
            let mut p = RandomPlacement::new(*seed).place(graph);
            let before = graph.arrangement_cost(p.offsets());
            let saved = LocalSearch::default().refine(graph, &mut p);
            let after = graph.arrangement_cost(p.offsets());
            require!(after <= before);
            require_eq!(before - after, saved);
            Ok(())
        },
    );
}

/// Every way of asking for one port puts it at offset 0, and the
/// linear model then charges exactly the pairwise `|Δoffset|` of
/// consecutive accesses, on every trace and placement.
#[test]
fn single_port_models_agree() {
    Checker::new("single_port_models_agree").run(
        |rng| (arb_trace(rng, 16, 200), rng.gen_range(0..100u64)),
        |(trace, seed)| {
            let graph = AccessGraph::from_trace(trace);
            let p = RandomPlacement::new(*seed).place(&graph);
            let l = graph.num_items();
            let config = DeviceConfig::builder()
                .domains_per_track(l)
                .ports(1)
                .build()
                .expect("valid");
            require_eq!(config.port_layout(), &PortLayout::single());
            require_eq!(PortLayout::evenly_spaced(1, l), PortLayout::single());
            // Reference: the tape starts with offset 0 under the port.
            let mut at = 0usize;
            let pairwise: u64 = trace
                .iter()
                .map(|a| {
                    let next = p.offset_of_id(a.item);
                    let d = at.abs_diff(next) as u64;
                    at = next;
                    d
                })
                .sum();
            let model = TopologyCost::single_port(Topology::linear(), l);
            require_eq!(model.trace_cost(&p, trace).stats.shifts, pairwise);
            Ok(())
        },
    );
}

/// Mirroring a placement never changes its arrangement cost (the cost
/// model is symmetric).
#[test]
fn mirror_preserves_cost() {
    Checker::new("mirror_preserves_cost").run(
        |rng| (arb_graph(rng, 16), rng.gen_range(0..100u64)),
        |(graph, seed)| {
            let mut p = RandomPlacement::new(*seed).place(graph);
            let before = graph.arrangement_cost(p.offsets());
            p.mirror();
            require_eq!(graph.arrangement_cost(p.offsets()), before);
            Ok(())
        },
    );
}

/// Text serialization round-trips every trace exactly.
#[test]
fn trace_text_round_trip() {
    use dwm_placement::trace::io;
    Checker::new("trace_text_round_trip").run(
        |rng| arb_trace(rng, 32, 300),
        |trace| {
            let text = io::to_text(trace);
            let back = io::from_text(&text).expect("own output parses");
            require_eq!(&back, trace);
            Ok(())
        },
    );
}

/// JSON serialization round-trips every trace exactly.
#[test]
fn trace_json_round_trip() {
    use dwm_placement::trace::io;
    Checker::new("trace_json_round_trip").run(
        |rng| arb_trace(rng, 32, 300),
        |trace| {
            let json = io::to_json(trace);
            let back = io::from_json(&json).expect("own output parses");
            require_eq!(&back, trace);
            Ok(())
        },
    );
}

/// The simulator always matches the analytic model and never sees
/// integrity errors, on random traces and random placements.
#[test]
fn simulator_matches_model_on_random_traces() {
    Checker::new("simulator_matches_model_on_random_traces").run(
        |rng| (arb_trace(rng, 12, 150), rng.gen_range(0..50u64)),
        |(trace, seed)| {
            let graph = AccessGraph::from_trace(trace);
            let p = RandomPlacement::new(*seed).place(&graph);
            let analytic = TopologyCost::single_port(Topology::linear(), graph.num_items())
                .trace_cost(&p, trace)
                .stats
                .shifts;
            // Three-way cross-validation: the frozen CSR arrangement
            // cost must match the analytic replay (minus the first
            // alignment) and the bit-level simulator below.
            let csr_cost = CsrGraph::freeze(&graph).arrangement_cost(p.offsets());
            let alignment = p.offset_of_id(trace.accesses()[0].item) as u64;
            require_eq!(csr_cost + alignment, analytic);
            let config = DeviceConfig::builder()
                .domains_per_track(graph.num_items().max(1))
                .tracks_per_dbc(16)
                .build()
                .expect("valid");
            let mut sim = SpmSimulator::new(&config, &p).expect("fits");
            let report = sim.run(trace).expect("replay");
            require_eq!(report.stats.shifts, analytic);
            require_eq!(report.integrity_errors, 0);
            Ok(())
        },
    );
}

/// Freezing a graph into CSR form preserves every query: edge
/// iteration (order included), degrees, total weight, arrangement
/// costs, and bitmask cut weights.
#[test]
fn csr_freeze_preserves_graph_queries() {
    Checker::new("csr_freeze_preserves_graph_queries").run(
        |rng| {
            (
                arb_graph(rng, 24),
                rng.gen_range(0..1000u64),
                rng.gen_range(0..u64::MAX),
            )
        },
        |(graph, seed, raw_set)| {
            let csr = CsrGraph::freeze(graph);
            require_eq!(csr.num_items(), graph.num_items());
            let a: Vec<Edge> = graph.edges().collect();
            let b: Vec<Edge> = csr.edges().collect();
            require_eq!(a, b);
            require_eq!(csr.total_weight(), graph.total_weight());
            for v in 0..graph.num_items() {
                require_eq!(csr.degree(v), graph.degree(v));
                let gn: Vec<(usize, u64)> = graph.neighbors(v).collect();
                let cn: Vec<(usize, u64)> = csr.neighbors(v).collect();
                require_eq!(gn, cn);
            }
            let p = RandomPlacement::new(*seed).place(graph);
            require_eq!(
                csr.arrangement_cost(p.offsets()),
                graph.arrangement_cost(p.offsets())
            );
            let set = raw_set & ((1u64 << graph.num_items()) - 1);
            require_eq!(csr.cut_weight_mask(set), graph.cut_weight_mask(set));
            Ok(())
        },
    );
}

/// The incremental arrangement evaluator's running total equals a full
/// recomputation after any sequence of swaps, relocations, and undos,
/// and a full unwind restores the starting state exactly.
#[test]
fn arrangement_eval_matches_full_recompute() {
    Checker::new("arrangement_eval_matches_full_recompute").run(
        |rng| {
            let graph = arb_graph(rng, 20);
            let n = graph.num_items();
            let seed = rng.gen_range(0..1000u64);
            let moves: Vec<(u8, usize, usize)> = (0..40)
                .map(|_| {
                    (
                        rng.gen_range(0u8..5),
                        rng.gen_range(0..n),
                        rng.gen_range(0..n),
                    )
                })
                .collect();
            (graph, seed, moves)
        },
        |(graph, seed, moves)| {
            let csr = CsrGraph::freeze(graph);
            let start = RandomPlacement::new(*seed).place(graph);
            let mut eval = ArrangementEval::new(&csr, start.offsets());
            let initial = eval.total();
            require_eq!(initial, graph.arrangement_cost(start.offsets()));
            for &(kind, x, y) in moves {
                match kind {
                    // Swap two items (by item index).
                    0 | 1 => {
                        let delta = eval.swap_delta(x, y);
                        eval.apply_swap_with_delta(x, y, delta);
                    }
                    // Relocate between two slots.
                    2 | 3 => {
                        eval.apply_relocate(x, y);
                    }
                    // Undo the most recent move, if any.
                    _ => {
                        eval.undo();
                    }
                }
                require_eq!(eval.total(), graph.arrangement_cost(eval.positions()));
            }
            while eval.undo() {}
            require_eq!(eval.total(), initial);
            require_eq!(eval.positions(), start.offsets());
            Ok(())
        },
    );
}

/// Graph construction: total edge weight equals the number of
/// distinct-item transitions in the trace.
#[test]
fn graph_weight_matches_transitions() {
    Checker::new("graph_weight_matches_transitions").run(
        |rng| arb_trace(rng, 24, 300),
        |trace| {
            let graph = AccessGraph::from_trace(trace);
            require_eq!(graph.total_weight() as usize, trace.stats().transitions);
            Ok(())
        },
    );
}

/// SPM layouts assign every item a unique in-capacity slot.
#[test]
fn spm_layouts_are_injective() {
    Checker::new("spm_layouts_are_injective").run(
        |rng| arb_trace(rng, 24, 300),
        |trace| {
            let alloc = SpmAllocator::new(4, 8);
            let layout = alloc
                .allocate(trace, &GroupedChainGrowth)
                .expect("24 items fit 4x8");
            let mut slots = std::collections::HashSet::new();
            for item in 0..layout.num_items() {
                require!(layout.dbc_of(item) < 4);
                require!(layout.offset_of(item) < 8);
                require!(slots.insert((layout.dbc_of(item), layout.offset_of(item))));
            }
            Ok(())
        },
    );
}

/// The branch-and-bound exact solver always matches the subset-DP
/// optimum on random access graphs.
#[test]
fn exact_solvers_agree() {
    use dwm_placement::core::exact_bb::branch_and_bound_placement;
    Checker::new("exact_solvers_agree").run(
        |rng| arb_graph(rng, 10),
        |graph| {
            let (_, dp) = optimal_placement(graph).expect("small instance");
            let (p, bb) = branch_and_bound_placement(graph).expect("small instance");
            require_eq!(dp, bb);
            require_eq!(graph.arrangement_cost(p.offsets()), bb);
            Ok(())
        },
    );
}

/// On every topology, a typed port layout with every port read-write
/// agrees with the untyped model; removing writers never helps.
#[test]
fn typed_ports_are_consistent() {
    Checker::new("typed_ports_are_consistent").run(
        |rng| (arb_trace(rng, 16, 200), rng.gen_range(0..50u64)),
        |(trace, seed)| {
            let graph = AccessGraph::from_trace(trace);
            let p = RandomPlacement::new(*seed).place(&graph);
            let l = 16usize;
            for spec in ["linear", "ring", "grid2d:4x4", "pirm:4"] {
                let topology = Topology::parse(spec).expect("valid spec");
                let shifts = |model: TopologyCost| model.trace_cost(&p, trace).stats.shifts;
                let typed = |writers| {
                    let ports = TypedPortLayout::evenly_spaced(4, writers, l);
                    TopologyCost::typed(topology, &ports, l)
                };
                let untyped = TopologyCost::new(topology, PortLayout::evenly_spaced(4, l), l);
                let all_rw = shifts(typed(4));
                require_eq!(all_rw, shifts(untyped), "{spec}");
                require!(shifts(typed(1)) >= all_rw, "{spec}");
            }
            Ok(())
        },
    );
}

/// Cache invariants: hits + misses = accesses; shift count is
/// consistent with way distances (bounded by ways−1 per access +
/// promotions).
#[test]
fn cache_counters_are_consistent() {
    Checker::new("cache_counters_are_consistent").run(
        |rng| arb_trace(rng, 64, 400),
        |trace| {
            let mut cache = DwmCache::new(CacheConfig::new(4, 4).expect("valid"));
            let stats = cache.run_trace(trace);
            require_eq!(stats.accesses(), trace.len() as u64);
            require!(stats.shifts <= stats.accesses() * 3);
            require!(stats.hit_ratio() >= 0.0 && stats.hit_ratio() <= 1.0);
            Ok(())
        },
    );
}

/// Start-gap rotation conserves total writes and never leaves the
/// slot histogram inconsistent with the trace's write count.
#[test]
fn wear_rotation_conserves_writes() {
    use dwm_placement::core::wear::{RotatingEvaluator, WearConfig};
    Checker::new("wear_rotation_conserves_writes").run(
        |rng| (arb_trace(rng, 16, 300), rng.gen_range(1..50u64)),
        |(trace, period)| {
            let n = trace.num_items();
            let placement = Placement::identity(n);
            let report = RotatingEvaluator::new(WearConfig::every_writes(*period, n))
                .evaluate(&placement, trace);
            let total_writes: u64 = report.slot_writes.iter().sum();
            require_eq!(total_writes, trace.stats().writes as u64);
            require_eq!(
                report.total_shifts(),
                report.access_shifts + report.rotation_shifts
            );
            Ok(())
        },
    );
}

/// Streaming a trace through a [`DeltaGraph`] — under a random
/// refreeze cadence — answers every query exactly like an
/// [`AccessGraph`] rebuilt from scratch, and after a final refreeze
/// the frozen CSR base is field-identical (`==`, covering every
/// derived cache) to freezing the rebuilt graph. The serve session
/// subsystem's determinism rests on this.
fn check_delta_graph_matches_rebuilt(name: &str, threads: usize) {
    use dwm_foundation::par;
    let _guard = par::override_threads(threads);
    Checker::new(name).run(
        |rng| {
            (
                arb_trace(rng, 24, 400),
                rng.gen_range(0..64usize),
                rng.gen_range(0..100u64),
            )
        },
        |(trace, refreeze_every, seed)| {
            let n = trace.num_items();
            let mut delta = DeltaGraph::new(n);
            let mut scratch = AccessGraph::with_items(n);
            let mut last: Option<usize> = None;
            for (step, access) in trace.accesses().iter().enumerate() {
                let i = access.item.index();
                delta.record_access(i);
                scratch.set_frequency(i, scratch.frequency(i) + 1);
                if let Some(prev) = last {
                    if prev != i {
                        delta.add_weight(prev, i, 1);
                        scratch.add_weight(prev, i, 1);
                    }
                }
                last = Some(i);
                if *refreeze_every > 0 && step % refreeze_every == 0 {
                    delta.maybe_refreeze(*refreeze_every);
                }
            }
            // Every live query agrees with the rebuilt graph.
            require_eq!(delta.num_items(), scratch.num_items());
            require_eq!(delta.num_edges(), scratch.num_edges());
            require_eq!(delta.total_weight(), scratch.total_weight());
            require_eq!(delta.frequencies(), scratch.frequencies());
            for u in 0..n {
                require_eq!(delta.degree(u), scratch.degree(u));
                for v in 0..n {
                    if u != v {
                        require_eq!(delta.weight(u, v), scratch.weight(u, v));
                    }
                }
            }
            let p = RandomPlacement::new(*seed).place(&scratch);
            require_eq!(
                delta.arrangement_cost(p.offsets()),
                scratch.arrangement_cost(p.offsets())
            );
            require_eq!(delta.fingerprint(), fingerprint(&scratch));
            require!(
                delta.to_access_graph() == scratch,
                "to_access_graph diverged from the rebuilt graph"
            );
            // After a forced refreeze, the CSR base must be identical
            // to freezing the rebuilt graph — same adjacency, same
            // derived caches, byte for byte.
            delta.refreeze();
            require_eq!(delta.base(), &CsrGraph::freeze(&scratch));
            require_eq!(delta.fingerprint(), fingerprint(&scratch));
            Ok(())
        },
    );
}

/// Delta-overlay maintenance equals rebuild-from-scratch, sequentially.
#[test]
fn delta_graph_matches_rebuilt_graph_at_one_thread() {
    check_delta_graph_matches_rebuilt("delta_graph_matches_rebuilt_graph_at_one_thread", 1);
}

/// The same equivalence with the worker pool at width 8 — graph
/// maintenance must not depend on `DWM_THREADS`.
#[test]
fn delta_graph_matches_rebuilt_graph_at_eight_threads() {
    check_delta_graph_matches_rebuilt("delta_graph_matches_rebuilt_graph_at_eight_threads", 8);
}

/// The online placer's access+migration accounting is internally
/// consistent and its final placement is a valid permutation.
#[test]
fn online_placer_invariants() {
    use dwm_placement::core::online::{OnlineConfig, OnlinePlacer};
    Checker::new("online_placer_invariants").run(
        |rng| arb_trace(rng, 16, 600),
        |trace| {
            let report = OnlinePlacer::new(OnlineConfig {
                window: 100,
                migration_shifts_per_item: 8,
                ..OnlineConfig::default()
            })
            .run(trace);
            require_eq!(
                report.total_shifts(),
                report.access_shifts + report.migration_shifts
            );
            let p = &report.final_placement;
            let mut seen = vec![false; p.num_items()];
            for off in 0..p.num_items() {
                require!(!seen[p.item_at(off)]);
                seen[p.item_at(off)] = true;
            }
            Ok(())
        },
    );
}

/// The pre-digest graph builder, kept only as the digest's reference:
/// normalize through a `Trace`, then count every transition into the
/// `BTreeMap` adjacency with `add_weight`.
fn reference_graph(ids: &[u32]) -> AccessGraph {
    let trace = Trace::from_ids(ids.iter().copied()).normalize();
    let mut g = AccessGraph::with_items(trace.num_items());
    for a in trace.iter() {
        let i = a.item.index();
        g.set_frequency(i, g.frequency(i) + 1);
    }
    for pair in trace.accesses().windows(2) {
        let (u, v) = (pair[0].item.index(), pair[1].item.index());
        if u != v {
            g.add_weight(u, v, 1);
        }
    }
    g
}

/// Generator: raw request ids. Lengths include 1; pools include a
/// single repeated id (no edges), dense ids, sparse ids with `0` and
/// `u32::MAX`, and wide random pools.
fn arb_ids(rng: &mut Rng) -> Vec<u32> {
    let len = if rng.gen_bool(0.2) {
        1
    } else {
        rng.gen_range(1..=400)
    };
    let pool: Vec<u32> = match rng.gen_range(0..4) {
        0 => vec![rng.gen_range(0..=u32::MAX)],
        1 => (0..rng.gen_range(1..=24u32)).collect(),
        2 => {
            let mut p: Vec<u32> = (0..rng.gen_range(1..=40))
                .map(|_| rng.gen_range(0..=u32::MAX))
                .collect();
            p.extend([0, u32::MAX]);
            p
        }
        _ => (0..rng.gen_range(1..=200))
            .map(|_| rng.gen_range(0..1000u32))
            .collect(),
    };
    (0..len)
        .map(|_| pool[rng.gen_range(0..pool.len())])
        .collect()
}

/// The digest the serving path keys on equals the old normalize +
/// `BTreeMap` builder: same graph, same fingerprint by every route.
#[test]
fn digest_matches_the_reference_graph_builder() {
    use dwm_placement::graph::fingerprint::fingerprint_csr;
    Checker::new("digest_matches_the_reference_graph_builder")
        .cases(256)
        .run(arb_ids, |ids| {
            let reference = reference_graph(ids);
            let digest = GraphDigest::from_ids(ids);
            require_eq!(digest.num_items(), reference.num_items());
            require_eq!(digest.num_edges(), reference.num_edges());
            require_eq!(digest.to_graph(), reference.clone());
            let frozen = fingerprint_csr(&CsrGraph::freeze(&reference), reference.frequencies());
            require_eq!(digest.fingerprint(), frozen);
            require_eq!(fingerprint(&reference), frozen);
            let normalized = Trace::from_ids(ids.iter().copied()).normalize();
            require_eq!(AccessGraph::from_trace(&normalized), reference);
            Ok(())
        });
}

/// Generator: one local-search differential case — a random,
/// clustered, Zipf-digest (hub-heavy) or edgeless graph over 2..=70
/// items, a window (0, 1, 4, 12 or at least the tape), a pass budget
/// and a random, chain or identity start.
fn arb_refinement(rng: &mut Rng) -> (AccessGraph, LocalSearch, Placement) {
    let n = rng.gen_range(2..=70usize);
    let seed = rng.next_u64();
    let graph = match rng.gen_range(0..4) {
        0 => random_graph(n, rng.gen_range(0.05..0.6), 9, seed),
        1 => clustered_graph(n, rng.gen_range(1..=8usize), 0.6, 0.05, 4, seed),
        2 => {
            let trace = ZipfGen::new(n, seed).generate(rng.gen_range(2..=40 * n));
            let ids: Vec<u32> = trace.iter().map(|a| a.item.index() as u32).collect();
            GraphDigest::from_ids(&ids).to_graph()
        }
        _ => AccessGraph::with_items(n),
    };
    let max_passes = [1, 3, 50][rng.gen_range(0..3usize)];
    let refiner = match rng.gen_range(0..5usize) {
        0 => LocalSearch {
            max_passes,
            window: 0,
        },
        w @ 1..=3 => LocalSearch::new(max_passes).with_window([1, 4, 12][w - 1]),
        _ => LocalSearch::new(max_passes)
            .with_window([n, n + 1, 1 << 40, usize::MAX][rng.gen_range(0..4usize)]),
    };
    let start = match rng.gen_range(0..3) {
        0 => RandomPlacement::new(seed).place(&graph),
        1 => ChainGrowth.place(&graph),
        _ => Placement::identity(graph.num_items()),
    };
    (graph, refiner, start)
}

/// The window-local local-search kernel makes exactly the scalar
/// reference's swaps: same placement, same saving, on every graph
/// shape, window, pass budget and start.
#[test]
fn local_search_kernels_agree() {
    Checker::new("local_search_kernels_agree").cases(400).run(
        arb_refinement,
        |(graph, refiner, start)| {
            let csr = CsrGraph::freeze(graph);
            let (mut fast, mut scalar) = (start.clone(), start.clone());
            let saved_fast = refiner.refine_frozen(&csr, &mut fast);
            let saved_scalar = refiner.refine_frozen_scalar(&csr, &mut scalar);
            require_eq!(fast, scalar);
            require_eq!(saved_fast, saved_scalar);
            Ok(())
        },
    );
}
