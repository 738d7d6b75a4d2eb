//! Property-based tests over the core invariants.
//!
//! These check the invariants listed in `DESIGN.md` §7 on randomly
//! generated traces, graphs, and placements rather than hand-picked
//! cases, using the seeded [`Checker`] harness from `dwm-foundation`
//! (48 cases per property; crank `DWM_CHECK_CASES` for soak runs, or
//! replay one failure with `DWM_CHECK_SEED`).

use std::collections::{BTreeMap, BTreeSet};

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
            // Three-way cross-validation: the graph's arrangement cost
            // must match the analytic replay (minus the first
            // alignment) and the bit-level simulator below.
            let csr_cost = graph.arrangement_cost(p.offsets());
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

/// The test-local reference graph: one `BTreeMap` row per vertex and
/// plain per-item counts, filled by direct counting. Every route to an
/// [`AccessGraph`] is checked against it query by query.
#[derive(Debug, Clone)]
struct Oracle {
    adj: Vec<BTreeMap<usize, u64>>,
    frequency: Vec<u64>,
}

impl Oracle {
    /// Counts a sequence over items `0..n`: one access per element and
    /// one unit of weight per transition between distinct items. Items
    /// that never occur stay isolated.
    fn from_dense(n: usize, seq: &[usize]) -> Self {
        let mut oracle = Oracle {
            adj: vec![BTreeMap::new(); n],
            frequency: vec![0; n],
        };
        for &i in seq {
            oracle.frequency[i] += 1;
        }
        for pair in seq.windows(2) {
            let (u, v) = (pair[0], pair[1]);
            if u != v {
                *oracle.adj[u].entry(v).or_insert(0) += 1;
                *oracle.adj[v].entry(u).or_insert(0) += 1;
            }
        }
        oracle
    }

    /// Counts raw ids after normalizing them through a `Trace` (the
    /// builder the digest replaced).
    fn from_ids(ids: &[u32]) -> Self {
        let trace = Trace::from_ids(ids.iter().copied()).normalize();
        let seq: Vec<usize> = trace.iter().map(|a| a.item.index()).collect();
        Oracle::from_dense(trace.num_items(), &seq)
    }

    /// Every edge once, `u < v`, in lexicographic order.
    fn edges(&self) -> Vec<(usize, usize, u64)> {
        self.adj
            .iter()
            .enumerate()
            .flat_map(|(u, row)| row.range(u + 1..).map(move |(&v, &w)| (u, v, w)))
            .collect()
    }

    /// Checks every query of `graph` against the oracle: rows and their
    /// order, weights, degrees, edges, total weight, the arrangement
    /// cost of a random placement, frequencies and the fingerprint.
    fn check(&self, graph: &AccessGraph, seed: u64) -> Result<(), String> {
        let n = self.adj.len();
        let edges = self.edges();
        require_eq!(graph.num_items(), n);
        require_eq!(graph.num_edges(), edges.len());
        require_eq!(graph.frequencies(), &self.frequency[..]);
        for (u, row) in self.adj.iter().enumerate() {
            let want: Vec<(usize, u64)> = row.iter().map(|(&v, &w)| (v, w)).collect();
            let got: Vec<(usize, u64)> = graph.neighbors(u).collect();
            require_eq!(got, want, "row {u}");
            let (vs, ws) = graph.neighbor_slices(u);
            let sliced: Vec<(usize, u64)> =
                vs.iter().zip(ws).map(|(&v, &w)| (v as usize, w)).collect();
            require_eq!(sliced, want, "row slices {u}");
            require_eq!(graph.degree(u), row.values().sum::<u64>(), "degree {u}");
            require_eq!(graph.frequency(u), self.frequency[u]);
            for v in 0..n.min(64) {
                let w = row.get(&v).copied().unwrap_or(0);
                require_eq!(graph.weight(u, v), w, "weight {u},{v}");
            }
        }
        let got: Vec<(usize, usize, u64)> = graph.edges().map(|e| (e.u, e.v, e.weight)).collect();
        require_eq!(got, edges);
        require_eq!(graph.total_weight(), edges.iter().map(|e| e.2).sum::<u64>());
        let p = RandomPlacement::new(seed).place(graph);
        let pos = p.offsets();
        let cost: u64 = edges
            .iter()
            .map(|&(u, v, w)| w * pos[u].abs_diff(pos[v]) as u64)
            .sum();
        require_eq!(graph.arrangement_cost(pos), cost);
        let rebuilt = AccessGraph::from_edges(self.frequency.clone(), edges);
        require_eq!(fingerprint(graph), fingerprint(&rebuilt));
        Ok(())
    }
}

/// Generator: a sequence over an alphabet of `1..=k` items inside an
/// item space of `n >= k` (trailing items never occur, as in session
/// windows and compiled programs), a refreeze cadence and a placement
/// seed.
fn arb_dense(rng: &mut Rng) -> (usize, Vec<usize>, usize, u64) {
    let k = rng.gen_range(1..=24usize);
    let n = k + rng.gen_range(0..=3usize);
    let len = rng.gen_range(0..=300usize);
    let seq = (0..len).map(|_| rng.gen_range(0..k)).collect();
    (n, seq, rng.gen_range(0..40usize), rng.gen_range(0..1000u64))
}

/// Every route to an [`AccessGraph`] answers every query exactly like
/// the `BTreeMap` oracle: [`GraphDigest::from_dense`] (with isolated
/// trailing items), [`AccessGraph::from_trace`], [`AccessGraph::from_edges`]
/// (edges split, flipped and shuffled), and
/// [`DeltaGraph::to_access_graph`] and its refrozen base.
#[test]
fn every_graph_route_matches_the_btreemap_oracle() {
    Checker::new("every_graph_route_matches_the_btreemap_oracle").run(
        arb_dense,
        |(n, seq, refreeze_every, seed)| {
            let (n, seed) = (*n, *seed);
            let oracle = Oracle::from_dense(n, seq);
            let digest = GraphDigest::from_dense(n, seq.iter().copied());
            oracle.check(&digest.to_graph(), seed)?;
            require_eq!(digest.fingerprint(), fingerprint(&digest.to_graph()));

            let ids: Vec<u32> = seq.iter().map(|&i| i as u32).collect();
            let normalized = Trace::from_ids(ids.iter().copied()).normalize();
            Oracle::from_ids(&ids).check(&AccessGraph::from_trace(&normalized), seed)?;

            let mut rng = Rng::seed_from_u64(seed);
            let mut pieces = Vec::new();
            for (u, v, w) in oracle.edges() {
                let split = rng.gen_range(0..=w);
                for part in [split, w - split] {
                    if part > 0 {
                        pieces.push(if rng.gen_bool(0.5) {
                            (u, v, part)
                        } else {
                            (v, u, part)
                        });
                    }
                }
            }
            for i in (1..pieces.len()).rev() {
                pieces.swap(i, rng.gen_range(0..=i));
            }
            let from_edges = AccessGraph::from_edges(oracle.frequency.clone(), pieces);
            oracle.check(&from_edges, seed)?;

            let mut delta = DeltaGraph::new(n);
            for (step, &i) in seq.iter().enumerate() {
                delta.record_access(i);
                if step > 0 && seq[step - 1] != i {
                    delta.add_weight(seq[step - 1], i, 1);
                }
                if *refreeze_every > 0 && step % refreeze_every == 0 {
                    delta.refreeze();
                }
            }
            oracle.check(&delta.to_access_graph(), seed)?;
            delta.refreeze();
            oracle.check(delta.base(), seed)?;
            Ok(())
        },
    );
}

/// The incremental arrangement evaluator's running total equals a full
/// recomputation after any sequence of swaps and undos, and a full
/// unwind restores the starting state exactly.
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
                        rng.gen_range(0u8..3),
                        rng.gen_range(0..n),
                        rng.gen_range(0..n),
                    )
                })
                .collect();
            (graph, seed, moves)
        },
        |(graph, seed, moves)| {
            let start = RandomPlacement::new(*seed).place(graph);
            let mut eval = ArrangementEval::new(graph, start.offsets());
            let initial = eval.total();
            require_eq!(initial, graph.arrangement_cost(start.offsets()));
            for &(kind, x, y) in moves {
                match kind {
                    // Swap two items (by item index).
                    0 | 1 => {
                        let delta = eval.swap_delta(x, y);
                        eval.apply_swap_with_delta(x, y, delta);
                    }
                    // Undo the most recent swap, if any.
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
/// refreeze cadence — counts in `overlay_edges` exactly the distinct
/// pairs added since the last refreeze, exports a graph equal (`==`)
/// to [`AccessGraph::from_trace`] of the whole trace (so every query
/// of it agrees with the rebuilt graph's), prices placements and
/// fingerprints like that graph, and after a final refreeze holds it
/// as its base, field for field (every derived cache included). The
/// serve session subsystem's determinism rests on this.
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
            let mut last: Option<usize> = None;
            // Distinct undirected pairs added since the last refreeze.
            let mut pending = BTreeSet::new();
            for (step, access) in trace.accesses().iter().enumerate() {
                let i = access.item.index();
                delta.record_access(i);
                if let Some(prev) = last {
                    if prev != i {
                        delta.add_weight(prev, i, 1);
                        pending.insert((prev.min(i), prev.max(i)));
                    }
                }
                last = Some(i);
                if *refreeze_every > 0
                    && step % refreeze_every == 0
                    && delta.maybe_refreeze(*refreeze_every)
                {
                    pending.clear();
                }
                require_eq!(delta.overlay_edges(), pending.len(), "step {step}");
            }
            require_eq!(delta.num_items(), n);
            let rebuilt = AccessGraph::from_trace(trace);
            let p = RandomPlacement::new(*seed).place(&rebuilt);
            require_eq!(
                delta.arrangement_cost(p.offsets()),
                rebuilt.arrangement_cost(p.offsets())
            );
            require_eq!(delta.fingerprint(), fingerprint(&rebuilt));
            require!(
                delta.to_access_graph() == rebuilt,
                "to_access_graph diverged from the rebuilt graph"
            );
            // After a forced refreeze, the base must be identical to
            // the rebuilt graph — same rows, same derived caches, same
            // frequencies.
            delta.refreeze();
            require_eq!(delta.base(), &rebuilt);
            require_eq!(delta.fingerprint(), fingerprint(&rebuilt));
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
/// `BTreeMap` builder: same rows, same queries, same fingerprint by
/// every route.
#[test]
fn digest_matches_the_reference_graph_builder() {
    Checker::new("digest_matches_the_reference_graph_builder")
        .cases(256)
        .run(arb_ids, |ids| {
            let reference = Oracle::from_ids(ids);
            let digest = GraphDigest::from_ids(ids);
            require_eq!(digest.num_items(), reference.adj.len());
            require_eq!(digest.num_edges(), reference.edges().len());
            require_eq!(digest.frequencies(), &reference.frequency[..]);
            let graph = digest.to_graph();
            let seed = u64::from(ids[0]);
            reference.check(&graph, seed)?;
            require_eq!(digest.fingerprint(), fingerprint(&graph));
            let normalized = Trace::from_ids(ids.iter().copied()).normalize();
            require_eq!(AccessGraph::from_trace(&normalized), graph);
            Ok(())
        });
}

/// Generator: one case on a chosen side of each digest selection. The
/// item count `n` is small, at the matrix's cell cap (256 items) or
/// just past it; the length sits just below, exactly at or just above
/// the shortest the matrix admits for `n` (`n² ≤ 4 · accesses`), or
/// anywhere up to twice it. The first accesses visit distinct items, so
/// `from_ids` sees as many items as the length allows. Raw ids are all
/// below the direct-table bound, all at or above it, or mixed, with
/// `0`, the bound's neighbours and `u32::MAX` among them.
fn arb_selection(rng: &mut Rng) -> (usize, Vec<usize>, Vec<u32>) {
    let n = match rng.gen_range(0..3) {
        0 => rng.gen_range(1..=16usize),
        1 => rng.gen_range(17..=96usize),
        _ => [255, 256, 257][rng.gen_range(0..3usize)],
    };
    let cells_per_access = GraphDigest::CELLS_PER_ACCESS;
    let shortest = (n * n).div_ceil(cells_per_access);
    let len = match rng.gen_range(0..4) {
        0 => shortest.saturating_sub(1),
        1 => shortest,
        2 => shortest + 1,
        _ => rng.gen_range(0..=2 * shortest),
    };
    let mut seq: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut seq);
    seq.truncate(len);
    seq.extend((seq.len()..len).map(|_| rng.gen_range(0..n)));

    let bound = GraphDigest::DIRECT_IDS;
    let mode = rng.gen_range(0..3);
    let mut pool = BTreeSet::new();
    let edges = [0, 1, bound - 1, bound, bound + 1, u32::MAX - 1, u32::MAX];
    for id in edges {
        let direct = id < bound;
        if (mode == 0 && direct) || (mode == 1 && !direct) || (mode == 2 && rng.gen_bool(0.5)) {
            pool.insert(id);
        }
    }
    while pool.len() < n {
        let direct = match mode {
            0 => true,
            1 => false,
            _ => rng.gen_bool(0.5),
        };
        pool.insert(if direct {
            rng.gen_range(0..bound)
        } else {
            rng.gen_range(bound..=u32::MAX)
        });
    }
    let mut pool: Vec<u32> = pool.into_iter().collect();
    rng.shuffle(&mut pool);
    let ids = seq.iter().map(|&i| pool[i]).collect();
    (n, seq, ids)
}

/// Both sides of both selections inside the digest — the direct id
/// table or the hashed one, the dense transition matrix or the buckets
/// — give the reference builder's graph: `from_dense` with the drawn
/// item count, `from_ids` over the raw ids, their rows as graphs and
/// their fingerprints.
#[test]
fn digest_selections_match_the_reference_graph_builder() {
    Checker::new("digest_selections_match_the_reference_graph_builder")
        .cases(64)
        .run(arb_selection, |(n, seq, ids)| {
            let seed = seq.len() as u64;
            let dense = GraphDigest::from_dense(*n, seq.iter().copied());
            let oracle = Oracle::from_dense(*n, seq);
            require_eq!(dense.frequencies(), &oracle.frequency[..]);
            let graph = dense.to_graph();
            oracle.check(&graph, seed)?;
            require_eq!(dense.fingerprint(), fingerprint(&graph));

            let digest = GraphDigest::from_ids(ids);
            let reference = Oracle::from_ids(ids);
            require_eq!(digest.num_items(), reference.adj.len());
            require_eq!(digest.num_edges(), reference.edges().len());
            require_eq!(digest.frequencies(), &reference.frequency[..]);
            let graph = digest.to_graph();
            reference.check(&graph, seed)?;
            require_eq!(digest.fingerprint(), fingerprint(&graph));
            Ok(())
        });
}

/// The SPM allocator's per-DBC sub-graphs: the trace projected onto one
/// part's items, renumbered locally, counts each item exactly as often
/// as the parent graph does, and its rows are the oracle's — so the
/// sub-graph needs no frequencies from the parent.
#[test]
fn spm_projection_counts_equal_parent_frequencies() {
    Checker::new("spm_projection_counts_equal_parent_frequencies").run(
        |rng| {
            let trace = arb_trace(rng, 24, 300);
            let parts = rng.gen_range(1..=4usize);
            let part_of: Vec<usize> = (0..trace.num_items())
                .map(|_| rng.gen_range(0..parts))
                .collect();
            (trace, parts, part_of, rng.gen_range(0..1000u64))
        },
        |(trace, parts, part_of, seed)| {
            let parent = AccessGraph::from_trace(trace);
            for p in 0..*parts {
                let items: Vec<usize> = (0..part_of.len()).filter(|&i| part_of[i] == p).collect();
                let mut local = vec![usize::MAX; part_of.len()];
                for (li, &item) in items.iter().enumerate() {
                    local[item] = li;
                }
                let projected: Vec<usize> = trace
                    .iter()
                    .map(|a| a.item.index())
                    .filter(|&i| part_of[i] == p)
                    .map(|i| local[i])
                    .collect();
                let sub =
                    GraphDigest::from_dense(items.len(), projected.iter().copied()).to_graph();
                for (li, &item) in items.iter().enumerate() {
                    require_eq!(sub.frequency(li), parent.frequency(item), "item {item}");
                }
                Oracle::from_dense(items.len(), &projected).check(&sub, *seed)?;
            }
            Ok(())
        },
    );
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
            let (mut fast, mut scalar) = (start.clone(), start.clone());
            let saved_fast = refiner.refine(graph, &mut fast);
            let saved_scalar = refiner.refine_scalar(graph, &mut scalar);
            require_eq!(fast, scalar);
            require_eq!(saved_fast, saved_scalar);
            Ok(())
        },
    );
}
