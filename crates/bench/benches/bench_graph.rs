//! CSR access-graph microbenchmarks and the solver entries that walk
//! its rows.
//!
//! `graph/*` times the representation itself — building an access
//! graph from a digest's rows and streaming swap deltas through an
//! [`ArrangementEval`] — while `algo/*` times the three inner-loop
//! consumers whose medians the regression gate tracks: greedy insertion
//! (the former worst offender), simulated annealing, and windowed local
//! search.
//!
//! `graph/digest/48x2400` and `graph/digest/256x8192` time
//! `GraphDigest::from_ids` (dense ids, edge counts, rows) on 32
//! distinct Zipf id sequences in turn, of a cached solve's shape and of
//! a miss's: the first is counted in the dense matrix, the second in
//! buckets.

use dwm_bench::{markov_fixture, BENCH_SEED};
use dwm_core::{AnytimeSolver, SimulatedAnnealing, Tier};
use dwm_core::{ChainGrowth, GreedyInsertion, LocalSearch, PlacementAlgorithm, RandomPlacement};
use dwm_foundation::bench::{black_box, Harness};
use dwm_foundation::par;
use dwm_graph::{ArrangementEval, GraphDigest};
use dwm_trace::synth::{TraceGenerator, ZipfGen};

fn main() {
    let mut h = Harness::from_env("graph");
    for (items, len) in [(48usize, 2400usize), (256, 8192)] {
        let workloads: Vec<Vec<u32>> = (0..32)
            .map(|k| {
                let trace = ZipfGen::new(items, BENCH_SEED + k).generate(len);
                trace.iter().map(|a| a.item.index() as u32).collect()
            })
            .collect();
        let mut next = 0;
        h.bench(&format!("graph/digest/{items}x{len}"), || {
            next = (next + 1) % workloads.len();
            black_box(GraphDigest::from_ids(&workloads[next]))
        });
    }

    for n in [64usize, 256, 1024] {
        let (trace, graph) = markov_fixture(n);
        let digest = GraphDigest::from_dense(n, trace.iter().map(|a| a.item.index()));

        // A batch of independent rows→graph builds (the step every
        // solve takes from a digest), fanned over the workers, so the
        // t1/t4 medians show both the single-build cost and that
        // building parallelizes trivially. At least four builds, one
        // per t4 worker, and at least 1024 items in all: `bench_gate.sh`
        // bounds the dispatch cost of a parallel call by the 64-item
        // point's t1/t4, which needs tens of µs of work at t1.
        let batch = vec![&digest; (1024 / n).max(4)];
        h.bench_threads(&format!("graph/csr_build/{n}"), || {
            par::par_map(&batch, |d| black_box(d).to_graph().num_edges())
        });

        let start: Vec<usize> = (0..n).collect();
        let eval = ArrangementEval::new(&graph, &start);
        // Every in-window swap delta of a local-search pass, split into
        // per-worker chunks of query pairs.
        let pairs: Vec<(usize, usize)> = (0..n - 1)
            .flat_map(|k| ((k + 1)..(k + 13).min(n)).map(move |j| (k, j)))
            .collect();
        let chunks: Vec<&[(usize, usize)]> = pairs.chunks(pairs.len().div_ceil(4)).collect();
        h.bench_threads(&format!("graph/swap_delta/{n}"), || {
            par::par_map(&chunks, |chunk| {
                chunk
                    .iter()
                    .map(|&(k, j)| eval.swap_delta(eval.item_at(k), eval.item_at(j)))
                    .sum::<i64>()
            })
        });

        let graphs = [&graph, &graph, &graph, &graph];
        h.bench_threads(&format!("algo/insertion/{n}"), || {
            par::par_map(&graphs, |g| GreedyInsertion.place(black_box(g)))
        });

        let annealer = SimulatedAnnealing::new(BENCH_SEED).with_iterations(5_000);
        h.bench(&format!("algo/annealing/{n}"), || {
            annealer.place(black_box(&graph))
        });

        let rough = RandomPlacement::new(BENCH_SEED).place(&graph);
        h.bench(&format!("algo/local_search/{n}"), || {
            let mut p = rough.clone();
            LocalSearch::default().refine(black_box(&graph), &mut p);
            p
        });
    }

    // The 10⁸-scale profile-driven workloads land on graphs this
    // size. The fixture is the realistic refinement call — polish a
    // ChainGrowth placement to convergence, exactly what the Hybrid
    // pipeline does — and the window-local kernel is benched against
    // its scalar reference (same scan order and byte-identical
    // output, but a full two-row delta per candidate pair) so
    // `bench_gate.sh` can enforce the ≥2x speedup as a same-run pair,
    // immune to machine drift.
    {
        let n = 4096usize;
        let (_, graph) = markov_fixture(n);
        let start = ChainGrowth.place(&graph);
        let ls = LocalSearch::default();
        h.bench(&format!("algo/local_search/{n}"), || {
            let mut p = start.clone();
            ls.refine(black_box(&graph), &mut p);
            p
        });
        h.bench(&format!("algo/local_search_scalar/{n}"), || {
            let mut p = start.clone();
            ls.refine_scalar(black_box(&graph), &mut p);
            p
        });
    }

    // The shape a `/solve` miss refines: the digest of a 256-item ×
    // 8192-access Zipf trace, whose hub items neighbour nearly every
    // other item, polished from its tier-0 start as tier 1 does. Its
    // early passes swap densely, a regime the Markov fixtures never
    // reach, so the pair holds a second same-run speedup floor there.
    {
        let trace = ZipfGen::new(256, BENCH_SEED).generate(8192);
        let ids: Vec<u32> = trace.iter().map(|a| a.item.index() as u32).collect();
        let graph = GraphDigest::from_ids(&ids).to_graph();
        let start = AnytimeSolver::new(BENCH_SEED)
            .solve(&graph, Tier::Fast, 0)
            .placement;
        let ls = LocalSearch::default();
        h.bench("algo/local_search_zipf/256", || {
            let mut p = start.clone();
            ls.refine(black_box(&graph), &mut p);
            p
        });
        h.bench("algo/local_search_zipf_scalar/256", || {
            let mut p = start.clone();
            ls.refine_scalar(black_box(&graph), &mut p);
            p
        });
    }
    h.finish();
}
