//! Tiered anytime placement: answer now, keep improving later.
//!
//! The paper's quality/latency tradeoff is a spectrum — greedy
//! grouping answers in microseconds while OPT-style search keeps
//! finding better arrangements for as long as it is allowed to run.
//! This module productizes that spectrum as three named tiers:
//!
//! * **Tier 0 ([`Tier::Fast`])** — the greedy CSR fast path: run
//!   grouped chain growth and keep the better of it and the naive
//!   identity order. Never worse than naive, by construction.
//! * **Tier 1 ([`Tier::Refined`])** — tier 0 refined by windowed
//!   [`LocalSearch`] under an explicit pass budget, so a caller's
//!   remaining deadline translates directly into refinement effort.
//! * **Tier 2 ([`Tier::Thorough`])** — the heavy portfolio: full local
//!   search, the [`Hybrid`] pipeline, simulated annealing, a
//!   KL-partition-guided ordering, and exact branch and bound on small
//!   graphs, racing in parallel with the winner picked by
//!   `(cost, roster position)`.
//! * **Tier 3 ([`Tier::Exact`])** — the provably optimal subset DP
//!   ([`crate::exact::optimal_placement`]) for graphs with at most
//!   [`EXACT_PLAN_LIMIT`] items. Callers that need the optimality
//!   guarantee must enforce the limit themselves (`dwm-serve` answers
//!   400); past it this tier degrades to the tier-2 portfolio.
//!
//! # Deadlines without clocks
//!
//! Serving needs tier selection to be a **pure function of the
//! request**: picking a tier from measured wall-clock would make
//! response bodies depend on machine load and thread count, breaking
//! the byte-determinism contract. [`plan`] therefore maps a
//! `(quality, deadline)` pair through the closed-form latency model
//! [`estimate_us`] — deliberately coarse, monotone in graph size, and
//! identical on every machine. Wall-clock is only ever *compared
//! against* the deadline afterwards (for deadline-miss metrics), never
//! used to choose work.
//!
//! Every tier is deterministic at any `DWM_THREADS`, so a cached
//! tier-2 result can transparently replace a tier-0 result for the
//! same workload — the background-upgrade machinery in `dwm-serve`
//! relies on exactly that.

use dwm_foundation::par;
use dwm_graph::AccessGraph;

use crate::algorithms::{
    GroupedChainGrowth, Hybrid, LocalSearch, PlacementAlgorithm, SimulatedAnnealing,
};
use crate::exact::optimal_placement;
use crate::exact_bb::branch_and_bound_placement;
use crate::partition::Partitioner;
use crate::placement::Placement;

/// Maximum local-search pass budget (matches [`LocalSearch`]'s
/// default); [`plan`] clamps here when the deadline is generous.
pub const MAX_PASSES: usize = 50;

/// Minimum useful local-search pass budget; below this, tier 1 is not
/// worth entering and [`plan`] falls back to tier 0.
pub const MIN_PASSES: usize = 2;

/// Window width tier 1 refines with (matches [`LocalSearch`]'s
/// default).
pub const TIER1_WINDOW: usize = 12;

/// Largest graph the tier-2 portfolio hands to exact branch and bound.
/// Deliberately well under [`crate::exact_bb::MAX_BB_ITEMS`]: the
/// portfolio races B&B against heuristics that are already near-optimal,
/// so its worst-case exponential tail must stay in the micro range.
pub const BB_PORTFOLIO_LIMIT: usize = 12;

/// Largest graph [`plan`] routes through the exact subset DP
/// ([`Tier::Exact`]). Deliberately below
/// [`crate::exact::MAX_EXACT_ITEMS`]: the serving path promises the DP
/// answers interactively, so the `O(2ⁿ·n)` table must stay in the
/// low-millisecond range.
pub const EXACT_PLAN_LIMIT: usize = 12;

/// One rung of the anytime ladder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Tier {
    /// Tier 0: greedy CSR fast path.
    Fast = 0,
    /// Tier 1: tier 0 refined by budgeted windowed local search.
    Refined = 1,
    /// Tier 2: the annealing / KL-partition / branch-and-bound
    /// portfolio.
    Thorough = 2,
    /// Tier 3: the provably optimal subset DP (graphs with at most
    /// [`EXACT_PLAN_LIMIT`] items; larger graphs degrade to tier 2).
    Exact = 3,
}

impl Tier {
    /// All tiers, cheapest first.
    pub const ALL: [Tier; 4] = [Tier::Fast, Tier::Refined, Tier::Thorough, Tier::Exact];

    /// The tier's numeric index (0, 1, 2) — the wire and metrics-label
    /// representation.
    pub fn index(self) -> u8 {
        self as u8
    }

    /// The tier for a numeric index.
    pub fn from_index(index: u64) -> Option<Tier> {
        match index {
            0 => Some(Tier::Fast),
            1 => Some(Tier::Refined),
            2 => Some(Tier::Thorough),
            3 => Some(Tier::Exact),
            _ => None,
        }
    }

    /// Stable human-readable label (`tier0` / `tier1` / `tier2` /
    /// `tier3`).
    pub fn label(self) -> &'static str {
        match self {
            Tier::Fast => "tier0",
            Tier::Refined => "tier1",
            Tier::Thorough => "tier2",
            Tier::Exact => "tier3",
        }
    }
}

/// The caller's quality intent, as carried on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Quality {
    /// Latency first: always the tier-0 fast path, never a background
    /// upgrade.
    Fast,
    /// The best foreground tier that fits the deadline (tier 1 when no
    /// deadline is given); no background work.
    Balanced,
    /// Like `balanced` in the foreground, plus a background tier-2
    /// upgrade of the cached entry.
    Best,
    /// The provable optimum via the subset DP; only admissible on
    /// graphs with at most [`EXACT_PLAN_LIMIT`] items.
    Exact,
}

impl Quality {
    /// Parses the wire string; returns `None` for unknown values.
    pub fn parse(s: &str) -> Option<Quality> {
        match s {
            "fast" => Some(Quality::Fast),
            "balanced" => Some(Quality::Balanced),
            "best" => Some(Quality::Best),
            "exact" => Some(Quality::Exact),
            _ => None,
        }
    }

    /// The wire string.
    pub fn name(self) -> &'static str {
        match self {
            Quality::Fast => "fast",
            Quality::Balanced => "balanced",
            Quality::Best => "best",
            Quality::Exact => "exact",
        }
    }
}

/// What one anytime solve produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnytimeOutcome {
    /// The arrangement.
    pub placement: Placement,
    /// Its shift cost on the solved graph.
    pub cost: u64,
    /// The tier that produced it.
    pub tier: Tier,
    /// Which portfolio member won (solver provenance, e.g.
    /// `"greedy-csr"`, `"windowed-ls"`, `"annealing"`).
    pub solver: &'static str,
}

/// The deterministic tiered solver. One instance per logical seed; the
/// seed only influences the stochastic tier-2 portfolio members.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnytimeSolver {
    /// Seed for the stochastic portfolio members (annealing).
    pub seed: u64,
}

impl AnytimeSolver {
    /// A solver whose stochastic portfolio members use `seed`.
    pub fn new(seed: u64) -> Self {
        AnytimeSolver { seed }
    }

    /// Solves `graph` at `tier`. `passes` is the tier-1 local-search
    /// budget (ignored by tier 0; tier 2 always refines with
    /// [`MAX_PASSES`]).
    pub fn solve(&self, graph: &AccessGraph, tier: Tier, passes: usize) -> AnytimeOutcome {
        match tier {
            Tier::Fast => self.tier0(graph),
            Tier::Refined => self.tier1(graph, passes),
            Tier::Thorough => self.tier2(graph),
            Tier::Exact => self.tier_exact(graph),
        }
    }

    /// Greedy CSR fast path: grouped chain growth vs the naive
    /// identity, cheaper one wins (identity wins ties, preserving the
    /// never-worse-than-naive guarantee).
    fn tier0(&self, graph: &AccessGraph) -> AnytimeOutcome {
        let identity = Placement::identity(graph.num_items());
        let naive = graph.arrangement_cost(identity.offsets());
        let greedy = GroupedChainGrowth.place(graph);
        let greedy_cost = graph.arrangement_cost(greedy.offsets());
        let (placement, cost) = if greedy_cost < naive {
            (greedy, greedy_cost)
        } else {
            (identity, naive)
        };
        AnytimeOutcome {
            placement,
            cost,
            tier: Tier::Fast,
            solver: "greedy-csr",
        }
    }

    /// Tier 0 refined by windowed local search under `passes`.
    fn tier1(&self, graph: &AccessGraph, passes: usize) -> AnytimeOutcome {
        let mut out = self.tier0(graph);
        let budget = passes.clamp(1, MAX_PASSES);
        LocalSearch::new(budget)
            .with_window(TIER1_WINDOW)
            .refine(graph, &mut out.placement);
        out.cost = graph.arrangement_cost(out.placement.offsets());
        out.tier = Tier::Refined;
        out.solver = "windowed-ls";
        out
    }

    /// The heavy portfolio. Every member is deterministic, candidates
    /// run in parallel, and the winner is `(cost, roster position)` —
    /// identical at any worker count. Full tier-1 leads the roster, so
    /// tier 2 can never be worse than tier 1 (and transitively never
    /// worse than naive).
    fn tier2(&self, graph: &AccessGraph) -> AnytimeOutcome {
        let n = graph.num_items();
        let refiner = LocalSearch::new(MAX_PASSES);
        type Candidate<'a> = (&'static str, Box<dyn Fn() -> Placement + Sync + 'a>);
        let mut candidates: Vec<Candidate<'_>> = vec![
            (
                "windowed-ls",
                Box::new(|| self.tier1(graph, MAX_PASSES).placement),
            ),
            ("hybrid", Box::new(|| Hybrid::default().place(graph))),
            (
                "annealing",
                Box::new(|| {
                    let start = self.tier0(graph).placement;
                    let mut p = SimulatedAnnealing::new(self.seed).anneal(graph, start);
                    refiner.refine(graph, &mut p);
                    p
                }),
            ),
        ];
        if n >= 2 {
            candidates.push((
                "kl-partition",
                Box::new(|| {
                    let mut p = kl_guided_order(graph, n);
                    refiner.refine(graph, &mut p);
                    p
                }),
            ));
        }
        if (2..=BB_PORTFOLIO_LIMIT).contains(&n) {
            candidates.push((
                "branch-and-bound",
                Box::new(|| {
                    branch_and_bound_placement(graph)
                        .expect("n is within the branch-and-bound limit")
                        .0
                }),
            ));
        }
        let scored = par::par_map(&candidates, |(solver, candidate)| {
            let p = candidate();
            let cost = graph.arrangement_cost(p.offsets());
            (cost, *solver, p)
        });
        let (cost, solver, placement) = scored
            .into_iter()
            .min_by_key(|(cost, _, _)| *cost)
            .expect("roster is never empty");
        AnytimeOutcome {
            placement,
            cost,
            tier: Tier::Thorough,
            solver,
        }
    }

    /// The subset DP, provably optimal up to [`EXACT_PLAN_LIMIT`]
    /// items. Larger graphs degrade to the tier-2 portfolio (still
    /// labeled tier 3, with the winning member's solver name) — a
    /// defensive total fallback; callers that promise optimality
    /// enforce the limit up front.
    fn tier_exact(&self, graph: &AccessGraph) -> AnytimeOutcome {
        if graph.num_items() <= EXACT_PLAN_LIMIT {
            let (placement, _) = optimal_placement(graph)
                .expect("EXACT_PLAN_LIMIT is below the subset-DP item limit");
            let cost = graph.arrangement_cost(placement.offsets());
            return AnytimeOutcome {
                placement,
                cost,
                tier: Tier::Exact,
                solver: "subset-dp",
            };
        }
        let mut out = self.tier2(graph);
        out.tier = Tier::Exact;
        out
    }
}

/// Kernighan–Lin-guided ordering: partition into capacity-8 clusters
/// (greedy agglomeration + KL swap refinement), then lay the clusters
/// out contiguously in part order. Heavy edges end up inside small
/// contiguous runs, which the windowed refiner then polishes.
fn kl_guided_order(graph: &AccessGraph, n: usize) -> Placement {
    const PART_CAPACITY: usize = 8;
    let parts = n.div_ceil(PART_CAPACITY);
    match Partitioner::new(parts, PART_CAPACITY).partition(graph) {
        Ok(partition) => Placement::from_order(
            (0..partition.num_parts()).flat_map(|p| partition.part(p).iter().copied()),
        ),
        Err(_) => Placement::identity(n),
    }
}

/// Closed-form latency model (microseconds) for [`plan`]: coarse,
/// monotone in graph size, and — critically — identical on every
/// machine and at every thread count. This is a *planning* model, not
/// a measurement; the deadline-miss metrics compare real wall-clock
/// against the deadline after the fact.
pub fn estimate_us(tier: Tier, items: usize, edges: usize) -> u64 {
    let n = items as u64;
    let m = edges as u64;
    // Greedy grouping and its two cost walks: linear in graph size.
    let fast = 40_u64.saturating_add((n.saturating_add(m)) / 4);
    match tier {
        Tier::Fast => fast,
        // Entering tier 1 at all costs at least MIN_PASSES passes.
        Tier::Refined => fast.saturating_add(pass_cost_us(items, edges).saturating_mul(2)),
        // Annealing dominates tier 2 (fixed iteration budget) plus the
        // full refinement ladder.
        Tier::Thorough => fast
            .saturating_add(pass_cost_us(items, edges).saturating_mul(MAX_PASSES as u64))
            .saturating_add(3_000)
            .saturating_add(n.saturating_mul(n) / 8),
        // The subset DP fills 2ⁿ states with an O(n) transition each;
        // the shift saturates past 63 bits, so oversized graphs model
        // as "never fits any deadline".
        Tier::Exact => {
            let states = match u32::try_from(n) {
                Ok(bits) if bits < 64 => 1u64 << bits,
                _ => u64::MAX,
            };
            fast.saturating_add(states.saturating_mul(n.max(1)) / 16)
        }
    }
}

/// Modeled cost of one windowed local-search pass (microseconds),
/// `>= 1` so budget division is always defined.
pub fn pass_cost_us(items: usize, edges: usize) -> u64 {
    let n = items as u64;
    let m = edges as u64;
    (n.saturating_mul(TIER1_WINDOW as u64).saturating_add(m) / 32).max(1)
}

/// What the foreground should run and whether to schedule background
/// work; produced by [`plan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierPlan {
    /// The tier to answer with.
    pub tier: Tier,
    /// Local-search pass budget when `tier` is [`Tier::Refined`]
    /// (0 otherwise).
    pub passes: usize,
    /// Whether a background tier-2 upgrade should be enqueued.
    pub upgrade: bool,
}

/// Maps the caller's `(quality, deadline)` to a foreground tier and
/// pass budget — a pure function of the request and graph size, so
/// identical requests plan identically on every machine.
///
/// Rules:
///
/// * `fast` → tier 0, no upgrade, regardless of deadline.
/// * `exact` → tier 3, no upgrade, regardless of deadline — exactness
///   cannot be traded away, so an unmeetable deadline is the caller's
///   admission-control problem (`dwm-serve` answers 503), not a reason
///   to degrade.
/// * `balanced` / `best` → tier 1 when [`estimate_us`] says it fits the
///   deadline (always, when no deadline is given), tier 0 otherwise.
///   The tier-1 pass budget is the modeled remaining budget divided by
///   [`pass_cost_us`], clamped to `[`[`MIN_PASSES`]`, `[`MAX_PASSES`]`]`.
/// * `best` additionally requests a background tier-2 upgrade.
/// * Tier 0 is the floor: an unmeetable deadline (`deadline_us = 0`)
///   still gets the fast-path answer, and the miss is visible in the
///   deadline metrics, not in the body.
pub fn plan(quality: Quality, deadline_us: Option<u64>, items: usize, edges: usize) -> TierPlan {
    let upgrade = quality == Quality::Best;
    if quality == Quality::Fast {
        return TierPlan {
            tier: Tier::Fast,
            passes: 0,
            upgrade: false,
        };
    }
    if quality == Quality::Exact {
        return TierPlan {
            tier: Tier::Exact,
            passes: 0,
            upgrade: false,
        };
    }
    match deadline_us {
        None => TierPlan {
            tier: Tier::Refined,
            passes: MAX_PASSES,
            upgrade,
        },
        Some(deadline) if estimate_us(Tier::Refined, items, edges) <= deadline => {
            let remaining = deadline.saturating_sub(estimate_us(Tier::Fast, items, edges));
            let passes = usize::try_from(remaining / pass_cost_us(items, edges))
                .unwrap_or(MAX_PASSES)
                .clamp(MIN_PASSES, MAX_PASSES);
            TierPlan {
                tier: Tier::Refined,
                passes,
                upgrade,
            }
        }
        Some(_) => TierPlan {
            tier: Tier::Fast,
            passes: 0,
            upgrade,
        },
    }
}

/// An anytime tier wrapped as a [`PlacementAlgorithm`], so tier choice
/// can flow anywhere an algorithm can — session re-placement picks its
/// candidate solver this way.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AnytimePlacement {
    /// The tier to solve at.
    pub tier: Tier,
    /// Seed for the stochastic tier-2 members.
    pub seed: u64,
    /// Tier-1 pass budget.
    pub passes: usize,
}

impl PlacementAlgorithm for AnytimePlacement {
    fn name(&self) -> String {
        format!("anytime-{}", self.tier.label())
    }

    fn place(&self, graph: &AccessGraph) -> Placement {
        AnytimeSolver::new(self.seed)
            .solve(graph, self.tier, self.passes)
            .placement
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::test_support::{
        interleaved_cluster_graph, kernel_graph, two_cluster_graph,
    };
    use dwm_graph::generators::{clustered_graph, random_graph};

    fn graphs() -> Vec<AccessGraph> {
        vec![
            two_cluster_graph(),
            interleaved_cluster_graph(),
            kernel_graph(),
            random_graph(24, 0.3, 6, 1),
            clustered_graph(30, 5, 0.8, 0.1, 8, 2),
            AccessGraph::with_items(0),
            AccessGraph::with_items(1),
            AccessGraph::with_items(3),
        ]
    }

    #[test]
    fn every_tier_is_never_worse_than_naive() {
        for g in graphs() {
            let naive = g.arrangement_cost(Placement::identity(g.num_items()).offsets());
            for tier in Tier::ALL {
                let out = AnytimeSolver::new(7).solve(&g, tier, MAX_PASSES);
                assert!(
                    out.cost <= naive,
                    "{} cost {} > naive {naive}",
                    tier.label(),
                    out.cost
                );
                assert_eq!(out.cost, g.arrangement_cost(out.placement.offsets()));
                assert_eq!(out.tier, tier);
            }
        }
    }

    #[test]
    fn tiers_are_monotone_in_quality() {
        for g in graphs() {
            let solver = AnytimeSolver::new(7);
            let t0 = solver.solve(&g, Tier::Fast, 0);
            let t1 = solver.solve(&g, Tier::Refined, MAX_PASSES);
            let t2 = solver.solve(&g, Tier::Thorough, MAX_PASSES);
            assert!(t1.cost <= t0.cost, "tier1 {} > tier0 {}", t1.cost, t0.cost);
            assert!(t2.cost <= t1.cost, "tier2 {} > tier1 {}", t2.cost, t1.cost);
        }
    }

    #[test]
    fn tier2_strictly_beats_tier0_on_interleaved_clusters() {
        // The workload the serve upgrade test leans on: the greedy fast
        // path must leave headroom the portfolio then claims.
        let g = interleaved_cluster_graph();
        let solver = AnytimeSolver::new(7);
        let t0 = solver.solve(&g, Tier::Fast, 0);
        let t2 = solver.solve(&g, Tier::Thorough, 0);
        assert!(
            t2.cost < t0.cost,
            "portfolio {} must strictly beat greedy {}",
            t2.cost,
            t0.cost
        );
    }

    #[test]
    fn every_tier_is_deterministic_across_thread_counts() {
        use dwm_foundation::par::override_threads;
        let _l = crate::algorithms::test_support::PAR_TEST_LOCK
            .lock()
            .unwrap();
        let g = clustered_graph(30, 5, 0.8, 0.1, 8, 2);
        let solver = AnytimeSolver::new(3);
        for tier in Tier::ALL {
            let seq = {
                let _g = override_threads(1);
                solver.solve(&g, tier, 9)
            };
            let par = {
                let _g = override_threads(8);
                solver.solve(&g, tier, 9)
            };
            assert_eq!(seq, par, "{} differs across thread counts", tier.label());
        }
    }

    #[test]
    fn tier1_passes_trade_quality_for_budget() {
        let g = clustered_graph(40, 5, 0.8, 0.1, 8, 4);
        let solver = AnytimeSolver::new(7);
        let starved = solver.solve(&g, Tier::Refined, 1);
        let generous = solver.solve(&g, Tier::Refined, MAX_PASSES);
        assert!(generous.cost <= starved.cost);
    }

    #[test]
    fn plan_quality_fast_is_always_tier0() {
        for deadline in [None, Some(0), Some(u64::MAX)] {
            let p = plan(Quality::Fast, deadline, 100, 400);
            assert_eq!(p.tier, Tier::Fast);
            assert!(!p.upgrade);
        }
    }

    #[test]
    fn plan_deadline_zero_floors_at_tier0() {
        for quality in [Quality::Balanced, Quality::Best] {
            let p = plan(quality, Some(0), 100, 400);
            assert_eq!(p.tier, Tier::Fast);
            assert_eq!(p.upgrade, quality == Quality::Best);
        }
    }

    #[test]
    fn plan_generous_deadline_maxes_tier1_budget() {
        let p = plan(Quality::Balanced, Some(u64::MAX), 100, 400);
        assert_eq!(p.tier, Tier::Refined);
        assert_eq!(p.passes, MAX_PASSES);
        assert!(!p.upgrade);
        let p = plan(Quality::Best, None, 100, 400);
        assert_eq!(p.tier, Tier::Refined);
        assert_eq!(p.passes, MAX_PASSES);
        assert!(p.upgrade);
    }

    #[test]
    fn plan_mid_deadline_budgets_passes() {
        let (n, m) = (200, 800);
        let deadline = estimate_us(Tier::Refined, n, m) + 5 * pass_cost_us(n, m);
        let p = plan(Quality::Balanced, Some(deadline), n, m);
        assert_eq!(p.tier, Tier::Refined);
        assert!(
            (MIN_PASSES..=MAX_PASSES).contains(&p.passes),
            "passes {} out of range",
            p.passes
        );
        // Tighter deadline, no more passes.
        let q = plan(
            Quality::Balanced,
            Some(estimate_us(Tier::Refined, n, m)),
            n,
            m,
        );
        assert!(q.passes <= p.passes);
    }

    #[test]
    fn estimate_is_monotone_in_tier_and_size() {
        assert!(estimate_us(Tier::Fast, 64, 256) <= estimate_us(Tier::Refined, 64, 256));
        assert!(estimate_us(Tier::Refined, 64, 256) <= estimate_us(Tier::Thorough, 64, 256));
        assert!(estimate_us(Tier::Fast, 64, 256) <= estimate_us(Tier::Fast, 128, 512));
        // No overflow panic at absurd sizes.
        let _ = estimate_us(Tier::Thorough, usize::MAX, usize::MAX);
    }

    #[test]
    fn quality_and_tier_wire_forms_round_trip() {
        for q in [
            Quality::Fast,
            Quality::Balanced,
            Quality::Best,
            Quality::Exact,
        ] {
            assert_eq!(Quality::parse(q.name()), Some(q));
        }
        assert_eq!(Quality::parse("turbo"), None);
        assert_eq!(Quality::parse(""), None);
        for t in Tier::ALL {
            assert_eq!(Tier::from_index(u64::from(t.index())), Some(t));
        }
        assert_eq!(Tier::from_index(4), None);
    }

    #[test]
    fn exact_tier_is_optimal_within_the_plan_limit() {
        let solver = AnytimeSolver::new(7);
        for g in graphs() {
            if g.num_items() > EXACT_PLAN_LIMIT {
                continue;
            }
            let out = solver.solve(&g, Tier::Exact, 0);
            assert_eq!(out.solver, "subset-dp");
            assert_eq!(out.tier, Tier::Exact);
            let (_, opt) = crate::exact::optimal_placement(&g).unwrap();
            assert_eq!(out.cost, opt, "exact tier must hit the DP optimum");
            // Never above any heuristic tier, by definition.
            assert!(out.cost <= solver.solve(&g, Tier::Thorough, 0).cost);
        }
    }

    #[test]
    fn exact_tier_degrades_to_the_portfolio_past_the_limit() {
        let g = random_graph(24, 0.3, 6, 1);
        let solver = AnytimeSolver::new(7);
        let exact = solver.solve(&g, Tier::Exact, 0);
        let thorough = solver.solve(&g, Tier::Thorough, 0);
        assert_eq!(exact.tier, Tier::Exact);
        assert_eq!(exact.cost, thorough.cost);
        assert_ne!(exact.solver, "subset-dp");
    }

    #[test]
    fn plan_exact_ignores_deadlines() {
        for deadline in [None, Some(0), Some(u64::MAX)] {
            let p = plan(Quality::Exact, deadline, 10, 30);
            assert_eq!(p.tier, Tier::Exact);
            assert_eq!(p.passes, 0);
            assert!(!p.upgrade);
        }
    }

    #[test]
    fn exact_estimate_blows_past_every_deadline_on_big_graphs() {
        // Monotone in size and astronomically large past the limit, so
        // admission control can rely on it.
        assert!(
            estimate_us(Tier::Exact, EXACT_PLAN_LIMIT, 40)
                <= estimate_us(Tier::Exact, EXACT_PLAN_LIMIT + 1, 40)
        );
        assert!(estimate_us(Tier::Exact, 64, 100) > 1_000_000_000);
        let _ = estimate_us(Tier::Exact, usize::MAX, usize::MAX);
    }

    #[test]
    fn anytime_placement_adapter_matches_solver() {
        let g = kernel_graph();
        let adapter = AnytimePlacement {
            tier: Tier::Refined,
            seed: 5,
            passes: 10,
        };
        assert_eq!(adapter.name(), "anytime-tier1");
        assert_eq!(
            adapter.place(&g),
            AnytimeSolver::new(5).solve(&g, Tier::Refined, 10).placement
        );
    }
}
