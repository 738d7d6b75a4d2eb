use crate::cfg::{BlockId, Cfg};

/// A permutation of basic blocks along the instruction tape, with the
/// cumulative start offset of each block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockOrder {
    /// `order[k]` = block at tape position `k`.
    order: Vec<BlockId>,
    /// `start[b]` = first instruction offset of block `b`.
    start: Vec<usize>,
    /// `end[b]` = one past the last instruction offset of block `b`.
    end: Vec<usize>,
}

impl BlockOrder {
    /// Lays blocks out in the given order, computing offsets from the
    /// CFG's block sizes.
    ///
    /// # Panics
    ///
    /// Panics if `order` is not a permutation of the CFG's blocks.
    pub fn from_order(cfg: &Cfg, order: Vec<BlockId>) -> Self {
        let n = cfg.num_blocks();
        assert_eq!(order.len(), n, "order must cover every block");
        let mut start = vec![usize::MAX; n];
        let mut end = vec![usize::MAX; n];
        let mut offset = 0usize;
        for &b in &order {
            assert!(start[b.0] == usize::MAX, "block {b:?} placed twice");
            start[b.0] = offset;
            offset += cfg.block_len(b);
            end[b.0] = offset;
        }
        BlockOrder { order, start, end }
    }

    /// The program-order (declaration-order) baseline layout.
    pub fn program_order(cfg: &Cfg) -> Self {
        BlockOrder::from_order(cfg, (0..cfg.num_blocks()).map(BlockId).collect())
    }

    /// The block at tape position `k`.
    pub fn block_at(&self, k: usize) -> BlockId {
        self.order[k]
    }

    /// The layout order.
    pub fn order(&self) -> &[BlockId] {
        &self.order
    }

    /// First instruction offset of `b`.
    pub fn start_of(&self, b: BlockId) -> usize {
        self.start[b.0]
    }

    /// Fetch-shift cost of this layout: for every edge, `frequency ×
    /// |end(from) − start(to)|`, except that a *fallthrough* (the
    /// destination starts exactly where the source ends) is free —
    /// sequential fetch advances the tape anyway.
    pub fn cost(&self, cfg: &Cfg) -> u64 {
        cfg.edges()
            .iter()
            .map(|e| {
                let from_end = self.end[e.from.0] as i64;
                let to_start = self.start[e.to.0] as i64;
                e.frequency * from_end.abs_diff(to_start)
            })
            .sum()
    }
}

/// Hottest-edge chaining (Pettis–Hansen adapted to tape distance):
/// process edges in descending frequency; an edge glues its source
/// chain's tail to its destination chain's head when possible, making
/// the hottest transfers fallthroughs. Remaining chains are emitted in
/// descending heat.
///
/// Unlike the data-placement chain growth, instruction chains are
/// *directed* — a block may only fall through to one successor — so
/// the merge condition is "`from` is a chain tail and `to` is a chain
/// head of a different chain".
pub fn chain_layout(cfg: &Cfg) -> BlockOrder {
    let n = cfg.num_blocks();
    let mut edges: Vec<_> = cfg.edges().to_vec();
    edges.sort_by_key(|e| (std::cmp::Reverse(e.frequency), e.from, e.to));

    // chain_of[b] = chain index; chains stored as Vec<BlockId>.
    let mut chain_of: Vec<usize> = (0..n).collect();
    let mut chains: Vec<Vec<BlockId>> = (0..n).map(|b| vec![BlockId(b)]).collect();

    for e in &edges {
        let (cf, ct) = (chain_of[e.from.0], chain_of[e.to.0]);
        if cf == ct {
            continue;
        }
        let tail_ok = chains[cf].last() == Some(&e.from);
        let head_ok = chains[ct].first() == Some(&e.to);
        if !(tail_ok && head_ok) {
            continue;
        }
        let moved = std::mem::take(&mut chains[ct]);
        for b in &moved {
            chain_of[b.0] = cf;
        }
        chains[cf].extend(moved);
    }

    // Heat of a chain = total frequency of its blocks' outgoing edges.
    let mut heat = vec![0u64; chains.len()];
    for e in cfg.edges() {
        heat[chain_of[e.from.0]] += e.frequency;
    }
    let mut live: Vec<usize> = (0..chains.len())
        .filter(|&c| !chains[c].is_empty())
        .collect();
    live.sort_by_key(|&c| (std::cmp::Reverse(heat[c]), c));

    let order: Vec<BlockId> = live.into_iter().flat_map(|c| chains[c].clone()).collect();
    BlockOrder::from_order(cfg, order)
}

/// The full layout pipeline: the better of program order and
/// hottest-edge chaining, refined by adjacent-swap local search —
/// never worse than program order, by construction.
///
/// Compilers emit loops contiguously, so program order is often near-
/// optimal already (exactly like first-touch order on the data side);
/// chaining wins when profile-hot paths cross the source layout.
pub fn best_layout(cfg: &Cfg) -> BlockOrder {
    let program = BlockOrder::program_order(cfg);
    let chained = chain_layout(cfg);
    let start = if chained.cost(cfg) < program.cost(cfg) {
        chained
    } else {
        program
    };
    refine_order(cfg, &start, 30)
}

/// Local refinement: first-improvement passes of adjacent block swaps
/// until no swap helps (cost recomputed exactly; CFGs are small).
/// Never increases cost.
pub fn refine_order(cfg: &Cfg, layout: &BlockOrder, max_passes: usize) -> BlockOrder {
    let mut order = layout.order().to_vec();
    let mut best = BlockOrder::from_order(cfg, order.clone());
    let mut best_cost = best.cost(cfg);
    for _ in 0..max_passes {
        let mut improved = false;
        for k in 0..order.len().saturating_sub(1) {
            order.swap(k, k + 1);
            let candidate = BlockOrder::from_order(cfg, order.clone());
            let cost = candidate.cost(cfg);
            if cost < best_cost {
                best = candidate;
                best_cost = cost;
                improved = true;
            } else {
                order.swap(k, k + 1); // revert
            }
        }
        if !improved {
            break;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> Cfg {
        // a → b (hot), a → c (cold), b → d, c → d.
        let mut cfg = Cfg::new();
        let a = cfg.block(2);
        let b = cfg.block(3);
        let c = cfg.block(3);
        let d = cfg.block(1);
        cfg.edge(a, b, 90);
        cfg.edge(a, c, 10);
        cfg.edge(b, d, 90);
        cfg.edge(c, d, 10);
        cfg
    }

    #[test]
    fn offsets_are_cumulative() {
        let cfg = diamond();
        let layout = BlockOrder::program_order(&cfg);
        assert_eq!(layout.start_of(BlockId(0)), 0);
        assert_eq!(layout.start_of(BlockId(1)), 2);
        assert_eq!(layout.start_of(BlockId(2)), 5);
        assert_eq!(layout.start_of(BlockId(3)), 8);
    }

    #[test]
    fn fallthrough_is_free() {
        let mut cfg = Cfg::new();
        let a = cfg.block(4);
        let b = cfg.block(4);
        cfg.edge(a, b, 1000);
        let layout = BlockOrder::program_order(&cfg);
        assert_eq!(layout.cost(&cfg), 0, "a falls through to b");
        // Reversed: b sits first, the jump spans b's body.
        let reversed = BlockOrder::from_order(&cfg, vec![b, a]);
        assert_eq!(reversed.cost(&cfg), 1000 * 8);
    }

    #[test]
    fn chain_layout_prefers_hot_fallthroughs() {
        let cfg = diamond();
        let tuned = chain_layout(&cfg);
        // The hot path a→b→d must be consecutive.
        let pos = |b: usize| {
            tuned
                .order()
                .iter()
                .position(|&x| x == BlockId(b))
                .expect("block placed")
        };
        assert_eq!(pos(1), pos(0) + 1, "a→b is a fallthrough");
        assert_eq!(pos(3), pos(1) + 1, "b→d is a fallthrough");
        assert!(tuned.cost(&cfg) < BlockOrder::program_order(&cfg).cost(&cfg));
    }

    #[test]
    fn best_layout_never_loses_to_program_order() {
        for seed in 0..10 {
            let cfg = Cfg::random(20, 3, seed);
            let naive = BlockOrder::program_order(&cfg).cost(&cfg);
            let tuned = best_layout(&cfg).cost(&cfg);
            assert!(tuned <= naive, "seed {seed}: {tuned} > {naive}");
        }
    }

    #[test]
    fn refine_never_increases_cost() {
        let cfg = Cfg::random(16, 4, 3);
        let start = BlockOrder::program_order(&cfg);
        let refined = refine_order(&cfg, &start, 30);
        assert!(refined.cost(&cfg) <= start.cost(&cfg));
    }

    #[test]
    fn layout_is_a_permutation() {
        let cfg = Cfg::random(24, 3, 7);
        let layout = chain_layout(&cfg);
        let mut seen = [false; 24];
        for k in 0..24 {
            let b = layout.block_at(k);
            assert!(!seen[b.0]);
            seen[b.0] = true;
        }
    }

    #[test]
    #[should_panic(expected = "placed twice")]
    fn duplicate_blocks_rejected() {
        let cfg = diamond();
        let _ = BlockOrder::from_order(&cfg, vec![BlockId(0); 4]);
    }

    #[test]
    fn structured_cfg_layout_keeps_loops_tight() {
        // Compilers already lay loops contiguously: program order is
        // strong here, and best_layout must match or beat it (the raw
        // chain layout alone can lose by separating loops from glue —
        // which is exactly why best_layout is a portfolio).
        let cfg = Cfg::structured(3, 4, 1000);
        let naive = BlockOrder::program_order(&cfg).cost(&cfg);
        let tuned = best_layout(&cfg).cost(&cfg);
        assert!(tuned <= naive);
    }
}
