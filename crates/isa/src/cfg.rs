use dwm_foundation::Rng;
/// Identifier of a basic block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct BlockId(pub usize);

/// A weighted, directed control-flow edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CfgEdge {
    /// Source block.
    pub from: BlockId,
    /// Destination block.
    pub to: BlockId,
    /// Execution frequency (profile count).
    pub frequency: u64,
}

/// A control-flow graph with block sizes and profiled edge
/// frequencies.
///
/// # Example
///
/// ```
/// use dwm_isa::{Cfg, BlockId};
///
/// let mut cfg = Cfg::new();
/// let a = cfg.block(4);
/// let b = cfg.block(6);
/// cfg.edge(a, b, 100);
/// assert_eq!(cfg.num_blocks(), 2);
/// assert_eq!(cfg.block_len(b), 6);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Cfg {
    lens: Vec<usize>,
    edges: Vec<CfgEdge>,
}

impl Cfg {
    /// An empty CFG.
    pub fn new() -> Self {
        Cfg::default()
    }

    /// Adds a block of `len` instructions (words on the tape).
    ///
    /// # Panics
    ///
    /// Panics if `len == 0`.
    pub fn block(&mut self, len: usize) -> BlockId {
        assert!(len > 0, "blocks must hold at least one instruction");
        self.lens.push(len);
        BlockId(self.lens.len() - 1)
    }

    /// Adds (or accumulates onto) a control-flow edge.
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is undeclared.
    pub fn edge(&mut self, from: BlockId, to: BlockId, frequency: u64) {
        assert!(from.0 < self.lens.len() && to.0 < self.lens.len());
        if let Some(e) = self.edges.iter_mut().find(|e| e.from == from && e.to == to) {
            e.frequency += frequency;
            return;
        }
        self.edges.push(CfgEdge {
            from,
            to,
            frequency,
        });
    }

    /// Number of blocks.
    pub fn num_blocks(&self) -> usize {
        self.lens.len()
    }

    /// Instruction count of `b`.
    pub fn block_len(&self, b: BlockId) -> usize {
        self.lens[b.0]
    }

    /// Total instruction footprint.
    pub fn total_len(&self) -> usize {
        self.lens.iter().sum()
    }

    /// The edges with their frequencies.
    pub fn edges(&self) -> &[CfgEdge] {
        &self.edges
    }

    /// A random reducible-ish CFG: a block chain with forward
    /// branches, backward loop edges, and skewed frequencies. Block
    /// sizes are 1–8 instructions.
    pub fn random(blocks: usize, fanout: usize, seed: u64) -> Cfg {
        assert!(blocks >= 2);
        let mut rng = Rng::seed_from_u64(seed);
        let mut cfg = Cfg::new();
        for _ in 0..blocks {
            let len = rng.gen_range(1..=8usize);
            cfg.block(len);
        }
        // Chain edges (program order fallthrough candidates).
        for b in 0..blocks - 1 {
            cfg.edge(BlockId(b), BlockId(b + 1), 10 + rng.gen_range(0..90u64));
        }
        // Random extra edges: mostly forward, some back edges (loops)
        // with hot frequencies.
        for b in 0..blocks {
            for _ in 0..fanout.saturating_sub(1) {
                let target = rng.gen_range(0..blocks);
                if target == b {
                    continue;
                }
                let hot = target < b; // back edge: loop, hotter
                let freq = if hot {
                    100 + rng.gen_range(0..400u64)
                } else {
                    1 + rng.gen_range(0..50u64)
                };
                cfg.edge(BlockId(b), BlockId(target), freq);
            }
        }
        cfg
    }

    /// A structured CFG: `loops` hot inner loops of `body` blocks each,
    /// joined by cold glue blocks — the shape compilers actually emit.
    pub fn structured(loops: usize, body: usize, iterations: u64) -> Cfg {
        assert!(loops > 0 && body > 0);
        let mut cfg = Cfg::new();
        let mut prev_exit: Option<BlockId> = None;
        for _ in 0..loops {
            let header = cfg.block(2);
            if let Some(exit) = prev_exit {
                cfg.edge(exit, header, 1);
            }
            let mut prev = header;
            for _ in 0..body {
                let blk = cfg.block(4);
                cfg.edge(prev, blk, iterations);
                prev = blk;
            }
            // Back edge to the header (hot) and loop exit (cold).
            cfg.edge(prev, header, iterations);
            let exit = cfg.block(1);
            cfg.edge(header, exit, 1);
            prev_exit = Some(exit);
        }
        cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_and_edge_accounting() {
        let mut cfg = Cfg::new();
        let a = cfg.block(3);
        let b = cfg.block(5);
        cfg.edge(a, b, 7);
        cfg.edge(a, b, 3); // accumulates
        assert_eq!(cfg.num_blocks(), 2);
        assert_eq!(cfg.total_len(), 8);
        assert_eq!(cfg.edges().len(), 1);
        assert_eq!(cfg.edges()[0].frequency, 10);
    }

    #[test]
    #[should_panic(expected = "at least one instruction")]
    fn zero_length_block_rejected() {
        Cfg::new().block(0);
    }

    #[test]
    fn random_cfg_is_deterministic_and_connected_chain() {
        let a = Cfg::random(16, 3, 9);
        let b = Cfg::random(16, 3, 9);
        assert_eq!(a, b);
        // The chain edges guarantee every consecutive pair is linked.
        for i in 0..15 {
            assert!(a
                .edges()
                .iter()
                .any(|e| e.from == BlockId(i) && e.to == BlockId(i + 1)));
        }
    }

    #[test]
    fn structured_cfg_has_hot_back_edges() {
        let cfg = Cfg::structured(2, 3, 500);
        let hot: Vec<&CfgEdge> = cfg.edges().iter().filter(|e| e.frequency >= 500).collect();
        // body edges + back edge per loop.
        assert_eq!(hot.len(), 2 * (3 + 1));
        // Back edges go backwards.
        assert!(hot.iter().any(|e| e.to.0 < e.from.0));
    }
}
