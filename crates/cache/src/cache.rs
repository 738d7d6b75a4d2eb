use dwm_trace::Trace;

use crate::config::CacheConfig;
use crate::policy::PromotionPolicy;

/// Result of one cache access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the block was found.
    pub hit: bool,
    /// Tape shift steps this access cost (alignment + promotion).
    pub shifts: u64,
    /// The set index touched.
    pub set: usize,
    /// The way the block ended up in.
    pub way: usize,
}

/// Aggregate cache statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Accesses that found their block.
    pub hits: u64,
    /// Accesses that missed.
    pub misses: u64,
    /// Total tape shift steps (alignment + promotion swaps).
    pub shifts: u64,
    /// Promotion swaps performed.
    pub promotions: u64,
    /// Evictions of valid blocks.
    pub evictions: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit ratio in `[0, 1]`; 0 for no accesses.
    pub fn hit_ratio(&self) -> f64 {
        let n = self.accesses();
        if n == 0 {
            0.0
        } else {
            self.hits as f64 / n as f64
        }
    }

    /// Mean shifts per access; 0 for no accesses.
    pub fn shifts_per_access(&self) -> f64 {
        let n = self.accesses();
        if n == 0 {
            0.0
        } else {
            self.shifts as f64 / n as f64
        }
    }
}

/// One cache set: tag array, recency, and tape position.
#[derive(Debug, Clone)]
struct Set {
    /// `tags[w]` = tag stored in way `w` (`None` = invalid).
    tags: Vec<Option<u64>>,
    /// Last-use timestamp per way (`None` = invalid).
    last_used: Vec<Option<u64>>,
    /// Way currently under the port.
    position: usize,
}

impl Set {
    fn new(ways: usize) -> Self {
        Set {
            tags: vec![None; ways],
            last_used: vec![None; ways],
            position: 0,
        }
    }
}

/// Functional model of a set-associative DWM cache.
///
/// Addresses are block ids: `set = id % sets`, `tag = id / sets`. Each
/// set's tape state is the way under its port; aligning way `w` from
/// way `v` costs `|w − v|` shifts (single-port tape, the same model the
/// placement crates use).
///
/// # Example
///
/// ```
/// use dwm_cache::{CacheConfig, DwmCache, ReplacementPolicy};
///
/// let config = CacheConfig::new(8, 4)?
///     .with_replacement(ReplacementPolicy::ShiftAwareLru { window: 1 });
/// let mut cache = DwmCache::new(config);
/// for id in [0u64, 8, 16, 0, 8] {
///     cache.access(id);
/// }
/// assert!(cache.stats().hits >= 2);
/// # Ok::<(), dwm_cache::CacheConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct DwmCache {
    config: CacheConfig,
    sets: Vec<Set>,
    clock: u64,
    stats: CacheStats,
}

impl DwmCache {
    /// An empty cache with the given configuration.
    pub fn new(config: CacheConfig) -> Self {
        DwmCache {
            sets: (0..config.sets())
                .map(|_| Set::new(config.ways()))
                .collect(),
            config,
            clock: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets statistics (contents preserved).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Accesses block `id`, shifting the set's tape as needed and
    /// applying the replacement/promotion policies.
    pub fn access(&mut self, id: u64) -> AccessOutcome {
        self.clock += 1;
        let set_index = (id % self.config.sets() as u64) as usize;
        let tag = id / self.config.sets() as u64;
        let promotion = self.config.promotion;
        let swap_cost = self.config.promotion_swap_shifts;
        let replacement = self.config.replacement;
        let clock = self.clock;
        let set = &mut self.sets[set_index];

        let found = set.tags.iter().position(|&t| t == Some(tag));
        let (hit, mut way) = match found {
            Some(w) => (true, w),
            None => {
                let victim = replacement.choose_victim(&set.last_used, set.position);
                if set.tags[victim].is_some() {
                    self.stats.evictions += 1;
                }
                set.tags[victim] = Some(tag);
                set.last_used[victim] = None; // freshly filled; stamped below
                (false, victim)
            }
        };

        // Align the way with the port (same single-port tape metric
        // as the placement cost model).
        let mut shifts = set.position.abs_diff(way) as u64;
        set.position = way;

        // Promotion: swap one way toward the port.
        if hit && promotion == PromotionPolicy::SwapTowardPort && way > 0 {
            let neighbour = way - 1;
            set.tags.swap(way, neighbour);
            set.last_used.swap(way, neighbour);
            shifts += swap_cost;
            way = neighbour;
            set.position = neighbour;
            self.stats.promotions += 1;
        }

        set.last_used[way] = Some(clock);
        if hit {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        self.stats.shifts += shifts;
        AccessOutcome {
            hit,
            shifts,
            set: set_index,
            way,
        }
    }

    /// Replays a whole trace (item ids as block ids) and returns the
    /// statistics delta for it.
    pub fn run_trace(&mut self, trace: &Trace) -> CacheStats {
        let before = self.stats;
        for a in trace.iter() {
            self.access(a.item.0 as u64);
        }
        CacheStats {
            hits: self.stats.hits - before.hits,
            misses: self.stats.misses - before.misses,
            shifts: self.stats.shifts - before.shifts,
            promotions: self.stats.promotions - before.promotions,
            evictions: self.stats.evictions - before.evictions,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::ReplacementPolicy;
    use dwm_trace::synth::{TraceGenerator, ZipfGen};

    fn cache(sets: usize, ways: usize) -> DwmCache {
        DwmCache::new(CacheConfig::new(sets, ways).unwrap())
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = cache(4, 2);
        let first = c.access(12);
        assert!(!first.hit);
        let second = c.access(12);
        assert!(second.hit);
        assert_eq!(second.shifts, 0, "block is already under the port");
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn set_indexing_separates_conflicts() {
        let mut c = cache(4, 1);
        c.access(0); // set 0
        c.access(1); // set 1
        assert!(c.access(0).hit, "different sets must not conflict");
        // Same set (0), different tag: evicts.
        assert!(!c.access(4).hit);
        assert!(!c.access(0).hit, "way was reused");
        assert_eq!(c.stats().evictions, 2);
    }

    #[test]
    fn lru_evicts_oldest_way() {
        let mut c = cache(1, 2);
        c.access(0);
        c.access(1);
        c.access(0); // refresh 0
        c.access(2); // evicts 1 (LRU)
        assert!(c.access(0).hit);
        assert!(!c.access(1).hit);
    }

    #[test]
    fn shifts_track_way_distance() {
        let mut c = cache(1, 4);
        c.access(0); // way 0, pos 0→0
        c.access(1); // way 1: 1 shift
        c.access(2); // way 2: 1 shift
        c.access(0); // hit way 0: 2 shifts
        assert_eq!(c.stats().shifts, 1 + 1 + 2);
    }

    #[test]
    fn promotion_moves_hot_block_toward_port() {
        let config = CacheConfig::new(1, 4)
            .unwrap()
            .with_promotion(PromotionPolicy::SwapTowardPort);
        let mut c = DwmCache::new(config);
        for id in 0..4 {
            c.access(id);
        }
        // Block 3 sits at way 3; repeated hits walk it to way 0.
        let mut last_way = 3;
        for _ in 0..3 {
            let out = c.access(3);
            assert!(out.hit);
            assert_eq!(out.way, last_way - 1);
            last_way = out.way;
        }
        assert_eq!(c.stats().promotions, 3);
        assert_eq!(c.access(3).way, 0, "hot block pinned at the port");
    }

    #[test]
    fn shift_aware_lru_cuts_shifts_on_skewed_workloads() {
        let trace = ZipfGen::new(256, 11).generate(20_000);
        let mut plain = cache(8, 8);
        let plain_stats = plain.run_trace(&trace);
        let mut aware = DwmCache::new(
            CacheConfig::new(8, 8)
                .unwrap()
                .with_replacement(ReplacementPolicy::ShiftAwareLru { window: 2 })
                .with_promotion(PromotionPolicy::SwapTowardPort),
        );
        let aware_stats = aware.run_trace(&trace);
        assert!(
            aware_stats.shifts < plain_stats.shifts,
            "aware {} vs plain {}",
            aware_stats.shifts,
            plain_stats.shifts
        );
        // The hit-rate sacrifice must be modest (< 10 points).
        assert!(aware_stats.hit_ratio() > plain_stats.hit_ratio() - 0.10);
    }

    #[test]
    fn run_trace_returns_delta() {
        let trace = ZipfGen::new(64, 3).generate(500);
        let mut c = cache(4, 4);
        let first = c.run_trace(&trace);
        let second = c.run_trace(&trace);
        assert_eq!(first.accesses(), 500);
        assert_eq!(second.accesses(), 500);
        // Warm cache: second pass hits at least as often.
        assert!(second.hits >= first.hits);
    }

    #[test]
    fn stats_ratios_are_sane() {
        let mut c = cache(2, 2);
        assert_eq!(c.stats().hit_ratio(), 0.0);
        assert_eq!(c.stats().shifts_per_access(), 0.0);
        c.access(0);
        c.access(0);
        assert!((c.stats().hit_ratio() - 0.5).abs() < 1e-12);
    }
}
