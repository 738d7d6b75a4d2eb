/// Victim-selection policy for misses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplacementPolicy {
    /// Evict the least recently used way, regardless of where the tape
    /// currently sits (the shift-oblivious baseline).
    Lru,
    /// Evict the least recently used way among the `window + 1` ways
    /// nearest the tape's current position. `window = ways` degenerates
    /// to plain LRU; `window = 0` always evicts the way under the port.
    /// Trades a little recency quality for much shorter victim shifts.
    ShiftAwareLru {
        /// How far from the current position a victim may be.
        window: usize,
    },
}

/// What to do with a block on a hit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PromotionPolicy {
    /// Leave blocks where they are.
    None,
    /// Swap the hit block one way closer to the port (way 0), skewing
    /// hot blocks toward cheap positions over time — the run-time
    /// analogue of organ-pipe placement. Costs
    /// [`promotion_swap_shifts`](crate::CacheConfig::promotion_swap_shifts)
    /// extra shifts per swap.
    SwapTowardPort,
}

impl ReplacementPolicy {
    /// Chooses the victim way.
    ///
    /// `last_used[w]` is the logical timestamp way `w` was last
    /// touched (`None` = invalid/empty way, preferred unconditionally);
    /// `position` is the way currently under the port.
    pub fn choose_victim(&self, last_used: &[Option<u64>], position: usize) -> usize {
        // Empty way first — filling never needs eviction.
        if let Some(w) = last_used.iter().position(|t| t.is_none()) {
            return w;
        }
        match *self {
            ReplacementPolicy::Lru => last_used
                .iter()
                .enumerate()
                .min_by_key(|&(w, t)| (t.expect("no empty ways here"), w))
                .map(|(w, _)| w)
                .expect("at least one way"),
            ReplacementPolicy::ShiftAwareLru { window } => last_used
                .iter()
                .enumerate()
                .filter(|&(w, _)| w.abs_diff(position) <= window)
                .min_by_key(|&(w, t)| (t.expect("no empty ways here"), w))
                .map(|(w, _)| w)
                .expect("window always contains the current position"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_way_is_always_preferred() {
        let last = [Some(5), None, Some(1)];
        assert_eq!(ReplacementPolicy::Lru.choose_victim(&last, 0), 1);
        assert_eq!(
            ReplacementPolicy::ShiftAwareLru { window: 0 }.choose_victim(&last, 2),
            1
        );
    }

    #[test]
    fn lru_picks_oldest() {
        let last = [Some(5), Some(2), Some(9)];
        assert_eq!(ReplacementPolicy::Lru.choose_victim(&last, 0), 1);
    }

    #[test]
    fn shift_aware_respects_window() {
        let last = [Some(1), Some(5), Some(9), Some(3)];
        // Position 2, window 1 → candidates ways 1..=3; oldest is way 3.
        assert_eq!(
            ReplacementPolicy::ShiftAwareLru { window: 1 }.choose_victim(&last, 2),
            3
        );
        // Window 0 → must evict the way under the port.
        assert_eq!(
            ReplacementPolicy::ShiftAwareLru { window: 0 }.choose_victim(&last, 2),
            2
        );
    }

    #[test]
    fn wide_window_degenerates_to_lru() {
        let last = [Some(7), Some(2), Some(4), Some(6)];
        let lru = ReplacementPolicy::Lru.choose_victim(&last, 3);
        let wide = ReplacementPolicy::ShiftAwareLru { window: 4 }.choose_victim(&last, 3);
        assert_eq!(lru, wide);
    }
}
