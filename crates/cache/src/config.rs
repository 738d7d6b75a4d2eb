use std::error::Error;
use std::fmt;

use crate::policy::{PromotionPolicy, ReplacementPolicy};

/// Error building a [`CacheConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfigError {
    /// Offending parameter.
    pub parameter: &'static str,
    /// Why it was rejected.
    pub reason: String,
}

impl fmt::Display for CacheConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid cache config: {}: {}",
            self.parameter, self.reason
        )
    }
}

impl Error for CacheConfigError {}

/// Geometry and policies of a DWM cache.
///
/// Each set's `ways` blocks live on one tape with a single port at way
/// 0; the tape state is the way currently under the port. Addresses
/// are block-granular (`block id = address`), index = `id % sets`, tag
/// = `id / sets`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    sets: usize,
    ways: usize,
    /// Victim selection policy.
    pub replacement: ReplacementPolicy,
    /// Hit-time block migration policy.
    pub promotion: PromotionPolicy,
    /// Extra shift steps charged for one promotion swap (the physical
    /// read-swap-write of two adjacent ways).
    pub promotion_swap_shifts: u64,
}

impl CacheConfig {
    /// A `sets × ways` cache with plain LRU and no promotion.
    ///
    /// # Errors
    ///
    /// Returns [`CacheConfigError`] when `sets` or `ways` is zero.
    pub fn new(sets: usize, ways: usize) -> Result<Self, CacheConfigError> {
        if sets == 0 {
            return Err(CacheConfigError {
                parameter: "sets",
                reason: "must be nonzero".into(),
            });
        }
        if ways == 0 {
            return Err(CacheConfigError {
                parameter: "ways",
                reason: "must be nonzero".into(),
            });
        }
        Ok(CacheConfig {
            sets,
            ways,
            replacement: ReplacementPolicy::Lru,
            promotion: PromotionPolicy::None,
            promotion_swap_shifts: 2,
        })
    }

    /// Sets the replacement policy.
    pub fn with_replacement(mut self, replacement: ReplacementPolicy) -> Self {
        self.replacement = replacement;
        self
    }

    /// Sets the promotion policy.
    pub fn with_promotion(mut self, promotion: PromotionPolicy) -> Self {
        self.promotion = promotion;
        self
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Number of ways per set (tape length).
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Total block capacity.
    pub fn capacity_blocks(&self) -> usize {
        self.sets * self.ways
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_geometry_accepted() {
        let c = CacheConfig::new(8, 4).unwrap();
        assert_eq!(c.sets(), 8);
        assert_eq!(c.ways(), 4);
        assert_eq!(c.capacity_blocks(), 32);
        assert_eq!(c.replacement, ReplacementPolicy::Lru);
        assert_eq!(c.promotion, PromotionPolicy::None);
    }

    #[test]
    fn zero_sets_rejected() {
        let err = CacheConfig::new(0, 4).unwrap_err();
        assert_eq!(err.parameter, "sets");
        assert!(err.to_string().contains("sets"));
    }

    #[test]
    fn zero_ways_rejected() {
        assert_eq!(CacheConfig::new(4, 0).unwrap_err().parameter, "ways");
    }

    #[test]
    fn builders_set_policies() {
        let c = CacheConfig::new(4, 4)
            .unwrap()
            .with_replacement(ReplacementPolicy::ShiftAwareLru { window: 2 })
            .with_promotion(PromotionPolicy::SwapTowardPort);
        assert_eq!(
            c.replacement,
            ReplacementPolicy::ShiftAwareLru { window: 2 }
        );
        assert_eq!(c.promotion, PromotionPolicy::SwapTowardPort);
    }
}
