//! The memoizing solve cache: sharded, LRU-evicting, fingerprint-keyed,
//! with versioned records that background upgrades rewrite in place.
//!
//! A cache entry memoizes the full solve *result object* (placement,
//! costs, metadata) for one `(fingerprint, algorithm, seed)` triple.
//! Because every solver in the workspace is deterministic, a hit is
//! byte-for-byte what a fresh solve would have produced — the cache is
//! a pure latency optimization and can never change response bodies
//! for a fixed record version.
//!
//! The payload is a type parameter. The engine stores each result as
//! its rendered compact JSON (`Arc<str>`), rendered once when it is
//! solved, so a hit copies bytes into the response body instead of
//! cloning and re-rendering a JSON tree, and a resident result costs
//! its rendered length rather than a tree about eight times that size.
//! The parameter's default, a `json::Value` tree, exists only for the
//! end-to-end benchmark's traced replay, which names both types without
//! parameters and keeps trees in its own mirror cache; it goes when
//! ROADMAP item 2 deletes that mirror. [`CacheStats::bytes`] sums
//! `size_of_val` of every resident payload's target: exactly the
//! rendered length for `Arc<str>`, only the root node for a tree.
//!
//! Records are **versioned**: each carries the arrangement cost it
//! memoizes, the tier and solver that produced it, a monotonically
//! increasing version, and the count of applied upgrades. The
//! background upgrade lane calls [`SolveCache::upgrade`], which
//! replaces a record in place **only when the new arrangement is
//! strictly cheaper** — so versions only move forward to strictly
//! better placements, and a repeat caller can watch `version` bump as
//! heavier solvers land.
//!
//! Sharding: entries are spread over a power-of-two number of
//! independently locked shards by the low fingerprint bits, so
//! concurrent requests for *different* workloads never contend on one
//! mutex. Each shard runs its own LRU clock (a bump-on-touch tick);
//! eviction scans the over-full shard for the stale minimum, which is
//! O(shard size) but only runs on insert into a full shard — cheap next
//! to the solve that produced the entry.

use std::collections::HashMap;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use dwm_foundation::json::Value;
use dwm_graph::Fingerprint;

/// Number of independently locked shards (power of two).
const SHARDS: usize = 8;

/// Key identifying one memoized solve.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Canonical workload fingerprint.
    pub fingerprint: Fingerprint,
    /// Algorithm name the solve used (`"anytime"` for tiered solves).
    pub algorithm: String,
    /// Seed the stochastic algorithms used.
    pub seed: u64,
}

/// One memoized solve with its provenance and upgrade lineage.
#[derive(Debug, Clone)]
pub struct CacheRecord<P = Arc<Value>> {
    /// The memoized result object (never includes the `cache` field —
    /// that is derived per response from this record's metadata).
    pub value: P,
    /// Arrangement cost of the memoized placement; the strict-
    /// improvement bar every upgrade must clear.
    pub cost: u64,
    /// Tier index that produced the current value (0/1/2).
    pub tier: u8,
    /// Solver provenance (e.g. `"greedy-csr"`, `"annealing"`).
    pub solver: String,
    /// Record version; starts at 1, bumped by every applied upgrade.
    pub version: u64,
    /// Number of upgrades applied to this record.
    pub upgrades: u64,
}

impl<P> CacheRecord<P> {
    /// A freshly solved record at version 1.
    pub fn fresh(value: P, cost: u64, tier: u8, solver: impl Into<String>) -> Self {
        CacheRecord {
            value,
            cost,
            tier,
            solver: solver.into(),
            version: 1,
            upgrades: 0,
        }
    }
}

/// Bytes a payload keeps resident, as [`CacheStats::bytes`] counts them.
fn payload_bytes<P: Deref>(payload: &P) -> u64 {
    std::mem::size_of_val::<P::Target>(payload) as u64
}

struct Entry<P> {
    record: CacheRecord<P>,
    last_used: u64,
    /// Lookups that found this entry, since it was (re)inserted. Feeds
    /// the upgrade lane's priority: hot fingerprints upgrade first.
    hits: u64,
}

struct Shard<P> {
    map: HashMap<CacheKey, Entry<P>>,
    tick: u64,
    /// Sum of [`payload_bytes`] over `map`.
    bytes: u64,
}

impl<P: Deref> Shard<P> {
    fn remove(&mut self, key: &CacheKey) -> Option<Entry<P>> {
        let entry = self.map.remove(key)?;
        self.bytes -= payload_bytes(&entry.record.value);
        Some(entry)
    }
}

/// Monotonic counters describing cache behaviour since startup.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found an entry.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Payload bytes currently resident (see the module docs).
    pub bytes: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
    /// Configured capacity (0 = caching disabled).
    pub capacity: u64,
    /// Background upgrades that strictly improved a record.
    pub upgrades_applied: u64,
    /// Background upgrades discarded (not strictly better, or the
    /// record was gone by the time the upgrade landed).
    pub upgrades_discarded: u64,
}

/// A sharded LRU cache from [`CacheKey`] to versioned memoized solve
/// records.
///
/// `capacity` is the total entry budget, split evenly across shards; a
/// capacity of 0 disables caching entirely (every lookup misses, every
/// insert is dropped), which the bench suite uses to measure pure
/// solve cost.
pub struct SolveCache<P = Arc<Value>> {
    shards: Vec<Mutex<Shard<P>>>,
    per_shard_capacity: usize,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    upgrades_applied: AtomicU64,
    upgrades_discarded: AtomicU64,
}

impl<P: Clone + Deref> SolveCache<P> {
    /// Creates a cache with room for roughly `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        let per_shard_capacity = if capacity == 0 {
            0
        } else {
            capacity.div_ceil(SHARDS)
        };
        SolveCache {
            shards: (0..SHARDS)
                .map(|_| {
                    Mutex::new(Shard {
                        map: HashMap::new(),
                        tick: 0,
                        bytes: 0,
                    })
                })
                .collect(),
            per_shard_capacity,
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            upgrades_applied: AtomicU64::new(0),
            upgrades_discarded: AtomicU64::new(0),
        }
    }

    fn shard_of(&self, key: &CacheKey) -> &Mutex<Shard<P>> {
        &self.shards[(key.fingerprint.lo as usize) & (SHARDS - 1)]
    }

    /// Looks up a memoized record, refreshing its LRU position.
    pub fn get(&self, key: &CacheKey) -> Option<CacheRecord<P>> {
        if self.per_shard_capacity == 0 {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let mut shard = self.shard_of(key).lock().unwrap();
        shard.tick += 1;
        let tick = shard.tick;
        match shard.map.get_mut(key) {
            Some(entry) => {
                entry.last_used = tick;
                entry.hits += 1;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.record.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Lookups that have hit `key` since it was (re)inserted — the
    /// demand signal the background upgrade lane orders its queue by.
    /// Does not touch the LRU position or the hit/miss counters; 0 for
    /// absent keys.
    pub fn hit_count(&self, key: &CacheKey) -> u64 {
        if self.per_shard_capacity == 0 {
            return 0;
        }
        let shard = self.shard_of(key).lock().unwrap();
        shard.map.get(key).map_or(0, |e| e.hits)
    }

    /// Memoizes a solve record, evicting the least-recently-used entry
    /// of the target shard if it is full.
    pub fn insert(&self, key: CacheKey, record: CacheRecord<P>) {
        if self.per_shard_capacity == 0 {
            return;
        }
        let mut shard = self.shard_of(&key).lock().unwrap();
        shard.tick += 1;
        let tick = shard.tick;
        if shard.remove(&key).is_none() && shard.map.len() >= self.per_shard_capacity {
            if let Some(stale) = shard
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k.clone())
            {
                shard.remove(&stale);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.bytes += payload_bytes(&record.value);
        shard.map.insert(
            key,
            Entry {
                record,
                last_used: tick,
                hits: 0,
            },
        );
    }

    /// Rewrites a record in place with a strictly better arrangement:
    /// the new value is installed only when `cost` is strictly below
    /// the resident record's cost, bumping `version` and `upgrades`
    /// while keeping the LRU position untouched (an upgrade is not a
    /// use). Returns `true` when the upgrade was applied; `false` (and
    /// a discard count) when it wasn't strictly better or the record
    /// was evicted in the meantime.
    pub fn upgrade(
        &self,
        key: &CacheKey,
        value: P,
        cost: u64,
        tier: u8,
        solver: impl Into<String>,
    ) -> bool {
        if self.per_shard_capacity == 0 {
            self.upgrades_discarded.fetch_add(1, Ordering::Relaxed);
            return false;
        }
        let mut shard = self.shard_of(key).lock().unwrap();
        let shard = &mut *shard;
        match shard.map.get_mut(key) {
            Some(entry) if cost < entry.record.cost => {
                shard.bytes += payload_bytes(&value);
                shard.bytes -= payload_bytes(&entry.record.value);
                entry.record.value = value;
                entry.record.cost = cost;
                entry.record.tier = tier;
                entry.record.solver = solver.into();
                entry.record.version += 1;
                entry.record.upgrades += 1;
                self.upgrades_applied.fetch_add(1, Ordering::Relaxed);
                true
            }
            _ => {
                self.upgrades_discarded.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// A consistent-enough snapshot of the counters.
    pub fn stats(&self) -> CacheStats {
        let (mut entries, mut bytes) = (0, 0);
        for shard in &self.shards {
            let shard = shard.lock().expect("cache shard lock poisoned");
            entries += shard.map.len() as u64;
            bytes += shard.bytes;
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries,
            bytes,
            evictions: self.evictions.load(Ordering::Relaxed),
            capacity: self.capacity as u64,
            upgrades_applied: self.upgrades_applied.load(Ordering::Relaxed),
            upgrades_discarded: self.upgrades_discarded.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The engine's payload: rendered result bytes.
    type Cache = SolveCache<Arc<str>>;

    fn key(lo: u64, alg: &str, seed: u64) -> CacheKey {
        CacheKey {
            fingerprint: Fingerprint { hi: 7, lo },
            algorithm: alg.to_owned(),
            seed,
        }
    }

    fn val(n: u64) -> Arc<str> {
        Arc::from(n.to_string())
    }

    fn rec(n: u64, cost: u64) -> CacheRecord<Arc<str>> {
        CacheRecord::fresh(val(n), cost, 0, "greedy-csr")
    }

    #[test]
    fn hit_after_insert_and_key_components_distinguish() {
        let cache = Cache::new(64);
        cache.insert(key(1, "hybrid", 1), rec(10, 100));
        let hit = cache.get(&key(1, "hybrid", 1)).expect("hit");
        assert_eq!(hit.value.as_ref(), val(10).as_ref());
        assert_eq!((hit.cost, hit.version, hit.upgrades), (100, 1, 0));
        assert!(cache.get(&key(2, "hybrid", 1)).is_none());
        assert!(cache.get(&key(1, "spectral", 1)).is_none());
        assert!(cache.get(&key(1, "hybrid", 2)).is_none());
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn lru_evicts_the_coldest_entry_per_shard() {
        // Capacity 8 over 8 shards = 1 entry per shard; keys 0 and 8
        // land in the same shard (lo % 8).
        let cache = Cache::new(8);
        cache.insert(key(0, "a", 0), rec(1, 10));
        cache.insert(key(8, "a", 0), rec(2, 10));
        assert!(cache.get(&key(0, "a", 0)).is_none(), "cold entry evicted");
        assert!(cache.get(&key(8, "a", 0)).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn get_refreshes_recency() {
        // 16 total → 2 per shard. Keys 0, 8, 16 share shard 0.
        let cache = Cache::new(16);
        cache.insert(key(0, "a", 0), rec(1, 10));
        cache.insert(key(8, "a", 0), rec(2, 10));
        // Touch 0 so 8 becomes the LRU victim.
        assert!(cache.get(&key(0, "a", 0)).is_some());
        cache.insert(key(16, "a", 0), rec(3, 10));
        assert!(cache.get(&key(0, "a", 0)).is_some());
        assert!(cache.get(&key(8, "a", 0)).is_none());
        assert!(cache.get(&key(16, "a", 0)).is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let cache = Cache::new(0);
        cache.insert(key(1, "a", 0), rec(1, 10));
        assert!(cache.get(&key(1, "a", 0)).is_none());
        assert!(!cache.upgrade(&key(1, "a", 0), val(2), 5, 2, "annealing"));
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.capacity, 0);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.upgrades_discarded, 1);
    }

    #[test]
    fn reinserting_an_existing_key_replaces_without_eviction() {
        let cache = Cache::new(8);
        cache.insert(key(0, "a", 0), rec(1, 10));
        cache.insert(key(0, "a", 0), rec(9, 10));
        let got = cache.get(&key(0, "a", 0)).unwrap();
        assert_eq!(got.value.as_ref(), val(9).as_ref());
        assert_eq!(cache.stats().evictions, 0);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn upgrade_applies_only_strict_improvements() {
        let cache = Cache::new(64);
        let k = key(3, "anytime", 1);
        cache.insert(k.clone(), rec(1, 100));

        // Equal cost: discarded, record untouched.
        assert!(!cache.upgrade(&k, val(2), 100, 2, "annealing"));
        let r = cache.get(&k).unwrap();
        assert_eq!((r.version, r.upgrades, r.cost), (1, 0, 100));
        assert_eq!(r.value.as_ref(), val(1).as_ref());

        // Strictly better: applied, version bumped.
        assert!(cache.upgrade(&k, val(2), 60, 2, "annealing"));
        let r = cache.get(&k).unwrap();
        assert_eq!((r.version, r.upgrades, r.cost), (2, 1, 60));
        assert_eq!(r.tier, 2);
        assert_eq!(r.solver, "annealing");
        assert_eq!(r.value.as_ref(), val(2).as_ref());

        // Worse: discarded again.
        assert!(!cache.upgrade(&k, val(3), 90, 2, "hybrid"));
        assert_eq!(cache.get(&k).unwrap().version, 2);

        let stats = cache.stats();
        assert_eq!(stats.upgrades_applied, 1);
        assert_eq!(stats.upgrades_discarded, 2);
    }

    #[test]
    fn hit_count_tracks_lookups_without_spending_them() {
        let cache = Cache::new(64);
        let k = key(4, "hybrid", 0);
        assert_eq!(cache.hit_count(&k), 0); // absent key
        cache.insert(k.clone(), rec(1, 10));
        assert_eq!(cache.hit_count(&k), 0); // fresh entry
        cache.get(&k);
        cache.get(&k);
        cache.get(&k);
        assert_eq!(cache.hit_count(&k), 3);
        // Reading the count is not itself a hit.
        assert_eq!(cache.hit_count(&k), 3);
        assert_eq!(cache.stats().hits, 3);
        // Re-insertion resets the demand signal.
        cache.insert(k.clone(), rec(2, 10));
        assert_eq!(cache.hit_count(&k), 0);
        // Disabled cache always answers 0.
        assert_eq!(Cache::new(0).hit_count(&k), 0);
    }

    #[test]
    fn upgrade_of_a_missing_record_is_discarded() {
        let cache = Cache::new(64);
        assert!(!cache.upgrade(&key(5, "anytime", 0), val(1), 1, 2, "annealing"));
        assert_eq!(cache.stats().upgrades_discarded, 1);
        assert_eq!(cache.stats().entries, 0);
    }

    #[test]
    fn upgrade_does_not_refresh_lru_position() {
        // 8 total → 1 per shard; keys 0 and 8 share shard 0.
        let cache = Cache::new(16);
        cache.insert(key(0, "a", 0), rec(1, 100));
        cache.insert(key(8, "a", 0), rec(2, 100));
        // Upgrading key 0 must not make it "recently used"…
        assert!(cache.upgrade(&key(0, "a", 0), val(3), 50, 2, "annealing"));
        // …so after touching 8 and inserting a third key into the
        // shard, key 0 is still the LRU victim.
        assert!(cache.get(&key(8, "a", 0)).is_some());
        cache.insert(key(16, "a", 0), rec(4, 100));
        assert!(
            cache.get(&key(0, "a", 0)).is_none(),
            "upgraded entry evicted"
        );
        assert!(cache.get(&key(8, "a", 0)).is_some());
    }

    #[test]
    fn bytes_are_the_sum_of_resident_payload_lengths() {
        let fresh = |s: &str| CacheRecord::fresh(Arc::from(s), 100, 0, "greedy-csr");
        // The payload lengths of every resident key, read back.
        let resident = |cache: &Cache| -> u64 {
            [0, 1, 8, 16]
                .into_iter()
                .filter_map(|lo| cache.get(&key(lo, "a", 0)))
                .map(|r| r.value.len() as u64)
                .sum()
        };
        // 16 total → 2 per shard; keys 0, 8 and 16 share shard 0.
        let cache = Cache::new(16);
        cache.insert(key(0, "a", 0), fresh("aaaa"));
        cache.insert(key(1, "a", 0), fresh("bbbbbbbbbb"));
        assert_eq!(cache.stats().bytes, 4 + 10);
        // A re-insert replaces the key's payload.
        cache.insert(key(0, "a", 0), fresh("cc"));
        assert_eq!(cache.stats().bytes, 2 + 10);
        // A third key in shard 0 evicts its LRU entry, key 0.
        cache.insert(key(8, "a", 0), fresh("ddddd"));
        cache.insert(key(16, "a", 0), fresh("eeeeeee"));
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().bytes, 10 + 5 + 7);
        // An applied upgrade swaps the payload; discarded ones (not
        // strictly cheaper, or an evicted key) leave it.
        assert!(cache.upgrade(&key(8, "a", 0), Arc::from("f"), 50, 2, "annealing"));
        assert!(!cache.upgrade(&key(8, "a", 0), Arc::from("gggggggg"), 50, 2, "annealing"));
        assert!(!cache.upgrade(&key(0, "a", 0), Arc::from("hhh"), 1, 2, "annealing"));
        assert_eq!(cache.stats().bytes, 10 + 1 + 7);
        assert_eq!(cache.stats().bytes, resident(&cache));

        let off = Cache::new(0);
        off.insert(key(0, "a", 0), fresh("aaaa"));
        assert!(!off.upgrade(&key(0, "a", 0), Arc::from("b"), 1, 2, "annealing"));
        assert_eq!(off.stats().bytes, 0);
        assert_eq!(resident(&off), 0);
    }
}
