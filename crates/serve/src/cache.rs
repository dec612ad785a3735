//! The content-addressed MSA feature cache.
//!
//! AF_Cache's observation, expressed on our cost model: MSA features
//! depend only on the query content, so a repeated entity can load its
//! feature file from NVMe instead of re-running hours of jackhmmer /
//! nhmmer. The cache is keyed by entity identity (the workload's
//! content address), capacity-bounded in bytes, and evicts least
//! recently used entries. Hit/miss/eviction counters are published
//! through `rt::obs` by the server.
//!
//! A hit charges only the storage-priced feature load (the server
//! computes it from the platform's sequential-read bandwidth); a miss
//! pays the full CPU phase. Concurrent misses for the same entity are
//! *not* coalesced by default — like the naive systems, two in-flight
//! requests for an uncached entity both run the search, and the second
//! insert just refreshes the entry. When the server opts in
//! (`ServeConfig::coalesce_misses`), the second request instead waits
//! on the in-flight fill (a `CacheFill` event on the engine clock) and
//! the wait is counted here as a [`FeatureCache::coalesced_hit`].

use std::collections::BTreeMap;

/// A capacity-bounded LRU cache of MSA feature files.
///
/// Recency is a monotone stamp: every insert or hit gives the entry the
/// next stamp, so the least recently used entry is the one with the
/// smallest stamp. Two ordered maps index the same entries — by entity
/// for lookup, by stamp for eviction — so every operation is O(log n)
/// instead of a scan of the entry list.
#[derive(Debug, Clone, Default)]
pub struct FeatureCache {
    capacity_bytes: u64,
    /// entity → (recency stamp, file bytes).
    by_entity: BTreeMap<usize, (u64, u64)>,
    /// recency stamp → entity, least recently used first.
    by_recency: BTreeMap<u64, usize>,
    next_stamp: u64,
    bytes: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
    coalesced: u64,
}

impl FeatureCache {
    /// A cache holding at most `capacity_bytes` of feature files
    /// (`0` disables caching entirely).
    pub fn new(capacity_bytes: u64) -> FeatureCache {
        FeatureCache {
            capacity_bytes,
            ..FeatureCache::default()
        }
    }

    /// Give `entity` (stored with `bytes`) the most recent stamp.
    fn stamp(&mut self, entity: usize, bytes: u64) {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.by_recency.insert(stamp, entity);
        self.by_entity.insert(entity, (stamp, bytes));
    }

    /// Look up an entity, counting a hit or miss and refreshing
    /// recency on hit.
    pub fn lookup(&mut self, entity: usize) -> bool {
        match self.by_entity.get(&entity) {
            Some(&(stamp, bytes)) => {
                self.by_recency.remove(&stamp);
                self.stamp(entity, bytes);
                self.hits += 1;
                true
            }
            None => {
                self.misses += 1;
                false
            }
        }
    }

    /// Insert (or refresh) an entity's feature file, evicting LRU
    /// entries until it fits. A file larger than the whole cache is
    /// not admitted (and a refresh that grows past it drops the entry).
    pub fn insert(&mut self, entity: usize, file_bytes: u64) {
        if let Some((stamp, old)) = self.by_entity.remove(&entity) {
            self.by_recency.remove(&stamp);
            self.bytes -= old;
        }
        if file_bytes > self.capacity_bytes {
            return;
        }
        while self.bytes + file_bytes > self.capacity_bytes {
            let (_, lru) = self
                .by_recency
                .pop_first()
                .expect("cached bytes imply a cached entry");
            let (_, evicted) = self.by_entity.remove(&lru).expect("indexes agree");
            self.bytes -= evicted;
            self.evictions += 1;
        }
        self.stamp(entity, file_bytes);
        self.bytes += file_bytes;
    }

    /// Count a request that piggybacked on an in-flight fill for its
    /// entity instead of duplicating the MSA search: a hit (the CPU
    /// phase was skipped) that also bumps the coalesced counter. The
    /// entity is not cached yet, so there is no recency to refresh.
    pub fn coalesced_hit(&mut self) {
        self.hits += 1;
        self.coalesced += 1;
    }

    /// Whether the entity is currently cached (no counter side effects).
    pub fn contains(&self, entity: usize) -> bool {
        self.by_entity.contains_key(&entity)
    }

    /// Cached entries.
    pub fn len(&self) -> usize {
        self.by_entity.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.by_entity.is_empty()
    }

    /// Bytes currently cached.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Lookup hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookup misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries evicted so far.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Hits that piggybacked on an in-flight fill so far.
    pub fn coalesced(&self) -> u64 {
        self.coalesced
    }

    /// Hits over lookups (`0.0` before any lookup).
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits as f64 / lookups as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_accounting_and_recency() {
        let mut c = FeatureCache::new(100);
        assert!(!c.lookup(1));
        c.insert(1, 40);
        assert!(c.lookup(1));
        assert_eq!((c.hits(), c.misses()), (1, 1));
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(c.bytes(), 40);
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_evicts_least_recently_used_first() {
        let mut c = FeatureCache::new(100);
        c.insert(1, 40);
        c.insert(2, 40);
        assert!(c.lookup(1)); // 2 is now LRU
        c.insert(3, 40); // must evict 2, not 1
        assert!(c.contains(1));
        assert!(!c.contains(2));
        assert!(c.contains(3));
        assert_eq!(c.evictions(), 1);
        assert_eq!(c.bytes(), 80);
    }

    #[test]
    fn refresh_does_not_double_count_bytes() {
        let mut c = FeatureCache::new(100);
        c.insert(1, 40);
        c.insert(1, 60); // concurrent-miss refresh with a new size
        assert_eq!(c.bytes(), 60);
        assert_eq!(c.len(), 1);
        assert_eq!(c.evictions(), 0);
    }

    #[test]
    fn coalesced_hits_count_as_hits_without_inserting() {
        let mut c = FeatureCache::new(100);
        assert!(!c.lookup(1)); // first miss starts the fill
        c.coalesced_hit(); // second request waits on it
        assert_eq!((c.hits(), c.misses(), c.coalesced()), (1, 1, 1));
        assert!((c.hit_rate() - 0.5).abs() < 1e-12);
        assert!(c.is_empty(), "coalescing must not insert the entry early");
    }

    #[test]
    fn zero_capacity_disables_and_oversized_files_skip() {
        let mut c = FeatureCache::new(0);
        c.insert(1, 1);
        assert!(c.is_empty());
        assert!(!c.lookup(1));

        let mut c = FeatureCache::new(50);
        c.insert(1, 40);
        c.insert(2, 80); // larger than capacity: not admitted
        assert!(c.contains(1));
        assert!(!c.contains(2));
        assert_eq!(c.evictions(), 0, "an oversized file must not evict");
    }
}
