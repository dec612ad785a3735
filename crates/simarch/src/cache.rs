//! Set-associative cache model with LRU replacement.

use crate::config::CacheLevelConfig;

/// Outcome of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lookup {
    /// The line was present.
    Hit,
    /// The line was absent and has been installed.
    Miss,
}

/// Running hit/miss statistics for one cache instance.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Demand lookups.
    pub accesses: u64,
    /// Demand hits.
    pub hits: u64,
    /// Demand misses.
    pub misses: u64,
    /// Lines installed by the prefetcher.
    pub prefetch_fills: u64,
    /// Demand hits on prefetched lines (prefetch usefulness).
    pub prefetch_hits: u64,
}

impl CacheStats {
    /// Miss ratio in `[0, 1]`; 0 when there were no accesses.
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses as f64
        }
    }

    /// Merge another stats block into this one.
    pub fn merge(&mut self, other: &CacheStats) {
        self.accesses += other.accesses;
        self.hits += other.hits;
        self.misses += other.misses;
        self.prefetch_fills += other.prefetch_fills;
        self.prefetch_hits += other.prefetch_hits;
    }
}

/// Tag-word flag: the way holds a line.
const VALID: u64 = 1 << 63;
/// Tag-word flag: the line was installed by the prefetcher and has not
/// been demand-hit since.
const PREFETCHED: u64 = 1 << 62;
/// Recency rank of an invalid way: older than any valid way.
const INVALID_RANK: u8 = u8::MAX;

/// A single set-associative cache with true-LRU replacement.
///
/// Addresses are byte addresses; the cache indexes by
/// `(addr / line) % sets` and tags with `addr / line / sets`.
///
/// Each way costs 9 bytes: one tag word carrying the valid and
/// prefetched flags in its two top bits, and one recency rank
/// (0 = most recently used). The valid ways of a set hold the ranks
/// `0..valid` once each and every invalid way holds 255, so the first
/// way of highest rank is the first invalid way, else the LRU way —
/// exactly the victim of a per-line use stamp, without the stamp.
///
/// ```
/// use afsb_simarch::cache::{Cache, Lookup};
/// use afsb_simarch::config::CacheLevelConfig;
///
/// let mut c = Cache::new(CacheLevelConfig { capacity: 4096, ways: 4, line: 64, hit_cycles: 4 });
/// assert_eq!(c.access(0x100), Lookup::Miss);
/// assert_eq!(c.access(0x100), Lookup::Hit);
/// ```
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheLevelConfig,
    sets: usize,
    set_shift: u32,
    /// Tag word per way, set-major; 0 is an invalid way.
    tags: Vec<u64>,
    /// Recency rank per way, set-major.
    ranks: Vec<u8>,
    stats: CacheStats,
}

impl Cache {
    /// Create an empty cache with the given geometry.
    ///
    /// # Panics
    ///
    /// Panics if the number of sets or the line size is not a power of
    /// two, if `line × sets` is below 4 bytes (the tag word keeps its top
    /// two bits for flags), or if there are more than 256 ways.
    pub fn new(config: CacheLevelConfig) -> Cache {
        let sets = config.sets();
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(
            config.line.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(
            config.line * sets >= 4,
            "line size times set count must be at least 4 bytes"
        );
        assert!(
            (1..=256).contains(&config.ways),
            "associativity must be 1 to 256 ways"
        );
        Cache {
            config,
            sets,
            set_shift: config.line.trailing_zeros(),
            tags: vec![0; sets * config.ways],
            ranks: vec![INVALID_RANK; sets * config.ways],
            stats: CacheStats::default(),
        }
    }

    /// The geometry of this cache.
    pub fn config(&self) -> &CacheLevelConfig {
        &self.config
    }

    /// Statistics so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// The set's way range and the tag word `addr` has when resident.
    fn index(&self, addr: u64) -> (std::ops::Range<usize>, u64) {
        let line_addr = addr >> self.set_shift;
        let set = (line_addr as usize) & (self.sets - 1);
        let tag = line_addr >> self.sets.trailing_zeros();
        let base = set * self.config.ways;
        (base..base + self.config.ways, tag | VALID)
    }

    /// The resident way holding `word`'s line, as an offset in the set.
    fn find(tags: &[u64], word: u64) -> Option<usize> {
        tags.iter().position(|&t| t & !PREFETCHED == word)
    }

    /// Make way `way` the most recently used: every way more recent
    /// than it ages by one. Invalid ways are never more recent, and
    /// filling one ages every valid way.
    fn touch(ranks: &mut [u8], way: usize) {
        let old = ranks[way];
        if old == 0 {
            return;
        }
        for rank in ranks.iter_mut() {
            *rank += u8::from(*rank < old);
        }
        ranks[way] = 0;
    }

    /// Install `word` over the set's first invalid way, else its LRU way.
    /// Both are the first way ranked at least `ways − 1`: a set with a
    /// free way ranks its valid ways below that, a full set has exactly
    /// one way of rank `ways − 1`.
    fn fill(tags: &mut [u64], ranks: &mut [u8], word: u64) {
        let lru = (ranks.len() - 1) as u8;
        let victim = ranks
            .iter()
            .position(|&r| r >= lru)
            .expect("a set ranks some way at least ways - 1");
        Self::touch(ranks, victim);
        tags[victim] = word;
    }

    /// Demand access: looks up `addr`, installing the line on a miss.
    pub fn access(&mut self, addr: u64) -> Lookup {
        self.stats.accesses += 1;
        let (ways, word) = self.index(addr);
        let tags = &mut self.tags[ways.clone()];
        let ranks = &mut self.ranks[ways];
        if let Some(way) = Self::find(tags, word) {
            if tags[way] & PREFETCHED != 0 {
                self.stats.prefetch_hits += 1;
                tags[way] = word;
            }
            Self::touch(ranks, way);
            self.stats.hits += 1;
            return Lookup::Hit;
        }
        self.stats.misses += 1;
        Self::fill(tags, ranks, word);
        Lookup::Miss
    }

    /// Install a line on behalf of the prefetcher (no demand stats).
    /// Returns `true` if the line was newly installed.
    pub fn prefetch_fill(&mut self, addr: u64) -> bool {
        let (ways, word) = self.index(addr);
        let tags = &mut self.tags[ways.clone()];
        if Self::find(tags, word).is_some() {
            return false;
        }
        self.stats.prefetch_fills += 1;
        Self::fill(tags, &mut self.ranks[ways], word | PREFETCHED);
        true
    }

    /// Whether `addr`'s line is currently resident (no side effects).
    pub fn probe(&self, addr: u64) -> bool {
        let (ways, word) = self.index(addr);
        Self::find(&self.tags[ways], word).is_some()
    }

    /// Drop all contents and statistics.
    pub fn reset(&mut self) {
        self.tags.fill(0);
        self.ranks.fill(INVALID_RANK);
        self.stats = CacheStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheLevelConfig;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 64B lines = 512 B.
        Cache::new(CacheLevelConfig {
            capacity: 512,
            ways: 2,
            line: 64,
            hit_cycles: 1,
        })
    }

    #[test]
    fn hit_after_miss() {
        let mut c = tiny();
        assert_eq!(c.access(0), Lookup::Miss);
        assert_eq!(c.access(0), Lookup::Hit);
        assert_eq!(c.access(63), Lookup::Hit); // same line
        assert_eq!(c.access(64), Lookup::Miss); // next line
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Three lines mapping to set 0: line stride = 64 * sets = 256.
        c.access(0);
        c.access(256);
        c.access(0); // make 0 MRU
        c.access(512); // evicts 256 (LRU)
        assert_eq!(c.access(0), Lookup::Hit);
        assert_eq!(c.access(256), Lookup::Miss);
    }

    #[test]
    fn working_set_within_capacity_stays_resident() {
        let mut c = tiny();
        // 8 lines = full capacity; second pass must be all hits.
        for i in 0..8u64 {
            c.access(i * 64);
        }
        for i in 0..8u64 {
            assert_eq!(c.access(i * 64), Lookup::Hit, "line {i}");
        }
        assert_eq!(c.stats().misses, 8);
        assert_eq!(c.stats().hits, 8);
    }

    #[test]
    fn streaming_over_capacity_always_misses() {
        let mut c = tiny();
        for pass in 0..2 {
            for i in 0..64u64 {
                let r = c.access(i * 64);
                assert_eq!(r, Lookup::Miss, "pass {pass} line {i}");
            }
        }
        assert!((c.stats().miss_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn prefetch_fill_counts_usefulness() {
        let mut c = tiny();
        assert!(c.prefetch_fill(0));
        assert!(!c.prefetch_fill(0));
        assert_eq!(c.access(0), Lookup::Hit);
        assert_eq!(c.stats().prefetch_hits, 1);
        assert_eq!(c.stats().prefetch_fills, 1);
    }

    #[test]
    fn probe_is_side_effect_free() {
        let mut c = tiny();
        c.access(128);
        let before = *c.stats();
        assert!(c.probe(128));
        assert!(!c.probe(4096));
        assert_eq!(*c.stats(), before);
    }

    #[test]
    #[should_panic(expected = "1 to 256 ways")]
    fn more_ways_than_one_byte_ranks_are_rejected() {
        Cache::new(CacheLevelConfig {
            capacity: 257 * 64,
            ways: 257,
            line: 64,
            hit_cycles: 1,
        });
    }

    #[test]
    #[should_panic(expected = "at least 4 bytes")]
    fn tags_without_two_spare_bits_are_rejected() {
        // One set of 2-byte lines: a tag could use 63 bits.
        Cache::new(CacheLevelConfig {
            capacity: 8,
            ways: 4,
            line: 2,
            hit_cycles: 1,
        });
    }

    #[test]
    fn reset_clears_everything() {
        let mut c = tiny();
        c.access(0);
        c.reset();
        assert!(!c.probe(0));
        assert_eq!(c.stats().accesses, 0);
    }
}
