//! Ordering oracles for the serving loops' shared structures: each is
//! driven by seeded random operations in lockstep with the linear rule
//! it replaced, and every observable must agree.
//!
//! - [`ReadyPool`] vs. the `sort_by((ready_s, id))` + `drain(..take)`
//!   batch rule, and its eligible window vs. the sorted prefix the
//!   shape-batching policy scanned;
//! - [`KeyedQueue`] vs. the min-scan + `Vec::remove` MSA queue;
//! - [`FeatureCache`] vs. the `Vec` LRU (`position` / `remove(0)`).

use afsb_rt::check::{run, Config, Gen};
use afsb_serve::{FeatureCache, KeyedQueue, ReadyPool};

/// A few distinct values, so ties are the common case.
fn tied_times(g: &mut Gen) -> Vec<f64> {
    (0..g.range(1usize..5))
        .map(|_| g.range(0u32..20) as f64 * 0.25)
        .collect()
}

/// The old pool: `(ready_s, id)` pairs, sorted with `partial_cmp` on
/// every batch close.
fn sort_pool(pool: &mut [(f64, usize)]) {
    pool.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
}

#[test]
fn ready_pool_matches_sort_and_drain() {
    run(
        "ready_pool_matches_sort_and_drain",
        Config::cases(256),
        |g| {
            let times = tied_times(g);
            let mut pool = ReadyPool::new();
            let mut old: Vec<(f64, usize)> = Vec::new();
            let mut next_id = 0usize;
            for _ in 0..g.range(1usize..200) {
                if g.range(0u32..3) < 2 {
                    // Ids arrive out of order relative to readiness.
                    let id = next_id * 7 % 1009;
                    next_id += 1;
                    let t = times[g.range(0..times.len())];
                    pool.push(t, id);
                    old.push((t, id));
                    continue;
                }
                if old.is_empty() {
                    assert!(pool.is_empty() && pool.earliest_ready().is_none());
                    continue;
                }
                sort_pool(&mut old);
                assert_eq!(pool.earliest_ready(), Some(old[0].0));
                let gpu_free = times[g.range(0..times.len())];
                let start = gpu_free.max(old[0].0);
                let max = g.range(1usize..6);
                if g.bool() {
                    let mut take = 1usize;
                    while take < max && take < old.len() && old[take].0 <= start {
                        take += 1;
                    }
                    let want: Vec<usize> = old.drain(..take).map(|(_, id)| id).collect();
                    assert_eq!(pool.take_batch(start, max), want);
                } else {
                    // Shape-batching window: the sorted prefix ready by
                    // `start` (at least one); remove every other entry of it.
                    let eligible = old.iter().take_while(|e| e.0 <= start).count().max(1);
                    let window: Vec<_> = pool.window(start).collect();
                    let got: Vec<(f64, usize)> =
                        window.iter().map(|e| (e.ready_s, e.request)).collect();
                    assert_eq!(got, old[..eligible].to_vec());
                    for e in window.iter().step_by(2) {
                        assert!(pool.remove(*e));
                    }
                    let removed: Vec<(f64, usize)> = got.iter().step_by(2).copied().collect();
                    old.retain(|e| !removed.contains(e));
                }
                assert_eq!(pool.len(), old.len());
            }
            sort_pool(&mut old);
            let rest = pool.take_batch(f64::MAX, usize::MAX);
            assert_eq!(rest, old.iter().map(|&(_, id)| id).collect::<Vec<_>>());
        },
    );
}

#[test]
fn keyed_queue_matches_min_scan() {
    run("keyed_queue_matches_min_scan", Config::cases(256), |g| {
        let keys = tied_times(g);
        let n = g.range(1usize..40);
        let mut q = KeyedQueue::new(n);
        let mut old: Vec<usize> = Vec::new();
        let mut key_of = vec![0.0f64; n];
        for _ in 0..g.range(1usize..200) {
            match g.range(0u32..3) {
                0 => {
                    let r = g.range(0..n);
                    if old.contains(&r) {
                        continue;
                    }
                    key_of[r] = keys[g.range(0..keys.len())];
                    q.push(key_of[r], r);
                    old.push(r);
                }
                1 => {
                    let want = (0..old.len())
                        .min_by(|&a, &b| {
                            let (ra, rb) = (old[a], old[b]);
                            key_of[ra].total_cmp(&key_of[rb]).then(ra.cmp(&rb))
                        })
                        .map(|qi| old.remove(qi));
                    assert_eq!(q.pop(), want);
                }
                _ => {
                    let r = g.range(0..n + 2);
                    let want = match old.iter().position(|&x| x == r) {
                        Some(pos) => {
                            old.remove(pos);
                            true
                        }
                        None => false,
                    };
                    assert_eq!(q.remove(r), want);
                }
            }
            assert_eq!(q.len(), old.len());
            assert_eq!(q.is_empty(), old.is_empty());
        }
    });
}

/// The replaced `Vec` LRU, verbatim in behaviour.
struct VecLru {
    capacity: u64,
    entries: Vec<(usize, u64)>,
    bytes: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl VecLru {
    fn lookup(&mut self, entity: usize) -> bool {
        match self.entries.iter().position(|&(e, _)| e == entity) {
            Some(i) => {
                let entry = self.entries.remove(i);
                self.entries.push(entry);
                self.hits += 1;
                true
            }
            None => {
                self.misses += 1;
                false
            }
        }
    }

    fn insert(&mut self, entity: usize, file_bytes: u64) {
        if let Some(i) = self.entries.iter().position(|&(e, _)| e == entity) {
            let (_, old) = self.entries.remove(i);
            self.bytes -= old;
        }
        if file_bytes > self.capacity {
            return;
        }
        while self.bytes + file_bytes > self.capacity {
            let (_, evicted) = self.entries.remove(0);
            self.bytes -= evicted;
            self.evictions += 1;
        }
        self.entries.push((entity, file_bytes));
        self.bytes += file_bytes;
    }
}

#[test]
fn feature_cache_matches_vec_lru() {
    run("feature_cache_matches_vec_lru", Config::cases(256), |g| {
        // Zero capacity, and files up to twice the capacity (oversize
        // inserts and refreshes), including zero-byte files.
        let capacity = if g.range(0u32..8) == 0 {
            0
        } else {
            g.range(1u64..200)
        };
        let entities = g.range(1usize..30);
        let mut cache = FeatureCache::new(capacity);
        let mut old = VecLru {
            capacity,
            entries: Vec::new(),
            bytes: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        };
        for _ in 0..g.range(1usize..300) {
            let e = g.range(0..entities);
            match g.range(0u32..3) {
                0 => assert_eq!(cache.lookup(e), old.lookup(e), "lookup({e})"),
                1 => {
                    let bytes = g.range(0..2 * capacity + 2);
                    cache.insert(e, bytes);
                    old.insert(e, bytes);
                }
                _ => {
                    let want = old.entries.iter().any(|&(x, _)| x == e);
                    assert_eq!(cache.contains(e), want, "contains({e})");
                }
            }
            assert_eq!(
                (cache.hits(), cache.misses(), cache.evictions()),
                (old.hits, old.misses, old.evictions)
            );
            assert_eq!((cache.len(), cache.bytes()), (old.entries.len(), old.bytes));
        }
        // Same contents. (A wrong eviction order shows up earlier: the
        // random sizes make bytes, len and `contains` diverge.)
        for e in 0..entities {
            let want = old.entries.iter().any(|&(x, _)| x == e);
            assert_eq!(cache.contains(e), want, "final contains({e})");
        }
    });
}
