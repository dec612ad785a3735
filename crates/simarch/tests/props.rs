//! Property-based tests for the architecture simulator.

use afsb_rt::check::{run, Config, Gen};
use afsb_simarch::branch::GsharePredictor;
use afsb_simarch::cache::{Cache, CacheStats, Lookup};
use afsb_simarch::config::{CacheLevelConfig, PlatformSpec, TlbConfig};
use afsb_simarch::perf::SymbolStats;
use afsb_simarch::tlb::Dtlb;
use afsb_simarch::trace::{AccessPattern, Region, Segment, ThreadProgram, WeightedPattern};
use afsb_simarch::SimEngine;

fn tiny_cache() -> Cache {
    Cache::new(CacheLevelConfig {
        capacity: 4096,
        ways: 4,
        line: 64,
        hit_cycles: 1,
    })
}

#[test]
fn cache_accounting_invariants() {
    run("cache_accounting_invariants", Config::cases(64), |g| {
        let addrs = g.vec(1..500, |g| g.range(0u64..1_000_000));
        let mut c = tiny_cache();
        for &a in &addrs {
            c.access(a);
        }
        let s = c.stats();
        assert_eq!(s.accesses, addrs.len() as u64);
        assert_eq!(s.hits + s.misses, s.accesses);
        assert!(s.prefetch_hits <= s.accesses);
    });
}

#[test]
fn repeated_address_hits_after_first() {
    run(
        "repeated_address_hits_after_first",
        Config::cases(64),
        |g| {
            let addr = g.range(0u64..1_000_000);
            let repeats = g.range(2usize..50);
            let mut c = tiny_cache();
            for _ in 0..repeats {
                c.access(addr);
            }
            assert_eq!(c.stats().misses, 1);
            assert_eq!(c.stats().hits, repeats as u64 - 1);
        },
    );
}

/// The stamp-based true-LRU that `Cache` replaced, kept as its oracle:
/// every line carries the clock value of its last use, and the victim
/// is the first way of smallest key (invalid ways key 0).
struct StampLru {
    sets: u64,
    ways: usize,
    line: u64,
    /// `(tag, valid, stamp, prefetched)` per way, set-major.
    lines: Vec<(u64, bool, u64, bool)>,
    clock: u64,
    stats: CacheStats,
}

impl StampLru {
    fn new(c: CacheLevelConfig) -> StampLru {
        let sets = c.sets() as u64;
        let lines = vec![(0, false, 0, false); sets as usize * c.ways];
        let (ways, line, stats) = (c.ways, c.line as u64, CacheStats::default());
        StampLru {
            sets,
            ways,
            line,
            lines,
            clock: 0,
            stats,
        }
    }

    fn set(&mut self, addr: u64) -> (&mut [(u64, bool, u64, bool)], u64) {
        let line_addr = addr / self.line;
        let base = (line_addr % self.sets) as usize * self.ways;
        (
            &mut self.lines[base..base + self.ways],
            line_addr / self.sets,
        )
    }

    /// Install `tag` over the victim way at the current clock.
    fn install(ways: &mut [(u64, bool, u64, bool)], tag: u64, clock: u64, prefetched: bool) {
        let victim = ways.iter_mut().min_by_key(|l| if l.1 { l.2 } else { 0 });
        *victim.expect("at least one way") = (tag, true, clock, prefetched);
    }

    fn access(&mut self, addr: u64) -> Lookup {
        self.clock += 1;
        self.stats.accesses += 1;
        let clock = self.clock;
        let (ways, tag) = self.set(addr);
        if let Some(l) = ways.iter_mut().find(|l| l.1 && l.0 == tag) {
            let was_prefetched = std::mem::replace(&mut l.3, false);
            l.2 = clock;
            self.stats.prefetch_hits += u64::from(was_prefetched);
            self.stats.hits += 1;
            return Lookup::Hit;
        }
        StampLru::install(ways, tag, clock, false);
        self.stats.misses += 1;
        Lookup::Miss
    }

    fn prefetch_fill(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let clock = self.clock;
        let (ways, tag) = self.set(addr);
        if ways.iter().any(|l| l.1 && l.0 == tag) {
            return false;
        }
        StampLru::install(ways, tag, clock, true);
        self.stats.prefetch_fills += 1;
        true
    }

    fn probe(&mut self, addr: u64) -> bool {
        let (ways, tag) = self.set(addr);
        ways.iter().any(|l| l.1 && l.0 == tag)
    }

    fn reset(&mut self) {
        self.lines.fill((0, false, 0, false));
        self.clock = 0;
        self.stats = CacheStats::default();
    }
}

#[test]
fn compact_cache_matches_the_stamp_lru_oracle() {
    run(
        "compact_cache_matches_the_stamp_lru_oracle",
        Config::cases(256),
        |g| {
            // Power-of-two sets and lines, 1-16 ways, or the widest
            // set the one-byte rank allows.
            let ways = if g.range(0u32..8) == 0 {
                256
            } else {
                g.range(1usize..=16)
            };
            let sets = 1usize << g.range(0u32..=6);
            let line = 1usize << g.range(2u32..=7);
            let config = CacheLevelConfig {
                capacity: (sets * ways * line) as u64,
                ways,
                line,
                hit_cycles: 1,
            };
            let mut cache = Cache::new(config);
            let mut oracle = StampLru::new(config);
            // Mostly addresses within a few capacities (hits, conflicts
            // and evictions); now and then any u64, for the widest tags.
            let span = config.capacity * g.range(1u64..=4);
            for op in 0..g.range(1usize..3000) {
                let addr = if g.range(0u32..16) == 0 {
                    g.rng().next_u64()
                } else {
                    g.range(0..span)
                };
                match g.range(0u32..32) {
                    0 => {
                        cache.reset();
                        oracle.reset();
                    }
                    1..=8 => assert_eq!(
                        cache.prefetch_fill(addr),
                        oracle.prefetch_fill(addr),
                        "prefetch_fill({addr:#x}) at op {op}"
                    ),
                    9..=12 => assert_eq!(
                        cache.probe(addr),
                        oracle.probe(addr),
                        "probe({addr:#x}) at op {op}"
                    ),
                    _ => assert_eq!(
                        cache.access(addr),
                        oracle.access(addr),
                        "access({addr:#x}) at op {op}"
                    ),
                }
                assert_eq!(*cache.stats(), oracle.stats, "stats after op {op}");
            }
        },
    );
}

#[test]
fn tlb_accounting_invariants() {
    run("tlb_accounting_invariants", Config::cases(64), |g| {
        let pages = g.vec(1..400, |g| g.range(0u64..4096));
        let mut t = Dtlb::new(TlbConfig {
            l1_entries: 8,
            l2_entries: 32,
            walk_cycles: 50,
            page_bytes: 4096,
        });
        for &p in &pages {
            t.access(p * 4096);
        }
        let s = t.stats();
        assert_eq!(s.lookups, pages.len() as u64);
        assert!(s.walks <= s.l1_misses);
        assert!(s.l1_misses <= s.lookups);
    });
}

#[test]
fn predictor_never_overcounts() {
    run("predictor_never_overcounts", Config::cases(64), |g| {
        let outcomes = g.vec(1..2000, |g| g.bool());
        let mut p = GsharePredictor::default_sized();
        for (i, &taken) in outcomes.iter().enumerate() {
            p.predict(0x1000 + (i as u64 % 7) * 4, taken);
        }
        let s = p.stats();
        assert_eq!(s.branches, outcomes.len() as u64);
        assert!(s.mispredicts <= s.branches);
    });
}

#[test]
fn engine_conserves_instructions() {
    run("engine_conserves_instructions", Config::cases(64), |g| {
        let instr = g.range(1_000u64..1_000_000);
        let threads = g.range(1usize..5);
        let region = Region::new(0x10_0000, 1 << 20);
        let programs: Vec<ThreadProgram> = (0..threads)
            .map(|_| {
                let mut p = ThreadProgram::new();
                p.push(Segment::compute(
                    "k",
                    instr,
                    instr / 4,
                    vec![WeightedPattern {
                        weight: 1.0,
                        pattern: AccessPattern::Random { region },
                    }],
                ));
                p
            })
            .collect();
        let engine = SimEngine::new(PlatformSpec::desktop()).with_sample_cap(20_000);
        let r = engine.run(&programs, 1);
        assert_eq!(r.totals.instructions, instr * threads as u64);
        assert!(r.wall_cycles > 0);
        assert_eq!(r.per_thread_cycles.len(), threads);
        // Sampled-then-scaled accesses stay within 15% of declared.
        let declared = (instr / 4) * threads as u64;
        let err = (r.totals.accesses as f64 - declared as f64).abs() / declared as f64;
        assert!(
            err < 0.15,
            "accesses {} vs declared {}",
            r.totals.accesses,
            declared
        );
    });
}

#[test]
fn engine_more_work_never_faster() {
    run("engine_more_work_never_faster", Config::cases(64), |g| {
        let instr = g.range(10_000u64..200_000);
        let region = Region::new(0x10_0000, 8 << 20);
        let mk = |n: u64| {
            let mut p = ThreadProgram::new();
            p.push(Segment::compute(
                "k",
                n,
                n / 4,
                vec![WeightedPattern {
                    weight: 1.0,
                    pattern: AccessPattern::Sequential { region, stride: 64 },
                }],
            ));
            vec![p]
        };
        let engine = SimEngine::new(PlatformSpec::server()).with_sample_cap(50_000);
        let small = engine.run(&mk(instr), 3);
        let large = engine.run(&mk(instr * 2), 3);
        assert!(large.wall_cycles > small.wall_cycles);
    });
}

fn arbitrary_stats(g: &mut Gen) -> SymbolStats {
    // Zero is a deliberately common draw: the NaN-guard properties below
    // only bite when denominators (accesses, llc_accesses, branches,
    // cycles) are exactly zero.
    let field = |g: &mut Gen| {
        if g.bool() {
            0
        } else {
            g.range(0u64..1_000_000)
        }
    };
    SymbolStats {
        instructions: field(g),
        accesses: field(g),
        l1_misses: field(g),
        l2_misses: field(g),
        llc_accesses: field(g),
        llc_misses: field(g),
        tlb_l1_misses: field(g),
        tlb_walks: field(g),
        branches: field(g),
        mispredicts: field(g),
        page_faults: field(g),
        base_cycles: field(g),
        stall_cycles: field(g),
    }
}

fn merged(mut a: SymbolStats, b: &SymbolStats) -> SymbolStats {
    a.merge(b);
    a
}

#[test]
fn symbol_stats_merge_is_commutative_and_associative() {
    run(
        "symbol_stats_merge_is_commutative_and_associative",
        Config::cases(128),
        |g| {
            let a = arbitrary_stats(g);
            let b = arbitrary_stats(g);
            let c = arbitrary_stats(g);
            assert_eq!(merged(a, &b), merged(b, &a));
            assert_eq!(
                merged(merged(a, &b), &c),
                merged(a, &merged(b, &c)),
                "merge must be associative field-by-field"
            );
        },
    );
}

#[test]
fn symbol_stats_ratios_never_nan() {
    run("symbol_stats_ratios_never_nan", Config::cases(128), |g| {
        let mut s = arbitrary_stats(g);
        // Exercise the sampled-counter rescale too: an inverse rate of 0
        // zeroes every sampled denominator, the worst case for ratios.
        if g.bool() {
            let inv_rate = *g.pick(&[0.0, 0.25, 1.0, 7.5]);
            s.scale_sampled(inv_rate);
        }
        let ratios = [
            ("l1_miss_ratio", s.l1_miss_ratio()),
            ("llc_miss_ratio", s.llc_miss_ratio()),
            ("tlb_miss_ratio", s.tlb_miss_ratio()),
            ("tlb_reload_ratio", s.tlb_reload_ratio()),
            ("branch_miss_ratio", s.branch_miss_ratio()),
            ("cache_miss_ref_pct", s.cache_miss_ref_pct()),
            ("cache_miss_per_kinst", s.cache_miss_per_kinst()),
            ("ipc", s.ipc()),
        ];
        for (name, v) in ratios {
            assert!(v.is_finite(), "{name} produced a non-finite value: {v}");
            assert!(v >= 0.0, "{name} went negative: {v}");
        }
        let zeroed = SymbolStats::default();
        assert_eq!(zeroed.tlb_miss_ratio(), 0.0);
        assert_eq!(zeroed.cache_miss_ref_pct(), 0.0);
    });
}
