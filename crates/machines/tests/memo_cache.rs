//! Concurrent-cache property tier: seeded multi-threaded hammering of the
//! sharded memo cache.
//!
//! Pins the contract the serving layer rests on: hit/miss/eviction
//! accounting is exact, a bounded cache never exceeds its capacity (not
//! even transiently mid-burst), evicted entries recompute to identical
//! values, a cold cache and a warm cache yield byte-identical query
//! results, and handles are fully isolated — there is no process-wide
//! cache left to bleed entries between concurrent runs.

use std::sync::atomic::{AtomicU64, Ordering};

use memcomm_machines::memo::{self, CacheStats, MemoCache, MemoConfig, MemoKey, Point, Value};
use memcomm_machines::{microbench, Machine};
use memcomm_memsim::{Measurement, SimResult};
use memcomm_model::BasicTransfer;
use memcomm_util::rng::Rng;

fn transfer() -> BasicTransfer {
    BasicTransfer::parse("1C1").expect("static transfer parses")
}

fn basic(transfer: BasicTransfer, words: u64) -> Point {
    Point::Basic { transfer, words }
}

/// A synthetic measurement that is a pure function of its key, mirroring
/// the simulator's determinism without its cost.
fn synth(key: u64) -> SimResult<Option<Measurement>> {
    Ok(Some(Measurement {
        words: key,
        cycles: key.wrapping_mul(3) + 7,
    }))
}

/// A basic-transfer key under a synthetic machine fingerprint.
fn key(fingerprint: u64, transfer: BasicTransfer, words: u64) -> MemoKey {
    (fingerprint, Point::Basic { transfer, words })
}

#[test]
fn hammered_accounting_is_exact_and_capacity_holds() {
    const THREADS: usize = 8;
    const OPS: u64 = 4_000;
    const KEYS: u64 = 257; // more keys than capacity → constant eviction
    let cache = MemoCache::handle(MemoConfig { capacity: 64 });
    let t = transfer();
    let simulations = AtomicU64::new(0);
    std::thread::scope(|scope| {
        for thread in 0..THREADS {
            let cache = &cache;
            let simulations = &simulations;
            scope.spawn(move || {
                let mut rng = Rng::new(0xCAFE + thread as u64);
                for _ in 0..OPS {
                    let key = rng.range_u64(0, KEYS);
                    let got = cache
                        .get_or_insert(self::key(key, t, key), || {
                            simulations.fetch_add(1, Ordering::Relaxed);
                            synth(key).map(Value::Basic)
                        })
                        .expect("synthetic values never fail");
                    let Value::Basic(Some(got)) = got else {
                        panic!("synthetic values are basic and Some: {got:?}");
                    };
                    assert_eq!(got.words, key, "a lookup must return its key's value");
                    assert_eq!(got.cycles, key.wrapping_mul(3) + 7);
                    // The capacity bound must hold at every instant, not
                    // just at the end.
                    assert!(cache.stats().entries <= 64, "capacity exceeded mid-hammer");
                }
            });
        }
    });
    let stats = cache.stats();
    let lookups = (THREADS as u64) * OPS;
    assert_eq!(
        stats.hits + stats.misses,
        lookups,
        "every lookup is exactly one hit or one miss: {stats:?}"
    );
    assert!(stats.hits > 0 && stats.misses > 0, "{stats:?}");
    assert!(stats.evictions > 0, "KEYS > capacity must evict: {stats:?}");
    assert!(stats.entries <= 64, "{stats:?}");
    // Misses that raced may both simulate but only one inserts; the
    // shard-level ledger ties the open entry count to the difference.
    let shards = cache.shard_stats();
    let insertions: u64 = shards.iter().map(|s| s.insertions).sum();
    let evictions: u64 = shards.iter().map(|s| s.evictions).sum();
    let entries: u64 = shards.iter().map(|s| s.entries).sum();
    assert_eq!(
        entries,
        insertions - evictions,
        "entries must equal insertions - evictions: {shards:?}"
    );
    assert_eq!(stats.entries, entries);
    assert_eq!(stats.evictions, evictions);
    // Simulations happen only on misses (racing misses can each simulate,
    // never more than once per miss).
    assert!(simulations.load(Ordering::Relaxed) <= stats.misses);
}

#[test]
fn evicted_entries_recompute_identically() {
    // Capacity 2 with 6 live keys: every key is repeatedly evicted and
    // recomputed. Values must never drift from the uncached simulation.
    let cache = MemoCache::handle(MemoConfig { capacity: 2 });
    let _guard = memo::install(&cache);
    let machine = Machine::t3d();
    let t = transfer();
    let words: Vec<u64> = vec![64, 96, 128, 160, 192, 224];
    let baseline: Vec<_> = words
        .iter()
        .map(|&w| microbench::simulate_basic(&machine, t, w))
        .collect();
    for round in 0..3 {
        for (i, &w) in words.iter().enumerate() {
            let cached = microbench::measure_basic(&machine, t, w);
            assert_eq!(
                format!("{cached:?}"),
                format!("{:?}", baseline[i]),
                "round {round}, {w} words: eviction must not change values"
            );
        }
    }
    let stats = cache.stats();
    assert!(stats.evictions > 0, "six keys through two slots: {stats:?}");
    assert!(stats.entries <= 2, "{stats:?}");
}

#[test]
fn cold_and_warm_caches_answer_byte_identically() {
    let machine = Machine::paragon();
    let t = BasicTransfer::parse("1F0").expect("DMA transfer parses");
    let cold = {
        let cache = MemoCache::unbounded();
        let _guard = memo::install(&cache);
        format!("{:?}", microbench::measure_basic(&machine, t, 512))
    };
    let warm = {
        let cache = MemoCache::unbounded();
        let _guard = memo::install(&cache);
        let _prime = microbench::measure_basic(&machine, t, 512);
        let stats = cache.stats();
        let answer = format!("{:?}", microbench::measure_basic(&machine, t, 512));
        assert!(cache.stats().since(stats).hits >= 1, "the re-ask must hit");
        answer
    };
    let uncached = format!("{:?}", microbench::simulate_basic(&machine, t, 512));
    assert_eq!(cold, warm, "cold and warm lookups must agree");
    assert_eq!(cold, uncached, "cached and uncached must agree");
}

/// Regression pin for the deleted process-wide statics: two handles are
/// fully isolated, and dropping an install guard restores the previous
/// handle instead of leaking state.
#[test]
fn handles_do_not_bleed_between_runs() {
    let t = transfer();
    let a = MemoCache::unbounded();
    let b = MemoCache::unbounded();
    {
        let _ga = memo::install(&a);
        let _ = memo::cached(&Machine::t3d(), basic(t, 64), || synth(64));
        {
            let _gb = memo::install(&b);
            // Inner run: its lookups land in b, not a.
            let _ = memo::cached(&Machine::t3d(), basic(t, 96), || synth(96));
            assert_eq!(memo::stats(), b.stats(), "inner run sees b");
        }
        assert_eq!(memo::stats(), a.stats(), "guard drop restores a");
    }
    assert_eq!(memo::stats(), CacheStats::default(), "no ambient cache");
    assert_eq!(a.stats().entries, 1, "a holds only its own entry");
    assert_eq!(b.stats().entries, 1, "b holds only its own entry");
    assert_eq!(a.stats().misses, 1);
    assert_eq!(b.stats().misses, 1);
}

#[test]
fn clamping_holds_under_load() {
    // Clamping: capacity smaller than the shard count still yields a
    // working, bounded cache.
    let t = transfer();
    let tiny = MemoCache::new(MemoConfig { capacity: 2 });
    assert_eq!(tiny.shard_count(), 2);
    for i in 0..50u64 {
        let _ = tiny.get_or_insert(key(i, t, i), || synth(i).map(Value::Basic));
        assert!(tiny.stats().entries <= 2);
    }
}
