//! Property-based tests of the memory-system components against reference
//! models (oracles) and physical invariants.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

use memcomm_memsim::cache::{Cache, CacheParams, LoadOutcome};
use memcomm_memsim::dram::{Dram, DramOp, DramParams};
use memcomm_memsim::engines::LocalCopier;
use memcomm_memsim::mem::{Memory, WORD_BYTES};
use memcomm_memsim::nic::{NetWord, TimedFifo};
use memcomm_memsim::node::{Node, NodeParams};
use memcomm_memsim::walk::Walk;
use memcomm_memsim::wbq::{Wbq, WbqParams};
use memcomm_memsim::SimError;
use memcomm_model::AccessPattern;
use memcomm_util::check::forall;
use memcomm_util::rng::Rng;

/// A trivially correct LRU cache oracle: a vector of line tags per set,
/// most recently used last.
struct LruOracle {
    sets: Vec<Vec<u64>>,
    ways: usize,
    line_bytes: u64,
}

impl LruOracle {
    fn new(size_bytes: u64, line_bytes: u64, ways: usize) -> Self {
        let sets = (size_bytes / line_bytes) as usize / ways;
        LruOracle {
            sets: vec![Vec::new(); sets],
            ways,
            line_bytes,
        }
    }

    /// Returns whether the load hits, updating recency.
    fn load(&mut self, addr: u64) -> bool {
        let line = addr / self.line_bytes;
        let set = (line as usize) % self.sets.len();
        let entries = &mut self.sets[set];
        if let Some(pos) = entries.iter().position(|&t| t == line) {
            entries.remove(pos);
            entries.push(line);
            true
        } else {
            if entries.len() == self.ways {
                entries.remove(0);
            }
            entries.push(line);
            false
        }
    }
}

/// The tag-array cache agrees with a straightforward LRU oracle on every
/// access of a random load stream.
#[test]
fn cache_matches_lru_oracle() {
    forall("cache_matches_lru_oracle", 128, |rng| {
        // Geometry must divide evenly; 4 KiB with 32-byte lines has 128
        // lines, divisible by 1, 2 and 4 ways.
        let ways = *rng.choose(&[1u32, 2, 4]);
        let n = rng.range_usize(1, 600);
        let addrs = rng.vec(n, |rng| rng.range_u64(0, 32_768));
        let mut cache = Cache::new(CacheParams {
            size_bytes: 4096,
            line_bytes: 32,
            ways,
            hit_cycles: 1,
        });
        let mut oracle = LruOracle::new(4096, 32, ways as usize);
        for addr in addrs {
            let addr = addr & !7;
            let expected = oracle.load(addr);
            let got = matches!(cache.load(addr), LoadOutcome::Hit);
            assert_eq!(got, expected, "divergence at {addr:#x}");
        }
    });
}

/// DRAM timing invariants over random request streams: completion never
/// precedes the request, per-bank time is monotone, the channel never
/// moves more than one word per `channel_word_cycles`, and a bank is free
/// when its last access ends. Bank counts 1, 2 and 4 take the mask, 3 the
/// modulo.
#[test]
fn dram_time_is_physical() {
    forall("dram_time_is_physical", 128, |rng| {
        let banks = rng.range_u32(1, 5);
        let n = rng.range_usize(1, 300);
        let requests = rng.vec(n, |rng| {
            (
                rng.range_u64(0, 1_000_000),
                rng.range_u32(1, 8),
                rng.bool(),
                rng.range_u64(0, 1_000_000),
            )
        });
        let mut dram = Dram::new(DramParams {
            banks,
            interleave_bytes: 32,
            read_miss_cycles: 20,
            write_miss_cycles: 20,
            posted_write_miss_cycles: 12,
            burst_word_cycles: 1,
            channel_word_cycles: 1,
            demand_latency_cycles: 8,
            turnaround_cycles: 2,
        });
        let mut total_words = 0u64;
        let mut last_end = 0u64;
        // Each bank's last end cycle, under `(addr / 32) % banks`.
        let mut bank_ends = BTreeMap::new();
        let bank = |addr: u64| (addr / 32) % u64::from(banks);
        // Requests arrive in causal order, one cycle apart.
        for (now, (addr, words, is_write, probe)) in requests.into_iter().enumerate() {
            let now = now as u64;
            let addr = addr & !7;
            let op = if is_write {
                DramOp::Write
            } else {
                DramOp::Read
            };
            let span = dram.access(now, addr, words, op);
            assert!(span.start >= now, "time travel");
            assert!(span.end > span.start, "zero-width access");
            total_words += u64::from(words);
            last_end = last_end.max(span.end);
            bank_ends.insert(bank(addr), span.end);
            let expect = bank_ends.get(&bank(probe)).copied().unwrap_or(0);
            assert_eq!(dram.free_at(probe), expect, "bank of {probe:#x}");
        }
        // Channel bound: one word per channel cycle at best.
        assert!(
            last_end >= total_words,
            "channel moved {total_words} words in {last_end} cycles"
        );
    });
}

/// The write buffer never loses or invents stores: queued+merged pushes
/// equal drained words; FIFO drain order preserves first-push order of
/// lines.
#[test]
fn wbq_conserves_stores() {
    forall("wbq_conserves_stores", 128, |rng| {
        let n = rng.range_usize(1, 200);
        let addrs = rng.vec(n, |rng| rng.range_u64(0, 2048));
        let mut wbq = Wbq::new(
            WbqParams {
                entries: 64, // capacious: no rejections in this test
                merge: true,
            },
            32,
        );
        let mut distinct = std::collections::BTreeSet::new();
        for &a in &addrs {
            let a = a & !7;
            distinct.insert(a);
            assert!(wbq.push(a), "64 entries never fill from 64 distinct lines");
        }
        let mut drained_words = 0u64;
        while let Some(item) = wbq.pop() {
            drained_words += u64::from(item.words);
        }
        assert_eq!(drained_words, distinct.len() as u64);
    });
}

/// FIFO conservation and ordering under interleaved push/pop with
/// arbitrary local clocks, and every entry and pop cycle against a min-heap
/// of the free slots' stamps. The pops come at non-monotone times, unlike
/// any simulated consumer's, so the stamps arrive out of order.
#[test]
fn fifo_conserves_and_orders() {
    forall("fifo_conserves_and_orders", 128, |rng| {
        let n = rng.range_usize(1, 300);
        let ops = rng.vec(n, |rng| (rng.bool(), rng.range_u64(0, 10_000)));
        let cap = rng.range_usize(1, 16);
        let mut fifo = TimedFifo::new(cap);
        let mut next_val = 0u64;
        // (value, entry cycle) of each word in the FIFO, oldest first.
        let mut expected = std::collections::VecDeque::new();
        // A push takes the earliest-freed slot; a pop frees one at its cycle.
        let mut free: BinaryHeap<_> = (0..cap).map(|_| Reverse(0)).collect();
        for (is_push, t) in ops {
            if is_push {
                let entered = fifo.push(t, NetWord::data(next_val));
                let model = free.pop().map(|Reverse(stamp)| t.max(stamp));
                assert_eq!(entered, model, "entry cycle of word {next_val}");
                if let Some(at) = entered {
                    expected.push_back((next_val, at));
                }
                next_val += 1;
            } else if let Some((at, w)) = fifo.pop(t) {
                let (want, entered) = expected.pop_front().expect("fifo had an item");
                assert_eq!(w.data, want, "FIFO order violated");
                // Pop cycles are not globally monotone (clocks differ per
                // agent), but never precede the push.
                assert_eq!(at, t.max(entered), "pop cycle of word {want}");
                free.push(Reverse(at));
            }
            assert!(fifo.len() <= cap);
        }
        assert_eq!(fifo.len(), expected.len());
    });
}

/// A local copy is semantically memcpy for every pattern combination:
/// after the run, dst element i holds src element i.
#[test]
fn local_copy_is_memcpy() {
    forall("local_copy_is_memcpy", 64, |rng| {
        let src_stride = rng.range_u32(1, 20);
        let dst_stride = rng.range_u32(1, 20);
        let n = rng.range_u64(1, 200);
        let seed = rng.range_u64(0, 1000);
        let mut node = Node::new(NodeParams::default());
        let sp = AccessPattern::strided(src_stride).unwrap();
        let dp = AccessPattern::strided(dst_stride).unwrap();
        let src = node.alloc_walk(sp, n, None).unwrap();
        let dst = node.alloc_walk(dp, n, None).unwrap();
        for i in 0..n {
            node.mem
                .write(src.addr(i), seed.wrapping_mul(31).wrapping_add(i));
        }
        let mut cpu = node.cpu();
        LocalCopier::new(src.clone(), dst.clone())
            .run(&mut cpu, &mut node.path, &mut node.mem)
            .unwrap();
        for i in 0..n {
            assert_eq!(node.mem.read(dst.addr(i)), node.mem.read(src.addr(i)));
        }
        assert!(cpu.t > 0);
    });
}

/// Copy time grows at least linearly in the element count (no super-linear
/// accounting bugs, no sublinear time travel).
#[test]
fn copy_time_scales_sanely() {
    forall("copy_time_scales_sanely", 32, |rng| {
        let n = rng.range_u64(64, 512);
        let time = |count: u64| {
            let mut node = Node::new(NodeParams::default());
            let src = node
                .alloc_walk(AccessPattern::Contiguous, count, None)
                .unwrap();
            let dst = node
                .alloc_walk(AccessPattern::Contiguous, count, None)
                .unwrap();
            let mut cpu = node.cpu();
            LocalCopier::new(src, dst)
                .run(&mut cpu, &mut node.path, &mut node.mem)
                .unwrap();
            node.path.flush(cpu.t)
        };
        let t1 = time(n);
        let t2 = time(2 * n);
        let ratio = t2 as f64 / t1 as f64;
        assert!((1.6..2.6).contains(&ratio), "doubling n gave ratio {ratio}");
    });
}

/// An aligned byte address to read or write: a walk element, a word
/// between strided elements, a guard gap on either side of a region (past
/// the newest region that is free space a later allocation may cover), or
/// anywhere below capacity.
fn pick_addr(rng: &mut Rng, walks: &[Walk], capacity_words: u64) -> u64 {
    if walks.is_empty() || rng.range_u32(0, 5) == 0 {
        return rng.range_u64(0, capacity_words) * WORD_BYTES;
    }
    let w = rng.choose(walks);
    let region = w.region();
    let addr = match rng.range_u32(0, 4) {
        0 => w.addr(rng.range_u64(0, w.len())),
        1 => region.addr(rng.range_u64(0, region.words)),
        // Every guard gap is at least one 256-byte alignment unit.
        2 => region.base - rng.range_u64(1, 33) * WORD_BYTES,
        _ => region.end() + rng.range_u64(0, 32) * WORD_BYTES,
    };
    addr.min((capacity_words - 1) * WORD_BYTES)
}

/// Node memory agrees with a plain word map (every written word by byte
/// address; unwritten words read 0) over random allocation, read and write
/// sequences: contiguous, strided and indexed walks (permutations and
/// explicit offset lists) and plain regions, accesses on and off each
/// walk's element set, and reads of words never written. The map shares no
/// code with `Memory`.
#[test]
fn memory_matches_a_word_map() {
    forall("memory_matches_a_word_map", 96, |rng| {
        let capacity_words = 1 << 14;
        let mut mem = Memory::new(capacity_words, 256);
        let mut oracle: BTreeMap<u64, u64> = BTreeMap::new();
        let mut walks: Vec<Walk> = Vec::new();
        for step in 0..rng.range_u64(1, 400) {
            match rng.range_u32(0, 12) {
                0 | 1 => {
                    let words = rng.range_u64(0, 65);
                    let walk = match rng.range_u32(0, 4) {
                        0 => mem.alloc_walk(AccessPattern::Contiguous, words, None),
                        1 => {
                            let pattern = AccessPattern::Strided(rng.range_u32(2, 65));
                            mem.alloc_walk(pattern, words, None)
                        }
                        2 => {
                            let mut ix: Vec<u32> = (0..words as u32).collect();
                            rng.shuffle(&mut ix);
                            mem.alloc_walk(AccessPattern::Indexed, words, Some(ix))
                        }
                        // An explicit offset list, whose data region spans
                        // its largest offset rather than its length.
                        _ => {
                            let span = words + rng.range_u64(0, 9);
                            let ix: Vec<u32> =
                                (0..words).map(|_| rng.range_u32(0, span as u32)).collect();
                            mem.alloc_indexed(span, words)
                                .and_then(|(region, index_region)| {
                                    let w =
                                        Walk::new(AccessPattern::Indexed, region, words, Some(ix))?;
                                    Ok(w.with_index_region(index_region))
                                })
                        }
                    };
                    match walk {
                        Ok(w) if !w.is_empty() => walks.push(w),
                        Ok(_) | Err(SimError::OutOfMemory { .. }) => {}
                        Err(e) => panic!("step {step}: {e}"),
                    }
                }
                2 => match mem.alloc(rng.range_u64(0, 65)) {
                    Ok(region) if region.words > 0 => walks.push(
                        Walk::new(AccessPattern::Contiguous, region, region.words, None).unwrap(),
                    ),
                    Ok(_) | Err(SimError::OutOfMemory { .. }) => {}
                    Err(e) => panic!("step {step}: {e}"),
                },
                3..=6 => {
                    let addr = pick_addr(rng, &walks, capacity_words);
                    let value = rng.next_u64();
                    mem.write(addr, value);
                    oracle.insert(addr, value);
                }
                _ => {
                    let addr = pick_addr(rng, &walks, capacity_words);
                    let want = oracle.get(&addr).copied().unwrap_or(0);
                    assert_eq!(mem.read(addr), want, "step {step}: read at {addr:#x}");
                }
            }
        }
        for w in &walks {
            let region = w.region();
            let want: Vec<u64> = (0..region.words)
                .map(|i| oracle.get(&region.addr(i)).copied().unwrap_or(0))
                .collect();
            assert_eq!(mem.dump(region), want, "region at {:#x}", region.base);
        }
        for (&addr, &value) in &oracle {
            assert_eq!(mem.read(addr), value, "word at {addr:#x}");
        }
    });
}

/// `link_outage_span` answers exactly what `link_outage_until` answers at
/// the asked cycle, and its span is honest: the same answer holds at both
/// ends of `[lo, hi)`, which always contains the cycle (bar `Cycle::MAX`
/// itself, where the saturated span ends on the cycle). Spans are pure
/// period arithmetic, so agreement at the ends means agreement throughout.
#[test]
fn outage_spans_are_exact() {
    use memcomm_memsim::fault::{site, FaultConfig, FaultPlan};
    forall("outage_spans_are_exact", 256, |rng| {
        let period = match rng.range_u64(0, 4) {
            0 => 1,
            1 => rng.range_u64(1, 64),
            2 => rng.range_u64(1, 1 << 20),
            _ => rng.next_u64() | 1,
        };
        let window = match rng.range_u64(0, 3) {
            0 => rng.range_u64(0, period.saturating_add(1)),
            // At least as long as its period: the window is the period.
            1 => period.saturating_add(rng.range_u64(0, 1000)),
            _ => rng.range_u64(0, 4096),
        };
        let plan = FaultPlan::new(FaultConfig {
            seed: rng.next_u64(),
            permanent_outage_rate: *rng.choose(&[0.0, 0.0, 0.5, 1.0]),
            outage_window_rate: *rng.choose(&[0.0, 0.2, 1.0]),
            outage_window_cycles: window,
            outage_period_cycles: period,
            ..FaultConfig::default()
        });
        let link = site::engine_link(rng.range_u32(0, 4096));
        for _ in 0..16 {
            let c = match rng.range_u64(0, 4) {
                0 => rng.range_u64(0, 1 << 16),
                1 => u64::MAX - rng.range_u64(0, 1 << 12),
                2 => rng.range_u64(0, period.saturating_mul(8).max(1)),
                _ => rng.next_u64(),
            };
            let (until, lo, hi) = plan.link_outage_span(link, c);
            assert_eq!(until, plan.link_outage_until(link, c), "cycle {c}");
            assert!(lo <= c, "span [{lo}, {hi}) starts after {c}");
            if c == u64::MAX {
                assert_eq!(hi, u64::MAX, "the last cycle's span saturates");
                continue;
            }
            assert!(c < hi, "span [{lo}, {hi}) ends before {c}");
            for x in [lo, hi - 1] {
                assert_eq!(
                    plan.link_outage_until(link, x),
                    until,
                    "span [{lo}, {hi}) of cycle {c} disagrees at {x}"
                );
            }
        }
    });
}
