//! Memoization of deterministic co-simulated measurement points behind an
//! *injected* cache handle.
//!
//! The reproduction measures a few kinds of point, and identical points
//! recur across its tables and figures:
//!
//! * basic transfers ([`microbench::measure_basic`](crate::microbench::measure_basic)),
//!   shared by Tables 1–3, the calibration report, the rate tables
//!   behind Section 5 and the PVM system-buffer copies of the Table 6
//!   kernels;
//! * pattern exchanges (`commops::run_exchange`, which the Table 6 kernels
//!   also call per round) and get exchanges (`commops::run_get_exchange`),
//!   shared by Figures 7/8, Table 5, the accuracy grid and put/get;
//! * library messages (`commops::measure_message`), behind Figure 1;
//! * Table 4's wire runs ([`microbench::measure_wire`](crate::microbench::measure_wire))
//!   and the faults grid's resilient transfers
//!   (`commops::cached_resilient_transfer`), which recur across the passes
//!   of a warm cache. A resilient transfer's fault counters and protocol
//!   histograms count in the registry of the run that simulates it, so,
//!   like the simulation counters, they count only the simulations that
//!   ran.
//!
//! A [`MemoCache`] makes each distinct point simulate exactly once per
//! cache. A key is the machine's fingerprint plus a [`Point`]: a closed enum
//! with one variant per kind, holding as plain data every input that
//! determines the result. Callers build a point by destructuring their
//! configuration without `..`, or from a type whose equality and hash
//! cover every field, so a field added later cannot escape the key.
//! Because a point is plain data, a run's lookups can be
//! collected before anything simulates: [`record`] runs a closure with
//! every lookup recorded instead of answered. The sweep records each
//! section's own fill this way and simulates the distinct points through
//! `commops::measure_point` before it renders. Three entry points stay
//! uncached: `netsim::link::measure_wire_rate` and
//! `commops::run_resilient_transfer` simulate on every call, and
//! `commops::run_exchange_specs`, whose explicit offset lists would have
//! to be keyed in full, never looks up.
//!
//! ## The handle model
//!
//! There is deliberately **no process-wide cache**: earlier versions kept
//! one behind `static` storage, which meant two concurrent runs (the
//! simulation server, a test harness, a benchmark) bled entries and
//! counters into each other. Instead, whoever owns a run builds a
//! [`MemoHandle`] and [`install`]s it on the current thread, and everything
//! downstream on that thread picks it up via [`current`], as
//! `memcomm_obs::Obs` handles travel. A spawned thread starts with none:
//! the sweep's simulate phase installs its handle in each of its workers.
//! With no handle installed, [`cached`] simply simulates — correct, just
//! uncached — and traces exactly as an uncached run does. A hit skips the
//! simulation, so it also emits no trace process: a trace shows exactly
//! the simulations that actually ran.
//!
//! ## Sharding and eviction
//!
//! The cache is split into shards, each an independently locked map, so
//! concurrent server workers rarely contend on one mutex. A bounded cache
//! ([`MemoConfig::capacity`]) evicts with the CLOCK (second-chance LRU
//! approximation) policy per shard: every hit sets a referenced bit, the
//! clock hand sweeps bits clear and evicts the first unreferenced entry.
//! Per-shard capacities sum exactly to the configured capacity, so the
//! bound is never exceeded, not even transiently.
//!
//! Keys include a fingerprint of the *entire* machine configuration (a
//! structural hash of every field, [`machine_fingerprint`]), so mutated
//! machines — the ablation studies flip individual component parameters —
//! never collide with the stock configurations.
//!
//! Lookups take a shard lock briefly and simulations run outside it, so
//! parallel sweep workers never serialize on each other. Two workers racing
//! on the same missing key may both simulate it; the simulator is
//! deterministic, so both compute the same value and either insert wins.
//! Because values are pure functions of their keys, a warm cache, a cold
//! cache and no cache at all produce byte-identical results — the property
//! the served-vs-batch differential tier rests on.

use std::cell::RefCell;
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Mutex};

use memcomm_memsim::fault::{FaultConfig, ProtocolConfig};
use memcomm_memsim::stats::{ExchangeConfig, ExchangeResult, PhaseTimeline, TransferReport};
use memcomm_memsim::{Measurement, NodeParams, SimResult};
use memcomm_model::{AccessPattern, BasicTransfer, Style, Throughput};
use memcomm_netsim::LinkParams;

use crate::{LibraryProfile, Machine};

/// One deterministic measurement point, minus the machine: every input
/// that determines its result, as plain data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Point {
    /// A basic transfer (`microbench::measure_basic`).
    Basic {
        /// The transfer.
        transfer: BasicTransfer,
        /// Payload words.
        words: u64,
    },
    /// A symmetric pattern exchange (`commops::run_exchange`).
    Exchange {
        /// Source access pattern.
        x: AccessPattern,
        /// Destination access pattern.
        y: AccessPattern,
        /// The implementation family.
        style: Style,
        /// The exchange parameters.
        cfg: ExchangeConfig,
    },
    /// A get-based exchange (`commops::run_get_exchange`).
    Get {
        /// Remote source access pattern.
        x: AccessPattern,
        /// Local destination access pattern.
        y: AccessPattern,
        /// The exchange parameters.
        cfg: ExchangeConfig,
    },
    /// One library message (`commops::measure_message`).
    Message {
        /// The library's cost profile.
        profile: LibraryProfile,
        /// Message words.
        words: u64,
    },
    /// A raw wire run of Table 4 (`microbench::measure_wire`).
    Wire {
        /// `f64::to_bits` of the congestion factor.
        congestion_bits: u64,
        /// Words streamed.
        words: u64,
        /// Whether the words are address-data pairs.
        address_data_pairs: bool,
    },
    /// A resilient transfer under a fault plan
    /// (`commops::cached_resilient_transfer`).
    Resilient {
        /// Source access pattern.
        x: AccessPattern,
        /// Destination access pattern.
        y: AccessPattern,
        /// The implementation family.
        style: Style,
        /// The fault plan's configuration, its rates keyed by their bits.
        faults: FaultConfig,
        /// The protocol parameters.
        protocol: ProtocolConfig,
    },
}

/// A point's result, one variant per result type of the [`Point`] kinds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// A basic transfer's measurement; `None` for transfers the machine
    /// does not offer.
    Basic(Option<Measurement>),
    /// A pattern or get exchange.
    Exchange(ExchangeResult),
    /// A library message's end-to-end throughput.
    Message(Throughput),
    /// A raw wire run.
    Wire(Measurement),
    /// A resilient transfer.
    Resilient(TransferReport),
}

/// A result type stored as a [`Value`]; [`cached`] converts through it.
pub trait PointValue: Sized {
    /// Wraps the result for storage.
    fn into_value(self) -> Value;
    /// Unwraps a stored result.
    ///
    /// # Panics
    ///
    /// Panics on another kind's value, which only a caller pairing a
    /// [`Point`] kind with the wrong result type can produce.
    fn from_value(value: Value) -> Self;
}

macro_rules! point_values {
    ($($kind:literal: $ty:ty => $variant:ident,)+) => {$(
        impl PointValue for $ty {
            fn into_value(self) -> Value {
                Value::$variant(self)
            }
            fn from_value(value: Value) -> Self {
                match value {
                    Value::$variant(v) => v,
                    other => unreachable!("{} point holds {other:?}", $kind),
                }
            }
        }
    )+};
}

point_values! {
    "basic": Option<Measurement> => Basic,
    "exchange": ExchangeResult => Exchange,
    "message": Throughput => Message,
    "wire": Measurement => Wire,
    "resilient": TransferReport => Resilient,
}

/// Cache key: machine fingerprint and point.
pub type MemoKey = (u64, Point);

/// Cached value: a point's result, or its deterministic simulation error.
pub type Cached = SimResult<Value>;

/// A structural hash of every field of `machine`. The parameter structs
/// that hold floats are destructured without `..` and their floats hashed
/// by their bits; the rest derive `Hash`. So a field added later is
/// hashed, or does not compile until it is, and any mutation, such as an
/// ablation's, changes the fingerprint.
pub fn machine_fingerprint(machine: &Machine) -> u64 {
    let Machine {
        name,
        node,
        link_raw,
        default_congestion,
        nodes_per_port,
        topology,
        caps,
    } = machine;
    let NodeParams {
        clock_mhz,
        memory_words,
        path,
        cpu,
        dma,
        deposit,
        tx_fifo_words,
        rx_fifo_words,
    } = node;
    let LinkParams {
        bytes_per_cycle,
        packet_words,
        header_bytes,
        adp_extra_bytes,
        latency_cycles,
        congestion,
    } = link_raw;
    let mut h = Fold(0xcbf2_9ce4_8422_2325);
    (name, nodes_per_port, topology, caps).hash(&mut h);
    (
        memory_words,
        path,
        cpu,
        dma,
        deposit,
        tx_fifo_words,
        rx_fifo_words,
    )
        .hash(&mut h);
    (packet_words, header_bytes, adp_extra_bytes, latency_cycles).hash(&mut h);
    for float in [default_congestion, clock_mhz, bytes_per_cycle, congestion] {
        h.write_u64(float.to_bits());
    }
    h.finish()
}

/// Folds each integer it is fed into its state by a multiply and a
/// rotate. Every step is a bijection of the state, so machines that
/// differ in one scalar field never share a fingerprint.
struct Fold(u64);

impl Hasher for Fold {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.write_u64(b.into()));
    }
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0 ^ word)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(29);
    }
    fn write_u32(&mut self, word: u32) {
        self.write_u64(word.into());
    }
    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }
}

/// Lock shards of a [`MemoCache`]; a bounded cache clamps them to at most
/// its capacity, so every per-shard budget stays non-zero.
const SHARDS: usize = 16;

/// Sizing of a [`MemoCache`]; the default is unbounded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoConfig {
    /// Total entry budget across all shards; `0` = unbounded.
    pub capacity: usize,
}

/// A snapshot of one cache's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to simulate.
    pub misses: u64,
    /// Entries evicted by the CLOCK hand to stay within capacity.
    pub evictions: u64,
    /// Distinct `(machine, point)` keys currently stored.
    pub entries: u64,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0.0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter deltas since an earlier snapshot (entries reports the
    /// current absolute count).
    pub fn since(self, earlier: CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.wrapping_sub(earlier.hits),
            misses: self.misses.wrapping_sub(earlier.misses),
            evictions: self.evictions.wrapping_sub(earlier.evictions),
            entries: self.entries,
        }
    }
}

/// A snapshot of one shard's counters — the per-shard view the service
/// exports through the OpenMetrics exposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Lookups this shard answered from its map.
    pub hits: u64,
    /// Lookups this shard had to send to the simulator.
    pub misses: u64,
    /// Values actually stored (racing misses insert once).
    pub insertions: u64,
    /// Entries the CLOCK hand evicted.
    pub evictions: u64,
    /// Entries currently stored.
    pub entries: u64,
}

#[derive(Debug)]
struct Slot {
    key: MemoKey,
    value: Cached,
    referenced: bool,
}

#[derive(Debug, Default)]
struct Shard {
    map: HashMap<MemoKey, usize>,
    slots: Vec<Slot>,
    hand: usize,
    hits: u64,
    misses: u64,
    insertions: u64,
    evictions: u64,
}

impl Shard {
    /// Sweeps the CLOCK hand to a victim, unmaps it, and returns its slot
    /// index for reuse. Terminates because each pass clears referenced
    /// bits: after at most one full sweep an unreferenced slot exists.
    fn evict_one(&mut self) -> usize {
        loop {
            let i = self.hand;
            self.hand = (self.hand + 1) % self.slots.len();
            if self.slots[i].referenced {
                self.slots[i].referenced = false;
            } else {
                self.map.remove(&self.slots[i].key);
                self.evictions += 1;
                return i;
            }
        }
    }

    /// Stores `key -> value`, evicting when the shard is at `cap`
    /// (`cap == 0` means unbounded). The caller has already checked the
    /// key is absent.
    fn insert(&mut self, key: MemoKey, value: Cached, cap: usize) {
        self.insertions += 1;
        let slot = Slot {
            key,
            value,
            referenced: true,
        };
        if cap > 0 && self.slots.len() >= cap {
            let i = self.evict_one();
            self.slots[i] = slot;
            self.map.insert(key, i);
        } else {
            self.map.insert(key, self.slots.len());
            self.slots.push(slot);
        }
    }
}

/// A sharded, bounded, concurrently shared measurement cache. Cheap to
/// share as a [`MemoHandle`]; see the module docs for the design.
#[derive(Debug)]
pub struct MemoCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard entry budgets (0 = unbounded); they sum to the
    /// configured capacity exactly, so the total bound is strict.
    caps: Vec<usize>,
}

/// A shared reference to a [`MemoCache`] — what gets installed on the
/// threads of a run.
pub type MemoHandle = Arc<MemoCache>;

impl MemoCache {
    /// Builds a cache from `config`: 16 lock shards, or one per entry of a
    /// smaller capacity.
    pub fn new(config: MemoConfig) -> MemoCache {
        let shards = match config.capacity {
            0 => SHARDS,
            capacity => SHARDS.min(capacity),
        };
        // An unbounded cache's budgets all come out 0, which means unbounded.
        let caps = (0..shards)
            .map(|i| config.capacity / shards + usize::from(i < config.capacity % shards))
            .collect();
        MemoCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            caps,
        }
    }

    /// An unbounded cache, behind a handle.
    pub fn unbounded() -> MemoHandle {
        Arc::new(MemoCache::new(MemoConfig::default()))
    }

    /// Builds a cache behind a handle.
    pub fn handle(config: MemoConfig) -> MemoHandle {
        Arc::new(MemoCache::new(config))
    }

    /// The number of shards actually in use (after clamping).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_of(&self, key: &MemoKey) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() % self.shards.len() as u64) as usize
    }

    fn lock(&self, i: usize) -> std::sync::MutexGuard<'_, Shard> {
        self.shards[i].lock().expect("memo shard poisoned")
    }

    /// Looks a key up, simulating with `simulate` on a miss. The shard
    /// lock is held only for the lookup and (re-)insertion, never across
    /// the simulation.
    pub fn get_or_insert(&self, key: MemoKey, simulate: impl FnOnce() -> Cached) -> Cached {
        let si = self.shard_of(&key);
        {
            let mut shard = self.lock(si);
            if let Some(&slot) = shard.map.get(&key) {
                shard.hits += 1;
                shard.slots[slot].referenced = true;
                return shard.slots[slot].value.clone();
            }
            shard.misses += 1;
        }
        let value = simulate();
        let mut shard = self.lock(si);
        if !shard.map.contains_key(&key) {
            let cap = self.caps[si];
            shard.insert(key, value.clone(), cap);
        }
        value
    }

    /// Aggregated counters across all shards.
    pub fn stats(&self) -> CacheStats {
        let mut out = CacheStats::default();
        for i in 0..self.shards.len() {
            let shard = self.lock(i);
            out.hits += shard.hits;
            out.misses += shard.misses;
            out.evictions += shard.evictions;
            out.entries += shard.map.len() as u64;
        }
        out
    }

    /// Per-shard counters, in shard order.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        (0..self.shards.len())
            .map(|i| {
                let shard = self.lock(i);
                ShardStats {
                    hits: shard.hits,
                    misses: shard.misses,
                    insertions: shard.insertions,
                    evictions: shard.evictions,
                    entries: shard.map.len() as u64,
                }
            })
            .collect()
    }

    /// Clears every entry and every counter.
    pub fn clear(&self) {
        for i in 0..self.shards.len() {
            *self.lock(i) = Shard::default();
        }
    }
}

thread_local! {
    static CURRENT: RefCell<Option<MemoHandle>> = const { RefCell::new(None) };
    /// The lookups [`record`] is collecting on this thread, if it is.
    static RECORDING: RefCell<Option<Vec<(Machine, Point)>>> = const { RefCell::new(None) };
}

/// The handle installed on the current thread, if any.
pub fn current() -> Option<MemoHandle> {
    CURRENT.with(|c| c.borrow().clone())
}

/// Installs `handle` on the current thread until the guard drops; nested
/// installs restore the previous handle.
pub fn install(handle: &MemoHandle) -> MemoInstallGuard {
    let previous = CURRENT.with(|c| c.borrow_mut().replace(Arc::clone(handle)));
    MemoInstallGuard {
        previous: Some(previous),
    }
}

/// Restores the previously installed handle on drop.
#[derive(Debug)]
pub struct MemoInstallGuard {
    previous: Option<Option<MemoHandle>>,
}

impl Drop for MemoInstallGuard {
    fn drop(&mut self) {
        if let Some(previous) = self.previous.take() {
            CURRENT.with(|c| *c.borrow_mut() = previous);
        }
    }
}

/// Reads the current thread's cache statistics (zeros with no handle
/// installed).
pub fn stats() -> CacheStats {
    current().map(|c| c.stats()).unwrap_or_default()
}

/// Looks up `point` of `machine` in the current thread's cache, simulating
/// it with `simulate` on a miss; with no handle installed it simulates
/// directly. Errors are cached like values, and so are `None` basic results
/// (transfers the machine does not offer) — re-deciding that a T3D has no
/// DMA, or that a point fails deterministically, costs a lookup, not a
/// simulation.
///
/// Under [`record`] on this thread it records the lookup instead and
/// returns a stand-in of the point's kind.
pub fn cached<T: PointValue>(
    machine: &Machine,
    point: Point,
    simulate: impl FnOnce() -> SimResult<T>,
) -> SimResult<T> {
    let recorded = RECORDING.with(|r| {
        r.borrow_mut()
            .as_mut()
            .map(|points| points.push((machine.clone(), point)))
            .is_some()
    });
    if recorded {
        return Ok(T::from_value(stand_in(point)));
    }
    match current() {
        Some(cache) => cache
            .get_or_insert((machine_fingerprint(machine), point), || {
                simulate().map(T::into_value)
            })
            .map(T::from_value),
        None => simulate(),
    }
}

/// Runs `f` and returns every memo lookup it made on this thread, in
/// order, each with its machine, without answering any: while `f` runs,
/// [`cached`] on this thread records its `(machine, point)` and returns a
/// stand-in of the point's kind, so nothing simulates and neither the
/// cache nor any counter is touched. The sweep derives its work list this
/// way, by recording each section's own fill.
///
/// The record names the points a real run of `f` looks up only while no
/// lookup depends on a value looked up before it: which points `f` looks
/// up, and in what order, must follow from its inputs alone, never from a
/// measured result (a stand-in is no measurement). Every experiment keeps
/// to that, and a run that broke it would look up a point nobody recorded.
///
/// Recordings nest: an inner call collects its own lookups and restores
/// the outer recording. A panic in `f` is caught; the lookups made before
/// it are returned. Lookups on other threads are not recorded.
pub fn record<R>(f: impl FnOnce() -> R) -> Vec<(Machine, Point)> {
    let outer = RECORDING.with(|r| r.replace(Some(Vec::new())));
    let _ = std::panic::catch_unwind(AssertUnwindSafe(f));
    RECORDING
        .with(|r| r.replace(outer))
        .expect("the recording started above")
}

/// What [`cached`] answers while recording: a plausible result of the
/// point's kind, built without simulating (and so without counting).
fn stand_in(point: Point) -> Value {
    match point {
        Point::Basic { words, .. } => Value::Basic(Some(Measurement {
            words,
            cycles: words.max(1),
        })),
        Point::Exchange { cfg, .. } | Point::Get { cfg, .. } => Value::Exchange(ExchangeResult {
            words: cfg.words,
            end_cycle: cfg.words.max(1),
            verified: true,
            phases: PhaseTimeline::default(),
        }),
        Point::Message { .. } => Value::Message(Throughput::from_mbps(1.0)),
        Point::Wire { words, .. } => Value::Wire(Measurement {
            words,
            cycles: words.max(1),
        }),
        Point::Resilient { protocol, .. } => Value::Resilient(TransferReport {
            words: protocol.words,
            end_cycle: protocol.words.max(1),
            verified: true,
            frames_sent: 0,
            retransmissions: 0,
            degraded: false,
        }),
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashSet;

    use memcomm_netsim::Topology;

    use super::*;

    fn basic(transfer: &str, words: u64) -> Point {
        Point::Basic {
            transfer: BasicTransfer::parse(transfer).unwrap(),
            words,
        }
    }

    #[test]
    fn every_single_field_mutation_changes_the_fingerprint() {
        let mutations: [fn(&mut Machine); 8] = [
            |m| m.name = "renamed",
            |m| m.node.clock_mhz += 1e-9,
            |m| m.node.path.readahead.enabled ^= true,
            |m| m.node.path.dram.turnaround_cycles += 1,
            |m| m.node.cpu.pfq.depth += 1,
            |m| m.link_raw.bytes_per_cycle *= 2.0,
            |m| m.topology = Topology::torus(&[3, 5]),
            |m| m.caps.receive_store ^= true,
        ];
        for base in [Machine::t3d(), Machine::paragon()] {
            let mut seen = HashSet::from([machine_fingerprint(&base)]);
            assert_eq!(
                machine_fingerprint(&base.clone()),
                machine_fingerprint(&base)
            );
            for (i, mutate) in mutations.iter().enumerate() {
                let mut m = base.clone();
                mutate(&mut m);
                assert!(seen.insert(machine_fingerprint(&m)), "{} #{i}", base.name);
            }
        }
    }

    #[test]
    fn second_lookup_hits() {
        let cache = MemoCache::unbounded();
        let _g = install(&cache);
        let m = Machine::t3d();
        let t = BasicTransfer::parse("1C1").unwrap();
        let before = stats();
        let a = crate::microbench::measure_basic(&m, t, 777).unwrap();
        let b = crate::microbench::measure_basic(&m, t, 777).unwrap();
        assert_eq!(a, b);
        let delta = stats().since(before);
        assert!(delta.hits >= 1, "second lookup must hit: {delta:?}");
    }

    #[test]
    fn mutated_machines_do_not_collide() {
        let cache = MemoCache::unbounded();
        let _g = install(&cache);
        let stock = Machine::t3d();
        let mut ablated = Machine::t3d();
        ablated.node.path.readahead.enabled = false;
        assert_ne!(
            machine_fingerprint(&stock),
            machine_fingerprint(&ablated),
            "ablation must change the fingerprint"
        );
        let t = BasicTransfer::parse("1C0").unwrap();
        let on = crate::microbench::measure_basic(&stock, t, 2048)
            .unwrap()
            .unwrap();
        let off = crate::microbench::measure_basic(&ablated, t, 2048)
            .unwrap()
            .unwrap();
        assert_ne!(on.cycles, off.cycles, "read-ahead ablation must show");
    }

    #[test]
    fn none_results_are_cached() {
        let cache = MemoCache::unbounded();
        let _g = install(&cache);
        let t3d = Machine::t3d();
        let dma = BasicTransfer::parse("1F0").unwrap();
        assert!(crate::microbench::measure_basic(&t3d, dma, 555)
            .unwrap()
            .is_none());
        let before = stats();
        assert!(crate::microbench::measure_basic(&t3d, dma, 555)
            .unwrap()
            .is_none());
        assert!(stats().since(before).hits >= 1);
    }

    #[test]
    fn hit_rate_is_a_fraction() {
        let s = CacheStats {
            hits: 3,
            misses: 1,
            evictions: 0,
            entries: 1,
        };
        assert!((s.hit_rate() - 0.75).abs() < 1e-12);
        let empty = CacheStats::default();
        assert_eq!(empty.hit_rate(), 0.0);
    }

    #[test]
    fn without_a_handle_every_call_simulates() {
        assert!(current().is_none(), "test threads start with no handle");
        let m = Machine::t3d();
        let mut runs = 0;
        for _ in 0..3 {
            let _ = cached(&m, basic("1C1", 64), || {
                runs += 1;
                Ok(None::<Measurement>)
            });
        }
        assert_eq!(runs, 3, "no handle means no caching");
        assert_eq!(stats(), CacheStats::default());
    }

    #[test]
    fn record_collects_lookups_without_answering_them() {
        let cache = MemoCache::unbounded();
        let _g = install(&cache);
        let m = Machine::t3d();
        let simulated = std::cell::Cell::new(0);
        let lookup = |point| {
            cached(&m, point, || {
                simulated.set(simulated.get() + 1);
                Ok(None::<Measurement>)
            })
        };
        let (mut inner, mut answer) = (Vec::new(), None);
        let outer = record(|| {
            inner = record(|| lookup(basic("1C1", 8)));
            answer = Some(lookup(basic("1C64", 8)));
            panic!("a panic ends the recording");
        });
        let points = |r: &[(Machine, Point)]| r.iter().map(|&(_, p)| p).collect::<Vec<_>>();
        assert_eq!(points(&inner), [basic("1C1", 8)]);
        assert_eq!(points(&outer), [basic("1C64", 8)], "nested and cut short");
        let stand_in = Measurement {
            words: 8,
            cycles: 8,
        };
        assert_eq!(answer, Some(Ok(Some(stand_in))));
        assert_eq!(simulated.get(), 0, "nothing simulates while recording");
        assert_eq!(stats(), CacheStats::default(), "nor touches the cache");
        assert_eq!(lookup(basic("1C1", 8)), Ok(None));
        assert_eq!(simulated.get(), 1, "a lookup after the recording simulates");
    }

    #[test]
    fn bounded_cache_evicts_with_clock_and_keeps_the_bound() {
        // Sixteen shards of four entries each.
        let cache = MemoCache::new(MemoConfig { capacity: 64 });
        for i in 0..512u64 {
            let _ = cache.get_or_insert((i, basic("1C1", 1)), || Ok(Value::Basic(None)));
            assert!(cache.stats().entries <= 64, "bound violated at {i}");
        }
        let s = cache.stats();
        assert_eq!(s.entries, 64);
        assert_eq!(s.misses, 512);
        assert_eq!(s.evictions, 448);
    }

    #[test]
    fn capacity_smaller_than_shards_clamps_shards() {
        let cache = MemoCache::new(MemoConfig { capacity: 3 });
        assert_eq!(cache.shard_count(), 3);
        for i in 0..64u64 {
            let _ = cache.get_or_insert((i, basic("1C1", 1)), || Ok(Value::Basic(None)));
        }
        assert!(cache.stats().entries <= 3);
    }
}
