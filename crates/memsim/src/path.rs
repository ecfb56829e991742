//! The memory path: cache + write buffer + read-ahead + DRAM behind one
//! arbitration point.
//!
//! Every agent that touches memory — the processor, a DMA engine, the
//! deposit engine — goes through the node's single [`MemPath`]. Requests
//! carry timestamps; drivers advance agents in earliest-first order, so the
//! path sees a causally ordered request stream and can model bank
//! occupancy, background write-buffer drains and requester-switch
//! arbitration penalties with simple free-until bookkeeping.

use crate::cache::{Cache, CacheParams, LoadOutcome};
use crate::clock::Cycle;
use crate::dram::{Dram, DramOp, DramParams};
use crate::mem::WORD_BYTES;
use crate::readahead::{ReadAhead, ReadAheadParams};
use crate::wbq::{Wbq, WbqParams};

/// The requester of a memory operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Port {
    /// The node's main processor.
    Cpu,
    /// The second processor of a multiprocessor node (Paragon co-processor).
    CoProcessor,
    /// A DMA / line-transfer engine.
    Dma,
    /// The deposit engine handling incoming remote stores.
    Deposit,
}

/// Memory-path configuration.
#[derive(Debug, Clone, Copy, PartialEq, Hash)]
pub struct PathParams {
    /// Cache geometry.
    pub cache: CacheParams,
    /// Write-buffer geometry.
    pub wbq: WbqParams,
    /// Read-ahead unit.
    pub readahead: ReadAheadParams,
    /// DRAM timing.
    pub dram: DramParams,
    /// Arbitration penalty in cycles when the requesting port changes
    /// between two requests closer than `switch_window_cycles` apart
    /// (fine-grain interleaving cost on the Paragon bus).
    pub switch_penalty_cycles: Cycle,
    /// Window within which a requester switch incurs the penalty.
    pub switch_window_cycles: Cycle,
}

/// The node memory path.
#[derive(Debug, Clone)]
pub struct MemPath {
    cache: Cache,
    wbq: Wbq,
    rdal: ReadAhead,
    dram: Dram,
    params: PathParams,
    last_port: Option<(Port, Cycle)>,
    last_drain_end: Cycle,
}

impl MemPath {
    /// Creates a memory path.
    ///
    /// # Panics
    ///
    /// Panics if the component parameters are inconsistent (see the
    /// component constructors).
    pub fn new(params: PathParams) -> Self {
        MemPath {
            cache: Cache::new(params.cache),
            wbq: Wbq::new(params.wbq, params.cache.line_bytes),
            rdal: ReadAhead::new(params.readahead),
            dram: Dram::new(params.dram),
            params,
            last_port: None,
            last_drain_end: 0,
        }
    }

    /// Configuration.
    pub fn params(&self) -> &PathParams {
        &self.params
    }

    /// Cache counters.
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.cache.stats()
    }

    /// DRAM counters.
    pub fn dram_stats(&self) -> crate::dram::DramStats {
        self.dram.stats()
    }

    fn arbitrate(&mut self, port: Port, t: Cycle) -> Cycle {
        let t = match self.last_port {
            Some((last, at))
                if last != port && t.saturating_sub(at) < self.params.switch_window_cycles =>
            {
                t + self.params.switch_penalty_cycles
            }
            _ => t,
        };
        self.last_port = Some((port, t));
        t
    }

    /// Drains write-buffer entries that the controller would have started
    /// during DRAM idle time before `t`.
    fn background_drain(&mut self, t: Cycle) {
        loop {
            let Some(front_addr) = self.peek_drain_addr() else {
                return;
            };
            if self.dram.free_at(front_addr) >= t {
                return;
            }
            self.drain_one(self.dram.free_at(front_addr));
        }
    }

    fn peek_drain_addr(&self) -> Option<u64> {
        self.wbq.front_line()
    }

    fn drain_one(&mut self, at: Cycle) -> Cycle {
        let item = self.wbq.pop().expect("drain_one called with empty wbq");
        // Write buffers drain in order with a single outstanding
        // transaction: the next drain cannot start before the previous one
        // completed, even to an idle bank.
        let at = at.max(self.last_drain_end);
        let span = self.dram.access(
            at,
            item.line_base,
            item.words.max(1),
            DramOp::PostedWrite {
                regular: item.regular,
            },
        );
        self.last_drain_end = span.end;
        span.end
    }

    /// Forces drains until a predicate is satisfied, starting no earlier
    /// than `t`; returns when the last forced drain finished.
    fn forced_drain_until<F: Fn(&Wbq) -> bool>(&mut self, t: Cycle, done: F) -> Cycle {
        let mut now = t;
        while !done(&self.wbq) {
            let addr = self.wbq.front_line().expect("predicate holds on empty");
            let start = now.max(self.dram.free_at(addr));
            now = self.drain_one(start);
        }
        now
    }

    /// A cacheable CPU load of the word at `addr`, requested at `t`.
    /// Returns when the data is available to the processor.
    pub fn cpu_load(&mut self, t: Cycle, port: Port, addr: u64) -> Cycle {
        let t = self.arbitrate(port, t);
        self.background_drain(t);
        // Store-to-load ordering: pending buffered stores to this line must
        // reach memory first.
        let t = if self.wbq.overlaps(addr) {
            let base = self.cache.line_base(addr);
            self.forced_drain_until(t, |w| !w.overlaps(base))
        } else {
            t
        };
        match self.cache.load(addr) {
            LoadOutcome::Hit => t + self.cache.params().hit_cycles,
            LoadOutcome::Miss => {
                let line = self.cache.line_base(addr);
                let line_words = (self.params.cache.line_bytes / WORD_BYTES) as u32;
                if let Some(ready) = self.rdal.buffer_hit(line, t) {
                    // Served from the read-ahead buffer; keep the stream
                    // rolling by prefetching the next line in the background.
                    if let Some(next) = self.rdal.on_fill(line, self.params.cache.line_bytes) {
                        let span = self.dram.access(
                            self.dram.free_at(next).max(t),
                            next,
                            line_words,
                            DramOp::Read,
                        );
                        self.rdal.note_prefetch(next, span.end);
                    }
                    return ready;
                }
                let span = self.dram.access(t, line, line_words, DramOp::Read);
                if let Some(next) = self.rdal.on_fill(line, self.params.cache.line_bytes) {
                    let pspan = self.dram.access(span.end, next, line_words, DramOp::Read);
                    self.rdal.note_prefetch(next, pspan.end);
                }
                span.end + self.params.dram.demand_latency_cycles
            }
        }
    }

    /// An uncached (pipelined) load of one word — the i860 `pfld` path.
    /// Returns when the data arrives; the caller's pipelined-load queue
    /// decides whether the processor waits.
    pub fn uncached_load(&mut self, t: Cycle, port: Port, addr: u64) -> Cycle {
        let t = self.arbitrate(port, t);
        self.background_drain(t);
        let t = if self.wbq.overlaps(addr) {
            let base = self.cache.line_base(addr);
            self.forced_drain_until(t, |w| !w.overlaps(base))
        } else {
            t
        };
        self.dram.access(t, addr, 1, DramOp::Read).end + self.params.dram.demand_latency_cycles
    }

    /// A CPU store of the word at `addr`, requested at `t`. Returns when
    /// the processor may proceed: stores are posted to the write buffer,
    /// which stalls the processor only while it is full.
    pub fn cpu_store(&mut self, t: Cycle, port: Port, addr: u64) -> Cycle {
        let t = self.arbitrate(port, t);
        self.background_drain(t);
        self.cache.store(addr);
        if self.wbq.push(addr) {
            return t;
        }
        let now = self.forced_drain_until(t, |w| !w.is_full());
        assert!(self.wbq.push(addr), "space was just drained");
        now
    }

    /// A background-engine write of `words` consecutive words at `addr`
    /// (deposit engine). Invalidates the cache lines it covers, as the T3D
    /// annex does line by line. Returns when the write completed.
    pub fn engine_write(&mut self, t: Cycle, port: Port, addr: u64, words: u32) -> Cycle {
        let t = self.arbitrate(port, t);
        self.background_drain(t);
        let line_bytes = self.params.cache.line_bytes;
        let last = self
            .cache
            .line_base(addr + u64::from(words - 1) * WORD_BYTES);
        let mut line = self.cache.line_base(addr);
        loop {
            self.cache.invalidate_line(line);
            if line >= last {
                break;
            }
            line += line_bytes;
        }
        self.dram.access(t, addr, words, DramOp::Write).end
    }

    /// A background-engine read of `words` consecutive words at `addr`
    /// (DMA fetch). Returns when the data is out of memory.
    pub fn engine_read(&mut self, t: Cycle, port: Port, addr: u64, words: u32) -> Cycle {
        let t = self.arbitrate(port, t);
        self.background_drain(t);
        let t = if self.wbq.overlaps(addr) {
            let base = self.cache.line_base(addr);
            self.forced_drain_until(t, |w| !w.overlaps(base))
        } else {
            t
        };
        self.dram.access(t, addr, words, DramOp::Read).end
    }

    /// Drains the whole write buffer, starting at `t`. Returns when memory
    /// is consistent.
    pub fn flush(&mut self, t: Cycle) -> Cycle {
        self.forced_drain_until(t, Wbq::is_empty)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeParams;

    fn t3d_ish() -> PathParams {
        NodeParams::default().path
    }

    #[test]
    fn cached_line_serves_following_words() {
        let mut p = MemPath::new(t3d_ish());
        let t1 = p.cpu_load(0, Port::Cpu, 0x0);
        let t2 = p.cpu_load(t1, Port::Cpu, 0x8);
        assert!(t1 >= 22, "first load misses");
        assert_eq!(t2, t1 + 1, "second word hits the line");
    }

    #[test]
    fn readahead_accelerates_contiguous_streams() {
        let sweep = |enabled: bool| {
            let mut params = t3d_ish();
            params.readahead.enabled = enabled;
            let mut p = MemPath::new(params);
            let mut t = 0;
            for i in 0..4096u64 {
                t = p.cpu_load(t, Port::Cpu, i * 8);
            }
            t
        };
        let with = sweep(true);
        let without = sweep(false);
        assert!(
            (without as f64) > 1.3 * with as f64,
            "read-ahead should speed a load stream: {with} vs {without}"
        );
    }

    #[test]
    fn stores_are_posted_until_buffer_fills() {
        let mut p = MemPath::new(t3d_ish());
        // Strided stores, each to a fresh line: first 6 are absorbed, then
        // the buffer is full and drains at DRAM speed.
        let mut t = 0;
        let mut release_times = Vec::new();
        for i in 0..12u64 {
            t = p.cpu_store(t, Port::Cpu, i * 512);
            release_times.push(t);
        }
        assert_eq!(release_times[..6], [0, 0, 0, 0, 0, 0][..]);
        assert!(release_times[6] > 0, "the seventh store waits for a drain");
    }

    #[test]
    fn store_then_load_same_line_orders() {
        let mut p = MemPath::new(t3d_ish());
        let rel = p.cpu_store(0, Port::Cpu, 0x100);
        assert_eq!(rel, 0, "store posted");
        let ready = p.cpu_load(0, Port::Cpu, 0x100);
        // The load had to wait for the buffered store to drain (22) and then
        // fetch the line (22 + 3 burst + 10 latency).
        assert!(ready >= 40, "got {ready}");
        let idle = MemPath::new(t3d_ish()).cpu_load(0, Port::Cpu, 0x100);
        assert!(ready > idle, "the drain delays the load: {ready} vs {idle}");
        assert_eq!(p.flush(ready), ready, "the store already drained");
    }

    #[test]
    fn background_drain_uses_idle_time() {
        let mut p = MemPath::new(t3d_ish());
        p.cpu_store(0, Port::Cpu, 0x4000);
        // Long idle gap, then a load to an unrelated address: the store
        // drained in the background, so the load is not delayed.
        let ready = p.cpu_load(10_000, Port::Cpu, 0x8000);
        assert_eq!(ready, 10_000 + 22 + 3 + 10);
        assert_eq!(p.flush(ready), ready, "nothing is left to drain");
    }

    #[test]
    fn deposit_write_invalidates_cached_line() {
        let mut p = MemPath::new(t3d_ish());
        let t = p.cpu_load(0, Port::Cpu, 0x40);
        let t = p.engine_write(t, Port::Deposit, 0x40, 4);
        let again = p.cpu_load(t, Port::Cpu, 0x40);
        // The refetch is a full line fill, not a cache hit.
        assert_eq!(p.cache_stats().load_misses, 2, "line must be refetched");
        assert!(
            again - t >= 18,
            "refetch pays fill + latency, got {}",
            again - t
        );
    }

    #[test]
    fn switch_penalty_applies_within_window() {
        // The same requests on a path with and without the penalty.
        let run = |penalty: Cycle| {
            let mut params = t3d_ish();
            params.switch_penalty_cycles = penalty;
            params.switch_window_cycles = 100;
            let mut p = MemPath::new(params);
            let t = p.cpu_load(0, Port::Cpu, 0x0);
            let written = p.engine_write(t, Port::Deposit, 0x10000, 1);
            // Far apart in time: no penalty.
            let far = p.cpu_load(t + 10_000, Port::Cpu, 0x2000) - t;
            (written, far)
        };
        let (written, far) = run(10);
        let (written_free, far_free) = run(0);
        assert_eq!(written, written_free + 10, "a close switch pays");
        assert_eq!(far, far_free, "a distant switch pays nothing");
    }

    #[test]
    fn flush_empties_the_buffer() {
        let mut p = MemPath::new(t3d_ish());
        for i in 0..4u64 {
            p.cpu_store(0, Port::Cpu, i * 512);
        }
        let done = p.flush(0);
        assert!(done > 0);
        let next = p.flush(done);
        assert_eq!(next, done, "second flush is a no-op");
    }

    #[test]
    fn uncached_load_bypasses_cache() {
        let mut p = MemPath::new(t3d_ish());
        let t1 = p.uncached_load(0, Port::Cpu, 0x0);
        let t2 = p.uncached_load(t1, Port::Cpu, 0x8);
        // Second word is a read (22) plus demand latency (10), but not a
        // cache hit.
        assert_eq!(t2 - t1, 32, "read + latency cost");
        assert_eq!(p.cache_stats().load_misses, 0);
    }
}
