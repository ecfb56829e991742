//! Page-mode DRAM with per-bank row buffers and a shared data channel.
//!
//! The T3D node has "a simple non-interleaved memory system built from DRAM
//! chips" — one bank, so every row conflict serializes. The Paragon spreads
//! lines over interleaved banks on its 400 MB/s bus, so independent accesses
//! to different banks overlap their row-miss latencies. This difference is
//! what makes indexed gathers comparatively fast on the Paragon and slow on
//! the T3D.

use crate::clock::Cycle;

/// Timing and geometry parameters of the DRAM system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramParams {
    /// Number of interleaved banks (1 on the T3D).
    pub banks: u32,
    /// Bank interleave granularity in bytes (typically the cache line).
    pub interleave_bytes: u64,
    /// Row (DRAM page) size in bytes per bank.
    pub row_bytes: u64,
    /// Cycles for the first word of a read that hits the open row.
    pub read_hit_cycles: Cycle,
    /// Cycles for the first word of a read that misses the open row
    /// (precharge + activate + access).
    pub read_miss_cycles: Cycle,
    /// Cycles for the first word of a write into the open row.
    pub write_hit_cycles: Cycle,
    /// Cycles for the first word of a write that misses the open row.
    pub write_miss_cycles: Cycle,
    /// Cycles for a row-miss *posted* write whose address the controller
    /// could predict (a constant-stride stream drained from the write
    /// buffer): precharge overlaps the previous transfer.
    pub posted_write_miss_cycles: Cycle,
    /// Cycles per additional word of a burst within the row.
    pub burst_word_cycles: Cycle,
    /// Data-channel occupancy per word, shared across banks.
    pub channel_word_cycles: Cycle,
    /// Extra latency (controller + board) a *demand* read pays between the
    /// access completing at the DRAM and the data reaching the requester.
    /// Occupies no resource — prefetching (read-ahead) and pipelined loads
    /// hide it, which is exactly their benefit.
    pub demand_latency_cycles: Cycle,
    /// Whether writes can hit an open row and leave it open. Controllers
    /// that perform read-modify-write for sub-line ECC updates (the T3D) or
    /// run a closed-page policy for writes get `false`: every write pays the
    /// row-miss cost and closes the row. Posted-write pipelining (regular
    /// drain streams) still applies.
    pub write_row_affinity: bool,
    /// Whether reads can hit an open row across accesses. Simple mid-90s
    /// controllers precharge after every access (closed page): each access
    /// pays its miss-class cost and bursts only help within one access.
    pub read_row_affinity: bool,
    /// Bus turnaround cycles charged when an access switches direction
    /// (read after write or write after read) on the shared memory bus.
    pub turnaround_cycles: Cycle,
}

impl DramParams {
    fn validate(&self) {
        assert!(self.banks >= 1, "need at least one bank");
        assert!(self.interleave_bytes > 0 && self.row_bytes > 0);
        assert!(self.read_miss_cycles >= self.read_hit_cycles);
        assert!(self.write_miss_cycles >= self.write_hit_cycles);
        assert!(self.posted_write_miss_cycles <= self.write_miss_cycles);
    }
}

/// The kind of DRAM access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DramOp {
    /// A demand or prefetch read.
    Read,
    /// A write issued synchronously (e.g. by a deposit engine).
    Write,
    /// A write drained from a write buffer; `regular` is true when the
    /// drain stream has a predictable constant stride, enabling posted-write
    /// pipelining.
    PostedWrite {
        /// Whether the drain stream's addresses form a constant stride.
        regular: bool,
    },
}

/// The busy interval of one access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// When the access started (after bank arbitration).
    pub start: Cycle,
    /// When the last word was transferred.
    pub end: Cycle,
}

/// Counters exposed for tests and reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DramStats {
    /// Read accesses (bursts count once).
    pub reads: u64,
    /// Write accesses.
    pub writes: u64,
    /// Accesses that hit an open row.
    pub row_hits: u64,
    /// Accesses that had to open a row.
    pub row_misses: u64,
    /// Row-miss writes served at the pipelined posted-write cost.
    pub posted_pipelined: u64,
}

#[derive(Debug, Clone, Copy)]
struct Bank {
    free_at: Cycle,
    open_row: Option<u64>,
}

/// The DRAM system: banks plus a shared data channel.
#[derive(Debug, Clone)]
pub struct Dram {
    params: DramParams,
    bank_state: Vec<Bank>,
    channel_free_at: Cycle,
    last_was_write: Option<bool>,
    stats: DramStats,
}

impl Dram {
    /// Creates a DRAM system.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent parameters (zero banks, miss faster than hit,
    /// …).
    pub fn new(params: DramParams) -> Self {
        params.validate();
        Dram {
            params,
            bank_state: vec![
                Bank {
                    free_at: 0,
                    open_row: None
                };
                params.banks as usize
            ],
            channel_free_at: 0,
            last_was_write: None,
            stats: DramStats::default(),
        }
    }

    /// The configured parameters.
    pub fn params(&self) -> &DramParams {
        &self.params
    }

    /// Access counters.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    fn bank_of(&self, addr: u64) -> usize {
        ((addr / self.params.interleave_bytes) % u64::from(self.params.banks)) as usize
    }

    fn row_of(&self, addr: u64) -> u64 {
        addr / (self.params.row_bytes * u64::from(self.params.banks))
    }

    /// Performs an access of `words` consecutive words starting at `addr`,
    /// requested at time `at`. Returns the busy interval; the bank and the
    /// data channel are occupied until `end`.
    ///
    /// # Panics
    ///
    /// Panics for zero-word accesses.
    pub fn access(&mut self, at: Cycle, addr: u64, words: u32, op: DramOp) -> Span {
        assert!(words >= 1, "dram access must move at least one word");
        let b = self.bank_of(addr);
        let row = self.row_of(addr);
        let bank = &mut self.bank_state[b];
        let is_write = !matches!(op, DramOp::Read);
        let turnaround = match self.last_was_write {
            Some(last) if last != is_write => self.params.turnaround_cycles,
            _ => 0,
        };
        self.last_was_write = Some(is_write);
        let start = at.max(bank.free_at) + turnaround;
        let affinity = if is_write {
            self.params.write_row_affinity
        } else {
            self.params.read_row_affinity
        };
        let hit = bank.open_row == Some(row) && affinity;
        if hit {
            self.stats.row_hits += 1;
        } else {
            self.stats.row_misses += 1;
        }
        let first = match (op, hit) {
            (DramOp::Read, true) => self.params.read_hit_cycles,
            (DramOp::Read, false) => self.params.read_miss_cycles,
            (DramOp::Write, true) | (DramOp::PostedWrite { .. }, true) => {
                self.params.write_hit_cycles
            }
            (DramOp::Write, false) => self.params.write_miss_cycles,
            (DramOp::PostedWrite { regular }, false) => {
                if regular {
                    self.stats.posted_pipelined += 1;
                    self.params.posted_write_miss_cycles
                } else {
                    self.params.write_miss_cycles
                }
            }
        };
        match op {
            DramOp::Read => self.stats.reads += 1,
            DramOp::Write | DramOp::PostedWrite { .. } => self.stats.writes += 1,
        }
        let burst = u64::from(words - 1) * self.params.burst_word_cycles;
        let access_end = start + first + burst;
        let channel_occ = u64::from(words) * self.params.channel_word_cycles;
        let end = access_end.max(self.channel_free_at + channel_occ);
        self.channel_free_at = end;
        bank.free_at = end;
        bank.open_row = if affinity { Some(row) } else { None };
        Span { start, end }
    }

    /// The earliest time a new access to `addr` could start.
    pub fn free_at(&self, addr: u64) -> Cycle {
        self.bank_state[self.bank_of(addr)].free_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(banks: u32) -> DramParams {
        DramParams {
            banks,
            interleave_bytes: 32,
            row_bytes: 2048,
            read_hit_cycles: 4,
            read_miss_cycles: 22,
            write_hit_cycles: 3,
            write_miss_cycles: 22,
            posted_write_miss_cycles: 14,
            burst_word_cycles: 1,
            channel_word_cycles: 1,
            demand_latency_cycles: 10,
            write_row_affinity: true,
            read_row_affinity: true,
            turnaround_cycles: 0,
        }
    }

    #[test]
    fn row_hit_is_faster_than_miss() {
        let mut d = Dram::new(params(1));
        let miss = d.access(0, 0, 1, DramOp::Read);
        let hit = d.access(miss.end, 8, 1, DramOp::Read);
        assert_eq!(miss.end - miss.start, 22);
        assert_eq!(hit.end - hit.start, 4);
        assert_eq!(d.stats().row_hits, 1);
        assert_eq!(d.stats().row_misses, 1);
    }

    #[test]
    fn burst_words_are_cheap() {
        let mut d = Dram::new(params(1));
        let s = d.access(0, 0, 4, DramOp::Read);
        assert_eq!(s.end - s.start, 22 + 3);
    }

    #[test]
    fn bank_interleaving_overlaps_misses() {
        // Same-bank conflicting accesses serialize...
        let mut one = Dram::new(params(1));
        one.access(0, 0, 1, DramOp::Read);
        let serial = one.access(0, 4096, 1, DramOp::Read).end;
        // ...but with 4 banks, addresses 32 apart land in different banks
        // and only serialize on the channel.
        let mut four = Dram::new(params(4));
        four.access(0, 0, 1, DramOp::Read);
        let overlapped = four.access(0, 32, 1, DramOp::Read).end;
        assert!(overlapped < serial, "{overlapped} !< {serial}");
    }

    #[test]
    fn posted_regular_writes_are_pipelined() {
        let mut d = Dram::new(params(1));
        let irregular = d.access(0, 1 << 20, 1, DramOp::PostedWrite { regular: false });
        assert_eq!(irregular.end - irregular.start, 22);
        let regular = d.access(
            irregular.end,
            2 << 20,
            1,
            DramOp::PostedWrite { regular: true },
        );
        assert_eq!(regular.end - regular.start, 14);
        assert_eq!(d.stats().posted_pipelined, 1);
    }

    #[test]
    fn channel_serializes_across_banks() {
        let mut d = Dram::new(DramParams {
            channel_word_cycles: 10,
            ..params(4)
        });
        let a = d.access(0, 0, 4, DramOp::Read);
        let b = d.access(0, 32, 4, DramOp::Read);
        // Both transfers need 40 channel cycles; the second cannot end
        // before 80 channel cycles have elapsed.
        assert!(b.end >= a.end + 40);
    }

    #[test]
    fn busy_bank_delays_start() {
        let mut d = Dram::new(params(1));
        let first = d.access(0, 0, 4, DramOp::Read);
        let second = d.access(1, 8192, 1, DramOp::Read);
        assert_eq!(second.start, first.end);
    }

    #[test]
    #[should_panic(expected = "at least one bank")]
    fn zero_banks_rejected() {
        let _ = Dram::new(DramParams {
            banks: 0,
            ..params(1)
        });
    }
}
