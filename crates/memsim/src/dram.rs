//! Closed-page DRAM with per-bank busy times and a shared data channel.
//!
//! The T3D node has "a simple non-interleaved memory system built from DRAM
//! chips" — one bank, so every access serializes. The Paragon spreads
//! lines over interleaved banks on its 400 MB/s bus, so independent accesses
//! to different banks overlap their access latencies. This difference is
//! what makes indexed gathers comparatively fast on the Paragon and slow on
//! the T3D.
//!
//! Both controllers precharge after every access (closed page): each access
//! opens its row and pays the full cost of its class, and the burst of a
//! multi-word access is the only locality the timing rewards. Tables 1–3
//! match only under that policy (DESIGN.md §8.1).

use crate::clock::Cycle;

/// Timing and geometry parameters of the DRAM system.
#[derive(Debug, Clone, Copy, PartialEq, Hash)]
pub struct DramParams {
    /// Number of interleaved banks (1 on the T3D).
    pub banks: u32,
    /// Bank interleave granularity in bytes (typically the cache line); a
    /// power of two.
    pub interleave_bytes: u64,
    /// Cycles for the first word of a read (precharge + activate + access).
    pub read_miss_cycles: Cycle,
    /// Cycles for the first word of a write.
    pub write_miss_cycles: Cycle,
    /// Cycles for a *posted* write whose address the controller could
    /// predict (a constant-stride stream drained from the write buffer):
    /// precharge overlaps the previous transfer.
    pub posted_write_miss_cycles: Cycle,
    /// Cycles per additional word of a burst.
    pub burst_word_cycles: Cycle,
    /// Data-channel occupancy per word, shared across banks.
    pub channel_word_cycles: Cycle,
    /// Extra latency (controller + board) a *demand* read pays between the
    /// access completing at the DRAM and the data reaching the requester.
    /// Occupies no resource — prefetching (read-ahead) and pipelined loads
    /// hide it, which is exactly their benefit.
    pub demand_latency_cycles: Cycle,
    /// Bus turnaround cycles charged when an access switches direction
    /// (read after write or write after read) on the shared memory bus.
    pub turnaround_cycles: Cycle,
}

impl DramParams {
    fn validate(&self) {
        assert!(self.banks >= 1, "need at least one bank");
        assert!(
            self.interleave_bytes.is_power_of_two(),
            "interleave must be a power of two"
        );
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
    /// Accesses that hit an open row: always 0 under the closed-page
    /// policy, kept so row-hit ratios stay readable.
    pub row_hits: u64,
    /// Accesses that had to open a row: every access.
    pub row_misses: u64,
}

/// The DRAM system: banks plus a shared data channel.
#[derive(Debug, Clone)]
pub struct Dram {
    params: DramParams,
    bank_free_at: Vec<Cycle>,
    channel_free_at: Cycle,
    last_was_write: Option<bool>,
    stats: DramStats,
}

impl Dram {
    /// Creates a DRAM system.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent parameters (zero banks, an interleave that is
    /// not a power of two, a posted write slower than a plain one, …).
    pub fn new(params: DramParams) -> Self {
        params.validate();
        Dram {
            params,
            bank_free_at: vec![0; params.banks as usize],
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
        let unit = addr >> self.params.interleave_bytes.trailing_zeros();
        let banks = u64::from(self.params.banks);
        let bank = if banks.is_power_of_two() {
            unit & (banks - 1)
        } else {
            unit % banks
        };
        bank as usize
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
        let is_write = !matches!(op, DramOp::Read);
        let turnaround = match self.last_was_write {
            Some(last) if last != is_write => self.params.turnaround_cycles,
            _ => 0,
        };
        self.last_was_write = Some(is_write);
        let start = at.max(self.bank_free_at[b]) + turnaround;
        self.stats.row_misses += 1;
        let first = match op {
            DramOp::Read => self.params.read_miss_cycles,
            DramOp::Write | DramOp::PostedWrite { regular: false } => self.params.write_miss_cycles,
            DramOp::PostedWrite { regular: true } => self.params.posted_write_miss_cycles,
        };
        let burst = u64::from(words - 1) * self.params.burst_word_cycles;
        let access_end = start + first + burst;
        let channel_occ = u64::from(words) * self.params.channel_word_cycles;
        let end = access_end.max(self.channel_free_at + channel_occ);
        self.channel_free_at = end;
        self.bank_free_at[b] = end;
        Span { start, end }
    }

    /// The earliest time a new access to `addr` could start.
    pub fn free_at(&self, addr: u64) -> Cycle {
        self.bank_free_at[self.bank_of(addr)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(banks: u32) -> DramParams {
        DramParams {
            banks,
            interleave_bytes: 32,
            read_miss_cycles: 22,
            write_miss_cycles: 22,
            posted_write_miss_cycles: 14,
            burst_word_cycles: 1,
            channel_word_cycles: 1,
            demand_latency_cycles: 10,
            turnaround_cycles: 0,
        }
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

    #[test]
    #[should_panic(expected = "interleave must be a power of two")]
    fn interleave_that_is_no_power_of_two_rejected() {
        let _ = Dram::new(DramParams {
            interleave_bytes: 48,
            ..params(1)
        });
    }
}
