//! Write buffer ("write-back queue", WBQ).
//!
//! The DEC Alpha on the T3D node posts stores into a small write-back queue
//! that merges stores to the same line and drains to DRAM in the background.
//! This is why strided *stores* outperform strided *loads* on the T3D: the
//! processor never waits for the DRAM row miss, and the queue presents the
//! memory controller with a predictable address stream it can pipeline.

use std::collections::VecDeque;

use crate::mem::WORD_BYTES;

/// Write-buffer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WbqParams {
    /// Number of entries (lines or single words, depending on `merge`).
    pub entries: usize,
    /// Whether stores to the same line merge into one entry.
    pub merge: bool,
}

/// One drained item: a line-base address, how many words of it are pending,
/// and whether the drain stream has been address-regular (constant stride),
/// enabling posted-write pipelining in the memory controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainItem {
    /// Line-base byte address.
    pub line_base: u64,
    /// Number of distinct pending words in the line.
    pub words: u32,
    /// Whether this drain continues a constant-stride address stream.
    pub regular: bool,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    line_base: u64,
    mask: u64,
}

/// Counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WbqStats {
    /// Stores accepted into a fresh entry.
    pub queued: u64,
    /// Stores merged into an existing entry.
    pub merged: u64,
    /// Pushes rejected because the queue was full (drain stalls).
    pub full_stalls: u64,
}

/// The write buffer.
#[derive(Debug, Clone)]
pub struct Wbq {
    params: WbqParams,
    line_bytes: u64,
    entries: VecDeque<Entry>,
    last_drained: Option<u64>,
    last_delta: Option<i64>,
    stats: WbqStats,
}

impl Wbq {
    /// Creates a write buffer that merges stores into lines of
    /// `line_bytes` (the cache line).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or the line size is not a multiple of the
    /// word size.
    pub fn new(params: WbqParams, line_bytes: u64) -> Self {
        assert!(params.entries >= 1, "write buffer needs at least one entry");
        assert!(
            line_bytes >= WORD_BYTES && line_bytes.is_multiple_of(WORD_BYTES),
            "line size must be a positive multiple of the word size"
        );
        assert!(
            line_bytes / WORD_BYTES <= 64,
            "line mask limited to 64 words"
        );
        Wbq {
            params,
            line_bytes,
            entries: VecDeque::with_capacity(params.entries),
            last_drained: None,
            last_delta: None,
            stats: WbqStats::default(),
        }
    }

    /// Configuration.
    pub fn params(&self) -> &WbqParams {
        &self.params
    }

    /// Counters.
    pub fn stats(&self) -> WbqStats {
        self.stats
    }

    /// Number of occupied entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether the queue is full (the next non-merging push would stall).
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.params.entries
    }

    fn line_base(&self, addr: u64) -> u64 {
        addr & !(self.line_bytes - 1)
    }

    /// Attempts to post a store of the word at `addr`. Returns `true` if the
    /// store was absorbed (queued or merged); `false` if the queue is full
    /// and must be drained first (the caller records the stall and calls
    /// [`pop`](Self::pop)).
    pub fn push(&mut self, addr: u64) -> bool {
        let base = self.line_base(addr);
        let bit = 1u64 << ((addr - base) / WORD_BYTES);
        if self.params.merge {
            if let Some(e) = self.entries.iter_mut().find(|e| e.line_base == base) {
                e.mask |= bit;
                self.stats.merged += 1;
                return true;
            }
        }
        if self.is_full() {
            self.stats.full_stalls += 1;
            return false;
        }
        self.entries.push_back(Entry {
            line_base: base,
            mask: bit,
        });
        self.stats.queued += 1;
        true
    }

    /// Line-base address of the oldest entry (the next to drain).
    pub fn front_line(&self) -> Option<u64> {
        self.entries.front().map(|e| e.line_base)
    }

    /// Drains the oldest entry, reporting whether the drain stream remains
    /// address-regular.
    pub fn pop(&mut self) -> Option<DrainItem> {
        let e = self.entries.pop_front()?;
        let delta = self
            .last_drained
            .map(|prev| e.line_base as i64 - prev as i64);
        let regular = matches!((delta, self.last_delta), (Some(d), Some(p)) if d == p);
        self.last_delta = delta;
        self.last_drained = Some(e.line_base);
        Some(DrainItem {
            line_base: e.line_base,
            words: e.mask.count_ones(),
            regular,
        })
    }

    /// Whether any pending entry overlaps the line containing `addr` — a
    /// load of that line must wait for the drain (store-to-load ordering).
    pub fn overlaps(&self, addr: u64) -> bool {
        let base = self.line_base(addr);
        self.entries.iter().any(|e| e.line_base == base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wbq(entries: usize, merge: bool) -> Wbq {
        Wbq::new(WbqParams { entries, merge }, 32)
    }

    #[test]
    fn contiguous_stores_merge_into_lines() {
        let mut q = wbq(4, true);
        for a in (0..32).step_by(8) {
            assert!(q.push(a));
        }
        assert_eq!(q.len(), 1);
        let d = q.pop().unwrap();
        assert_eq!(d.words, 4);
        assert_eq!(d.line_base, 0);
        assert_eq!(q.stats().merged, 3);
    }

    #[test]
    fn full_queue_rejects() {
        let mut q = wbq(2, true);
        assert!(q.push(0));
        assert!(q.push(64));
        assert!(!q.push(128));
        assert_eq!(q.stats().full_stalls, 1);
        q.pop();
        assert!(q.push(128));
    }

    #[test]
    fn regularity_needs_two_equal_deltas() {
        let mut q = wbq(8, true);
        for a in [0u64, 512, 1024, 1536] {
            q.push(a);
        }
        let r: Vec<bool> = std::iter::from_fn(|| q.pop().map(|d| d.regular)).collect();
        // First drain has no history, second has one delta, third and fourth
        // continue the stride.
        assert_eq!(r, vec![false, false, true, true]);
    }

    #[test]
    fn irregular_stream_is_not_pipelined() {
        let mut q = wbq(8, true);
        for a in [0u64, 512, 96, 4096] {
            q.push(a);
        }
        let r: Vec<bool> = std::iter::from_fn(|| q.pop().map(|d| d.regular)).collect();
        assert!(!r.iter().any(|&x| x));
    }

    #[test]
    fn no_merge_mode_queues_each_word() {
        let mut q = wbq(8, false);
        q.push(0);
        q.push(8);
        assert_eq!(q.len(), 2);
        assert_eq!(q.pop().unwrap().words, 1);
    }

    #[test]
    fn overlap_detection() {
        let mut q = wbq(4, true);
        q.push(40); // line 32..64
        assert!(q.overlaps(32));
        assert!(q.overlaps(56));
        assert!(!q.overlaps(64));
    }

    #[test]
    fn duplicate_word_store_stays_one_word() {
        let mut q = wbq(4, true);
        q.push(8);
        q.push(8);
        assert_eq!(q.pop().unwrap().words, 1);
    }
}
