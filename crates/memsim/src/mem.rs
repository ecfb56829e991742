//! Node memory: the data store behind the timing models.
//!
//! Timing components (cache, DRAM) model *when* accesses complete; the
//! [`Memory`] stores *what* they move, so that every simulated communication
//! operation can be checked for functional correctness (did the transpose
//! actually transpose?).
//!
//! Timing reads only addresses, so the data store keeps only what data
//! needs. Each region holds one word per element of the walk it was
//! allocated for: a stride-`s` walk of `n` elements spans `n × s` words of
//! address space but stores `n`. A region fills in on its first write, so
//! an index region, which only the timing model reads, never does. The
//! rare write outside every element set (a guard gap, a word between
//! strided elements) lands in a small side map. Any aligned address below
//! capacity reads back its last write, or 0.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::error::{SimError, SimResult};
use crate::walk::Walk;
use memcomm_model::AccessPattern;

/// Size of a 64-bit word in bytes.
pub const WORD_BYTES: u64 = 8;

/// A region of node memory, returned by [`Memory::alloc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// First byte address of the region.
    pub base: u64,
    /// Length in 64-bit words.
    pub words: u64,
}

impl Region {
    /// Byte address of the `i`-th word.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn addr(&self, i: u64) -> u64 {
        assert!(
            i < self.words,
            "word {i} outside region of {} words",
            self.words
        );
        self.base + i * WORD_BYTES
    }

    /// One past the last byte address.
    pub fn end(&self) -> u64 {
        self.base + self.words * WORD_BYTES
    }
}

/// One region's data: a word per element, the elements `spacing` bytes
/// apart from `base`. Empty until the region's first write.
#[derive(Debug, Clone)]
struct Store {
    base: u64,
    /// Bytes the region spans: elements × spacing.
    span: u64,
    /// Element spacing in bytes (8 × stride).
    spacing: u64,
    /// `log2(spacing)` when the spacing is a power of two, so the common
    /// element lookups shift and mask instead of dividing.
    shift: Option<u32>,
    data: Vec<u64>,
}

impl Store {
    /// Whether `addr` lies inside the region's span.
    #[inline]
    fn holds(&self, addr: u64) -> bool {
        addr.wrapping_sub(self.base) < self.span
    }

    /// The element at byte address `addr` (inside the span), or `None` for
    /// an address between elements.
    #[inline]
    fn element(&self, addr: u64) -> Option<usize> {
        let offset = addr - self.base;
        let (i, gap) = match self.shift {
            Some(shift) => (offset >> shift, offset & (self.spacing - 1)),
            None => (offset / self.spacing, offset % self.spacing),
        };
        (gap == 0).then_some(i as usize)
    }

    /// The region's first write: its elements come into being, all 0.
    #[cold]
    fn fill_in(&mut self, i: usize, value: u64) {
        self.data = vec![0; (self.span / self.spacing) as usize];
        self.data[i] = value;
    }
}

#[inline]
fn assert_aligned(addr: u64) {
    assert!(
        addr.is_multiple_of(WORD_BYTES),
        "unaligned word access at {addr:#x}"
    );
}

/// The store an access last hit. Relaxed atomics cost a plain load and
/// store, and keep [`Memory::read`] `&self` without making `Memory` `!Sync`.
#[derive(Debug, Default)]
struct Hint(AtomicUsize);

impl Clone for Hint {
    fn clone(&self) -> Self {
        Hint(AtomicUsize::new(self.0.load(Ordering::Relaxed)))
    }
}

/// Word-addressed node memory with a bump allocator.
///
/// Addresses are byte addresses; all accesses are 8-byte aligned (the
/// model's unit of transfer is the 64-bit word).
#[derive(Debug, Clone)]
pub struct Memory {
    capacity_bytes: u64,
    next_free: u64,
    align_bytes: u64,
    alloc_count: u64,
    /// One store per non-empty region, in address order (the bump
    /// allocator only moves up).
    stores: Vec<Store>,
    /// Last-hit stores: a copy loop reads one region and writes another.
    last_read: Hint,
    last_write: usize,
    /// Words written outside every store's element set.
    strays: BTreeMap<u64, u64>,
}

impl Memory {
    /// Creates a memory of `capacity_words` 64-bit words, with allocations
    /// aligned to `align_bytes` (typically the DRAM row size, so that
    /// regions start row- and line-aligned as `malloc` on the real machines
    /// arranged for large arrays).
    ///
    /// # Panics
    ///
    /// Panics if the alignment is zero or not a multiple of the word size.
    pub fn new(capacity_words: u64, align_bytes: u64) -> Self {
        assert!(
            align_bytes >= WORD_BYTES && align_bytes.is_multiple_of(WORD_BYTES),
            "alignment must be a positive multiple of 8 bytes"
        );
        Memory {
            capacity_bytes: capacity_words.saturating_mul(WORD_BYTES),
            next_free: 0,
            align_bytes,
            alloc_count: 0,
            stores: Vec::new(),
            last_read: Hint::default(),
            last_write: 0,
            strays: BTreeMap::new(),
        }
    }

    /// Allocates a region of `words` 64-bit words.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfMemory`] when the memory cannot hold the
    /// region — the experiment sized the node memory too small, which should
    /// fail the point, not the sweep. A size whose byte count overflows
    /// `u64` reports `need_bytes: u64::MAX`.
    pub fn alloc(&mut self, words: u64) -> SimResult<Region> {
        self.place(words, 1)
    }

    /// Places a region of `elements` elements `stride` words apart, and
    /// gives it a store of one word per element.
    fn place(&mut self, elements: u64, stride: u64) -> SimResult<Region> {
        // A deterministic pseudo-random guard gap of 1–4 alignment units
        // between allocations keeps same-sized arrays from systematically
        // landing a cache-size apart (which would make every set of a
        // direct-mapped cache ping-pong between them). Real allocators
        // stagger large arrays similarly; the jitter is a pure function of
        // the allocation sequence, so layouts stay reproducible.
        let mut h = self.alloc_count.wrapping_add(0x9E37_79B9_7F4A_7C15);
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 27;
        let jitter = 1 + h % 4;
        self.alloc_count += 1;
        let spacing = stride * WORD_BYTES;
        let span = elements.checked_mul(spacing);
        let base = jitter
            .checked_mul(self.align_bytes)
            .and_then(|gap| gap.checked_add(self.next_free))
            .and_then(|b| b.checked_next_multiple_of(self.align_bytes));
        let end = base.zip(span).and_then(|(b, s)| b.checked_add(s));
        let (Some(base), Some(span), Some(end)) = (base, span, end) else {
            return Err(self.out_of_memory(u64::MAX));
        };
        if end > self.capacity_bytes {
            return Err(self.out_of_memory(end));
        }
        self.next_free = end;
        if span > 0 {
            self.stores.push(Store {
                base,
                span,
                spacing,
                shift: spacing.is_power_of_two().then(|| spacing.trailing_zeros()),
                data: Vec::new(),
            });
            // Words written here before the region existed keep their
            // values: those on the element grid move into the new store.
            let early: Vec<(u64, u64)> = self
                .strays
                .range(base..end)
                .map(|(&a, &v)| (a, v))
                .collect();
            for (addr, value) in early {
                self.strays.remove(&addr);
                self.write(addr, value);
            }
        }
        Ok(Region {
            base,
            words: span / WORD_BYTES,
        })
    }

    fn out_of_memory(&self, need_bytes: u64) -> SimError {
        SimError::OutOfMemory {
            need_bytes,
            have_bytes: self.capacity_bytes,
        }
    }

    /// Reads the word at a byte address.
    ///
    /// # Panics
    ///
    /// Panics on unaligned or out-of-range addresses.
    #[inline]
    pub fn read(&self, addr: u64) -> u64 {
        assert_aligned(addr);
        let hint = self.last_read.0.load(Ordering::Relaxed);
        let store = match self.stores.get(hint) {
            Some(store) if store.holds(addr) => store,
            _ => match self.find(addr) {
                Some(s) => {
                    self.last_read.0.store(s, Ordering::Relaxed);
                    &self.stores[s]
                }
                None => return self.read_stray(addr),
            },
        };
        match store.element(addr) {
            Some(i) => store.data.get(i).copied().unwrap_or(0),
            None => self.read_stray(addr),
        }
    }

    /// Writes the word at a byte address.
    ///
    /// # Panics
    ///
    /// Panics on unaligned or out-of-range addresses.
    #[inline]
    pub fn write(&mut self, addr: u64, value: u64) {
        assert_aligned(addr);
        if !self
            .stores
            .get(self.last_write)
            .is_some_and(|store| store.holds(addr))
        {
            match self.find(addr) {
                Some(s) => self.last_write = s,
                None => return self.write_stray(addr, value),
            }
        }
        let store = &mut self.stores[self.last_write];
        match store.element(addr) {
            Some(i) => match store.data.get_mut(i) {
                Some(word) => *word = value,
                None => store.fill_in(i, value),
            },
            None => self.write_stray(addr, value),
        }
    }

    /// The store whose span holds `addr`.
    #[cold]
    fn find(&self, addr: u64) -> Option<usize> {
        let s = self
            .stores
            .partition_point(|s| s.base <= addr)
            .checked_sub(1)?;
        self.stores[s].holds(addr).then_some(s)
    }

    #[cold]
    fn read_stray(&self, addr: u64) -> u64 {
        self.assert_inside(addr);
        self.strays.get(&addr).copied().unwrap_or(0)
    }

    #[cold]
    fn write_stray(&mut self, addr: u64, value: u64) {
        self.assert_inside(addr);
        self.strays.insert(addr, value);
    }

    /// Every store lies below capacity, so only a stray access can be out
    /// of range.
    fn assert_inside(&self, addr: u64) {
        assert!(
            addr < self.capacity_bytes,
            "address {addr:#x} outside node memory"
        );
    }

    /// Fills a region's words from an iterator (for seeding test data).
    pub fn fill<I: IntoIterator<Item = u64>>(&mut self, region: Region, values: I) {
        let mut n = 0;
        for (i, v) in values.into_iter().take(region.words as usize).enumerate() {
            self.write(region.addr(i as u64), v);
            n = i + 1;
        }
        debug_assert!(n as u64 <= region.words);
    }

    /// Reads a whole region into a vector (for asserting test results).
    pub fn dump(&self, region: Region) -> Vec<u64> {
        (0..region.words)
            .map(|i| self.read(region.addr(i)))
            .collect()
    }

    /// Convenience: allocates a region together with an access-pattern walk
    /// over it.
    ///
    /// For strided patterns the region is sized `words × stride` so that
    /// every strided element has a distinct home (its store still holds
    /// only the `words` elements); for indexed patterns the caller supplies
    /// the index array (values must be `< words`).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidWalk`] for a fixed-port pattern or a
    /// mismatched index array, and [`SimError::OutOfMemory`] when the region
    /// does not fit.
    pub fn alloc_walk(
        &mut self,
        pattern: AccessPattern,
        words: u64,
        index: Option<Vec<u32>>,
    ) -> SimResult<Walk> {
        let stride = match pattern {
            AccessPattern::Contiguous => 1,
            AccessPattern::Strided(s) => u64::from(s),
            AccessPattern::Indexed => {
                let entries = index.as_ref().map_or(0, |ix| ix.len() as u64);
                let (region, index_region) = self.alloc_indexed(words, entries)?;
                return Ok(
                    Walk::new(pattern, region, words, index)?.with_index_region(index_region)
                );
            }
            AccessPattern::Fixed => {
                return Err(SimError::InvalidWalk {
                    detail: "cannot allocate a walk over a fixed port".to_string(),
                });
            }
        };
        Walk::new(pattern, self.place(words, stride)?, words, index)
    }

    /// Places an indexed walk: its data region of `words` words, then the
    /// region its `entries` 32-bit index entries pack into, two per word.
    /// Every indexed walk is laid out here, so a caller that builds its
    /// index only after placing (a permutation of billions of entries)
    /// learns first whether the node can hold the walk.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::OutOfMemory`] when either region does not fit.
    pub fn alloc_indexed(&mut self, words: u64, entries: u64) -> SimResult<(Region, Region)> {
        let region = self.alloc(words)?;
        Ok((region, self.alloc(entries.div_ceil(2))?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_is_aligned_and_disjoint() {
        let mut m = Memory::new(4096, 2048);
        let a = m.alloc(10).unwrap();
        let b = m.alloc(10).unwrap();
        assert_eq!(a.base % 2048, 0);
        assert_eq!(b.base % 2048, 0);
        assert!(b.base >= a.end());
    }

    #[test]
    fn read_write_round_trip() {
        let mut m = Memory::new(64, 8);
        let r = m.alloc(4).unwrap();
        m.write(r.addr(2), 0xdead_beef);
        assert_eq!(m.read(r.addr(2)), 0xdead_beef);
        assert_eq!(m.read(r.addr(0)), 0);
    }

    #[test]
    #[should_panic(expected = "unaligned")]
    fn unaligned_access_panics() {
        let m = Memory::new(8, 8);
        let _ = m.read(4);
    }

    #[test]
    fn exhaustion_reports_out_of_memory() {
        let mut m = Memory::new(8, 8);
        match m.alloc(9) {
            Err(SimError::OutOfMemory { have_bytes, .. }) => assert_eq!(have_bytes, 64),
            other => panic!("expected OutOfMemory, got {other:?}"),
        }
    }

    #[test]
    fn fill_and_dump() {
        let mut m = Memory::new(64, 8);
        let r = m.alloc(4).unwrap();
        m.fill(r, [1, 2, 3, 4]);
        assert_eq!(m.dump(r), vec![1, 2, 3, 4]);
    }

    #[test]
    fn alloc_walk_sizes_strided_span() {
        let mut m = Memory::new(1024, 8);
        let w = m.alloc_walk(AccessPattern::Strided(4), 16, None).unwrap();
        assert_eq!(w.region().words, 64);
        assert_eq!(w.len(), 16);
    }

    #[test]
    fn sizes_that_overflow_are_out_of_memory() {
        // A 48 MB node, as on the T3D. Each size's byte count wraps `u64`.
        let mut m = Memory::new(6 << 20, 256);
        let have_bytes = 48 << 20;
        let wrapped = SimError::OutOfMemory {
            need_bytes: u64::MAX,
            have_bytes,
        };
        assert_eq!(m.alloc(u64::MAX / 4), Err(wrapped.clone()));
        assert_eq!(m.alloc(u64::MAX), Err(wrapped.clone()));
        for pattern in [
            AccessPattern::Contiguous,
            AccessPattern::Strided(64),
            AccessPattern::Indexed,
        ] {
            let index = (pattern == AccessPattern::Indexed).then(Vec::new);
            assert_eq!(
                m.alloc_walk(pattern, 1 << 61, index).map(|w| w.region()),
                Err(wrapped.clone()),
                "{pattern:?}"
            );
        }
        // 2^60 words is 2^63 bytes: no wrap, just too big.
        match m.alloc(1 << 60) {
            Err(SimError::OutOfMemory { need_bytes, .. }) => {
                assert!(
                    need_bytes > 1 << 63 && need_bytes < u64::MAX,
                    "{need_bytes}"
                );
            }
            other => panic!("expected OutOfMemory, got {other:?}"),
        }
        // Failed allocations leave the memory usable.
        let r = m.alloc(16).unwrap();
        m.write(r.addr(15), 7);
        assert_eq!(m.read(r.addr(15)), 7);
    }

    /// Words the stores and the side map hold.
    fn stored_words(m: &Memory) -> usize {
        m.stores.iter().map(|s| s.data.len()).sum::<usize>() + m.strays.len()
    }

    #[test]
    fn regions_store_only_their_elements() {
        let mut m = Memory::new(6 << 20, 256);
        let strided = m
            .alloc_walk(AccessPattern::Strided(64), 8192, None)
            .unwrap();
        assert_eq!(strided.region().words, 8192 * 64);
        assert_eq!(stored_words(&m), 0, "nothing written yet");
        for i in 0..strided.len() {
            m.write(strided.addr(i), i + 1);
        }
        assert_eq!(stored_words(&m), 8192);
        assert!((0..strided.len()).all(|i| m.read(strided.addr(i)) == i + 1));

        // The index array lives in the walk; its region is only timed.
        let index: Vec<u32> = (0..1024).rev().collect();
        let indexed = m
            .alloc_walk(AccessPattern::Indexed, 1024, Some(index))
            .unwrap();
        let before = stored_words(&m);
        for i in 0..indexed.len() {
            m.write(indexed.addr(i), i);
        }
        assert_eq!(
            stored_words(&m) - before,
            1024,
            "the index region stores nothing"
        );
        let index_region = Region {
            base: indexed.index_addr(0).unwrap(),
            words: 512,
        };
        assert!(m.dump(index_region).iter().all(|&w| w == 0));
    }

    #[test]
    fn alloc_walk_rejects_fixed_port() {
        let mut m = Memory::new(64, 8);
        assert!(matches!(
            m.alloc_walk(AccessPattern::Fixed, 4, None),
            Err(SimError::InvalidWalk { .. })
        ));
    }
}
