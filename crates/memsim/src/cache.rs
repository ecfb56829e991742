//! On-chip cache model (tags only).
//!
//! The cache decides hit/miss timing; the data itself lives in
//! [`Memory`](crate::mem::Memory). Massively parallel nodes of the period
//! have a single cache level: the T3D's 8 KB direct-mapped on-chip cache
//! (write-around stores) and the Paragon's 16 KB 4-way cache (write-through
//! under SUNMOS). Both post every store to the write buffer and allocate
//! only on load misses, so a line is never dirty and an eviction never
//! writes back.

use crate::clock::Cycle;

/// Geometry of the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheParams {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Associativity (1 = direct mapped).
    pub ways: u32,
    /// Load-hit latency in cycles (pipelined).
    pub hit_cycles: Cycle,
}

/// Result of a load lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadOutcome {
    /// The line was present.
    Hit,
    /// The line was allocated and must be filled from memory.
    Miss,
}

/// Hit/miss counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Load lookups that hit.
    pub load_hits: u64,
    /// Load lookups that missed.
    pub load_misses: u64,
    /// Store lookups that hit.
    pub store_hits: u64,
    /// Store lookups that missed.
    pub store_misses: u64,
}

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    valid: bool,
    lru: u64,
}

/// The cache.
#[derive(Debug, Clone)]
pub struct Cache {
    params: CacheParams,
    /// Every set's `ways` lines, set after set.
    lines: Vec<Line>,
    /// `sets - 1`.
    set_mask: u64,
    tick: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates a cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (size not divisible into
    /// `ways` × power-of-two sets of `line_bytes`).
    pub fn new(params: CacheParams) -> Self {
        assert!(
            params.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(params.ways >= 1);
        let lines = params.size_bytes / params.line_bytes;
        assert!(
            lines.is_multiple_of(u64::from(params.ways)) && lines > 0,
            "cache of {} bytes cannot hold {}-way sets of {}-byte lines",
            params.size_bytes,
            params.ways,
            params.line_bytes
        );
        let set_count = (lines / u64::from(params.ways)) as usize;
        assert!(
            set_count.is_power_of_two(),
            "set count must be a power of two"
        );
        Cache {
            params,
            lines: vec![
                Line {
                    tag: 0,
                    valid: false,
                    lru: 0
                };
                lines as usize
            ],
            set_mask: set_count as u64 - 1,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configured parameters.
    pub fn params(&self) -> &CacheParams {
        &self.params
    }

    /// Counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Line-base address of `addr`.
    pub fn line_base(&self, addr: u64) -> u64 {
        addr & !(self.params.line_bytes - 1)
    }

    /// The index in `lines` of the first line of `addr`'s set, and the
    /// tag `addr` carries.
    fn set_and_tag(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.params.line_bytes.trailing_zeros();
        let first = (line & self.set_mask) as usize * self.params.ways as usize;
        (first, line)
    }

    /// The index in `lines` of the valid line tagged `tag` in the set that
    /// starts at `first`.
    fn find(&self, first: usize, tag: u64) -> Option<usize> {
        let set = &self.lines[first..first + self.params.ways as usize];
        let way = set.iter().position(|l| l.valid && l.tag == tag);
        way.map(|way| first + way)
    }

    fn touch(&mut self, line: usize) {
        self.tick += 1;
        self.lines[line].lru = self.tick;
    }

    /// The index in `lines` of the line a miss in the set that starts at
    /// `first` replaces: an invalid line, else the least recently used.
    fn victim(&self, first: usize) -> usize {
        let set = &self.lines[first..first + self.params.ways as usize];
        let way = set
            .iter()
            .enumerate()
            .min_by_key(|(_, l)| if l.valid { l.lru + 1 } else { 0 })
            .map(|(i, _)| i)
            .expect("sets are never empty");
        first + way
    }

    /// Looks up a load, updating tags (a miss allocates the line).
    pub fn load(&mut self, addr: u64) -> LoadOutcome {
        let (first, tag) = self.set_and_tag(addr);
        if let Some(line) = self.find(first, tag) {
            self.stats.load_hits += 1;
            self.touch(line);
            LoadOutcome::Hit
        } else {
            self.stats.load_misses += 1;
            let line = self.victim(first);
            self.tick += 1;
            self.lines[line] = Line {
                tag,
                valid: true,
                lru: self.tick,
            };
            LoadOutcome::Miss
        }
    }

    /// Looks up a store and returns whether it hit. A hit refreshes the
    /// line's recency; a miss allocates nothing (the word goes to the write
    /// buffer either way).
    pub fn store(&mut self, addr: u64) -> bool {
        let (first, tag) = self.set_and_tag(addr);
        if let Some(line) = self.find(first, tag) {
            self.stats.store_hits += 1;
            self.touch(line);
            true
        } else {
            self.stats.store_misses += 1;
            false
        }
    }

    /// Invalidates the line containing `addr` (the T3D annex invalidates
    /// line by line as remote stores land).
    pub fn invalidate_line(&mut self, addr: u64) {
        let (first, tag) = self.set_and_tag(addr);
        if let Some(line) = self.find(first, tag) {
            self.lines[line].valid = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn direct_mapped() -> Cache {
        Cache::new(CacheParams {
            size_bytes: 1024,
            line_bytes: 32,
            ways: 1,
            hit_cycles: 1,
        })
    }

    #[test]
    fn load_miss_then_hit_within_line() {
        let mut c = direct_mapped();
        assert!(matches!(c.load(0), LoadOutcome::Miss));
        assert_eq!(c.load(8), LoadOutcome::Hit);
        assert_eq!(c.load(24), LoadOutcome::Hit);
        assert!(matches!(c.load(32), LoadOutcome::Miss));
        assert_eq!(c.stats().load_hits, 2);
        assert_eq!(c.stats().load_misses, 2);
    }

    #[test]
    fn direct_mapped_conflict() {
        let mut c = direct_mapped();
        // 1024-byte direct-mapped: addresses 1024 apart conflict.
        c.load(0);
        c.load(1024);
        assert!(matches!(c.load(0), LoadOutcome::Miss));
    }

    #[test]
    fn set_associative_avoids_conflict() {
        let mut c = Cache::new(CacheParams {
            size_bytes: 2048,
            line_bytes: 32,
            ways: 2,
            hit_cycles: 1,
        });
        c.load(0);
        c.load(1024); // same set, second way
        assert_eq!(c.load(0), LoadOutcome::Hit);
        assert_eq!(c.load(1024), LoadOutcome::Hit);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = Cache::new(CacheParams {
            size_bytes: 2048,
            line_bytes: 32,
            ways: 2,
            hit_cycles: 1,
        });
        c.load(0);
        c.load(1024);
        c.load(0); // refresh 0
        c.load(2048); // evicts 1024, not 0
        assert_eq!(c.load(0), LoadOutcome::Hit);
        assert!(matches!(c.load(1024), LoadOutcome::Miss));
    }

    #[test]
    fn write_around_does_not_allocate() {
        let mut c = direct_mapped();
        assert!(!c.store(0));
        assert!(matches!(c.load(0), LoadOutcome::Miss));
    }

    #[test]
    fn invalidation_forces_refetch() {
        let mut c = direct_mapped();
        c.load(64);
        c.invalidate_line(64);
        assert!(matches!(c.load(64), LoadOutcome::Miss));
    }

    #[test]
    fn line_base_masks_offset() {
        let c = direct_mapped();
        assert_eq!(c.line_base(0x1234), 0x1220);
    }
}
