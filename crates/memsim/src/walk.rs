//! Address walks: the concrete address streams behind access patterns.

use crate::error::{SimError, SimResult};
use crate::mem::{Region, WORD_BYTES};
use memcomm_model::AccessPattern;

/// A concrete address stream over a memory [`Region`] following an
/// [`AccessPattern`]: the sequence of word addresses a transfer reads or
/// writes.
///
/// For [`AccessPattern::Indexed`] walks the index array itself lives in
/// memory (see [`Walk::index_addr`]); reading it is overhead charged to the
/// transfer, exactly as the paper specifies ("reading the index is
/// considered to be part of the memory access operation").
#[derive(Debug, Clone)]
pub struct Walk {
    pattern: AccessPattern,
    region: Region,
    offset: u64,
    count: u64,
    index: Option<Vec<u32>>,
    index_region: Option<Region>,
}

impl Walk {
    /// Creates a walk of `count` elements over `region`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidWalk`] if the pattern is
    /// [`AccessPattern::Fixed`] (a port has no addresses to walk), if an
    /// indexed walk lacks an index array (or a non-indexed walk has one),
    /// if the index array is shorter than `count` or points outside the
    /// region, or if the region cannot hold the walk.
    pub fn new(
        pattern: AccessPattern,
        region: Region,
        count: u64,
        index: Option<Vec<u32>>,
    ) -> SimResult<Self> {
        let invalid = |detail: String| Err(SimError::InvalidWalk { detail });
        match pattern {
            AccessPattern::Indexed => {
                let Some(ix) = index.as_ref() else {
                    return invalid("indexed walk needs an index array".to_string());
                };
                if (ix.len() as u64) < count {
                    return invalid(format!(
                        "index array has {} entries, walk needs {count}",
                        ix.len()
                    ));
                }
                if !ix
                    .iter()
                    .take(count as usize)
                    .all(|&i| u64::from(i) < region.words)
                {
                    return invalid("index array points outside the region".to_string());
                }
            }
            AccessPattern::Contiguous => {
                if index.is_some() {
                    return invalid("contiguous walk takes no index array".to_string());
                }
                if count > region.words {
                    return invalid(format!(
                        "walk of {count} longer than region of {} words",
                        region.words
                    ));
                }
            }
            AccessPattern::Strided(s) => {
                if index.is_some() {
                    return invalid("strided walk takes no index array".to_string());
                }
                let last = count.saturating_sub(1).checked_mul(u64::from(s));
                if last.is_none_or(|last| last >= region.words) && count != 0 {
                    return invalid(format!(
                        "strided walk of {count} at stride {s} overruns region of {} words",
                        region.words
                    ));
                }
            }
            AccessPattern::Fixed => {
                return invalid("a walk cannot follow the fixed port pattern".to_string());
            }
        }
        Ok(Walk {
            pattern,
            region,
            offset: 0,
            count,
            index,
            index_region: None,
        })
    }

    /// A sub-walk covering elements `start .. start + len` of this walk
    /// (same region, same index array) — the unit of chunked pipelining in
    /// buffer-packing transfers.
    ///
    /// # Panics
    ///
    /// Panics if the range exceeds the walk.
    pub fn slice(&self, start: u64, len: u64) -> Walk {
        assert!(
            start + len <= self.count,
            "slice {start}+{len} exceeds walk of {}",
            self.count
        );
        Walk {
            pattern: self.pattern,
            region: self.region,
            offset: self.offset + start,
            count: len,
            index: self.index.clone(),
            index_region: self.index_region,
        }
    }

    /// Attaches the memory region holding the index array (for timing the
    /// index loads). Index entries are 32-bit, packed two per word.
    ///
    /// # Panics
    ///
    /// Panics if the region is too small for the index array.
    pub fn with_index_region(mut self, region: Region) -> Self {
        let entries = self.index.as_ref().map_or(0, Vec::len) as u64;
        assert!(
            region.words * 2 >= entries,
            "index region too small: {} words for {entries} packed entries",
            region.words
        );
        self.index_region = Some(region);
        self
    }

    /// The walk's access pattern.
    pub fn pattern(&self) -> AccessPattern {
        self.pattern
    }

    /// The region the walk covers.
    pub fn region(&self) -> Region {
        self.region
    }

    /// Number of elements in the walk.
    pub fn len(&self) -> u64 {
        self.count
    }

    /// Whether the walk is empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Byte address of the `i`-th element.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn addr(&self, i: u64) -> u64 {
        assert!(i < self.count, "element {i} outside walk of {}", self.count);
        let i = self.offset + i;
        let word = match self.pattern {
            AccessPattern::Contiguous => i,
            AccessPattern::Strided(s) => i * u64::from(s),
            AccessPattern::Indexed => {
                u64::from(self.index.as_ref().expect("validated in new")[i as usize])
            }
            AccessPattern::Fixed => unreachable!("rejected in new"),
        };
        self.region.base + word * WORD_BYTES
    }

    /// Byte address (word-aligned) of the index entry for element `i`, if
    /// this walk is indexed: the load the processor must issue before it can
    /// compute [`addr`](Self::addr).
    pub fn index_addr(&self, i: u64) -> Option<u64> {
        let region = self.index_region?;
        Some(region.base + ((self.offset + i) / 2) * WORD_BYTES)
    }

    /// Iterates over the element addresses.
    pub fn addrs(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.count).map(|i| self.addr(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region(words: u64) -> Region {
        Region {
            base: 0x1000,
            words,
        }
    }

    #[test]
    fn contiguous_addresses() {
        let w = Walk::new(AccessPattern::Contiguous, region(8), 4, None).unwrap();
        assert_eq!(
            w.addrs().collect::<Vec<_>>(),
            vec![0x1000, 0x1008, 0x1010, 0x1018]
        );
    }

    #[test]
    fn strided_addresses() {
        let w = Walk::new(AccessPattern::Strided(4), region(16), 4, None).unwrap();
        assert_eq!(
            w.addrs().collect::<Vec<_>>(),
            vec![0x1000, 0x1020, 0x1040, 0x1060]
        );
    }

    #[test]
    fn indexed_addresses_follow_index() {
        let w = Walk::new(AccessPattern::Indexed, region(8), 3, Some(vec![7, 0, 3])).unwrap();
        assert_eq!(
            w.addrs().collect::<Vec<_>>(),
            vec![0x1000 + 56, 0x1000, 0x1000 + 24]
        );
    }

    #[test]
    fn index_addr_packs_two_per_word() {
        let w = Walk::new(AccessPattern::Indexed, region(8), 4, Some(vec![0, 1, 2, 3]))
            .unwrap()
            .with_index_region(Region {
                base: 0x8000,
                words: 2,
            });
        assert_eq!(w.index_addr(0), Some(0x8000));
        assert_eq!(w.index_addr(1), Some(0x8000));
        assert_eq!(w.index_addr(2), Some(0x8008));
        assert_eq!(w.index_addr(3), Some(0x8008));
        let c = Walk::new(AccessPattern::Contiguous, region(8), 4, None).unwrap();
        assert_eq!(c.index_addr(0), None);
    }

    #[test]
    fn slice_preserves_addresses() {
        let w = Walk::new(AccessPattern::Strided(4), region(32), 8, None).unwrap();
        let s = w.slice(2, 3);
        assert_eq!(s.len(), 3);
        assert_eq!(s.addr(0), w.addr(2));
        assert_eq!(s.addr(2), w.addr(4));
        // Slicing a slice composes.
        let ss = s.slice(1, 2);
        assert_eq!(ss.addr(0), w.addr(3));
    }

    #[test]
    fn slice_of_indexed_walk_follows_index() {
        let w = Walk::new(AccessPattern::Indexed, region(8), 4, Some(vec![3, 1, 7, 0]))
            .unwrap()
            .with_index_region(Region {
                base: 0x8000,
                words: 2,
            });
        let s = w.slice(2, 2);
        assert_eq!(s.addr(0), 0x1000 + 7 * 8);
        assert_eq!(s.index_addr(0), Some(0x8008));
    }

    #[test]
    #[should_panic(expected = "exceeds walk")]
    fn slice_out_of_range_panics() {
        let w = Walk::new(AccessPattern::Contiguous, region(8), 4, None).unwrap();
        let _ = w.slice(2, 3);
    }

    fn invalid_detail(r: SimResult<Walk>) -> String {
        match r {
            Err(SimError::InvalidWalk { detail }) => detail,
            other => panic!("expected InvalidWalk, got {other:?}"),
        }
    }

    #[test]
    fn strided_walk_must_fit() {
        let detail = invalid_detail(Walk::new(AccessPattern::Strided(4), region(8), 4, None));
        assert!(detail.contains("overruns region"), "{detail}");
    }

    #[test]
    fn strided_walk_whose_last_offset_wraps_is_rejected() {
        // Regression: `(count - 1) * stride` wrapped, so 2^58 + 1 elements
        // at stride 64 (last offset 2^64 ≡ 0) passed the fit check in release
        // and panicked on the multiply in debug.
        let walk = Walk::new(
            AccessPattern::Strided(64),
            region(1024),
            (1 << 58) + 1,
            None,
        );
        let detail = invalid_detail(walk);
        assert!(detail.contains("overruns region"), "{detail}");
    }

    #[test]
    fn index_out_of_range_rejected() {
        let detail = invalid_detail(Walk::new(
            AccessPattern::Indexed,
            region(4),
            2,
            Some(vec![0, 9]),
        ));
        assert!(detail.contains("points outside"), "{detail}");
    }

    #[test]
    fn indexed_requires_index() {
        let detail = invalid_detail(Walk::new(AccessPattern::Indexed, region(4), 2, None));
        assert!(detail.contains("needs an index array"), "{detail}");
    }

    #[test]
    fn fixed_pattern_rejected() {
        let detail = invalid_detail(Walk::new(AccessPattern::Fixed, region(4), 2, None));
        assert!(detail.contains("fixed port"), "{detail}");
    }
}
