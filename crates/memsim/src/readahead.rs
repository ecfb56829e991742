//! Stream-detecting read-ahead unit (the T3D's RDAL circuitry).
//!
//! When the external read-ahead logic observes two consecutive line fills,
//! it prefetches the next line during otherwise idle DRAM time. The paper
//! reports ≈ 60% improvement for contiguous load streams when the
//! programmer enables it at load time.

use crate::clock::Cycle;

/// Read-ahead configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ReadAheadParams {
    /// Whether the unit is enabled (a load-time choice on the T3D).
    pub enabled: bool,
    /// Cycles to hand a prefetched line to the processor (the fill comes
    /// from the read-ahead buffer, not DRAM).
    pub buffer_hit_cycles: Cycle,
}

/// The read-ahead unit's state.
#[derive(Debug, Clone)]
pub struct ReadAhead {
    params: ReadAheadParams,
    last_fill: Option<u64>,
    prefetched: Option<(u64, Cycle)>,
}

impl ReadAhead {
    /// Creates the unit.
    pub fn new(params: ReadAheadParams) -> Self {
        ReadAhead {
            params,
            last_fill: None,
            prefetched: None,
        }
    }

    /// Configuration.
    pub fn params(&self) -> &ReadAheadParams {
        &self.params
    }

    /// Checks whether a demand fill of `line_base` is already in the
    /// prefetch buffer. On a hit, returns when the buffered data is ready
    /// and consumes the buffer entry.
    pub fn buffer_hit(&mut self, line_base: u64, now: Cycle) -> Option<Cycle> {
        if !self.params.enabled {
            return None;
        }
        match self.prefetched {
            Some((line, ready)) if line == line_base => {
                self.prefetched = None;
                Some(now.max(ready) + self.params.buffer_hit_cycles)
            }
            _ => None,
        }
    }

    /// Records a demand fill of `line_base` and decides whether the next
    /// sequential line should be prefetched (two consecutive lines seen).
    pub fn on_fill(&mut self, line_base: u64, line_bytes: u64) -> Option<u64> {
        if !self.params.enabled {
            return None;
        }
        let sequential = self.last_fill == Some(line_base.wrapping_sub(line_bytes))
            || self
                .prefetched
                .is_some_and(|(l, _)| l == line_base.wrapping_sub(line_bytes));
        self.last_fill = Some(line_base);
        sequential.then_some(line_base + line_bytes)
    }

    /// Records that the prefetch of `line_base` was issued and will be ready
    /// at `ready_at`. A previously buffered unused line is discarded.
    pub fn note_prefetch(&mut self, line_base: u64, ready_at: Cycle) {
        self.prefetched = Some((line_base, ready_at));
        self.last_fill = Some(line_base);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit(enabled: bool) -> ReadAhead {
        ReadAhead::new(ReadAheadParams {
            enabled,
            buffer_hit_cycles: 4,
        })
    }

    #[test]
    fn detects_sequential_stream_on_second_fill() {
        let mut r = unit(true);
        assert_eq!(r.on_fill(0, 32), None);
        assert_eq!(r.on_fill(32, 32), Some(64));
    }

    #[test]
    fn non_sequential_fills_do_not_trigger() {
        let mut r = unit(true);
        r.on_fill(0, 32);
        assert_eq!(r.on_fill(512, 32), None);
    }

    #[test]
    fn buffer_hit_consumes_entry_and_waits_for_ready() {
        let mut r = unit(true);
        r.note_prefetch(64, 100);
        assert_eq!(r.buffer_hit(64, 50), Some(104));
        assert_eq!(r.buffer_hit(64, 50), None, "entry consumed");
    }

    #[test]
    fn buffer_hit_after_ready_costs_only_transfer() {
        let mut r = unit(true);
        r.note_prefetch(64, 100);
        assert_eq!(r.buffer_hit(64, 200), Some(204));
    }

    #[test]
    fn stream_continues_through_prefetched_lines() {
        let mut r = unit(true);
        r.on_fill(0, 32);
        assert_eq!(r.on_fill(32, 32), Some(64));
        r.note_prefetch(64, 10);
        // The demand stream reaches line 64 via the buffer; the next fill at
        // 96 still counts as sequential.
        assert!(r.buffer_hit(64, 20).is_some());
        assert_eq!(r.on_fill(96, 32), Some(128));
    }

    #[test]
    fn disabled_unit_is_inert() {
        let mut r = unit(false);
        assert_eq!(r.on_fill(0, 32), None);
        assert_eq!(r.on_fill(32, 32), None);
        r.note_prefetch(64, 0);
        assert_eq!(r.buffer_hit(64, 10), None);
    }

    #[test]
    fn a_new_prefetch_replaces_an_unused_one() {
        let mut r = unit(true);
        r.note_prefetch(64, 0);
        r.note_prefetch(128, 0);
        assert_eq!(r.buffer_hit(64, 10), None, "the replaced line is gone");
        assert_eq!(r.buffer_hit(128, 10), Some(14));
    }
}
