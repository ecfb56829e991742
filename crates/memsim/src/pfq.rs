//! Pipelined-load queue (the i860XP's cache-bypassing `pfld` pipe).
//!
//! The i860XP can issue pipelined floating-point loads that bypass the cache
//! and return in order with a fixed pipeline depth. The processor only
//! stalls when the pipe is full, so DRAM latency is hidden behind issue
//! bandwidth — the mechanism that makes strided and indexed *loads* fast on
//! the Paragon. The paper notes a 30–40% performance loss when these loads
//! cannot be used.

use std::collections::VecDeque;

use crate::clock::Cycle;

/// Pipelined-load queue configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PfqParams {
    /// Number of outstanding loads the pipe holds (3 on the i860XP).
    pub depth: usize,
    /// Whether the queue is usable at all (compilers of the era often did
    /// not emit `pfld`; the paper's ablation measures this).
    pub enabled: bool,
}

/// The pipelined-load queue: completion times of outstanding loads, in
/// issue order.
#[derive(Debug, Clone)]
pub struct Pfq {
    params: PfqParams,
    completions: VecDeque<Cycle>,
    stalls: u64,
}

impl Pfq {
    /// Creates the queue.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero — the queue doubles as the in-order retire
    /// buffer for cached loads, so even a disabled queue needs one slot.
    pub fn new(params: PfqParams) -> Self {
        assert!(params.depth >= 1, "pipelined-load queue needs depth >= 1");
        Pfq {
            params,
            completions: VecDeque::with_capacity(params.depth),
            stalls: 0,
        }
    }

    /// Configuration.
    pub fn params(&self) -> &PfqParams {
        &self.params
    }

    /// Whether the queue can be used.
    pub fn enabled(&self) -> bool {
        self.params.enabled
    }

    /// Number of full-queue stalls observed.
    pub fn stalls(&self) -> u64 {
        self.stalls
    }

    /// Outstanding loads.
    pub fn len(&self) -> usize {
        self.completions.len()
    }

    /// Whether no loads are outstanding.
    pub fn is_empty(&self) -> bool {
        self.completions.is_empty()
    }

    /// Whether the pipe holds `depth` outstanding loads.
    pub fn is_full(&self) -> bool {
        self.completions.len() >= self.params.depth
    }

    /// Earliest time a new load can issue at or after `now`: immediately if
    /// a slot is free, otherwise when the oldest outstanding load retires.
    /// (The slot itself is freed by [`retire`](Self::retire).)
    pub fn issue_time(&mut self, now: Cycle) -> Cycle {
        if self.is_full() {
            let front = *self.completions.front().expect("full implies non-empty");
            if front > now {
                self.stalls += 1;
            }
            now.max(front)
        } else {
            now
        }
    }

    /// Records an issued load that completes at `completion`.
    ///
    /// # Panics
    ///
    /// Panics if the pipe is full — call [`retire`](Self::retire) first.
    pub fn push(&mut self, completion: Cycle) {
        assert!(!self.is_full(), "push into a full pipelined-load queue");
        self.completions.push_back(completion);
    }

    /// Retires the oldest outstanding load, returning when its data was
    /// ready.
    pub fn retire(&mut self) -> Option<Cycle> {
        self.completions.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pfq(depth: usize) -> Pfq {
        Pfq::new(PfqParams {
            depth,
            enabled: true,
        })
    }

    #[test]
    fn issues_freely_until_full() {
        let mut q = pfq(3);
        assert_eq!(q.issue_time(10), 10);
        q.push(100);
        assert_eq!(q.issue_time(11), 11);
        q.push(110);
        assert_eq!(q.issue_time(12), 12);
        q.push(120);
        // Full: the next issue waits for the oldest completion.
        assert_eq!(q.issue_time(13), 100);
        assert_eq!(q.stalls(), 1);
    }

    #[test]
    fn retire_returns_in_order() {
        let mut q = pfq(2);
        q.push(50);
        q.push(60);
        assert_eq!(q.retire(), Some(50));
        assert_eq!(q.retire(), Some(60));
        assert_eq!(q.retire(), None);
    }

    #[test]
    fn no_stall_counted_when_oldest_already_done() {
        let mut q = pfq(1);
        q.push(5);
        assert_eq!(q.issue_time(10), 10);
        assert_eq!(q.stalls(), 0);
    }

    #[test]
    #[should_panic(expected = "full")]
    fn push_into_full_panics() {
        let mut q = pfq(1);
        q.push(1);
        q.push(2);
    }

    #[test]
    #[should_panic(expected = "depth >= 1")]
    fn zero_depth_rejected() {
        let _ = Pfq::new(PfqParams {
            depth: 0,
            enabled: false,
        });
    }
}
