//! DMA / line-transfer engine (fetch-send `xF0`).
//!
//! The Paragon's line-transfer units stream well-aligned contiguous blocks
//! from memory into the network FIFO in the background, but "require
//! permanent attention of a processor; they need to be kicked back on if
//! they stall due to crossing a memory page boundary". The model charges a
//! setup cost, reads memory in bursts, and stalls for a kick at every page
//! crossing.

use std::collections::VecDeque;

use crate::clock::Cycle;
use crate::engines::Step;
use crate::mem::{Memory, WORD_BYTES};
use crate::nic::{NetWord, TimedFifo, WordKind};
use crate::path::{MemPath, Port};
use crate::walk::Walk;
use memcomm_model::AccessPattern;

/// DMA cost model.
#[derive(Debug, Clone, Copy, PartialEq, Hash)]
pub struct DmaParams {
    /// Words fetched per memory burst.
    pub burst_words: u32,
    /// Processor cycles to program the transfer.
    pub setup_cycles: Cycle,
    /// Page size; crossing a boundary stalls the engine for a kick.
    pub page_bytes: u64,
    /// Stall cycles per page crossing.
    pub kick_cycles: Cycle,
    /// Per-word cost to move data into the NIC FIFO.
    pub word_fifo_cycles: Cycle,
}

/// A DMA engine streaming one contiguous walk to the NIC.
#[derive(Debug, Clone)]
pub struct Dma {
    /// The engine's local clock.
    pub t: Cycle,
    params: DmaParams,
    src: Walk,
    fetched: u64,
    staged: VecDeque<NetWord>,
    started: bool,
}

impl Dma {
    /// Creates a DMA transfer over `src`.
    ///
    /// # Panics
    ///
    /// Panics if `src` is not contiguous — the hardware "can handle only
    /// well aligned, contiguous block-transfers".
    pub fn new(params: DmaParams, src: Walk) -> Self {
        assert_eq!(
            src.pattern(),
            AccessPattern::Contiguous,
            "the DMA engine handles only contiguous transfers"
        );
        assert!(params.burst_words >= 1);
        Dma {
            t: 0,
            params,
            src,
            fetched: 0,
            staged: VecDeque::new(),
            started: false,
        }
    }

    /// Words pushed to the FIFO so far.
    pub fn sent(&self) -> u64 {
        self.fetched - self.staged.len() as u64
    }

    /// Advances: setup, one memory burst, or one FIFO push.
    pub fn step(&mut self, path: &mut MemPath, mem: &Memory, tx: &mut TimedFifo) -> Step {
        if !self.started {
            self.t += self.params.setup_cycles;
            self.started = true;
            return Step::Progressed;
        }
        if let Some(&word) = self.staged.front() {
            return match tx.push(self.t, word) {
                Some(at) => {
                    self.t = self.t.max(at) + self.params.word_fifo_cycles;
                    self.staged.pop_front();
                    Step::Progressed
                }
                None => Step::Blocked,
            };
        }
        let n = self.src.len();
        if self.fetched == n {
            return Step::Done;
        }
        let start_addr = self.src.addr(self.fetched);
        let to_page_end =
            (self.params.page_bytes - start_addr % self.params.page_bytes) / WORD_BYTES;
        let burst = u64::from(self.params.burst_words)
            .min(n - self.fetched)
            .min(to_page_end.max(1));
        self.t = path.engine_read(self.t, Port::Dma, start_addr, burst as u32);
        for k in 0..burst {
            self.staged.push_back(NetWord {
                addr: None,
                data: mem.read(self.src.addr(self.fetched + k)),
                kind: WordKind::Data,
            });
        }
        self.fetched += burst;
        if self.fetched < n
            && self
                .src
                .addr(self.fetched)
                .is_multiple_of(self.params.page_bytes)
        {
            // The next burst starts a new page: the engine stalls until the
            // processor kicks it.
            self.t += self.params.kick_cycles;
        }
        Step::Progressed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeParams;

    fn path() -> MemPath {
        let mut params = NodeParams::default().path;
        params.wbq.entries = 4;
        params.readahead.enabled = false;
        MemPath::new(params)
    }

    fn params() -> DmaParams {
        DmaParams {
            burst_words: 4,
            setup_cycles: 50,
            page_bytes: 4096,
            kick_cycles: 30,
            word_fifo_cycles: 1,
        }
    }

    #[test]
    fn streams_whole_walk_in_order() {
        let mut mem = Memory::new(1 << 16, 2048);
        let mut p = path();
        let src = mem.alloc_walk(AccessPattern::Contiguous, 64, None).unwrap();
        mem.fill(src.region(), 0..64);
        let mut tx = TimedFifo::new(128);
        let mut dma = Dma::new(params(), src);
        while dma.step(&mut p, &mem, &mut tx) != Step::Done {}
        let got: Vec<u64> =
            std::iter::from_fn(|| tx.pop(u64::MAX / 2).map(|(_, w)| w.data)).collect();
        assert_eq!(got, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn page_crossings_cost_kicks() {
        let run = |words: u64, page: u64| {
            let mut mem = Memory::new(1 << 20, 4096);
            let mut p = path();
            let src = mem
                .alloc_walk(AccessPattern::Contiguous, words, None)
                .unwrap();
            let mut tx = TimedFifo::new(1 << 16);
            let mut dma = Dma::new(
                DmaParams {
                    page_bytes: page,
                    ..params()
                },
                src,
            );
            while dma.step(&mut p, &mem, &mut tx) != Step::Done {}
            dma.t
        };
        // 2048 words = 16 KB: three page crossings at 4 KB, none at 1 MB.
        let with_kicks = run(2048, 4096);
        let without = run(2048, 1 << 20);
        assert_eq!(with_kicks - without, 3 * 30);
    }

    #[test]
    fn blocks_on_full_fifo() {
        let mut mem = Memory::new(1 << 16, 2048);
        let mut p = path();
        let src = mem.alloc_walk(AccessPattern::Contiguous, 16, None).unwrap();
        let mut tx = TimedFifo::new(2);
        let mut dma = Dma::new(params(), src);
        let mut saw_block = false;
        for _ in 0..500 {
            match dma.step(&mut p, &mem, &mut tx) {
                Step::Blocked => {
                    saw_block = true;
                    tx.pop(dma.t + 10);
                }
                Step::Done => break,
                Step::Progressed => {}
            }
        }
        assert!(saw_block);
    }

    #[test]
    #[should_panic(expected = "contiguous")]
    fn rejects_strided_source() {
        let mut mem = Memory::new(1 << 16, 2048);
        let src = mem
            .alloc_walk(AccessPattern::strided(4).unwrap(), 8, None)
            .unwrap();
        let _ = Dma::new(params(), src);
    }
}
