//! Deposit engine (receive-deposit `0Dy`).
//!
//! "The sole purpose of a deposit engine is to take data from the network
//! and store it to the memory system on behalf of the communication system"
//! — in the background, without processor involvement. The T3D's annex
//! handles any access pattern (addresses travel with the data); the
//! Paragon's DMA can act as a deposit engine for contiguous blocks only.

use crate::clock::Cycle;
use crate::engines::Step;
use crate::error::{SimError, SimResult};
use crate::mem::{Memory, WORD_BYTES};
use crate::nic::TimedFifo;
use crate::path::{MemPath, Port};
use crate::walk::Walk;
use memcomm_model::AccessPattern;

/// Where the deposit engine gets its store addresses.
#[derive(Debug, Clone)]
pub enum DepositMode {
    /// Each incoming word carries its own address (address-data pairs).
    Addressed,
    /// Bare data words land along a predetermined walk (data-only
    /// transfers into a receive buffer).
    Stream(Walk),
}

/// Deposit-engine cost model.
#[derive(Debug, Clone, Copy, PartialEq, Hash)]
pub struct DepositParams {
    /// Engine overhead per word (FIFO pop, address decode).
    pub word_cycles: Cycle,
    /// Maximum contiguous words coalesced into one memory burst.
    pub coalesce_words: u32,
    /// Whether the engine can only store contiguous streams (Paragon DMA).
    pub contiguous_only: bool,
}

/// A deposit engine draining one transfer of `expected` words.
#[derive(Debug, Clone)]
pub struct DepositEngine {
    /// The engine's local clock.
    pub t: Cycle,
    params: DepositParams,
    mode: DepositMode,
    expected: u64,
    received: u64,
    burst_base: u64,
    /// Words of the open burst: already in memory, their store not yet
    /// charged to the memory path.
    burst_len: u32,
}

impl DepositEngine {
    /// Creates a deposit engine expecting `expected` words.
    ///
    /// # Panics
    ///
    /// Panics if a contiguous-only engine is given a non-contiguous stream
    /// walk, or if a stream walk is shorter than `expected`.
    pub fn new(params: DepositParams, mode: DepositMode, expected: u64) -> Self {
        assert!(params.coalesce_words >= 1);
        if let DepositMode::Stream(w) = &mode {
            assert!(w.len() >= expected, "stream walk shorter than transfer");
            if params.contiguous_only {
                assert_eq!(
                    w.pattern(),
                    AccessPattern::Contiguous,
                    "this deposit engine handles only contiguous streams"
                );
            }
        }
        DepositEngine {
            t: 0,
            params,
            mode,
            expected,
            received: 0,
            burst_base: 0,
            burst_len: 0,
        }
    }

    /// Words deposited, including any whose burst is still coalescing:
    /// each is in memory from the step that accepted it.
    pub fn received(&self) -> u64 {
        self.received
    }

    /// Charges the open burst's store to the memory path.
    fn flush(&mut self, path: &mut MemPath) {
        if self.burst_len == 0 {
            return;
        }
        self.t = path.engine_write(self.t, Port::Deposit, self.burst_base, self.burst_len);
        self.burst_len = 0;
    }

    /// The address the open burst would store its next word at.
    fn burst_end(&self) -> u64 {
        self.burst_base + u64::from(self.burst_len) * WORD_BYTES
    }

    /// Advances by one word (or a final burst flush).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::Protocol`] when an addressed engine receives a
    /// bare data or control word (it has no address to deposit at), or when
    /// a contiguous-only engine sees a non-contiguous address. Both are
    /// reachable under fault injection (a corrupted or misrouted word), so
    /// they fail the transfer rather than the process.
    pub fn step(
        &mut self,
        path: &mut MemPath,
        mem: &mut Memory,
        rx: &mut TimedFifo,
    ) -> SimResult<Step> {
        if self.received == self.expected {
            if self.burst_len == 0 {
                return Ok(Step::Done);
            }
            self.flush(path);
            return Ok(Step::Progressed);
        }
        let Some((at, word)) = rx.pop(self.t) else {
            return Ok(Step::Blocked);
        };
        self.t = self.t.max(at) + self.params.word_cycles;
        let addr = match (&self.mode, word.addr) {
            (DepositMode::Addressed, Some(a)) => a,
            (DepositMode::Addressed, None) => {
                return Err(SimError::Protocol {
                    detail: "addressed deposit engine received a bare data word".to_string(),
                    at: self.t,
                });
            }
            (DepositMode::Stream(w), _) => w.addr(self.received),
        };
        if self.params.contiguous_only && self.burst_len > 0 && addr != self.burst_end() {
            return Err(SimError::Protocol {
                detail: "contiguous-only deposit engine saw a non-contiguous address".to_string(),
                at: self.t,
            });
        }
        let continues = self.burst_len > 0
            && addr == self.burst_end()
            && self.burst_len < self.params.coalesce_words;
        if !continues {
            self.flush(path);
            self.burst_base = addr;
        }
        mem.write(addr, word.data);
        self.burst_len += 1;
        self.received += 1;
        if self.burst_len == self.params.coalesce_words {
            self.flush(path);
        }
        Ok(Step::Progressed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nic::{NetWord, WordKind};
    use crate::node::NodeParams;

    fn path() -> MemPath {
        let mut params = NodeParams::default().path;
        params.wbq.entries = 4;
        params.readahead.enabled = false;
        MemPath::new(params)
    }

    fn params() -> DepositParams {
        DepositParams {
            word_cycles: 2,
            coalesce_words: 4,
            contiguous_only: false,
        }
    }

    fn drive(engine: &mut DepositEngine, path: &mut MemPath, mem: &mut Memory, rx: &mut TimedFifo) {
        for _ in 0..10_000 {
            match engine.step(path, mem, rx).unwrap() {
                Step::Done => return,
                Step::Blocked => panic!("deposit engine starved"),
                Step::Progressed => {}
            }
        }
        panic!("deposit engine did not finish");
    }

    #[test]
    fn addressed_words_land_where_sent() {
        let mut mem = Memory::new(1 << 16, 2048);
        let mut p = path();
        let dst = mem
            .alloc_walk(AccessPattern::strided(16).unwrap(), 8, None)
            .unwrap();
        let mut rx = TimedFifo::new(32);
        for i in 0..8u64 {
            rx.push(
                0,
                NetWord {
                    addr: Some(dst.addr(i)),
                    data: 900 + i,
                    kind: WordKind::Data,
                },
            )
            .unwrap();
        }
        let mut d = DepositEngine::new(params(), DepositMode::Addressed, 8);
        drive(&mut d, &mut p, &mut mem, &mut rx);
        for i in 0..8 {
            assert_eq!(mem.read(dst.addr(i)), 900 + i);
        }
    }

    #[test]
    fn stream_mode_follows_walk() {
        let mut mem = Memory::new(1 << 16, 2048);
        let mut p = path();
        let dst = mem.alloc_walk(AccessPattern::Contiguous, 8, None).unwrap();
        let mut rx = TimedFifo::new(32);
        for i in 0..8u64 {
            rx.push(
                0,
                NetWord {
                    addr: None,
                    data: i,
                    kind: WordKind::Data,
                },
            )
            .unwrap();
        }
        let mut d = DepositEngine::new(params(), DepositMode::Stream(dst.clone()), 8);
        drive(&mut d, &mut p, &mut mem, &mut rx);
        assert_eq!(mem.dump(dst.region()), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn contiguous_runs_coalesce_into_bursts() {
        let mut mem = Memory::new(1 << 16, 2048);
        let mut p = path();
        let dst = mem.alloc_walk(AccessPattern::Contiguous, 16, None).unwrap();
        let mut rx = TimedFifo::new(32);
        for i in 0..16u64 {
            rx.push(
                0,
                NetWord {
                    addr: Some(dst.addr(i)),
                    data: i,
                    kind: WordKind::Data,
                },
            )
            .unwrap();
        }
        let mut d = DepositEngine::new(params(), DepositMode::Addressed, 16);
        drive(&mut d, &mut p, &mut mem, &mut rx);
        // 16 contiguous words at coalesce 4: four DRAM writes, not sixteen
        // (every access opens a row).
        assert_eq!(p.dram_stats().row_misses, 4);
    }

    #[test]
    fn strided_deposits_write_word_at_a_time() {
        let mut mem = Memory::new(1 << 20, 2048);
        let mut p = path();
        let dst = mem
            .alloc_walk(AccessPattern::strided(64).unwrap(), 8, None)
            .unwrap();
        let mut rx = TimedFifo::new(32);
        for i in 0..8u64 {
            rx.push(
                0,
                NetWord {
                    addr: Some(dst.addr(i)),
                    data: i,
                    kind: WordKind::Data,
                },
            )
            .unwrap();
        }
        let mut d = DepositEngine::new(params(), DepositMode::Addressed, 8);
        drive(&mut d, &mut p, &mut mem, &mut rx);
        assert_eq!(p.dram_stats().row_misses, 8);
    }

    #[test]
    fn blocks_when_fifo_empty() {
        let mut mem = Memory::new(1 << 16, 2048);
        let mut p = path();
        let mut rx = TimedFifo::new(4);
        let mut d = DepositEngine::new(params(), DepositMode::Addressed, 4);
        assert_eq!(d.step(&mut p, &mut mem, &mut rx).unwrap(), Step::Blocked);
    }

    #[test]
    fn contiguous_only_engine_rejects_gaps() {
        let mut mem = Memory::new(1 << 16, 2048);
        let mut p = path();
        let mut rx = TimedFifo::new(4);
        rx.push(
            0,
            NetWord {
                addr: Some(0),
                data: 1,
                kind: WordKind::Data,
            },
        )
        .unwrap();
        rx.push(
            0,
            NetWord {
                addr: Some(64),
                data: 2,
                kind: WordKind::Data,
            },
        )
        .unwrap();
        let mut d = DepositEngine::new(
            DepositParams {
                contiguous_only: true,
                ..params()
            },
            DepositMode::Addressed,
            2,
        );
        d.step(&mut p, &mut mem, &mut rx).unwrap();
        match d.step(&mut p, &mut mem, &mut rx) {
            Err(SimError::Protocol { detail, .. }) => {
                assert!(detail.contains("non-contiguous"), "{detail}");
            }
            other => panic!("expected Protocol error, got {other:?}"),
        }
    }

    #[test]
    fn addressed_engine_rejects_bare_words() {
        let mut mem = Memory::new(1 << 16, 2048);
        let mut p = path();
        let mut rx = TimedFifo::new(4);
        rx.push(0, NetWord::data(5)).unwrap();
        let mut d = DepositEngine::new(params(), DepositMode::Addressed, 1);
        assert!(matches!(
            d.step(&mut p, &mut mem, &mut rx),
            Err(SimError::Protocol { .. })
        ));
    }
}
