//! A node: memory, memory path, NIC FIFOs and engine cost models.

use crate::clock::{Clock, Cycle};
use crate::engines::{Cpu, CpuParams, DepositParams, DmaParams};
use crate::error::{SimError, SimResult};
use crate::mem::Memory;
use crate::nic::TimedFifo;
use crate::path::{MemPath, PathParams, Port};
use crate::pfq::PfqParams;
use crate::walk::Walk;
use memcomm_model::AccessPattern;

/// Full configuration of a node.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeParams {
    /// Processor clock in MHz.
    pub clock_mhz: f64,
    /// Node memory capacity in 64-bit words.
    pub memory_words: u64,
    /// Memory-path (cache/WBQ/read-ahead/DRAM) parameters.
    pub path: PathParams,
    /// Main-processor cost model.
    pub cpu: CpuParams,
    /// DMA engine cost model.
    pub dma: DmaParams,
    /// Deposit engine cost model.
    pub deposit: DepositParams,
    /// Outgoing NIC FIFO depth in words.
    pub tx_fifo_words: usize,
    /// Incoming NIC FIFO depth in words.
    pub rx_fifo_words: usize,
}

impl Default for NodeParams {
    /// A generic mid-1990s node (150 MHz, 8 KB direct-mapped cache,
    /// single-bank closed-page DRAM) for examples and tests; the calibrated
    /// T3D and Paragon configurations live in `memcomm-machines`.
    fn default() -> Self {
        use crate::cache::CacheParams;
        use crate::dram::DramParams;
        use crate::readahead::ReadAheadParams;
        use crate::wbq::WbqParams;
        NodeParams {
            clock_mhz: 150.0,
            memory_words: 4 << 20,
            path: PathParams {
                cache: CacheParams {
                    size_bytes: 8 * 1024,
                    line_bytes: 32,
                    ways: 1,
                    hit_cycles: 1,
                },
                wbq: WbqParams {
                    entries: 6,
                    merge: true,
                },
                readahead: ReadAheadParams {
                    enabled: true,
                    buffer_hit_cycles: 4,
                },
                dram: DramParams {
                    banks: 1,
                    interleave_bytes: 32,
                    read_miss_cycles: 22,
                    write_miss_cycles: 22,
                    posted_write_miss_cycles: 14,
                    burst_word_cycles: 1,
                    channel_word_cycles: 1,
                    demand_latency_cycles: 10,
                    turnaround_cycles: 0,
                },
                switch_penalty_cycles: 0,
                switch_window_cycles: 0,
            },
            cpu: CpuParams {
                load_issue_cycles: 1,
                store_issue_cycles: 1,
                loop_cycles: 1,
                indexed_extra_cycles: 1,
                port_store_cycles: 6,
                port_load_cycles: 6,
                pfq: PfqParams {
                    depth: 1,
                    enabled: false,
                },
            },
            dma: DmaParams {
                burst_words: 4,
                setup_cycles: 100,
                page_bytes: 4096,
                kick_cycles: 50,
                word_fifo_cycles: 1,
            },
            deposit: DepositParams {
                word_cycles: 2,
                coalesce_words: 4,
                contiguous_only: false,
            },
            tx_fifo_words: 64,
            rx_fifo_words: 64,
        }
    }
}

/// A simulated node.
///
/// Fields are public because drivers (microbenchmarks, end-to-end
/// co-simulations) advance several agents that each need disjoint mutable
/// access to the node's parts.
#[derive(Debug, Clone)]
pub struct Node {
    /// Node memory (data).
    pub mem: Memory,
    /// The arbitrated memory path (timing).
    pub path: MemPath,
    /// Outgoing NIC FIFO.
    pub tx: TimedFifo,
    /// Incoming NIC FIFO.
    pub rx: TimedFifo,
    params: NodeParams,
}

impl Node {
    /// Builds a node from its configuration.
    pub fn new(params: NodeParams) -> Self {
        // 256-byte placement granularity: line-aligned (every line size in
        // use divides it), fine enough that the allocator's jittered guard
        // gaps spread arrays over many distinct cache colours.
        Node {
            mem: Memory::new(params.memory_words, 256),
            path: MemPath::new(params.path),
            tx: TimedFifo::new(params.tx_fifo_words),
            rx: TimedFifo::new(params.rx_fifo_words),
            params,
        }
    }

    /// The node configuration.
    pub fn params(&self) -> &NodeParams {
        &self.params
    }

    /// The node clock.
    pub fn clock(&self) -> Clock {
        Clock::from_mhz(self.params.clock_mhz)
    }

    /// A fresh main processor (local clock 0).
    pub fn cpu(&self) -> Cpu {
        Cpu::new(self.params.cpu, Port::Cpu)
    }

    /// A fresh co-processor: same cost model, its own arbitration port (for
    /// Paragon-style dual-processor nodes).
    pub fn coprocessor(&self) -> Cpu {
        Cpu::new(self.params.cpu, Port::CoProcessor)
    }

    /// Allocates a region and returns a walk over it (see
    /// [`Memory::alloc_walk`]).
    ///
    /// # Errors
    ///
    /// Propagates [`SimError::InvalidWalk`] / [`SimError::OutOfMemory`] from
    /// [`Memory::alloc_walk`].
    pub fn alloc_walk(
        &mut self,
        pattern: AccessPattern,
        words: u64,
        index: Option<Vec<u32>>,
    ) -> SimResult<Walk> {
        self.mem.alloc_walk(pattern, words, index)
    }
}

/// A bounded-progress watchdog for co-simulation driver loops.
///
/// Every driver iteration calls [`tick`](Watchdog::tick); once the step
/// bound (or the optional simulated-cycle budget) elapses, the watchdog
/// returns a [`SimError`] instead of letting a wedged co-simulation spin
/// forever. Fault injection makes wedges *reachable* (a dropped word with no
/// retransmission, a stalled engine), so every driver loop must be bounded.
#[derive(Debug, Clone, Copy)]
pub struct Watchdog {
    max_steps: u64,
    max_cycles: Option<Cycle>,
    steps: u64,
}

impl Watchdog {
    /// A watchdog that fires after `max_steps` driver iterations.
    pub fn new(max_steps: u64) -> Self {
        Watchdog {
            max_steps,
            max_cycles: None,
            steps: 0,
        }
    }

    /// Adds a simulated-cycle budget: [`tick`](Watchdog::tick) fails as soon
    /// as the observed cycle count exceeds it. `None` leaves only the step
    /// bound.
    pub fn with_cycle_budget(mut self, max_cycles: Option<Cycle>) -> Self {
        self.max_cycles = max_cycles;
        self
    }

    /// Records one driver iteration at local time `at`.
    ///
    /// # Errors
    ///
    /// [`SimError::CycleBudget`] when the cycle budget is exceeded,
    /// [`SimError::Wedged`] when the step bound elapses.
    pub fn tick(&mut self, engine: &'static str, at: Cycle) -> SimResult<()> {
        self.tick_with(engine, || at)
    }

    /// Like [`tick`](Watchdog::tick), but reads the local time from `at`
    /// only when a check needs it: on every call under a cycle budget,
    /// otherwise only once the step bound has elapsed.
    ///
    /// # Errors
    ///
    /// As [`tick`](Watchdog::tick).
    pub fn tick_with(&mut self, engine: &'static str, at: impl Fn() -> Cycle) -> SimResult<()> {
        if let Some(budget) = self.max_cycles {
            let at = at();
            if at > budget {
                return Err(SimError::CycleBudget { budget, at });
            }
        }
        self.steps += 1;
        if self.steps > self.max_steps {
            return Err(SimError::Wedged {
                engine,
                at: at(),
                steps: self.steps,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_node_builds_and_allocates() {
        let mut n = Node::new(NodeParams::default());
        let w = n.alloc_walk(AccessPattern::Contiguous, 128, None).unwrap();
        assert_eq!(w.len(), 128);
        assert_eq!(n.clock().hz(), 150.0e6);
    }

    #[test]
    fn watchdog_fires_on_step_bound() {
        let mut w = Watchdog::new(3);
        for _ in 0..3 {
            w.tick("test driver", 10).unwrap();
        }
        assert!(matches!(
            w.tick("test driver", 11),
            Err(SimError::Wedged { steps: 4, .. })
        ));
    }

    #[test]
    fn watchdog_enforces_cycle_budget() {
        let mut w = Watchdog::new(u64::MAX).with_cycle_budget(Some(100));
        w.tick("test driver", 100).unwrap();
        assert!(matches!(
            w.tick("test driver", 101),
            Err(SimError::CycleBudget {
                budget: 100,
                at: 101
            })
        ));
    }

    #[test]
    fn coprocessor_uses_its_own_port() {
        let n = Node::new(NodeParams::default());
        assert_eq!(n.cpu().port(), Port::Cpu);
        assert_eq!(n.coprocessor().port(), Port::CoProcessor);
    }
}
