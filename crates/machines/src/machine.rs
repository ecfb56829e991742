//! Machine configurations.

use memcomm_memsim::cache::CacheParams;
use memcomm_memsim::clock::{Clock, Cycle};
use memcomm_memsim::dram::DramParams;
use memcomm_memsim::engines::{CpuParams, DepositParams, DmaParams};
use memcomm_memsim::path::PathParams;
use memcomm_memsim::pfq::PfqParams;
use memcomm_memsim::readahead::ReadAheadParams;
use memcomm_memsim::wbq::WbqParams;
use memcomm_memsim::NodeParams;
use memcomm_netsim::{LinkParams, Topology};

/// Which basic transfers the machine's hardware/software actually offers
/// (the "–" cells of the paper's Tables 2 and 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Capabilities {
    /// `xF0`: a DMA engine can feed the network (Paragon yes, T3D no).
    pub fetch_send: bool,
    /// `0Ry`: a processor receive loop is a supported path (Paragon yes —
    /// the co-processor; T3D no, the annex always deposits).
    pub receive_store: bool,
}

/// A calibrated machine: node parameters, link parameters, topology and
/// capability flags.
#[derive(Debug, Clone)]
pub struct Machine {
    /// Machine name ("Cray T3D", "Intel Paragon").
    pub name: &'static str,
    /// Node configuration (memory system + engines).
    pub node: NodeParams,
    /// Link configuration at congestion 1.
    pub link_raw: LinkParams,
    /// The congestion the paper considers representative (2 for both
    /// machines — shared ports on the T3D, aspect ratios on the Paragon).
    pub default_congestion: f64,
    /// Nodes sharing one network port (2 on the T3D).
    pub nodes_per_port: u32,
    /// Interconnect topology of the reference installation.
    pub topology: Topology,
    /// Hardware capability flags.
    pub caps: Capabilities,
}

impl Machine {
    /// The node clock.
    pub fn clock(&self) -> Clock {
        Clock::from_mhz(self.node.clock_mhz)
    }

    /// `0Dy` for non-contiguous `y`: whether the deposit engine handles
    /// strided and indexed stores (T3D annex yes, Paragon line-transfer
    /// unit no).
    pub fn deposit_noncontiguous(&self) -> bool {
        !self.node.deposit.contiguous_only
    }

    /// Link parameters at a given congestion factor.
    pub fn link(&self, congestion: f64) -> LinkParams {
        LinkParams {
            congestion,
            ..self.link_raw
        }
    }

    /// Cycles the network port needs per data word at congestion 1 — the
    /// service rate of the ideal port in single-node send/receive
    /// microbenchmarks.
    pub fn port_word_cycles(&self) -> Cycle {
        let word = memcomm_memsim::nic::NetWord::data(0);
        self.link_raw.word_cycles(&word).round().max(1.0) as Cycle
    }

    /// The Cray T3D: 150 MHz Alpha 21064, 8 KB direct-mapped write-around
    /// cache, single-bank closed-page DRAM, read-ahead (RDAL) circuitry, a
    /// deep write-back queue, no DMA, and the annex deposit engine that
    /// handles any access pattern. 3D torus, two nodes per network port.
    pub fn t3d() -> Self {
        let line_bytes = 32;
        Machine {
            name: "Cray T3D",
            node: NodeParams {
                clock_mhz: 150.0,
                memory_words: 6 << 20,
                path: PathParams {
                    cache: CacheParams {
                        size_bytes: 8 * 1024,
                        line_bytes,
                        ways: 1,
                        // The 21064 primary-cache load-to-use latency.
                        hit_cycles: 3,
                    },
                    wbq: WbqParams {
                        entries: 6,
                        merge: true,
                    },
                    readahead: ReadAheadParams {
                        enabled: true,
                        buffer_hit_cycles: 3,
                    },
                    dram: DramParams {
                        banks: 1,
                        interleave_bytes: line_bytes,
                        read_miss_cycles: 18,
                        write_miss_cycles: 20,
                        posted_write_miss_cycles: 11,
                        burst_word_cycles: 1,
                        channel_word_cycles: 1,
                        demand_latency_cycles: 8,
                        turnaround_cycles: 2,
                    },
                    switch_penalty_cycles: 1,
                    switch_window_cycles: 16,
                },
                cpu: CpuParams {
                    load_issue_cycles: 1,
                    store_issue_cycles: 1,
                    loop_cycles: 1,
                    indexed_extra_cycles: 2,
                    port_store_cycles: 2,
                    port_load_cycles: 6,
                    pfq: PfqParams {
                        depth: 1,
                        enabled: false,
                    },
                },
                // The T3D has no DMA; parameters kept for completeness.
                dma: DmaParams {
                    burst_words: 4,
                    setup_cycles: 200,
                    page_bytes: 4096,
                    kick_cycles: 50,
                    word_fifo_cycles: 2,
                },
                deposit: DepositParams {
                    word_cycles: 3,
                    coalesce_words: 4,
                    contiguous_only: false,
                },
                tx_fifo_words: 64,
                rx_fifo_words: 64,
            },
            link_raw: LinkParams {
                // 160 MB/s effective wire speed at 150 MHz.
                bytes_per_cycle: 160.0 / 150.0,
                packet_words: 16,
                header_bytes: 8,
                // Each remote store is its own small message: the address
                // plus per-store control framing.
                adp_extra_bytes: 10,
                latency_cycles: 20,
                congestion: 1.0,
            },
            default_congestion: 2.0,
            nodes_per_port: 2,
            topology: Topology::torus(&[4, 4, 4]),
            caps: Capabilities {
                fetch_send: false,
                receive_store: false,
            },
        }
    }

    /// The Intel Paragon: two 50 MHz i860XP processors on a 400 MB/s bus,
    /// 16 KB 4-way write-through caches, interleaved closed-page DRAM,
    /// cache-bypassing pipelined loads, contiguous-only DMA/line-transfer
    /// engines with page-boundary kicks. 2D mesh, one node per port.
    pub fn paragon() -> Self {
        let line_bytes = 32;
        Machine {
            name: "Intel Paragon",
            node: NodeParams {
                clock_mhz: 50.0,
                memory_words: 6 << 20,
                path: PathParams {
                    cache: CacheParams {
                        size_bytes: 16 * 1024,
                        line_bytes,
                        ways: 4,
                        hit_cycles: 1,
                    },
                    wbq: WbqParams {
                        entries: 3,
                        merge: true,
                    },
                    readahead: ReadAheadParams {
                        enabled: false,
                        buffer_hit_cycles: 2,
                    },
                    dram: DramParams {
                        banks: 4,
                        interleave_bytes: line_bytes,
                        read_miss_cycles: 9,
                        write_miss_cycles: 11,
                        // The i860 write path gains nothing from posting:
                        // no pipelined precharge as on the T3D controller.
                        posted_write_miss_cycles: 11,
                        burst_word_cycles: 1,
                        channel_word_cycles: 1,
                        demand_latency_cycles: 3,
                        turnaround_cycles: 2,
                    },
                    // Fine-grain interleaving of requesters arbitrates
                    // poorly on this bus (the paper saw up to 50% loss).
                    switch_penalty_cycles: 2,
                    switch_window_cycles: 8,
                },
                cpu: CpuParams {
                    load_issue_cycles: 1,
                    store_issue_cycles: 1,
                    // Dual-issue hides the loop control.
                    loop_cycles: 0,
                    indexed_extra_cycles: 1,
                    port_store_cycles: 3,
                    port_load_cycles: 4,
                    pfq: PfqParams {
                        depth: 3,
                        enabled: true,
                    },
                },
                dma: DmaParams {
                    burst_words: 16,
                    setup_cycles: 200,
                    page_bytes: 4096,
                    kick_cycles: 50,
                    word_fifo_cycles: 1,
                },
                // The line-transfer unit acting as a deposit engine:
                // contiguous only.
                deposit: DepositParams {
                    word_cycles: 1,
                    coalesce_words: 16,
                    contiguous_only: true,
                },
                tx_fifo_words: 64,
                rx_fifo_words: 64,
            },
            link_raw: LinkParams {
                // 200 MB/s raw at 50 MHz = 4 bytes per cycle.
                bytes_per_cycle: 4.0,
                packet_words: 16,
                header_bytes: 16,
                // Address-data pairs are packetized: 8 address bytes extra.
                adp_extra_bytes: 8,
                latency_cycles: 10,
                congestion: 1.0,
            },
            default_congestion: 2.0,
            nodes_per_port: 1,
            topology: Topology::mesh(&[8, 8]),
            caps: Capabilities {
                fetch_send: true,
                receive_store: true,
            },
        }
    }
}

/// A message-passing library's cost profile: what Figure 1's messages and
/// the Table 6 kernels' rounds pay on top of the data movement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LibraryProfile {
    /// Library name.
    pub name: &'static str,
    /// Constant software cost per message on each side (argument checking,
    /// buffer management, protocol).
    pub per_message_cycles: Cycle,
    /// Whether the library forces store-and-forward copies through system
    /// buffers on both sides (PVM semantics).
    pub system_buffering: bool,
}

impl LibraryProfile {
    /// A PVM-like portable library: tens of microseconds of per-message
    /// overhead and mandatory system buffering on both ends.
    pub fn pvm(machine: &Machine) -> Self {
        LibraryProfile {
            name: "PVM",
            per_message_cycles: (40.0e-6 * machine.clock().hz()) as Cycle,
            system_buffering: true,
        }
    }

    /// The fastest vendor path (`libsma` on the T3D, SUNMOS `libnx` on the
    /// Paragon): a put with microseconds of overhead and no extra copies.
    pub fn low_level(machine: &Machine) -> Self {
        LibraryProfile {
            name: "low-level",
            per_message_cycles: (2.0e-6 * machine.clock().hz()) as Cycle,
            system_buffering: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn machines_construct() {
        let t = Machine::t3d();
        let p = Machine::paragon();
        assert_eq!(t.topology.len(), 64);
        assert_eq!(p.topology.len(), 64);
        assert!(t.deposit_noncontiguous());
        assert!(!p.deposit_noncontiguous());
    }

    #[test]
    fn port_word_cycles_reflect_wire_speed() {
        let t = Machine::t3d();
        // 8.5 framed bytes at 160/150 B/cycle ≈ 8 cycles.
        assert_eq!(t.port_word_cycles(), 8);
        let p = Machine::paragon();
        // 9 framed bytes at 4 B/cycle -> 2.25, rounded to 2 cycles.
        assert_eq!(p.port_word_cycles(), 2);
    }

    #[test]
    fn default_congestion_is_two() {
        assert_eq!(Machine::t3d().default_congestion, 2.0);
        assert_eq!(Machine::paragon().default_congestion, 2.0);
    }
}
