//! # memcomm-memsim — node memory-system simulator
//!
//! A discrete-event, timestamp-based simulator of the memory system of a
//! mid-1990s massively-parallel-computer node, built to reproduce the
//! measurements of Stricker & Gross (ISCA 1995) on the Cray T3D and Intel
//! Paragon.
//!
//! The simulator is **mechanistic**: throughput differences between access
//! patterns are not looked up from tables but *emerge* from component
//! models —
//!
//! * a closed-page [`Dram`](dram::Dram) with per-bank busy times and burst
//!   transfers (one bank on the T3D, interleaved banks on the Paragon);
//! * an on-chip [`Cache`](cache::Cache) that never holds a dirty line (tags
//!   only — data lives in [`Memory`](mem::Memory) so every simulated
//!   transfer moves real bytes);
//! * a write buffer ([`Wbq`](wbq::Wbq)) with line merging and posted-write
//!   pipelining, the T3D's "write-back queue";
//! * a stream-detecting [`ReadAhead`](readahead::ReadAhead) unit, the T3D's
//!   RDAL circuitry;
//! * a pipelined-load queue ([`Pfq`](pfq::Pfq)), the i860XP's cache-bypassing
//!   `pfld` mechanism;
//! * background engines: a contiguous-only [`Dma`](engines::Dma) with
//!   page-boundary "kick" stalls, and a flexible
//!   [`DepositEngine`](engines::DepositEngine) like the T3D annex;
//! * network-interface FIFOs ([`nic`]) with timestamped, bounded occupancy.
//!
//! All agents contend for memory through a single arbitration point, the
//! [`MemPath`](path::MemPath); time is a `u64` cycle count and each agent is
//! a state machine that a driver advances in causal (earliest-first) order.
//!
//! ## Example: measuring a local strided copy
//!
//! ```rust
//! use memcomm_memsim::node::{Node, NodeParams};
//! use memcomm_memsim::scenario;
//! use memcomm_model::AccessPattern;
//!
//! # fn main() {
//! let mut node = Node::new(NodeParams::default());
//! let words = 16 * 1024;
//! let src = node
//!     .alloc_walk(AccessPattern::Contiguous, words, None)
//!     .unwrap();
//! let dst = node
//!     .alloc_walk(AccessPattern::strided(64).unwrap(), words, None)
//!     .unwrap();
//! let m = scenario::run_local_copy(&mut node, &src, &dst).unwrap();
//! assert_eq!(m.words, words as u64);
//! assert!(m.throughput(node.clock()).as_mbps() > 0.0);
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod clock;
pub mod dram;
pub mod engines;
pub mod error;
pub mod fault;
pub mod mem;
pub mod nic;
pub mod node;
pub mod path;
pub mod pfq;
pub mod readahead;
pub mod scenario;
pub mod stats;
pub mod trace;
pub mod walk;
pub mod wbq;

pub use clock::{Clock, Cycle};
pub use error::{SimError, SimResult};
pub use fault::{FaultConfig, FaultPlan, LinkFault};
pub use node::{Node, NodeParams};
pub use stats::Measurement;
