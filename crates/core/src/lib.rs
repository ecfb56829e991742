//! # memcomm-model — the copy-transfer model
//!
//! This crate implements the *copy-transfer model* of Stricker & Gross
//! (ISCA 1995), a throughput-oriented model of inter-node communication in
//! message-passing parallel computers.
//!
//! In the model, every communication operation is a composition of **basic
//! transfers**. A basic transfer moves a stream of 64-bit words between a
//! memory access pattern and either another memory access pattern, a network
//! port, or across the network:
//!
//! | Notation | Constructor | Meaning |
//! |---|---|---|
//! | `xCy` | [`BasicTransfer::copy`] | local memory-to-memory copy by the processor |
//! | `xS0` | [`BasicTransfer::load_send`] | processor loads, stores to the NIC port |
//! | `xF0` | [`BasicTransfer::fetch_send`] | DMA/fetch engine feeds the NIC in the background |
//! | `0Ry` | [`BasicTransfer::receive_store`] | processor drains the NIC, stores to memory |
//! | `0Dy` | [`BasicTransfer::receive_deposit`] | deposit engine stores incoming data in the background |
//! | `Nd` | [`BasicTransfer::net_data`] | network transfer, data words only |
//! | `Nadp` | [`BasicTransfer::net_addr_data`] | network transfer, address-data pairs |
//!
//! where `x`/`y` are [`AccessPattern`]s: `0` a fixed port, `1` contiguous,
//! `n ≥ 2` strided with stride `n`, and `ω` indexed through an index array.
//!
//! Basic transfers compose **sequentially** (`∘`, shared resource — composite
//! throughput is the reciprocal sum) or **in parallel** (`‖`, disjoint
//! resources — composite throughput is the minimum), subject to **resource
//! constraints** (`<`) that cap the total throughput of parallel activity.
//!
//! ## Example: estimating a buffer-packing transpose on the Cray T3D
//!
//! ```rust
//! use memcomm_model::{AccessPattern, BasicTransfer, RateTable, TransferExpr, MBps};
//!
//! # fn main() -> Result<(), memcomm_model::ModelError> {
//! // Throughputs of the basic transfers (MB/s), as measured on a machine.
//! let mut rates = RateTable::new();
//! rates.insert(BasicTransfer::copy(AccessPattern::Contiguous, AccessPattern::Contiguous), MBps(93.0));
//! rates.insert(BasicTransfer::copy(AccessPattern::Contiguous, AccessPattern::strided(64)?), MBps(67.9));
//! rates.insert(BasicTransfer::load_send(AccessPattern::Contiguous), MBps(126.0));
//! rates.insert(BasicTransfer::net_data(), MBps(69.0));
//! rates.insert(BasicTransfer::receive_deposit(AccessPattern::Contiguous), MBps(142.0));
//!
//! // 1Q1024 = 1C1 o (1S0 || Nd || 0D1) o 1C1024
//! let q = TransferExpr::seq(vec![
//!     BasicTransfer::copy(AccessPattern::Contiguous, AccessPattern::Contiguous).into(),
//!     TransferExpr::par(vec![
//!         BasicTransfer::load_send(AccessPattern::Contiguous).into(),
//!         BasicTransfer::net_data().into(),
//!         BasicTransfer::receive_deposit(AccessPattern::Contiguous).into(),
//!     ])?,
//!     BasicTransfer::copy(AccessPattern::Contiguous, AccessPattern::strided(1024)?).into(),
//! ])?;
//! let estimate = q.estimate(&rates)?;
//! assert!((estimate.as_mbps() - 25.0).abs() < 0.5); // the paper's Section 3.4.1 estimate
//! # Ok(())
//! # }
//! ```
//!
//! The sibling crates build the machines this model describes:
//! `memcomm-memsim` simulates the node memory systems, `memcomm-netsim` the
//! interconnect, and `memcomm-commops` the end-to-end communication
//! operations whose measured throughput this model predicts.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod expr;
mod notation;
mod ops;
mod pattern;
mod rate;
mod rates;
mod transfer;

pub use error::ModelError;
pub use expr::{ResourceCap, TransferExpr};
pub use ops::{
    buffer_packing_expr, chained_expr, symmetric_exchange_caps, BufferPackingPlan, ChainedPlan,
    ReceiveEngine, SendEngine, Style,
};
pub use pattern::{classify_offsets, AccessPattern};
pub use rate::{MBps, Throughput};
pub use rates::RateTable;
pub use transfer::{BasicTransfer, Engine};

/// Size in bytes of the model's basic unit of transfer (a 64-bit word,
/// typically a double-precision floating-point number).
pub const WORD_BYTES: u64 = 8;
