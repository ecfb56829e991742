//! # memcomm-commops — end-to-end communication operations
//!
//! The compiler's performance-critical operation is the local-to-remote
//! memory copy `xQy`. This crate implements its two families on the
//! simulated machines and measures them end to end:
//!
//! * **buffer packing** ([`Style::BufferPacking`]): gather into a contiguous
//!   buffer, move the block over the data-only network, scatter at the
//!   destination — chunked and pipelined, the processor time-sharing its
//!   roles exactly as the model's sequential-composition rule describes;
//! * **chained** ([`Style::Chained`]): gather, transfer and scatter in one
//!   step; non-contiguous patterns send address-data pairs so the receiving
//!   engine (the T3D annex, or the Paragon's co-processor) can store each
//!   word directly at its home.
//!
//! Measurements are **symmetric exchanges**: both nodes send and receive
//! simultaneously (the situation of a transpose or AAPC step, and the reason
//! the model's resource constraint `2 × |xQy| < |0Cx|` exists). Every
//! simulated transfer moves real data and is verified.
//!
//! [`library`] adds the message-library layer (PVM-style buffered messaging
//! vs a low-level put interface) behind Figure 1; its cost profile,
//! [`LibraryProfile`], also prices the Table 6 kernels' rounds.
//!
//! ```rust
//! use memcomm_commops::{run_exchange, ExchangeConfig, Style};
//! use memcomm_machines::Machine;
//! use memcomm_model::AccessPattern;
//!
//! # fn main() -> Result<(), memcomm_memsim::SimError> {
//! let t3d = Machine::t3d();
//! let cfg = ExchangeConfig { words: 2048, ..ExchangeConfig::default() };
//! let bp = run_exchange(&t3d, AccessPattern::Contiguous, AccessPattern::Strided(64),
//!                       Style::BufferPacking, &cfg)?;
//! let ch = run_exchange(&t3d, AccessPattern::Contiguous, AccessPattern::Strided(64),
//!                       Style::Chained, &cfg)?;
//! assert!(bp.verified && ch.verified);
//! // Chaining beats buffer packing for strided destinations.
//! assert!(ch.per_node(t3d.clock()) > bp.per_node(t3d.clock()));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collectives;
pub mod datatype;
mod drive;
pub mod exchange;
pub mod get;
pub mod layout;
pub mod library;
pub mod protocol;
pub mod roles;

pub use collectives::Collective;
pub use datatype::{run_datatype_exchange, Datatype, DatatypeMethod};
pub use exchange::{
    exchange_point, run_exchange, run_exchange_specs, ExchangeConfig, ExchangeResult,
    PhaseTimeline, Style,
};
pub use get::{get_point, run_get_exchange};
pub use layout::WalkSpec;
pub use library::{measure_message, message_point, LibraryProfile};
pub use protocol::{
    blend_rates, cached_resilient_transfer, resilient_point, run_resilient_transfer,
    ProtocolConfig, TransferReport,
};

use memcomm_machines::memo::{Point, Value};
use memcomm_machines::{microbench, Machine};
use memcomm_memsim::fault::FaultPlan;
use memcomm_memsim::SimResult;

/// Measures one memo point on `machine` through the installed cache, by
/// the entry function that looks the point up: [`microbench::measure_basic`],
/// [`run_exchange`], [`run_get_exchange`], [`measure_message`],
/// [`microbench::measure_wire`] or [`cached_resilient_transfer`], called
/// with the inputs the point holds. So a point measured here is a hit for
/// that function's own later call with the same inputs, and a sweep can
/// simulate every point it will look up before it looks any up.
///
/// # Errors
///
/// Propagates the entry function's simulation error (memoized like a
/// value).
pub fn measure_point(machine: &Machine, point: Point) -> SimResult<Value> {
    Ok(match point {
        Point::Basic { transfer, words } => {
            Value::Basic(microbench::measure_basic(machine, transfer, words)?)
        }
        Point::Exchange { x, y, style, cfg } => {
            Value::Exchange(run_exchange(machine, x, y, style, &cfg)?)
        }
        Point::Get { x, y, cfg } => Value::Exchange(run_get_exchange(machine, x, y, &cfg)?),
        Point::Message { profile, words } => {
            Value::Message(measure_message(machine, profile, words)?)
        }
        Point::Wire {
            congestion_bits,
            words,
            address_data_pairs,
        } => Value::Wire(microbench::measure_wire(
            machine,
            f64::from_bits(congestion_bits),
            words,
            address_data_pairs,
        )?),
        Point::Resilient {
            x,
            y,
            style,
            faults,
            protocol,
        } => Value::Resilient(cached_resilient_transfer(
            machine,
            x,
            y,
            style,
            FaultPlan::new(faults),
            &protocol,
        )?),
    })
}
