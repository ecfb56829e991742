//! # memcomm-util — dependency-free support code
//!
//! The reproduction runs in fully offline environments, so everything that
//! would normally come from a crates.io dependency lives here instead:
//!
//! * [`json`] — a small JSON value type with deterministic pretty rendering
//!   and a recursive-descent parser (replaces `serde`/`serde_json`);
//! * [`rng`] — splitmix64-based deterministic pseudo-randomness with
//!   shuffling and range helpers (replaces `rand`);
//! * [`par`] — an order-preserving scoped-thread parallel map plus a
//!   process-wide default worker count (replaces `rayon` for our fan-out
//!   needs);
//! * [`check`] — a tiny property-test harness over [`rng`] (replaces
//!   `proptest` for the repository's property tiers);
//! * [`arena`] — a freelist slab with intrusive links (replaces `slab`);
//! * [`frame`] — length-prefixed message framing over `io::Read`/`Write`
//!   streams, the wire discipline of the simulation service.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arena;
pub mod backoff;
pub mod check;
pub mod frame;
pub mod json;
pub mod par;
pub mod rng;
