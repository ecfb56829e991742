//! # memcomm — memory-system-aware communication for parallel computers
//!
//! A full reproduction of *Optimizing Memory System Performance for
//! Communication in Parallel Computers* (Stricker & Gross, ISCA 1995) as a
//! Rust workspace. This facade crate re-exports the public API of every
//! subsystem:
//!
//! * [`model`] — the copy-transfer model: access patterns, basic transfers,
//!   composition algebra, throughput estimation;
//! * [`memsim`] — discrete-event node memory-system simulator (DRAM, cache,
//!   write-back queue, read-ahead, pipelined loads, bus, DMA, deposit
//!   engine, NIC);
//! * [`netsim`] — interconnect simulator (mesh/torus topology, routing,
//!   traffic patterns, congestion analysis, link model);
//! * [`machines`] — Cray T3D and Intel Paragon configurations, the
//!   microbenchmark harness, and the paper's reference numbers;
//! * [`commops`] — end-to-end communication operations (buffer-packing and
//!   chained transfers, PVM-style and low-level libraries) co-simulated over
//!   two nodes;
//! * [`kernels`] — application kernels (2D-FFT transpose, FEM boundary
//!   exchange, SOR) and the compiler view (HPF distributions,
//!   redistribution schedules).
//!
//! See `examples/quickstart.rs` for a guided tour and `DESIGN.md` for the
//! system inventory and experiment index.

#![forbid(unsafe_code)]

pub use memcomm_commops as commops;
pub use memcomm_kernels as kernels;
pub use memcomm_machines as machines;
pub use memcomm_memsim as memsim;
pub use memcomm_model as model;
pub use memcomm_netsim as netsim;

/// The README's code blocks, compiled as doctests so its API snippet keeps
/// compiling.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;
