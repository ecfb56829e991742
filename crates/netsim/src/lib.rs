//! # memcomm-netsim — interconnect simulator
//!
//! The network side of the reproduction: mesh/torus topologies with
//! dimension-order routing, the traffic patterns of the paper's kernels
//! (cyclic shift, transpose/all-to-all-personalized, random permutations,
//! irregular graph exchanges), flow-level congestion analysis, and a
//! word-granular [`Link`] used by the end-to-end co-simulations.
//!
//! The paper's model deliberately reduces the network to a bandwidth at a
//! given *congestion* factor (Table 4): "congestion two means a network link
//! is traversed by twice as much data as it can support at peak speed."
//! This crate both reproduces that reduction (the [`link`] model scales its
//! bandwidth by a congestion factor and distinguishes data-only from
//! address-data-pair framing) and derives congestion factors from real
//! traffic patterns on real topologies ([`congestion`]), including the
//! T3D's quirk that two adjacent nodes share one network port.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod barrier;
pub mod congestion;
pub mod engine;
pub mod heatmap;
pub mod link;
pub mod routing;
pub mod topology;
pub mod traffic;

pub use adversary::{AdversaryConfig, AdversaryKind, AdversaryTraffic};
pub use barrier::barrier_cycles;
pub use congestion::{pattern_congestion, CongestionReport};
pub use engine::{run_flows, run_schedule, EngineConfig, EngineOutcome};
pub use link::{Link, LinkParams};
pub use topology::{NodeId, Topology};
pub use traffic::Flow;
