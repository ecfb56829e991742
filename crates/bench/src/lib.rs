//! # memcomm-bench — the reproduction harness
//!
//! One function per table and figure of the paper's evaluation. Each
//! returns machine-readable rows that the `repro` binary renders as the
//! same tables/series the paper prints. The [`runner`] module is the
//! parallel, memoized sweep engine tying them together: it fans points
//! across workers, routes every deterministic measurement through the
//! run's memo cache, and splits its output into a byte-deterministic report
//! plus separate run metrics.
//!
//! | Function | Reproduces |
//! |---|---|
//! | [`experiments::figure1`] | Fig. 1 — PVM vs low-level library throughput vs message size |
//! | [`experiments::table1`] | Table 1 — local memory-to-memory copies |
//! | [`experiments::figure4`] | Fig. 4 — local copy throughput vs stride |
//! | [`experiments::table2`] / [`experiments::table3`] | Tables 2–3 — send / receive transfers |
//! | [`experiments::table4`] | Table 4 — network bandwidth vs congestion |
//! | [`experiments::section5`] | §5.1.1–5.1.4 + Figs. 7–8 — buffer packing vs chained |
//! | [`experiments::table5`] | Table 5 — strided loads vs strided stores |
//! | [`experiments::section341`] | §3.4.1 — the worked `1Q1024` example |
//! | [`experiments::table6`] | Table 6 — application kernels (+ PVM3 text figures) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adversary;
pub mod collectives;
pub mod experiments;
pub mod phases;
pub mod report;
pub mod runner;
pub mod service;
