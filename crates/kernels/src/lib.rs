//! # memcomm-kernels — the compiler view and the application kernels
//!
//! The paper motivates the copy-transfer model with the communication a
//! parallelizing (HPF-style) compiler generates. This crate provides that
//! layer and the three application kernels of Section 6:
//!
//! * [`distribution`] — HPF block / cyclic / block-cyclic array
//!   distributions;
//! * [`schedule`] — redistribution schedules: which elements travel between
//!   which nodes, and what memory access pattern each side of the transfer
//!   exhibits (contiguous, strided, or indexed);
//! * [`fft`] — a radix-2 complex FFT (the computation around the paper's
//!   transpose);
//! * [`mesh`] — a synthetic partitioned irregular 3D mesh standing in for
//!   the Quake project's alluvial-valley model (Section 6.1.2);
//! * [`apps`] — the three kernels of Table 6 (2D-FFT transpose, FEM
//!   boundary exchange, SOR halo shift): each struct holds its
//!   decomposition, and one [`Table6Kernel`] prices any of them end to end
//!   on the simulated T3D/Paragon with buffer-packing, chained, and
//!   PVM-style communication;
//! * [`netrun`] — the same kernels executed on the sharded discrete-event
//!   network engine, whose emergent congestion factor stands beside the
//!   analytic one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod apps;
pub mod distribution;
pub mod fft;
pub mod mesh;
pub mod netrun;
pub mod schedule;

pub use apps::{FemKernel, KernelMeasurement, SorKernel, Table6Kernel, TransposeKernel};
pub use distribution::Distribution;
pub use netrun::EngineOptions;
