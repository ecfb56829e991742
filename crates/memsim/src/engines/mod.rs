//! The agents that move data: processor roles, DMA, deposit engine.
//!
//! Each engine is a resumable state machine advanced by a driver through
//! `step(...)` calls that return a [`Step`]: drivers advance the engine with
//! the earliest local time that is not [`Step::Blocked`], which keeps the
//! shared [`MemPath`](crate::path::MemPath) request stream causally ordered.

mod annex;
mod cpu;
mod deposit;
mod dma;

pub use annex::AnnexEngine;
pub use cpu::{Cpu, CpuParams, CpuReceiver, CpuSender, LocalCopier};
pub use deposit::{DepositEngine, DepositMode, DepositParams};
pub use dma::{Dma, DmaParams};

/// Result of advancing an engine by one unit of work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Step {
    /// Work was done; the engine's local time advanced.
    Progressed,
    /// The engine is waiting on a FIFO; advance its counterpart first.
    Blocked,
    /// The engine has finished its assignment.
    Done,
}
