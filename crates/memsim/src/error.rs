//! Typed simulation errors.
//!
//! Co-simulations used to `panic!` the moment an engine starved or a FIFO
//! wedged, killing the whole sweep. Every simulation path now surfaces a
//! [`SimError`] instead, so a driver can report *why* a point failed (and
//! under fault injection, *that* it failed by design) while the rest of the
//! sweep keeps running.
//!
//! Error messages are deterministic: they mention local cycle counts and
//! engine names but never wall-clock data or addresses of host objects, so
//! a report that embeds them stays byte-identical across runs.

use std::fmt;

use crate::clock::Cycle;

/// Why a simulation could not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// An engine blocked waiting for input that can never arrive.
    Starved {
        /// The engine that starved.
        engine: &'static str,
        /// Its local cycle count when it starved.
        at: Cycle,
    },
    /// The watchdog's step bound elapsed with agents still unfinished —
    /// the co-simulation stopped making progress.
    Wedged {
        /// The driver or engine being watched.
        engine: &'static str,
        /// Latest local cycle count observed.
        at: Cycle,
        /// Steps taken before the watchdog fired.
        steps: u64,
    },
    /// The experiment's cycle budget elapsed before the transfer finished.
    CycleBudget {
        /// The configured budget.
        budget: Cycle,
        /// The cycle count that exceeded it.
        at: Cycle,
    },
    /// No agent could make progress but work remained — a wiring bug or a
    /// fault-induced wedge.
    Deadlock {
        /// Which agents were still unfinished.
        detail: String,
        /// Earliest local time among the stuck agents.
        at: Cycle,
    },
    /// A protocol violation: unexpected word kind, retries exhausted,
    /// checksum failure that could not be recovered.
    Protocol {
        /// What went wrong.
        detail: String,
        /// Local cycle count of the detecting engine.
        at: Cycle,
    },
    /// A walk could not be constructed over the requested pattern.
    InvalidWalk {
        /// What was wrong with the request.
        detail: String,
    },
    /// The node memory cannot hold the requested allocation.
    OutOfMemory {
        /// Bytes the allocation needed.
        need_bytes: u64,
        /// Bytes the node memory holds in total.
        have_bytes: u64,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Starved { engine, at } => {
                write!(f, "{engine} starved at cycle {at}")
            }
            SimError::Wedged { engine, at, steps } => {
                write!(
                    f,
                    "{engine} made no progress after {steps} steps (cycle {at})"
                )
            }
            SimError::CycleBudget { budget, at } => {
                write!(f, "cycle budget {budget} exceeded at cycle {at}")
            }
            SimError::Deadlock { detail, at } => {
                write!(f, "co-simulation deadlocked at cycle {at}: {detail}")
            }
            SimError::Protocol { detail, at } => {
                write!(f, "protocol error at cycle {at}: {detail}")
            }
            SimError::InvalidWalk { detail } => write!(f, "invalid walk: {detail}"),
            SimError::OutOfMemory {
                need_bytes,
                have_bytes,
            } => write!(
                f,
                "node memory exhausted: need {need_bytes} bytes, have {have_bytes}"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Shorthand for simulation results.
pub type SimResult<T> = Result<T, SimError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_deterministic_and_lowercase() {
        let e = SimError::Starved {
            engine: "deposit engine",
            at: 42,
        };
        assert_eq!(e.to_string(), "deposit engine starved at cycle 42");
        let e = SimError::OutOfMemory {
            need_bytes: 100,
            have_bytes: 64,
        };
        assert_eq!(
            e.to_string(),
            "node memory exhausted: need 100 bytes, have 64"
        );
    }

    #[test]
    fn errors_compare_and_clone() {
        let a = SimError::CycleBudget { budget: 10, at: 11 };
        assert_eq!(a.clone(), a);
        assert_ne!(
            a,
            SimError::CycleBudget { budget: 10, at: 12 },
            "distinct cycles are distinct errors"
        );
    }
}
