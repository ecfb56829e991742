//! # memcomm-machines — the Cray T3D and Intel Paragon
//!
//! Calibrated simulator configurations for the two machines the paper
//! measures, the microbenchmark harness that measures every basic transfer
//! on the simulated nodes ([`microbench`]), the paper's published figures
//! ([`reference`](mod@reference)) and a calibration report comparing the two
//! ([`calibrate`]).
//!
//! Calibration is **parameter-level, not output-level**: the configurations
//! set component timings (DRAM row hit/miss cycles, cache geometry, issue
//! costs) from published mid-1990s hardware characteristics, and the
//! throughputs of Tables 1–4 *emerge* from simulation. The reference tables
//! exist only to quantify how close the emergent numbers come.
//!
//! ```rust
//! use memcomm_machines::{microbench, Machine};
//! use memcomm_model::BasicTransfer;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let t3d = Machine::t3d();
//! let rates = microbench::measure_table(&t3d, 4096)?;
//! let c11 = rates.rate(BasicTransfer::parse("1C1")?)?;
//! let c64 = rates.rate(BasicTransfer::parse("1C64")?)?;
//! assert!(c11 > c64, "contiguous copies beat strided copies");
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibrate;
pub mod machine;
pub mod memo;
pub mod microbench;
pub mod reference;

pub use machine::Machine;
