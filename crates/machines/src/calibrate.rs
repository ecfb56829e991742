//! Calibration report: simulated basic-transfer rates vs the paper's
//! published figures.

use memcomm_memsim::SimResult;
use memcomm_model::{BasicTransfer, RateTable, Throughput};

use crate::machine::Machine;
use crate::microbench;
use crate::reference;

/// One compared transfer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CalibrationRow {
    /// The basic transfer.
    pub transfer: BasicTransfer,
    /// Rate measured on the simulator.
    pub simulated: Throughput,
    /// Rate the paper reports.
    pub paper: Throughput,
}

impl CalibrationRow {
    /// `simulated / paper` — 1.0 is perfect.
    pub fn ratio(&self) -> f64 {
        self.simulated.as_mbps() / self.paper.as_mbps()
    }
}

/// Reference rates for a machine by name.
///
/// # Panics
///
/// Panics for unknown machine names.
pub fn reference_rates(machine: &Machine) -> RateTable {
    match machine.name {
        "Cray T3D" => reference::t3d_rates(),
        "Intel Paragon" => reference::paragon_rates(),
        other => panic!("no reference data for machine {other:?}"),
    }
}

/// Measures the machine and joins against the paper's tables on the
/// transfers the paper reports. Every transfer is looked up, one after
/// another in table order, through the installed memo cache (see
/// [`crate::memo`]); a sweep simulates them beforehand in its one fan-out,
/// so there they are lookups.
///
/// # Errors
///
/// Returns the first simulation error among the points (in table order).
pub fn calibration_report(machine: &Machine, words: u64) -> SimResult<Vec<CalibrationRow>> {
    // Every transfer runs before the first error returns, as in
    // `microbench::measure_table`.
    let rows: Vec<_> = reference_rates(machine)
        .iter()
        .map(|(transfer, paper)| {
            Ok(
                microbench::measure_rate(machine, transfer, words)?.map(|simulated| {
                    CalibrationRow {
                        transfer,
                        simulated,
                        paper,
                    }
                }),
            )
        })
        .collect();
    let mut out = Vec::new();
    for row in rows {
        if let Some(r) = row? {
            out.push(r);
        }
    }
    Ok(out)
}

/// Geometric-mean absolute log-ratio of a report: 0.0 means every simulated
/// rate equals the paper's; 0.3 means a typical deviation of ~35%.
pub fn mean_log_error(rows: &[CalibrationRow]) -> f64 {
    if rows.is_empty() {
        return 0.0;
    }
    rows.iter().map(|r| r.ratio().ln().abs()).sum::<f64>() / rows.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    const WORDS: u64 = 8192;

    fn rate(rows: &[CalibrationRow], s: &str) -> f64 {
        let t = BasicTransfer::parse(s).unwrap();
        rows.iter()
            .find(|r| r.transfer == t)
            .unwrap_or_else(|| panic!("{s} missing from report"))
            .simulated
            .as_mbps()
    }

    #[test]
    fn t3d_orderings_match_the_paper() {
        let rows = calibration_report(&Machine::t3d(), WORDS).unwrap();
        // Contiguous > strided > indexed-gather for local copies.
        assert!(rate(&rows, "1C1") > rate(&rows, "1C64"));
        assert!(rate(&rows, "1C64") > rate(&rows, "wC1"));
        // Strided stores beat strided loads (the write-back queue).
        assert!(rate(&rows, "1C64") > rate(&rows, "64C1"));
        // The annex deposits contiguous streams much faster than strided.
        assert!(rate(&rows, "0D1") > 1.5 * rate(&rows, "0D64"));
        // Contiguous send is far faster than strided send.
        assert!(rate(&rows, "1S0") > 2.0 * rate(&rows, "64S0"));
    }

    #[test]
    fn paragon_orderings_match_the_paper() {
        let rows = calibration_report(&Machine::paragon(), WORDS).unwrap();
        // Strided loads beat strided stores (pipelined loads).
        assert!(
            rate(&rows, "64C1") > rate(&rows, "1C64"),
            "64C1 {} !> 1C64 {}",
            rate(&rows, "64C1"),
            rate(&rows, "1C64")
        );
        // The DMA beats the processor for contiguous sends.
        assert!(rate(&rows, "1F0") > 2.0 * rate(&rows, "1S0"));
        // Indexed gathers do comparatively well (interleaved banks).
        assert!(rate(&rows, "wC1") > rate(&rows, "64C1") * 0.9);
    }

    #[test]
    fn simulated_magnitudes_are_in_the_papers_range() {
        for machine in [Machine::t3d(), Machine::paragon()] {
            let rows = calibration_report(&machine, WORDS).unwrap();
            assert!(rows.len() >= 12, "{}: {} rows", machine.name, rows.len());
            let err = mean_log_error(&rows);
            assert!(
                err < 0.45,
                "{}: mean log error {err:.2} (typical deviation {:.0}%)",
                machine.name,
                (err.exp() - 1.0) * 100.0
            );
            for r in &rows {
                assert!(
                    r.ratio() > 0.4 && r.ratio() < 2.5,
                    "{}: {} simulated {} vs paper {}",
                    machine.name,
                    r.transfer,
                    r.simulated,
                    r.paper
                );
            }
        }
    }
}
