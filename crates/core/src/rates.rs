//! Tables of measured basic-transfer throughputs.

use std::collections::BTreeMap;

use crate::{AccessPattern, BasicTransfer, Engine, ModelError, Throughput};

/// A table of measured throughputs for basic transfers, the input to
/// [`TransferExpr::estimate`](crate::TransferExpr::estimate).
///
/// Tables are populated either from the microbenchmarks that
/// `memcomm-machines` runs on the simulated nodes, or from the paper's
/// published figures for comparison.
///
/// ## Stride interpolation
///
/// Strided patterns form a family; a table rarely holds every stride. A
/// lookup for `Strided(s)` without an exact entry interpolates linearly in
/// `ln(stride)` between the nearest measured strides of the same transfer
/// shape, clamping outside the measured range. This encodes the paper's
/// observation that "the numbers do not vary for large strides, \[so\] the
/// throughput for stride 64 applies to any larger stride" while still
/// modelling the contiguous→strided falloff at small strides.
///
/// # Examples
///
/// ```rust
/// use memcomm_model::{AccessPattern, BasicTransfer, MBps, RateTable};
///
/// # fn main() -> Result<(), memcomm_model::ModelError> {
/// let mut table = RateTable::new();
/// let c8 = BasicTransfer::copy(AccessPattern::Contiguous, AccessPattern::strided(8)?);
/// let c64 = BasicTransfer::copy(AccessPattern::Contiguous, AccessPattern::strided(64)?);
/// table.insert(c8, MBps(80.0));
/// table.insert(c64, MBps(68.0));
///
/// // Stride 1024 clamps to the stride-64 entry.
/// let c1024 = BasicTransfer::copy(AccessPattern::Contiguous, AccessPattern::strided(1024)?);
/// assert_eq!(table.rate(c1024)?, MBps(68.0));
/// // Stride 16 interpolates between 8 and 64.
/// let c16 = BasicTransfer::copy(AccessPattern::Contiguous, AccessPattern::strided(16)?);
/// let r = table.rate(c16)?.as_mbps();
/// assert!(r < 80.0 && r > 68.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RateTable {
    entries: BTreeMap<BasicTransfer, Throughput>,
}

impl RateTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        RateTable::default()
    }

    /// Inserts (or replaces) the measured rate for a basic transfer,
    /// returning the previous rate if any.
    pub fn insert(&mut self, transfer: BasicTransfer, rate: Throughput) -> Option<Throughput> {
        self.entries.insert(transfer, rate)
    }

    /// The exact entry for a transfer, without interpolation.
    pub fn get(&self, transfer: BasicTransfer) -> Option<Throughput> {
        self.entries.get(&transfer).copied()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over all `(transfer, rate)` entries in notation order.
    pub fn iter(&self) -> impl Iterator<Item = (BasicTransfer, Throughput)> + '_ {
        self.entries.iter().map(|(t, r)| (*t, *r))
    }

    /// Copies all entries of `other` into `self`, overwriting duplicates.
    pub fn extend_from(&mut self, other: &RateTable) {
        for (t, r) in other.iter() {
            self.entries.insert(t, r);
        }
    }

    /// Looks up (or interpolates) the throughput of a basic transfer.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::MissingRate`] if there is neither an exact entry
    /// nor any strided anchor of the same transfer shape to interpolate from.
    pub fn rate(&self, transfer: BasicTransfer) -> Result<Throughput, ModelError> {
        if let Some(rate) = self.get(transfer) {
            return Ok(rate);
        }
        // Interpolate along the strided side, holding the other side fixed.
        if let AccessPattern::Strided(s) = transfer.read_pattern() {
            if let Some(rate) = self.interpolate(transfer.engine(), s, Side::Read, transfer) {
                return Ok(rate);
            }
        }
        if let AccessPattern::Strided(s) = transfer.write_pattern() {
            if let Some(rate) = self.interpolate(transfer.engine(), s, Side::Write, transfer) {
                return Ok(rate);
            }
        }
        Err(ModelError::MissingRate(transfer))
    }

    fn interpolate(
        &self,
        engine: Engine,
        stride: u32,
        side: Side,
        probe: BasicTransfer,
    ) -> Option<Throughput> {
        let mut anchors: Vec<(u32, f64)> = self
            .entries
            .iter()
            .filter_map(|(t, r)| {
                if t.engine() != engine {
                    return None;
                }
                let (varying, fixed_probe, fixed_entry) = match side {
                    Side::Read => (t.read_pattern(), probe.write_pattern(), t.write_pattern()),
                    Side::Write => (t.write_pattern(), probe.read_pattern(), t.read_pattern()),
                };
                if fixed_entry != fixed_probe {
                    return None;
                }
                match varying {
                    AccessPattern::Strided(a) => Some((a, r.as_mbps())),
                    _ => None,
                }
            })
            .collect();
        if anchors.is_empty() {
            return None;
        }
        anchors.sort_unstable_by_key(|(a, _)| *a);
        let first = anchors[0];
        let last = anchors[anchors.len() - 1];
        if stride <= first.0 {
            return Some(Throughput::from_mbps(first.1));
        }
        if stride >= last.0 {
            return Some(Throughput::from_mbps(last.1));
        }
        let hi = anchors.iter().position(|(a, _)| *a >= stride)?;
        let (a0, r0) = anchors[hi - 1];
        let (a1, r1) = anchors[hi];
        let t = ((stride as f64).ln() - (a0 as f64).ln()) / ((a1 as f64).ln() - (a0 as f64).ln());
        Some(Throughput::from_mbps(r0 + (r1 - r0) * t))
    }
}

#[derive(Clone, Copy)]
enum Side {
    Read,
    Write,
}

impl FromIterator<(BasicTransfer, Throughput)> for RateTable {
    fn from_iter<I: IntoIterator<Item = (BasicTransfer, Throughput)>>(iter: I) -> Self {
        RateTable {
            entries: iter.into_iter().collect(),
        }
    }
}

impl Extend<(BasicTransfer, Throughput)> for RateTable {
    fn extend<I: IntoIterator<Item = (BasicTransfer, Throughput)>>(&mut self, iter: I) {
        self.entries.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MBps;

    fn strided_copy(s: u32) -> BasicTransfer {
        BasicTransfer::copy(
            AccessPattern::Contiguous,
            AccessPattern::strided(s).unwrap(),
        )
    }

    fn table_with_anchors() -> RateTable {
        let mut t = RateTable::new();
        t.insert(strided_copy(2), MBps(90.0));
        t.insert(strided_copy(8), MBps(80.0));
        t.insert(strided_copy(64), MBps(68.0));
        t
    }

    #[test]
    fn exact_hit_wins() {
        let t = table_with_anchors();
        assert_eq!(t.rate(strided_copy(8)).unwrap(), MBps(80.0));
    }

    #[test]
    fn clamps_above_largest_anchor() {
        let t = table_with_anchors();
        assert_eq!(t.rate(strided_copy(1024)).unwrap(), MBps(68.0));
    }

    #[test]
    fn clamps_below_smallest_anchor() {
        // No contiguous entry: stride 2 is the smallest anchor; nothing
        // smaller exists to ask for except contiguous, which is a different
        // pattern and must not be served by interpolation.
        let t = table_with_anchors();
        let contiguous = BasicTransfer::copy(AccessPattern::Contiguous, AccessPattern::Contiguous);
        assert!(matches!(
            t.rate(contiguous),
            Err(ModelError::MissingRate(_))
        ));
    }

    #[test]
    fn interpolates_between_anchors() {
        let t = table_with_anchors();
        let r16 = t.rate(strided_copy(16)).unwrap().as_mbps();
        assert!(r16 < 80.0 && r16 > 68.0, "got {r16}");
        // Log interpolation: stride 16 is 1/3 of the way from 8 to 64 in
        // log space.
        let expected = 80.0 + (68.0 - 80.0) / 3.0;
        assert!((r16 - expected).abs() < 1e-9);
    }

    #[test]
    fn interpolation_respects_transfer_shape() {
        // Anchors for 1C_s must not answer queries for sC1.
        let t = table_with_anchors();
        let transposed = BasicTransfer::copy(
            AccessPattern::strided(16).unwrap(),
            AccessPattern::Contiguous,
        );
        assert!(matches!(
            t.rate(transposed),
            Err(ModelError::MissingRate(_))
        ));
    }

    #[test]
    fn send_strides_interpolate_too() {
        let mut t = RateTable::new();
        t.insert(
            BasicTransfer::load_send(AccessPattern::strided(2).unwrap()),
            MBps(50.0),
        );
        t.insert(
            BasicTransfer::load_send(AccessPattern::strided(64).unwrap()),
            MBps(35.0),
        );
        let r = t
            .rate(BasicTransfer::load_send(
                AccessPattern::strided(16).unwrap(),
            ))
            .unwrap()
            .as_mbps();
        assert!(r < 50.0 && r > 35.0);
    }

    #[test]
    fn from_iterator_collects() {
        let t: RateTable = vec![(BasicTransfer::net_data(), MBps(69.0))]
            .into_iter()
            .collect();
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
    }

    #[test]
    fn extend_from_overwrites() {
        let mut a = RateTable::new();
        a.insert(BasicTransfer::net_data(), MBps(69.0));
        let mut b = RateTable::new();
        b.insert(BasicTransfer::net_data(), MBps(142.0));
        a.extend_from(&b);
        assert_eq!(a.rate(BasicTransfer::net_data()).unwrap(), MBps(142.0));
    }
}
