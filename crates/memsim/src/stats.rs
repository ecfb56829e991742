//! Measurement results and process-wide simulation counters.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::clock::{Clock, Cycle};
use memcomm_model::Throughput;

static SIM_CYCLES: AtomicU64 = AtomicU64::new(0);
static SIM_WORDS: AtomicU64 = AtomicU64::new(0);
static MEASUREMENTS: AtomicU64 = AtomicU64::new(0);

/// Canonical names of the per-run fault counters in the `memcomm-obs`
/// metrics registry. Injection sites (`netsim::Link::step`, the NIC FIFO
/// push, the protocol's outage check) count under these names; the sweep
/// engine reads them back into a [`FaultCounters`] snapshot.
pub mod fault_metric {
    /// Fault decisions that fired (drops, corruptions, delays, stalls,
    /// outages).
    pub const INJECTED: &str = "faults.injected";
    /// Protocol frame retransmissions.
    pub const RETRIED: &str = "faults.retried";
    /// Transfers that fell back from chained to buffer packing.
    pub const DEGRADED: &str = "faults.degraded";
    /// Wire words dropped by link faults.
    pub const DROPPED: &str = "faults.dropped";
}

/// A snapshot of one run's fault counters. Counts are *observability data*
/// like wall times: their totals are deterministic for a given fault plan,
/// but they must never enter a byte-deterministic report (per-point counts
/// belong there instead). Sourced exclusively from the per-run
/// `memcomm-obs` registry via [`FaultCounters::from_obs`], so concurrent
/// runs with separate registries never bleed counts into each other (the
/// process-wide statics that once backed these counters are gone).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultCounters {
    /// Fault decisions that fired (drops, corruptions, delays, stalls,
    /// outages).
    pub injected: u64,
    /// Protocol frame retransmissions.
    pub retried: u64,
    /// Transfers that fell back from chained to buffer packing.
    pub degraded: u64,
    /// Wire words dropped by link faults.
    pub dropped: u64,
}

impl FaultCounters {
    /// Counter deltas since an earlier snapshot.
    pub fn since(self, earlier: FaultCounters) -> FaultCounters {
        FaultCounters {
            injected: self.injected.wrapping_sub(earlier.injected),
            retried: self.retried.wrapping_sub(earlier.retried),
            degraded: self.degraded.wrapping_sub(earlier.degraded),
            dropped: self.dropped.wrapping_sub(earlier.dropped),
        }
    }

    /// Reads one run's fault counters out of its `memcomm-obs` registry
    /// (all zeros for a disabled handle — no faults could have been
    /// recorded anywhere else).
    pub fn from_obs(obs: &memcomm_obs::Obs) -> FaultCounters {
        FaultCounters {
            injected: obs.counter(fault_metric::INJECTED),
            retried: obs.counter(fault_metric::RETRIED),
            degraded: obs.counter(fault_metric::DEGRADED),
            dropped: obs.counter(fault_metric::DROPPED),
        }
    }
}

/// A snapshot of the process-wide simulation counters: every
/// [`Measurement`] ever constructed adds to them, so a sweep engine can
/// report how much simulated machine time a run covered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimCounters {
    /// Total simulated cycles across all measurements.
    pub cycles: u64,
    /// Total payload words across all measurements.
    pub words: u64,
    /// Number of measurements constructed.
    pub measurements: u64,
}

/// Reads the current counters.
pub fn counters() -> SimCounters {
    SimCounters {
        cycles: SIM_CYCLES.load(Ordering::Relaxed),
        words: SIM_WORDS.load(Ordering::Relaxed),
        measurements: MEASUREMENTS.load(Ordering::Relaxed),
    }
}

impl SimCounters {
    /// Counter deltas since an earlier snapshot.
    pub fn since(self, earlier: SimCounters) -> SimCounters {
        SimCounters {
            cycles: self.cycles.wrapping_sub(earlier.cycles),
            words: self.words.wrapping_sub(earlier.words),
            measurements: self.measurements.wrapping_sub(earlier.measurements),
        }
    }
}

/// The result of one simulated transfer measurement: how many 64-bit words
/// of *payload* moved and how many cycles the operation took end to end.
///
/// Following the paper, auxiliary traffic (headers, addresses, index loads)
/// consumes time but never counts as payload: "these operations, although
/// possibly consuming raw bandwidth, do not contribute to the net bandwidth
/// an application is interested in."
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Measurement {
    /// Payload words moved.
    pub words: u64,
    /// End-to-end duration in cycles.
    pub cycles: Cycle,
}

impl Measurement {
    /// Creates a measurement and records it in the process-wide
    /// [`counters`].
    pub fn new(words: u64, cycles: Cycle) -> Self {
        SIM_CYCLES.fetch_add(cycles, Ordering::Relaxed);
        SIM_WORDS.fetch_add(words, Ordering::Relaxed);
        MEASUREMENTS.fetch_add(1, Ordering::Relaxed);
        Measurement { words, cycles }
    }

    /// Payload bytes moved.
    pub fn bytes(&self) -> u64 {
        self.words * crate::mem::WORD_BYTES
    }

    /// Average cycles per payload word.
    pub fn cycles_per_word(&self) -> f64 {
        if self.words == 0 {
            0.0
        } else {
            self.cycles as f64 / self.words as f64
        }
    }

    /// Effective throughput under the given clock.
    pub fn throughput(&self, clock: Clock) -> Throughput {
        clock.throughput(self.bytes(), self.cycles)
    }
}

/// Per-stage completion cycles of one two-node exchange, in pipeline order.
/// This is pure simulation data (deterministic, independent of
/// observability), so it may enter byte-deterministic reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseTimeline {
    /// Cycle each stage *finished*, indexed by [`PhaseTimeline::STAGES`].
    /// `0` means the stage did not occur in this configuration (e.g. no
    /// pack stage in a chained transfer).
    pub completion: [Cycle; 5],
}

impl PhaseTimeline {
    /// Stage names, in pipeline order: pack the send buffer, feed the NIC,
    /// cross the wire, deposit into the receive side, unpack into place.
    pub const STAGES: [&'static str; 5] = ["pack", "send", "wire", "deposit", "unpack"];

    /// Telescoped per-stage marginal cycles: each present stage is charged
    /// the cycles between the previous present stage's completion and its
    /// own (clamped monotone), and the last present stage absorbs any tail
    /// up to `end_cycle` — so the marginals always sum to exactly
    /// `end_cycle`. Absent stages get zero.
    pub fn marginals(&self, end_cycle: Cycle) -> [Cycle; 5] {
        let mut out = [0; 5];
        let mut running = 0;
        let mut last_present = None;
        for (i, &completion) in self.completion.iter().enumerate() {
            if completion == 0 {
                continue;
            }
            let c = completion.clamp(running, end_cycle);
            out[i] = c - running;
            running = c;
            last_present = Some(i);
        }
        // Attribute the tail (agents idling out the clock, or an exchange
        // with no stage markers at all) to the last stage that ran — or to
        // the wire, which every exchange crosses.
        out[last_present.unwrap_or(2)] += end_cycle - running;
        out
    }
}

/// Result of a symmetric two-node exchange (put- or get-based), as the
/// communication layer's co-simulation measures it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExchangeResult {
    /// Payload words each node moved in each direction.
    pub words: u64,
    /// Cycle at which the last agent finished.
    pub end_cycle: Cycle,
    /// Whether both destinations hold exactly the peer's data.
    pub verified: bool,
    /// Per-stage completion cycles in the A→B direction.
    pub phases: PhaseTimeline,
}

impl ExchangeResult {
    /// Per-node throughput: one direction's payload over the total time —
    /// the paper's "MB/s per node" metric.
    pub fn per_node(&self, clock: Clock) -> Throughput {
        self.measurement().throughput(clock)
    }

    /// The raw measurement (words, cycles).
    pub fn measurement(&self) -> Measurement {
        Measurement::new(self.words, self.end_cycle)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn throughput_and_cycles_per_word() {
        let m = Measurement::new(1000, 12_000);
        assert!((m.cycles_per_word() - 12.0).abs() < 1e-12);
        let clock = Clock::from_mhz(150.0);
        // 8 bytes / 12 cycles at 150 MHz = 100 MB/s.
        assert!((m.throughput(clock).as_mbps() - 100.0).abs() < 1e-9);
        assert_eq!(m.bytes(), 8000);
    }

    #[test]
    fn empty_measurement_is_zero() {
        let m = Measurement::new(0, 0);
        assert_eq!(m.cycles_per_word(), 0.0);
        assert_eq!(m.throughput(Clock::from_mhz(100.0)).as_mbps(), 0.0);
    }
}
