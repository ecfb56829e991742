//! Exchange parameters, measurement results and the per-run simulation
//! and fault counters.

use std::hash::{Hash, Hasher};

use crate::clock::{Clock, Cycle};
use memcomm_model::Throughput;

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

/// The registry names [`count_simulation`] counts under.
const SIM_METRICS: [&str; 3] = ["sim.cycles", "sim.words", "sim.measurements"];
/// The registry names [`count_drive`] counts under.
const DRIVE_METRICS: [&str; 2] = ["sim.drive_steps", "sim.drive_blocked"];

/// Counts one simulation of `words` payload words in `cycles` into the
/// installed run's registry (a no-op with none installed). A simulation
/// counts once, where its result is built ([`Measurement::new`], or the
/// communication layer's co-simulated exchange, get or message); reading a
/// result back counts nothing.
pub fn count_simulation(words: u64, cycles: Cycle) {
    let obs = memcomm_obs::Obs::current();
    for (name, delta) in SIM_METRICS.into_iter().zip([cycles, words, 1]) {
        obs.count(name, delta);
    }
}

/// Counts one run of the two-node co-simulation driver into the installed
/// run's registry (a no-op with none installed): its `steps` (moves) and
/// its step calls that returned `Blocked`. Like [`count_simulation`], a
/// run counts once, when it ends; reading a memoized result counts nothing.
pub fn count_drive(steps: u64, blocked: u64) {
    let obs = memcomm_obs::Obs::current();
    for (name, delta) in DRIVE_METRICS.into_iter().zip([steps, blocked]) {
        obs.count(name, delta);
    }
}

/// A snapshot of one run's simulation counters, so a sweep engine can
/// report how much simulated machine time a run covered. Like
/// [`FaultCounters`], it is read from the run's own registry, so
/// concurrent runs never count each other's work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimCounters {
    /// Total simulated cycles across all simulations.
    pub cycles: u64,
    /// Total payload words across all simulations.
    pub words: u64,
    /// Number of simulations run.
    pub measurements: u64,
    /// Moves the co-simulation driver made, across its runs.
    pub drive_steps: u64,
    /// The driver's step calls that returned `Blocked`, across its runs.
    pub drive_blocked: u64,
}

impl SimCounters {
    /// Counter deltas since an earlier snapshot.
    pub fn since(self, earlier: SimCounters) -> SimCounters {
        SimCounters {
            cycles: self.cycles.wrapping_sub(earlier.cycles),
            words: self.words.wrapping_sub(earlier.words),
            measurements: self.measurements.wrapping_sub(earlier.measurements),
            drive_steps: self.drive_steps.wrapping_sub(earlier.drive_steps),
            drive_blocked: self.drive_blocked.wrapping_sub(earlier.drive_blocked),
        }
    }

    /// Reads one run's simulation counters out of its `memcomm-obs`
    /// registry (all zeros for a disabled handle).
    pub fn from_obs(obs: &memcomm_obs::Obs) -> SimCounters {
        let [cycles, words, measurements] = SIM_METRICS.map(|name| obs.counter(name));
        let [drive_steps, drive_blocked] = DRIVE_METRICS.map(|name| obs.counter(name));
        SimCounters {
            cycles,
            words,
            measurements,
            drive_steps,
            drive_blocked,
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
    /// Creates the measurement of a simulation that just ran, and counts
    /// it once ([`count_simulation`]).
    pub fn new(words: u64, cycles: Cycle) -> Self {
        count_simulation(words, cycles);
        Measurement { words, cycles }
    }

    /// Payload bytes moved (saturating: no node holds `u64::MAX` bytes).
    pub fn bytes(&self) -> u64 {
        self.words.saturating_mul(crate::mem::WORD_BYTES)
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

/// Parameters of a symmetric two-node exchange (put- or get-based). It
/// compares and hashes by the bits of its fields, so a parameter set can
/// key a memoized run.
#[derive(Debug, Clone, Copy)]
pub struct ExchangeConfig {
    /// Payload words each node sends (and receives).
    pub words: u64,
    /// Pipelining chunk for buffer packing: `None` is store-and-forward
    /// (pack the whole message, send it, unpack it — what PVM-era libraries
    /// did); `Some(c)` pipelines at chunk granularity (the ablation of
    /// DESIGN.md).
    pub chunk_words: Option<u64>,
    /// Network congestion factor; `None` uses the machine's representative
    /// value (2).
    pub congestion: Option<f64>,
    /// Whether both nodes send simultaneously. The paper's T3D numbers are
    /// symmetric (every node sends and receives, as in a transpose step);
    /// its Paragon measurements "did not run sending and receiving
    /// simultaneously at each node" — half duplex.
    pub full_duplex: bool,
    /// Expert buffer packing skips the gather (scatter) copy when the
    /// source (destination) pattern is already contiguous; PVM-style
    /// libraries never do (Section 3.4: "message passing libraries like PVM
    /// force the programmer to copy the data elements in all cases").
    pub elide_contiguous_copies: bool,
    /// Seed for indexed patterns.
    pub seed: u64,
    /// Simulated-cycle budget: the exchange fails with
    /// [`SimError::CycleBudget`](crate::SimError::CycleBudget) instead of
    /// running past it. `None` leaves only the step-bound watchdog.
    pub max_cycles: Option<Cycle>,
}

impl Default for ExchangeConfig {
    fn default() -> Self {
        ExchangeConfig {
            words: 8192,
            chunk_words: None,
            congestion: None,
            full_duplex: true,
            elide_contiguous_copies: false,
            seed: 0x5EED,
            max_cycles: None,
        }
    }
}

impl ExchangeConfig {
    /// Every field, the congestion factor by its bits. The destructuring
    /// names every field, so a field added later does not compile until
    /// equality and hashing cover it.
    fn bits(&self) -> impl Eq + Hash {
        let ExchangeConfig {
            words,
            chunk_words,
            congestion,
            full_duplex,
            elide_contiguous_copies,
            seed,
            max_cycles,
        } = *self;
        (
            words,
            chunk_words,
            congestion.map(f64::to_bits),
            full_duplex,
            elide_contiguous_copies,
            seed,
            max_cycles,
        )
    }
}

impl PartialEq for ExchangeConfig {
    fn eq(&self, other: &Self) -> bool {
        self.bits() == other.bits()
    }
}

impl Eq for ExchangeConfig {}

impl Hash for ExchangeConfig {
    fn hash<H: Hasher>(&self, h: &mut H) {
        self.bits().hash(h);
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

    /// The raw measurement (words, cycles). Counts nothing: the exchange
    /// counted once when it was simulated.
    pub fn measurement(&self) -> Measurement {
        Measurement {
            words: self.words,
            cycles: self.end_cycle,
        }
    }
}

/// Outcome of a resilient transfer (`commops::run_resilient_transfer`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferReport {
    /// Payload words moved.
    pub words: u64,
    /// Cycle at which the last agent finished.
    pub end_cycle: Cycle,
    /// Whether the destination holds exactly the source data.
    pub verified: bool,
    /// Frames transmitted, including retransmissions.
    pub frames_sent: u64,
    /// Retransmissions (frames_sent minus the frame count).
    pub retransmissions: u64,
    /// Whether the deposit engine was unavailable and the receiver fell
    /// back to CPU stores.
    pub degraded: bool,
}

impl TransferReport {
    /// End-to-end throughput of the transfer.
    pub fn throughput(&self, clock: Clock) -> Throughput {
        clock.throughput(self.words * 8, self.end_cycle.max(1))
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
