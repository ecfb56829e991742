//! Word-granular link model for end-to-end co-simulation.
//!
//! A [`Link`] moves [`NetWord`]s from a
//! sender's transmit FIFO to a receiver's receive FIFO. Each word costs wire
//! time proportional to its framing — 8 bytes for data-only (`Nd`), 16 for
//! address-data pairs (`Nadp`), plus an amortized packet header — scaled by
//! the congestion factor the traffic pattern imposes (see
//! [`congestion`](crate::congestion)).

use memcomm_memsim::clock::Cycle;
use memcomm_memsim::fault::{FaultPlan, LinkFault};
use memcomm_memsim::nic::{NetWord, TimedFifo, WordKind};
use memcomm_memsim::stats::Measurement;

pub use memcomm_memsim::engines::Step;

/// `x.ceil() as Cycle` without the libm call the baseline x86-64 target
/// makes (`x as Cycle` is `x.floor() as Cycle` for `x >= 0`): exact, and
/// saturating like the cast, so NaN and negatives give 0.
pub(crate) fn ceil_cycle(x: f64) -> Cycle {
    let t = x as Cycle;
    t.saturating_add(u64::from((t as f64) < x))
}

/// Link configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// Raw wire bandwidth in bytes per node-clock cycle.
    pub bytes_per_cycle: f64,
    /// Payload words per packet, for header amortization.
    pub packet_words: u32,
    /// Header (routing info, delimiters) bytes per packet.
    pub header_bytes: u64,
    /// Extra wire bytes per address-data-pair word on top of the 8-byte
    /// payload: the store address plus any per-store control. On the T3D
    /// each remote store is its own small message (12 bytes extra); the
    /// Paragon packetizes pairs (8 bytes extra).
    pub adp_extra_bytes: u64,
    /// Cut-through latency from FIFO to FIFO.
    pub latency_cycles: Cycle,
    /// Congestion factor: how many competing streams share the wire.
    pub congestion: f64,
}

impl LinkParams {
    /// Effective wire cost in cycles for one word.
    pub fn word_cycles(&self, word: &NetWord) -> f64 {
        let payload_and_addr = if word.addr.is_some() {
            8.0 + self.adp_extra_bytes as f64
        } else {
            8.0
        };
        let framed = payload_and_addr + self.header_bytes as f64 / f64::from(self.packet_words);
        framed * self.congestion / self.bytes_per_cycle
    }
}

/// A directed link between two FIFOs.
#[derive(Debug, Clone)]
pub struct Link {
    params: LinkParams,
    /// Wire cycles of a data word and of an addressed word.
    word_cycles: [f64; 2],
    clock: f64,
    /// `ceil_cycle(clock)`.
    time: Cycle,
    staged: Option<NetWord>,
    moved: u64,
    dropped: u64,
    faults: Option<(FaultPlan, u64)>,
    obs: memcomm_obs::Obs,
    pid: u64,
    track: &'static str,
    busy: Option<(Cycle, Cycle)>,
}

impl Link {
    /// Creates an idle link. Captures the thread's current observability
    /// handle and point scope, so wire-busy spans land under the point the
    /// link was built for (see [`Link::labeled`]).
    ///
    /// # Panics
    ///
    /// Panics on non-positive bandwidth or congestion.
    pub fn new(params: LinkParams) -> Self {
        assert!(
            params.bytes_per_cycle > 0.0 && params.congestion >= 1.0,
            "link needs positive bandwidth and congestion >= 1"
        );
        assert!(params.packet_words >= 1);
        let obs = memcomm_obs::Obs::current();
        let pid = obs.pid();
        Link {
            params,
            word_cycles: [NetWord::data(0), NetWord::addressed(0, 0)]
                .map(|word| params.word_cycles(&word)),
            clock: 0.0,
            time: 0,
            staged: None,
            moved: 0,
            dropped: 0,
            faults: None,
            obs,
            pid,
            track: "link",
            busy: None,
        }
    }

    /// Creates a link that subjects each word to the fault plan's decisions
    /// at the given fault `site` (see [`memcomm_memsim::fault::site`]): the
    /// word can be dropped, its payload corrupted, or delivery jittered. The
    /// per-word fault index is the link's attempt counter, so a
    /// retransmitted word gets a fresh draw rather than repeating its fate.
    pub fn with_faults(params: LinkParams, plan: FaultPlan, site: u64) -> Self {
        let mut link = Link::new(params);
        link.faults = plan.is_active().then_some((plan, site));
        link
    }

    /// Names the trace track this link's wire-busy spans appear on
    /// (default `"link"`). Exchange co-simulations label their two
    /// directions `"link.ab"` / `"link.ba"`; the resilient protocol uses
    /// `"link.fwd"` / `"link.rev"`.
    pub fn labeled(mut self, track: &'static str) -> Self {
        self.track = track;
        self
    }

    /// Configuration.
    pub fn params(&self) -> &LinkParams {
        &self.params
    }

    /// The link's local time in cycles (rounded up).
    pub fn time(&self) -> Cycle {
        self.time
    }

    /// Whether the link holds a word it has popped but not yet pushed. Its
    /// next step then reads only its destination FIFO; otherwise it reads
    /// only its source.
    pub fn holds_word(&self) -> bool {
        self.staged.is_some()
    }

    /// Words delivered so far.
    pub fn moved(&self) -> u64 {
        self.moved
    }

    /// Words consumed from the source but never delivered (link faults).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Moves one word from `from` to `to`. Blocked when the source is empty
    /// or the destination full. Under a fault plan, a word can be silently
    /// dropped (it consumes wire time but never arrives), corrupted in its
    /// payload, or delayed by a jitter window.
    pub fn step(&mut self, from: &mut TimedFifo, to: &mut TimedFifo) -> Step {
        if self.staged.is_none() {
            let Some(avail) = from.front_ready() else {
                return Step::Blocked;
            };
            let (_, mut word) = from.pop(self.time).expect("front_ready implies non-empty");
            let cost = self.word_cycles[usize::from(word.addr.is_some())];
            // Advance the fractional clock from the word's availability, not
            // from the integer-rounded pop time — otherwise every word pays
            // a rounding surcharge.
            let start = self.clock.max(avail as f64);
            self.clock = start + cost;
            self.time = ceil_cycle(self.clock);
            let mut fault = None;
            if let Some((plan, site)) = &self.faults {
                fault = plan.link_fault(*site, self.moved + self.dropped);
                if fault.is_some() {
                    self.obs
                        .count(memcomm_memsim::stats::fault_metric::INJECTED, 1);
                }
            }
            match fault {
                Some(LinkFault::Drop) => {
                    // Wire time is spent; the word is gone.
                    self.obs
                        .count(memcomm_memsim::stats::fault_metric::DROPPED, 1);
                    self.note_busy(start);
                    self.dropped += 1;
                    return Step::Progressed;
                }
                Some(LinkFault::Corrupt(mask)) => {
                    // Payload only: addresses carry hardware parity on
                    // both machines, so corruption an end-to-end
                    // checksum must catch lives in the data.
                    word.data ^= mask;
                }
                Some(LinkFault::Delay(extra)) => {
                    self.clock += extra as f64;
                    self.time = ceil_cycle(self.clock);
                }
                None => {}
            }
            self.note_busy(start);
            self.staged = Some(word);
        }
        let word = self.staged.expect("staged above");
        match to.push(self.time + self.params.latency_cycles, word) {
            Some(_) => {
                self.staged = None;
                self.moved += 1;
                Step::Progressed
            }
            None => Step::Blocked,
        }
    }

    /// Extends the current wire-busy interval to cover a word occupying the
    /// wire from `start` (fractional cycles) to the link's clock. Contiguous
    /// words coalesce into one span; a gap flushes the previous span first.
    fn note_busy(&mut self, start: f64) {
        if !self.obs.tracing() {
            return;
        }
        let start = start as Cycle;
        let end = self.time;
        match &mut self.busy {
            Some((_, until)) if start <= *until => *until = (*until).max(end),
            _ => {
                self.flush_busy();
                self.busy = Some((start, end));
            }
        }
    }

    /// Emits the pending wire-busy span, if any (also called on drop).
    fn flush_busy(&mut self) {
        if let Some((start, end)) = self.busy.take() {
            self.obs.span_at(self.pid, self.track, "busy", start, end);
        }
    }
}

impl Drop for Link {
    fn drop(&mut self) {
        self.flush_busy();
    }
}

/// Measures the raw wire rate of a link configuration by streaming `words`
/// words (data-only or address-data pairs) between two unconstrained FIFOs —
/// the simulated counterpart of the paper's Table 4 rows.
pub fn measure_wire_rate(params: LinkParams, words: u64, address_data_pairs: bool) -> Measurement {
    let mut from = TimedFifo::new(words.max(1) as usize);
    let mut to = TimedFifo::new(words.max(1) as usize);
    for i in 0..words {
        from.push(
            0,
            NetWord {
                addr: address_data_pairs.then_some(i * 8),
                data: i,
                kind: WordKind::Data,
            },
        )
        .expect("fifo sized to the transfer");
    }
    let mut link = Link::new(params);
    let mut end = 0;
    while link.moved() < words {
        match link.step(&mut from, &mut to) {
            Step::Progressed => end = link.time(),
            Step::Blocked => unreachable!("unconstrained fifos never block the link"),
            Step::Done => break,
        }
    }
    Measurement::new(words, end)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> LinkParams {
        LinkParams {
            bytes_per_cycle: 1.0,
            packet_words: 16,
            header_bytes: 16,
            adp_extra_bytes: 8,
            latency_cycles: 20,
            congestion: 1.0,
        }
    }

    #[test]
    fn ceil_cycle_matches_the_libm_ceiling() {
        let edges = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            -0.5,
            -1.0,
            -1e300,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            f64::from_bits(0x000F_FFFF_FFFF_FFFF),
            0.5,
            1.0,
            (1u64 << 53) as f64 - 1.0,
            (1u64 << 53) as f64,
            (1u64 << 53) as f64 + 2.0,
            (1u64 << 53) as f64 - 0.5,
            u64::MAX as f64,
            u64::MAX as f64 * 2.0,
            f64::MAX,
        ];
        let mut rng = memcomm_util::rng::Rng::new(0xCE11);
        let random = (0..100_000).map(|_| f64::from_bits(rng.next_u64()));
        for x in edges.into_iter().chain(random) {
            assert_eq!(
                ceil_cycle(x),
                x.ceil() as Cycle,
                "{x:e} ({:#x})",
                x.to_bits()
            );
        }
    }

    #[test]
    fn data_words_cost_framed_bytes() {
        // 8 payload + 1 header byte amortized = 9 cycles per word.
        let m = measure_wire_rate(params(), 1000, false);
        assert!(
            (m.cycles_per_word() - 9.0).abs() < 0.1,
            "{}",
            m.cycles_per_word()
        );
    }

    #[test]
    fn address_data_pairs_cost_roughly_double() {
        let data = measure_wire_rate(params(), 1000, false);
        let adp = measure_wire_rate(params(), 1000, true);
        let ratio = adp.cycles as f64 / data.cycles as f64;
        assert!((1.8..2.1).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn congestion_divides_bandwidth() {
        let base = measure_wire_rate(params(), 1000, false);
        let congested = measure_wire_rate(
            LinkParams {
                congestion: 2.0,
                ..params()
            },
            1000,
            false,
        );
        let ratio = congested.cycles as f64 / base.cycles as f64;
        assert!((1.95..2.05).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn link_respects_fifo_backpressure() {
        let mut from = TimedFifo::new(64);
        let mut to = TimedFifo::new(2);
        for i in 0..8 {
            from.push(
                0,
                NetWord {
                    addr: None,
                    data: i,
                    kind: WordKind::Data,
                },
            )
            .unwrap();
        }
        let mut link = Link::new(params());
        // Fill the destination.
        assert_eq!(link.step(&mut from, &mut to), Step::Progressed);
        assert_eq!(link.step(&mut from, &mut to), Step::Progressed);
        assert_eq!(link.step(&mut from, &mut to), Step::Blocked);
        // Draining the destination unblocks; the staged word is not lost.
        let before = link.moved();
        to.pop(1000);
        assert_eq!(link.step(&mut from, &mut to), Step::Progressed);
        assert_eq!(link.moved(), before + 1);
    }

    #[test]
    fn latency_delays_availability() {
        let mut from = TimedFifo::new(4);
        let mut to = TimedFifo::new(4);
        from.push(
            0,
            NetWord {
                addr: None,
                data: 7,
                kind: WordKind::Data,
            },
        )
        .unwrap();
        let mut link = Link::new(params());
        link.step(&mut from, &mut to);
        let ready = to.front_ready().unwrap();
        assert!(
            ready >= 20 + 9,
            "cut-through latency plus wire time, got {ready}"
        );
    }

    #[test]
    fn empty_source_blocks() {
        let mut from = TimedFifo::new(4);
        let mut to = TimedFifo::new(4);
        let mut link = Link::new(params());
        assert_eq!(link.step(&mut from, &mut to), Step::Blocked);
    }

    #[test]
    fn faulty_link_drops_and_corrupts_deterministically() {
        use memcomm_memsim::fault::{site, FaultConfig, FaultPlan};
        let plan = FaultPlan::new(FaultConfig {
            seed: 42,
            rate: 0.5,
            ..FaultConfig::default()
        });
        let run = || {
            let n = 200u64;
            let mut from = TimedFifo::new(n as usize);
            let mut to = TimedFifo::new(n as usize);
            for i in 0..n {
                from.push(0, NetWord::data(i)).unwrap();
            }
            let mut link = Link::with_faults(params(), plan, site::LINK_FORWARD);
            while link.moved() + link.dropped() < n {
                assert_eq!(link.step(&mut from, &mut to), Step::Progressed);
            }
            let delivered: Vec<u64> =
                std::iter::from_fn(|| to.pop(u64::MAX / 2).map(|(_, w)| w.data)).collect();
            (link.moved(), link.dropped(), delivered)
        };
        let (moved_a, dropped_a, delivered_a) = run();
        let (moved_b, dropped_b, delivered_b) = run();
        assert_eq!(moved_a, moved_b, "replay must drop the same words");
        assert_eq!(dropped_a, dropped_b);
        assert_eq!(delivered_a, delivered_b, "replay must corrupt identically");
        assert!(dropped_a > 0, "rate 0.5 over 200 words must drop some");
        assert!(
            delivered_a.iter().any(|&d| d >= 200),
            "some payloads must be corrupted"
        );
    }

    #[test]
    fn zero_rate_plan_is_a_clean_link() {
        use memcomm_memsim::fault::{site, FaultPlan};
        let n = 100u64;
        let mut from = TimedFifo::new(n as usize);
        let mut to = TimedFifo::new(n as usize);
        for i in 0..n {
            from.push(0, NetWord::data(i)).unwrap();
        }
        let mut link = Link::with_faults(params(), FaultPlan::disabled(), site::LINK_FORWARD);
        while link.moved() < n {
            link.step(&mut from, &mut to);
        }
        assert_eq!(link.dropped(), 0);
        let delivered: Vec<u64> =
            std::iter::from_fn(|| to.pop(u64::MAX / 2).map(|(_, w)| w.data)).collect();
        assert_eq!(delivered, (0..n).collect::<Vec<_>>());
    }
}
