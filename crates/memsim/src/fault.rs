//! Deterministic fault injection.
//!
//! A [`FaultPlan`] decides, for every fault opportunity in a co-simulation,
//! whether a fault fires and what kind. Decisions are **pure functions** of
//! `(seed, site, index)` — not draws from a shared stateful generator — so
//! the same plan replays byte-identically whatever order parallel workers
//! reach their opportunities in, and a zero-rate plan behaves exactly like
//! no plan at all.
//!
//! Fault taxonomy:
//!
//! * **link faults** ([`LinkFault`]): a wire word is dropped, its payload
//!   corrupted, or delayed by a jitter window;
//! * **FIFO stalls**: a NIC FIFO slot is back-pressured for a window of
//!   cycles before accepting a push (see
//!   [`TimedFifo::set_faults`](crate::nic::TimedFifo::set_faults)); the
//!   FIFOs are the only stall sites, no engine is stalled directly;
//! * **engine outage**: the deposit engine is out for the whole run — the
//!   trigger for graceful degradation to the buffer-packed receive path.
//!
//! Plans are *pure deciders*: they never record anything. Counting fired
//! decisions is the injection site's job (the link step, the FIFO push,
//! the protocol's outage check), recorded into the per-run
//! `memcomm-obs` metrics registry so parallel runs never contend on — or
//! cross-contaminate — process-wide statics.
//!
//! [`ProtocolConfig`] holds the parameters of the resilient transfer
//! protocol (`commops::protocol`) that answers a plan's faults. Both
//! configurations compare and hash by every field, so a transfer under a
//! plan can key a memoized run.

use std::hash::{Hash, Hasher};

use memcomm_util::rng::Rng;

use crate::clock::Cycle;

/// Well-known fault sites. A *site* identifies one fault-injection point in
/// a co-simulation (a specific link, FIFO or engine); the per-site constants
/// keep decisions independent across sites under one seed.
pub mod site {
    /// Forward data link (sender → receiver).
    pub const LINK_FORWARD: u64 = 1;
    /// Reverse link (acknowledgements).
    pub const LINK_REVERSE: u64 = 2;
    /// Sender-side transmit FIFO.
    pub const TX_FIFO: u64 = 3;
    /// Receiver-side receive FIFO.
    pub const RX_FIFO: u64 = 4;
    /// Receiver-side deposit engine.
    pub const DEPOSIT: u64 = 5;

    /// First per-node site of the sharded network engine; each node gets a
    /// (tx, rx) pair above this base.
    pub const ENGINE_NODE_BASE: u64 = 0x1000;
    /// First per-link site of the sharded network engine.
    pub const ENGINE_LINK_BASE: u64 = 0x0100_0000;

    /// Transmit-FIFO site of engine node `node`.
    pub fn engine_tx(node: usize) -> u64 {
        ENGINE_NODE_BASE + 2 * node as u64
    }

    /// Receive-FIFO site of engine node `node`.
    pub fn engine_rx(node: usize) -> u64 {
        ENGINE_NODE_BASE + 2 * node as u64 + 1
    }

    /// Wire site of engine link `link` (canonical link index).
    pub fn engine_link(link: u32) -> u64 {
        ENGINE_LINK_BASE + u64::from(link)
    }
}

/// What happened to one word on a faulty link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkFault {
    /// The word vanishes: it consumes wire time but is never delivered.
    Drop,
    /// The payload is XORed with this non-zero mask (addresses are
    /// protected by hardware parity on both machines; payload corruption is
    /// what an end-to-end checksum must catch).
    Corrupt(u64),
    /// Delivery is delayed by this many extra cycles.
    Delay(Cycle),
}

/// Configuration of a fault plan. It compares and hashes by the bits of
/// its fields, so a plan can key a memoized run.
#[derive(Debug, Clone, Copy)]
pub struct FaultConfig {
    /// Seed all decisions derive from.
    pub seed: u64,
    /// Probability that any single fault opportunity fires (per word on a
    /// link, per push into a FIFO). `0.0` disables word-level faults
    /// entirely.
    pub rate: f64,
    /// Largest extra delay a jittered link word suffers.
    pub max_jitter_cycles: Cycle,
    /// Largest stall window injected into a FIFO push.
    pub max_stall_cycles: Cycle,
    /// Probability that an *engine site* is out for the whole run (decided
    /// once per site, independent of `rate`).
    pub outage_rate: f64,
    /// Probability that any given outage period of a *link* site opens with
    /// a transient outage window (decided per `(site, period)`, independent
    /// of `rate`). `0.0` disables transient link outages.
    pub outage_window_rate: f64,
    /// Length of one transient link-outage window, in cycles. The window
    /// occupies the head of its outage period (and is clamped to it).
    pub outage_window_cycles: Cycle,
    /// Cycle period at which transient link-outage windows are drawn.
    pub outage_period_cycles: Cycle,
    /// Probability that a *link* site is out for the entire run (decided
    /// once per site, independent of every other rate).
    pub permanent_outage_rate: f64,
}

impl Default for FaultConfig {
    /// A disabled plan: zero rates (seed irrelevant by construction).
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            rate: 0.0,
            max_jitter_cycles: 256,
            max_stall_cycles: 1024,
            outage_rate: 0.0,
            outage_window_rate: 0.0,
            outage_window_cycles: 2048,
            outage_period_cycles: 1 << 14,
            permanent_outage_rate: 0.0,
        }
    }
}

impl FaultConfig {
    /// Every field's bits. The destructuring names every field, so a field
    /// added later does not compile until equality and hashing cover it.
    fn bits(&self) -> [u64; 9] {
        let FaultConfig {
            seed,
            rate,
            max_jitter_cycles,
            max_stall_cycles,
            outage_rate,
            outage_window_rate,
            outage_window_cycles,
            outage_period_cycles,
            permanent_outage_rate,
        } = *self;
        [
            seed,
            rate.to_bits(),
            max_jitter_cycles,
            max_stall_cycles,
            outage_rate.to_bits(),
            outage_window_rate.to_bits(),
            outage_window_cycles,
            outage_period_cycles,
            permanent_outage_rate.to_bits(),
        ]
    }
}

impl PartialEq for FaultConfig {
    fn eq(&self, other: &Self) -> bool {
        self.bits() == other.bits()
    }
}

impl Eq for FaultConfig {}

impl Hash for FaultConfig {
    fn hash<H: Hasher>(&self, h: &mut H) {
        self.bits().hash(h);
    }
}

/// Parameters of a resilient transfer (`commops::run_resilient_transfer`):
/// the framing, ack timeouts and retry budget of the protocol that answers
/// a fault plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProtocolConfig {
    /// Payload words to move.
    pub words: u64,
    /// Payload words per frame.
    pub frame_words: u64,
    /// Initial ack timeout in cycles (attempt 0).
    pub timeout_cycles: Cycle,
    /// Timeout multiplier per failed attempt.
    pub backoff_factor: u32,
    /// Ceiling on the backed-off timeout.
    pub max_timeout_cycles: Cycle,
    /// Retransmissions allowed per frame before the transfer fails.
    pub max_retries: u32,
    /// Seed for indexed patterns.
    pub seed: u64,
    /// Simulated-cycle budget for the whole transfer.
    pub max_cycles: Option<Cycle>,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            words: 4096,
            frame_words: 64,
            timeout_cycles: 8192,
            backoff_factor: 2,
            max_timeout_cycles: 1 << 17,
            max_retries: 8,
            seed: 0x5EED,
            max_cycles: None,
        }
    }
}

/// A replayable fault plan. Copyable — handing a plan to an engine copies
/// the configuration, never shared mutable state.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultPlan {
    cfg: FaultConfig,
}

impl FaultPlan {
    /// Creates a plan from its configuration.
    pub fn new(cfg: FaultConfig) -> Self {
        FaultPlan { cfg }
    }

    /// A plan that never fires (all rates zero).
    pub fn disabled() -> Self {
        FaultPlan::default()
    }

    /// The configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Whether any fault can ever fire under this plan.
    pub fn is_active(&self) -> bool {
        self.cfg.rate > 0.0 || self.cfg.outage_rate > 0.0 || self.has_link_outages()
    }

    /// Whether link-outage windows (transient or permanent) can ever fire.
    pub fn has_link_outages(&self) -> bool {
        self.cfg.outage_window_rate > 0.0 || self.cfg.permanent_outage_rate > 0.0
    }

    /// The decision generator for one `(site, index)` opportunity: a fresh
    /// splitmix64 stream keyed by seed, site and index, so decisions are
    /// order-independent and replayable.
    fn decider(&self, site: u64, index: u64) -> Rng {
        let key = self
            .cfg
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(site.wrapping_mul(0xBF58_476D_1CE4_E5B9))
            .wrapping_add(index.wrapping_mul(0x94D0_49BB_1331_11EB));
        Rng::new(key)
    }

    fn fires(&self, rate: f64, rng: &mut Rng) -> bool {
        rate > 0.0 && rng.range_f64(0.0, 1.0) < rate
    }

    /// Decides the fate of word `index` crossing the link at `site`.
    /// Retransmitted words get fresh indices (the link's attempt counter),
    /// so a retry is a fresh draw, not a guaranteed repeat.
    pub fn link_fault(&self, site: u64, index: u64) -> Option<LinkFault> {
        let mut rng = self.decider(site, index);
        if !self.fires(self.cfg.rate, &mut rng) {
            return None;
        }
        let fault = match rng.range_u64(0, 3) {
            0 => LinkFault::Drop,
            1 => LinkFault::Corrupt(rng.next_u64() | 1),
            _ => LinkFault::Delay(
                rng.range_u64(1, self.cfg.max_jitter_cycles.max(1).saturating_add(1)),
            ),
        };
        Some(fault)
    }

    /// Stall window (possibly zero) injected before opportunity `index` at
    /// a FIFO `site`.
    pub fn stall_cycles(&self, site: u64, index: u64) -> Cycle {
        let mut rng = self.decider(site, index.wrapping_add(0x5747_A11E));
        if !self.fires(self.cfg.rate, &mut rng) {
            return 0;
        }
        rng.range_u64(1, self.cfg.max_stall_cycles.max(1).saturating_add(1))
    }

    /// Whether the engine at `site` is out for this whole run.
    pub fn engine_unavailable(&self, site: u64) -> bool {
        let mut rng = self.decider(site, 0x007A_6E00);
        self.fires(self.cfg.outage_rate, &mut rng)
    }

    /// Index salt of the permanent link-outage decision — far above any
    /// per-word attempt index, so it never collides with `link_fault` draws
    /// at the same site.
    const PERMANENT_OUTAGE_INDEX: u64 = 0x7E94_0000_0000_0000;
    /// Index base of the transient outage-window decisions; the period
    /// number is added, keeping windows independent of each other and of
    /// every word-level draw.
    const OUTAGE_WINDOW_BASE: u64 = 0x4000_0000_0000_0000;

    /// If the link at `site` is inside an outage at `cycle`, the cycle it
    /// recovers ([`Cycle::MAX`] = permanently out); `None` when the link is
    /// up. A pure function of `(seed, site, cycle)`: transient windows are
    /// decided once per `(site, outage period)` and occupy the head of
    /// their period, so any two observers — whatever order, shard or worker
    /// they ask from — see the same outage calendar.
    pub fn link_outage_until(&self, site: u64, cycle: Cycle) -> Option<Cycle> {
        if self.cfg.permanent_outage_rate > 0.0 {
            let mut rng = self.decider(site, Self::PERMANENT_OUTAGE_INDEX);
            if self.fires(self.cfg.permanent_outage_rate, &mut rng) {
                return Some(Cycle::MAX);
            }
        }
        if self.cfg.outage_window_rate > 0.0 {
            let period = self.cfg.outage_period_cycles.max(1);
            let len = self.cfg.outage_window_cycles.min(period);
            let w = cycle / period;
            if cycle - w * period < len {
                let mut rng = self.decider(site, Self::OUTAGE_WINDOW_BASE.wrapping_add(w));
                if self.fires(self.cfg.outage_window_rate, &mut rng) {
                    return Some((w * period).saturating_add(len));
                }
            }
        }
        None
    }

    /// [`FaultPlan::link_outage_until`]`(site, cycle)`, plus the span
    /// `[lo, hi)` around `cycle` over which that answer holds: the transient
    /// window, the rest of its period, or the whole run. `hi` saturates at
    /// [`Cycle::MAX`], so the last cycle's span ends where it starts.
    pub fn link_outage_span(&self, site: u64, cycle: Cycle) -> (Option<Cycle>, Cycle, Cycle) {
        let mut rng = self.decider(site, Self::PERMANENT_OUTAGE_INDEX);
        if self.fires(self.cfg.permanent_outage_rate, &mut rng) {
            return (Some(Cycle::MAX), 0, Cycle::MAX);
        }
        if self.cfg.outage_window_rate <= 0.0 {
            return (None, 0, Cycle::MAX);
        }
        let period = self.cfg.outage_period_cycles.max(1);
        let len = self.cfg.outage_window_cycles.min(period);
        let w = cycle / period;
        let (start, end) = (w * period, (w * period).saturating_add(period));
        let head = start.saturating_add(len);
        let mut rng = self.decider(site, Self::OUTAGE_WINDOW_BASE.wrapping_add(w));
        if cycle - start >= len {
            (None, head, end)
        } else if self.fires(self.cfg.outage_window_rate, &mut rng) {
            (Some(head), start, head)
        } else {
            (None, start, end)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(rate: f64) -> FaultPlan {
        FaultPlan::new(FaultConfig {
            seed: 42,
            rate,
            ..FaultConfig::default()
        })
    }

    #[test]
    fn decisions_are_replayable_and_order_independent() {
        let p = plan(0.5);
        let forward: Vec<_> = (0..100)
            .map(|i| p.link_fault(site::LINK_FORWARD, i))
            .collect();
        let backward: Vec<_> = (0..100)
            .rev()
            .map(|i| p.link_fault(site::LINK_FORWARD, i))
            .collect();
        let reversed: Vec<_> = backward.into_iter().rev().collect();
        assert_eq!(forward, reversed, "decision order must not matter");
    }

    #[test]
    fn zero_rate_never_fires() {
        for seed in [0u64, 1, 0xDEAD_BEEF] {
            let p = FaultPlan::new(FaultConfig {
                seed,
                rate: 0.0,
                outage_rate: 0.0,
                ..FaultConfig::default()
            });
            assert!(!p.is_active());
            for i in 0..1000 {
                assert_eq!(p.link_fault(site::LINK_FORWARD, i), None);
                assert_eq!(p.stall_cycles(site::RX_FIFO, i), 0);
            }
            assert!(!p.engine_unavailable(site::DEPOSIT));
        }
    }

    #[test]
    fn sites_decide_independently() {
        let p = plan(0.3);
        let a: Vec<_> = (0..200)
            .map(|i| p.link_fault(site::LINK_FORWARD, i))
            .collect();
        let b: Vec<_> = (0..200)
            .map(|i| p.link_fault(site::LINK_REVERSE, i))
            .collect();
        assert_ne!(a, b, "different sites must draw different decisions");
    }

    #[test]
    fn rate_controls_frequency() {
        let p = plan(0.25);
        let fired = (0..4000)
            .filter(|&i| p.link_fault(site::LINK_FORWARD, i).is_some())
            .count();
        assert!(
            (700..1300).contains(&fired),
            "expected ~1000 of 4000 at rate 0.25, got {fired}"
        );
    }

    #[test]
    fn outage_rate_one_always_out() {
        let p = FaultPlan::new(FaultConfig {
            seed: 7,
            outage_rate: 1.0,
            ..FaultConfig::default()
        });
        assert!(p.engine_unavailable(site::DEPOSIT));
    }

    #[test]
    fn outage_windows_are_pure_and_head_aligned() {
        let p = FaultPlan::new(FaultConfig {
            seed: 11,
            outage_window_rate: 0.5,
            outage_window_cycles: 100,
            outage_period_cycles: 1000,
            ..FaultConfig::default()
        });
        assert!(p.is_active());
        assert!(p.has_link_outages());
        for cycle in [0u64, 50, 99, 100, 500, 999, 1000, 12_345, 999_999] {
            let a = p.link_outage_until(site::engine_link(3), cycle);
            assert_eq!(
                a,
                p.link_outage_until(site::engine_link(3), cycle),
                "calendar must replay"
            );
            if cycle % 1000 >= 100 {
                assert_eq!(a, None, "outages occupy only the period head");
            }
            if let Some(end) = a {
                assert_eq!(end, cycle / 1000 * 1000 + 100, "recovery at window end");
            }
        }
        let out = (0..200u64)
            .filter(|&w| {
                p.link_outage_until(site::engine_link(3), w * 1000)
                    .is_some()
            })
            .count();
        assert!(
            (60..140).contains(&out),
            "expected ~100 of 200 periods out at rate 0.5, got {out}"
        );
    }

    #[test]
    fn permanent_outage_never_recovers() {
        let p = FaultPlan::new(FaultConfig {
            seed: 5,
            permanent_outage_rate: 1.0,
            ..FaultConfig::default()
        });
        assert_eq!(
            p.link_outage_until(site::engine_link(0), 0),
            Some(Cycle::MAX)
        );
        assert_eq!(
            p.link_outage_until(site::engine_link(0), 1 << 40),
            Some(Cycle::MAX)
        );
        let none = FaultPlan::new(FaultConfig {
            seed: 5,
            ..FaultConfig::default()
        });
        assert!(!none.has_link_outages());
        assert_eq!(none.link_outage_until(site::engine_link(0), 0), None);
    }

    #[test]
    fn configs_compare_and_hash_by_their_bits() {
        use std::collections::HashSet;
        let base = FaultConfig {
            rate: f64::NAN,
            ..FaultConfig::default()
        };
        assert_eq!(base, base, "a plan equals itself, NaN rates included");
        let negative_zero = FaultConfig {
            outage_rate: -0.0,
            ..FaultConfig::default()
        };
        assert_ne!(negative_zero, FaultConfig::default(), "-0.0 is other bits");
        let set: HashSet<FaultConfig> = [base, base, negative_zero].into();
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn corrupt_masks_are_nonzero_and_stalls_bounded() {
        let p = FaultPlan::new(FaultConfig {
            seed: 3,
            rate: 1.0,
            max_stall_cycles: 16,
            max_jitter_cycles: 8,
            ..FaultConfig::default()
        });
        for i in 0..200 {
            match p.link_fault(site::LINK_FORWARD, i) {
                Some(LinkFault::Corrupt(m)) => assert_ne!(m, 0),
                Some(LinkFault::Delay(d)) => assert!((1..=8).contains(&d)),
                Some(LinkFault::Drop) | None => {}
            }
            let s = p.stall_cycles(site::TX_FIFO, i);
            assert!(
                (1..=16).contains(&s),
                "rate 1.0 must stall within bounds: {s}"
            );
        }
    }

    #[test]
    fn u64_max_bounds_draw_without_wrapping() {
        // Regression: `bound.max(1) + 1` wrapped to 0 at `u64::MAX`, and the
        // empty range `[1, 0)` panicked on the first delay or stall drawn.
        let p = FaultPlan::new(FaultConfig {
            seed: 3,
            rate: 1.0,
            max_stall_cycles: u64::MAX,
            max_jitter_cycles: u64::MAX,
            ..FaultConfig::default()
        });
        let mut delays = 0;
        for i in 0..200 {
            if let Some(LinkFault::Delay(d)) = p.link_fault(site::LINK_FORWARD, i) {
                assert!(d >= 1);
                delays += 1;
            }
            assert!(p.stall_cycles(site::TX_FIFO, i) >= 1);
        }
        assert!(delays > 0, "a third of rate-1.0 faults are delays");
    }
}
