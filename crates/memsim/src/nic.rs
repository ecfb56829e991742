//! Network-interface FIFOs.
//!
//! The nodes expose their network as memory-mapped FIFO ports. A
//! [`TimedFifo`] is a bounded queue whose items carry availability
//! timestamps, so producer and consumer state machines running at different
//! local times compose causally: a producer blocked on a full FIFO resumes
//! no earlier than the pop that freed the slot, and a consumer never sees a
//! word before the cycle it was pushed.

use std::collections::VecDeque;

use crate::clock::Cycle;

/// What a wire word means to the receiving engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WordKind {
    /// Payload (optionally with a remote store address) — a put.
    #[default]
    Data,
    /// A remote-load request — a get: `addr` is the remote address to read,
    /// `data` carries the requester-local reply address.
    Request,
    /// Protocol control traffic (frame headers, checksums, acknowledgements)
    /// — `data` carries the opcode and operands, packed by the protocol
    /// layer. Engines that only understand raw puts/gets reject these.
    Control,
}

/// One word on the wire: the 64-bit payload, plus the remote store address
/// when the transfer sends address-data pairs (`Nadp`), plus its meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetWord {
    /// Destination byte address, present for address-data-pair transfers.
    pub addr: Option<u64>,
    /// The 64-bit payload (for requests: the reply address).
    pub data: u64,
    /// Request or data.
    pub kind: WordKind,
}

impl NetWord {
    /// A bare data word (data-only network, `Nd`).
    pub fn data(data: u64) -> Self {
        NetWord {
            addr: None,
            data,
            kind: WordKind::Data,
        }
    }

    /// An address-data pair (`Nadp`) — a remote store.
    pub fn addressed(addr: u64, data: u64) -> Self {
        NetWord {
            addr: Some(addr),
            data,
            kind: WordKind::Data,
        }
    }

    /// A remote-load request: read `remote_addr` on the target, deliver to
    /// `reply_addr` here.
    pub fn request(remote_addr: u64, reply_addr: u64) -> Self {
        NetWord {
            addr: Some(remote_addr),
            data: reply_addr,
            kind: WordKind::Request,
        }
    }

    /// A protocol control word; `data` packs the opcode and operands.
    pub fn control(data: u64) -> Self {
        NetWord {
            addr: None,
            data,
            kind: WordKind::Control,
        }
    }

    /// Bytes this word occupies on the wire: 8 for data, 16 for an
    /// address-data pair or a request (two addresses).
    pub fn wire_bytes(&self) -> u64 {
        if self.addr.is_some() {
            16
        } else {
            8
        }
    }
}

/// A bounded FIFO with timestamped occupancy.
#[derive(Debug, Clone)]
pub struct TimedFifo {
    items: VecDeque<(Cycle, NetWord)>,
    /// When each free slot was freed, earliest first.
    free_slots: VecDeque<Cycle>,
    capacity: usize,
    pushed: u64,
    stalls: u64,
    faults: Option<(crate::fault::FaultPlan, u64)>,
    obs: memcomm_obs::Obs,
}

impl TimedFifo {
    /// Creates a FIFO with `capacity` word slots.
    ///
    /// # Panics
    ///
    /// Panics for zero capacity (a zero-slot FIFO deadlocks every driver).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= 1, "fifo capacity must be at least 1");
        TimedFifo {
            items: VecDeque::with_capacity(capacity),
            free_slots: vec![0; capacity].into(),
            capacity,
            pushed: 0,
            stalls: 0,
            faults: None,
            obs: memcomm_obs::Obs::disabled(),
        }
    }

    /// Arms fault injection: each push draws a (usually zero) stall window
    /// from the plan, modelling back-pressure glitches in the NIC. Fired
    /// stalls count into the observability handle current at arming time.
    pub fn set_faults(&mut self, plan: crate::fault::FaultPlan, site: u64) {
        self.faults = plan.is_active().then_some((plan, site));
        if self.faults.is_some() {
            self.obs = memcomm_obs::Obs::current();
        }
    }

    /// Arms fault injection *without* capturing an observability handle:
    /// fired stalls only bump the local [`stalls_fired`](Self::stalls_fired)
    /// counter. Batch engines use this so their hot path never takes the
    /// registry lock per event — the coordinator diffs the counter once per
    /// window and flushes one aggregate delta, which lands on the same
    /// totals (counter adds commute).
    pub fn set_faults_quiet(&mut self, plan: crate::fault::FaultPlan, site: u64) {
        self.faults = plan.is_active().then_some((plan, site));
        self.obs = memcomm_obs::Obs::disabled();
    }

    /// Pushes that drew a non-zero stall window since construction.
    pub fn stalls_fired(&self) -> u64 {
        self.stalls
    }

    /// Capacity in words.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Words currently enqueued.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the FIFO holds no words.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Total words ever pushed.
    pub fn total_pushed(&self) -> u64 {
        self.pushed
    }

    /// Attempts to push at local time `t`. On success returns the cycle the
    /// word actually entered the FIFO (`>= t`; later if the freeing pop
    /// happened later). Returns `None` when every slot is occupied — the
    /// caller is blocked and must let the consumer run.
    pub fn push(&mut self, t: Cycle, word: NetWord) -> Option<Cycle> {
        let slot_free = self.free_slots.pop_front()?;
        let stall = match &self.faults {
            Some((plan, s)) => plan.stall_cycles(*s, self.pushed),
            None => 0,
        };
        if stall > 0 {
            self.stalls += 1;
            self.obs.count(crate::stats::fault_metric::INJECTED, 1);
        }
        let at = t.max(slot_free) + stall;
        self.items.push_back((at, word));
        self.pushed += 1;
        Some(at)
    }

    /// When the oldest word becomes visible to a consumer, if any.
    pub fn front_ready(&self) -> Option<Cycle> {
        self.items.front().map(|(at, _)| *at)
    }

    /// Attempts to pop at local time `t`. On success returns the pop cycle
    /// (`max(t, word availability)`) and the word; the freed slot is stamped
    /// with the pop cycle. Returns `None` when empty.
    pub fn pop(&mut self, t: Cycle) -> Option<(Cycle, NetWord)> {
        let (avail, word) = self.items.pop_front()?;
        let at = t.max(avail);
        // A single consumer pops in non-decreasing time, so the stamp
        // almost always goes last; any other goes to its sorted place.
        match self.free_slots.back() {
            Some(&last) if at < last => {
                let i = self.free_slots.partition_point(|&s| s <= at);
                self.free_slots.insert(i, at);
            }
            _ => self.free_slots.push_back(at),
        }
        Some((at, word))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(data: u64) -> NetWord {
        NetWord::data(data)
    }

    #[test]
    fn fifo_order_and_counts() {
        let mut f = TimedFifo::new(4);
        f.push(0, w(1)).unwrap();
        f.push(1, w(2)).unwrap();
        assert_eq!(f.pop(5).unwrap().1.data, 1);
        assert_eq!(f.pop(5).unwrap().1.data, 2);
        assert_eq!(f.total_pushed(), 2);
        assert!(f.is_empty());
    }

    #[test]
    fn full_fifo_blocks_push() {
        let mut f = TimedFifo::new(2);
        assert!(f.push(0, w(1)).is_some());
        assert!(f.push(0, w(2)).is_some());
        assert!(f.push(0, w(3)).is_none());
        let (pop_t, _) = f.pop(50).unwrap();
        assert_eq!(pop_t, 50);
        // The freed slot is stamped with the pop time: a retry from an
        // earlier producer clock lands at 50.
        assert_eq!(f.push(10, w(3)), Some(50));
    }

    #[test]
    fn consumer_waits_for_availability() {
        let mut f = TimedFifo::new(2);
        f.push(100, w(9)).unwrap();
        let (t, word) = f.pop(10).unwrap();
        assert_eq!(t, 100, "cannot pop before the word arrived");
        assert_eq!(word.data, 9);
    }

    #[test]
    fn front_ready_peeks_without_removing() {
        let mut f = TimedFifo::new(1);
        assert_eq!(f.front_ready(), None);
        f.push(7, w(1)).unwrap();
        assert_eq!(f.front_ready(), Some(7));
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn wire_bytes_reflect_addressing() {
        assert_eq!(w(0).wire_bytes(), 8);
        assert_eq!(NetWord::addressed(64, 0).wire_bytes(), 16);
        assert_eq!(NetWord::request(64, 128).wire_bytes(), 16);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = TimedFifo::new(0);
    }

    #[test]
    fn quiet_faults_stall_identically_but_skip_the_registry() {
        let plan = crate::fault::FaultPlan::new(crate::fault::FaultConfig {
            seed: 7,
            rate: 1.0,
            max_stall_cycles: 4,
            ..crate::fault::FaultConfig::default()
        });
        let obs = memcomm_obs::Obs::new(false);
        let _guard = obs.install();
        let mut loud = TimedFifo::new(64);
        loud.set_faults(plan, 11);
        let mut quiet = TimedFifo::new(64);
        quiet.set_faults_quiet(plan, 11);
        for i in 0..32 {
            // Identical plan and site: both FIFOs draw the same stalls and
            // land every word on the same cycle.
            assert_eq!(loud.push(i, w(i)), quiet.push(i, w(i)));
        }
        assert!(loud.stalls_fired() > 0);
        assert_eq!(loud.stalls_fired(), quiet.stalls_fired());
        // Only the loud FIFO touched the registry; the quiet one left the
        // aggregate flush to its coordinator.
        assert_eq!(
            obs.counter(crate::stats::fault_metric::INJECTED),
            loud.stalls_fired()
        );
    }
}
