//! Queue substrates of the engine: the rank-ordered router queue (per-flow
//! lanes over a shared arena) and the in-flight delivery record.
//!
//! Everything here is ordering-critical: the independent reference engine
//! (`tests/engine_vs_oracle.rs`) checks, case by case, that the lanes pop
//! exactly the minimum-rank word a plain scan of the queue would.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use memcomm_memsim::clock::Cycle;
use memcomm_util::arena::{Arena, NIL};

/// Queued word waiting to transmit on a link. Queues serve it by `rank`,
/// the word-major rotation of the globally unique `seq` (word index in the
/// high bits), so a backlogged link interleaves competing flows word by word — the deterministic analogue of a router's
/// round-robin arbiter. Arrival-order service would instead let the flow
/// nearest the bottleneck convoy hundreds of words ahead, starving the
/// links downstream of the other flows' turns.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct QEntry {
    pub rank: u64,
    pub ready: Cycle,
    /// Cycle the word left its injection port (for inject→eject latency).
    pub t_inject: Cycle,
    /// Upstream buffer the word still occupies (`u32::MAX` = none, the word
    /// came straight off its injection port).
    pub prev_link: u32,
    /// Fault-drop retransmissions already spent on this hop; the retry
    /// policy abandons the word once the budget runs out. Arbitration reads
    /// only `rank` and `ready`, so this never perturbs it.
    pub tries: u32,
    pub hop: u16,
    pub prev_vc: u8,
}

impl QEntry {
    /// The word's identity, `flow << 32 | word` ([`word_rank`] inverted).
    pub fn seq(&self) -> u64 {
        self.rank.rotate_right(32)
    }
}

// Hot structs carry only what the hot path reads (ROADMAP.md): every queued
// or in-flight word pays for each byte, so attribution lives in a side ledger.
const _: () = assert!(std::mem::size_of::<QEntry>() <= 40);
const _: () = assert!(std::mem::size_of::<Delivery>() <= 40);

/// Word-major arbitration rank: `seq` packs `flow << 32 | word`, so the
/// rotation compares word index first and flow index only on ties. Ranks
/// are a bijection of the globally unique `seq`, so within any one queue
/// the rank alone totals the order.
pub(crate) fn word_rank(seq: u64) -> u64 {
    seq.rotate_left(32)
}

/// A rank-ordered router (or ejection) queue: per-flow FIFO lanes over a
/// shared [`Arena`], plus a lazy min-heap of lane-head `(rank, lane)`
/// candidates.
///
/// Correctness rests on one invariant: *words of a flow reach any given
/// queue in ascending rank order.* Injection emits a flow's words in word
/// order; on every shared link the earlier word (lower rank in the same
/// lane) transmits first and the link's `free` cursor is monotone, so
/// arrival stamps — and delivery filing, which each shard's wheel releases
/// in `(arrive, seq)` order — preserve per-flow order hop by hop, even
/// under Delay faults (the delay moves `free` for both words alike). A Drop
/// retry re-files the entry it just popped, which is a *prepend*, not an
/// append. Each lane is therefore pre-sorted, the queue minimum is always a
/// lane head, and the head heap is over flows (tens) instead of words
/// (thousands).
///
/// The head heap is *lazy*: prepends push a fresh candidate without
/// retracting the old head's entry, so stale candidates linger and are
/// discarded when they surface ([`LaneQueue::settle`]). Every non-empty
/// lane always has its current head among the candidates.
#[derive(Debug)]
pub(crate) struct LaneQueue {
    /// `(head, tail)` arena indices per lane ([`NIL`] = empty lane).
    lanes: Vec<(u32, u32)>,
    /// Lazy min-heap of `(head rank, lane)` candidates.
    heads: BinaryHeap<Reverse<(u64, u32)>>,
    len: u32,
}

impl LaneQueue {
    pub fn new(lanes: u32) -> LaneQueue {
        LaneQueue {
            lanes: vec![(NIL, NIL); lanes as usize],
            heads: BinaryHeap::new(),
            len: 0,
        }
    }

    pub fn len(&self) -> u64 {
        u64::from(self.len)
    }

    /// Files a word that arrived over the network or off its injection
    /// port: an append, since per-flow arrivals are rank-ascending.
    pub fn push_arrival(&mut self, lane: u32, e: QEntry, arena: &mut Arena<QEntry>) {
        let idx = arena.alloc(e);
        let slot = &mut self.lanes[lane as usize];
        if slot.0 == NIL {
            *slot = (idx, idx);
            self.heads.push(Reverse((e.rank, lane)));
        } else {
            debug_assert!(
                arena.get(slot.1).rank < e.rank,
                "lane rank monotonicity violated"
            );
            arena.set_next(slot.1, idx);
            slot.1 = idx;
        }
        self.len += 1;
    }

    /// Re-files the entry just popped (a dropped word retrying): its rank
    /// is still the lane minimum, so it prepends.
    pub fn push_retry(&mut self, lane: u32, e: QEntry, arena: &mut Arena<QEntry>) {
        let idx = arena.alloc(e);
        let slot = &mut self.lanes[lane as usize];
        if slot.0 == NIL {
            slot.1 = idx;
        } else {
            arena.set_next(idx, slot.0);
        }
        slot.0 = idx;
        self.heads.push(Reverse((e.rank, lane)));
        self.len += 1;
    }

    /// Discards stale head candidates until the top one is live.
    fn settle(&mut self, arena: &Arena<QEntry>) {
        while let Some(&Reverse((rank, lane))) = self.heads.peek() {
            let head = self.lanes[lane as usize].0;
            if head != NIL && arena.get(head).rank == rank {
                return;
            }
            self.heads.pop();
        }
    }

    /// The minimum-rank entry, if any.
    pub fn peek(&mut self, arena: &Arena<QEntry>) -> Option<QEntry> {
        self.settle(arena);
        let &Reverse((_, lane)) = self.heads.peek()?;
        Some(*arena.get(self.lanes[lane as usize].0))
    }

    pub fn pop(&mut self, arena: &mut Arena<QEntry>) -> QEntry {
        self.settle(arena);
        let Reverse((_, lane)) = self.heads.pop().expect("pop on an empty router queue");
        let slot = &mut self.lanes[lane as usize];
        let head = slot.0;
        let next = arena.next(head);
        let e = arena.free(head);
        slot.0 = next;
        if next == NIL {
            slot.1 = NIL;
        } else {
            self.heads.push(Reverse((arena.get(next).rank, lane)));
        }
        self.len -= 1;
        e
    }
}

/// A word in flight between windows: transmitted during one window, filed
/// by its destination shard in the window containing `arrive`. The derived
/// order is `(arrive, seq)` — unique, since a word is in flight at most
/// once — which is the order the delivery wheels release it in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct Delivery {
    pub arrive: Cycle,
    pub seq: u64,
    /// Injection cycle carried end-to-end.
    pub t_inject: Cycle,
    pub to_node: u32,
    pub via_link: u32,
    pub hop: u16,
    pub vc: u8,
}
