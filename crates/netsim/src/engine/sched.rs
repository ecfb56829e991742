//! Queue substrates of the engine: the rank-ordered router queue (per-flow
//! lanes over a shared arena), the in-flight delivery record, and the
//! window ring that holds deliveries until the window they arrive in.
//!
//! Everything here is ordering-critical: the independent reference engine
//! (`tests/engine_vs_oracle.rs`) checks, case by case, that the lanes pop
//! exactly the minimum-rank word a plain scan of the queue would.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
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

/// A lane head's heap key, `(rank, ready, lane, arena index)`: ordered by
/// the unique rank alone; the rest lets a transmit reach the head, and a
/// pop re-key the lane, without the lane table.
type HeadKey = (u64, Cycle, u32, u32);

/// A rank-ordered router (or ejection) queue: per-flow FIFO lanes over a
/// shared [`Arena`], plus an exact min-heap of one key per non-empty lane.
///
/// Correctness rests on one invariant: *words of a flow reach any given
/// queue in ascending rank order.* A lane is one flow at one hop, and all
/// of its words come from one upstream link (or injection port), which
/// sends them in rank order — a Drop retry stays at the upstream head, and
/// the link's `free` cursor is monotone even under Delay faults — so they
/// arrive and are filed in that order. Each lane is therefore pre-sorted,
/// the queue minimum is always a lane head, and the heap is over flows
/// (tens) instead of words (thousands); the order in which *lanes* fill is
/// free. The top key is cached inline, so arbitration ([`LaneQueue::head`])
/// reads no heap, lane table or arena, and a transmit no lane table.
#[derive(Debug)]
pub(crate) struct LaneQueue {
    /// The heap's minimum key (meaningless while the queue is empty).
    top: HeadKey,
    len: u32,
    /// Tail arena index per lane ([`NIL`] = empty lane); heads live in
    /// the heap keys.
    tails: Vec<u32>,
    /// Exact min-heap: one key per non-empty lane.
    heads: BinaryHeap<Reverse<HeadKey>>,
}

impl LaneQueue {
    pub fn new(lanes: u32) -> LaneQueue {
        LaneQueue {
            top: (0, 0, NIL, NIL),
            len: 0,
            tails: vec![NIL; lanes as usize],
            heads: BinaryHeap::new(),
        }
    }

    pub fn len(&self) -> u64 {
        u64::from(self.len)
    }

    /// `(rank, ready)` of the minimum-rank entry, if any.
    pub fn head(&self) -> Option<(u64, Cycle)> {
        (self.len > 0).then_some((self.top.0, self.top.1))
    }

    /// Files a word that arrived over the network or off its injection
    /// port: an append, since per-flow arrivals are rank-ascending.
    pub fn push_arrival(&mut self, lane: u32, e: QEntry, arena: &mut Arena<QEntry>) {
        let idx = arena.alloc(e);
        let tail = std::mem::replace(&mut self.tails[lane as usize], idx);
        if tail == NIL {
            let key = (e.rank, e.ready, lane, idx);
            self.heads.push(Reverse(key));
            if self.len == 0 || key < self.top {
                self.top = key;
            }
        } else {
            debug_assert!(
                arena.get(tail).rank < e.rank,
                "lane rank monotonicity violated"
            );
            arena.set_next(tail, idx);
        }
        self.len += 1;
    }

    /// The minimum-rank entry, left in place (the queue must be non-empty).
    pub fn front(&self, arena: &Arena<QEntry>) -> QEntry {
        debug_assert!(self.len > 0, "front of an empty router queue");
        *arena.get(self.top.3)
    }

    /// Removes and returns the minimum-rank entry: the lane's next word
    /// re-keys the heap top in place, or the key leaves with the lane's
    /// last word.
    pub fn pop(&mut self, arena: &mut Arena<QEntry>) -> QEntry {
        let (_, _, lane, head) = self.top;
        let mut top = self.heads.peek_mut().expect("pop on an empty router queue");
        debug_assert_eq!(top.0, self.top, "cached top out of step with the heap");
        let next = arena.next(head);
        let e = arena.free(head);
        if next == NIL {
            self.tails[lane as usize] = NIL;
            PeekMut::pop(top);
        } else {
            let n = arena.get(next);
            *top = Reverse((n.rank, n.ready, lane, next));
            drop(top);
        }
        self.len -= 1;
        if let Some(&Reverse(key)) = self.heads.peek() {
            self.top = key;
        }
        e
    }

    /// Re-arms the minimum-rank entry for a retry after a Drop: it stays at
    /// its lane's head (its rank is still the queue minimum) with a new
    /// `ready` cycle and one more try spent.
    pub fn retry_front(&mut self, ready: Cycle, arena: &mut Arena<QEntry>) {
        let mut top = self
            .heads
            .peek_mut()
            .expect("retry on an empty router queue");
        let e = arena.get_mut(self.top.3);
        e.ready = ready;
        e.tries += 1;
        self.top.1 = ready;
        // Same rank, so the key keeps its heap position.
        *top = Reverse(self.top);
    }
}

/// A word in flight between windows: transmitted during one window, filed
/// by its destination shard in the window containing `arrive`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
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

/// A shard's words in flight, bucketed by the window they arrive in: a
/// ring of per-window slots covering the windows `[base, base + slots)`,
/// plus an overflow list for arrivals beyond it (fault jitter past the
/// horizon, or a saturated arrival cycle), re-filed in order as the ring
/// turns. A slot releases its words in push order, unsorted; that keeps
/// each lane's words rank-ascending, which is all [`LaneQueue`] needs.
#[derive(Debug)]
pub(crate) struct DeliveryRing {
    window: Cycle,
    /// Index of the window the next [`DeliveryRing::drain`] releases.
    base: u64,
    slots: Vec<Vec<Delivery>>,
    overflow: Vec<Delivery>,
    /// Smallest window index in `overflow` (`u64::MAX` when empty): skips
    /// the re-file scan while the ring turns far below the parked words.
    overflow_min: u64,
    len: usize,
}

impl DeliveryRing {
    /// A ring of `window`-cycle windows (`window ≥ 1`) whose slots cover
    /// at least `horizon` cycles past the window being filled; the horizon
    /// sets only the fast-path hit rate, never correctness.
    pub fn new(window: Cycle, horizon: Cycle) -> DeliveryRing {
        DeliveryRing {
            window,
            base: 0,
            slots: vec![Vec::new(); (horizon.div_ceil(window) + 2) as usize],
            overflow: Vec::new(),
            overflow_min: u64::MAX,
            len: 0,
        }
    }

    /// Words in flight: in the slots and in the overflow list.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Schedules `d` for the window containing `d.arrive`.
    pub fn push(&mut self, d: Delivery) {
        let (w, n) = (d.arrive / self.window, self.slots.len() as u64);
        debug_assert!(w >= self.base, "a delivery cannot arrive in the past");
        self.len += 1;
        if w - self.base < n {
            self.slots[(w % n) as usize].push(d);
        } else {
            self.overflow_min = self.overflow_min.min(w);
            self.overflow.push(d);
        }
    }

    /// Releases, in push order, every delivery arriving in the window
    /// starting at `t0` (the ring's next window), then turns the ring.
    pub fn drain(&mut self, t0: Cycle, mut file: impl FnMut(Delivery)) {
        debug_assert_eq!(t0 / self.window, self.base, "windows drain in turn");
        let n = self.slots.len() as u64;
        let slot = (self.base % n) as usize;
        let mut batch = std::mem::take(&mut self.slots[slot]);
        self.len -= batch.len();
        batch.drain(..).for_each(&mut file);
        // Hand the drained Vec's capacity back to the ring.
        self.slots[slot] = batch;
        self.base += 1;
        if self.overflow_min < self.base + n {
            let (window, base, slots) = (self.window, self.base, &mut self.slots);
            let mut min = u64::MAX;
            // `retain` visits in order, so each slot keeps push order.
            self.overflow.retain(|&d| {
                let w = d.arrive / window;
                let park = w - base >= n;
                if park {
                    min = min.min(w);
                } else {
                    slots[(w % n) as usize].push(d);
                }
                park
            });
            self.overflow_min = min;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memcomm_util::check::forall;
    use memcomm_util::rng::Rng;

    /// A random merge of per-lane word lists that keeps each lane's order.
    fn interleave(rng: &mut Rng, lanes: &[Vec<QEntry>]) -> Vec<(u32, QEntry)> {
        let mut cursor = vec![0; lanes.len()];
        let mut out = Vec::new();
        loop {
            let open: Vec<usize> = (0..lanes.len())
                .filter(|&l| cursor[l] < lanes[l].len())
                .collect();
            let Some(&l) = open.get(rng.range_usize(0, open.len().max(1))) else {
                return out;
            };
            out.push((l as u32, lanes[l][cursor[l]]));
            cursor[l] += 1;
        }
    }

    /// Filing order is free: the same arrivals pushed in two interleavings
    /// (each lane's words in rank order) pop the same `(rank, ready)`
    /// sequence under random in-place retries, and `head()` always names
    /// a naive scan's minimum.
    #[test]
    fn filing_order_never_changes_what_pops() {
        forall("filing_order_never_changes_what_pops", 200, |rng| {
            let lanes = rng.range_u32(1, 9);
            let mut queues = [LaneQueue::new(lanes), LaneQueue::new(lanes)];
            let mut arenas = [Arena::new(), Arena::new()];
            let mut naive: Vec<QEntry> = Vec::new();
            // Ranks are unique within a queue; each lane takes an ascending
            // run of them, window after window.
            let mut next_rank = vec![0u64; lanes as usize];
            for _window in 0..rng.range_u32(1, 12) {
                let batch: Vec<Vec<QEntry>> = (0..lanes)
                    .map(|lane| {
                        let words = rng.range_usize(0, 6);
                        rng.vec(words, |rng| {
                            let l = &mut next_rank[lane as usize];
                            *l += rng.range_u64(1, 4);
                            QEntry {
                                rank: *l << 8 | u64::from(lane),
                                ready: rng.range_u64(0, 1 << 20),
                                ..QEntry::default()
                            }
                        })
                    })
                    .collect();
                for (q, (queue, arena)) in queues.iter_mut().zip(&mut arenas).enumerate() {
                    for (lane, e) in interleave(rng, &batch) {
                        queue.push_arrival(lane, e, arena);
                        if q == 0 {
                            naive.push(e);
                        }
                    }
                }
                for _ in 0..rng.range_usize(0, 2 * naive.len() + 1) {
                    let min = naive
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, e)| e.rank)
                        .map(|(i, e)| (i, *e));
                    for (queue, arena) in queues.iter().zip(&arenas) {
                        assert_eq!(queue.head(), min.map(|(_, e)| (e.rank, e.ready)));
                        assert_eq!(queue.len(), naive.len() as u64);
                        if let Some((_, e)) = min {
                            assert_eq!(queue.front(arena), e);
                        }
                    }
                    let Some((i, e)) = min else { break };
                    if rng.range_u32(0, 3) == 0 {
                        let ready = rng.range_u64(0, 1 << 20);
                        for (queue, arena) in queues.iter_mut().zip(&mut arenas) {
                            queue.retry_front(ready, arena);
                        }
                        naive[i].ready = ready;
                        naive[i].tries += 1;
                    } else {
                        for (queue, arena) in queues.iter_mut().zip(&mut arenas) {
                            assert_eq!(queue.pop(arena), e);
                        }
                        naive.swap_remove(i);
                    }
                }
            }
        });
    }

    /// The ring releases each window's deliveries in push order, overflow
    /// included (a slot's words from the overflow list were all pushed
    /// before any pushed straight into it), and counts what it holds.
    #[test]
    fn ring_releases_each_window_in_push_order() {
        forall("ring_releases_each_window_in_push_order", 64, |rng| {
            let window = rng.range_u64(1, 9);
            let mut ring = DeliveryRing::new(window, rng.range_u64(0, 40));
            let mut pending: Vec<Delivery> = Vec::new();
            let mut seq = 0;
            for w in 0..200u64 {
                let t0 = w * window;
                for _ in 0..rng.range_usize(0, 6) {
                    let arrive = match rng.range_u32(0, 8) {
                        0 => u64::MAX,
                        1 => t0 + rng.range_u64(0, 4000),
                        _ => t0 + rng.range_u64(0, 60),
                    };
                    let d = Delivery {
                        arrive,
                        seq,
                        t_inject: 0,
                        to_node: 0,
                        via_link: 0,
                        hop: 0,
                        vc: 0,
                    };
                    seq += 1;
                    ring.push(d);
                    pending.push(d);
                }
                let mut got = Vec::new();
                ring.drain(t0, |d| got.push(d));
                let want: Vec<Delivery> = pending
                    .iter()
                    .copied()
                    .filter(|d| d.arrive / window == w)
                    .collect();
                pending.retain(|d| d.arrive / window != w);
                assert_eq!(got, want, "window {w}");
                assert_eq!(ring.len(), pending.len());
            }
        });
    }
}
