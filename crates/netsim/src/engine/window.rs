//! The conservative-window logic — one window of one shard.
//!
//! Every event a stage emits lands in its stage's own output vector, with
//! sites visited in ascending order within the shard. Because each site
//! (port or link) is owned by exactly one shard under *any* port-group
//! partition, and a site's inputs arrive only through the barrier, the
//! per-site event sequence of a window does not depend on the partition —
//! the property the coordinator's canonical stage-major fold relies on.

use memcomm_memsim::clock::Cycle;
use memcomm_memsim::fault::{site, LinkFault};
use memcomm_memsim::nic::{NetWord, TimedFifo};

use crate::link::ceil_cycle;

use super::build::{Net, BACKOFF, QUEUE, WIRE};
use super::sched::{word_rank, Delivery, QEntry};
use super::shard::{Shard, BUSY_ONE};
use super::{EngineEvent, EventKind};

impl Shard {
    /// Runs one window, leaving its output in `self.out` for the
    /// coordinator to fold and route at the barrier.
    pub(crate) fn run_window(&mut self, t0: Cycle, t1: Cycle, net: &Net) {
        let Shard {
            id,
            node_lo,
            tx,
            rx,
            feed_list,
            feed_span,
            feed_pos,
            feed_word,
            src_free,
            drain_free,
            eject,
            links,
            link_lo,
            ports,
            ring,
            inbox,
            credit_inbox,
            arena,
            drained_flows,
            lat_hist,
            lat_sums,
            stall_mark,
            telemetry,
            out,
            ..
        } = self;
        let (id, node_lo, link_lo) = (*id, *node_lo, *link_lo);
        // Busy time of an undelayed transmit, rounded once per window.
        let wt_fp = (net.wt * BUSY_ONE).round() as u64;
        out.clear();

        // Credits freed during the previous window become usable now.
        for (local, vc) in credit_inbox.iter_mut().flat_map(|c| c.drain(..)) {
            links[local as usize].credits[vc as usize] += 1;
        }

        // 1. Deliveries due this window, in push order (see `DeliveryRing`
        // for why no sort is needed): file each word into its next link
        // queue, or into the destination's ejection queue. The word keeps
        // occupying its upstream (via_link, vc) buffer until it moves on.
        for d in inbox.iter_mut().flat_map(|d| d.drain(..)) {
            ring.push(d);
        }
        ring.drain(t0, |d| {
            let flow = &net.flows[(d.seq >> 32) as usize];
            let next = d.hop as usize + 1;
            let (queue, lane, hop) = match flow.hops.get(next) {
                None => (
                    &mut eject[(d.to_node - node_lo) as usize],
                    flow.eject_lane,
                    d.hop,
                ),
                Some(h) => {
                    let queue = &mut links[(h.link - link_lo) as usize].queues[usize::from(h.vc)];
                    (queue, h.lane, next as u16)
                }
            };
            let e = QEntry {
                rank: word_rank(d.seq),
                ready: d.arrive,
                t_inject: d.t_inject,
                prev_link: d.via_link,
                tries: 0,
                hop,
                prev_vc: d.vc,
            };
            queue.push_arrival(lane, e, arena);
        });

        // 2. Source pump: memory feeds tx at its own pace, blocked by a full
        // FIFO (the processor stalls — the analytic model's port term).
        for i in 0..tx.len() {
            let (_, span_hi) = feed_span[i];
            loop {
                let pos = feed_pos[i];
                if pos >= span_hi {
                    break;
                }
                let fi = feed_list[pos as usize];
                let flow = &net.flows[fi as usize];
                if feed_word[i] >= flow.words {
                    feed_pos[i] += 1;
                    feed_word[i] = 0;
                    continue;
                }
                let t = src_free[i].max(t0);
                if t >= t1 {
                    break;
                }
                let seq = (u64::from(fi) << 32) | u64::from(feed_word[i]);
                let Some(at) = tx[i].push(t, NetWord::data(seq)) else {
                    break;
                };
                src_free[i] = at;
                feed_word[i] += 1;
                out.progress += 1;
            }
        }

        // 3. Injection: each port serializes the words of its node group
        // onto the network, arbitrating by (ready, node).
        for p in ports.iter_mut() {
            loop {
                let mut best: Option<(Cycle, u32)> = None;
                for node in p.node_lo..p.node_hi {
                    let local = (node - node_lo) as usize;
                    if let Some(r) = tx[local].front_ready() {
                        if best.is_none_or(|b| (r, node) < b) {
                            best = Some((r, node));
                        }
                    }
                }
                let Some((ready, node)) = best else {
                    break;
                };
                let start = (ready as f64).max(p.inject_free).max(t0 as f64);
                if start >= t1 as f64 {
                    break;
                }
                let local = (node - node_lo) as usize;
                let t_start = start as Cycle;
                let (_, w) = tx[local]
                    .pop(t_start)
                    .expect("arbitration picked a non-empty tx FIFO");
                let seq = w.data;
                let h = net.flows[(seq >> 32) as usize].hops[0];
                p.inject_free = start + net.wt;
                let entry = ceil_cycle(p.inject_free);
                let port_id = p.id;
                links[(h.link - link_lo) as usize].queues[usize::from(h.vc)].push_arrival(
                    h.lane,
                    QEntry {
                        rank: word_rank(seq),
                        ready: entry,
                        t_inject: t_start,
                        prev_link: u32::MAX,
                        ..QEntry::default()
                    },
                    arena,
                );
                out.inject_events.push(EngineEvent {
                    time: t_start,
                    kind: EventKind::Inject,
                    site: port_id,
                    vc: h.vc,
                    seq,
                });
                out.progress += 1;
            }
        }

        // 4. Links: transmit queued words while the wire and window allow,
        // earliest feasible (start, seq) first across the two VCs; a
        // transmit consumes a credit of this link's downstream buffer and
        // returns the upstream one. Arbitration reads only the queues'
        // cached heads; an idle link is skipped outright.
        for l in links.iter_mut() {
            if l.queues.iter().all(|q| q.len() == 0) {
                continue;
            }
            loop {
                let mut best: Option<(f64, u64, usize)> = None;
                for vc in 0..2usize {
                    if l.credits[vc] == 0 {
                        continue;
                    }
                    let Some((rank, ready)) = l.queues[vc].head() else {
                        continue;
                    };
                    let start = (ready as f64).max(l.free).max(t0 as f64);
                    if best.is_none_or(|(bs, bq, _)| (start, rank) < (bs, bq)) {
                        best = Some((start, rank, vc));
                    }
                }
                let Some((start, _, vc)) = best else {
                    break;
                };
                if start >= t1 as f64 {
                    break;
                }
                let t_start = start as Cycle;
                // Outage calendar: a link inside an outage window cannot
                // transmit; it parks until the window's recovery cycle (or
                // forever — the degraded accounting picks up what a
                // permanently dead link strands). The link caches the
                // calendar's answer over the span it holds for.
                if net.outages {
                    let (_, lo, hi) = l.outage_span;
                    if !(lo..hi).contains(&t_start) {
                        l.outage_span = net
                            .fault
                            .link_outage_span(site::engine_link(l.global), t_start);
                    }
                    if let Some(end) = l.outage_span.0 {
                        if end > l.outage_mark {
                            l.outages += 1;
                            out.outaged += 1;
                            l.outage_mark = end;
                        }
                        if end == Cycle::MAX {
                            l.free = f64::INFINITY;
                            break;
                        }
                        l.free = l.free.max(end as f64);
                        continue;
                    }
                }
                // The head stays queued: a retried Drop re-arms it in place.
                let e = l.queues[vc].front(arena);
                let seq = e.seq();
                // Attribution: everything between the word's last milestone
                // (`ready`) and the floor the transmit actually starts on is
                // queueing — waiting for credits, the wire, or an outage.
                net.attribution
                    .charge(seq, QUEUE, t_start.saturating_sub(e.ready));
                let fault = net
                    .fault
                    .link_fault(site::engine_link(l.global), l.attempts);
                l.attempts += 1;
                let mut wire = net.wt;
                match fault {
                    Some(LinkFault::Drop) => {
                        // The wire is consumed but nothing arrives. Within
                        // the per-hop retry budget the word retransmits from
                        // its upstream buffer after a deterministic
                        // exponential backoff (links are lossless in
                        // hardware — this models the retry a real adapter
                        // schedules); past the budget it is abandoned, its
                        // upstream buffer freed, and the run degrades with
                        // exact accounting instead of wedging.
                        l.free = start + wire;
                        l.busy_fp = l.busy_fp.saturating_add(wt_fp);
                        out.link_events.push(EngineEvent {
                            time: t_start,
                            kind: EventKind::Drop,
                            site: l.global,
                            vc: vc as u8,
                            seq,
                        });
                        out.dropped += 1;
                        out.progress += 1;
                        if e.tries >= net.retry.max_retries {
                            l.queues[vc].pop(arena);
                            if e.prev_link != u32::MAX {
                                out.free_credit(net, e.prev_link, e.prev_vc);
                            }
                            out.abandoned += 1;
                            continue;
                        }
                        let next_ready =
                            ceil_cycle(l.free).saturating_add(net.retry.delay(e.tries));
                        // Attribution: the span from this transmit's start
                        // to the retry's ready cycle (wasted wire +
                        // exponential backoff) is charged to backoff;
                        // `ready` stays the milestone.
                        net.attribution
                            .charge(seq, BACKOFF, next_ready.saturating_sub(t_start));
                        l.queues[vc].retry_front(next_ready, arena);
                        out.retried += 1;
                        continue;
                    }
                    Some(LinkFault::Corrupt(_)) => out.corrupted += 1,
                    Some(LinkFault::Delay(d)) => wire += d as f64,
                    None => {}
                }
                l.queues[vc].pop(arena);
                l.credits[vc] -= 1;
                l.free = start + wire;
                // Saturating: a Delay near a `u64::MAX` jitter bound parks
                // its arrival in the ring's overflow list for the watchdog.
                l.busy_fp = l.busy_fp.saturating_add(if wire == net.wt {
                    wt_fp
                } else {
                    (wire * BUSY_ONE).round() as u64
                });
                let arrive = ceil_cycle(l.free).saturating_add(net.latency);
                if e.prev_link != u32::MAX {
                    out.free_credit(net, e.prev_link, e.prev_vc);
                }
                out.link_events.push(EngineEvent {
                    time: t_start,
                    kind: EventKind::Hop,
                    site: l.global,
                    vc: vc as u8,
                    seq,
                });
                // Attribution: transmit start to delivery (serialization,
                // fault delay, and link latency) is wire time; `arrive`
                // becomes the word's next milestone.
                net.attribution
                    .charge(seq, WIRE, arrive.saturating_sub(t_start));
                let to_node = net.link_to[l.global as usize];
                let d = Delivery {
                    arrive,
                    seq,
                    t_inject: e.t_inject,
                    to_node,
                    via_link: l.global,
                    hop: e.hop,
                    vc: vc as u8,
                };
                match net.shard_of_node[to_node as usize] {
                    dest if dest == id => ring.push(d),
                    dest => out.deliveries[dest as usize].push(d),
                }
                out.flit_hops += 1;
                out.progress += 1;
            }
        }

        // 5. Ejection: the port serializes arrived words into the
        // destination rx FIFO; a full FIFO backpressures into the network
        // (the upstream buffer credit stays consumed).
        for p in ports.iter_mut() {
            loop {
                let (p_lo, p_hi) = (p.node_lo, p.node_hi);
                let mut best: Option<(u64, Cycle, u32)> = None;
                for node in p_lo..p_hi {
                    let local = (node - node_lo) as usize;
                    let Some((rank, ready)) = eject[local].head() else {
                        continue;
                    };
                    let full = rx[local].len() == rx[local].capacity();
                    if !full && best.is_none_or(|(br, bq, _)| (rank, ready) < (br, bq)) {
                        best = Some((rank, ready, node));
                    }
                }
                let Some((_, ready, node)) = best else {
                    break;
                };
                let start = (ready as f64).max(p.eject_free).max(t0 as f64);
                if start >= t1 as f64 {
                    break;
                }
                let local = (node - node_lo) as usize;
                let e = eject[local].pop(arena);
                let seq = e.seq();
                let t_start = start as Cycle;
                p.eject_free = start + net.wt;
                let t_in = ceil_cycle(p.eject_free);
                if net.record_latency {
                    let class = usize::from(net.flows[(seq >> 32) as usize].class);
                    let lat = t_start.saturating_sub(e.t_inject);
                    lat_hist[class].record(lat);
                    if !lat_sums.is_empty() {
                        // The final queue charge: waiting for the ejection
                        // port. Inject wait is the residual, so the four
                        // components telescope to `lat` exactly.
                        let [queue, wire, backoff] = net.attribution.read(seq);
                        let queue = queue.saturating_add(t_start.saturating_sub(e.ready));
                        let b = &mut lat_sums[class];
                        b.count += 1;
                        b.queue += queue;
                        b.wire += wire;
                        b.backoff += backoff;
                        b.total += lat;
                        b.inject += lat
                            .saturating_sub(queue)
                            .saturating_sub(wire)
                            .saturating_sub(backoff);
                    }
                }
                rx[local]
                    .push(t_in, NetWord::data(seq))
                    .expect("arbitration checked rx had space");
                out.free_credit(net, e.prev_link, e.prev_vc);
                out.eject_events.push(EngineEvent {
                    time: t_start,
                    kind: EventKind::Eject,
                    site: p.id,
                    vc: e.prev_vc,
                    seq,
                });
                out.progress += 1;
            }
        }

        // 6. Drain: the memory side unconditionally empties rx at its own
        // pace — this is what guarantees ejection eventually proceeds.
        for i in 0..rx.len() {
            while let Some(avail) = rx[i].front_ready() {
                let t = avail.max(drain_free[i]).max(t0);
                if t >= t1 {
                    break;
                }
                let (at, w) = rx[i].pop(t).expect("front_ready implies non-empty");
                drain_free[i] = at;
                drained_flows[net.drain_slot[(w.data >> 32) as usize] as usize] += 1;
                out.drained += 1;
                out.last_drain = out.last_drain.max(at);
                out.progress += 1;
            }
        }

        // The shard's contribution to the barrier's backlog gauge.
        out.queued = arena.len() as u64;

        // NIC stall delta for the coordinator's once-per-window registry
        // flush (the FIFOs are armed quiet, so this is the only place the
        // stall ledger surfaces).
        if net.fault.is_active() {
            let fired: u64 = tx.iter().map(TimedFifo::stalls_fired).sum::<u64>()
                + rx.iter().map(TimedFifo::stalls_fired).sum::<u64>();
            out.stalls = fired - *stall_mark;
            *stall_mark = fired;
        }

        // Sampling ticks: every shard walks the same global tick schedule
        // (windows are uniform across shards), so per-shard series stay
        // aligned point for point under any partition.
        if let Some(tel) = telemetry {
            tel.pending_retries += out.retried;
            tel.pending_outages += out.outaged;
            while tel.next_tick <= t1 {
                tel.sample(tx, rx, eject, links, arena);
                tel.next_tick += net.sample_every;
            }
        }
    }
}
