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
use memcomm_memsim::nic::TimedFifo;

use super::build::Net;
use super::sched::{word_rank, QEntry};
use super::shard::{Shard, WindowOut, BUSY_ONE};
use super::{EngineEvent, EventKind};

impl Shard {
    /// Runs one window, reusing the shard's persistent output buffers (the
    /// coordinator drains them at the barrier).
    pub(crate) fn run_window_in_place(&mut self, t0: Cycle, t1: Cycle, net: &Net) {
        let mut out = std::mem::take(&mut self.out);
        out.clear();
        self.window_core(t0, t1, net, &mut out);
        self.out = out;
    }

    fn window_core(&mut self, t0: Cycle, t1: Cycle, net: &Net, out: &mut WindowOut) {
        let Shard {
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
            link_globals,
            ports,
            inbox,
            credit_inbox,
            arena,
            drained_flows,
            lat_hist,
            lat_sums,
            stall_mark,
            telemetry,
            ..
        } = self;
        let node_lo = *node_lo;

        // Credits freed during the previous window become usable now.
        for (local, vc) in credit_inbox.drain(..) {
            links[local as usize].credits[vc as usize] += 1;
        }

        // 1. Deliveries due this window (coordinator pre-sorted by
        // (arrive, seq)): file each word into its next link queue, or into
        // the destination's ejection queue. The word keeps occupying its
        // upstream (via_link, vc) buffer until it moves on.
        for d in inbox.iter().copied() {
            let flow = &net.flows[(d.seq >> 32) as usize];
            let next = d.hop as usize + 1;
            if next == flow.hops.len() {
                let local = (d.to_node - node_lo) as usize;
                eject[local].push_arrival(
                    flow.eject_lane,
                    QEntry {
                        rank: word_rank(d.seq),
                        ready: d.arrive,
                        seq: d.seq,
                        hop: d.hop,
                        prev_link: d.via_link,
                        prev_vc: d.vc,
                        tries: 0,
                        t_inject: d.t_inject,
                        queue_cycles: d.queue_cycles,
                        wire_cycles: d.wire_cycles,
                        backoff_cycles: d.backoff_cycles,
                    },
                    arena,
                );
            } else {
                let h = flow.hops[next];
                let li = link_globals
                    .binary_search(&h.link)
                    .expect("delivery routed to a shard that does not own the link");
                links[li].queues[usize::from(h.vc)].push_arrival(
                    h.lane,
                    QEntry {
                        rank: word_rank(d.seq),
                        ready: d.arrive,
                        seq: d.seq,
                        hop: next as u16,
                        prev_link: d.via_link,
                        prev_vc: d.vc,
                        tries: 0,
                        t_inject: d.t_inject,
                        queue_cycles: d.queue_cycles,
                        wire_cycles: d.wire_cycles,
                        backoff_cycles: d.backoff_cycles,
                    },
                    arena,
                );
            }
        }
        inbox.clear();

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
                let Some(at) = tx[i].push(t, net.word(seq)) else {
                    break;
                };
                src_free[i] = at + net.source_wc;
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
                let (_, w) = tx[local]
                    .pop(start.floor() as Cycle)
                    .expect("arbitration picked a non-empty tx FIFO");
                let seq = w.data;
                let h = net.flows[(seq >> 32) as usize].hops[0];
                let li = link_globals
                    .binary_search(&h.link)
                    .expect("flow injected on a shard that does not own its first link");
                p.inject_free = start + net.wt;
                let entry = p.inject_free.ceil() as Cycle;
                let port_id = p.id;
                links[li].queues[usize::from(h.vc)].push_arrival(
                    h.lane,
                    QEntry {
                        rank: word_rank(seq),
                        ready: entry,
                        seq,
                        hop: 0,
                        prev_link: u32::MAX,
                        prev_vc: 0,
                        tries: 0,
                        t_inject: start.floor() as Cycle,
                        queue_cycles: 0,
                        wire_cycles: 0,
                        backoff_cycles: 0,
                    },
                    arena,
                );
                out.inject_events.push(EngineEvent {
                    time: start.floor() as Cycle,
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
        // returns the upstream one.
        for l in links.iter_mut() {
            loop {
                let mut best: Option<(f64, u64, usize)> = None;
                for vc in 0..2usize {
                    if l.credits[vc] == 0 {
                        continue;
                    }
                    let Some(e) = l.queues[vc].peek(arena) else {
                        continue;
                    };
                    let start = (e.ready as f64).max(l.free).max(t0 as f64);
                    if best.is_none_or(|(bs, bq, _)| (start, e.rank) < (bs, bq)) {
                        best = Some((start, e.rank, vc));
                    }
                }
                let Some((start, _, vc)) = best else {
                    break;
                };
                if start >= t1 as f64 {
                    break;
                }
                // Outage calendar: a link inside an outage window cannot
                // transmit; it parks until the window's recovery cycle (or
                // forever — the degraded accounting picks up what a
                // permanently dead link strands).
                if net.outages {
                    if let Some(end) = net
                        .fault
                        .link_outage_until(site::engine_link(l.global), start.floor() as Cycle)
                    {
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
                let mut e = l.queues[vc].pop(arena);
                // Attribution: everything between the word's last milestone
                // (`ready`) and the floor the transmit actually starts on is
                // queueing — waiting for credits, the wire, or an outage.
                e.queue_cycles = e
                    .queue_cycles
                    .saturating_add((start.floor() as Cycle).saturating_sub(e.ready));
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
                        if net.sample_every > 0 {
                            l.busy_fp += (wire * BUSY_ONE).round() as u64;
                        }
                        out.link_events.push(EngineEvent {
                            time: start.floor() as Cycle,
                            kind: EventKind::Drop,
                            site: l.global,
                            vc: vc as u8,
                            seq: e.seq,
                        });
                        out.dropped += 1;
                        out.progress += 1;
                        if e.tries >= net.retry.max_retries {
                            if e.prev_link != u32::MAX {
                                out.credits.push((e.prev_link, e.prev_vc));
                            }
                            out.abandoned += 1;
                            continue;
                        }
                        let lane = net.flows[(e.seq >> 32) as usize].hops[usize::from(e.hop)].lane;
                        let next_ready =
                            (l.free.ceil() as Cycle).saturating_add(net.retry.delay(e.tries));
                        l.queues[vc].push_retry(
                            lane,
                            QEntry {
                                ready: next_ready,
                                tries: e.tries + 1,
                                // Attribution: the span from this transmit's
                                // start to the retry's ready cycle (wasted
                                // wire + exponential backoff) is charged to
                                // backoff; `ready` stays the milestone.
                                backoff_cycles: e.backoff_cycles.saturating_add(
                                    next_ready.saturating_sub(start.floor() as Cycle),
                                ),
                                ..e
                            },
                            arena,
                        );
                        out.retried += 1;
                        continue;
                    }
                    Some(LinkFault::Corrupt(_)) => out.corrupted += 1,
                    Some(LinkFault::Delay(d)) => wire += d as f64,
                    None => {}
                }
                l.credits[vc] -= 1;
                l.free = start + wire;
                if net.sample_every > 0 {
                    l.busy_fp += (wire * BUSY_ONE).round() as u64;
                }
                let arrive = (l.free.ceil() as Cycle) + net.latency;
                if e.prev_link != u32::MAX {
                    out.credits.push((e.prev_link, e.prev_vc));
                }
                out.link_events.push(EngineEvent {
                    time: start.floor() as Cycle,
                    kind: EventKind::Hop,
                    site: l.global,
                    vc: vc as u8,
                    seq: e.seq,
                });
                out.deliveries.push(super::sched::Delivery {
                    arrive,
                    seq: e.seq,
                    hop: e.hop,
                    to_node: net.link_to[l.global as usize],
                    via_link: l.global,
                    vc: vc as u8,
                    t_inject: e.t_inject,
                    queue_cycles: e.queue_cycles,
                    // Attribution: transmit start to delivery (serialization,
                    // fault delay, and link latency) is wire time; `arrive`
                    // becomes the word's next milestone.
                    wire_cycles: e
                        .wire_cycles
                        .saturating_add(arrive.saturating_sub(start.floor() as Cycle)),
                    backoff_cycles: e.backoff_cycles,
                });
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
                    if rx[local].len() == rx[local].capacity() {
                        continue;
                    }
                    if let Some(e) = eject[local].peek(arena) {
                        if best.is_none_or(|(br, bq, _)| (e.rank, e.ready) < (br, bq)) {
                            best = Some((e.rank, e.ready, node));
                        }
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
                p.eject_free = start + net.wt;
                let t_in = p.eject_free.ceil() as Cycle;
                if net.record_latency {
                    let class = usize::from(net.flows[(e.seq >> 32) as usize].class);
                    let lat = (start.floor() as Cycle).saturating_sub(e.t_inject);
                    lat_hist[class].record(lat);
                    if !lat_sums.is_empty() {
                        // The final queue charge: waiting for the ejection
                        // port. Inject wait is the residual, so the four
                        // components telescope to `lat` exactly.
                        let queue = e
                            .queue_cycles
                            .saturating_add((start.floor() as Cycle).saturating_sub(e.ready));
                        let b = &mut lat_sums[class];
                        b.count += 1;
                        b.queue += queue;
                        b.wire += e.wire_cycles;
                        b.backoff += e.backoff_cycles;
                        b.total += lat;
                        b.inject += lat
                            .saturating_sub(queue)
                            .saturating_sub(e.wire_cycles)
                            .saturating_sub(e.backoff_cycles);
                    }
                }
                rx[local]
                    .push(t_in, net.word(e.seq))
                    .expect("arbitration checked rx had space");
                out.credits.push((e.prev_link, e.prev_vc));
                out.eject_events.push(EngineEvent {
                    time: start.floor() as Cycle,
                    kind: EventKind::Eject,
                    site: p.id,
                    vc: e.prev_vc,
                    seq: e.seq,
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
                drain_free[i] = at + net.drain_wc;
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

    /// One extra sample covering the stub interval between the last on-grid
    /// tick and the run's final window — called uniformly across shards by
    /// the coordinator so counter series totals match the run ledger.
    pub(crate) fn telemetry_tail_flush(&mut self) {
        let Shard {
            tx,
            rx,
            eject,
            links,
            arena,
            telemetry,
            ..
        } = self;
        if let Some(tel) = telemetry {
            tel.sample(tx, rx, eject, links, arena);
        }
    }
}
