//! A deliberately naive reference engine: the differential oracle that
//! `engine_vs_oracle.rs` holds `netsim::engine` to.
//!
//! It re-derives the engine's semantics (DESIGN.md §12, §15) from public
//! inputs only — [`Topology`], [`route`], [`Flow`], [`TimedFifo`],
//! `FaultPlan` and [`site`], `RetryPolicy::delay`, [`Histogram`], and the
//! config's fields and framing (`word_cycles`) — sharing no engine code. One
//! thread drives one shard; each queue is a plain `Vec` scanned for its
//! minimum rank; in-flight words sit in one `Vec` sorted by `(arrive, seq)`
//! at each barrier. Links, the dateline VC rule and the FNV fold are its own.
//!
//! It steps window by window, not cycle by cycle, because the window is
//! part of the engine's semantics: each window runs pump → inject → links →
//! eject → drain once, in that order; a credit freed in a window becomes
//! usable only after the next barrier; and the pump does not run again when
//! injection frees `tx` space. The idle-window limit is reproduced too, so
//! degraded runs end on the same window.
//!
//! Not modelled: `jobs`, `shards` and `sample_every` (they never change
//! results), the `max_cycles` budget, and telemetry (always `None`).

use memcomm_memsim::clock::Cycle;
use memcomm_memsim::fault::{site, LinkFault};
use memcomm_memsim::nic::{NetWord, TimedFifo};
use memcomm_netsim::engine::{
    Degraded, EngineConfig, EngineEvent, EngineOutcome, EventKind, ScheduleOutcome,
};
use memcomm_netsim::routing::route;
use memcomm_netsim::topology::Topology;
use memcomm_netsim::traffic::Flow;
use memcomm_obs::Histogram;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(hash: u64, value: u64) -> u64 {
    (hash ^ value).wrapping_mul(0x100_0000_01b3)
}

/// Two indices: a link's `(from, to)` nodes, or a `(link, vc)` buffer.
type Pair = (usize, usize);

/// Word-major arbitration: word index first, flow index on ties. `seq` is
/// `flow << 32 | word`, so the rank is unique per word.
fn rank(seq: u64) -> (u64, u64) {
    (seq & 0xFFFF_FFFF, seq >> 32)
}

/// A word in a router or ejection queue, or on a wire (then `ready` is
/// its arrival cycle and `prev` the link it is crossing).
#[derive(Clone, Copy, Default)]
struct Word {
    seq: u64,
    ready: Cycle,
    /// The hop this word waits for (queued) or is taking (on a wire).
    hop: usize,
    /// The upstream `(link, vc)` buffer the word still occupies.
    prev: Option<Pair>,
    tries: u32,
    t_inject: Cycle,
}

#[derive(Default)]
struct Link {
    queues: [Vec<Word>; 2],
    /// Downstream buffer slots in use per VC (at most `vc_slots`).
    occupied: [u32; 2],
    free: f64,
    attempts: u64,
    outages: u64,
    outage_mark: Cycle,
}

struct Path {
    dst: usize,
    words: u64,
    hops: Vec<Pair>,
    class: usize,
}

/// Every directed link, sorted by `(from, to)`: on each axis a node reaches
/// its ±1 neighbours, and only a torus closes the ring.
fn links_of(topo: &Topology) -> Vec<Pair> {
    let mut links = Vec::new();
    for from in 0..topo.len() {
        let c = topo.coords(from);
        for (dim, &d) in topo.dims().iter().enumerate() {
            if d < 2 {
                continue;
            }
            for x in [(c[dim] + 1) % d, (c[dim] + d - 1) % d] {
                if topo.is_torus() || x.abs_diff(c[dim]) == 1 {
                    let mut to = c.clone();
                    to[dim] = x;
                    links.push((from, topo.node_at(&to)));
                }
            }
        }
    }
    links.sort_unstable();
    links.dedup();
    links
}

/// Dateline rule: a word rides VC 0 on an axis until it has taken that
/// axis's wraparound hop (a coordinate step of more than one), then VC 1.
fn hops_of(topo: &Topology, links: &[Pair], src: usize, dst: usize) -> Vec<Pair> {
    let mut wrapped = vec![false; topo.dims().len()];
    route(topo, src, dst)
        .iter()
        .map(|l| {
            let (a, b) = (topo.coords(l.from), topo.coords(l.to));
            let dim = (0..a.len()).find(|&d| a[d] != b[d]).expect("a hop moves");
            let vc = usize::from(wrapped[dim]);
            wrapped[dim] |= a[dim].abs_diff(b[dim]) > 1;
            (links.binary_search(&(l.from, l.to)).expect("a link"), vc)
        })
        .collect()
}

/// Index of the minimum-rank word of a queue.
fn min_rank(q: &[Word]) -> Option<usize> {
    (0..q.len()).min_by_key(|&i| rank(q[i].seq))
}

/// Runs one flow set to completion, as `engine::run_flows` specifies it.
pub fn run(topo: &Topology, flows: &[Flow], cfg: &EngineConfig) -> EngineOutcome {
    let n = topo.len();
    let link_ends = links_of(topo);
    // Each node's words in send order: its flows ascending, words ascending.
    let (mut paths, mut feed) = (Vec::new(), vec![Vec::new(); n]);
    for (i, f) in flows.iter().enumerate() {
        assert!(f.src < n && f.dst < n, "flow {i} leaves the topology");
        let words = f.bytes.div_ceil(8);
        if f.src != f.dst && words > 0 {
            let fi = paths.len() as u64;
            feed[f.src].extend((0..words).map(|w| (fi << 32) | w));
            paths.push(Path {
                dst: f.dst,
                words,
                hops: hops_of(topo, &link_ends, f.src, f.dst),
                class: cfg.flow_classes.get(i).map_or(0, |&c| usize::from(c)),
            });
        }
    }
    let total: u64 = paths.iter().map(|p| p.words).sum();
    let mut out = EngineOutcome {
        cycles: 0,
        words: total,
        flit_hops: 0,
        windows: 0,
        dropped: 0,
        corrupted: 0,
        retried: 0,
        abandoned: 0,
        digest: FNV_OFFSET,
        peak_queue_depth: 0,
        flow_latency: Vec::new(),
        degraded: None,
        telemetry: None,
        events: Vec::new(),
    };
    let fifo = |words, site| {
        let mut f = TimedFifo::new(words);
        f.set_faults_quiet(cfg.fault, site);
        f
    };
    let mut tx: Vec<TimedFifo> = (0..n)
        .map(|v| fifo(cfg.node.tx_fifo_words, site::engine_tx(v)))
        .collect();
    let mut rx: Vec<TimedFifo> = (0..n)
        .map(|v| fifo(cfg.node.rx_fifo_words, site::engine_rx(v)))
        .collect();
    let (mut fed, mut delivered) = (vec![0usize; n], vec![0u64; paths.len()]);
    let (mut src_free, mut drain_free) = (vec![0; n], vec![0; n]);
    let mut eject: Vec<Vec<Word>> = vec![Vec::new(); n];
    let mut links: Vec<Link> = (0..link_ends.len()).map(|_| Link::default()).collect();
    let npp = cfg.nodes_per_port.max(1) as usize;
    let ports: Vec<_> = (0..n.div_ceil(npp))
        .map(|g| g * npp..((g + 1) * npp).min(n))
        .collect();
    let (mut inject_free, mut eject_free) = (vec![0.0f64; ports.len()], vec![0.0f64; ports.len()]);
    let mut latency =
        vec![Histogram::default(); paths.iter().map(|p| p.class).max().unwrap_or(0) + 1];

    let window = cfg.link.latency_cycles.max(1);
    let wt = cfg.word_cycles();
    // Idle windows a live run can sit through: wire gaps, plus fault
    // stalls, jitter, the deepest backoff and one outage window.
    let (fc, gap) = (cfg.fault.config(), 2 * wt.ceil() as Cycle);
    let mut slack = vec![gap];
    if cfg.fault.is_active() {
        let backoff = cfg.retry.delay(cfg.retry.max_retries);
        slack.extend([fc.max_stall_cycles, fc.max_jitter_cycles, backoff]);
    }
    if cfg.fault.has_link_outages() {
        slack.push(fc.outage_window_cycles.min(fc.outage_period_cycles.max(1)));
    }
    let idle_limit = 2 + slack.iter().fold(0u64, |a, &b| a.saturating_add(b)) / window;

    // One shard emits events in canonical order already: injections, link
    // transits, then ejections, each by ascending site.
    let (mut digest, mut events) = (FNV_OFFSET, Vec::new());
    let mut log = |time, kind, site: usize, vc: usize, seq| {
        let code = match kind {
            EventKind::Inject => 1,
            EventKind::Hop => 2,
            EventKind::Drop => 3,
            EventKind::Eject => 4,
        };
        let (site, vc) = (site as u32, vc as u8);
        digest = [code, u64::from(site), u64::from(vc), seq]
            .into_iter()
            .fold(fnv(digest, time), fnv);
        if cfg.record_events {
            events.push(EngineEvent {
                time,
                kind,
                site,
                vc,
                seq,
            });
        }
    };

    let (mut in_flight, mut freed): (Vec<Word>, Vec<Pair>) = (Vec::new(), Vec::new());
    let (mut t0, mut drained, mut idle, mut last_progress) = (0, 0, 0, 0);
    while drained + out.abandoned < total {
        assert!(out.windows < cfg.max_windows, "oracle window budget");
        let t1 = t0 + window;
        // Barrier: last window's credits, then this window's arrivals.
        for (l, vc) in freed.drain(..) {
            links[l].occupied[vc] -= 1;
        }
        in_flight.sort_by_key(|w| (w.ready, w.seq));
        let due = in_flight.partition_point(|w| w.ready < t1);
        for mut w in in_flight.drain(..due) {
            let p = &paths[(w.seq >> 32) as usize];
            w.hop += 1;
            match p.hops.get(w.hop) {
                Some(&(l, vc)) => links[l].queues[vc].push(w),
                None => eject[p.dst].push(w),
            }
        }
        let mut progress = 0u64;

        // Pump: memory feeds tx until the FIFO is full or the window ends.
        for v in 0..n {
            while let Some(&seq) = feed[v].get(fed[v]) {
                let t = src_free[v].max(t0);
                if t >= t1 {
                    break;
                }
                let Some(at) = tx[v].push(t, NetWord::data(seq)) else {
                    break;
                };
                src_free[v] = at;
                fed[v] += 1;
                progress += 1;
            }
        }

        // Inject: each port serializes its nodes' tx heads by (ready, node).
        for (g, nodes) in ports.iter().enumerate() {
            while let Some((ready, v)) = nodes
                .clone()
                .filter_map(|v| tx[v].front_ready().map(|r| (r, v)))
                .min()
            {
                let start = (ready as f64).max(inject_free[g]).max(t0 as f64);
                if start >= t1 as f64 {
                    break;
                }
                let at = start.floor() as Cycle;
                let seq = tx[v].pop(at).expect("a head").1.data;
                let (l, vc) = paths[(seq >> 32) as usize].hops[0];
                inject_free[g] = start + wt;
                let mut w = Word::default();
                (w.seq, w.ready, w.t_inject) = (seq, inject_free[g].ceil() as Cycle, at);
                links[l].queues[vc].push(w);
                log(at, EventKind::Inject, g, vc, seq);
                progress += 1;
            }
        }

        // Links: send the least (start, rank) word while slot, wire and window allow.
        for (l, link) in links.iter_mut().enumerate() {
            loop {
                let mut best: Option<(f64, (u64, u64), usize, usize)> = None;
                for vc in 0..2 {
                    let Some(i) = min_rank(&link.queues[vc]) else {
                        continue;
                    };
                    let e = link.queues[vc][i];
                    let key = ((e.ready as f64).max(link.free).max(t0 as f64), rank(e.seq));
                    if link.occupied[vc] < cfg.vc_slots && best.is_none_or(|b| key < (b.0, b.1)) {
                        best = Some((key.0, key.1, vc, i));
                    }
                }
                let Some((start, _, vc, i)) = best else {
                    break;
                };
                if start >= t1 as f64 {
                    break;
                }
                let at = start.floor() as Cycle;
                let s = site::engine_link(l as u32);
                // An outage parks the link until it recovers (never, if permanent).
                if let Some(end) = cfg.fault.link_outage_until(s, at) {
                    link.outages += u64::from(end > link.outage_mark);
                    link.outage_mark = link.outage_mark.max(end);
                    link.free = link.free.max(end as f64);
                    continue;
                }
                let mut e = link.queues[vc].swap_remove(i);
                let fault = cfg.fault.link_fault(s, link.attempts);
                link.attempts += 1;
                let mut wire = wt;
                match fault {
                    Some(LinkFault::Drop) => {
                        link.free = start + wt;
                        log(at, EventKind::Drop, l, vc, e.seq);
                        out.dropped += 1;
                        progress += 1;
                        if e.tries >= cfg.retry.max_retries {
                            freed.extend(e.prev);
                            out.abandoned += 1;
                        } else {
                            let wait = cfg.retry.delay(e.tries);
                            e.ready = (link.free.ceil() as Cycle).saturating_add(wait);
                            e.tries += 1;
                            link.queues[vc].push(e);
                            out.retried += 1;
                        }
                        continue;
                    }
                    Some(LinkFault::Corrupt(_)) => out.corrupted += 1,
                    Some(LinkFault::Delay(d)) => wire += d as f64,
                    None => {}
                }
                link.occupied[vc] += 1;
                link.free = start + wire;
                freed.extend(e.prev);
                log(at, EventKind::Hop, l, vc, e.seq);
                (e.ready, e.prev, e.tries) = (link.free.ceil() as Cycle + window, Some((l, vc)), 0);
                in_flight.push(e);
                out.flit_hops += 1;
                progress += 1;
            }
        }

        // Eject: ports move their nodes' least-rank arrivals into rx, if not full.
        for (g, nodes) in ports.iter().enumerate() {
            while let Some((_, v, i)) = nodes
                .clone()
                .filter(|&v| rx[v].len() < rx[v].capacity())
                .filter_map(|v| min_rank(&eject[v]).map(|i| (rank(eject[v][i].seq), v, i)))
                .min()
            {
                let e = eject[v][i];
                let start = (e.ready as f64).max(eject_free[g]).max(t0 as f64);
                if start >= t1 as f64 {
                    break;
                }
                eject[v].swap_remove(i);
                let at = start.floor() as Cycle;
                eject_free[g] = start + wt;
                if cfg.record_latency {
                    let class = paths[(e.seq >> 32) as usize].class;
                    latency[class].record(at.saturating_sub(e.t_inject));
                }
                let t_in = eject_free[g].ceil() as Cycle;
                rx[v].push(t_in, NetWord::data(e.seq)).expect("rx has room");
                let (prev_link, prev_vc) = e.prev.expect("ejected words crossed a link");
                freed.push((prev_link, prev_vc));
                log(at, EventKind::Eject, g, prev_vc, e.seq);
                progress += 1;
            }
        }

        // Drain: memory empties rx at its own pace, unconditionally.
        for v in 0..n {
            while let Some(avail) = rx[v].front_ready() {
                let t = avail.max(drain_free[v]).max(t0);
                if t >= t1 {
                    break;
                }
                let (at, w) = rx[v].pop(t).expect("a head");
                drain_free[v] = at;
                delivered[(w.data >> 32) as usize] += 1;
                drained += 1;
                out.cycles = out.cycles.max(at);
                progress += 1;
            }
        }

        out.windows += 1;
        let queued: usize = links
            .iter()
            .map(|l| l.queues[0].len() + l.queues[1].len())
            .chain(eject.iter().map(Vec::len))
            .sum();
        out.peak_queue_depth = out.peak_queue_depth.max((in_flight.len() + queued) as u64);
        if progress > 0 {
            last_progress = t0;
        }
        if progress == 0 && in_flight.is_empty() {
            idle += 1;
            if idle > idle_limit {
                assert!(cfg.fault.is_active(), "a faultless run wedged");
                break;
            }
        } else {
            idle = 0;
        }
        t0 = t1;
    }

    out.digest = digest;
    out.events = events;
    if drained < total {
        out.degraded = Some(Degraded {
            missing_flows: (paths.iter().zip(&delivered).enumerate())
                .filter(|(_, (p, &d))| d < p.words)
                .map(|(fi, (p, &d))| (fi as u32, p.words - d))
                .collect(),
            last_progress_cycle: last_progress,
            per_link_outages: (links.iter().enumerate())
                .filter(|(_, l)| l.outages > 0)
                .map(|(i, l)| (i as u32, l.outages))
                .collect(),
        });
    }
    if cfg.record_latency && total > 0 {
        out.flow_latency = latency.iter().map(Histogram::summary).collect();
    }
    out
}

/// Runs barrier-separated rounds, as `engine::run_schedule` specifies it.
pub fn run_rounds(topo: &Topology, rounds: &[Vec<Flow>], cfg: &EngineConfig) -> ScheduleOutcome {
    let rounds: Vec<EngineOutcome> = rounds.iter().map(|f| run(topo, f, cfg)).collect();
    let digest =
        (rounds.iter().enumerate()).fold(FNV_OFFSET, |h, (i, r)| fnv(fnv(h, i as u64), r.digest));
    ScheduleOutcome {
        cycles: rounds.iter().map(|r| r.cycles).sum(),
        digest,
        peak_queue_depth: rounds.iter().map(|r| r.peak_queue_depth).max().unwrap_or(0),
        rounds,
    }
}
