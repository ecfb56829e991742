//! Static build: link enumeration, dimension-ordered routes with dateline
//! VC labels, lane assignment, and the load-balanced N-way shard partition.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use memcomm_memsim::clock::Cycle;
use memcomm_memsim::error::{SimError, SimResult};
use memcomm_memsim::fault::{site, FaultPlan};
use memcomm_memsim::nic::{NetWord, TimedFifo};
use memcomm_util::arena::Arena;
use memcomm_util::par;

use crate::routing::{route, LinkId};
use crate::topology::Topology;
use crate::traffic::Flow;

use super::sched::{DeliveryRing, LaneQueue};
use super::shard::{LinkState, PortState, Shard, ShardTelemetry, WindowOut};
use super::EngineConfig;

/// One hop of a flow's route: global link index, the virtual channel the
/// dateline rule assigns to it, and the flow's lane in that (link, VC)
/// queue.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Hop {
    pub link: u32,
    pub vc: u8,
    pub lane: u32,
}

#[derive(Debug, Clone)]
pub(crate) struct FlowPath {
    pub src: u32,
    pub words: u32,
    pub hops: Vec<Hop>,
    /// The flow's lane in its destination's ejection queue.
    pub eject_lane: u32,
    /// Latency class of the flow (from [`EngineConfig::flow_classes`],
    /// indexed by the *input* flow position; 0 when unclassed).
    pub class: u8,
}

/// Read-only context shared by every shard.
pub(crate) struct Net {
    pub flows: Vec<FlowPath>,
    pub link_to: Vec<u32>,
    pub wt: f64,
    pub latency: Cycle,
    pub source_wc: Cycle,
    pub drain_wc: Cycle,
    pub fault: FaultPlan,
    pub pairs: bool,
    /// Link-level retransmission policy (see [`super::RetryPolicy`]).
    pub retry: super::RetryPolicy,
    /// Whether the fault plan can take links out (checked per transmit).
    pub outages: bool,
    /// Flow index → slot in its draining shard's per-flow ledger.
    pub drain_slot: Vec<u32>,
    /// Record inject→eject latency per class at the ejection ports.
    pub record_latency: bool,
    /// Source node of each link, parallel to `link_to` (the heatmap keys
    /// utilization by link endpoints).
    pub link_from: Vec<u32>,
    /// Telemetry sampling interval in cycles (0 = off).
    pub sample_every: Cycle,
    /// Global link index → (owning shard, local index): where a freed
    /// credit goes.
    pub link_owner: Vec<(u32, u32)>,
    /// Node → shard: where a word in flight to the node goes.
    pub shard_of_node: Vec<u32>,
    pub attribution: Attribution,
}

/// Critical-path attribution ledger: the `[queue, wire, backoff]` cycles
/// charged to each word so far, by flow and word index, summed per class
/// at ejection. Allocated only when latency recording and sampling are
/// both on, the one case that reads it. A word sits in one shard at a time
/// and the barrier orders its moves between shards, so relaxed loads and
/// stores suffice.
pub(crate) struct Attribution(Vec<Vec<[AtomicU64; 3]>>);

pub(crate) const QUEUE: usize = 0;
pub(crate) const WIRE: usize = 1;
pub(crate) const BACKOFF: usize = 2;

impl Attribution {
    fn slot(&self, seq: u64) -> &[AtomicU64; 3] {
        &self.0[(seq >> 32) as usize][(seq & 0xFFFF_FFFF) as usize]
    }

    /// Adds `cycles` to ledger `part` of word `seq`; a no-op when unarmed.
    pub fn charge(&self, seq: u64, part: usize, cycles: u64) {
        if !self.0.is_empty() {
            let c = &self.slot(seq)[part];
            c.store(c.load(Relaxed).saturating_add(cycles), Relaxed);
        }
    }

    /// Word `seq`'s `[queue, wire, backoff]` charges so far.
    pub fn read(&self, seq: u64) -> [u64; 3] {
        self.slot(seq).each_ref().map(|c| c.load(Relaxed))
    }
}

/// The NIC word carrying `seq`: data only, or an address-data pair.
pub(crate) fn net_word(pairs: bool, seq: u64) -> NetWord {
    if pairs {
        NetWord::addressed(seq.wrapping_mul(8), seq)
    } else {
        NetWord::data(seq)
    }
}

fn changed_dim(topo: &Topology, from: usize, to: usize) -> usize {
    let a = topo.coords(from);
    let b = topo.coords(to);
    (0..a.len())
        .find(|&d| a[d] != b[d])
        .expect("a route hop must change exactly one coordinate")
}

fn is_wrap_hop(topo: &Topology, from: usize, to: usize, dim: usize) -> bool {
    let d = topo.dims()[dim];
    let a = topo.coords(from)[dim];
    let b = topo.coords(to)[dim];
    d >= 3 && a.abs_diff(b) == d - 1
}

/// Assigns each route hop its virtual channel under the dateline rule.
pub(crate) fn vc_labels(topo: &Topology, hops: &[LinkId]) -> Vec<u8> {
    let mut labels = Vec::with_capacity(hops.len());
    let mut cur_dim = usize::MAX;
    let mut crossed = false;
    for h in hops {
        let dim = changed_dim(topo, h.from, h.to);
        if dim != cur_dim {
            cur_dim = dim;
            crossed = false;
        }
        labels.push(u8::from(crossed));
        if is_wrap_hop(topo, h.from, h.to, dim) {
            crossed = true;
        }
    }
    labels
}

/// Enumerates every directed link of the topology in canonical (ascending
/// `LinkId`) order.
pub(crate) fn enumerate_links(topo: &Topology) -> Vec<LinkId> {
    let mut set = std::collections::BTreeSet::new();
    for node in 0..topo.len() {
        let coords = topo.coords(node);
        for (dim, &d) in topo.dims().iter().enumerate() {
            if d < 2 {
                continue;
            }
            let mut push = |c: u32| {
                let mut to = coords.clone();
                to[dim] = c;
                set.insert(LinkId {
                    from: node,
                    to: topo.node_at(&to),
                });
            };
            let c = coords[dim];
            if c + 1 < d {
                push(c + 1);
            } else if topo.is_torus() {
                push(0);
            }
            if c >= 1 {
                push(c - 1);
            } else if topo.is_torus() {
                push(d - 1);
            }
        }
    }
    set.into_iter().collect()
}

pub(crate) struct Sim<'a> {
    pub cfg: &'a EngineConfig,
    pub net: Net,
    pub shards: Vec<std::sync::Mutex<Shard>>,
    pub total_words: u64,
}

/// Most cycles a delivery ring covers: adversarial fault jitter bounds
/// must not size one ring per shard in the gigabytes.
const DELIVERY_HORIZON_CAP: Cycle = 4096;

pub(crate) fn protocol(detail: String) -> SimError {
    SimError::Protocol { detail, at: 0 }
}

/// Picks how many shards to carve the machine into. The partition itself
/// never depends on the worker count at a *given* shard count — and the
/// coordinator's stage-major fold makes the results independent of the
/// shard count too — so this is purely a throughput knob: roughly two
/// shards per worker keeps every worker busy despite uneven window costs,
/// without paying barrier overhead for hundreds of tiny shards.
fn pick_shard_count(cfg: &EngineConfig, jobs: usize, groups: usize) -> usize {
    if cfg.shards > 0 {
        return cfg.shards.clamp(1, groups.max(1));
    }
    if jobs <= 1 {
        1
    } else {
        (jobs * 2).clamp(1, groups.max(1))
    }
}

/// Splits port groups `0..weights.len()` into `shards` contiguous runs of
/// near-equal total weight: group `g` goes to the first shard whose weight
/// quota the running prefix sum has not yet filled. Returns the
/// (monotone non-decreasing) owner of each group; every shard gets at
/// least one group.
fn partition_groups(weights: &[u64], shards: usize) -> Vec<u32> {
    let groups = weights.len();
    debug_assert!(shards >= 1 && shards <= groups);
    let total: u128 = weights.iter().map(|&w| u128::from(w)).sum();
    let mut owner = vec![0u32; groups];
    let mut s = 0usize;
    let mut acc: u128 = 0;
    for g in 0..groups {
        owner[g] = s as u32;
        acc += u128::from(weights[g]);
        if s + 1 < shards {
            // Close the shard once its quota is met, or when every
            // remaining shard needs one of the remaining groups.
            let must_close = groups - g - 1 == shards - s - 1;
            if must_close || acc * shards as u128 >= (s + 1) as u128 * total {
                s += 1;
            }
        }
    }
    owner
}

pub(crate) fn build_sim<'a>(
    topo: &Topology,
    flows: &[Flow],
    cfg: &'a EngineConfig,
) -> SimResult<Sim<'a>> {
    let n = topo.len();
    if n == 0 {
        return Err(protocol("engine needs a non-empty topology".into()));
    }
    if cfg.vc_slots == 0 {
        return Err(protocol(
            "engine needs at least one buffer slot per VC".into(),
        ));
    }

    // Routes first: validates the flow set before anything is allocated.
    let mut paths = Vec::with_capacity(flows.len());
    let links = enumerate_links(topo);
    let link_index: HashMap<LinkId, u32> = links
        .iter()
        .enumerate()
        .map(|(i, &l)| (l, i as u32))
        .collect();
    for (fi, f) in flows.iter().enumerate() {
        if f.src >= n || f.dst >= n {
            return Err(protocol(format!(
                "flow {fi} endpoints ({}, {}) outside the {n}-node topology",
                f.src, f.dst
            )));
        }
        let words = f.bytes.div_ceil(8);
        if f.src == f.dst || words == 0 {
            // Local or empty flows never enter the network.
            continue;
        }
        if words > u64::from(u32::MAX) {
            return Err(protocol(format!("flow {fi} too large: {words} words")));
        }
        if paths.len() >= u32::MAX as usize {
            return Err(protocol("too many flows (need < 2^32)".into()));
        }
        let r = route(topo, f.src, f.dst);
        let vcs = vc_labels(topo, &r);
        let hops: Vec<Hop> = r
            .iter()
            .zip(&vcs)
            .map(|(l, &vc)| Hop {
                link: link_index[l],
                vc,
                lane: 0,
            })
            .collect();
        if hops.len() > u16::MAX as usize {
            return Err(protocol(format!("flow {fi} route too long")));
        }
        paths.push(FlowPath {
            src: f.src as u32,
            words: words as u32,
            hops,
            eject_lane: 0,
            class: cfg.flow_classes.get(fi).copied().unwrap_or(0),
        });
    }
    let classes = usize::from(paths.iter().map(|p| p.class).max().unwrap_or(0)) + 1;

    // Lane assignment: the flows crossing each (link, VC) queue — and the
    // flows terminating at each node — get consecutive lane indices in flow
    // order.
    let mut q_lanes: Vec<[u32; 2]> = vec![[0, 0]; links.len()];
    let mut ej_lanes: Vec<u32> = vec![0; n];
    for p in &mut paths {
        for h in &mut p.hops {
            let c = &mut q_lanes[h.link as usize][usize::from(h.vc)];
            h.lane = *c;
            *c += 1;
        }
        let last = p.hops.last().expect("network flows have at least one hop");
        let dst = links[last.link as usize].to;
        p.eject_lane = ej_lanes[dst];
        ej_lanes[dst] += 1;
    }

    // Shard partition: contiguous runs of whole port groups, balanced by
    // each group's share of the run's work. A group's weight counts every
    // word that touches it — sourced at it, carried over a link it owns
    // (links belong to their `from` node's group), or ejected at it — plus
    // one so idle groups still spread evenly.
    let npp = cfg.nodes_per_port.max(1) as usize;
    let groups = n.div_ceil(npp);
    let jobs = if cfg.jobs == 0 { par::jobs() } else { cfg.jobs };
    let shard_count = pick_shard_count(cfg, jobs, groups);
    let mut weights = vec![1u64; groups];
    for p in &paths {
        let w = u64::from(p.words);
        weights[p.src as usize / npp] += w;
        for h in &p.hops {
            weights[links[h.link as usize].from / npp] += w;
        }
        let last = p.hops.last().expect("network flows have at least one hop");
        weights[links[last.link as usize].to / npp] += w;
    }
    let group_owner = partition_groups(&weights, shard_count);
    let shard_of_node: Vec<u32> = (0..n).map(|v| group_owner[v / npp]).collect();

    let total_words: u64 = paths.iter().map(|p| u64::from(p.words)).sum();

    // A delivery lands at most wire + latency (+ fault jitter) cycles past
    // the window that transmitted it; anything further takes the ring's
    // overflow path, so the horizon only sets the fast-path hit rate, never
    // correctness.
    let jitter = if cfg.fault.is_active() {
        cfg.fault.config().max_jitter_cycles
    } else {
        0
    };
    let latency = cfg.link.latency_cycles;
    let horizon = (latency.max(1).saturating_add(latency))
        .saturating_add(cfg.word_cycles().ceil() as Cycle)
        .saturating_add(jitter.saturating_add(4))
        .min(DELIVERY_HORIZON_CAP);

    let mut shards: Vec<Shard> = (0..shard_count)
        .map(|id| Shard {
            id: id as u32,
            node_lo: u32::MAX,
            tx: Vec::new(),
            rx: Vec::new(),
            feed_list: Vec::new(),
            feed_span: Vec::new(),
            feed_pos: Vec::new(),
            feed_word: Vec::new(),
            src_free: Vec::new(),
            drain_free: Vec::new(),
            eject: Vec::new(),
            links: Vec::new(),
            link_lo: 0,
            ports: Vec::new(),
            ring: DeliveryRing::new(latency.max(1), horizon),
            inbox: vec![Vec::new(); shard_count],
            credit_inbox: vec![Vec::new(); shard_count],
            arena: Arena::new(),
            drain_flow_ids: Vec::new(),
            drained_flows: Vec::new(),
            lat_hist: if cfg.record_latency {
                vec![memcomm_obs::Histogram::default(); classes]
            } else {
                Vec::new()
            },
            lat_sums: if cfg.record_latency && cfg.sample_every > 0 {
                vec![super::ClassBreakdown::default(); classes]
            } else {
                Vec::new()
            },
            stall_mark: 0,
            telemetry: None,
            out: WindowOut {
                deliveries: vec![Vec::new(); shard_count],
                credits: vec![Vec::new(); shard_count],
                ..WindowOut::default()
            },
        })
        .collect();

    // Per-flow drain ledger: each flow gets one slot in the shard that owns
    // its destination, so degraded runs can account for every missing word.
    let mut drain_slot = vec![0u32; paths.len()];
    for (fi, p) in paths.iter().enumerate() {
        let last = p.hops.last().expect("network flows have at least one hop");
        let dst = links[last.link as usize].to;
        let shard = &mut shards[shard_of_node[dst] as usize];
        drain_slot[fi] = shard.drain_flow_ids.len() as u32;
        shard.drain_flow_ids.push(fi as u32);
        shard.drained_flows.push(0);
    }

    // Per-node feed lists (flow indices originating there, ascending),
    // flattened per shard below.
    let mut feeds: Vec<Vec<u32>> = vec![Vec::new(); n];
    for (fi, p) in paths.iter().enumerate() {
        feeds[p.src as usize].push(fi as u32);
    }

    for (node, &shard_id) in shard_of_node.iter().enumerate() {
        let shard = &mut shards[shard_id as usize];
        if shard.node_lo == u32::MAX {
            shard.node_lo = node as u32;
        }
        let mut tx = TimedFifo::new(cfg.node.tx_fifo_words);
        let mut rx = TimedFifo::new(cfg.node.rx_fifo_words);
        if cfg.fault.is_active() {
            // Quiet arming: the shards run inside the parallel window, so
            // per-event registry traffic would serialize them on the metrics
            // mutex. The coordinator diffs `stalls_fired` once per window
            // and flushes one aggregate delta — identical totals.
            tx.set_faults_quiet(cfg.fault, site::engine_tx(node));
            rx.set_faults_quiet(cfg.fault, site::engine_rx(node));
        }
        shard.tx.push(tx);
        shard.rx.push(rx);
        let lo = shard.feed_list.len() as u32;
        shard.feed_list.extend_from_slice(&feeds[node]);
        let hi = shard.feed_list.len() as u32;
        shard.feed_span.push((lo, hi));
        shard.feed_pos.push(lo);
        shard.feed_word.push(0);
        shard.src_free.push(0);
        shard.drain_free.push(0);
        shard.eject.push(LaneQueue::new(ej_lanes[node]));
    }
    let mut link_owner = Vec::with_capacity(links.len());
    for (gi, l) in links.iter().enumerate() {
        let s = shard_of_node[l.from] as usize;
        let local = shards[s].links.len() as u32;
        // The same for every link of `s`: links order by source node.
        shards[s].link_lo = gi as u32 - local;
        shards[s].links.push(LinkState {
            global: gi as u32,
            queues: [
                LaneQueue::new(q_lanes[gi][0]),
                LaneQueue::new(q_lanes[gi][1]),
            ],
            credits: [cfg.vc_slots, cfg.vc_slots],
            free: 0.0,
            attempts: 0,
            outages: 0,
            outage_mark: 0,
            outage_span: (None, 0, 0),
            busy_fp: 0,
        });
        link_owner.push((s as u32, local));
    }
    for (g, &owner) in group_owner.iter().enumerate().take(groups) {
        let s = owner as usize;
        let lo = (g * npp) as u32;
        let hi = (((g + 1) * npp).min(n)) as u32;
        shards[s].ports.push(PortState {
            id: g as u32,
            node_lo: lo,
            node_hi: hi,
            inject_free: 0.0,
            eject_free: 0.0,
        });
    }
    if cfg.sample_every > 0 {
        for shard in &mut shards {
            shard.telemetry = Some(ShardTelemetry::new(cfg.sample_every, shard.tx.len()));
        }
    }

    let attribution = Attribution(if cfg.record_latency && cfg.sample_every > 0 {
        let words = |p: &FlowPath| (0..p.words).map(|_| Default::default()).collect();
        paths.iter().map(words).collect()
    } else {
        Vec::new()
    });
    let wt = cfg.word_cycles();
    let net = Net {
        flows: paths,
        link_to: links.iter().map(|l| l.to as u32).collect(),
        wt,
        latency: cfg.link.latency_cycles.max(1),
        source_wc: cfg.source_word_cycles,
        drain_wc: cfg.drain_word_cycles,
        fault: cfg.fault,
        pairs: cfg.address_data_pairs,
        retry: cfg.retry,
        outages: cfg.fault.has_link_outages(),
        drain_slot,
        record_latency: cfg.record_latency,
        link_from: links.iter().map(|l| l.from as u32).collect(),
        sample_every: cfg.sample_every,
        link_owner,
        shard_of_node,
        attribution,
    };

    Ok(Sim {
        cfg,
        net,
        shards: shards.into_iter().map(std::sync::Mutex::new).collect(),
        total_words,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_is_contiguous_balanced_and_total() {
        // Skewed weights: the heavy head must not leave later shards empty.
        let w = [100, 1, 1, 1, 1, 1, 1, 1];
        for shards in 1..=8 {
            let owner = partition_groups(&w, shards);
            assert_eq!(owner.len(), w.len());
            assert!(owner.windows(2).all(|p| p[0] <= p[1]), "monotone owners");
            assert_eq!(owner[0], 0);
            assert_eq!(owner[w.len() - 1] as usize, shards - 1, "all shards used");
            // Contiguity + monotonicity + both ends pinned ⇒ every shard
            // owns at least one group.
        }
        // Even weights split evenly.
        let owner = partition_groups(&[1; 8], 4);
        let counts = (0..4)
            .map(|s| owner.iter().filter(|&&o| o as usize == s).count())
            .collect::<Vec<_>>();
        assert_eq!(counts, vec![2, 2, 2, 2]);
    }

    #[test]
    fn shard_count_tracks_jobs_and_respects_override() {
        use crate::link::LinkParams;
        use memcomm_memsim::node::NodeParams;
        let link = LinkParams {
            bytes_per_cycle: 8.0,
            packet_words: 16,
            header_bytes: 8,
            adp_extra_bytes: 8,
            latency_cycles: 4,
            congestion: 1.0,
        };
        let mut cfg = EngineConfig::new(link, NodeParams::default());
        assert_eq!(pick_shard_count(&cfg, 1, 512), 1);
        assert_eq!(pick_shard_count(&cfg, 4, 512), 8);
        assert_eq!(pick_shard_count(&cfg, 8, 3), 3, "clamped to group count");
        cfg.shards = 5;
        assert_eq!(pick_shard_count(&cfg, 1, 512), 5, "explicit override wins");
        cfg.shards = 99;
        assert_eq!(pick_shard_count(&cfg, 1, 7), 7, "override clamped");
    }
}
