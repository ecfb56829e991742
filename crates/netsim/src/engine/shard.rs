//! Per-shard simulation state: structure-of-arrays node state, link and
//! port records, and the window output buffers the coordinator folds.
//!
//! A shard owns a contiguous run of whole port groups — the nodes of those
//! groups, their NIC FIFOs, their outgoing links, and their ejection
//! queues. Per-node router state is stored as parallel arrays indexed by
//! `node - node_lo` rather than one struct per node: the engine only ever
//! touches a node's two NIC FIFOs and a handful of scalars, so the SoA
//! layout keeps a 4096-node torus at a few kilobytes per node (the old
//! layout embedded a full [`memcomm_memsim::Node`], cache model and
//! simulated DRAM included, which the engine never exercised).

use memcomm_memsim::clock::Cycle;
use memcomm_memsim::nic::TimedFifo;
use memcomm_obs::{Histogram, Series, SeriesKind};
use memcomm_util::arena::Arena;

use super::sched::{Delivery, LaneQueue, QEntry};
use super::{ClassBreakdown, EngineEvent};

/// Ring capacity of every telemetry series: identical on all shards, so
/// shard-local series stay stride-aligned and merge pointwise.
pub(crate) const SERIES_POINTS: usize = 128;

/// Fixed-point scale for link busy time: 16.16, so fractional wire
/// occupancies accumulate as exact integer adds (which commute across any
/// shard partition — an f64 running sum would not).
pub(crate) const BUSY_ONE: f64 = 65536.0;

pub(crate) struct LinkState {
    pub global: u32,
    pub queues: [LaneQueue; 2],
    pub credits: [u32; 2],
    pub free: f64,
    pub attempts: u64,
    /// Distinct outage windows this link ran into while trying to transmit.
    pub outages: u64,
    /// Recovery cycle of the last counted outage (so re-encountering the
    /// same window across engine windows counts once).
    pub outage_mark: Cycle,
    /// Cycles this wire spent transmitting (drops included), in 16.16
    /// fixed point; only maintained when sampling is on.
    pub busy_fp: u64,
}

pub(crate) struct PortState {
    pub id: u32,
    pub node_lo: u32,
    pub node_hi: u32,
    pub inject_free: f64,
    pub eject_free: f64,
}

/// One shard: a contiguous slice of the machine, plus its window scratch.
/// All `Vec`s prefixed with a node meaning are parallel arrays indexed by
/// local node (`node - node_lo`).
pub(crate) struct Shard {
    pub node_lo: u32,
    /// Outgoing NIC FIFO per local node.
    pub tx: Vec<TimedFifo>,
    /// Incoming NIC FIFO per local node.
    pub rx: Vec<TimedFifo>,
    /// Flow indices originating at each local node, flattened; node `i`
    /// owns `feed_list[feed_span[i].0 .. feed_span[i].1]`, ascending.
    pub feed_list: Vec<u32>,
    pub feed_span: Vec<(u32, u32)>,
    /// Cursor into `feed_list` per local node (absolute index).
    pub feed_pos: Vec<u32>,
    /// Next word index of the flow under the cursor, per local node.
    pub feed_word: Vec<u32>,
    /// When the memory side may feed the next word into `tx`, per node.
    pub src_free: Vec<Cycle>,
    /// When the memory side may drain the next word from `rx`, per node.
    pub drain_free: Vec<Cycle>,
    /// Words awaiting the ejection port (same word-major order as links),
    /// per local node.
    pub eject: Vec<LaneQueue>,
    /// Owned links, ascending global index.
    pub links: Vec<LinkState>,
    /// Global index of each owned link, parallel to `links` (binary search).
    pub link_globals: Vec<u32>,
    pub ports: Vec<PortState>,
    pub inbox: Vec<Delivery>,
    pub credit_inbox: Vec<(u32, u8)>,
    /// Entry storage shared by every lane queue of the shard. Its live
    /// count is exactly the shard's queued words.
    pub arena: Arena<QEntry>,
    /// Engine flow index of each flow this shard drains (its destinations),
    /// in build order; `Net::drain_slot` maps a flow to its slot here.
    pub drain_flow_ids: Vec<u32>,
    /// Words drained so far per local drain slot — the per-flow delivery
    /// ledger the degraded accounting settles against.
    pub drained_flows: Vec<u64>,
    /// Inject→eject latency per flow class, recorded at the ejection port
    /// (only when the run asked for latency; merged in shard order at the
    /// end — histogram merge is commutative, so the partition is invisible).
    pub lat_hist: Vec<Histogram>,
    /// Critical-path attribution sums per flow class (empty unless both
    /// latency recording and sampling are on); merged pointwise at the end.
    pub lat_sums: Vec<ClassBreakdown>,
    /// NIC stall count already flushed to the coordinator — the diff against
    /// the FIFOs' live totals is this window's aggregate delta.
    pub stall_mark: u64,
    /// Sampling state, present only when `EngineConfig::sample_every > 0`.
    pub telemetry: Option<Box<ShardTelemetry>>,
    /// Window output buffers, reused across windows.
    pub out: WindowOut,
}

/// Per-shard telemetry: the six utilization/congestion series plus the
/// spatial integrals behind the heatmaps. Every shard ticks on the same
/// global schedule (multiples of `sample_every`, which divide evenly into
/// the uniform window boundaries), so per-shard series have identical
/// lengths and merge by pointwise addition — the partition is invisible.
pub(crate) struct ShardTelemetry {
    /// Next global sampling tick (a multiple of `sample_every`).
    pub next_tick: Cycle,
    /// Links' `busy_fp` total already pushed into the series.
    pub busy_mark: u64,
    /// Retries since the last tick, staged for the next counter point.
    pub pending_retries: u64,
    /// Outage encounters since the last tick.
    pub pending_outages: u64,
    /// Counter: link busy time per interval, in 16.16 cycle units.
    pub link_busy: Series,
    /// Gauge: words in router + ejection queues at each tick.
    pub queue_depth: Series,
    /// Gauge: words backed up in tx NIC FIFOs at each tick.
    pub inject_backlog: Series,
    /// Gauge: words backed up in rx NIC FIFOs at each tick.
    pub eject_backlog: Series,
    /// Counter: retry transmissions per interval.
    pub retries: Series,
    /// Counter: outage-window encounters per interval.
    pub outages: Series,
    /// Per local node: Σ over ticks of (ejection queue + rx FIFO) occupancy
    /// — the hotspot integral the node heatmap renders.
    pub node_occ: Vec<u64>,
    /// Ticks sampled so far (same on every shard).
    pub ticks: u64,
}

impl ShardTelemetry {
    pub fn new(sample_every: Cycle, nodes: usize) -> Box<ShardTelemetry> {
        let series = |kind| Series::new(kind, sample_every, SERIES_POINTS);
        Box::new(ShardTelemetry {
            next_tick: sample_every,
            busy_mark: 0,
            pending_retries: 0,
            pending_outages: 0,
            link_busy: series(SeriesKind::Counter),
            queue_depth: series(SeriesKind::Gauge),
            inject_backlog: series(SeriesKind::Gauge),
            eject_backlog: series(SeriesKind::Gauge),
            retries: series(SeriesKind::Counter),
            outages: series(SeriesKind::Counter),
            node_occ: vec![0; nodes],
            ticks: 0,
        })
    }

    /// Records one sample point from the shard's live state: flushes the
    /// staged counter deltas and reads the gauge levels. Both window_core
    /// and the coordinator's tail flush go through here, so a tick looks
    /// the same wherever it fires.
    pub fn sample(
        &mut self,
        tx: &[TimedFifo],
        rx: &[TimedFifo],
        eject: &[LaneQueue],
        links: &[LinkState],
        arena: &Arena<QEntry>,
    ) {
        let busy_total: u64 = links.iter().map(|l| l.busy_fp).sum();
        self.link_busy.push(busy_total - self.busy_mark);
        self.busy_mark = busy_total;
        self.queue_depth.push(arena.len() as u64);
        self.inject_backlog
            .push(tx.iter().map(|f| f.len() as u64).sum());
        self.eject_backlog
            .push(rx.iter().map(|f| f.len() as u64).sum());
        self.retries.push(self.pending_retries);
        self.pending_retries = 0;
        self.outages.push(self.pending_outages);
        self.pending_outages = 0;
        for (local, occ) in self.node_occ.iter_mut().enumerate() {
            *occ += eject[local].len() + rx[local].len() as u64;
        }
        self.ticks += 1;
    }
}

/// One window's output, kept stage-split so the coordinator can fold the
/// event stream in canonical (stage, site) order across all shards — the
/// order every partition produces, which is what makes the digest
/// independent of the shard count.
#[derive(Default)]
pub(crate) struct WindowOut {
    pub deliveries: Vec<Delivery>,
    pub credits: Vec<(u32, u8)>,
    /// Injection events, ascending port id.
    pub inject_events: Vec<EngineEvent>,
    /// Link transit events (hops and fault drops interleaved per link),
    /// ascending global link index.
    pub link_events: Vec<EngineEvent>,
    /// Ejection events, ascending port id.
    pub eject_events: Vec<EngineEvent>,
    pub progress: u64,
    pub drained: u64,
    pub flit_hops: u64,
    pub dropped: u64,
    pub corrupted: u64,
    /// Drop retransmissions scheduled under the retry policy this window.
    pub retried: u64,
    /// Words abandoned after exhausting their per-hop retry budget.
    pub abandoned: u64,
    pub last_drain: Cycle,
    /// Words sitting in this shard's router/ejection queues at window end.
    pub queued: u64,
    /// Outage-window encounters this window (mirrors the per-link counts).
    pub outaged: u64,
    /// NIC fault stalls fired this window, diffed off the quiet FIFOs'
    /// local counters — the coordinator flushes one aggregate registry add
    /// per window instead of the FIFOs locking the registry per event.
    pub stalls: u64,
}

impl WindowOut {
    /// Resets for the next window, keeping buffer capacities.
    pub fn clear(&mut self) {
        self.deliveries.clear();
        self.credits.clear();
        self.inject_events.clear();
        self.link_events.clear();
        self.eject_events.clear();
        self.progress = 0;
        self.drained = 0;
        self.flit_hops = 0;
        self.dropped = 0;
        self.corrupted = 0;
        self.retried = 0;
        self.abandoned = 0;
        self.last_drain = 0;
        self.queued = 0;
        self.outaged = 0;
        self.stalls = 0;
    }
}
