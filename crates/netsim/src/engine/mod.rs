//! Sharded discrete-event interconnect engine.
//!
//! Where [`congestion`](crate::congestion) folds a traffic pattern into a
//! closed-form factor, this module actually *runs* the pattern: per-node
//! NIC FIFOs feed words through shared injection/ejection ports (the T3D
//! quirk that two nodes share one port falls out naturally), and flits
//! travel dimension-ordered over per-link wires guarded by credit-based
//! virtual-channel buffers with real backpressure.
//!
//! # Determinism and sharding
//!
//! The simulation advances in conservative windows of `L` cycles, where `L`
//! is the link latency: any word transmitted during window `[T, T+L)`
//! arrives no earlier than `T+L`, so every arrival of a window is known at
//! its opening barrier. Nodes are partitioned into shards along port-group
//! boundaries — the shard count scales with the worker count (two shards
//! per worker, or [`EngineConfig::shards`] to pin it), and the partition
//! balances each shard's share of the traffic's word·hop work, so a
//! 1024-node torus keeps 16 workers busy instead of idling 8 of them
//! behind a fixed 8-way split.
//!
//! Results do not depend on either knob. Within a window, every site (port
//! or link) belongs to exactly one shard, all cross-site coupling crosses
//! the barrier, and shards own contiguous node ranges — so each site's
//! event sequence is partition-invariant, and the coordinator can fold the
//! window's events in canonical *stage-major* order (all injections by
//! ascending port, then all link transits by ascending link, then all
//! ejections by ascending port — each the concatenation of the shards'
//! per-stage streams in shard order). `jobs = 1` and `jobs = N`, one shard
//! or sixty-four: byte-identical event streams and digests. The `jobs − 1`
//! helper threads spawn once per run ([`par::par_rounds`]); the calling
//! thread works as the last one and coordinates between windows.
//!
//! # Memory at scale
//!
//! Per-node state lives in structure-of-arrays form inside each shard
//! (`shard::Shard`): two NIC FIFOs, a feed cursor, and the cycles of the
//! last feed and drain per node — a few hundred bytes — instead of a full
//! simulated memory node. A 4096-node torus builds in tens of megabytes,
//! dominated by its flow table rather than by node state.
//!
//! # Deadlock freedom
//!
//! Routes are dimension-ordered and minimal; each directed link carries two
//! virtual channels with the classic dateline rule: a word starts each
//! dimension on VC 0 and moves to VC 1 for the hops after it crosses that
//! dimension's wraparound link. Minimal torus routes cross a wrap at most
//! once per ring, so the channel-dependency graph is acyclic; meshes have
//! no wrap links and run entirely on VC 0. This holds for tori of any rank
//! — the kilo-node configurations are 3D (16×8×8 at 1024 nodes). Ejection
//! drains into the bounded node `rx` FIFO, which the memory side empties
//! unconditionally.
//!
//! # Scheduler
//!
//! Each shard keeps the words in flight to its nodes in its own window
//! ring (`sched::DeliveryRing`): deliveries *are* time-keyed, and a
//! window releases its slot in push order, unsorted — each lane still
//! receives its words in rank order, and the head heaps return the minimum
//! rank whatever order lanes fill in. Words and freed credits bound for
//! another shard wait in per-destination outboxes, which the barrier swaps
//! into the owners' inboxes whole: the coordinator never touches a word.
//! Each router queue is a set of per-flow FIFO *lanes* carved from a shared
//! freelist [`Arena`](memcomm_util::arena::Arena) of 40-byte entries, with
//! an exact heap of one key per lane head and the top key cached inline.
//! Router queues are *rank*-ordered, not time-ordered, so a time ring
//! cannot express them; lanes are the rank-domain analogue — a flow's words
//! reach any given queue in ascending rank order, so each lane is
//! pre-sorted and the queue minimum is always a lane head. Pop is
//! `O(log F)` in the handful of *flows* contending a queue rather than
//! `O(log N)` in the hundreds of queued *words*.
//!
//! The differential reference for all of this is an independent,
//! deliberately naive engine that lives only in the test tree
//! (`tests/oracle`): one thread, one shard, plain vectors scanned for their
//! minimum, and its own link enumeration, VC rule and digest fold. It
//! shares no code with this module, so it can see window, shard and fold
//! bugs that a second scheduler running the same window core could not.

mod build;
mod sched;
mod shard;
mod window;

use std::mem::{replace, take};
use std::sync::MutexGuard;

use memcomm_memsim::clock::Cycle;
use memcomm_memsim::error::{SimError, SimResult};
use memcomm_memsim::fault::FaultPlan;
use memcomm_memsim::nic::NetWord;
use memcomm_memsim::node::{NodeParams, Watchdog};
use memcomm_obs::{Histogram, HistogramSummary, Obs, Series, SeriesKind};
use memcomm_util::backoff::exp_backoff;
use memcomm_util::par;

use crate::link::LinkParams;
use crate::topology::Topology;
use crate::traffic::Flow;

use build::{build_sim, Sim};
use shard::{Shard, SERIES_POINTS};

/// Engine name used in error diagnostics.
const ENGINE: &str = "netsim-engine";

/// FNV-1a offset basis, the digest seed.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x100_0000_01b3;

fn fnv_fold(hash: u64, value: u64) -> u64 {
    (hash ^ value).wrapping_mul(FNV_PRIME)
}

/// What happened at a simulated resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A word left a node's `tx` FIFO and serialized onto its injection port.
    Inject,
    /// A word traversed a network link.
    Hop,
    /// A link fault consumed the wire without delivering the word; the word
    /// retries from its upstream buffer.
    Drop,
    /// A word serialized off an ejection port into the destination `rx` FIFO.
    Eject,
}

impl EventKind {
    fn code(self) -> u64 {
        match self {
            EventKind::Inject => 1,
            EventKind::Hop => 2,
            EventKind::Drop => 3,
            EventKind::Eject => 4,
        }
    }
}

/// One entry of the canonical event stream.
///
/// The stream is ordered by (window, stage, site, time) — injections first,
/// then link transits, then ejections, sites ascending within each stage —
/// a deterministic order that is identical at any worker count *and* any
/// shard count, pinned by the run digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineEvent {
    /// Cycle the action started (integer part).
    pub time: Cycle,
    /// What happened.
    pub kind: EventKind,
    /// Link index for hops/drops, port index for injections/ejections.
    pub site: u32,
    /// Virtual channel involved.
    pub vc: u8,
    /// Word identity: `flow_index << 32 | word_index`.
    pub seq: u64,
}

impl EngineEvent {
    fn fold_into(&self, hash: u64) -> u64 {
        let h = fnv_fold(hash, self.time);
        let h = fnv_fold(h, self.kind.code());
        let h = fnv_fold(h, u64::from(self.site));
        fnv_fold(fnv_fold(h, u64::from(self.vc)), self.seq)
    }
}

/// Link-level retransmission policy: how the engine lifts the resilient
/// protocol's semantics (deterministic exponential backoff, bounded
/// retries) down to individual words on faulty links. A dropped word
/// retransmits from its upstream buffer after
/// [`exp_backoff`]`(base, factor, max, tries)` cycles; once a single hop
/// has burned `max_retries` retransmissions the word is *abandoned* — its
/// upstream buffer frees, the run completes, and the missing words are
/// reported exactly in [`Degraded`] instead of wedging the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retransmissions allowed per hop before a word is abandoned.
    pub max_retries: u32,
    /// First backoff wait, in cycles (0 = retry immediately, the classic
    /// lossless-link behaviour).
    pub backoff_base_cycles: Cycle,
    /// Geometric growth per attempt.
    pub backoff_factor: u32,
    /// Backoff saturation cap, in cycles.
    pub max_backoff_cycles: Cycle,
}

impl Default for RetryPolicy {
    /// Immediate retries with a generous budget: 64 consecutive drops of
    /// one word never happen by chance at any plausible fault rate, so the
    /// default is observationally identical to the old unbounded-retry
    /// engine while still guaranteeing termination under adversarial
    /// plans.
    fn default() -> Self {
        RetryPolicy {
            max_retries: 64,
            backoff_base_cycles: 0,
            backoff_factor: 2,
            max_backoff_cycles: 1 << 16,
        }
    }
}

impl RetryPolicy {
    /// The backoff wait before retry `attempt` (0-based).
    pub fn delay(&self, attempt: u32) -> Cycle {
        exp_backoff(
            self.backoff_base_cycles,
            u64::from(self.backoff_factor),
            self.max_backoff_cycles,
            attempt,
        )
    }

    /// The deepest wait the schedule can ever impose — the idle slack the
    /// liveness watchdog must grant before calling a quiet network wedged.
    pub fn max_delay(&self) -> Cycle {
        self.delay(self.max_retries)
    }
}

/// Engine configuration: the machine's link and node parameters plus the
/// engine-specific knobs.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Wire parameters; the congestion factor is forced to 1.0 — contention
    /// is what the engine *simulates*, not a dial.
    pub link: LinkParams,
    /// Per-node parameters; `tx_fifo_words`/`rx_fifo_words` bound the NIC
    /// staging FIFOs (the only node state the engine keeps — see the
    /// module docs on memory at scale).
    pub node: NodeParams,
    /// Nodes sharing one injection/ejection port pair (2 on the T3D).
    pub nodes_per_port: u32,
    /// Buffer slots per (link, virtual channel) guarded by credits. Credits
    /// return one conservative window after the buffered word moves on, so
    /// small values throttle saturated multi-hop paths (tree saturation)
    /// well below the wire rate; the default is sized so the credit
    /// round-trip never limits a path and contention comes from the wires
    /// themselves, matching the fluid assumption of the analytic model.
    pub vc_slots: u32,
    /// Worker threads for the shard fan-out (0 = the process-wide setting).
    /// Never affects results, only wall-clock.
    pub jobs: usize,
    /// Shard count (0 = auto: about two per worker, clamped to the port
    /// group count). Never affects results, only wall-clock — the
    /// stage-major fold keeps digests byte-identical at any value.
    pub shards: usize,
    /// Watchdog: maximum simulation windows before declaring a wedge.
    pub max_windows: u64,
    /// Optional hard cycle budget.
    pub max_cycles: Option<Cycle>,
    /// Fault plan threaded through every per-node FIFO and link.
    pub fault: FaultPlan,
    /// Link-level retransmission policy for fault drops.
    pub retry: RetryPolicy,
    /// Latency class per *input* flow (missing or empty = every flow in
    /// class 0). Classes index the per-class inject→eject histograms when
    /// [`EngineConfig::record_latency`] is set; adversarial generators use
    /// them to split, say, incast victims from background traffic.
    pub flow_classes: Vec<u8>,
    /// Record per-class inject→eject latency histograms into
    /// [`EngineOutcome::flow_latency`].
    pub record_latency: bool,
    /// Telemetry sampling interval in cycles (0 = off, the default). When
    /// non-zero every shard records utilization/congestion series on the
    /// shared tick grid and the outcome carries
    /// [`EngineOutcome::telemetry`]; combined with
    /// [`EngineConfig::record_latency`] it also enables the critical-path
    /// attribution breakdown. Sampling never perturbs the simulation —
    /// events, digests, and cycle counts stay byte-identical with it on or
    /// off, at any jobs × shards.
    pub sample_every: Cycle,
    /// Keep the full event stream in the outcome (tests); the digest is
    /// always computed.
    pub record_events: bool,
}

impl EngineConfig {
    /// Builds a configuration from machine link/node parameters.
    pub fn new(link: LinkParams, node: NodeParams) -> Self {
        let mut link = link;
        link.congestion = 1.0;
        let mut node = node;
        // Engine nodes never allocate regions; keep the nominal memory tiny
        // in case anything downstream sizes buffers from it.
        node.memory_words = 64;
        EngineConfig {
            link,
            node,
            nodes_per_port: 1,
            vc_slots: 64,
            jobs: 0,
            shards: 0,
            max_windows: 1 << 22,
            max_cycles: None,
            fault: FaultPlan::disabled(),
            retry: RetryPolicy::default(),
            flow_classes: Vec::new(),
            record_latency: false,
            sample_every: 0,
            record_events: false,
        }
    }

    /// Wire cycles per data word.
    pub fn word_cycles(&self) -> f64 {
        self.link.word_cycles(&NetWord::data(0))
    }
}

/// Aggregate result of one engine run.
#[derive(Debug, Clone, Default)]
pub struct EngineOutcome {
    /// Completion cycle: when the last word left its destination `rx` FIFO.
    pub cycles: Cycle,
    /// Words offered to the network: every word of every flow that enters
    /// it, delivered or not. Words delivered = `words` − Σ
    /// [`Degraded::missing_flows`] (just `words` when the run is not
    /// degraded).
    pub words: u64,
    /// Total link traversals (the flit-hop count).
    pub flit_hops: u64,
    /// Conservative windows executed.
    pub windows: u64,
    /// Link-fault drops (each deterministically retransmitted or, past the
    /// retry budget, abandoned into the degraded accounting).
    pub dropped: u64,
    /// Link-fault corruptions (counted; payloads are synthetic).
    pub corrupted: u64,
    /// Retransmissions scheduled under the retry policy
    /// (`dropped == retried + abandoned`, always).
    pub retried: u64,
    /// Words abandoned after exhausting their per-hop retry budget.
    pub abandoned: u64,
    /// FNV-1a fold over the canonical event stream.
    pub digest: u64,
    /// Deepest the run's event backlog ever got: the barrier maximum of
    /// in-flight deliveries plus router-queued words, summed over shards.
    /// Identical at any worker or shard count — it is a property of the
    /// traffic, not of the partition.
    pub peak_queue_depth: u64,
    /// Per-class inject→eject latency summaries (p50/p99/p999), indexed by
    /// flow class, when [`EngineConfig::record_latency`] is set.
    pub flow_latency: Vec<HistogramSummary>,
    /// Graceful-degradation accounting: `Some` exactly when the run could
    /// not deliver every word (abandoned retries, dead links). The partial
    /// result above it — digest, counters, events — is still
    /// byte-deterministic at any jobs × shards.
    pub degraded: Option<Degraded>,
    /// Deep telemetry — series, spatial heat data, and the critical-path
    /// breakdown — when [`EngineConfig::sample_every`] is non-zero.
    pub telemetry: Option<Telemetry>,
    /// The event stream itself, when [`EngineConfig::record_events`] is set.
    pub events: Vec<EngineEvent>,
}

/// Critical-path attribution sums for one flow class: where the delivered
/// words' inject→eject cycles went. The components telescope exactly —
/// `inject + queue + wire + backoff == total` — and `count`/`total` equal
/// the class's [`EngineOutcome::flow_latency`] histogram count and sum,
/// because every charge spans two consecutive milestones of the same word.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClassBreakdown {
    /// Delivered words of this class.
    pub count: u64,
    /// Injection-port serialization: leaving the source port until first
    /// queued at a link (the residual component).
    pub inject: u64,
    /// Waiting in router and ejection queues for credits, wires, ports, or
    /// outage recoveries.
    pub queue: u64,
    /// On wires: serialization, fault delay, and link latency.
    pub wire: u64,
    /// Parked in retry backoff after fault drops (wasted wire included).
    pub backoff: u64,
    /// Total inject→eject cycles (the sum the latency histogram records).
    pub total: u64,
}

impl ClassBreakdown {
    /// Pointwise accumulation — commutative, so shard merge order is
    /// invisible.
    pub fn merge(&mut self, other: &ClassBreakdown) {
        self.count += other.count;
        self.inject += other.inject;
        self.queue += other.queue;
        self.wire += other.wire;
        self.backoff += other.backoff;
        self.total += other.total;
    }
}

/// Deep engine telemetry, attached to the outcome when
/// [`EngineConfig::sample_every`] is non-zero. Everything here is merged in
/// canonical order from commutative per-shard state (integer sums only), so
/// it is byte-identical at any jobs × shards.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Telemetry {
    /// Sampling interval, in cycles.
    pub sample_every: Cycle,
    /// Sample ticks taken over the run.
    pub ticks: u64,
    /// Counter series: link busy time per interval, in 1/65536-cycle units
    /// (fixed point, so fractional wire occupancies sum exactly).
    pub link_busy: Series,
    /// Gauge series: words in router + ejection queues at each tick.
    pub queue_depth: Series,
    /// Gauge series: words backed up in tx NIC FIFOs at each tick.
    pub inject_backlog: Series,
    /// Gauge series: words backed up in rx NIC FIFOs at each tick.
    pub eject_backlog: Series,
    /// Counter series: retry transmissions per interval.
    pub retries: Series,
    /// Counter series: outage-window encounters per interval.
    pub outages: Series,
    /// Source node of each link, ascending global link index (the heatmap
    /// keys utilization by endpoints).
    pub link_from: Vec<u32>,
    /// Destination node of each link.
    pub link_to: Vec<u32>,
    /// Cumulative busy time per link, in 1/65536-cycle units.
    pub link_busy_fp: Vec<u64>,
    /// Per node: Σ over ticks of its ejection-queue + rx-FIFO occupancy —
    /// the hotspot integral behind the node heatmap.
    pub node_occupancy: Vec<u64>,
    /// Critical-path attribution per flow class (empty unless
    /// [`EngineConfig::record_latency`] was also set).
    pub breakdown: Vec<ClassBreakdown>,
}

impl Telemetry {
    /// The six series under their canonical export names, for the
    /// OpenMetrics exporter.
    pub fn named_series(&self) -> Vec<(String, Series)> {
        [
            ("engine.series.link_busy", &self.link_busy),
            ("engine.series.queue_depth", &self.queue_depth),
            ("engine.series.inject_backlog", &self.inject_backlog),
            ("engine.series.eject_backlog", &self.eject_backlog),
            ("engine.series.retries", &self.retries),
            ("engine.series.outages", &self.outages),
        ]
        .into_iter()
        .map(|(name, s)| (name.to_string(), s.clone()))
        .collect()
    }
}

/// Exact accounting of a degraded run — what a wedged network owes instead
/// of a bare [`SimError::Deadlock`]. Built in canonical flow/link order, so
/// it is byte-identical at any worker or shard count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Degraded {
    /// `(flow index, undelivered words)` for every flow that came up short,
    /// ascending flow index. Flow indices match the high 32 bits of
    /// [`EngineEvent::seq`].
    pub missing_flows: Vec<(u32, u64)>,
    /// Start cycle of the last window in which the network made progress.
    pub last_progress_cycle: Cycle,
    /// `(link index, outage windows encountered)` for every link that hit
    /// at least one outage, ascending link index.
    pub per_link_outages: Vec<(u32, u64)>,
}

/// Result of running a multi-round schedule (rounds are barrier-separated:
/// round `r+1` starts only after round `r` fully drains).
#[derive(Debug, Clone)]
pub struct ScheduleOutcome {
    /// Per-round outcomes, in schedule order.
    pub rounds: Vec<EngineOutcome>,
    /// Sum of round completion cycles.
    pub cycles: Cycle,
    /// Digest folding every round's digest in order.
    pub digest: u64,
    /// Deepest event backlog across all rounds.
    pub peak_queue_depth: u64,
}

/// A topology of `nodes` nodes with the same rank and wrap-ness as `base`,
/// splitting the power-of-two node count as evenly as possible across the
/// base's dimensions (64 on a 3D torus → 4×4×4; 1024 → 16×8×8).
pub fn scaled_topology(base: &Topology, nodes: usize) -> SimResult<Topology> {
    if nodes < 2 || !nodes.is_power_of_two() {
        return Err(SimError::Protocol {
            detail: format!("engine topology needs a power-of-two node count >= 2, got {nodes}"),
            at: 0,
        });
    }
    let rank = base.dims().len();
    let exp = nodes.trailing_zeros() as usize;
    let dims: Vec<u32> = (0..rank)
        .map(|i| 1u32 << (exp / rank + usize::from(i < exp % rank)))
        .collect();
    Ok(if base.is_torus() {
        Topology::torus(&dims)
    } else {
        Topology::mesh(&dims)
    })
}

/// Runs one traffic pattern to completion.
///
/// Flows with `src == dst` or zero bytes never enter the network and are
/// skipped. Returns [`SimError::Deadlock`] if the network stops making
/// progress with words still in flight, [`SimError::Wedged`] /
/// [`SimError::CycleBudget`] when the watchdog limits trip, and
/// [`SimError::Protocol`] for invalid flow sets.
pub fn run_flows(topo: &Topology, flows: &[Flow], cfg: &EngineConfig) -> SimResult<EngineOutcome> {
    let sim = build_sim(topo, flows, cfg)?;
    run_sim(sim)
}

/// Folds one window's outputs in canonical stage-major order: every
/// shard's injections (ports ascending within each shard, shards in node
/// order), then every shard's link transits, then every shard's ejections.
/// Any port-group-aligned partition produces exactly this sequence, which
/// is what makes the digest independent of the shard count.
fn fold_window(shards: &[MutexGuard<'_, Shard>], outcome: &mut EngineOutcome, record: bool) {
    for stage in 0..3 {
        for out in shards.iter().map(|s| &s.out) {
            let evs = match stage {
                0 => &out.inject_events,
                1 => &out.link_events,
                _ => &out.eject_events,
            };
            for e in evs {
                outcome.digest = e.fold_into(outcome.digest);
            }
            if record {
                outcome.events.extend_from_slice(evs);
            }
        }
    }
}

fn run_sim(sim: Sim<'_>) -> SimResult<EngineOutcome> {
    let cfg = sim.cfg;
    let obs = Obs::current();
    let window = cfg.link.latency_cycles.max(1);
    let jobs = if cfg.jobs == 0 { par::jobs() } else { cfg.jobs };
    // Hand each worker a few shards at a time: one fetch-add per chunk
    // instead of per shard, while still leaving enough chunks (~4 per
    // worker) to absorb uneven window costs.
    let chunk = sim.shards.len().div_ceil(jobs.max(1) * 4).max(1);

    let mut outcome = EngineOutcome {
        words: sim.total_words,
        digest: FNV_OFFSET,
        ..EngineOutcome::default()
    };
    if sim.total_words == 0 {
        return Ok(outcome);
    }

    let mut watchdog = Watchdog::new(cfg.max_windows).with_cycle_budget(cfg.max_cycles);
    // Deepest each shard's router queues ever got, for the per-shard
    // balance gauges.
    let mut shard_peaks: Vec<u64> = vec![0; sim.shards.len()];
    let mut drained = 0u64;
    let mut idle_windows = 0u64;
    let mut last_progress_t0: Cycle = 0;
    // How long legitimate inactivity can last, in windows: fault stalls and
    // jitter park words in the future, backoff waits park retries with
    // nothing in flight, and transient link outages silence whole links for
    // a window. Saturating throughout — adversarial fault bounds (jitter or
    // stalls near `u64::MAX`) must widen the budget, never wrap it into a
    // hair trigger.
    let fault_slack = if cfg.fault.is_active() {
        let c = cfg.fault.config();
        let mut slack = c.max_stall_cycles.saturating_add(c.max_jitter_cycles);
        if cfg.fault.has_link_outages() {
            slack = slack.saturating_add(c.outage_window_cycles.min(c.outage_period_cycles.max(1)));
        }
        slack.saturating_add(cfg.retry.max_delay())
    } else {
        0
    };
    // A single port/drain action can jump its follow-up work a full word
    // time past the current window with nothing in flight meanwhile (e.g.
    // the last word's rx-ready stamp lands `wt` cycles ahead while the
    // drain idles), so the wire time bounds legitimate gaps too.
    let word_gap = 2 * (cfg.word_cycles().ceil() as Cycle);
    let idle_limit = 2 + fault_slack.saturating_add(word_gap) / window;

    // Window `r` covers `[r·L, (r+1)·L)`. The helpers spawn once for the
    // run; between windows they park at the barrier while this thread
    // folds the window and hands its words and credits on.
    watchdog.tick(ENGINE, 0)?;
    let mut stopped: SimResult<()> = Ok(());
    par::par_rounds(
        jobs,
        chunk,
        &sim.shards,
        |round, shard| {
            let t0 = round * window;
            shard
                .lock()
                .expect("shard lock poisoned")
                .run_window(t0, t0 + window, &sim.net);
        },
        |round| {
            let t0 = round * window;
            let mut guards: Vec<_> = sim
                .shards
                .iter()
                .map(|s| s.lock().expect("shard lock poisoned"))
                .collect();
            fold_window(&guards, &mut outcome, cfg.record_events);
            let (mut progress, mut queued, mut in_flight, mut stalls_w) = (0u64, 0u64, 0u64, 0u64);
            for (i, shard) in guards.iter().enumerate() {
                let out = &shard.out;
                progress += out.progress;
                drained += out.drained;
                queued += out.queued;
                let sent: usize = out.deliveries.iter().map(Vec::len).sum();
                in_flight += (shard.ring.len() + sent) as u64;
                stalls_w += out.stalls;
                shard_peaks[i] = shard_peaks[i].max(out.queued);
                outcome.flit_hops += out.flit_hops;
                outcome.dropped += out.dropped;
                outcome.corrupted += out.corrupted;
                outcome.retried += out.retried;
                outcome.abandoned += out.abandoned;
                outcome.cycles = outcome.cycles.max(out.last_drain);
            }
            // One aggregate registry add per window for the quiet NIC FIFOs'
            // fault stalls — identical totals to per-event counting, with
            // the shards never touching the metrics mutex from the parallel
            // region.
            if stalls_w > 0 {
                obs.count(memcomm_memsim::stats::fault_metric::INJECTED, stalls_w);
            }
            outcome.windows += 1;
            outcome.peak_queue_depth = outcome.peak_queue_depth.max(in_flight + queued);
            if progress > 0 {
                last_progress_t0 = t0;
            }

            if drained + outcome.abandoned == sim.total_words {
                // Every word is accounted for: delivered, or abandoned past
                // its retry budget (a degraded completion, settled below).
                return false;
            }
            if progress == 0 && in_flight == 0 {
                idle_windows += 1;
                if idle_windows > idle_limit {
                    // Faults are the only legitimate way a run stops short
                    // (words stranded behind dead links): close the run with
                    // exact accounting instead of erroring. A wedge without
                    // faults is an engine bug and stays a hard error.
                    if !cfg.fault.is_active() {
                        stopped = Err(SimError::Deadlock {
                            detail: format!(
                                "engine idle for {idle_windows} windows with {} of {} words undelivered",
                                sim.total_words - drained,
                                sim.total_words
                            ),
                            at: t0,
                        });
                    }
                    return false;
                }
            } else {
                idle_windows = 0;
            }
            if let Err(e) = watchdog.tick(ENGINE, t0 + window) {
                stopped = Err(e);
                return false;
            }
            // Hand-off: every outbox becomes its destination's inbox by a
            // vector swap (the inbox coming back was emptied by the window
            // that filed it); each shard files its arrivals into its own
            // ring inside the next window.
            for s in 0..guards.len() {
                for d in 0..guards.len() {
                    let sent = take(&mut guards[s].out.deliveries[d]);
                    guards[s].out.deliveries[d] = replace(&mut guards[d].inbox[s], sent);
                    let sent = take(&mut guards[s].out.credits[d]);
                    guards[s].out.credits[d] = replace(&mut guards[d].credit_inbox[s], sent);
                }
            }
            true
        },
    );
    stopped?;

    if drained < sim.total_words {
        outcome.degraded = Some(degraded_accounting(&sim, last_progress_t0));
    }
    if cfg.record_latency {
        outcome.flow_latency = merge_flow_latency(&sim, &obs);
    }
    if cfg.sample_every > 0 {
        let tel = collect_telemetry(&sim, outcome.windows * window);
        if obs.is_enabled() {
            obs.count("engine.telemetry.ticks", tel.ticks);
            for (c, b) in tel.breakdown.iter().enumerate() {
                obs.count(&format!("engine.breakdown.class{c}.inject"), b.inject);
                obs.count(&format!("engine.breakdown.class{c}.queue"), b.queue);
                obs.count(&format!("engine.breakdown.class{c}.wire"), b.wire);
                obs.count(&format!("engine.breakdown.class{c}.backoff"), b.backoff);
                obs.count(&format!("engine.breakdown.class{c}.total"), b.total);
            }
            // Chrome counter tracks, one sample per series point.
            let per = tel.queue_depth.cycles_per_point();
            for (i, &v) in tel.queue_depth.points().iter().enumerate() {
                obs.trace_counter("engine.telemetry", "queue_depth", i as u64 * per, v);
            }
            let per = tel.link_busy.cycles_per_point();
            for (i, &v) in tel.link_busy.points().iter().enumerate() {
                obs.trace_counter("engine.telemetry", "link_busy", i as u64 * per, v);
            }
        }
        outcome.telemetry = Some(tel);
    }

    obs.count("engine.words", outcome.words);
    obs.count("engine.flit_hops", outcome.flit_hops);
    obs.count("engine.windows", outcome.windows);
    if outcome.retried > 0 {
        obs.count("engine.retries", outcome.retried);
    }
    if outcome.abandoned > 0 {
        obs.count("engine.abandoned", outcome.abandoned);
    }
    obs.gauge_max("engine.peak_queue_depth", outcome.peak_queue_depth);
    if obs.is_enabled() {
        // Per-shard balance gauges: how evenly the partition spread the
        // queue pressure. Guarded — the format! per shard is wasted work
        // when nothing is recording.
        obs.gauge_max("engine.shards", shard_peaks.len() as u64);
        for (i, &peak) in shard_peaks.iter().enumerate() {
            obs.gauge_max(&format!("engine.shard{i}.peak_queued"), peak);
        }
    }
    obs.span("engine", "run_flows", 0, outcome.cycles);
    Ok(outcome)
}

/// Settles the per-flow delivery ledger and per-link outage counters into
/// the exact [`Degraded`] accounting. Both walks are in canonical order
/// (ascending flow index, ascending global link index) regardless of how
/// the machine was sharded, so the accounting is partition-invariant.
fn degraded_accounting(sim: &Sim<'_>, last_progress_cycle: Cycle) -> Degraded {
    let mut drained_of = vec![0u64; sim.net.flows.len()];
    let mut per_link_outages = Vec::new();
    for s in &sim.shards {
        let shard = s.lock().expect("shard lock poisoned");
        for (&fi, &n) in shard.drain_flow_ids.iter().zip(&shard.drained_flows) {
            drained_of[fi as usize] = n;
        }
        for l in &shard.links {
            if l.outages > 0 {
                per_link_outages.push((l.global, l.outages));
            }
        }
    }
    per_link_outages.sort_unstable();
    let missing_flows = sim
        .net
        .flows
        .iter()
        .enumerate()
        .filter_map(|(fi, p)| {
            let missing = u64::from(p.words) - drained_of[fi];
            (missing > 0).then_some((fi as u32, missing))
        })
        .collect();
    Degraded {
        missing_flows,
        last_progress_cycle,
        per_link_outages,
    }
}

/// Merges the shards' per-class inject→eject histograms (commutative, so
/// the shard partition is invisible) into per-class summaries, mirroring
/// them into the metrics registry when one is recording.
fn merge_flow_latency(sim: &Sim<'_>, obs: &Obs) -> Vec<HistogramSummary> {
    // Every shard is built with the same class count.
    let classes = sim.shards[0]
        .lock()
        .expect("shard lock poisoned")
        .lat_hist
        .len();
    let mut merged = vec![Histogram::default(); classes];
    for s in &sim.shards {
        let shard = s.lock().expect("shard lock poisoned");
        for (m, h) in merged.iter_mut().zip(&shard.lat_hist) {
            m.merge(h);
        }
    }
    if obs.is_enabled() {
        for (c, h) in merged.iter().enumerate() {
            obs.merge_histogram(&format!("engine.flow_latency.class{c}"), h);
        }
    }
    merged.iter().map(Histogram::summary).collect()
}

/// Merges the shards' sampled telemetry into one [`Telemetry`]: series add
/// pointwise (every shard ticked the same global schedule), spatial state
/// scatters by global link index / node number, and the attribution sums
/// accumulate per class. All integer adds over disjoint or commutative
/// state — the shard partition is invisible.
fn collect_telemetry(sim: &Sim<'_>, final_t1: Cycle) -> Telemetry {
    let se = sim.cfg.sample_every;
    // A stub interval past the last on-grid tick gets one uniform tail
    // sample, so counter series totals equal the run ledger.
    let flush_tail = !final_t1.is_multiple_of(se);
    let mk = |kind| Series::new(kind, se, SERIES_POINTS);
    let mut tel = Telemetry {
        sample_every: se,
        ticks: 0,
        link_busy: mk(SeriesKind::Counter),
        queue_depth: mk(SeriesKind::Gauge),
        inject_backlog: mk(SeriesKind::Gauge),
        eject_backlog: mk(SeriesKind::Gauge),
        retries: mk(SeriesKind::Counter),
        outages: mk(SeriesKind::Counter),
        link_from: sim.net.link_from.clone(),
        link_to: sim.net.link_to.clone(),
        link_busy_fp: vec![0; sim.net.link_to.len()],
        node_occupancy: vec![0; sim.net.shard_of_node.len()],
        breakdown: Vec::new(),
    };
    let classes = sim.shards[0]
        .lock()
        .expect("shard lock poisoned")
        .lat_sums
        .len();
    tel.breakdown = vec![ClassBreakdown::default(); classes];
    for s in &sim.shards {
        let mut guard = s.lock().expect("shard lock poisoned");
        let shard = &mut *guard;
        let st = shard
            .telemetry
            .as_mut()
            .expect("sampling shards carry telemetry");
        if flush_tail {
            st.sample(
                &shard.tx,
                &shard.rx,
                &shard.eject,
                &shard.links,
                &shard.arena,
            );
        }
        for (b, sb) in tel.breakdown.iter_mut().zip(&shard.lat_sums) {
            b.merge(sb);
        }
        for l in &shard.links {
            tel.link_busy_fp[l.global as usize] = l.busy_fp;
        }
        let lo = shard.node_lo as usize;
        for (i, &occ) in st.node_occ.iter().enumerate() {
            tel.node_occupancy[lo + i] = occ;
        }
        tel.ticks = tel.ticks.max(st.ticks);
        tel.link_busy.merge(&st.link_busy);
        tel.queue_depth.merge(&st.queue_depth);
        tel.inject_backlog.merge(&st.inject_backlog);
        tel.eject_backlog.merge(&st.eject_backlog);
        tel.retries.merge(&st.retries);
        tel.outages.merge(&st.outages);
    }
    tel
}

/// Runs a barrier-separated schedule of rounds; each round must fully drain
/// before the next starts (the semantics of the paper's phased kernels).
pub fn run_schedule(
    topo: &Topology,
    rounds: &[Vec<Flow>],
    cfg: &EngineConfig,
) -> SimResult<ScheduleOutcome> {
    let mut out = ScheduleOutcome {
        rounds: Vec::with_capacity(rounds.len()),
        cycles: 0,
        digest: FNV_OFFSET,
        peak_queue_depth: 0,
    };
    for (i, round) in rounds.iter().enumerate() {
        let r = run_flows(topo, round, cfg)?;
        out.cycles += r.cycles;
        out.digest = fnv_fold(fnv_fold(out.digest, i as u64), r.digest);
        out.peak_queue_depth = out.peak_queue_depth.max(r.peak_queue_depth);
        out.rounds.push(r);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::build::vc_labels;
    use super::*;
    use crate::routing::route;
    use crate::traffic;

    fn small_cfg() -> EngineConfig {
        let link = LinkParams {
            bytes_per_cycle: 8.0,
            packet_words: 16,
            header_bytes: 8,
            adp_extra_bytes: 8,
            latency_cycles: 4,
            congestion: 1.0,
        };
        EngineConfig::new(link, NodeParams::default())
    }

    #[test]
    fn single_flow_delivers_all_words() {
        let topo = Topology::torus(&[4]);
        let flows = [Flow {
            src: 0,
            dst: 2,
            bytes: 64 * 8,
        }];
        let out = run_flows(&topo, &flows, &small_cfg()).unwrap();
        assert_eq!(out.words, 64);
        // Two hops per word, no faults.
        assert_eq!(out.flit_hops, 128);
        assert!(out.cycles > 0);
    }

    #[test]
    fn local_and_empty_flows_are_skipped() {
        let topo = Topology::mesh(&[2, 2]);
        let flows = [
            Flow {
                src: 1,
                dst: 1,
                bytes: 800,
            },
            Flow {
                src: 0,
                dst: 1,
                bytes: 0,
            },
        ];
        let out = run_flows(&topo, &flows, &small_cfg()).unwrap();
        assert_eq!(out.words, 0);
        assert_eq!(out.windows, 0);
    }

    #[test]
    fn invalid_flow_is_a_protocol_error() {
        let topo = Topology::mesh(&[2, 2]);
        let flows = [Flow {
            src: 0,
            dst: 9,
            bytes: 8,
        }];
        assert!(matches!(
            run_flows(&topo, &flows, &small_cfg()),
            Err(SimError::Protocol { .. })
        ));
    }

    #[test]
    fn wire_rate_is_approached_on_an_uncontended_path() {
        let topo = Topology::torus(&[8]);
        let words = 512u64;
        let flows = [Flow {
            src: 0,
            dst: 1,
            bytes: words * 8,
        }];
        let cfg = small_cfg();
        let out = run_flows(&topo, &flows, &cfg).unwrap();
        let wt = cfg.word_cycles();
        let ideal = words as f64 * wt;
        let t = out.cycles as f64;
        assert!(t >= ideal, "cannot beat the wire: {t} < {ideal}");
        assert!(
            t < 2.0 * ideal + 200.0,
            "an uncontended flow should run near wire rate: {t} vs {ideal}"
        );
    }

    #[test]
    fn contended_link_doubles_the_time() {
        // Two flows share the 2→3 link on a ring; each alone would take
        // ~W*wt, together the shared link serializes them.
        let topo = Topology::mesh(&[8]);
        let words = 256u64;
        let flows = [
            Flow {
                src: 2,
                dst: 4,
                bytes: words * 8,
            },
            Flow {
                src: 1,
                dst: 5,
                bytes: words * 8,
            },
        ];
        let cfg = small_cfg();
        let uncontended = run_flows(&topo, &flows[..1], &cfg).unwrap().cycles as f64;
        let contended = run_flows(&topo, &flows, &cfg).unwrap().cycles as f64;
        assert!(
            contended > 1.6 * uncontended,
            "sharing a link must show up: {contended} vs {uncontended}"
        );
    }

    #[test]
    fn digest_is_identical_across_worker_counts() {
        let topo = Topology::torus(&[4, 4]);
        let rounds = traffic::aapc_xor_schedule(16, 32 * 8);
        let run = |jobs: usize| {
            let mut cfg = small_cfg();
            cfg.jobs = jobs;
            cfg.nodes_per_port = 2;
            cfg.record_events = true;
            run_schedule(&topo, &rounds, &cfg).unwrap()
        };
        let base = run(1);
        for jobs in [2, 4, 7] {
            let out = run(jobs);
            assert_eq!(out.digest, base.digest, "jobs={jobs}");
            assert_eq!(out.cycles, base.cycles, "jobs={jobs}");
            for (a, b) in out.rounds.iter().zip(&base.rounds) {
                assert_eq!(a.events, b.events, "jobs={jobs}");
            }
        }
    }

    #[test]
    fn digest_is_identical_across_shard_counts() {
        // The stage-major fold makes the shard partition invisible: one
        // shard, an odd count, or one per port group — same events, same
        // digest, same cycle count.
        let topo = Topology::torus(&[4, 4]);
        let rounds = traffic::aapc_xor_schedule(16, 24 * 8);
        let run = |shards: usize| {
            let mut cfg = small_cfg();
            cfg.jobs = 2;
            cfg.shards = shards;
            cfg.nodes_per_port = 2;
            cfg.record_events = true;
            run_schedule(&topo, &rounds, &cfg).unwrap()
        };
        let base = run(1);
        for shards in [2, 3, 5, 8] {
            let out = run(shards);
            assert_eq!(out.digest, base.digest, "shards={shards}");
            assert_eq!(out.cycles, base.cycles, "shards={shards}");
            for (a, b) in out.rounds.iter().zip(&base.rounds) {
                assert_eq!(a.events, b.events, "shards={shards}");
            }
        }
        // And the auto count (whatever it resolves to on this host) agrees.
        let mut cfg = small_cfg();
        cfg.nodes_per_port = 2;
        let auto = run_schedule(&topo, &rounds, &cfg).unwrap();
        assert_eq!(auto.digest, base.digest);
        assert_eq!(auto.cycles, base.cycles);
    }

    #[test]
    fn torus_wraps_use_the_second_virtual_channel() {
        let topo = Topology::torus(&[5]);
        // 4 → 1 wraps: hops 4→0 (wrap, VC0) then 0→1 (VC1).
        let r = route(&topo, 4, 1);
        let vcs = vc_labels(&topo, &r);
        assert_eq!(vcs, vec![0, 1]);
        // Mesh routes never leave VC0.
        let m = Topology::mesh(&[5]);
        let rm = route(&m, 0, 4);
        assert!(vc_labels(&m, &rm).iter().all(|&v| v == 0));
    }

    #[test]
    fn scaled_topology_splits_evenly() {
        let t3d = Topology::torus(&[4, 4, 4]);
        assert_eq!(scaled_topology(&t3d, 64).unwrap().dims(), &[4, 4, 4]);
        assert_eq!(scaled_topology(&t3d, 8).unwrap().dims(), &[2, 2, 2]);
        assert_eq!(scaled_topology(&t3d, 4).unwrap().dims(), &[2, 2, 1]);
        // The kilo-node configurations.
        assert_eq!(scaled_topology(&t3d, 256).unwrap().dims(), &[8, 8, 4]);
        assert_eq!(scaled_topology(&t3d, 1024).unwrap().dims(), &[16, 8, 8]);
        assert_eq!(scaled_topology(&t3d, 4096).unwrap().dims(), &[16, 16, 16]);
        let mesh = Topology::mesh(&[8, 8]);
        let m16 = scaled_topology(&mesh, 16).unwrap();
        assert_eq!(m16.dims(), &[4, 4]);
        assert!(!m16.is_torus());
        assert!(scaled_topology(&t3d, 3).is_err());
        assert!(scaled_topology(&t3d, 0).is_err());
    }

    #[test]
    fn retry_storm_retransmits_every_drop() {
        // A drop-heavy plan under adversarial retry-storm traffic: with the
        // default (generous) retry budget every dropped word retransmits —
        // the counters prove it — and the result is byte-identical at any
        // jobs × shards.
        use crate::adversary::{self, AdversaryConfig, AdversaryKind};
        use memcomm_memsim::fault::FaultConfig;
        let topo = Topology::torus(&[2, 2]);
        let t = adversary::generate(
            &topo,
            &AdversaryConfig {
                kind: AdversaryKind::RetryStorm,
                base_bytes: 64,
                ..AdversaryConfig::default()
            },
        );
        let run = |jobs: usize, shards: usize| {
            let mut cfg = small_cfg();
            cfg.jobs = jobs;
            cfg.shards = shards;
            cfg.fault = FaultPlan::new(FaultConfig {
                seed: 21,
                rate: 0.4,
                ..FaultConfig::default()
            });
            run_flows(&topo, &t.flows, &cfg).unwrap()
        };
        let a = run(1, 1);
        assert!(a.dropped > 0, "a 40% fault rate must drop words");
        assert_eq!(a.dropped, a.retried + a.abandoned, "every drop accounted");
        assert_eq!(a.abandoned, 0, "default budget absorbs the storm");
        assert!(a.degraded.is_none());
        for (jobs, shards) in [(4, 0), (2, 3)] {
            let b = run(jobs, shards);
            assert_eq!(b.digest, a.digest, "jobs={jobs} shards={shards}");
            assert_eq!(b.retried, a.retried);
            assert_eq!(b.cycles, a.cycles);
        }
    }

    #[test]
    fn backoff_waits_do_not_trip_the_watchdog() {
        // Regression: a retry policy with real backoff waits parks dropped
        // words far in the future with nothing else in flight; the idle
        // watchdog must grant that slack instead of calling it a wedge.
        use memcomm_memsim::fault::FaultConfig;
        let topo = Topology::torus(&[4]);
        let flows = [Flow {
            src: 0,
            dst: 1,
            bytes: 16 * 8,
        }];
        let mut cfg = small_cfg();
        cfg.fault = FaultPlan::new(FaultConfig {
            seed: 9,
            rate: 0.5,
            ..FaultConfig::default()
        });
        cfg.retry = RetryPolicy {
            max_retries: 64,
            backoff_base_cycles: 512,
            backoff_factor: 2,
            max_backoff_cycles: 1 << 14,
        };
        let out = run_flows(&topo, &flows, &cfg).unwrap();
        assert_eq!(out.words, 16);
        assert!(out.dropped > 0, "half the attempts drop at seed 9");
        assert_eq!(out.dropped, out.retried, "all retried, none abandoned");
        assert!(out.degraded.is_none());
    }

    #[test]
    fn watchdog_slack_survives_adversarial_fault_bounds() {
        // Regression: the idle-slack arithmetic used to add stall and
        // jitter bounds unchecked, so a plan advertising near-u64 bounds
        // overflowed (a debug panic) before the first window ran; and the
        // per-shard delivery buckets were sized from the jitter bound
        // uncapped (`1 << 32` asked for a 200 GB ring, `u64::MAX` wrapped).
        use memcomm_memsim::fault::FaultConfig;
        let topo = Topology::torus(&[4]);
        let flows = [Flow {
            src: 0,
            dst: 2,
            bytes: 8 * 8,
        }];
        for (stall, jitter) in [(u64::MAX, 1), (1, 1 << 32), (1, u64::MAX)] {
            let mut cfg = small_cfg();
            cfg.fault = FaultPlan::new(FaultConfig {
                seed: 5,
                rate: 1e-12, // active, but effectively never fires
                max_stall_cycles: stall,
                max_jitter_cycles: jitter,
                ..FaultConfig::default()
            });
            let out = run_flows(&topo, &flows, &cfg).unwrap();
            assert_eq!(out.words, 8, "stall {stall} jitter {jitter}");
            assert!(out.degraded.is_none());
        }
        // A firing plan: a Delay near the jitter bound pushes the wire past
        // `u64::MAX` cycles. Regression: the link's busy-time and arrival
        // adds overflowed (a panic under overflow checks); both saturate
        // now, the saturated arrival parks in the delivery ring's overflow
        // list, and the watchdog ends the run with a typed error.
        let mut ended = 0;
        for jitter in [1 << 40, 1 << 62, u64::MAX] {
            let mut cfg = small_cfg();
            cfg.max_windows = 1 << 14;
            cfg.fault = FaultPlan::new(FaultConfig {
                seed: 5,
                rate: 0.5,
                max_jitter_cycles: jitter,
                ..FaultConfig::default()
            });
            match run_flows(&topo, &flows, &cfg) {
                Ok(out) => assert_eq!(out.words, 8, "jitter {jitter}"),
                Err(SimError::Wedged { .. } | SimError::CycleBudget { .. }) => ended += 1,
                Err(e) => panic!("jitter {jitter}: {e}"),
            }
        }
        assert!(ended > 0, "some delay must land beyond the watchdog");
    }

    #[test]
    fn permanent_outages_degrade_with_exact_accounting() {
        // Every link dead: the run cannot deliver a single word, and must
        // close with exact per-flow and per-link accounting instead of a
        // bare deadlock — byte-identically at any jobs × shards.
        use memcomm_memsim::fault::FaultConfig;
        let topo = Topology::torus(&[4]);
        let flows = traffic::cyclic_shift(&topo, 1, 32 * 8);
        let run = |jobs: usize, shards: usize| {
            let mut cfg = small_cfg();
            cfg.jobs = jobs;
            cfg.shards = shards;
            cfg.fault = FaultPlan::new(FaultConfig {
                seed: 3,
                permanent_outage_rate: 1.0,
                ..FaultConfig::default()
            });
            run_flows(&topo, &flows, &cfg).unwrap()
        };
        let a = run(1, 1);
        let d = a.degraded.as_ref().expect("dead links must degrade");
        assert_eq!(
            d.missing_flows.iter().map(|&(_, m)| m).sum::<u64>(),
            a.words,
            "every word is missing"
        );
        assert_eq!(d.missing_flows.len(), 4, "all four flows came up short");
        assert!(
            d.missing_flows.windows(2).all(|w| w[0].0 < w[1].0),
            "canonical flow order"
        );
        assert!(!d.per_link_outages.is_empty());
        assert!(
            d.per_link_outages.windows(2).all(|w| w[0].0 < w[1].0),
            "canonical link order"
        );
        for (jobs, shards) in [(4, 0), (2, 3)] {
            let b = run(jobs, shards);
            assert_eq!(b.digest, a.digest, "jobs={jobs} shards={shards}");
            assert_eq!(b.degraded, a.degraded, "jobs={jobs} shards={shards}");
        }
    }

    #[test]
    fn exhausted_retry_budget_abandons_and_accounts() {
        // max_retries = 0 with a high drop rate: some words burn their
        // (empty) budget on the first drop and are abandoned; the run still
        // completes, with dropped == retried + abandoned and the missing
        // words reported per flow.
        use memcomm_memsim::fault::FaultConfig;
        let topo = Topology::torus(&[4]);
        let flows = traffic::cyclic_shift(&topo, 1, 64 * 8);
        let run = |jobs: usize, shards: usize| {
            let mut cfg = small_cfg();
            cfg.jobs = jobs;
            cfg.shards = shards;
            cfg.fault = FaultPlan::new(FaultConfig {
                seed: 13,
                rate: 0.25,
                ..FaultConfig::default()
            });
            cfg.retry = RetryPolicy {
                max_retries: 0,
                ..RetryPolicy::default()
            };
            run_flows(&topo, &flows, &cfg).unwrap()
        };
        let a = run(1, 1);
        assert!(a.abandoned > 0, "a quarter of first attempts drop");
        assert_eq!(a.retried, 0, "no budget, no retries");
        assert_eq!(a.dropped, a.abandoned);
        let d = a.degraded.as_ref().expect("lost words must degrade");
        assert_eq!(
            d.missing_flows.iter().map(|&(_, m)| m).sum::<u64>(),
            a.abandoned,
            "missing words are exactly the abandoned ones"
        );
        for (jobs, shards) in [(4, 0), (3, 2)] {
            let b = run(jobs, shards);
            assert_eq!(b.digest, a.digest);
            assert_eq!(b.abandoned, a.abandoned);
            assert_eq!(b.degraded, a.degraded);
        }
    }

    #[test]
    fn flow_latency_histograms_are_partition_invariant() {
        use crate::adversary::{self, AdversaryConfig, AdversaryKind};
        let topo = Topology::torus(&[4, 4]);
        let t = adversary::generate(
            &topo,
            &AdversaryConfig {
                kind: AdversaryKind::Incast,
                base_bytes: 128,
                ..AdversaryConfig::default()
            },
        );
        let run = |jobs: usize, shards: usize| {
            let mut cfg = small_cfg();
            cfg.jobs = jobs;
            cfg.shards = shards;
            cfg.flow_classes = t.classes.clone();
            cfg.record_latency = true;
            run_flows(&topo, &t.flows, &cfg).unwrap()
        };
        let a = run(1, 1);
        assert_eq!(a.flow_latency.len(), 2, "background and adversarial");
        let delivered: u64 = a.flow_latency.iter().map(|h| h.count).sum();
        assert_eq!(delivered, a.words, "every word's latency is recorded");
        for h in &a.flow_latency {
            assert!(h.p50 <= h.p99 && h.p99 <= h.p999 && h.p999 <= h.max);
            assert!(h.min <= h.p50);
        }
        for (jobs, shards) in [(4, 0), (2, 5)] {
            let b = run(jobs, shards);
            assert_eq!(
                b.flow_latency, a.flow_latency,
                "jobs={jobs} shards={shards}"
            );
        }
    }

    #[test]
    fn telemetry_is_partition_invariant_and_telescopes() {
        use crate::adversary::{self, AdversaryConfig, AdversaryKind};
        let topo = Topology::torus(&[4, 4]);
        let t = adversary::generate(
            &topo,
            &AdversaryConfig {
                kind: AdversaryKind::Incast,
                base_bytes: 128,
                ..AdversaryConfig::default()
            },
        );
        let run = |jobs: usize, shards: usize| {
            let mut cfg = small_cfg();
            cfg.jobs = jobs;
            cfg.shards = shards;
            cfg.flow_classes = t.classes.clone();
            cfg.record_latency = true;
            cfg.sample_every = 16;
            run_flows(&topo, &t.flows, &cfg).unwrap()
        };
        let a = run(1, 1);
        let tel = a.telemetry.as_ref().expect("sampling was on");
        assert!(tel.ticks > 0);
        assert_eq!(tel.queue_depth.samples(), tel.ticks);
        // Counter series totals equal the run ledger (the tail flush closes
        // any stub interval). No faults here, so both fault counters stay
        // flat and the busy ledger is exactly one wire time per flit hop.
        assert_eq!(tel.retries.total(), a.retried);
        assert_eq!(tel.outages.total(), 0);
        let wt_fp = (small_cfg().word_cycles() * 65536.0).round() as u64;
        assert_eq!(tel.link_busy.total(), a.flit_hops * wt_fp);
        assert_eq!(tel.link_busy_fp.iter().sum::<u64>(), tel.link_busy.total());
        assert!(tel.node_occupancy.iter().any(|&o| o > 0), "incast hotspot");
        // Critical-path attribution telescopes exactly to the latency
        // histograms, class by class.
        assert_eq!(tel.breakdown.len(), a.flow_latency.len());
        for (b, h) in tel.breakdown.iter().zip(&a.flow_latency) {
            assert_eq!(b.count, h.count);
            assert_eq!(b.total, h.sum);
            assert_eq!(b.inject + b.queue + b.wire + b.backoff, b.total);
            assert!(b.queue > 0, "an incast must show queueing");
        }
        // The whole telemetry block is partition-invariant.
        for (jobs, shards) in [(4, 0), (2, 5)] {
            let b = run(jobs, shards);
            assert_eq!(b.digest, a.digest, "jobs={jobs} shards={shards}");
            assert_eq!(
                b.telemetry.as_ref().unwrap(),
                tel,
                "jobs={jobs} shards={shards}"
            );
        }
    }

    #[test]
    fn sampling_never_perturbs_results_and_stalls_flush_in_aggregate() {
        use memcomm_memsim::fault::FaultConfig;
        let topo = Topology::torus(&[4]);
        let flows = traffic::cyclic_shift(&topo, 1, 64 * 8);
        let mut base = small_cfg();
        base.record_events = true;
        base.fault = FaultPlan::new(FaultConfig {
            seed: 7,
            rate: 0.3,
            max_stall_cycles: 8,
            ..FaultConfig::default()
        });
        let a = run_flows(&topo, &flows, &base).unwrap();
        let mut sampled = base.clone();
        sampled.sample_every = 8;
        let obs = Obs::new(false);
        let b = {
            let _guard = obs.install();
            run_flows(&topo, &flows, &sampled).unwrap()
        };
        // Sampling on: same events, digest, and cycles — only the outputs
        // grow.
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.events, b.events);
        assert_eq!(a.cycles, b.cycles);
        let tel = b.telemetry.as_ref().expect("sampling was on");
        assert_eq!(tel.retries.total(), b.retried);
        // The quiet NIC FIFOs' fault stalls reached the registry through
        // the coordinator's once-per-window aggregate flush.
        assert!(obs.counter(memcomm_memsim::stats::fault_metric::INJECTED) > 0);
    }

    #[test]
    fn zero_fault_adversarial_run_matches_faultless_baseline() {
        // An adversary plan with every rate at zero must be byte-identical
        // to no plan at all — the fault hooks and the retry/latency
        // plumbing are observationally free when disabled.
        use crate::adversary::{self, AdversaryConfig, AdversaryKind};
        use memcomm_memsim::fault::FaultConfig;
        let topo = Topology::torus(&[4, 4]);
        let t = adversary::generate(&topo, &AdversaryConfig::default());
        let _ = AdversaryKind::ALL; // canonical order is public API
        let mut base = small_cfg();
        base.record_events = true;
        let a = run_flows(&topo, &t.flows, &base).unwrap();
        let mut zeroed = base.clone();
        zeroed.fault = FaultPlan::new(FaultConfig {
            seed: 99,
            ..FaultConfig::default()
        });
        let b = run_flows(&topo, &t.flows, &zeroed).unwrap();
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.events, b.events);
        assert_eq!(a.cycles, b.cycles);
    }

    #[test]
    fn fault_plan_replays_identically() {
        use memcomm_memsim::fault::FaultConfig;
        let topo = Topology::torus(&[4]);
        let flows = traffic::cyclic_shift(&topo, 1, 64 * 8);
        let plan = FaultPlan::new(FaultConfig {
            seed: 7,
            rate: 0.05,
            ..FaultConfig::default()
        });
        let mut cfg = small_cfg();
        cfg.fault = plan;
        cfg.record_events = true;
        let a = run_flows(&topo, &flows, &cfg).unwrap();
        let b = run_flows(&topo, &flows, &cfg).unwrap();
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.events, b.events);
        assert!(a.dropped > 0 || a.corrupted > 0, "faults should fire at 5%");
        // Dropped words are retransmitted, never lost: all four 64-word
        // flows of the shift complete.
        assert_eq!(a.words, 256);
    }
}
