//! Resilient transfer protocol: sequence-numbered, checksummed framing with
//! ack/retry over faulty links.
//!
//! The paper's transfers assume a reliable network (both the T3D and the
//! Paragon guarantee delivery in hardware). This module asks the robustness
//! question the paper does not: what does a deposit-style transfer cost when
//! words can be dropped, corrupted or delayed in flight? The answer is a
//! stop-and-wait protocol in the style of the era's reliable message layers:
//!
//! * the payload is cut into **frames** of [`ProtocolConfig::frame_words`]
//!   words, each framed by a header control word (sequence number + length)
//!   and a trailing checksum control word (an xor-rotate over the sequence
//!   number and every payload word, addresses included);
//! * the receiver acks each intact frame on a reverse channel; duplicate
//!   frames (a lost ack) are re-acked and discarded, corrupt frames are
//!   silently dropped so the sender's timeout drives a retransmission;
//! * the sender retries with **exponential backoff** — the ack timeout
//!   doubles (by [`ProtocolConfig::backoff_factor`]) per attempt up to
//!   [`ProtocolConfig::max_timeout_cycles`]; after
//!   [`ProtocolConfig::max_retries`] failed attempts the transfer fails
//!   with [`SimError::Protocol`] instead of spinning forever;
//! * a **chained** transfer whose deposit engine the fault plan has taken
//!   down degrades gracefully: the receiver falls back to CPU stores (the
//!   buffer-packed receive path), keeping frame and sequence state, and the
//!   run is flagged [`TransferReport::degraded`]. [`blend_rates`] predicts
//!   the throughput of a workload that degrades some fraction of the time.

use memcomm_machines::memo::{self, Point};
use memcomm_machines::Machine;
use memcomm_memsim::clock::Cycle;
use memcomm_memsim::fault::{site, FaultConfig, FaultPlan};
use memcomm_memsim::nic::{NetWord, WordKind};
use memcomm_memsim::node::Watchdog;
use memcomm_memsim::walk::Walk;
use memcomm_memsim::{stats, Node, SimError, SimResult};
use memcomm_model::{AccessPattern, Throughput};
use memcomm_netsim::link::Step;
use memcomm_netsim::Link;

pub use memcomm_memsim::fault::ProtocolConfig;
pub use memcomm_memsim::stats::TransferReport;

use crate::drive::{drive, Agents, LinkWaits};
use crate::exchange::Style;
use crate::layout::ExchangeLayout;

/// Tag byte of a frame-header control word.
const TAG_HDR: u64 = 0xA5;
/// Tag byte of an ack control word.
const TAG_ACK: u64 = 0x5A;

/// The backed-off ack timeout for a retry attempt: `timeout * factor^attempt`
/// capped at `max`. The schedule itself is the shared
/// [`exp_backoff`](memcomm_util::backoff::exp_backoff) core — the same
/// deterministic geometric wait the network engine's link-level
/// retransmits use — parameterized by this protocol's config. Exposed for
/// testing the schedule is monotone and bounded.
pub fn backoff_timeout(cfg: &ProtocolConfig, attempt: u32) -> Cycle {
    memcomm_util::backoff::exp_backoff(
        cfg.timeout_cycles.max(1),
        u64::from(cfg.backoff_factor),
        cfg.max_timeout_cycles,
        attempt,
    )
}

/// Predicted throughput of a workload whose transfers run chained at
/// `chained` except for a `degraded_fraction` of the data that falls back
/// to the buffer-packed rate `packed` — the time-weighted (harmonic) blend,
/// since each byte takes `1/rate` time at its rate.
///
/// # Panics
///
/// Panics if `degraded_fraction` is outside `[0, 1]`.
pub fn blend_rates(chained: Throughput, packed: Throughput, degraded_fraction: f64) -> Throughput {
    assert!(
        (0.0..=1.0).contains(&degraded_fraction),
        "fraction must be in [0, 1]"
    );
    let c = chained.as_mbps();
    let p = packed.as_mbps();
    if c <= 0.0 || p <= 0.0 {
        return Throughput::from_mbps(0.0);
    }
    Throughput::from_mbps(1.0 / ((1.0 - degraded_fraction) / c + degraded_fraction / p))
}

/// The frame checksum: an xor-rotate over the sequence number and every
/// payload word (address and data), so dropped, duplicated, reordered and
/// corrupted words are all caught.
fn checksum(seq: u64, payload: &[NetWord]) -> u64 {
    let mut sum = seq.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for w in payload {
        sum = sum.rotate_left(1) ^ w.data;
        sum = sum.rotate_left(1) ^ w.addr.map_or(0x0DD5, |a| a.wrapping_add(1));
    }
    sum
}

fn hdr_word(seq: u64, len: u64) -> NetWord {
    NetWord::control((TAG_HDR << 56) | ((seq & 0xFFFF_FFFF) << 24) | (len & 0xFF_FFFF))
}

fn parse_hdr(data: u64) -> Option<(u64, u64)> {
    (data >> 56 == TAG_HDR).then_some(((data >> 24) & 0xFFFF_FFFF, data & 0xFF_FFFF))
}

fn ack_word(seq: u64) -> NetWord {
    NetWord::control((TAG_ACK << 56) | (seq & 0xFFFF_FFFF))
}

fn parse_ack(data: u64) -> Option<u64> {
    (data >> 56 == TAG_ACK).then_some(data & 0xFFFF_FFFF)
}

enum SendState {
    /// Pushing frame words; `pos` counts pushed words including the header
    /// (0 = header, 1..=len = payload, len + 1 = checksum).
    Sending {
        pos: u64,
    },
    AwaitAck {
        deadline: Cycle,
    },
    Done,
}

struct Sender {
    src: Walk,
    /// Remote destination addresses for chained (addressed) payloads.
    remote: Option<Walk>,
    frame_words: u64,
    frames: u64,
    seq: u64,
    attempt: u32,
    state: SendState,
    frames_sent: u64,
    retransmissions: u64,
    /// Words of the in-flight frame (rebuilt per attempt).
    staged: Vec<NetWord>,
    word_cycles: Cycle,
    ctl_cycles: Cycle,
    poll_cycles: Cycle,
    t: Cycle,
    obs: memcomm_obs::Obs,
    /// Cycle the current frame's first attempt began (spans retries).
    frame_start: Cycle,
}

impl Sender {
    fn frame_range(&self, seq: u64) -> (u64, u64) {
        let start = seq * self.frame_words;
        (start, self.frame_words.min(self.src.len() - start))
    }

    fn stage_frame(&mut self, node: &Node, seq: u64) {
        let (start, len) = self.frame_range(seq);
        self.staged.clear();
        self.staged.push(hdr_word(seq, len));
        for i in start..start + len {
            let data = node.mem.read(self.src.addr(i));
            self.staged.push(match &self.remote {
                Some(dst) => NetWord::addressed(dst.addr(i), data),
                None => NetWord::data(data),
            });
        }
        let sum = checksum(seq, &self.staged[1..]);
        self.staged.push(NetWord::control(sum));
    }

    fn step(&mut self, node: &mut Node, cfg: &ProtocolConfig) -> SimResult<Step> {
        // Drain acks first, whatever the state.
        let mut acked = false;
        while let Some(ready) = node.rx.front_ready() {
            if ready > self.t {
                break;
            }
            let (at, word) = node.rx.pop(self.t).expect("front_ready implies word");
            self.t = self.t.max(at) + self.ctl_cycles;
            if word.kind == WordKind::Control {
                if let Some(seq) = parse_ack(word.data) {
                    if seq == self.seq {
                        acked = true;
                    }
                }
            }
        }
        if acked {
            // One frame delivered end to end: record its latency (first
            // word of the first attempt to ack receipt), how many attempts
            // it took, and the transmit-queue depth it left behind.
            if self.obs.tracing() {
                self.obs.span(
                    "protocol.frame",
                    &format!("frame {}", self.seq),
                    self.frame_start,
                    self.t,
                );
            }
            self.obs
                .observe("protocol.frame_latency", self.t - self.frame_start);
            self.obs
                .observe("protocol.frame_attempts", u64::from(self.attempt) + 1);
            self.obs
                .observe("protocol.tx_queue_depth", node.tx.len() as u64);
            self.seq += 1;
            self.attempt = 0;
            self.frame_start = self.t;
            if self.seq == self.frames {
                self.state = SendState::Done;
                return Ok(Step::Done);
            }
            self.state = SendState::Sending { pos: 0 };
            return Ok(Step::Progressed);
        }
        match self.state {
            SendState::Done => Ok(Step::Done),
            SendState::Sending { pos } => {
                if pos == 0 {
                    self.stage_frame(node, self.seq);
                }
                let word = self.staged[pos as usize];
                let cost = if word.kind == WordKind::Control {
                    self.ctl_cycles
                } else {
                    self.word_cycles
                };
                match node.tx.push(self.t + cost, word) {
                    Some(at) => {
                        self.t = self.t.max(at).max(self.t + cost);
                        if pos + 1 == self.staged.len() as u64 {
                            self.frames_sent += 1;
                            self.state = SendState::AwaitAck {
                                deadline: self.t + backoff_timeout(cfg, self.attempt),
                            };
                        } else {
                            self.state = SendState::Sending { pos: pos + 1 };
                        }
                        Ok(Step::Progressed)
                    }
                    None => Ok(Step::Blocked),
                }
            }
            SendState::AwaitAck { deadline } => {
                if self.t >= deadline {
                    if self.attempt >= cfg.max_retries {
                        return Err(SimError::Protocol {
                            detail: format!(
                                "frame {} unacknowledged after {} attempts",
                                self.seq,
                                self.attempt + 1
                            ),
                            at: self.t,
                        });
                    }
                    self.attempt += 1;
                    self.retransmissions += 1;
                    self.obs.count(stats::fault_metric::RETRIED, 1);
                    self.obs.instant("protocol.frame", "retry", self.t);
                    self.state = SendState::Sending { pos: 0 };
                } else {
                    // Spin-poll the ack channel; the clock must advance so
                    // the timeout can fire even when nothing arrives.
                    self.t += self.poll_cycles;
                }
                Ok(Step::Progressed)
            }
        }
    }
}

enum RecvState {
    AwaitHdr,
    Payload {
        seq: u64,
        len: u64,
        got: Vec<NetWord>,
    },
}

struct Receiver {
    dst: Walk,
    frame_words: u64,
    expected_seq: u64,
    frames: u64,
    state: RecvState,
    /// Receiver stores by wire address (chained) or by element order
    /// (packed / degraded fallback).
    addressed: bool,
    word_cycles: Cycle,
    ctl_cycles: Cycle,
    t: Cycle,
}

impl Receiver {
    fn accept(&mut self, node: &mut Node, seq: u64, got: &[NetWord]) {
        let start = seq * self.frame_words;
        for (k, w) in got.iter().enumerate() {
            let addr = match w.addr {
                Some(a) if self.addressed => a,
                _ => self.dst.addr(start + k as u64),
            };
            node.mem.write(addr, w.data);
            self.t += self.word_cycles;
        }
        self.expected_seq += 1;
    }

    /// Handles one control word seen while expecting (or inside) a frame.
    /// Returns an ack to push, if the word completed an intact frame.
    fn on_control(&mut self, node: &mut Node, data: u64) -> Option<NetWord> {
        if let RecvState::Payload { seq, len, got } = &mut self.state {
            let complete = got.len() as u64 == *len && checksum(*seq, got) == data;
            if complete {
                let (seq, got) = (*seq, std::mem::take(got));
                self.state = RecvState::AwaitHdr;
                if seq == self.expected_seq {
                    self.accept(node, seq, &got);
                    return Some(ack_word(seq));
                }
                if seq < self.expected_seq {
                    // Duplicate (the ack was lost): re-ack, discard.
                    return Some(ack_word(seq));
                }
                // A future frame in stop-and-wait means state corruption;
                // drop it and let the sender's timeout resynchronize.
                return None;
            }
            // Not a valid end-of-frame: the frame is damaged (dropped or
            // corrupted words). Discard it and re-parse this control word
            // as a possible header so an intact retransmission resyncs.
            self.state = RecvState::AwaitHdr;
        }
        if let Some((seq, len)) = parse_hdr(data) {
            // Guard against a corrupted header staging an absurd frame.
            if len <= self.frame_words && seq <= self.expected_seq {
                self.state = RecvState::Payload {
                    seq,
                    len,
                    got: Vec::with_capacity(len as usize),
                };
            }
        }
        None
    }

    fn step(&mut self, node: &mut Node) -> Step {
        let Some(ready) = node.rx.front_ready() else {
            return Step::Blocked;
        };
        let (at, word) = node.rx.pop(self.t).expect("front_ready implies word");
        self.t = self.t.max(at).max(ready) + self.ctl_cycles;
        match word.kind {
            WordKind::Control => {
                if let Some(ack) = self.on_control(node, word.data) {
                    // The ack port store: charge it and push at the new time.
                    self.t += self.ctl_cycles;
                    // An unconstrained ack FIFO: acks are single words and
                    // the reverse channel is otherwise idle.
                    let _ = node.tx.push(self.t, ack);
                }
            }
            _ => {
                if let RecvState::Payload { len, got, .. } = &mut self.state {
                    if (got.len() as u64) < *len {
                        got.push(word);
                    } else {
                        // Overlong frame (inserted garbage): drop it.
                        self.state = RecvState::AwaitHdr;
                    }
                }
                // Data outside a frame: noise from a damaged frame; skip.
            }
        }
        Step::Progressed
    }

    fn done(&self) -> bool {
        self.expected_seq == self.frames
    }
}

/// A resilient transfer's agents: A's sender and B's receiver, then the
/// forward link A→B and the ack link B→A.
struct Transfer<'c> {
    a: Node,
    b: Node,
    sender: Sender,
    receiver: Receiver,
    links: [Link; 2],
    cfg: &'c ProtocolConfig,
}

impl Agents for Transfer<'_> {
    const DRIVER: &'static str = "resilient transfer";
    const ENGINES: &'static [&'static str] = &["sender", "receiver"];
    // The forward link runs from the sender to the receiver, the ack link
    // back.
    #[rustfmt::skip]
    const LINKS: &'static [LinkWaits] = &[
        LinkWaits { fills: &[0], drains: &[1] }, // forward
        LinkWaits { fills: &[1], drains: &[0] }, // acks
    ];
    // The receiver also waits on the sender: whether it is done depends on
    // whether the sender is.
    const WAITS_ON: &'static [&'static [usize]] = &[&[2, 3], &[0, 2, 3]];

    fn time_of(&self, id: usize) -> Cycle {
        match id {
            0 => self.sender.t,
            1 => self.receiver.t,
            _ => self.links[id - 2].time(),
        }
    }

    fn holds_word(&self, link: usize) -> bool {
        self.links[link].holds_word()
    }

    fn step(&mut self, id: usize) -> SimResult<Step> {
        let sender_done = matches!(self.sender.state, SendState::Done);
        Ok(match id {
            0 => return self.sender.step(&mut self.a, self.cfg),
            // The receiver serves until the sender is done: a final frame
            // retransmitted because its ack was lost must be re-acked.
            1 if sender_done && self.receiver.done() => Step::Done,
            1 => self.receiver.step(&mut self.b),
            2 => self.links[0].step(&mut self.a.tx, &mut self.b.rx),
            _ => self.links[1].step(&mut self.b.tx, &mut self.a.rx),
        })
    }
}

/// [`run_resilient_transfer`] through the installed memo cache (see
/// [`memcomm_machines::memo`]): a repeated transfer is a lookup, so its
/// fault counters and protocol histograms count only the runs that
/// simulate. With no handle installed every call simulates.
///
/// # Errors
///
/// As [`run_resilient_transfer`] (memoized like a value).
pub fn cached_resilient_transfer(
    machine: &Machine,
    x: AccessPattern,
    y: AccessPattern,
    style: Style,
    plan: FaultPlan,
    cfg: &ProtocolConfig,
) -> SimResult<TransferReport> {
    memo::cached(machine, resilient_point(x, y, style, plan, cfg), || {
        run_resilient_transfer(machine, x, y, style, plan, cfg)
    })
}

/// The memo point [`cached_resilient_transfer`] looks up.
///
/// A plan that cannot fire keys as [`FaultConfig::default`]: the links and
/// FIFOs disarm it and every decision needs a rate above 0, so none of its
/// fields reach the simulation, and a zero-rate grid under a new seed hits
/// the entries of the last one.
pub fn resilient_point(
    x: AccessPattern,
    y: AccessPattern,
    style: Style,
    plan: FaultPlan,
    cfg: &ProtocolConfig,
) -> Point {
    let faults = if plan.is_active() {
        *plan.config()
    } else {
        FaultConfig::default()
    };
    Point::Resilient {
        x,
        y,
        style: style as u8,
        faults,
        protocol: *cfg,
    }
}

/// Runs a one-way resilient `xQy` transfer of `cfg.words` words from node A
/// to node B of `machine`, under `plan`'s faults on both links, both NIC
/// FIFOs and the deposit engine, and returns the verified outcome.
///
/// A [`Style::Chained`] transfer uses addressed (Nadp) payload words and
/// the deposit engine; if the fault plan declares the deposit engine
/// unavailable ([`FaultPlan::engine_unavailable`] at [`site::DEPOSIT`]),
/// the transfer degrades to the buffer-packed receive path — data-only (Nd)
/// words stored by the receiving CPU — and the report says so.
///
/// # Errors
///
/// Returns [`SimError::Protocol`] when a frame exhausts its retries,
/// [`SimError::CycleBudget`] past `cfg.max_cycles`, [`SimError::Wedged`]
/// if the co-simulation stops making progress, and propagates allocation
/// and walk-validation failures.
pub fn run_resilient_transfer(
    machine: &Machine,
    x: AccessPattern,
    y: AccessPattern,
    style: Style,
    plan: FaultPlan,
    cfg: &ProtocolConfig,
) -> SimResult<TransferReport> {
    if cfg.frame_words == 0 || cfg.words == 0 {
        return Err(SimError::InvalidWalk {
            detail: "a resilient transfer needs at least one word and one frame word".to_string(),
        });
    }
    let obs = memcomm_obs::Obs::current();
    let label = format!(
        "{} resilient {x}Q{y} {}",
        machine.name,
        match style {
            Style::BufferPacking => "bp",
            Style::Chained => "chained",
        }
    );
    let _point = obs.point_scope(&label);
    let mut a = Node::new(machine.node);
    let mut b = Node::new(machine.node);
    let layout_a = ExchangeLayout::new(&mut a, x, y, cfg.words, cfg.seed, 0)?;
    let layout_b = ExchangeLayout::new(&mut b, x, y, cfg.words, cfg.seed, 1)?;

    // Graceful degradation: a chained transfer needs the deposit engine; if
    // the plan has taken it down, fall back to the buffer-packed receive
    // path (CPU stores, data-only words) rather than failing the transfer.
    let deposit_down = plan.engine_unavailable(site::DEPOSIT);
    let chained = style == Style::Chained && !deposit_down;
    let degraded = style == Style::Chained && deposit_down;
    if degraded {
        // The outage is itself a fired fault decision.
        obs.count(stats::fault_metric::INJECTED, 1);
        obs.count(stats::fault_metric::DEGRADED, 1);
    }

    let cpu = machine.node.cpu;
    let send_word_cycles = cpu.load_issue_cycles
        + cpu.loop_cycles
        + cpu.port_store_cycles
        + if x == AccessPattern::Indexed {
            cpu.indexed_extra_cycles
        } else {
            0
        }
        + if chained { cpu.store_issue_cycles } else { 0 };
    let recv_word_cycles = if chained {
        machine.node.deposit.word_cycles
    } else {
        // The buffer-packed receive path: the CPU pops the port and stores
        // each word at its destination.
        cpu.port_load_cycles
            + cpu.store_issue_cycles
            + cpu.loop_cycles
            + if y == AccessPattern::Indexed {
                cpu.indexed_extra_cycles
            } else {
                0
            }
    };

    let frames = cfg.words.div_ceil(cfg.frame_words);
    // Faulty wires and NIC FIFOs. The forward channel is A.tx → B.rx, the
    // ack channel B.tx → A.rx.
    a.tx.set_faults(plan, site::TX_FIFO);
    b.rx.set_faults(plan, site::RX_FIFO);
    let link = |site, track| {
        Link::with_faults(machine.link(machine.default_congestion), plan, site).labeled(track)
    };
    let sender = Sender {
        src: layout_a.src.slice(0, cfg.words),
        remote: chained.then(|| layout_b.dst.slice(0, cfg.words)),
        frame_words: cfg.frame_words,
        frames,
        seq: 0,
        attempt: 0,
        state: SendState::Sending { pos: 0 },
        frames_sent: 0,
        retransmissions: 0,
        staged: Vec::new(),
        word_cycles: send_word_cycles,
        ctl_cycles: cpu.port_store_cycles,
        poll_cycles: cpu.port_load_cycles.max(8),
        t: 0,
        obs: obs.clone(),
        frame_start: 0,
    };
    let receiver = Receiver {
        dst: layout_b.dst.slice(0, cfg.words),
        frame_words: cfg.frame_words,
        expected_seq: 0,
        frames,
        state: RecvState::AwaitHdr,
        addressed: chained,
        word_cycles: recv_word_cycles,
        ctl_cycles: if chained {
            machine.node.deposit.word_cycles
        } else {
            cpu.port_load_cycles
        },
        t: 0,
    };

    let budget_steps = (u64::from(cfg.max_retries) + 2) * (64 * cfg.words + 10 * frames) + 100_000;
    let watchdog = Watchdog::new(budget_steps).with_cycle_budget(cfg.max_cycles);
    let mut run = Transfer {
        a,
        b,
        sender,
        receiver,
        links: [
            link(site::LINK_FORWARD, "link.fwd"),
            link(site::LINK_REVERSE, "link.rev"),
        ],
        cfg,
    };
    let end_cycle = drive(&mut run, watchdog)?;
    let (b, sender, receiver) = (&run.b, &run.sender, &run.receiver);
    if obs.tracing() {
        obs.span("scenario", &label, 0, end_cycle);
        obs.span("engine.a", "sender", 0, sender.t);
        obs.span("engine.b", "receiver", 0, receiver.t);
    }
    let verified =
        (0..cfg.words).all(|i| b.mem.read(receiver.dst.addr(i)) == ExchangeLayout::value(0, i));
    Ok(TransferReport {
        words: cfg.words,
        end_cycle,
        verified,
        frames_sent: sender.frames_sent,
        retransmissions: sender.retransmissions,
        degraded,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const C1: AccessPattern = AccessPattern::Contiguous;
    const S64: AccessPattern = AccessPattern::Strided(64);

    fn cfg() -> ProtocolConfig {
        ProtocolConfig {
            words: 1024,
            ..ProtocolConfig::default()
        }
    }

    fn faulty(rate: f64, seed: u64) -> FaultPlan {
        FaultPlan::new(FaultConfig {
            seed,
            rate,
            ..FaultConfig::default()
        })
    }

    #[test]
    fn clean_transfer_needs_no_retransmissions() {
        let m = Machine::t3d();
        for style in [Style::Chained, Style::BufferPacking] {
            let r =
                run_resilient_transfer(&m, C1, S64, style, FaultPlan::disabled(), &cfg()).unwrap();
            assert!(r.verified, "{style:?}");
            assert_eq!(r.retransmissions, 0);
            assert_eq!(r.frames_sent, 1024 / 64);
            assert!(!r.degraded);
        }
    }

    #[test]
    fn faulty_links_recover_and_verify() {
        let m = Machine::t3d();
        let r =
            run_resilient_transfer(&m, C1, C1, Style::Chained, faulty(0.02, 7), &cfg()).unwrap();
        assert!(r.verified, "retries must repair every dropped word");
        assert!(r.retransmissions > 0, "2% faults over 17 frames must hit");
    }

    #[test]
    fn replay_is_deterministic() {
        let m = Machine::paragon();
        // Results compare as full values: a failing run must fail
        // identically too.
        for (rate, seed) in [(0.01, 11), (0.3, 13)] {
            let run = || {
                run_resilient_transfer(
                    &m,
                    C1,
                    S64,
                    Style::BufferPacking,
                    faulty(rate, seed),
                    &cfg(),
                )
            };
            assert_eq!(run(), run());
        }
    }

    #[test]
    fn retries_are_bounded() {
        let m = Machine::t3d();
        // Rate 1.0: every word faulted; a third of them dropped — no frame
        // survives, so the sender must give up after max_retries.
        let tight = ProtocolConfig {
            max_retries: 2,
            timeout_cycles: 512,
            ..cfg()
        };
        match run_resilient_transfer(&m, C1, C1, Style::Chained, faulty(1.0, 3), &tight) {
            Err(SimError::Protocol { detail, .. }) => {
                assert!(detail.contains("unacknowledged"), "{detail}")
            }
            other => panic!("expected bounded retries to fail, got {other:?}"),
        }
    }

    /// Seed 62 drops the final frame's ack. The sender retransmits that
    /// frame, so the receiver must still be serving to re-ack it; a
    /// receiver that stopped at its last frame left the retransmission
    /// stuck in its FIFO until the watchdog fired.
    #[test]
    fn a_lost_final_ack_is_re_acked() {
        let m = Machine::t3d();
        let cfg = ProtocolConfig {
            words: 256,
            ..ProtocolConfig::default()
        };
        let r = run_resilient_transfer(&m, C1, C1, Style::Chained, faulty(0.005, 62), &cfg)
            .expect("the retransmitted final frame is re-acked");
        assert!(r.verified);
        assert!(
            r.retransmissions > 0,
            "the lost ack forces a retransmission"
        );
    }

    /// A timeout so large it can never fire turns retry exhaustion into a
    /// livelock: the sender spin-polls for an ack that total word loss
    /// guarantees will never come. The watchdog's step budget must convert
    /// that into [`SimError::Wedged`] instead of spinning forever.
    #[test]
    fn a_timeout_that_never_fires_wedges_instead_of_spinning() {
        let m = Machine::t3d();
        let never = ProtocolConfig {
            words: 64,
            timeout_cycles: 1 << 40,
            max_timeout_cycles: 1 << 41,
            ..ProtocolConfig::default()
        };
        match run_resilient_transfer(&m, C1, C1, Style::Chained, faulty(1.0, 5), &never) {
            Err(SimError::Wedged { engine, steps, .. }) => {
                assert_eq!(engine, "resilient transfer");
                assert!(steps > 0);
            }
            other => panic!("expected the watchdog to fire, got {other:?}"),
        }
    }

    /// Attempt counts far past the cap must saturate at
    /// `max_timeout_cycles` — the backoff schedule multiplies instead of
    /// shifting precisely so attempt 63+ cannot overflow.
    #[test]
    fn backoff_saturates_without_overflow_at_huge_attempts() {
        let c = cfg();
        for attempt in [63, 64, 100, u32::MAX] {
            assert_eq!(backoff_timeout(&c, attempt), c.max_timeout_cycles);
        }
        let extreme = ProtocolConfig {
            timeout_cycles: 3,
            backoff_factor: u32::MAX,
            max_timeout_cycles: 1 << 62,
            ..cfg()
        };
        assert_eq!(backoff_timeout(&extreme, 63), 1 << 62);
        assert_eq!(backoff_timeout(&extreme, u32::MAX), 1 << 62);
    }

    /// An ack for a sequence number the sender is not waiting on must be
    /// dropped on the floor: no state change, no counter skew — only the
    /// matching ack advances the frame.
    #[test]
    fn unknown_sequence_acks_are_ignored_without_counter_skew() {
        let m = Machine::t3d();
        let mut node = Node::new(m.node);
        let layout = ExchangeLayout::new(&mut node, C1, C1, 128, 0x5EED, 0).unwrap();
        let mut s = Sender {
            src: layout.src.slice(0, 128),
            remote: None,
            frame_words: 64,
            frames: 2,
            seq: 0,
            attempt: 0,
            state: SendState::AwaitAck { deadline: 1 << 30 },
            frames_sent: 1,
            retransmissions: 0,
            staged: Vec::new(),
            word_cycles: 4,
            ctl_cycles: 2,
            poll_cycles: 8,
            t: 1000,
            obs: memcomm_obs::Obs::current(),
            frame_start: 0,
        };
        let c = ProtocolConfig::default();
        node.rx.push(0, ack_word(7)).expect("ack fits");
        s.step(&mut node, &c).unwrap();
        assert_eq!(s.seq, 0, "a stray ack must not advance the frame");
        assert!(matches!(s.state, SendState::AwaitAck { .. }));
        assert_eq!((s.frames_sent, s.retransmissions, s.attempt), (1, 0, 0));
        node.rx.push(0, ack_word(0)).expect("ack fits");
        s.step(&mut node, &c).unwrap();
        assert_eq!(s.seq, 1, "the matching ack advances exactly one frame");
        assert!(matches!(s.state, SendState::Sending { pos: 0 }));
        assert_eq!(s.frames_sent, 1, "advancing a frame sends nothing");
    }

    /// A checksummed frame whose sequence number is not the expected one:
    /// a duplicate (below) is re-acked and discarded, a future frame
    /// (stop-and-wait state corruption) is dropped unacked — and neither
    /// moves `expected_seq`.
    #[test]
    fn out_of_sequence_frames_never_skew_the_receiver() {
        let m = Machine::t3d();
        let mut node = Node::new(m.node);
        let layout = ExchangeLayout::new(&mut node, C1, C1, 128, 0x5EED, 1).unwrap();
        let mut r = Receiver {
            dst: layout.dst.slice(0, 128),
            frame_words: 64,
            expected_seq: 1,
            frames: 2,
            state: RecvState::AwaitHdr,
            addressed: false,
            word_cycles: 1,
            ctl_cycles: 1,
            t: 0,
        };
        let payload = vec![NetWord::data(0xAB); 4];
        // Duplicate (seq 0 < expected 1): its ack was lost; re-ack, discard.
        r.state = RecvState::Payload {
            seq: 0,
            len: 4,
            got: payload.clone(),
        };
        let ack = r.on_control(&mut node, checksum(0, &payload));
        assert_eq!(ack, Some(ack_word(0)), "duplicates are re-acked");
        assert_eq!(r.expected_seq, 1, "a duplicate must not advance the window");
        // Future frame (seq 5 > expected 1): drop silently, no ack.
        r.state = RecvState::Payload {
            seq: 5,
            len: 4,
            got: payload.clone(),
        };
        let ack = r.on_control(&mut node, checksum(5, &payload));
        assert_eq!(ack, None, "future frames are dropped unacked");
        assert_eq!(r.expected_seq, 1, "a future frame must not skew the window");
        // A future header cannot even stage a frame.
        assert!(r.on_control(&mut node, hdr_word(5, 4).data).is_none());
        assert!(matches!(r.state, RecvState::AwaitHdr));
    }

    #[test]
    fn backoff_is_monotone_and_capped() {
        let c = cfg();
        let mut prev = 0;
        for attempt in 0..12 {
            let t = backoff_timeout(&c, attempt);
            assert!(t >= prev, "attempt {attempt}: {t} < {prev}");
            assert!(t <= c.max_timeout_cycles);
            prev = t;
        }
        assert_eq!(backoff_timeout(&c, 11), c.max_timeout_cycles);
    }

    #[test]
    fn deposit_outage_degrades_chained_exactly() {
        let m = Machine::t3d();
        let outage = FaultPlan::new(FaultConfig {
            seed: 9,
            outage_rate: 1.0,
            ..FaultConfig::default()
        });
        let down = run_resilient_transfer(&m, C1, S64, Style::Chained, outage, &cfg()).unwrap();
        assert!(down.degraded, "chained must fall back when the engine dies");
        assert!(down.verified, "the fallback still delivers the data");
        let up = run_resilient_transfer(&m, C1, S64, Style::Chained, FaultPlan::disabled(), &cfg())
            .unwrap();
        assert!(!up.degraded, "no outage, no fallback");
        // Buffer packing never degrades: it does not need the engine.
        let bp = run_resilient_transfer(&m, C1, S64, Style::BufferPacking, outage, &cfg()).unwrap();
        assert!(!bp.degraded);
    }

    #[test]
    fn blended_rate_interpolates_harmonically() {
        let ch = Throughput::from_mbps(100.0);
        let bp = Throughput::from_mbps(25.0);
        assert_eq!(blend_rates(ch, bp, 0.0), ch);
        assert_eq!(blend_rates(ch, bp, 1.0), bp);
        let half = blend_rates(ch, bp, 0.5).as_mbps();
        assert!((half - 40.0).abs() < 1e-9, "harmonic mean, got {half}");
    }

    #[test]
    fn degraded_run_lands_near_the_blended_prediction() {
        let m = Machine::t3d();
        let cfg = ProtocolConfig {
            words: 2048,
            ..ProtocolConfig::default()
        };
        let outage = FaultPlan::new(FaultConfig {
            seed: 9,
            outage_rate: 1.0,
            ..FaultConfig::default()
        });
        let chained =
            run_resilient_transfer(&m, C1, S64, Style::Chained, FaultPlan::disabled(), &cfg)
                .unwrap()
                .throughput(m.clock());
        let packed = run_resilient_transfer(
            &m,
            C1,
            S64,
            Style::BufferPacking,
            FaultPlan::disabled(),
            &cfg,
        )
        .unwrap()
        .throughput(m.clock());
        let degraded = run_resilient_transfer(&m, C1, S64, Style::Chained, outage, &cfg)
            .unwrap()
            .throughput(m.clock());
        // A fully degraded chained run is the packed receive path: the
        // blended model with fraction 1 must predict it closely.
        let predicted = blend_rates(chained, packed, 1.0).as_mbps();
        let ratio = degraded.as_mbps() / predicted;
        assert!(
            (0.8..1.25).contains(&ratio),
            "degraded {:.1} vs predicted {predicted:.1}",
            degraded.as_mbps()
        );
    }
}
