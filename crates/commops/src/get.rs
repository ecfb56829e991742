//! Get-based (withdraw) transfers — the path the paper declines to take.
//!
//! Footnote 2 of the paper: "when depositing data, address information and
//! data travel together over the network. When withdrawing data, the
//! latency is higher since address information has to travel first to the
//! node that holds the data." This module implements that alternative so
//! the claim can be measured: the requesting processor sends one request
//! word per element; the remote annex reads memory and sends the value
//! back; the local annex deposits it. Every element crosses the wire twice
//! (request + reply) instead of once.

use memcomm_machines::memo::{self, Point};
use memcomm_machines::Machine;
use memcomm_memsim::clock::Cycle;
use memcomm_memsim::engines::{AnnexEngine, Cpu, CpuReceiver, DepositEngine, DepositMode, Step};
use memcomm_memsim::nic::{NetWord, TimedFifo};
use memcomm_memsim::node::Watchdog;
use memcomm_memsim::path::MemPath;
use memcomm_memsim::walk::Walk;
use memcomm_memsim::{stats, Node, SimResult};
use memcomm_model::AccessPattern;
use memcomm_netsim::Link;

use crate::drive::{drive, Agents, LinkWaits};
use crate::exchange::{ExchangeConfig, ExchangeResult, PhaseTimeline};
use crate::layout::ExchangeLayout;

/// A processor issuing remote-load requests: for each element it computes
/// the remote source address (pattern `x`) and the local destination
/// address (pattern `y`) and posts a request word to the NIC.
#[derive(Debug)]
pub struct CpuRequester {
    remote_src: Walk,
    local_dst: Walk,
    issued: u64,
    staged: Option<NetWord>,
}

impl CpuRequester {
    /// Creates a requester pulling `remote_src` (on the peer) into
    /// `local_dst` (here).
    ///
    /// # Panics
    ///
    /// Panics if the walks differ in length.
    pub fn new(remote_src: Walk, local_dst: Walk) -> Self {
        assert_eq!(remote_src.len(), local_dst.len(), "get walks must match");
        CpuRequester {
            remote_src,
            local_dst,
            issued: 0,
            staged: None,
        }
    }

    /// Advances by one request.
    pub fn step(&mut self, cpu: &mut Cpu, path: &mut MemPath, tx: &mut TimedFifo) -> Step {
        if let Some(word) = self.staged {
            return match tx.push(cpu.t, word) {
                Some(at) => {
                    cpu.t = cpu.t.max(at);
                    self.staged = None;
                    Step::Progressed
                }
                None => Step::Blocked,
            };
        }
        if self.issued == self.remote_src.len() {
            return Step::Done;
        }
        cpu.fetch_index(path, &self.remote_src, self.issued);
        cpu.fetch_index(path, &self.local_dst, self.issued);
        cpu.port_store();
        self.staged = Some(NetWord::request(
            self.remote_src.addr(self.issued),
            self.local_dst.addr(self.issued),
        ));
        self.issued += 1;
        Step::Progressed
    }
}

enum ReplySink {
    Deposit(DepositEngine),
    CoProcessor { cpu: Cpu, receiver: CpuReceiver },
}

impl ReplySink {
    fn time(&self) -> u64 {
        match self {
            ReplySink::Deposit(d) => d.t,
            ReplySink::CoProcessor { cpu, .. } => cpu.t,
        }
    }

    fn step(
        &mut self,
        path: &mut MemPath,
        mem: &mut memcomm_memsim::mem::Memory,
        reply_rx: &mut TimedFifo,
    ) -> SimResult<Step> {
        match self {
            ReplySink::Deposit(d) => d.step(path, mem, reply_rx),
            ReplySink::CoProcessor { cpu, receiver } => receiver.step(cpu, path, mem, reply_rx),
        }
    }
}

struct GetSide {
    node: Node,
    cpu: Cpu,
    requester: CpuRequester,
    /// Serves incoming requests; pushes replies onto the reply channel.
    responder: AnnexEngine,
    /// Deposits incoming replies (consumes the reply channel): the annex on
    /// machines whose deposit engine handles any pattern, the co-processor
    /// elsewhere (the Paragon's DMA cannot scatter).
    deposit: ReplySink,
    /// Outgoing reply virtual channel (requests use `node.tx`). Real
    /// machines separate request and reply traffic into virtual channels
    /// precisely to avoid request-reply deadlock; so do we.
    reply_tx: TimedFifo,
    /// Incoming reply virtual channel.
    reply_rx: TimedFifo,
    layout: ExchangeLayout,
}

fn build_get_side(
    machine: &Machine,
    x: AccessPattern,
    y: AccessPattern,
    cfg: &ExchangeConfig,
    node_id: u64,
    pull_words: u64,
    serve_words: u64,
) -> SimResult<GetSide> {
    let mut node = Node::new(machine.node);
    let layout = ExchangeLayout::new(&mut node, x, y, cfg.words, cfg.seed, node_id)?;
    let cpu = node.cpu();
    // Pull the peer's `src` (same addresses as ours — identical layouts)
    // into our `dst`.
    let requester = CpuRequester::new(
        layout.src.slice(0, pull_words),
        layout.dst.slice(0, pull_words),
    );
    let responder = AnnexEngine::new(machine.node.deposit, serve_words);
    let deposit = if machine.deposit_noncontiguous() {
        ReplySink::Deposit(DepositEngine::new(
            machine.node.deposit,
            DepositMode::Addressed,
            pull_words,
        ))
    } else {
        ReplySink::CoProcessor {
            cpu: node.coprocessor(),
            receiver: CpuReceiver::new(layout.dst.slice(0, pull_words)),
        }
    };
    Ok(GetSide {
        node,
        cpu,
        requester,
        responder,
        deposit,
        reply_tx: TimedFifo::new(machine.node.tx_fifo_words),
        reply_rx: TimedFifo::new(machine.node.rx_fifo_words),
        layout,
    })
}

/// The get exchange's agents: each side's requester, responder and reply
/// sink (A's first), then the request links A→B and B→A and the reply
/// links A→B and B→A.
struct GetExchange {
    a: GetSide,
    b: GetSide,
    links: [Link; 4],
}

impl Agents for GetExchange {
    const DRIVER: &'static str = "get driver";
    const ENGINES: &'static [&'static str] = &[
        "a.requester",
        "a.responder",
        "a.deposit",
        "b.requester",
        "b.responder",
        "b.deposit",
    ];
    // A requester pushes onto its request link; a responder pops the
    // peer's request link and pushes onto its reply link; a reply sink
    // pops the peer's reply link.
    #[rustfmt::skip]
    const LINKS: &'static [LinkWaits] = &[
        LinkWaits { fills: &[0], drains: &[4] }, // requests A→B
        LinkWaits { fills: &[3], drains: &[1] }, // requests B→A
        LinkWaits { fills: &[1], drains: &[5] }, // replies A→B
        LinkWaits { fills: &[4], drains: &[2] }, // replies B→A
    ];
    #[rustfmt::skip]
    const WAITS_ON: &'static [&'static [usize]] = &[
        &[6], &[7, 8], &[9], // a: requester, responder, deposit
        &[7], &[6, 9], &[8], // b
    ];

    fn time_of(&self, id: usize) -> Cycle {
        match id {
            0 => self.a.cpu.t,
            1 => self.a.responder.t,
            2 => self.a.deposit.time(),
            3 => self.b.cpu.t,
            4 => self.b.responder.t,
            5 => self.b.deposit.time(),
            _ => self.links[id - 6].time(),
        }
    }

    fn holds_word(&self, link: usize) -> bool {
        self.links[link].holds_word()
    }

    fn step(&mut self, id: usize) -> SimResult<Step> {
        let s = if id < 3 { &mut self.a } else { &mut self.b };
        match id {
            0 | 3 => Ok(s
                .requester
                .step(&mut s.cpu, &mut s.node.path, &mut s.node.tx)),
            1 | 4 => {
                let Node { path, mem, rx, .. } = &mut s.node;
                s.responder.step(path, mem, rx, &mut s.reply_tx)
            }
            2 | 5 => {
                let Node { path, mem, .. } = &mut s.node;
                s.deposit.step(path, mem, &mut s.reply_rx)
            }
            6 => Ok(self.links[0].step(&mut self.a.node.tx, &mut self.b.node.rx)),
            7 => Ok(self.links[1].step(&mut self.b.node.tx, &mut self.a.node.rx)),
            8 => Ok(self.links[2].step(&mut self.a.reply_tx, &mut self.b.reply_rx)),
            _ => Ok(self.links[3].step(&mut self.b.reply_tx, &mut self.a.reply_rx)),
        }
    }
}

/// Runs a symmetric get-based exchange: each node *pulls* `cfg.words` of
/// pattern `x` from its peer into pattern `y` locally. The counterpart of
/// [`run_exchange`](crate::run_exchange) with
/// [`Style::Chained`](crate::Style::Chained), built on remote loads instead
/// of remote stores. Memoized like [`run_exchange`](crate::run_exchange).
///
/// # Errors
///
/// Returns [`SimError::Deadlock`] if the co-simulation wedges,
/// [`SimError::CycleBudget`] past `cfg.max_cycles`, and propagates
/// allocation and engine protocol errors.
///
/// [`SimError::Deadlock`]: memcomm_memsim::SimError::Deadlock
/// [`SimError::CycleBudget`]: memcomm_memsim::SimError::CycleBudget
pub fn run_get_exchange(
    machine: &Machine,
    x: AccessPattern,
    y: AccessPattern,
    cfg: &ExchangeConfig,
) -> SimResult<ExchangeResult> {
    memo::cached(machine, get_point(x, y, cfg), || {
        simulate_get_exchange(machine, x, y, cfg)
    })
}

/// The memo point [`run_get_exchange`] looks up.
pub fn get_point(x: AccessPattern, y: AccessPattern, cfg: &ExchangeConfig) -> Point {
    Point::Get { x, y, cfg: *cfg }
}

fn simulate_get_exchange(
    machine: &Machine,
    x: AccessPattern,
    y: AccessPattern,
    cfg: &ExchangeConfig,
) -> SimResult<ExchangeResult> {
    // Requests and replies multiplex one physical wire per direction; with
    // both nodes pulling, each direction carries two streams.
    let base = cfg.congestion.unwrap_or(machine.default_congestion);
    let congestion = if cfg.full_duplex { base * 2.0 } else { base };
    let b_pulls = if cfg.full_duplex { cfg.words } else { 0 };
    let mut run = GetExchange {
        a: build_get_side(machine, x, y, cfg, 0, cfg.words, b_pulls)?,
        b: build_get_side(machine, x, y, cfg, 1, b_pulls, cfg.words)?,
        links: std::array::from_fn(|_| Link::new(machine.link(congestion))),
    };
    let watchdog =
        Watchdog::new(256 * cfg.words.max(1) + 100_000).with_cycle_budget(cfg.max_cycles);
    let end_cycle = drive(&mut run, watchdog)?;
    let GetExchange { a, b, .. } = &run;
    // A pulled B's data: element i of B's src landed at element i of A's dst.
    let verified = a.layout.verify_received(&a.node, 1)
        && (!cfg.full_duplex || b.layout.verify_received(&b.node, 0));
    stats::count_simulation(cfg.words, end_cycle);
    Ok(ExchangeResult {
        words: cfg.words,
        end_cycle,
        verified,
        phases: PhaseTimeline::default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_exchange, Style};

    fn cfg() -> ExchangeConfig {
        ExchangeConfig {
            words: 1024,
            ..ExchangeConfig::default()
        }
    }

    #[test]
    fn get_exchange_delivers_correct_data() {
        let m = Machine::t3d();
        for (x, y) in [
            (AccessPattern::Contiguous, AccessPattern::Contiguous),
            (AccessPattern::Strided(16), AccessPattern::Indexed),
        ] {
            let r = run_get_exchange(&m, x, y, &cfg()).unwrap();
            assert!(r.verified, "{x}Q{y} get corrupted data");
        }
    }

    #[test]
    fn put_beats_get_as_the_paper_argues() {
        // Footnote 2: deposits are preferred. A get crosses the wire twice
        // per element and serializes request processing behind replies.
        let m = Machine::t3d();
        for (x, y) in [
            (AccessPattern::Contiguous, AccessPattern::Contiguous),
            (AccessPattern::Contiguous, AccessPattern::Strided(64)),
        ] {
            let put = run_exchange(&m, x, y, Style::Chained, &cfg()).unwrap();
            let get = run_get_exchange(&m, x, y, &cfg()).unwrap();
            assert!(put.verified && get.verified);
            let put_rate = put.per_node(m.clock()).as_mbps();
            let get_rate = get.per_node(m.clock()).as_mbps();
            assert!(
                put_rate > 1.3 * get_rate,
                "{x}Q{y}: put {put_rate:.1} must clearly beat get {get_rate:.1}"
            );
        }
    }

    #[test]
    fn paragon_get_uses_the_coprocessor_and_verifies() {
        let m = Machine::paragon();
        let r = run_get_exchange(
            &m,
            AccessPattern::Contiguous,
            AccessPattern::Strided(64),
            &cfg(),
        )
        .unwrap();
        assert!(r.verified);
    }

    #[test]
    fn half_duplex_get_also_verifies() {
        let m = Machine::t3d();
        let half = ExchangeConfig {
            full_duplex: false,
            ..cfg()
        };
        let r =
            run_get_exchange(&m, AccessPattern::Indexed, AccessPattern::Contiguous, &half).unwrap();
        assert!(r.verified);
    }
}
