//! Symmetric-exchange co-simulation: two nodes, two links, every engine of
//! the chosen implementation style running against one shared memory path
//! per node.

use memcomm_machines::memo::{self, Point};
use memcomm_machines::Machine;
use memcomm_memsim::clock::Cycle;
use memcomm_memsim::engines::{Cpu, CpuReceiver, CpuSender, DepositEngine, DepositMode, Step};
use memcomm_memsim::node::Watchdog;
use memcomm_memsim::{stats, Node, SimError, SimResult};
use memcomm_model::AccessPattern;
use memcomm_netsim::Link;

pub use memcomm_memsim::stats::{ExchangeConfig, ExchangeResult, PhaseTimeline};
pub use memcomm_model::Style;

use crate::drive::{drive, Agents, LinkWaits};
use crate::layout::{ExchangeLayout, WalkSpec};
use crate::roles::{CpuDuties, DmaChunkQueue, PipelinedCpu};

#[allow(clippy::large_enum_variant)] // one per node; size is irrelevant here
enum MainRole {
    Pipe(PipelinedCpu),
    Chain(CpuSender),
}

#[allow(clippy::large_enum_variant)] // two sides of one per-node slot; never collections
enum CopDuty {
    Scatter(PipelinedCpu),
    Receive(CpuReceiver),
}

struct Coproc {
    cpu: Cpu,
    duty: CopDuty,
}

struct Side {
    node: Node,
    cpu: Cpu,
    main: MainRole,
    dma: Option<DmaChunkQueue>,
    deposit: Option<DepositEngine>,
    cop: Option<Coproc>,
    chunk_words: u64,
    chunk_ready: Vec<Cycle>,
    expected_words: u64,
    /// The received-word count that completes the next chunk, past
    /// `expected_words` once every chunk is announced.
    next_chunk_end: u64,
    layout: ExchangeLayout,
}

impl Side {
    fn step_main(&mut self) -> SimResult<Step> {
        Ok(match &mut self.main {
            MainRole::Pipe(p) => p.step(
                &mut self.cpu,
                &mut self.node.path,
                &mut self.node.mem,
                &mut self.node.tx,
                &self.chunk_ready,
            )?,
            MainRole::Chain(s) => s.step(
                &mut self.cpu,
                &mut self.node.path,
                &self.node.mem,
                &mut self.node.tx,
            )?,
        })
    }

    fn step_dma(&mut self) -> Step {
        let MainRole::Pipe(pipe) = &self.main else {
            unreachable!("a DMA send queue always pairs with a gathering pipe");
        };
        let gathered = pipe.gathered();
        match &mut self.dma {
            Some(q) => q.step(
                &mut self.node.path,
                &self.node.mem,
                &mut self.node.tx,
                gathered,
                &pipe.gather_done,
            ),
            None => Step::Done,
        }
    }

    fn step_deposit(&mut self) -> SimResult<Step> {
        let s = match &mut self.deposit {
            Some(d) => d.step(&mut self.node.path, &mut self.node.mem, &mut self.node.rx)?,
            None => Step::Done,
        };
        if let Some(d) = &self.deposit {
            // Chunks end every `chunk_words` words, and the last, perhaps
            // short, one at `expected_words`.
            while d.received() >= self.next_chunk_end {
                self.chunk_ready.push(d.t);
                self.next_chunk_end = match self.next_chunk_end {
                    end if end == self.expected_words => u64::MAX,
                    end => (end + self.chunk_words).min(self.expected_words),
                };
            }
        }
        Ok(s)
    }

    fn step_cop(&mut self) -> SimResult<Step> {
        let chunk_ready = &self.chunk_ready;
        Ok(match &mut self.cop {
            Some(c) => match &mut c.duty {
                CopDuty::Scatter(p) => p.step(
                    &mut c.cpu,
                    &mut self.node.path,
                    &mut self.node.mem,
                    &mut self.node.tx,
                    chunk_ready,
                )?,
                CopDuty::Receive(r) => r.step(
                    &mut c.cpu,
                    &mut self.node.path,
                    &mut self.node.mem,
                    &mut self.node.rx,
                )?,
            },
            None => Step::Done,
        })
    }

    /// Engine `agent`'s clock: 0 main, 1 DMA, 2 deposit, 3 co-processor;
    /// `None` if this side has no such engine.
    fn time_of(&self, agent: usize) -> Option<Cycle> {
        match agent {
            0 => Some(self.cpu.t),
            1 => self.dma.as_ref().map(|q| q.t),
            2 => self.deposit.as_ref().map(|d| d.t),
            _ => self.cop.as_ref().map(|c| c.cpu.t),
        }
    }

    fn step_agent(&mut self, agent: usize) -> SimResult<Step> {
        match agent {
            0 => self.step_main(),
            1 => Ok(self.step_dma()),
            2 => self.step_deposit(),
            3 => self.step_cop(),
            _ => unreachable!("agents are 0..4"),
        }
    }
}

#[allow(clippy::too_many_arguments)] // internal constructor mirroring the agent set
fn build_side(
    machine: &Machine,
    x_spec: &WalkSpec,
    y_spec: &WalkSpec,
    style: Style,
    cfg: &ExchangeConfig,
    node_id: u64,
    send_words: u64,
    recv_words: u64,
) -> SimResult<Side> {
    let (x, y) = (x_spec.pattern(), y_spec.pattern());
    let mut node = Node::new(machine.node);
    let chunk_words = cfg.chunk_words.unwrap_or(cfg.words.max(1));
    let layout =
        ExchangeLayout::with_specs(&mut node, x_spec, y_spec, cfg.words, cfg.seed, node_id)?;
    let contiguous = x == AccessPattern::Contiguous && y == AccessPattern::Contiguous;
    let cpu = node.cpu();

    let (main, dma, deposit, cop) = match style {
        Style::BufferPacking => {
            let use_dma = machine.caps.fetch_send;
            let elide_gather = cfg.elide_contiguous_copies && x == AccessPattern::Contiguous;
            let elide_scatter = cfg.elide_contiguous_copies && y == AccessPattern::Contiguous;
            let duties = CpuDuties {
                gather: !elide_gather,
                send: !use_dma,
                scatter: !use_dma && !elide_scatter,
            };
            // With an elided gather the senders stream straight from the
            // source operand; with an elided scatter the deposit engine
            // stores straight into the destination.
            let mut role_layout = layout.slice_for(send_words, recv_words);
            if elide_gather {
                role_layout.send_buf = role_layout.src.clone();
            }
            let recv_target = if elide_scatter {
                layout.dst.clone()
            } else {
                layout.recv_buf.clone()
            };
            let pipe = PipelinedCpu::new(duties, role_layout.clone(), chunk_words);
            let dma = use_dma.then(|| {
                DmaChunkQueue::new(machine.node.dma, role_layout.send_buf.clone(), chunk_words)
            });
            let deposit = DepositEngine::new(
                machine.node.deposit,
                DepositMode::Stream(recv_target),
                recv_words,
            );
            // On a dual-processor node the co-processor unpacks while the
            // main processor packs (the "‖ 1Cy" variant of Section 5.1.3).
            let cop = (use_dma && !elide_scatter).then(|| Coproc {
                cpu: node.coprocessor(),
                duty: CopDuty::Scatter(PipelinedCpu::new(
                    CpuDuties {
                        gather: false,
                        send: false,
                        scatter: true,
                    },
                    layout.slice_for(0, recv_words),
                    chunk_words,
                )),
            });
            (MainRole::Pipe(pipe), dma, Some(deposit), cop)
        }
        Style::Chained => {
            let src = layout.src.slice(0, send_words);
            let remote = (!contiguous).then(|| layout.dst.slice(0, send_words));
            let sender = CpuSender::new(src, remote);
            let dst = layout.dst.slice(0, recv_words);
            if machine.deposit_noncontiguous() {
                // T3D: the annex deposits any pattern.
                let mode = if contiguous {
                    DepositMode::Stream(dst)
                } else {
                    DepositMode::Addressed
                };
                let deposit = DepositEngine::new(machine.node.deposit, mode, recv_words);
                (MainRole::Chain(sender), None, Some(deposit), None)
            } else {
                // Paragon: the co-processor acts as the deposit engine
                // (receive-store `0Ry`).
                let cop = Coproc {
                    cpu: node.coprocessor(),
                    duty: CopDuty::Receive(CpuReceiver::new(dst)),
                };
                (MainRole::Chain(sender), None, None, Some(cop))
            }
        }
    };

    Ok(Side {
        node,
        cpu,
        main,
        dma,
        deposit,
        cop,
        // Only a chained run, which reads no announcements, gets this far
        // with zero-word chunks.
        chunk_words: chunk_words.max(1),
        chunk_ready: Vec::new(),
        expected_words: recv_words,
        next_chunk_end: match recv_words {
            0 => u64::MAX,
            _ => chunk_words.clamp(1, recv_words),
        },
        layout,
    })
}

/// The exchange's agents: side A's main processor, DMA queue, deposit
/// engine and co-processor, then side B's, then the links A→B and B→A.
struct Exchange {
    sides: [Side; 2],
    links: [Link; 2],
}

impl Agents for Exchange {
    const DRIVER: &'static str = "exchange driver";
    const ENGINES: &'static [&'static str] = &[
        "a.main",
        "a.dma",
        "a.deposit",
        "a.cop",
        "b.main",
        "b.dma",
        "b.deposit",
        "b.cop",
    ];
    // Each side's main processor and DMA queue fill its link; the peer's
    // deposit engine and co-processor drain it.
    #[rustfmt::skip]
    const LINKS: &'static [LinkWaits] = &[
        LinkWaits { fills: &[0, 1], drains: &[6, 7] }, // link.ab
        LinkWaits { fills: &[4, 5], drains: &[2, 3] }, // link.ba
    ];
    // Each side's main processor sends through its link and scatters what
    // its deposit engine announces; the DMA queue sends through the link
    // what the main processor gathered; the deposit engine and the
    // co-processor drain the other link, and the co-processor scatters
    // what the deposit engine announces.
    #[rustfmt::skip]
    const WAITS_ON: &'static [&'static [usize]] = &[
        &[8, 2], &[8, 0], &[9], &[9, 2], // a: main, DMA, deposit, co-processor
        &[9, 6], &[9, 4], &[8], &[8, 6], // b
    ];

    fn present(&self, id: usize) -> bool {
        self.sides[id / 4].time_of(id % 4).is_some()
    }

    fn time_of(&self, id: usize) -> Cycle {
        match id {
            0..=7 => self.sides[id / 4].time_of(id % 4).unwrap_or(0),
            _ => self.links[id - 8].time(),
        }
    }

    fn holds_word(&self, link: usize) -> bool {
        self.links[link].holds_word()
    }

    fn step(&mut self, id: usize) -> SimResult<Step> {
        let [a, b] = &mut self.sides;
        match id {
            0..=3 => a.step_agent(id),
            4..=7 => b.step_agent(id - 4),
            8 => Ok(self.links[0].step(&mut a.node.tx, &mut b.node.rx)),
            _ => Ok(self.links[1].step(&mut b.node.tx, &mut a.node.rx)),
        }
    }
}

/// Runs a symmetric `xQy` exchange between two nodes of `machine` in the
/// given style and returns the per-node measurement, with end-to-end data
/// verification.
///
/// The result is memoized through the installed cache handle (see
/// [`memcomm_machines::memo`]): a repeated point is a lookup, and with no
/// handle installed every call simulates.
///
/// # Errors
///
/// Returns [`SimError::Protocol`] for buffer packing with zero-word
/// chunks, [`SimError::Deadlock`] if the co-simulation wedges with work
/// outstanding, [`SimError::CycleBudget`] past `cfg.max_cycles`, and
/// propagates allocation, walk-validation and engine protocol errors.
pub fn run_exchange(
    machine: &Machine,
    x: AccessPattern,
    y: AccessPattern,
    style: Style,
    cfg: &ExchangeConfig,
) -> SimResult<ExchangeResult> {
    memo::cached(machine, exchange_point(x, y, style, cfg), || {
        run_exchange_specs(
            machine,
            &WalkSpec::Pattern(x),
            &WalkSpec::Pattern(y),
            style,
            cfg,
        )
    })
}

/// The memo point [`run_exchange`] looks up.
pub fn exchange_point(
    x: AccessPattern,
    y: AccessPattern,
    style: Style,
    cfg: &ExchangeConfig,
) -> Point {
    Point::Exchange {
        x,
        y,
        style,
        cfg: *cfg,
    }
}

/// Like [`run_exchange`], but with explicit walk specifications — the entry
/// point for datatype-driven transfers whose element offsets are not a
/// plain pattern. Never memoized: the key would have to hold the whole
/// offset list.
///
/// # Errors
///
/// As [`run_exchange`]; additionally [`SimError::InvalidWalk`] if an offset
/// list's length differs from `cfg.words`.
pub fn run_exchange_specs(
    machine: &Machine,
    x: &WalkSpec,
    y: &WalkSpec,
    style: Style,
    cfg: &ExchangeConfig,
) -> SimResult<ExchangeResult> {
    // A chained run reads no chunks; a pipeline cannot cut empty ones.
    if style == Style::BufferPacking && cfg.chunk_words == Some(0) {
        return Err(SimError::Protocol {
            detail: "buffer-packing chunks must hold at least one word".to_string(),
            at: 0,
        });
    }
    let congestion = cfg.congestion.unwrap_or(machine.default_congestion);
    let b_sends = if cfg.full_duplex { cfg.words } else { 0 };
    let obs = memcomm_obs::Obs::current();
    // One trace process per measured point; opened before the links so
    // their wire-busy spans land under it.
    let label = format!(
        "{} {}Q{} {}",
        machine.name,
        x.pattern(),
        y.pattern(),
        match style {
            Style::BufferPacking => "bp",
            Style::Chained => "chained",
        }
    );
    let _point = obs.point_scope(&label);
    let mut run = Exchange {
        sides: [
            build_side(machine, x, y, style, cfg, 0, cfg.words, b_sends)?,
            build_side(machine, x, y, style, cfg, 1, b_sends, cfg.words)?,
        ],
        links: ["link.ab", "link.ba"]
            .map(|track| Link::new(machine.link(congestion)).labeled(track)),
    };
    // Generous step bound: each word crosses several engines; the watchdog
    // exists to convert a wedged co-simulation into an error, not to be the
    // binding constraint of a healthy run.
    let watchdog =
        Watchdog::new(256 * cfg.words.max(1) + 100_000).with_cycle_budget(cfg.max_cycles);
    let end_cycle = drive(&mut run, watchdog)?;
    let [a, b] = &run.sides;
    if [a, b]
        .iter()
        .any(|s| !(s.node.tx.is_empty() && s.node.rx.is_empty()))
    {
        return Err(SimError::Deadlock {
            detail: "words left in flight after all agents finished".to_string(),
            at: end_cycle,
        });
    }
    let verified = b.layout.verify_received(&b.node, 0)
        && (!cfg.full_duplex || a.layout.verify_received(&a.node, 1));
    let phases = phase_timeline(a, b, &run.links[0]);
    if obs.tracing() {
        emit_trace(&obs, &label, a, b, &phases, end_cycle);
    }
    stats::count_simulation(cfg.words, end_cycle);
    Ok(ExchangeResult {
        words: cfg.words,
        end_cycle,
        verified,
        phases,
    })
}

/// Extracts the A→B direction's per-stage completion cycles from the
/// finished sides: pack and send from A's agents, wire from the forward
/// link, deposit and unpack from B's.
fn phase_timeline(a: &Side, b: &Side, link_ab: &Link) -> PhaseTimeline {
    let mut phases = PhaseTimeline::default();
    if let MainRole::Pipe(p) = &a.main {
        phases.completion[0] = p.gather_end.unwrap_or(0);
    }
    phases.completion[1] = match (&a.main, &a.dma) {
        (_, Some(q)) => q.t,
        (MainRole::Pipe(p), None) => p.send_end.unwrap_or(0),
        (MainRole::Chain(_), None) => a.cpu.t,
    };
    phases.completion[2] = link_ab.time();
    phases.completion[3] = match (&b.deposit, &b.cop) {
        (Some(d), _) => d.t,
        (
            None,
            Some(Coproc {
                duty: CopDuty::Receive(_),
                cpu,
            }),
        ) => cpu.t,
        _ => 0,
    };
    phases.completion[4] = match (&b.cop, &b.main) {
        (
            Some(Coproc {
                duty: CopDuty::Scatter(p),
                ..
            }),
            _,
        ) => p.scatter_end.unwrap_or(0),
        (_, MainRole::Pipe(p)) => p.scatter_end.unwrap_or(0),
        _ => 0,
    };
    phases
}

/// Emits the exchange's trace spans under the current point scope: the
/// scenario envelope, the telescoped phase breakdown, and one activity span
/// per engine agent. Links emit their own wire-busy spans.
fn emit_trace(
    obs: &memcomm_obs::Obs,
    label: &str,
    a: &Side,
    b: &Side,
    phases: &PhaseTimeline,
    end_cycle: Cycle,
) {
    obs.span("scenario", label, 0, end_cycle);
    let mut running = 0;
    for (stage, cycles) in PhaseTimeline::STAGES
        .iter()
        .zip(phases.marginals(end_cycle))
    {
        if cycles > 0 {
            obs.span("phase", stage, running, running + cycles);
        }
        running += cycles;
    }
    for (track, side) in [("engine.a", a), ("engine.b", b)] {
        obs.span(track, "main", 0, side.cpu.t);
        if let Some(q) = &side.dma {
            obs.span(track, "dma", 0, q.t);
        }
        if let Some(d) = &side.deposit {
            obs.span(track, "deposit", 0, d.t);
        }
        if let Some(c) = &side.cop {
            obs.span(track, "cop", 0, c.cpu.t);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const W: AccessPattern = AccessPattern::Indexed;
    const C1: AccessPattern = AccessPattern::Contiguous;
    const S64: AccessPattern = AccessPattern::Strided(64);

    fn cfg() -> ExchangeConfig {
        ExchangeConfig {
            words: 2048,
            ..ExchangeConfig::default()
        }
    }

    fn rate(machine: &Machine, x: AccessPattern, y: AccessPattern, style: Style) -> f64 {
        let r = run_exchange(machine, x, y, style, &cfg()).unwrap();
        assert!(
            r.verified,
            "{} {:?} {x}Q{y} corrupted data",
            machine.name, style
        );
        r.per_node(machine.clock()).as_mbps()
    }

    #[test]
    fn t3d_chained_beats_buffer_packing_everywhere() {
        let m = Machine::t3d();
        for (x, y) in [(C1, C1), (C1, S64), (S64, C1), (W, W)] {
            let bp = rate(&m, x, y, Style::BufferPacking);
            let ch = rate(&m, x, y, Style::Chained);
            assert!(
                ch > bp,
                "{x}Q{y}: chained {ch:.1} must beat buffer packing {bp:.1}"
            );
        }
    }

    #[test]
    fn paragon_chained_beats_buffer_packing() {
        let m = Machine::paragon();
        for (x, y) in [(C1, C1), (C1, S64), (W, W)] {
            let bp = rate(&m, x, y, Style::BufferPacking);
            let ch = rate(&m, x, y, Style::Chained);
            assert!(
                ch > bp,
                "{x}Q{y}: chained {ch:.1} must beat buffer packing {bp:.1}"
            );
        }
    }

    #[test]
    fn congestion_slows_the_contiguous_exchange() {
        let m = Machine::t3d();
        let mut c1 = cfg();
        c1.congestion = Some(1.0);
        let mut c4 = cfg();
        c4.congestion = Some(4.0);
        let fast = run_exchange(&m, C1, C1, Style::Chained, &c1).unwrap();
        let slow = run_exchange(&m, C1, C1, Style::Chained, &c4).unwrap();
        assert!(slow.end_cycle > 2 * fast.end_cycle);
    }

    #[test]
    fn zero_word_chunks_fail_typed_for_buffer_packing_and_are_ignored_chained() {
        let cfg = ExchangeConfig {
            words: 64,
            chunk_words: Some(0),
            ..ExchangeConfig::default()
        };
        for m in [Machine::t3d(), Machine::paragon()] {
            let bp = run_exchange(&m, C1, S64, Style::BufferPacking, &cfg);
            assert!(
                matches!(&bp, Err(SimError::Protocol { detail, at: 0 }) if detail.contains("chunk")),
                "{}: {bp:?}",
                m.name
            );
            let chained = run_exchange(&m, C1, S64, Style::Chained, &cfg).unwrap();
            assert!(chained.verified, "{}", m.name);
        }
    }

    /// The deposit engine holds up to `coalesce_words` words in its burst
    /// buffer while the chunk they complete is already announced, so a
    /// scatter that starts at once must still read them from memory.
    #[test]
    fn a_scatter_reads_words_the_deposit_engine_still_holds_in_its_burst() {
        let cases = [
            (Machine::t3d(), C1, C1, 1024, Some(1)),
            (Machine::paragon(), W, C1, 5, None),
        ];
        for (m, x, y, words, chunk_words) in cases {
            for full_duplex in [true, false] {
                let cfg = ExchangeConfig {
                    words,
                    chunk_words,
                    full_duplex,
                    ..ExchangeConfig::default()
                };
                let r = run_exchange(&m, x, y, Style::BufferPacking, &cfg).unwrap();
                assert!(r.verified, "{} {x}Q{y} {cfg:?}", m.name);
            }
        }
    }

    #[test]
    fn indexed_exchange_permutes_correctly() {
        // verify_received inside rate() covers it; this pins the pattern
        // combination the paper calls wQw on both machines.
        for m in [Machine::t3d(), Machine::paragon()] {
            let r = run_exchange(&m, W, W, Style::Chained, &cfg()).unwrap();
            assert!(r.verified);
        }
    }
}
