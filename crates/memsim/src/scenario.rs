//! Single-node measurement scenarios for the basic transfers.
//!
//! Each scenario drives one or two agents to steady state over a walk and
//! returns a [`Measurement`]. These are the simulated counterparts of the
//! paper's microbenchmarks: local copies `xCy` (Table 1 / Figure 4), pure
//! load/store streams `xC0` / `0Cy`, sends `xS0` / `xF0` (Table 2) and
//! receives `0Ry` / `0Dy` (Table 3). The network side of a send or receive
//! is an ideal port running at a configurable service rate (the machine's
//! network injection/ejection speed), so the measured figure isolates the
//! node-side transfer exactly as the paper's experiments did.

use crate::clock::Cycle;
use crate::engines::{CpuReceiver, CpuSender, DepositEngine, DepositMode, Dma, LocalCopier, Step};
use crate::error::{SimError, SimResult};
use crate::nic::{NetWord, WordKind};
use crate::node::{Node, Watchdog};
use crate::stats::Measurement;
use crate::walk::Walk;

/// Step bound for a scenario's driver loop: generous per-word headroom plus
/// a fixed floor, so a legitimate slow transfer always finishes while a
/// wedged one is caught.
fn watchdog_for(words: u64) -> Watchdog {
    Watchdog::new(64 * words + 10_000)
}

/// Runs a local memory-to-memory copy `xCy` and returns the measurement
/// (including the final write-buffer flush).
///
/// # Errors
///
/// Propagates any [`SimError`] from the copy engine.
///
/// # Panics
///
/// Panics if the walks differ in length.
pub fn run_local_copy(node: &mut Node, src: &Walk, dst: &Walk) -> SimResult<Measurement> {
    let mut cpu = node.cpu();
    LocalCopier::new(src.clone(), dst.clone()).run(&mut cpu, &mut node.path, &mut node.mem)?;
    let end = node.path.flush(cpu.t);
    Ok(Measurement::new(src.len(), end))
}

/// Runs a pure load stream `xC0` (loads into a register sink).
///
/// # Errors
///
/// Propagates any [`SimError`] from the load pipeline.
pub fn run_load_stream(node: &mut Node, src: &Walk) -> SimResult<Measurement> {
    let mut cpu = node.cpu();
    let depth = cpu.depth_for(src.pattern());
    for i in 0..src.len() {
        if cpu.pending_loads() >= depth {
            let _ = cpu.retire_load()?;
        }
        cpu.issue_load(&mut node.path, &node.mem, src, i)?;
    }
    while cpu.pending_loads() > 0 {
        let _ = cpu.retire_load()?;
    }
    Ok(Measurement::new(src.len(), cpu.t))
}

/// Runs a pure store stream `0Cy` (stores of a constant).
///
/// # Errors
///
/// Infallible today; `Result` for uniformity with the other scenarios.
pub fn run_store_stream(node: &mut Node, dst: &Walk) -> SimResult<Measurement> {
    let mut cpu = node.cpu();
    for i in 0..dst.len() {
        cpu.t += cpu.params().loop_cycles;
        cpu.store_element(&mut node.path, &mut node.mem, dst, i, i);
    }
    let end = node.path.flush(cpu.t);
    Ok(Measurement::new(dst.len(), end))
}

/// Drives a sending agent against an ideal network port that takes one
/// word every `cycles_per_word` cycles. `step` advances the agent once and
/// returns its outcome and clock. Returns the agent's clock when it is done
/// and the later of that clock and the cycle the port took the last word.
fn drive_into_ideal_sink(
    node: &mut Node,
    words: u64,
    cycles_per_word: Cycle,
    (driver, sink): (&'static str, &'static str),
    mut step: impl FnMut(&mut Node) -> SimResult<(Step, Cycle)>,
) -> SimResult<(Cycle, Cycle)> {
    let (mut t, mut sink_t) = (0, 0);
    let mut dog = watchdog_for(words);
    loop {
        dog.tick(driver, t)?;
        let (outcome, now) = step(node)?;
        t = now;
        match outcome {
            Step::Done => break,
            Step::Blocked => {
                let Some((at, _)) = node.tx.pop(sink_t) else {
                    return Err(SimError::Starved {
                        engine: sink,
                        at: sink_t,
                    });
                };
                sink_t = at + cycles_per_word;
            }
            Step::Progressed => {
                // Keep the port draining words that arrived in its past.
                while sink_t <= t {
                    match node.tx.pop(sink_t) {
                        Some((at, _)) => sink_t = at + cycles_per_word,
                        None => break,
                    }
                }
            }
        }
    }
    let mut last = t;
    while let Some((at, _)) = node.tx.pop(sink_t) {
        sink_t = at + cycles_per_word;
        last = last.max(at);
    }
    Ok((t, last))
}

/// Runs a processor load-send `xS0` against an ideal network port accepting
/// one word every `sink_cycles_per_word` cycles. When `remote_dst` is given,
/// each word is sent as an address-data pair following that walk.
///
/// # Errors
///
/// Returns [`SimError::Starved`] when the sender blocks on a FIFO the ideal
/// port finds empty (a wiring bug), and propagates engine errors.
pub fn run_load_send(
    node: &mut Node,
    src: &Walk,
    remote_dst: Option<&Walk>,
    sink_cycles_per_word: Cycle,
) -> SimResult<Measurement> {
    let mut cpu = node.cpu();
    let mut sender = CpuSender::new(src.clone(), remote_dst.cloned());
    let names = ("load-send driver", "load-send sink");
    let (end, _) = drive_into_ideal_sink(node, src.len(), sink_cycles_per_word, names, |node| {
        let outcome = sender.step(&mut cpu, &mut node.path, &node.mem, &mut node.tx)?;
        Ok((outcome, cpu.t))
    })?;
    Ok(Measurement::new(src.len(), end))
}

/// Runs a DMA fetch-send `1F0` against an ideal network port.
///
/// # Errors
///
/// Returns [`SimError::Starved`] when the DMA blocks on a FIFO the ideal
/// port finds empty, or [`SimError::Wedged`] if the loop stops progressing.
///
/// # Panics
///
/// Panics if `src` is not contiguous (a construction contract).
pub fn run_fetch_send(
    node: &mut Node,
    src: &Walk,
    sink_cycles_per_word: Cycle,
) -> SimResult<Measurement> {
    let mut dma = Dma::new(node.params().dma, src.clone());
    let names = ("fetch-send driver", "fetch-send sink");
    // The transfer is complete when the port has taken the last word.
    let (_, end) = drive_into_ideal_sink(node, src.len(), sink_cycles_per_word, names, |node| {
        let outcome = dma.step(&mut node.path, &node.mem, &mut node.tx);
        Ok((outcome, dma.t))
    })?;
    Ok(Measurement::new(src.len(), end))
}

/// Drives a receiving agent from an ideal network port that offers the
/// words of `dst` (carrying their addresses when `addressed`), one every
/// `cycles_per_word` cycles. `step` advances the agent once and returns its
/// outcome and clock. Returns the agent's clock when it is done.
fn drive_from_ideal_feed(
    node: &mut Node,
    dst: &Walk,
    addressed: bool,
    cycles_per_word: Cycle,
    (driver, agent): (&'static str, &'static str),
    mut step: impl FnMut(&mut Node) -> SimResult<(Step, Cycle)>,
) -> SimResult<Cycle> {
    let words: Vec<NetWord> = (0..dst.len())
        .map(|i| NetWord {
            addr: addressed.then(|| dst.addr(i)),
            data: i,
            kind: WordKind::Data,
        })
        .collect();
    let (mut t, mut source_t, mut fed) = (0, 0, 0);
    let mut dog = watchdog_for(dst.len());
    loop {
        dog.tick(driver, t)?;
        while fed < words.len() {
            match node.rx.push(source_t, words[fed]) {
                Some(at) => {
                    source_t = at.max(source_t) + cycles_per_word;
                    fed += 1;
                }
                None => break,
            }
        }
        let (outcome, now) = step(node)?;
        t = now;
        match outcome {
            Step::Done => return Ok(t),
            Step::Blocked if fed >= words.len() => {
                return Err(SimError::Starved {
                    engine: agent,
                    at: t,
                })
            }
            Step::Blocked | Step::Progressed => {}
        }
    }
}

/// Runs a processor receive-store `0Ry`: words arrive at one per
/// `feed_cycles_per_word` cycles and the processor stores them along `dst`
/// (or at the carried address when `addressed`).
///
/// # Errors
///
/// Returns [`SimError::Starved`] when the receiver blocks after the feed is
/// exhausted, and propagates engine errors.
pub fn run_receive_store(
    node: &mut Node,
    dst: &Walk,
    addressed: bool,
    feed_cycles_per_word: Cycle,
) -> SimResult<Measurement> {
    let mut cpu = node.cpu();
    let mut receiver = CpuReceiver::new(dst.clone());
    let names = ("receive-store driver", "cpu receiver");
    let t = drive_from_ideal_feed(node, dst, addressed, feed_cycles_per_word, names, |node| {
        let outcome = receiver.step(&mut cpu, &mut node.path, &mut node.mem, &mut node.rx)?;
        Ok((outcome, cpu.t))
    })?;
    let end = node.path.flush(t);
    Ok(Measurement::new(dst.len(), end))
}

/// Runs a deposit-engine receive `0Dy` (same feed as
/// [`run_receive_store`]).
///
/// # Errors
///
/// Returns [`SimError::Starved`] when the engine blocks after the feed is
/// exhausted, and propagates engine errors.
pub fn run_receive_deposit(
    node: &mut Node,
    dst: &Walk,
    addressed: bool,
    feed_cycles_per_word: Cycle,
) -> SimResult<Measurement> {
    let mode = if addressed {
        DepositMode::Addressed
    } else {
        DepositMode::Stream(dst.clone())
    };
    let mut engine = DepositEngine::new(node.params().deposit, mode, dst.len());
    let names = ("receive-deposit driver", "deposit engine");
    let end = drive_from_ideal_feed(node, dst, addressed, feed_cycles_per_word, names, |node| {
        let outcome = engine.step(&mut node.path, &mut node.mem, &mut node.rx)?;
        Ok((outcome, engine.t))
    })?;
    Ok(Measurement::new(dst.len(), end))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeParams;
    use memcomm_model::AccessPattern;

    fn node() -> Node {
        Node::new(NodeParams::default())
    }

    const N: u64 = 4096;

    #[test]
    fn contiguous_copy_beats_strided_beats_indexed_loads() {
        let mut n = node();
        let c_src = n.alloc_walk(AccessPattern::Contiguous, N, None).unwrap();
        let c_dst = n.alloc_walk(AccessPattern::Contiguous, N, None).unwrap();
        let contiguous = run_local_copy(&mut n, &c_src, &c_dst).unwrap();

        let mut n = node();
        let s_src = n
            .alloc_walk(AccessPattern::strided(64).unwrap(), N, None)
            .unwrap();
        let s_dst = n.alloc_walk(AccessPattern::Contiguous, N, None).unwrap();
        let strided = run_local_copy(&mut n, &s_src, &s_dst).unwrap();

        assert!(
            contiguous.cycles < strided.cycles,
            "contiguous {} !< strided {}",
            contiguous.cycles,
            strided.cycles
        );
    }

    #[test]
    fn copy_moves_the_data() {
        let mut n = node();
        let src = n.alloc_walk(AccessPattern::Contiguous, 256, None).unwrap();
        let dst = n
            .alloc_walk(AccessPattern::strided(8).unwrap(), 256, None)
            .unwrap();
        n.mem.fill(src.region(), (0..256).map(|i| i * 3));
        run_local_copy(&mut n, &src, &dst).unwrap();
        for i in 0..256 {
            assert_eq!(n.mem.read(dst.addr(i)), i * 3);
        }
    }

    #[test]
    fn load_send_measures_and_drains() {
        let mut n = node();
        let src = n.alloc_walk(AccessPattern::Contiguous, N, None).unwrap();
        let m = run_load_send(&mut n, &src, None, 8).unwrap();
        assert_eq!(m.words, N);
        assert!(n.tx.is_empty());
        assert_eq!(n.tx.total_pushed(), N);
    }

    #[test]
    fn slow_port_throttles_the_sender() {
        let mut n = node();
        let src = n.alloc_walk(AccessPattern::Contiguous, N, None).unwrap();
        let fast = run_load_send(&mut n, &src, None, 2).unwrap();
        let mut n2 = node();
        let src2 = n2.alloc_walk(AccessPattern::Contiguous, N, None).unwrap();
        let slow = run_load_send(&mut n2, &src2, None, 200).unwrap();
        assert!(slow.cycles > 2 * fast.cycles);
    }

    #[test]
    fn receive_store_lands_data() {
        let mut n = node();
        let dst = n
            .alloc_walk(AccessPattern::strided(4).unwrap(), 512, None)
            .unwrap();
        let m = run_receive_store(&mut n, &dst, true, 4).unwrap();
        assert_eq!(m.words, 512);
        for i in 0..512 {
            assert_eq!(n.mem.read(dst.addr(i)), i);
        }
    }

    #[test]
    fn receive_deposit_lands_data_stream_mode() {
        let mut n = node();
        let dst = n.alloc_walk(AccessPattern::Contiguous, 512, None).unwrap();
        let m = run_receive_deposit(&mut n, &dst, false, 4).unwrap();
        assert_eq!(m.words, 512);
        assert_eq!(n.mem.dump(dst.region()), (0..512).collect::<Vec<_>>());
    }

    #[test]
    fn deposit_contiguous_faster_than_strided() {
        let mut n = node();
        let dst = n.alloc_walk(AccessPattern::Contiguous, N, None).unwrap();
        let contiguous = run_receive_deposit(&mut n, &dst, true, 1).unwrap();
        let mut n2 = node();
        let dst2 = n2
            .alloc_walk(AccessPattern::strided(64).unwrap(), N, None)
            .unwrap();
        let strided = run_receive_deposit(&mut n2, &dst2, true, 1).unwrap();
        assert!(contiguous.cycles < strided.cycles);
    }

    #[test]
    fn fetch_send_streams_contiguously() {
        let mut n = node();
        let src = n.alloc_walk(AccessPattern::Contiguous, N, None).unwrap();
        let m = run_fetch_send(&mut n, &src, 8).unwrap();
        assert_eq!(m.words, N);
        assert_eq!(n.tx.total_pushed(), N);
        assert!(n.tx.is_empty());
    }

    #[test]
    fn load_stream_and_store_stream_run() {
        let mut n = node();
        let w = n.alloc_walk(AccessPattern::Contiguous, N, None).unwrap();
        let load = run_load_stream(&mut n, &w).unwrap();
        let mut n2 = node();
        let w2 = n2.alloc_walk(AccessPattern::Contiguous, N, None).unwrap();
        let store = run_store_stream(&mut n2, &w2).unwrap();
        assert!(load.cycles > 0 && store.cycles > 0);
        // A pure stream is faster than a full copy over the same pattern.
        let mut n3 = node();
        let a = n3.alloc_walk(AccessPattern::Contiguous, N, None).unwrap();
        let b = n3.alloc_walk(AccessPattern::Contiguous, N, None).unwrap();
        let copy = run_local_copy(&mut n3, &a, &b).unwrap();
        assert!(load.cycles < copy.cycles);
        assert!(store.cycles < copy.cycles);
    }
}
