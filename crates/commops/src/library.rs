//! Message-library layer: PVM-style buffered messaging vs low-level puts.
//!
//! Figure 1 of the paper compares "a portable, general library (PVM)"
//! against "vendor specific or third party libraries that offer best
//! throughput". The mechanisms that separate them are per-message constant
//! software overhead and forced system buffering (extra local copies on
//! both sides); both are implemented here on the simulated machines, not
//! assumed. The profile that sets them, [`LibraryProfile`], lives beside
//! the machine, where the Table 6 kernels read it too.

use memcomm_machines::memo::{self, Point};
pub use memcomm_machines::LibraryProfile;
use memcomm_machines::Machine;
use memcomm_memsim::clock::Cycle;
use memcomm_memsim::engines::{Cpu, CpuSender, DepositEngine, DepositMode, LocalCopier, Step};
use memcomm_memsim::node::Watchdog;
use memcomm_memsim::{stats, Node, SimError, SimResult};
use memcomm_model::{AccessPattern, Throughput};
use memcomm_netsim::Link;

use crate::drive::{drive, Agents, LinkWaits};

/// A message's agents: A's sending processor, B's deposit engine, and the
/// link between them.
struct Message {
    a: Node,
    b: Node,
    cpu_a: Cpu,
    sender: CpuSender,
    deposit: DepositEngine,
    link: Link,
}

impl Agents for Message {
    const DRIVER: &'static str = "message driver";
    const ENGINES: &'static [&'static str] = &["sender", "deposit"];
    #[rustfmt::skip]
    const LINKS: &'static [LinkWaits] = &[LinkWaits { fills: &[0], drains: &[1] }];
    const WAITS_ON: &'static [&'static [usize]] = &[&[2], &[2]];

    fn time_of(&self, id: usize) -> Cycle {
        match id {
            0 => self.cpu_a.t,
            1 => self.deposit.t,
            _ => self.link.time(),
        }
    }

    fn holds_word(&self, _link: usize) -> bool {
        self.link.holds_word()
    }

    fn step(&mut self, id: usize) -> SimResult<Step> {
        let Message { a, b, .. } = self;
        match id {
            0 => self
                .sender
                .step(&mut self.cpu_a, &mut a.path, &a.mem, &mut a.tx),
            1 => self.deposit.step(&mut b.path, &mut b.mem, &mut b.rx),
            _ => Ok(self.link.step(&mut a.tx, &mut b.rx)),
        }
    }
}

/// Sends one contiguous message of `words` 64-bit words from node A to
/// node B through the library and returns the end-to-end throughput
/// (message bytes over total one-way time) — one point of Figure 1.
/// Memoized through the installed cache handle (see
/// [`memcomm_machines::memo`]).
///
/// # Errors
///
/// Returns [`SimError::InvalidWalk`] for an empty message,
/// [`SimError::Deadlock`] if the co-simulation wedges, and
/// [`SimError::Protocol`] if the delivered message differs from the source.
pub fn measure_message(
    machine: &Machine,
    profile: LibraryProfile,
    words: u64,
) -> SimResult<Throughput> {
    memo::cached(machine, message_point(profile, words), || {
        simulate_message(machine, profile, words)
    })
}

/// The memo point [`measure_message`] looks up.
pub fn message_point(profile: LibraryProfile, words: u64) -> Point {
    Point::Message { profile, words }
}

fn simulate_message(
    machine: &Machine,
    profile: LibraryProfile,
    words: u64,
) -> SimResult<Throughput> {
    if words == 0 {
        return Err(SimError::InvalidWalk {
            detail: "empty messages have no throughput".to_string(),
        });
    }
    let mut a = Node::new(machine.node);
    let mut b = Node::new(machine.node);
    let src = a.alloc_walk(AccessPattern::Contiguous, words, None)?;
    let sys_a = a.alloc_walk(AccessPattern::Contiguous, words, None)?;
    // Keep layouts identical.
    let dst = b.alloc_walk(AccessPattern::Contiguous, words, None)?;
    let sys_b = b.alloc_walk(AccessPattern::Contiguous, words, None)?;
    a.mem.fill(src.region(), (0..words).map(|i| i ^ 0xFEED));

    let mut cpu_a = a.cpu();
    cpu_a.t += profile.per_message_cycles;
    let send_walk = if profile.system_buffering {
        LocalCopier::new(src.clone(), sys_a.clone()).run(&mut cpu_a, &mut a.path, &mut a.mem)?;
        sys_a
    } else {
        src.clone()
    };
    let recv_walk = if profile.system_buffering {
        sys_b.clone()
    } else {
        dst.clone()
    };

    // Figure 1 measures a single communicating pair: congestion 1.
    let mut run = Message {
        sender: CpuSender::new(send_walk, None),
        deposit: DepositEngine::new(machine.node.deposit, DepositMode::Stream(recv_walk), words),
        link: Link::new(machine.link(1.0)),
        a,
        b,
        cpu_a,
    };
    let mut end = drive(&mut run, Watchdog::new(64 * words + 100_000))?;
    let Message { a, mut b, .. } = run;
    if profile.system_buffering {
        let mut cpu_b = b.cpu();
        cpu_b.t = end + profile.per_message_cycles;
        LocalCopier::new(sys_b, dst.clone()).run(&mut cpu_b, &mut b.path, &mut b.mem)?;
        end = cpu_b.t;
    }
    for i in 0..words {
        if b.mem.read(dst.addr(i)) != a.mem.read(src.addr(i)) {
            return Err(SimError::Protocol {
                detail: format!("message corrupted at element {i}"),
                at: end,
            });
        }
    }
    stats::count_simulation(words, end);
    Ok(machine.clock().throughput(words * 8, end))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn low_level_beats_pvm_at_every_size() {
        let m = Machine::t3d();
        for words in [64u64, 1024, 16384] {
            let pvm = measure_message(&m, LibraryProfile::pvm(&m), words).unwrap();
            let low = measure_message(&m, LibraryProfile::low_level(&m), words).unwrap();
            assert!(
                low > pvm,
                "{words} words: low-level {low} must beat PVM {pvm}"
            );
        }
    }

    #[test]
    fn pvm_gap_narrows_with_message_size() {
        let m = Machine::paragon();
        let ratio = |words| {
            let pvm = measure_message(&m, LibraryProfile::pvm(&m), words)
                .unwrap()
                .as_mbps();
            let low = measure_message(&m, LibraryProfile::low_level(&m), words)
                .unwrap()
                .as_mbps();
            low / pvm
        };
        assert!(
            ratio(128) > ratio(16384),
            "per-message overhead dominates small sizes"
        );
    }

    #[test]
    fn throughput_grows_with_size_then_saturates() {
        let m = Machine::t3d();
        let profile = LibraryProfile::low_level(&m);
        let small = measure_message(&m, profile, 16).unwrap().as_mbps();
        let mid = measure_message(&m, profile, 4096).unwrap().as_mbps();
        let large = measure_message(&m, profile, 32768).unwrap().as_mbps();
        assert!(mid > 2.0 * small);
        assert!(large >= mid * 0.9, "saturation, not collapse");
        // Asymptote is bounded by the wire at congestion 1.
        assert!(large < 170.0);
    }
}
