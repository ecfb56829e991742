//! The plain loop [`drive`](super::drive) replaced, kept as its
//! differential oracle. Every iteration reads every candidate's clock
//! afresh, sorts the candidates by `(clock, id)` and steps them in that
//! order until one moves, so a blocked agent is stepped again on every
//! iteration in which it sorts before the mover. It shares nothing with
//! the parking rule but the [`Agents`] description.

use std::cell::Cell;

use memcomm_memsim::clock::Cycle;
use memcomm_memsim::engines::Step;
use memcomm_memsim::node::Watchdog;
use memcomm_memsim::{SimError, SimResult};

use super::Agents;

thread_local! {
    /// Whether [`drive`](super::drive) hands the runs on this thread to
    /// the oracle.
    pub(super) static ENGAGED: Cell<bool> = const { Cell::new(false) };
}

/// Runs `agents` to completion under the plain rule.
pub(super) fn drive<A: Agents>(agents: &mut A, mut watchdog: Watchdog) -> SimResult<Cycle> {
    let engines = A::ENGINES.len();
    let links = engines..engines + A::LINKS.len();
    let ids = move |mask: u32| (0..engines).filter(move |&id| mask & 1 << id != 0);
    let present = ids(u32::MAX)
        .filter(|&id| agents.present(id))
        .fold(0, |mask, id| mask | 1 << id);
    let latest = |agents: &A| ids(present).map(|id| agents.time_of(id)).max().unwrap_or(0);
    let mut live = present;
    let mut order = Vec::new();
    while live != 0 {
        watchdog.tick_with(A::DRIVER, || latest(agents))?;
        order.clear();
        order.extend(
            ids(live)
                .chain(links.clone())
                .map(|id| (agents.time_of(id), id)),
        );
        order.sort_unstable();
        let mut moved = false;
        for &(_, id) in &order {
            match agents.step(id)? {
                Step::Blocked => continue,
                Step::Done if id < engines => live &= !(1 << id),
                _ => {}
            }
            moved = true;
            break;
        }
        if !moved {
            let names: Vec<_> = ids(live).map(|id| A::ENGINES[id]).collect();
            return Err(SimError::Deadlock {
                detail: format!("{} wedged; live engines: {}", A::DRIVER, names.join(", ")),
                at: latest(agents),
            });
        }
    }
    Ok(links
        .map(|id| agents.time_of(id))
        .fold(latest(agents), Cycle::max))
}

mod tests {
    use std::fmt::Debug;
    use std::time::Instant;

    use memcomm_machines::Machine;
    use memcomm_memsim::fault::{FaultConfig, FaultPlan};
    use memcomm_model::AccessPattern;

    use super::*;
    use crate::{
        measure_message, run_exchange_specs, run_get_exchange, run_resilient_transfer,
        ExchangeConfig, LibraryProfile, ProtocolConfig, Style, WalkSpec,
    };

    /// Cases run, how many failed alike under both rules, and every
    /// difference.
    #[derive(Default)]
    struct Tally {
        cases: usize,
        errors: usize,
        diffs: Vec<String>,
    }

    impl Tally {
        /// Runs `run` under `drive`, then under the oracle, and records any
        /// difference in the result, errors included.
        fn check<T: PartialEq + Debug>(
            &mut self,
            label: impl Fn() -> String,
            run: impl Fn() -> SimResult<T>,
        ) {
            let new = run();
            ENGAGED.set(true);
            let old = run();
            ENGAGED.set(false);
            self.cases += 1;
            self.errors += usize::from(old.is_err());
            if new != old {
                self.diffs
                    .push(format!("{}: drive {new:?}, oracle {old:?}", label()));
            }
        }
    }

    /// Both machines, each with NIC FIFOs of `tx`/`rx` words: single-word
    /// FIFOs block on every word, the machines' own 64/64 almost never.
    fn machines() -> Vec<Machine> {
        let mut out = Vec::new();
        for machine in [Machine::t3d(), Machine::paragon()] {
            for (tx, rx) in [(1, 1), (1, 2), (2, 1), (3, 5), (64, 64)] {
                let mut m = machine.clone();
                m.node.tx_fifo_words = tx;
                m.node.rx_fifo_words = rx;
                out.push(m);
            }
        }
        out
    }

    const PATTERNS: [AccessPattern; 3] = [
        AccessPattern::Contiguous,
        AccessPattern::Strided(8),
        AccessPattern::Indexed,
    ];

    #[test]
    fn the_parking_driver_matches_the_plain_loop_on_every_run() {
        let start = Instant::now();
        let mut tally = Tally::default();
        for m in &machines() {
            let fifos = (m.node.tx_fifo_words, m.node.rx_fifo_words);
            for words in [1, 7, 96] {
                for x in PATTERNS {
                    for y in PATTERNS {
                        for full_duplex in [true, false] {
                            for max_cycles in [None, Some(300)] {
                                let base = ExchangeConfig {
                                    words,
                                    full_duplex,
                                    max_cycles,
                                    ..ExchangeConfig::default()
                                };
                                for chunk_words in [None, Some(8)] {
                                    for style in [Style::BufferPacking, Style::Chained] {
                                        let cfg = ExchangeConfig {
                                            chunk_words,
                                            ..base
                                        };
                                        let (xs, ys) = (WalkSpec::Pattern(x), WalkSpec::Pattern(y));
                                        tally.check(
                                            || {
                                                format!(
                                                    "{} {fifos:?} {x}Q{y} {style:?} {cfg:?}",
                                                    m.name
                                                )
                                            },
                                            || run_exchange_specs(m, &xs, &ys, style, &cfg),
                                        );
                                    }
                                }
                                tally.check(
                                    || format!("{} {fifos:?} {x}G{y} {base:?}", m.name),
                                    || run_get_exchange(m, x, y, &base),
                                );
                            }
                        }
                    }
                }
                for profile in [LibraryProfile::pvm(m), LibraryProfile::low_level(m)] {
                    tally.check(
                        || format!("{} {fifos:?} {} {words} words", m.name, profile.name),
                        || measure_message(m, profile, words),
                    );
                }
            }
            let cfg = ProtocolConfig {
                words: 96,
                frame_words: 32,
                timeout_cycles: 1024,
                max_timeout_cycles: 4096,
                max_retries: 4,
                ..ProtocolConfig::default()
            };
            for seed in [7, 42, 46, 62] {
                for rate in [0.0, 0.02, 0.1] {
                    let plan = FaultPlan::new(FaultConfig {
                        seed,
                        rate,
                        outage_rate: 0.2,
                        ..FaultConfig::default()
                    });
                    for (x, y) in [(PATTERNS[0], PATTERNS[0]), (PATTERNS[1], PATTERNS[2])] {
                        for style in [Style::BufferPacking, Style::Chained] {
                            tally.check(
                                || format!("{} {fifos:?} resilient {x}Q{y} {style:?} seed {seed} rate {rate}", m.name),
                                || run_resilient_transfer(m, x, y, style, plan, &cfg),
                            );
                        }
                    }
                }
            }
        }
        eprintln!(
            "{} cases, {} errors, {} differences in {:.1} s",
            tally.cases,
            tally.errors,
            tally.diffs.len(),
            start.elapsed().as_secs_f64()
        );
        assert!(tally.errors > 0, "the grid must reach the error paths");
        assert!(
            tally.diffs.is_empty(),
            "{:#?}",
            &tally.diffs[..tally.diffs.len().min(10)]
        );
    }
}
