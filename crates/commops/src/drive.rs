//! The co-simulation driver every two-node run shares.
//!
//! A run is a fixed set of agents, each with a local clock and a step: its
//! engines (processors, DMA queues, deposit engines, protocol ends) are
//! agents `0..ENGINES.len()`, its links follow. [`drive`] applies one rule
//! until no engine is live: step the earliest agent that can move, the
//! least `(clock, id)` whose step is not [`Step::Blocked`].
//!
//! It applies the rule without retrying agents that cannot have become
//! unblocked. An agent whose step returns `Blocked` and leaves its clock
//! where it was is parked: it sits out until an agent in its wake table
//! steps. An engine's row ([`Agents::WAITS_ON`]) names whoever fills a FIFO
//! it pops, drains a FIFO it pushes, or publishes a value its step reads. A
//! link's row ([`Agents::LINKS`]) names two groups, and a parked link waits
//! on one of them: on the agents that drain its destination FIFO if it
//! holds a word ([`Link::holds_word`](memcomm_netsim::Link::holds_word)),
//! else on the agents that fill its source FIFO. Each iteration makes one
//! move. Once it is made, every parked agent that waits on an agent stepped
//! in that iteration, `Blocked` steps included, is unparked. Three facts
//! make this exact:
//!
//! - A step changes only the stepper's own clock. So the driver keeps every
//!   clock in an array and re-reads only the stepped agent's entry, and an
//!   agent that has not stepped keeps its place in the `(clock, id)` order.
//! - A `Blocked` step repeated on unchanged inputs is `Blocked` again and
//!   changes nothing, and only a step of an agent in the wake table changes
//!   a parked agent's inputs. If none of those agents has stepped since the
//!   parked agent was last tried, each is still ordered after it, so the
//!   plain rule would try the parked agent first and see `Blocked`.
//! - A link that holds no word reads only its source FIFO and is `Blocked`
//!   only while that is empty; one that holds a word reads only its
//!   destination and is `Blocked` only while that is full. It is the only
//!   consumer of the one and the only producer of the other, and only its
//!   own move changes whether it holds a word. So while it is parked, only
//!   the group its row names for that case can change its inputs.
//!
//! Wakes wait for the iteration's end because the plain rule tries each
//! agent at most once per iteration. They follow `Blocked` steps as well as
//! moves because two kinds of `Blocked` step change what others see: a link
//! can pop a word and stage it before finding its destination full, and the
//! resilient sender drains acks before finding its FIFO full. The same two
//! can move the stepper's own clock, past an agent it waits on that the
//! iteration's move came before. That agent would then be tried first next
//! time, and its `Blocked` step could unblock the stepper (a link popping
//! the sender's full FIFO), which the plain rule would try next in the same
//! iteration. So an agent whose `Blocked` step moved its clock stays a
//! candidate until a `Blocked` step leaves its clock in place.

use memcomm_memsim::clock::Cycle;
use memcomm_memsim::engines::Step;
use memcomm_memsim::node::Watchdog;
use memcomm_memsim::{stats, SimError, SimResult};

#[cfg(test)]
mod oracle;

/// The agents of one co-simulated run.
pub(crate) trait Agents {
    /// The driver's name in [`SimError::Wedged`] and deadlock errors.
    const DRIVER: &'static str;
    /// Engine names, by id.
    const ENGINES: &'static [&'static str];
    /// The links' wake-table rows; links are numbered after the engines.
    const LINKS: &'static [LinkWaits];
    /// The engines' wake table, by id: the agents whose steps can unblock
    /// that engine, the links on its FIFOs and whoever publishes a value
    /// its step reads.
    const WAITS_ON: &'static [&'static [usize]];

    /// Whether engine `id` takes part in the run; an absent engine never
    /// joins, and its clock is never read.
    fn present(&self, _id: usize) -> bool {
        true
    }

    /// Agent `id`'s local clock.
    fn time_of(&self, id: usize) -> Cycle;

    /// Whether link `link` (counted from 0) holds a word it has popped but
    /// not pushed.
    fn holds_word(&self, link: usize) -> bool;

    /// Advances agent `id` by one step.
    fn step(&mut self, id: usize) -> SimResult<Step>;
}

/// A link's row of the wake table.
pub(crate) struct LinkWaits {
    /// The agents that push onto its source FIFO.
    pub(crate) fills: &'static [usize],
    /// The agents that pop its destination FIFO.
    pub(crate) drains: &'static [usize],
}

/// Most agents a run may have.
const MAX_AGENTS: usize = 16;

/// The ids in `mask`, lowest first.
fn ids(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let id = mask.trailing_zeros() as usize;
        mask &= mask.wrapping_sub(1);
        (id < 32).then_some(id)
    })
}

/// Runs `agents` to completion and returns the latest clock of any agent.
///
/// Each step goes to the earliest agent that can move: candidates are the
/// live engines and every link, tried in `(clock, id)` order (ties to the
/// lower id) until one does not return [`Step::Blocked`]. An engine leaves
/// when its step returns [`Step::Done`]; links run while any engine is
/// live. `watchdog` ticks before every step, at the latest engine clock.
/// Parked agents are passed over without a step call (see the module
/// docs), and the run's moves and `Blocked` step calls are counted into the
/// installed registry ([`stats::count_drive`]) when it ends.
///
/// # Errors
///
/// [`SimError::Deadlock`] naming the live engines when none of the
/// candidates can move, the watchdog's [`SimError::Wedged`] and
/// [`SimError::CycleBudget`], and whatever a step returns.
pub(crate) fn drive<A: Agents>(agents: &mut A, mut watchdog: Watchdog) -> SimResult<Cycle> {
    const {
        assert!(A::ENGINES.len() + A::LINKS.len() <= MAX_AGENTS);
        assert!(A::WAITS_ON.len() == A::ENGINES.len());
    };
    #[cfg(test)]
    if oracle::ENGAGED.get() {
        return oracle::drive(agents, watchdog);
    }
    let engines = A::ENGINES.len();
    let links: u32 = (1 << (engines + A::LINKS.len())) - (1 << engines);
    let present = (0..engines)
        .filter(|&id| agents.present(id))
        .fold(0, |mask, id| mask | 1 << id);
    let mut clock = [0; MAX_AGENTS];
    for id in ids(present | links) {
        clock[id] = agents.time_of(id);
    }
    // wakes[x]: the engines that wait on x and the links x fills; full[x]:
    // the links x drains, which wait on x while they hold a word.
    let (mut wakes, mut full) = ([0; MAX_AGENTS], [0; MAX_AGENTS]);
    for (id, waits) in A::WAITS_ON.iter().enumerate() {
        for &x in *waits {
            wakes[x] |= 1 << id;
        }
    }
    for (link, waits) in A::LINKS.iter().enumerate() {
        for &x in waits.fills {
            wakes[x] |= 1 << (engines + link);
        }
        for &x in waits.drains {
            full[x] |= 1 << (engines + link);
        }
    }
    let latest = |clock: &[Cycle; MAX_AGENTS]| ids(present).map(|id| clock[id]).max().unwrap_or(0);
    // holding: the parked links that hold a word.
    let (mut live, mut parked, mut holding) = (present, 0, 0);
    let (mut steps, mut blocked) = (0, 0);
    let mut run = || {
        while live != 0 {
            watchdog.tick_with(A::DRIVER, || latest(&clock))?;
            let mut tried = 0;
            loop {
                let untried = (live | links) & !(parked | tried);
                // The least clock, ties to the lower id.
                let least = |best, id| if clock[id] < clock[best] { id } else { best };
                let Some(id) = ids(untried).reduce(least) else {
                    let names: Vec<_> = ids(live).map(|id| A::ENGINES[id]).collect();
                    return Err(SimError::Deadlock {
                        detail: format!("{} wedged; live engines: {}", A::DRIVER, names.join(", ")),
                        at: latest(&clock),
                    });
                };
                let before = clock[id];
                let step = agents.step(id)?;
                clock[id] = agents.time_of(id);
                tried |= 1 << id;
                match step {
                    Step::Blocked => {
                        // Only an agent that keeps its place in the order
                        // is sure to be tried before anything that could
                        // unblock it (see the module docs).
                        if clock[id] == before {
                            parked |= 1 << id;
                            let holds = id >= engines && agents.holds_word(id - engines);
                            holding = holding & !(1 << id) | u32::from(holds) << id;
                        }
                        blocked += 1;
                        continue;
                    }
                    Step::Done if id < engines => live &= !(1 << id),
                    _ => {}
                }
                steps += 1;
                break;
            }
            for id in ids(tried) {
                parked &= !(wakes[id] & !holding | full[id] & holding);
            }
        }
        Ok(ids(links)
            .map(|id| clock[id])
            .fold(latest(&clock), Cycle::max))
    };
    let result = run();
    stats::count_drive(steps, blocked);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    use Step::{Blocked, Done, Progressed};

    /// Three engines and one link (agent 3), each replaying a script of
    /// `(step, clock advance)` and then blocking; every step call is logged.
    /// Each engine waits on the link, and every engine fills and drains it.
    struct Toy {
        clocks: [Cycle; 4],
        scripts: [Vec<(Step, Cycle)>; 4],
        present: [bool; 3],
        /// What the link says when asked whether it holds a word.
        holds: bool,
        log: Vec<(usize, Step)>,
    }

    impl Toy {
        fn new(clocks: [Cycle; 4], scripts: [&[(Step, Cycle)]; 4]) -> Toy {
            Toy {
                clocks,
                scripts: scripts.map(|s| s.iter().rev().copied().collect()),
                present: [true; 3],
                holds: false,
                log: Vec::new(),
            }
        }

        /// The steps that moved, in order.
        fn moves(&self) -> Vec<usize> {
            let moved = self.log.iter().filter(|(_, s)| *s != Blocked);
            moved.map(|&(id, _)| id).collect()
        }
    }

    impl Agents for Toy {
        const DRIVER: &'static str = "toy driver";
        const ENGINES: &'static [&'static str] = &["e0", "e1", "e2"];
        const LINKS: &'static [LinkWaits] = &[LinkWaits {
            fills: &[0, 1, 2],
            drains: &[0, 1, 2],
        }];
        const WAITS_ON: &'static [&'static [usize]] = &[&[3], &[3], &[3]];

        fn present(&self, id: usize) -> bool {
            self.present[id]
        }

        fn time_of(&self, id: usize) -> Cycle {
            self.clocks[id]
        }

        fn holds_word(&self, _link: usize) -> bool {
            self.holds
        }

        fn step(&mut self, id: usize) -> SimResult<Step> {
            let (step, advance) = self.scripts[id].pop().unwrap_or((Blocked, 0));
            self.clocks[id] += advance;
            self.log.push((id, step));
            Ok(step)
        }
    }

    /// The toy with a link that only e0 fills and only e1 drains.
    struct Split(Toy);

    impl Agents for Split {
        const DRIVER: &'static str = Toy::DRIVER;
        const ENGINES: &'static [&'static str] = Toy::ENGINES;
        const LINKS: &'static [LinkWaits] = &[LinkWaits {
            fills: &[0],
            drains: &[1],
        }];
        const WAITS_ON: &'static [&'static [usize]] = Toy::WAITS_ON;

        fn present(&self, id: usize) -> bool {
            self.0.present(id)
        }

        fn time_of(&self, id: usize) -> Cycle {
            self.0.time_of(id)
        }

        fn holds_word(&self, link: usize) -> bool {
            self.0.holds_word(link)
        }

        fn step(&mut self, id: usize) -> SimResult<Step> {
            self.0.step(id)
        }
    }

    const TWICE: &[(Step, Cycle)] = &[(Progressed, 10), (Done, 0)];

    #[test]
    fn the_earliest_agent_that_moves_steps_and_ties_go_to_the_lower_id() {
        let mut toy = Toy::new([5, 5, 3, 4], [TWICE, TWICE, TWICE, &[(Progressed, 10)]]);
        drive(&mut toy, Watchdog::new(100)).unwrap();
        // e2 at 3, the link at 4, then e0 and e1 tied at 5 and again at 15.
        assert_eq!(toy.moves(), [2, 3, 0, 1, 2, 0, 1]);
    }

    #[test]
    fn blocked_agents_are_passed_over_and_done_engines_never_run_again() {
        let mut toy = Toy::new(
            [0, 1, 2, 0],
            [&[(Blocked, 0), (Done, 0)], TWICE, &[(Done, 0)], &[]],
        );
        drive(&mut toy, Watchdog::new(100)).unwrap();
        let expect = [
            (0, Blocked),
            (3, Blocked),
            (1, Progressed),
            (0, Done),
            (3, Blocked),
            (2, Done),
            (3, Blocked),
            (1, Done),
        ];
        assert_eq!(toy.log, expect);
    }

    #[test]
    fn a_parked_agent_sits_out_until_an_agent_it_waits_on_steps() {
        let obs = memcomm_obs::Obs::new(false);
        let _guard = obs.install();
        let mut toy = Toy::new(
            [0, 1, 0, 3],
            [
                &[(Blocked, 0), (Progressed, 1), (Done, 0)],
                &[
                    (Progressed, 1),
                    (Progressed, 1),
                    (Progressed, 10),
                    (Done, 0),
                ],
                &[],
                &[(Blocked, 0)],
            ],
        );
        toy.present[2] = false;
        drive(&mut toy, Watchdog::new(100)).unwrap();
        // e0 blocks at 0 and sits out e1's moves, which do not wake it.
        // The link's blocked step wakes it, but only once e1 has made that
        // iteration's move.
        let expect = [
            (0, Blocked),
            (1, Progressed),
            (1, Progressed),
            (1, Progressed),
            (3, Blocked),
            (1, Done),
            (0, Progressed),
            (0, Done),
        ];
        assert_eq!(toy.log, expect);
        assert_eq!(obs.counter("sim.drive_steps"), 6);
        assert_eq!(obs.counter("sim.drive_blocked"), 2);
    }

    #[test]
    fn a_parked_link_waits_only_on_the_side_it_reads() {
        // Engine `busy` moves three times from clock 1, the other once from
        // clock 5, while the link blocks at 0.
        let run = |holds: bool, busy: usize| {
            let three: &[_] = &[
                (Progressed, 1),
                (Progressed, 1),
                (Progressed, 10),
                (Done, 0),
            ];
            let mut scripts = [TWICE, TWICE, &[], &[(Blocked, 0), (Progressed, 1)]];
            scripts[busy] = three;
            let mut clocks = [5, 5, 0, 0];
            clocks[busy] = 1;
            let mut toy = Toy::new(clocks, scripts);
            toy.present[2] = false;
            toy.holds = holds;
            let mut split = Split(toy);
            drive(&mut split, Watchdog::new(100)).unwrap();
            split.0.log
        };
        // The link sits out the busy engine's moves and wakes once the
        // other has stepped, then blocks again for good.
        let expect = |busy: usize| {
            let other = 1 - busy;
            [
                (3, Blocked),
                (busy, Progressed),
                (busy, Progressed),
                (busy, Progressed),
                (other, Progressed),
                (3, Progressed),
                (3, Blocked),
                (busy, Done),
                (other, Done),
            ]
        };
        // Holding a word, it waits on its drainer, e1, not its filler.
        assert_eq!(run(true, 0), expect(0));
        // Holding none, it waits on its filler, e0, not its drainer.
        assert_eq!(run(false, 1), expect(1));
    }

    #[test]
    fn an_agent_whose_blocked_step_moves_its_clock_is_not_parked() {
        let mut toy = Toy::new(
            [0, 1, 0, 10],
            [
                &[(Blocked, 2), (Progressed, 1), (Done, 0)],
                &[(Progressed, 2), (Done, 0)],
                &[],
                &[],
            ],
        );
        toy.present[2] = false;
        drive(&mut toy, Watchdog::new(100)).unwrap();
        // e1's move does not wake e0, but e0 is tried again at its new
        // clock, 2, as the plain rule tries it.
        let expect = [
            (0, Blocked),
            (1, Progressed),
            (0, Progressed),
            (0, Done),
            (1, Done),
        ];
        assert_eq!(toy.log, expect);
    }

    #[test]
    fn links_stop_once_no_engine_is_live_and_absent_engines_never_join() {
        let mut toy = Toy::new([0, 0, 0, 0], [&[(Progressed, 1), (Done, 0)], &[], &[], &[]]);
        toy.scripts[3] = vec![(Progressed, 1); 100];
        toy.present = [true, false, false];
        drive(&mut toy, Watchdog::new(100)).unwrap();
        assert_eq!(toy.moves(), [0, 3, 0]);
    }

    #[test]
    fn a_run_that_cannot_move_deadlocks_naming_its_live_engines() {
        let mut toy = Toy::new([0, 7, 9, 0], [&[(Done, 0)], &[], &[], &[]]);
        match drive(&mut toy, Watchdog::new(100)) {
            Err(SimError::Deadlock { detail, at }) => {
                assert_eq!(detail, "toy driver wedged; live engines: e1, e2");
                assert_eq!(at, 9);
            }
            other => panic!("expected a deadlock, got {other:?}"),
        }
    }

    #[test]
    fn the_step_bound_and_the_cycle_budget_stop_the_run() {
        let spin = [(Progressed, 10); 100];
        let mut toy = Toy::new([0; 4], [&spin, &[], &[], &[]]);
        let wedged = drive(&mut toy, Watchdog::new(3));
        assert_eq!(
            wedged,
            Err(SimError::Wedged {
                engine: "toy driver",
                at: 30,
                steps: 4
            })
        );
        let mut toy = Toy::new([0; 4], [&spin, &[], &[], &[]]);
        let budget = Watchdog::new(u64::MAX).with_cycle_budget(Some(25));
        assert_eq!(
            drive(&mut toy, budget),
            Err(SimError::CycleBudget { budget: 25, at: 30 })
        );
    }

    #[test]
    fn the_result_is_the_latest_clock_of_any_agent() {
        let mut toy = Toy::new([0, 7, 100, 40], [&[(Done, 5)], &[(Done, 0)], &[], &[]]);
        toy.present[2] = false;
        assert_eq!(drive(&mut toy, Watchdog::new(100)), Ok(40));
    }
}
