//! The co-simulation driver every two-node run shares.
//!
//! A run is a fixed set of agents, each with a local clock and a step: its
//! engines (processors, DMA queues, deposit engines, protocol ends) are
//! agents `0..ENGINES.len()`, its links follow. [`drive`] applies one rule
//! until no engine is live: step the earliest agent that can move, the
//! least `(clock, id)` whose step is not [`Step::Blocked`].

use memcomm_memsim::clock::Cycle;
use memcomm_memsim::engines::Step;
use memcomm_memsim::node::Watchdog;
use memcomm_memsim::{SimError, SimResult};

/// The agents of one co-simulated run.
pub(crate) trait Agents {
    /// The driver's name in [`SimError::Wedged`] and deadlock errors.
    const DRIVER: &'static str;
    /// Engine names, by id.
    const ENGINES: &'static [&'static str];
    /// Links, numbered after the engines.
    const LINKS: usize;

    /// Whether engine `id` takes part in the run; an absent engine never
    /// joins, and its clock is never read.
    fn present(&self, _id: usize) -> bool {
        true
    }

    /// Agent `id`'s local clock.
    fn time_of(&self, id: usize) -> Cycle;

    /// Advances agent `id` by one step.
    fn step(&mut self, id: usize) -> SimResult<Step>;
}

/// Most agents a run may have.
const MAX_AGENTS: usize = 16;

/// Runs `agents` to completion and returns the latest clock of any agent.
///
/// Each step goes to the earliest agent that can move: candidates are the
/// live engines and every link, tried in `(clock, id)` order (ties to the
/// lower id) until one does not return [`Step::Blocked`]. An engine leaves
/// when its step returns [`Step::Done`]; links run while any engine is
/// live. `watchdog` ticks before every step, at the latest engine clock.
///
/// # Errors
///
/// [`SimError::Deadlock`] naming the live engines when none of the
/// candidates can move, the watchdog's [`SimError::Wedged`] and
/// [`SimError::CycleBudget`], and whatever a step returns.
pub(crate) fn drive<A: Agents>(agents: &mut A, mut watchdog: Watchdog) -> SimResult<Cycle> {
    const { assert!(A::ENGINES.len() + A::LINKS <= MAX_AGENTS) };
    let engines = A::ENGINES.len();
    let links = engines..engines + A::LINKS;
    let ids = move |mask: u32| (0..engines).filter(move |&id| mask & 1 << id != 0);
    let present = ids(u32::MAX)
        .filter(|&id| agents.present(id))
        .fold(0, |mask, id| mask | 1 << id);
    let latest = |agents: &A| ids(present).map(|id| agents.time_of(id)).max().unwrap_or(0);
    let mut live = present;
    let mut order = [(0, 0); MAX_AGENTS];
    while live != 0 {
        watchdog.tick_with(A::DRIVER, || latest(agents))?;
        let mut n = 0;
        for id in ids(live) {
            order[n] = (agents.time_of(id), id);
            n += 1;
        }
        for id in links.clone() {
            order[n] = (agents.time_of(id), id);
            n += 1;
        }
        order[..n].sort_unstable();
        let mut moved = false;
        for &(_, id) in &order[..n] {
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

#[cfg(test)]
mod tests {
    use super::*;

    use Step::{Blocked, Done, Progressed};

    /// Three engines and one link (agent 3), each replaying a script of
    /// `(step, clock advance)` and then blocking; every step call is logged.
    struct Toy {
        clocks: [Cycle; 4],
        scripts: [Vec<(Step, Cycle)>; 4],
        present: [bool; 3],
        log: Vec<(usize, Step)>,
    }

    impl Toy {
        fn new(clocks: [Cycle; 4], scripts: [&[(Step, Cycle)]; 4]) -> Toy {
            Toy {
                clocks,
                scripts: scripts.map(|s| s.iter().rev().copied().collect()),
                present: [true; 3],
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
        const LINKS: usize = 1;

        fn present(&self, id: usize) -> bool {
            self.present[id]
        }

        fn time_of(&self, id: usize) -> Cycle {
            self.clocks[id]
        }

        fn step(&mut self, id: usize) -> SimResult<Step> {
            let (step, advance) = self.scripts[id].pop().unwrap_or((Blocked, 0));
            self.clocks[id] += advance;
            self.log.push((id, step));
            Ok(step)
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
