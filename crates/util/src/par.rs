//! Order-preserving parallel map over scoped threads, a barrier-stepped
//! worker group, and a process-wide default worker count.
//!
//! The sweep engine fans its distinct simulation points out across cores
//! with [`par_map`], passing its own worker count. Results come back in
//! input order regardless of worker scheduling, so a parallel sweep is
//! bit-identical to the serial one — the property the equivalence tests
//! assert. The event engine steps its shards through thousands of short
//! windows with [`par_rounds`], which keeps one group of threads for the
//! whole run.
//!
//! Worker threads start with fresh thread-local state: work that reads a
//! handle installed on the calling thread installs it itself.

use std::any::Any;
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Barrier, Mutex, PoisonError};

static DEFAULT_JOBS: AtomicUsize = AtomicUsize::new(1);

/// Sets the process-wide default worker count: what a caller that passes
/// no count of its own reads through [`jobs`] (the event engine, when its
/// configured worker count is 0). `0` or `1` mean serial execution.
pub fn set_jobs(jobs: usize) {
    DEFAULT_JOBS.store(jobs.max(1), Ordering::Relaxed);
}

/// The current process-wide default worker count.
pub fn jobs() -> usize {
    DEFAULT_JOBS.load(Ordering::Relaxed)
}

/// A reasonable worker count for this host.
pub fn available_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Maps `f` over `items` with up to `jobs` worker threads, returning the
/// results in input order. With `jobs <= 1` (or one item) this runs inline
/// on the calling thread, so the serial path involves no threading at all.
///
/// # Panics
///
/// Propagates the first worker panic.
pub fn par_map<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let jobs = jobs.clamp(1, items.len().max(1));
    if jobs <= 1 {
        return items.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let parts: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else {
                            break;
                        };
                        out.push((i, f(item)));
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(part) => part,
                // Re-raise the worker's own payload so callers catching the
                // panic see the original message, not a generic wrapper.
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    let mut slots: Vec<Option<R>> = (0..items.len()).map(|_| None).collect();
    for part in parts {
        for (i, r) in part {
            slots[i] = Some(r);
        }
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every index computed exactly once"))
        .collect()
}

/// Runs `work` over every item in barrier-separated rounds on one worker
/// group: `jobs - 1` helper threads spawned once for the whole call, plus
/// the calling thread working as the last member. Round `r` calls
/// `work(r, item)` for each item, handed out in `chunk`-sized blocks (one
/// `fetch_add` per block, so hundreds of cheap items do not serialize on
/// the counter). After each round every helper parks at the barrier while
/// `between(r)` runs alone on the calling thread — it may touch whatever
/// the items guard — and the group winds down once it returns `false`.
///
/// This is for a loop of many short parallel steps, such as the event
/// engine's conservative windows, where spawning threads per step would
/// cost more than the step.
///
/// # Panics
///
/// A panic in any member's round — the caller's own included — ends the
/// group after that round and is re-raised on the calling thread with its
/// original payload once every helper has been released and joined; a
/// panic in `between` releases the helpers the same way. No thread is ever
/// left blocked at the barrier.
pub fn par_rounds<T, F, B>(jobs: usize, chunk: usize, items: &[T], work: F, mut between: B)
where
    T: Sync,
    F: Fn(u64, &T) + Sync,
    B: FnMut(u64) -> bool,
{
    let jobs = jobs.clamp(1, items.len().max(1));
    if jobs <= 1 {
        let mut round = 0;
        loop {
            items.iter().for_each(|item| work(round, item));
            if !between(round) {
                return;
            }
            round += 1;
        }
    }
    let chunk = chunk.max(1);
    // The claim counter and the stop flag publish nothing but themselves;
    // the barrier orders their resets and reads between rounds.
    let next = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let failure: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    let barrier = Barrier::new(jobs);
    let share = |round: u64| {
        let claimed = std::panic::catch_unwind(AssertUnwindSafe(|| loop {
            let lo = next.fetch_add(chunk, Ordering::Relaxed);
            if lo >= items.len() {
                break;
            }
            let hi = (lo + chunk).min(items.len());
            items[lo..hi].iter().for_each(|item| work(round, item));
        }));
        if let Err(payload) = claimed {
            let mut first = failure.lock().unwrap_or_else(PoisonError::into_inner);
            first.get_or_insert(payload);
        }
    };
    std::thread::scope(|scope| {
        for _ in 1..jobs {
            scope.spawn(|| {
                for round in 0.. {
                    barrier.wait();
                    if stop.load(Ordering::Relaxed) {
                        return;
                    }
                    share(round);
                    barrier.wait();
                }
            });
        }
        // Dropped on every way out of the loop, unwinding included: the
        // helpers are parked at the round-start barrier by then.
        let _release = Release {
            stop: &stop,
            barrier: &barrier,
        };
        for round in 0.. {
            next.store(0, Ordering::Relaxed);
            barrier.wait();
            share(round);
            barrier.wait();
            let failed = failure
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .is_some();
            if failed || !between(round) {
                break;
            }
        }
    });
    if let Some(payload) = failure.into_inner().unwrap_or_else(PoisonError::into_inner) {
        std::panic::resume_unwind(payload);
    }
}

/// Lets a [`par_rounds`] group's parked helpers out of the round-start
/// barrier for good.
struct Release<'a> {
    stop: &'a AtomicBool,
    barrier: &'a Barrier,
}

impl Drop for Release<'_> {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        self.barrier.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..257).collect();
        let serial = par_map(1, &items, |&x| x * x);
        let parallel = par_map(8, &items, |&x| x * x);
        assert_eq!(serial, parallel);
        assert_eq!(parallel[100], 10_000);
    }

    #[test]
    fn rounds_match_serial_par_map() {
        let items: Vec<u64> = (0..1003).collect();
        let f = |round: u64, x: u64| x * 3 + round;
        for jobs in [1, 2, 5] {
            // A zero chunk degrades to per-item claiming, never a spin.
            for chunk in [0, 1, 2, 7, 64, 2048] {
                let slots: Vec<AtomicU64> = items.iter().map(|_| AtomicU64::new(0)).collect();
                let mut rounds = 0;
                par_rounds(
                    jobs,
                    chunk,
                    &items,
                    |round, &x| slots[x as usize].store(f(round, x), Ordering::Relaxed),
                    |round| {
                        let got: Vec<u64> =
                            slots.iter().map(|s| s.swap(0, Ordering::Relaxed)).collect();
                        let want = par_map(1, &items, |&x| f(round, x));
                        assert_eq!(got, want, "jobs {jobs} chunk {chunk} round {round}");
                        rounds += 1;
                        round < 3
                    },
                );
                assert_eq!(rounds, 4, "jobs {jobs} chunk {chunk}");
            }
        }
    }

    /// Where [`panicking_group`] makes its group fail.
    #[derive(Clone, Copy, PartialEq)]
    enum FailIn {
        Helper,
        Caller,
        Between,
    }

    /// Runs a 5-member group on a scratch thread that panics in round 2 at
    /// `site`, and returns the payload the caller saw — failing instead of
    /// hanging if any member is left blocked at the barrier (the scope
    /// joins every helper before the call can return).
    fn panicking_group(site: FailIn) -> String {
        const JOBS: usize = 5;
        let (tx, rx) = std::sync::mpsc::channel();
        let scratch = std::thread::spawn(move || {
            let caller = std::thread::current().id();
            let items: Vec<u32> = (0..JOBS as u32).collect();
            // Every member claims one item and meets the others before
            // going on, so each member holds exactly one item of the round.
            let meet = Barrier::new(JOBS);
            let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
                par_rounds(
                    JOBS,
                    1,
                    &items,
                    |round, _| {
                        if round != 2 || site == FailIn::Between {
                            return;
                        }
                        meet.wait();
                        let on_caller = std::thread::current().id() == caller;
                        if on_caller == (site == FailIn::Caller) {
                            panic!("boom in round {round}");
                        }
                    },
                    |round| {
                        assert!(
                            round < 2 || site != FailIn::Between,
                            "boom in round {round}"
                        );
                        assert!(round < 2, "the group ran past the failed round");
                        true
                    },
                );
            }));
            let message = match outcome {
                Ok(()) => "no panic".to_string(),
                Err(payload) => payload
                    .downcast_ref::<String>()
                    .cloned()
                    .unwrap_or_else(|| "a payload that is not a String".to_string()),
            };
            tx.send(message).expect("the test thread is waiting");
        });
        let message = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("a failing round must not leave the group blocked");
        scratch
            .join()
            .expect("the scratch thread caught every panic");
        message
    }

    #[test]
    fn failing_rounds_surface_their_payload_and_release_every_member() {
        for site in [FailIn::Helper, FailIn::Caller, FailIn::Between] {
            assert_eq!(panicking_group(site), "boom in round 2");
        }
    }

    #[test]
    fn handles_edge_sizes() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(4, &empty, |&x| x).is_empty());
        assert_eq!(par_map(4, &[7u32], |&x| x + 1), vec![8]);
        assert_eq!(par_map(16, &[1u32, 2], |&x| x), vec![1, 2]);
    }

    #[test]
    fn default_jobs_round_trip() {
        set_jobs(3);
        assert_eq!(jobs(), 3);
        set_jobs(0);
        assert_eq!(jobs(), 1, "zero clamps to serial");
        set_jobs(1);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        let items: Vec<u32> = (0..64).collect();
        let _ = par_map(4, &items, |&x| {
            assert!(x != 33, "boom");
            x
        });
    }
}
