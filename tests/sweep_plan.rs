//! The sweep's plan names every point its render looks up. For each
//! section alone and for the full default set, at 1, 2, 4 and 8 workers, a
//! cold sweep on a fresh cache misses exactly the distinct points it
//! planned — each simulates once, in the one fan-out, and the render finds
//! every lookup cached — and a warm rerun on that cache misses nothing.
//!
//! A sweep's worker count is its own: `run_sweep` leaves the process-wide
//! default as it found it, so one served request cannot change the width
//! of a concurrent one.

use std::collections::BTreeSet;

use memcomm_bench::runner::{run_sweep, SweepOptions, SECTIONS};
use memcomm_machines::memo::{self, MemoCache};
use memcomm_util::par;

fn small(jobs: usize, sections: BTreeSet<String>) -> SweepOptions {
    SweepOptions {
        jobs,
        micro_words: 1024,
        exchange_words: 256,
        sections,
        ..SweepOptions::default()
    }
}

#[test]
fn a_cold_sweep_misses_exactly_its_planned_points() {
    let alone = SECTIONS
        .iter()
        .map(|&key| BTreeSet::from([key.to_string()]));
    for sections in alone.chain([BTreeSet::new()]) {
        for jobs in [1, 2, 4, 8] {
            let what = format!("{sections:?} at jobs {jobs}");
            let opts = small(jobs, sections.clone());
            let cache = MemoCache::unbounded();
            let _memo = memo::install(&cache);

            let (cold_report, cold) = run_sweep(&opts);
            assert!(
                cold_report.sections.iter().all(|s| s.ok),
                "{what}: {:?}",
                cold_report.sections
            );
            assert_eq!(cold.cache.misses, cold.planned, "{what}: cold {cold:?}");
            assert_eq!(cold.cache.entries, cold.planned, "{what}: one entry each");

            let (warm_report, warm) = run_sweep(&opts);
            assert_eq!(warm.cache.misses, 0, "{what}: warm {warm:?}");
            assert_eq!(warm.planned, cold.planned, "{what}: the plan is stable");
            assert_eq!(
                warm_report.to_json().render(),
                cold_report.to_json().render(),
                "{what}: warm bytes"
            );
        }
    }
}

#[test]
fn a_sweep_leaves_the_process_wide_worker_count_alone() {
    let before = par::jobs();
    for jobs in [1, before + 3] {
        run_sweep(&small(jobs, BTreeSet::from(["table1".to_string()])));
        assert_eq!(par::jobs(), before, "a jobs-{jobs} sweep changed it");
    }
}
