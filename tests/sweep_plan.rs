//! The sweep's plan names every point its render looks up. For each
//! section alone and for the full default set, at 1, 2, 4 and 8 workers, a
//! cold sweep on a fresh cache misses exactly the distinct points it
//! planned — each simulates once, in the one fan-out, and the render finds
//! every lookup cached — and a warm rerun on that cache misses nothing.
//! The plan's size is pinned per section, so a recording that gains a
//! point fails as surely as one that misses one.
//!
//! A run's simulation and fault counters count its own simulations, each
//! once: a cold run under a seeded fault plan counts the same at every
//! worker count, and a warm rerun, which simulates nothing, counts
//! nothing, while the other test here sweeps concurrently in the same
//! process.
//!
//! A fault plan that cannot fire keys its grid without its seed: a
//! zero-rate grid under a new seed is a warm rerun of the last one.
//!
//! A sweep's worker count is its own: `run_sweep` leaves the process-wide
//! default as it found it, so one served request cannot change the width
//! of a concurrent one.

use std::collections::BTreeSet;

use memcomm_bench::experiments::FaultSettings;
use memcomm_bench::runner::{run_sweep, SweepOptions, SECTIONS};
use memcomm_machines::memo::{self, MemoCache};
use memcomm_util::par;

/// The distinct points each section looks up alone at [`small`] sizes, in
/// [`SECTIONS`] order.
const PLANNED: [(&str, u64); 16] = [
    ("calibration", 28),
    ("figure1", 28),
    ("table1", 10),
    ("table2", 8),
    ("table3", 12),
    ("figure4", 52),
    ("table4", 12),
    ("figure7", 76),
    ("figure8", 76),
    ("table5", 8),
    ("section341", 59),
    ("table6", 68),
    ("putget", 12),
    ("scaling", 15),
    ("accuracy", 152),
    ("faults", 12),
];

/// The distinct points of the full default set at [`small`] sizes.
const PLANNED_ALL: u64 = 271;

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
    assert_eq!(PLANNED.map(|(key, _)| key), SECTIONS);
    let alone = PLANNED
        .iter()
        .map(|&(key, planned)| (BTreeSet::from([key.to_string()]), planned));
    for (sections, planned) in alone.chain([(BTreeSet::new(), PLANNED_ALL)]) {
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
            assert_eq!(cold.planned, planned, "{what}: the plan's size");
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
fn a_run_counts_its_own_simulations_once() {
    // Every default section, under a seeded fault plan.
    let opts = |jobs| SweepOptions {
        faults: FaultSettings {
            seed: 42,
            rate: 0.02,
            ..FaultSettings::default()
        },
        ..small(jobs, BTreeSet::new())
    };
    let mut first_cold = None;
    for jobs in [1, 2, 4, 8] {
        let cache = MemoCache::unbounded();
        let _memo = memo::install(&cache);

        let (_, cold) = run_sweep(&opts(jobs));
        assert!(
            cold.sim.measurements > 0 && cold.sim.measurements <= cold.planned,
            "jobs {jobs}: at most one simulation per planned point: {cold:?}"
        );
        assert!(cold.faults.injected > 0, "jobs {jobs}: the plan fires");
        assert_eq!(
            *first_cold.get_or_insert((cold.sim, cold.faults)),
            (cold.sim, cold.faults),
            "jobs {jobs}"
        );

        let (_, warm) = run_sweep(&opts(jobs));
        assert_eq!(warm.cache.misses, 0, "jobs {jobs}");
        let (s, f) = (warm.sim, warm.faults);
        assert_eq!(
            [
                s.cycles,
                s.words,
                s.measurements,
                s.drive_steps,
                s.drive_blocked,
                f.injected,
                f.retried,
                f.degraded,
                f.dropped
            ],
            [0; 9],
            "jobs {jobs}: a warm rerun simulates nothing"
        );
    }
}

#[test]
fn a_zero_rate_fault_grid_hits_whatever_its_seed() {
    let opts = |seed| SweepOptions {
        faults: FaultSettings {
            seed,
            ..FaultSettings::default()
        },
        ..small(2, BTreeSet::from(["faults".to_string()]))
    };
    let cache = MemoCache::unbounded();
    let _memo = memo::install(&cache);
    let (first, cold) = run_sweep(&opts(1));
    assert_eq!(cold.cache.misses, 12, "seed 1: {cold:?}");
    let (second, warm) = run_sweep(&opts(2));
    assert_eq!(warm.cache.misses, 0, "seed 2: {warm:?}");
    assert_eq!(second.to_json().render(), first.to_json().render());
}

#[test]
fn a_sweep_leaves_the_process_wide_worker_count_alone() {
    let before = par::jobs();
    for jobs in [1, before + 3] {
        run_sweep(&small(jobs, BTreeSet::from(["table1".to_string()])));
        assert_eq!(par::jobs(), before, "a jobs-{jobs} sweep changed it");
    }
}
