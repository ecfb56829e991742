//! Golden-file regression test for the adversarial-resilience scenario:
//! the seeded 256-node incast under the default fault storm (2% drops +
//! transient link-outage windows, retry budget 4 with exponential
//! backoff) is pinned byte for byte — the full resilience ledger, the
//! event digest, and the per-class p50/p99/p999 latency quantiles.
//!
//! The scenario is deterministic and independent of the worker and shard
//! counts; the test proves that too by re-running at pinned fan-outs. If
//! a deliberate engine or generator change moves these bytes, regenerate:
//!
//! ```text
//! MEMCOMM_UPDATE_GOLDEN=1 cargo test --test golden_adversary
//! ```

use memcomm_bench::adversary::{run_scenario, scenario_json, ScenarioOptions};
use memcomm_netsim::AdversaryKind;

fn golden_options() -> ScenarioOptions {
    ScenarioOptions {
        nodes: Some(256),
        ..ScenarioOptions::new(AdversaryKind::Incast)
    }
}

/// Compares `got` with the pinned bytes, or rewrites them under
/// `MEMCOMM_UPDATE_GOLDEN=1`.
fn check(got: &str, what: &str) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/adversary.json");
    if std::env::var_os("MEMCOMM_UPDATE_GOLDEN").is_some() {
        std::fs::write(path, got).expect("golden regenerated");
        eprintln!("regenerated {path}");
        return;
    }
    let golden = std::fs::read_to_string(path).expect("golden file present");
    assert_eq!(
        got, golden,
        "{what} drifted from tests/golden/adversary.json \
         (regenerate with MEMCOMM_UPDATE_GOLDEN=1 cargo test --test golden_adversary)"
    );
}

#[test]
fn incast_storm_scenario_matches_the_golden_file() {
    let opts = golden_options();
    let scenario = run_scenario(&opts).expect("scenario runs");
    let out = &scenario.run.outcome;
    assert!(out.dropped > 0, "the storm must actually drop words");
    assert_eq!(
        out.dropped,
        out.retried + out.abandoned,
        "every drop is retransmitted or accounted as abandoned"
    );
    check(
        &scenario_json(&opts, &scenario).render(),
        "adversary scenario",
    );
}

#[test]
fn golden_scenario_is_partition_invariant() {
    for (jobs, shards) in [(1, 1), (4, 0)] {
        let opts = ScenarioOptions {
            jobs,
            shards,
            ..golden_options()
        };
        let scenario = run_scenario(&opts).expect("scenario runs");
        check(
            &scenario_json(&opts, &scenario).render(),
            &format!("the scenario at jobs {jobs} x shards {shards}"),
        );
    }
}
