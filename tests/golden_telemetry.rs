//! Golden-file regression tests for the telemetry exporters: the seeded
//! 64-node incast under the default fault storm, sampled every 64 cycles,
//! is pinned three ways —
//!
//! * `tests/golden/telemetry.om`: the OpenMetrics text exposition
//!   (registry counters plus the engine's named time-series), exactly
//!   what `repro --adversary ... --metrics-out` writes;
//! * `tests/golden/heatmap.json`: the deterministic heatmap JSON
//!   (per-link busy ppm, per-node utilization and occupancy rollups);
//! * `tests/golden/heatmap.txt`: the ASCII grids `repro --heatmap`
//!   prints (a 4×4×4 torus, so the plane rendering is exercised too).
//!
//! The pins are self-regenerating — if a deliberate engine or exporter
//! change moves these bytes, regenerate all three with:
//!
//! ```text
//! MEMCOMM_UPDATE_GOLDEN=1 cargo test --test golden_telemetry
//! ```

use memcomm_bench::adversary::{run_scenario, scenario_json, ScenarioOptions};
use memcomm_netsim::heatmap;
use memcomm_netsim::AdversaryKind;
use memcomm_obs::{openmetrics, Obs};

const SAMPLE_EVERY: u64 = 64;

fn golden_path(name: &str) -> String {
    format!("{}/tests/golden/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// Runs the pinned scenario and renders all three artifacts.
fn artifacts() -> (String, String, String) {
    // jobs/shards are pinned: the registry's per-shard diagnostic gauges
    // (engine.shards, engine.shardN.peak_queued) legitimately reflect the
    // actual fan-out, and auto mode sizes it from the host's core count.
    // Everything telemetry-derived is fan-out invariant regardless (the
    // partition-invariance test below proves it).
    let opts = ScenarioOptions {
        nodes: Some(64),
        sample_every: SAMPLE_EVERY,
        jobs: 1,
        shards: 1,
        ..ScenarioOptions::new(AdversaryKind::Incast)
    };
    // A fresh registry-only observer, exactly as `repro --adversary`
    // installs one: the exposition covers only this scenario's counters.
    let obs = Obs::new(false);
    let _guard = obs.install();
    let scenario = run_scenario(&opts).expect("scenario runs");
    let out = &scenario.run.outcome;
    let tel = out
        .telemetry
        .as_ref()
        .expect("sampling was armed, telemetry present");

    let snapshot = obs.metrics_snapshot().expect("registry is enabled");
    let om = openmetrics::render(&snapshot, &tel.named_series());
    let heat = heatmap::heatmap_json(&scenario.topo, tel, out.cycles).render();
    let grids = heatmap::render_grids(&scenario.topo, tel, out.cycles);
    (om, heat, grids)
}

fn check(name: &str, got: &str) {
    let path = golden_path(name);
    if std::env::var_os("MEMCOMM_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, got).expect("golden regenerated");
        eprintln!("regenerated {path}");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("golden file present");
    assert_eq!(
        got, golden,
        "telemetry artifact drifted from tests/golden/{name} \
         (regenerate with MEMCOMM_UPDATE_GOLDEN=1 cargo test --test golden_telemetry)"
    );
}

#[test]
fn telemetry_artifacts_match_the_golden_files() {
    let (om, heat, grids) = artifacts();

    // The exposition must be valid OpenMetrics in its own right — the same
    // gate CI applies through the `metricscheck` binary.
    let stats = openmetrics::validate(&om).expect("exposition validates");
    assert!(stats.families > 0 && stats.samples > 0);
    assert!(
        stats.counters > 0,
        "the storm's fault counters must be exposed"
    );
    assert!(stats.gauges > 0, "the engine series must be exposed");

    check("telemetry.om", &om);
    check("heatmap.json", &heat);
    check("heatmap.txt", &grids);
}

/// Strips the per-shard diagnostic families (`engine_shard*`) from an
/// exposition: they report the run's actual fan-out, which is the one
/// thing that legitimately varies across jobs × shards.
fn without_shard_diagnostics(om: &str) -> String {
    om.lines()
        .filter(|l| !l.contains("engine_shard"))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// The artifacts are partition-invariant: serial single-shard and fanned-out
/// sharded runs render the same three artifacts byte for byte, and the
/// scenario report itself matches across the grid (the engine-level
/// Telemetry equality test lives in netsim; this covers the exporters).
/// Only the exposition's per-shard diagnostics are allowed to differ —
/// they describe the fan-out itself.
#[test]
fn telemetry_artifacts_are_partition_invariant() {
    let run = |jobs: usize, shards: usize| {
        let opts = ScenarioOptions {
            nodes: Some(16),
            base_bytes: 64,
            sample_every: 8,
            jobs,
            shards,
            ..ScenarioOptions::new(AdversaryKind::Incast)
        };
        let obs = Obs::new(false);
        let _guard = obs.install();
        let scenario = run_scenario(&opts).expect("scenario runs");
        let out = &scenario.run.outcome;
        let tel = out.telemetry.as_ref().expect("telemetry present");
        let snapshot = obs.metrics_snapshot().expect("registry is enabled");
        (
            without_shard_diagnostics(&openmetrics::render(&snapshot, &tel.named_series())),
            heatmap::heatmap_json(&scenario.topo, tel, out.cycles).render(),
            heatmap::render_grids(&scenario.topo, tel, out.cycles),
            scenario_json(&opts, &scenario).render(),
        )
    };
    let want = run(1, 1);
    for (jobs, shards) in [(4, 0), (2, 5)] {
        assert_eq!(
            run(jobs, shards),
            want,
            "jobs {jobs} x shards {shards} changed a telemetry artifact"
        );
    }
}
