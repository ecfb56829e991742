//! The sweep engine's core guarantee: a parallel run renders the same
//! report, byte for byte, as a serial one — and the measurement cache sees
//! real traffic while doing it.
//!
//! Everything lives in one `#[test]`: the sweeps share one ambient memo
//! handle (installed at the top, cleared between cold runs), so
//! interleaving several tests in one binary would race on its warmth.

use std::collections::BTreeSet;

use memcomm_bench::experiments::FaultSettings;
use memcomm_bench::runner::{run_sweep, SweepOptions};
use memcomm_machines::memo;

fn opts(jobs: usize) -> SweepOptions {
    // Cheap sections that still share basic-transfer points (the local-copy
    // transfers appear in calibration and Tables 1 and in Figure 4's
    // anchors), so the cache must both fill and hit.
    let sections: BTreeSet<String> = ["calibration", "table1", "table2", "table3", "figure4"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    SweepOptions {
        jobs,
        micro_words: 1024,
        exchange_words: 256,
        sections,
        ..SweepOptions::default()
    }
}

fn fault_opts(jobs: usize, settings: FaultSettings) -> SweepOptions {
    SweepOptions {
        jobs,
        micro_words: 1024,
        exchange_words: 256,
        sections: ["table1", "faults"].iter().map(|s| s.to_string()).collect(),
        faults: settings,
        ..SweepOptions::default()
    }
}

#[test]
fn parallel_sweep_is_byte_identical_to_serial() {
    // One ambient cache handle spans every sweep below (without it each
    // `run_sweep` would install its own fresh cache and the warm-rerun
    // assertions would be meaningless); `cache.clear()` empties it wherever
    // a run must start cold.
    let cache = memo::MemoCache::unbounded();
    let _memo_guard = memo::install(&cache);
    let (serial_report, serial_metrics) = run_sweep(&opts(1));
    let serial_json = serial_report.to_json().render();

    cache.clear();
    let (parallel_report, parallel_metrics) = run_sweep(&opts(4));
    let parallel_json = parallel_report.to_json().render();

    assert_eq!(
        serial_json, parallel_json,
        "parallel sweep must render byte-identical JSON"
    );
    assert_eq!(serial_metrics.points, parallel_metrics.points);

    // Both runs started from a cold cache and cover overlapping transfer
    // points, so both must record hits; and the parallel run must have
    // simulated each distinct point exactly once (same miss count as the
    // serial run would imply, modulo benign racing duplicates — which the
    // entry count rules out).
    assert!(
        parallel_metrics.cache.hit_rate() > 0.0,
        "parallel run saw no cache hits: {:?}",
        parallel_metrics.cache
    );
    assert!(serial_metrics.cache.hit_rate() > 0.0);
    assert_eq!(
        serial_metrics.cache.entries, parallel_metrics.cache.entries,
        "both runs must memoize the same distinct points"
    );

    // Determinism holds within a worker count too: re-running parallel
    // (now warm) still renders the same bytes.
    let (again, again_metrics) = run_sweep(&opts(4));
    assert_eq!(again.to_json().render(), parallel_json);
    // The warm run answers everything from the cache.
    assert_eq!(again_metrics.cache.misses, 0, "{again_metrics:?}");

    // --- Fault-plan determinism (the robustness section's contract) ---

    // A seeded fault plan is replayable: the same seed renders byte-identical
    // JSON whatever the worker count. Fault decisions are pure functions of
    // (site, index), so scheduling cannot reorder them into a different run.
    let seeded = FaultSettings {
        seed: 42,
        rate: 0.02,
        outage_rate: 0.005,
        ..FaultSettings::default()
    };
    cache.clear();
    let (faulted_serial, _) = run_sweep(&fault_opts(1, seeded));
    cache.clear();
    let (faulted_parallel, _) = run_sweep(&fault_opts(4, seeded));
    assert_eq!(
        faulted_serial.to_json().render(),
        faulted_parallel.to_json().render(),
        "a seeded fault plan must replay byte-identically at any worker count"
    );

    // A zero-rate plan is indistinguishable from no plan at all: the seed
    // must leave no trace in the report (it lives in RunMetrics only).
    let zero_rate = FaultSettings {
        seed: 0xDEAD_BEEF,
        ..FaultSettings::default()
    };
    cache.clear();
    let (with_seed, _) = run_sweep(&fault_opts(1, zero_rate));
    cache.clear();
    let (without, _) = run_sweep(&fault_opts(1, FaultSettings::default()));
    assert_eq!(
        with_seed.to_json().render(),
        without.to_json().render(),
        "a zero-fault configuration must be byte-identical to the faultless baseline"
    );

    // --- Observability is read-only (zero observational interference) ---

    // With tracing and a live metrics registry installed, the report (with
    // the opt-in phase-attribution section included) must still render the
    // same bytes at any worker count; and a traced run must match an
    // untraced one section for section.
    let traced = |jobs: usize, trace: bool| {
        let observed = SweepOptions {
            phases: true,
            ..opts(jobs)
        };
        let obs = memcomm_obs::Obs::new(trace);
        let _guard = obs.install();
        cache.clear();
        let (report, _) = run_sweep(&observed);
        (report.to_json().render(), obs)
    };
    let (traced_serial, obs_serial) = traced(1, true);
    let (traced_parallel, obs_parallel) = traced(4, true);
    assert_eq!(
        traced_serial, traced_parallel,
        "tracing must not perturb the report at any worker count"
    );
    assert!(
        obs_serial.trace_len() > 0 && obs_parallel.trace_len() > 0,
        "both runs must actually have recorded spans"
    );
    let (untraced, _) = traced(1, false);
    assert_eq!(
        traced_serial, untraced,
        "a traced run must render the same report as an untraced one"
    );
    assert!(
        traced_serial.contains("\"phases\""),
        "the opt-in phase attribution must be present in these runs"
    );
}

/// The adversary scenario's observability contract: running under a live
/// trace-recording registry renders byte-identical scenario JSON to an
/// unobserved run, with the telemetry sampler both off and armed; and
/// arming the sampler only *appends* the telemetry section — the
/// unsampled report's bytes survive as an exact prefix. Safe outside the
/// mega-test above: the scenario takes its worker count explicitly and
/// never touches the memo cache.
#[test]
fn adversary_scenario_json_is_trace_invariant() {
    use memcomm_bench::adversary::{run_scenario, scenario_json, ScenarioOptions};
    use memcomm_netsim::AdversaryKind;

    let render = |sample_every: u64, obs: Option<bool>| {
        let handle = memcomm_obs::Obs::new(obs.unwrap_or(false));
        let guard = obs.map(|_| handle.install());
        let opts = ScenarioOptions {
            nodes: Some(16),
            base_bytes: 64,
            sample_every,
            ..ScenarioOptions::new(AdversaryKind::Incast)
        };
        let s = run_scenario(&opts).expect("scenario runs");
        let json = scenario_json(&opts, &s).render();
        drop(guard);
        json
    };

    let plain = render(0, None);
    assert!(!plain.contains("telemetry"));
    assert_eq!(
        render(0, Some(true)),
        plain,
        "tracing must not perturb the unsampled scenario report"
    );
    let sampled = render(64, None);
    assert_eq!(
        render(64, Some(true)),
        sampled,
        "tracing must not perturb the sampled scenario report"
    );
    assert_eq!(
        render(64, Some(false)),
        sampled,
        "a registry-only observer must not perturb the sampled report"
    );
    // Sampling only *appends*: strip the closing `\n}\n` and the unsampled
    // report's bytes survive verbatim, continued by the telemetry key.
    let base = plain.strip_suffix("\n}\n").expect("rendered object");
    assert!(
        sampled.starts_with(base),
        "sampling must keep the unsampled report's exact bytes as a prefix"
    );
    assert!(
        sampled[base.len()..].starts_with(",\n  \"telemetry\""),
        "sampling must continue the report with the telemetry section"
    );
}

/// The event engine's determinism contract, end to end through the bench
/// layer: the engine Table 6 section renders byte-identical JSON at any
/// shard worker count. This can live outside the mega-test above because
/// the engine takes its worker count explicitly — it never reads the
/// process-wide setting these sweeps mutate.
#[test]
fn engine_section_is_byte_identical_across_worker_counts() {
    use memcomm_bench::experiments::{engine_table6, EngineSettings};
    use memcomm_bench::runner::FullReport;

    let settings = |jobs| EngineSettings {
        nodes: 8,
        transpose_n: 128,
        sor_n: 128,
        jobs,
        shards: 0,
    };
    let render = |jobs| {
        let report = FullReport {
            engine_table6: engine_table6(&settings(jobs)).expect("engine runs"),
            ..FullReport::default()
        };
        report.to_json().render()
    };
    let serial = render(1);
    let parallel = render(4);
    assert_eq!(
        serial, parallel,
        "engine rows must render byte-identically at jobs=1 and jobs=4"
    );
    assert!(
        serial.contains("\"engine_table6\""),
        "the engine key must be present when rows exist"
    );
    // And absent otherwise: the default report keeps its exact bytes.
    assert!(
        !FullReport::default()
            .to_json()
            .render()
            .contains("engine_table6"),
        "an engine-less report must not mention the engine"
    );
}
