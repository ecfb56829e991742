//! The `repro --adversary` resilience scenario: a seeded adversarial
//! traffic generator compiled onto the (optionally scaled) T3D torus and
//! run end to end through the event engine under a fault storm — word
//! drops plus transient link-outage windows — with bounded per-hop
//! retries and exponential backoff.
//!
//! The scenario's results are byte-deterministic at any worker × shard
//! count: [`scenario_json`] renders the full resilience ledger (drops,
//! retransmissions, abandonments, degraded accounting, per-class
//! inject→eject latency quantiles) with no wall-clock data, so a golden
//! file can pin it exactly (`tests/golden/adversary.json` does).

use memcomm_kernels::netrun::{self, AdversaryRun, EngineOptions};
use memcomm_machines::Machine;
use memcomm_memsim::fault::{FaultConfig, FaultPlan};
use memcomm_memsim::SimResult;
use memcomm_netsim::adversary::CLASS_NAMES;
use memcomm_netsim::engine::RetryPolicy;
use memcomm_netsim::{AdversaryConfig, AdversaryKind};
use memcomm_util::json::Json;

/// What to run: the generator, its scale, and the storm around it. The
/// [`ScenarioOptions::new`] defaults are the acceptance configuration —
/// a 2% drop rate with transient link outages, a retry budget of 4 with
/// exponential backoff — and every field maps to a `repro` flag.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioOptions {
    /// Traffic pattern to compile.
    pub kind: AdversaryKind,
    /// Generator base payload, in bytes (`--adversary-bytes`).
    pub base_bytes: u64,
    /// Scaled node count (`--nodes`; `None` = the machine's own).
    pub nodes: Option<usize>,
    /// Engine shard count (`--shards`; 0 = auto). Never changes results.
    pub shards: usize,
    /// Worker threads (`--jobs`; 0 = process-wide). Never changes results.
    pub jobs: usize,
    /// Fault-plan seed (`--faults SEED`).
    pub seed: u64,
    /// Word-drop probability (`--fault-rate`; 0 disables the whole storm,
    /// including outage windows).
    pub rate: f64,
    /// Telemetry sampling interval in cycles (`--sample-every`; 0 = off).
    /// Never changes results — sampling only adds a `telemetry` section to
    /// the report.
    pub sample_every: u64,
}

impl ScenarioOptions {
    /// The default storm around `kind`: seed `0xAD0BE5`, 2% drops with
    /// transient link outages, 256-byte base payloads, auto fan-out.
    pub fn new(kind: AdversaryKind) -> Self {
        ScenarioOptions {
            kind,
            base_bytes: 256,
            nodes: None,
            shards: 0,
            jobs: 0,
            seed: 0xAD_0BE5,
            rate: 0.02,
            sample_every: 0,
        }
    }

    /// The fault plan the scenario runs under: word drops at [`rate`]
    /// plus transient link-outage windows whenever drops are enabled at
    /// all (a zero rate turns the whole plan off, making the run a
    /// faultless tail-latency measurement).
    ///
    /// [`rate`]: ScenarioOptions::rate
    pub fn fault_plan(&self) -> FaultPlan {
        FaultPlan::new(FaultConfig {
            seed: self.seed,
            rate: self.rate,
            outage_window_rate: if self.rate > 0.0 { 0.2 } else { 0.0 },
            outage_window_cycles: 512,
            outage_period_cycles: 1 << 12,
            ..FaultConfig::default()
        })
    }

    /// The retry policy the scenario runs under: a budget of 4 per-hop
    /// retransmissions with exponential backoff `16 << attempt`, capped
    /// at 1024 cycles.
    pub fn retry_policy(&self) -> RetryPolicy {
        RetryPolicy {
            max_retries: 4,
            backoff_base_cycles: 16,
            backoff_factor: 2,
            max_backoff_cycles: 1 << 10,
        }
    }
}

/// A completed scenario: the resolved node count plus the engine run.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Nodes the topology actually has after scaling.
    pub nodes: usize,
    /// The scaled torus the scenario ran on (heatmaps render over it).
    pub topo: memcomm_netsim::Topology,
    /// The compiled flow count and engine outcome.
    pub run: AdversaryRun,
}

/// Runs the scenario on the T3D.
///
/// # Errors
///
/// Propagates topology-scaling and engine failures. A run the storm
/// wedges is *not* an error: the outcome carries
/// [`Degraded`](memcomm_netsim::engine::Degraded) accounting instead.
pub fn run_scenario(opts: &ScenarioOptions) -> SimResult<Scenario> {
    let machine = Machine::t3d();
    let adv = AdversaryConfig {
        kind: opts.kind,
        base_bytes: opts.base_bytes,
        ..AdversaryConfig::default()
    };
    let eopts = EngineOptions {
        nodes: opts.nodes,
        jobs: opts.jobs,
        shards: opts.shards,
        sample_every: opts.sample_every,
        ..EngineOptions::default()
    };
    let topo = netrun::engine_topology(&machine, opts.nodes)?;
    let nodes = topo.len();
    let run = netrun::run_adversary(
        &machine,
        &adv,
        opts.fault_plan(),
        opts.retry_policy(),
        &eopts,
    )?;
    Ok(Scenario { nodes, topo, run })
}

/// Human name of latency class `i` (see [`CLASS_NAMES`]).
pub fn class_name(i: usize) -> String {
    CLASS_NAMES
        .get(i)
        .map_or_else(|| format!("class{i}"), |n| (*n).to_string())
}

/// Renders the scenario's machine-readable report. Byte-deterministic at
/// any jobs × shards: only simulation results, never wall-clock data.
/// With sampling off the bytes are identical to pre-telemetry reports;
/// with sampling on a trailing `telemetry` section is appended.
pub fn scenario_json(opts: &ScenarioOptions, s: &Scenario) -> Json {
    let out = &s.run.outcome;
    let mut pairs = vec![
        ("kind", Json::str(opts.kind.name())),
        ("nodes", (s.nodes as u64).into()),
        ("seed", opts.seed.into()),
        ("rate", opts.rate.into()),
        ("base_bytes", opts.base_bytes.into()),
        ("flows", s.run.flows.into()),
        ("words", out.words.into()),
        ("cycles", out.cycles.into()),
        ("flit_hops", out.flit_hops.into()),
        ("dropped", out.dropped.into()),
        ("retried", out.retried.into()),
        ("abandoned", out.abandoned.into()),
        ("digest", Json::Str(format!("{:016x}", out.digest))),
        (
            "degraded",
            out.degraded.as_ref().map_or(Json::Null, |d| {
                Json::obj([
                    (
                        "missing_words",
                        d.missing_flows.iter().map(|&(_, w)| w).sum::<u64>().into(),
                    ),
                    ("missing_flows", (d.missing_flows.len() as u64).into()),
                    ("last_progress_cycle", d.last_progress_cycle.into()),
                    ("outaged_links", (d.per_link_outages.len() as u64).into()),
                ])
            }),
        ),
        (
            "flow_latency",
            Json::arr(
                &out.flow_latency.iter().enumerate().collect::<Vec<_>>(),
                |(i, h)| {
                    Json::obj([
                        ("class", Json::Str(class_name(*i))),
                        ("count", h.count.into()),
                        ("p50", h.p50.into()),
                        ("p99", h.p99.into()),
                        ("p999", h.p999.into()),
                        ("max", h.max.into()),
                    ])
                },
            ),
        ),
    ];
    if let Some(tel) = &out.telemetry {
        pairs.push((
            "telemetry",
            Json::obj([
                ("sample_every", tel.sample_every.into()),
                ("ticks", tel.ticks.into()),
                (
                    "queue_depth_peak",
                    tel.queue_depth.peak().map_or(0, |(_, v)| v).into(),
                ),
                ("link_busy_total", tel.link_busy.total().into()),
                ("retries_total", tel.retries.total().into()),
                ("outages_total", tel.outages.total().into()),
                (
                    "breakdown",
                    Json::arr(
                        &tel.breakdown.iter().enumerate().collect::<Vec<_>>(),
                        |(i, b)| {
                            Json::obj([
                                ("class", Json::Str(class_name(*i))),
                                ("count", b.count.into()),
                                ("inject", b.inject.into()),
                                ("queue", b.queue.into()),
                                ("wire", b.wire.into()),
                                ("backoff", b.backoff.into()),
                                ("total", b.total.into()),
                            ])
                        },
                    ),
                ),
            ]),
        ));
    }
    Json::obj(pairs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_json_is_partition_invariant() {
        let base = ScenarioOptions {
            nodes: Some(16),
            base_bytes: 64,
            ..ScenarioOptions::new(AdversaryKind::RetryStorm)
        };
        let reference = run_scenario(&base).expect("scenario runs");
        let want = scenario_json(&base, &reference).render();
        assert!(reference.run.outcome.dropped > 0, "the storm must bite");
        for (jobs, shards) in [(1, 1), (4, 3), (2, 0)] {
            let opts = ScenarioOptions {
                jobs,
                shards,
                ..base
            };
            let got = run_scenario(&opts).expect("scenario runs");
            assert_eq!(
                scenario_json(&opts, &got).render(),
                want,
                "jobs {jobs} x shards {shards} changed the scenario bytes"
            );
        }
    }

    #[test]
    fn a_zero_rate_scenario_is_faultless() {
        let opts = ScenarioOptions {
            nodes: Some(16),
            base_bytes: 64,
            rate: 0.0,
            ..ScenarioOptions::new(AdversaryKind::Incast)
        };
        let s = run_scenario(&opts).expect("scenario runs");
        let out = &s.run.outcome;
        assert_eq!(out.dropped, 0);
        assert_eq!(out.retried, 0);
        assert!(out.degraded.is_none());
        assert!(out.flow_latency.iter().any(|h| h.count > 0));
    }
}
