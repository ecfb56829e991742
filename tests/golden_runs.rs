//! Golden-file regression test for the simulator's deterministic outputs
//! at small sizes: one run of each configuration below, its digests, cycle
//! counts and ledgers pinned byte for byte in `tests/golden/runs.json`.
//!
//! * `sweep_all_jobs1_cold`: FNV of the full sweep report at jobs 1 on a
//!   cold memo cache, and its point count;
//! * `engine_*`: the six Table 6 kernel × machine runs on 4 nodes;
//! * `engine_scale_*`: a truncated XOR transpose on 64-, 256- and
//!   1024-node T3D tori;
//! * `collectives_*`: all six collectives on 4 T3D nodes, engine and
//!   analytic cycles side by side;
//! * `protocol_retry_storm`: a resilient transfer under a seeded drop plan;
//! * `adversary_*`: the retry storm and the faultless incast at 64, 256 and
//!   1024 nodes;
//! * `service_query_cold`: FNV of twelve served query replies on a fresh
//!   service state.
//!
//! Nothing here is timed. The pin is self-regenerating — if a deliberate
//! simulator change moves these bytes, regenerate with:
//!
//! ```text
//! MEMCOMM_UPDATE_GOLDEN=1 cargo test --test golden_runs
//! ```
//!
//! One `#[test]`: every entry renders into the one golden file.

use memcomm::commops::collectives::{self, analytic_cost};
use memcomm::commops::{run_resilient_transfer, ProtocolConfig, Style};
use memcomm::kernels::netrun::{self, EngineOptions, EngineRun};
use memcomm::machines::memo::MemoConfig;
use memcomm::machines::Machine;
use memcomm::memsim::fault::{FaultConfig, FaultPlan};
use memcomm::model::AccessPattern;
use memcomm::netsim::traffic::aapc_xor_schedule;
use memcomm::netsim::AdversaryKind;
use memcomm_bench::adversary::{run_scenario, ScenarioOptions};
use memcomm_bench::experiments::{engine_kernels, EngineSettings};
use memcomm_bench::runner::{run_sweep, SweepOptions};
use memcomm_bench::service::{dispatch_bytes, ServiceState};
use memcomm_util::json::Json;

const NODES: usize = 4;
const MICRO_WORDS: u64 = 1024;
const EXCHANGE_WORDS: u64 = 512;
const KERNEL_N: u64 = 64;
const SCALE_NODES: [usize; 3] = [64, 256, 1024];
const SCALE_WORDS: u64 = 4;
const SCALE_ROUNDS: usize = 3;
const ADVERSARY_BYTES: u64 = 64;
const COLLECTIVE_WORDS: u64 = 8;

fn golden_path() -> String {
    format!("{}/tests/golden/runs.json", env!("CARGO_MANIFEST_DIR"))
}

fn fnv64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn hex16(v: u64) -> Json {
    Json::Str(format!("{v:016x}"))
}

fn engine_options(nodes: usize) -> EngineOptions {
    EngineOptions {
        nodes: Some(nodes),
        jobs: 1,
        ..EngineOptions::default()
    }
}

/// The fields every engine entry pins, after `lead` (the node count, when
/// the entry varies it).
fn engine_fields(lead: Vec<(&'static str, Json)>, run: &EngineRun) -> Json {
    let mut fields = lead;
    fields.extend([
        ("cycles", run.cycles.into()),
        ("words", run.words.into()),
        ("flit_hops", run.flit_hops.into()),
        ("windows", run.windows.into()),
        ("peak_queue_depth", run.peak_queue_depth.into()),
        ("digest", hex16(run.digest)),
    ]);
    Json::obj(fields)
}

/// The sweep entry: a jobs-1 sweep on the fresh memo cache `run_sweep`
/// builds when none is installed.
fn sweep() -> Json {
    let (report, metrics) = run_sweep(&SweepOptions {
        jobs: 1,
        micro_words: MICRO_WORDS,
        exchange_words: EXCHANGE_WORDS,
        ..SweepOptions::default()
    });
    Json::obj([
        (
            "report_fnv",
            hex16(fnv64(report.to_json().render().as_bytes())),
        ),
        ("points", metrics.points.into()),
    ])
}

/// Everything after the sweep. It runs beside the sweep: no entry depends
/// on the worker count or shares the sweep's cache.
fn engine_and_service() -> Vec<(String, Json)> {
    let mut entries: Vec<(String, Json)> = Vec::new();

    let settings = EngineSettings {
        nodes: NODES,
        transpose_n: KERNEL_N,
        sor_n: KERNEL_N,
        jobs: 1,
        shards: 0,
    };
    for (machine, short) in [(Machine::t3d(), "t3d"), (Machine::paragon(), "paragon")] {
        let topo = netrun::engine_topology(&machine, Some(NODES)).expect("topology");
        for kernel in engine_kernels(&settings) {
            let rounds = kernel.rounds(&topo).expect("kernel rounds");
            let run = netrun::run_rounds(&machine, &topo, &rounds, &engine_options(NODES))
                .expect("kernel runs");
            let name = format!("engine_{}_{short}", kernel.name().to_lowercase());
            entries.push((name, engine_fields(Vec::new(), &run)));
        }
    }

    let t3d = Machine::t3d();
    for nodes in SCALE_NODES {
        let topo = netrun::engine_topology(&t3d, Some(nodes)).expect("topology");
        let mut rounds = aapc_xor_schedule(nodes, SCALE_WORDS * 8);
        rounds.truncate(SCALE_ROUNDS);
        let run =
            netrun::run_rounds(&t3d, &topo, &rounds, &engine_options(nodes)).expect("scale run");
        entries.push((
            format!("engine_scale_{nodes}"),
            engine_fields(vec![("nodes", (nodes as u64).into())], &run),
        ));
    }

    let topo = netrun::engine_topology(&t3d, Some(NODES)).expect("topology");
    for coll in collectives::ALL {
        let c = netrun::run_collective(&t3d, coll, COLLECTIVE_WORDS, &engine_options(NODES))
            .expect("collective runs");
        let cost = analytic_cost(&t3d, &topo, coll, COLLECTIVE_WORDS).expect("analytic cost");
        entries.push((
            format!("collectives_{}", coll.name().replace('-', "_")),
            Json::obj([
                ("nodes", (NODES as u64).into()),
                ("rounds", c.rounds.into()),
                ("cycles", c.run.cycles.into()),
                ("analytic_cycles", cost.end_cycle.into()),
                ("words", c.run.words.into()),
                ("volume_words", c.volume_words.into()),
                ("lower_bound_words", c.lower_bound_words.into()),
                ("flit_hops", c.run.flit_hops.into()),
                ("windows", c.run.windows.into()),
                ("peak_queue_depth", c.run.peak_queue_depth.into()),
                ("digest", hex16(c.run.digest)),
            ]),
        ));
    }

    let plan = FaultPlan::new(FaultConfig {
        seed: 0xB5_57_02,
        rate: 0.004,
        ..FaultConfig::default()
    });
    let cfg = ProtocolConfig {
        words: EXCHANGE_WORDS,
        ..ProtocolConfig::default()
    };
    let c = AccessPattern::Contiguous;
    let storm =
        run_resilient_transfer(&t3d, c, c, Style::Chained, plan, &cfg).expect("resilient transfer");
    entries.push((
        "protocol_retry_storm".into(),
        Json::obj([
            ("words", storm.words.into()),
            ("frames_sent", storm.frames_sent.into()),
            ("retransmissions", storm.retransmissions.into()),
            ("end_cycle", storm.end_cycle.into()),
            ("verified", storm.verified.into()),
            ("degraded", storm.degraded.into()),
        ]),
    ));

    // The retry storm runs under the scenario's default fault storm; the
    // incast runs faultless, so its tail is pure fan-in queueing.
    for (kind, rate) in [
        (AdversaryKind::RetryStorm, 0.02),
        (AdversaryKind::Incast, 0.0),
    ] {
        for nodes in SCALE_NODES {
            let scenario = run_scenario(&ScenarioOptions {
                base_bytes: ADVERSARY_BYTES,
                nodes: Some(nodes),
                rate,
                ..ScenarioOptions::new(kind)
            })
            .expect("scenario runs");
            let out = &scenario.run.outcome;
            let missing: u64 = out
                .degraded
                .as_ref()
                .map_or(0, |d| d.missing_flows.iter().map(|&(_, w)| w).sum());
            let tail = out.flow_latency.get(1).or_else(|| out.flow_latency.first());
            let (count, p50, p99, p999) =
                tail.map_or((0, 0, 0, 0), |t| (t.count, t.p50, t.p99, t.p999));
            entries.push((
                format!("adversary_{}_{nodes}", kind.name().replace('-', "_")),
                Json::obj([
                    ("nodes", (nodes as u64).into()),
                    ("flows", scenario.run.flows.into()),
                    ("words", out.words.into()),
                    ("cycles", out.cycles.into()),
                    ("dropped", out.dropped.into()),
                    ("retried", out.retried.into()),
                    ("abandoned", out.abandoned.into()),
                    ("missing_words", missing.into()),
                    ("degraded", out.degraded.is_some().into()),
                    ("lat_count", count.into()),
                    ("lat_p50", p50.into()),
                    ("lat_p99", p99.into()),
                    ("lat_p999", p999.into()),
                    ("digest", hex16(out.digest)),
                ]),
            ));
        }
    }

    let state = ServiceState::new(MemoConfig::default(), 1);
    let mut replies = Vec::new();
    let mut queries = 0u64;
    for machine in ["t3d", "paragon"] {
        for transfer in ["1C1", "1C0", "1C64", "1F0", "0R1", "0D1"] {
            let request = Json::obj([
                ("kind", Json::str("query")),
                ("machine", Json::str(machine)),
                ("transfer", Json::str(transfer)),
                ("words", MICRO_WORDS.into()),
            ])
            .render();
            replies.extend(dispatch_bytes(request.as_bytes(), &state).0);
            queries += 1;
        }
    }
    entries.push((
        "service_query_cold".into(),
        Json::obj([
            ("queries", queries.into()),
            ("responses_fnv", hex16(fnv64(&replies))),
        ]),
    ));
    entries
}

fn runs() -> Json {
    let (sweep, rest) = std::thread::scope(|s| {
        let sweep = s.spawn(sweep);
        let rest = engine_and_service();
        (sweep.join().expect("sweep thread"), rest)
    });
    let mut entries = vec![("sweep_all_jobs1_cold".to_string(), sweep)];
    entries.extend(rest);
    Json::Obj(entries)
}

#[test]
fn deterministic_runs_match_the_golden_file() {
    let got = runs().render();
    let path = golden_path();
    if std::env::var_os("MEMCOMM_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).expect("golden regenerated");
        eprintln!("regenerated {path}");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("golden file present");
    assert_eq!(
        got, golden,
        "deterministic runs drifted from tests/golden/runs.json \
         (regenerate with MEMCOMM_UPDATE_GOLDEN=1 cargo test --test golden_runs)"
    );
}
