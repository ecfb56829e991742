//! Served-vs-batch differential tier.
//!
//! Every request kind answered over TCP must be byte-identical to the
//! batch pipeline's output for the same parameters — the expected bytes
//! here are computed straight from `runner::run_sweep`,
//! `adversary::run_scenario`, and `microbench::measure_basic`, exactly as
//! the `repro` CLI does, never through the service dispatcher. The
//! comparison runs across workers {1, 4} × concurrent clients {1, 8},
//! each client replaying the full request set in its own shuffled order,
//! so cache warmth, worker count, and client interleaving are all proven
//! irrelevant to response bytes. One of the sweeps runs under a seeded
//! `FaultPlan`, pinning that fault-injected reports serve deterministically
//! too.

use memcomm_bench::adversary::{self, ScenarioOptions};
use memcomm_bench::collectives::CollectiveSettings;
use memcomm_bench::experiments::{EngineSettings, FaultSettings};
use memcomm_bench::runner::{self, SweepOptions};
use memcomm_bench::service::client::Client;
use memcomm_bench::service::proto;
use memcomm_bench::service::server::{Server, ServerConfig};
use memcomm_bench::service::Request;
use memcomm_machines::microbench;
use memcomm_netsim::AdversaryKind;
use memcomm_util::json::Json;
use memcomm_util::rng::Rng;

/// A small but section-diverse sweep: calibration + Table 1.
fn tiny_sweep() -> SweepOptions {
    SweepOptions {
        jobs: 1,
        micro_words: 512,
        exchange_words: 256,
        sections: ["calibration".to_string(), "table1".to_string()]
            .into_iter()
            .collect(),
        ..SweepOptions::default()
    }
}

/// The robustness section under a seeded, genuinely firing fault plan.
fn faulted_sweep() -> SweepOptions {
    SweepOptions {
        jobs: 1,
        micro_words: 256,
        exchange_words: 128,
        sections: ["faults".to_string()].into_iter().collect(),
        faults: FaultSettings {
            seed: 0xF00D,
            rate: 0.02,
            outage_rate: 0.01,
            max_cycles: None,
        },
        ..SweepOptions::default()
    }
}

fn engine_settings() -> EngineSettings {
    EngineSettings {
        nodes: 8,
        transpose_n: 64,
        sor_n: 32,
        jobs: 1,
        shards: 1,
    }
}

fn collective_settings() -> CollectiveSettings {
    CollectiveSettings {
        kinds: Vec::new(), // all of them
        nodes: 8,
        words: 32,
        jobs: 1,
        shards: 1,
    }
}

fn adversary_options() -> ScenarioOptions {
    let mut opts = ScenarioOptions::new(AdversaryKind::RetryStorm);
    opts.nodes = Some(8);
    opts.base_bytes = 64;
    opts.shards = 1;
    opts.jobs = 1;
    opts
}

/// The sweep options an `engine`/`collectives` request desugars to on the
/// server: a one-worker sweep selecting only the opt-in section, by the
/// name its status reports, so the report carries only the opt-in rows.
/// Reproduced here independently of the service layer.
fn opt_in_only(section: &str, base: SweepOptions) -> SweepOptions {
    SweepOptions {
        sections: [section.to_string()].into_iter().collect(),
        jobs: 1,
        ..base
    }
}

/// One request (as raw wire payload bytes) plus its batch-computed
/// expected response bytes.
struct Exchange {
    name: &'static str,
    payload: Vec<u8>,
    expected: Vec<u8>,
}

fn wire(req: &Request) -> Vec<u8> {
    req.to_json().render().into_bytes()
}

fn sweep_reply(opts: &SweepOptions) -> Vec<u8> {
    let (report, _metrics) = runner::run_sweep(opts);
    Json::obj([("kind", Json::str("sweep")), ("report", report.to_json())])
        .render()
        .into_bytes()
}

fn report_reply(kind: &'static str, opts: &SweepOptions) -> Vec<u8> {
    let (report, _metrics) = runner::run_sweep(opts);
    Json::obj([("kind", Json::str(kind)), ("report", report.to_json())])
        .render()
        .into_bytes()
}

fn query_reply(machine: &str, notation: &str, words: u64) -> Vec<u8> {
    let m = proto::parse_machine(machine).expect("test machine exists");
    let t = memcomm_model::BasicTransfer::parse(notation).expect("test transfer parses");
    let result = microbench::measure_basic(&m, t, words).expect("query point simulates");
    let mbps = result.as_ref().map(|r| r.throughput(m.clock()).as_mbps());
    proto::query_response(machine, t, words, result.as_ref(), mbps)
        .render()
        .into_bytes()
}

/// Builds the full request set with batch-computed expected bytes. Runs
/// everything serially in the calling thread with no installed cache, the
/// way the batch CLI does.
fn exchanges() -> Vec<Exchange> {
    let bad_query = Json::obj([
        ("kind", Json::str("query")),
        ("machine", Json::str("cm5")),
        ("transfer", Json::str("1C1")),
        ("words", 4u64.into()),
    ]);
    let adv = adversary_options();
    let scenario = adversary::run_scenario(&adv).expect("adversary scenario runs");
    vec![
        Exchange {
            name: "ping",
            payload: wire(&Request::Ping),
            expected: Json::obj([("kind", Json::str("pong"))])
                .render()
                .into_bytes(),
        },
        Exchange {
            name: "query-t3d",
            payload: wire(&Request::Query {
                machine: "t3d".to_string(),
                transfer: memcomm_model::BasicTransfer::parse("1C1").unwrap(),
                words: 2048,
            }),
            expected: query_reply("t3d", "1C1", 2048),
        },
        Exchange {
            name: "query-paragon",
            payload: wire(&Request::Query {
                machine: "paragon".to_string(),
                transfer: memcomm_model::BasicTransfer::parse("1F0").unwrap(),
                words: 512,
            }),
            expected: query_reply("paragon", "1F0", 512),
        },
        Exchange {
            name: "sweep",
            payload: wire(&Request::Sweep(tiny_sweep())),
            expected: sweep_reply(&tiny_sweep()),
        },
        Exchange {
            name: "sweep-faulted",
            payload: wire(&Request::Sweep(faulted_sweep())),
            expected: sweep_reply(&faulted_sweep()),
        },
        Exchange {
            name: "engine",
            payload: wire(&Request::Engine(engine_settings())),
            expected: report_reply(
                "engine",
                &opt_in_only(
                    "engine",
                    SweepOptions {
                        engine: Some(engine_settings()),
                        ..SweepOptions::default()
                    },
                ),
            ),
        },
        Exchange {
            name: "collectives",
            payload: wire(&Request::Collectives(collective_settings())),
            expected: report_reply(
                "collectives",
                &opt_in_only(
                    "collectives",
                    SweepOptions {
                        collectives: Some(collective_settings()),
                        ..SweepOptions::default()
                    },
                ),
            ),
        },
        Exchange {
            name: "adversary",
            payload: wire(&Request::Adversary(adv)),
            expected: Json::obj([
                ("kind", Json::str("adversary")),
                ("scenario", adversary::scenario_json(&adv, &scenario)),
            ])
            .render()
            .into_bytes(),
        },
        Exchange {
            name: "error-unknown-machine",
            payload: bad_query.render().into_bytes(),
            expected: proto::error_response(&proto::parse_machine("cm5").unwrap_err())
                .render()
                .into_bytes(),
        },
    ]
}

/// One client connection replays the whole set in its own shuffled order.
fn replay(addr: std::net::SocketAddr, exchanges: &[Exchange], client: u64, tag: &str) {
    let mut order: Vec<usize> = (0..exchanges.len()).collect();
    let mut rng = Rng::new(0xD1FF ^ client.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    rng.shuffle(&mut order);
    let mut conn = Client::connect(addr).expect("client connects");
    for &i in &order {
        let ex = &exchanges[i];
        let served = conn.call_bytes(&ex.payload).expect("server replies");
        assert_eq!(
            served,
            ex.expected,
            "{tag}, client {client}: served {:?} bytes differ from batch\nserved:\n{}\nbatch:\n{}",
            ex.name,
            String::from_utf8_lossy(&served),
            String::from_utf8_lossy(&ex.expected),
        );
    }
}

#[test]
fn every_request_kind_serves_batch_identical_bytes() {
    let exchanges = exchanges();
    for workers in [1usize, 4] {
        for clients in [1u64, 8] {
            let tag = format!("workers {workers}, clients {clients}");
            let server = Server::start(ServerConfig {
                workers,
                ..ServerConfig::default()
            })
            .expect("bind loopback");
            let addr = server.addr();
            std::thread::scope(|scope| {
                for client in 0..clients {
                    let exchanges = &exchanges;
                    let tag = &tag;
                    scope.spawn(move || replay(addr, exchanges, client, tag));
                }
            });
            // The fleet hammered overlapping keys into one shared cache:
            // after the first client the rest must have hit.
            if clients > 1 {
                let mut conn = Client::connect(addr).expect("stats probe connects");
                let stats = conn.request(&Request::Stats).expect("stats served");
                let hits = stats
                    .get("cache")
                    .and_then(|c| c.get("hits"))
                    .and_then(Json::as_f64)
                    .unwrap_or(0.0);
                assert!(hits > 0.0, "{tag}: a shared cache must see repeat hits");
            }
        }
    }
}
