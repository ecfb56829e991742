//! Simulation-as-a-service: the model stack behind a long-lived TCP
//! endpoint.
//!
//! The batch `repro` CLI re-prices everything from scratch on every
//! invocation; a serving process keeps the calibrated machines, the
//! discrete-event engine, and — crucially — a warm measurement cache
//! resident, so repeated queries cost a cache lookup instead of a
//! simulation. The pieces:
//!
//! * [`proto`] — the length-prefixed deterministic-JSON request protocol
//!   and its strict parser;
//! * [`argv`] — `repro`'s command line mapped onto the same requests;
//! * [`server`] — the TCP server: an accept loop, per-connection handler
//!   threads, and a permit gate bounding concurrent dispatches to the
//!   configured worker budget;
//! * [`client`] — the blocking client used by tests, the load generator,
//!   and anything else speaking the protocol;
//! * [`loadgen`] — seeded request-mix replay across a concurrent client
//!   fleet, with a `--check` mode diffing every served response against
//!   freshly computed batch bytes.
//!
//! ## Determinism
//!
//! Every response is a pure function of its request: simulation state
//! lives per-dispatch (each request installs the shared cache + metrics
//! handles, runs, and uninstalls), cached values are pure functions of
//! their keys, and reports render byte-deterministically. So a served
//! response is byte-identical to the batch CLI's output for the same
//! parameters — warm cache, cold cache, any worker count, any client
//! interleaving. The `service_vs_batch` tier and `loadgen --check` pin
//! exactly this.

pub mod argv;
pub mod client;
pub mod loadgen;
pub mod proto;
pub mod server;

use memcomm_machines::memo::{self, MemoConfig, MemoHandle};
use memcomm_obs::Obs;
use memcomm_util::json::Json;

pub use proto::Request;

use crate::runner;

/// Everything a dispatch needs: the shared measurement cache, the
/// server-lifetime metrics registry, and the worker budget (echoed in
/// `stats` responses).
#[derive(Debug, Clone)]
pub struct ServiceState {
    /// The shared measurement cache every request installs.
    pub cache: MemoHandle,
    /// Server-lifetime metrics (request counters, latency histograms).
    pub obs: Obs,
    /// Concurrent-dispatch budget.
    pub workers: usize,
}

impl ServiceState {
    /// Builds a state with a fresh cache and registry.
    pub fn new(cache: MemoConfig, workers: usize) -> ServiceState {
        ServiceState {
            cache: memo::MemoCache::handle(cache),
            obs: Obs::new(false),
            workers: workers.max(1),
        }
    }
}

/// What a dispatch produced: a reply to frame back, and whether the
/// server should shut down after sending it.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// The response document.
    pub reply: Json,
    /// `true` only for an accepted `shutdown` request.
    pub shutdown: bool,
}

/// Executes one parsed request against the service state and returns the
/// response document. Installs the shared cache and metrics handles for
/// the duration, so nested sweeps adopt them.
pub fn dispatch(req: &Request, state: &ServiceState) -> Outcome {
    let _obs_guard = state.obs.install();
    let _memo_guard = memo::install(&state.cache);
    state.obs.count("service.requests.total", 1);
    state
        .obs
        .count(&format!("service.requests.{}", req.class()), 1);
    let answer = match req {
        Request::Ping => Ok(Json::obj([("kind", Json::str("pong"))])),
        Request::Query {
            machine,
            transfer,
            words,
        } => proto::parse_machine(machine).and_then(|m| {
            let result = memcomm_machines::microbench::measure_basic(&m, *transfer, *words)?;
            let mbps = result.as_ref().map(|r| r.throughput(m.clock()).as_mbps());
            let doc = proto::query_response(machine, *transfer, *words, result.as_ref(), mbps);
            Ok(doc)
        }),
        Request::Sweep(_) | Request::Engine(_) | Request::Collectives(_) => {
            let opts = req.sweep_options().expect("report requests run a sweep");
            let (report, _metrics) = runner::run_sweep(&opts);
            Ok(Json::obj([
                ("kind", Json::str(req.class())),
                ("report", report.to_json()),
            ]))
        }
        Request::Adversary(opts) => crate::adversary::run_scenario(opts).map(|scenario| {
            Json::obj([
                ("kind", Json::str("adversary")),
                ("scenario", crate::adversary::scenario_json(opts, &scenario)),
            ])
        }),
        Request::Stats => Ok(stats_response(state)),
        Request::Metrics => Ok(Json::obj([
            ("kind", Json::str("metrics")),
            ("body", Json::str(&metrics_exposition(state))),
        ])),
        Request::Shutdown => Ok(Json::obj([("kind", Json::str("bye"))])),
    };
    match answer {
        Ok(reply) => Outcome {
            reply,
            shutdown: matches!(req, Request::Shutdown),
        },
        Err(e) => error(state, &e),
    }
}

fn error(state: &ServiceState, e: &memcomm_memsim::SimError) -> Outcome {
    state.obs.count("service.errors", 1);
    Outcome {
        reply: proto::error_response(e),
        shutdown: false,
    }
}

/// Parses raw frame payload bytes, dispatches, and renders the reply —
/// the full byte-in/byte-out path both the server and `loadgen --check`
/// use. Malformed JSON and malformed requests become error replies (the
/// connection stays usable); only transport-level failures close it.
pub fn dispatch_bytes(payload: &[u8], state: &ServiceState) -> (Vec<u8>, bool) {
    let outcome = match std::str::from_utf8(payload)
        .map_err(|e| proto::protocol(format!("request is not UTF-8: {e}")))
        .and_then(|text| {
            Json::parse(text).map_err(|e| proto::protocol(format!("request is not JSON: {e}")))
        })
        .and_then(|doc| Request::parse(&doc))
    {
        Ok(req) => dispatch(&req, state),
        Err(e) => {
            state.obs.count("service.requests.total", 1);
            error(state, &e)
        }
    };
    (outcome.reply.render().into_bytes(), outcome.shutdown)
}

/// The request classes `stats` enumerates (wire order).
const CLASSES: &[&str] = &[
    "ping",
    "query",
    "sweep",
    "engine",
    "collectives",
    "adversary",
    "stats",
    "metrics",
    "shutdown",
];

fn stats_response(state: &ServiceState) -> Json {
    let cache = state.cache.stats();
    let shards = state.cache.shard_stats();
    let mut requests: Vec<(&'static str, Json)> =
        vec![("total", state.obs.counter("service.requests.total").into())];
    for class in CLASSES {
        requests.push((
            class,
            state
                .obs
                .counter(&format!("service.requests.{class}"))
                .into(),
        ));
    }
    requests.push(("errors", state.obs.counter("service.errors").into()));
    Json::obj([
        ("kind", Json::str("stats")),
        ("workers", (state.workers as u64).into()),
        (
            "cache",
            Json::obj([
                ("hits", cache.hits.into()),
                ("misses", cache.misses.into()),
                ("evictions", cache.evictions.into()),
                ("entries", cache.entries.into()),
                ("hit_rate", cache.hit_rate().into()),
                (
                    "shards",
                    Json::arr(&shards, |s| {
                        Json::obj([
                            ("hits", s.hits.into()),
                            ("misses", s.misses.into()),
                            ("insertions", s.insertions.into()),
                            ("evictions", s.evictions.into()),
                            ("entries", s.entries.into()),
                        ])
                    }),
                ),
            ]),
        ),
        ("requests", Json::obj(requests)),
    ])
}

/// Renders the server's OpenMetrics exposition: the metrics registry
/// (request counters, per-class latency histograms) plus the cache's
/// totals and per-shard counters as `service_cache_*` families.
pub fn metrics_exposition(state: &ServiceState) -> String {
    let mut snapshot = state.obs.metrics_snapshot().unwrap_or_default();
    let cache = state.cache.stats();
    snapshot.counters.extend([
        ("service.cache.hits".to_string(), cache.hits),
        ("service.cache.misses".to_string(), cache.misses),
        ("service.cache.evictions".to_string(), cache.evictions),
    ]);
    for (i, s) in state.cache.shard_stats().iter().enumerate() {
        snapshot.counters.extend([
            (format!("service.cache.shard{i}.hits"), s.hits),
            (format!("service.cache.shard{i}.misses"), s.misses),
            (format!("service.cache.shard{i}.evictions"), s.evictions),
        ]);
    }
    snapshot
        .gauges
        .push(("service.cache.entries".to_string(), cache.entries));
    snapshot.counters.sort();
    snapshot.gauges.sort();
    memcomm_obs::openmetrics::render(&snapshot, &[])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state() -> ServiceState {
        ServiceState::new(MemoConfig::default(), 2)
    }

    #[test]
    fn ping_pongs_and_counts() {
        let state = state();
        let out = dispatch(&Request::Ping, &state);
        assert_eq!(out.reply.get("kind").and_then(Json::as_str), Some("pong"));
        assert!(!out.shutdown);
        assert_eq!(state.obs.counter("service.requests.total"), 1);
        assert_eq!(state.obs.counter("service.requests.ping"), 1);
    }

    #[test]
    fn an_oversized_query_gets_a_typed_error() {
        // 2^61 words: the allocation's byte count wraps u64.
        let state = state();
        let (bytes, shutdown) = dispatch_bytes(
            br#"{"kind": "query", "machine": "t3d", "transfer": "1C1", "words": 2305843009213693952}"#,
            &state,
        );
        assert!(!shutdown);
        let doc = Json::parse(std::str::from_utf8(&bytes).unwrap()).unwrap();
        assert_eq!(doc.get("kind").and_then(Json::as_str), Some("error"));
        assert_eq!(doc.get("code").and_then(Json::as_str), Some("sim"));
        assert_eq!(
            doc.get("error").and_then(Json::as_str),
            Some("node memory exhausted: need 18446744073709551615 bytes, have 50331648")
        );
        assert_eq!(state.obs.counter("service.errors"), 1);
    }

    #[test]
    fn queries_warm_the_shared_cache() {
        let state = state();
        let req = Request::Query {
            machine: "t3d".to_string(),
            transfer: memcomm_model::BasicTransfer::parse("1C1").unwrap(),
            words: 1024,
        };
        let a = dispatch(&req, &state).reply.render();
        let before = state.cache.stats();
        let b = dispatch(&req, &state).reply.render();
        assert_eq!(a, b, "repeat queries are byte-identical");
        let delta = state.cache.stats().since(before);
        assert!(delta.hits >= 1, "the repeat must hit: {delta:?}");
    }

    #[test]
    fn garbage_bytes_become_protocol_errors() {
        let state = state();
        let (bytes, shutdown) = dispatch_bytes(b"{nope", &state);
        assert!(!shutdown);
        let doc = Json::parse(std::str::from_utf8(&bytes).unwrap()).unwrap();
        assert_eq!(doc.get("kind").and_then(Json::as_str), Some("error"));
        assert_eq!(doc.get("code").and_then(Json::as_str), Some("protocol"));
        assert_eq!(state.obs.counter("service.errors"), 1);
    }

    #[test]
    fn shutdown_flags_the_outcome() {
        let out = dispatch(&Request::Shutdown, &state());
        assert!(out.shutdown);
        assert_eq!(out.reply.get("kind").and_then(Json::as_str), Some("bye"));
    }

    #[test]
    fn stats_and_metrics_expose_cache_counters() {
        let state = state();
        let req = Request::Query {
            machine: "t3d".to_string(),
            transfer: memcomm_model::BasicTransfer::parse("1C1").unwrap(),
            words: 512,
        };
        dispatch(&req, &state);
        dispatch(&req, &state);
        let stats = dispatch(&Request::Stats, &state).reply;
        let cache = stats.get("cache").expect("stats carry cache counters");
        assert!(cache.get("hits").and_then(Json::as_f64).unwrap() >= 1.0);
        let body = metrics_exposition(&state);
        memcomm_obs::openmetrics::validate(&body).expect("exposition validates");
        assert!(body.contains("service_cache_hits_total"));
        assert!(body.contains("service_cache_shard0_hits_total"));
    }
}
