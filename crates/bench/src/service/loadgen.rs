//! Seeded load generation against a running server.
//!
//! [`run_loadgen`] replays a deterministic request mix across a fleet of
//! concurrent connections (one per client, fanned out through
//! [`memcomm_util::par::par_map`]), measures per-request-class latency
//! client-side into shared [`memcomm_obs`] histograms, and reports
//! throughput. Under [`LoadgenOptions::check`] every served response is
//! additionally diffed, byte for byte, against a freshly dispatched batch
//! computation of the same request — each client carries its own
//! cold-cache batch state, so a zero diff count proves served answers are
//! independent of server warmth, concurrency, and request interleaving.

use std::time::Instant;

use memcomm_machines::memo::MemoConfig;
use memcomm_memsim::SimResult;
use memcomm_model::BasicTransfer;
use memcomm_obs::{HistogramSummary, Obs};
use memcomm_util::json::Json;
use memcomm_util::par;
use memcomm_util::rng::Rng;

use super::client::Client;
use super::proto::{self, Request};
use super::{dispatch_bytes, ServiceState};
use crate::adversary::ScenarioOptions;
use crate::runner::SweepOptions;

/// A seeded request mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Uniform draws over machines × transfers × payload sizes.
    Uniform,
    /// 90% of queries go to one hot key — the cache-friendliness extreme.
    HotKey,
    /// Half the requests are small sweep sections — the expensive tail.
    SweepHeavy,
    /// Half the requests are adversarial storms — the engine-heavy tail.
    StormHeavy,
}

/// Every mix, in CLI order.
pub const MIXES: &[Mix] = &[Mix::Uniform, Mix::HotKey, Mix::SweepHeavy, Mix::StormHeavy];

impl Mix {
    /// The CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Mix::Uniform => "uniform",
            Mix::HotKey => "hot-key",
            Mix::SweepHeavy => "sweep-heavy",
            Mix::StormHeavy => "storm-heavy",
        }
    }

    /// Parses a CLI name.
    pub fn parse(name: &str) -> Option<Mix> {
        MIXES.iter().copied().find(|m| m.name() == name)
    }
}

/// Load-generation parameters.
#[derive(Debug, Clone)]
pub struct LoadgenOptions {
    /// Server address.
    pub addr: String,
    /// Concurrent client connections.
    pub clients: usize,
    /// Requests per client.
    pub requests: usize,
    /// The request mix.
    pub mix: Mix,
    /// Seed the whole replay derives from.
    pub seed: u64,
    /// Diff every served response against batch bytes.
    pub check: bool,
}

impl Default for LoadgenOptions {
    fn default() -> Self {
        LoadgenOptions {
            addr: String::new(),
            clients: 4,
            requests: 32,
            mix: Mix::Uniform,
            seed: 0x10AD,
            check: false,
        }
    }
}

/// What a load run measured.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Requests completed across all clients.
    pub total: u64,
    /// Requests that failed at the wire or returned an `error` document.
    pub errors: u64,
    /// Byte-level served-vs-batch diffs (only counted under `check`).
    pub diffs: u64,
    /// Wall-clock milliseconds for the whole fleet.
    pub wall_ms: f64,
    /// Completed requests per wall second.
    pub throughput_rps: f64,
    /// Per-class client-observed latency (microseconds), sorted by class.
    pub latency: Vec<(String, HistogramSummary)>,
    /// The server's `stats` document, fetched after the run.
    pub server_stats: Option<Json>,
}

impl LoadgenReport {
    /// The server's cache hit rate after the run (0.0 when `stats` was
    /// unavailable).
    pub fn server_hit_rate(&self) -> f64 {
        self.server_stats
            .as_ref()
            .and_then(|s| s.get("cache"))
            .and_then(|c| c.get("hit_rate"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    }

    /// Renders the report as JSON.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("total", self.total.into()),
            ("errors", self.errors.into()),
            ("diffs", self.diffs.into()),
            ("wall_ms", self.wall_ms.into()),
            ("throughput_rps", self.throughput_rps.into()),
            (
                "latency",
                Json::arr(&self.latency, |(class, h)| {
                    Json::obj([
                        ("class", Json::str(class)),
                        ("count", h.count.into()),
                        ("p50", h.p50.into()),
                        ("p99", h.p99.into()),
                        ("p999", h.p999.into()),
                        ("max", h.max.into()),
                    ])
                }),
            ),
            ("server", self.server_stats.clone().unwrap_or(Json::Null)),
        ])
    }

    /// A compact human rendering.
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "loadgen: {} requests in {:.0} ms ({:.0} req/s); {} errors, {} diffs",
            self.total, self.wall_ms, self.throughput_rps, self.errors, self.diffs
        );
        for (class, h) in &self.latency {
            let _ = writeln!(
                out,
                "  {class:<12} n={:<6} p50={}us p99={}us p999={}us max={}us",
                h.count, h.p50, h.p99, h.p999, h.max
            );
        }
        let _ = writeln!(
            out,
            "  server cache hit rate: {:.1}%",
            self.server_hit_rate() * 100.0
        );
        out
    }
}

/// The machines, transfers, and payload sizes the query mixes draw from.
const MACHINES: &[&str] = &["t3d", "paragon"];
const TRANSFERS: &[&str] = &["1C1", "1C0", "1C64", "1F0", "0R1", "0D1", "Nd", "Nadp"];
const WORD_SIZES: &[u64] = &[256, 512, 1024, 2048];

/// The hot key of the hot-key mix.
const HOT: (&str, &str, u64) = ("t3d", "1C1", 4096);

fn query(machine: &str, transfer: &str, words: u64) -> Request {
    Request::Query {
        machine: machine.to_string(),
        transfer: BasicTransfer::parse(transfer).expect("pool transfers parse"),
        words,
    }
}

fn uniform_query(rng: &mut Rng) -> Request {
    let machine = *rng.choose(MACHINES);
    let transfer = *rng.choose(TRANSFERS);
    let words = *rng.choose(WORD_SIZES);
    query(machine, transfer, words)
}

/// A deliberately tiny sweep: two sections, small payloads, serial — a
/// "heavy" request that still finishes in tens of milliseconds.
fn tiny_sweep(rng: &mut Rng) -> Request {
    let section = *rng.choose(&["calibration", "table1"]);
    Request::Sweep(SweepOptions {
        jobs: 1,
        micro_words: 512,
        exchange_words: 256,
        sections: [section.to_string()].into_iter().collect(),
        ..SweepOptions::default()
    })
}

/// A small adversarial storm on a 16-node torus.
fn small_storm(rng: &mut Rng) -> Request {
    let kind = if rng.bool() {
        memcomm_netsim::AdversaryKind::RetryStorm
    } else {
        memcomm_netsim::AdversaryKind::Incast
    };
    let mut opts = ScenarioOptions::new(kind);
    opts.nodes = Some(16);
    opts.base_bytes = 64;
    opts.jobs = 1;
    Request::Adversary(opts)
}

/// Draws the next request of a mix.
pub fn next_request(mix: Mix, rng: &mut Rng) -> Request {
    match mix {
        Mix::Uniform => uniform_query(rng),
        Mix::HotKey => {
            if rng.range_u64(0, 10) < 9 {
                query(HOT.0, HOT.1, HOT.2)
            } else {
                uniform_query(rng)
            }
        }
        Mix::SweepHeavy => {
            if rng.bool() {
                tiny_sweep(rng)
            } else {
                uniform_query(rng)
            }
        }
        Mix::StormHeavy => {
            if rng.bool() {
                small_storm(rng)
            } else {
                uniform_query(rng)
            }
        }
    }
}

/// The per-client RNG: decorrelated from the run seed by the splitmix64
/// increment, so adding clients never reshuffles existing ones.
fn client_rng(seed: u64, client: u64) -> Rng {
    Rng::new(seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(client + 1)))
}

struct ClientTally {
    done: u64,
    errors: u64,
    diffs: u64,
}

fn run_client(opts: &LoadgenOptions, client: usize, obs: &Obs) -> SimResult<ClientTally> {
    let mut conn = Client::connect(&opts.addr)
        .map_err(|e| proto::protocol(format!("cannot connect to {}: {e}", opts.addr)))?;
    // Each checking client diffs against its own cold batch state: byte
    // equality then proves served responses are warmth-independent.
    let batch = opts
        .check
        .then(|| ServiceState::new(MemoConfig::default(), 1));
    let mut rng = client_rng(opts.seed, client as u64);
    let mut tally = ClientTally {
        done: 0,
        errors: 0,
        diffs: 0,
    };
    for _ in 0..opts.requests {
        let req = next_request(opts.mix, &mut rng);
        let payload = req.to_json().render().into_bytes();
        let start = Instant::now();
        let served = conn.call_bytes(&payload);
        let micros = start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        obs.observe(&format!("loadgen.latency_us.{}", req.class()), micros);
        match served {
            Err(_) => tally.errors += 1,
            Ok(served) => {
                tally.done += 1;
                if served.starts_with(b"{\n  \"kind\": \"error\"") {
                    tally.errors += 1;
                }
                if let Some(batch) = &batch {
                    let (expected, _) = dispatch_bytes(&payload, batch);
                    if served != expected {
                        tally.diffs += 1;
                    }
                }
            }
        }
    }
    Ok(tally)
}

/// Runs the fleet and gathers the report.
///
/// # Errors
///
/// [`SimError::Protocol`](memcomm_memsim::SimError::Protocol) when a
/// client cannot connect (individual request failures are counted, not
/// fatal).
pub fn run_loadgen(opts: &LoadgenOptions) -> SimResult<LoadgenReport> {
    let obs = Obs::new(false);
    let clients: Vec<usize> = (0..opts.clients.max(1)).collect();
    let start = Instant::now();
    let results = par::par_map(clients.len(), &clients, |&c| run_client(opts, c, &obs));
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let mut total = 0u64;
    let mut errors = 0u64;
    let mut diffs = 0u64;
    for r in results {
        let tally = r?;
        total += tally.done;
        errors += tally.errors;
        diffs += tally.diffs;
    }
    let latency = obs
        .metrics_snapshot()
        .map(|s| {
            s.histograms
                .into_iter()
                .filter_map(|(name, h)| {
                    name.strip_prefix("loadgen.latency_us.")
                        .map(|class| (class.to_string(), h))
                })
                .collect()
        })
        .unwrap_or_default();
    let server_stats = Client::connect(&opts.addr)
        .ok()
        .and_then(|mut c| c.request(&Request::Stats).ok());
    Ok(LoadgenReport {
        total,
        errors,
        diffs,
        wall_ms,
        throughput_rps: total as f64 / (wall_ms / 1e3).max(1e-9),
        latency,
        server_stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_parse_and_name_round_trip() {
        for &m in MIXES {
            assert_eq!(Mix::parse(m.name()), Some(m));
        }
        assert_eq!(Mix::parse("chaotic"), None);
    }

    #[test]
    fn request_streams_are_seeded_and_deterministic() {
        for &mix in MIXES {
            let a: Vec<Request> = {
                let mut rng = client_rng(7, 0);
                (0..20).map(|_| next_request(mix, &mut rng)).collect()
            };
            let b: Vec<Request> = {
                let mut rng = client_rng(7, 0);
                (0..20).map(|_| next_request(mix, &mut rng)).collect()
            };
            assert_eq!(a, b, "{mix:?} must replay identically");
            let c: Vec<Request> = {
                let mut rng = client_rng(7, 1);
                (0..20).map(|_| next_request(mix, &mut rng)).collect()
            };
            assert_ne!(a, c, "{mix:?} clients must decorrelate");
        }
    }

    #[test]
    fn hot_key_mix_actually_concentrates() {
        let mut rng = client_rng(11, 0);
        let hot = query(HOT.0, HOT.1, HOT.2);
        let hits = (0..200)
            .filter(|_| next_request(Mix::HotKey, &mut rng) == hot)
            .count();
        assert!(hits > 140, "~90% of 200 draws should be hot, got {hits}");
    }
}
