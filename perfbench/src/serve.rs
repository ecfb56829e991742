//! The `serve` workload: a closed loop against the in-process TCP server.
//!
//! Each of `jobs` clients sends its next request only after the previous
//! reply arrived. Requests come in blocks of [`BLOCK`] with fixed class
//! counts, shuffled by the seed, so every run sees the same mix:
//! memo-hit queries over loadgen's uniform key pool, first-touch query
//! misses (a key no request used before), tiny sweeps and 16-node storms
//! (the shapes loadgen's `sweep-heavy` and `storm-heavy` mixes draw).
//! The class shares are a synthetic choice: the p99 lands inside the
//! storm class rather than on a class boundary.
//!
//! The benchmark's own memory does not grow with the request rate: each
//! client keeps a fixed-size latency sample per slice of the window and
//! one digest per key, and checks every reply against the first reply to
//! its key as it arrives.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::time::Instant;

use memcomm_bench::adversary::ScenarioOptions;
use memcomm_bench::runner::SweepOptions;
use memcomm_bench::service::client::Client;
use memcomm_bench::service::server::{Server, ServerConfig};
use memcomm_bench::service::{dispatch_bytes, Request, ServiceState};
use memcomm_machines::memo::{CacheStats, MemoConfig};
use memcomm_model::BasicTransfer;
use memcomm_netsim::AdversaryKind;
use memcomm_util::json::Json;
use memcomm_util::rng::Rng;

use crate::report::{fnv64, median, percentile, secs, Outcome};
use crate::trace::Tracer;
use crate::workloads::{sub_seed, time_setups, Ctx, EndToEnd};

const MACHINES: [&str; 2] = ["t3d", "paragon"];
const TRANSFERS: [&str; 8] = ["1C1", "1C0", "1C64", "1F0", "0R1", "0D1", "Nd", "Nadp"];
/// Word counts of the hot pool. All even: misses use odd counts.
const HOT_WORDS: [u64; 4] = [256, 512, 1024, 2048];
const COMBOS: u64 = (MACHINES.len() * TRANSFERS.len()) as u64;

/// Requests per block and the class counts of one block.
pub const BLOCK: usize = 100;
const MISSES: usize = 2;
const SWEEPS: usize = 1;
const INCASTS: usize = 1;
const RETRY_STORMS: usize = 2;
/// Distinct storms per run (drawn from the seed).
const STORM_POOL: usize = 8;

/// First-touch queries per band: every machine × transfer combination at
/// 4096 odd word counts. Band `b` starts at `257 + b · 8192` words, so no
/// miss repeats within a run however fast the server answers.
const MISS_BAND: u64 = 1 << 16;
/// Odd, so `i ↦ i · MISS_STRIDE mod MISS_BAND` permutes a band and
/// consecutive misses spread over combinations and sizes.
const MISS_STRIDE: u64 = 40_503;

/// Keys: hot queries are their pool index; the other classes start here.
const SWEEP_KEY: u64 = 1000;
const INCAST_KEY: u64 = 2000;
const RETRY_STORM_KEY: u64 = 3000;
const MISS_KEY: u64 = 1 << 40;

/// Slices of the timed window. Each slice yields its own p50, p99 and
/// request rate; the run reports their medians, so a few seconds in which
/// another tenant holds a CPU move the result little.
pub const SLICES: usize = 10;
/// Latencies kept per client and slice.
const RESERVOIR: usize = 1 << 14;
/// Requests per client of a fixed-length loop (the traced run's pair).
pub const PAIR_REQUESTS: u64 = 4000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Hit,
    Miss,
    Sweep,
    Storm,
}

const CLASSES: [Class; 4] = [Class::Hit, Class::Miss, Class::Sweep, Class::Storm];

/// One request: a key naming its payload, its class, and the bytes.
#[derive(Debug, PartialEq, Eq)]
pub struct Req {
    pub key: u64,
    pub class: Class,
    pub payload: Vec<u8>,
}

fn bytes(req: &Request) -> Vec<u8> {
    req.to_json().render().into_bytes()
}

fn query(machine: &str, transfer: &str, words: u64) -> Request {
    Request::Query {
        machine: machine.to_string(),
        transfer: BasicTransfer::parse(transfer).expect("pool transfers parse"),
        words,
    }
}

/// The `m`-th first-touch query of a run (all clients together).
fn miss_query(seed: u64, m: u64) -> Request {
    let band = m / MISS_BAND;
    let i = ((m % MISS_BAND) * MISS_STRIDE + sub_seed(seed, 7) % MISS_BAND) % MISS_BAND;
    let combo = (i % COMBOS) as usize;
    let words = 257 + 2 * (i / COMBOS) + band * 2 * (MISS_BAND / COMBOS);
    query(
        MACHINES[combo / TRANSFERS.len()],
        TRANSFERS[combo % TRANSFERS.len()],
        words,
    )
}

/// The requests shared by every client of a run.
pub struct Pool {
    seed: u64,
    pub hot: Vec<Vec<u8>>,
    sweeps: Vec<Vec<u8>>,
    incasts: Vec<Vec<u8>>,
    retry_storms: Vec<Vec<u8>>,
}

impl Pool {
    pub fn new(seed: u64) -> Pool {
        let mut hot = Vec::new();
        for m in MACHINES {
            for t in TRANSFERS {
                for w in HOT_WORDS {
                    hot.push(bytes(&query(m, t, w)));
                }
            }
        }
        let sweeps = ["calibration", "table1"]
            .iter()
            .map(|section| {
                bytes(&Request::Sweep(SweepOptions {
                    jobs: 1,
                    micro_words: 512,
                    exchange_words: 256,
                    sections: [section.to_string()].into_iter().collect(),
                    ..SweepOptions::default()
                }))
            })
            .collect();
        let storms = |kind, stream: u64| -> Vec<Vec<u8>> {
            (0..STORM_POOL as u64)
                .map(|i| {
                    let mut opts = ScenarioOptions::new(kind);
                    opts.nodes = Some(16);
                    opts.base_bytes = 64;
                    opts.jobs = 1;
                    // The protocol carries seeds as JSON integers.
                    opts.seed = sub_seed(seed, stream + i) >> 12;
                    bytes(&Request::Adversary(opts))
                })
                .collect()
        };
        Pool {
            seed,
            hot,
            sweeps,
            incasts: storms(AdversaryKind::Incast, 100),
            retry_storms: storms(AdversaryKind::RetryStorm, 200),
        }
    }

    /// The payload a key names.
    fn payload(&self, key: u64) -> Vec<u8> {
        let at = |list: &[Vec<u8>], base: u64| list[(key - base) as usize].clone();
        match key {
            k if k >= MISS_KEY => bytes(&miss_query(self.seed, k - MISS_KEY)),
            k if k >= RETRY_STORM_KEY => at(&self.retry_storms, RETRY_STORM_KEY),
            k if k >= INCAST_KEY => at(&self.incasts, INCAST_KEY),
            k if k >= SWEEP_KEY => at(&self.sweeps, SWEEP_KEY),
            _ => at(&self.hot, 0),
        }
    }
}

/// The seeded request stream of one of `clients` clients.
pub struct Stream<'a> {
    pool: &'a Pool,
    rng: Rng,
    client: u64,
    clients: u64,
    misses: u64,
    block: Vec<Req>,
}

impl<'a> Stream<'a> {
    pub fn new(pool: &'a Pool, client: u64, clients: u64) -> Stream<'a> {
        Stream {
            pool,
            rng: Rng::new(sub_seed(pool.seed, 1000 + client)),
            client,
            clients,
            misses: 0,
            block: Vec::new(),
        }
    }

    /// A query no request of this run used before: the clients interleave
    /// over one sequence of first-touch queries.
    fn miss(&mut self) -> Req {
        let m = self.misses * self.clients + self.client;
        self.misses += 1;
        Req {
            key: MISS_KEY + m,
            class: Class::Miss,
            payload: bytes(&miss_query(self.pool.seed, m)),
        }
    }

    fn pick(&mut self, list: &[Vec<u8>], base: u64, class: Class) -> Req {
        let i = self.rng.range_usize(0, list.len());
        Req {
            key: base + i as u64,
            class,
            payload: list[i].clone(),
        }
    }

    fn refill(&mut self) {
        let pool = self.pool;
        let mut block = Vec::with_capacity(BLOCK);
        for _ in 0..MISSES {
            block.push(self.miss());
        }
        for _ in 0..SWEEPS {
            block.push(self.pick(&pool.sweeps, SWEEP_KEY, Class::Sweep));
        }
        for _ in 0..INCASTS {
            block.push(self.pick(&pool.incasts, INCAST_KEY, Class::Storm));
        }
        for _ in 0..RETRY_STORMS {
            block.push(self.pick(&pool.retry_storms, RETRY_STORM_KEY, Class::Storm));
        }
        while block.len() < BLOCK {
            block.push(self.pick(&pool.hot, 0, Class::Hit));
        }
        self.rng.shuffle(&mut block);
        block.reverse();
        self.block = block;
    }
}

impl Iterator for Stream<'_> {
    type Item = Req;

    fn next(&mut self) -> Option<Req> {
        if self.block.is_empty() {
            self.refill();
        }
        self.block.pop()
    }
}

/// A uniform sample of at most [`RESERVOIR`] latencies (seconds) out of
/// `seen`.
struct Reservoir {
    seen: u64,
    kept: Vec<f64>,
    rng: Rng,
}

impl Reservoir {
    fn new(seed: u64) -> Reservoir {
        Reservoir {
            seen: 0,
            kept: Vec::with_capacity(RESERVOIR),
            rng: Rng::new(seed),
        }
    }

    fn push(&mut self, latency: f64) {
        self.seen += 1;
        if self.kept.len() < RESERVOIR {
            self.kept.push(latency);
        } else {
            let j = self.rng.range_u64(0, self.seen) as usize;
            if j < RESERVOIR {
                self.kept[j] = latency;
            }
        }
    }
}

/// When a closed loop ends.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After `slices` slices of `seconds / slices` each.
    Window { seconds: f64, slices: usize },
    /// After each client has sent this many requests (one slice).
    Requests(u64),
}

impl Stop {
    fn slices(self) -> usize {
        match self {
            Stop::Window { slices, .. } => slices,
            Stop::Requests(_) => 1,
        }
    }
}

/// What one client saw.
struct ClientLog {
    /// Latencies per slice of the loop.
    slices: Vec<Reservoir>,
    /// Replies per class, in [`CLASSES`] order.
    classes: [u64; 4],
    /// Per key: the digest of its first reply and how many replies it had.
    replies: HashMap<u64, (u64, u64)>,
    /// Replies whose digest differs from the first reply to the same key.
    changed: u64,
    wire_errors: u64,
}

impl ClientLog {
    fn new(seed: u64, client: u64, slices: usize) -> ClientLog {
        ClientLog {
            slices: (0..slices as u64)
                .map(|i| Reservoir::new(sub_seed(seed, 5000 + client * 64 + i)))
                .collect(),
            classes: [0; 4],
            replies: HashMap::new(),
            changed: 0,
            wire_errors: 0,
        }
    }
}

/// One slice of one client's loop: requests from `stream` until `stop`,
/// logged into slice `slice` of `log`.
fn client_loop(
    addr: std::net::SocketAddr,
    stream: &mut Stream<'_>,
    log: &mut ClientLog,
    slice: usize,
    stop: Stop,
    tracer: &Tracer,
) {
    let Ok(mut conn) = Client::connect(addr) else {
        log.wire_errors += 1;
        return;
    };
    let _loop = tracer.enter("harness", "serve.client");
    let start = Instant::now();
    let mut sent = 0u64;
    loop {
        let done = match stop {
            Stop::Window { seconds, slices } => secs(start) * slices as f64 >= seconds,
            Stop::Requests(n) => sent >= n,
        };
        if done {
            break;
        }
        let req = stream.next().expect("streams are endless");
        sent += 1;
        let t = Instant::now();
        let reply = tracer.span("bench", "service.client.call_bytes", || {
            conn.call_bytes(&req.payload)
        });
        let took = secs(t);
        match reply {
            Ok(reply) => {
                log.slices[slice].push(took);
                log.classes[req.class as usize] += 1;
                let digest = fnv64(&reply);
                let (first, count) = log.replies.entry(req.key).or_insert((digest, 0));
                *count += 1;
                if *first != digest {
                    log.changed += 1;
                }
            }
            Err(_) => log.wire_errors += 1,
        }
    }
}

/// One slice of a closed loop of one client per stream; returns its
/// length in seconds.
fn closed_loop(
    ctx: &Ctx,
    server: &Server,
    streams: &mut [Stream<'_>],
    logs: &mut [ClientLog],
    slice: usize,
    stop: Stop,
) -> f64 {
    let start = Instant::now();
    let parent = ctx.tracer.current();
    std::thread::scope(|s| {
        for (stream, log) in streams.iter_mut().zip(logs.iter_mut()) {
            let tracer = &ctx.tracer;
            let addr = server.addr();
            s.spawn(move || {
                tracer.adopt(parent);
                client_loop(addr, stream, log, slice, stop, tracer);
            });
        }
    });
    secs(start)
}

/// Checks every served reply, outside the timed window: each key's first
/// reply must equal `dispatch_bytes` on a fresh state (compared by FNV-1a
/// digest), and every later reply to the key must equal the first.
/// Returns the digest of all `(key, digest)` pairs in key order.
fn check_responses(pool: &Pool, logs: &[ClientLog], out: &mut Outcome) -> u64 {
    let mut served: HashMap<u64, (u64, u64)> = HashMap::new();
    let mut total = 0u64;
    let mut bad = 0u64;
    for log in logs {
        total += log.wire_errors + log.classes.iter().sum::<u64>();
        bad += log.wire_errors + log.changed;
        for (&key, &(digest, count)) in &log.replies {
            match served.entry(key) {
                Entry::Vacant(e) => {
                    e.insert((digest, count));
                }
                Entry::Occupied(mut e) if e.get().0 == digest => e.get_mut().1 += count,
                Entry::Occupied(_) => bad += count,
            }
        }
    }
    let state = ServiceState::new(MemoConfig::default(), 1);
    let mut keys: Vec<u64> = served.keys().copied().collect();
    keys.sort_unstable();
    let mut pairs = Vec::with_capacity(keys.len() * 16);
    for key in keys {
        let (digest, count) = served[&key];
        let (want, _) = dispatch_bytes(&pool.payload(key), &state);
        let is_error = want.starts_with(b"{\n  \"kind\": \"error\"");
        if is_error || fnv64(&want) != digest {
            bad += count;
            eprintln!(
                "perfbench: check failed: key {key:x}: batch reply {:?} differs from the served one",
                String::from_utf8_lossy(&want)
            );
        }
        pairs.extend(key.to_le_bytes());
        pairs.extend(digest.to_le_bytes());
    }
    let bad = bad.min(total);
    out.attempted += total;
    out.failed += bad;
    if bad > 0 {
        eprintln!("perfbench: check failed: {bad} of {total} served responses differ from batch");
    }
    fnv64(&pairs)
}

/// Starts the server and waits for its first ping reply.
fn start(ctx: &Ctx) -> Result<Server, String> {
    let server = ctx
        .tracer
        .span("bench", "service.server.start", || {
            Server::start(ServerConfig {
                workers: ctx.jobs,
                ..ServerConfig::default()
            })
        })
        .map_err(|e| format!("server start: {e}"))?;
    let mut client = Client::connect(server.addr()).map_err(|e| format!("connect: {e}"))?;
    let pong = ctx
        .tracer
        .span("bench", "service.client.call", || {
            client.call(&Request::Ping)
        })
        .map_err(|e| e.to_string())?;
    if pong.get("kind").and_then(Json::as_str) != Some("pong") {
        return Err("the first ping was not answered with a pong".to_string());
    }
    Ok(server)
}

/// Serves every hot key and sweep shape once, so the timed loop measures
/// the warm-cache path.
fn warm(server: &Server, pool: &Pool) -> Result<(), String> {
    let mut client = Client::connect(server.addr()).map_err(|e| e.to_string())?;
    for payload in pool.hot.iter().chain(&pool.sweeps) {
        client.call_bytes(payload).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// What a checked closed loop measured.
pub struct Loop {
    /// p50 and p99 latency (seconds) and requests per second, per slice.
    pub p50s: Vec<f64>,
    pub p99s: Vec<f64>,
    pub rates: Vec<f64>,
    pub hit_rate: f64,
    /// Replies per class, server memo misses and the digest of every
    /// `(key, reply digest)` pair: for a [`Stop::Requests`] loop these
    /// repeat exactly.
    pub signature: Vec<u64>,
}

/// Runs a closed loop against a fresh warmed server and checks it.
pub fn measured_loop(ctx: &Ctx, stop: Stop, out: &mut Outcome) -> Result<Loop, String> {
    let pool = Pool::new(ctx.seed);
    let server = start(ctx)?;
    warm(&server, &pool)?;
    let clients = ctx.jobs as u64;
    let mut streams: Vec<Stream> = (0..clients)
        .map(|c| Stream::new(&pool, c, clients))
        .collect();
    let mut logs: Vec<ClientLog> = (0..clients)
        .map(|c| ClientLog::new(ctx.seed, c, stop.slices()))
        .collect();
    let mut windows = Vec::new();
    let mut memo = CacheStats::default();
    for slice in 0..stop.slices() {
        let before = server.state().cache.stats();
        windows.push({
            let _op = ctx.tracer.enter("harness", "serve.op");
            closed_loop(ctx, &server, &mut streams, &mut logs, slice, stop)
        });
        let delta = server.state().cache.stats().since(before);
        memo.hits += delta.hits;
        memo.misses += delta.misses;
    }
    drop(server);
    let mut result = Loop {
        p50s: Vec::new(),
        p99s: Vec::new(),
        rates: Vec::new(),
        hit_rate: memo.hit_rate(),
        signature: Vec::new(),
    };
    let mut kept = 0;
    for (i, window) in windows.iter().enumerate() {
        let sample: Vec<f64> = logs
            .iter()
            .flat_map(|l| l.slices[i].kept.iter().copied())
            .collect();
        if sample.is_empty() {
            return Err(format!("slice {i} of the closed loop completed no request"));
        }
        kept += sample.len();
        result.p50s.push(percentile(&sample, 50.0));
        result.p99s.push(percentile(&sample, 99.0));
        let seen: u64 = logs.iter().map(|l| l.slices[i].seen).sum();
        result.rates.push(seen as f64 / window);
    }
    let per_class: Vec<u64> = (0..CLASSES.len())
        .map(|c| logs.iter().map(|l| l.classes[c]).sum())
        .collect();
    let requests: u64 = per_class.iter().sum();
    let window: f64 = windows.iter().sum();
    eprintln!(
        "perfbench: serve {requests} requests ({} hit, {} miss, {} sweep, {} storm) in {window:.2} s, \
         {} slices, {kept} latencies kept; median slice p50 {:.1} us, p99 {:.1} us, {:.0} req/s; memo hit rate {:.4}",
        per_class[0],
        per_class[1],
        per_class[2],
        per_class[3],
        result.p50s.len(),
        median(&result.p50s) * 1e6,
        median(&result.p99s) * 1e6,
        median(&result.rates),
        result.hit_rate
    );
    for (i, window) in windows.iter().enumerate() {
        eprintln!(
            "perfbench: slice {i}: {window:.3} s, p50 {:.1} us, p99 {:.1} us, {:.0} req/s",
            result.p50s[i] * 1e6,
            result.p99s[i] * 1e6,
            result.rates[i],
        );
    }
    let replies = check_responses(&pool, &logs, out);
    result.signature = per_class;
    result.signature.extend([memo.misses, replies]);
    Ok(result)
}

pub fn serve(ctx: &Ctx, out: &mut Outcome) -> Result<EndToEnd, String> {
    ctx.sample_host(3)?;
    let mut setups = Vec::new();
    drop(time_setups(&mut setups, || start(ctx))?);
    let stop = Stop::Window {
        seconds: ctx.seconds,
        slices: SLICES,
    };
    let run = measured_loop(ctx, stop, out)?;
    drop(time_setups(&mut setups, || start(ctx))?);
    ctx.sample_host(3)?;
    Ok(EndToEnd {
        setups,
        ops: run.p50s,
        op_hosts: Vec::new(),
        tails: run.p99s,
        rates: run.rates,
    })
}

/// In-process service layers: parse, dispatch per class, render, and the
/// transport cost as seen by a client.
pub fn layers(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let tr = &ctx.tracer;
    let _step = tr.enter("harness", "layers.service");
    let pool = Pool::new(ctx.seed);
    let hot = &pool.hot[2];
    let text = std::str::from_utf8(hot).expect("requests render as UTF-8");
    const N: u32 = 20_000;

    let t = Instant::now();
    tr.span("bench", "service.Request.parse", || {
        for _ in 0..N {
            let doc = Json::parse(std::hint::black_box(text)).expect("pool requests are JSON");
            std::hint::black_box(Request::parse(&doc).expect("pool requests parse"));
        }
    });
    out.put("service.parse_us", secs(t) * 1e6 / f64::from(N), "us");

    let state = ServiceState::new(MemoConfig::default(), 1);
    let req = Request::parse(&Json::parse(text).expect("JSON")).expect("request");
    let reply = memcomm_bench::service::dispatch(&req, &state).reply;
    let per_call = |n: u32, f: &mut dyn FnMut(u32)| {
        let t = Instant::now();
        for i in 0..n {
            f(i);
        }
        secs(t) * 1e6 / f64::from(n)
    };
    let hit = tr.span("bench", "service.dispatch.query-hit", || {
        per_call(N, &mut |_| {
            std::hint::black_box(memcomm_bench::service::dispatch(&req, &state));
        })
    });
    out.put("service.dispatch_us.query-hit", hit, "us");
    let mut stream = Stream::new(&pool, 0, ctx.jobs as u64);
    let misses: Vec<Request> = (0..200)
        .map(|_| {
            Request::parse(
                &Json::parse(std::str::from_utf8(&stream.miss().payload).expect("UTF-8"))
                    .expect("JSON"),
            )
            .expect("request")
        })
        .collect();
    let miss = tr.span("bench", "service.dispatch.query-miss", || {
        per_call(misses.len() as u32, &mut |i| {
            std::hint::black_box(memcomm_bench::service::dispatch(
                &misses[i as usize],
                &state,
            ));
        })
    });
    out.put("service.dispatch_us.query-miss", miss, "us");
    for (name, metric, list) in [
        (
            "service.dispatch.sweep",
            "service.dispatch_us.sweep",
            &pool.sweeps,
        ),
        (
            "service.dispatch.adversary",
            "service.dispatch_us.adversary",
            &pool.retry_storms,
        ),
    ] {
        let reqs: Vec<Request> = list
            .iter()
            .map(|p| {
                Request::parse(&Json::parse(std::str::from_utf8(p).expect("UTF-8")).expect("JSON"))
                    .expect("request")
            })
            .collect();
        let us = tr.span("bench", name, || {
            per_call(40, &mut |i| {
                std::hint::black_box(memcomm_bench::service::dispatch(
                    &reqs[i as usize % reqs.len()],
                    &state,
                ));
            })
        });
        out.put(metric, us, "us");
    }
    let render = tr.span("util", "json.render", || {
        per_call(N, &mut |_| {
            std::hint::black_box(reply.render());
        })
    });
    out.put("service.render_us", render, "us");

    // Transport: client-observed time of a hot query minus the in-process
    // byte-in/byte-out time of the same request.
    let server = start(ctx)?;
    warm(&server, &pool)?;
    let mut client = Client::connect(server.addr()).map_err(|e| e.to_string())?;
    let warm_state = server.state().clone();
    let samples = 2000;
    let mut remote = Vec::with_capacity(samples);
    let mut local = Vec::with_capacity(samples);
    let mut ping = Vec::with_capacity(samples);
    let ping_bytes = bytes(&Request::Ping);
    tr.span(
        "bench",
        "service.client.round_trips",
        || -> Result<(), String> {
            for _ in 0..samples {
                let t = Instant::now();
                let served = client.call_bytes(hot).map_err(|e| e.to_string())?;
                remote.push(secs(t));
                let t = Instant::now();
                let (batch, _) = dispatch_bytes(hot, &warm_state);
                local.push(secs(t));
                out.check(served == batch, || {
                    "served hot query differs from dispatch_bytes".to_string()
                });
                let t = Instant::now();
                client.call_bytes(&ping_bytes).map_err(|e| e.to_string())?;
                ping.push(secs(t));
            }
            Ok(())
        },
    )?;
    drop(client);
    drop(server);
    out.put(
        "service.transport_us",
        (percentile(&remote, 50.0) - percentile(&local, 50.0)) * 1e6,
        "us",
    );
    out.put(
        "util.frame.ping_rtt_us",
        percentile(&ping, 50.0) * 1e6,
        "us",
    );

    // The workload's own mix, briefly: hit rate and the headline figures.
    let stop = Stop::Window {
        seconds: 2.0,
        slices: 2,
    };
    let run = measured_loop(ctx, stop, out)?;
    out.put("service.memo.hit_rate", run.hit_rate, "ratio");
    out.put("headline.serve_rps", median(&run.rates), "1/s");
    out.put("headline.serve_p50_us", median(&run.p50s) * 1e6, "us");
    out.put("headline.serve_p99_us", median(&run.p99s) * 1e6, "us");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn draw(seed: u64, client: u64, n: usize) -> Vec<Req> {
        let pool = Pool::new(seed);
        Stream::new(&pool, client, 2).take(n).collect()
    }

    #[test]
    fn the_same_seed_replays_and_another_seed_differs() {
        assert_eq!(draw(7, 0, 500), draw(7, 0, 500));
        assert_ne!(draw(7, 0, 500), draw(8, 0, 500));
        assert_ne!(draw(7, 0, 500), draw(7, 1, 500));
    }

    #[test]
    fn blocks_hold_exact_class_counts_and_keys_name_their_payloads() {
        let pool = Pool::new(3);
        let reqs: Vec<Req> = Stream::new(&pool, 1, 2).take(10 * BLOCK).collect();
        for block in reqs.chunks(BLOCK) {
            let n = |c| block.iter().filter(|r| r.class == c).count();
            assert_eq!(n(Class::Miss), MISSES);
            assert_eq!(n(Class::Sweep), SWEEPS);
            assert_eq!(n(Class::Storm), INCASTS + RETRY_STORMS);
        }
        for r in &reqs {
            assert_eq!(pool.payload(r.key), r.payload);
        }
    }

    /// More misses per client than a 30 s run at several times the rate of
    /// a 2-CPU machine sends, across a band boundary, for 2 and 3 clients.
    #[test]
    fn misses_never_repeat_and_never_name_a_hot_key() {
        let pool = Pool::new(11);
        let hot: HashSet<&Vec<u8>> = pool.hot.iter().collect();
        for clients in [2u64, 3] {
            let mut seen = HashSet::new();
            for c in 0..clients {
                let mut stream = Stream::new(&pool, c, clients);
                for _ in 0..40_000 {
                    let miss = stream.miss();
                    assert!(!hot.contains(&miss.payload));
                    assert!(seen.insert(miss.payload), "miss {:x} repeats", miss.key);
                }
            }
        }
    }
}
