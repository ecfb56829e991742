//! The request/response protocol of the simulation service.
//!
//! Every message on the wire is one [`memcomm_util::frame`] frame whose
//! payload is the deterministic rendering of a JSON object. Requests carry
//! a `kind` discriminator plus kind-specific fields; [`Request::parse`] is
//! strict — unknown kinds, unknown fields, ill-typed values and values
//! outside their range ([`Request::check`]) are all protocol errors, so a
//! typo'd client learns immediately instead of silently getting defaults.
//! Responses echo a `kind` of their own; error responses are
//! `{"kind": "error", "code": ..., "error": ...}` with the rendered
//! [`SimError`] as the message.
//!
//! `repro`'s command line maps onto the same `sweep` and `adversary`
//! requests ([`Request::from_args`]) and passes the same range check.
//! Response bytes are a pure function of the request: a served `sweep` is
//! the same [`crate::runner::FullReport::to_json`] rendering the batch
//! `repro --json` writes, an `adversary` the same
//! [`crate::adversary::scenario_json`] document, and a `query` prices one
//! basic transfer exactly as the tables do. The served-vs-batch
//! differential tier pins this byte identity.

use memcomm_commops::Collective;
use memcomm_machines::Machine;
use memcomm_memsim::{Measurement, SimError, SimResult};
use memcomm_model::BasicTransfer;
use memcomm_netsim::AdversaryKind;
use memcomm_util::json::Json;

use crate::adversary::ScenarioOptions;
use crate::collectives::CollectiveSettings;
use crate::experiments::{EngineSettings, FaultSettings};
use crate::runner::{SweepOptions, SECTIONS};

/// A parsed service request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe; answered with `{"kind": "pong"}`.
    Ping,
    /// Price one basic transfer on one machine.
    Query {
        /// Machine name (`t3d` or `paragon`).
        machine: String,
        /// Transfer in the paper's notation (`1C1`, `0Dw`, ...).
        transfer: BasicTransfer,
        /// Payload words.
        words: u64,
    },
    /// Run sweep sections and return the full deterministic report.
    Sweep(SweepOptions),
    /// Run Table 6 on the discrete-event engine (report with only the
    /// engine rows populated).
    Engine(EngineSettings),
    /// Run the collective-operations layer (report with only the
    /// collective rows populated).
    Collectives(CollectiveSettings),
    /// Run one adversarial-resilience scenario.
    Adversary(ScenarioOptions),
    /// Server-side cache and request counters.
    Stats,
    /// The served OpenMetrics exposition.
    Metrics,
    /// Stop accepting work and shut the server down.
    Shutdown,
}

impl Request {
    /// The request class used for per-class metrics and latency
    /// histograms.
    pub fn class(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::Query { .. } => "query",
            Request::Sweep(_) => "sweep",
            Request::Engine(_) => "engine",
            Request::Collectives(_) => "collectives",
            Request::Adversary(_) => "adversary",
            Request::Stats => "stats",
            Request::Metrics => "metrics",
            Request::Shutdown => "shutdown",
        }
    }

    /// Renders the request as its canonical wire JSON, with its
    /// [`Request::class`] as the `kind`.
    pub fn to_json(&self) -> Json {
        let fields = match self {
            Request::Query {
                machine,
                transfer,
                words,
            } => vec![
                ("machine", Json::str(machine)),
                ("transfer", Json::str(&transfer.to_string())),
                ("words", (*words).into()),
            ],
            Request::Sweep(opts) => vec![("options", sweep_to_json(opts))],
            Request::Engine(s) => vec![("settings", engine_to_json(s))],
            Request::Collectives(s) => vec![("settings", collectives_to_json(s))],
            Request::Adversary(s) => vec![("options", scenario_to_json(s))],
            Request::Ping | Request::Stats | Request::Metrics | Request::Shutdown => Vec::new(),
        };
        Json::obj(std::iter::once(("kind", Json::str(self.class()))).chain(fields))
    }

    /// The sweep a report request runs: a `sweep` as given; an `engine` or
    /// `collectives` request as a one-worker sweep that selects only its
    /// section, by the name its status reports. `None` for the other kinds.
    pub fn sweep_options(&self) -> Option<SweepOptions> {
        let (section, engine, collectives) = match self {
            Request::Sweep(opts) => return Some(opts.clone()),
            Request::Engine(s) => ("engine", Some(*s), None),
            Request::Collectives(s) => ("collectives", None, Some(s.clone())),
            _ => return None,
        };
        Some(SweepOptions {
            jobs: 1,
            sections: [section.to_string()].into(),
            engine,
            collectives,
            ..SweepOptions::default()
        })
    }

    /// The range rules both front ends apply, [`Request::parse`] and
    /// [`Request::from_args`]: fault probabilities lie in [0, 1], since a
    /// rate of 1 or more fires on every draw.
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] naming the first field out of range.
    pub fn check(&self) -> SimResult<()> {
        let probabilities: &[(&str, f64)] = match self {
            Request::Sweep(o) => &[
                ("faults.rate", o.faults.rate),
                ("faults.outage_rate", o.faults.outage_rate),
            ],
            Request::Adversary(o) => &[("rate", o.rate)],
            _ => &[],
        };
        match probabilities.iter().find(|(_, p)| !(0.0..=1.0).contains(p)) {
            Some((field, p)) => Err(protocol(format!(
                "field {field:?} must be a probability in [0, 1], not {p}"
            ))),
            None => Ok(()),
        }
    }

    /// Parses a request from its wire JSON and applies [`Request::check`].
    ///
    /// # Errors
    ///
    /// [`SimError::Protocol`] describing the first violation: not an
    /// object, missing/unknown `kind`, unknown field, an ill-typed value,
    /// or a value out of range.
    pub fn parse(doc: &Json) -> SimResult<Request> {
        let request = match field_str(doc, "kind")? {
            "ping" => {
                check_fields(doc, &["kind"])?;
                Request::Ping
            }
            "query" => {
                check_fields(doc, &["kind", "machine", "transfer", "words"])?;
                let machine = field_str(doc, "machine")?.to_string();
                parse_machine(&machine)?;
                let transfer = field_str(doc, "transfer")?;
                let transfer = BasicTransfer::parse(transfer)
                    .map_err(|e| protocol(format!("bad transfer {transfer:?}: {e}")))?;
                Request::Query {
                    machine,
                    transfer,
                    words: field_u64(doc, "words")?,
                }
            }
            "sweep" => {
                check_fields(doc, &["kind", "options"])?;
                Request::Sweep(parse_sweep(doc.get("options"))?)
            }
            "engine" => {
                check_fields(doc, &["kind", "settings"])?;
                Request::Engine(parse_engine(doc.get("settings"))?)
            }
            "collectives" => {
                check_fields(doc, &["kind", "settings"])?;
                Request::Collectives(parse_collectives(doc.get("settings"))?)
            }
            "adversary" => {
                check_fields(doc, &["kind", "options"])?;
                Request::Adversary(parse_scenario(doc.get("options"))?)
            }
            "stats" => {
                check_fields(doc, &["kind"])?;
                Request::Stats
            }
            "metrics" => {
                check_fields(doc, &["kind"])?;
                Request::Metrics
            }
            "shutdown" => {
                check_fields(doc, &["kind"])?;
                Request::Shutdown
            }
            other => return Err(protocol(format!("unknown request kind {other:?}"))),
        };
        request.check()?;
        Ok(request)
    }
}

/// A typed protocol error at the service boundary (cycle 0: the violation
/// happens before any simulation runs).
pub fn protocol(detail: String) -> SimError {
    SimError::Protocol { detail, at: 0 }
}

/// Resolves a machine name.
///
/// # Errors
///
/// [`SimError::Protocol`] for anything but `t3d` / `paragon`.
pub fn parse_machine(name: &str) -> SimResult<Machine> {
    match name {
        "t3d" => Ok(Machine::t3d()),
        "paragon" => Ok(Machine::paragon()),
        other => Err(protocol(format!(
            "unknown machine {other:?} (want t3d or paragon)"
        ))),
    }
}

fn obj_pairs(doc: &Json) -> SimResult<&[(String, Json)]> {
    match doc {
        Json::Obj(pairs) => Ok(pairs),
        _ => Err(protocol("request must be a JSON object".to_string())),
    }
}

fn check_fields(doc: &Json, allowed: &[&str]) -> SimResult<()> {
    for (k, _) in obj_pairs(doc)? {
        if !allowed.contains(&k.as_str()) {
            return Err(protocol(format!(
                "unknown field {k:?} (allowed: {allowed:?})"
            )));
        }
    }
    Ok(())
}

fn field_str<'a>(doc: &'a Json, key: &str) -> SimResult<&'a str> {
    obj_pairs(doc)?;
    doc.get(key)
        .and_then(Json::as_str)
        .ok_or_else(|| protocol(format!("field {key:?} must be a string")))
}

fn field_u64(doc: &Json, key: &str) -> SimResult<u64> {
    match doc.get(key) {
        Some(Json::Int(n)) if *n >= 0 => Ok(*n as u64),
        _ => Err(protocol(format!(
            "field {key:?} must be a non-negative integer"
        ))),
    }
}

fn opt_u64(doc: &Json, key: &str, default: u64) -> SimResult<u64> {
    match doc.get(key) {
        None => Ok(default),
        Some(_) => field_u64(doc, key),
    }
}

fn opt_usize(doc: &Json, key: &str, default: usize) -> SimResult<usize> {
    Ok(opt_u64(doc, key, default as u64)? as usize)
}

fn opt_f64(doc: &Json, key: &str, default: f64) -> SimResult<f64> {
    match doc.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_f64()
            .ok_or_else(|| protocol(format!("field {key:?} must be a number"))),
    }
}

fn opt_bool(doc: &Json, key: &str, default: bool) -> SimResult<bool> {
    match doc.get(key) {
        None => Ok(default),
        Some(Json::Bool(b)) => Ok(*b),
        Some(_) => Err(protocol(format!("field {key:?} must be a boolean"))),
    }
}

/// The strings of an optional array field, each resolved by `resolve`;
/// `what` names the items when one is not a string.
fn opt_names<T>(
    doc: &Json,
    key: &str,
    what: &str,
    resolve: impl Fn(&str) -> SimResult<T>,
) -> SimResult<Option<Vec<T>>> {
    let Some(v) = doc.get(key) else {
        return Ok(None);
    };
    let items = v
        .as_arr()
        .ok_or_else(|| protocol(format!("field {key:?} must be an array")))?;
    let names = items.iter().map(|item| {
        let name = item.as_str();
        resolve(name.ok_or_else(|| protocol(format!("{what} must be strings")))?)
    });
    names.collect::<SimResult<Vec<T>>>().map(Some)
}

fn parse_faults(doc: Option<&Json>) -> SimResult<FaultSettings> {
    let default = FaultSettings::default();
    let Some(doc) = doc else {
        return Ok(default);
    };
    check_fields(doc, &["seed", "rate", "outage_rate", "max_cycles"])?;
    let max_cycles = match doc.get("max_cycles") {
        None | Some(Json::Null) => None,
        Some(_) => Some(field_u64(doc, "max_cycles")?),
    };
    Ok(FaultSettings {
        seed: opt_u64(doc, "seed", default.seed)?,
        rate: opt_f64(doc, "rate", default.rate)?,
        outage_rate: opt_f64(doc, "outage_rate", default.outage_rate)?,
        max_cycles,
    })
}

fn parse_engine(doc: Option<&Json>) -> SimResult<EngineSettings> {
    let default = EngineSettings::default();
    let Some(doc) = doc else {
        return Ok(default);
    };
    check_fields(doc, &["nodes", "transpose_n", "sor_n", "jobs", "shards"])?;
    Ok(EngineSettings {
        nodes: opt_usize(doc, "nodes", default.nodes)?,
        transpose_n: opt_u64(doc, "transpose_n", default.transpose_n)?,
        sor_n: opt_u64(doc, "sor_n", default.sor_n)?,
        jobs: opt_usize(doc, "jobs", default.jobs)?,
        shards: opt_usize(doc, "shards", default.shards)?,
    })
}

fn parse_collectives(doc: Option<&Json>) -> SimResult<CollectiveSettings> {
    let default = CollectiveSettings::default();
    let Some(doc) = doc else {
        return Ok(default);
    };
    check_fields(doc, &["kinds", "nodes", "words", "jobs", "shards"])?;
    let kinds = opt_names(doc, "kinds", "collective kinds", |name| {
        Collective::parse(name).ok_or_else(|| protocol(format!("unknown collective {name:?}")))
    })?;
    Ok(CollectiveSettings {
        kinds: kinds.unwrap_or_default(),
        nodes: opt_usize(doc, "nodes", default.nodes)?,
        words: opt_u64(doc, "words", default.words)?,
        jobs: opt_usize(doc, "jobs", default.jobs)?,
        shards: opt_usize(doc, "shards", default.shards)?,
    })
}

fn parse_sweep(doc: Option<&Json>) -> SimResult<SweepOptions> {
    // Service defaults favor the serving process: one worker per request
    // (concurrency comes from serving many requests, not from one request
    // fanning wide), the standard payload sizes.
    let mut opts = SweepOptions {
        jobs: 1,
        ..SweepOptions::default()
    };
    let Some(doc) = doc else {
        return Ok(opts);
    };
    check_fields(
        doc,
        &[
            "jobs",
            "micro_words",
            "exchange_words",
            "sections",
            "faults",
            "phases",
            "engine",
            "collectives",
        ],
    )?;
    opts.jobs = opt_usize(doc, "jobs", opts.jobs)?.max(1);
    opts.micro_words = opt_u64(doc, "micro_words", opts.micro_words)?;
    opts.exchange_words = opt_u64(doc, "exchange_words", opts.exchange_words)?;
    let sections = opt_names(doc, "sections", "sections", |name| {
        SECTIONS
            .contains(&name)
            .then(|| name.to_string())
            .ok_or_else(|| {
                protocol(format!(
                    "unknown section {name:?} (want one of {SECTIONS:?})"
                ))
            })
    })?;
    if let Some(sections) = sections {
        opts.sections = sections.into_iter().collect();
    }
    opts.faults = parse_faults(doc.get("faults"))?;
    opts.phases = opt_bool(doc, "phases", false)?;
    if let Some(v) = doc.get("engine") {
        opts.engine = Some(parse_engine(Some(v))?);
    }
    if let Some(v) = doc.get("collectives") {
        opts.collectives = Some(parse_collectives(Some(v))?);
    }
    Ok(opts)
}

fn parse_scenario(doc: Option<&Json>) -> SimResult<ScenarioOptions> {
    let Some(doc) = doc else {
        return Err(protocol(
            "adversary requests need an options object with a kind".to_string(),
        ));
    };
    check_fields(
        doc,
        &[
            "kind",
            "base_bytes",
            "nodes",
            "shards",
            "jobs",
            "seed",
            "rate",
            "sample_every",
        ],
    )?;
    let name = field_str(doc, "kind")?;
    let kind = AdversaryKind::parse(name)
        .ok_or_else(|| protocol(format!("unknown adversary kind {name:?}")))?;
    let mut opts = ScenarioOptions::new(kind);
    opts.base_bytes = opt_u64(doc, "base_bytes", opts.base_bytes)?;
    opts.nodes = match doc.get("nodes") {
        None | Some(Json::Null) => None,
        Some(_) => Some(field_u64(doc, "nodes")? as usize),
    };
    opts.shards = opt_usize(doc, "shards", opts.shards)?;
    opts.jobs = opt_usize(doc, "jobs", opts.jobs)?;
    opts.seed = opt_u64(doc, "seed", opts.seed)?;
    opts.rate = opt_f64(doc, "rate", opts.rate)?;
    opts.sample_every = opt_u64(doc, "sample_every", opts.sample_every)?;
    Ok(opts)
}

fn faults_to_json(f: &FaultSettings) -> Json {
    Json::obj([
        ("seed", f.seed.into()),
        ("rate", f.rate.into()),
        ("outage_rate", f.outage_rate.into()),
        ("max_cycles", f.max_cycles.map_or(Json::Null, |c| c.into())),
    ])
}

fn engine_to_json(s: &EngineSettings) -> Json {
    Json::obj([
        ("nodes", (s.nodes as u64).into()),
        ("transpose_n", s.transpose_n.into()),
        ("sor_n", s.sor_n.into()),
        ("jobs", (s.jobs as u64).into()),
        ("shards", (s.shards as u64).into()),
    ])
}

fn collectives_to_json(s: &CollectiveSettings) -> Json {
    Json::obj([
        ("kinds", Json::arr(&s.kinds, |k| Json::str(k.name()))),
        ("nodes", (s.nodes as u64).into()),
        ("words", s.words.into()),
        ("jobs", (s.jobs as u64).into()),
        ("shards", (s.shards as u64).into()),
    ])
}

fn sweep_to_json(opts: &SweepOptions) -> Json {
    let sections: Vec<&String> = opts.sections.iter().collect();
    let mut pairs = vec![
        ("jobs", (opts.jobs as u64).into()),
        ("micro_words", opts.micro_words.into()),
        ("exchange_words", opts.exchange_words.into()),
        ("sections", Json::arr(&sections, |s| Json::str(s))),
        ("faults", faults_to_json(&opts.faults)),
        ("phases", opts.phases.into()),
    ];
    if let Some(e) = &opts.engine {
        pairs.push(("engine", engine_to_json(e)));
    }
    if let Some(c) = &opts.collectives {
        pairs.push(("collectives", collectives_to_json(c)));
    }
    Json::obj(pairs)
}

fn scenario_to_json(s: &ScenarioOptions) -> Json {
    Json::obj([
        ("kind", Json::str(s.kind.name())),
        ("base_bytes", s.base_bytes.into()),
        ("nodes", s.nodes.map_or(Json::Null, |n| (n as u64).into())),
        ("shards", (s.shards as u64).into()),
        ("jobs", (s.jobs as u64).into()),
        ("seed", s.seed.into()),
        ("rate", s.rate.into()),
        ("sample_every", s.sample_every.into()),
    ])
}

/// Builds the `query` response document.
pub fn query_response(
    machine: &str,
    transfer: BasicTransfer,
    words: u64,
    result: Option<&Measurement>,
    mbps: Option<f64>,
) -> Json {
    Json::obj([
        ("kind", Json::str("query")),
        ("machine", Json::str(machine)),
        ("transfer", Json::str(&transfer.to_string())),
        ("words", words.into()),
        (
            "result",
            match (result, mbps) {
                (Some(m), Some(r)) => Json::obj([
                    ("words", m.words.into()),
                    ("cycles", m.cycles.into()),
                    ("mbps", r.into()),
                ]),
                _ => Json::Null,
            },
        ),
    ])
}

/// Builds an error response from a typed simulation error. Protocol
/// violations get `code: "protocol"`, everything else `code: "sim"`.
pub fn error_response(e: &SimError) -> Json {
    let code = match e {
        SimError::Protocol { .. } => "protocol",
        _ => "sim",
    };
    Json::obj([
        ("kind", Json::str("error")),
        ("code", Json::str(code)),
        ("error", Json::str(&e.to_string())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(req: &Request) {
        let doc = req.to_json();
        let parsed = Request::parse(&Json::parse(&doc.render()).expect("wire JSON parses"))
            .expect("request parses");
        assert_eq!(&parsed, req, "round trip through the wire form");
    }

    #[test]
    fn requests_round_trip_through_wire_json() {
        round_trip(&Request::Ping);
        round_trip(&Request::Query {
            machine: "t3d".to_string(),
            transfer: BasicTransfer::parse("1C64").unwrap(),
            words: 4096,
        });
        round_trip(&Request::Sweep(SweepOptions {
            jobs: 2,
            sections: ["table1".to_string(), "figure4".to_string()]
                .into_iter()
                .collect(),
            ..SweepOptions::default()
        }));
        round_trip(&Request::Engine(EngineSettings {
            nodes: 16,
            ..EngineSettings::default()
        }));
        round_trip(&Request::Collectives(CollectiveSettings::default()));
        let mut sopts = ScenarioOptions::new(AdversaryKind::Incast);
        sopts.nodes = Some(16);
        sopts.rate = 0.0;
        round_trip(&Request::Adversary(sopts));
        round_trip(&Request::Stats);
        round_trip(&Request::Metrics);
        round_trip(&Request::Shutdown);
    }

    #[test]
    fn parse_rejects_malformed_requests() {
        let bad = |text: &str| {
            let doc = Json::parse(text).expect("test JSON parses");
            match Request::parse(&doc) {
                Err(SimError::Protocol { .. }) => {}
                other => panic!("{text}: want a protocol error, got {other:?}"),
            }
        };
        bad("[1, 2]");
        bad("{\"kind\": \"warp\"}");
        bad("{\"kind\": \"ping\", \"extra\": 1}");
        bad("{\"kind\": \"query\", \"machine\": \"t3d\", \"transfer\": \"9Z9\", \"words\": 4}");
        bad("{\"kind\": \"query\", \"machine\": \"cm5\", \"transfer\": \"1C1\", \"words\": 4}");
        bad("{\"kind\": \"query\", \"machine\": \"t3d\", \"transfer\": \"1C1\", \"words\": -3}");
        bad("{\"kind\": \"sweep\", \"options\": {\"sections\": [\"tableX\"]}}");
        bad("{\"kind\": \"adversary\"}");
        bad("{\"kind\": \"adversary\", \"options\": {\"kind\": \"meteor\"}}");
        // Fault probabilities outside [0, 1].
        bad(
            r#"{"kind":"adversary","options":{"kind":"incast","nodes":16,"base_bytes":64,"rate":5}}"#,
        );
        bad(r#"{"kind":"sweep","options":{"faults":{"rate":3}}}"#);
        bad(r#"{"kind":"sweep","options":{"faults":{"outage_rate":7}}}"#);
    }

    #[test]
    fn error_responses_carry_the_taxonomy() {
        let p = error_response(&protocol("boom".to_string()));
        assert_eq!(p.get("code").and_then(Json::as_str), Some("protocol"));
        let s = error_response(&SimError::CycleBudget { budget: 1, at: 2 });
        assert_eq!(s.get("code").and_then(Json::as_str), Some("sim"));
    }
}
