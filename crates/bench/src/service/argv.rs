//! `repro`'s command line as a typed [`Request`]: [`Request::from_args`]
//! maps argv onto the same `sweep` and `adversary` requests the service
//! parses from wire JSON, so both front ends pass one range check
//! ([`Request::check`]). What argv says beyond the request — which files
//! to write, which optional tables to print — comes back as [`Outputs`].

use memcomm_commops::Collective;
use memcomm_netsim::AdversaryKind;

use super::Request;
use crate::adversary::ScenarioOptions;
use crate::collectives::CollectiveSettings;
use crate::experiments::EngineSettings;
use crate::runner::{SweepOptions, SECTIONS};

/// What `repro` writes and prints besides the request's text report. None
/// of it changes a result.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Outputs {
    /// `--json PATH`: the deterministic sweep report or scenario document.
    pub json: Option<String>,
    /// `--metrics PATH`: the sweep's run metrics (and a histogram table).
    pub metrics: Option<String>,
    /// `--metrics-out PATH`: the registry (and storm telemetry) as OpenMetrics.
    pub metrics_out: Option<String>,
    /// `--trace-out PATH`: the sweep's simulated spans as a Chrome trace.
    pub trace_out: Option<String>,
    /// `--profile PATH`: the same spans as a collapsed-stack profile.
    pub profile: Option<String>,
    /// `--flow-latency`: print the storm's per-class latency table.
    pub flow_latency: bool,
    /// `--heatmap`: print the sampled storm's utilization and hotspot grids.
    pub heatmap: bool,
}

/// The flags a storm reads. Every other flag only a sweep reads, and
/// `--adversary` refuses it.
const STORM_FLAGS: &[&str] = &[
    "--adversary",
    "--adversary-bytes",
    "--nodes",
    "--shards",
    "--jobs",
    "--serial",
    "--faults",
    "--fault-rate",
    "--sample-every",
    "--json",
    "--metrics-out",
    "--flow-latency",
    "--heatmap",
];

const PROBABILITY: &str = "--fault-rate takes a probability in [0, 1]";
const COLLECTIVE: &str = "--collective takes one of broadcast, allgather-ring, allgather-rd, \
                          allreduce-rd, allreduce-ring, all-to-all";
const ADVERSARY: &str = "--adversary takes one of heavy-tail, incast, hotspot, bursty, retry-storm";

fn number(flag: &str, value: Option<&String>) -> Result<u64, String> {
    value
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{flag} takes a number"))
}

fn path(flag: &str, value: Option<&String>) -> Result<Option<String>, String> {
    let path = value.ok_or_else(|| format!("{flag} takes a path"))?;
    Ok(Some(path.clone()))
}

impl Request {
    /// Maps `repro`'s arguments (without the program name) onto a `sweep`
    /// request, or an `adversary` request under `--adversary KIND`, plus
    /// its [`Outputs`].
    ///
    /// # Errors
    ///
    /// A one-line usage message: an unknown flag, a missing or malformed
    /// value, a flag the request does not read, a broken cross-flag rule,
    /// or a fault rate outside [`Request::check`]'s range.
    pub fn from_args(args: &[String]) -> Result<(Request, Outputs), String> {
        let mut sweep = SweepOptions::default();
        let mut engine = EngineSettings::default();
        let mut collectives = CollectiveSettings::default();
        // Holds the flags a storm reads until `--adversary` names its kind.
        let mut storm = ScenarioOptions::new(AdversaryKind::Incast);
        let mut out = Outputs::default();
        let (mut adversary, mut event_engine) = (None, false);
        let mut seen: Vec<&str> = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let flag = arg.as_str();
            seen.push(flag);
            match flag {
                "--all" | "--collectives" => {}
                "--faults" => {
                    let seed = number(flag, it.next())?;
                    (sweep.faults.seed, storm.seed) = (seed, seed);
                    sweep.sections.insert("faults".to_string());
                }
                "--fault-rate" => {
                    storm.rate = it.next().and_then(|v| v.parse().ok()).ok_or(PROBABILITY)?;
                }
                "--max-cycles" => sweep.faults.max_cycles = Some(number(flag, it.next())?),
                "--words" => sweep.micro_words = number(flag, it.next())?,
                "--exchange-words" => sweep.exchange_words = number(flag, it.next())?,
                "--jobs" => sweep.jobs = number(flag, it.next())? as usize,
                "--serial" => sweep.jobs = 1,
                "--json" => out.json = path(flag, it.next())?,
                "--metrics" => out.metrics = path(flag, it.next())?,
                "--metrics-out" => out.metrics_out = path(flag, it.next())?,
                "--trace-out" => out.trace_out = path(flag, it.next())?,
                "--profile" => out.profile = path(flag, it.next())?,
                "--phases" => sweep.phases = true,
                "--engine" => {
                    event_engine = match it.next().map(String::as_str) {
                        Some("event") => true,
                        Some("analytic") => false,
                        _ => return Err("--engine takes 'analytic' or 'event'".to_string()),
                    }
                }
                "--nodes" => {
                    let n = number(flag, it.next())? as usize;
                    (engine.nodes, collectives.nodes, storm.nodes) = (n, n, Some(n));
                }
                "--shards" => {
                    let n = number(flag, it.next())? as usize;
                    (engine.shards, collectives.shards, storm.shards) = (n, n, n);
                }
                "--engine-transpose-n" => engine.transpose_n = number(flag, it.next())?,
                "--engine-sor-n" => engine.sor_n = number(flag, it.next())?,
                "--collective" => {
                    let kind = it.next().and_then(|v| Collective::parse(v));
                    collectives.kinds.push(kind.ok_or(COLLECTIVE)?);
                }
                "--collective-words" => collectives.words = number(flag, it.next())?,
                "--adversary" => {
                    let kind = it.next().and_then(|v| AdversaryKind::parse(v));
                    adversary = Some(kind.ok_or(ADVERSARY)?);
                }
                "--adversary-bytes" => storm.base_bytes = number(flag, it.next())?,
                "--flow-latency" => out.flow_latency = true,
                "--sample-every" => storm.sample_every = number(flag, it.next())?,
                "--heatmap" => out.heatmap = true,
                _ => match flag.strip_prefix("--").filter(|key| SECTIONS.contains(key)) {
                    Some(key) => {
                        sweep.sections.insert(key.to_string());
                    }
                    None => return Err(format!("unknown flag {flag}")),
                },
            }
        }
        let given = |flag: &str| seen.contains(&flag);
        if out.heatmap && storm.sample_every == 0 {
            return Err("--heatmap requires --sample-every N".to_string());
        }
        let request = if let Some(kind) = adversary {
            if let Some(flag) = seen.iter().find(|f| !STORM_FLAGS.contains(f)) {
                return Err(format!("--adversary does not read the sweep flag {flag}"));
            }
            Request::Adversary(ScenarioOptions {
                kind,
                jobs: sweep.jobs,
                ..storm
            })
        } else {
            let with_collectives = given("--collectives");
            let rules = [
                (
                    given("--adversary-bytes") || out.flow_latency,
                    "--adversary-bytes/--flow-latency require --adversary KIND",
                ),
                (
                    storm.sample_every > 0 || out.heatmap,
                    "--sample-every/--heatmap require --adversary KIND",
                ),
                (
                    given("--fault-rate") && !sweep.sections.contains("faults"),
                    "--fault-rate requires --faults SEED",
                ),
                (
                    (given("--engine-transpose-n") || given("--engine-sor-n")) && !event_engine,
                    "--engine-transpose-n/--engine-sor-n require --engine event",
                ),
                (
                    (given("--nodes") || given("--shards")) && !event_engine && !with_collectives,
                    "--nodes/--shards require --engine event or --collectives",
                ),
                (
                    (given("--collective") || given("--collective-words")) && !with_collectives,
                    "--collective/--collective-words require --collectives",
                ),
            ];
            if let Some((_, rule)) = rules.into_iter().find(|&(broken, _)| broken) {
                return Err(rule.to_string());
            }
            if sweep.sections.contains("faults") {
                // A seeded plan injects at --fault-rate, by default the
                // storm's light 2% (zero turns it back into a baseline).
                sweep.faults.rate = storm.rate;
                sweep.faults.outage_rate = storm.rate / 4.0;
            }
            sweep.engine = event_engine.then_some(engine);
            sweep.collectives = with_collectives.then_some(CollectiveSettings {
                jobs: sweep.jobs,
                ..collectives
            });
            if given("--all") {
                // --all wins over individual selections: run every section.
                sweep.sections.clear();
            }
            Request::Sweep(sweep)
        };
        // The only probability argv sets is --fault-rate (a sweep's outage
        // rate is a quarter of it), so a range failure is that flag's.
        request.check().map_err(|_| PROBABILITY.to_string())?;
        Ok((request, out))
    }
}

#[cfg(test)]
mod tests {
    use memcomm_commops::Collective;
    use memcomm_memsim::SimError;
    use memcomm_util::json::Json;
    use memcomm_util::par;

    use super::*;
    use crate::experiments::FaultSettings;

    fn parse(args: &str) -> Result<(Request, Outputs), String> {
        let args: Vec<String> = args.split_whitespace().map(str::to_string).collect();
        Request::from_args(&args)
    }

    fn sweep(args: &str) -> SweepOptions {
        match parse(args) {
            Ok((Request::Sweep(opts), _)) => opts,
            other => panic!("{args:?}: want a sweep, got {other:?}"),
        }
    }

    fn storm(args: &str) -> ScenarioOptions {
        match parse(args) {
            Ok((Request::Adversary(opts), _)) => opts,
            other => panic!("{args:?}: want a storm, got {other:?}"),
        }
    }

    fn outputs(args: &str) -> Outputs {
        parse(args).unwrap_or_else(|e| panic!("{args:?}: {e}")).1
    }

    fn refused(args: &str) -> String {
        match parse(args) {
            Err(msg) => msg,
            Ok(parsed) => panic!("{args:?}: want a usage error, got {parsed:?}"),
        }
    }

    fn sections(keys: &[&str]) -> std::collections::BTreeSet<String> {
        keys.iter().map(|k| k.to_string()).collect()
    }

    #[test]
    fn no_arguments_run_the_default_sweep() {
        assert_eq!(
            parse("").unwrap(),
            (Request::Sweep(SweepOptions::default()), Outputs::default())
        );
        // A zero sampling interval is the default, so a sweep accepts it.
        assert_eq!(sweep("--sample-every 0"), SweepOptions::default());
    }

    #[test]
    fn sweep_flags_map_onto_sweep_options() {
        let default = SweepOptions::default;
        assert_eq!(sweep("--words 1024").micro_words, 1024);
        assert_eq!(sweep("--exchange-words 512").exchange_words, 512);
        assert_eq!(sweep("--jobs 3").jobs, 3);
        assert_eq!(sweep("--serial").jobs, 1);
        assert_eq!(sweep("--jobs 3 --serial").jobs, 1, "the last flag wins");
        assert_eq!(sweep("--serial --jobs 3").jobs, 3, "the last flag wins");
        assert_eq!(sweep("--max-cycles 9").faults.max_cycles, Some(9));
        assert!(sweep("--phases").phases);
        for key in SECTIONS.iter().filter(|&&k| k != "faults") {
            assert_eq!(sweep(&format!("--{key}")).sections, sections(&[key]));
        }
        assert_eq!(
            sweep("--table1 --figure4 --table1").sections,
            sections(&["figure4", "table1"])
        );

        // --faults selects the robustness section at a default 2% rate.
        let faulted = sweep("--faults 7");
        assert_eq!(faulted.sections, sections(&["faults"]));
        assert_eq!(
            faulted.faults,
            FaultSettings {
                seed: 7,
                rate: 0.02,
                outage_rate: 0.005,
                max_cycles: None,
            }
        );
        let f = sweep("--fault-rate 0.5 --faults 7").faults;
        assert_eq!((f.rate, f.outage_rate), (0.5, 0.125));
        let f = sweep("--faults 7 --fault-rate 0").faults;
        assert_eq!((f.rate, f.outage_rate), (0.0, 0.0));

        // --all wins over individual selections, after --faults set its plan.
        let all = sweep("--table1 --all --faults 3");
        assert!(all.sections.is_empty());
        assert_eq!((all.faults.seed, all.faults.rate), (3, 0.02));

        assert_eq!(
            sweep("--engine event").engine,
            Some(EngineSettings::default())
        );
        assert_eq!(
            sweep("--nodes 16 --engine event --shards 3 --engine-transpose-n 64 --engine-sor-n 32")
                .engine,
            Some(EngineSettings {
                nodes: 16,
                transpose_n: 64,
                sor_n: 32,
                jobs: 0,
                shards: 3,
            })
        );
        assert_eq!(sweep("--engine event --engine analytic"), default());
        assert_eq!(sweep("--engine analytic"), default());

        assert_eq!(
            sweep("--collectives").collectives,
            Some(CollectiveSettings {
                jobs: par::available_jobs(),
                ..CollectiveSettings::default()
            })
        );
        assert_eq!(
            sweep(
                "--collective broadcast --collectives --collective all-to-all \
                 --collective-words 8 --nodes 16 --shards 2 --jobs 3"
            )
            .collectives,
            Some(CollectiveSettings {
                kinds: vec![Collective::Broadcast, Collective::AllToAll],
                nodes: 16,
                words: 8,
                jobs: 3,
                shards: 2,
            })
        );
        // --nodes/--shards reach both opt-in sections when both are on.
        let both = sweep("--engine event --collectives --nodes 8");
        assert_eq!(both.engine.map(|e| e.nodes), Some(8));
        assert_eq!(both.collectives.map(|c| c.nodes), Some(8));
    }

    #[test]
    fn storm_flags_map_onto_scenario_options() {
        assert_eq!(
            storm("--adversary retry-storm"),
            ScenarioOptions {
                jobs: par::available_jobs(),
                ..ScenarioOptions::new(AdversaryKind::RetryStorm)
            }
        );
        assert_eq!(
            storm(
                "--nodes 16 --adversary incast --adversary-bytes 64 --shards 2 --jobs 1 \
                 --faults 9 --fault-rate 0.5 --sample-every 64"
            ),
            ScenarioOptions {
                kind: AdversaryKind::Incast,
                base_bytes: 64,
                nodes: Some(16),
                shards: 2,
                jobs: 1,
                seed: 9,
                rate: 0.5,
                sample_every: 64,
            }
        );
        assert_eq!(storm("--adversary hotspot --serial").jobs, 1);
        assert_eq!(storm("--adversary bursty --fault-rate 0").rate, 0.0);
        assert_eq!(
            storm("--adversary heavy-tail --adversary incast").kind,
            AdversaryKind::Incast
        );
    }

    #[test]
    fn output_flags_map_onto_outputs() {
        assert_eq!(
            outputs("--json a --metrics b --metrics-out c --trace-out d --profile e"),
            Outputs {
                json: Some("a".to_string()),
                metrics: Some("b".to_string()),
                metrics_out: Some("c".to_string()),
                trace_out: Some("d".to_string()),
                profile: Some("e".to_string()),
                flow_latency: false,
                heatmap: false,
            }
        );
        assert_eq!(
            outputs(
                "--adversary incast --flow-latency --sample-every 64 --heatmap \
                 --json a --metrics-out c"
            ),
            Outputs {
                json: Some("a".to_string()),
                metrics_out: Some("c".to_string()),
                flow_latency: true,
                heatmap: true,
                ..Outputs::default()
            }
        );
    }

    #[test]
    fn cross_flag_rules_keep_their_messages() {
        for (args, msg) in [
            ("--heatmap", "--heatmap requires --sample-every N"),
            (
                "--adversary incast --heatmap",
                "--heatmap requires --sample-every N",
            ),
            (
                "--adversary-bytes 64",
                "--adversary-bytes/--flow-latency require --adversary KIND",
            ),
            (
                "--flow-latency",
                "--adversary-bytes/--flow-latency require --adversary KIND",
            ),
            (
                "--sample-every 64",
                "--sample-every/--heatmap require --adversary KIND",
            ),
            (
                "--sample-every 64 --heatmap",
                "--sample-every/--heatmap require --adversary KIND",
            ),
            ("--fault-rate 0.5", "--fault-rate requires --faults SEED"),
            (
                "--engine-transpose-n 64",
                "--engine-transpose-n/--engine-sor-n require --engine event",
            ),
            (
                "--engine event --engine analytic --engine-sor-n 32",
                "--engine-transpose-n/--engine-sor-n require --engine event",
            ),
            (
                "--nodes 16",
                "--nodes/--shards require --engine event or --collectives",
            ),
            (
                "--shards 2 --engine analytic",
                "--nodes/--shards require --engine event or --collectives",
            ),
            (
                "--collective broadcast",
                "--collective/--collective-words require --collectives",
            ),
            (
                "--collective-words 8 --engine event",
                "--collective/--collective-words require --collectives",
            ),
        ] {
            assert_eq!(refused(args), msg, "{args}");
        }
    }

    #[test]
    fn malformed_values_keep_their_messages() {
        for flag in [
            "--faults",
            "--max-cycles",
            "--words",
            "--exchange-words",
            "--jobs",
            "--nodes",
            "--shards",
            "--engine-transpose-n",
            "--engine-sor-n",
            "--collective-words",
            "--adversary-bytes",
            "--sample-every",
        ] {
            assert_eq!(refused(flag), format!("{flag} takes a number"));
            assert_eq!(
                refused(&format!("{flag} -1")),
                format!("{flag} takes a number")
            );
        }
        for flag in [
            "--json",
            "--metrics",
            "--metrics-out",
            "--trace-out",
            "--profile",
        ] {
            assert_eq!(refused(flag), format!("{flag} takes a path"));
        }
        for args in ["--engine", "--engine heap"] {
            assert_eq!(refused(args), "--engine takes 'analytic' or 'event'");
        }
        for args in ["--collective", "--collective --collectives"] {
            assert_eq!(refused(args), COLLECTIVE);
        }
        for args in ["--adversary", "--adversary meteor"] {
            assert_eq!(refused(args), ADVERSARY);
        }
        for args in [
            "--fault-rate",
            "--fault-rate abc",
            "--faults 1 --fault-rate 5",
            "--faults 1 --fault-rate -0.5",
            "--faults 1 --fault-rate NaN",
            "--adversary incast --fault-rate 1.5",
            "--adversary incast --fault-rate inf",
        ] {
            assert_eq!(refused(args), PROBABILITY, "{args}");
        }
        for flag in ["--bogus", "--section5", "--engine_table6", "-h"] {
            assert_eq!(refused(flag), format!("unknown flag {flag}"));
        }
    }

    #[test]
    fn storms_refuse_every_sweep_flag() {
        let mut sweep_only: Vec<String> = SECTIONS
            .iter()
            .filter(|&&k| k != "faults")
            .map(|k| format!("--{k}"))
            .collect();
        sweep_only.extend(
            [
                "--all",
                "--max-cycles 5",
                "--words 64",
                "--exchange-words 64",
                "--metrics m.json",
                "--trace-out t.json",
                "--profile p.txt",
                "--phases",
                "--engine event",
                "--engine analytic",
                "--engine-transpose-n 64",
                "--engine-sor-n 32",
                "--collectives",
                "--collective broadcast",
                "--collective-words 8",
            ]
            .map(String::from),
        );
        for args in sweep_only {
            let flag = args.split_whitespace().next().unwrap();
            let want = format!("--adversary does not read the sweep flag {flag}");
            assert_eq!(refused(&format!("--adversary incast {args}")), want);
            assert_eq!(refused(&format!("{args} --adversary incast")), want);
        }
    }

    #[test]
    fn both_front_ends_share_the_range_check() {
        let wire = |text: &str| Request::parse(&Json::parse(text).expect("test JSON parses"));
        for rate in ["5", "1.5", "-0.5"] {
            assert_eq!(
                refused(&format!("--adversary incast --fault-rate {rate}")),
                PROBABILITY
            );
            let text =
                format!(r#"{{"kind":"adversary","options":{{"kind":"incast","rate":{rate}}}}}"#);
            assert!(
                matches!(wire(&text), Err(SimError::Protocol { .. })),
                "{text}"
            );
        }
        // The bounds themselves are in range on both.
        for rate in ["0", "1"] {
            storm(&format!("--adversary incast --fault-rate {rate}"));
            sweep(&format!("--faults 1 --fault-rate {rate}"));
            let text =
                format!(r#"{{"kind":"adversary","options":{{"kind":"incast","rate":{rate}}}}}"#);
            assert!(wire(&text).is_ok(), "{text}");
        }
        // What argv builds is a wire request: it survives the service's
        // parser unchanged.
        for args in [
            "--faults 7 --fault-rate 0.25 --max-cycles 100 --table1 --jobs 2",
            "--engine event --nodes 16 --collectives --collective broadcast --jobs 1",
            "--adversary retry-storm --nodes 16 --faults 3 --sample-every 8 --jobs 1",
        ] {
            let (request, _) = parse(args).unwrap();
            assert_eq!(
                wire(&request.to_json().render()).as_ref(),
                Ok(&request),
                "{args}"
            );
        }
    }
}
