//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro [--all] [--figure1] [--table1] [--table2] [--table3] [--table4]
//!       [--figure4] [--figure7] [--figure8] [--table5] [--section341]
//!       [--table6] [--calibration] [--putget] [--scaling] [--accuracy]
//!       [--words N] [--exchange-words N] [--jobs N] [--serial]
//!       [--faults SEED] [--fault-rate P] [--max-cycles N]
//!       [--json PATH] [--metrics PATH] [--phases]
//!       [--engine analytic|event] [--nodes N] [--shards N]
//!       [--engine-transpose-n N] [--engine-sor-n N]
//!       [--collectives] [--collective KIND] [--collective-words N]
//!       [--trace-out PATH] [--profile PATH]
//!       [--adversary KIND] [--adversary-bytes N] [--flow-latency]
//!       [--sample-every N] [--heatmap] [--metrics-out PATH]
//! ```
//!
//! With no selection flags everything runs. Experiments fan out across
//! `--jobs` worker threads (default: all cores; `--serial` forces one) and
//! share the process-wide measurement cache, so repeated points simulate
//! once. `--json` writes the machine-readable results — byte-identical
//! whatever the worker count. `--metrics` writes the run's observability
//! data (wall times, cache hit rate, simulated cycles, fault counters); a
//! one-line summary always prints to stderr.
//!
//! `--faults SEED` selects the robustness section: resilient transfers
//! under a deterministic fault plan derived from SEED (default injection
//! rate 2%, override with `--fault-rate`). The same seed produces a
//! byte-identical report at any `--jobs`. `--max-cycles` bounds each
//! resilient transfer's cycle budget; transfers that exceed it report a
//! per-point error instead of aborting the sweep. If any section fails,
//! the failures are summarised on stderr and the exit status is 1.
//!
//! `--engine event` additionally executes Table 6 round by round on the
//! sharded discrete-event network engine (`--nodes N` scales the simulated
//! torus/mesh up to kilo-node 3D tori — 1024 runs a 16×8×8 torus;
//! `--shards N` pins the engine shard count, default auto;
//! `--engine-transpose-n` and `--engine-sor-n` shrink the kernel instances
//! for smoke runs). Neither `--jobs` nor `--shards` ever changes results. The
//! engine rows appear in the text output and in `--json` under
//! `engine_table6`, next to the analytic congestion model's predictions;
//! they are byte-identical at any `--jobs`. `--engine analytic` is the
//! default and is a no-op: the report keeps its exact pre-engine bytes.
//!
//! `--collectives` additionally runs the collective-operations layer
//! (broadcast, ring/recursive-doubling allgather, recursive-doubling/ring
//! allreduce, all-to-all) on the event engine and the analytic per-round
//! wire model, reporting engine vs analytic cycles and the measured
//! communication volume against its information-theoretic lower bound.
//! `--collective KIND` (repeatable) restricts the set; `--collective-words N`
//! sets the per-node payload (default 128 words); `--nodes`/`--shards`
//! scale and shard it like `--engine event`. The rows appear in the text
//! output and in `--json` under `collectives`; default reports keep their
//! exact pre-collectives bytes.
//!
//! `--adversary KIND` runs an adversarial-resilience scenario instead of a
//! sweep: a seeded traffic generator (`heavy-tail`, `incast`, `hotspot`,
//! `bursty`, or `retry-storm`) compiled onto the T3D torus (`--nodes N`
//! scales it; `--shards`/`--jobs` fan it out without changing results) and
//! run end to end under a fault storm — word drops plus transient
//! link-outage windows — with bounded per-hop retries and exponential
//! backoff. `--faults SEED` reseeds the storm and `--fault-rate P`
//! rescales it (`0` runs the generator faultless);
//! `--adversary-bytes N` sets the generator's base payload. The report
//! prints the resilience ledger — drops, retransmissions, abandonments,
//! and, when the storm wedges part of the network, the exact degraded
//! accounting (missing words per flow, last progress cycle, per-link
//! outages) instead of a bare deadlock. `--flow-latency` adds the
//! per-class inject→eject latency table (p50/p99/p999 cycles, background
//! vs adversarial traffic). All of it is byte-deterministic at any
//! `--jobs` × `--shards`.
//!
//! `--sample-every N` arms the engine's telemetry sampler for the
//! adversary scenario: every shard records utilization/backlog/retry
//! time-series at N-cycle ticks and attributes each flow's inject→eject
//! latency to inject/queue/wire/backoff components. Sampling never changes
//! simulation results — the scenario report keeps its exact unsampled
//! bytes and gains a trailing `telemetry` section. `--heatmap` (requires
//! `--sample-every`) prints the per-node link-utilization and
//! queue-hotspot grids over the scenario's torus. `--metrics-out PATH`
//! writes the run's registry and telemetry series as an OpenMetrics text
//! exposition (validate it with the `metricscheck` binary); it works in
//! both scenario and sweep modes. All three are byte-deterministic at any
//! `--jobs` × `--shards`.
//!
//! Observability: `--trace-out PATH` records cycle-accurate spans for
//! every simulated scenario and writes a Chrome `trace_event` JSON file
//! (load it at `chrome://tracing` or <https://ui.perfetto.dev>; validate it
//! with the `tracecheck` binary). `--profile PATH` writes the same spans
//! as a deterministic collapsed-stack text profile. `--phases` adds the
//! per-stage attribution section — simulated `pack/send/wire/deposit/
//! unpack` marginal cycles next to the model's predicted split per stage
//! (it appears in `--json` output as the `phases` key only when run).
//! Tracing never changes the report: the same sweep with and without
//! `--trace-out` renders byte-identical report JSON.

use memcomm_bench::collectives::CollectiveSettings;
use memcomm_bench::experiments::EngineSettings;
use memcomm_bench::report::TextTable;
use memcomm_bench::runner::{self, SweepOptions};
use memcomm_obs::Obs;

fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}; see the module docs for usage");
    std::process::exit(2);
}

/// The `--adversary` scenario: compile the generator onto the (optionally
/// scaled) T3D torus, run it end to end under the seeded fault storm with
/// bounded retries (see [`memcomm_bench::adversary`]), print the
/// resilience ledger (plus the per-class latency table under
/// `--flow-latency`), and write the byte-deterministic scenario JSON when
/// `--json` was given.
#[allow(clippy::too_many_arguments)]
fn adversary_scenario(
    kind: memcomm_netsim::AdversaryKind,
    bytes: Option<u64>,
    nodes: Option<usize>,
    shards: Option<usize>,
    jobs: usize,
    seed: Option<u64>,
    rate: Option<f64>,
    flow_latency: bool,
    sample_every: u64,
    heatmap: bool,
    json_path: Option<&str>,
    metrics_path: Option<&str>,
) {
    use memcomm_bench::adversary::{self, ScenarioOptions};

    let mut sopts = ScenarioOptions::new(kind);
    sopts.jobs = jobs;
    sopts.nodes = nodes;
    sopts.sample_every = sample_every;
    if let Some(b) = bytes {
        sopts.base_bytes = b;
    }
    if let Some(s) = shards {
        sopts.shards = s;
    }
    if let Some(s) = seed {
        sopts.seed = s;
    }
    if let Some(r) = rate {
        sopts.rate = r;
    }
    // Registry-only observability for the scenario: the engine flushes its
    // stall and telemetry counters here, and --metrics-out exports them.
    let obs = Obs::new(false);
    let _obs_guard = obs.install();
    let retry = sopts.retry_policy();
    let scenario = match adversary::run_scenario(&sopts) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("adversary scenario failed: {e}");
            std::process::exit(1);
        }
    };
    let out = &scenario.run.outcome;

    println!(
        "Adversarial resilience — {} traffic on the Cray T3D at {} nodes",
        kind.name(),
        scenario.nodes
    );
    println!(
        "(fault seed {:#x}, drop rate {}, retry budget {} with backoff {}<<k capped at {})\n",
        sopts.seed,
        sopts.rate,
        retry.max_retries,
        retry.backoff_base_cycles,
        retry.max_backoff_cycles
    );

    let mut t = TextTable::new("Resilience ledger", &["metric", "value"]);
    for (metric, value) in [
        ("flows", scenario.run.flows.to_string()),
        ("words delivered", out.words.to_string()),
        ("cycles", out.cycles.to_string()),
        ("flit hops", out.flit_hops.to_string()),
        ("dropped", out.dropped.to_string()),
        ("retransmitted", out.retried.to_string()),
        ("abandoned", out.abandoned.to_string()),
        ("digest", format!("{:016x}", out.digest)),
    ] {
        t.row(vec![metric.to_string(), value]);
    }
    println!("{t}");

    match &out.degraded {
        None => println!("completed cleanly: every word delivered\n"),
        Some(d) => {
            let missing: u64 = d.missing_flows.iter().map(|&(_, w)| w).sum();
            println!(
                "degraded: {} words missing across {} flow(s); last progress at cycle {}; {} link(s) saw outages\n",
                missing,
                d.missing_flows.len(),
                d.last_progress_cycle,
                d.per_link_outages.len()
            );
        }
    }

    if flow_latency {
        let mut t = TextTable::new(
            "Per-flow inject→eject latency (cycles)",
            &["class", "count", "mean", "p50", "p99", "p999", "max"],
        );
        for (i, h) in out.flow_latency.iter().enumerate() {
            t.row(vec![
                adversary::class_name(i),
                h.count.to_string(),
                format!("{:.1}", h.mean),
                h.p50.to_string(),
                h.p99.to_string(),
                h.p999.to_string(),
                h.max.to_string(),
            ]);
        }
        println!("{t}");
    }

    if let Some(tel) = &out.telemetry {
        let mut t = TextTable::new(
            "Critical-path attribution — mean inject→eject cycles per class",
            &[
                "class", "count", "inject", "queue", "wire", "backoff", "total",
            ],
        );
        for (i, b) in tel.breakdown.iter().enumerate() {
            let n = b.count.max(1);
            t.row(vec![
                adversary::class_name(i),
                b.count.to_string(),
                (b.inject / n).to_string(),
                (b.queue / n).to_string(),
                (b.wire / n).to_string(),
                (b.backoff / n).to_string(),
                (b.total / n).to_string(),
            ]);
        }
        println!("{t}");
        println!("(components telescope exactly: inject + queue + wire + backoff = total)\n");

        if heatmap {
            print!(
                "{}",
                memcomm_netsim::heatmap::render_grids(&scenario.topo, tel, out.cycles)
            );
            println!();
        }
    }

    if let Some(path) = json_path {
        let doc = adversary::scenario_json(&sopts, &scenario);
        if let Err(e) = std::fs::write(path, doc.render()) {
            eprintln!("cannot write scenario report to {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote scenario report to {path}");
    }

    if let Some(path) = metrics_path {
        let series = out
            .telemetry
            .as_ref()
            .map_or_else(Vec::new, |t| t.named_series());
        let snapshot = obs.metrics_snapshot().expect("registry is enabled");
        let body = memcomm_obs::openmetrics::render(&snapshot, &series);
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("cannot write OpenMetrics exposition to {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote OpenMetrics exposition to {path}");
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut opts = SweepOptions::default();
    let mut json_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut trace_path: Option<String> = None;
    let mut profile_path: Option<String> = None;
    let mut it = args.iter();
    let number = |it: &mut std::slice::Iter<String>, flag: &str| -> u64 {
        match it.next().map(|v| v.parse()) {
            Some(Ok(n)) => n,
            _ => usage_error(&format!("{flag} takes a number")),
        }
    };
    let fraction = |it: &mut std::slice::Iter<String>, flag: &str| -> f64 {
        match it.next().map(|v| v.parse::<f64>()) {
            Some(Ok(p)) if p.is_finite() && (0.0..=1.0).contains(&p) => p,
            _ => usage_error(&format!("{flag} takes a probability in [0, 1]")),
        }
    };
    let mut all = false;
    let mut fault_rate: Option<f64> = None;
    let mut engine_nodes: Option<usize> = None;
    let mut engine_shards: Option<usize> = None;
    let mut engine_transpose_n: Option<u64> = None;
    let mut engine_sor_n: Option<u64> = None;
    let mut collective_kinds: Vec<memcomm_commops::Collective> = Vec::new();
    let mut collective_words: Option<u64> = None;
    let mut adversary: Option<memcomm_netsim::AdversaryKind> = None;
    let mut adversary_bytes: Option<u64> = None;
    let mut flow_latency = false;
    let mut fault_seed: Option<u64> = None;
    let mut sample_every = 0u64;
    let mut heatmap = false;
    let mut metrics_out: Option<String> = None;
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--all" => all = true,
            "--figure1" | "--table1" | "--table2" | "--table3" | "--table4" | "--figure4"
            | "--figure7" | "--figure8" | "--table5" | "--section341" | "--table6"
            | "--calibration" | "--putget" | "--scaling" | "--accuracy" => {
                opts.sections
                    .insert(arg.trim_start_matches("--").to_string());
            }
            "--faults" => {
                let seed = number(&mut it, "--faults");
                opts.faults.seed = seed;
                fault_seed = Some(seed);
                opts.sections.insert("faults".to_string());
            }
            "--fault-rate" => fault_rate = Some(fraction(&mut it, "--fault-rate")),
            "--max-cycles" => opts.faults.max_cycles = Some(number(&mut it, "--max-cycles")),
            "--words" => opts.micro_words = number(&mut it, "--words"),
            "--exchange-words" => opts.exchange_words = number(&mut it, "--exchange-words"),
            "--jobs" => opts.jobs = number(&mut it, "--jobs") as usize,
            "--serial" => opts.jobs = 1,
            "--json" => match it.next() {
                Some(path) => json_path = Some(path.clone()),
                None => usage_error("--json takes a path"),
            },
            "--metrics" => match it.next() {
                Some(path) => metrics_path = Some(path.clone()),
                None => usage_error("--metrics takes a path"),
            },
            "--trace-out" => match it.next() {
                Some(path) => trace_path = Some(path.clone()),
                None => usage_error("--trace-out takes a path"),
            },
            "--profile" => match it.next() {
                Some(path) => profile_path = Some(path.clone()),
                None => usage_error("--profile takes a path"),
            },
            "--phases" => opts.phases = true,
            "--engine" => match it.next().map(String::as_str) {
                Some("event") => {
                    opts.engine.get_or_insert_with(EngineSettings::default);
                }
                Some("analytic") => opts.engine = None,
                _ => usage_error("--engine takes 'analytic' or 'event'"),
            },
            "--nodes" => {
                engine_nodes = Some(number(&mut it, "--nodes") as usize);
            }
            "--shards" => {
                engine_shards = Some(number(&mut it, "--shards") as usize);
            }
            "--engine-transpose-n" => {
                engine_transpose_n = Some(number(&mut it, "--engine-transpose-n"));
            }
            "--engine-sor-n" => {
                engine_sor_n = Some(number(&mut it, "--engine-sor-n"));
            }
            "--collectives" => {
                opts.collectives
                    .get_or_insert_with(CollectiveSettings::default);
            }
            "--collective" => match it
                .next()
                .and_then(|v| memcomm_commops::Collective::parse(v))
            {
                Some(kind) => collective_kinds.push(kind),
                None => usage_error(
                    "--collective takes one of broadcast, allgather-ring, allgather-rd, \
                     allreduce-rd, allreduce-ring, all-to-all",
                ),
            },
            "--collective-words" => {
                collective_words = Some(number(&mut it, "--collective-words"));
            }
            "--adversary" => match it
                .next()
                .and_then(|v| memcomm_netsim::AdversaryKind::parse(v))
            {
                Some(kind) => adversary = Some(kind),
                None => usage_error(
                    "--adversary takes one of heavy-tail, incast, hotspot, bursty, retry-storm",
                ),
            },
            "--adversary-bytes" => {
                adversary_bytes = Some(number(&mut it, "--adversary-bytes"));
            }
            "--flow-latency" => flow_latency = true,
            "--sample-every" => sample_every = number(&mut it, "--sample-every"),
            "--heatmap" => heatmap = true,
            "--metrics-out" => match it.next() {
                Some(path) => metrics_out = Some(path.clone()),
                None => usage_error("--metrics-out takes a path"),
            },
            other => usage_error(&format!("unknown flag {other}")),
        }
    }
    // --adversary selects the resilience scenario instead of a sweep; it
    // reuses --nodes/--shards/--jobs/--faults/--fault-rate/--json with its
    // own defaults, so it runs before their sweep-mode validation.
    if heatmap && sample_every == 0 {
        usage_error("--heatmap requires --sample-every N");
    }
    if let Some(kind) = adversary {
        adversary_scenario(
            kind,
            adversary_bytes,
            engine_nodes,
            engine_shards,
            opts.jobs,
            fault_seed,
            fault_rate,
            flow_latency,
            sample_every,
            heatmap,
            json_path.as_deref(),
            metrics_out.as_deref(),
        );
        return;
    }
    if adversary_bytes.is_some() || flow_latency {
        usage_error("--adversary-bytes/--flow-latency require --adversary KIND");
    }
    if sample_every > 0 || heatmap {
        usage_error("--sample-every/--heatmap require --adversary KIND");
    }

    if opts.sections.contains("faults") {
        // A seeded plan defaults to a light injection rate; --fault-rate
        // overrides it (including back to zero for the determinism check).
        opts.faults.rate = fault_rate.unwrap_or(0.02);
        opts.faults.outage_rate = opts.faults.rate / 4.0;
    } else if fault_rate.is_some() {
        usage_error("--fault-rate requires --faults SEED");
    }
    if (engine_transpose_n.is_some() || engine_sor_n.is_some()) && opts.engine.is_none() {
        usage_error("--engine-transpose-n/--engine-sor-n require --engine event");
    }
    if (engine_nodes.is_some() || engine_shards.is_some())
        && opts.engine.is_none()
        && opts.collectives.is_none()
    {
        usage_error("--nodes/--shards require --engine event or --collectives");
    }
    if let Some(engine) = opts.engine.as_mut() {
        if let Some(n) = engine_nodes {
            engine.nodes = n;
        }
        if let Some(n) = engine_shards {
            engine.shards = n;
        }
        if let Some(n) = engine_transpose_n {
            engine.transpose_n = n;
        }
        if let Some(n) = engine_sor_n {
            engine.sor_n = n;
        }
    }
    if (!collective_kinds.is_empty() || collective_words.is_some()) && opts.collectives.is_none() {
        usage_error("--collective/--collective-words require --collectives");
    }
    if let Some(c) = opts.collectives.as_mut() {
        if !collective_kinds.is_empty() {
            c.kinds = collective_kinds.clone();
        }
        if let Some(w) = collective_words {
            c.words = w;
        }
        if let Some(n) = engine_nodes {
            c.nodes = n;
        }
        if let Some(n) = engine_shards {
            c.shards = n;
        }
        c.jobs = opts.jobs;
    }
    if all {
        // --all wins over individual selections: run every section.
        opts.sections.clear();
    }

    println!("memcomm reproduction of Stricker & Gross, ISCA 1995");
    println!(
        "(microbenchmarks: {} words; exchanges: {} words; {} worker(s); all rates MB/s)\n",
        opts.micro_words,
        opts.exchange_words,
        opts.jobs.max(1)
    );

    // One observability handle for the whole run: registry-only by default,
    // trace-recording when an export was requested. The sweep adopts it, so
    // the histograms and spans it accumulates are ours to export afterwards.
    let obs = Obs::new(trace_path.is_some() || profile_path.is_some());
    let _obs_guard = obs.install();

    let (report, metrics) = runner::run_sweep(&opts);

    if !report.calibration.is_empty() {
        for machine in ["Cray T3D", "Intel Paragon"] {
            let rows: Vec<_> = report
                .calibration
                .iter()
                .filter(|r| r.machine == machine)
                .collect();
            if rows.is_empty() {
                continue;
            }
            let mut t = TextTable::new(
                &format!("Calibration — {machine} (simulated vs paper basic rates)"),
                &["transfer", "simulated", "paper", "ratio"],
            );
            let mut log_err = 0.0;
            for r in &rows {
                t.row(vec![
                    r.transfer.clone(),
                    TextTable::mbps(r.simulated),
                    TextTable::mbps(r.paper),
                    format!("{:.2}", r.ratio),
                ]);
                log_err += r.ratio.ln().abs();
            }
            println!("{t}");
            println!("mean log error {:.3}\n", log_err / rows.len() as f64);
        }
    }

    for s in &report.figure1 {
        let mut t = TextTable::new(
            &format!(
                "Figure 1 — library throughput vs message size, {}",
                s.machine
            ),
            &["words", "PVM", "low-level"],
        );
        for p in &s.rows {
            t.row(vec![
                p.message_words.to_string(),
                TextTable::mbps(p.pvm),
                TextTable::mbps(p.low_level),
            ]);
        }
        println!("{t}");
    }

    for (title, series) in [
        ("Table 1 — local memory-to-memory copies", &report.table1),
        ("Table 2 — send transfers", &report.table2),
        ("Table 3 — receive transfers", &report.table3),
    ] {
        for s in series {
            let mut t = TextTable::new(
                &format!("{title}, {}", s.machine),
                &["transfer", "simulated", "paper"],
            );
            for r in &s.rows {
                t.row(vec![
                    r.transfer.clone(),
                    TextTable::mbps(r.simulated),
                    TextTable::opt_mbps(r.paper),
                ]);
            }
            println!("{t}");
        }
    }

    for s in &report.figure4 {
        let mut t = TextTable::new(
            &format!("Figure 4 — strided local copies, {}", s.machine),
            &["stride", "sC1 (loads)", "1Cs (stores)"],
        );
        for p in &s.rows {
            t.row(vec![
                p.stride.to_string(),
                TextTable::mbps(p.loads),
                TextTable::mbps(p.stores),
            ]);
        }
        println!("{t}");
    }

    for s in &report.table4 {
        let mut t = TextTable::new(
            &format!("Table 4 — network bandwidth vs congestion, {}", s.machine),
            &["congestion", "Nd", "Nd paper", "Nadp", "Nadp paper"],
        );
        for r in &s.rows {
            t.row(vec![
                format!("{:.0}", r.congestion),
                TextTable::mbps(r.data_only),
                TextTable::mbps(r.paper_data_only),
                TextTable::mbps(r.addr_data),
                TextTable::mbps(r.paper_addr_data),
            ]);
        }
        println!("{t}");
    }

    for s in &report.section5 {
        let figure = if s.machine == "Cray T3D" {
            "Figure 7"
        } else {
            "Figure 8"
        };
        let mut t = TextTable::new(
            &format!(
                "{figure} / Section 5 — buffer packing vs chained, {}",
                s.machine
            ),
            &[
                "op", "sim bp", "model bp", "paper bp", "sim ch", "model ch", "paper ch",
            ],
        );
        for r in &s.rows {
            t.row(vec![
                r.op.clone(),
                TextTable::mbps(r.sim_bp),
                TextTable::mbps(r.model_bp),
                TextTable::opt_mbps(r.paper_model_bp),
                TextTable::mbps(r.sim_chained),
                TextTable::mbps(r.model_chained),
                TextTable::opt_mbps(r.paper_model_chained),
            ]);
        }
        println!("{t}");
    }

    if !report.table5.is_empty() {
        let mut t = TextTable::new(
            "Table 5 — strided loads vs strided stores",
            &["op", "machine", "sim bp", "paper bp", "sim ch", "paper ch"],
        );
        for r in &report.table5 {
            t.row(vec![
                r.op.clone(),
                r.machine.clone(),
                TextTable::mbps(r.sim_bp),
                TextTable::mbps(r.paper_measured_bp),
                TextTable::mbps(r.sim_chained),
                TextTable::mbps(r.paper_measured_chained),
            ]);
        }
        println!("{t}");
    }

    if let Some(s) = &report.section341 {
        println!("### Section 3.4.1 — |1Q1024| on the T3D");
        println!(
            "model estimate {:.1} (paper {:.1}); simulated {:.1} (paper measured {:.1})\n",
            s.model_estimate, s.paper_estimate, s.simulated, s.paper_measured
        );
    }

    if !report.table6.is_empty() {
        let mut t = TextTable::new(
            "Table 6 — application kernels on the 64-node T3D (MB/s per node)",
            &[
                "kernel",
                "sim bp",
                "paper bp",
                "sim ch",
                "paper ch",
                "model ch",
                "paper model",
                "sim PVM",
                "paper PVM3",
            ],
        );
        for r in &report.table6 {
            t.row(vec![
                r.kernel.clone(),
                TextTable::mbps(r.sim_bp),
                TextTable::mbps(r.paper_bp),
                TextTable::mbps(r.sim_chained),
                TextTable::mbps(r.paper_chained),
                TextTable::mbps(r.model_chained),
                TextTable::mbps(r.paper_model_chained),
                TextTable::mbps(r.sim_pvm),
                TextTable::mbps(r.paper_pvm3),
            ]);
        }
        println!("{t}");
    }

    for s in &report.put_vs_get {
        let mut t = TextTable::new(
            &format!(
                "Extension — deposits (put) vs withdrawals (get), {}",
                s.machine
            ),
            &["op", "put (chained)", "get"],
        );
        for r in &s.rows {
            t.row(vec![
                r.op.clone(),
                TextTable::mbps(r.put),
                TextTable::mbps(r.get),
            ]);
        }
        println!("{t}");
    }

    for s in &report.scaling {
        let mut t = TextTable::new(
            "Extension — transpose throughput vs problem size (T3D, 64 nodes)",
            &[
                "matrix n",
                "patch words",
                "PVM",
                "buffer packing",
                "chained",
            ],
        );
        for r in &s.rows {
            t.row(vec![
                r.n.to_string(),
                r.patch_words.to_string(),
                TextTable::mbps(r.pvm),
                TextTable::mbps(r.buffer_packing),
                TextTable::mbps(r.chained),
            ]);
        }
        println!("{t}");
    }

    for s in &report.model_accuracy {
        let mut t = TextTable::new(
            &format!("Extension — model accuracy grid, {}", s.machine),
            &["op", "style", "model", "simulated", "ratio"],
        );
        let mut log_err = 0.0;
        for r in &s.rows {
            t.row(vec![
                r.op.clone(),
                r.style.clone(),
                TextTable::mbps(r.model),
                TextTable::mbps(r.simulated),
                format!("{:.2}", r.ratio),
            ]);
            log_err += r.ratio.ln().abs();
        }
        println!("{t}");
        if !s.rows.is_empty() {
            println!("mean |log ratio| {:.3}\n", log_err / s.rows.len() as f64);
        }
    }

    for s in &report.faults {
        let mut t = TextTable::new(
            &format!(
                "Robustness — resilient transfers under injected faults, {}",
                s.machine
            ),
            &[
                "op", "style", "MB/s", "frames", "retrans", "degraded", "status",
            ],
        );
        for r in &s.rows {
            let status = match (&r.error, r.verified) {
                (Some(e), _) => format!("error: {e}"),
                (None, true) => "ok".to_string(),
                (None, false) => "corrupt".to_string(),
            };
            t.row(vec![
                r.op.clone(),
                r.style.clone(),
                r.mbps.map_or_else(|| "-".to_string(), TextTable::mbps),
                r.frames_sent.to_string(),
                r.retransmissions.to_string(),
                if r.degraded { "yes" } else { "no" }.to_string(),
                status,
            ]);
        }
        println!("{t}");
    }

    for s in &report.phases {
        let mut t = TextTable::new(
            &format!("Observability — per-stage attribution, {}", s.machine),
            &[
                "op", "style", "cycles", "pack", "send", "wire", "deposit", "unpack", "attr err",
            ],
        );
        for r in &s.rows {
            let cell = |i: usize| format!("{}/{:.0}", r.sim[i], r.model[i]);
            t.row(vec![
                r.op.clone(),
                r.style.clone(),
                r.end_cycle.to_string(),
                cell(0),
                cell(1),
                cell(2),
                cell(3),
                cell(4),
                format!("{:.2}", r.attribution_error),
            ]);
        }
        println!("{t}");
        println!("(stage cells: simulated cycles / model-predicted cycles)\n");
    }

    if !report.engine_table6.is_empty() {
        let mut t = TextTable::new(
            "Event engine — Table 6 kernels executed on the simulated network",
            &[
                "kernel",
                "machine",
                "nodes",
                "engine c",
                "analytic c",
                "engine ch",
                "analytic ch",
                "ratio",
                "digest",
            ],
        );
        for r in &report.engine_table6 {
            t.row(vec![
                r.kernel.clone(),
                r.machine.clone(),
                r.nodes.to_string(),
                format!("{:.2}", r.engine_congestion),
                format!("{:.2}", r.analytic_congestion),
                TextTable::mbps(r.engine_chained),
                TextTable::mbps(r.analytic_chained),
                format!("{:.2}", r.ratio),
                r.digest.clone(),
            ]);
        }
        println!("{t}");
        println!("(c: congestion factor; ch: chained MB/s per node priced at that factor)\n");
    }

    if !report.collectives.is_empty() {
        let mut t = TextTable::new(
            "Collectives — engine vs analytic wire model, volume vs lower bound",
            &[
                "collective",
                "machine",
                "nodes",
                "rounds",
                "engine cyc",
                "analytic cyc",
                "ratio",
                "engine c",
                "analytic c",
                "vol words",
                "LB words",
                "vol/LB",
            ],
        );
        for r in &report.collectives {
            t.row(vec![
                r.collective.clone(),
                r.machine.clone(),
                r.nodes.to_string(),
                r.rounds.to_string(),
                r.engine_cycles.to_string(),
                r.analytic_cycles.to_string(),
                format!("{:.2}", r.ratio),
                format!("{:.2}", r.engine_congestion),
                format!("{:.2}", r.analytic_congestion),
                r.volume_words.to_string(),
                r.lower_bound_words.to_string(),
                format!("{:.2}", r.volume_ratio),
            ]);
        }
        println!("{t}");
        println!(
            "(cyc: end-to-end cycles; c: congestion factor; LB: information-theoretic floor)\n"
        );
    }

    if metrics_path.is_some() && !metrics.histograms.is_empty() {
        let mut t = TextTable::new(
            "Run histograms — per-run registry (cycles or counts)",
            &["metric", "count", "mean", "p50", "p99", "max"],
        );
        for (name, h) in &metrics.histograms {
            t.row(vec![
                name.clone(),
                h.count.to_string(),
                format!("{:.1}", h.mean),
                h.p50.to_string(),
                h.p99.to_string(),
                h.max.to_string(),
            ]);
        }
        println!("{t}");
    }

    eprintln!("sweep: {}", metrics.summary());

    let write = |path: &str, body: String, what: &str| {
        if let Err(e) = std::fs::write(path, body) {
            eprintln!("cannot write {what} to {path}: {e}");
            std::process::exit(1);
        }
        println!("wrote {what} to {path}");
    };
    if let Some(path) = json_path {
        write(&path, report.to_json().render(), "machine-readable report");
    }
    if let Some(path) = metrics_path {
        write(&path, metrics.to_json().render(), "run metrics");
    }
    if let Some(path) = metrics_out {
        let snapshot = obs.metrics_snapshot().expect("registry is enabled");
        let body = memcomm_obs::openmetrics::render(&snapshot, &[]);
        write(&path, body, "OpenMetrics exposition");
    }
    if let Some(path) = trace_path {
        if obs.trace_dropped() > 0 {
            eprintln!(
                "trace buffer overflowed: {} events dropped",
                obs.trace_dropped()
            );
        }
        match obs.chrome_trace() {
            Some(body) => write(&path, body, "chrome trace"),
            None => eprintln!("tracing disabled; no trace written to {path}"),
        }
    }
    if let Some(path) = profile_path {
        match obs.flamegraph() {
            Some(body) => write(&path, body, "profile"),
            None => eprintln!("tracing disabled; no profile written to {path}"),
        }
    }

    let failed: Vec<_> = report.sections.iter().filter(|s| !s.ok).collect();
    if !failed.is_empty() {
        for s in &failed {
            eprintln!(
                "section {} failed: {}",
                s.name,
                s.error.as_deref().unwrap_or("unknown error")
            );
        }
        eprintln!(
            "{} of {} sections failed",
            failed.len(),
            report.sections.len()
        );
        std::process::exit(1);
    }
}
