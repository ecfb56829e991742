//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro [SECTION...] [--words N] [--exchange-words N] [--jobs N] [--serial]
//!       [--faults SEED] [--fault-rate P] [--max-cycles N] [--phases]
//!       [--engine analytic|event] [--engine-transpose-n N] [--engine-sor-n N]
//!       [--collectives] [--collective KIND] [--collective-words N]
//!       [--nodes N] [--shards N] [--json PATH] [--metrics PATH]
//!       [--metrics-out PATH] [--trace-out PATH] [--profile PATH]
//! repro --adversary KIND [--adversary-bytes N] [--nodes N] [--shards N]
//!       [--jobs N] [--serial] [--faults SEED] [--fault-rate P]
//!       [--sample-every N] [--heatmap] [--flow-latency]
//!       [--json PATH] [--metrics-out PATH]
//!
//! SECTION: --all --calibration --figure1 --table1 --table2 --table3
//!          --figure4 --table4 --figure7 --figure8 --table5 --section341
//!          --table6 --putget --scaling --accuracy
//! ```
//!
//! The first form runs a sweep, the second a storm. The arguments map onto
//! the same typed `sweep` or `adversary` request the simulation service
//! parses from JSON (`service::Request::from_args`), so both front ends
//! share one range check: `--fault-rate` must lie in [0, 1]. Each form
//! reads only the flags listed for it; any other flag exits with status 2.
//!
//! With no SECTION flag every section runs. The sections' measurement
//! points simulate once each, in one fan-out across `--jobs` worker
//! threads (default: all cores; `--serial` forces one), into one
//! measurement cache the sections then render from. `--json` writes the
//! machine-readable results, byte-identical at any worker count;
//! `--metrics` writes the run's observability data (planned points,
//! simulate and render times, cache hit rate, simulated cycles, fault
//! counters); a one-line summary
//! always prints to stderr. If a section fails, the failures are
//! summarised on stderr and the exit status is 1.
//!
//! `--faults SEED` selects the robustness section: resilient transfers
//! under a deterministic fault plan derived from SEED (injection rate
//! `--fault-rate`, default 2%), byte-identical at any `--jobs`.
//! `--max-cycles` bounds each transfer's cycle budget; a transfer that
//! exceeds it reports a per-point error instead of aborting the sweep.
//!
//! `--engine event` also executes Table 6 round by round on the sharded
//! discrete-event network engine, next to the analytic congestion model
//! (`engine_table6` in `--json`). `--nodes N` scales the simulated
//! torus/mesh up to kilo-node 3D tori (1024 runs a 16×8×8 torus),
//! `--shards N` pins the shard count (default auto), and
//! `--engine-transpose-n`/`--engine-sor-n` shrink the kernels for smoke
//! runs. `--collectives` also runs the collective operations (broadcast,
//! ring/recursive-doubling allgather and allreduce, all-to-all) on the
//! engine and the analytic per-round wire model, with the measured volume
//! against its information-theoretic lower bound (`collectives` in
//! `--json`); `--collective KIND` (repeatable) restricts the set,
//! `--collective-words N` sets the per-node payload (default 128), and
//! `--nodes`/`--shards` apply as above. Neither `--jobs` nor `--shards`
//! ever changes results, and without these flags the report keeps its
//! exact bytes.
//!
//! `--adversary KIND` runs an adversarial-resilience scenario (a storm)
//! instead of a sweep: a seeded traffic generator (`heavy-tail`, `incast`,
//! `hotspot`, `bursty` or `retry-storm`, base payload `--adversary-bytes`)
//! compiled onto the T3D torus (`--nodes N` scales it) and run end to end
//! under a fault storm — word drops plus transient link-outage windows —
//! with bounded per-hop retries and exponential backoff. `--faults SEED`
//! reseeds the storm and `--fault-rate P` rescales it (`0` runs the
//! generator faultless). The report prints the resilience ledger: drops,
//! retransmissions, abandonments and, when the storm wedges part of the
//! network, the exact degraded accounting (missing words per flow, last
//! progress cycle, per-link outages) instead of a bare deadlock.
//! `--flow-latency` adds the per-class inject→eject latency table
//! (p50/p99/p999 cycles, background vs adversarial traffic).
//! `--sample-every N` arms the engine's telemetry sampler: utilization,
//! backlog and retry series at N-cycle ticks, and each flow's latency
//! attributed to inject/queue/wire/backoff. Sampling never changes results;
//! the scenario report gains a trailing `telemetry` section. `--heatmap`
//! (which needs `--sample-every`) prints the per-node link-utilization and
//! queue-hotspot grids. All of it is byte-deterministic at any `--jobs` ×
//! `--shards`.
//!
//! `--metrics-out PATH` writes the run's registry (plus a sampled storm's
//! series) as an OpenMetrics exposition (validate it with `metricscheck`).
//! `--trace-out PATH` records cycle-accurate spans for every simulated
//! scenario as a Chrome `trace_event` file (load it at `chrome://tracing`
//! or <https://ui.perfetto.dev>; validate it with `tracecheck`), and
//! `--profile PATH` writes the same spans as a collapsed-stack profile.
//! `--phases` adds the per-stage attribution section — simulated
//! `pack/send/wire/deposit/unpack` cycles next to the model's split (the
//! `phases` key in `--json`, present only when run). Tracing never changes
//! the report.

use memcomm_bench::adversary::{self, Scenario, ScenarioOptions};
use memcomm_bench::experiments;
use memcomm_bench::report::TextTable;
use memcomm_bench::runner::{self, FullReport, RunMetrics, SweepOptions};
use memcomm_bench::service::argv::Outputs;
use memcomm_bench::service::Request;
use memcomm_obs::{Obs, Series};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (request, outputs) = Request::from_args(&args).unwrap_or_else(|msg| {
        eprintln!("{msg}; see the module docs for usage");
        std::process::exit(2)
    });
    // One observability handle for the whole run: registry-only by default,
    // trace-recording when an export asked for spans. The sweep adopts it and
    // the storm's engine flushes its counters into it, so what it accumulates
    // is ours to export afterwards. Each mode calls what `service::dispatch`
    // calls, but not `dispatch` itself: that would count service requests
    // into the registry `--metrics-out` exports.
    let obs = Obs::new(outputs.trace_out.is_some() || outputs.profile.is_some());
    let _obs_guard = obs.install();
    match request {
        Request::Sweep(opts) => sweep(&opts, &outputs, &obs),
        Request::Adversary(opts) => storm(&opts, &outputs, &obs),
        _ => unreachable!("argv maps onto sweep and adversary requests only"),
    }
}

/// Runs the sweep, prints its tables, writes its files, and exits 1 if a
/// section failed.
fn sweep(opts: &SweepOptions, outputs: &Outputs, obs: &Obs) {
    let (report, metrics) = runner::run_sweep(opts);
    print_sweep(&report, &metrics, outputs);
    eprintln!("sweep: {}", metrics.summary());
    write(&outputs.json, "machine-readable report", || {
        report.to_json().render()
    });
    write(&outputs.metrics, "run metrics", || {
        metrics.to_json().render()
    });
    write_exposition(outputs, obs, &[]);
    write(&outputs.trace_out, "chrome trace", || {
        if obs.trace_dropped() > 0 {
            eprintln!(
                "trace buffer overflowed: {} events dropped",
                obs.trace_dropped()
            );
        }
        obs.chrome_trace().expect("tracing is on")
    });
    write(&outputs.profile, "profile", || {
        obs.flamegraph().expect("tracing is on")
    });

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

/// Runs the storm, prints its ledger and writes its files.
fn storm(opts: &ScenarioOptions, outputs: &Outputs, obs: &Obs) {
    let scenario = adversary::run_scenario(opts).unwrap_or_else(|e| {
        eprintln!("adversary scenario failed: {e}");
        std::process::exit(1)
    });
    print_storm(opts, &scenario, outputs);
    write(&outputs.json, "scenario report", || {
        adversary::scenario_json(opts, &scenario).render()
    });
    let telemetry = scenario.run.outcome.telemetry.as_ref();
    let series = telemetry.map(|t| t.named_series()).unwrap_or_default();
    write_exposition(outputs, obs, &series);
}

/// Writes `body()` to `path` when one was given and says so, or exits 1
/// naming what failed.
fn write(path: &Option<String>, what: &str, body: impl FnOnce() -> String) {
    let Some(path) = path else { return };
    if let Err(e) = std::fs::write(path, body()) {
        eprintln!("cannot write {what} to {path}: {e}");
        std::process::exit(1);
    }
    println!("wrote {what} to {path}");
}

/// Writes the run's registry and `series` as an OpenMetrics exposition
/// under `--metrics-out`.
fn write_exposition(outputs: &Outputs, obs: &Obs, series: &[(String, Series)]) {
    write(&outputs.metrics_out, "OpenMetrics exposition", || {
        let snapshot = obs.metrics_snapshot().expect("registry is enabled");
        memcomm_obs::openmetrics::render(&snapshot, series)
    });
}

/// Prints the storm's resilience ledger, plus the per-class latency table
/// under `--flow-latency` and the sampled grids under `--heatmap`.
fn print_storm(opts: &ScenarioOptions, scenario: &Scenario, outputs: &Outputs) {
    let retry = opts.retry_policy();
    let out = &scenario.run.outcome;
    // `out.words` counts every word offered to the network; the degraded
    // accounting names the ones that never arrived.
    let missing: u64 = out
        .degraded
        .as_ref()
        .map_or(0, |d| d.missing_flows.iter().map(|&(_, w)| w).sum());

    println!(
        "Adversarial resilience — {} traffic on the Cray T3D at {} nodes",
        opts.kind.name(),
        scenario.nodes
    );
    println!(
        "(fault seed {:#x}, drop rate {}, retry budget {} with backoff {}<<k capped at {})\n",
        opts.seed,
        opts.rate,
        retry.max_retries,
        retry.backoff_base_cycles,
        retry.max_backoff_cycles
    );

    let mut t = TextTable::new("Resilience ledger", &["metric", "value"]);
    for (metric, value) in [
        ("flows", scenario.run.flows.to_string()),
        ("words offered", out.words.to_string()),
        ("words delivered", (out.words - missing).to_string()),
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
            println!(
                "degraded: {} words missing across {} flow(s); last progress at cycle {}; {} link(s) saw outages\n",
                missing,
                d.missing_flows.len(),
                d.last_progress_cycle,
                d.per_link_outages.len()
            );
        }
    }

    if outputs.flow_latency {
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

        if outputs.heatmap {
            print!(
                "{}",
                memcomm_netsim::heatmap::render_grids(&scenario.topo, tel, out.cycles)
            );
            println!();
        }
    }
}

/// Prints every section the sweep ran, as text tables.
fn print_sweep(report: &FullReport, metrics: &RunMetrics, outputs: &Outputs) {
    println!("memcomm reproduction of Stricker & Gross, ISCA 1995");
    println!(
        "(microbenchmarks: {} words; exchanges: {} words; {} worker(s); all rates MB/s)\n",
        report.micro_words,
        report.exchange_words,
        metrics.jobs.max(1)
    );

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
        for r in &rows {
            t.row(vec![
                r.transfer.clone(),
                TextTable::mbps(r.simulated),
                TextTable::mbps(r.paper),
                format!("{:.2}", r.ratio),
            ]);
        }
        let log_err: f64 = rows.iter().map(|r| r.ratio.ln().abs()).sum();
        println!("{t}");
        println!("mean log error {:.3}\n", log_err / rows.len() as f64);
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
        for r in &s.rows {
            t.row(vec![
                r.op.clone(),
                r.style.clone(),
                TextTable::mbps(r.model),
                TextTable::mbps(r.simulated),
                format!("{:.2}", r.ratio),
            ]);
        }
        println!("{t}");
        if !s.rows.is_empty() {
            println!(
                "mean |log ratio| {:.3}\n",
                experiments::accuracy_mean_log_error(&s.rows)
            );
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

    if outputs.metrics.is_some() && !metrics.histograms.is_empty() {
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
}
