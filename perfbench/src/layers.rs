//! The per-layer battery of a traced run: each layer's public entry
//! points timed from outside on the inputs the workloads use, plus the
//! simulated counts that must repeat exactly.

use std::time::Instant;

use memcomm_bench::experiments::{self, FaultSettings, EXCHANGE_WORDS, MICRO_WORDS};
use memcomm_bench::runner::{self, SweepOptions, SECTIONS};
use memcomm_commops::{run_exchange, run_resilient_transfer, ProtocolConfig, Style};
use memcomm_kernels::netrun;
use memcomm_machines::{memo, microbench, Machine};
use memcomm_memsim::scenario;
use memcomm_model::{buffer_packing_expr, chained_expr, AccessPattern, TransferExpr};
use memcomm_netsim::adversary;

use crate::report::{median, secs, Outcome};
use crate::workloads::{
    engine_options, storm_input, storm_op, sweep_options, transpose_inputs, transpose_kernel,
    transpose_op, Ctx, STORM_NODES, TRANSPOSE_NODES,
};

/// The exchange grid of the Section 5 and model-accuracy experiments.
const EXCHANGE_OPS: [&str; 11] = [
    "1Q1", "1Q8", "8Q1", "1Q16", "16Q1", "1Q64", "64Q1", "16Q64", "1Qw", "wQ1", "wQw",
];
/// The fault-injection section's grid.
const PROTOCOL_OPS: [&str; 3] = ["1Q1", "1Q64", "wQw"];
const STYLES: [Style; 2] = [Style::BufferPacking, Style::Chained];

/// Telemetry sampling interval of the sampled transpose (the perfsuite's).
const SAMPLE_EVERY: u64 = 64;

fn machines() -> [Machine; 2] {
    [Machine::t3d(), Machine::paragon()]
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Median wall seconds of `reps` calls of `f`.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        f();
        times.push(secs(t));
    }
    median(&times)
}

pub fn battery(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    type Step = fn(&Ctx, &mut Outcome) -> Result<(), String>;
    let steps: [(&str, Step); 5] = [
        ("memsim", memsim),
        ("sweep", sweeps),
        ("commops", commops),
        ("netsim", netsim),
        ("service", crate::serve::layers),
    ];
    for (name, step) in steps {
        let t = Instant::now();
        step(ctx, out)?;
        eprintln!("perfbench: layers.{name} took {:.2} s", secs(t));
    }
    Ok(())
}

fn memsim(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let tr = &ctx.tracer;
    let _step = tr.enter("harness", "layers.memsim");
    let mut took = 0.0;
    let mut cycles = 0u64;
    for m in machines() {
        for t in microbench::standard_transfers() {
            let start = Instant::now();
            let r = tr.span("memsim", "microbench.simulate_basic", || {
                microbench::simulate_basic(&m, t, MICRO_WORDS)
            });
            took += secs(start);
            cycles += r.map_err(err)?.map_or(0, |m| m.cycles);
        }
    }
    out.put("memsim.simulate_ms", took * 1e3, "ms");
    out.put("memsim.sim_cycles", cycles as f64, "count");
    out.put("memsim.ns_per_sim_cycle", took * 1e9 / cycles as f64, "ns");

    // Cache and DRAM statistics of a contiguous and a strided local copy.
    let (mut lookups, mut misses, mut rows, mut row_hits) = (0u64, 0u64, 0u64, 0u64);
    for src_pattern in [
        AccessPattern::Contiguous,
        AccessPattern::strided(64).map_err(err)?,
    ] {
        let machine = Machine::t3d();
        let mut node = microbench::make_node(&machine);
        let src =
            microbench::alloc_pattern_walk(&mut node, src_pattern, MICRO_WORDS, 1).map_err(err)?;
        let dst =
            microbench::alloc_pattern_walk(&mut node, AccessPattern::Contiguous, MICRO_WORDS, 2)
                .map_err(err)?;
        tr.span("memsim", "scenario.run_local_copy", || {
            scenario::run_local_copy(&mut node, &src, &dst)
        })
        .map_err(err)?;
        let c = node.path.cache_stats();
        let d = node.path.dram_stats();
        lookups += c.load_hits + c.load_misses + c.store_hits + c.store_misses;
        misses += c.load_misses + c.store_misses;
        rows += d.row_hits + d.row_misses;
        row_hits += d.row_hits;
    }
    out.put(
        "memsim.cache.miss_ratio",
        misses as f64 / lookups.max(1) as f64,
        "ratio",
    );
    out.put(
        "memsim.dram.row_hit_ratio",
        row_hits as f64 / rows.max(1) as f64,
        "ratio",
    );
    Ok(())
}

/// Memo passes, section times, rendering, the worker speed-up of the
/// sweep, and the analytic model on the measured rate tables.
fn sweeps(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let tr = &ctx.tracer;
    let _step = tr.enter("harness", "layers.sweep");
    let opts = sweep_options(ctx);
    let cache = memo::MemoCache::unbounded();
    let _memo = memo::install(&cache);
    let mut passes = Vec::new();
    for pass in ["cold", "warm"] {
        let before = memo::stats();
        let t = Instant::now();
        let (report, _) = tr.span("bench", "runner.run_sweep", || runner::run_sweep(&opts));
        let took = secs(t);
        let d = memo::stats().since(before);
        out.put(format!("machines.memo.{pass}.hits"), d.hits as f64, "count");
        out.put(
            format!("machines.memo.{pass}.misses"),
            d.misses as f64,
            "count",
        );
        out.put(
            format!("machines.memo.{pass}.hit_rate"),
            d.hit_rate(),
            "ratio",
        );
        out.put(format!("runner.{pass}_pass_ms"), took * 1e3, "ms");
        out.put(format!("headline.sweep_{pass}_s"), took, "s");
        passes.push((report, took));
    }
    let (report, cold_s) = passes.swap_remove(0);

    // Warm lookups: every standard point of both machines, from the cache.
    let transfers = microbench::standard_transfers();
    let reps = 20;
    let t = Instant::now();
    tr.span(
        "machines",
        "microbench.measure_basic",
        || -> Result<(), String> {
            for _ in 0..reps {
                for m in machines() {
                    for &x in &transfers {
                        std::hint::black_box(
                            microbench::measure_basic(&m, x, MICRO_WORDS).map_err(err)?,
                        );
                    }
                }
            }
            Ok(())
        },
    )?;
    let lookups = (reps * 2 * transfers.len()) as f64;
    out.put("machines.memo.lookup_ns", secs(t) * 1e9 / lookups, "ns");

    let mut rendered = String::new();
    let render = tr.span("util", "json.render", || {
        median_secs(10, || rendered = report.to_json().render())
    });
    out.put("runner.render_ms", render * 1e3, "ms");
    out.put("runner.report_bytes", rendered.len() as f64, "bytes");

    // The analytic model over the exchange grid, on the warm rate tables.
    let mut exprs: Vec<(TransferExpr, memcomm_model::RateTable)> = Vec::new();
    for m in machines() {
        let rates = microbench::measure_table(&m, MICRO_WORDS).map_err(err)?;
        for op in EXCHANGE_OPS {
            let (x, y) = experiments::parse_q(op);
            for e in [
                buffer_packing_expr(x, y, experiments::bp_plan(&m)),
                chained_expr(x, y, experiments::chained_plan(&m)),
            ]
            .into_iter()
            .flatten()
            {
                exprs.push((e, rates.clone()));
            }
        }
    }
    let reps = 200;
    let t = Instant::now();
    tr.span("core", "TransferExpr.estimate", || {
        for _ in 0..reps {
            for (e, rates) in &exprs {
                let _ = std::hint::black_box(e.estimate(rates));
            }
        }
    });
    out.put(
        "core.estimate_us",
        secs(t) * 1e6 / (reps * exprs.len()) as f64,
        "us",
    );
    drop(_memo);

    // Each section alone on a fresh cache.
    for &key in SECTIONS {
        let cache = memo::MemoCache::unbounded();
        let _memo = memo::install(&cache);
        let one = SweepOptions {
            sections: [key.to_string()].into_iter().collect(),
            ..sweep_options(ctx)
        };
        let t = Instant::now();
        tr.span("bench", "runner.run_sweep.section", || {
            runner::run_sweep(&one)
        });
        out.put(format!("runner.section_ms.{key}"), secs(t) * 1e3, "ms");
    }

    // The cold sweep on one worker against `jobs` workers.
    let cache = memo::MemoCache::unbounded();
    let _memo = memo::install(&cache);
    let serial = SweepOptions {
        jobs: 1,
        ..sweep_options(ctx)
    };
    let t = Instant::now();
    tr.span("bench", "runner.run_sweep.serial", || {
        runner::run_sweep(&serial)
    });
    out.put("util.par.sweep_speedup", secs(t) / cold_s, "ratio");
    memcomm_util::par::set_jobs(ctx.jobs);
    Ok(())
}

fn commops(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let tr = &ctx.tracer;
    let _step = tr.enter("harness", "layers.commops");
    let (mut took, mut words) = (0.0, 0u64);
    for m in machines() {
        let cfg = experiments::paper_exchange_cfg(&m, EXCHANGE_WORDS);
        for op in EXCHANGE_OPS {
            let (x, y) = experiments::parse_q(op);
            for style in STYLES {
                let t = Instant::now();
                let r = tr.span("commops", "exchange.run_exchange", || {
                    run_exchange(&m, x, y, style, &cfg)
                });
                took += secs(t);
                let r = r.map_err(err)?;
                out.check(r.verified, || {
                    format!("{} {op} exchange not verified", m.name)
                });
                words += r.words;
            }
        }
    }
    out.put("commops.exchange_ms", took * 1e3, "ms");
    out.put(
        "commops.exchange_ns_per_word",
        took * 1e9 / words as f64,
        "ns",
    );

    let cfg = ProtocolConfig {
        words: EXCHANGE_WORDS,
        ..ProtocolConfig::default()
    };
    let plan = FaultSettings::default().plan();
    let mut took = 0.0;
    for m in machines() {
        for op in PROTOCOL_OPS {
            let (x, y) = experiments::parse_q(op);
            for style in STYLES {
                let t = Instant::now();
                let r = tr.span("commops", "protocol.run_resilient_transfer", || {
                    run_resilient_transfer(&m, x, y, style, plan, &cfg)
                });
                took += secs(t);
                let r = r.map_err(err)?;
                out.check(r.verified, || {
                    format!("{} {op} resilient transfer not verified", m.name)
                });
            }
        }
    }
    out.put("commops.protocol_ms", took * 1e3, "ms");
    Ok(())
}

/// Engine counts of one workload, summed over its runs.
#[derive(Default)]
struct Counts {
    run_s: f64,
    cycles: u64,
    flit_hops: u64,
    windows: u64,
    words: u64,
    peak_queue_depth: u64,
    dropped: u64,
    retried: u64,
    abandoned: u64,
}

fn put_counts(out: &mut Outcome, w: &str, c: &Counts, speedup: f64) {
    out.put(format!("netsim.run_ms.{w}"), c.run_s * 1e3, "ms");
    out.put(
        format!("netsim.ns_per_flit_hop.{w}"),
        c.run_s * 1e9 / c.flit_hops as f64,
        "ns",
    );
    out.put(
        format!("netsim.ns_per_window.{w}"),
        c.run_s * 1e9 / c.windows as f64,
        "ns",
    );
    out.put(format!("netsim.par_speedup.{w}"), speedup, "ratio");
    for (name, v) in [
        ("flit_hops", c.flit_hops),
        ("windows", c.windows),
        ("words", c.words),
        ("peak_queue_depth", c.peak_queue_depth),
        ("dropped", c.dropped),
        ("retried", c.retried),
        ("abandoned", c.abandoned),
    ] {
        out.put(format!("netsim.{name}.{w}"), v as f64, "count");
    }
}

fn netsim(ctx: &Ctx, out: &mut Outcome) -> Result<(), String> {
    let tr = &ctx.tracer;
    let _step = tr.enter("harness", "layers.netsim");
    let t3d = Machine::t3d();
    let topology = median_secs(20, || {
        for (m, n) in [
            (Machine::t3d(), TRANSPOSE_NODES),
            (Machine::paragon(), TRANSPOSE_NODES),
            (Machine::t3d(), STORM_NODES),
        ] {
            let _ = std::hint::black_box(tr.span("netsim", "engine.scaled_topology", || {
                memcomm_netsim::engine::scaled_topology(&m.topology, n)
            }));
        }
    });
    out.put("netsim.topology_ms", topology * 1e3, "ms");

    let inputs = transpose_inputs(ctx)?;
    let kernel = transpose_kernel(ctx.jobs);
    let rounds = median_secs(20, || {
        for input in &inputs {
            let _ = std::hint::black_box(tr.span("kernels", "Table6Kernel.rounds", || {
                kernel.rounds(&input.topo)
            }));
        }
    });
    out.put("kernels.rounds_ms", rounds * 1e3, "ms");

    // The transpose at `jobs` on both machines (the workload's operation).
    let mut c = Counts::default();
    let mut t3d_jobs_s = f64::NAN;
    for (i, (run, took)) in transpose_op(ctx, &inputs, ctx.jobs, out)
        .into_iter()
        .enumerate()
    {
        let run = run.ok_or("transpose failed")?;
        let name = if i == 0 { "t3d" } else { "paragon" };
        if i == 0 {
            t3d_jobs_s = took;
        }
        out.put(
            format!("headline.{name}_transpose_cps"),
            run.cycles as f64 / took,
            "1/s",
        );
        c.run_s += took;
        c.cycles += run.cycles;
        c.flit_hops += run.flit_hops;
        c.windows += run.windows;
        c.words += run.words;
        c.peak_queue_depth = c.peak_queue_depth.max(run.peak_queue_depth);
    }
    // One worker, unsampled and sampled, and the bare schedule, on the T3D.
    let t3d_in = &inputs[0];
    let single = |sample_every| {
        let t = Instant::now();
        let run = tr.span("kernels", "netrun.run_rounds", || {
            netrun::run_rounds(
                &t3d,
                &t3d_in.topo,
                &t3d_in.rounds,
                &engine_options(TRANSPOSE_NODES, 1, sample_every),
            )
        });
        (run, secs(t))
    };
    let (serial, serial_s) = single(0);
    let serial = serial.map_err(err)?;
    put_counts(out, "transpose64", &c, serial_s / t3d_jobs_s);
    out.check(serial.digest == t3d_in.digest, || {
        format!("serial transpose digest {:016x}", serial.digest)
    });
    let (sampled, sampled_s) = single(SAMPLE_EVERY);
    out.check(sampled.as_ref().ok() == Some(&serial), || {
        "sampling changed the transpose outcome".to_string()
    });
    out.put("obs.sampling_overhead", sampled_s / serial_s, "ratio");
    let mut cfg = netrun::engine_config(&t3d);
    cfg.jobs = 1;
    let t = Instant::now();
    let sched = tr.span("netsim", "engine.run_schedule", || {
        memcomm_netsim::run_schedule(&t3d_in.topo, &t3d_in.rounds, &cfg)
    });
    let sched_s = secs(t);
    out.check(sched.map(|s| s.digest).ok() == Some(serial.digest), || {
        "run_schedule digest differs".to_string()
    });
    out.put(
        "kernels.netrun_overhead_ms",
        (serial_s - sched_s) * 1e3,
        "ms",
    );

    // The storm at `jobs` and on one worker.
    let input = storm_input(ctx, STORM_NODES)?;
    let topo = netrun::engine_topology(&t3d, Some(STORM_NODES)).map_err(err)?;
    let gen = median_secs(3, || {
        std::hint::black_box(tr.span("netsim", "adversary.generate", || {
            adversary::generate(&topo, &input.adv)
        }));
    });
    out.put("netsim.adversary_gen_ms", gen * 1e3, "ms");
    let (par, par_s) = storm_op(ctx, &input, STORM_NODES, ctx.jobs, out);
    let (one, one_s) = storm_op(ctx, &input, STORM_NODES, 1, out);
    let (par, one) = (par.ok_or("storm failed")?, one.ok_or("storm failed")?);
    out.check(par.outcome.digest == one.outcome.digest, || {
        "storm digest depends on jobs".to_string()
    });
    let o = &par.outcome;
    out.put("headline.storm_cps", o.cycles as f64 / par_s, "1/s");
    let c = Counts {
        run_s: par_s,
        cycles: o.cycles,
        flit_hops: o.flit_hops,
        windows: o.windows,
        words: o.words,
        peak_queue_depth: o.peak_queue_depth,
        dropped: o.dropped,
        retried: o.retried,
        abandoned: o.abandoned,
    };
    put_counts(out, "storm1k", &c, one_s / par_s);
    Ok(())
}
