//! The four workloads and the inputs they share with the layer battery.
//!
//! Every workload runs in three phases: set-up (repeated; the median is
//! `setup_s`), a timed loop of operations that lasts about `--seconds`,
//! and checks that run outside the timed window.

use std::sync::Mutex;
use std::time::Instant;

use memcomm_bench::adversary::ScenarioOptions;
use memcomm_bench::experiments::{self, EngineSettings, FaultSettings, MICRO_WORDS};
use memcomm_bench::runner::{self, SweepOptions};
use memcomm_kernels::netrun::{self, AdversaryRun, EngineOptions, EngineRun, Table6Kernel};
use memcomm_machines::{calibrate, memo, microbench, Machine};
use memcomm_memsim::fault::FaultPlan;
use memcomm_netsim::adversary::{self, AdversaryConfig, AdversaryKind};
use memcomm_netsim::engine::RetryPolicy;
use memcomm_netsim::Topology;

use crate::report::{fnv64, median, percentile, secs, Outcome};
use crate::trace::Tracer;

/// Set-ups per batch: at least [`SETUP_MIN_REPS`], then more until
/// [`SETUP_BUDGET_S`] is spent or [`SETUP_MAX_REPS`] ran, so that
/// sub-millisecond set-ups rest on many samples.
pub const SETUP_MIN_REPS: usize = 9;
pub const SETUP_MAX_REPS: usize = 500;
pub const SETUP_BUDGET_S: f64 = 0.25;

/// FNV-1a of the rendered default-payload sweep report at the seed commit.
pub const SWEEP_REPORT_FNV: u64 = 0x9792_44a5_79f2_5c9b;
/// Event digests of the saturated Table 6 transpose on 64 nodes.
pub const T3D_TRANSPOSE_DIGEST: u64 = 0x83f1_71ed_4f72_cbdf;
pub const PARAGON_TRANSPOSE_DIGEST: u64 = 0x879b_5006_4f77_5248;
/// Accuracy against the paper at the seed commit, to four decimals.
pub const CALIB_ERR: f64 = 0.0956;
pub const TABLE6_ERR: f64 = 0.2931;

/// Simulated nodes of the transpose and of the storm.
pub const TRANSPOSE_NODES: usize = 64;
pub const STORM_NODES: usize = 1024;
/// Storm base payload: large enough for multi-second runs.
pub const STORM_BYTES: u64 = 1024;

/// What every workload is run with.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Worker threads: the machine's parallelism.
    pub jobs: usize,
    pub tracer: Tracer,
    /// Reference-kernel times of this run, in milliseconds.
    pub host_ms: Mutex<Vec<f64>>,
}

/// The reference-kernel time every time metric is scaled to: a run whose
/// reference median is twice this reports its times halved.
pub const REFERENCE_NOMINAL_MS: f64 = 400.0;

impl Ctx {
    pub fn new(seed: u64, seconds: f64, jobs: usize, tracer: Tracer) -> Ctx {
        Ctx {
            seed,
            seconds,
            jobs,
            tracer,
            host_ms: Mutex::default(),
        }
    }

    fn host_ms(&self) -> std::sync::MutexGuard<'_, Vec<f64>> {
        self.host_ms
            .lock()
            .expect("no thread panics holding the host samples")
    }

    /// Times the reference kernel on `jobs` threads, `times` times, each in
    /// a child process of its own, so that the kernel's memory stays out
    /// of this process's peak resident set.
    /// Returns the host factor of the last sample.
    pub fn sample_host(&self, times: usize) -> Result<f64, String> {
        let mut ms = f64::NAN;
        for _ in 0..times {
            ms = crate::report::reference_ms_in_child(self.jobs)?;
            self.host_ms().push(ms);
        }
        Ok(ms / REFERENCE_NOMINAL_MS)
    }

    /// How much slower than nominal the host ran during this run.
    pub fn host_factor(&self) -> f64 {
        median(&self.host_ms()) / REFERENCE_NOMINAL_MS
    }
}

/// splitmix64: decorrelated sub-seeds of the workload seed.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream + 1));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Operation times of a run, each with the host factor measured right
/// after it.
pub struct Ops {
    pub secs: Vec<f64>,
    pub hosts: Vec<f64>,
}

/// Runs `op` (which returns its own duration in seconds), and the host
/// reference after it, until the next operation would likely end after
/// `ctx.seconds`; at least once.
pub fn timed_loop(ctx: &Ctx, mut op: impl FnMut() -> f64) -> Result<Ops, String> {
    let start = Instant::now();
    let mut ops = Ops {
        secs: Vec::new(),
        hosts: Vec::new(),
    };
    loop {
        let took = op();
        let host = ctx.sample_host(1)?;
        ops.secs.push(took);
        ops.hosts.push(host);
        eprintln!(
            "perfbench: op {} took {took:.4} s, host factor {host:.4}",
            ops.secs.len()
        );
        let elapsed = secs(start);
        if elapsed + elapsed / ops.secs.len() as f64 > ctx.seconds {
            return Ok(ops);
        }
    }
}

/// Times repeated `setup` calls into `times`; returns the last set-up.
/// Workloads call it once before and once after their timed loop, so that
/// `setup_s`, the median of all the times, spans the whole run.
pub fn time_setups<T>(times: &mut Vec<f64>, mut setup: impl FnMut() -> T) -> T {
    let start = Instant::now();
    let mut last = None;
    let mut reps = 0;
    while reps < SETUP_MIN_REPS || (reps < SETUP_MAX_REPS && secs(start) < SETUP_BUDGET_S) {
        // Tear the previous set-up down outside the timed section.
        drop(last.take());
        let t = Instant::now();
        last = Some(setup());
        times.push(secs(t));
        reps += 1;
    }
    last.expect("at least one set-up")
}

/// The sweep options of the `sweep` workload: every section, default
/// payloads. The seed feeds the (zero-rate) fault plan, which the runner
/// keeps out of the report.
pub fn sweep_options(ctx: &Ctx) -> SweepOptions {
    SweepOptions {
        jobs: ctx.jobs,
        faults: FaultSettings {
            seed: ctx.seed,
            ..FaultSettings::default()
        },
        ..SweepOptions::default()
    }
}

/// Accuracy against the paper: `calibrate::mean_log_error` over both
/// machines' calibration rows, and the mean |ln(sim/paper)| over Table 6's
/// buffer-packing and chained columns.
pub fn accuracy(ctx: &Ctx) -> Result<(f64, f64), String> {
    let cache = memo::MemoCache::unbounded();
    let _memo = memo::install(&cache);
    memcomm_util::par::set_jobs(ctx.jobs);
    let mut rows = Vec::new();
    for m in [Machine::t3d(), Machine::paragon()] {
        rows.extend(calibrate::calibration_report(&m, MICRO_WORDS).map_err(|e| e.to_string())?);
    }
    let rates =
        microbench::measure_table(&Machine::t3d(), MICRO_WORDS).map_err(|e| e.to_string())?;
    let table6 = experiments::table6(&rates).map_err(|e| e.to_string())?;
    let logs: Vec<f64> = table6
        .iter()
        .flat_map(|r| {
            [
                (r.sim_bp / r.paper_bp).ln().abs(),
                (r.sim_chained / r.paper_chained).ln().abs(),
            ]
        })
        .collect();
    Ok((
        calibrate::mean_log_error(&rows),
        logs.iter().sum::<f64>() / logs.len() as f64,
    ))
}

fn round4(x: f64) -> f64 {
    (x * 1e4).round() / 1e4
}

/// The end-to-end metrics every workload reports.
pub struct EndToEnd {
    /// Every set-up time of the run, in seconds.
    pub setups: Vec<f64>,
    /// Host seconds per operation; for `serve`, the p50 request latency of
    /// each slice of the window.
    pub ops: Vec<f64>,
    /// The host factor measured after each operation; empty when the
    /// operations are too short to sample between (requests), in which
    /// case the run's factor scales them.
    pub op_hosts: Vec<f64>,
    /// Tail latency in seconds per operation, when the workload has its own
    /// (for `serve`, the p99 of each slice); empty otherwise, and then the
    /// tail is the upper quartile of the scaled operations: a run has too
    /// few operations for a higher percentile to have any beyond it, and
    /// the slowest one alone swings with the host.
    pub tails: Vec<f64>,
    /// Requests completed per second, per operation, for a workload whose
    /// requests overlap (`serve`, per slice); empty otherwise, and then the
    /// rate is one over the mean scaled operation.
    pub rates: Vec<f64>,
}

pub fn report_end_to_end(ctx: &Ctx, e2e: &EndToEnd, out: &mut Outcome) -> Result<(), String> {
    let (calib, table6) = accuracy(ctx)?;
    out.check(round4(calib) == CALIB_ERR, || {
        format!("calib_err {calib} != {CALIB_ERR}")
    });
    out.check(round4(table6) == TABLE6_ERR, || {
        format!("table6_err {table6} != {TABLE6_ERR}")
    });
    let ok = 1.0 - out.failed as f64 / out.attempted.max(1) as f64;
    let host = ctx.host_factor();
    let hosts = if e2e.op_hosts.is_empty() {
        vec![host; e2e.ops.len()]
    } else {
        e2e.op_hosts.clone()
    };
    let scale = |values: &[f64], f: fn(f64, f64) -> f64| -> Vec<f64> {
        values.iter().zip(&hosts).map(|(&v, &h)| f(v, h)).collect()
    };
    let scaled = scale(&e2e.ops, |o, h| o / h);
    let per_op = |ops: &[f64]| ops.len() as f64 / ops.iter().sum::<f64>();
    let (raw_tail, tail) = if e2e.tails.is_empty() {
        (percentile(&e2e.ops, 75.0), percentile(&scaled, 75.0))
    } else {
        (median(&e2e.tails), median(&scale(&e2e.tails, |t, h| t / h)))
    };
    let (raw_rate, rate) = if e2e.rates.is_empty() {
        (per_op(&e2e.ops), per_op(&scaled))
    } else {
        (median(&e2e.rates), median(&scale(&e2e.rates, |r, h| r * h)))
    };
    eprintln!(
        "perfbench: raw setup {:.4e} s, op p50 {:.4} ms, tail {:.4} ms, {:.4} ops/s; host factor {host:.4} (reference / {REFERENCE_NOMINAL_MS} ms)",
        median(&e2e.setups),
        median(&e2e.ops) * 1e3,
        raw_tail * 1e3,
        raw_rate
    );
    out.put("setup_s", median(&e2e.setups) / host, "s");
    out.put("ok_frac", ok, "frac");
    out.put("peak_rss_mb", crate::report::peak_rss_mb(), "MB");
    out.put("calib_err", calib, "ln");
    out.put("table6_err", table6, "ln");
    out.put("op_p50_ms", median(&scaled) * 1e3, "ms");
    out.put("op_tail_ms", tail * 1e3, "ms");
    out.put("ops_per_s", rate, "1/s");
    eprintln!("perfbench: {} ops", e2e.ops.len());
    Ok(())
}

// ------------------------------------------------------------------ sweep

/// One cold pass on a cleared memo, then one warm pass; returns
/// `(cold_s, warm_s)` and checks both reports' bytes.
pub fn sweep_op(ctx: &Ctx, cache: &memo::MemoHandle, out: &mut Outcome) -> (f64, f64) {
    let opts = sweep_options(ctx);
    let _op = ctx.tracer.enter("harness", "sweep.op");
    let mut pass = |name: &'static str| {
        let t = Instant::now();
        let (report, _) = ctx.tracer.span("bench", name, || runner::run_sweep(&opts));
        let took = secs(t);
        let fnv = fnv64(report.to_json().render().as_bytes());
        out.check(fnv == SWEEP_REPORT_FNV, || {
            format!("{name} report fnv {fnv:016x}")
        });
        took
    };
    cache.clear();
    let cold = pass("runner.run_sweep.cold");
    let warm = pass("runner.run_sweep.warm");
    (cold, warm)
}

pub fn sweep(ctx: &Ctx, out: &mut Outcome) -> Result<EndToEnd, String> {
    let setup = || {
        let cache = memo::MemoCache::unbounded();
        std::hint::black_box([Machine::t3d(), Machine::paragon()]);
        cache
    };
    ctx.sample_host(2)?;
    let mut setups = Vec::new();
    let cache = time_setups(&mut setups, setup);
    let _memo = memo::install(&cache);
    let mut colds = Vec::new();
    let mut warms = Vec::new();
    let Ops {
        secs: ops,
        hosts: op_hosts,
    } = timed_loop(ctx, || {
        let (cold, warm) = sweep_op(ctx, &cache, out);
        colds.push(cold);
        warms.push(warm);
        cold + warm
    })?;
    eprintln!(
        "perfbench: sweep_cold_s {:.4} sweep_warm_s {:.4} (medians, jobs {})",
        median(&colds),
        median(&warms),
        ctx.jobs
    );
    time_setups(&mut setups, setup);
    ctx.sample_host(2)?;
    Ok(EndToEnd {
        setups,
        ops,
        op_hosts,
        tails: Vec::new(),
        rates: Vec::new(),
    })
}

// ------------------------------------------------------------ transpose64

/// The saturated Table 6 transpose (n = 1024) as the `repro --engine event`
/// default builds it.
pub fn transpose_kernel(jobs: usize) -> Table6Kernel {
    let settings = EngineSettings {
        nodes: TRANSPOSE_NODES,
        transpose_n: 1024,
        sor_n: 256,
        jobs,
        shards: 0,
    };
    experiments::engine_kernels(&settings)
        .into_iter()
        .find(|k| k.name() == "Transpose")
        .expect("the Table 6 kernel set contains the transpose")
}

pub fn engine_options(nodes: usize, jobs: usize, sample_every: u64) -> EngineOptions {
    EngineOptions {
        nodes: Some(nodes),
        jobs,
        shards: 0,
        record_events: false,
        sample_every,
        reference_scheduler: false,
    }
}

/// A machine with its scaled topology and compiled transpose rounds.
pub struct TransposeInput {
    pub machine: Machine,
    pub topo: Topology,
    pub rounds: Vec<Vec<memcomm_netsim::Flow>>,
    pub digest: u64,
}

pub fn transpose_inputs(ctx: &Ctx) -> Result<Vec<TransposeInput>, String> {
    let kernel = transpose_kernel(ctx.jobs);
    [
        (Machine::t3d(), T3D_TRANSPOSE_DIGEST),
        (Machine::paragon(), PARAGON_TRANSPOSE_DIGEST),
    ]
    .into_iter()
    .map(|(machine, digest)| {
        let topo = ctx.tracer.span("netsim", "scaled_topology", || {
            netrun::engine_topology(&machine, Some(TRANSPOSE_NODES))
        });
        let topo = topo.map_err(|e| e.to_string())?;
        let rounds = ctx
            .tracer
            .span("kernels", "Table6Kernel.rounds", || kernel.rounds(&topo));
        let rounds = rounds.map_err(|e| e.to_string())?;
        Ok(TransposeInput {
            machine,
            topo,
            rounds,
            digest,
        })
    })
    .collect()
}

/// One transpose per machine at `jobs`; returns the runs and their host
/// seconds, checking each digest.
pub fn transpose_op(
    ctx: &Ctx,
    inputs: &[TransposeInput],
    jobs: usize,
    out: &mut Outcome,
) -> Vec<(Option<EngineRun>, f64)> {
    let _op = ctx.tracer.enter("harness", "transpose.op");
    inputs
        .iter()
        .map(|input| {
            let t = Instant::now();
            let run = ctx.tracer.span("kernels", "netrun.run_rounds", || {
                netrun::run_rounds(
                    &input.machine,
                    &input.topo,
                    &input.rounds,
                    &engine_options(TRANSPOSE_NODES, jobs, 0),
                )
            });
            let took = secs(t);
            match run {
                Ok(run) => {
                    out.check(run.digest == input.digest, || {
                        format!(
                            "{} transpose digest {:016x}",
                            input.machine.name, run.digest
                        )
                    });
                    (Some(run), took)
                }
                Err(e) => {
                    out.check(false, || format!("{} transpose: {e}", input.machine.name));
                    (None, took)
                }
            }
        })
        .collect()
}

pub fn transpose64(ctx: &Ctx, out: &mut Outcome) -> Result<EndToEnd, String> {
    ctx.sample_host(2)?;
    let mut setups = Vec::new();
    let inputs = time_setups(&mut setups, || transpose_inputs(ctx))?;
    let mut per_machine: Vec<Vec<f64>> = vec![Vec::new(); inputs.len()];
    let mut cycles = vec![0u64; inputs.len()];
    let Ops {
        secs: ops,
        hosts: op_hosts,
    } = timed_loop(ctx, || {
        let runs = transpose_op(ctx, &inputs, ctx.jobs, out);
        for (i, (run, took)) in runs.iter().enumerate() {
            per_machine[i].push(*took);
            cycles[i] = run.as_ref().map_or(0, |r| r.cycles);
        }
        runs.iter().map(|(_, took)| took).sum()
    })?;
    for (i, input) in inputs.iter().enumerate() {
        eprintln!(
            "perfbench: {} transpose {:.0} sim-cycles/s (median of {}, jobs {})",
            input.machine.name,
            cycles[i] as f64 / median(&per_machine[i]),
            per_machine[i].len(),
            ctx.jobs
        );
    }
    time_setups(&mut setups, || transpose_inputs(ctx))?;
    ctx.sample_host(2)?;
    Ok(EndToEnd {
        setups,
        ops,
        op_hosts,
        tails: Vec::new(),
        rates: Vec::new(),
    })
}

// ---------------------------------------------------------------- storm1k

/// The retry-storm adversary of `repro --adversary retry-storm` on the
/// 1024-node T3D torus, with generator and fault plan drawn from the seed.
pub struct StormInput {
    pub machine: Machine,
    pub adv: AdversaryConfig,
    pub fault: FaultPlan,
    pub retry: RetryPolicy,
    pub flows: usize,
}

pub fn storm_input(ctx: &Ctx, nodes: usize) -> Result<StormInput, String> {
    let machine = Machine::t3d();
    let mut scenario = ScenarioOptions::new(AdversaryKind::RetryStorm);
    scenario.seed = sub_seed(ctx.seed, 1);
    let adv = AdversaryConfig {
        kind: AdversaryKind::RetryStorm,
        seed: sub_seed(ctx.seed, 2),
        base_bytes: STORM_BYTES,
        ..AdversaryConfig::default()
    };
    let topo = ctx
        .tracer
        .span("kernels", "netrun.engine_topology", || {
            netrun::engine_topology(&machine, Some(nodes))
        })
        .map_err(|e| e.to_string())?;
    let traffic = ctx.tracer.span("netsim", "adversary.generate", || {
        adversary::generate(&topo, &adv)
    });
    Ok(StormInput {
        machine,
        adv,
        fault: scenario.fault_plan(),
        retry: scenario.retry_policy(),
        flows: traffic.flows.len(),
    })
}

pub fn storm_op(
    ctx: &Ctx,
    input: &StormInput,
    nodes: usize,
    jobs: usize,
    out: &mut Outcome,
) -> (Option<AdversaryRun>, f64) {
    let _op = ctx.tracer.enter("harness", "storm.op");
    let t = Instant::now();
    let run = ctx.tracer.span("kernels", "netrun.run_adversary", || {
        netrun::run_adversary(
            &input.machine,
            &input.adv,
            input.fault,
            input.retry,
            &engine_options(nodes, jobs, 0),
        )
    });
    let took = secs(t);
    match run {
        Ok(run) => {
            let o = &run.outcome;
            out.check(
                o.dropped == o.retried + o.abandoned && o.dropped > 0,
                || {
                    format!(
                        "storm accounting: dropped {} retried {} abandoned {}",
                        o.dropped, o.retried, o.abandoned
                    )
                },
            );
            out.check(run.flows == input.flows as u64, || {
                format!("storm compiled {} flows", run.flows)
            });
            (Some(run), took)
        }
        Err(e) => {
            out.check(false, || format!("storm: {e}"));
            (None, took)
        }
    }
}

pub fn storm1k(ctx: &Ctx, out: &mut Outcome) -> Result<EndToEnd, String> {
    ctx.sample_host(2)?;
    let mut setups = Vec::new();
    let input = time_setups(&mut setups, || storm_input(ctx, STORM_NODES))?;
    let mut digests = Vec::new();
    let mut cycles = 0;
    let Ops {
        secs: ops,
        hosts: op_hosts,
    } = timed_loop(ctx, || {
        let (run, took) = storm_op(ctx, &input, STORM_NODES, ctx.jobs, out);
        if let Some(run) = run {
            digests.push(run.outcome.digest);
            cycles = run.outcome.cycles;
        }
        took
    })?;
    time_setups(&mut setups, || storm_input(ctx, STORM_NODES))?;
    ctx.sample_host(2)?;
    // Outside the timed window: the same storm on one worker must give the
    // same event stream.
    let (serial, _) = storm_op(ctx, &input, STORM_NODES, 1, out);
    let serial = serial.map(|r| r.outcome.digest);
    out.check(digests.iter().all(|&d| Some(d) == serial), || {
        format!("storm digests {digests:x?} vs jobs-1 {serial:x?}")
    });
    eprintln!(
        "perfbench: storm {:.0} sim-cycles/s (median of {}, jobs {})",
        cycles as f64 / median(&ops),
        ops.len(),
        ctx.jobs
    );
    Ok(EndToEnd {
        setups,
        ops,
        op_hosts,
        tails: Vec::new(),
        rates: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn storm_digest(seed: u64) -> u64 {
        let ctx = Ctx::new(seed, 1.0, 1, Tracer::new(false, 0));
        let input = storm_input(&ctx, 16).expect("a 16-node storm builds");
        let (run, _) = storm_op(&ctx, &input, 16, 1, &mut Outcome::default());
        run.expect("the storm runs").outcome.digest
    }

    #[test]
    fn storm_inputs_follow_the_seed() {
        assert_eq!(storm_digest(5), storm_digest(5));
        assert_ne!(storm_digest(5), storm_digest(6));
    }
}
