//! The memcomm benchmark.
//!
//! ```text
//! perfbench --workload <sweep|transpose64|storm1k|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Drives the workspace's public functions from one process and times them
//! from outside. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` a traced run reports
//! the per-layer ones and writes a Chrome trace under `perfbench/out/`.
//! See `perfbench/README.md`.

mod layers;
mod report;
mod serve;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Instant;

use memcomm_machines::memo;

use report::{fnv64, median, secs, Outcome};
use trace::Tracer;
use workloads::Ctx;

pub const WORKLOADS: [&str; 4] = ["sweep", "transpose64", "storm1k", "serve"];

/// The layers spans are recorded for: the workspace's crates plus the
/// benchmark's own harness.
const LAYERS: [&str; 10] = [
    "harness", "bench", "util", "obs", "memsim", "machines", "core", "commops", "kernels", "netsim",
];

struct Args {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(*WORKLOADS.iter().find(|w| *w == value).ok_or(format!(
                    "unknown workload {value:?} (want one of {WORKLOADS:?})"
                ))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

fn run_end_to_end(ctx: &Ctx, workload: &str, out: &mut Outcome) -> Result<(), String> {
    let e2e = match workload {
        "sweep" => workloads::sweep(ctx, out)?,
        "transpose64" => workloads::transpose64(ctx, out)?,
        "storm1k" => workloads::storm1k(ctx, out)?,
        _ => serve::serve(ctx, out)?,
    };
    workloads::report_end_to_end(ctx, &e2e, out)
}

/// Alternating untraced and traced operations of a traced run.
const TRACE_PAIRS: usize = 3;

/// One warm-up operation of the workload, then [`TRACE_PAIRS`] pairs of one
/// operation with tracing off and one with it on. Returns the median
/// untraced end-to-end value (milliseconds) and the median
/// traced-minus-untraced difference, and checks that every operation
/// simulated exactly the same counts.
fn traced_pairs(ctx: &Ctx, workload: &str, out: &mut Outcome) -> Result<(f64, f64), String> {
    let tr = &ctx.tracer;
    let mut untraced = Vec::new();
    let mut overhead = Vec::new();
    let mut signatures: Vec<Vec<u64>> = Vec::new();
    let cache = memo::MemoCache::unbounded();
    let _memo = memo::install(&cache);
    let transpose = if workload == "transpose64" {
        workloads::transpose_inputs(ctx)?
    } else {
        Vec::new()
    };
    let storm = if workload == "storm1k" {
        Some(workloads::storm_input(ctx, workloads::STORM_NODES)?)
    } else {
        None
    };
    let warm_up = std::iter::once(None);
    let pairs = (0..TRACE_PAIRS).flat_map(|_| [Some(false), Some(true)]);
    for traced in warm_up.chain(pairs) {
        tr.set_enabled(traced == Some(true));
        let (ms, signature) = match workload {
            "sweep" => {
                let (cold, warm) = workloads::sweep_op(ctx, &cache, out);
                ((cold + warm) * 1e3, vec![cache.stats().entries])
            }
            "transpose64" => {
                let runs = workloads::transpose_op(ctx, &transpose, ctx.jobs, out);
                let ms = runs.iter().map(|(_, t)| t).sum::<f64>() * 1e3;
                let sig = runs
                    .iter()
                    .flat_map(|(r, _)| {
                        r.map_or([0; 4], |r| [r.cycles, r.flit_hops, r.windows, r.digest])
                    })
                    .collect();
                (ms, sig)
            }
            "storm1k" => {
                let input = storm.as_ref().expect("built above");
                let (run, t) =
                    workloads::storm_op(ctx, input, workloads::STORM_NODES, ctx.jobs, out);
                let o = run.ok_or("storm failed")?.outcome;
                (
                    t * 1e3,
                    vec![
                        o.cycles,
                        o.flit_hops,
                        o.windows,
                        o.dropped,
                        o.retried,
                        o.abandoned,
                        o.digest,
                    ],
                )
            }
            _ => {
                // A fixed number of requests per client, so that the
                // class counts, memo misses and replies repeat exactly.
                let stop = serve::Stop::Requests(serve::PAIR_REQUESTS);
                let run = serve::measured_loop(ctx, stop, out)?;
                (median(&run.p50s) * 1e3, run.signature)
            }
        };
        match traced {
            Some(true) => overhead.push(ms - untraced.last().copied().unwrap_or(ms)),
            Some(false) => untraced.push(ms),
            None => {}
        }
        signatures.push(signature);
    }
    for signature in &signatures[1..] {
        out.check(*signature == signatures[0], || {
            format!(
                "counts {signature:?} differ from the first untraced run's {:?}",
                signatures[0]
            )
        });
    }
    Ok((median(&untraced), median(&overhead)))
}

fn run_traced(ctx: &Ctx, workload: &str, out: &mut Outcome) -> Result<(), String> {
    let (untraced, overhead) = traced_pairs(ctx, workload, out)?;
    out.put("trace.untraced_op_ms", untraced, "ms");
    out.put("trace.overhead_ms", overhead, "ms");
    layers::battery(ctx, out)?;
    ctx.tracer.set_enabled(false);

    let spans = ctx.tracer.spans();
    eprintln!("perfbench: {} spans recorded", spans.len());
    let own = trace::self_ms_by_layer(&spans);
    eprintln!("perfbench: self times computed");
    for layer in LAYERS {
        out.put(
            format!("{layer}.self_ms"),
            own.get(layer).copied().unwrap_or(0.0),
            "ms",
        );
    }
    let t = Instant::now();
    let label = format!("perfbench {workload} seed {}", ctx.seed);
    let text = trace::chrome_trace(&spans, ctx.tracer.run_id, &label);
    let valid = memcomm_obs::chrome::validate(&text);
    out.put("obs.chrome_export_ms", secs(t) * 1e3, "ms");
    out.check(valid.is_ok(), || format!("trace rejected: {valid:?}"));
    out.put("trace.spans", spans.len() as f64, "count");
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace-{workload}-{}.json", ctx.seed));
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, text))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!(
        "perfbench: wrote {} ({} spans)",
        path.display(),
        spans.len()
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, threads] = argv.as_slice() {
        if flag == report::REFERENCE_FLAG {
            let Ok(threads) = threads.parse::<usize>() else {
                return ExitCode::from(2);
            };
            println!("{}", report::reference_ms(threads.clamp(1, 64)));
            return ExitCode::SUCCESS;
        }
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    let run_id = fnv64(
        format!(
            "{}:{}:{}:{nanos}",
            args.workload,
            args.seed,
            std::process::id()
        )
        .as_bytes(),
    ) & 0x7fff_ffff;
    let ctx = Ctx::new(
        args.seed,
        args.seconds,
        jobs,
        Tracer::new(args.trace, run_id),
    );
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} jobs {jobs}",
        args.workload, args.seed, args.seconds, args.trace
    );
    let mut out = Outcome::default();
    let ran = if args.trace {
        run_traced(&ctx, args.workload, &mut out)
    } else {
        run_end_to_end(&ctx, args.workload, &mut out)
    };
    if let Err(e) = ran {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    println!("{}", out.render());
    ExitCode::SUCCESS
}
