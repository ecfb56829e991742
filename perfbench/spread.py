#!/usr/bin/env python3
"""Runs one workload over several seeds and prints each metric's spread.

The spread of a metric is the distance between the first and third
quartile of its values (statistics.quantiles, n=4) as a share of their
median. The unscaled ("raw") figures and the host factor, parsed from
standard error, are listed beside the reported ones.

    python3 perfbench/spread.py --workload storm1k --seeds 1000-1004
    python3 perfbench/spread.py --workload sweep --seeds 1000-1009 \\
        --bin .bench_build/release/memcomm-perfbench --baseline perfbench/baseline.json
    python3 perfbench/spread.py --workload sweep --seeds 1000 --trace 1 \\
        --baseline perfbench/baseline.json

Without --bin the benchmark runs through the command in BENCHMARK.json.
With --baseline the medians and quartiles (or, for --trace 1, the first
run's per-layer values) replace the workload's entry in that file.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RAW = re.compile(
    r"raw setup (\S+) s, op p50 (\S+) ms, tail (\S+) ms, (\S+) ops/s; "
    r"host factor (\S+) \(reference / (\S+) ms\)"
)


def seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0, q1, q2, q3


def run(command, workload, seed, seconds, trace):
    args = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    raw = RAW.search(proc.stderr)
    if raw:
        names = ["setup_s", "op_p50_ms", "op_tail_ms", "ops_per_s", "host", "nominal_ms"]
        result["raw"] = dict(zip(names, map(float, raw.groups())))
    return result


def write_baseline(path, args, seconds, results):
    """Replaces the workload's entry in the baseline file."""
    path = Path(path)
    base = json.loads(path.read_text()) if path.exists() else {}
    w = args.workload
    base["machine"] = dict(base.get("machine", {}), nproc=os.cpu_count())
    base["run_seconds"] = seconds
    base.setdefault("seeds", {})[w + (".traced" if args.trace else "")] = [r["seed"] for r in results]
    if args.trace:
        base.setdefault("per_layer", {})[w] = results[0]["metrics"]
    else:
        nominal = {r["raw"]["nominal_ms"] for r in results}
        assert len(nominal) == 1, f"runs disagree on the reference nominal: {nominal}"
        base["reference_nominal_ms"] = nominal.pop()
        e2e = base.setdefault("end_to_end", {})[w] = {}
        for name in results[0]["metrics"]:
            s, q1, med, q3 = spread([r["metrics"][name] for r in results])
            e2e[name] = {"median": med, "q1": q1, "q3": q3, "spread": s}
        raw = base.setdefault("raw_end_to_end", {})[w] = {}
        for name in results[0]["raw"]:
            if name != "nominal_ms":
                raw[name] = statistics.median(r["raw"][name] for r in results)
    path.write_text(json.dumps(base, indent=1) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1000-1004")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--bin", help="a built benchmark binary to run instead of the command")
    ap.add_argument("--json", help="also write every run's result line here")
    ap.add_argument("--baseline", help="record the runs in this baseline file")
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    command = [args.bin] if args.bin else bench["command"]
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    results = []
    for seed in seeds(args.seeds):
        r = run(command, args.workload, seed, seconds, args.trace)
        flat = {k: v["value"] for k, v in r["metrics"].items()}
        flat.update({"raw." + k: v for k, v in r.get("raw", {}).items()})
        print(f"seed {seed}: correct {r['correct']} attempted {r['attempted']} failed {r['failed']} "
              + " ".join(f"{k}={v:.6g}" for k, v in flat.items()), flush=True)
        results.append({
            "seed": seed, "correct": r["correct"], "values": flat,
            "metrics": {k: v["value"] for k, v in r["metrics"].items()}, "raw": r.get("raw"),
        })
    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=1))
    if args.baseline:
        if not all(r["correct"] for r in results):
            sys.exit("not recording a baseline: a run failed its checks")
        write_baseline(args.baseline, args, seconds, results)
    if len(results) < 3:
        return
    print(f"\n{'metric':28} {'median':>14} {'spread':>8} {'bound':>6}")
    for name in results[0]["values"]:
        values = [r["values"][name] for r in results if name in r["values"]]
        s, _, med, _ = spread(values)
        bound = bounds.get(name)
        flag = " !" if bound and name != "setup_s" and s > bound / 3 else ""
        print(f"{name:28} {med:14.6g} {s:8.4f} {bound if bound else '':>6}{flag}")


if __name__ == "__main__":
    main()
