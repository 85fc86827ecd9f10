#!/usr/bin/env python3
"""Measure the benchmark's baseline and write perfbench/BASELINE.json.

Run from the repository root:

    python3 perfbench/baseline.py --seeds 1-10

For every workload in BENCHMARK.json it makes one untraced run per seed
and reports each end-to-end metric's median and quartiles, plus the
quartile spread as a share of the median next to the metric's bound. It
then makes one traced run per workload for the per-layer figures and
the tracing overhead, and one profiled traced bulk run that checks the
outside-in cc.self_frac against the share a runtime/pprof CPU profile
attributes to hvc/internal/cc. Use --workloads and --no-write to
re-check a subset without touching BASELINE.json.
"""
import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import run  # noqa: E402  (the build wrapper beside this file)

CC_PACKAGE = "hvc/internal/cc."
CROSSCHECK_POINTS = 0.10


def bench(args, workload, seed, trace, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(trace), *extra]
    p = subprocess.run(cmd, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)}: exit {p.returncode}\n{p.stderr}")
    res = json.loads(lines[-1])
    if not res["correct"] or res["failed"]:
        sys.exit(f"{' '.join(cmd)}: incorrect output\n{p.stderr}")
    return res


def summarize(vals):
    q1, _, q3 = statistics.quantiles(vals, n=4)
    med = statistics.median(vals)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "n": len(vals)}


# pprof -traces prints each sample stack as a block: a value such as
# "10ms" or "1.20s" before the leaf frame, callers on the lines below.
UNIT_S = {"ns": 1e-9, "us": 1e-6, "µs": 1e-6, "ms": 1e-3, "s": 1.0,
          "m": 60.0, "h": 3600.0}
VALUE = re.compile(r"^\s*([0-9.]+)(ns|us|µs|ms|s|m|h)\s+(\S.*)$")


def pprof_share(binary, profile, prefix):
    """Share of profiled CPU time whose stack holds a frame in prefix."""
    env = run.build_env(os.path.dirname(binary))
    p = subprocess.run(["go", "tool", "pprof", "-traces", binary, profile],
                       cwd=HERE, env=env, capture_output=True, text=True)
    if p.returncode != 0:
        sys.exit(f"go tool pprof: {p.stderr}")
    total = hit = 0.0
    value, frames = None, []

    def flush():
        nonlocal total, hit
        if value is not None:
            total += value
            if any(f.startswith(prefix) for f in frames):
                hit += value

    for line in p.stdout.splitlines():
        if line.startswith("-----------+"):
            flush()
            value, frames = None, []
            continue
        m = VALUE.match(line)
        if m and value is None:
            value = float(m.group(1)) * UNIT_S[m.group(2)]
            frames.append(m.group(3).strip())
        elif value is not None and line.strip():
            frames.append(line.strip())
    flush()
    return hit / total


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", default="1-10", help="seed range LO-HI for the untraced runs")
    ap.add_argument("--seconds", type=int, help="run length; default: BENCHMARK.json run_seconds")
    ap.add_argument("--workloads", help="comma-separated subset; default: all")
    ap.add_argument("--no-write", action="store_true", help="print the summary only")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    args.seconds = args.seconds or spec["run_seconds"]
    lo, hi = (int(x) for x in args.seeds.split("-"))
    seeds = list(range(lo, hi + 1))
    chosen = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    out = {
        "schema": "hvc-perfbench-baseline/v1",
        "host": {
            "nproc": os.cpu_count(),
            "go": subprocess.run(["go", "version"], capture_output=True, text=True).stdout.strip(),
            "machine": platform.machine(),
        },
        "protocol": {"run_seconds": args.seconds, "seeds": seeds,
                     "command": spec["command"] + ["--workload", "W", "--seed", "N",
                                                   "--seconds", str(args.seconds), "--trace", "0|1"]},
        "workloads": {},
    }
    whys = {w["name"]: w["why"] for w in spec["workloads"]}
    for w in chosen:
        vals = {}
        for seed in seeds:
            res = bench(args, w, seed, 0)
            for name, m in res["metrics"].items():
                vals.setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + " ".join(f"{k}={v[-1]:.4g}" for k, v in sorted(vals.items())),
                  file=sys.stderr)
        e2e = {}
        for name, v in sorted(vals.items()):
            s = summarize(v)
            s["bound"] = bounds[name]
            e2e[name] = s
            flag = "" if s["spread"] < bounds[name] / 3 else "  <-- spread >= bound/3"
            print(f"{w:6} {name:12} median={s['median']:.5g} spread={s['spread']:.4f} "
                  f"bound={bounds[name]}{flag}", file=sys.stderr)
        traced = bench(args, w, seeds[0], 1)["metrics"]
        out["workloads"][w] = {
            "why": whys[w],
            "end_to_end": e2e,
            "tracing_overhead_frac": traced["tracing.overhead_frac"]["value"],
            "per_layer": {k: v["value"] for k, v in sorted(traced.items())},
        }

    if "bulk" in chosen:
        build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
        profile = os.path.join(build, "bulk.pprof")
        res = bench(args, "bulk", seeds[0], 1, ["--cpuprofile", profile])
        self_frac = res["metrics"]["cc.self_frac"]["value"]
        share = pprof_share(os.path.join(build, "perfbench"), profile, CC_PACKAGE)
        out["pprof_crosscheck"] = {
            "workload": "bulk", "seed": seeds[0],
            "cc_self_frac": self_frac, "pprof_cc_share": share,
            "tolerance": CROSSCHECK_POINTS, "holds": abs(self_frac - share) <= CROSSCHECK_POINTS,
        }
        print(f"cross-check: cc.self_frac={self_frac:.4f} pprof share={share:.4f}", file=sys.stderr)

    text = json.dumps(out, indent=2, sort_keys=True)
    if args.no_write:
        print(text)
    else:
        with open(os.path.join(HERE, "BASELINE.json"), "w") as f:
            f.write(text + "\n")


if __name__ == "__main__":
    main()
