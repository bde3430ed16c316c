#!/usr/bin/env python3
"""Run the benchmark on several seeds per workload and summarise it.

For every workload in BENCHMARK.json this runs the benchmark command
with seeds 1..N, prints each end-to-end metric's median and the spread
between its first and third quartile as a share of the median (the
check a regression gate applies), and with --write stores the result
as perfbench/BASELINE.json. Run it from the repository root:

    python3 perfbench/baseline.py --seeds 10 --write
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run(cfg, workload, seed, trace):
    cmd = cfg["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(cfg["run_seconds"]), "--trace", str(trace),
    ]
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    start = time.time()
    out = subprocess.run(cmd, env=env, capture_output=True, text=True)
    took = time.time() - start
    if out.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {out.returncode}\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    provenance = next(
        (json.loads(l.split(":", 1)[1]) for l in out.stdout.splitlines()
         if l.startswith("provenance:")), {})
    return result, provenance, took


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--workload", action="append",
                    help="only this workload (repeatable)")
    ap.add_argument("--write", action="store_true",
                    help="store the summary as perfbench/BASELINE.json")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        cfg = json.load(f)
    bounds = {m["name"]: m["bound"] for m in cfg["end_to_end"]}
    names = [w["name"] for w in cfg["workloads"]]
    summary = {}
    provenance = {}
    ok = True
    for workload in args.workload or names:
        values = {}
        for seed in range(1, args.seeds + 1):
            result, provenance, took = run(cfg, workload, seed, 0)
            if not result["correct"] or result["failed"]:
                ok = False
            line = " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items())
            print(f"{workload} seed {seed} ({took:.1f} s) correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} {line}", flush=True)
            for k, v in result["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        summary[workload] = {}
        for k, vs in values.items():
            q = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            spread = (q[2] - q[0]) / med if med else float("inf")
            steady = spread <= bounds[k]
            ok &= steady
            print(f"  {k:16s} median {med:.6g}  q1 {q[0]:.6g}  q3 {q[2]:.6g}  "
                  f"spread {spread:.4f} (bound {bounds[k]}){'' if steady else '  TOO WIDE'}")
            summary[workload][k] = {"median": med, "q1": q[0], "q3": q[2],
                                    "spread": spread, "values": vs}
    if args.write:
        doc = {
            "what": "end-to-end metrics, seeds 1..%d per workload, untraced" % args.seeds,
            "git_sha": provenance.get("git_sha", "unknown"),
            "toolchain": provenance.get("toolchain", "unknown"),
            "nproc": provenance.get("nproc"),
            "cpu": cpu_model(),
            "run_seconds": cfg["run_seconds"],
            "date": time.strftime("%Y-%m-%d", time.gmtime()),
            "workloads": summary,
        }
        with open("perfbench/BASELINE.json", "w") as f:
            json.dump(doc, f, indent=1)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
