#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarises each metric.

    python3 perfbench/baseline.py                      # every workload, seeds 1-10
    python3 perfbench/baseline.py --workload dashboard --seeds 1,2,3
    python3 perfbench/baseline.py --write perfbench/BASELINE.json

For every workload and metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, the distance
between the quartiles as a share of the median. With --write it records
them, with the machine they were measured on, as the baseline point: the
end-to-end section with --trace 0, the per-layer one with --trace 1; other
keys of the file are kept.
Run it from the root of the checkout.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

WORKLOADS = ["adhoc-scan", "shuffle-join", "dashboard", "local-join"]

# No setting of the benchmark was tuned on this seed: a change that claims
# a gain re-checks it here.
HELD_OUT_SEED = 1009


def run(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.time()
    p = subprocess.run(cmd, capture_output=True, text=True)
    elapsed = time.time() - start
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} failed ({p.returncode}):\n{p.stderr[-2000:]}")
    res = json.loads(lines[-1])
    print(f"{workload} seed {seed}: {elapsed:.1f} s, correct={res['correct']} "
          f"attempted={res['attempted']} failed={res['failed']}", file=sys.stderr)
    if not res["correct"] or res["failed"]:
        sys.exit(f"{workload} seed {seed} has failures:\n{p.stderr[-2000:]}")
    return res


def summarise(results):
    out = {}
    for name in sorted(results[0]["metrics"]):
        values = [r["metrics"][name]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "values": values,
            "median": median,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / median if median else None,
        }
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", choices=WORKLOADS)
    ap.add_argument("--seeds", default=",".join(str(s) for s in range(1, 11)))
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--write", help="record the summary as the baseline point in this file")
    args = ap.parse_args()
    seeds = [int(s) for s in args.seeds.split(",")]
    summary = {}
    for w in args.workload or WORKLOADS:
        summary[w] = summarise([run(w, s, args.seconds, args.trace) for s in seeds])
        for name, m in summary[w].items():
            spread = "n/a" if m["spread"] is None else f"{m['spread']:.4f}"
            print(f"{w:13s} {name:45s} {m['median']:<14.6g} {m['unit']:9s} spread {spread}")
    if args.write:
        point = {}
        if os.path.exists(args.write):
            with open(args.write) as f:
                point = json.load(f)
        point["held_out_seed"] = HELD_OUT_SEED
        go = subprocess.run(["go", "version"], capture_output=True, text=True).stdout.strip()
        section = point.setdefault("per_layer" if args.trace else "end_to_end", {})
        section.update({
            "seeds": seeds,
            "seconds": args.seconds,
            "num_cpu": os.cpu_count(),
            "gomaxprocs": int(os.environ.get("GOMAXPROCS", os.cpu_count())),
            "go_version": go,
            "machine": platform.machine(),
        })
        section.setdefault("workloads", {}).update(summary)
        with open(args.write, "w") as f:
            json.dump(point, f, indent=2)
            f.write("\n")


if __name__ == "__main__":
    main()
