#!/usr/bin/env python3
"""Seed-spread check for the repo benchmark.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--out file.json]

Runs perfbench/run.py once per (workload, seed) with tracing off and the
run_seconds from BENCHMARK.json, then prints, per end-to-end metric, the
median and the distance between the first and third quartiles
(statistics.quantiles(values, n=4)) as a share of the median, next to the
metric's bound. Every run must report correct with no failed operation.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results = {}
    ok = True
    for w in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                   "--trace", "0"]
            t0 = time.monotonic()
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, text=True)
            elapsed = time.monotonic() - t0
            lines = out.stdout.strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"{w} seed {seed}: run failed (exit {out.returncode})")
                ok = False
                continue
            res = json.loads(lines[-1])
            if not res["correct"] or res["failed"]:
                print(f"{w} seed {seed}: correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']}")
                ok = False
            for name in bounds:
                values[name].append(res["metrics"][name]["value"])
            print(f"{w} seed {seed} ({elapsed:.0f} s): " + " ".join(
                f"{n}={res['metrics'][n]['value']:.6g}" for n in bounds), flush=True)
        results[w] = values
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else float("inf")
            print(f"  {w:16s} {name:12s} median {med:12.6g}  spread {spread:7.4f}"
                  f"  bound {bounds[name]:.2f}"
                  f"{'  OVER BOUND' if spread > bounds[name] else ''}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(results, f, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
