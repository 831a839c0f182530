#!/usr/bin/env python3
"""Repo benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the perfbench binary from source into
.bench_build/perfbench (CMake, Release), runs one workload, checks the run's
deterministic digest against perfbench/golden.json when the seed is recorded
there, and prints as its last stdout line one JSON object with the keys
correct, attempted, failed and metrics. Build and progress output go to
stderr. Exits non-zero, printing no result, when the build or the run fails.

    python3 perfbench/run.py --record-golden

re-records golden.json (the default and held-out seeds of every workload,
from manifest.json). Only a change that deliberately alters simulated
behaviour does this, and it says so.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
GOLDEN = os.path.join(HERE, "golden.json")
MANIFEST = os.path.join(HERE, "manifest.json")
RUN_TIMEOUT_S = 170

# Digest keys pinned per (workload, seed): the answer, the simulated clock
# and the work counts every layer reports. A change meant only to speed up
# the simulator must leave all of them identical.
GOLDEN_KEYS = [
    "virtual_s", "oracle_err", "sim.events", "net.flows", "net.rate_updates",
    "net.bytes", "serde.batches", "serde.records", "async.worker_iters",
    "async.restarts", "async.token_circuits", "mr.global_iters",
    "core.local_iters", "apps.ops",
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    os.makedirs(BUILD_DIR, exist_ok=True)
    with open(os.path.join(BUILD_DIR, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
            subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                            "-DCMAKE_BUILD_TYPE=Release"],
                           check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", BUILD_DIR, "-j4"],
                       check=True, stdout=sys.stderr)
    return os.path.join(BUILD_DIR, "perfbench")


def run_binary(binary, workload, seed, seconds, trace):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        trace_dir = os.path.join(BUILD_DIR, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        cmd += ["--trace-out", os.path.join(trace_dir, f"{workload}-{seed}.json")]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                          check=True, text=True)
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if not lines:
        raise RuntimeError("perfbench printed no result")
    return json.loads(lines[-1])


def load_json(path):
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        return json.load(f)


def golden_misses(workload, seed, digest):
    want = load_json(GOLDEN).get(workload, {}).get(str(seed))
    if want is None:
        return []
    return [f"{k}: golden {v!r}, got {digest.get(k)!r}"
            for k, v in want.items() if digest.get(k) != v]


def record_golden(binary):
    manifest = load_json(MANIFEST)
    seeds = [manifest["default_seed"], manifest["held_out_seed"]]
    golden = {}
    for w in manifest["workloads"]:
        golden[w] = {}
        for s in seeds:
            res = run_binary(binary, w, s, 1, 0)
            if not res["correct"]:
                raise RuntimeError(f"{w} seed {s} fails its gate; not recording")
            golden[w][str(s)] = {k: res["digest"][k] for k in GOLDEN_KEYS
                                 if k in res["digest"]}
            log(f"recorded {w} seed {s}")
    with open(GOLDEN, "w") as f:
        json.dump(golden, f, indent=2, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args()
    if not args.record_golden and not args.workload:
        ap.error("--workload is required")

    try:
        binary = build()
        if args.record_golden:
            record_golden(binary)
            return 0
        res = run_binary(binary, args.workload, args.seed, args.seconds,
                         args.trace)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            RuntimeError, ValueError, OSError) as e:
        log(f"perfbench: {e}")
        return 1

    misses = golden_misses(args.workload, args.seed, res["digest"])
    for m in misses:
        log(f"[perfbench] FAIL: digest differs from golden.json at {m}")
    failed = res["attempted"] if misses else res["failed"]
    print(json.dumps({
        "correct": res["correct"] and not misses,
        "attempted": res["attempted"],
        "failed": failed,
        "metrics": res["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
