#!/usr/bin/env python3
"""Repository benchmark: builds perfbench/bench.exe from source, runs one
workload for a fixed wall-clock budget and prints one JSON result line.

    python3 perfbench/run.py --workload crowd --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Every repetition is a fresh process
(perfbench/bench.exe), so the heap and the global registries do not carry
over.  The first repetition also runs the workload's answer oracle; every
later one must reproduce its deterministic metrics byte for byte.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json, from
untraced repetitions only.  Their host times (throughput_rps, setup_s)
are on a reference host: bench.exe times a fixed calibration kernel at
about twenty points of every run and scales each stretch of wall time by
the kernel's speed there (see Probe in perfbench/probe.ml), because the
measuring machine's speed drifts by up to 2x within minutes.  --trace 1
runs the same untraced repetitions, then one traced repetition on the
same seed, and prints the per-layer metrics of that traced run alone.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "perfbench", "out")
BENCH = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")
WORKLOADS = ("crowd", "hotspot", "query")
# Hard cap on the measuring part of one invocation (after the build) is
# --seconds plus this margin: repetitions stop being started past
# --seconds, and the margin covers the one running then, the set-up
# samples and the traced repetition.  No child may outlive the cap.
DEADLINE_MARGIN_S = 135.0
# The first build in a fresh checkout compiles the whole tree.
BUILD_TIMEOUT_S = 880.0
# Setup-only processes added to every run, so setup_s is a median over
# at least this many set-ups even when few repetitions fit.
SETUP_SAMPLES = 12


class BenchError(Exception):
    pass


def env():
    # Everything the build and the runs write stays in the checkout.
    e = dict(os.environ)
    e["DUNE_CACHE"] = "disabled"
    e["XDG_CACHE_HOME"] = os.path.join(OUT, "cache")
    e["TMPDIR"] = os.path.join(OUT, "tmp")
    e["OCAML_RUNTIME_EVENTS_DIR"] = OUT
    e.pop("OCAMLRUNPARAM", None)
    return e


def build(timeout):
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ".", "perfbench/bench.exe"],
            cwd=ROOT, env=env(), capture_output=True, text=True, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as exc:
        raise BenchError(f"build failed: {exc}")
    if proc.returncode != 0 or not os.path.exists(BENCH):
        raise BenchError("build failed:\n" + proc.stdout + proc.stderr)


def bench(args, timeout):
    try:
        proc = subprocess.run([BENCH] + args, cwd=ROOT, env=env(),
                              capture_output=True, text=True,
                              timeout=max(1.0, timeout))
    except subprocess.TimeoutExpired:
        raise BenchError(f"bench.exe {' '.join(args)} timed out")
    if proc.returncode != 0:
        raise BenchError(f"bench.exe {' '.join(args)} exited {proc.returncode}:\n"
                         + proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"bench.exe {' '.join(args)} printed nothing")
    return json.loads(lines[-1])


def declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def raw_throughput(rep):
    return rep["deterministic"]["attempted"] / rep["run_s"]


def throughput(rep):
    return rep["deterministic"]["attempted"] / rep["run_ref_s"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    e2e_units, layer_units = declared_metrics()
    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    build(timeout=BUILD_TIMEOUT_S)
    t_start = time.monotonic()
    deadline = a.seconds + DEADLINE_MARGIN_S
    left = lambda: deadline - (time.monotonic() - t_start)

    base = ["--workload", a.workload, "--seed", str(a.seed)]
    # The oracle repetition is timed like the others; its answer check
    # runs after the timed region.
    reps = [bench(base + ["--oracle"], left())]
    while time.monotonic() - t_start < a.seconds:
        reps.append(bench(base, left()))
    setups = [r["setup_ref_s"] for r in reps]
    while len(setups) < SETUP_SAMPLES:
        setups.append(bench(base + ["--setup-only"], left())["setup_ref_s"])
    traced = None
    if a.trace:
        spans = os.path.join(OUT, f"spans-{a.workload}-{a.seed}.jsonl")
        traced = bench(base + ["--trace", "--spans-out", spans], left())

    first = reps[0]
    det = first["deterministic"]
    problems = []
    if not first["oracle"]:
        problems.append("oracle did not run")
    for i, r in enumerate(reps[1:] + ([traced] if traced else []), start=1):
        if r["deterministic"] != det:
            diff = sorted(k for k in det if r["deterministic"].get(k) != det[k])
            problems.append(f"repetition {i} differs from the first in {diff}")
    attempted = sum(r["deterministic"]["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    if failed:
        problems.append(f"{failed} of {attempted} requests failed")
    if traced and not traced["attribution_sane"]:
        problems.append("attributed self times exceed the run time")

    rps = [throughput(r) for r in reps]
    rps_median = statistics.median(rps)
    print(f"workload={a.workload} seed={a.seed} repetitions={len(reps)} "
          f"setups={len(setups)} clock={first['clock']!r} gc={first['gc']!r}")
    print(f"requests/repetition={det['attempted']} "
          f"latency_samples={det['latency_samples']} "
          f"throughput_rps min/median/max="
          f"{min(rps):.1f}/{rps_median:.1f}/{max(rps):.1f} "
          f"unscaled median={statistics.median(raw_throughput(r) for r in reps):.1f}")

    if a.trace:
        layers = dict(traced["layers"])
        layers["obs.trace_overhead"] = rps_median / throughput(traced)
        print(f"traced throughput is {100 * (1 - throughput(traced) / rps_median):.1f}% "
              f"below the untraced median; unattributed_s={layers['unattributed_s']:.4f}; "
              f"gc events lost={traced['gc_events_lost']}")
        values, units = layers, layer_units
    else:
        values = {
            "setup_s": statistics.median(setups),
            "throughput_rps": rps_median,
            "latency_p50_vms": det["latency_p50_vms"],
            "latency_p99_vms": det["latency_p99_vms"],
            "completion_vms": det["completion_vms"],
            "bytes_per_req": det["bytes"] / det["attempted"],
            "ok_frac": (attempted - failed) / attempted,
            "peak_heap_mb": statistics.median(r["peak_heap_mb"] for r in reps),
        }
        units = e2e_units
    missing = sorted(n for n in units if values.get(n) is None)
    if missing:
        problems.append(f"metrics not produced: {missing}")
    for p in problems:
        print("FAIL: " + p, file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": float(values[n]), "unit": u}
                    for n, u in units.items() if values.get(n) is not None},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
