#!/usr/bin/env python3
"""Measure the benchmark's baseline and write perfbench/baseline.json.

    python3 perfbench/baseline.py

For every workload: RUNS untraced runs of perfbench/run.py of
BENCHMARK.json's run_seconds each, each on another seed, give the end-to-end medians and quartiles and each
metric's spread (interquartile range over median, Python's
statistics.quantiles(values, n=4)) against its bound in BENCHMARK.json;
one traced run on the default seed gives the per-layer readings.  The
notes and layer predictions of the previous baseline.json are kept.
"""

import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "perfbench", "baseline.json")
DEFAULT_SEED = 1
HELD_OUT_SEED = 4242
RUNS = 10


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"{workload} seed {seed} trace {trace} failed:\n{proc.stderr}")
    for line in lines[:-1]:
        print(f"  {line}", flush=True)
    return json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    kept = {}
    if os.path.exists(OUT):
        with open(OUT) as f:
            previous = json.load(f)
        kept = {k: previous[k] for k in ("notes", "predictions") if k in previous}
    seeds = [DEFAULT_SEED + i for i in range(RUNS)]
    workloads = {}
    for w in spec["workloads"]:
        name = w["name"]
        values = {}
        for seed in seeds:
            print(f"{name} seed {seed}", flush=True)
            for k, v in run(name, seed, seconds, 0)["metrics"].items():
                values.setdefault(k, []).append(v["value"])
        e2e = {}
        for k, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            med = statistics.median(vs)
            spread = (q3 - q1) / med if med else 0.0
            e2e[k] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                      "bound": bounds[k], "values": vs}
            flag = "" if k == "setup_s" or spread <= bounds[k] / 3 else "  <-- above bound/3"
            print(f"  {k:18s} median {med:.6g} spread {spread:.4f} bound {bounds[k]}{flag}",
                  flush=True)
        print(f"{name} traced, seed {DEFAULT_SEED}", flush=True)
        traced = run(name, DEFAULT_SEED, seconds, 1)["metrics"]
        workloads[name] = {
            "end_to_end": e2e,
            "per_layer": {k: v["value"] for k, v in traced.items()},
        }
    with open(OUT, "w") as f:
        json.dump({"default_seed": DEFAULT_SEED, "held_out_seed": HELD_OUT_SEED,
                   "seeds": seeds, "run_seconds": seconds, "workloads": workloads,
                   **kept}, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
