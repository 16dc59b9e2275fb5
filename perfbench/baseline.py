#!/usr/bin/env python3
"""Records a baseline: every workload in BENCHMARK.json, untraced on seeds
1..N, then one traced run per workload.

    python3 perfbench/baseline.py --runs 10 --rev <commit> --out perfbench/baseline.json

Run it from the repository root. For each end-to-end metric it writes the
median, the quartiles (Python's statistics.quantiles(values, n=4)), the
spread (interquartile range over median) and the values. It does the same
for each run's unscaled median operation time and median calibration-sweep
time, which the benchmark prints on standard error. From the traced run it
keeps the per-layer metrics and the per-algorithm breakdown from the
span log, such as each algorithm's planned P and block counts.
"""

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: outputs failed verification\n{out.stderr}")
    host = re.search(r"unscaled op median ([0-9.e-]+) s, calibration median ([0-9.e-]+) s", out.stderr)
    result["unscaled_op_p50_s"], result["calibration_s"] = map(float, host.groups())
    return result


def summary(values, unit):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "unit": unit,
        "median": med,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / med,
        "values": values,
    }


def per_algorithm(workload, seed):
    path = os.path.join(ROOT, "perfbench", "out", f"spans-{workload}-seed{seed}.jsonl")
    with open(path) as f:
        summary = json.loads(f.read().splitlines()[-1])["summary"]
    algs = {}
    for key, value in summary.items():
        name, _, alg = key.rpartition(".")
        if alg in ("pr", "spmv", "bfs", "sssp", "cc"):
            algs.setdefault(alg, {})[name] = value
    return algs


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--rev", required=True, help="commit the numbers belong to")
    ap.add_argument("--out", default=os.path.join("perfbench", "baseline.json"))
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    record = {
        "rev": args.rev,
        "host": {"machine": platform.machine(), "cpus": os.cpu_count()},
        "run_seconds": bench["run_seconds"],
        "seeds": list(range(1, args.runs + 1)),
        "workloads": {},
    }
    for w in bench["workloads"]:
        name = w["name"]
        results = [run(bench, name, seed, 0) for seed in record["seeds"]]
        e2e = {
            metric: summary([r["metrics"][metric]["value"] for r in results], unit)
            for metric, unit in units.items()
        }
        traced = run(bench, name, 1, 1)
        record["workloads"][name] = {
            "why": w["why"],
            "attempted": [r["attempted"] for r in results],
            "failed": [r["failed"] for r in results],
            "end_to_end": e2e,
            "unscaled_op_p50_s": summary([r["unscaled_op_p50_s"] for r in results], "s"),
            "calibration_s": summary([r["calibration_s"] for r in results], "s"),
            "per_layer_seed1": {k: v["value"] for k, v in traced["metrics"].items()},
            "per_algorithm_seed1": per_algorithm(name, 1),
        }
        print(f"{name}: done", file=sys.stderr)
    with open(os.path.join(ROOT, args.out), "w") as f:
        json.dump(record, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
