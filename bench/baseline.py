"""Record the benchmark's numbers for the code in this checkout.

Runs every workload untraced once per seed and traced once, then writes
``bench/BASELINE.json``: for each workload the median, quartiles and spread
(interquartile range over median) of every end-to-end metric and of the
request metrics printed beside them, the failure counts, and the per-layer
metrics of the traced run, with the Python version, CPU and commit.

Usage, from the root of a checkout::

    python3 bench/baseline.py --runs 10 --first-seed 100
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

from run import ROOT, WORKLOAD_NAMES, BenchError, run_workload

OUT = Path(__file__).resolve().parent / "BASELINE.json"


def describe(values) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0, "values": values}


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, action="append")
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    report = {
        "commit": commit(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "run_seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    try:
        for workload in args.workload or WORKLOAD_NAMES:
            runs = []
            for seed in seeds:
                runs.append(run_workload(workload, seed, seconds, trace=False))
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{k} {v:.4f}" for k, v in runs[-1]["metrics"].items()), flush=True)
            traced = run_workload(workload, seeds[0], seconds, trace=True)
            entry = {
                "why": why[workload],
                "correct": all(r["correct"] for r in runs) and traced["correct"],
                "attempted": sum(r["attempted"] for r in runs),
                "failed": sum(r["failed"] for r in runs),
                "end_to_end": {m: describe([r["metrics"][m] for r in runs]) for m in runs[0]["metrics"]},
                "request_metrics": {
                    m: describe([r["info"][m] for r in runs])
                    for m in runs[0]["info"] if all(m in r["info"] for r in runs)
                },
                "per_layer_seed": seeds[0],
                "per_layer": traced["metrics"],
            }
            report["workloads"][workload] = entry
            for m, d in entry["end_to_end"].items():
                print(f"{workload} {m}: median {d['median']:.4f}, spread {d['spread']:.4f}", flush=True)
    except BenchError as e:
        print(e, file=sys.stderr)
        return 1
    OUT.write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
