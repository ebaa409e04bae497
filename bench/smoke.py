"""Smoke test of the benchmark itself (not part of the tier-1 test run).

Runs every workload at a tiny size, untraced once and traced twice at one
seed, and fails unless

* every end-to-end and per-layer metric of ``BENCHMARK.json`` is reported,
* every response matched its expectation (malformed requests aside),
* the exact counts of the two traced runs are identical, and
* in a directory holding only ``BENCHMARK.json`` and ``bench/``, the
  benchmark exits non-zero without printing a result.

Usage, from the root of a checkout::

    python3 bench/smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import WORKLOAD_NAMES  # noqa: E402
from tracing import is_exact_count  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def result(workload: str, trace: int) -> dict:
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny")
    if proc.returncode != 0:
        raise SystemExit(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in WORKLOAD_NAMES:
        untraced = result(workload, 0)
        first, second = result(workload, 1), result(workload, 1)
        for res, key in ((untraced, "end_to_end"), (first, "per_layer")):
            missing = [m["name"] for m in spec[key] if m["name"] not in res["metrics"]]
            if missing:
                problems.append(f"{workload}: {key} metrics missing: {missing}")
            if not res["correct"]:
                problems.append(f"{workload}: a response did not match its expectation")
        for name, value in first["metrics"].items():
            if is_exact_count(name) and value != second["metrics"][name]:
                problems.append(f"{workload}: {name} differs between two traced runs: "
                                f"{value['value']} vs {second['metrics'][name]['value']}")
        print(f"{workload}: ok" if not problems else f"{workload}: {len(problems)} problems so far", flush=True)

    bare = HERE / ".work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "bench", ignore=shutil.ignore_patterns(".work", "out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench("--workload", WORKLOAD_NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append("without the sources the benchmark must fail and print no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print(p, file=sys.stderr)
    print("smoke test passed" if not problems else "smoke test FAILED")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
