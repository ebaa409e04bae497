"""Benchmark of the ``hcfam`` command line, driven in-process through
``hcfam.cli.run(argv)``.

Usage (from the root of a checkout)::

    python3 bench/run.py --workload module_reads --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Load shape: one process, one thread, a closed loop with one client; each
request is sent when the previous one returned.  Inputs are generated from
``--seed`` and the program sees only the generated argv and JSON documents.
Every response is checked against an expectation the benchmark computes
itself (see ``workloads.py``).

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
Times are in reference seconds: each measured time is scaled by calibration
loops timed around it (``clock.py``), so that a shared host's drifting speed
does not read as a change of the program.  The measured seconds are printed
beside them.

* ``setup_s``: fresh interpreter to first request ready (import
  ``hcfam.cli``, build the seeded inputs, write the documents); the median
  over several fresh processes;
* ``wall_s``: median over passes of the time the workload's fixed request
  list spends in ``cli.run``;
* ``peak_rss_mb``: ``ru_maxrss`` of a fresh process that ran only this
  workload.

The lines before the result also give ``req_p50_ms`` (median time per
request, from the call into ``cli.run`` until it returns), ``req_p90_ms``
(only where a run has at least 100 requests, so that ten lie beyond it) and
``fail_ratio``, each with its sample count.  They are not in the result:
``fail_ratio`` is 0 on three workloads, and pencil_sweep's median request
falls between clusters of requests whose times differ a hundredfold, so it
moved by up to a quarter between seeds.

``--trace 1`` runs a separate process that records spans around every
public ``hcfam`` function (``tracing.py``) and reports the per-layer
metrics, in measured (unscaled) seconds; the spans are written to
``bench/out/``.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The exit code is non-zero, and no result is
printed, when the checkout has no ``src/hcfam`` or a benchmark process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from clock import Calibrator
from tracing import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOAD_NAMES = ["verify_full", "module_reads", "module_writes", "pencil_sweep"]
E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}

#: Fresh interpreters whose set-up time is measured per run.
SETUP_PROBES = 7
#: Every process of one run must end within this many seconds.
DEADLINE_S = 170


class BenchError(Exception):
    pass


def spawn(args, deadline: float):
    """Run a worker; returns (seconds until its READY line, its result)."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {' '.join(args)} ran past the deadline")
    if proc.returncode != 0 or ready.strip() != "READY":
        raise BenchError(f"worker {' '.join(args)} failed (exit {proc.returncode}): {err.strip()[-2000:]}")
    return setup, json.loads(out.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One run: the result fields, the gated metrics, and report lines."""
    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    if tiny:
        common.append("--tiny")
    lines = [f"workload {workload}, seed {seed}, {'traced' if trace else 'untraced'}"]
    info = {}
    if trace:
        _, res = spawn([*common, "--mode", "trace"], deadline)
        digests = {res["digest"]}
        metrics = {name: res["layers"][name] for name, _, _ in PER_LAYER}
        lines.append(f"trace.overhead_ratio = {metrics['trace.overhead_ratio']:.3f} (1); "
                     f"spans in bench/out/spans-{workload}-seed{seed}.json")
    else:
        setups, digests, cal = [], set(), Calibrator(every_s=0)
        for _ in range(SETUP_PROBES):
            cal.before_request()
            setup, probe = spawn([*common, "--mode", "setup"], deadline)
            setups.append(setup)
            digests.add(probe["digest"])
        cal.finish()
        _, res = spawn([*common, "--mode", "measure"], deadline)
        digests.add(res["digest"])
        n, passes = len(res["request_s"]), len(res["walls"])
        per_pass = n // passes
        req_ms = sorted(1000 * t for t in res["ref_request_s"])
        metrics = {
            "setup_s": statistics.median(cal.reference(setups)),
            "wall_s": statistics.median(res["ref_walls"]),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        info["requests"] = n
        info["req_p50_ms"] = statistics.median(req_ms)
        lines += [
            f"setup_s = {metrics['setup_s']:.4f} s (median of {SETUP_PROBES} fresh interpreters; "
            f"{statistics.median(setups):.4f} s measured)",
            f"wall_s = {metrics['wall_s']:.4f} s (median of {passes} passes of {per_pass} requests; "
            f"pass wall clock {statistics.median(res['walls']):.4f} s measured)",
            f"req_p50_ms = {info['req_p50_ms']:.4f} ms (n = {n})",
            f"peak_rss_mb = {metrics['peak_rss_mb']:.3f} MB",
        ]
        # The 90th percentile needs at least ten samples beyond it.
        if n >= 100:
            info["req_p90_ms"] = statistics.quantiles(req_ms, n=10)[-1]
            beyond = sum(x > info["req_p90_ms"] for x in req_ms)
            lines.append(f"req_p90_ms = {info['req_p90_ms']:.4f} ms (n = {n}, {beyond} beyond)")
        else:
            lines.append(f"req_p90_ms not reported: n = {n} < 100")
    info["fail_ratio"] = res["failed"] / res["attempted"]
    lines.append(f"fail_ratio = {res['failed']}/{res['attempted']} = {info['fail_ratio']:.4f} (1); "
                 f"{res['unexpected']} of the failures are not seeded malformed requests")
    lines += [f"  failed: {r}" for r in res["reasons"]]
    if len(digests) != 1:
        lines.append("the processes of one seed generated different inputs")
    return {
        "correct": res["unexpected"] == 0 and len(digests) == 1,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
        "info": info,
        "lines": lines,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true", help="small request lists (for the smoke test)")
    args = ap.parse_args()
    if not (ROOT / "src" / "hcfam" / "cli.py").is_file():
        print(f"no hcfam sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    units = {n: u for n, u, _ in PER_LAYER} if args.trace else E2E_UNITS
    names = WORKLOAD_NAMES if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            run = run_workload(name, args.seed, args.seconds, bool(args.trace), args.tiny)
            print("\n".join(run["lines"]), flush=True)
            results[name] = {
                "correct": run["correct"],
                "attempted": run["attempted"],
                "failed": run["failed"],
                "metrics": {m: {"value": v, "unit": units[m]} for m, v in run["metrics"].items()},
            }
    except BenchError as e:
        print(e, file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
