"""One fresh benchmark process for one workload.

``run.py`` starts this file; it is not meant to be run by hand.  The process
sets up (imports ``hcfam.cli``, builds the seeded inputs, writes the module
documents) and prints ``READY``; the time to that line is ``setup_s``.  Then,
by ``--mode``:

* ``setup``:   print the input digest and stop;
* ``measure``: run passes of the request list with tracing off until
  ``--seconds`` are spent, and report times (also in reference seconds,
  ``clock.py``), failures and peak RSS;
* ``trace``:   run untraced passes for half the time, then traced passes for
  the other half, and report the per-layer metrics.

The last stdout line is one JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"

sys.path.insert(0, str(SRC))

from clock import Calibrator  # noqa: E402
from workloads import FILE, WORKLOADS, Pass, build_pass  # noqa: E402

#: Pass index where traced passes start, so that a traced run of a workload
#: with fresh documents per pass never sees documents of the untraced phase.
TRACED_FIRST_PASS = 1000


def write_files(work: Path, p: Pass) -> None:
    for name, text in p.files.items():
        (work / name).write_text(text)


def resolve(argv, work: Path):
    return [str(work / a[len(FILE):]) if a.startswith(FILE) else a for a in argv]


def run_pass(cli, p: Pass, work: Path, before_request=None):
    """Send every request of the pass, each after the previous one returned.

    Returns (rc, stdout, seconds, exception name) per request.  A request's
    time runs from the call into ``cli.run`` until it returns or raises.
    """
    outcomes = []
    real_stdin = sys.stdin
    for req in p.requests:
        if before_request is not None:
            before_request()
        argv = resolve(req.argv, work)
        out, err = io.StringIO(), io.StringIO()
        if req.stdin_prev:
            sys.stdin = io.StringIO(outcomes[-1][1])
        exc = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            try:
                rc = cli.run(argv)
            except SystemExit as e:
                rc = e.code
            except Exception as e:  # an escaping exception is a failed request
                rc, exc = None, type(e).__name__
            dt = time.perf_counter() - t0
        sys.stdin = real_stdin
        outcomes.append((rc, out.getvalue(), dt, exc))
    return outcomes


def check_pass(p: Pass, outcomes, reference=None):
    """Failure reasons by request index.  ``reference`` holds the outputs and
    failures of an earlier pass with the same requests: an identical output
    keeps that verdict without running the oracle again."""
    failures = {}
    for i, (req, (rc, out, _, exc)) in enumerate(zip(p.requests, outcomes)):
        if reference is not None and (rc, out) == reference[0][i]:
            reason = reference[1].get(i)
        else:
            reason = f"exception {exc}" if exc else req.check(rc, out)
        if reason:
            failures[i] = reason
    return failures


class Phase:
    """Closed-loop passes until the time budget is spent (at least one)."""

    def __init__(self, cli, workload: str, seed: int, tiny: bool, work: Path, first: Pass):
        self.cli, self.workload, self.seed, self.tiny, self.work = cli, workload, seed, tiny, work
        self.first = first
        self.fresh = WORKLOADS[workload].fresh_per_pass
        self.walls, self.request_s, self.pass_sizes = [], [], []
        self.attempted = self.failed = self.unexpected = 0
        self.reasons = []

    def run(self, seconds: float, start_index: int, before_pass=None, after_pass=None,
            before_request=None) -> None:
        """The callbacks run just outside the timed passes and requests."""
        start = time.perf_counter()
        index = start_index
        reference = None
        while True:
            p = self.first
            if self.fresh and index != 0:
                p = build_pass(self.workload, self.seed, index, self.tiny)
                write_files(self.work, p)
            if before_pass is not None:
                before_pass()
            t0 = time.perf_counter()
            outcomes = run_pass(self.cli, p, self.work, before_request)
            wall = time.perf_counter() - t0
            self.walls.append(wall)
            if after_pass is not None:
                after_pass()
            failures = check_pass(p, outcomes, reference)
            if not self.fresh and reference is None:
                reference = ([o[:2] for o in outcomes], failures)
            self.record(p, outcomes, failures)
            index += 1
            if time.perf_counter() - start + wall / 2 > seconds:
                return

    def record(self, p: Pass, outcomes, failures):
        self.request_s += [o[2] for o in outcomes]
        self.pass_sizes.append(len(outcomes))
        self.attempted += len(outcomes)
        self.failed += len(failures)
        for i, reason in failures.items():
            if not p.requests[i].malformed:
                self.unexpected += 1
            if len(self.reasons) < 8:
                self.reasons.append(f"{' '.join(p.requests[i].argv[:2])}: {reason}")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    import hcfam.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"imported hcfam from {cli.__file__}, not from {SRC}")
    work = ROOT / "bench" / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        first = build_pass(args.workload, args.seed, 0, args.tiny)
        write_files(work, first)
        print("READY", flush=True)
        result = {"digest": hashlib.sha256(first.digest_text().encode()).hexdigest()}
        if args.mode == "measure":
            result.update(measure(cli, args, work, first))
        elif args.mode == "trace":
            result.update(trace(cli, args, work, first))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


def summary(phase: Phase) -> dict:
    return {
        "walls": phase.walls,
        "request_s": phase.request_s,
        "attempted": phase.attempted,
        "failed": phase.failed,
        "unexpected": phase.unexpected,
        "reasons": phase.reasons,
    }


def measure(cli, args, work: Path, first: Pass) -> dict:
    cal = Calibrator()
    phase = Phase(cli, args.workload, args.seed, args.tiny, work, first)
    phase.run(args.seconds, 0, before_request=cal.before_request)
    cal.finish()
    out = summary(phase)
    ref = cal.reference(phase.request_s)
    out["ref_request_s"] = ref
    out["ref_walls"] = []
    for size in phase.pass_sizes:
        out["ref_walls"].append(sum(ref[:size]))
        ref = ref[size:]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


def trace(cli, args, work: Path, first: Pass) -> dict:
    from tracing import PER_LAYER, Tracer

    plain = Phase(cli, args.workload, args.seed, args.tiny, work, first)
    plain.run(args.seconds / 2, 0)
    tracer = Tracer()
    per_pass, span_log = [], []

    def collect():
        per_pass.append(tracer.pass_metrics())
        span_log.append(list(tracer.spans))

    traced = Phase(cli, args.workload, args.seed, args.tiny, work, first)
    tracer.install()
    try:
        traced.run(args.seconds / 2, TRACED_FIRST_PASS, before_pass=tracer.reset, after_pass=collect)
    finally:
        tracer.uninstall()
    # Counts come from the first traced pass; times are medians over passes.
    metrics = dict(per_pass[0])
    for name, unit, _ in PER_LAYER:
        if unit == "s":
            metrics[name] = statistics.median(m[name] for m in per_pass)
    metrics.update(tracer.scalar_timings())
    metrics["trace.overhead_ratio"] = statistics.median(traced.walls) / statistics.median(plain.walls)
    OUT.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.json", span_log)
    both = summary(plain)
    for key, value in summary(traced).items():
        both[key] = both[key] + value
    both["layers"] = metrics
    return both


if __name__ == "__main__":
    sys.exit(main())
