"""Span recorder for the traced run, installed from outside the library.

Every public function of every ``hcfam`` module is rebound to a wrapper that
records a span (name, start, end, parent span, request id).  The wrapper is
also rebound on each module that imported the function by name, and inside
module-level lists of functions (the acceptance criteria), so calls between
modules are seen without touching ``src/``.  The scalar constructors,
``LaurentPoly.gcd_ordinary``, ``HCModuleFamily.transition_polys`` and
``linalg._rref`` only count.  Spans stay in memory until the run ends.

Nothing here is active unless :meth:`Tracer.install` was called, and the
end-to-end metrics are never measured while it is.
"""

from __future__ import annotations

import importlib
import inspect
import json
import statistics
import time
from collections import Counter
from typing import Dict, List

LAYERS = ["scalars", "linalg", "liefam", "sl2fam", "hcmod", "classify", "grassfam", "acceptance", "cli"]
FIELDS = {"GaussianRational": "qi", "Fraction": "q", "RationalFunction": "rf"}

HCMOD_TIMED = ["reducible_locus", "fiber_irreducible", "fiber_module", "iso_check", "swap_transitions", "picard_twist"]
CLASSIFY = ["construct", "uniqueness_probe", "admissible_casimir"]
LIEFAM = ["jacobi_check", "check_morphism", "base_change", "glue_consistent", "fiber_invariants"]
LINALG = ["solve", "in_span", "kernel", "span_rank"]
GRASSFAM = ["verify_subalgebra", "limit_subspace", "fiber_group_closure_check", "real_form_at"]
ACTING = ["casimir_acting_function", "casimir_acting_function_reordered"]


def _metric_specs():
    """(name, unit, better) of every per-layer metric, in report order."""
    out = [
        ("hcmod.validate.calls", "count", "lower"),
        ("hcmod.validate.s", "s", "lower"),
        ("hcmod.validate.transitions", "count", "lower"),
        ("hcmod.validate.distinct_ratio", "1", "higher"),
    ]
    out += [(f"hcmod.{f}.s", "s", "lower") for f in HCMOD_TIMED]
    out.append(("hcmod.transition_polys.calls", "count", "lower"))
    for f in CLASSIFY:
        out += [(f"classify.{f}.calls", "count", "lower"), (f"classify.{f}.s", "s", "lower")]
    out += [("sl2fam.casimir_acting_function.calls", "count", "lower"),
            ("sl2fam.casimir_acting_function.s", "s", "lower")]
    out += [(f"liefam.{f}.s", "s", "lower") for f in LIEFAM]
    for f in LINALG:
        for fld in FIELDS.values():
            out += [(f"linalg.{f}.{fld}.calls", "count", "lower"), (f"linalg.{f}.{fld}.s", "s", "lower")]
    out += [(f"linalg.cells.{fld}", "count", "lower") for fld in FIELDS.values()]
    out.append(("linalg.same_span_ratio", "1", "lower"))
    out += [(f"grassfam.{f}.s", "s", "lower") for f in GRASSFAM]
    out += [("grassfam.pair_bracket.calls", "count", "lower"), ("grassfam.pair_bracket.s", "s", "lower"),
            ("grassfam.self_s", "s", "lower")]
    out += [("scalars.qi_new", "count", "lower"), ("scalars.lp_new", "count", "lower"),
            ("scalars.rf_new", "count", "lower"), ("scalars.rf_gcd_calls", "count", "lower"),
            ("scalars.rf_trivial_den_ratio", "1", "higher"),
            ("scalars.qi_mul_ns", "ns", "lower"), ("scalars.lp_mul_us", "us", "lower"),
            ("scalars.lp_gcd_us", "us", "lower"), ("scalars.rf_new_us", "us", "lower")]
    out += [("cli.requests", "count", "higher"), ("cli.self_s", "s", "lower"),
            ("cli.load_module.s", "s", "lower"), ("cli.emit.s", "s", "lower")]
    out += [(f"acceptance.criterion_{k}.s", "s", "lower") for k in range(1, 12)]
    out.append(("trace.overhead_ratio", "1", "lower"))
    return out


PER_LAYER = _metric_specs()


def is_exact_count(name: str) -> bool:
    """Metrics that must repeat exactly across two traced runs of one seed."""
    unit = {n: u for n, u, _ in PER_LAYER}[name]
    return unit == "count" or (unit == "1" and name != "trace.overhead_ratio")


def _field(x) -> str:
    return FIELDS.get(type(x).__name__, "other")


class Sampler:
    """Evenly spaced samples of a stream of unknown length: keeps at most
    ``2 * keep`` items, halving them and doubling the stride when full."""

    def __init__(self, keep: int = 32):
        self.keep = keep
        self.stride = 1
        self.items: list = []

    def add(self, item) -> None:
        self.items.append(item)
        if len(self.items) == 2 * self.keep:
            self.items = self.items[::2]
            self.stride *= 2


class Tracer:
    def __init__(self):
        self.modules = {name: importlib.import_module(f"hcfam.{name}") for name in LAYERS}
        self.names: List[str] = []
        self.name_ids: Dict[str, int] = {}
        self.spans: list = []
        self.stack: list = []
        self.hot = [0] * 6  # qi_new, lp_new, rf_new, rf_trivial_den, gcd, transition_polys
        self.samples = {k: Sampler() for k in ("qi", "lp", "gcd", "rf")}
        self.request = -1
        self.requests = 0
        self.counts: Counter = Counter()
        self.validate_keys: set = set()
        self.linalg_depth = 0
        self.prev_span = None
        self._undo: list = []

    # -- state ----------------------------------------------------------------

    def reset(self) -> None:
        """Start a new pass: clear spans and counters, keep the wrappers."""
        self.spans.clear()
        self.stack.clear()
        self.hot[:] = [0] * len(self.hot)
        self.request = -1
        self.requests = 0
        self.counts.clear()
        self.validate_keys.clear()
        self.linalg_depth = 0
        self.prev_span = None

    def _nid(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    # -- wrappers -------------------------------------------------------------

    def _span(self, name: str, fn, name_of=None, before=None, linalg_top=False):
        """Wrap fn in a span.  ``name_of(args)`` picks the span name per call;
        ``before(args, kwargs)`` records counts outside the timed interval."""
        spans, stack, clock, tracer = self.spans, self.stack, time.perf_counter_ns, self
        fixed = self._nid(name)

        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            nid = fixed if name_of is None else name_of(args)
            if linalg_top:
                tracer.linalg_depth += 1
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (nid, t0, t1, parent, tracer.request)
                if linalg_top:
                    tracer.linalg_depth -= 1

        wrapper.__wrapped__ = fn
        return wrapper

    def _validate_before(self, args, kwargs):
        module = args[0]
        window = args[1] if len(args) > 1 else kwargs.get("window", self.modules["hcmod"].DEFAULT_WINDOW)
        self.validate_keys.add((module, tuple(window)))
        self.counts["validate.transitions"] += len(module.weights.transitions_in(window))

    def _request_before(self, args, kwargs):
        self.request += 1
        self.requests += 1

    def _linalg(self, op: str, fn):
        """linalg.<op>.<field> spans, and whether a top-level call works on
        the same span of vectors as the previous top-level call."""
        def field_of(args):
            if op == "solve":
                m, b = args[0], args[1]
                x = m.entries[0][0] if m.rows and m.cols else (b[0] if b else None)
            elif op == "kernel":
                x = args[1]
            elif op == "in_span":
                x = args[1][0] if args[1] else None
            else:
                x = args[0][0][0] if args[0] and args[0][0] else None
            return self._nid(f"linalg.{op}.{_field(x)}")

        def span_of(args):
            if op == "solve":
                return tuple(zip(*args[0].entries))
            if op == "kernel":
                return tuple(map(tuple, args[0].entries))
            return tuple(map(tuple, args[0]))

        def before(args, kwargs):
            if self.linalg_depth == 0:
                key = span_of(args)
                self.counts["linalg.top_calls"] += 1
                if key == self.prev_span:
                    self.counts["linalg.same_span"] += 1
                self.prev_span = key

        return self._span(f"linalg.{op}", fn, name_of=field_of, before=before, linalg_top=True)

    def _wrap(self, layer: str, name: str, fn):
        full = f"{layer}.{name}"
        if layer == "linalg" and name in LINALG:
            return self._linalg(name, fn)
        if full == "hcmod.validate":
            return self._span(full, fn, before=self._validate_before)
        if full == "cli.run":
            return self._span(full, fn, before=self._request_before)
        return self._span(full, fn)

    def _cells(self, rref):
        counts = self.counts

        def counted(rows, ncols):
            if rows:
                counts[f"cells.{_field(rows[0][0])}"] += len(rows) * len(rows[0])
            return rref(rows, ncols)

        return counted

    # -- install / uninstall --------------------------------------------------

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        wrappers = {}
        for layer, mod in self.modules.items():
            for name, fn in list(vars(mod).items()):
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ and not name.startswith("_"):
                    wrappers[fn] = self._wrap(layer, name, fn)
        linalg = self.modules["linalg"]
        wrappers[linalg._rref] = self._cells(linalg._rref)
        for mod in self.modules.values():
            for name, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._set(mod, name, wrappers[value])
                elif isinstance(value, list) and any(inspect.isfunction(v) and v in wrappers for v in value):
                    self._undo.append((value, None, list(value)))
                    value[:] = [wrappers.get(v, v) if inspect.isfunction(v) else v for v in value]
        self._patch_scalars()

    def _patch_scalars(self) -> None:
        s = self.modules["scalars"]
        GR, LP, RF = s.GaussianRational, s.LaurentPoly, s.RationalFunction
        hot, samples = self.hot, self.samples
        gr_init, lp_init, rf_init = GR.__init__, LP.__init__, RF.__init__
        gcd = LP.gcd_ordinary
        polys = self.modules["hcmod"].HCModuleFamily.transition_polys

        def qi_new(obj, *args, **kwargs):
            gr_init(obj, *args, **kwargs)
            hot[0] += 1
            if hot[0] % samples["qi"].stride == 0:
                samples["qi"].add((obj,))

        def lp_new(obj, *args, **kwargs):
            lp_init(obj, *args, **kwargs)
            hot[1] += 1
            if hot[1] % samples["lp"].stride == 0:
                samples["lp"].add((obj,))

        def rf_new(obj, *args, **kwargs):
            hot[2] += 1
            den = args[1] if len(args) > 1 else kwargs.get("den")
            if not isinstance(den, LP) or len(den.coeffs) == 1:
                hot[3] += 1
            if hot[2] % samples["rf"].stride == 0:
                samples["rf"].add(args + tuple(kwargs.values()))
            rf_init(obj, *args, **kwargs)

        def gcd_ordinary(a, b):
            hot[4] += 1
            if hot[4] % samples["gcd"].stride == 0:
                samples["gcd"].add((a, b))
            return gcd(a, b)

        def transition_polys(module, n):
            hot[5] += 1
            return polys(module, n)

        self._set(GR, "__init__", qi_new)
        self._set(LP, "__init__", lp_new)
        self._set(RF, "__init__", rf_new)
        self._set(LP, "gcd_ordinary", staticmethod(gcd_ordinary))
        self._set(self.modules["hcmod"].HCModuleFamily, "transition_polys", transition_polys)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if attr is None:
                owner[:] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    # -- results --------------------------------------------------------------

    def pass_metrics(self) -> dict:
        """Per-layer metrics of the spans and counts recorded since reset()."""
        spans, names = self.spans, self.names
        child = [0] * len(spans)
        for nid, t0, t1, parent, _ in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        calls: Counter = Counter()
        busy: Counter = Counter()
        layer_self: Counter = Counter()
        for i, (nid, t0, t1, parent, _) in enumerate(spans):
            name = names[nid]
            calls[name] += 1
            layer_self[name.split(".", 1)[0]] += t1 - t0 - child[i]
            # Busy time counts only the outermost span of a name.
            p = parent
            while p >= 0 and spans[p][0] != nid:
                p = spans[p][3]
            if p < 0:
                busy[name] += t1 - t0

        def sec(*span_names):
            return sum(busy[n] for n in span_names) / 1e9

        def ratio(num, den):
            return num / den if den else 0.0

        m = {
            "hcmod.validate.calls": calls["hcmod.validate"],
            "hcmod.validate.s": sec("hcmod.validate"),
            "hcmod.validate.transitions": self.counts["validate.transitions"],
            "hcmod.validate.distinct_ratio": ratio(len(self.validate_keys), calls["hcmod.validate"]),
            "hcmod.transition_polys.calls": self.hot[5],
            "sl2fam.casimir_acting_function.calls": sum(calls[f"sl2fam.{f}"] for f in ACTING),
            "sl2fam.casimir_acting_function.s": sec(*(f"sl2fam.{f}" for f in ACTING)),
            "linalg.same_span_ratio": ratio(self.counts["linalg.same_span"], self.counts["linalg.top_calls"]),
            "grassfam.pair_bracket.calls": calls["grassfam.pair_bracket"],
            "grassfam.pair_bracket.s": sec("grassfam.pair_bracket"),
            "grassfam.self_s": layer_self["grassfam"] / 1e9,
            "scalars.qi_new": self.hot[0],
            "scalars.lp_new": self.hot[1],
            "scalars.rf_new": self.hot[2],
            "scalars.rf_gcd_calls": self.hot[4],
            "scalars.rf_trivial_den_ratio": ratio(self.hot[3], self.hot[2]),
            "cli.requests": self.requests,
            "cli.self_s": layer_self["cli"] / 1e9,
            "cli.load_module.s": sec("cli.load_module"),
            "cli.emit.s": sec("cli.emit"),
        }
        for f in HCMOD_TIMED:
            m[f"hcmod.{f}.s"] = sec(f"hcmod.{f}")
        for f in CLASSIFY:
            m[f"classify.{f}.calls"] = calls[f"classify.{f}"]
            m[f"classify.{f}.s"] = sec(f"classify.{f}")
        for f in LIEFAM:
            m[f"liefam.{f}.s"] = sec(f"liefam.{f}")
        for f in LINALG:
            for fld in FIELDS.values():
                m[f"linalg.{f}.{fld}.calls"] = calls[f"linalg.{f}.{fld}"]
                m[f"linalg.{f}.{fld}.s"] = sec(f"linalg.{f}.{fld}")
        for fld in FIELDS.values():
            m[f"linalg.cells.{fld}"] = self.counts[f"cells.{fld}"]
        for f in GRASSFAM:
            m[f"grassfam.{f}.s"] = sec(f"grassfam.{f}")
        for k in range(1, 12):
            m[f"acceptance.criterion_{k}.s"] = sec(f"acceptance.criterion_{k}")
        return m

    def scalar_timings(self) -> dict:
        """Per-operation times on operands sampled during the traced pass;
        call after uninstall() so the operations themselves are not traced."""
        s = self.modules["scalars"]
        qi = [x for (x,) in self.samples["qi"].items]
        lp = [x for (x,) in self.samples["lp"].items]
        return {
            "scalars.qi_mul_ns": per_op(lambda a, b: a * b, list(zip(qi, qi[1:]))) * 1e9,
            "scalars.lp_mul_us": per_op(lambda a, b: a * b, list(zip(lp, lp[1:]))) * 1e6,
            "scalars.lp_gcd_us": per_op(s.LaurentPoly.gcd_ordinary, self.samples["gcd"].items) * 1e6,
            "scalars.rf_new_us": per_op(s.RationalFunction, self.samples["rf"].items) * 1e6,
        }

    def write_spans(self, path, passes: List[list]) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "request"],
                       "names": self.names, "passes": passes}, fh)


def per_op(op, arg_tuples, min_seconds: float = 0.02, repeats: int = 5) -> float:
    """Median seconds per ``op(*args)`` over the given argument tuples."""
    if not arg_tuples:
        return 0.0
    loops = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(loops):
            for args in arg_tuples:
                op(*args)
        dt = time.perf_counter() - t0
        if dt >= min_seconds:
            break
        loops *= 2
    times = [dt]
    for _ in range(repeats - 1):
        t0 = time.perf_counter()
        for _ in range(loops):
            for args in arg_tuples:
                op(*args)
        times.append(time.perf_counter() - t0)
    return statistics.median(times) / (loops * len(arg_tuples))
