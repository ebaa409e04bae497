"""The four workloads: seeded request lists for ``hcfam.cli.run`` and the
expectation each response is checked against.

A workload builds one *pass*: a fixed list of requests plus the module
documents they read.  Everything is drawn from ``random.Random`` seeded by
(workload, seed, pass index), so one seed always gives byte-identical inputs.
Expected verdicts come from :mod:`model` and closed-form facts, not from the
library under test.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Callable, Dict, List, Optional

from model import (
    Doc,
    G,
    Weights,
    canonical_doc,
    g,
    g_div,
    g_parse,
    g_str,
    g_sub,
    normalize_doc,
    p_eval,
    p_scale,
    proportional,
    tail_vanishing_weights,
    ONE,
    ZERO,
)

Check = Callable[[Optional[int], str], Optional[str]]

#: Argument prefix naming a document of the pass; resolved to a path on disk.
FILE = "@file:"


@dataclass
class Request:
    argv: List[str]
    check: Check
    stdin_prev: bool = False  # feed the previous response on stdin ('-')
    malformed: bool = False  # a seeded malformed request (expected exit 2)


@dataclass
class Pass:
    requests: List[Request]
    files: Dict[str, str] = field(default_factory=dict)

    def digest_text(self) -> str:
        return json.dumps(
            {"argv": [r.argv for r in self.requests], "files": self.files},
            sort_keys=True,
        )


# ---------------------------------------------------------------------------
# Response checks
# ---------------------------------------------------------------------------


def _json_line(out: str):
    lines = out.strip().splitlines()
    if not lines:
        raise ValueError("no output")
    return json.loads(lines[-1])


def expect(rc_want: int, pred: Callable[[dict], Optional[str]]) -> Check:
    def check(rc, out):
        if rc != rc_want:
            return f"exit {rc}, expected {rc_want}"
        try:
            doc = _json_line(out)
        except ValueError as e:
            return f"unreadable output: {e}"
        return pred(doc)

    return check


def deferred(builder: Callable[..., Check]) -> Callable[..., Check]:
    """Build the check on first use, so computing expectations is not part
    of the set-up that ``setup_s`` measures."""

    def make(*args) -> Check:
        built: List[Check] = []

        def check(rc, out):
            if not built:
                built.append(builder(*args))
            return built[0](rc, out)

        return check

    return make


def equals(want: dict) -> Callable[[dict], Optional[str]]:
    return lambda doc: None if doc == want else f"got {doc}, expected {want}"


def same_doc(want: dict) -> Callable[[dict], Optional[str]]:
    def pred(doc):
        try:
            got = normalize_doc(doc)
        except (KeyError, TypeError, ValueError) as e:
            return f"not a module document: {e}"
        return None if got == normalize_doc(want) else "document differs from the expected one"

    return pred


MALFORMED = expect(2, lambda doc: None if doc.get("error") == "request" else f"got {doc}")


def rand_frac(rng: random.Random, top: int = 9, den: int = 6, nonzero: bool = True) -> Fraction:
    while True:
        f = Fraction(rng.randint(-top, top), rng.randint(1, den))
        if f or not nonzero:
            return f


def rand_unit(rng: random.Random) -> G:
    while True:
        u = g(rng.randint(-5, 5), rng.randint(-2, 2))
        if u != ZERO:
            return u


def _file(name: str) -> str:
    return FILE + name


def _window(lo: int, hi: int) -> str:
    return f"{lo}..{hi}"


def _casimir_arg(doc: Doc) -> str:
    return ",".join(g_str(c) for c in doc.casimir)


def with_rescaled_overrides(rng: random.Random, doc: Doc, window) -> Doc:
    """An explicit override at every transition of the window, each the
    canonical pair rescaled by a random unit (an isomorphic twin)."""
    over = {
        n: doc.rule_polys(n, doc.unit_side(n), rand_unit(rng))
        for n in doc.weights.transitions_in(window)
    }
    return replace(doc, overrides=over)


# ---------------------------------------------------------------------------
# verify_full
# ---------------------------------------------------------------------------


def verify_pass(rng: random.Random, tiny: bool) -> Pass:
    """One request, ``verify --profile full``: eleven PASS lines and a
    summary.  Nothing here depends on the seed."""
    profile, count = ("quick", 6) if tiny else ("full", 11)

    def check(rc, out):
        lines = out.splitlines()
        passes = [ln for ln in lines if ln.startswith("PASS  ")]
        if rc != 0 or len(passes) != count or len(lines) != count + 1:
            return f"exit {rc}, {len(passes)} PASS lines of {len(lines) - 1}"
        return equals({"failed": [], "passed": count, "profile": profile})(json.loads(lines[-1]))

    return Pass([Request(["verify", "--profile", profile], check)])


# ---------------------------------------------------------------------------
# module_reads: few documents, many verdict requests each
# ---------------------------------------------------------------------------


@deferred
def locus_check(doc: Doc, window) -> Check:
    """For c1 = 0: q_n = (c0 - n(n+2)) z + c_{-1}, so the finite locus is
    {c_{-1} / (n(n+2) - c0)}; infinity is always in it (deg A + deg B < the
    sum of the degree bounds), and 0 exactly when c_{-1} = 0."""
    _, c0, cm1 = doc.casimir
    points = {
        g_div(cm1, g_sub(g(n * (n + 2)), c0))
        for n in doc.weights.transitions_in(window)
        if g(n * (n + 2)) != c0
    }
    boundary = {"infinity"} | ({"0"} if cm1 == ZERO else set())

    def pred(out):
        got = {g_parse(p) for p in out["points"]}
        if got != points or set(out["boundary"]) != boundary or out["unsplit"]:
            return f"locus {out} differs from the closed form"
        return None

    return expect(0, pred)


@deferred
def fiber_check(doc: Doc, p: G, window) -> Check:
    """The fiber at p is reducible iff some transition scalar vanishes:
    A_n(p) B_n(p) = q_n(p) / 4 over the window, closed form on the tails."""
    vanishing = []
    for n in doc.weights.transitions_in(window):
        a, b = doc.polys(n)
        for name, poly in (("A", a), ("B", b)):
            if p_eval(poly, p) == ZERO:
                vanishing.append({"n": n, "poly": name})
    if p == ZERO:
        reducible = doc.casimir[2] == ZERO
    else:
        reducible = bool(vanishing) or bool(tail_vanishing_weights(doc, p))

    def pred(out):
        if out["irreducible"] != (not reducible) or out["vanishing"] != vanishing:
            return f"fiber at {g_str(p)}: got {out}"
        return None

    return expect(1 if reducible else 0, pred)


@deferred
def iso_twin_check(doc: Doc, twin: Doc, window) -> Check:
    """A rescaled twin is isomorphic, with mu_n = A'_n / A_n."""
    scalars = {}
    for n in doc.weights.transitions_in(window):
        a1, a2 = doc.polys(n)[0], twin.polys(n)[0]
        e = max(a1)
        scalars[str(n)] = g_div(a2[e], a1[e])

    def pred(out):
        got = {k: g_parse(v) for k, v in out["scalars"].items()}
        if out["isomorphic"] is not True or got != scalars:
            return f"twin not isomorphic: {out.get('obstruction')}"
        return None

    return expect(0, pred)


VALID = expect(0, equals({"ok": True, "violations": []}))


def reads_pass(rng: random.Random, tiny: bool) -> Pass:
    """Four canonical documents with c1 = 0 and their rescaled twins (eight
    files).  Per document and window: validate, locus, fiber at a locus
    point, at a rational point (on the twin) and at a Gaussian point, and
    iso against the twin; 72 requests, each re-validating its document."""
    k = rng.randrange(-8, 9, 2)
    specs = [
        (Weights("even"), "III", rand_frac(rng)),
        (Weights("odd"), "IV", rand_frac(rng)),
        (Weights("even"), f"I:{k}", rand_frac(rng)),
        # c_{-1} = 0 puts 0 into the locus; a non-integer c0 keeps the
        # constant Casimir admissible.
        (Weights("odd"), f"II:{k + 1}", Fraction(0)),
    ]
    if tiny:
        specs = specs[::3]
    requests: List[Request] = []
    files: Dict[str, str] = {}
    for i, (weights, cls, cm1) in enumerate(specs):
        c0 = rand_frac(rng, nonzero=False) if cm1 else Fraction(rng.randrange(1, 19, 2), 2)
        doc = canonical_doc(weights, cls, (ZERO, g(c0), g(cm1)))
        twin = with_rescaled_overrides(rng, doc, (-24, 24))
        name, twin_name = f"doc{i}.json", f"twin{i}.json"
        files[name] = json.dumps(doc.to_json(), sort_keys=True)
        files[twin_name] = json.dumps(twin.to_json(), sort_keys=True)
        # Each document gets windows of fixed widths (so the work per pass
        # does not depend on the seed), split around 0 at seeded points.
        for width in [96, 144, 192][: 1 if tiny else 3]:
            lo = rng.randrange(max(24, width - 120), min(120, width - 24) + 1, 2)
            window = (-lo, width - lo)
            w = ["--window", _window(*window)]
            mod = ["--module", _file(name)]
            trans = [n for n in weights.transitions_in(window) if n * (n + 2) != c0]
            n = rng.choice(trans)
            p1 = g(cm1 / (n * (n + 2) - c0))
            p2 = g(rand_frac(rng))
            p3 = g(rand_frac(rng), rng.choice([-2, -1, 1, 2]))
            requests += [
                Request(["module", "validate", *mod, *w], VALID),
                Request(["module", "locus", *mod, *w], locus_check(doc, window)),
                Request(["module", "fiber", *mod, "--at", g_str(p1), *w], fiber_check(doc, p1, window)),
                Request(["module", "fiber", "--module", _file(twin_name), "--at", g_str(p2), *w],
                        fiber_check(twin, p2, window)),
                Request(["module", "fiber", *mod, "--at", g_str(p3), *w], fiber_check(doc, p3, window)),
                Request(["module", "iso", *mod, "--other", _file(twin_name), *w],
                        iso_twin_check(doc, twin, window)),
            ]
    return Pass(requests, files)


# ---------------------------------------------------------------------------
# module_writes: many distinct documents, each loaded and transformed once
# ---------------------------------------------------------------------------


def _random_principal(rng: random.Random):
    """A weight set with infinite tails, a class of I-IV, and an admissible
    Casimir triple (c_{-1} != 0), possibly with Gaussian entries."""
    weights = Weights(rng.choice(["even", "odd"]))
    kind = rng.choice(["I", "II", "III", "IV"])
    k = rng.randrange(-10 + weights.parity, 11, 2)
    cls = f"{kind}:{k}" if kind in ("I", "II") else kind
    c1 = rng.choice([ZERO, g(rand_frac(rng)), g(rand_frac(rng), rng.randint(-3, 3))])
    casimir = (c1, g(rand_frac(rng, nonzero=False)), g(rand_frac(rng), rng.randint(-2, 2)))
    return weights, cls, casimir


def _random_extreme(rng: random.Random):
    kind = rng.choice(["lowest", "highest", "finite"])
    if kind == "finite":
        k = rng.randint(1, 6)
        return Weights("finite", k), "III", (ZERO, g(k * k + 2 * k), ZERO)
    l = rng.randint(1, 9)
    c = (ZERO, g(l * l - 2 * l), ZERO)
    return (Weights("lowest", l), f"I:{l}", c) if kind == "lowest" else (Weights("highest", -l), f"II:{-l}", c)


def _twisted(doc: Doc, d: int) -> dict:
    data = doc.to_json()
    data["degree_rule"]["anchor_deg"] += d
    return data


def writes_pass(rng: random.Random, tiny: bool) -> Pass:
    """30 distinct documents, each loaded once: canonical ones (checked
    against ``classify construct``) and rescaled ones are validated and
    twisted; equal-degree ones are validated, swapped, and the swap output
    is piped into ``module iso``; corrupted ones must fail validation.  Two
    malformed requests must exit 2.  76 requests in seeded order."""
    counts = dict(canonical=2, rescaled=1, equal=2, corrupted=1) if tiny else dict(
        canonical=10, rescaled=8, equal=8, corrupted=4
    )
    units: List[List[Request]] = []
    files: Dict[str, str] = {}

    def windows(count: int):
        # Half-widths cycle through fixed values; the seed only pairs them,
        # so the work per pass does not depend on the seed.
        halves = [[24, 32, 40, 48][i % 4] for i in range(count)]
        highs = list(halves)
        rng.shuffle(highs)
        return [(-lo, hi) for lo, hi in zip(halves, highs)]

    def add_doc(doc: Doc) -> str:
        name = f"d{len(files)}.json"
        files[name] = json.dumps(doc.to_json(), sort_keys=True)
        return name

    def twist(name: str, doc: Doc, w) -> Request:
        d = rng.choice([-3, -2, -1, 1, 2, 3])
        return Request(["module", "twist", "--module", _file(name), "--degree", str(d), *w],
                       expect(0, same_doc(_twisted(doc, d))))

    for i, window in enumerate(windows(counts["canonical"])):
        weights, cls, casimir = _random_principal(rng) if i % 2 else _random_extreme(rng)
        doc = canonical_doc(weights, cls, casimir)
        w = ["--window", _window(*window)]
        name = add_doc(doc)
        units.append([
            Request(["classify", "construct", "--weights", weights.arg(), "--class", cls,
                     "--casimir", _casimir_arg(doc), *w], expect(0, same_doc(doc.to_json()))),
            Request(["module", "validate", "--module", _file(name), *w], VALID),
            twist(name, doc, w),
        ])
        if i == 0:
            # Malformed requests from the CLI contract: an empty window and a
            # module document that is not an object.  Both must exit 2.
            files["bad.json"] = "[]"
            units.append([Request(["module", "validate", "--module", _file(name), "--window", "5..-5"],
                                  MALFORMED, malformed=True)])
            units.append([Request(["module", "validate", "--module", _file("bad.json")],
                                  MALFORMED, malformed=True)])
    for i, window in enumerate(windows(counts["rescaled"])):
        w = ["--window", _window(*window)]
        doc = with_rescaled_overrides(rng, canonical_doc(*_random_principal(rng)), window)
        name = add_doc(doc)
        units.append([Request(["module", "validate", "--module", _file(name), *w], VALID),
                      twist(name, doc, w)])
    for i, window in enumerate(windows(counts["equal"])):
        w = ["--window", _window(*window)]
        weights = Weights(rng.choice(["even", "odd"]))
        trans = weights.transitions_in(window)
        m = rng.choice(trans)
        casimir = (ZERO, g(m * (m + 2)), g(rand_frac(rng)))
        a = weights.anchor()
        doc = with_rescaled_overrides(rng, Doc(weights, a, 0, 0, 0, a, "A", "A", casimir), window)
        # q_m is constant, so (A_m, B_m) is proportional; any other index is not.
        swap = [m] if i % 2 == 0 else sorted([m, rng.choice([n for n in trans if n != m])])
        swapped = replace(doc, overrides={
            n: (ab[::-1] if n in swap else ab) for n, ab in doc.overrides.items()
        })
        iso = all(proportional(*doc.polys(n)) for n in swap)
        name = add_doc(doc)
        units.append([
            Request(["module", "validate", "--module", _file(name), *w], VALID),
            Request(["module", "swap", "--module", _file(name), "--indices", ",".join(map(str, swap)), *w],
                    expect(0, same_doc(swapped.to_json()))),
            Request(["module", "iso", "--module", _file(name), "--other", "-", *w],
                    expect(0 if iso else 1, lambda out, iso=iso: None if out["isomorphic"] is iso
                           else f"swap judged isomorphic={out['isomorphic']}"),
                    stdin_prev=True),
        ])
    for i, window in enumerate(windows(counts["corrupted"])):
        doc = with_rescaled_overrides(rng, canonical_doc(*_random_principal(rng)), window)
        n = rng.choice(sorted(doc.overrides))
        a, b = doc.overrides[n]
        doc.overrides[n] = (p_scale(a, g(2)), b)
        name = add_doc(doc)

        def pred(out, n=n):
            where = {v["where"] for v in out["violations"]}
            return None if out["ok"] is False and where == {str(n)} else f"violations at {where}, expected {n}"

        units.append([Request(["module", "validate", "--module", _file(name), "--window", _window(*window)],
                              expect(1, pred))])
    rng.shuffle(units)
    return Pass([r for unit in units for r in unit], files)


# ---------------------------------------------------------------------------
# pencil_sweep: the Grassmannian pencil and its real forms
# ---------------------------------------------------------------------------


def limit_check(p: int, q: int, boundary: str) -> Check:
    """p_t is spanned by (t E_ij, E_ij) above the diagonal blocks and
    (E_ij, t E_ij) below; dividing by the lowest power of the local
    coordinate gives (0, E) / (E, 0) at t = 0 and the reverse at infinity."""
    n = p + q

    def unit(i, j):
        return tuple(tuple(ONE if (r, c) == (i, j) else ZERO for c in range(n)) for r in range(n))

    zero = unit(-1, -1)
    want = set()
    for i in range(n):
        for j in range(n):
            if (i < q) != (j < q):
                upper_at_zero = (i < q) == (boundary == "0")
                want.add((zero, unit(i, j)) if upper_at_zero else (unit(i, j), zero))

    def pred(out):
        def mat(rows):
            return tuple(tuple(g_parse(v) for v in row) for row in rows)

        got = [(mat(v["first"]), mat(v["second"])) for v in out["basis"]]
        return None if len(got) == len(want) and set(got) == want else "limit basis differs"

    return expect(0, pred)


def signature(p: int, q: int, x) -> tuple:
    """Killing signature (n+, n0, n-) of the real form over x: su(p,q) for
    x > 0, compact su(p+q) for x < 0, the degenerate contraction at 0, inf."""
    if x in ("0", "inf"):
        return (0, 2 * p * q, p * p + q * q - 1)
    if x > 0:
        return (2 * p * q, 0, p * p + q * q - 1)
    return (0, 0, (p + q) ** 2 - 1)


def realform_check(p: int, q: int, x) -> Check:
    want = signature(p, q, x)

    def pred(out):
        if tuple(out["signature"]) != want or out["dimension"] != (p + q) ** 2 - 1:
            return f"signature {out['signature']} at {x}, expected {want}"
        return None

    return expect(0, pred)


def pencil_pass(rng: random.Random, tiny: bool) -> Pass:
    """For every (p, q) with p + q <= 3: subalg (symbolic and at a seeded t),
    limit and closure at 0 and infinity, realform at a seeded x > 0, a
    seeded x < 0, 0 and infinity; then the symbolic subalg and one realform
    for (2, 2).  32 requests, all on the det-one pencil; t, x in +-{2, 3}."""
    def rational(sign: int) -> Fraction:
        # Entries of larger height make the exact eliminations slower; fixed
        # small heights keep the work per pass independent of the seed.
        return sign * Fraction(rng.choice([2, 3]))

    requests = []
    subalg_ok = expect(0, equals({"subalgebra": True}))
    closed = expect(0, equals({"closed": True, "detail": ""}))
    for p, q in [(1, 1)] if tiny else [(1, 1), (1, 2), (2, 1)]:
        pq = ["--pq", f"{p},{q}", "--det-one"]
        t = rational(rng.choice([-1, 1]))
        requests.append(Request(["grassmann", "subalg", *pq], subalg_ok))
        requests.append(Request(["grassmann", "subalg", *pq, "--at", str(t)], subalg_ok))
        for b in ("0", "inf"):
            requests.append(Request(["grassmann", "limit", *pq, "--boundary", b], limit_check(p, q, b)))
            requests.append(Request(["grassmann", "closure", *pq, "--boundary", b], closed))
        for x in (rational(1), rational(-1), "0", "inf"):
            requests.append(Request(["grassmann", "realform", *pq, "--at", str(x)], realform_check(p, q, x)))
    if not tiny:
        pq = ["--pq", "2,2", "--det-one"]
        x = rational(1)
        requests.append(Request(["grassmann", "subalg", *pq], subalg_ok))
        requests.append(Request(["grassmann", "realform", *pq, "--at", str(x)], realform_check(2, 2, x)))
    return Pass(requests)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[random.Random, bool], Pass]
    #: Whether every pass draws new documents (so nothing can be reused
    #: across passes) or repeats the first pass.
    fresh_per_pass: bool


WORKLOADS = {
    w.name: w
    for w in [
        Workload("verify_full", verify_pass, False),
        Workload("module_reads", reads_pass, False),
        Workload("module_writes", writes_pass, True),
        Workload("pencil_sweep", pencil_pass, False),
    ]
}


def build_pass(workload: str, seed: int, index: int, tiny: bool) -> Pass:
    w = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}:{index if w.fresh_per_pass else 0}")
    return w.build(rng, tiny)
