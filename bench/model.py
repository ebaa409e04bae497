"""The benchmark's own model of Q(i) scalars and module documents.

Expected verdicts are computed here from first principles, never by calling
``hcfam``: a Gaussian rational is a pair of Fractions, a polynomial is a dict
exponent -> Gaussian rational, and a module document is the JSON shape that
``hcfam module ...`` reads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

G = Tuple[Fraction, Fraction]  # a + b i
Poly = Dict[int, G]

ZERO: G = (Fraction(0), Fraction(0))
ONE: G = (Fraction(1), Fraction(0))


def g(re, im=0) -> G:
    return (Fraction(re), Fraction(im))


def g_add(x: G, y: G) -> G:
    return (x[0] + y[0], x[1] + y[1])


def g_sub(x: G, y: G) -> G:
    return (x[0] - y[0], x[1] - y[1])


def g_mul(x: G, y: G) -> G:
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def g_div(x: G, y: G) -> G:
    n = y[0] * y[0] + y[1] * y[1]
    return g_mul(x, (y[0] / n, -y[1] / n))


def g_str(x: G) -> str:
    re, im = x
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im}*i"
    return f"{re}{'+' if im > 0 else '-'}{abs(im)}*i"


def g_parse(text: str) -> G:
    """Parse the ``a/b``, ``c/d*i`` and ``a/b+c/d*i`` forms."""
    s = text.replace(" ", "")
    if not s.endswith("i"):
        return (Fraction(s), Fraction(0))
    body = s[:-1].rstrip("*")
    split = max(body.rfind("+"), body.rfind("-"))
    re_txt, im_txt = (body[:split], body[split:]) if split > 0 else ("", body)
    im = {"": 1, "+": 1, "-": -1}.get(im_txt)
    return (Fraction(re_txt or 0), Fraction(im if im is not None else im_txt))


def p_clean(p: Poly) -> Poly:
    return {e: c for e, c in p.items() if c != ZERO}


def p_eval(p: Poly, z: G) -> G:
    out = ZERO
    for e, c in p.items():
        term = c
        for _ in range(e):
            term = g_mul(term, z)
        out = g_add(out, term)
    return out


def p_scale(p: Poly, c: G) -> Poly:
    return p_clean({e: g_mul(v, c) for e, v in p.items()})


def p_json(p: Poly) -> dict:
    return {str(e): g_str(c) for e, c in sorted(p.items())}


def p_parse(data: dict) -> Poly:
    return p_clean({int(e): g_parse(c) for e, c in data.items()})


def proportional(a: Poly, b: Poly) -> bool:
    """Whether b = mu * a for a nonzero constant mu."""
    if not a or not b or set(a) != set(b):
        return False
    e = max(a)
    mu = g_div(b[e], a[e])
    return p_scale(a, mu) == b


def is_integer_square(f: Fraction) -> Optional[int]:
    if f < 0 or f.denominator != 1:
        return None
    r = math.isqrt(f.numerator)
    return r if r * r == f.numerator else None


# ---------------------------------------------------------------------------
# Weight sets and module documents
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Weights:
    kind: str  # even | odd | lowest | highest | finite
    param: int = 0

    @property
    def parity(self) -> int:
        return {"even": 0, "odd": 1}.get(self.kind, self.param % 2)

    def contains(self, n: int) -> bool:
        if n % 2 != self.parity:
            return False
        if self.kind == "lowest":
            return n >= self.param
        if self.kind == "highest":
            return n <= self.param
        if self.kind == "finite":
            return -self.param <= n <= self.param
        return True

    def has_transition(self, n: int) -> bool:
        return self.contains(n) and self.contains(n + 2)

    def transitions_in(self, window) -> List[int]:
        lo, hi = window
        if self.kind == "finite":
            lo, hi = -self.param, self.param
        return [n for n in range(lo, hi + 1) if self.has_transition(n)]

    def anchor(self) -> int:
        if self.kind == "finite":
            return self.param if self.param % 2 else 0
        return {"even": 0, "odd": 1}.get(self.kind, self.param)

    def arg(self) -> str:
        return self.kind if self.kind in ("even", "odd") else f"{self.kind}:{self.param}"


@dataclass
class Doc:
    """A module document: weight set, degree rule, transitions, Casimir."""

    weights: Weights
    anchor: int
    anchor_deg: int
    slope_up: int
    slope_down: int
    pivot: int
    unit_up: str
    unit_down: str
    casimir: Tuple[G, G, G]
    value_up: G = ONE
    value_down: G = ONE
    overrides: Dict[int, Tuple[Poly, Poly]] = field(default_factory=dict)

    def q(self, n: int) -> Poly:
        c1, c0, cm1 = self.casimir
        return p_clean({2: c1, 1: g_sub(c0, g(n * (n + 2))), 0: cm1})

    def polys(self, n: int) -> Tuple[Poly, Poly]:
        """(A_n, B_n): the override, else the tail rule of n's side."""
        if n in self.overrides:
            return self.overrides[n]
        unit_on, u = (self.unit_up, self.value_up) if n >= self.pivot else (self.unit_down, self.value_down)
        return self.rule_polys(n, unit_on, u)

    def rule_polys(self, n: int, unit_on: str, u: G) -> Tuple[Poly, Poly]:
        unit = {0: u}
        other = p_scale(self.q(n), g_div(ONE, g_mul(g(4), u)))
        return (unit, other) if unit_on == "A" else (other, unit)

    def unit_side(self, n: int) -> str:
        return self.unit_up if n >= self.pivot else self.unit_down

    def to_json(self) -> dict:
        return {
            "weights": {"kind": self.weights.kind, "param": self.weights.param},
            "degree_rule": {
                "anchor": self.anchor,
                "anchor_deg": self.anchor_deg,
                "slope_up": self.slope_up,
                "slope_down": self.slope_down,
                "overrides": [],
            },
            "transitions": {
                "pivot": self.pivot,
                "up": {"unit": self.unit_up, "value": g_str(self.value_up)},
                "down": {"unit": self.unit_down, "value": g_str(self.value_down)},
                "overrides": [
                    {"n": n, "A": p_json(a), "B": p_json(b)}
                    for n, (a, b) in sorted(self.overrides.items())
                ],
            },
            "casimir": [g_str(c) for c in self.casimir],
        }


def canonical_doc(weights: Weights, cls: str, casimir) -> Doc:
    """The canonical family of a class (``I:k``, ``II:k``, ``III``, ``IV``):
    the degree profile and tail units the classification theorem assigns."""
    kind, _, k = cls.partition(":")
    a = weights.anchor()
    if kind == "I":
        k = int(k)
        return Doc(weights, k, 0, -1, -1, k, "A", "B", casimir)
    if kind == "II":
        k = int(k)
        return Doc(weights, k, 0, 1, 1, k, "B", "A", casimir)
    if kind == "III":
        return Doc(weights, a, a // 2, 1, -1, a, "B", "B", casimir)
    return Doc(weights, a, -(a // 2), -1, 1, a, "A", "A", casimir)


def normalize_doc(data) -> tuple:
    """A comparable value for a module document in JSON form."""
    d = data["degree_rule"]
    t = data["transitions"]
    return (
        (data["weights"]["kind"], data["weights"].get("param", 0)),
        (d["anchor"], d["anchor_deg"], d["slope_up"], d["slope_down"],
         tuple(sorted(tuple(x) for x in d.get("overrides", [])))),
        (t["pivot"], t["up"]["unit"], g_parse(t["up"]["value"]),
         t["down"]["unit"], g_parse(t["down"]["value"])),
        tuple(sorted(
            (o["n"], tuple(sorted(p_parse(o["A"]).items())), tuple(sorted(p_parse(o["B"]).items())))
            for o in t.get("overrides", [])
        )),
        tuple(g_parse(c) for c in data["casimir"]),
    )


def tail_vanishing_weights(doc: Doc, p: G) -> List[int]:
    """Transitions m of the whole weight set with q_m(p) = 0, for p != 0:
    q_m(p) = 0 iff m(m+2) = (c1 p^2 + c0 p + c_{-1}) / p."""
    c1, c0, cm1 = doc.casimir
    target = g_div(g_add(g_add(g_mul(c1, g_mul(p, p)), g_mul(c0, p)), cm1), p)
    if target[1] != 0:
        return []
    s = is_integer_square(1 + target[0])
    if s is None:
        return []
    return sorted({m for m in (s - 1, -s - 1) if doc.weights.has_transition(m)})
