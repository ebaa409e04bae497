"""Families of Harish-Chandra modules over the SL(2) contraction pair.

A module family is stored in the canonical weight basis: one section f_n per
weight n, raising action X f_n = A_n f_{n+2}, lowering action
Y f_{n+2} = z^{-1} B_n f_n, with A_n, B_n polynomials in z.  Infinite weight
sets are handled lazily: explicit polynomial overrides on a finite window of
transition indices, plus a unit-normalized closed-form rule on each tail.
The tail rules are checked symbolically in n, so validation genuinely covers
the whole (infinite) weight set.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from .scalars import (
    INFINITY,
    GaussianRational,
    LaurentPoly,
    Point,
    QI_ONE,
    QI_ZERO,
    UnsplitQuadratic,
    _lp,
    _qi,
    _sqrt_fraction,
    poly_roots,
)


class NotValidated(Exception):
    pass


class WeightNotPresent(Exception):
    pass


class DegreeBoundViolated(Exception):
    pass


DEFAULT_WINDOW = (-24, 24)

Window = Tuple[int, int]


# ---------------------------------------------------------------------------
# Weight sets (the rows of the admissible-module table)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WeightSet:
    """The set of K-weights of a module family; one of the five admissible
    shapes: all-even, all-odd, lowest-weight, highest-weight, finite."""

    kind: str  # even | odd | lowest | highest | finite
    param: int = 0

    def __post_init__(self):
        if self.kind not in ("even", "odd", "lowest", "highest", "finite"):
            raise ValueError(f"unknown weight-set kind {self.kind!r}")
        if self.kind == "lowest" and self.param < 1:
            raise ValueError("lowest-weight parameter must be >= 1")
        if self.kind == "highest" and self.param > -1:
            raise ValueError("highest-weight parameter must be <= -1")
        if self.kind == "finite" and self.param < 0:
            raise ValueError("finite-dimensional parameter must be >= 0")

    @property
    def parity(self) -> int:
        if self.kind == "even":
            return 0
        if self.kind == "odd":
            return 1
        return self.param % 2

    def contains(self, n: int) -> bool:
        if n % 2 != self.parity:
            return False
        if self.kind in ("even", "odd"):
            return True
        if self.kind == "lowest":
            return n >= self.param
        if self.kind == "highest":
            return n <= self.param
        return -self.param <= n <= self.param

    @property
    def unbounded_above(self) -> bool:
        return self.kind in ("even", "odd", "lowest")

    @property
    def unbounded_below(self) -> bool:
        return self.kind in ("even", "odd", "highest")

    def has_transition(self, n: int) -> bool:
        return self.contains(n) and self.contains(n + 2)

    def transitions_in(self, window: Window) -> List[int]:
        """Transition indices to check explicitly.

        Finite weight sets list all of their transitions; infinite ones are
        clipped to the window (tails are handled symbolically elsewhere).
        """
        ns = self.weights_in(window)
        if ns and not self.unbounded_above and ns[-1] == self.param:
            ns.pop()  # the top weight of a bounded-above set has no transition
        return ns

    def weights_in(self, window: Window) -> List[int]:
        lo, hi = window
        if self.kind == "finite":
            return list(range(-self.param, self.param + 1, 2))
        if self.kind == "lowest":
            lo = max(lo, self.param)
        if self.kind == "highest":
            hi = min(hi, self.param)
        start = lo if lo % 2 == self.parity else lo + 1
        return list(range(start, hi + 1, 2))

    def anchor_weight(self) -> int:
        if self.kind == "even":
            return 0
        if self.kind == "odd":
            return 1
        if self.kind == "finite":
            return self.param if self.param % 2 else 0
        return self.param

    def to_json(self) -> dict:
        return {"kind": self.kind, "param": self.param}

    @staticmethod
    def from_json(data: dict) -> "WeightSet":
        return WeightSet(data["kind"], data.get("param", 0))


# ---------------------------------------------------------------------------
# Degree profiles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DegreeProfile:
    """Degrees of the weight sheaves, n -> deg F_n.

    Linear tails from an anchor (slopes are per weight step of 2), with
    finitely many explicit overrides.
    """

    anchor: int
    anchor_deg: int
    slope_up: int  # deg F_{n+2} - deg F_n on the upper tail
    slope_down: int  # deg F_{n-2} - deg F_n on the lower tail
    overrides: tuple = ()  # sorted tuple of (n, deg)

    @cached_property
    def _override_map(self) -> Dict[int, int]:
        return dict(reversed(self.overrides))  # the first override of an n wins

    def deg(self, n: int) -> int:
        if n in self._override_map:
            return self._override_map[n]
        if n >= self.anchor:
            return self.anchor_deg + self.slope_up * ((n - self.anchor) // 2)
        return self.anchor_deg + self.slope_down * ((self.anchor - n) // 2)

    def step(self, n: int) -> int:
        """deg F_{n+2} - deg F_n."""
        return self.deg(n + 2) - self.deg(n)

    def shifted(self, d: int) -> "DegreeProfile":
        return replace(
            self,
            anchor_deg=self.anchor_deg + d,
            overrides=tuple((n, v + d) for n, v in self.overrides),
        )

    def to_json(self) -> dict:
        return {
            "anchor": self.anchor,
            "anchor_deg": self.anchor_deg,
            "slope_up": self.slope_up,
            "slope_down": self.slope_down,
            "overrides": [[n, d] for n, d in self.overrides],
        }

    @staticmethod
    def from_json(data: dict) -> "DegreeProfile":
        return DegreeProfile(
            data["anchor"],
            data["anchor_deg"],
            data["slope_up"],
            data["slope_down"],
            tuple((n, d) for n, d in data.get("overrides", [])),
        )


def profiles_equal(a: DegreeProfile, b: DegreeProfile, weights: WeightSet, window: Window) -> bool:
    """Equality of degree profiles as functions on the weight set."""
    for n in weights.weights_in(window):
        if a.deg(n) != b.deg(n):
            return False
    if weights.unbounded_above and a.slope_up != b.slope_up:
        return False
    if weights.unbounded_below and a.slope_down != b.slope_down:
        return False
    return True


# ---------------------------------------------------------------------------
# Transition data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TailRule:
    """Closed-form rule for tail transitions: one of A_n, B_n is the constant
    ``value``, the other is q_n divided by four times that constant."""

    unit_on: str  # 'A' or 'B'
    value: GaussianRational = GaussianRational(1)

    def __post_init__(self):
        if self.unit_on not in ("A", "B"):
            raise ValueError("unit_on must be 'A' or 'B'")
        if self.value.is_zero():
            raise ValueError("tail unit constant must be nonzero")

    @cached_property
    def partner_scale(self) -> GaussianRational:
        """(4 * value)^{-1}, the factor taking q_n to the partner polynomial."""
        return (4 * self.value).inverse()

    def to_json(self) -> dict:
        return {"unit": self.unit_on, "value": str(self.value)}

    @staticmethod
    def from_json(data: dict) -> "TailRule":
        return TailRule(data["unit"], GaussianRational.parse(data["value"]))


@dataclass(frozen=True)
class TransitionData:
    """Raising/lowering polynomials per transition index n.

    ``overrides`` holds explicit (A_n, B_n) pairs; everything else follows
    the tail rule of its side of the pivot.
    """

    pivot: int
    rule_up: TailRule  # transitions with n >= pivot
    rule_down: TailRule  # transitions with n < pivot
    overrides: tuple = ()  # sorted tuple of (n, A: LaurentPoly, B: LaurentPoly)

    @cached_property
    def _override_map(self) -> Dict[int, Tuple[LaurentPoly, LaurentPoly]]:
        return {n: (A, B) for n, A, B in reversed(self.overrides)}  # the first wins

    def override_for(self, n: int):
        return self._override_map.get(n)

    def rule_for(self, n: int) -> TailRule:
        return self.rule_up if n >= self.pivot else self.rule_down

    def with_override(self, n: int, A: LaurentPoly, B: LaurentPoly) -> "TransitionData":
        others = tuple((m, a, b) for m, a, b in self.overrides if m != n)
        return replace(self, overrides=tuple(sorted(others + ((n, A, B),), key=lambda o: o[0])))

    def to_json(self) -> dict:
        return {
            "pivot": self.pivot,
            "up": self.rule_up.to_json(),
            "down": self.rule_down.to_json(),
            "overrides": [
                {"n": n, "A": A.to_json(), "B": B.to_json()}
                for n, A, B in self.overrides
            ],
        }

    @staticmethod
    def from_json(data: dict) -> "TransitionData":
        return TransitionData(
            data["pivot"],
            TailRule.from_json(data["up"]),
            TailRule.from_json(data["down"]),
            tuple(
                (o["n"], LaurentPoly.from_json(o["A"]), LaurentPoly.from_json(o["B"]))
                for o in data.get("overrides", [])
            ),
        )


# ---------------------------------------------------------------------------
# The module family
# ---------------------------------------------------------------------------


Casimir = Tuple[GaussianRational, GaussianRational, GaussianRational]


def casimir_triple(c1, c0, cm1) -> Casimir:
    return (
        GaussianRational._coerce(c1),
        GaussianRational._coerce(c0),
        GaussianRational._coerce(cm1),
    )


@dataclass(frozen=True)
class HCModuleFamily:
    weights: WeightSet
    degrees: DegreeProfile
    transitions: TransitionData
    casimir: Casimir

    def q_poly(self, n: int) -> LaurentPoly:
        """q_n(z) = c1 z^2 + (c0 - n(n+2)) z + c_{-1}; four times A_n B_n."""
        c1, c0, cm1 = self.casimir
        return _lp({e: c for e, c in ((2, c1), (1, c0 - _qi(n * (n + 2), 0, 1)), (0, cm1)) if c})

    def q_lead(self, n: int) -> Tuple[int, GaussianRational]:
        """(deg q_n, leading coefficient of q_n) in closed form in n, without
        building q_n; (-1, 0) where q_n is identically zero."""
        c1, c0, cm1 = self.casimir
        for d, c in ((2, c1), (1, c0 - n * (n + 2)), (0, cm1)):
            if c:
                return d, c
        return -1, QI_ZERO

    def transition_polys(self, n: int) -> Tuple[LaurentPoly, LaurentPoly]:
        """Derive (A_n, B_n): the override at n, else the tail rule of n's side."""
        if not self.weights.has_transition(n):
            raise WeightNotPresent(f"no transition at weight {n}")
        ov = self.transitions.override_for(n)
        if ov is not None:
            return ov
        rule = self.transitions.rule_for(n)
        unit = _lp({0: rule.value})
        other = self.q_poly(n).scale(rule.partner_scale)
        if rule.unit_on == "A":
            return unit, other
        return other, unit

    @cached_property
    def _derived(self) -> Dict[int, Tuple[LaurentPoly, LaurentPoly, LaurentPoly]]:
        return {}

    def transition(self, n: int) -> Tuple[LaurentPoly, LaurentPoly, LaurentPoly]:
        """(A_n, B_n, q_n), derived once per module object and then reused."""
        t = self._derived.get(n)
        if t is None:
            t = self._derived[n] = (*self.transition_polys(n), self.q_poly(n))
        return t

    def degree_bounds(self, n: int) -> Tuple[int, int]:
        """(bound for deg A_n, bound for deg B_n)."""
        s = self.degrees.step(n)
        return 1 + s, 1 - s

    def to_json(self) -> dict:
        return {
            "weights": self.weights.to_json(),
            "degree_rule": self.degrees.to_json(),
            "transitions": self.transitions.to_json(),
            "casimir": [str(c) for c in self.casimir],
        }

    @staticmethod
    def from_json(data: dict) -> "HCModuleFamily":
        return HCModuleFamily(
            WeightSet.from_json(data["weights"]),
            DegreeProfile.from_json(data["degree_rule"]),
            TransitionData.from_json(data["transitions"]),
            tuple(GaussianRational.parse(c) for c in data["casimir"]),
        )


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@dataclass
class Violation:
    where: object  # transition index, 'tail-up', 'tail-down', or 'structure'
    message: str

    def to_json(self) -> dict:
        return {"where": str(self.where), "message": self.message}


@dataclass
class ValidationReport:
    violations: List[Violation]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {"ok": self.ok, "violations": [v.to_json() for v in self.violations]}


def _integer_weight_solutions(c0: GaussianRational) -> List[int]:
    """Integers n with n(n+2) equal to the given scalar."""
    if not c0.is_real():
        return []
    s = _sqrt_fraction(Fraction(1) + c0.re)
    if s is None or s.denominator != 1:
        return []
    return sorted({s.numerator - 1, -s.numerator - 1})


def validate(module: HCModuleFamily, window: Window = DEFAULT_WINDOW) -> ValidationReport:
    """Check every structural invariant of the module family.

    Explicit transitions in the window are checked directly; infinite tails
    are checked through the closed-form rules, symbolically in n.  Violations
    are data, not exceptions.
    """
    v: List[Violation] = []
    w = module.weights
    lo, hi = window
    if lo > hi:
        raise ValueError("empty window")

    # Structural coverage requirements.
    for n, _, _ in module.transitions.overrides:
        if not w.has_transition(n):
            v.append(Violation(n, "override at an absent transition"))
        elif w.kind != "finite" and not (lo <= n <= hi):
            v.append(Violation(n, "override outside the checked window"))
    for n, _ in module.degrees.overrides:
        if w.kind != "finite" and not (lo - 2 <= n <= hi + 2):
            v.append(Violation(n, "degree override outside the checked window"))
    if w.kind != "finite" and not (lo <= module.transitions.pivot <= hi + 2):
        v.append(Violation("structure", "tail pivot outside the checked window"))
    if _anchor_outside(module, window):
        v.append(Violation("structure", "degree anchor outside the checked window"))

    # Per-transition checks: overrides directly, the rest in closed form in n (a unit
    # beside q_n / (4 * unit) is polynomial, nonzero and gives 4 A_n B_n = q_n).
    t = module.transitions
    for n in _checked_transitions(module, window):
        dq = module.q_lead(n)[0]
        if dq < 0:
            v.append(Violation(n, "q_n is identically zero (excluded Casimir value)"))
            continue
        if t.override_for(n) is None:
            da, db = (0, dq) if t.rule_for(n).unit_on == "A" else (dq, 0)
        else:
            A, B, q = module.transition(n)
            if not (A.is_ordinary() and B.is_ordinary()):
                v.append(Violation(n, "transition data is not polynomial"))
                continue
            if A.is_zero() or B.is_zero():
                v.append(Violation(n, "zero transition polynomial (not generically irreducible)"))
                continue
            if (A * B).scale(4) != q:
                v.append(Violation(n, "Casimir equation 4 A_n B_n = q_n fails"))
            da, db = A.degree(), B.degree()
        step = module.degrees.step(n)
        if abs(step) > 1:
            v.append(Violation(n, "degree profile jumps by more than one"))
        ba, bb = 1 + step, 1 - step  # degree_bounds(n)
        if da > ba:
            v.append(Violation(n, f"deg A_n = {da} exceeds bound {ba}"))
        if db > bb:
            v.append(Violation(n, f"deg B_n = {db} exceeds bound {bb}"))

    # Symbolic tail checks.
    if w.unbounded_above:
        v.extend(_tail_violations(module, window, up=True))
    if w.unbounded_below:
        v.extend(_tail_violations(module, window, up=False))
    return ValidationReport(v)


def _checked_transitions(module: HCModuleFamily, window: Window) -> List[int]:
    """The window's transitions, plus those just beyond it that the tail checks
    do not cover: next to a degree override, or following the other tail's rule."""
    w, (lo, hi) = module.weights, window
    if w.kind == "finite":
        return w.transitions_in(window)
    degs, pivot = module.degrees._override_map, module.transitions.pivot
    near = [(n, False) for n in range(lo - 4, lo)] + [(hi + 1, True), (hi + 2, True)]
    extra = [n for n, up in near
             if w.has_transition(n) and (n in degs or n + 2 in degs or (n >= pivot) != up)]
    return sorted(extra + w.transitions_in(window))


def _anchor_outside(module: HCModuleFamily, window: Window) -> bool:
    """Whether a transition beyond the window on an infinite tail lies between
    the window and the degree anchor, where its degree step is not the tail's
    slope: above the window every transition must start at or above the
    anchor, below it every transition must end at or below the anchor."""
    w, anchor, (lo, hi) = module.weights, module.degrees.anchor, window
    first_up = hi + 1 + (hi + 1 - w.parity) % 2  # the first weight above the window
    last_down = lo - 1 - (lo - 1 - w.parity) % 2  # the last weight below it
    if w.kind == "lowest":
        first_up = max(first_up, w.param)
    if w.kind == "highest":
        last_down = min(last_down, w.param - 2)
    return (w.unbounded_above and anchor > first_up) or (w.unbounded_below and anchor < last_down + 2)


def _tail_bounds(module: HCModuleFamily, up: bool) -> Tuple[str, int, int, int]:
    """(unit side, slope, unit bound, partner bound) of the upper or lower tail.

    The slope is deg F_{n+2} - deg F_n for transitions n deep in the tail; the
    bounds are :meth:`HCModuleFamily.degree_bounds` of the constant unit and
    of its partner q_n / (4 * unit) there.
    """
    rule = module.transitions.rule_up if up else module.transitions.rule_down
    slope = module.degrees.slope_up if up else -module.degrees.slope_down
    if rule.unit_on == "A":
        return rule.unit_on, slope, 1 + slope, 1 - slope
    return rule.unit_on, slope, 1 - slope, 1 + slope


def _tail_transitions(module: HCModuleFamily, window: Window, up: bool, value) -> List[int]:
    """Transitions n beyond the window on one side with n(n+2) equal to value."""
    lo, hi = window
    return [
        m
        for m in _integer_weight_solutions(value)
        if (m > hi if up else m < lo) and module.weights.has_transition(m)
    ]


def _tail_violations(module: HCModuleFamily, window: Window, up: bool) -> List[Violation]:
    where = "tail-up" if up else "tail-down"
    unit_on, slope, _, partner_bound = _tail_bounds(module, up)
    if abs(slope) > 1:
        return [Violation(where, "tail degree slope exceeds one per step")]
    c1, c0, cm1 = module.casimir
    out: List[Violation] = []
    # q_n identically zero somewhere in the tail?
    if c1.is_zero() and cm1.is_zero():
        for m in _tail_transitions(module, window, up, c0):
            out.append(Violation(where, f"q_n vanishes identically at tail transition n={m}"))
    if partner_bound <= 0:
        out.append(
            Violation(
                where,
                f"tail rule puts the unit on {unit_on} but its partner needs "
                f"degree <= {partner_bound}, impossible for a whole tail",
            )
        )
    elif partner_bound == 1 and not c1.is_zero():
        out.append(
            Violation(where, "tail degree bound 1 requires the z-coefficient c1 = 0")
        )
    return out


# ---------------------------------------------------------------------------
# Degrees lemma
# ---------------------------------------------------------------------------


def degrees_lemma_check(module: HCModuleFamily, window: Window = DEFAULT_WINDOW) -> bool:
    """Descending steps force constant nonzero A_n; ascending force B_n."""
    _require_valid(module, window)
    for n in module.weights.transitions_in(window):
        A, B, _ = module.transition(n)
        step = module.degrees.step(n)
        if step == -1 and not (A.degree() == 0 and not A.is_zero()):
            return False
        if step == 1 and not (B.degree() == 0 and not B.is_zero()):
            return False
    # No tail check: where degrees move, a unit bound of two leaves the partner zero, which validate rejects.
    return True


def _require_valid(module: HCModuleFamily, window: Window):
    report = validate(module, window)
    if not report.ok:
        raise NotValidated(
            "module fails validation: "
            + "; ".join(v.message for v in report.violations[:3])
        )


# ---------------------------------------------------------------------------
# Fibers
# ---------------------------------------------------------------------------


def _scalar_at(poly: LaurentPoly, p: Point, bound: int) -> GaussianRational:
    if poly.is_zero():
        return QI_ZERO
    if p is INFINITY:
        return poly.leading_coeff() if poly.degree() == bound else QI_ZERO
    return poly.evaluate(GaussianRational._coerce(p))


def _fiber_scalars(
    module: HCModuleFamily, p: Point, window: Window
) -> Dict[int, Tuple[GaussianRational, GaussianRational]]:
    """Transition scalars {n: (a_n, b_n)} of the fiber at p, over the window,
    for a module already validated on it.

    At interior points these are plain evaluations (the local basis at 0 is
    f_n, X, zY); at infinity a polynomial contributes its leading coefficient
    exactly when its degree attains the degree bound.  Transitions without an
    override are read in closed form in n: the unit u and q_n(p) / (4u).
    """
    if p is not INFINITY:
        p = GaussianRational._coerce(p)
        base = module.q_poly(0).evaluate(p)  # q_n(p) = base - n(n+2) p
    t = module.transitions
    out = {}
    for n in module.weights.transitions_in(window):
        ba, bb = module.degree_bounds(n)
        if t.override_for(n) is not None:
            A, B, _ = module.transition(n)
            out[n] = (_scalar_at(A, p, ba), _scalar_at(B, p, bb))
            continue
        rule = t.rule_for(n)
        unit_bound, partner_bound = (ba, bb) if rule.unit_on == "A" else (bb, ba)
        if p is INFINITY:  # the unit attains a bound of 0; deg q_n the partner's
            dq, lead = module.q_lead(n)
            unit = rule.value if unit_bound == 0 else QI_ZERO
            pair = (unit, lead * rule.partner_scale if dq == partner_bound else QI_ZERO)
        else:
            pair = (rule.value, (base - p * (n * (n + 2))) * rule.partner_scale)
        out[n] = pair if rule.unit_on == "A" else pair[::-1]
    return out


def _tail_vanishing(module: HCModuleFamily, p: Point, window: Window, up: bool) -> list:
    """The tail transition scalars beyond the window that vanish at p, as
    (side, n, 'A' or 'B'), with n None where all of that tail's transitions
    vanish (closed form in n)."""
    w = module.weights
    if not (w.unbounded_above if up else w.unbounded_below):
        return []
    side = "up" if up else "down"
    c1, c0, cm1 = module.casimir
    unit_on, _, unit_bound, _ = _tail_bounds(module, up)
    partner = "B" if unit_on == "A" else "A"
    if p is INFINITY:
        # The constant unit attains its bound iff that bound is zero; the
        # partner bound is then two, attained by deg q_n = 2 iff c1 != 0.
        zero = unit_on if unit_bound != 0 else partner if c1.is_zero() else None
        return [(side, None, zero)] if zero else []
    p = GaussianRational._coerce(p)
    if p.is_zero():
        # q_n(0) = c_{-1} for every n.
        return [(side, None, partner)] if cm1.is_zero() else []
    # q_n(p) = 0  <=>  n(n+2) = (c1 p^2 + c0 p + cm1) / p.
    value = (c1 * p * p + c0 * p + cm1) / p
    return [(side, m, partner) for m in _tail_transitions(module, window, up, value)]


@dataclass
class FiberVerdict:
    """Irreducibility of the fiber at a point, with the window's transition
    scalars {n: (a_n, b_n)} as :func:`_fiber_scalars` gives them."""

    irreducible: bool
    scalars: Dict[int, Tuple[GaussianRational, GaussianRational]]
    tail: list  # the vanishing tail scalars, as _tail_vanishing gives them

    def __bool__(self):
        return self.irreducible


def _fiber_verdict(module: HCModuleFamily, p: Point, window: Window) -> FiberVerdict:
    """:func:`fiber_irreducible` for a module already validated on the window."""
    scalars = _fiber_scalars(module, p, window)
    tail = _tail_vanishing(module, p, window, up=True) + _tail_vanishing(module, p, window, up=False)
    reducible = bool(tail) or any(a.is_zero() or b.is_zero() for a, b in scalars.values())
    return FiberVerdict(not reducible, scalars, tail)


def fiber_irreducible(
    module: HCModuleFamily, p: Point, window: Window = DEFAULT_WINDOW
) -> FiberVerdict:
    """Transition-scalar irreducibility criterion for the fiber at p.

    A weight-supported proper invariant subspace exists iff some transition
    scalar vanishes; the explicit window is scanned directly and the tails
    through the closed-form rules, so the verdict covers the whole weight set.
    The result is truthy iff the fiber is irreducible and carries the
    window's scalars.
    """
    _require_valid(module, window)
    return _fiber_verdict(module, p, window)


@dataclass
class ReducibleLocus:
    """Roots of the transition polynomials over a window, plus any boundary
    points whose fiber scalars vanish, plus quadratics that fail to split."""

    points: frozenset
    boundary: frozenset
    unsplit: tuple

    def all_points(self) -> frozenset:
        return self.points | self.boundary


def reducible_locus(module: HCModuleFamily, window: Window = DEFAULT_WINDOW) -> ReducibleLocus:
    _require_valid(module, window)
    points = set()
    unsplit = []
    t = module.transitions
    for n in module.weights.transitions_in(window):
        if t.override_for(n) is None:  # the unit has no roots, q_n / (4 * unit) those of q_n
            rule = t.rule_for(n)
            polys = [("B" if rule.unit_on == "A" else "A", module.q_poly(n), rule.partner_scale)]
        else:
            polys = [(which, poly, QI_ONE) for which, poly in zip("AB", module.transition(n))]
        for which, poly, scale in polys:
            try:
                points.update(poly_roots(poly))
            except UnsplitQuadratic:
                unsplit.append((n, which, poly.scale(scale)))
    boundary = {
        bp for bp in (GaussianRational(0), INFINITY) if not _fiber_verdict(module, bp, window)
    }
    return ReducibleLocus(frozenset(points), frozenset(boundary), tuple(unsplit))


# ---------------------------------------------------------------------------
# Isomorphism
# ---------------------------------------------------------------------------


@dataclass
class IsoResult:
    isomorphic: bool
    scalars: Dict[int, GaussianRational]
    obstruction: Optional[str] = None

    def __bool__(self):
        return self.isomorphic


def _proportionality(a: LaurentPoly, b: LaurentPoly) -> Optional[GaussianRational]:
    """The constant mu with b = mu * a, or None."""
    if a.is_zero() or b.is_zero():
        return None
    if set(a.coeffs) != set(b.coeffs):
        return None
    mu = b.leading_coeff() / a.leading_coeff()
    return mu if a.scale(mu) == b else None


def iso_check(
    m1: HCModuleFamily, m2: HCModuleFamily, window: Window = DEFAULT_WINDOW
) -> IsoResult:
    """Isomorphism of validated module families.

    Isomorphisms rescale the canonical sections, so the test is: equal
    weights, degree profiles, and Casimir triples, and per-transition scalars
    mu_n with A'_n = mu_n A_n and B'_n = mu_n^{-1} B_n.  Scalars are matched
    greedily from the smallest-magnitude weight upward.
    """
    _require_valid(m1, window)
    _require_valid(m2, window)
    if m1.weights != m2.weights:
        return IsoResult(False, {}, "weight sets differ")
    if not profiles_equal(m1.degrees, m2.degrees, m1.weights, window):
        return IsoResult(False, {}, "degree profiles differ")
    if m1.casimir != m2.casimir:
        return IsoResult(False, {}, "Casimir triples differ")
    w, t1, t2 = m1.weights, m1.transitions, m2.transitions
    if w.unbounded_above and t1.rule_up.unit_on != t2.rule_up.unit_on:
        return IsoResult(False, {}, "upper tail rules place units on different sides")
    if w.unbounded_below and t1.rule_down.unit_on != t2.rule_down.unit_on:
        return IsoResult(False, {}, "lower tail rules place units on different sides")
    scalars: Dict[int, GaussianRational] = {}
    for n in sorted(w.transitions_in(window), key=lambda n: (abs(n), n)):
        r1, r2 = t1.rule_for(n), t2.rule_for(n)
        if t1.override_for(n) is t2.override_for(n) is None and r1.unit_on == r2.unit_on:
            # (u, q_n / 4u) against (u', q_n / 4u'): mu_n takes u to u' on A, or
            # q_n / 4u to q_n / 4u' on A, and B then matches identically.
            scalars[n] = r2.value / r1.value if r1.unit_on == "A" else r1.value / r2.value
            continue
        A1, B1, _ = m1.transition(n)
        A2, B2, _ = m2.transition(n)
        mu = _proportionality(A1, A2)
        if mu is None or mu.is_zero():
            return IsoResult(False, scalars, f"A_{n} is not a scalar multiple")
        if B1.scale(mu.inverse()) != B2:
            return IsoResult(False, scalars, f"B_{n} does not match the scalar of A_{n}")
        scalars[n] = mu
    return IsoResult(True, scalars)


def picard_twist(module: HCModuleFamily, d: int, window: Window = DEFAULT_WINDOW) -> HCModuleFamily:
    """Tensor by a degree-d line bundle: shift every sheaf degree by d."""
    _require_valid(module, window)
    return replace(module, degrees=module.degrees.shifted(d))


def swap_transitions(
    module: HCModuleFamily, indices, window: Window = DEFAULT_WINDOW
) -> HCModuleFamily:
    """Exchange A_n with B_n at the given equal-degree transition indices."""
    _require_valid(module, window)
    t = module.transitions
    for n in indices:
        if module.degrees.step(n) != 0:
            raise DegreeBoundViolated(f"transition {n} does not have equal degrees")
        A, B, _ = module.transition(n)
        if A.degree() > 1 or B.degree() > 1:
            raise DegreeBoundViolated(f"transition {n} polynomials exceed degree one")
        t = t.with_override(n, B, A)
    out = replace(module, transitions=t)
    _require_valid(out, window)
    return out
