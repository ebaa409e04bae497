"""Classification of generically irreducible module families.

Four classes of degree profiles occur:

  I(k):  a single maximal degree at weight k, both tails descending;
  II(k): a single minimal degree at weight k, both tails ascending;
  III:   degrees ascend with the weight everywhere (deg F_n = floor(n/2));
  IV:    degrees descend with the weight everywhere (deg F_n = -floor(n/2)).

For each admissible Casimir triple and weight set there is exactly one family
per applicable class up to isomorphism; ``uniqueness_probe`` stress-tests
that by rescaling the canonical sections randomly and checking the result is
isomorphic to the canonical construction.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Optional, Tuple

from .scalars import DomainError, GaussianRational, LaurentPoly
from . import hcmod
from .hcmod import (
    Casimir,
    DegreeProfile,
    HCModuleFamily,
    TailRule,
    TransitionData,
    WeightSet,
    Window,
    DEFAULT_WINDOW,
    casimir_triple,
    iso_check,
    validate,
)


class InadmissibleCasimir(DomainError):
    pass


class IncompatibleClass(DomainError):
    pass


@dataclass(frozen=True)
class ClassSpec:
    kind: str  # 'I' | 'II' | 'III' | 'IV' | 'EQUAL'
    k: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("I", "II", "III", "IV", "EQUAL"):
            raise ValueError(f"unknown class {self.kind!r}")
        if self.kind in ("I", "II") and self.k is None:
            raise ValueError(f"class {self.kind} needs an extremal weight k")

    def __str__(self):
        return self.kind if self.k is None else f"{self.kind}({self.k})"


@dataclass
class AdmissibilityVerdict:
    ok: bool
    reason: str = ""

    def __bool__(self):
        return self.ok


def _forced_casimir(weights: WeightSet) -> Optional[Casimir]:
    """Extreme weight sets admit exactly one Casimir triple."""
    if weights.kind in ("lowest", "highest"):
        l = abs(weights.param)
        return casimir_triple(0, l * l - 2 * l, 0)
    if weights.kind == "finite":
        k = weights.param
        return casimir_triple(0, k * k + 2 * k, 0)
    return None


def admissible_casimir(weights: WeightSet, casimir: Casimir) -> AdmissibilityVerdict:
    """Whether the Casimir triple admits a generically irreducible family on
    the given weight set."""
    casimir = casimir_triple(*casimir)
    forced = _forced_casimir(weights)
    if forced is not None:
        if casimir == forced:
            return AdmissibilityVerdict(True)
        return AdmissibilityVerdict(
            False,
            f"weight set {weights.kind}({weights.param}) forces the Casimir "
            f"triple {tuple(str(c) for c in forced)}",
        )
    c1, c0, cm1 = casimir
    if c1.is_zero() and cm1.is_zero():
        for m in hcmod._integer_weight_solutions(c0):
            if m % 2 == weights.parity:
                return AdmissibilityVerdict(
                    False,
                    f"constant Casimir value {c0} equals n(n+2) at weight n={m}, "
                    "so q_n vanishes identically there",
                )
    return AdmissibilityVerdict(True)


def _class_data(cls: ClassSpec, weights: WeightSet) -> Tuple[DegreeProfile, TransitionData]:
    """The degree profile and the tail rules, with unit 1, of a class."""
    a, u = weights.anchor_weight(), GaussianRational(1)
    if cls.kind == "I":
        # Degrees descend away from k: constant A above, constant B below.
        return DegreeProfile(cls.k, 0, -1, -1), TransitionData(cls.k, TailRule("A", u), TailRule("B", u))
    if cls.kind == "II":
        return DegreeProfile(cls.k, 0, 1, 1), TransitionData(cls.k, TailRule("B", u), TailRule("A", u))
    if cls.kind == "III":
        # deg F_n = floor(n/2), written with an anchor in the weight set.
        return DegreeProfile(a, a // 2, 1, -1), TransitionData(a, TailRule("B", u), TailRule("B", u))
    if cls.kind == "IV":
        return DegreeProfile(a, -(a // 2), -1, 1), TransitionData(a, TailRule("A", u), TailRule("A", u))
    raise IncompatibleClass("equal-degree profiles lie outside classes I-IV")


def construct(weights: WeightSet, cls: ClassSpec, casimir: Casimir) -> HCModuleFamily:
    """The canonical family of the given class, weight set and Casimir."""
    casimir = casimir_triple(*casimir)
    verdict = admissible_casimir(weights, casimir)
    if not verdict:
        raise InadmissibleCasimir(verdict.reason)
    if cls.kind in ("I", "II"):
        if not weights.contains(cls.k):
            raise IncompatibleClass(
                f"extremal weight {cls.k} lies outside the weight set"
            )
    module = HCModuleFamily(weights, *_class_data(cls, weights), casimir)
    report = validate(module)
    if not report.ok:
        raise IncompatibleClass(
            f"class {cls} is incompatible with this weight set and Casimir: " + report.summary()
        )
    return module


def classification_report(weights: WeightSet, cls: ClassSpec) -> dict:
    """Moduli description: which Casimir triples occur and how many families
    each supports."""
    forced = _forced_casimir(weights)
    if forced is not None:
        return {
            "weights": weights.to_json(),
            "class": str(cls),
            "casimir_moduli": "single point",
            "casimir": [str(c) for c in forced],
            "families_per_casimir": 1,
        }
    return {
        "weights": weights.to_json(),
        "class": str(cls),
        "casimir_moduli": "all triples (c1, c0, c-1) except constant ones "
        "with c0 = n(n+2) for a weight n of this parity",
        "excluded": f"c1 = c-1 = 0 and c0 in {{n(n+2) : n parity {weights.parity}}}",
        "families_per_casimir": 1,
    }


@dataclass
class ProbeResult:
    status: str  # 'pass' | 'fail' | 'inapplicable'
    trials: int = 0
    detail: str = ""

    def __bool__(self):
        return self.status == "pass"


def _random_unit(rng: random.Random) -> GaussianRational:
    while True:
        g = GaussianRational(rng.randint(-5, 5), rng.randint(-2, 2))
        if not g.is_zero():
            return g


def uniqueness_probe(
    weights: WeightSet,
    cls: ClassSpec,
    casimir: Casimir,
    trials: int = 25,
    seed: int = 0,
    window: Window = DEFAULT_WINDOW,
) -> ProbeResult:
    """Randomized check that the class determines the family up to
    isomorphism: rescaling each canonical section by a random nonzero scalar
    must land back in the same isomorphism class.  ``trials`` must be at
    least 1: zero trials would be a pass that checked nothing."""
    if trials < 1:
        raise ValueError(f"uniqueness_probe needs trials >= 1, got {trials}")
    if cls.kind == "EQUAL":
        return ProbeResult(
            "inapplicable",
            0,
            "equal-degree profiles admit genuinely non-isomorphic variants; "
            "the probe only applies to classes I-IV",
        )
    canonical = construct(weights, cls, casimir)
    rng = random.Random(seed)
    t = canonical.transitions  # canonical: no overrides, so the ascending window's are sorted
    qs = [(n, canonical.q_poly(n), t.rule_for(n).unit_on == "A") for n in canonical.weights.transitions_in(window)]
    for trial in range(trials):
        overrides = []
        for n, q, unit_on_a in qs:
            u = _random_unit(rng)
            pair = (LaurentPoly.constant(u), q.scale((GaussianRational(4) * u).inverse()))
            overrides.append((n, *(pair if unit_on_a else pair[::-1])))
        variant = replace(canonical, transitions=replace(t, overrides=tuple(overrides)))
        result = iso_check(canonical, variant)
        if not result:
            return ProbeResult(
                "fail", trial + 1, f"trial {trial}: {result.obstruction}"
            )
    return ProbeResult("pass", trials)
