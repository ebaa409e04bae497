"""The sl(2) contraction family and its canonical rational sections.

Over the z-chart the family has the regular basis (h, x, y) with
[h, x] = 2x, [h, y] = -2y, [x, y] = z h; over the w-chart (w = 1/z) the same
relations with w in place of z.  The canonical weight-homogeneous sections

    H = h,   X = x,   Y = z^{-1} y          (z-chart coordinates)
    H = h,   X = w^{-1} x,  Y = y           (w-chart coordinates)

satisfy the genuine sl(2) relations [H, X] = 2X, [H, Y] = -2Y, [X, Y] = H at
every interior point, at the cost of poles: X and Y each span a degree -1
invertible subsheaf, H a degree 0 one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from .scalars import (
    GaussianRational,
    LaurentPoly,
    RationalFunction,
    RF_ONE,
    RF_Z,
    RF_ZERO,
)
from .liefam import (
    FamilyMorphism,
    Involution,
    LieFamily,
    base_change,
    constant_family,
    contraction_family,
    deformation_family,
    gl2_algebra,
    homomorphism_witness,
    sl2_algebra,
)
from . import hcmod


@dataclass(frozen=True)
class Section:
    """A rational section of the family, in both charts' regular bases, as
    sparse vectors {k: c} of nonzero coordinates."""

    name: str
    weight: int
    z_coords: Dict[int, RationalFunction]
    w_coords: Dict[int, RationalFunction]

    def degree(self) -> int:
        """Degree of the invertible sheaf the section spans: the sum of its
        orders of vanishing over every point of the projective line."""
        total = 0
        for f in self.z_coords.values():
            # Sum of finite-point orders of a rational function is
            # deg(num) - deg(den), each finite root counted once.
            total += f.num.degree() - f.den.degree()
        for f in self.w_coords.values():
            total += f.ord_at(GaussianRational(0))  # order at w = 0, i.e. infinity
        return total


@dataclass(frozen=True)
class Sl2ContractionPair:
    """The contraction family of (sl2, SO(2)-ish torus) with its canonical
    sections and the Casimir section."""

    family: LieFamily
    H: Section
    X: Section
    Y: Section


def sl2_involution() -> Involution:
    """The involution fixing h and negating x, y (adjoint of diag(1, -1))."""
    return Involution.from_matrix(
        sl2_algebra(),
        [[1, 0, 0], [0, -1, 0], [0, 0, -1]],
    )


def gl2_involution() -> Involution:
    """Conjugation by diag(1, -1) on gl(2): fixes the diagonal units E11, E22
    and negates E12, E21."""
    return Involution.from_matrix(
        gl2_algebra(),
        [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, -1, 0], [0, 0, 0, 1]],
    )


def sl2_morphism_presets() -> dict:
    """name -> (phi, source, target) for three maps between sl(2) families:
    the identity from the deformation to the contraction pulled back along
    z -> z^2, the p-scaling diag(1, z, z) from the deformation into the
    constant family, and the identity from the contraction to the
    deformation, which is not a morphism."""
    alg, theta = sl2_algebra(), sl2_involution()
    con = contraction_family(alg, theta)
    def_ = deformation_family(alg, theta)
    return {
        "pullback-deformation": (FamilyMorphism.identity(3), def_, base_change(con, LaurentPoly.monomial(2))),
        "p-scaling-embedding": (FamilyMorphism.diagonal([RF_ONE, RF_Z, RF_Z]), def_, constant_family(alg)),
        "identity-contraction-deformation": (FamilyMorphism.identity(3), con, def_),
    }


def build_sl2_contraction() -> Sl2ContractionPair:
    family = contraction_family(sl2_algebra(), sl2_involution())
    zinv = RF_ONE / RF_Z
    winv_in_w = RF_ONE / RF_Z  # coordinate functions of the w-chart reuse z
    H = Section("H", 0, {0: RF_ONE}, {0: RF_ONE})
    X = Section("X", 2, {1: RF_ONE}, {1: winv_in_w})
    Y = Section("Y", -2, {2: zinv}, {2: RF_ONE})
    pair = Sl2ContractionPair(family, H, X, Y)
    err = _relations_counterexample(pair)
    if err is not None:
        raise AssertionError(f"canonical sections violate sl(2) relations: {err}")
    return pair


_RELATIONS = {(0, 1): "[H,X]=2X", (0, 2): "[H,Y]=-2Y", (1, 2): "[X,Y]=H"}


def _relations_counterexample(pair: Sl2ContractionPair) -> Optional[str]:
    """Check [H,X]=2X, [H,Y]=-2Y, [X,Y]=H in both charts: that the map from
    sl(2) sending (H, X, Y) to the sections is a homomorphism in each chart."""
    sl2, fam, sections = constant_family(sl2_algebra()).constants, pair.family, (pair.H, pair.X, pair.Y)
    for chart, constants in (("z", fam.constants), ("w", fam.w_constants)):
        images = [s.z_coords if chart == "z" else s.w_coords for s in sections]
        bad = homomorphism_witness(images, sl2, constants, RF_ZERO)
        if bad is not None:
            return f"{_RELATIONS[bad[:2]]} in {chart}-chart"
    return None


# ---------------------------------------------------------------------------
# The Casimir section
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CasimirSection:
    """C = H^2 + 2H + 4YX (equivalently H^2 - 2H + 4XY), a section of the
    enveloping-algebra sheaf with a first-order pole at 0 and at infinity."""

    ord_at_zero: int
    ord_at_infinity: int


def casimir_section(pair: Sl2ContractionPair) -> CasimirSection:
    """Orders of the Casimir at the two degenerate points, computed from the
    coefficient functions of its terms in the local regular bases."""
    # z-chart: C = h^2 + 2h + 4 z^{-1} y x; minimum term order at z = 0.
    yx_coeff_z = pair.Y.z_coords[2] * pair.X.z_coords[1]
    ord0 = min(0, yx_coeff_z.ord_at(GaussianRational(0)))
    # w-chart: C = h^2 + 2h + 4 w^{-1} y x; minimum term order at w = 0.
    yx_coeff_w = pair.Y.w_coords[2] * pair.X.w_coords[1]
    ordinf = min(0, yx_coeff_w.ord_at(GaussianRational(0)))
    return CasimirSection(ord0, ordinf)


class WeightMissing(Exception):
    pass


def casimir_acting_function(module: "hcmod.HCModuleFamily", n: int) -> RationalFunction:
    """The rational function by which the Casimir acts on the weight-n line.

    Computed with the ordering H^2 + 2H + 4YX through the transition above n
    when it exists, else with the reordered H^2 - 2H + 4XY through the one
    below.  Both read a transition m as m(m+2) + 4 A_m B_m z^{-1}: at n = m
    through H^2 + 2H = n(n+2), at n = m + 2 through H^2 - 2H = n(n-2).
    """
    w = module.weights
    if not w.contains(n):
        raise WeightMissing(f"weight {n} is not in the module")
    if w.has_transition(n):
        m = n
    elif w.has_transition(n - 2):
        m = n - 2
    else:
        # Isolated weight: both X and Y act by zero.
        return RationalFunction.constant(GaussianRational(n * n + 2 * n))
    # m(m+2) + 4 A_m B_m z^{-1} as one Laurent polynomial; the constructor
    # clears the negative exponent.
    A, B = module.transition_polys(m)
    return RationalFunction((A * B).scale(4).shift(-1) + m * (m + 2))
