"""Algebraic families of Lie algebras over the line.

A family is a free module of finite rank over the Laurent ring with bracket
given by structure constants that are rational functions of the chart
coordinate.  Families are stored chartwise: the main chart is ``affine-z``
(coordinate z near 0) and a family may carry companion constants in the
coordinate w = 1/z, giving the fiber at infinity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .linalg import ExactMatrix, Span, echelon_basis, kernel, structure_constants
from .linalg import _flatten, _mat_add, _mat_mul, _mat_sub, _unit_vectors
from .scalars import (
    INFINITY,
    GaussianRational,
    LaurentPoly,
    Point,
    PoleAtPoint,
    QI_ONE,
    QI_ZERO,
    RationalFunction,
    RF_ONE,
    RF_ZERO,
)


class NotALieAlgebra(Exception):
    pass


class NotASubalgebra(Exception):
    pass


class InvalidInvolution(Exception):
    pass


# ---------------------------------------------------------------------------
# Constant-fiber Lie algebras over Q(i)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LieAlgebra:
    """A finite-dimensional Lie algebra over Q(i) given by structure constants.

    ``constants[i][j]`` is the coordinate vector of [e_i, e_j].
    """

    labels: tuple
    constants: tuple  # d x d x d GaussianRational

    @property
    def rank(self) -> int:
        return len(self.labels)

    @staticmethod
    def from_constants(labels: Sequence[str], constants) -> "LieAlgebra":
        d = len(labels)
        tbl = tuple(
            tuple(
                tuple(GaussianRational._coerce(constants[i][j][k]) for k in range(d))
                for j in range(d)
            )
            for i in range(d)
        )
        bad = jacobi_witness(tbl, QI_ONE, QI_ZERO)
        if bad is not None:
            i, j, k, _ = bad
            if k is None:
                raise NotALieAlgebra(f"structure constants not antisymmetric at ({i},{j})")
            raise NotALieAlgebra(f"Jacobi fails on basis triple {(i, j, k)}")
        return LieAlgebra(tuple(labels), tbl)

    def bracket(self, u: Sequence, v: Sequence) -> list:
        return bracket_with(self.constants, u, v, QI_ZERO)

    def jacobi_counterexample(self):
        return jacobi_witness(self.constants, QI_ONE, QI_ZERO)


def bracket_with(constants, u: Sequence, v: Sequence, zero) -> list:
    """[u, v] in coordinates, where ``constants[i][j]`` is the coordinate
    vector of [e_i, e_j] and ``zero`` is the zero of the coefficient field."""
    d = len(constants)
    out = [zero] * d
    for i in range(d):
        if u[i].is_zero():
            continue
        for j in range(d):
            if v[j].is_zero():
                continue
            f = u[i] * v[j]
            for k in range(d):
                c = constants[i][j][k]
                if not c.is_zero():
                    out[k] = out[k] + f * c
    return out


def jacobi_witness(constants, one, zero):
    """None when the structure constants are antisymmetric and satisfy Jacobi.

    Otherwise the first failure: ``(i, j, None, "antisymmetry fails")`` when
    [e_i, e_j] != -[e_j, e_i], else ``(i, j, k, residual)`` for the first basis
    triple whose Jacobi sum ``residual`` is nonzero.
    """
    d = len(constants)
    for i in range(d):
        for j in range(d):
            for k in range(d):
                if constants[i][j][k] != -constants[j][i][k]:
                    return (i, j, None, "antisymmetry fails")
    basis = _unit_vectors(d, one, zero)

    def br(u, v):
        return bracket_with(constants, u, v, zero)

    for i in range(d):
        for j in range(i + 1, d):
            for k in range(j + 1, d):
                res = br(basis[i], br(basis[j], basis[k]))
                t2 = br(basis[j], br(basis[k], basis[i]))
                t3 = br(basis[k], br(basis[i], basis[j]))
                res = [a + b + c for a, b, c in zip(res, t2, t3)]
                if any(not x.is_zero() for x in res):
                    return (i, j, k, res)
    return None


def sl2_algebra() -> LieAlgebra:
    """sl(2) in the basis (H, X, Y): [H,X]=2X, [H,Y]=-2Y, [X,Y]=H."""
    d = 3
    c = [[[QI_ZERO] * d for _ in range(d)] for _ in range(d)]
    H, X, Y = 0, 1, 2

    def put(i, j, k, v):
        c[i][j][k] = GaussianRational(v)
        c[j][i][k] = GaussianRational(-v)

    put(H, X, X, 2)
    put(H, Y, Y, -2)
    put(X, Y, H, 1)
    return LieAlgebra.from_constants(("H", "X", "Y"), c)


def abelian_algebra(d: int) -> LieAlgebra:
    c = [[[QI_ZERO] * d for _ in range(d)] for _ in range(d)]
    return LieAlgebra.from_constants(tuple(f"e{i}" for i in range(d)), c)


def matrix_algebra(labels: Sequence[str], mats: Sequence) -> LieAlgebra:
    """Lie algebra of a linearly independent family of square matrices.

    ``mats`` are nested lists of GaussianRational; the commutator of any two
    must lie in their span.
    """
    span = Span([_flatten(m) for m in mats])
    if span.rank != len(mats):
        raise ValueError("matrix basis is linearly dependent")

    def commutator(i, j):
        a, b = mats[i], mats[j]
        return _flatten(_mat_sub(_mat_mul(a, b), _mat_mul(b, a)))

    constants = structure_constants(
        span,
        commutator,
        lambda i, j: NotASubalgebra(f"commutator of basis elements {i},{j} escapes the span"),
    )
    return LieAlgebra.from_constants(labels, constants)


def gl2_algebra() -> LieAlgebra:
    """gl(2) in the elementary-matrix basis (E11, E12, E21, E22)."""
    z, o = QI_ZERO, QI_ONE
    mats = [
        [[o, z], [z, z]],
        [[z, o], [z, z]],
        [[z, z], [o, z]],
        [[z, z], [z, o]],
    ]
    return matrix_algebra(("E11", "E12", "E21", "E22"), mats)


# ---------------------------------------------------------------------------
# Involutions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Involution:
    """An involutive automorphism of a constant-fiber Lie algebra.

    Carries the eigenspace decomposition g = k + p, with the indices of an
    adapted basis (fixed vectors first is not required; order follows the
    eigenvector solve).
    """

    algebra: LieAlgebra
    matrix: ExactMatrix
    k_vectors: tuple  # coordinate vectors spanning the +1 eigenspace
    p_vectors: tuple  # coordinate vectors spanning the -1 eigenspace

    @staticmethod
    def from_matrix(algebra: LieAlgebra, matrix) -> "Involution":
        d = algebra.rank
        m = matrix if isinstance(matrix, ExactMatrix) else ExactMatrix(
            [[GaussianRational._coerce(x) for x in row] for row in matrix]
        )
        if m.rows != d or m.cols != d:
            raise InvalidInvolution("matrix size does not match the algebra")
        eye = _unit_vectors(d, QI_ONE, QI_ZERO)
        if m.matmul(m).entries != eye:
            raise InvalidInvolution("matrix squared is not the identity")
        for i in range(d):
            for j in range(d):
                lhs = m.matvec(algebra.bracket(eye[i], eye[j]))
                rhs = algebra.bracket(m.matvec(eye[i]), m.matvec(eye[j]))
                if lhs != rhs:
                    raise InvalidInvolution("matrix is not a Lie automorphism")
        k_vecs = kernel(ExactMatrix(_mat_sub(m.entries, eye)), QI_ONE, QI_ZERO)
        p_vecs = kernel(ExactMatrix(_mat_add(m.entries, eye)), QI_ONE, QI_ZERO)
        if len(k_vecs) + len(p_vecs) != d:
            raise InvalidInvolution("eigenspaces do not span")
        return Involution(algebra, m, tuple(map(tuple, k_vecs)), tuple(map(tuple, p_vecs)))

    @staticmethod
    def identity(algebra: LieAlgebra) -> "Involution":
        return Involution.from_matrix(algebra, _unit_vectors(algebra.rank, QI_ONE, QI_ZERO))


def ad_diag_involution(algebra: LieAlgebra, mats: Sequence, diag: Sequence) -> Involution:
    """Involution Ad(diag(...)) of a matrix Lie algebra with basis ``mats``."""
    d = algebra.rank
    n = len(diag)
    g = [[GaussianRational._coerce(diag[i]) if i == j else QI_ZERO for j in range(n)] for i in range(n)]
    ginv = [
        [GaussianRational._coerce(diag[i]).inverse() if i == j else QI_ZERO for j in range(n)]
        for i in range(n)
    ]
    span = Span([_flatten(m) for m in mats])
    cols = []
    for m in mats:
        im = _mat_mul(_mat_mul(g, m), ginv)
        coords = span.coordinates(_flatten(im))
        if coords is None:
            raise InvalidInvolution("Ad(diag) does not preserve the span")
        cols.append(coords)
    theta = ExactMatrix([[cols[j][i] for j in range(d)] for i in range(d)])
    return Involution.from_matrix(algebra, theta)


# ---------------------------------------------------------------------------
# Families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LieFamily:
    """A rank-d family with rational-function structure constants in one chart.

    ``w_constants``, when present, give the same family in the coordinate
    w = 1/z near infinity, with ``transition`` the diagonal change of basis
    (as powers of z) between the two trivializations on the overlap.
    """

    labels: tuple
    constants: tuple  # d x d x d RationalFunction in the chart coordinate
    chart: str = "affine-z"
    w_constants: Optional[tuple] = None
    transition_powers: Optional[tuple] = None  # z^a_i scaling basis vector i

    @property
    def rank(self) -> int:
        return len(self.labels)

    def bracket(self, u: Sequence[RationalFunction], v: Sequence[RationalFunction]) -> list:
        return bracket_with(self.constants, u, v, RF_ZERO)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        triples = []
        d = self.rank
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    c = self.constants[i][j][k]
                    if not c.is_zero():
                        triples.append({"i": i, "j": j, "k": k, "c": c.to_json()})
        return {
            "rank": d,
            "labels": list(self.labels),
            "chart": self.chart,
            "constants": triples,
        }

    @staticmethod
    def from_json(data: dict) -> "LieFamily":
        d = data["rank"]
        tbl = [[[RF_ZERO] * d for _ in range(d)] for _ in range(d)]
        for t in data["constants"]:
            tbl[t["i"]][t["j"]][t["k"]] = RationalFunction.from_json(t["c"])
        return LieFamily(
            labels=tuple(data["labels"]),
            constants=_freeze(tbl),
            chart=data.get("chart", "affine-z"),
        )


def _freeze(tbl) -> tuple:
    return tuple(tuple(tuple(row) for row in plane) for plane in tbl)


def _adapted_constants(theta: Involution):
    """Structure constants in the eigenbasis k then p, over Q(i)."""
    alg = theta.algebra
    basis = list(theta.k_vectors) + list(theta.p_vectors)
    tbl = structure_constants(
        Span(basis),
        lambda i, j: alg.bracket(basis[i], basis[j]),
        lambda i, j: InvalidInvolution("bracket escapes the adapted basis span"),
    )
    labels = tuple(f"k{i}" for i in range(len(theta.k_vectors))) + tuple(
        f"p{i}" for i in range(len(theta.p_vectors))
    )
    return labels, tbl, len(theta.k_vectors)


def _scaled_family(theta: Involution, power: int) -> LieFamily:
    """Family with bracket scaled by z^power exactly on the p x p part."""
    labels, tbl, nk = _adapted_constants(theta)
    d = len(labels)
    z_pow = RationalFunction.monomial(power)
    w_pow = z_pow  # same monomial in the w coordinate
    z_tbl = [[[None] * d for _ in range(d)] for _ in range(d)]
    w_tbl = [[[None] * d for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for j in range(d):
            on_pp = i >= nk and j >= nk
            for k in range(d):
                base = RationalFunction.constant(tbl[i][j][k])
                z_tbl[i][j][k] = base * z_pow if on_pp else base
                w_tbl[i][j][k] = base * w_pow if on_pp else base
    powers = tuple(0 if i < nk else power for i in range(d))
    return LieFamily(
        labels=labels,
        constants=_freeze(z_tbl),
        chart="affine-z",
        w_constants=_freeze(w_tbl),
        transition_powers=powers,
    )


def constant_family(algebra: LieAlgebra) -> LieFamily:
    d = algebra.rank
    tbl = [
        [
            [RationalFunction.constant(algebra.constants[i][j][k]) for k in range(d)]
            for j in range(d)
        ]
        for i in range(d)
    ]
    frozen = _freeze(tbl)
    return LieFamily(
        labels=algebra.labels,
        constants=frozen,
        chart="affine-z",
        w_constants=frozen,
        transition_powers=tuple(0 for _ in range(d)),
    )


def scaled_bracket_family(algebra: LieAlgebra, m: int = 1) -> LieFamily:
    """All brackets multiplied by z^m; the fiber at 0 is abelian."""
    if m <= 0:
        raise ValueError("exponent must be positive")
    d = algebra.rank
    z_pow = RationalFunction.monomial(m)
    tbl = [
        [
            [RationalFunction.constant(algebra.constants[i][j][k]) * z_pow for k in range(d)]
            for j in range(d)
        ]
        for i in range(d)
    ]
    frozen = _freeze(tbl)
    # w-chart bracket is w^m[,]; the gluing rescales every basis vector by
    # z^{2m} so that c_w(1/z) = c_z * z^{-2m}.
    return LieFamily(
        labels=algebra.labels,
        constants=frozen,
        chart="affine-z",
        w_constants=frozen,
        transition_powers=tuple(2 * m for _ in range(d)),
    )


def contraction_family(algebra: LieAlgebra, theta: Involution) -> LieFamily:
    """Bracket scaled by z on the p x p part of the Cartan decomposition.

    With the degenerate involution (p = 0) this is the constant family.
    """
    if theta.algebra is not algebra and theta.algebra != algebra:
        raise InvalidInvolution("involution belongs to a different algebra")
    if not theta.p_vectors:
        return constant_family(algebra)
    return _scaled_family(theta, 1)


def deformation_family(algebra: LieAlgebra, theta: Involution) -> LieFamily:
    """The z^2-bracket normal form of the deformation to the normal cone.

    The subalgebra k is the fixed space of ``theta``; its complement p is the
    -1 eigenspace.
    """
    if not theta.p_vectors:
        return constant_family(algebra)
    return _scaled_family(theta, 2)


def base_change(family: LieFamily, psi: LaurentPoly) -> LieFamily:
    """Pull the family back along the polynomial map z -> psi(z)."""
    if not isinstance(psi, LaurentPoly) or not psi.is_ordinary():
        raise ValueError("base change map must be an ordinary polynomial")
    if psi.degree() < 1:
        raise ValueError("base change map must be nonconstant")
    rf_psi = RationalFunction(psi)
    d = family.rank
    tbl = [
        [
            [family.constants[i][j][k].compose(rf_psi) for k in range(d)]
            for j in range(d)
        ]
        for i in range(d)
    ]
    return LieFamily(
        labels=family.labels,
        constants=_freeze(tbl),
        chart=family.chart,
    )


def jacobi_check(family: LieFamily):
    """None when Jacobi holds as a rational-function identity; otherwise the
    first failure in the form of :func:`jacobi_witness`."""
    return jacobi_witness(family.constants, RF_ONE, RF_ZERO)


def fiber(family: LieFamily, p: Point) -> LieAlgebra:
    """The fiber Lie algebra at a point of the projective line.

    At infinity the companion w-chart constants are used (fiber at w = 0).
    """
    if p is INFINITY:
        if family.w_constants is None:
            raise PoleAtPoint("family has no chart at infinity")
        constants = family.w_constants
        at = GaussianRational(0)
    else:
        constants = family.constants
        at = GaussianRational._coerce(p)
    d = family.rank
    tbl = [
        [[constants[i][j][k].evaluate(at) for k in range(d)] for j in range(d)]
        for i in range(d)
    ]
    return LieAlgebra.from_constants(family.labels, tbl)


def fiber_invariants(algebra: LieAlgebra) -> dict:
    """Dimension of the derived algebra and center, and solvability."""
    d = algebra.rank
    # center: v with [v, e_j] = 0 for all j
    ad_rows = []
    for j in range(d):
        for k in range(d):
            ad_rows.append([algebra.constants[i][j][k] for i in range(d)])
    center = kernel(ExactMatrix(ad_rows), QI_ONE, QI_ZERO)
    # Derived series: by bilinearity the brackets of any basis of a term span
    # the next term, so only an echelon basis of each term is bracketed.  The
    # series either reaches 0 (solvable) or stops shrinking (not solvable).
    current = _unit_vectors(d, QI_ONE, QI_ZERO)
    dims = []
    while current:
        nxt = echelon_basis(
            [algebra.bracket(u, v) for a, u in enumerate(current) for v in current[a + 1 :]]
        )
        dims.append(len(nxt))
        if len(nxt) == len(current):
            break
        current = nxt
    return {
        "dim_derived": dims[0] if dims else 0,
        "dim_center": len(center),
        "solvable": not current,
    }


@dataclass(frozen=True)
class FamilyMorphism:
    """A basis-to-basis map with rational-function entries."""

    matrix: ExactMatrix

    @staticmethod
    def identity(d: int) -> "FamilyMorphism":
        return FamilyMorphism(ExactMatrix(_unit_vectors(d, RF_ONE, RF_ZERO)))

    @staticmethod
    def diagonal(entries) -> "FamilyMorphism":
        d = len(entries)
        coerced = [RationalFunction._coerce(x) for x in entries]
        return FamilyMorphism(
            ExactMatrix(
                [[coerced[i] if i == j else RF_ZERO for j in range(d)] for i in range(d)]
            )
        )


def check_morphism(phi: FamilyMorphism, source: LieFamily, target: LieFamily):
    """None when phi commutes with brackets symbolically; else a witness."""
    if source.rank != target.rank:
        raise ValueError("rank mismatch")
    d = source.rank
    m = phi.matrix
    basis = _unit_vectors(d, RF_ONE, RF_ZERO)
    images = [m.matvec(basis[i]) for i in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            lhs = m.matvec(source.bracket(basis[i], basis[j]))
            rhs = target.bracket(images[i], images[j])
            diff = [a - b for a, b in zip(lhs, rhs)]
            if any(not x.is_zero() for x in diff):
                return (i, j, diff)
    return None


def glue_consistent(family: LieFamily) -> bool:
    """Check the two charts agree on the overlap via the transition map.

    Writing the w-chart basis as e'_i = z^{a_i} e_i on the overlap, the
    w-chart constants evaluated at w = 1/z must equal
    c_z^k_{ij} * z^{a_k - a_i - a_j}.
    """
    if family.w_constants is None or family.transition_powers is None:
        return False
    d = family.rank
    a = family.transition_powers
    for i in range(d):
        for j in range(d):
            for k in range(d):
                primed = family.constants[i][j][k] * RationalFunction.monomial(
                    a[k] - a[i] - a[j]
                )
                glued = family.w_constants[i][j][k].substitute_reciprocal()
                if primed != glued:
                    return False
    return True
