"""Algebraic families of Lie algebras over the line.

A family is a free module of finite rank over the Laurent ring with bracket
given by structure constants that are rational functions of the chart
coordinate.  Families are stored chartwise: the main chart is ``affine-z``
(coordinate z near 0) and a family may carry companion constants in the
coordinate w = 1/z, giving the fiber at infinity.

Structure constants are stored sparse: ``constants[i][j]`` is a tuple of the
(k, c) pairs with c the nonzero coordinate of [e_i, e_j] along e_k, in
increasing k.  Every loop over a table runs over these nonzero entries only.
An element of an algebra or family is sparse too: the dict {k: c} of its
nonzero coordinates.  ``bracket_with`` is the one bracket, ``linalg._apply``
the one linear map and ``homomorphism_witness`` the one bracket check on it.
Rows for ``linalg``'s elimination, and the eigenspace bases of an
involution, are the (k, c) pairs of the nonzero coordinates.  Dense
coordinate lists appear only as an involution's matrix and in a failed
check's residual.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .linalg import Span, echelon_basis, matrix_constants, span_rank, structure_constants
from .linalg import _apply
from .scalars import (
    INFINITY,
    DomainError,
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


class NotALieAlgebra(DomainError):
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

    ``constants[i][j]`` holds the nonzero coordinates (k, c) of [e_i, e_j].
    """

    labels: tuple
    constants: tuple  # d x d tuples of (k, GaussianRational), k increasing

    @property
    def rank(self) -> int:
        return len(self.labels)

    @staticmethod
    def from_constants(labels: Sequence[str], constants) -> "LieAlgebra":
        """``constants[i][j]``: (k, c) pairs, or a mapping k -> c, of exact scalars."""
        tbl = _sparse_table(constants, GaussianRational._coerce)
        bad = jacobi_witness(tbl, QI_ZERO)
        if bad is not None:
            i, j, k, _ = bad
            if k is None:
                raise NotALieAlgebra(f"structure constants not antisymmetric at ({i},{j})")
            raise NotALieAlgebra(f"Jacobi fails on basis triple {(i, j, k)}")
        return LieAlgebra(tuple(labels), tbl)


def _sparse_table(cells, f=lambda c: c) -> tuple:
    """The sparse table of ``cells`` (each a sequence of (k, c) pairs or a
    mapping k -> c): the pairs (k, f(c)) with f(c) nonzero, in increasing k."""
    return tuple(
        tuple(tuple((k, v) for k, v in ((k, f(c)) for k, c in sorted(dict(cell).items())) if v) for cell in row)
        for row in cells
    )


def bracket_with(constants, u: dict, v: dict) -> dict:
    """[u, v] for sparse vectors {k: c}, where ``constants[i][j]`` holds the
    nonzero coordinates (k, c) of [e_i, e_j]."""
    out = {}
    for i, x in u.items():
        row = constants[i]
        for j, y in v.items():
            cell = row[j]
            if cell:
                f = x * y
                for k, c in cell:
                    t = f * c
                    out[k] = out[k] + t if k in out else t
    return {k: c for k, c in out.items() if c}


def homomorphism_witness(images, source, target, zero):
    """None when the map phi: e_j -> ``images[j]`` sends the brackets of the
    antisymmetric ``source`` table to those of ``target``; the pairs i < j
    decide.  Else (i, j, the dense phi[e_i, e_j] - [phi e_i, phi e_j])."""
    for i, row in enumerate(source):
        for j in range(i + 1, len(source)):
            lhs = _apply(images, row[j])
            rhs = bracket_with(target, images[i], images[j])
            if lhs != rhs:
                return i, j, [lhs.get(k, zero) - rhs.get(k, zero) for k in range(len(target))]
    return None


def jacobi_witness(constants, zero):
    """None when the structure constants are antisymmetric and satisfy Jacobi.

    Otherwise the first failure: ``(i, j, None, "antisymmetry fails")`` when
    [e_i, e_j] != -[e_j, e_i] (the first such pair has i <= j), else
    ``(i, j, k, residual)`` for the first basis triple whose Jacobi sum, a
    coordinate vector, is nonzero.  Each cyclic sum
    [e_i, [e_j, e_k]] = sum_m c_jk^m [e_i, e_m] runs over nonzero brackets.
    """
    d = len(constants)
    for i in range(d):
        for j in range(i, d):
            if constants[i][j] != tuple((k, -c) for k, c in constants[j][i]):
                return (i, j, None, "antisymmetry fails")
    for i in range(d):
        ci = constants[i]
        for j in range(i + 1, d):
            cj = constants[j]
            for k in range(j + 1, d):
                ck = constants[k]
                acc = {}
                for inner, outer in ((cj[k], ci), (ck[i], cj), (ci[j], ck)):
                    for m, c in inner:
                        for l, e in outer[m]:
                            t = c * e
                            acc[l] = acc[l] + t if l in acc else t
                if any(acc.values()):
                    return (i, j, k, [acc.get(l, zero) for l in range(d)])
    return None


def sl2_algebra() -> LieAlgebra:
    """sl(2) in the basis (H, X, Y): [H,X]=2X, [H,Y]=-2Y, [X,Y]=H."""
    c = [[[] for _ in range(3)] for _ in range(3)]
    H, X, Y = 0, 1, 2

    def put(i, j, k, v):
        c[i][j].append((k, v))
        c[j][i].append((k, -v))

    put(H, X, X, 2)
    put(H, Y, Y, -2)
    put(X, Y, H, 1)
    return LieAlgebra.from_constants(("H", "X", "Y"), c)


def matrix_algebra(labels: Sequence[str], mats: Sequence) -> LieAlgebra:
    """Lie algebra of a linearly independent family of square matrices.

    ``mats`` are one-block sparse matrices {(0, r, c): x} of GaussianRational;
    the commutator of any two must lie in their span.
    """
    constants = matrix_constants(
        mats, lambda i, j: NotASubalgebra(f"commutator of basis elements {i},{j} escapes the span")
    )
    return LieAlgebra.from_constants(labels, constants)


def gl2_algebra() -> LieAlgebra:
    """gl(2) in the elementary-matrix basis (E11, E12, E21, E22)."""
    units = [(0, 0), (0, 1), (1, 0), (1, 1)]
    return matrix_algebra(("E11", "E12", "E21", "E22"), [{(0, r, c): QI_ONE} for r, c in units])


# ---------------------------------------------------------------------------
# Involutions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Involution:
    """An involutive automorphism of a constant-fiber Lie algebra.

    ``columns[j]`` is the image of e_j as a sparse vector {k: c}.  Carries the
    eigenspace decomposition g = k + p as echelon bases of the images of
    1 + theta and 1 - theta.
    """

    algebra: LieAlgebra
    columns: tuple  # theta(e_j) as sparse vectors {k: c}
    k_vectors: tuple  # the nonzero coordinates (k, c) of a basis of the +1 eigenspace
    p_vectors: tuple  # the same for the -1 eigenspace

    @staticmethod
    def from_matrix(algebra: LieAlgebra, matrix) -> "Involution":
        """The involution with the given matrix, a list of d rows."""
        d = algebra.rank
        rows = [[GaussianRational._coerce(x) for x in row] for row in matrix]
        if len(rows) != d or any(len(row) != d for row in rows):
            raise InvalidInvolution("matrix size does not match the algebra")
        columns = tuple({i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(d))
        if any(_apply(columns, col.items()) != {j: QI_ONE} for j, col in enumerate(columns)):
            raise InvalidInvolution("matrix squared is not the identity")
        # The table is antisymmetric: from_constants checked it.
        if homomorphism_witness(columns, algebra.constants, algebra.constants, QI_ZERO) is not None:
            raise InvalidInvolution("matrix is not a Lie automorphism")
        # theta^2 = 1, so k = im(1 + theta) and p = im(1 - theta): each is
        # read off the columns e_j + s theta(e_j), s = +-1, which together span.
        k_vecs, p_vecs = (
            echelon_basis([_apply(({j: QI_ONE}, col), [(0, QI_ONE), (1, s)]).items() for j, col in enumerate(columns)])
            for s in (QI_ONE, -QI_ONE)
        )
        return Involution(algebra, columns, tuple(map(tuple, k_vecs)), tuple(map(tuple, p_vecs)))


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
    constants: tuple  # d x d tuples of (k, RationalFunction), coordinate z
    w_constants: Optional[tuple] = None
    transition_powers: Optional[tuple] = None  # z^a_i scaling basis vector i

    @property
    def rank(self) -> int:
        return len(self.labels)

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        triples = [
            {"i": i, "j": j, "k": k, "c": c.to_json()}
            for i, row in enumerate(self.constants)
            for j, cell in enumerate(row)
            for k, c in cell
        ]
        return {
            "rank": self.rank,
            "labels": list(self.labels),
            "chart": "affine-z",
            "constants": triples,
        }


def _adapted_constants(theta: Involution):
    """Structure constants in the eigenbasis k then p, over Q(i)."""
    alg = theta.algebra
    basis = list(theta.k_vectors) + list(theta.p_vectors)
    vectors = [dict(v) for v in basis]
    tbl = structure_constants(
        Span(basis),
        lambda i, j: bracket_with(alg.constants, vectors[i], vectors[j]).items(),
        lambda i, j: InvalidInvolution("bracket escapes the adapted basis span"),
    )
    labels = tuple(f"k{i}" for i in range(len(theta.k_vectors))) + tuple(
        f"p{i}" for i in range(len(theta.p_vectors))
    )
    return labels, tbl, len(theta.k_vectors)


def _family(labels, table, exponent, powers) -> LieFamily:
    """The family with [e_i, e_j] = z^exponent(i, j) times the Q(i) cell
    (i, j) of ``table``, the same constants in w, and the charts glued by
    z^powers[i] on basis vector i."""
    constants = tuple(
        tuple(tuple((k, RationalFunction.monomial(exponent(i, j), c)) for k, c in cell) for j, cell in enumerate(row))
        for i, row in enumerate(table)
    )
    return LieFamily(labels=labels, constants=constants, w_constants=constants, transition_powers=tuple(powers))


def _scaled_family(algebra: LieAlgebra, theta: Involution, power: int) -> LieFamily:
    """Family with bracket scaled by z^power exactly on the p x p part; the
    constant family when p = 0."""
    if theta.algebra is not algebra and theta.algebra != algebra:
        raise InvalidInvolution("involution belongs to a different algebra")
    if not theta.p_vectors:
        return constant_family(algebra)
    labels, tbl, nk = _adapted_constants(theta)
    powers = (0 if i < nk else power for i in range(len(labels)))
    return _family(labels, tbl, lambda i, j: power if min(i, j) >= nk else 0, powers)


def constant_family(algebra: LieAlgebra) -> LieFamily:
    return _family(algebra.labels, algebra.constants, lambda i, j: 0, (0,) * algebra.rank)


def scaled_bracket_family(algebra: LieAlgebra, m: int = 1) -> LieFamily:
    """All brackets multiplied by z^m; the fiber at 0 is abelian."""
    if m <= 0:
        raise ValueError("exponent must be positive")
    # w-chart bracket is w^m[,]; the gluing rescales every basis vector by
    # z^{2m} so that c_w(1/z) = c_z * z^{-2m}.
    return _family(algebra.labels, algebra.constants, lambda i, j: m, (2 * m,) * algebra.rank)


def contraction_family(algebra: LieAlgebra, theta: Involution) -> LieFamily:
    """Bracket scaled by z on the p x p part of the Cartan decomposition.

    With the degenerate involution (p = 0) this is the constant family.
    """
    return _scaled_family(algebra, theta, 1)


def deformation_family(algebra: LieAlgebra, theta: Involution) -> LieFamily:
    """The z^2-bracket normal form of the deformation to the normal cone.

    The subalgebra k is the fixed space of ``theta``; its complement p is the
    -1 eigenspace.
    """
    return _scaled_family(algebra, theta, 2)


def base_change(family: LieFamily, psi: LaurentPoly) -> LieFamily:
    """Pull the family back along the polynomial map z -> psi(z)."""
    if not isinstance(psi, LaurentPoly) or not psi.is_ordinary():
        raise ValueError("base change map must be an ordinary polynomial")
    if psi.degree() < 1:
        raise ValueError("base change map must be nonconstant")
    rf_psi = RationalFunction(psi)
    return LieFamily(
        labels=family.labels,
        constants=_sparse_table(family.constants, lambda c: c.compose(rf_psi)),
    )


def jacobi_check(family: LieFamily):
    """None when Jacobi holds as a rational-function identity; otherwise the
    first failure in the form of :func:`jacobi_witness`."""
    return jacobi_witness(family.constants, RF_ZERO)


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
    return LieAlgebra.from_constants(
        family.labels, _sparse_table(constants, lambda c: c.evaluate(at))
    )


def fiber_invariants(algebra: LieAlgebra) -> dict:
    """Dimension of the derived algebra and center, and solvability."""
    d, tbl = algebra.rank, algebra.constants
    # center: the kernel of v -> ([v, e_j])_j, whose matrix has the row
    # (c_ij^k)_i for each (j, k); only its nonzero rows are formed.
    ad_rows = {}
    for i, row in enumerate(tbl):
        for j, cell in enumerate(row):
            for k, c in cell:
                ad_rows.setdefault((j, k), []).append((i, c))
    dim_center = d - span_rank(list(ad_rows.values()))
    # Derived series: [g, g] is spanned by the nonzero cells c_ij, i < j.  By
    # bilinearity the brackets of any basis of a term span the next term, so
    # only an echelon basis of each later term is bracketed.  The series
    # either reaches 0 (solvable) or stops shrinking (not solvable).
    current = echelon_basis([cell for i, row in enumerate(tbl) for cell in row[i + 1 :] if cell])
    dim_derived, size = len(current), d
    while current and len(current) < size:
        size = len(current)
        vs = [dict(v) for v in current]
        current = echelon_basis([bracket_with(tbl, u, v).items() for a, u in enumerate(vs) for v in vs[a + 1 :]])
    return {"dim_derived": dim_derived, "dim_center": dim_center, "solvable": not current}


@dataclass(frozen=True)
class FamilyMorphism:
    """A basis-to-basis map with rational-function entries: ``images[j]`` is
    the image of e_j as a sparse vector {k: c}."""

    images: tuple

    @staticmethod
    def identity(d: int) -> "FamilyMorphism":
        return FamilyMorphism(tuple({j: RF_ONE} for j in range(d)))

    @staticmethod
    def diagonal(entries) -> "FamilyMorphism":
        coerced = [RationalFunction._coerce(x) for x in entries]
        return FamilyMorphism(tuple({j: x} if x else {} for j, x in enumerate(coerced)))


def check_morphism(phi: FamilyMorphism, source: LieFamily, target: LieFamily):
    """None when phi commutes with brackets symbolically; else a witness."""
    if source.rank != target.rank:
        raise ValueError("rank mismatch")
    return homomorphism_witness(phi.images, source.constants, target.constants, RF_ZERO)


def glue_consistent(family: LieFamily) -> bool:
    """Check the two charts agree on the overlap via the transition map.

    Writing the w-chart basis as e'_i = z^{a_i} e_i on the overlap, the
    w-chart constants evaluated at w = 1/z must equal
    c_z^k_{ij} * z^{a_k - a_i - a_j}.
    """
    if family.w_constants is None or family.transition_powers is None:
        return False
    a = family.transition_powers
    for i, (z_row, w_row) in enumerate(zip(family.constants, family.w_constants)):
        for j, (z_cell, w_cell) in enumerate(zip(z_row, w_row)):
            primed = [(k, c * RationalFunction.monomial(a[k] - a[i] - a[j])) for k, c in z_cell]
            glued = [(k, c.substitute_reciprocal()) for k, c in w_cell]
            if primed != glued:
                return False
    return True
