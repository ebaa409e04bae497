"""The pencil of subalgebras of g x g attached to (GL(q+p), GL(q) x GL(p)).

Elements are pairs of (q+p) x (q+p) matrices.  The subalgebra at parameter t
is spanned by the block-diagonal diagonal copy of gl(q) x gl(p) together with
off-diagonal pairs

    ((0, tB; 0, 0), (0, B; 0, 0))   and   ((0, 0; C, 0), (0, 0; tC, 0)),

B of shape q x p and C of shape p x q.  Limits at t -> 0 and t -> infinity
are taken vector by vector in the Grassmannian; real forms are cut out by
the antiholomorphic involution built from J = diag(I_q, -I_p).

A pair is a two-block sparse matrix of ``linalg``: the dict {(s, r, c): entry}
of the nonzero entries of its two matrices, s = 0, 1.  Bases, limits and real
forms are built and returned in this form; brackets and products reach
``Span`` as their nonzero flat coordinates.

Real forms are read off the real structure sigma without elimination.  Over
a real point, and at 0 and infinity, sigma sends each fiber basis vector b_j
to e_j b_pi(j), with e_j = +1 or -1 and pi an involution of the indices, so
the fixed points have a basis in closed form, checked fixed by sigma.  The
Killing form of a real form is the complex one restricted to it, read off
the first matrices X of its basis as 2N tr(XY) - 2 tr X tr Y, N = p + q;
the derived algebra, the center and solvability do not change under
complexification, so they are read from the fiber's one structure-constant
table.  Everything is over Q(i); rational numbers appear only for
``linalg.signature``, which reads the real parts of the Killing matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .scalars import (
    INFINITY,
    DomainError,
    GaussianRational,
    Point,
    QI_I,
    QI_ZERO,
    QI_ONE,
    RationalFunction,
    RF_ONE,
    RF_Z,
)
from .linalg import DependentBasis, Span, matrix_constants, signature, span_rank
from .linalg import _apply, _bracket, _cleaned, _flat, _flat_n, _product
from .liefam import (
    FamilyMorphism,
    LieAlgebra,
    LieFamily,
    check_morphism,
    contraction_family,
    fiber_invariants,
    sl2_algebra,
)
from .sl2fam import sl2_involution


class RankDropAtLimit(DomainError):
    pass


class NoIsomorphismFound(DomainError):
    pass


SparsePair = dict  # the nonzero entries {(s, r, c): x}, s = 0, 1 for the two matrices


@dataclass(frozen=True)
class GrassmannPencil:
    p: int
    q: int
    det_one: bool = False

    def __post_init__(self):
        if self.p < 1 or self.q < 1:
            raise ValueError("block sizes must be positive")

    @property
    def n(self) -> int:
        return self.p + self.q


# ---------------------------------------------------------------------------
# Pair products and pencil bases
# ---------------------------------------------------------------------------


def pair_bracket(x: SparsePair, y: SparsePair) -> SparsePair:
    return _bracket(x, y)


def pair_product(x: SparsePair, y: SparsePair) -> SparsePair:
    return _cleaned(_product(x, y))


def k_basis(pencil: GrassmannPencil, one=QI_ONE) -> List[SparsePair]:
    """Diagonally embedded basis of gl(q) x gl(p), trace part removed when
    det_one: diagonal units are replaced by consecutive differences."""
    n, q = pencil.n, pencil.q
    blocks = (range(q), range(q, n))
    out = [{(s, i, j): one for s in (0, 1)} for block in blocks for i in block for j in block if i != j]
    if pencil.det_one:
        out += [{(s, r, r): x for s in (0, 1) for r, x in ((i, one), (i + 1, -one))} for i in range(n - 1)]
    else:
        out += [{(s, i, i): one for s in (0, 1)} for i in range(n)]
    return out


def p_basis(pencil: GrassmannPencil, t=None) -> List[SparsePair]:
    """Off-diagonal pairs at parameter t (symbolic when t is None)."""
    n, q = pencil.n, pencil.q
    one, tval = (RF_ONE, RF_Z) if t is None else (QI_ONE, GaussianRational._coerce(t))
    out = [_cleaned({(0, i, j): tval, (1, i, j): one}) for i in range(q) for j in range(q, n)]
    out += [_cleaned({(0, i, j): one, (1, i, j): tval}) for i in range(q, n) for j in range(q)]
    return out


def pencil_basis(pencil: GrassmannPencil, t=None) -> List[SparsePair]:
    return (k_basis(pencil, RF_ONE) if t is None else k_basis(pencil)) + p_basis(pencil, t)


# ---------------------------------------------------------------------------
# Grassmannian limits
# ---------------------------------------------------------------------------


def _limit_vector(pair: SparsePair, boundary: Point) -> SparsePair:
    """Divide by the content power of the local coordinate, then evaluate."""
    if not pair:
        raise RankDropAtLimit("zero vector in pencil basis")
    m = min(f.ord_at(boundary) for f in pair.values())
    if boundary is INFINITY:
        norm = RationalFunction.monomial(m)
    else:
        norm = (RF_Z - RationalFunction.constant(boundary)) ** (-m)
    return _cleaned({key: (norm * f).evaluate_point(boundary) for key, f in pair.items()})


def _limits(pencil: GrassmannPencil, boundary: Point) -> List[SparsePair]:
    """The limits of the p basis vectors at the boundary, one by one."""
    if boundary is not INFINITY:
        boundary = GaussianRational._coerce(boundary)
    return [_limit_vector(v, boundary) for v in p_basis(pencil)]


def _rank_drop(boundary: Point, expected: int) -> RankDropAtLimit:
    return RankDropAtLimit(f"limit at {boundary} spans less than dimension {expected}")


def limit_subspace(pencil: GrassmannPencil, boundary: Point) -> List[SparsePair]:
    """The limit of p_t in the Grassmannian as t approaches the boundary."""
    limited = _limits(pencil, boundary)
    if span_rank([_flat(v, pencil.n) for v in limited]) != len(limited):
        raise _rank_drop(boundary, len(limited))
    return limited


# ---------------------------------------------------------------------------
# Subalgebra and group-closure checks
# ---------------------------------------------------------------------------


def verify_subalgebra(basis: Sequence[SparsePair]):
    """None when every pairwise bracket lies in the span; else (i, j, residual)
    for the first bracket outside it, the residual being the pair of its
    entries off the span's pivot columns once reduced by the span."""
    n = _flat_n(basis)
    span = Span([_flat(v, n) for v in basis])
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            residual = span.sparse_residual(_flat(pair_bracket(basis[i], basis[j]), n))
            if residual:
                return i, j, {(k // (n * n), k // n % n, k % n): x for k, x in residual}
    return None


def fiber_group_closure_check(
    pencil: GrassmannPencil, boundary: Point = None, p_pairs: Optional[list] = None
):
    """Degenerate-fiber group law: elements k + X with X in the limit space
    multiply within the same shape.  Needs X X' = 0 (both orders) and the
    limit space stable under left/right multiplication by k.

    Returns None on success, else a description of the failure.  When the
    check takes the limit itself, a limit that drops rank raises
    ``RankDropAtLimit``, read off the rank of the span it checks against.
    """
    limit = p_pairs is None
    if limit:
        p_pairs = _limits(pencil, boundary)
    # pencil.n bounds every row and column of the pairs and of their products
    k_pairs, n = k_basis(pencil), pencil.n
    span = Span([_flat(x, n) for x in p_pairs])
    if limit and span.rank != len(p_pairs):
        raise _rank_drop(boundary, len(p_pairs))
    for i, x in enumerate(p_pairs):
        for j, y in enumerate(p_pairs):
            if pair_product(x, y):
                return f"product of limit vectors {i} and {j} is nonzero"
    for a, d in enumerate(k_pairs):
        for i, x in enumerate(p_pairs):
            for prod, side in ((pair_product(d, x), "left"), (pair_product(x, d), "right")):
                if not span.sparse_contains(_flat(prod, n)):
                    return f"{side} action of k vector {a} leaves the limit space at {i}"
    return None


# ---------------------------------------------------------------------------
# Comparison with the contraction family
# ---------------------------------------------------------------------------


def family_from_pairs(labels: Sequence[str], basis: Sequence[SparsePair]) -> LieFamily:
    """Structure constants of a pencil basis over the function field."""
    tbl = matrix_constants(basis, lambda i, j: NoIsomorphismFound("pencil basis is not bracket-closed"))
    return LieFamily(labels=tuple(labels), constants=tbl)


def contraction_comparison(pencil: GrassmannPencil) -> FamilyMorphism:
    """Identify the rank-one det-one pencil with the sl(2) contraction family
    (pencil parameter = chart coordinate)."""
    if not (pencil.p == 1 and pencil.q == 1 and pencil.det_one):
        raise NoIsomorphismFound("comparison applies to the p=q=1 det-one pencil")
    fam = family_from_pairs(("h", "u", "v"), pencil_basis(pencil))
    target = contraction_family(sl2_algebra(), sl2_involution())
    phi = FamilyMorphism.identity(3)
    witness = check_morphism(phi, fam, target)
    if witness is not None:
        raise NoIsomorphismFound(f"structure constants differ: {witness}")
    return phi


# ---------------------------------------------------------------------------
# Real structures and real forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RealStructureSpec:
    """The antiholomorphic pair involution (M1, M2) -> (-J M2* J, -J M1* J)
    with J = diag(I_q, -I_p); fixed vectors of fibers over real points are
    the real forms."""

    p: int
    q: int

    def apply(self, x: SparsePair) -> SparsePair:
        """J is diagonal, so (-J M* J)_rc = -J_r J_c conj(M_cr): the conjugate
        of M_cr, negated inside the diagonal blocks."""
        q = self.q
        return {
            (1 - s, c, r): v.conjugate() if (r < q) != (c < q) else -v.conjugate()
            for (s, r, c), v in x.items()
        }


@dataclass
class RealFormReport:
    basis: List[SparsePair]
    signature: Tuple[int, int, int]  # (n_plus, n_zero, n_minus)
    invariants: dict

    @property
    def dimension(self) -> int:
        return len(self.basis)


def real_form_at(pencil: GrassmannPencil, x) -> RealFormReport:
    """Fixed points of the real structure on the fiber over a real point x
    (0 and infinity use the Grassmannian limit), with exact Killing data."""
    if x is INFINITY or GaussianRational._coerce(x).is_zero():
        # The limit vectors are eliminated once, in matrix_constants: the k
        # vectors lie in the diagonal blocks and the limits off them, so the
        # fiber is dependent exactly when the limit drops rank.  Over a
        # nonzero point the fiber is independent by construction.
        p_pairs = _limits(pencil, x)
    else:
        x = GaussianRational._coerce(x)
        if not x.is_real():
            raise ValueError("real forms live over real points")
        p_pairs = p_basis(pencil, x)
    fiber = k_basis(pencil) + p_pairs
    try:
        constants = matrix_constants(fiber, lambda i, j: ValueError("fiber is not bracket-closed"))
    except DependentBasis:
        raise _rank_drop(x, len(p_pairs)) from None
    sigma = RealStructureSpec(pencil.p, pencil.q)
    basis = [_apply(fiber, c.items()) for c in _real_coordinates(_sigma_orbits(fiber, sigma))]
    if any(sigma.apply(r) != r for r in basis):
        raise ValueError("real basis is not fixed by the real structure")
    # The Killing form of the real form is the complex one restricted to it.
    # The first projection (X, Y) -> X is a Lie map.  Off 0 and infinity it
    # maps the fiber isomorphically onto gl(N), or sl(N), so there
    # B = 2N tr(XY) - 2 tr X tr Y on first matrices.  At 0 and infinity the
    # fiber is k + V with V the abelian ideal of limit vectors: ad v maps the
    # fiber into V and V to 0, so B vanishes on V; k acts on V as on the
    # off-diagonal blocks of gl(N), so B on k is that of gl(N).  A limit
    # vector's first matrix is zero or off the diagonal blocks, and a k
    # vector's is its own, so the formula gives B there too.
    restricted = [[(b, c.re) for b, c in row.items()] for row in _trace_form(basis, pencil.n)]
    # The table is read from matrix commutators, so Jacobi holds by
    # construction; derived algebra, center and solvability are those of the
    # real form, as complexification leaves them unchanged.
    algebra = LieAlgebra(tuple(f"b{j}" for j in range(len(fiber))), constants)
    return RealFormReport(basis, signature(restricted), fiber_invariants(algebra))


def _trace_form(pairs: Sequence[SparsePair], n: int) -> List[dict]:
    """The rows {b: entry} of the matrix 2n tr(X_a X_b) - 2 tr X_a tr X_b
    over the first matrices X of the pairs.  2n tr(X_a X_b) sums
    2n X_a[r, c] X_b[c, r], so row a applies X_a to the entries 2n X_b
    indexed by their transposed position; only nonzero traces correct it."""
    firsts = [{(r, c): v for (s, r, c), v in pair.items() if s == 0} for pair in pairs]
    transposed, traces = {}, {}
    for b, first in enumerate(firsts):
        for (r, c), v in first.items():
            transposed.setdefault((c, r), {})[b] = 2 * n * v
            if r == c:
                traces[b] = traces[b] + v if b in traces else v
    traces = {b: t for b, t in traces.items() if t}
    out = []
    for a, first in enumerate(firsts):
        row = _apply(transposed, [(key, v) for key, v in first.items() if key in transposed])
        if a in traces:
            for b, tb in traces.items():
                row[b] = row.get(b, QI_ZERO) - 2 * traces[a] * tb
        out.append(row)
    return out


def _sigma_orbits(fiber: Sequence[SparsePair], sigma: RealStructureSpec) -> List[tuple]:
    """The orbits (j, k, e), j <= k, in increasing k, of sigma on the fiber
    basis b: sigma(b_j) = e b_k and sigma(b_k) = e b_j with e = +1 or -1,
    read by exact lookup.  Any other image raises ``ValueError``."""
    index = {frozenset(b.items()): j for j, b in enumerate(fiber)}
    orbits = []
    for j, b in enumerate(fiber):
        image = sigma.apply(b)
        k, e = index.get(frozenset(image.items())), QI_ONE
        if k is None:
            k, e = index.get(frozenset((key, -v) for key, v in image.items())), -QI_ONE
        if k is None:
            raise ValueError("real structure does not permute this fiber basis up to sign")
        if j <= k:
            orbits.append((j, k, e))
    return sorted(orbits, key=lambda orbit: orbit[1])


def _real_coordinates(orbits: Sequence[tuple]) -> List[dict]:
    """The fixed points of sigma in closed form, as sparse fiber coordinates
    {j: c}: e b_j + b_k and -i e b_j + i b_k for an orbit j < k, b_j or, when
    e = -1, i b_j for j = k.  This is the kernel basis of sigma - 1 over the
    rational basis (b_0, i b_0, b_1, ...), in the order of its free columns."""
    coordinates = []
    for j, k, e in orbits:
        if j == k:
            coordinates.append({j: QI_ONE if e == QI_ONE else QI_I})
        else:
            coordinates += [{j: e, k: QI_ONE}, {j: -QI_I * e, k: QI_I}]
    return coordinates

