"""Small exact linear algebra over Q(i) or the field of rational functions.

Matrices are lists of rows whose entries all live in one field (any type with
exact ``+ - * /`` that is falsy exactly at zero works).  Elimination is plain
Gauss-Jordan in ``_rref``, the only elimination loop; with exact arithmetic
there are no pivoting concerns beyond avoiding zero pivots.

``Span`` is the one path to coordinates and membership: it puts a list of
vectors in echelon form once and then reduces any number of vectors, given by
their nonzero entries, against it.  ``structure_constants`` is the one loop
that fills the sparse table of the brackets of a basis, reading their
coordinates with a ``Span`` of the basis, and ``matrix_constants`` is the one
path to that table from a basis of sparse matrices.  ``_apply`` is the one
sparse linear combination.

An element of a matrix Lie algebra is a sparse matrix: the dict
``{(block, r, c): entry}`` of its nonzero entries, one block for gl(n) and two
for the pairs of the Grassmannian pencil.  ``_product`` multiplies such
matrices blockwise from products of nonzero entries only, through a row index
of its right factor; it serves ``pair_product``.  ``_bracket`` forms the
commutator in one pass over the pairs of nonzero entries of its operands,
with no product and no index.  ``_flat`` and ``_flat_vectors`` give their
coordinates, block-major and then row-major.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple


def _nonzero(seq) -> list:
    """(index, entry) for the nonzero entries of seq."""
    return [(j, x) for j, x in enumerate(seq) if x]


def _apply(images, w) -> dict:
    """The image of the vector with nonzero coordinates w, (j, c) pairs, under
    the linear map that sends e_j to the sparse vector ``images[j]``."""
    out = {}
    for j, x in w:
        for k, c in images[j].items():
            t = x * c
            out[k] = out[k] + t if k in out else t
    return {k: c for k, c in out.items() if c}


SparseMatrix = dict  # the nonzero entries {(block, r, c): x}


def _product(x: SparseMatrix, y: SparseMatrix) -> dict:
    """x y in each block, from the products of nonzero entries only; sums
    that cancel stay in the result as zeros."""
    rows = {}
    for (s, k, c), b in y.items():
        rows.setdefault((s, k), []).append((c, b))
    out = {}
    for (s, r, k), a in x.items():
        for c, b in rows.get((s, k), ()):
            key = (s, r, c)
            out[key] = out[key] + a * b if key in out else a * b
    return out


def _cleaned(x: dict) -> SparseMatrix:
    return {key: v for key, v in x.items() if v}


def _bracket(x: SparseMatrix, y: SparseMatrix) -> SparseMatrix:
    """The commutator x y - y x, in one pass over the pairs of nonzero
    entries: x_rk meeting y_kc adds to (s, r, c), and y_rk meeting x_kc
    subtracts from it; zero sums are dropped at the end.

    The pass costs |x| |y| steps, where a row index of each factor would
    cost about |x| + |y| plus the products, so it rests on operands with few
    nonzero entries.  A pencil basis vector has 2, or 4 for a det-one
    diagonal difference, at every (p, q); the brackets of the benchmark's
    pencil sweep and of ``hcfam verify --profile full`` have at most 4 per
    operand, and |x| |y| is 5.3 on average over their 715 brackets."""
    out = {}
    for (s, r, k), a in x.items():
        for (t, m, c), b in y.items():
            if s != t:
                continue
            if k == m:
                key = (s, r, c)
                out[key] = out[key] + a * b if key in out else a * b
            if c == r:
                key = (s, m, k)
                out[key] = out[key] - b * a if key in out else -(b * a)
    return _cleaned(out)


def _flat(x: SparseMatrix, n: int) -> list:
    """The nonzero coordinates of x as (index, entry) pairs, at index
    block * n^2 + r * n + c."""
    return [(s * n * n + r * n + c, v) for (s, r, c), v in x.items()]


def _flat_vectors(mats: Sequence[SparseMatrix]) -> Tuple[List[list], int]:
    """The dense coordinate vectors of the matrices, and the n of their
    indices: the least one above every row and column they use.  A product
    of two of them uses no other rows and columns, so ``_flat(x, n)`` of any
    product or bracket indexes into the same vectors."""
    keys = [key for m in mats for key in m]
    n = 1 + max((max(r, c) for _, r, c in keys), default=-1)
    blocks = 1 + max((s for s, _, _ in keys), default=-1)
    zero = next((x - x for m in mats for x in m.values()), None)
    vectors = []
    for m in mats:
        v = [zero] * (blocks * n * n)
        for j, x in _flat(m, n):
            v[j] = x
        vectors.append(v)
    return vectors, n


def _unit_vectors(d: int, one, zero) -> List[list]:
    """The standard basis of the d-dimensional space; also the identity matrix."""
    return [[one if t == s else zero for t in range(d)] for s in range(d)]


def _rref(rows: List[list], ncols: int):
    """In-place reduced row echelon form; returns list of pivot columns.
    Row operations touch only the nonzero entries of the pivot row."""
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        prow = rows[r]
        inv = prow[c]
        entries = [(j, x / inv) for j, x in enumerate(prow) if x]
        for j, x in entries:
            prow[j] = x
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                for j, x in entries:
                    row[j] = row[j] - f * x
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


class Span:
    """The span of a list of vectors v_0 .. v_{m-1}, in echelon form once.

    ``_rref`` runs once on the rows [v_k | e_k].  Pivot row r then reads
    row_r = sum_k T[r][k] v_k, with a one in its pivot column p_r and zeros in
    the other pivot columns.  A vector w is reduced from its nonzero entries:
    subtracting w[p_r] * row_r for every pivot where w is nonzero leaves a
    residual, w is in the span iff it is zero, and then its coordinates are
    sum_r w[p_r] * T[r].
    """

    __slots__ = ("count", "pivots", "rows", "transforms")

    def __init__(self, vectors: Sequence[Sequence]):
        vectors = [list(v) for v in vectors]
        nonzero = next((x for v in vectors for x in v if x), None)
        self.count = len(vectors)
        self.pivots, self.rows, self.transforms = {}, [], []
        if nonzero is None:
            return
        ncols = len(vectors[0])
        eye = _unit_vectors(self.count, nonzero / nonzero, nonzero - nonzero)
        rows = [v + e for v, e in zip(vectors, eye)]
        pivots = _rref(rows, ncols)
        self.pivots = {p: r for r, p in enumerate(pivots)}
        for row in rows[: len(pivots)]:
            self.rows.append([(j, x) for j, x in _nonzero(row[:ncols]) if j not in self.pivots])
            self.transforms.append(_nonzero(row[ncols:]))

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _reduce(self, w) -> Tuple[list, dict]:
        """(r, w[p_r]) for the pivots where w is nonzero, and the residual
        {j: entry} of w off the pivot columns, zero iff w is in the span.
        ``w`` holds the (index, entry) pairs of the nonzero entries: a list,
        or the items of a sparse vector {k: c}."""
        pivots = self.pivots
        weights = [(pivots[j], x) for j, x in w if j in pivots]
        residual = {j: x for j, x in w if j not in pivots}
        for r, c in weights:
            for j, x in self.rows[r]:
                t = c * x
                residual[j] = residual[j] - t if j in residual else -t
        return weights, residual

    def sparse_residual(self, w) -> list:
        """The nonzero entries (j, x) of w less its combination of the pivot
        rows: none in a pivot column, and none iff w lies in the span."""
        return [(j, x) for j, x in self._reduce(w)[1].items() if x]

    def sparse_contains(self, w) -> bool:
        """Whether the vector with nonzero entries w lies in the span."""
        return not any(self._reduce(w)[1].values())

    def sparse_coordinates(self, w) -> Optional[list]:
        """The nonzero coordinates (k, c_k), in increasing k, of the vector
        with nonzero entries w, or None when it is outside the span."""
        weights, residual = self._reduce(w)
        if any(residual.values()):
            return None
        acc = {}
        for r, c in weights:
            for k, t in self.transforms[r]:
                x = c * t
                acc[k] = acc[k] + x if k in acc else x
        return [(k, acc[k]) for k in sorted(acc) if acc[k]]


def echelon_basis(vectors: Sequence[Sequence]) -> List[list]:
    """A basis of the span: the nonzero rows of the reduced row echelon form."""
    rows = [list(v) for v in vectors]
    return rows[: len(_rref(rows, len(rows[0])))] if rows else []


def span_rank(vectors: Sequence[Sequence]) -> int:
    return len(echelon_basis(vectors))


def structure_constants(
    span: Span,
    bracket: Callable[[int, int], Sequence],
    escape: Callable[[int, int], Exception],
) -> tuple:
    """The sparse table of the brackets of the basis b_0 .. b_{d-1} that
    ``span`` holds as flat vectors: entry [i][j] holds the nonzero
    coordinates (k, c) of [b_i, b_j] in increasing k, where ``bracket(i, j)``
    gives its nonzero entries (index, entry) in the same flat coordinates.
    The bracket must be antisymmetric: only the pairs i < j are read,
    [b_j, b_i] is their negation and the diagonal is empty.  The first
    bracket outside the span, in row-major order, raises ``escape(i, j)``.
    """
    d = span.count
    table = [[()] * d for _ in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            coords = span.sparse_coordinates(bracket(i, j))
            if coords is None:
                raise escape(i, j)
            table[i][j] = tuple(coords)
            table[j][i] = tuple((k, -c) for k, c in coords)
    return tuple(map(tuple, table))


class DependentBasis(ValueError):
    """A list of vectors given as a basis is linearly dependent."""


def matrix_constants(mats: Sequence[SparseMatrix], escape: Callable[[int, int], Exception]) -> tuple:
    """:func:`structure_constants` of a linearly independent list of sparse
    matrices under the commutator; ``escape(i, j)`` as there.  A dependent
    list raises :class:`DependentBasis`."""
    vectors, n = _flat_vectors(mats)
    span = Span(vectors)
    if span.rank != len(mats):
        raise DependentBasis("matrix basis is linearly dependent")
    return structure_constants(span, lambda i, j: _flat(_bracket(mats[i], mats[j]), n), escape)
