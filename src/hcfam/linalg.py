"""Small exact linear algebra over Q(i) or the field of rational functions.

Entries all live in one field (any type with exact ``+ - * /`` that is falsy
exactly at zero works).  A row or vector is sparse: the list of the
(index, entry) pairs of its nonzero entries, and no dense vector is formed.
``_rref`` is the one elimination loop: it inserts the rows one by one into
the reduced echelon form, touching only nonzero entries.  ``signature``
splits a symmetric matrix into the connected blocks of its nonzero pattern
and reads its inertia block by block.

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
with no product and no index.  ``_flat`` gives their nonzero coordinates,
block-major and then row-major, at the indices ``_flat_n`` fixes for a list.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence, Tuple


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


def _flat_n(mats: Sequence[SparseMatrix]) -> int:
    """The n of the flat indices of the matrices: the least one above every
    row and column they use, which no product or bracket of them exceeds."""
    return 1 + max((max(r, c) for m in mats for _, r, c in m), default=-1)


def _subtract(row: dict, f, other) -> None:
    """row -= f * other in place, for the (index, entry) pairs of other;
    entries that cancel leave the row."""
    for j, x in other:
        t = row[j] - f * x if j in row else -(f * x)
        if t:
            row[j] = t
        else:
            del row[j]


def _rref(rows: List[list], ncols: int) -> List[list]:
    """The reduced row echelon form of sparse rows: its nonzero rows in
    increasing pivot, each sorted by index and led by a one at its pivot.

    Each row is inserted in turn.  It is reduced by the pivot rows so far,
    its pivot is its smallest nonzero column below ``ncols`` and that column
    is then cleared from the earlier rows; a row with no such column is
    dropped.  A pivot row only ever gains entries right of its pivot, so it
    keeps its leading one and the result is the reduced echelon form of the
    columns below ``ncols``.  Columns from ``ncols`` on ride along."""
    pivots = {}  # pivot column -> its row {index: entry}
    for row in rows:
        new = {j: x for j, x in row if x}
        for p in [p for p in new if p in pivots]:
            _subtract(new, new[p], pivots[p].items())
        c = min((j for j in new if j < ncols), default=None)
        if c is None:
            continue
        inv = new[c]
        new = {j: x / inv for j, x in new.items()}
        for prow in pivots.values():
            if c in prow:
                _subtract(prow, prow[c], new.items())
        pivots[c] = new
    return [sorted(pivots[c].items()) for c in sorted(pivots)]


class Span:
    """The span of a list of sparse vectors v_0 .. v_{m-1}, each a list of
    (index, entry) pairs, in echelon form once.

    ``_rref`` runs once on the rows [v_k | e_k], e_k at column ncols + k past
    every index of the vectors.  Pivot row r then reads
    row_r = sum_k T[r][k] v_k, with a one in its pivot column p_r and zeros in
    the other pivot columns.  A vector w is reduced from its nonzero entries:
    subtracting w[p_r] * row_r for every pivot where w is nonzero leaves a
    residual, w is in the span iff it is zero, and then its coordinates are
    sum_r w[p_r] * T[r].
    """

    __slots__ = ("count", "pivots", "rows", "transforms")

    def __init__(self, vectors: Sequence[Sequence]):
        vectors = [list(v) for v in vectors]
        self.count = len(vectors)
        self.pivots, self.rows, self.transforms = {}, [], []
        nonzero = next((x for v in vectors for _, x in v if x), None)
        if nonzero is None:
            return
        one = nonzero / nonzero
        ncols = 1 + max(j for v in vectors for j, _ in v)
        reduced = _rref([v + [(ncols + k, one)] for k, v in enumerate(vectors)], ncols)
        self.pivots = {row[0][0]: r for r, row in enumerate(reduced)}
        self.rows = [[(j, x) for j, x in row[1:] if j < ncols] for row in reduced]
        self.transforms = [[(j - ncols, x) for j, x in row if j >= ncols] for row in reduced]

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _reduce(self, w) -> Tuple[list, dict]:
        """(r, w[p_r]) for the pivots where w is nonzero, and the nonzero
        entries {j: entry} of the residual, off the pivot columns and empty
        iff w is in the span.  ``w`` holds the (index, entry) pairs of the
        nonzero entries: a list, or the items of a sparse vector {k: c}."""
        pivots = self.pivots
        weights = [(pivots[j], x) for j, x in w if j in pivots]
        residual = {j: x for j, x in w if j not in pivots and x}
        for r, c in weights:
            _subtract(residual, c, self.rows[r])
        return weights, residual

    def sparse_residual(self, w) -> list:
        """The nonzero entries (j, x) of w less its combination of the pivot
        rows: none in a pivot column, and none iff w lies in the span."""
        return list(self._reduce(w)[1].items())

    def sparse_contains(self, w) -> bool:
        """Whether the vector with nonzero entries w lies in the span."""
        return not self._reduce(w)[1]

    def sparse_coordinates(self, w) -> Optional[list]:
        """The nonzero coordinates (k, c_k), in increasing k, of the vector
        with nonzero entries w, or None when it is outside the span."""
        weights, residual = self._reduce(w)
        if residual:
            return None
        acc = {}
        for r, c in weights:
            for k, t in self.transforms[r]:
                x = c * t
                acc[k] = acc[k] + x if k in acc else x
        return [(k, acc[k]) for k in sorted(acc) if acc[k]]


def echelon_basis(vectors: Sequence[Sequence]) -> List[list]:
    """A basis of the span of sparse vectors: the rows ``_rref`` gives.  Empty
    and repeated vectors add nothing and are left out."""
    rows = [list(v) for v in dict.fromkeys(tuple(v) for v in vectors if v)]
    return _rref(rows, 1 + max(j for row in rows for j, _ in row)) if rows else []


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
    n = _flat_n(mats)
    span = Span([_flat(m, n) for m in mats])
    if span.rank != len(mats):
        raise DependentBasis("matrix basis is linearly dependent")
    return structure_constants(span, lambda i, j: _flat(_bracket(mats[i], mats[j]), n), escape)


def signature(rows: Sequence[Sequence]) -> Tuple[int, int, int]:
    """(n_plus, n_zero, n_minus) of a symmetric matrix over an ordered field,
    given by its sparse rows.  Union-find joins the row and column of each
    nonzero entry into connected components; a permutation congruence makes
    the matrix block diagonal over them, so by Sylvester's law of inertia the
    signature is the sum of theirs.  A one-index component is read off the
    sign of its entry, a larger one by symmetric Gaussian reduction."""
    parent = list(range(len(rows)))

    def find(i):
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    for i, row in enumerate(rows):
        for j, x in row:
            if x:
                parent[find(i)] = find(j)
    components = {}
    for i in range(len(rows)):
        components.setdefault(find(i), []).append(i)
    counts = [0, 0, 0]  # n_plus, n_zero, n_minus
    for block in components.values():
        if len(block) > 1:
            counts = [a + b for a, b in zip(counts, _block_signature(block, rows))]
        else:
            x = next((x for _, x in rows[block[0]] if x), None)
            counts[1 if x is None else 0 if x > 0 else 2] += 1
    return tuple(counts)


def _block_signature(block: Sequence[int], rows: Sequence[Sequence]) -> Tuple[int, int, int]:
    """The signature of the principal submatrix on ``block``, reduced densely:
    a zero pivot is swapped with a later nonzero diagonal entry, or else made
    nonzero by adding a row and column that meet it off the diagonal.  Each
    pivot leaves the symmetric Schur complement below and right of it, the
    only part read again."""
    n, nil = len(block), next(x - x for i in block for _, x in rows[i] if x)
    m = [[row.get(j, nil) for j in block] for row in (dict(rows[i]) for i in block)]
    plus = minus = zero = 0
    for i in range(n):
        if not m[i][i]:
            swap = next((j for j in range(i + 1, n) if m[j][j]), None)
            if swap is not None:
                m[i], m[swap] = m[swap], m[i]
                for row in m:
                    row[i], row[swap] = row[swap], row[i]
            else:
                off = next((j for j in range(i + 1, n) if m[i][j]), None)
                if off is None:
                    zero += 1
                    continue
                m[i] = [a + b for a, b in zip(m[i], m[off])]
                for row in m:
                    row[i] += row[off]
        d = m[i][i]
        plus, minus = (plus + 1, minus) if d > 0 else (plus, minus + 1)
        for r in range(i + 1, n):
            if m[r][i]:
                f = m[r][i] / d
                for c in range(i, n):
                    m[r][c] -= f * m[i][c]
    return plus, zero, minus
