"""Small exact linear algebra over Q(i) or the field of rational functions.

Matrices are lists of rows whose entries all live in one field (any type with
exact ``+ - * /`` and an ``is_zero`` method works).  Elimination is plain
Gauss-Jordan in ``_rref``, the only elimination loop; with exact arithmetic
there are no pivoting concerns beyond avoiding zero pivots.

``Span`` is the one path to coordinates and membership: it puts a list of
vectors in echelon form once and then reduces any number of vectors against
it.  ``solve`` and ``in_span`` are one-line wrappers over it, and
``structure_constants`` uses it to express every bracket of a basis in the
coordinates of that basis.

This module also holds the square-matrix helpers the other modules share, on
nested sequences: ``_sum``, ``_mat_add``, ``_mat_sub``, ``_mat_scale``,
``_mat_mul`` (which forms only products of two nonzero entries),
``_flatten`` and ``_unit_vectors``.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Sequence


class ExactMatrix:
    """A dense matrix with exact field entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries: Sequence[Sequence]):
        entries = [list(row) for row in entries]
        ncols = len(entries[0]) if entries else 0
        for row in entries:
            if len(row) != ncols:
                raise ValueError("ragged matrix")
        self.rows = len(entries)
        self.cols = ncols
        self.entries = entries

    def col(self, j) -> list:
        return [self.entries[i][j] for i in range(self.rows)]

    def transpose(self) -> "ExactMatrix":
        return ExactMatrix(
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)]
        )

    def matvec(self, v: Sequence) -> list:
        return [_sum(x * y for x, y in zip(row, v)) for row in self.entries]

    def matmul(self, other: "ExactMatrix") -> "ExactMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        return ExactMatrix(
            [
                [
                    _sum(x * y for x, y in zip(self.entries[i], other.col(j)))
                    for j in range(other.cols)
                ]
                for i in range(self.rows)
            ]
        )

    def __eq__(self, other):
        if not isinstance(other, ExactMatrix):
            return NotImplemented
        return self.entries == other.entries


def _is_zero(x) -> bool:
    return x.is_zero() if hasattr(x, "is_zero") else x == 0


def _nonzero(seq) -> list:
    """(index, entry) for the nonzero entries of seq."""
    return [(j, x) for j, x in enumerate(seq) if not _is_zero(x)]


def _sum(terms):
    acc = None
    for t in terms:
        acc = t if acc is None else acc + t
    return acc


def _mat_add(a, b):
    return tuple(tuple(x if _is_zero(y) else x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _mat_sub(a, b):
    return tuple(tuple(x if _is_zero(y) else x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _mat_scale(a, c):
    return tuple(tuple(c * x for x in row) for row in a)


def _mat_mul(a, b):
    """Product of square matrices, forming only products of nonzero entries."""
    n = len(a)
    if n == 0:
        return ()
    b_nonzero = [_nonzero(row) for row in b]
    zero = a[0][0] * b[0][0]
    if not _is_zero(zero):
        zero = zero - zero
    out = []
    for row in a:
        acc = [zero] * n
        for k, x in _nonzero(row):
            for j, y in b_nonzero[k]:
                t = x * y
                acc[j] = t if acc[j] is zero else acc[j] + t
        out.append(tuple(acc))
    return tuple(out)


def _flatten(m) -> list:
    return [x for row in m for x in row]


def _unit_vectors(d: int, one, zero) -> List[list]:
    """The standard basis of the d-dimensional space; also the identity matrix."""
    return [[one if t == s else zero for t in range(d)] for s in range(d)]


def _rref(rows: List[list], ncols: int):
    """In-place reduced row echelon form; returns list of pivot columns."""
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if not _is_zero(rows[i][c]):
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not _is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


class Span:
    """The span of a list of vectors v_0 .. v_{m-1}, in echelon form once.

    ``_rref`` runs once on the rows [v_k | e_k].  Pivot row r then reads
    row_r = sum_k T[r][k] v_k, with a one in its pivot column p_r and zeros in
    the other pivot columns.  Reducing a vector w subtracts w[p_r] * row_r for
    every pivot where w[p_r] is nonzero: w is in the span iff the residual is
    zero, and then its coordinates are sum_r w[p_r] * T[r].
    """

    __slots__ = ("count", "zero", "pivots", "rows", "transforms")

    def __init__(self, vectors: Sequence[Sequence]):
        vectors = [list(v) for v in vectors]
        entries = [x for v in vectors for x in v]
        nonzero = next((x for x in entries if not _is_zero(x)), None)
        self.count = len(vectors)
        self.zero = entries[0] - entries[0] if entries else None
        self.pivots, self.rows, self.transforms = [], [], []
        if nonzero is None:
            return
        ncols = len(vectors[0])
        eye = _unit_vectors(self.count, nonzero / nonzero, self.zero)
        rows = [v + e for v, e in zip(vectors, eye)]
        self.pivots = _rref(rows, ncols)
        for row in rows[: len(self.pivots)]:
            self.rows.append(_nonzero(row[:ncols]))
            self.transforms.append(_nonzero(row[ncols:]))

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def _weights(self, w: Sequence) -> Optional[list]:
        """(r, w[p_r]) for the pivots where w is nonzero, or None when the
        residual of w is nonzero, that is when w is outside the span."""
        weights = [(r, w[p]) for r, p in enumerate(self.pivots) if not _is_zero(w[p])]
        residual = list(w)
        for r, c in weights:
            for j, x in self.rows[r]:
                residual[j] = residual[j] - c * x
        return weights if all(_is_zero(x) for x in residual) else None

    def contains(self, w: Sequence) -> bool:
        """Whether w lies in the span."""
        return self._weights(w) is not None

    def coordinates(self, w: Sequence) -> Optional[list]:
        """Coefficients c with sum_k c_k v_k == w, or None when w is outside
        the span.  When the vectors are dependent this is one such c."""
        weights = self._weights(w)
        if weights is None:
            return None
        coords = [self.zero] * self.count
        for r, c in weights:
            for k, t in self.transforms[r]:
                coords[k] = coords[k] + c * t
        return coords


def echelon_basis(vectors: Sequence[Sequence]) -> List[list]:
    """A basis of the span: the nonzero rows of the reduced row echelon form."""
    rows = [list(v) for v in vectors]
    return rows[: len(_rref(rows, len(rows[0])))] if rows else []


def rank(m: ExactMatrix) -> int:
    return span_rank(m.entries)


def kernel(m: ExactMatrix, one, zero) -> List[list]:
    """Basis of the right kernel of m.

    ``one`` and ``zero`` are the field constants used to build basis vectors.
    Empty list iff m is injective; rank + nullity = cols by construction.
    """
    rows = [list(r) for r in m.entries]
    pivots = _rref(rows, m.cols)
    free = [c for c in range(m.cols) if c not in pivots]
    basis = []
    for fc in free:
        v = [zero] * m.cols
        v[fc] = one
        for r_idx, pc in enumerate(pivots):
            v[pc] = zero - rows[r_idx][fc]
        basis.append(v)
    return basis


def solve(m: ExactMatrix, b: Sequence) -> Optional[list]:
    """One solution x of m x = b, or None when the system is inconsistent."""
    return Span(m.transpose().entries).coordinates(b)


def span_rank(vectors: Sequence[Sequence]) -> int:
    return len(echelon_basis(vectors))


def in_span(vectors: Sequence[Sequence], v: Sequence) -> bool:
    """Whether v lies in the linear span of the given vectors."""
    return Span(vectors).contains(v)


def structure_constants(
    span: Span,
    bracket: Callable[[int, int], Sequence],
    escape: Callable[[int, int], Exception],
) -> List[List[list]]:
    """Coordinates of every bracket of a basis in that basis.

    ``span`` is the Span of the basis elements as flat coordinate vectors and
    ``bracket(i, j)`` gives [b_i, b_j] in the same flat coordinates.  Entry
    [i][j] of the result is the coordinate vector of [b_i, b_j]; the first
    bracket outside the span raises ``escape(i, j)``.
    """
    d = span.count
    table = []
    for i in range(d):
        row = []
        for j in range(d):
            coords = span.coordinates(bracket(i, j))
            if coords is None:
                raise escape(i, j)
            row.append(coords)
        table.append(row)
    return table
