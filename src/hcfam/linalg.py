"""Small exact linear algebra over Q(i) or the field of rational functions.

Matrices are lists of rows whose entries all live in one field (any type with
exact ``+ - * /`` and an ``is_zero`` method works).  Elimination is plain
Gauss-Jordan; with exact arithmetic there are no pivoting concerns beyond
avoiding zero pivots.

This module also holds the helpers the other modules share: the square-matrix
helpers on nested sequences (``_sum``, ``_mat_add``, ``_mat_sub``,
``_mat_scale``, ``_mat_mul``, ``_flatten``, ``_unit_vectors``) and
``structure_constants``, the one place that expresses every bracket of a basis
in the coordinates of that basis.
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

    def __getitem__(self, idx):
        i, j = idx
        return self.entries[i][j]

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


def _sum(terms):
    acc = None
    for t in terms:
        acc = t if acc is None else acc + t
    return acc


def _mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _mat_sub(a, b):
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def _mat_scale(a, c):
    return tuple(tuple(c * x for x in row) for row in a)


def _mat_mul(a, b):
    n = len(a)
    return tuple(
        tuple(_sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )


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


def rank(m: ExactMatrix) -> int:
    rows = [list(r) for r in m.entries]
    return len(_rref(rows, m.cols))


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
    rows = [list(r) + [b[i]] for i, r in enumerate(m.entries)]
    pivots = _rref(rows, m.cols)
    for i in range(len(rows)):
        if all(_is_zero(x) for x in rows[i][: m.cols]) and not _is_zero(rows[i][m.cols]):
            return None
    # Pick the solution with free variables set to zero.
    zero = None
    for row in m.entries:
        for x in row:
            zero = x - x
            break
        if zero is not None:
            break
    if zero is None:
        return None if any(not _is_zero(x) for x in b) else []
    x = [zero] * m.cols
    for r_idx, pc in enumerate(pivots):
        x[pc] = rows[r_idx][m.cols]
    return x


def span_rank(vectors: Sequence[Sequence]) -> int:
    if not vectors:
        return 0
    return rank(ExactMatrix(vectors))


def in_span(vectors: Sequence[Sequence], v: Sequence) -> bool:
    """Whether v lies in the linear span of the given vectors."""
    if all(_is_zero(x) for x in v):
        return True
    if not vectors:
        return False
    m = ExactMatrix(vectors).transpose()
    return solve(m, list(v)) is not None


def structure_constants(
    vectors: Sequence[Sequence],
    bracket: Callable[[int, int], Sequence],
    escape: Callable[[int, int], Exception],
) -> List[List[list]]:
    """Coordinates of every bracket of a basis in that basis.

    ``vectors`` are the basis elements as flat coordinate vectors and
    ``bracket(i, j)`` gives [b_i, b_j] in the same flat coordinates.  Entry
    [i][j] of the result is the coordinate vector of [b_i, b_j]; the first
    bracket outside the span raises ``escape(i, j)``.
    """
    span = ExactMatrix(vectors).transpose()
    d = len(vectors)
    table = []
    for i in range(d):
        row = []
        for j in range(d):
            coords = solve(span, bracket(i, j))
            if coords is None:
                raise escape(i, j)
            row.append(coords)
        table.append(row)
    return table
