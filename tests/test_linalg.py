"""Tests for exact linear algebra and the sparse matrix product."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import random

from hcfam.linalg import Span, _bracket, _cleaned, _product, _rref, span_rank, structure_constants
from hcfam.scalars import GaussianRational, LaurentPoly, RationalFunction, RF_ONE, RF_Z, RF_ZERO

fr = st.fractions(min_value=-9, max_value=9, max_denominator=5)


def matrices(rows, cols):
    """Dense matrices as lists of rows."""
    return st.lists(st.lists(fr, min_size=cols, max_size=cols), min_size=rows, max_size=rows)


def matvec(m, v):
    """m v for a dense matrix and a dense vector."""
    return [sum((x * y for x, y in zip(row, v)), Fraction(0)) for row in m]


def column(m, j):
    return [row[j] for row in m]


def nonzero(v):
    """The (index, entry) pairs of the nonzero entries of a dense vector."""
    return [(j, x) for j, x in enumerate(v) if x != 0]


def dense(coords, count, zero):
    """The dense list of count coordinates with the nonzero ones (k, c)."""
    out = [zero] * count
    for k, c in coords:
        out[k] = c
    return out


def sparse_rows(vectors):
    return [nonzero(v) for v in vectors]


def dense_rank(vectors):
    """The rank of dense vectors by the reference Gauss-Jordan."""
    return len(dense_rref([list(v) for v in vectors], len(vectors[0]))) if vectors else 0


class TestRankSolve:
    def test_rank_examples(self):
        assert span_rank(sparse_rows([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]])) == 1
        assert span_rank(sparse_rows([[Fraction(0)] * 3] * 2)) == 0
        assert span_rank([]) == 0

    @given(matrices(4, 3), st.lists(fr, min_size=3, max_size=3))
    def test_solve_recovers_image_vectors(self, m, x):
        """m x = b is solved by the coordinates of b in the span of the columns."""
        b = matvec(m, x)
        sol = Span([nonzero(column(m, j)) for j in range(3)]).sparse_coordinates(nonzero(b))
        assert sol is not None
        assert matvec(m, dense(sol, 3, Fraction(0))) == b

    def test_solve_inconsistent(self):
        m = [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]]
        assert Span([nonzero(column(m, j)) for j in range(2)]).sparse_coordinates([(1, Fraction(1))]) is None


class TestSpan:
    def test_in_span(self):
        vs = sparse_rows([[Fraction(1), Fraction(0)], [Fraction(1), Fraction(1)]])
        assert Span(vs).sparse_contains([(0, Fraction(3)), (1, Fraction(2))])
        assert not Span([vs[0]]).sparse_contains([(1, Fraction(1))])
        assert Span([]).sparse_contains([])

    @given(st.lists(st.lists(fr, min_size=3, max_size=3), min_size=1, max_size=4))
    def test_span_rank_bounded(self, vs):
        r = span_rank(sparse_rows(vs))
        assert r == dense_rank(vs) and 0 <= r <= min(len(vs), 3)
        # Adding a combination of existing vectors never raises the rank.
        combo = [sum(v[i] for v in vs) for i in range(3)]
        assert span_rank(sparse_rows(vs + [combo])) == r


def combination(coeffs, vectors, zero):
    """sum_k coeffs[k] * vectors[k], starting from the zero vector."""
    out = [zero] * len(vectors[0])
    for c, v in zip(coeffs, vectors):
        out = [a + c * b for a, b in zip(out, v)]
    return out


@st.composite
def spans_with_target(draw, scalar, zero, dim=4):
    """A list of vectors with repeated combinations and zero vectors mixed in,
    and a target that is either a combination of them or arbitrary."""
    base = draw(st.lists(st.lists(scalar, min_size=dim, max_size=dim), max_size=3))
    vectors = list(base)
    for _ in range(draw(st.integers(0, 3))):
        if base and draw(st.booleans()):
            coeffs = draw(st.lists(scalar, min_size=len(base), max_size=len(base)))
            vectors.append(combination(coeffs, base, zero))
        else:
            vectors.append([zero] * dim)
    vectors = draw(st.permutations(vectors))
    if vectors and draw(st.booleans()):
        coeffs = draw(st.lists(scalar, min_size=len(vectors), max_size=len(vectors)))
        target = combination(coeffs, vectors, zero)
    else:
        target = draw(st.lists(scalar, min_size=dim, max_size=dim))
    return vectors, target


def check_span(vectors, target, zero):
    """Membership and coordinates of target, given by its nonzero entries,
    against the rank and the combination of the vectors."""
    span = Span(sparse_rows(vectors))
    coords = span.sparse_coordinates(nonzero(target))
    inside = dense_rank(vectors + [target]) == dense_rank(vectors)
    assert span.rank == dense_rank(vectors)
    assert span.sparse_contains(nonzero(target)) == inside == (coords is not None)
    if coords is not None:
        indices = [k for k, _ in coords]
        assert indices == sorted(set(indices)) and all(0 <= k < len(vectors) for k in indices)
        assert all(c != 0 for _, c in coords)
        got = combination(dense(coords, len(vectors), zero), vectors, zero) if vectors else [zero] * len(target)
        assert got == list(target)


qi = st.builds(GaussianRational, st.integers(-3, 3), st.integers(-2, 2))


class TestSpanPrimitive:
    @given(spans_with_target(fr, Fraction(0)))
    def test_rationals(self, case):
        check_span(*case, Fraction(0))

    @given(spans_with_target(qi, GaussianRational(0)))
    def test_gaussian_rationals(self, case):
        check_span(*case, GaussianRational(0))

    def test_rational_functions(self):
        z, one, zero = RF_Z, RF_ONE, RF_ZERO
        inv = RationalFunction(LaurentPoly.constant(1), LaurentPoly({1: 1, 0: -1}))  # 1/(z-1)
        i = RationalFunction.constant(GaussianRational(0, 1))
        v1 = [z, one, zero]
        v2 = [one, inv, z + one]
        v3 = combination([z * z, i], [v1, v2], zero)
        vectors = [v1, v2, v3, [zero] * 3]
        for coeffs in ([inv, z, zero, one], [one, zero, i, zero], [zero] * 4):
            check_span(vectors, combination(coeffs, vectors, zero), zero)
        check_span(vectors, [zero, zero, one], zero)
        assert not Span(sparse_rows(vectors)).sparse_contains([(2, one)])

    def test_independent_coordinates_are_unique(self):
        vs = sparse_rows([[Fraction(1), Fraction(2), Fraction(0)], [Fraction(0), Fraction(1), Fraction(1)]])
        assert Span(vs).sparse_coordinates([(0, Fraction(2)), (1, Fraction(1)), (2, Fraction(-3))]) == [(0, 2), (1, -3)]
        assert Span(vs).sparse_coordinates([(2, Fraction(1))]) is None

    def test_no_vectors(self):
        span = Span([])
        assert span.rank == 0
        assert span.sparse_coordinates([]) == []
        assert span.sparse_coordinates([(1, Fraction(1))]) is None


def dense_mat_mul(a, b):
    """Reference product: all n**3 terms, zeros included."""
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = a[i][0] * b[0][j]
            for k in range(1, n):
                acc = acc + a[i][k] * b[k][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


sparse_fr = st.sampled_from([Fraction(0)] * 4 + [Fraction(1), Fraction(-2), Fraction(1, 3)])
sparse_qi = st.sampled_from([GaussianRational(0)] * 4 + [GaussianRational(1), GaussianRational(2, -1)])


@st.composite
def square_pairs(draw, scalar):
    n = draw(st.integers(1, 4))
    square = st.lists(st.lists(scalar, min_size=n, max_size=n).map(tuple), min_size=n, max_size=n).map(tuple)
    return draw(square), draw(square)


def sparse(m, block=0):
    """The sparse matrix {(block, r, c): x} of the nonzero entries of m."""
    return {(block, r, c): x for r, row in enumerate(m) for c, x in enumerate(row) if x}


def sparse_mul(a, b):
    return _cleaned(_product(sparse(a), sparse(b)))


class TestSparseMatMul:
    @given(square_pairs(sparse_fr))
    def test_rationals_match_dense(self, pair):
        assert sparse_mul(*pair) == sparse(dense_mat_mul(*pair))

    @given(square_pairs(sparse_qi))
    def test_gaussian_rationals_match_dense(self, pair):
        a, b = pair
        got = sparse_mul(a, b)
        assert got == sparse(dense_mat_mul(a, b))
        assert all(type(x) is GaussianRational for x in got.values())

    def test_rational_function_elementary_products(self):
        z, one, zero = RF_Z, RF_ONE, RF_ZERO

        def unit(i, j, c):
            return tuple(tuple(c if (r, s) == (i, j) else zero for s in range(3)) for r in range(3))

        for a, b in [(unit(0, 1, z), unit(1, 2, one)), (unit(0, 1, z), unit(0, 1, one)),
                     (unit(2, 0, one), unit(0, 2, z + one))]:
            assert sparse_mul(a, b) == sparse(dense_mat_mul(a, b))

    @given(square_pairs(sparse_qi), square_pairs(sparse_qi))
    def test_blocks_multiply_separately(self, first, second):
        """Each block of the product of two-block matrices, as in the pairs of
        the pencil, is the product of the blocks."""
        (a0, b0), (a1, b1) = first, second
        got = _cleaned(_product({**sparse(a0), **sparse(a1, 1)}, {**sparse(b0), **sparse(b1, 1)}))
        assert got == {**sparse(dense_mat_mul(a0, b0)), **sparse(dense_mat_mul(a1, b1), 1)}


def reference_bracket(x, y):
    """x y - y x from two products and a merge."""
    out = _product(x, y)
    for key, v in _product(y, x).items():
        out[key] = out[key] - v if key in out else -v
    return _cleaned(out)


QI = GaussianRational
I = QI(0, 1)
Z = RF_Z


def _bracket_cases():
    """Explicit pairs (one and two blocks, Q(i) and Q(i)(z) entries, sums
    that cancel, x = y), then seeded random ones."""
    pairs = [
        ({(0, 0, 1): QI(1)}, {(0, 1, 0): QI(1)}),
        ({(0, 0, 0): QI(1), (0, 0, 1): I}, {(0, 1, 0): QI(2), (0, 1, 1): QI(3, -1)}),
        ({(0, 0, 0): QI(1), (0, 1, 1): QI(2)}, {(0, 0, 0): QI(3), (0, 1, 1): QI(4)}),  # x y = y x cancel
        ({(0, 0, 1): QI(1), (0, 1, 2): QI(1)}, {(0, 0, 2): QI(5)}),  # every product vanishes
        ({(0, 0, 1): QI(1), (1, 1, 0): QI(1)}, {(0, 1, 0): QI(1), (1, 0, 1): QI(-1)}),
        ({(0, 0, 1): QI(1), (1, 0, 1): QI(1)}, {(0, 1, 0): QI(1), (1, 1, 0): QI(1)}),
        ({(0, 0, 0): QI(1)}, {(1, 0, 1): QI(1)}),  # different blocks
        ({(0, 0, 1): Z, (1, 0, 1): RF_ONE}, {(0, 1, 0): RF_ONE, (1, 1, 0): Z}),
        ({(0, 0, 0): RF_ONE, (0, 1, 1): -RF_ONE, (1, 0, 0): RF_ONE, (1, 1, 1): -RF_ONE},
         {(0, 0, 1): Z, (1, 0, 1): RF_ONE}),
        ({(0, 0, 1): Z / (Z + RF_ONE), (0, 1, 0): RF_ONE}, {(0, 1, 0): Z + RF_ONE, (0, 0, 0): RF_ONE}),
    ]
    pairs += [(x, x) for x, _ in pairs]
    rng = random.Random(28)
    for entries in ([QI(1), QI(-1), I, QI(2, 1)], [RF_ONE, -RF_ONE, Z, Z * Z + Z * I]):
        for _ in range(20):
            def draw():
                keys = {(rng.randrange(2), rng.randrange(3), rng.randrange(3)) for _ in range(rng.randint(1, 5))}
                return {key: rng.choice(entries) for key in keys}
            pairs.append((draw(), draw()))
    return pairs


class TestBracket:
    @pytest.mark.parametrize("x, y", _bracket_cases())
    def test_equals_the_difference_of_products(self, x, y):
        got = _bracket(x, y)
        assert got == reference_bracket(x, y)
        assert all(got.values())

    def test_equal_operands_commute(self):
        for x, _ in _bracket_cases():
            assert _bracket(x, x) == {}


def dense_rref(rows, ncols):
    """Reference Gauss-Jordan: every row operation runs over the whole row."""
    pivots, r = [], 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def reference_rref(rows, ncols):
    """The reduced nonzero rows of ``dense_rref`` as (index, entry) pairs."""
    rows = [list(r) for r in rows]
    return [nonzero(r) for r in rows[: len(dense_rref(rows, ncols))]]


# Each pattern has zero rows, dependent rows or a later row whose pivot lies
# left of an earlier row's pivot; the zeros of a pattern stay zero.
_PATTERNS = [
    [[0, 0, 1, 2, 0], [0, 1, 3, 0, 0], [1, 0, 0, 0, 5]],
    [[0, 0, 0, 0, 0], [0, 2, 0, 1, 0], [0, 0, 0, 0, 0], [3, 0, 1, 0, 0]],
    [[1, 2, 0, 0, 1], [2, 4, 0, 0, 2], [0, 0, 1, 1, 0], [1, 2, 1, 1, 1]],
    [[0, 1, 1, 0, 0], [1, 1, 0, 0, 0], [1, 2, 1, 0, 0], [0, 0, 0, 0, 0], [1, 0, 0, 0, 0]],
    [[0, 0, 0, 1, 1], [0, 0, 1, 1, 0], [0, 1, 1, 0, 0], [1, 1, 0, 0, 0], [1, 0, 0, 0, 1]],
    [[0, 1], [0, 2], [1, 0]],
]


def _elimination_cases():
    """(rows, zero) over Q, Q(i) and Q(i)(z): each pattern with its nonzero
    entries drawn from the field, then seeded random rows with a zero row and
    a combination of earlier rows mixed in."""
    rng = random.Random(31)
    fields = [
        (Fraction(0), [Fraction(1), Fraction(-2), Fraction(1, 3), Fraction(5, 2)]),
        (QI(0), [QI(1), I, QI(2, -1), QI(Fraction(1, 2), 3)]),
        (RF_ZERO, [RF_ONE, Z, Z + RF_ONE * I, RF_ONE / (Z - RF_ONE), Z * Z]),
    ]
    cases = []
    for zero, entries in fields:
        for pattern in _PATTERNS:
            rows = [[rng.choice(entries) if x else zero for x in row] for row in pattern]
            if pattern[1] == [2 * x for x in pattern[0]]:
                rows[1] = [rows[0][0] * x for x in rows[0]]  # keep row 1 dependent on row 0
            cases.append((rows, zero))
        for _ in range(8):
            width = rng.randint(2, 6)
            rows = [[rng.choice(entries) if rng.random() < 0.4 else zero for _ in range(width)]
                    for _ in range(rng.randint(1, 4))]
            coeffs = [rng.choice(entries + [zero]) for _ in rows]
            rows.append(combination(coeffs, rows, zero))
            rows.insert(rng.randint(0, len(rows)), [zero] * width)
            cases.append((rows, zero))
    return cases


def reference_span(vectors, zero):
    """(pivots, reduced rows) of ``dense_rref`` on the rows [v_k | e_k]."""
    one = next((x / x for v in vectors for x in v if x != 0), zero)
    m = len(vectors)
    rows = [list(v) + [one if j == k else zero for j in range(m)] for k, v in enumerate(vectors)]
    pivots = dense_rref(rows, len(vectors[0]))
    return pivots, rows[: len(pivots)]


class TestSparseReduction:
    @given(st.lists(st.lists(sparse_fr, min_size=5, max_size=5), max_size=6))
    def test_rref_matches_dense_rows(self, rows):
        assert _rref(sparse_rows(rows), 5) == reference_rref(rows, 5)

    @pytest.mark.parametrize("rows, zero", _elimination_cases())
    def test_rref_matches_dense_rref(self, rows, zero):
        """Same pivots and same rows, over every prefix of the columns."""
        width = len(rows[0])
        got = _rref(sparse_rows(rows), width)
        assert got == reference_rref(rows, width)
        assert [row[0] for row in got] == [(p, zero + 1) for p in dense_rref([list(r) for r in rows], width)]
        for ncols in range(width):
            prefix = [row[:ncols] for row in rows]
            got = _rref(sparse_rows(rows), ncols)
            assert [[(j, x) for j, x in row if j < ncols] for row in got] == reference_rref(prefix, ncols)

    @pytest.mark.parametrize("rows, zero", _elimination_cases())
    def test_span_matches_dense_reduction(self, rows, zero):
        """The Span's pivots, rows and residuals are the dense reduction's;
        its coordinates are too where they are unique (independent rows), and
        always recombine to the vector."""
        width, m = len(rows[0]), len(rows)
        span = Span(sparse_rows(rows))
        pivots, reduced = reference_span(rows, zero)
        assert span.pivots == {p: r for r, p in enumerate(pivots)}
        assert span.rows == [[(j, x) for j, x in nonzero(row[:width]) if j not in span.pivots] for row in reduced]
        independent = len(pivots) == m
        if independent:
            assert span.transforms == [nonzero(row[width:]) for row in reduced]
        units = [[zero + int(j == k) for j in range(width)] for k in range(width)]
        for w in rows + units + [combination([zero + 1] * m, rows, zero)]:
            residual = list(w)
            for p, row in zip(pivots, reduced):
                residual = [a - w[p] * b for a, b in zip(residual, row[:width])]
            got = span.sparse_residual(nonzero(w))
            assert sorted(got, key=lambda e: e[0]) == nonzero(residual)
            coords = span.sparse_coordinates(nonzero(w))
            if got:
                assert coords is None
                continue
            assert combination(dense(coords, m, zero), rows, zero) == list(w)
            if independent:
                expected = [zero] * m
                for p, row in zip(pivots, reduced):
                    expected = [a + w[p] * b for a, b in zip(expected, row[width:])]
                assert coords == nonzero(expected)


def cross(i, j):
    """The nonzero entries of e_i x e_j in Q^3, an antisymmetric product."""
    k = 3 - i - j
    if i == j:
        return []
    return [(k, Fraction(1 if (j - i) % 3 == 1 else -1))]


class TestStructureConstants:
    def test_forms_each_bracket_once(self):
        calls = []

        def bracket(i, j):
            calls.append((i, j))
            return cross(i, j)

        units = [[(i, Fraction(1))] for i in range(3)]
        table = structure_constants(Span(units), bracket, lambda i, j: AssertionError((i, j)))
        assert calls == [(0, 1), (0, 2), (1, 2)]
        assert table == tuple(tuple(tuple(cross(i, j)) for j in range(3)) for i in range(3))

    def test_first_escape_in_row_major_order(self):
        # e_0 x e_1 = e_2 leaves the span of e_0, e_1.
        units = [[(i, Fraction(1))] for i in range(2)]
        with pytest.raises(ValueError, match=r"\(0, 1\)"):
            structure_constants(Span(units), cross, lambda i, j: ValueError((i, j)))
