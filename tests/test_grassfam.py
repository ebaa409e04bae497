"""Tests for the pencil of subalgebras of g x g and its real forms."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcfam.scalars import INFINITY, GaussianRational, QI_I, QI_ONE, QI_ZERO, RF_ONE
from hcfam import grassfam
from hcfam.liefam import LieAlgebra, fiber, fiber_invariants, jacobi_witness
from hcfam.grassfam import (
    GrassmannPencil,
    NoIsomorphismFound,
    RankDropAtLimit,
    RealStructureSpec,
    contraction_comparison,
    family_from_pairs,
    fiber_group_closure_check,
    k_basis,
    limit_subspace,
    p_basis,
    pair_bracket,
    pencil_basis,
    real_form_at,
    verify_subalgebra,
    _real_coordinates,
    _sigma_orbits,
    _trace_form,
)
from hcfam import cli
from hcfam.linalg import Span, _flat, _flat_n, matrix_constants, signature, span_rank, structure_constants
from test_liefam import dense_fiber_invariants
from test_linalg import dense_rref, sparse_rows

QI = GaussianRational


def span_of(basis):
    """The Span of the pairs as flat vectors, and the n of their flat index."""
    n = _flat_n(basis)
    return Span([_flat(v, n) for v in basis]), n


def table_of(basis):
    """The structure constants of a basis of pairs, read by ``matrix_constants``."""
    return matrix_constants(basis, lambda i, j: ValueError(f"bracket {i},{j} leaves the span"))


def kernel(rows, one, zero):
    """A basis of the right kernel of a dense matrix given by its rows: one
    vector per free column of the reduced echelon form."""
    rows = [list(row) for row in rows]
    ncols = len(rows[0])
    pivots = dense_rref(rows, ncols)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        v = [zero] * ncols
        v[free] = one
        for r, pc in enumerate(pivots):
            v[pc] = zero - rows[r][free]
        basis.append(v)
    return basis


def killing_matrix(constants):
    """B(e_a, e_b) = tr(ad e_a ad e_b) = sum over j, k of c_aj^k c_bk^j,
    summed over the nonzero constants of the sparse table only."""
    ad = [{(j, k): c for j, cell in enumerate(row) for k, c in cell} for row in constants]
    return [
        [sum((c * ad_b[k, j] for (j, k), c in ad_a.items() if (k, j) in ad_b), QI_ZERO) for ad_b in ad]
        for ad_a in ad
    ]


rational_matrices = st.lists(
    st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=5), min_size=4, max_size=4),
    min_size=3, max_size=3,
)


class TestKernel:
    """The kernel that ``rational_real_form`` reads its real basis from."""

    @given(rational_matrices)
    def test_rank_nullity(self, m):
        assert span_rank(sparse_rows(m)) + len(kernel(m, Fraction(1), Fraction(0))) == 4

    @given(rational_matrices)
    def test_kernel_vectors_annihilate(self, m):
        for v in kernel(m, Fraction(1), Fraction(0)):
            assert all(sum((x * y for x, y in zip(row, v)), Fraction(0)) == 0 for row in m)


class TestPencilBases:
    def test_dimensions(self):
        pen = GrassmannPencil(2, 1)
        assert len(k_basis(pen)) == 5
        assert len(p_basis(pen, 1)) == 4
        assert len(k_basis(GrassmannPencil(2, 1, det_one=True))) == 4

    def test_t_equal_one_is_diagonal_copy(self):
        pen = GrassmannPencil(1, 1)
        for v in pencil_basis(pen, 1):
            first, second = ({(r, c): x for (s, r, c), x in v.items() if s == k} for k in (0, 1))
            assert first == second

    def test_symbolic_pencil_is_subalgebra(self):
        for pen in (GrassmannPencil(1, 1, det_one=True), GrassmannPencil(2, 1, det_one=True)):
            assert verify_subalgebra(pencil_basis(pen)) is None

    def test_corrupted_basis_witnessed(self):
        pen = GrassmannPencil(1, 1, det_one=True)
        basis = pencil_basis(pen, 2)
        # Replace one vector by a pair that is not in any subalgebra of the
        # pencil: a strictly upper-triangular first component only.
        basis[1] = {(0, 0, 1): QI_ONE}
        assert verify_subalgebra(basis) is not None

    @pytest.mark.parametrize("pq, t, k, bad", [
        ((1, 1), QI(2), 1, {(0, 0, 1): QI_ONE}),
        ((2, 1), QI(-1, 1), 4, {(0, 0, 2): QI_ONE, (1, 2, 0): QI_I}),
        ((2, 1), None, 6, {(0, 1, 2): RF_ONE}),
    ], ids=["1,1", "2,1", "2,1-symbolic"])
    def test_witness_residual_is_the_bracket_off_the_span(self, pq, t, k, bad):
        """The residual of the failing bracket is nonzero, zero at every pivot
        column, and the bracket less the residual lies in the span."""
        basis = pencil_basis(GrassmannPencil(*pq, det_one=True), t)
        basis[k] = bad
        i, j, residual = verify_subalgebra(basis)
        span, n = span_of(basis)
        bracket = pair_bracket(basis[i], basis[j])
        assert residual and not span.sparse_contains(_flat(bracket, n))
        assert all(x and key not in span.pivots for key, x in _flat(residual, n))
        rest = dict(bracket)
        for key, x in residual.items():
            rest[key] = rest[key] - x if key in rest else -x
        assert span.sparse_contains(_flat({key: x for key, x in rest.items() if x}, n))
        assert all(span.sparse_contains(_flat(pair_bracket(basis[a], basis[b]), n))
                   for a in range(len(basis)) for b in range(a + 1, len(basis)) if (a, b) < (i, j))

    def test_generic_fiber_has_full_derived_algebra(self):
        pen = GrassmannPencil(1, 1, det_one=True)
        fam = family_from_pairs(("h", "u", "v"), pencil_basis(pen))
        for t in (QI(1), QI(-2), QI_I):
            inv = fiber_invariants(fiber(fam, t))
            assert inv["dim_derived"] == 3 and not inv["solvable"]


class TestLimits:
    def test_limit_displays_rank_one(self):
        pen = GrassmannPencil(1, 1, det_one=True)
        assert limit_subspace(pen, QI_ZERO) == [{(1, 0, 1): QI_ONE}, {(0, 1, 0): QI_ONE}]
        assert limit_subspace(pen, INFINITY) == [{(0, 0, 1): QI_ONE}, {(1, 1, 0): QI_ONE}]

    def test_limits_abelian(self):
        for pq in ((1, 1), (2, 1)):
            pen = GrassmannPencil(*pq, det_one=True)
            for boundary in (QI_ZERO, INFINITY):
                limited = limit_subspace(pen, boundary)
                assert len(limited) == 2 * pq[0] * pq[1]
                for x in limited:
                    for y in limited:
                        assert not pair_bracket(x, y)

    def test_limit_independent_of_basis_order(self):
        pen = GrassmannPencil(2, 1, det_one=True)
        limited = limit_subspace(pen, QI_ZERO)
        span, n = span_of(limited)
        rng = random.Random(4)
        shuffled = list(limited)
        rng.shuffle(shuffled)
        for v in shuffled:
            assert span.sparse_contains(_flat(v, n))
        assert span.rank == len(limited)


def repeat_first_limit(monkeypatch):
    """Make every limit vector the first one, so that a limit drops rank."""
    limit_vector, first = grassfam._limit_vector, []

    def repeating(pair, boundary):
        first.append(limit_vector(pair, boundary))
        return first[0]

    monkeypatch.setattr(grassfam, "_limit_vector", repeating)


class TestRankDropAtLimit:
    @pytest.mark.parametrize("boundary", [0, QI_ZERO, INFINITY], ids=["int 0", "0", "inf"])
    def test_real_form_refuses_a_dependent_limit(self, boundary, monkeypatch):
        repeat_first_limit(monkeypatch)
        with pytest.raises(RankDropAtLimit, match=f"limit at {boundary} spans less than dimension 4"):
            real_form_at(GrassmannPencil(2, 1, det_one=True), boundary)

    def test_limit_and_closure_keep_their_check(self, monkeypatch, capsys):
        """limit and closure refuse a dependent limit with the same error, in
        the library and as the CLI's exit 3."""
        repeat_first_limit(monkeypatch)
        pen = GrassmannPencil(2, 1)
        for boundary in (QI_ZERO, INFINITY):
            message = f"limit at {boundary} spans less than dimension 4"
            for check in (limit_subspace, fiber_group_closure_check):
                with pytest.raises(RankDropAtLimit, match=message):
                    check(pen, boundary)
            capsys.readouterr()
            assert cli.run(["grassmann", "closure", "--pq", "2,1", "--boundary", str(boundary)]) == 3
            assert capsys.readouterr().out == '{"error":"RankDropAtLimit","message":"%s"}\n' % message

    def test_one_elimination_per_closure(self, monkeypatch):
        """When closure takes the limit itself, the limit vectors are
        eliminated only in the Span it checks against."""
        ranks = []
        monkeypatch.setattr(grassfam, "span_rank", lambda vectors: ranks.append(vectors))
        for boundary in (QI_ZERO, INFINITY):
            assert fiber_group_closure_check(GrassmannPencil(2, 1), boundary) is None
        assert ranks == []

    def test_one_elimination_per_boundary_real_form(self, monkeypatch):
        """At 0 and infinity the limit vectors are eliminated only in the
        fiber's Span, not first by span_rank."""
        ranks = []
        monkeypatch.setattr(grassfam, "span_rank", lambda vectors: ranks.append(vectors))
        for boundary in (QI_ZERO, INFINITY):
            assert real_form_at(GrassmannPencil(2, 1, det_one=True), boundary).dimension == 8
        assert ranks == []


class TestClosure:
    def test_degenerate_fibers_closed(self):
        pen = GrassmannPencil(1, 1, det_one=True)
        assert fiber_group_closure_check(pen, QI_ZERO) is None
        assert fiber_group_closure_check(pen, INFINITY) is None

    def test_generic_fiber_not_closed(self):
        pen = GrassmannPencil(1, 1, det_one=True)
        assert fiber_group_closure_check(pen, p_pairs=p_basis(pen, 1)) is not None


class TestComparison:
    def test_rank_one_pencil_is_contraction_family(self):
        phi = contraction_comparison(GrassmannPencil(1, 1, det_one=True))
        assert len(phi.images) == 3

    def test_requires_rank_one_det_one(self):
        with pytest.raises(NoIsomorphismFound):
            contraction_comparison(GrassmannPencil(2, 1, det_one=True))

    def test_fiber_invariants_match_contraction(self):
        from hcfam.liefam import contraction_family, sl2_algebra
        from hcfam.sl2fam import sl2_involution

        pen_fam = family_from_pairs(
            ("h", "u", "v"), pencil_basis(GrassmannPencil(1, 1, det_one=True))
        )
        con = contraction_family(sl2_algebra(), sl2_involution())
        for t in (QI_ZERO, QI(1), QI(-1)):
            assert fiber_invariants(fiber(pen_fam, t)) == fiber_invariants(fiber(con, t))


class TestRealStructure:
    def test_sigma_squared_identity(self):
        sigma = RealStructureSpec(1, 1)
        for v in pencil_basis(GrassmannPencil(1, 1, det_one=True), QI(2)):
            assert sigma.apply(sigma.apply(v)) == v

    def test_sigma_maps_fiber_to_conjugate_fiber(self):
        pen = GrassmannPencil(1, 1, det_one=True)
        sigma = RealStructureSpec(1, 1)
        x = QI(1, 2)  # 1 + 2i
        target, n = span_of(pencil_basis(pen, x.conjugate()))
        for v in pencil_basis(pen, x):
            assert target.sparse_contains(_flat(sigma.apply(v), n))

    def test_sigma_commutes_with_block_conjugation(self):
        """Against a dense reference: theta conjugates both matrices by
        J = diag(I_q, -I_p) with a plain product of all n**3 terms."""
        sigma = RealStructureSpec(1, 1)
        n = 2
        J = [[QI_ONE if r == c == 0 else -QI_ONE if r == c else QI_ZERO for c in range(n)] for r in range(n)]

        def dense_mul(a, b):
            return [[sum((a[r][k] * b[k][c] for k in range(n)), QI_ZERO) for c in range(n)] for r in range(n)]

        def theta(pair):
            dense = [[[pair.get((s, r, c), QI_ZERO) for c in range(n)] for r in range(n)] for s in (0, 1)]
            conj = [dense_mul(dense_mul(J, m), J) for m in dense]
            return {(s, r, c): x for s, m in enumerate(conj) for r, row in enumerate(m) for c, x in enumerate(row) if x}

        for v in pencil_basis(GrassmannPencil(1, 1), QI(3)):
            assert sigma.apply(theta(v)) == theta(sigma.apply(v))


class TestRealForms:
    def test_rank_one_signatures(self):
        pen = GrassmannPencil(1, 1, det_one=True)
        assert real_form_at(pen, 1).signature == (2, 0, 1)
        assert real_form_at(pen, -1).signature == (0, 0, 3)
        assert real_form_at(pen, Fraction(1, 4)).signature == (2, 0, 1)
        assert real_form_at(pen, -9).signature == (0, 0, 3)

    def test_boundary_motion_algebra(self):
        report = real_form_at(GrassmannPencil(1, 1, det_one=True), 0)
        assert report.dimension == 3
        assert report.invariants["solvable"]
        assert report.signature[1] > 0

    def test_rank_two_signatures(self):
        pen = GrassmannPencil(2, 1, det_one=True)
        assert real_form_at(pen, 1).signature == (4, 0, 4)
        assert real_form_at(pen, -1).signature == (0, 0, 8)

    @pytest.mark.parametrize("x", [Fraction(3, 2), Fraction(-2)], ids=["x>0", "x<0"])
    @pytest.mark.parametrize(
        "p, q", [(p, q) for p in range(1, 4) for q in range(1, 4) if p + q <= 4]
    )
    def test_signature_sweep(self, p, q, x):
        """su(p,q) over x > 0 and the compact su(p+q) over x < 0, from the
        closed-form Killing signatures."""
        n = p + q
        report = real_form_at(GrassmannPencil(p, q, det_one=True), x)
        assert report.dimension == n * n - 1
        if x > 0:
            assert report.signature == (2 * p * q, 0, p * p + q * q - 1)
        else:
            assert report.signature == (0, 0, n * n - 1)

    @pytest.mark.parametrize("det_one", [False, True], ids=["gl", "sl"])
    def test_fiber_invariants_against_the_dense_path(self, det_one):
        """On every fiber the tests above read a real form from."""
        fibers = [((1, 1), x) for x in (1, -1, Fraction(1, 4), -9, 0)] + [((2, 1), 1), ((2, 1), -1)]
        fibers += [((p, q), x) for p in range(1, 4) for q in range(1, 4) if p + q <= 4 for x in (Fraction(3, 2), -2)]
        for (p, q), x in fibers:
            pencil = GrassmannPencil(p, q, det_one=det_one)
            fiber = k_basis(pencil) + (limit_subspace(pencil, QI_ZERO) if x == 0 else p_basis(pencil, x))
            algebra = LieAlgebra.from_constants(tuple(f"b{j}" for j in range(len(fiber))), table_of(fiber))
            expected = dense_fiber_invariants(algebra)
            assert fiber_invariants(algebra) == expected == real_form_at(pencil, x).invariants, (p, q, x)

    def test_complex_point_rejected(self):
        with pytest.raises(ValueError):
            real_form_at(GrassmannPencil(1, 1, det_one=True), QI_I)


def sylvester_signature(sym):
    """(n_plus, n_zero, n_minus) of a dense symmetric rational matrix, by
    exact symmetric Gaussian reduction of the whole matrix: the oracle of
    ``linalg.signature``, which reduces each connected block apart."""
    n = len(sym)
    m = [list(row) for row in sym]
    plus = minus = zero = 0
    for i in range(n):
        if m[i][i] == 0:
            swap = next((j for j in range(i + 1, n) if m[j][j] != 0), None)
            if swap is not None:
                m[i], m[swap] = m[swap], m[i]
                for row in m:
                    row[i], row[swap] = row[swap], row[i]
            else:
                off = next((j for j in range(i + 1, n) if m[i][j] != 0), None)
                if off is None:
                    zero += 1
                    continue
                for c in range(n):
                    m[i][c] += m[off][c]
                for r in range(n):
                    m[r][i] += m[r][off]
        d = m[i][i]
        if d > 0:
            plus += 1
        else:
            minus += 1
        for r in range(i + 1, n):
            if m[r][i] != 0:
                f = m[r][i] / d
                for c in range(n):
                    m[r][c] -= f * m[i][c]
        for c in range(i + 1, n):
            if m[i][c] != 0:
                f = m[i][c] / d
                for r in range(n):
                    m[r][c] -= f * m[r][i]
    return (plus, zero, minus)


def dense_matrix(rows, zero=Fraction(0)):
    out = [[zero] * len(rows) for _ in rows]
    for i, row in enumerate(rows):
        for j, x in (row.items() if isinstance(row, dict) else row):
            out[i][j] = x
    return out


def congruent(m, s):
    """S^T M S."""
    n = len(m)
    ms = [[sum((m[a][b] * s[b][j] for b in range(n)), Fraction(0)) for j in range(n)] for a in range(n)]
    return [[sum((s[a][i] * ms[a][j] for a in range(n)), Fraction(0)) for j in range(n)] for i in range(n)]


def component_count(m):
    """The connected components of the nonzero pattern, by search."""
    seen, count = set(), 0
    for start in range(len(m)):
        if start in seen:
            continue
        count, todo = count + 1, [start]
        seen.add(start)
        while todo:
            i = todo.pop()
            for j, x in enumerate(m[i]):
                if x and j not in seen:
                    seen.add(j)
                    todo.append(j)
    return count


#: Block sizes of the planted patterns.
_PLANTED = [
    [1, 1, 1],
    [3, 1, 2, 1],
    [1, 4, 1, 1, 3],
    [2, 2, 2],
    [5, 1],
    [1, 1, 2, 1, 1, 3, 1],
    [6, 1, 4],
]


def planted(rng, sizes):
    """A block diagonal symmetric rational matrix over consecutive blocks of
    the given sizes: a singleton is positive, negative or zero; a larger
    block is a seeded tree (each index joined to a random earlier one, so
    stars and chains both occur) with a random diagonal, zeros included, so
    that it is sometimes indefinite or singular."""
    n = sum(sizes)
    m = [[Fraction(0)] * n for _ in range(n)]
    start = 0
    for size in sizes:
        for a in range(start, start + size):
            m[a][a] = Fraction(rng.choice([-3, -1, 0, 0, 1, 2, 5]), rng.randint(1, 3))
            if a > start:
                b = rng.randrange(start, a)
                m[a][b] = m[b][a] = Fraction(rng.choice([-2, -1, 1, 3]), rng.randint(1, 2))
        start += size
    return m


class TestSignature:
    def test_examples(self):
        F = Fraction
        for m, expected in [
            ([[F(2), F(0)], [F(0), F(-3)]], (1, 0, 1)),
            ([[F(0), F(1)], [F(1), F(0)]], (1, 0, 1)),
            ([[F(0)] * 3] * 3, (0, 3, 0)),
            ([[F(1), F(0), F(1)], [F(0), F(-2), F(0)], [F(1), F(0), F(1)]], (1, 1, 1)),
        ]:
            assert sylvester_signature(m) == signature(sparse_rows(m)) == expected

    def test_congruence_invariance(self):
        F = Fraction
        rng = random.Random(9)
        base = [
            [F(2), F(1), F(0)],
            [F(1), F(-1), F(3)],
            [F(0), F(3), F(0)],
        ]
        sig = sylvester_signature(base)
        assert signature(sparse_rows(base)) == sig
        for _ in range(5):
            # Random invertible change of basis S: compute S^T K S.
            s = [[F(rng.randint(-3, 3)) for _ in range(3)] for _ in range(3)]
            s[0][0] += F(7)  # push towards invertibility
            det = (
                s[0][0] * (s[1][1] * s[2][2] - s[1][2] * s[2][1])
                - s[0][1] * (s[1][0] * s[2][2] - s[1][2] * s[2][0])
                + s[0][2] * (s[1][0] * s[2][1] - s[1][1] * s[2][0])
            )
            if det == 0:
                continue
            conj = congruent(base, s)
            assert sylvester_signature(conj) == signature(sparse_rows(conj)) == sig

    @pytest.mark.parametrize("sizes", _PLANTED, ids=lambda sizes: "-".join(map(str, sizes)))
    @pytest.mark.parametrize("seed", range(8))
    def test_planted_blocks(self, sizes, seed):
        """On a planted block pattern the signature is the dense oracle's, and
        it stays so under a seeded permutation congruence, which scatters the
        blocks, and under a seeded unimodular congruence, which merges them
        into one block."""
        rng = random.Random(f"planted:{sizes}:{seed}")
        m = planted(rng, sizes)
        expected = sylvester_signature(m)
        assert component_count(m) == len(sizes)
        assert signature(sparse_rows(m)) == expected
        n = len(m)
        perm = list(range(n))
        rng.shuffle(perm)
        scattered = [[m[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
        assert signature(sparse_rows(scattered)) == expected
        # S = L^T U L with L and U unitriangular of seeded entries: det S = 1.
        lower, upper = ([[Fraction(1 if i == j else rng.randint(1, 2) if (i > j) == low else 0) for j in range(n)]
                         for i in range(n)] for low in (True, False))
        merged = congruent(scattered, congruent(upper, lower))
        assert component_count(merged) == 1
        assert signature(sparse_rows(merged)) == sylvester_signature(merged) == expected

    @pytest.mark.parametrize("det_one", [False, True], ids=["gl", "sl"])
    @pytest.mark.parametrize("p, q", [(p, q) for p in range(1, 6) for q in range(1, 6) if p + q <= 6])
    def test_real_forms_against_the_dense_oracle(self, p, q, det_one, monkeypatch):
        """real_form_at's signature is the dense oracle's on the symmetric
        matrix it reads it from."""
        seen = []
        monkeypatch.setattr(grassfam, "signature", lambda rows: seen.append(rows) or signature(rows))
        pencil = GrassmannPencil(p, q, det_one=det_one)
        for x in (1, -1, 3, Fraction(-2, 5), 0, INFINITY):
            report = real_form_at(pencil, x)
            m = dense_matrix(seen.pop())
            assert m == [list(col) for col in zip(*m)], x
            assert report.signature == sylvester_signature(m), x


def killing_signature(p, q, det_one, x):
    """Closed-form Killing signature of the real form over x; c counts the
    center of gl(p+q), which ``det_one`` removes."""
    c = 0 if det_one else 1
    if x is INFINITY or x == 0:
        return (0, 2 * p * q + c, p * p + q * q - 1)  # Cartan motion algebra
    if x > 0:
        return (2 * p * q, c, p * p + q * q - 1)  # u(p, q) or su(p, q)
    return (0, c, (p + q) ** 2 - 1)  # the compact form


class TestRealFormTable:
    @pytest.mark.parametrize("det_one", [False, True], ids=["gl", "sl"])
    @pytest.mark.parametrize("p, q", [(p, q) for p in range(1, 6) for q in range(1, 6) if p + q <= 6])
    def test_closed_form_signatures(self, p, q, det_one):
        """Every p + q <= 6 at x in {1, -1, 0, inf} and at one seeded random
        rational of each sign; the signature depends only on the sign of x."""
        rng = random.Random(f"realform:{p},{q},{det_one}")
        positive = Fraction(rng.randint(1, 40), rng.randint(1, 40))
        negative = -Fraction(rng.randint(1, 40), rng.randint(1, 40))
        pencil = GrassmannPencil(p, q, det_one=det_one)
        n = p + q
        got = {}
        for x in (1, -1, 0, INFINITY, positive, negative):
            report = real_form_at(pencil, x)
            assert report.dimension == n * n - (1 if det_one else 0)
            assert report.signature == killing_signature(p, q, det_one, x), x
            got[x] = report.signature
        assert got[positive] == got[1] and got[negative] == got[-1] and got[0] == got[INFINITY]

    @pytest.mark.parametrize("det_one", [False, True], ids=["gl", "sl"])
    @pytest.mark.parametrize("p, q", [(p, q) for p in range(1, 4) for q in range(1, 4) if p + q <= 4])
    def test_tables_satisfy_jacobi(self, p, q, det_one):
        """real_form_at builds its algebra without re-checking the table it
        reads from matrix commutators; check antisymmetry and Jacobi here, on
        the table of the real basis it returns."""
        pencil = GrassmannPencil(p, q, det_one=det_one)
        for x in (1, -1, 0, INFINITY, Fraction(2, 3)):
            table = table_of(real_form_at(pencil, x).basis)
            assert jacobi_witness(table, QI_ZERO) is None, x


def rational_real_form(pencil, x):
    """The real form over x computed as it was before the Q(i) path: the fiber
    as a rational space with basis (b, i*b), every entry split into two
    Fractions, and rational eliminations throughout.  Returns the basis (as
    sparse pairs), the structure constants, the signature and the invariants."""
    if x is INFINITY or x == 0:
        fiber_basis = k_basis(pencil) + limit_subspace(pencil, INFINITY if x is INFINITY else QI_ZERO)
    else:
        fiber_basis = k_basis(pencil) + p_basis(pencil, x)
    n, sigma = pencil.n, RealStructureSpec(pencil.p, pencil.q)

    def real_flat(v):
        return [(2 * j + part, c) for j, e in _flat(v, n) for part, c in enumerate((e.re, e.im)) if c]

    rb = [v for b in fiber_basis for v in (b, {k: QI_I * e for k, e in b.items()})]
    span = Span([real_flat(v) for v in rb])
    columns = [dict(span.sparse_coordinates(real_flat(sigma.apply(v)))) for v in rb]
    m = len(rb)
    fixed = [[columns[j].get(i, 0) - (1 if i == j else 0) for j in range(m)] for i in range(m)]
    real_basis = []
    for coeffs in kernel(fixed, Fraction(1), Fraction(0)):
        acc = {}
        for c, v in zip(coeffs, rb):
            for key, e in v.items():
                acc[key] = acc.get(key, QI_ZERO) + GaussianRational(c) * e
        real_basis.append({key: e for key, e in acc.items() if e})
    constants = structure_constants(
        Span([real_flat(v) for v in real_basis]),
        lambda i, j: real_flat(pair_bracket(real_basis[i], real_basis[j])),
        lambda i, j: ValueError("real form is not bracket-closed"),
    )
    ad = [{(j, k): c for j, cell in enumerate(row) for k, c in cell} for row in constants]
    killing = [[sum((c * b[k, j] for (j, k), c in a.items() if (k, j) in b), Fraction(0)) for b in ad] for a in ad]
    algebra = LieAlgebra.from_constants(tuple(f"r{i}" for i in range(len(real_basis))), constants)
    return (
        real_basis,
        constants,
        sylvester_signature(killing),
        fiber_invariants(algebra),
    )


class TestRealFormAgainstRationalPath:
    @pytest.mark.parametrize("det_one", [False, True], ids=["gl", "sl"])
    @pytest.mark.parametrize("p, q", [(p, q) for p in range(1, 4) for q in range(1, 4) if p + q <= 4])
    def test_same_real_form(self, p, q, det_one):
        """The Q(i) path gives the rational path's basis, signature and
        invariants, at 1, -1, 0, inf and a seeded rational of each sign; the
        structure constants of its basis, read here, are the rational path's."""
        rng = random.Random(f"rational-path:{p},{q},{det_one}")
        positive = Fraction(rng.randint(1, 40), rng.randint(1, 40))
        negative = -Fraction(rng.randint(1, 40), rng.randint(1, 40))
        pencil = GrassmannPencil(p, q, det_one=det_one)
        for x in (1, -1, 0, INFINITY, positive, negative):
            basis, constants, signature, invariants = rational_real_form(pencil, x)
            report = real_form_at(pencil, x)
            assert report.basis == basis, x
            assert table_of(report.basis) == constants, x
            assert (report.signature, report.invariants) == (signature, invariants), x

    def test_flipped_sign_on_an_orbit_is_not_fixed(self, monkeypatch):
        # With e negated on the orbit {b_1, b_2} of the p vectors, the vector
        # e b_1 + b_2 goes to its negative.
        pencil = GrassmannPencil(1, 1, det_one=True)
        orbits = _sigma_orbits(k_basis(pencil) + p_basis(pencil, 1), RealStructureSpec(1, 1))
        assert orbits == [(0, 0, -QI_ONE), (1, 2, QI_ONE)]
        monkeypatch.setattr(grassfam, "_sigma_orbits", lambda fiber, sigma: [orbits[0], (1, 2, -QI_ONE)])
        with pytest.raises(ValueError, match="real basis is not fixed"):
            real_form_at(pencil, 1)

    def test_basis_vector_times_i_is_not_fixed(self, monkeypatch):
        # The closed-form basis is Killing-orthogonal, so i * r0 keeps the
        # restricted Killing matrix real and flips one sign of the signature:
        # only the sigma check tells it apart.
        pencil = GrassmannPencil(2, 1, det_one=True)
        fiber = k_basis(pencil) + p_basis(pencil, -1)
        real_coordinates = grassfam._real_coordinates
        r0 = {j: QI_I * c for j, c in real_coordinates(_sigma_orbits(fiber, RealStructureSpec(2, 1)))[0].items()}
        killing = killing_matrix(table_of(fiber))
        b00 = sum((u * v * killing[j][k] for j, u in r0.items() for k, v in r0.items()), QI_ZERO)
        assert b00.is_real() and b00.re > 0
        assert real_form_at(pencil, -1).signature == (0, 0, 8)
        monkeypatch.setattr(grassfam, "_real_coordinates", lambda orbits: [r0] + real_coordinates(orbits)[1:])
        with pytest.raises(ValueError, match="real basis is not fixed"):
            real_form_at(pencil, -1)


def first_trace(x, y):
    """tr(XY) and tr X tr Y of the first matrices X, Y of two pairs."""
    xs, ys = ({(r, c): v for (s, r, c), v in pair.items() if s == 0} for pair in (x, y))
    txy = sum((v * ys[c, r] for (r, c), v in xs.items() if (c, r) in ys), QI_ZERO)
    tx, ty = (sum((v for (r, c), v in m.items() if r == c), QI_ZERO) for m in (xs, ys))
    return txy, tx * ty


class TestFiberKillingMatrix:
    @pytest.mark.parametrize("det_one", [False, True], ids=["gl", "sl"])
    @pytest.mark.parametrize("p, q", [(p, q) for p in range(1, 5) for q in range(1, 5) if p + q <= 5])
    def test_killing_in_the_pencil_basis(self, p, q, det_one):
        """The Killing matrix of the fiber's table in the basis of k then p
        has no k-p terms, the same k block at every x, x times the p block at
        1 over x and a zero p block at 0 and inf; at 1 it is the Killing form
        2N tr(XY) - 2 tr X tr Y of gl(N), or 2N tr(XY) of sl(N), on the first
        matrices."""
        pencil = GrassmannPencil(p, q, det_one=det_one)
        n, ks = pencil.n, len(k_basis(pencil))
        at_one = k_basis(pencil) + p_basis(pencil, 1)
        one = killing_matrix(table_of(at_one))
        for a, x in enumerate(at_one):
            for b, y in enumerate(at_one):
                txy, txty = first_trace(x, y)
                assert one[a][b] == 2 * n * txy - (0 if det_one else 2 * txty), (a, b)
        for x in (QI(3), QI(-2), QI(Fraction(1, 5)), QI_ZERO, INFINITY):
            boundary = x is INFINITY or x == 0
            fiber = k_basis(pencil) + (limit_subspace(pencil, x) if boundary else p_basis(pencil, x))
            killing = killing_matrix(table_of(fiber))
            assert all(killing[a][b] == 0 == killing[b][a] for a in range(ks) for b in range(ks, len(fiber))), x
            assert [row[:ks] for row in killing[:ks]] == [row[:ks] for row in one[:ks]], x
            scale = QI_ZERO if boundary else x
            assert [row[ks:] for row in killing[ks:]] == [[scale * c for c in row[ks:]] for row in one[ks:]], x


class TestTraceFormAgainstOracle:
    @pytest.mark.parametrize("det_one", [False, True], ids=["gl", "sl"])
    @pytest.mark.parametrize("p, q", [(p, q) for p in range(1, 5) for q in range(1, 5) if p + q <= 5])
    def test_real_killing_matrix_is_the_congruence(self, p, q, det_one, monkeypatch):
        """The trace form of real_form_at's basis is, entry by entry over
        Q(i), the fiber's Killing matrix by congruence with the real
        coordinates, and its real part is the matrix the signature is read
        from.  A signature alone cannot tell 2N from N; this can."""
        pencil, sigma = GrassmannPencil(p, q, det_one=det_one), RealStructureSpec(p, q)
        seen = []
        monkeypatch.setattr(grassfam, "signature", lambda rows: seen.append(rows) or signature(rows))
        for x in (QI(1), QI(-1), QI(3), QI(Fraction(-2, 5)), QI_ZERO, INFINITY):
            boundary = x is INFINITY or x == 0
            fiber = k_basis(pencil) + (limit_subspace(pencil, x) if boundary else p_basis(pencil, x))
            killing = killing_matrix(table_of(fiber))
            coordinates = _real_coordinates(_sigma_orbits(fiber, sigma))
            congruence = [
                [sum((u * v * killing[j][k] for j, u in a.items() for k, v in b.items()), QI_ZERO) for b in coordinates]
                for a in coordinates
            ]
            report = real_form_at(pencil, x)
            assert dense_matrix(_trace_form(report.basis, pencil.n), QI_ZERO) == congruence, x
            assert dense_matrix(seen.pop()) == [[c.re for c in row] for row in congruence], x


def signed_permutation(fiber, sigma):
    """[(k, e)] with sigma(b_j) = e * b_k, e = 1 or -1, found by comparing
    sigma(b_j) with every +-b_k; None when some sigma(b_j) is none of them."""
    perm = []
    for b in fiber:
        image = sigma.apply(b)
        found = [(k, e) for k, c in enumerate(fiber) for e in (1, -1) if image == {key: e * v for key, v in c.items()}]
        if len(found) != 1:
            return None
        perm.append(found[0])
    return perm


class TestSigmaPermutesTheFiber:
    @pytest.mark.parametrize("det_one", [False, True], ids=["gl", "sl"])
    @pytest.mark.parametrize("p, q", [(p, q) for p in range(1, 6) for q in range(1, 6) if p + q <= 6])
    def test_signed_involutive_permutation(self, p, q, det_one):
        """Over a real point, 0 and inf, sigma sends each fiber basis vector
        to plus or minus one fiber basis vector, as an involution; the orbits
        real_form_at reads are those.  Over a non-real point sigma maps the
        fiber onto the conjugate fiber, so it permutes no basis."""
        rng = random.Random(f"sigma-orbits:{p},{q},{det_one}")
        positive = Fraction(rng.randint(1, 40), rng.randint(1, 40))
        negative = -Fraction(rng.randint(1, 40), rng.randint(1, 40))
        non_real = QI(Fraction(rng.randint(-9, 9), rng.randint(1, 9)), Fraction(rng.randint(1, 9), rng.randint(1, 9)))
        pencil, sigma = GrassmannPencil(p, q, det_one=det_one), RealStructureSpec(p, q)
        fibers = [k_basis(pencil) + p_basis(pencil, x) for x in (1, -1, positive, negative)]
        fibers += [k_basis(pencil) + limit_subspace(pencil, boundary) for boundary in (QI_ZERO, INFINITY)]
        for fiber in fibers:
            perm = signed_permutation(fiber, sigma)
            assert perm is not None
            assert all(perm[k] == (j, e) for j, (k, e) in enumerate(perm))
            assert _sigma_orbits(fiber, sigma) == sorted(
                ((j, k, QI(e)) for j, (k, e) in enumerate(perm) if j <= k), key=lambda orbit: orbit[1]
            )
        fiber = k_basis(pencil) + p_basis(pencil, non_real)
        assert signed_permutation(fiber, sigma) is None
        with pytest.raises(ValueError, match="does not permute this fiber basis"):
            _sigma_orbits(fiber, sigma)


sparse_pairs = st.dictionaries(
    st.tuples(st.integers(0, 1), st.integers(0, 2), st.integers(0, 2)),
    st.builds(QI, st.integers(-3, 3), st.integers(-2, 2)).filter(bool),
    max_size=6,
)


class TestPairBracketAntisymmetry:
    @given(sparse_pairs, sparse_pairs)
    @settings(max_examples=60, deadline=None)
    def test_pair_bracket_is_antisymmetric(self, x, y):
        """structure_constants forms only [b_i, b_j] with i < j and negates
        it for (j, i), which needs this."""
        assert pair_bracket(x, y) == {key: -v for key, v in pair_bracket(y, x).items()}
