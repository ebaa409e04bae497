"""Tests for Lie algebras and families over the line."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcfam.scalars import (
    INFINITY,
    GaussianRational,
    LaurentPoly,
    PoleAtPoint,
    RF_ONE,
    RF_Z,
    RF_ZERO,
    RationalFunction,
)
from hcfam.liefam import (
    FamilyMorphism,
    Involution,
    InvalidInvolution,
    LieAlgebra,
    NotALieAlgebra,
    NotASubalgebra,
    base_change,
    check_morphism,
    constant_family,
    contraction_family,
    deformation_family,
    fiber,
    fiber_invariants,
    glue_consistent,
    gl2_algebra,
    jacobi_check,
    jacobi_witness,
    bracket_with,
    _sparse_table,
    matrix_algebra,
    scaled_bracket_family,
    sl2_algebra,
)
from hcfam.sl2fam import gl2_involution, sl2_involution
from hcfam.cli import build_family
from hcfam.linalg import span_rank
from test_linalg import dense_rank, dense_rref

QI = GaussianRational


def abelian_algebra(d: int) -> LieAlgebra:
    return LieAlgebra.from_constants(tuple(f"e{i}" for i in range(d)), [[()] * d] * d)


class TestLieAlgebra:
    def test_sl2_relations(self):
        c = sl2_algebra().constants
        h, x, y = ({j: QI(1)} for j in range(3))
        assert bracket_with(c, h, x) == {1: QI(2)}
        assert bracket_with(c, h, y) == {2: QI(-2)}
        assert bracket_with(c, x, y) == {0: QI(1)}
        assert bracket_with(c, x, x) == {} and bracket_with(c, {}, y) == {}

    def test_jacobi_rejects_corruption(self):
        g = sl2_algebra()
        bad = [[dict(cell) for cell in row] for row in g.constants]
        bad[0][1][2] = QI(1)
        with pytest.raises(NotALieAlgebra):
            LieAlgebra.from_constants(g.labels, bad)

    def test_antisymmetry_enforced(self):
        tbl = [[[(0, QI(1))]]]
        with pytest.raises(NotALieAlgebra):
            LieAlgebra.from_constants(("e",), tbl)

    def test_rejection_names_the_failing_law(self):
        g = sl2_algebra()
        tbl = [[dict(cell) for cell in row] for row in g.constants]
        tbl[0][1][1], tbl[1][0][1] = QI(3), QI(-3)  # [H, X] = 3X: antisymmetric, not Lie
        with pytest.raises(NotALieAlgebra, match="Jacobi"):
            LieAlgebra.from_constants(g.labels, tbl)
        tbl[1][0][1] = QI(-2)
        with pytest.raises(NotALieAlgebra, match="antisymmetric"):
            LieAlgebra.from_constants(g.labels, tbl)

    def test_matrix_algebra_matches_sl2(self):
        h = {(0, 0, 0): QI(1), (0, 1, 1): QI(-1)}
        x = {(0, 0, 1): QI(1)}
        y = {(0, 1, 0): QI(1)}
        g = matrix_algebra(("H", "X", "Y"), [h, x, y])
        assert g.constants == sl2_algebra().constants

    def test_matrix_algebra_rejects_a_dependent_basis(self):
        h = {(0, 0, 0): QI(1), (0, 1, 1): QI(-1)}
        with pytest.raises(ValueError, match="matrix basis is linearly dependent"):
            matrix_algebra(("H", "X", "2H"), [h, {(0, 0, 1): QI(1)}, {k: QI(2) * c for k, c in h.items()}])

    def test_matrix_algebra_rejects_a_commutator_outside_the_span(self):
        # [E12, E21] = E11 - E22 is not in the span of E12 and E21.
        with pytest.raises(NotASubalgebra, match="commutator of basis elements 0,1 escapes the span"):
            matrix_algebra(("X", "Y"), [{(0, 0, 1): QI(1)}, {(0, 1, 0): QI(1)}])

    def test_gl2_dimension_and_jacobi(self):
        g = gl2_algebra()
        assert g.rank == 4
        assert jacobi_witness(g.constants, QI(0)) is None


def non_diagonal_involution():
    # Conjugation by J = [[1, 1], [0, -1]] (J^2 = 1): H -> H + 2X,
    # X -> -X, Y -> H + X - Y.  theta^2 and theta of brackets cancel terms.
    return Involution.from_matrix(sl2_algebra(), [[1, 0, 1], [2, -1, 1], [0, 0, -1]])


def gl2_identity():
    return Involution.from_matrix(gl2_algebra(), [[int(i == j) for j in range(4)] for i in range(4)])


class TestInvolution:
    @pytest.mark.parametrize("build", [sl2_involution, gl2_involution, non_diagonal_involution, gl2_identity])
    def test_eigenspace_split(self, build):
        """theta fixes every k vector and negates every p vector, and
        together they are a basis of the algebra."""
        theta = build()
        d = theta.algebra.rank
        for vectors, sign in ((theta.k_vectors, 1), (theta.p_vectors, -1)):
            for v in vectors:
                image = [sum((theta.columns[j].get(i, QI(0)) * x for j, x in v), QI(0)) for i in range(d)]
                assert image == [dict(v).get(i, QI(0)) * sign for i in range(d)]
        assert len(theta.k_vectors) + len(theta.p_vectors) == d
        assert span_rank(list(theta.k_vectors + theta.p_vectors)) == d

    @pytest.mark.parametrize("build, k, p", [
        (sl2_involution, [[1, 0, 0]], [[0, 1, 0], [0, 0, 1]]),
        (gl2_involution, [[1, 0, 0, 0], [0, 0, 0, 1]], [[0, 1, 0, 0], [0, 0, 1, 0]]),
        (non_diagonal_involution, [[1, 1, 0]], [[1, 0, -2], [0, 1, 0]]),
        (gl2_identity, [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], []),
    ], ids=["sl2", "gl2", "non-diagonal", "gl2-identity"])
    def test_eigenspace_bases(self, build, k, p):
        """The echelon bases of the images of 1 + theta and 1 - theta."""
        theta = build()
        assert theta.k_vectors == tuple(tuple((j, QI(x)) for j, x in enumerate(v) if x) for v in k)
        assert theta.p_vectors == tuple(tuple((j, QI(x)) for j, x in enumerate(v) if x) for v in p)

    def test_non_involution_rejected(self):
        with pytest.raises(InvalidInvolution, match="matrix squared is not the identity"):
            Involution.from_matrix(sl2_algebra(), [[2, 0, 0], [0, 1, 0], [0, 0, 1]])

    def test_non_automorphism_rejected(self):
        # Negating only X respects theta^2 = 1 but not the bracket.
        with pytest.raises(InvalidInvolution, match="matrix is not a Lie automorphism"):
            Involution.from_matrix(sl2_algebra(), [[1, 0, 0], [0, -1, 0], [0, 0, 1]])

    @pytest.mark.parametrize("build", [contraction_family, deformation_family])
    @pytest.mark.parametrize("algebra,theta", [
        (gl2_algebra, sl2_involution),
        (sl2_algebra, gl2_involution),
        # p = 0: the check comes before the constant-family shortcut
        (sl2_algebra, lambda: Involution.from_matrix(gl2_algebra(), [[int(i == j) for j in range(4)] for i in range(4)])),
    ])
    def test_foreign_involution_rejected(self, build, algebra, theta):
        with pytest.raises(InvalidInvolution, match="involution belongs to a different algebra"):
            build(algebra(), theta())


FAMILY_BUILDERS = [
    lambda: constant_family(sl2_algebra()),
    lambda: scaled_bracket_family(sl2_algebra(), 1),
    lambda: scaled_bracket_family(sl2_algebra(), 3),
    lambda: contraction_family(sl2_algebra(), sl2_involution()),
    lambda: deformation_family(sl2_algebra(), sl2_involution()),
]


class TestFamilies:
    @pytest.mark.parametrize("build", FAMILY_BUILDERS)
    def test_jacobi_symbolic(self, build):
        assert jacobi_check(build()) is None

    @pytest.mark.parametrize("build", FAMILY_BUILDERS)
    def test_two_chart_gluing(self, build):
        fam = build()
        if fam.w_constants is not None:
            assert glue_consistent(fam)

    def test_corrupted_family_witnessed(self):
        fam = contraction_family(sl2_algebra(), sl2_involution())
        tbl = [[dict(cell) for cell in row] for row in fam.constants]
        tbl[1][2][0] = tbl[1][2][0] + RF_ONE
        from hcfam.liefam import _sparse_table

        bad = dataclasses.replace(fam, constants=_sparse_table(tbl))
        assert jacobi_check(bad) is not None

    def test_antisymmetric_corruption_reaches_jacobi(self):
        from hcfam.liefam import _sparse_table

        fam = contraction_family(sl2_algebra(), sl2_involution())
        tbl = [[dict(cell) for cell in row] for row in fam.constants]
        three = RationalFunction.constant(QI(3))
        tbl[0][1][1], tbl[1][0][1] = three, -three  # [h, x] = 3x and [x, h] = -3x
        i, j, k, residual = jacobi_check(dataclasses.replace(fam, constants=_sparse_table(tbl)))
        assert (i, j, k) == (0, 1, 2)
        assert residual == [-RF_Z, RF_ZERO, RF_ZERO]

    def test_contraction_fibers(self):
        fam = contraction_family(sl2_algebra(), sl2_involution())
        for p in (GaussianRational(0), INFINITY):
            inv = fiber_invariants(fiber(fam, p))
            assert inv == {"dim_derived": 2, "dim_center": 0, "solvable": True}
        inv = fiber_invariants(fiber(fam, GaussianRational(5)))
        assert inv == {"dim_derived": 3, "dim_center": 0, "solvable": False}

    def test_scaled_family_special_fiber_abelian(self):
        fam = scaled_bracket_family(sl2_algebra(), 1)
        inv = fiber_invariants(fiber(fam, GaussianRational(0)))
        assert inv["dim_derived"] == 0 and inv["solvable"]

    def test_fiber_at_infinity_needs_second_chart(self):
        # A family with only its z-chart, as serialization writes it, has no
        # point at infinity.
        fam = dataclasses.replace(constant_family(abelian_algebra(2)), w_constants=None)
        with pytest.raises(PoleAtPoint):
            fiber(fam, INFINITY)

    def test_base_change_square(self):
        con = contraction_family(sl2_algebra(), sl2_involution())
        pulled = base_change(con, LaurentPoly.monomial(2))
        # The p-p entry z becomes z^2.
        assert pulled.constants[1][2] == ((0, RF_Z * RF_Z),)

    def test_json_round_trip(self):
        fam = contraction_family(sl2_algebra(), sl2_involution())
        data = fam.to_json()
        cells = [[{} for _ in range(data["rank"])] for _ in range(data["rank"])]
        for t in data["constants"]:
            c = t["c"]
            num, den = (LaurentPoly.from_json(c[part]) for part in ("num", "den"))
            cells[t["i"]][t["j"]][t["k"]] = RationalFunction(num, den)
        assert _sparse_table(cells) == fam.constants
        assert tuple(data["labels"]) == fam.labels and data["chart"] == "affine-z"


class TestMorphisms:
    def test_identity_is_morphism(self):
        fam = contraction_family(sl2_algebra(), sl2_involution())
        assert check_morphism(FamilyMorphism.identity(3), fam, fam) is None

    def test_pullback_matches_deformation(self):
        con = contraction_family(sl2_algebra(), sl2_involution())
        de = deformation_family(sl2_algebra(), sl2_involution())
        pulled = base_change(con, LaurentPoly.monomial(2))
        assert check_morphism(FamilyMorphism.identity(3), de, pulled) is None

    def test_p_scaling_embeds_deformation_in_constant_family(self):
        de = deformation_family(sl2_algebra(), sl2_involution())
        phi = FamilyMorphism.diagonal([RF_ONE, RF_Z, RF_Z])
        assert check_morphism(phi, de, constant_family(sl2_algebra())) is None

    def test_identity_fails_between_contraction_and_deformation(self):
        con = contraction_family(sl2_algebra(), sl2_involution())
        de = deformation_family(sl2_algebra(), sl2_involution())
        witness = check_morphism(FamilyMorphism.identity(3), con, de)
        assert witness is not None
        i, j, residual = witness
        assert any(not r.is_zero() for r in residual)

    @given(st.integers(1, 4))
    @settings(max_examples=4, deadline=None)
    def test_scaled_bracket_glues_for_any_exponent(self, m):
        fam = scaled_bracket_family(sl2_algebra(), m)
        assert glue_consistent(fam)
        assert fam.transition_powers == (2 * m, 2 * m, 2 * m)


def _kind_cases():
    """(id, family, exponent(i, j), transition powers) for every kind and
    algebra and for the scaled family at m = 1..3: the closed forms of the
    bracket scaling and of the gluing."""
    cases = []
    for name, algebra, involution in (("sl2", sl2_algebra, sl2_involution), ("gl2", gl2_algebra, gl2_involution)):
        alg = algebra()
        d = alg.rank
        cases.append((f"{name}-constant", constant_family(alg), lambda i, j: 0, (0,) * d))
        for m in (1, 2, 3):
            cases.append((f"{name}-scaled-{m}", scaled_bracket_family(alg, m), lambda i, j, m=m: m, (2 * m,) * d))
        nk = len(involution().k_vectors)
        for kind, build, power in (("contraction", contraction_family, 1), ("deformation", deformation_family, 2)):
            exponent = lambda i, j, power=power, nk=nk: power if min(i, j) >= nk else 0  # noqa: E731
            powers = (0,) * nk + (power,) * (d - nk)
            cases.append((f"{name}-{kind}", build(alg, involution()), exponent, powers))
    return cases


KIND_CASES = _kind_cases()


class TestFamilyBuilder:
    @pytest.mark.parametrize("fam, exponent, powers", [c[1:] for c in KIND_CASES], ids=[c[0] for c in KIND_CASES])
    def test_closed_forms(self, fam, exponent, powers):
        assert jacobi_check(fam) is None
        assert glue_consistent(fam)
        assert fam.transition_powers == powers
        assert fam.w_constants == fam.constants
        for i, row in enumerate(fam.constants):
            for j, cell in enumerate(row):
                for _, c in cell:
                    assert c == RationalFunction.monomial(exponent(i, j), c.evaluate(1))


class TestGl2Involution:
    def test_gl2_split(self):
        theta = gl2_involution()
        assert theta.columns == ({0: QI(1)}, {1: QI(-1)}, {2: QI(-1)}, {3: QI(1)})
        assert len(theta.k_vectors) == 2
        assert len(theta.p_vectors) == 2
        fam = contraction_family(gl2_algebra(), theta)
        assert jacobi_check(fam) is None
        assert glue_consistent(fam)


def dense_bracket(table, u, v, zero):
    """[u, v] of dense coordinate lists, read from the dense form of a sparse
    table: every product of coordinates is formed."""
    d = len(table)
    constants = [[[dict(cell).get(k, zero) for k in range(d)] for cell in row] for row in table]
    out = [zero] * d
    for i in range(d):
        for j in range(d):
            for k in range(d):
                out[k] = out[k] + u[i] * v[j] * constants[i][j][k]
    return out


def brute_force_derived_series(algebra):
    """(dim of [g, g], solvable) from the literal definition: each term is
    spanned by all pairwise brackets of the previous term's spanning list."""
    d = algebra.rank
    current = [[GaussianRational(int(i == j)) for j in range(d)] for i in range(d)]
    dims = [dense_rank(current)]
    while dims[-1]:
        current = [dense_bracket(algebra.constants, u, v, GaussianRational(0)) for u in current for v in current]
        dims.append(dense_rank(current))
        if dims[-1] == dims[-2]:
            return dims[1], False
    return (dims[1] if len(dims) > 1 else 0), True


def solvable_2d():
    """[x, y] = y."""
    z, o = GaussianRational(0), GaussianRational(1)
    return LieAlgebra.from_constants(("x", "y"), [[(), [(1, o)]], [[(1, -o)], ()]])


class TestFiberInvariants:
    @pytest.mark.parametrize(
        "build, expected",
        [
            (sl2_algebra, (3, 0, False)),
            (gl2_algebra, (3, 1, False)),
            (lambda: abelian_algebra(3), (0, 3, True)),
            (lambda: abelian_algebra(0), (0, 0, True)),
            (lambda: abelian_algebra(1), (0, 1, True)),
            (solvable_2d, (1, 0, True)),
            (lambda: fiber(contraction_family(sl2_algebra(), sl2_involution()), GaussianRational(0)),
             (2, 0, True)),
        ],
        ids=["sl2", "gl2", "abelian3", "abelian0", "abelian1", "solvable2", "contraction-fiber-0"],
    )
    def test_matches_brute_force(self, build, expected):
        algebra = build()
        dim_derived, solvable = brute_force_derived_series(algebra)
        inv = fiber_invariants(algebra)
        assert (inv["dim_derived"], inv["solvable"]) == (dim_derived, solvable)
        assert (inv["dim_derived"], inv["dim_center"], inv["solvable"]) == expected


def dense_fiber_invariants(algebra):
    """``fiber_invariants`` by the dense path it had before sparse rows: every
    row of the center matrix and every spanning vector of the derived series
    as a dense list of d coordinates, eliminated by the reference
    Gauss-Jordan."""
    d, tbl, zero = algebra.rank, algebra.constants, QI(0)

    def basis(vectors):
        rows = []
        for v in vectors:
            row = [zero] * d
            for k, c in v:
                row[k] = c
            rows.append(row)
        return rows[: len(dense_rref(rows, d))] if rows else []

    ad_rows = {}
    for i, row in enumerate(tbl):
        for j, cell in enumerate(row):
            for k, c in cell:
                ad_rows.setdefault((j, k), []).append((i, c))
    dim_center = d - len(basis(ad_rows.values()))
    current = basis(cell for i, row in enumerate(tbl) for cell in row[i + 1 :] if cell)
    dim_derived, size = len(current), d
    while current and len(current) < size:
        size = len(current)
        vectors = [{k: c for k, c in enumerate(v) if c} for v in current]
        current = basis(bracket_with(tbl, u, v).items() for a, u in enumerate(vectors) for v in vectors[a + 1 :])
    return {"dim_derived": dim_derived, "dim_center": dim_center, "solvable": not current}


#: Every family the CLI builds: ``family fiber --algebra A --kind K --power P``.
_CLI_FAMILIES = [(a, k, 1) for a in ("sl2", "gl2") for k in ("constant", "contraction", "deformation")]
_CLI_FAMILIES += [(a, "scaled", p) for a in ("sl2", "gl2") for p in (1, 2, 3)]


class TestFiberInvariantsAgainstDensePath:
    @pytest.mark.parametrize("algebra, kind, power", _CLI_FAMILIES, ids=lambda v: str(v))
    def test_family_fibers(self, algebra, kind, power):
        """At 0, infinity and generic points of every family the CLI builds."""
        fam = build_family(algebra, kind, power)
        for at in (QI(0), INFINITY, QI(1), QI(-1), QI(2, 1), QI(0, 1), QI(1) / QI(3)):
            alg = fiber(fam, at)
            assert fiber_invariants(alg) == dense_fiber_invariants(alg), at


# -- the sparse Jacobi check against the dense triple loop it replaced ---------


def dense_jacobi_witness(constants, one, zero):
    """The dense d^3 check: ``constants[i][j][k]`` is the k-th coordinate of
    [e_i, e_j]; every bracket of basis vectors is formed in full."""
    d = len(constants)
    for i in range(d):
        for j in range(d):
            for k in range(d):
                if constants[i][j][k] != -constants[j][i][k]:
                    return (i, j, None, "antisymmetry fails")
    basis = [[one if t == s else zero for t in range(d)] for s in range(d)]

    def br(u, v):
        out = [zero] * d
        for i in range(d):
            for j in range(d):
                for k in range(d):
                    if not (u[i].is_zero() or v[j].is_zero() or constants[i][j][k].is_zero()):
                        out[k] = out[k] + u[i] * v[j] * constants[i][j][k]
        return out

    for i in range(d):
        for j in range(i + 1, d):
            for k in range(j + 1, d):
                terms = (br(basis[i], br(basis[j], basis[k])), br(basis[j], br(basis[k], basis[i])),
                         br(basis[k], br(basis[i], basis[j])))
                res = [a + b + c for a, b, c in zip(*terms)]
                if any(not x.is_zero() for x in res):
                    return (i, j, k, res)
    return None


qi_scalars = st.builds(QI, st.integers(-2, 2), st.integers(-1, 1))
rf_scalars = st.builds(
    lambda c, e, c2: RationalFunction.constant(c) * RationalFunction.monomial(e) + RationalFunction.constant(c2),
    qi_scalars, st.integers(-1, 2), qi_scalars,
)


@st.composite
def antisymmetric_cells(draw, scalars, zero):
    """(d, cells) with cells[i][j] a dict k -> c: random antisymmetric tables,
    two-step nilpotent ones (brackets land in the central last vector, so
    Jacobi holds), and either kind with one entry corrupted."""
    d = draw(st.integers(2, 4))
    two_step = draw(st.booleans())
    cells = [[{} for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            if two_step and j == d - 1:
                continue
            targets = [d - 1] if two_step else range(d)
            for k in draw(st.lists(st.sampled_from(targets), max_size=2, unique=True)):
                c = draw(scalars)
                cells[i][j][k], cells[j][i][k] = c, -c
    if draw(st.booleans()):
        i, j, k = (draw(st.integers(0, d - 1)) for _ in range(3))
        cells[i][j][k] = cells[i][j].get(k, zero) + draw(scalars)
        if draw(st.booleans()) and i != j:  # keep antisymmetry, break Jacobi
            cells[j][i][k] = -cells[i][j][k]
    return d, cells


def check_against_dense(d, cells, one, zero):
    dense = [[[cells[i][j].get(k, zero) for k in range(d)] for j in range(d)] for i in range(d)]
    want = dense_jacobi_witness(dense, one, zero)
    assert jacobi_witness(_sparse_table(cells), zero) == want
    return want


class TestSparseJacobi:
    @given(antisymmetric_cells(qi_scalars, QI(0)))
    @settings(max_examples=80, deadline=None)
    def test_gaussian_rationals(self, case):
        d, cells = case
        want = check_against_dense(d, cells, QI(1), QI(0))
        labels = [f"e{i}" for i in range(d)]
        if want is None:
            assert LieAlgebra.from_constants(labels, cells).rank == d
            return
        i, j, k, _ = want
        message = (f"structure constants not antisymmetric at ({i},{j})" if k is None
                   else f"Jacobi fails on basis triple {(i, j, k)}")
        with pytest.raises(NotALieAlgebra) as err:
            LieAlgebra.from_constants(labels, cells)
        assert str(err.value) == message

    @given(antisymmetric_cells(rf_scalars, RF_ZERO))
    @settings(max_examples=40, deadline=None)
    def test_rational_functions(self, case):
        check_against_dense(*case, RF_ONE, RF_ZERO)

    @pytest.mark.parametrize("build", [sl2_algebra, gl2_algebra, lambda: abelian_algebra(3), solvable_2d])
    def test_lie_algebras_pass_both(self, build):
        g = build()
        cells = [[dict(cell) for cell in row] for row in g.constants]
        assert check_against_dense(g.rank, cells, QI(1), QI(0)) is None

    @pytest.mark.parametrize("build", FAMILY_BUILDERS)
    def test_families_pass_both(self, build):
        fam = build()
        cells = [[dict(cell) for cell in row] for row in fam.constants]
        assert check_against_dense(fam.rank, cells, RF_ONE, RF_ZERO) is None


@st.composite
def antisymmetric_tables_and_vectors(draw, scalars):
    """A random antisymmetric sparse table of rank 1 to 4 and two sparse
    vectors {k: c} of its rank."""
    d = draw(st.integers(1, 4))
    cells = [[{} for _ in range(d)] for _ in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            for k in draw(st.lists(st.integers(0, d - 1), max_size=2, unique=True)):
                c = draw(scalars)
                cells[i][j][k], cells[j][i][k] = c, -c
    vectors = st.dictionaries(st.integers(0, d - 1), scalars.filter(bool), max_size=d)
    return _sparse_table(cells), draw(vectors), draw(vectors)


def check_sparse_bracket(table, u, v, zero):
    uv = bracket_with(table, u, v)
    assert uv == {k: -c for k, c in bracket_with(table, v, u).items()}
    assert all(uv.values())
    d = len(table)
    dense = [[u.get(k, zero) for k in range(d)], [v.get(k, zero) for k in range(d)]]
    assert [uv.get(k, zero) for k in range(d)] == dense_bracket(table, *dense, zero)


class TestSparseBracket:
    """bracket_with on sparse vectors is antisymmetric on antisymmetric tables
    and agrees with the dense bracket."""

    @given(antisymmetric_tables_and_vectors(qi_scalars))
    @settings(max_examples=60, deadline=None)
    def test_gaussian_rationals(self, case):
        check_sparse_bracket(*case, QI(0))

    @given(antisymmetric_tables_and_vectors(rf_scalars))
    @settings(max_examples=30, deadline=None)
    def test_rational_functions(self, case):
        check_sparse_bracket(*case, RF_ZERO)
