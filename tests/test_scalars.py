"""Unit and property tests for the exact scalar tower."""

import json
import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hcfam.scalars import (
    INFINITY,
    LP_ONE,
    GaussianRational,
    LaurentPoly,
    PoleAtPoint,
    QI_I,
    QI_ONE,
    QI_ZERO,
    RationalFunction,
    RF_ONE,
    RF_Z,
    RF_ZERO,
    UnsplitQuadratic,
    casimir_product_holds,
    gaussian_sqrt,
    poly_roots,
    proportional,
)

fractions_ = st.fractions(min_value=-20, max_value=20, max_denominator=9)
gaussians = st.builds(GaussianRational, fractions_, fractions_)
nonzero_gaussians = gaussians.filter(lambda g: not g.is_zero())


def _fraction_parse(text):
    """GaussianRational.parse as it was written on top of Fraction."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError(f"cannot parse Gaussian rational {text!r}")
    try:
        if not s.endswith("i"):
            return GaussianRational(Fraction(s))
        body = s[:-1]
        if body.endswith("*"):
            body = body[:-1]
        split = max(body.rfind("+"), body.rfind("-"))
        re_txt, im_txt = (body[:split], body[split:]) if split > 0 else ("", body)
        re_part = Fraction(re_txt) if re_txt else Fraction(0)
        if im_txt in ("", "+"):
            im_part = Fraction(1)
        elif im_txt == "-":
            im_part = Fraction(-1)
        else:
            im_part = Fraction(im_txt)
        return GaussianRational(re_part, im_part)
    except ValueError:
        raise ValueError(f"cannot parse Gaussian rational {text!r}")


def _parse_outcome(parse, text):
    """The parsed value, or "error" for a ValueError (the Fraction-based
    parse let a zero denominator escape as ZeroDivisionError)."""
    try:
        return parse(text)
    except ValueError:
        return "error"
    except ZeroDivisionError:
        if parse is _fraction_parse:
            return "error"
        raise


# Exponents stay small: Fraction("1e99999999") would build a huge integer.
_ratio_texts = st.builds(
    "{}{}{}".format,
    st.sampled_from(["", "+", "-", "--", " "]),
    st.sampled_from(["0", "7", "12", "007", "1_000", "2.5", ".5", "1e3", "3E-2", "", "x", "٣"]),
    st.sampled_from(["", "/3", "/0", "/-2", "/0004", "/1_0", "/", "/2.0", " / 4"]),
)
parse_texts = st.one_of(
    st.builds(str, st.builds(GaussianRational, fractions_, fractions_)),
    _ratio_texts,
    st.builds("{}{}{}*i".format, _ratio_texts, st.sampled_from(["+", "-", ""]), _ratio_texts),
    st.builds("{}{}i".format, _ratio_texts, st.sampled_from(["+", "-", "+*", "*", ""])),
    st.text(alphabet="0123456789+-*/i ._", max_size=10),
)


def lp(d):
    return LaurentPoly({e: GaussianRational(c) for e, c in d.items()})


laurents = st.dictionaries(st.integers(-4, 4), st.integers(-9, 9), max_size=4).map(lp)
nonzero_laurents = laurents.filter(lambda p: not p.is_zero())


# ---------------------------------------------------------------------------
# Gaussian rationals
# ---------------------------------------------------------------------------


class TestGaussianRational:
    def test_basic_arithmetic(self):
        a = GaussianRational(Fraction(1, 2), 3)
        b = GaussianRational(2, Fraction(-1, 3))
        assert a + b == GaussianRational(Fraction(5, 2), Fraction(8, 3))
        assert a * b == GaussianRational(2, Fraction(35, 6))
        assert (a / b) * b == a
        assert -a + a == QI_ZERO

    def test_i_squares_to_minus_one(self):
        assert QI_I * QI_I == -QI_ONE

    def test_conjugate_multiplication_is_norm(self):
        g = GaussianRational(3, 4)
        assert g * g.conjugate() == GaussianRational(25)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            QI_ONE / QI_ZERO

    @given(gaussians)
    def test_parse_str_round_trip(self, g):
        assert GaussianRational.parse(str(g)) == g

    def test_parse_forms(self):
        assert GaussianRational.parse("3/4") == GaussianRational(Fraction(3, 4))
        assert GaussianRational.parse("-2+1/3*i") == GaussianRational(-2, Fraction(1, 3))
        assert GaussianRational.parse("i") == QI_I

    def test_parse_zero_denominator_is_a_value_error(self):
        for text in ("1/0", "2/0*i", "1/2+3/0*i", "0/00", "1_0/0", "-1/0-i"):
            with pytest.raises(ValueError):
                GaussianRational.parse(text)

    @given(parse_texts)
    @settings(max_examples=150)
    def test_parse_matches_fraction_parse(self, text):
        assert _parse_outcome(GaussianRational.parse, text) == _parse_outcome(_fraction_parse, text)

    @given(st.integers(-(10**30), 10**30), st.integers(-(10**30), 10**30), st.integers(1, 10**30))
    def test_parse_str_round_trip_wide(self, a, b, d):
        g = GaussianRational(Fraction(a, d), Fraction(b, d))
        assert GaussianRational.parse(str(g)) == g

    def test_loading_a_canonical_document_builds_no_fraction(self, tmp_path, monkeypatch):
        from hcfam import classify, cli, hcmod

        module = classify.construct(
            hcmod.WeightSet("even"), classify.ClassSpec("III"), hcmod.casimir_triple(Fraction(1, 2), -3, Fraction(-5, 7))
        )
        doc = module.to_json()
        doc["transitions"]["up"]["value"] = "2/3-1/5*i"
        path = tmp_path / "module.json"
        path.write_text(json.dumps(doc))
        calls = []
        new = Fraction.__new__
        monkeypatch.setattr(Fraction, "__new__", lambda cls, *a, **k: calls.append(a) or new(cls, *a, **k))
        loaded = cli.load_module(str(path))
        monkeypatch.undo()
        assert calls == []
        assert loaded.to_json() == doc

    @given(gaussians, gaussians, gaussians)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a

    @given(nonzero_gaussians)
    def test_inverse(self, g):
        assert g * g.inverse() == QI_ONE

    @given(gaussians)
    def test_sqrt_of_square(self, g):
        r = gaussian_sqrt(g * g)
        assert r is not None and r * r == g * g

    def test_sqrt_failures(self):
        assert gaussian_sqrt(GaussianRational(2)) is None
        assert gaussian_sqrt(GaussianRational(-3)) is None
        assert gaussian_sqrt(GaussianRational(-1)) == QI_I or gaussian_sqrt(
            GaussianRational(-1)
        ) == -QI_I


# ---------------------------------------------------------------------------
# Laurent polynomials
# ---------------------------------------------------------------------------


class TestLaurentPoly:
    def test_orders(self):
        p = lp({-2: 3, 1: 1})
        assert min(p.coeffs) == -2
        assert RationalFunction(p).ord_at(QI_ZERO) == -2

    @given(laurents, laurents)
    def test_ord_zero_additive(self, a, b):
        prod = a * b
        if a.is_zero() or b.is_zero():
            assert prod.is_zero()
        else:
            assert min(prod.coeffs) == min(a.coeffs) + min(b.coeffs)

    @given(laurents, laurents, laurents)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) * c == a * c + b * c
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)

    def test_divmod(self):
        a = lp({3: 1, 0: -1})  # z^3 - 1
        b = lp({1: 1, 0: -1})  # z - 1
        q, r = a.divmod_ordinary(b)
        assert r.is_zero()
        assert q * b == a

    @given(nonzero_laurents, nonzero_laurents)
    def test_gcd_divides(self, a, b):
        a, b = a.shift(-min(a.coeffs)), b.shift(-min(b.coeffs))
        g = LaurentPoly.gcd_ordinary(a, b)
        assert a.divmod_ordinary(g)[1].is_zero()
        assert b.divmod_ordinary(g)[1].is_zero()

    @given(laurents)
    def test_json_round_trip(self, p):
        assert LaurentPoly.from_json(p.to_json()) == p

    def test_from_json_drops_zeros_after_equal_exponents(self):
        """Zero coefficients are not stored, and of two keys naming one
        exponent the last wins, as in the public constructor."""
        for data, coeffs in (({"0": "0", "1": "0*i"}, {}), ({"0": "1", "00": "0"}, {}),
                             ({"00": "0", "0": "2", "-1": "1/2-1*i"}, {0: 2, -1: GaussianRational(Fraction(1, 2), -1)})):
            p = LaurentPoly.from_json(data)
            assert p.coeffs == coeffs and p.coeffs == LaurentPoly({int(e): GaussianRational.parse(c)
                                                                  for e, c in data.items()}).coeffs

    def test_evaluate(self):
        p = lp({2: 1, 0: -4})
        assert p.evaluate(GaussianRational(3)) == GaussianRational(5)
        with pytest.raises(PoleAtPoint):
            lp({-1: 1}).evaluate(QI_ZERO)

    @given(laurents, st.one_of(st.just(QI_ZERO), gaussians))
    def test_horner_evaluate_matches_the_term_sum(self, p, z0):
        """Horner's rule against the plain sum of c * z0^e, poles at 0 included."""
        if z0.is_zero() and any(e < 0 for e in p.coeffs):
            with pytest.raises(PoleAtPoint):
                p.evaluate(z0)
            return
        naive = QI_ZERO
        for e, c in p.coeffs.items():
            naive = naive + c * z0**e
        assert p.evaluate(z0) == naive


# ---------------------------------------------------------------------------
# Rational functions
# ---------------------------------------------------------------------------


class TestRationalFunction:
    def test_canonical_form(self):
        f = RationalFunction(lp({2: 2, 1: 2}), lp({1: 4}))
        # (2z^2+2z)/(4z) = (z+1)/2: monic denominator, coprime.
        assert f.num == lp({1: Fraction(1, 2), 0: Fraction(1, 2)})
        assert f.den == lp({0: 1})

    def test_field_ops(self):
        f = RF_Z / (RF_Z + RF_ONE)
        g = RF_ONE / (RF_Z + RF_ONE)
        assert f + g == RF_ONE
        assert f / f == RF_ONE

    def test_ord_at(self):
        f = RF_Z * RF_Z / (RF_Z - RF_ONE)
        assert f.ord_at(QI_ZERO) == 2
        assert f.ord_at(QI_ONE) == -1
        assert f.ord_at(INFINITY) == -1
        for p in (QI_ZERO, QI_ONE, INFINITY):
            with pytest.raises(ValueError):
                RF_ZERO.ord_at(p)

    def test_zero_function_vanishes_at_infinity(self):
        assert RF_ZERO.evaluate_point(INFINITY) == QI_ZERO

    @given(laurents, nonzero_laurents, laurents, nonzero_laurents)
    @settings(max_examples=40)
    def test_ord_additive_at_zero_and_infinity(self, a, b, c, d):
        f = RationalFunction(a, b)
        g = RationalFunction(c, d)
        if f.is_zero() or g.is_zero():
            return
        for p in (QI_ZERO, INFINITY):
            assert (f * g).ord_at(p) == f.ord_at(p) + g.ord_at(p)

    @given(laurents, nonzero_laurents)
    @settings(max_examples=40)
    def test_principal_divisor_sums_to_zero(self, a, b):
        f = RationalFunction(a, b)
        if f.is_zero():
            return
        finite = f.num.degree() - f.den.degree()  # sum over all finite points
        assert finite + f.ord_at(INFINITY) == 0

    def test_evaluate_point(self):
        f = (RF_Z - RF_ONE) / (RF_Z + RF_ONE)
        assert f.evaluate_point(GaussianRational(3)) == GaussianRational(Fraction(1, 2))
        assert f.evaluate_point(INFINITY) == QI_ONE
        with pytest.raises(PoleAtPoint):
            f.evaluate_point(GaussianRational(-1))

    def test_compose(self):
        f = RF_ONE / RF_Z
        sq = LaurentPoly.monomial(2)
        assert f.compose(RationalFunction(sq)) == RF_ONE / (RF_Z * RF_Z)

    @given(laurents, nonzero_laurents)
    def test_json_round_trip(self, a, b):
        f = RationalFunction(a, b)
        data = f.to_json()
        assert RationalFunction(LaurentPoly.from_json(data["num"]), LaurentPoly.from_json(data["den"])) == f


class TestRoots:
    def test_linear_and_quadratic(self):
        assert poly_roots(lp({1: 2, 0: -6})) == [GaussianRational(3)]
        roots = set(poly_roots(lp({2: 1, 0: 1})))  # z^2 + 1
        assert roots == {QI_I, -QI_I}

    def test_unsplit(self):
        with pytest.raises(UnsplitQuadratic):
            poly_roots(lp({2: 1, 0: -2}))  # z^2 - 2 has irrational roots

    def test_cubic_rejected(self):
        with pytest.raises(ValueError):
            poly_roots(lp({3: 1, 0: 1}))


def _seeded_rf(rng, max_deg=3):
    """A rational function with numerator and denominator of degree <= max_deg
    and small Gaussian coefficients; the denominator is nonzero."""
    def poly():
        return LaurentPoly({e: GaussianRational(rng.randint(-3, 3), rng.choice((0, 0, rng.randint(-2, 2))))
                            for e in range(rng.randint(0, max_deg) + 1)})
    den = poly()
    while den.is_zero():
        den = poly()
    return RationalFunction(poly(), den)


def _composition_cases():
    """Seeded (f, psi) pairs with psi nonconstant, 1/z among them."""
    rng = random.Random(2403)
    cases = []
    while len(cases) < 24:
        f, psi = _seeded_rf(rng), _seeded_rf(rng, 2)
        if psi.num.degree() > 0 or psi.den.degree() > 0:
            cases.append((f, psi))
    cases += [(f, RF_ONE / RF_Z) for f, _ in cases[:6]]
    return cases


COMPOSITION_CASES = _composition_cases()
SAMPLE_POINTS = [GaussianRational(Fraction(n, d)) for n, d in ((0, 1), (1, 1), (-1, 1), (2, 1), (1, 3), (-5, 2), (7, 4))]


class TestCompose:
    @pytest.mark.parametrize("f, psi", COMPOSITION_CASES, ids=[f"case{i}" for i in range(len(COMPOSITION_CASES))])
    def test_composition_commutes_with_evaluation(self, f, psi):
        """(f o psi)(t) = f(psi(t)) at every sample t off the poles of psi
        and of f at psi(t); there f o psi has no pole either."""
        composed, checked = f.compose(psi), 0
        for t in SAMPLE_POINTS:
            try:
                value = f.evaluate(psi.evaluate(t))
            except PoleAtPoint:
                continue
            assert composed.evaluate(t) == value
            checked += 1
        assert checked >= 3

    @pytest.mark.parametrize("f", [f for f, _ in COMPOSITION_CASES[:8]], ids=[f"case{i}" for i in range(8)])
    def test_substitute_reciprocal_is_composition_with_one_over_z(self, f):
        g = f.substitute_reciprocal()
        assert g == f.compose(RF_ONE / RF_Z)
        assert g.substitute_reciprocal() == f


POWER_BASES = [GaussianRational(2), GaussianRational(Fraction(-1, 3), 2), QI_I,
               RF_Z, RF_Z + RF_ONE, (RF_Z - GaussianRational(0, 2)) / (RF_Z * RF_Z + RF_ONE)]


class TestPower:
    @pytest.mark.parametrize("x", POWER_BASES, ids=str)
    @pytest.mark.parametrize("k", range(-4, 5))
    def test_power_is_repeated_multiplication(self, x, k):
        one = QI_ONE if isinstance(x, GaussianRational) else RF_ONE
        expected = one
        for _ in range(abs(k)):
            expected = expected * x if k > 0 else expected / x
        assert x**k == expected

    @pytest.mark.parametrize("zero", [QI_ZERO, RF_ZERO], ids=str)
    def test_zero_to_a_negative_power_divides_by_zero(self, zero):
        with pytest.raises(ZeroDivisionError):
            zero ** -1


# ---------------------------------------------------------------------------
# The integer-triple representation of Q(i)
# ---------------------------------------------------------------------------


def assert_normal(g):
    a, b, d = g._a, g._b, g._d
    assert type(a) is int and type(b) is int and type(d) is int
    assert d > 0 and math.gcd(a, b, d) == 1


def old_str(g):
    """The text form of the former (Fraction, Fraction) representation."""
    re, im = g.re, g.im
    if im == 0:
        return str(re)
    if re == 0:
        return f"{im}*i"
    return f"{re}{'+' if im > 0 else '-'}{abs(im)}*i"


class TestTripleRepresentation:
    @given(gaussians, nonzero_gaussians)
    def test_normal_form_after_every_operation(self, a, b):
        results = [a, b, a + b, a - b, a * b, a / b, -a, a.conjugate(), b.inverse(), b**3, b**-2]
        results += [a + 1, 2 - a, a * Fraction(3, 4), Fraction(1, 6) / b, a + a, a - a]
        for g in results:
            assert_normal(g)

    def test_normal_form_of_public_constructor(self):
        assert_normal(GaussianRational(Fraction(2, 4), Fraction(-3, 6)))
        assert_normal(GaussianRational(Fraction(1, 6), Fraction(1, 10)))
        assert (GaussianRational(0)._a, GaussianRational(0)._d) == (0, 1)
        assert (QI_ZERO * GaussianRational(Fraction(1, 3)))._d == 1

    @given(fractions_)
    def test_real_values_equal_and_hash_like_fractions(self, f):
        g = GaussianRational(f)
        assert g == f and f == g and hash(g) == hash(f)
        assert (g + QI_I - QI_I) == f and hash(g + QI_I - QI_I) == hash(f)
        if f.denominator == 1:
            n = int(f)
            assert g == n and n == g and hash(g) == hash(n)
        assert {f: "x"}[g] == "x"

    def test_hash_of_half(self):
        assert hash(GaussianRational(Fraction(1, 2))) == hash(Fraction(1, 2))
        assert GaussianRational(Fraction(1, 2)) != 1 and GaussianRational(1, 1) != 1

    @given(gaussians, gaussians)
    def test_equal_values_equal_hashes(self, a, b):
        s = a + b
        assert s - b == a and hash(s - b) == hash(a)
        assert hash(a) == hash(GaussianRational(a.re, a.im))

    @given(gaussians)
    def test_re_and_im_are_fractions(self, g):
        assert type(g.re) is Fraction and type(g.im) is Fraction
        assert GaussianRational(g.re, g.im) == g
        assert g.re == Fraction(g._a, g._d) and g.im == Fraction(g._b, g._d)

    @given(gaussians, nonzero_gaussians)
    def test_str_parse_round_trip_of_results(self, a, b):
        for g in (a * b, a / b, a - b, -a):
            assert str(g) == old_str(g)
            assert GaussianRational.parse(str(g)) == g

    def test_no_fraction_is_built_by_arithmetic(self, monkeypatch):
        rng = random.Random(5)
        values = [
            GaussianRational(Fraction(rng.randint(-30, 30), rng.randint(1, 12)),
                             Fraction(rng.randint(-30, 30), rng.randint(1, 12)))
            for _ in range(300)
        ]
        values = [v for v in values if v]
        third = Fraction(1, 3)
        built = []
        original = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            built.append(args)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting_new)
        Fraction(1, 2)
        assert len(built) == 1, "the counter does not see Fraction construction"
        built.clear()
        results = []
        for x, y in zip(values, values[1:]):
            results += [x * y, x + y, x - y, x.inverse(), x / y, -x, x.conjugate()]
            results += [x * 2, 1 - x, x + third, x**3, x == y, x == third, bool(x)]
        assert built == []
        assert len(results) == 14 * (len(values) - 1)


class TestMonomialDenominator:
    @given(nonzero_laurents, nonzero_gaussians, st.integers(-4, 4))
    @settings(max_examples=60)
    def test_matches_general_gcd_path(self, num, c, k):
        den = LaurentPoly.monomial(k, c)
        f = RationalFunction(num, den)
        # A common factor z + 1 makes the denominator no monomial, so the
        # Euclidean gcd path normalises the same quotient.
        factor = lp({1: 1, 0: 1})
        general = RationalFunction(num * factor, den * factor)
        assert (f.num, f.den) == (general.num, general.den)
        assert f.den.coeffs == {f.den.degree(): QI_ONE}
        s = min(k, min(num.coeffs))
        assert f.num == num.shift(-s).scale(c.inverse())
        assert f.den == LaurentPoly.monomial(k - s)
        assert f.num.is_ordinary() and (f.den.degree() == 0 or f.num.coeff(0))

    def test_monomial_denominator_skips_the_euclidean_gcd(self, monkeypatch):
        calls = []
        gcd = LaurentPoly.gcd_ordinary

        def counting(a, b):
            calls.append((a, b))
            return gcd(a, b)

        monkeypatch.setattr(LaurentPoly, "gcd_ordinary", staticmethod(counting))
        f = RationalFunction(lp({3: 2, 1: 4}), lp({2: 6}))
        assert (f.num, f.den) == (lp({2: Fraction(1, 3), 0: Fraction(2, 3)}), lp({1: 1}))
        assert calls == []
        RationalFunction(lp({1: 1}), lp({1: 1, 0: 1}))
        assert len(calls) == 1


def poly(coeffs):
    """The rational function of a polynomial, built by the normalising constructor."""
    return RationalFunction(LaurentPoly(coeffs))


#: zero, Gaussian constants, z, z^2 + i z and its negation (the two cancel).
POLYNOMIALS = [poly({}), poly({0: 2}), poly({0: QI_I}), poly({0: GaussianRational(Fraction(-1, 3), 2)}),
               poly({1: 1}), poly({2: 1, 1: QI_I}), poly({2: -1, 1: -QI_I})]
CONSTANTS = POLYNOMIALS[1:4]

#: Each operation and the normalising constructor applied to the same operands.
NORMALISED = {
    "+": (lambda a, b: a + b, lambda a, b: RationalFunction(a.num * b.den + b.num * a.den, a.den * b.den)),
    "-": (lambda a, b: a - b, lambda a, b: RationalFunction(a.num * b.den + (-b.num) * a.den, a.den * b.den)),
    "*": (lambda a, b: a * b, lambda a, b: RationalFunction(a.num * b.num, a.den * b.den)),
    "/": (lambda a, b: a / b, lambda a, b: RationalFunction(a.num * b.den, a.den * b.num)),
}


def _polynomial_cases():
    for name in "+-*":
        for a in POLYNOMIALS:
            for b in POLYNOMIALS:
                yield name, a, b
    for a in POLYNOMIALS:
        for b in CONSTANTS:
            yield "/", a, b


class TestPolynomialOperands:
    @pytest.mark.parametrize("name, a, b", list(_polynomial_cases()))
    def test_fast_path_equals_the_constructor(self, name, a, b, monkeypatch):
        op, normalised = NORMALISED[name]
        want = normalised(a, b)
        built = []
        init = RationalFunction.__init__
        monkeypatch.setattr(RationalFunction, "__init__", lambda f, *args: built.append(args) or init(f, *args))
        got = op(a, b)
        assert built == []
        assert (got.num, got.den) == (want.num, want.den)
        assert got.den is LP_ONE
        assert (str(got), got.to_json()) == (str(want), want.to_json())

    def test_cancelling_sum_is_zero(self):
        f = POLYNOMIALS[5] + POLYNOMIALS[6]
        assert f == RF_ZERO and f.num.coeffs == {} and f.den is LP_ONE

    def test_division_by_z_normalises(self):
        f = POLYNOMIALS[5] / RF_Z
        assert (f.num, f.den) == (lp({1: 1}) + QI_I, LP_ONE)
        assert f.den is LP_ONE

    def test_mixed_denominators_normalise(self):
        inverse_z = RationalFunction(LP_ONE, LaurentPoly.monomial(1))
        assert inverse_z.den == LaurentPoly.monomial(1)
        for product in (inverse_z * RF_Z, RF_Z * inverse_z):
            assert product == RF_ONE and product.den is LP_ONE
        z_plus_1 = poly({1: 1, 0: 1})
        total = RF_Z / z_plus_1 + RF_ONE / z_plus_1
        assert total == RF_ONE and total.den is LP_ONE

    def test_every_denominator_one_is_lp_one(self):
        """The constructor's zero, monomial and Euclidean branches all hold
        the one LP_ONE when the denominator is 1."""
        for num, den in [(lp({}), lp({1: 3})), (lp({2: 3, 0: 1}), lp({0: 5})), (lp({3: 1, 1: 1}), lp({1: 2})),
                         (lp({2: 1, 0: -1}), lp({1: 2, 0: 2})), (lp({1: 1, 0: 1}), lp({1: 1, 0: 1}))]:
            assert RationalFunction(num, den).den is LP_ONE


#: One value of each type of the scalar tower, lowest first.
TOWER = [
    3,
    Fraction(-2, 5),
    GaussianRational(Fraction(1, 2), -1),
    LaurentPoly({-1: QI_I, 2: GaussianRational(3)}),
    RationalFunction(lp({1: 1}), lp({1: 1, 0: 2})),
]


def lift(x, rank):
    """x coerced to the type of TOWER[rank]."""
    cls = type(TOWER[rank])
    return x if cls is int else Fraction(x) if cls is Fraction else cls._coerce(x)


def _mixed_cases():
    for i in range(len(TOWER)):
        for j in range(len(TOWER)):
            for name in "+-*":
                yield name, i, j
            if type(TOWER[j]) is not LaurentPoly and type(TOWER[max(i, j)]) not in (int, LaurentPoly):
                yield "/", i, j


class TestMixedTypes:
    @pytest.mark.parametrize("name, i, j", list(_mixed_cases()))
    def test_operation_equals_the_coerced_one(self, name, i, j):
        """Every order of operands gives what the operation gives on both
        coerced to the larger type, and of that type."""
        op = NORMALISED[name][0]
        top = max(i, j)
        want = op(lift(TOWER[i], top), lift(TOWER[j], top))
        got = op(TOWER[i], TOWER[j])
        assert type(got) is type(want) is type(TOWER[top])
        assert got == want

    @pytest.mark.parametrize("x", TOWER[2:], ids=lambda x: type(x).__name__)
    def test_unknown_operand_raises_type_error(self, x):
        for op in (lambda a, b: a + b, lambda a, b: b - a, lambda a, b: a * b):
            with pytest.raises(TypeError):
                op(x, "1")


# ---------------------------------------------------------------------------
# Parsing the text forms of ``str`` in one match
# ---------------------------------------------------------------------------


def _ratio_parse(text):
    """(n, d) as ``_parse_ratio`` read a ratio before parse matched the forms
    of ``str`` in one go."""
    num, slash, den = text.partition("/")
    if text.isascii() and num.lstrip("+-").isdigit() and (den.isdigit() or not slash):
        n, d = int(num), int(den or 1)
    else:
        f = Fraction(text)
        n, d = f.numerator, f.denominator
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit and max(abs(n), d) >= 10**limit:
            raise ValueError(f"more than {limit} digits in {text!r}")
    if d == 0:
        raise ZeroDivisionError(f"zero denominator in {text!r}")
    return n, d


def _split_parse(text):
    """GaussianRational.parse before the one-match path: strip spaces, split
    at the last interior sign, read each ratio."""
    s = text.replace(" ", "")
    if not s:
        raise ValueError(f"cannot parse Gaussian rational {text!r}")
    try:
        if not s.endswith("i"):
            a, d = _ratio_parse(s)
            return GaussianRational(Fraction(a, d))
        body = s[:-1]
        if body.endswith("*"):
            body = body[:-1]
        split = max(body.rfind("+"), body.rfind("-"))
        re_txt, im_txt = (body[:split], body[split:]) if split > 0 else ("0", body)
        a, ad = _ratio_parse(re_txt)
        b, bd = _ratio_parse(im_txt + "1" if im_txt in ("", "+", "-") else im_txt)
        return GaussianRational(Fraction(a, ad), Fraction(b, bd))
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"cannot parse Gaussian rational {text!r}")


PARSE_EDGES = [
    " 1 / 2 ", "i", "-i", "2i", "+2*i", "1.5", "1e3", "1/0", "1/-2", "--1", "", "١", "1/2+١*i", "0/00",
    "12*i", "1-2*i", "1--2*i", "1+-2*i", "+3", "007/0004", "3/4*i", "-3/4-5/6*i", "1 +2*i", "1\n", "0*i",
    "9" * 4301, "1/" + "9" * 4300, "9" * 4300 + "+1/" + "9" * 4300 + "*i", "1/" + "9" * 4301 + "*i",
]


class TestParseForms:
    @pytest.mark.parametrize("text", PARSE_EDGES, ids=lambda t: repr(t)[:24])
    def test_edge_inputs_match_the_split_parse(self, text):
        assert _parse_outcome(GaussianRational.parse, text) == _parse_outcome(_split_parse, text)

    def test_edge_verdicts(self):
        ok = {" 1 / 2 ": GaussianRational(Fraction(1, 2)), "i": QI_I, "-i": -QI_I, "2i": GaussianRational(0, 2),
              "1.5": GaussianRational(Fraction(3, 2)), "1e3": GaussianRational(1000),
              "1/" + "9" * 4300: GaussianRational(Fraction(1, 10**4300 - 1))}
        for text, value in ok.items():
            assert GaussianRational.parse(text) == value
        for text in ("1/0", "1/-2", "--1", "", "9" * 4301):
            with pytest.raises(ValueError):
                GaussianRational.parse(text)

    @given(parse_texts)
    @settings(max_examples=150)
    def test_texts_match_the_split_parse(self, text):
        assert _parse_outcome(GaussianRational.parse, text) == _parse_outcome(_split_parse, text)

    @given(st.integers(-(10**40), 10**40), st.integers(-(10**40), 10**40), st.integers(1, 10**40))
    def test_str_round_trip_matches_the_split_parse(self, a, b, d):
        g = GaussianRational(Fraction(a, d), Fraction(b, d))
        got = GaussianRational.parse(str(g))
        assert got == g == _split_parse(str(g)) and str(got) == str(g)


# ---------------------------------------------------------------------------
# The triple kernels: 4 A B = q and (mu A, mu^-1 B), against polynomial code
# ---------------------------------------------------------------------------

# Large coprime denominators, and small ones, on both parts.
_dens = st.sampled_from([1, 2, 3, 7, 2**61 - 1, 10**18 + 9, 3**40])
kernel_gaussians = st.builds(
    lambda a, b, d, e: GaussianRational(Fraction(a, d), Fraction(b, e)),
    st.integers(-(10**20), 10**20) | st.integers(-3, 3), st.integers(-3, 3) | st.integers(-(10**20), 10**20), _dens, _dens,
)
kernel_polys = st.dictionaries(st.integers(-3, 3), kernel_gaussians, max_size=3).map(LaurentPoly)


@st.composite
def product_cases(draw):
    """(A, B, casimir, m): random; 4 A B = q_m exactly (with negative
    exponents, or a term that cancels); or one coefficient off."""
    shape = draw(st.sampled_from(["random", "fits", "cancels", "off"]))
    if shape == "random":
        A, B = draw(kernel_polys), draw(kernel_polys)
    else:
        k = draw(st.integers(-3, 3))
        a0, a1, b0, b1 = (draw(kernel_gaussians) for _ in range(4))
        if shape == "cancels":  # (a0 + a1 z)(b0 - b0 a1 / a0 z): no z term
            a0, b0 = a0 or QI_ONE, b0 or QI_ONE
            b1 = -(b0 * a1) / a0
        A = LaurentPoly({k: a0, k + 1: a1})
        B = LaurentPoly({-k: b0, 1 - k: b1})
    m = draw(st.integers(-50, 50))
    target = (A * B).scale(4)
    if shape == "random" or not set(target.coeffs) <= {0, 1, 2}:
        return A, B, tuple(draw(kernel_gaussians) for _ in range(3)), m
    casimir = [target.coeff(2), target.coeff(1) + m, target.coeff(0)]
    if shape == "off":
        i = draw(st.integers(0, 2))
        casimir[i] = casimir[i] + draw(kernel_gaussians.filter(bool))
    return A, B, tuple(casimir), m


def _reference_product(A, B, casimir, m):
    c1, c0, cm1 = casimir
    return (A * B).scale(4) == LaurentPoly({2: c1, 1: c0 - m, 0: cm1})


def _reference_rescaling(A, B, A2, B2):
    """iso_check's test before the triple kernel: mu from the leading
    coefficients, then scale and compare."""
    if A.is_zero() or A2.is_zero() or set(A.coeffs) != set(A2.coeffs):
        return "A"
    mu = A2.leading_coeff() / A.leading_coeff()
    if A.scale(mu) != A2:
        return "A"
    return None if B.scale(mu.inverse()) == B2 else "B"


@st.composite
def rescaling_cases(draw):
    """(A, B, A2, B2): random; (mu A, mu^-1 B); or that pair with one side
    moved (a coefficient changed, a term added, the other mu)."""
    A, B = draw(kernel_polys), draw(kernel_polys)
    shape = draw(st.sampled_from(["random", "twin", "A off", "B off", "B by mu", "A shifted"]))
    if shape == "random":
        return A, B, draw(kernel_polys), draw(kernel_polys)
    mu = draw(kernel_gaussians.filter(bool))
    A2, B2 = A.scale(mu), B.scale(mu.inverse())
    bump = LaurentPoly({draw(st.integers(-3, 3)): draw(kernel_gaussians.filter(bool))})
    if shape == "A off":
        A2 = A2 + bump
    elif shape == "B off":
        B2 = B2 + bump
    elif shape == "B by mu":
        B2 = B.scale(mu)
    elif shape == "A shifted":
        A2 = A2.shift(1)
    return A, B, A2, B2


class TestTripleKernels:
    @given(product_cases())
    @settings(max_examples=300)
    def test_casimir_product_matches_polynomial_arithmetic(self, case):
        assert casimir_product_holds(*case) == _reference_product(*case)

    def test_casimir_product_examples(self):
        def c(*xs):
            return tuple(GaussianRational(x) for x in xs)

        one_plus, one_minus = lp({0: 1, 1: 1}), lp({0: 1, 1: -1})
        assert casimir_product_holds(one_plus, one_minus, c(-4, 10, 4), 10)  # the z terms cancel
        assert not casimir_product_holds(one_plus, one_minus, c(-4, 11, 4), 10)
        assert not casimir_product_holds(one_plus, one_minus, c(-1, 0, 1), 0)  # 4 A B, not A B
        assert casimir_product_holds(lp({-1: 2}), lp({1: 3}), c(0, 8, 24), 8)  # negative exponents meet at 0
        assert not casimir_product_holds(lp({-1: 2}), lp({0: 3}), c(0, 0, 0), 0)  # exponent -1 on one side only
        assert casimir_product_holds(LaurentPoly(), one_plus, c(0, 5, 0), 5)  # zero both sides
        assert not casimir_product_holds(LaurentPoly(), one_plus, c(0, 0, 1), 0)

    @given(rescaling_cases())
    @settings(max_examples=300)
    def test_rescaling_matches_scale_and_compare(self, case):
        A, _, A2, _ = case
        assert proportional(A, A2) is (_reference_rescaling(*case) != "A")

    def test_rescaling_examples(self):
        A, B = lp({0: 1, 2: 3}), lp({1: 2})
        mu = GaussianRational(Fraction(2, 7), 5)
        assert proportional(A, A.scale(mu)) and proportional(B, B.scale(mu.inverse()))
        assert not proportional(A, A.scale(mu) + lp({0: 1}))
        assert not proportional(A, A.shift(1))
        assert not proportional(LaurentPoly(), LaurentPoly())
        assert not proportional(A, LaurentPoly()) and not proportional(LaurentPoly(), A)
