"""Differential tests of the Q(i) polynomial routines against sympy's QQ_I.

sympy is an optional test-side oracle: the module is skipped without it.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

sympy = pytest.importorskip("sympy")

from hcfam.scalars import (  # noqa: E402
    QI_I,
    GaussianRational,
    LaurentPoly,
    UnsplitQuadratic,
    gaussian_sqrt,
    poly_roots,
)

Z = sympy.Symbol("z")
QQ_I = sympy.QQ_I

small = st.fractions(min_value=-6, max_value=6, max_denominator=4)
gaussians = st.builds(GaussianRational, small, small)
nonzero_gaussians = gaussians.filter(bool)


def to_sympy(g: GaussianRational):
    return sympy.Rational(g.re.numerator, g.re.denominator) + sympy.I * sympy.Rational(
        g.im.numerator, g.im.denominator
    )


def from_sympy(x) -> GaussianRational:
    re, im = sympy.re(x), sympy.im(x)
    return GaussianRational(Fraction(int(re.p), int(re.q)), Fraction(int(im.p), int(im.q)))


def poly_to_sympy(p: LaurentPoly):
    return sympy.Poly(sum((to_sympy(c) * Z**e for e, c in p.coeffs.items()), sympy.Integer(0)), Z, domain=QQ_I)


def poly_from_sympy(p) -> LaurentPoly:
    coeffs = p.all_coeffs()
    top = len(coeffs) - 1
    return LaurentPoly({top - i: from_sympy(c) for i, c in enumerate(coeffs)})


def polys(max_degree: int):
    return st.lists(gaussians, min_size=1, max_size=max_degree + 1).map(
        lambda cs: LaurentPoly(dict(enumerate(cs)))
    )


def linear(root: GaussianRational) -> LaurentPoly:
    return LaurentPoly({1: 1, 0: -root})


# Quadratics that split over Q(i) are rare among random ones; build half of
# them from two roots.
split_quadratics = st.builds(
    lambda lead, r1, r2: (linear(r1) * linear(r2)).scale(lead), nonzero_gaussians, gaussians, gaussians
)
low_degree = st.one_of(polys(2), split_quadratics).filter(lambda p: 1 <= p.degree() <= 2)


class TestAgainstSympy:
    @given(polys(2), polys(2), polys(2))
    @settings(max_examples=60, deadline=None)
    def test_gcd_ordinary(self, f, g, h):
        a, b = f * g, f * h
        ours = LaurentPoly.gcd_ordinary(a, b)
        theirs = poly_to_sympy(a).gcd(poly_to_sympy(b))
        assert ours == poly_from_sympy(theirs)

    @given(low_degree)
    @settings(max_examples=30, deadline=None)
    def test_poly_roots(self, p):
        _, factors = poly_to_sympy(p).factor_list()
        if any(f.degree() > 1 for f, _ in factors):
            with pytest.raises(UnsplitQuadratic):
                poly_roots(p)
            return
        expected = {from_sympy(-f.all_coeffs()[1] / f.all_coeffs()[0]) for f, _ in factors}
        roots = poly_roots(p)
        assert len(roots) == len(set(roots)) and set(roots) == expected

    @given(gaussians, st.sampled_from(["plain", "square", "i-square", "negative-real-square"]))
    @settings(max_examples=50, deadline=None)
    def test_gaussian_sqrt(self, g, shape):
        target = {
            "plain": g,
            "square": g * g,
            "i-square": QI_I * g * g,
            "negative-real-square": GaussianRational(-g.re * g.re),
        }[shape]
        _, factors = sympy.Poly(Z**2 - to_sympy(target), Z, domain=QQ_I).factor_list()
        splits = all(f.degree() == 1 for f, _ in factors)
        root = gaussian_sqrt(target)
        assert (root is not None) == splits
        if root is not None:
            assert root * root == target
