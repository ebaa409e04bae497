"""Exact scalar tower: Gaussian rationals, Laurent polynomials in z, and
rational functions on the projective line.

Values here are never changed after construction, and all arithmetic is
exact.  A "point" of the projective line is either a
:class:`GaussianRational` or the :data:`INFINITY` sentinel.

A Gaussian rational is held as an integer triple, so its arithmetic is plain
int arithmetic; ``Fraction`` appears only at the edges (the ``re``/``im``
properties, parsing and hashing).  Results of arithmetic inside this module
are built by trusted constructors that skip the coercion and cleaning of the
public ones: :func:`_qi` (which still reduces by one gcd), :func:`_lp`, and
:func:`_rf` for pairs already in canonical form.  A rational function that
needs reducing goes through its constructor, which skips the Euclidean gcd
when the denominator is a monomial.  Polynomial operands skip it altogether:
every denominator 1 is the object ``LP_ONE``, and the sum, difference and
product of two polynomials, or a polynomial over a nonzero constant, is
already canonical over it (Henrici; Knuth, TAOCP Vol. 2, 4.5.1), so ``_rf``
builds it.
"""

from __future__ import annotations

import re
import sys
from fractions import Fraction
from math import gcd as _gcd, isqrt
from typing import Mapping, Optional, Tuple, Union


class DomainError(Exception):
    """An input that reaches a library precondition it does not meet; the
    command line answers it with exit code 3."""


class PoleAtPoint(DomainError):
    """Raised when a rational function is evaluated at one of its poles."""


class TooManyDigits(ValueError):
    """Raised when ``str`` meets an integer above Python's digit limit for
    integer-to-string conversion, the limit that parsing also keeps."""


_new = object.__new__


# ---------------------------------------------------------------------------
# Gaussian rationals
# ---------------------------------------------------------------------------

RatLike = Union[int, Fraction]


def _ratio_str(n: int, d: int) -> str:
    """``str(Fraction(n, d))`` for d > 0, without building the Fraction."""
    g = _gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    try:
        return str(n) if d == 1 else f"{n}/{d}"
    except ValueError:
        raise TooManyDigits(f"an exact result has more than {sys.get_int_max_str_digits()} digits") from None


def _ratio_hash(n: int, d: int) -> int:
    """``hash(Fraction(n, d))`` for d > 0; equal to ``hash(n)`` when d == 1."""
    return hash(n) if d == 1 else hash(Fraction(n, d))


class GaussianRational:
    """An element (a + b*i)/d of Q(i), held as the integer triple (a, b, d).

    The triple is in normal form: d > 0 and gcd(a, b, d) = 1, so equal values
    have equal triples.  The public constructor takes the real and imaginary
    parts (ints or Fractions); ``re`` and ``im`` return them as Fractions.
    The slots are private and never reassigned after construction.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: RatLike = 0, im: RatLike = 0):
        if re.__class__ is int and im.__class__ is int:
            self._a, self._b, self._d = re, im, 1
            return
        if not isinstance(re, (int, Fraction)):
            re = Fraction(re)
        if not isinstance(im, (int, Fraction)):
            im = Fraction(im)
        # Over d = lcm of the two lowest-terms denominators the triple is
        # already normal: a prime dividing d divides one denominator to full
        # power, and then not the matching numerator.
        rd, id_ = re.denominator, im.denominator
        d = rd * id_ // _gcd(rd, id_)
        self._a = re.numerator * (d // rd)
        self._b = im.numerator * (d // id_)
        self._d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, int):
            return _qi(x, 0, 1)
        if isinstance(x, Fraction):
            return _qi(x.numerator, 0, x.denominator)
        raise TypeError(f"cannot coerce {x!r} to GaussianRational")

    def __add__(self, other):
        if other.__class__ is not GaussianRational:
            try:
                other = GaussianRational._coerce(other)
            except TypeError:
                return NotImplemented
        d, od = self._d, other._d
        if d == od:
            return _qi(self._a + other._a, self._b + other._b, d)
        return _qi(self._a * od + other._a * d, self._b * od + other._b * d, d * od)

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not GaussianRational:
            try:
                other = GaussianRational._coerce(other)
            except TypeError:
                return NotImplemented
        d, od = self._d, other._d
        if d == od:
            return _qi(self._a - other._a, self._b - other._b, d)
        return _qi(self._a * od - other._a * d, self._b * od - other._b * d, d * od)

    def __rsub__(self, other):
        try:
            return GaussianRational._coerce(other) - self
        except TypeError:
            return NotImplemented

    def __neg__(self):
        return _qi(-self._a, -self._b, self._d)

    def __mul__(self, other):
        if other.__class__ is not GaussianRational:
            try:
                other = GaussianRational._coerce(other)
            except TypeError:
                return NotImplemented
        a, b, c, e = self._a, self._b, other._a, other._b
        return _qi(a * c - b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def inverse(self) -> "GaussianRational":
        a, b, d = self._a, self._b, self._d
        n = a * a + b * b
        if n == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return _qi(a * d, -b * d, n)

    def __truediv__(self, other):
        if other.__class__ is not GaussianRational:
            try:
                other = GaussianRational._coerce(other)
            except TypeError:
                return NotImplemented
        # (a + b i)/d / ((c + e i)/f) = f (a + b i)(c - e i) / (d (c^2 + e^2))
        a, b, c, e, f = self._a, self._b, other._a, other._b, other._d
        n = c * c + e * e
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return _qi((a * c + b * e) * f, (b * c - a * e) * f, self._d * n)

    def __rtruediv__(self, other):
        try:
            return GaussianRational._coerce(other) / self
        except TypeError:
            return NotImplemented

    def __pow__(self, k: int):
        return _power(self, k, QI_ONE)

    def conjugate(self) -> "GaussianRational":
        return _qi(self._a, -self._b, self._d)

    def parts(self) -> Tuple["GaussianRational", "GaussianRational"]:
        """The real and the imaginary part, each as a real Gaussian rational."""
        return _qi(self._a, 0, self._d), _qi(self._b, 0, self._d)

    # -- predicates and hashing --------------------------------------------

    def is_zero(self) -> bool:
        return self._a == 0 and self._b == 0

    def is_real(self) -> bool:
        return self._b == 0

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def __eq__(self, other):
        if other.__class__ is GaussianRational:
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, int):
            return self._b == 0 and self._d == 1 and self._a == other
        if isinstance(other, Fraction):
            # With b = 0 the normal form makes a/d a fraction in lowest terms.
            return (
                self._b == 0
                and self._a == other.numerator
                and self._d == other.denominator
            )
        return NotImplemented

    def __hash__(self):
        # A real value hashes like the equal int or Fraction; any other value
        # like the pair (re, im) of Fractions.
        h = _ratio_hash(self._a, self._d)
        if self._b == 0:
            return h
        return hash((h, _ratio_hash(self._b, self._d)))

    # -- text form ----------------------------------------------------------

    def __str__(self):
        a, b, d = self._a, self._b, self._d
        if b == 0:
            return _ratio_str(a, d)
        im = _ratio_str(abs(b), d)
        if a == 0:
            return f"-{im}*i" if b < 0 else f"{im}*i"
        return f"{_ratio_str(a, d)}{'+' if b > 0 else '-'}{im}*i"

    __repr__ = __str__

    @staticmethod
    def parse(text: str) -> "GaussianRational":
        """Parse the "a/b", "c/d*i", or "a/b+c/d*i" string forms.  The forms
        ``str`` writes are read by one match; other text ("i", "2i", spaces,
        "1.5", ...) is split at its last interior sign and read by ``Fraction``."""
        try:
            m = _STR_FORM.fullmatch(text)
            if m:
                a, ad, b, bd, c, cd = m.groups()
                if c is not None:  # "c/d*i"
                    return _qi(0, int(c), int(cd or 1))
                if b is None:  # "a/b"
                    return _qi(int(a), 0, int(ad or 1))
                ad, bd = int(ad or 1), int(bd or 1)
                return _qi(int(a) * bd, int(b) * ad, ad * bd)
            s = text.replace(" ", "")
            if not s.endswith("i"):
                a, d = _parse_ratio(s)
                return _qi(a, 0, d)
            body = s[:-1]
            if body.endswith("*"):
                body = body[:-1]
            # Split off the real part at the last interior sign; fraction
            # notation has no exponents, so any non-leading +/- separates.
            split = max(body.rfind("+"), body.rfind("-"))
            re_txt, im_txt = (body[:split], body[split:]) if split > 0 else ("0", body)
            a, ad = _parse_ratio(re_txt)
            b, bd = _parse_ratio(im_txt + "1" if im_txt in ("", "+", "-") else im_txt)
            return _qi(a * bd, b * ad, ad * bd)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"cannot parse Gaussian rational {text!r}") from None


#: The forms ``str`` writes ("a/b", "a/b-c/d*i", "c/d*i"): ASCII, nonzero denominators.
_STR_FORM = re.compile(r"(-?\d+)(?:/(0*[1-9]\d*))?(?:([+-]\d+)(?:/(0*[1-9]\d*))?\*i)?|(-?\d+)(?:/(0*[1-9]\d*))?\*i",
                       re.ASCII)


def _parse_ratio(text: str) -> Tuple[int, int]:
    """(n, d) of ``Fraction(text)``, refusing a number ``str`` could not write
    back (e.g. "1e5000"), as ``int`` does from Python 3.10.7 on."""
    f = Fraction(text)
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and max(abs(f.numerator), f.denominator) >= 10**limit:
        raise ValueError(f"more than {limit} digits in {text!r}")
    return f.numerator, f.denominator


def _power(x, k: int, one):
    """x**k by repeated squaring, for an element x of a field with unit
    ``one``; a negative k takes the power of ``one / x``."""
    if k < 0:
        x, k = one / x, -k
    out = one
    while k:
        if k & 1:
            out = out * x
        x = x * x
        k >>= 1
    return out


def _qi(a: int, b: int, d: int) -> GaussianRational:
    """Trusted constructor: the normal form of (a + b*i)/d, for ints, d > 0."""
    if d != 1:
        g = _gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    q = _new(GaussianRational)
    q._a = a
    q._b = b
    q._d = d
    return q


def casimir_product_holds(A, B, casimir, m: int) -> bool:
    """Whether 4 A B = c1 z^2 + (c0 - m) z + c-1 for Laurent polynomials A, B,
    the Casimir triple (c1, c0, c-1) and an int m.  Per exponent, the triples
    of -q and of 4 times each product are summed unreduced over the product
    of their denominators; no polynomial and no normalised scalar is built."""
    c1, c0, cm1 = casimir
    acc = {2: (-c1._a, -c1._b, c1._d), 1: (m * c0._d - c0._a, -c0._b, c0._d), 0: (-cm1._a, -cm1._b, cm1._d)}
    for e1, x in A.coeffs.items():
        for e2, y in B.coeffs.items():
            a, b, d = acc.get(e1 + e2, (0, 0, 1))
            re_, im, den = 4 * (x._a * y._a - x._b * y._b), 4 * (x._a * y._b + x._b * y._a), x._d * y._d
            acc[e1 + e2] = (a * den + re_ * d, b * den + im * d, d * den)
    return not any(a or b for a, b, _ in acc.values())


def proportional(A, A2) -> bool:
    """Whether A2 = mu A for one nonzero scalar mu (False where A or A2 is
    zero).  Each coefficient is cross-multiplied with the leading ones of A
    and A2, so mu is not formed."""
    ac, a2c = A.coeffs, A2.coeffs
    if not ac or ac.keys() != a2c.keys():
        return False
    u, v = ac[max(ac)], a2c[max(ac)]
    return all(_cross_equal(a2c[e], u, v, x) for e, x in ac.items())  # A2[e] lead A = lead A2 A[e]


def _cross_equal(x, y, u, v) -> bool:
    """x y == u v for Gaussian rationals, on their triples."""
    dl, dr = x._d * y._d, u._d * v._d
    return ((x._a * y._a - x._b * y._b) * dr == (u._a * v._a - u._b * v._b) * dl
            and (x._a * y._b + x._b * y._a) * dr == (u._a * v._b + u._b * v._a) * dl)


QI_ZERO = GaussianRational(0)
QI_ONE = GaussianRational(1)
QI_I = GaussianRational(0, 1)


class _Infinity:
    """The point at infinity on the projective line."""

    _instance: Optional["_Infinity"] = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "infinity"


INFINITY = _Infinity()

Point = Union[GaussianRational, _Infinity]


def _sqrt_fraction(f: Fraction) -> Optional[Fraction]:
    if f < 0:
        return None
    pn = isqrt(f.numerator)
    pd = isqrt(f.denominator)
    if pn * pn == f.numerator and pd * pd == f.denominator:
        return Fraction(pn, pd)
    return None


def gaussian_sqrt(g: GaussianRational) -> Optional[GaussianRational]:
    """A square root of g in Q(i), or None when none exists there."""
    a, b = g.re, g.im
    if b == 0:
        r = _sqrt_fraction(a)
        if r is not None:
            return GaussianRational(r)
        r = _sqrt_fraction(-a)
        if r is not None:
            return GaussianRational(0, r)
        return None
    s = _sqrt_fraction(a * a + b * b)
    if s is None:
        return None
    x = _sqrt_fraction((a + s) / 2)
    if x is None or x == 0:
        return None
    y = b / (2 * x)
    return GaussianRational(x, y)


# ---------------------------------------------------------------------------
# Laurent polynomials
# ---------------------------------------------------------------------------


class LaurentPoly:
    """A Laurent polynomial in z over Q(i), stored as exponent -> coefficient.

    Zero coefficients are never stored.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Optional[Mapping[int, GaussianRational]] = None):
        clean = {}
        if coeffs:
            for e, c in coeffs.items():
                if c.__class__ is not GaussianRational:
                    c = GaussianRational._coerce(c)
                if c:
                    clean[int(e)] = c
        self.coeffs = clean

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(c) -> "LaurentPoly":
        return LaurentPoly({0: GaussianRational._coerce(c)})

    @staticmethod
    def monomial(exp: int, c=1) -> "LaurentPoly":
        return LaurentPoly({exp: GaussianRational._coerce(c)})

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def is_ordinary(self) -> bool:
        """True when no negative exponents occur."""
        return all(e >= 0 for e in self.coeffs)

    def max_exp(self) -> int:
        if self.is_zero():
            raise ValueError("zero polynomial has no maximal exponent")
        return max(self.coeffs)

    def degree(self) -> int:
        """Degree as an ordinary polynomial; -1 for the zero polynomial."""
        if self.is_zero():
            return -1
        return self.max_exp()

    def coeff(self, exp: int) -> GaussianRational:
        return self.coeffs.get(exp, QI_ZERO)

    def leading_coeff(self) -> GaussianRational:
        return self.coeffs[self.max_exp()]

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "LaurentPoly":
        if isinstance(x, LaurentPoly):
            return x
        if isinstance(x, (int, Fraction, GaussianRational)):
            return LaurentPoly.constant(x)
        raise TypeError(f"cannot coerce {x!r} to LaurentPoly")

    def __add__(self, other):
        if other.__class__ is not LaurentPoly:
            try:
                other = LaurentPoly._coerce(other)
            except TypeError:
                return NotImplemented
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out[e] + c if e in out else c
        return _lp({e: c for e, c in out.items() if c})

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not LaurentPoly:
            try:
                other = LaurentPoly._coerce(other)
            except TypeError:
                return NotImplemented
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = out[e] - c if e in out else -c
        return _lp({e: c for e, c in out.items() if c})

    def __rsub__(self, other):
        try:
            return LaurentPoly._coerce(other) - self
        except TypeError:
            return NotImplemented

    def __neg__(self):
        return _lp({e: -c for e, c in self.coeffs.items()})

    def __mul__(self, other):
        if other.__class__ is not LaurentPoly:
            try:
                other = LaurentPoly._coerce(other)
            except TypeError:
                return NotImplemented
        out: dict = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = e1 + e2
                out[e] = out[e] + c1 * c2 if e in out else c1 * c2
        return _lp({e: c for e, c in out.items() if c})

    __rmul__ = __mul__

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by z^k."""
        return _lp({e + k: c for e, c in self.coeffs.items()})

    def scale(self, c) -> "LaurentPoly":
        if c.__class__ is not GaussianRational:
            c = GaussianRational._coerce(c)
        if not c:
            return LP_ZERO
        return _lp({e: c * v for e, v in self.coeffs.items()})

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            other = LaurentPoly.constant(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    # -- evaluation and division --------------------------------------------

    def evaluate(self, z0: GaussianRational) -> GaussianRational:
        """Horner's rule down to the lowest exponent, then one power of z0."""
        z0 = GaussianRational._coerce(z0)
        c = self.coeffs
        if not c:
            return QI_ZERO
        lo, hi = min(c), max(c)
        if lo < 0 and z0.is_zero():
            raise PoleAtPoint("Laurent polynomial has a pole at 0")
        out = c[hi]
        for e in range(hi - 1, lo - 1, -1):
            out = out * z0 + c[e] if e in c else out * z0
        return out if lo == 0 else out * z0**lo

    def divmod_ordinary(self, other: "LaurentPoly"):
        """Polynomial division; both operands must be ordinary polynomials."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        if not (self.is_ordinary() and other.is_ordinary()):
            raise ValueError("divmod requires ordinary polynomials")
        rem = dict(self.coeffs)
        quot: dict = {}
        dlead = other.max_exp()
        inv = other.coeffs[dlead].inverse()
        while rem and max(rem) >= dlead:
            e = max(rem)
            q = rem[e] * inv
            quot[e - dlead] = q
            for oe, oc in other.coeffs.items():
                k = oe + e - dlead
                v = rem.get(k, QI_ZERO) - q * oc
                if v.is_zero():
                    rem.pop(k, None)
                else:
                    rem[k] = v
        return _lp(quot), _lp(rem)

    def monic(self) -> "LaurentPoly":
        if self.is_zero():
            return self
        return self.scale(self.leading_coeff().inverse())

    @staticmethod
    def gcd_ordinary(a: "LaurentPoly", b: "LaurentPoly") -> "LaurentPoly":
        """Monic gcd of two ordinary polynomials over Q(i)."""
        while not b.is_zero():
            _, r = a.divmod_ordinary(b)
            a, b = b, r
        return a.monic() if not a.is_zero() else a

    def __str__(self):
        if self.is_zero():
            return "0"
        parts = []
        for e in sorted(self.coeffs):
            c = self.coeffs[e]
            if e == 0:
                parts.append(f"({c})")
            elif e == 1:
                parts.append(f"({c})*z")
            else:
                parts.append(f"({c})*z^{e}")
        return " + ".join(parts)

    __repr__ = __str__

    # -- serialization ------------------------------------------------------

    def to_json(self) -> dict:
        return {str(e): str(c) for e, c in sorted(self.coeffs.items())}

    @staticmethod
    def from_json(data: Mapping[str, str]) -> "LaurentPoly":
        parsed = {int(e): GaussianRational.parse(c) for e, c in data.items()}  # the last of equal exponents wins
        return _lp({e: c for e, c in parsed.items() if c})


def _lp(coeffs: dict) -> LaurentPoly:
    """Trusted constructor: ``coeffs`` maps ints to nonzero GaussianRationals
    and is owned by the result."""
    p = _new(LaurentPoly)
    p.coeffs = coeffs
    return p


LP_ZERO = LaurentPoly()
LP_ONE = LaurentPoly.constant(1)


# ---------------------------------------------------------------------------
# Rational functions
# ---------------------------------------------------------------------------


class RationalFunction:
    """A rational function on the projective line, in canonical form.

    Canonical form: numerator and denominator are ordinary polynomials in z,
    the denominator is monic and coprime to the numerator.  A denominator 1
    is always ``LP_ONE`` itself, so the arithmetic tests it by identity.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=LP_ONE):
        if num.__class__ is not LaurentPoly:
            num = LaurentPoly._coerce(num)
        if den.__class__ is not LaurentPoly:
            den = LaurentPoly._coerce(den)
        nc, dc = num.coeffs, den.coeffs
        if not dc:
            raise ZeroDivisionError("rational function with zero denominator")
        if not nc:
            num, den = LP_ZERO, LP_ONE
        elif len(dc) == 1:
            # Monomial denominator c*z^k: its gcd with the numerator is
            # z^min(k, ord_0 num), so no Euclidean gcd is needed.
            ((k, c),) = dc.items()
            s = min(k, min(nc))
            if s:
                num = num.shift(-s)
            if c != QI_ONE:
                num = num.scale(c.inverse())
            den = LP_ONE if k == s else _lp({k - s: QI_ONE})
        else:
            # Clear negative exponents so both parts become ordinary polynomials.
            shift = min(0, min(nc), min(dc))
            if shift < 0:
                num = num.shift(-shift)
                den = den.shift(-shift)
            g = LaurentPoly.gcd_ordinary(num, den)
            if g.degree() > 0 or g.coeff(0) != QI_ONE:
                num, _ = num.divmod_ordinary(g)
                den, _ = den.divmod_ordinary(g)
            lead = den.leading_coeff()
            if lead != QI_ONE:
                inv = lead.inverse()
                num = num.scale(inv)
                den = den.scale(inv)
            if den.degree() == 0:
                den = LP_ONE
        self.num = num
        self.den = den

    # -- constructors -------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "RationalFunction":
        if isinstance(x, RationalFunction):
            return x
        if isinstance(x, (int, Fraction, GaussianRational, LaurentPoly)):
            return RationalFunction(LaurentPoly._coerce(x))
        raise TypeError(f"cannot coerce {x!r} to RationalFunction")

    @staticmethod
    def constant(c) -> "RationalFunction":
        return RationalFunction(LaurentPoly.constant(c))

    @staticmethod
    def monomial(exp: int, c=1) -> "RationalFunction":
        return RationalFunction(LaurentPoly.monomial(exp, c))

    # -- structure ----------------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self):
        return not self.is_zero()

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        o = other if other.__class__ is RationalFunction else self._coerce(other)
        if self.den is LP_ONE and o.den is LP_ONE:
            return _rf(self.num + o.num, LP_ONE)
        return RationalFunction(self.num * o.den + o.num * self.den, self.den * o.den)

    __radd__ = __add__

    def __neg__(self):
        return _rf(-self.num, self.den)

    def __sub__(self, other):
        o = other if other.__class__ is RationalFunction else self._coerce(other)
        if self.den is LP_ONE and o.den is LP_ONE:
            return _rf(self.num - o.num, LP_ONE)
        return RationalFunction(self.num * o.den - o.num * self.den, self.den * o.den)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        o = other if other.__class__ is RationalFunction else self._coerce(other)
        if self.den is LP_ONE and o.den is LP_ONE:
            return _rf(self.num * o.num, LP_ONE)
        return RationalFunction(self.num * o.num, self.den * o.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = other if other.__class__ is RationalFunction else self._coerce(other)
        oc = o.num.coeffs
        if not oc:
            raise ZeroDivisionError("division by the zero rational function")
        if self.den is LP_ONE and o.den is LP_ONE and len(oc) == 1 and 0 in oc:
            return _rf(self.num.scale(oc[0].inverse()), LP_ONE)
        return RationalFunction(self.num * o.den, self.den * o.num)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __pow__(self, k: int):
        return _power(self, k, RF_ONE)

    def __eq__(self, other):
        try:
            o = self._coerce(other)
        except TypeError:
            return NotImplemented
        return self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.num, self.den))

    # -- evaluation and orders ----------------------------------------------

    def evaluate(self, z0) -> GaussianRational:
        z0 = GaussianRational._coerce(z0)
        dv = self.den.evaluate(z0)
        if dv.is_zero():
            raise PoleAtPoint(f"pole at {z0}")
        return self.num.evaluate(z0) / dv

    def evaluate_point(self, p: Point) -> GaussianRational:
        if p is not INFINITY:
            return self.evaluate(p)
        if self.num.degree() > self.den.degree():
            raise PoleAtPoint("pole at infinity")
        return self.num.coeff(self.den.degree())  # the denominator is monic

    @staticmethod
    def _root_multiplicity(poly: LaurentPoly, z0: GaussianRational) -> int:
        if poly.is_zero():
            raise ValueError("zero polynomial")
        lin = LaurentPoly({1: QI_ONE, 0: -z0})
        mult = 0
        while True:
            q, r = poly.divmod_ordinary(lin)
            if not r.is_zero():
                return mult
            poly = q
            mult += 1

    def ord_at(self, p: Point):
        """Vanishing order at a point of the projective line.

        Negative values are pole orders; the zero function has no order and
        raises ``ValueError``.
        """
        if self.is_zero():
            raise ValueError("the zero function has no order")
        if p is INFINITY:
            return self.den.degree() - self.num.degree()
        p = GaussianRational._coerce(p)
        if p.is_zero():
            return min(self.num.coeffs) - min(self.den.coeffs)
        return self._root_multiplicity(self.num, p) - self._root_multiplicity(
            self.den, p
        )

    # -- substitution -------------------------------------------------------

    def compose(self, psi: "RationalFunction") -> "RationalFunction":
        """The composition f(psi(z)) for a rational map psi: the numerator
        and the denominator at psi by Horner's rule in the field, then one
        division."""
        psi = RationalFunction._coerce(psi)

        def at_psi(poly: LaurentPoly) -> "RationalFunction":
            c, out = poly.coeffs, RF_ZERO
            for e in range(poly.degree(), -1, -1):
                out = out * psi + c[e] if e in c else out * psi
            return out

        return at_psi(self.num) / at_psi(self.den)

    def substitute_reciprocal(self) -> "RationalFunction":
        """The function f(1/w), expressed in the coordinate w."""
        return self.compose(RationalFunction.monomial(-1))

    # -- roots ---------------------------------------------------------------

    def __str__(self):
        if self.den.degree() == 0:
            return str(self.num)
        return f"({self.num}) / ({self.den})"

    __repr__ = __str__

    def to_json(self) -> dict:
        return {"num": self.num.to_json(), "den": self.den.to_json()}


def _rf(num: LaurentPoly, den: LaurentPoly) -> RationalFunction:
    """Trusted constructor for a pair already in canonical form."""
    f = _new(RationalFunction)
    f.num = num
    f.den = den
    return f


RF_ZERO = RationalFunction(LP_ZERO)
RF_ONE = RationalFunction(LP_ONE)
RF_Z = RationalFunction.monomial(1)


class UnsplitQuadratic(DomainError):
    """A quadratic polynomial with no roots in Q(i)."""

    def __init__(self, poly: LaurentPoly):
        super().__init__(f"quadratic does not split over Q(i): {poly}")
        self.poly = poly


def poly_roots(poly: LaurentPoly) -> list:
    """All roots in Q(i) of an ordinary polynomial of degree <= 2.

    Raises :class:`UnsplitQuadratic` when a quadratic has irrational roots and
    ``ValueError`` for degrees above 2 (factorization there is out of scope).
    """
    d = poly.degree()
    if d <= 0:
        return []
    if d == 1:
        return [-poly.coeff(0) / poly.coeff(1)]
    if d == 2:
        a, b, c = poly.coeff(2), poly.coeff(1), poly.coeff(0)
        disc = b * b - GaussianRational(4) * a * c
        s = gaussian_sqrt(disc)
        if s is None:
            raise UnsplitQuadratic(poly)
        two_a = GaussianRational(2) * a
        r1 = (-b + s) / two_a
        r2 = (-b - s) / two_a
        return [r1] if r1 == r2 else [r1, r2]
    raise ValueError("root finding beyond quadratics is not supported")
