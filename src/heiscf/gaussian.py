"""Exact arithmetic over Z[i] and Q(i).

Gaussian integers carry all lattice and continuant arithmetic; Gaussian
rationals carry the coordinates of rational points.  Everything here is
exact: no floats, no rounding except the explicit nearest-integer
division used by the Euclidean algorithm.
"""

from __future__ import annotations

import math
import re as _re
from dataclasses import dataclass
from fractions import Fraction

from .errors import ParseError

__all__ = [
    "GaussInt",
    "GaussRat",
    "canonical_associate",
    "gi_gcd",
    "parse_gauss_int",
    "r2_count",
    "r2_count_naive",
    "reduce_triple",
]


def _round_half_up(num: int, den: int) -> int:
    """Nearest integer to num/den (den > 0), ties toward +infinity."""
    return (2 * num + den) // (2 * den)


@dataclass(frozen=True)
class GaussInt:
    """A Gaussian integer re + im*i with unbounded integer parts."""

    re: int = 0
    im: int = 0

    def __add__(self, other: "GaussInt") -> "GaussInt":
        return GaussInt(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussInt") -> "GaussInt":
        return GaussInt(self.re - other.re, self.im - other.im)

    def __mul__(self, other: "GaussInt") -> "GaussInt":
        return GaussInt(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __neg__(self) -> "GaussInt":
        return GaussInt(-self.re, -self.im)

    def conj(self) -> "GaussInt":
        return GaussInt(self.re, -self.im)

    def norm(self) -> int:
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_unit(self) -> bool:
        return self.norm() == 1

    def divides(self, other: "GaussInt") -> bool:
        n = self.norm()
        if n == 0:
            return other.is_zero()
        t = other * self.conj()
        return t.re % n == 0 and t.im % n == 0

    def exact_div(self, other: "GaussInt") -> "GaussInt":
        """Exact quotient self/other; raises if it is not a Gaussian integer."""
        n = other.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian integer")
        t = self * other.conj()
        if t.re % n != 0 or t.im % n != 0:
            raise ValueError(f"{other} does not divide {self}")
        return GaussInt(t.re // n, t.im // n)

    def round_div(self, other: "GaussInt") -> "GaussInt":
        """Quotient rounded coordinate-wise to the nearest Gaussian integer."""
        n = other.norm()
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian integer")
        t = self * other.conj()
        return GaussInt(_round_half_up(t.re, n), _round_half_up(t.im, n))

    def __complex__(self) -> complex:
        return complex(self.re, self.im)

    def __str__(self) -> str:
        return format_gauss_int(self)


ONE = GaussInt(1, 0)
I = GaussInt(0, 1)
UNITS = (GaussInt(1, 0), GaussInt(0, 1), GaussInt(-1, 0), GaussInt(0, -1))


def canonical_associate(g: GaussInt) -> tuple[GaussInt, GaussInt]:
    """Return (c, u) with c = u*g the canonical unit multiple of g.

    Canonical means re > 0 and im >= 0 (the quarter-plane containing the
    positive real axis); zero maps to zero.  Exactly one of the four
    associates lands there, which makes lowest-terms outputs reproducible.
    """
    if g.is_zero():
        return g, ONE
    for u in UNITS:
        c = u * g
        if c.re > 0 and c.im >= 0:
            return c, u
    raise AssertionError("unreachable: no canonical associate")


def gi_gcd(g1: GaussInt, g2: GaussInt) -> GaussInt:
    """GCD in Z[i], normalized to the canonical associate.

    Euclidean algorithm with rounded division; the remainder norm strictly
    decreases, so this terminates.
    """
    if g1.is_zero() and g2.is_zero():
        raise ValueError("gcd undefined for (0, 0)")
    a, b, c, d = g1.re, g1.im, g2.re, g2.im
    while c or d:  # (a + bi, c + di) -> (c + di, (a + bi) - q (c + di))
        n = c * c + d * d
        qr = _round_half_up(a * c + b * d, n)
        qi = _round_half_up(b * c - a * d, n)
        a, b, c, d = c, d, a - qr * c + qi * d, b - qr * d - qi * c
    return canonical_associate(GaussInt(a, b))[0]


def reduce_triple(
    q: GaussInt, r: GaussInt, p: GaussInt
) -> tuple[GaussInt, GaussInt, GaussInt]:
    """Divide (q, r, p) by its GCD and canonicalize the q component.

    The result represents the same projective point with q in canonical
    associate form.  q must be nonzero.
    """
    from .errors import PointAtInfinity

    if q.is_zero():
        raise PointAtInfinity("point at infinity: q = 0")
    g = canonical_associate(q)[0]
    for x in (r, p):
        if not g.is_unit() and not x.is_zero():
            g = gi_gcd(g, x)
    return _fold_unit(q.exact_div(g), r.exact_div(g), p.exact_div(g))


def _fold_unit(
    q: GaussInt, r: GaussInt, p: GaussInt
) -> tuple[GaussInt, GaussInt, GaussInt]:
    """The unit multiple of (q, r, p) whose q is the canonical associate."""
    _, u = canonical_associate(q)
    return u * q, u * r, u * p


def _coprime(q: GaussInt, r: GaussInt, p: GaussInt) -> bool:
    """True iff q, r and p have no common non-unit factor in Z[i]."""
    g = q
    for x in (r, p):
        if not x.is_zero():
            g = gi_gcd(g, x)
        if g.is_unit():
            return True
    return g.is_unit()


def _trip_key(t) -> tuple:
    """Sort key of an integer triple: its coordinates as int pairs."""
    return tuple((g.re, g.im) for g in t)


def r2_count_naive(n: int) -> int:
    """O(sqrt(n)) enumeration oracle for r2(n)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    count = 0
    a = 0
    while a * a <= n:
        rest = n - a * a
        b = math.isqrt(rest)
        if b * b == rest:
            sa = 1 if a == 0 else 2
            sb = 1 if b == 0 else 2
            count += sa * sb
        a += 1
    return count


def r2_count(n: int) -> int:
    """Number of ways to write n = a^2 + b^2 counting signs and order.

    Computed from the factorization, found by trial division up to
    sqrt(n): zero if some prime = 3 mod 4 occurs to an odd power, else
    4 * prod(e_p + 1) over primes p = 1 mod 4.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    while n % 2 == 0:
        n //= 2
    result = 4
    p = 3
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if p % 4 == 3 and e % 2 == 1:
            return 0
        if p % 4 == 1:
            result *= e + 1
        p += 2
    if n > 1:  # one prime left, to the first power
        if n % 4 == 3:
            return 0
        result *= 2
    return result


# ---------------------------------------------------------------------------
# Gaussian rationals


def _rat(a: int, b: int, d: int) -> "GaussRat":
    """(a + b*i)/d in lowest terms; d must be positive."""
    g = math.gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    return GaussRat(a, b, d)


@dataclass(frozen=True)
class GaussRat:
    """A Gaussian rational (a + b*i)/d over a positive integer denominator.

    gcd(a, b, d) = 1 and d > 0, so the form is unique: equal values have
    equal fields, and arithmetic reduces with one integer gcd.  The
    constructor takes that form as given; make() and from_fractions() build
    it from anything else.  num and den, the Gaussian lowest terms with den
    the canonical associate, are derived on demand.
    """

    a: int
    b: int
    d: int = 1

    @staticmethod
    def make(num: GaussInt, den: GaussInt = ONE) -> "GaussRat":
        """num/den, computed as num * conj(den) / |den|^2."""
        n = den.norm()
        if n == 0:
            raise ZeroDivisionError("zero denominator")
        t = num * den.conj()
        return _rat(t.re, t.im, n)

    @staticmethod
    def from_int(g: GaussInt) -> "GaussRat":
        return GaussRat(g.re, g.im)

    @staticmethod
    def from_fractions(re: Fraction, im: Fraction) -> "GaussRat":
        # Both parts are in lowest terms, so over the lcm of their
        # denominators the triple is already reduced.
        d = math.lcm(re.denominator, im.denominator)
        return GaussRat(
            re.numerator * (d // re.denominator),
            im.numerator * (d // im.denominator),
            d,
        )

    @property
    def num(self) -> GaussInt:
        return self._lowest_terms()[0]

    @property
    def den(self) -> GaussInt:
        return self._lowest_terms()[1]

    def _lowest_terms(self) -> tuple[GaussInt, GaussInt]:
        num, den = GaussInt(self.a, self.b), GaussInt(self.d, 0)
        g = gi_gcd(num, den)
        num, den = num.exact_div(g), den.exact_div(g)
        _, u = canonical_associate(den)
        return u * num, u * den

    def __add__(self, other: "GaussRat") -> "GaussRat":
        return _rat(
            self.a * other.d + other.a * self.d,
            self.b * other.d + other.b * self.d,
            self.d * other.d,
        )

    def __sub__(self, other: "GaussRat") -> "GaussRat":
        return _rat(
            self.a * other.d - other.a * self.d,
            self.b * other.d - other.b * self.d,
            self.d * other.d,
        )

    def __mul__(self, other: "GaussRat") -> "GaussRat":
        return _rat(
            self.a * other.a - self.b * other.b,
            self.a * other.b + self.b * other.a,
            self.d * other.d,
        )

    def __truediv__(self, other: "GaussRat") -> "GaussRat":
        # x/y = (x.a + x.b*i) * conj(y.a + y.b*i) * y.d / (x.d * |y.a + y.b*i|^2)
        n = other.a * other.a + other.b * other.b
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return _rat(
            (self.a * other.a + self.b * other.b) * other.d,
            (self.b * other.a - self.a * other.b) * other.d,
            self.d * n,
        )

    def __neg__(self) -> "GaussRat":
        return GaussRat(-self.a, -self.b, self.d)

    def conjugate(self) -> "GaussRat":
        return GaussRat(self.a, -self.b, self.d)

    def inverse(self) -> "GaussRat":
        n = self.a * self.a + self.b * self.b
        if n == 0:
            raise ZeroDivisionError("inverse of zero")
        return _rat(self.a * self.d, -self.b * self.d, n)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __bool__(self) -> bool:
        return self.a != 0 or self.b != 0

    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    def abs_sq(self) -> Fraction:
        return Fraction(self.a * self.a + self.b * self.b, self.d * self.d)

    def __complex__(self) -> complex:
        return complex(self.a / self.d, self.b / self.d)

    def to_gauss_int(self) -> GaussInt:
        if self.d != 1:
            raise ValueError(f"{self} is not a Gaussian integer")
        return GaussInt(self.a, self.b)

    def __str__(self) -> str:
        if self.d == 1:
            return format_gauss_int(GaussInt(self.a, self.b))
        num, den = self._lowest_terms()
        ns = format_gauss_int(num)
        ds = format_gauss_int(den)
        if ("+" in ns[1:]) or ("-" in ns[1:]):
            ns = f"({ns})"
        if ("+" in ds[1:]) or ("-" in ds[1:]):
            ds = f"({ds})"
        return f"{ns}/{ds}"


RAT_ZERO = GaussRat(0, 0)


# ---------------------------------------------------------------------------
# Text rendering and parsing


def format_gauss_int(g: GaussInt) -> str:
    """Render as a+bi with no spaces; unit coefficients elided (`1+i`, `-5i`)."""
    if g.is_zero():
        return "0"
    parts = []
    if g.re != 0:
        parts.append(str(g.re))
    if g.im != 0:
        if g.im == 1:
            s = "i"
        elif g.im == -1:
            s = "-i"
        else:
            s = f"{g.im}i"
        if parts and not s.startswith("-"):
            parts.append("+" + s)
        else:
            parts.append(s)
    return "".join(parts)


_TERM_RE = _re.compile(r"[+-]?[^+-]+")


def parse_gauss_int(s: str) -> GaussInt:
    """Parse the a+bi grammar produced by format_gauss_int."""
    re_part, im_part = _parse_complex_terms(s)
    if re_part.denominator != 1 or im_part.denominator != 1:
        raise ParseError(f"not a Gaussian integer: {s!r}")
    return GaussInt(int(re_part), int(im_part))


_NUM_RE = _re.compile(
    r"^(?P<sign>[+-])?(?P<a>\d+(?:\.\d+)?|\.\d+)?"
    r"(?:/(?P<b>\d+(?:\.\d+)?))?(?P<i>i)?(?:/(?P<c>\d+(?:\.\d+)?))?$"
)


def _parse_term(tok: str) -> tuple[Fraction, bool]:
    m = _NUM_RE.match(tok)
    if not m or (m.group("a") is None and m.group("i") is None):
        raise ParseError(f"bad term {tok!r}")
    if m.group("a") is None and (m.group("b") is not None):
        raise ParseError(f"bad term {tok!r}")
    val = Fraction(m.group("a")) if m.group("a") is not None else Fraction(1)
    if m.group("b") is not None:
        val /= Fraction(m.group("b"))
    if m.group("c") is not None:
        if m.group("i") is None:
            raise ParseError(f"bad term {tok!r}")
        val /= Fraction(m.group("c"))
    if m.group("sign") == "-":
        val = -val
    return val, m.group("i") is not None


def _parse_complex_terms(s: str) -> tuple[Fraction, Fraction]:
    s = s.strip().replace(" ", "")
    if not s:
        raise ParseError("empty complex literal")
    toks = _TERM_RE.findall(s)
    if "".join(toks) != s:
        raise ParseError(f"bad complex literal {s!r}")
    re_part = Fraction(0)
    im_part = Fraction(0)
    seen_re = seen_im = False
    for tok in toks:
        val, is_imag = _parse_term(tok)
        if is_imag:
            if seen_im:
                raise ParseError(f"duplicate imaginary part in {s!r}")
            im_part = val
            seen_im = True
        else:
            if seen_re:
                raise ParseError(f"duplicate real part in {s!r}")
            re_part = val
            seen_re = True
    return re_part, im_part


def parse_complex_rational(s: str) -> tuple[Fraction, Fraction]:
    """Parse a complex rational: term sums (`1+4/5i`) or `num/den` with
    parenthesized Gaussian-integer parts (`(1+i)/(2-i)`)."""
    s = s.strip().replace(" ", "")
    if "(" in s:  # only the quotient form has parentheses
        left, slash, right = s.partition("/")
        if not slash:
            raise ParseError(f"bad complex literal {s!r}")
        r = GaussRat.make(
            parse_gauss_int(_unparenthesize(left)),
            parse_gauss_int(_unparenthesize(right)),
        )
        return r.re(), r.im()
    return _parse_complex_terms(s)


def _unparenthesize(part: str) -> str:
    """part without one enclosing pair of parentheses, which it may omit."""
    if part.startswith("(") and part.endswith(")"):
        part = part[1:-1]
    if "(" in part or ")" in part:
        raise ParseError(f"bad quotient part {part!r}")
    return part


def parse_gauss_rat(s: str) -> GaussRat:
    re_part, im_part = parse_complex_rational(s)
    return GaussRat.from_fractions(re_part, im_part)
