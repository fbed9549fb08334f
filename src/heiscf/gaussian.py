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

from .errors import ParseError, PointAtInfinity

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


@dataclass(frozen=True, slots=True, init=False)
class GaussInt:
    """A Gaussian integer re + im*i with unbounded integer parts.

    A slotted frozen value: __init__ stores the parts through the slot
    descriptors, which skips the frozen __setattr__ on the hot path.
    """

    re: int
    im: int

    def __init__(self, re: int = 0, im: int = 0) -> None:
        _set_re(self, re)
        _set_im(self, im)

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


_set_re = GaussInt.__dict__["re"].__set__
_set_im = GaussInt.__dict__["im"].__set__

ONE = GaussInt(1, 0)
UNITS = (GaussInt(1, 0), GaussInt(0, 1), GaussInt(-1, 0), GaussInt(0, -1))


def canonical_associate(g: GaussInt) -> tuple[GaussInt, GaussInt]:
    """Return (c, u) with c = u*g the canonical unit multiple of g.

    Canonical means re > 0 and im >= 0 (the quarter-plane containing the
    positive real axis); zero maps to zero.  Exactly one of the four
    associates lands there, which makes lowest-terms outputs reproducible.
    The signs of (re, im) say which one, so c is a rotation of g.
    """
    a, b = g.re, g.im
    if a > 0 and b >= 0 or a == b == 0:
        return g, ONE
    if a >= 0 and b < 0:  # i*g
        return GaussInt(-b, a), UNITS[1]
    if a < 0 and b <= 0:  # -g
        return GaussInt(-a, -b), UNITS[2]
    return GaussInt(b, -a), UNITS[3]  # -i*g, for a <= 0 < b


def gi_gcd(g1: GaussInt, g2: GaussInt) -> GaussInt:
    """GCD in Z[i], normalized to the canonical associate."""
    if g1.is_zero() and g2.is_zero():
        raise ValueError("gcd undefined for (0, 0)")
    return canonical_associate(GaussInt(*_euclid(g1.re, g1.im, g2.re, g2.im)))[0]


def _euclid(a: int, b: int, c: int, d: int) -> tuple[int, int]:
    """A GCD of a + bi and c + di as an int pair, up to a unit.

    Euclidean algorithm with rounded division; the remainder norm strictly
    decreases, so this terminates.  (0, 0) for two zeros.
    """
    while c or d:  # (a + bi, c + di) -> (c + di, (a + bi) - q (c + di))
        n = c * c + d * d
        qr = _round_half_up(a * c + b * d, n)
        qi = _round_half_up(b * c - a * d, n)
        a, b, c, d = c, d, a - qr * c + qi * d, b - qr * d - qi * c
    return a, b


def reduce_triple(
    q: GaussInt, r: GaussInt, p: GaussInt
) -> tuple[GaussInt, GaussInt, GaussInt]:
    """Divide (q, r, p) by its GCD and canonicalize the q component.

    The result represents the same projective point with q in canonical
    associate form.  q must be nonzero.
    """
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
    c, u = canonical_associate(q)
    if u is ONE:
        return q, r, p
    return c, u * r, u * p


def _coprime(qa: int, qb: int, ra: int, rb: int, pa: int, pb: int) -> bool:
    """True iff q = qa + qb*i, r and p have no common non-unit factor in Z[i]."""
    a, b = _euclid(qa, qb, ra, rb)
    if a * a + b * b != 1:
        a, b = _euclid(a, b, pa, pb)
    return a * a + b * b == 1


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


def _factor(n: int) -> list[tuple[int, int]]:
    """The prime factorization of n >= 1 as (p, e) pairs, by trial division."""
    out, p = [], 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n, e = n // p, e + 1
        if e:
            out.append((p, e))
        p += 1 if p == 2 else 2
    return out + [(n, 1)] if n > 1 else out


def r2_count(n: int) -> int:
    """Number of ways to write n = a^2 + b^2 counting signs and order.

    Computed from the factorization: zero if some prime = 3 mod 4 occurs
    to an odd power, else 4 * prod(e_p + 1) over primes p = 1 mod 4.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    factors = _factor(n)
    if any(p % 4 == 3 and e % 2 == 1 for p, e in factors):
        return 0
    return 4 * math.prod(e + 1 for p, e in factors if p % 4 == 1)


def _prime_tests(q: GaussInt, factors: list[tuple[int, int]]) -> list[tuple]:
    """The Gaussian primes of q, from the factorization of |q|^2, as (p, s):
    each divides re + im*i iff re + s*im = 0 mod p; 1+i is (2, 1), a split
    prime has s^2 = -1 mod p, and an inert p is (p, None): p | re and p | im.
    """
    a, b = q.re, q.im
    tests = []
    for p, _ in factors:
        if p == 2 or p % 4 == 3:
            tests.append((p, 1 if p == 2 else None))
        elif a % p or b % p:  # one prime over p divides q
            tests.append((p, -a * pow(b, -1, p) % p))
        else:  # both do; s = c^((p-1)/4) for the least non-residue c
            c = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) == p - 1)
            s = pow(c, (p - 1) // 4, p)
            tests += [(p, s), (p, p - s)]
    return tests


def _dividing(tests: list[tuple], re: int, im: int) -> list[tuple]:
    """The primes of tests (see _prime_tests) that divide re + im*i."""
    return [(p, s) for p, s in tests
            if (re % p == 0 == im % p if s is None else (re + s * im) % p == 0)]


# ---------------------------------------------------------------------------
# Gaussian rationals


def _rat(a: int, b: int, d: int) -> "GaussRat":
    """(a + b*i)/d in lowest terms; d must be positive."""
    g = math.gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    return GaussRat(a, b, d)


@dataclass(frozen=True, slots=True, init=False)
class GaussRat:
    """A Gaussian rational (a + b*i)/d over a positive integer denominator.

    gcd(a, b, d) = 1 and d > 0, so the form is unique: equal values have
    equal fields, and arithmetic reduces with one integer gcd.  The
    constructor takes that form as given; make() and from_fractions() build
    it from anything else.  num and den, the Gaussian lowest terms with den
    the canonical associate, are derived on demand.  Slotted and frozen
    like GaussInt, with the same descriptor-storing __init__.
    """

    a: int
    b: int
    d: int

    def __init__(self, a: int, b: int, d: int = 1) -> None:
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)

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
        den, num, _ = reduce_triple(
            GaussInt(self.d), GaussInt(self.a, self.b), GaussInt()
        )
        return num, den

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

    def __abs__(self) -> float:
        """|x| as a float: the root of |x|^2 rounded once, with no Fraction."""
        return ((self.a * self.a + self.b * self.b) / (self.d * self.d)) ** 0.5

    def __complex__(self) -> complex:
        return complex(self.a / self.d, self.b / self.d)

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


_set_a = GaussRat.__dict__["a"].__set__
_set_b = GaussRat.__dict__["b"].__set__
_set_d = GaussRat.__dict__["d"].__set__

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
    if not m:
        raise ParseError(f"bad term {tok!r}")
    sign, a, b, i, c = m.group("sign", "a", "b", "i", "c")
    if (a is None and (i is None or b is not None)) or (c is not None and i is None):
        raise ParseError(f"bad term {tok!r}")
    val = Fraction(a) if a is not None else Fraction(1)
    for den in filter(None, (b, c)):
        if not Fraction(den):
            raise ParseError(f"zero denominator in {tok!r}")
        val /= Fraction(den)
    return (-val if sign == "-" else val), i is not None


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


def _unparenthesize(part: str) -> str:
    """part without one enclosing pair of parentheses, which it may omit."""
    if part.startswith("(") and part.endswith(")"):
        part = part[1:-1]
    if "(" in part or ")" in part:
        raise ParseError(f"bad quotient part {part!r}")
    return part


def parse_gauss_rat(s: str) -> GaussRat:
    """Parse a complex rational: term sums (`1+4/5i`) or `num/den` with
    parenthesized Gaussian-integer parts (`(1+i)/(2-i)`)."""
    s = s.strip().replace(" ", "")
    if "(" in s:  # only the quotient form has parentheses
        left, slash, right = s.partition("/")
        if not slash:
            raise ParseError(f"bad complex literal {s!r}")
        den = parse_gauss_int(_unparenthesize(right))
        if den.is_zero():
            raise ParseError(f"zero denominator in {s!r}")
        return GaussRat.make(parse_gauss_int(_unparenthesize(left)), den)
    return GaussRat.from_fractions(*_parse_complex_terms(s))
