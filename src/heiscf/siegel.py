"""The Heisenberg group in the planar and projective Siegel models.

Points live on the surface |u|^2 = 2 Re(v) in C^2.  Two numeric backends
are supported: exact Gaussian-rational coordinates (rational points,
exact identities) and arbitrary-precision big floats with an explicit
precision context (everything else).  Both coordinate types offer
+ - * /, conjugate() and truth as "nonzero", so each operation is written
once: inside SiegelPoint.work(), with integers brought in by
SiegelPoint.lift() and magnitudes taken by abs_sq().  Every big-float
tolerance is PrecisionContext.tol_sign, decided on exact squares of the
dyadic coordinates, with no root taken and nothing rounded.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Optional, Union

from mpmath import mp, mpc, mpf
from mpmath.libmp import (
    ComplexResult,
    fone,
    from_int,
    from_man_exp,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_cmp,
    mpf_div,
    mpf_mul,
    mpf_neg,
    mpf_shift,
    mpf_sub,
    prec_to_dps,
    round_down,
    round_nearest,
)

from .errors import (
    BackendMismatch,
    InversionAtOrigin,
    ParseError,
    PointAtInfinity,
)
from .gaussian import (
    GaussInt,
    GaussRat,
    RAT_ZERO,
    _rat,
    format_gauss_int,
    parse_gauss_rat,
    reduce_triple,
)

__all__ = [
    "PrecisionContext",
    "SiegelPoint",
    "IntegerPoint",
    "ProjIntPoint",
    "from_heis",
    "to_heis",
    "abs_sq",
    "abs_sq_exact",
    "group_mul",
    "group_inv",
    "koranyi_inversion",
    "distance",
    "distance_pow4",
    "linear_form_terms",
    "triple_distance_pow4",
    "triple_to_planar",
    "exact_triple",
    "parse_planar_point",
    "parse_heis_point",
]


@dataclass(frozen=True)
class PrecisionContext:
    """Working precision for the big-float backend.

    All operations within one computation share it; work() is free inside
    its own work(), and tol_sign is the one tolerance rule of certificates.
    """

    bits: int = 256

    def __post_init__(self):
        if self.bits < 64:
            raise ValueError("bits must be >= 64")

    def work(self):
        return nullcontext() if mp.prec == self.bits else mp.workprec(self.bits)

    @cached_property  # not a field: equality and hash see bits only
    def check_scale(self) -> mpf:
        with mp.workprec(self.bits):
            return mpf(2) ** (-self.bits / 2)

    @cached_property  # (k check_scale)^2 by k, exact, each formed at its first use
    def _bound_sq(self) -> dict:
        return {}

    def tol_sign(self, x_sq: tuple, k: int, scale: tuple = ()) -> int:
        """The sign of x^2 - (k check_scale)^2 max(1, s^2), exactly, for a raw
        unrounded x_sq = x^2 and s the largest |y| of the mpcs or mpfs in scale
        (0 if none): |x| <= k check_scale max(1, |s|) is the rule.  scale is
        read only when x^2 >= (k check_scale)^2, below which the sign is known."""
        if (bound_sq := self._bound_sq.get(k)) is None:
            s = self.check_scale._mpf_
            bound_sq = self._bound_sq[k] = mpf_mul(from_int(k * k), mpf_mul(s, s))
        sign = mpf_cmp(x_sq, bound_sq)
        if sign < 0 or not scale:
            return sign
        s_sq = _max_sq(scale)
        return sign if mpf_cmp(s_sq, fone) <= 0 else mpf_cmp(x_sq, mpf_mul(bound_sq, s_sq))


def _lift(g: GaussInt, ctx: Optional[PrecisionContext]) -> Union[GaussRat, mpc]:
    """g in ctx's backend; an mpc is rounded to the working precision as
    mpc(g.re, g.im) would round it, without mpmath's argument conversion."""
    if ctx is None:
        return GaussRat.from_int(g)
    prec = mp.prec
    return mp.make_mpc((from_int(g.re, prec, round_nearest), from_int(g.im, prec, round_nearest)))


def _quotient(re: int, im: int, n: int) -> mpc:
    """(re + im i) / n with each part rounded once to the working precision."""
    prec, d = mp.prec, from_int(n)
    return mp.make_mpc((
        mpf_div(from_int(re), d, prec, round_nearest),
        mpf_div(from_int(im), d, prec, round_nearest),
    ))


def _rat_quotient(x: GaussRat) -> mpc:
    """x with each part rounded once to the working precision."""
    return _quotient(x.a, x.b, x.d)


@dataclass(frozen=True)
class SiegelPoint:
    """A point (u, v) of the Siegel model.

    Exact backend: GaussRat coordinates with |u|^2 = 2 Re(v) exactly.
    Big-float backend: finite mpc coordinates, with | |u|^2 - 2 Re(v) |
    held to the context's tolerance rule at k = 8, s = |v|.
    """

    u: Union[GaussRat, mpc]
    v: Union[GaussRat, mpc]
    ctx: Optional[PrecisionContext] = None

    def __post_init__(self):
        if self.ctx is None:  # exact: |u|^2 = 2 Re v in integers; big floats: a tolerance
            u, v = self.u, self.v
            if (u.a * u.a + u.b * u.b) * v.d != 2 * v.a * u.d * u.d:
                raise ValueError(
                    f"not on the Siegel surface: |u|^2 != 2 Re v for ({self.u}; {self.v})"
                )
        else:  # a NaN or an infinity has bc < 0 and no place on the surface
            resid = mpf_sub(abs_sq_exact(self.u)._mpf_, mpf_shift(self.v._mpc_[0], 1))
            if (any(x[3] < 0 for x in (*self.u._mpc_, *self.v._mpc_))
                    or self.ctx.tol_sign(mpf_mul(resid, resid), 8, (self.v,)) > 0):
                raise ValueError("Siegel constraint violated beyond tolerance")

    @property
    def exact(self) -> bool:
        return self.ctx is None

    @staticmethod
    def origin(ctx: Optional[PrecisionContext] = None) -> "SiegelPoint":
        if ctx is None:
            return SiegelPoint(RAT_ZERO, RAT_ZERO)
        with ctx.work():
            return SiegelPoint(mpc(0), mpc(0), ctx)

    def is_origin(self) -> bool:
        return not self.u and not self.v

    def work(self):
        """The context this point's arithmetic runs in; none when exact."""
        return nullcontext() if self.ctx is None else self.ctx.work()

    def lift(self, g: GaussInt) -> Union[GaussRat, mpc]:
        """g as a coordinate of this point's backend; call inside work()."""
        return _lift(g, self.ctx)

    @cached_property  # not a field: equality and hash see u, v and ctx only
    def _triple(self) -> tuple[GaussInt, GaussInt, GaussInt]:
        """exact_triple(self), computed once per exact point."""
        return exact_triple(self)

    def to_bigfloat(self, ctx: Optional[PrecisionContext]) -> "SiegelPoint":
        """This point at precision ctx; an exact point stays as it is for None."""
        if self.ctx == ctx:
            return self
        if ctx is None:
            raise BackendMismatch("a big-float point has no exact form")
        to_mpc = _rat_quotient if self.exact else mpc
        with ctx.work():
            return SiegelPoint(to_mpc(self.u), to_mpc(self.v), ctx)

    def __str__(self) -> str:
        if self.exact:
            return f"({self.u}; {self.v})"
        return f"({_fmt_mpc(self.u, self.ctx)}; {_fmt_mpc(self.v, self.ctx)})"


def _fmt_mpc(x: mpc, ctx: PrecisionContext) -> str:
    digits = prec_to_dps(ctx.bits)  # only the digits the bits carry
    re_s = mp.nstr(x.real, digits)
    im = x.imag
    if im == 0:
        return re_s
    with ctx.work():  # abs() rounds to the working precision
        im_s = mp.nstr(abs(im), digits)
    sign = "+" if im >= 0 else "-"
    return f"{re_s}{sign}{im_s}i"


def _check_same_backend(h1: SiegelPoint, h2: SiegelPoint) -> None:
    if h1.exact != h2.exact or (not h1.exact and h1.ctx != h2.ctx):
        raise BackendMismatch("points use different numeric backends")


# ---------------------------------------------------------------------------
# Heis <-> Siegel


_ONE_PLUS_I = GaussRat.from_int(GaussInt(1, 1))


def from_heis(z, t, ctx: Optional[PrecisionContext] = None) -> SiegelPoint:
    """The Heisenberg point (z, t) as (z(1+i), |z|^2 + t i), on the surface by
    construction: exact for a GaussRat z and Fraction t (ctx None), else at ctx."""
    if ctx is None:
        return SiegelPoint(z * _ONE_PLUS_I, GaussRat.from_fractions(z.abs_sq(), t))
    with ctx.work():
        return SiegelPoint(z * mpc(1, 1), mpc(abs(z) ** 2, t), ctx)


def to_heis(h: SiegelPoint) -> tuple:
    """Inverse of from_heis: (z, t) = (u/(1+i), Im v)."""
    if h.exact:
        return h.u / _ONE_PLUS_I, h.v.im()
    with h.ctx.work():
        return h.u / mpc(1, 1), h.v.imag


# ---------------------------------------------------------------------------
# Group operations


def abs_sq(x: Union[GaussRat, mpc]) -> Union[Fraction, mpf]:
    """|x|^2: an exact Fraction for a GaussRat; for an mpc the exact
    re^2 + im^2 rounded once to the working precision."""
    if isinstance(x, GaussRat):
        return x.abs_sq()
    re, im = x._mpc_
    return mp.make_mpf(mpf_add(mpf_mul(re, re), mpf_mul(im, im), mp.prec, round_nearest))


def abs_sq_exact(x: Union[mpc, mpf]) -> mpf:
    """|x|^2 of an mpc or an mpf, unrounded: an mpf to compare, not to compute with."""
    re, im = x._mpc_ if isinstance(x, mpc) else (x._mpf_, fzero)
    (_, m1, e1, _), (_, m2, e2, _) = re, im
    if not (m1 and m2):  # a zero or non-finite part; else one int sum at the lower exponent
        return mp.make_mpf(mpf_add(mpf_mul(re, re), mpf_mul(im, im)))
    e = min(e1, e2)
    return mp.make_mpf(from_man_exp((m1 * m1 << 2 * (e1 - e)) + (m2 * m2 << 2 * (e2 - e)), 2 * e))


def _sqrt(x: tuple, prec: int) -> tuple:
    """mpf_sqrt(x, prec, round_nearest) with math.isqrt for mpmath's sqrtrem: the same
    shift and perturb-up of an inexact root, so the same correctly rounded bits."""
    sign, man, exp, bc = x
    if sign:
        raise ComplexResult("square root of a negative number")
    if not man:
        return x
    if exp & 1:
        exp, man, bc = exp - 1, man << 1, bc + 1
    elif man == 1:  # an even power of 2
        return 0, 1, exp // 2, 1
    shift = max(4, 2 * prec - bc + 4)
    shift += shift & 1
    man <<= shift
    root = math.isqrt(man)
    if root * root != man:  # perturb up
        root, shift = (root << 1) + 1, shift + 2
    return from_man_exp(root, (exp - shift) // 2, prec, round_nearest)


def _hypot(x: tuple, y: tuple, prec: int) -> tuple:
    """mpf_hypot(x, y, prec, round_nearest) on _sqrt: the sum of squares
    truncated at prec + 4 bits (mpmath's round_fast), then one root."""
    if y == fzero:
        return mpf_abs(x, prec, round_nearest)
    if x == fzero:
        return mpf_abs(y, prec, round_nearest)
    return _sqrt(mpf_add(mpf_mul(x, x), mpf_mul(y, y), prec + 4, round_down), prec)


def _max_sq(values) -> tuple:
    """The largest |x|^2 of mpcs or mpfs, a raw mpf, unrounded."""
    return max(map(abs_sq_exact, values))._mpf_


def group_mul(h1: SiegelPoint, h2: SiegelPoint) -> SiegelPoint:
    """Heisenberg product (u1+u2, v1 + conj(u1) u2 + v2)."""
    _check_same_backend(h1, h2)
    with h1.work():
        return SiegelPoint(
            h1.u + h2.u, h1.v + h1.u.conjugate() * h2.u + h2.v, h1.ctx
        )


def group_inv(h: SiegelPoint) -> SiegelPoint:
    """(u, v)^(-1) = (-u, conj(v))."""
    with h.work():
        return SiegelPoint(-h.u, h.v.conjugate(), h.ctx)


def koranyi_inversion(h: SiegelPoint) -> SiegelPoint:
    """iota(u, v) = (-u/v, 1/v); involutive away from v = 0.

    On the big-float backend the real part of 1/v is re-projected onto the
    constraint surface to stop drift across deep orbits.
    """
    if not h.v:
        raise InversionAtOrigin("inversion at origin")
    if h.exact:  # exact: 1/v is on the surface as it stands
        return SiegelPoint(-(h.u / h.v), h.v.inverse())
    # -u/v, abs(u) ** 2 / 2 and Im(1/v) as mpmath's operators round them, over one |v|^2
    prec, rnd, (a, b), (c, d) = h.ctx.bits, round_nearest, h.u._mpc_, h.v._mpc_
    wp = prec + 10
    mag = mpf_add(mpf_mul(c, c), mpf_mul(d, d), wp)
    u = (mpf_neg(mpf_div(mpf_add(mpf_mul(a, c), mpf_mul(b, d), wp), mag, prec, rnd)),
         mpf_neg(mpf_div(mpf_sub(mpf_mul(b, c), mpf_mul(a, d), wp), mag, prec, rnd)))
    r = _hypot(*u, prec)
    re = mpf_shift(mpf_mul(r, r, prec, rnd), -1)  # the halving is exact
    im = mpf_div(mpf_sub(fzero, d, wp), mag, prec, rnd)
    return SiegelPoint(mp.make_mpc(u), mp.make_mpc((re, im)), h.ctx)


def _distance_form(h1: SiegelPoint, h2: SiegelPoint) -> Union[GaussRat, mpc]:
    """conj(v1) - conj(u1) u2 + v2, the v of h1^-1 h2, whose |.|^2 is
    d(h1, h2)^4; call inside h1.work()."""
    return h1.v.conjugate() - h1.u.conjugate() * h2.u + h2.v


def distance_pow4(h1: SiegelPoint, h2: SiegelPoint) -> Union[Fraction, mpf]:
    """d(h1, h2)^4 = |conj(v1) - conj(u1) u2 + v2|^2."""
    _check_same_backend(h1, h2)
    with h1.work():
        return abs_sq(_distance_form(h1, h2))


def linear_form_terms(triple, h: SiegelPoint) -> tuple:
    """The terms of conj(p) - conj(r) u + conj(q) v for an integer triple
    (q, r, p) at h = (u, v) in h's backend; call inside h.work()."""
    q, r, p = map(h.lift, triple)
    return p.conjugate(), r.conjugate() * h.u, q.conjugate() * h.v


def _int_linear_form(triple, h: SiegelPoint) -> tuple[int, int, int]:
    """(a, b, Q) with conj(p) - conj(r) u + conj(q) v = (a + b i) / Q at an
    exact point h, from its triple (Q, R, P): a + b i is
    conj(p) Q - conj(r) R + conj(q) P, in ints."""
    (q, r, p), (Q, R, P) = triple, h._triple
    Q = Q.re
    return (
        p.re * Q - (r.re * R.re + r.im * R.im) + (q.re * P.re + q.im * P.im),
        -p.im * Q - (r.re * R.im - r.im * R.re) + (q.re * P.im - q.im * P.re),
        Q,
    )


def _linear_form(triple, h: SiegelPoint) -> tuple:
    """(q, F, terms) for an integer triple (q, r, p) at h = (u, v): q and
    F = conj(p) - conj(r) u + conj(q) v in h's backend, and a function giving
    F's three terms, as linear_form_terms does; call inside h.work().

    An exact point gives F as _int_linear_form's unreduced (a, b, Q) and
    builds the terms only when asked.  Big floats lift each entry once.
    """
    if h.exact:
        q, _, _ = triple
        return h.lift(q), _int_linear_form(triple, h), lambda: linear_form_terms(triple, h)
    q, r, p = map(h.lift, triple)
    t1, t2, t3 = terms = p.conjugate(), r.conjugate() * h.u, q.conjugate() * h.v
    return q, t1 - t2 + t3, lambda: terms


def triple_distance_pow4(triple, h: SiegelPoint) -> Union[Fraction, mpf]:
    """d((q : r : p), h)^4 = |conj(p) - conj(r) u + conj(q) v|^2 / |q|^2, which
    holds for every nonzero multiple of a triple.  At an exact point
    |a + b i|^2 / (|q|^2 Q^2) in integers."""
    q, _, _ = triple
    if h.exact:
        a, b, Q = _int_linear_form(triple, h)
        return Fraction(a * a + b * b, q.norm() * Q * Q)
    with h.work():
        return abs_sq(_linear_form(triple, h)[1]) / q.norm()


def distance(h1: SiegelPoint, h2: SiegelPoint) -> Union[float, mpf]:
    """Left-invariant gauge distance between two points."""
    with h1.work():  # Fraction ** 0.25 is a float; an mpf's root stays an mpf
        return distance_pow4(h1, h2) ** 0.25


# ---------------------------------------------------------------------------
# Integer and projective points


@dataclass(frozen=True)
class IntegerPoint:
    """A point of S(Z): Gaussian-integer coordinates on the Siegel surface."""

    u: GaussInt
    v: GaussInt

    def __post_init__(self):
        if 2 * self.v.re != self.u.norm():
            raise ValueError(f"({self.u}; {self.v}) is not an integer Siegel point")

    @staticmethod
    def origin() -> "IntegerPoint":
        return IntegerPoint(GaussInt(), GaussInt())

    def is_origin(self) -> bool:
        return self.u.is_zero() and self.v.is_zero()

    def inv(self) -> "IntegerPoint":
        return IntegerPoint(-self.u, self.v.conj())

    def mul(self, other: "IntegerPoint") -> "IntegerPoint":
        return IntegerPoint(
            self.u + other.u, self.v + self.u.conj() * other.u + other.v
        )

    def to_siegel(self, ctx: Optional[PrecisionContext] = None) -> SiegelPoint:
        with nullcontext() if ctx is None else ctx.work():
            return SiegelPoint(_lift(self.u, ctx), _lift(self.v, ctx), ctx)

    def __str__(self) -> str:
        return f"({format_gauss_int(self.u)}; {format_gauss_int(self.v)})"


@dataclass(frozen=True)
class ProjIntPoint:
    """Integer projective triple (q : r : p) in lowest terms, canonical q;
    it iterates as (q, r, p), so it passes wherever a triple does."""

    q: GaussInt
    r: GaussInt
    p: GaussInt

    def __post_init__(self):
        if self.q.is_zero():
            raise PointAtInfinity("point at infinity: q = 0")
        if self.r.norm() != 2 * (self.q.conj() * self.p).re:
            raise ValueError("triple violates the projective Siegel constraint")

    @staticmethod
    def reduced(q: GaussInt, r: GaussInt, p: GaussInt) -> "ProjIntPoint":
        return ProjIntPoint(*reduce_triple(q, r, p))

    def __iter__(self):
        return iter((self.q, self.r, self.p))

    def __str__(self) -> str:
        return (
            f"[{format_gauss_int(self.q)} : {format_gauss_int(self.r)}"
            f" : {format_gauss_int(self.p)}]"
        )


def triple_to_planar(triple, ctx: Optional[PrecisionContext] = None) -> SiegelPoint:
    """(r/q, p/q) for any nonzero multiple of an integer triple (q, r, p).

    Both backends form r conj(q) and p conj(q) over |q|^2 on the int parts.
    Exact (ctx None): each quotient is reduced once.  Big floats: each part
    is rounded once.
    """
    q, r, p = triple
    qa, qb = q.re, q.im
    n = qa * qa + qb * qb
    w = r.re * qa + r.im * qb, r.im * qa - r.re * qb
    z = p.re * qa + p.im * qb, p.im * qa - p.re * qb
    if ctx is None:
        if not n:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return SiegelPoint(_rat(*w, n), _rat(*z, n))
    with ctx.work():
        return SiegelPoint(_quotient(*w, n), _quotient(*z, n), ctx)


def exact_triple(h: SiegelPoint) -> tuple[GaussInt, GaussInt, GaussInt]:
    """The unreduced triple (q, r, p) of an exact point, q = lcm(u.d, v.d)."""
    q = math.lcm(h.u.d, h.v.d)
    r, p = (GaussInt(x.a * (q // x.d), x.b * (q // x.d)) for x in (h.u, h.v))
    return GaussInt(q), r, p


# ---------------------------------------------------------------------------
# Parsing


def _component_point(
    parts: list[str], ctx: Optional[PrecisionContext]
) -> SiegelPoint:
    u, v = (parse_gauss_rat(p) for p in parts)
    if ctx is None:
        return SiegelPoint(u, v)
    with ctx.work():
        return SiegelPoint(_rat_quotient(u), _rat_quotient(v), ctx)


def _split_pair(s: str) -> list[str]:
    body = s.strip()
    if body.startswith("(") and body.endswith(")"):
        body = body[1:-1]
    sep = ";" if ";" in body else ","
    parts = body.split(sep)
    if len(parts) != 2:
        raise ParseError(f"expected two components in {s!r}")
    return parts


def parse_planar_point(
    s: str, ctx: Optional[PrecisionContext] = None
) -> SiegelPoint:
    """Parse `(u; v)` planar form; exact if ctx is None."""
    try:
        return _component_point(_split_pair(s), ctx)
    except ValueError as e:
        raise ParseError(str(e)) from e


def parse_heis_point(s: str, ctx: Optional[PrecisionContext] = None) -> tuple:
    """Parse `heis(z; t)` or bare `z, t` form into (z, t) for from_heis."""
    body = s.strip()
    if body.startswith("heis"):
        body = body[4:]
    z, t = (parse_gauss_rat(p) for p in _split_pair(body))
    if t.b:
        raise ParseError("t component must be real")
    if ctx is None:
        return z, t.re()
    with ctx.work():
        return _rat_quotient(z), _rat_quotient(t).real
