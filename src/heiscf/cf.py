"""Continued-fraction expansion on the Siegel model.

Implements the Gauss-map orbit, the digit sequence, the continuant
matrices accumulated as products of digit matrices, the convergents, and
the tail convergents.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from mpmath import mp
from mpmath.libmp import from_int, mpc_add, mpc_mul, mpf_neg, round_nearest, to_float

from .domain import DirichletDomain, reduce_into_kd
from .errors import CertificationError, InternalError, InvalidDigitString
from .gaussian import GaussInt, _fold_unit, _rat
from .matrices import IDENTITY, column, mul_digit_matrix, translate
from .siegel import (
    IntegerPoint,
    PrecisionContext,
    ProjIntPoint,
    SiegelPoint,
    _hypot,
    _linear_form,
    abs_sq_exact,
    exact_triple,
    koranyi_inversion,
    triple_to_planar,
)

__all__ = [
    "CFExpansion",
    "gauss_map_step",
    "expand",
    "reconstruct",
    "tail_convergents",
]

_K_D = DirichletDomain()


def _into_kd(h: SiegelPoint) -> tuple[IntegerPoint, SiegelPoint]:
    """[h] and [h]^-1 h for a big-float h.  It forms group_mul's
    (u1 + u2, v1 + conj(u1) u2 + v2) on raw tuples, [h]^-1 = (-u, conj v) lifted as
    _lift lifts it and not surface-checked: a part rounded to bits bits moves by at
    most 2^-bits of itself, so | |u1|^2 - 2 Re v1 | <= (3 2^-bits + 4^-bits) |u|^2
    <= 7 2^-bits |v| (|u|^2 = 2 Re v), far below 8 check_scale max(1, |v1|)."""
    gamma = _K_D.nearest(h)
    prec, rnd, (u, v) = h.ctx.bits, round_nearest, (h.u._mpc_, h.v._mpc_)
    re, im = (from_int(-x, prec, rnd) for x in (gamma.u.re, gamma.u.im))
    v1 = from_int(gamma.v.re, prec, rnd), from_int(-gamma.v.im, prec, rnd)
    v = mpc_add(mpc_add(v1, mpc_mul((re, mpf_neg(im)), u, prec, rnd), prec, rnd), v, prec, rnd)
    return gamma, SiegelPoint(mp.make_mpc(mpc_add((re, im), u, prec, rnd)), mp.make_mpc(v), h.ctx)


def gauss_map_step(h: SiegelPoint) -> tuple[IntegerPoint, SiegelPoint]:
    """One Gauss-map step: digit [iota h] and next iterate [iota h]^-1 * iota h.

    The origin is a fixed point and yields the zero digit.  An exact point
    takes expand's step on its triple: iota (q, r, p) = (p, -r, q).
    """
    if h.is_origin():
        return IntegerPoint.origin(), h
    if h.exact:
        q, r, p = h._triple
        gamma, t = reduce_into_kd((p, -r, q))
        return gamma, triple_to_planar(t)
    return _into_kd(koranyi_inversion(h))


@dataclass
class CFExpansion:
    """Digits, iterates, continuants and convergents of one expansion.

    Cached on first read, in the point's backend: the linear forms of the
    first two continuant columns at h_0, the prefix products v_0...v_k and
    each s_k and its terms, which the identity verifiers share; and the
    |v_i| as floats."""

    point: SiegelPoint
    gamma0: IntegerPoint
    digits: list[IntegerPoint]
    iterates: list[SiegelPoint]  # h_0 .. h_n
    continuants: list[tuple]  # Q_0 .. Q_n, each a tuple of rows
    terminated: bool

    @property
    def ctx(self) -> Optional[PrecisionContext]:
        return self.point.ctx

    @property
    def depth(self) -> int:
        return len(self.digits)

    def _check_index(self, n: int) -> None:
        if not 0 <= n <= self.depth:
            raise IndexError(f"index {n} out of range 0..{self.depth}")

    def first_column(self, n: int) -> tuple[GaussInt, GaussInt, GaussInt]:
        """(q_n, r_n, p_n), unreduced continuant entries (no gamma_0 shift)."""
        self._check_index(n)
        return column(self.continuants[n], 0)

    def second_column(self, n: int) -> tuple[GaussInt, GaussInt, GaussInt]:
        """(q~_n, r~_n, p~_n), the middle continuant column."""
        self._check_index(n)
        return column(self.continuants[n], 1)

    def convergent(self, n: int) -> ProjIntPoint:
        """The nth convergent T_gamma0 Q_n (1:0:0) as a reduced projective
        triple.  T_gamma0 Q_n is in U(2,1; Z[i]), so its first column is
        primitive: only a unit folds."""
        return ProjIntPoint(*_fold_unit(*translate(self.gamma0, self.first_column(n))))

    def convergents(self) -> list[ProjIntPoint]:
        return [self.convergent(n) for n in range(self.depth + 1)]

    @cached_property
    def forms(self) -> list[tuple]:
        """Per Q_k, _linear_form of its first and second column at h_0, each
        (q, F, terms) with every entry lifted once on big floats: the
        verifiers, s_terms and the big-float convergent_distance read them."""
        h0 = self.iterates[0]
        with h0.work():
            return [(_linear_form(column(m, 0), h0), _linear_form(column(m, 1), h0))
                    for m in self.continuants]

    @cached_property
    def v_prefix(self) -> list:
        """v_0 ... v_{k-1} for k = 0..depth+1, multiplied left to right from 1."""
        with self.point.work():
            out = [self.point.lift(GaussInt(1))]
            for h in self.iterates:
                out.append(out[-1] * h.v)
        return out

    @cached_property
    def s_terms(self) -> list[tuple]:
        """(q_k, q~_k u_k, q_{k-1} v_k) for k = 1..depth at index k - 1, the
        terms of s_k = q_k + q~_k u_k - q_{k-1} v_k."""
        f = self.forms
        with self.point.work():
            return [(f[k][0][0], f[k][1][0] * h.u, f[k - 1][0][0] * h.v)
                    for k, h in enumerate(self.iterates[1:], 1)]

    @cached_property
    def s_values(self) -> list:
        """s_k = q_k + q~_k u_k - q_{k-1} v_k for k = 1..depth at index k - 1."""
        if self.ctx:
            with self.point.work():
                return [t1 + t2 - t3 for t1, t2, t3 in self.s_terms]
        out = []  # exact: on ints over u_k.d v_k.d, reduced once
        for m, prev, h in zip(self.continuants[1:], self.continuants, self.iterates[1:]):
            (q, qt, _), qp, u, v, d = m[0], prev[0][0], h.u, h.v, h.u.d * h.v.d
            a = q.re * d + (qt.re * u.a - qt.im * u.b) * v.d - (qp.re * v.a - qp.im * v.b) * u.d
            b = q.im * d + (qt.re * u.b + qt.im * u.a) * v.d - (qp.re * v.b + qp.im * v.a) * u.d
            out.append(_rat(a, b, d))
        return out

    @cached_property
    def v_abs(self) -> list[float]:
        """|v_i| for i = 0..depth as floats, each rounded once."""
        bits = self.ctx and self.ctx.bits
        return [to_float(_hypot(*h.v._mpc_, bits), rnd=round_nearest) if bits else float(abs(h.v))
                for h in self.iterates]

    def as_dict(self) -> dict:
        """The expansion record of fixtures and `heiscf expand` reports."""
        return {
            "point": str(self.point),
            "gamma0": str(self.gamma0),
            "digits": [str(g) for g in self.digits],
            "convergents": [str(c) for c in self.convergents()],
            "terminated": self.terminated,
            "backend": "exact" if self.ctx is None else "bigfloat",
            "bits": None if self.ctx is None else self.ctx.bits,
        }


def expand(h: SiegelPoint, max_depth: Optional[int] = None) -> CFExpansion:
    """Expand h into continued-fraction digits.

    Exact backend: runs to termination (rational points always terminate)
    unless max_depth cuts it short.  The orbit is carried as one integer
    triple (q, r, p); each iterate lies in K_D, so |v|^2 = |p|^2/|q|^2 <= 1/2
    and the next |q|^2 = |p|^2 at least halves.  A step that breaks this
    contraction raises InternalError.  Big-float backend: max_depth digits,
    each certified only by the runner-up gap at working precision (else
    AmbiguousNearestInteger); the input's own error grows with |q_k| and is
    not bounded, so digits past |q_k|^2 ~ 2^bits can be wrong.
    """
    if max_depth is not None and max_depth < 0:
        raise ValueError("max_depth must be >= 0")
    if not h.exact and max_depth is None:
        raise ValueError("max_depth is required on the big-float backend")
    with h.work():  # one precision switch for the whole orbit: work() inside is free
        if h.exact:
            gamma0, t = reduce_into_kd(exact_triple(h))
            h0 = triple_to_planar(t)
        else:
            gamma0, h0 = _into_kd(h)
        e = CFExpansion(
            point=h,
            gamma0=gamma0,
            digits=[],
            iterates=[h0],
            continuants=[IDENTITY],
            terminated=h0.is_origin(),
        )
        while not e.terminated and e.depth != max_depth:
            if h.exact:
                q, r, p = t
                gamma, t = reduce_into_kd((p, -r, q))
                if 2 * t[2].norm() > t[0].norm():
                    raise InternalError("exact Gauss-map step failed to contract |q|")
                nxt = triple_to_planar(t)
                e.terminated = t[2].is_zero()
            else:
                cur = e.iterates[-1]
                # only big floats can lose 1/v to rounding (the rule at k = 4, no scale)
                if cur.ctx.tol_sign(abs_sq_exact(cur.v)._mpf_, 4) < 0:
                    raise CertificationError(
                        "orbit too close to the origin to certify inversion"
                    )
                gamma, nxt = gauss_map_step(cur)
            e.digits.append(gamma)
            e.continuants.append(mul_digit_matrix(e.continuants[-1], gamma))
            e.iterates.append(nxt)
    return e


def _apply_digits(digits: list[IntegerPoint]) -> tuple[GaussInt, GaussInt, GaussInt]:
    """A_gamma1 ... A_gamman (1:0:0), applied right to left on the int parts as
    t <- J T_gamma t = (-(v q + conj(u) r + p), u q + r, -q), gamma = (u, v).  A
    zero q on the way is the v = 0 at which the nested inversion is undefined."""
    qa, qb, ra, rb, pa, pb = 1, 0, 0, 0, 0, 0
    for gamma in reversed(digits):
        (ua, ub), (va, vb) = (gamma.u.re, gamma.u.im), (gamma.v.re, gamma.v.im)
        qa, qb, ra, rb, pa, pb = (
            -(va * qa - vb * qb + ua * ra + ub * rb + pa),
            -(va * qb + vb * qa + ua * rb - ub * ra + pb),
            ua * qa - ub * qb + ra, ua * qb + ub * qa + rb, -qa, -qb,
        )
        if qa == qb == 0:
            raise InvalidDigitString("invalid digit string: intermediate point has v = 0")
    return GaussInt(qa, qb), GaussInt(ra, rb), GaussInt(pa, pb)


def reconstruct(gamma0: IntegerPoint, digits: list[IntegerPoint]) -> SiegelPoint:
    """Exact rational point gamma0 * iota(gamma_1 * iota(... gamma_n)),
    the convergent T_gamma0 A_gamma1 ... A_gamman (1:0:0)."""
    return triple_to_planar(translate(gamma0, _apply_digits(digits)))


def tail_convergents(
    e: CFExpansion, i: int, n: int
) -> tuple[GaussInt, GaussInt, GaussInt]:
    """The triple A_{gamma_{i+1}} ... A_{gamma_n} (1:0:0), unreduced.

    Satisfies q^(i)_n = -p^(i-1)_n and equals the full (q_n, r_n, p_n)
    at i = 0.
    """
    if not 0 <= i <= n <= e.depth:
        raise IndexError(f"need 0 <= i <= n <= {e.depth}, got i={i}, n={n}")
    return _apply_digits(e.digits[i:n])
