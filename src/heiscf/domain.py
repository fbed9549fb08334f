"""The Dirichlet fundamental domain K_D and its nearest-integer map.

K_D is the set of points whose nearest integer point is the origin; its
radius is 2^(-1/4).  Only this module ranks the integer points near h,
in one exact candidate search over integers with a common denominator.
Integer triples enter it through reduce_into_kd; big floats and machine
floats (nearest_float) enter as dyadic integers over one power of two.
"""

from __future__ import annotations

from mpmath import mp, mpf
from mpmath.libmp import from_float, from_man_exp, mpf_mul

from .errors import AmbiguousNearestInteger
from .gaussian import GaussInt
from .siegel import IntegerPoint, SiegelPoint, exact_triple

__all__ = [
    "RAD_KD",
    "DirichletDomain",
    "integer_point",
    "nearest_float",
    "reduce_into_kd",
    "rk_constant",
]

RAD_KD = 2.0**-0.25  # the radius of K_D


def integer_point(a: int, b: int, c: int) -> IntegerPoint:
    """The integer Siegel point with u = a+bi (a = b mod 2) and Im(v) = c."""
    if (a + b) % 2 != 0:
        raise ValueError("a and b must have equal parity")
    return IntegerPoint(GaussInt(a, b), GaussInt((a * a + b * b) // 2, c))


def _ranked_candidates(ure, uim, vim, den) -> list[tuple]:
    """Integer points (key, a, b, c) near u = (ure + uim i)/den, Im v = vim/den,
    closest first.

    key = 4 den^4 d(gamma, h)^4 for gamma = (a+bi; (a^2+b^2)/2 + ci); ties
    break toward the lexicographically smallest (a, b, c).  Any minimizer has
    d4 <= rad^4 = 1/2, forcing |u - u_gamma|^2 <= sqrt(2); candidates keep
    |u - u_gamma|^2 <= 8/5 and take c from the one or two integers nearest
    Im(v - conj(u_gamma) u).
    """
    # u_gamma = s(1+i) + t(1-i) with integers s, t, and |u - u_gamma|^2 =
    # 2(|x - s|^2 + |y - t|^2) for x = (Re u + Im u)/2, y = (Re u - Im u)/2:
    # within 8/5, s and t are among the two integers nearest x and y.
    s0, t0 = (ure + uim) // (2 * den), (ure - uim) // (2 * den)
    den_sq = den * den
    ranked = []
    for s in (s0, s0 + 1):
        for t in (t0, t0 + 1):
            a, b = s + t, s - t
            du_sq = (ure - a * den) ** 2 + (uim - b * den) ** 2  # den^2 |u - u_gamma|^2
            if 5 * du_sq > 8 * den_sq:
                continue
            delta = vim - (a * uim - b * ure)  # den Im(v - conj(u_gamma) u)
            c0 = delta // den
            for c in (c0,) if delta == c0 * den else (c0, c0 + 1):
                ranked.append((du_sq**2 + 4 * den_sq * (delta - c * den) ** 2, a, b, c))
    ranked.sort()
    return ranked


def reduce_into_kd(t):
    """[x] and the triple T_{[x]^-1} t for the point x = (r/q, p/q) of an
    integer triple t = (q, r, p), q != 0, ranked over the denominator |q|^2:
    u = r conj(q) / |q|^2 and Im v = Im(p conj(q)) / |q|^2.  With [x] = (u; v),
    the triple is (q, r - u q, conj(v) q - conj(u) r + p), on the int parts."""
    q, r, p = t
    qa, qb, ra, rb, pa, pb = q.re, q.im, r.re, r.im, p.re, p.im
    n = qa * qa + qb * qb
    _, a, b, c = _ranked_candidates(ra * qa + rb * qb, rb * qa - ra * qb, pb * qa - pa * qb, n)[0]
    gamma = integer_point(a, b, c)
    e = gamma.v.re  # v = e + ci
    return gamma, (q, GaussInt(ra - a * qa + b * qb, rb - a * qb - b * qa),
                   GaussInt(e * qa + c * qb - a * ra - b * rb + pa,
                            e * qb - c * qa - a * rb + b * ra + pb))


def nearest_float(u: complex, v: complex) -> tuple[int, int, int]:
    """The nearest integer point (a, b, c) of machine-float coordinates,
    ranked exactly as the rational point with the same u and Im v."""
    (ure, uim, vim), k = _dyadic(from_float(u.real), from_float(u.imag), from_float(v.imag))
    _, a, b, c = _ranked_candidates(ure, uim, vim, 1 << k)[0]
    return a, b, c


def _dyadic(*xs: tuple) -> tuple[list[int], int]:
    """Integers n_i and k >= 0 with x_i = n_i / 2^k for finite raw mpfs x_i."""
    k = max([0] + [-exp for _, man, exp, _ in xs if man])
    out = []
    for sign, man, exp, bc in xs:
        if bc < 0:
            raise ValueError("coordinate is not a finite number")
        out.append((-man if sign else man) << (exp + k))
    return out, k


class DirichletDomain:
    """The Dirichlet fundamental domain K_D with certified nearest map.

    Ties on the boundary break toward the lexicographically smallest
    (Re u, Im u, Im v) candidate.  On the big-float backend the runner-up
    must trail the best candidate by the tolerance rule at k = 4, s = |v|
    (PrecisionContext.tol_sign), else AmbiguousNearestInteger is raised;
    ranking and gap are exact, over one power-of-two denominator.  This
    certifies the digit of h as given, at working precision, not of the
    point h approximates: an error already in h is not accounted for.
    """

    def nearest(self, h: SiegelPoint) -> IntegerPoint:
        if h.exact:
            return reduce_into_kd(exact_triple(h))[0]
        (ure, uim, vim), k = _dyadic(*h.u._mpc_, h.v._mpc_[1])
        ranked = _ranked_candidates(ure, uim, vim, 1 << k)
        # the keys are 4 den^4 d4: the runner-up gap is compared at k = 4,
        # squared once its trailing zeros are shifted off in one step
        if len(ranked) > 1:
            d = ranked[1][0] - ranked[0][0]
            t = max(0, (d & -d).bit_length() - 1)
            gap = from_man_exp(d >> t, t - 4 * k)
            if h.ctx.tol_sign(mpf_mul(gap, gap), 4, (h.v,)) < 0:
                raise AmbiguousNearestInteger(
                    "nearest integer ambiguous at working precision"
                )
        _, a, b, c = ranked[0]
        return integer_point(a, b, c)


def rk_constant(rad: float, tol: float = 1e-9) -> float:
    """The infinite product prod_{n>=1} (1 + rad^n)^2 within tol.

    Truncated when the remaining factor, bounded by
    exp(2 rad^(N+1) / (1 - rad)), contributes less than tol.
    """
    if rad < 0:
        raise ValueError("rad must be non-negative")
    if rad >= 1:
        raise ValueError("divergent product: rad >= 1")
    if tol <= 0:
        raise ValueError("tol must be positive")
    if rad == 0:
        return 1.0
    with mp.workprec(96):
        r = mpf(rad)
        prod = mpf(1)
        rn = mpf(1)
        n = 0
        while True:
            n += 1
            rn *= r
            prod *= (1 + rn) ** 2
            tail = mp.exp(2 * rn * r / (1 - r)) - 1
            if prod * tail < tol:
                return float(prod)
            if n > 100000:
                raise RuntimeError("rk_constant failed to converge")
