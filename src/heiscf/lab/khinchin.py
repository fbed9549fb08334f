"""Convergent-sum side of the measure-zero argument.

Evaluates the two sums bounding the measure of well-approximable points
for phi(m) = C m^(-(1+eps)/2): a perfect-square sum weighted by r2 and a
divisor sum over g^2 | m, together with a rigorous tail bound obtained by
exchanging the order of summation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..gaussian import r2_count

__all__ = [
    "KhinchinSum",
    "phi",
    "divisor_g_r2",
    "khinchin_terms",
    "khinchin_partial_sum",
]


def divisor_g_r2(m: int) -> int:
    """sum over g with g^2 | m of g * r2(m / g^2)."""
    return sum(g * r2_count(m // (g * g))
               for g in range(1, math.isqrt(m) + 1) if m % (g * g) == 0)


def phi(m, C: float, eps: float) -> float:
    """The approximation function phi(m) = C m^(-(1+eps)/2), in floats."""
    return C * m ** (-(1.0 + eps) / 2.0)


def khinchin_terms(m: int, C: float, eps: float) -> float:
    """The m-th term of the combined upper-bound sum.

    Perfect squares contribute phi^4 r2(m) m^(3/2) on top of the divisor
    part phi^4 m sum_{g^2|m} g r2(m/g^2).
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    if C <= 0 or eps <= 0:
        raise ValueError("C and eps must be positive")
    return _term(m, C, eps, divisor_g_r2(m), r2_count)


def _term(m: int, C: float, eps: float, d_sum: int, r2) -> float:
    """khinchin_terms from D(m) = d_sum, calling r2(m) only at a square."""
    phi4 = phi(m, C, eps) ** 4
    term = phi4 * m * d_sum
    root = math.isqrt(m)
    if root * root == m:
        term += phi4 * r2(m) * m**1.5
    return term


def _sieve_r2_d(M: int) -> tuple[list[int], list[int]]:
    """r2(n) = 4 sum_{odd d | n} chi4(d) and D(n) = divisor_g_r2(n), n <= M."""
    r2 = [0] * (M + 1)
    for d in range(1, M + 1, 2):
        chi = 4 if d % 4 == 1 else -4
        for n in range(d, M + 1, d):
            r2[n] += chi
    D = [0] * (M + 1)
    for g in range(1, math.isqrt(M) + 1):
        for k in range(1, M // (g * g) + 1):
            D[k * g * g] += g * r2[k]
    return r2, D


@dataclass
class KhinchinSum:
    C: float
    eps: float
    M: int
    partial: float
    tail_bound: float

    def as_dict(self) -> dict:
        return {
            "C": self.C,
            "eps": self.eps,
            "M": self.M,
            "partial_sum": self.partial,
            "tail_bound": self.tail_bound,
        }


def khinchin_partial_sum(C: float, eps: float, M: int) -> KhinchinSum:
    """Partial sum up to M with a tail bound via the rearranged double sum.

    The terms are khinchin_terms', added in order of m from r2 and D sieved
    once up to M.  The tail bound uses r2(n) <= 8 sqrt(n) and integral
    comparison; it is finite for eps > 1/4 and reported as infinity otherwise.
    """
    if M < 1 or C <= 0 or eps <= 0:
        raise ValueError("M must be >= 1 and C, eps positive")
    r2, D = _sieve_r2_d(M)
    partial = 0.0
    for m in range(1, M + 1):
        partial += _term(m, C, eps, D[m], r2.__getitem__)
    return KhinchinSum(C, eps, M, partial, _tail_bound(C, eps, M))


def _tail_bound(C: float, eps: float, M: int) -> float:
    if eps <= 0.25:
        return math.inf
    c4 = C**4
    # square-m sum: terms at m = l^2 bounded by 8 C^4 l^(-4 eps)
    L = math.isqrt(M)
    tail_sq = 8.0 * c4 * (L ** (1.0 - 4.0 * eps)) / (4.0 * eps - 1.0)
    # divisor sum, rearranged over (g, d) with g^2 d > M:
    # summand <= 8 C^4 g^(-1-4eps) d^(-1/2-2eps)
    a = 2.0 * eps - 0.5
    tail_div = 0.0
    G = math.isqrt(M)
    for g in range(1, G + 1):
        tail_div += 8.0 * c4 * g ** (-1.0 - 4.0 * eps) * ((M / (g * g)) ** (-a)) / a
    # g beyond sqrt(M): full d-sum bounded by 1 + 1/a
    tail_div += 8.0 * c4 * (1.0 + 1.0 / a) * (G ** (-4.0 * eps)) / (4.0 * eps)
    return tail_sq + tail_div
