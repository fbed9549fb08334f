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
    total = 0
    g = 1
    while g * g <= m:
        if m % (g * g) == 0:
            total += g * r2_count(m // (g * g))
        g += 1
    return total


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
    phi4 = phi(m, C, eps) ** 4
    term = phi4 * m * divisor_g_r2(m)
    root = math.isqrt(m)
    if root * root == m:
        term += phi4 * r2_count(m) * m**1.5
    return term


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

    The tail bound uses r2(n) <= 8 sqrt(n) and integral comparison; it is
    finite for eps > 1/4 and reported as infinity otherwise.
    """
    if M < 1:
        raise ValueError("M must be >= 1")
    partial = 0.0
    for m in range(1, M + 1):
        partial += khinchin_terms(m, C, eps)
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
