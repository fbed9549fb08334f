"""Enumeration of rational points of the Siegel model.

Two routes are kept deliberately separate: a structured enumeration that
solves |r|^2 = 2(ac + bd) for the p coordinate on the line basis of _line,
and a naive triple loop, which solves no line, used as its oracle.  Both
count points (q : r : p) with |q|^2 = m whose planar coordinates lie in a box
region.  In lowest terms the structured route tests the Gaussian primes of q
by integer congruences; the oracle folds each triple (gaussian._fold) and runs
Gaussian Euclid once per distinct folded triple.  Both carry (re, im) int pairs
and sort the flat keys (q.re, q.im, r.re, r.im, p.re, p.im), which order as
gaussian._trip_key does; a GaussInt triple is built only for a point returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ..gaussian import GaussInt, _coprime, _dividing, _factor, _fold, _prime_tests, _triple

__all__ = [
    "Region",
    "RationalEnumeration",
    "kprime_region",
    "enumerate_rationals_qnorm",
    "enumerate_rationals_naive",
    "qnorm_representations",
    "solve_p_line",
]


@dataclass(frozen=True)
class Region:
    """Origin-centered box |u|^2 <= u_sq, |v|^2 <= v_sq (exact bounds)."""

    u_sq: Fraction
    v_sq: Fraction


def kprime_region(delta: float = 0.0) -> Region:
    """A box containing every point within gauge distance delta of K_D.

    K_D satisfies |u| <= 2^(1/4), |v| <= 2^(-1/2); translating by a group
    element of norm <= delta moves u by at most sqrt(2) delta and v by at
    most 2^(1/4) sqrt(2) delta + delta^2.
    """
    u_bound = 2**0.25 + math.sqrt(2) * delta
    v_bound = 2**-0.5 + 2**0.25 * math.sqrt(2) * delta + delta * delta
    pad = Fraction(1, 1000)
    return Region(
        Fraction(u_bound * u_bound).limit_denominator(10**6) + pad,
        Fraction(v_bound * v_bound).limit_denominator(10**6) + pad,
    )


@dataclass
class RationalEnumeration:
    points: list[tuple[GaussInt, GaussInt, GaussInt]]

    @property
    def count(self) -> int:
        return len(self.points)


def qnorm_representations(m: int) -> list[GaussInt]:
    """All Gaussian integers q with |q|^2 = m."""
    out = []
    for a in range(-math.isqrt(m), math.isqrt(m) + 1):
        b = math.isqrt(m - a * a)
        if b * b == m - a * a:
            out += [GaussInt(a, b), GaussInt(a, -b)] if b else [GaussInt(a, 0)]
    return out


def solve_p_line(
    a: int, b: int, s: int, p_norm_max: int
) -> list[tuple[int, int]]:
    """Integer solutions (c, d) of a c + b d = s with c^2 + d^2 <= p_norm_max.

    With g = gcd(a, b), solutions exist when g | s and form the line
    c = c0 - (b/g) t, d = d0 + (a/g) t; only the segment meeting the disk is
    walked, in increasing t.
    """
    return _p_line(a, b, p_norm_max)(s)


def _line(qa: int, qb: int) -> tuple[int, int, int, int, int]:
    """(g, a, b, x, y): g = gcd(qa, qb), (a, b) = (qa, qb) / g and a x + b y = 1,
    so the integer points of qa c + qb d = s are s/g (x, y) + t (-b, a) when g | s."""
    g = math.gcd(qa, qb)
    if g == 0:
        raise ValueError("q must be nonzero")
    a, b = qa // g, qb // g
    if b == 0:  # a = +-1
        return g, a, b, a, 0
    x = pow(a, -1, abs(b))
    return g, a, b, x, (1 - a * x) // b


def _p_line(qa: int, qb: int, p_norm_max: int):
    """solve_p_line for one q = qa+qb i and disk, as a function of s alone.

    The basis of _line and the step are computed once.  With s divided by
    g, the base point (c0, d0) = s (x, y) and w = step t + (a d0 - b c0),
    step |(c, d)|^2 = w^2 + s^2, so the disk is |w| <= isqrt(step p_norm_max
    - s^2): the t range is exact and every point on it is a solution.
    """
    g, a, b, x, y = _line(qa, qb)
    step, k = a * a + b * b, a * y - b * x

    def solve(s: int) -> list[tuple[int, int]]:
        s, rest = divmod(s, g)
        disc = step * p_norm_max - s * s
        if rest or disc < 0:
            return []
        c0, d0, w0, w = s * x, s * y, s * k, math.isqrt(disc)
        return [(c0 - b * t, d0 + a * t)
                for t in range(-((w + w0) // step), (w - w0) // step + 1)]

    return solve


def enumerate_rationals_qnorm(
    m: int, region: Region, lowest_terms: bool = True
) -> RationalEnumeration:
    """Structured enumeration of triples (q : r : p), |q|^2 = m, in the region.

    For each canonical q = a+bi (a > 0, b >= 0; its associates give only unit
    multiples) and each admissible r, the p coordinate is read off the line
    a c + b d = |r|^2 / 2 intersected with the |p| disk.  In lowest terms m is
    factored once, each Gaussian prime of q is a congruence (_prime_tests),
    r is tested once and p only against the primes dividing r: no gcd.
    """
    return RationalEnumeration(list(map(_triple, sorted(_qnorm_keys(m, region, lowest_terms)))))


def _qnorm_keys(m: int, region: Region, lowest_terms: bool) -> list[tuple]:
    """The flat keys of enumerate_rationals_qnorm's points, unsorted."""
    if m < 1:
        raise ValueError("m must be >= 1")
    r_norm_max = math.floor(m * region.u_sq)
    p_norm_max = math.floor(m * region.v_sq)
    factors = _factor(m) if lowest_terms else []
    keys = []
    for q in qnorm_representations(m):
        a, b = q.re, q.im
        if a <= 0 or b < 0:
            continue
        tests = _prime_tests(q, factors)
        solve = _p_line(a, b, p_norm_max)
        for ra, rb in _disk(r_norm_max):
            if (ra ^ rb) & 1:  # |r|^2 is odd
                continue
            r_tests = tests and _dividing(tests, ra, rb)
            for c, d in solve((ra * ra + rb * rb) // 2):
                if not r_tests or not _dividing(r_tests, c, d):
                    keys.append((a, b, ra, rb, c, d))
    return keys


def enumerate_rationals_naive(
    m: int, region: Region, lowest_terms: bool = True
) -> RationalEnumeration:
    """Naive oracle: every (q, p) pair joined to the r with |r|^2 = 2 Re(conj(q) p).

    The r disk is grouped by norm once; no line is solved, so this stays
    independent of solve_p_line.  Every associate of q is walked and folded
    (_fold); lowest terms are Gaussian Euclid on int pairs (_coprime), once
    per distinct folded triple.  A GaussInt triple is built only for a point returned.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    r_norm_max = math.floor(m * region.u_sq)
    p_norm_max = math.floor(m * region.v_sq)
    rs_by_norm: dict[int, list[tuple[int, int]]] = {}
    for ra, rb in _disk(r_norm_max):
        rs_by_norm.setdefault(ra * ra + rb * rb, []).append((ra, rb))
    ps = list(_disk(p_norm_max))
    found = {}  # folded key -> whether it is kept
    for q in qnorm_representations(m):
        a, b = q.re, q.im
        for pa, pb in ps:
            for ra, rb in rs_by_norm.get(2 * (a * pa + b * pb), ()):
                key = _fold((a, b, ra, rb, pa, pb))
                if key not in found:
                    found[key] = not lowest_terms or _coprime(*key)
    return RationalEnumeration([_triple(key) for key in sorted(found) if found[key]])


def _disk(norm_max: int):
    """Every (re, im) with re^2 + im^2 <= norm_max, in increasing order."""
    amax = math.isqrt(norm_max) if norm_max >= 0 else -1
    for a in range(-amax, amax + 1):
        bmax = math.isqrt(norm_max - a * a)
        for b in range(-bmax, bmax + 1):
            yield a, b
