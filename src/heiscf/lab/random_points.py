"""Seeded generators for test fixtures: digit strings and sample points.

Digit strings use only integer points of gauge norm >= 3; any such string
reconstructs to a point whose every forward orbit iterate stays strictly
inside the fundamental domain, so expansion recovers the digits verbatim.
Rational points come from truncating those reconstructions; big-float
points are uniform dyadic samples of the domain's bounding box.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Optional

from mpmath import mpc, mpf

from ..cf import reconstruct
from ..domain import integer_point
from ..siegel import IntegerPoint, PrecisionContext, SiegelPoint, from_heis

__all__ = [
    "DIGIT_V_NORM_MIN",
    "random_digit",
    "random_digit_string",
    "random_rational_point",
    "random_bigfloat_point",
]


DIGIT_V_NORM_MIN = 81  # the least |v|^2 of a digit, so the least |q_n|^2 for n >= 1


def random_digit(rng: random.Random) -> IntegerPoint:
    """A uniform-ish integer point of gauge norm >= 3: |v|^2 >= DIGIT_V_NORM_MIN."""
    while True:
        a = rng.randint(-4, 4)
        b = rng.choice(range(-4 + (a % 2), 5, 2))
        c = rng.randint(-12, 12)
        gamma = integer_point(a, b, c)
        if gamma.v.norm() >= DIGIT_V_NORM_MIN:
            return gamma


def random_digit_string(rng: random.Random, length: int) -> tuple[IntegerPoint, list[IntegerPoint]]:
    """An integer part and a digit string that round-trips exactly."""
    gamma0 = integer_point(rng.randint(-3, 3) * 2, rng.randint(-3, 3) * 2, rng.randint(-9, 9))
    return gamma0, [random_digit(rng) for _ in range(length)]


def random_rational_point(
    rng: random.Random, length: int = 6, q_norm_max: int = 10**12
) -> SiegelPoint:
    """A rational point with a known finite expansion and bounded denominator.

    Built from a random digit string: the reconstruction of its longest
    prefix whose denominator norms are within the bound, or gamma0 itself
    if none is.
    """
    gamma0, digits = random_digit_string(rng, length)
    for k in range(length, -1, -1):
        h = reconstruct(gamma0, digits[:k])
        if h.u.den.norm() <= q_norm_max and h.v.den.norm() <= q_norm_max:
            break
    return h


def random_bigfloat_point(
    rng: random.Random, ctx: Optional[PrecisionContext] = None
) -> SiegelPoint:
    """A uniform dyadic sample from the box containing the fundamental domain.

    Coordinates are dyadic rationals with ctx.bits fractional bits, mapped
    through (z, t) -> (z(1+i), |z|^2 + ti) so the model constraint holds to
    working precision.
    """
    ctx = ctx or PrecisionContext(64)
    scale = 1 << ctx.bits

    def dyadic(bound: float) -> int:
        n = int(Fraction(bound) * scale)
        return rng.randint(-n, n)

    z_re, z_im = dyadic(2.0**-0.25), dyadic(2.0**-0.25)
    t = dyadic(2.0**-0.5)
    with ctx.work():
        z = mpc(mpf(z_re) / scale, mpf(z_im) / scale)
        return from_heis(z, mpf(t) / scale, ctx)
