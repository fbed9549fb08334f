import math
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

import heiscf
from heiscf.domain import RAD_KD, DirichletDomain, integer_point, rk_constant
from heiscf.errors import AmbiguousNearestInteger
from heiscf.gaussian import GaussInt, GaussRat
from heiscf.siegel import (
    PrecisionContext,
    SiegelPoint,
    distance_pow4,
    from_heis,
    group_mul,
)

K = DirichletDomain()


def rational_point(zr, zi, t):
    z = GaussRat.from_fractions(Fraction(zr), Fraction(zi))
    return from_heis(z, Fraction(t))


def random_rational(rng, span=3, den=64):
    return rational_point(
        Fraction(rng.randint(-span * den, span * den), den),
        Fraction(rng.randint(-span * den, span * den), den),
        Fraction(rng.randint(-span * den, span * den), den),
    )


def brute_force_nearest(h):
    """Wide sweep |u_gamma - u| <= 4 oracle for the candidate-set search."""
    best = None
    ur, ui = float(h.u.re()), float(h.u.im())
    vi = h.v.im()
    for a in range(math.floor(ur) - 4, math.ceil(ur) + 5):
        for b in range(math.floor(ui) - 4, math.ceil(ui) + 5):
            if (a + b) % 2 != 0:
                continue
            delta = vi - (a * h.u.im() - b * h.u.re())
            for c in (math.floor(delta), math.ceil(delta)):
                g = integer_point(a, b, c)
                d4 = distance_pow4(g.to_siegel(), h)
                key = (d4, a, b, c)
                if best is None or key < best:
                    best = key
    return integer_point(best[1], best[2], best[3])


class TestRadius:
    def test_value(self):
        assert RAD_KD == 2.0**-0.25
        assert RAD_KD**4 == pytest.approx(0.5, rel=1e-15)

    def test_sampled_sup(self):
        # the sup of the gauge norm over K_D is attained near the boundary;
        # vectorized membership: origin must be the closest lattice point
        import numpy as np

        rng = np.random.default_rng(0)
        n = 2_000_000
        zb, tb = 2.0**-0.25, 2.0**-0.5
        zr = rng.uniform(-zb, zb, n)
        zi = rng.uniform(-zb, zb, n)
        t = rng.uniform(-tb, tb, n)
        keep = zr * zr + zi * zi <= zb * zb
        zr, zi, t = zr[keep], zi[keep], t[keep]
        ur, ui = zr - zi, zr + zi  # u = z (1 + i)
        d4_origin = ((ur * ur + ui * ui) / 2.0) ** 2 + t * t
        inside = np.ones(len(ur), dtype=bool)
        for a in range(-2, 3):
            for b in range(-2, 3):
                if (a + b) % 2 != 0 or (a, b) == (0, 0):
                    continue
                du = (ur - a) ** 2 + (ui - b) ** 2
                delta = t - (a * ui - b * ur)
                c = np.round(delta)
                d4 = (du / 2.0) ** 2 + (delta - c) ** 2
                inside &= d4_origin <= d4
        # nonzero c candidates over u_gamma = 0
        for c0 in (-1.0, 1.0):
            d4 = ((ur * ur + ui * ui) / 2.0) ** 2 + (t - c0) ** 2
            inside &= d4_origin <= d4
        sup = np.sqrt(np.sqrt(d4_origin[inside]).max())
        assert sup <= 2.0**-0.25 + 1e-9
        assert sup >= 2.0**-0.25 - 1e-2


class TestRkConstant:
    def test_empty_product(self):
        assert rk_constant(0.0, 1e-9) == 1.0

    def test_paper_value(self):
        rk = rk_constant(2.0**-0.25, 1e-6)
        assert abs(rk - 6726.7) < 0.5

    def test_product_with_rad(self):
        rad = 2.0**-0.25
        assert abs(rad * rk_constant(rad, 1e-6) - 5656.5) < 0.5

    def test_divergent(self):
        with pytest.raises(ValueError):
            rk_constant(1.0, 1e-6)

    def test_tolerance(self):
        a = rk_constant(0.5, 1e-3)
        b = rk_constant(0.5, 1e-10)
        assert abs(a - b) < 1e-3


class TestNearestExamples:
    def test_near_origin(self):
        h = rational_point(Fraction(0), Fraction(0), Fraction(-1, 5))
        g = K.nearest(h)
        assert g.u.is_zero() and g.v.is_zero()

    def test_translate(self):
        h = from_heis(GaussRat.from_fractions(Fraction(0), Fraction(0)), Fraction(-1, 5))
        gamma = integer_point(1, 1, 1)
        moved = group_mul(gamma.to_siegel(), h)
        g = K.nearest(moved)
        assert g.u == GaussInt(1, 1) and g.v == GaussInt(1, 1)

    def test_integer_point_fixed(self):
        gamma = integer_point(3, 1, -2)
        assert K.nearest(gamma.to_siegel()) == gamma

    def test_contains_origin(self):
        assert K.nearest(SiegelPoint.origin()).is_origin()


class TestNearestProperties:
    def test_against_brute_force(self):
        rng = random.Random(1)
        for _ in range(300):
            h = random_rational(rng)
            assert K.nearest(h) == brute_force_nearest(h)

    def test_left_invariance(self):
        rng = random.Random(2)
        for _ in range(100):
            h = random_rational(rng, span=1)
            gamma = integer_point(
                2 * rng.randint(-2, 2), 2 * rng.randint(-2, 2), rng.randint(-4, 4)
            )
            lhs = K.nearest(group_mul(gamma.to_siegel(), h))
            rhs = gamma.mul(K.nearest(h))
            assert lhs == rhs

    def test_tiling(self):
        # h always lies in nearest(h) * K_D, and in no other translate
        rng = random.Random(3)
        for _ in range(100):
            h = random_rational(rng)
            g = K.nearest(h)
            w = group_mul(g.inv().to_siegel(), h)
            assert K.nearest(w).is_origin()
            for _ in range(5):
                other = integer_point(
                    2 * rng.randint(-2, 2), 2 * rng.randint(-2, 2), rng.randint(-4, 4)
                )
                if other == g:
                    continue
                w2 = group_mul(other.inv().to_siegel(), h)
                # membership means being at least as close as every candidate
                assert distance_pow4(SiegelPoint.origin(), w2) >= distance_pow4(
                    SiegelPoint.origin(), w
                )

    def test_minimizer_distance_within_radius(self):
        rng = random.Random(4)
        for _ in range(200):
            h = random_rational(rng)
            g = K.nearest(h)
            assert distance_pow4(g.to_siegel(), h) <= Fraction(1, 2)


class TestBigfloatNearest:
    def test_matches_exact(self):
        rng = random.Random(5)
        ctx = PrecisionContext(128)
        for _ in range(100):
            h = random_rational(rng)
            hb = h.to_bigfloat(ctx)
            assert K.nearest(hb) == K.nearest(h)

    def test_certified_tie_raises(self):
        # the midpoint between two lattice translates in the c direction is
        # an exact tie; certification can never separate the candidates
        ctx = PrecisionContext(64)
        h = rational_point(Fraction(0), Fraction(0), Fraction(1, 2))
        with pytest.raises(AmbiguousNearestInteger):
            K.nearest(h.to_bigfloat(ctx))

    def test_exact_tie_break_deterministic(self):
        # same point on the exact backend resolves by the lexicographic rule
        h = rational_point(Fraction(0), Fraction(0), Fraction(1, 2))
        g = K.nearest(h)
        assert g == integer_point(0, 0, 0)


def test_only_domain_ranks_candidates():
    # coordinates become digits in one module: every other one goes
    # through reduce_into_kd, DirichletDomain.nearest or nearest_float
    pkg = Path(heiscf.__file__).parent
    naming = sorted(
        str(f.relative_to(pkg)) for f in pkg.rglob("*.py")
        if "_ranked_candidates" in f.read_text()
    )
    assert naming == ["domain.py"]


def test_only_matrices_builds_translation_matrices():
    # T_gamma acts on a triple in closed form (matrices.translate, or on ints
    # in the exact kernels); the matrices themselves are built in matrices.py alone
    pkg = Path(heiscf.__file__).parent
    calling = sorted(
        str(f.relative_to(pkg)) for f in pkg.rglob("*.py")
        if re.search(r"\b(translation_matrix|digit_matrix)\(", f.read_text())
    )
    assert calling == ["matrices.py"]
