import json
import random

import pytest

from heiscf.cf import (
    expand,
    expansion_to_json,
    gauss_map_step,
    reconstruct,
    tail_convergents,
)
from heiscf.domain import DirichletDomain, integer_point
from heiscf.errors import InvalidDigitString
from heiscf.lab.random_points import (
    random_digit_string,
    random_rational_point,
)
from heiscf.matrices import u21_check
from heiscf.siegel import (
    PrecisionContext,
    SiegelPoint,
    distance,
    group_mul,
    koranyi_inversion,
    parse_planar_point,
    proj_to_planar,
)

K = DirichletDomain()


class TestGaussMapStep:
    def test_origin_fixed(self):
        gamma, nxt = gauss_map_step(SiegelPoint.origin())
        assert gamma.u.is_zero() and gamma.v.is_zero()
        assert nxt.is_origin()

    def test_step_structure(self):
        h = parse_planar_point("(1/2; 1/8+1/3i)")
        gamma, nxt = gauss_map_step(h)
        # h' = gamma^{-1} * iota(h) and gamma = [iota h]
        ih = koranyi_inversion(h)
        assert K.nearest(ih) == gamma
        assert group_mul(gamma.inv().to_siegel(), ih) == nxt
        assert K.contains(nxt)


class TestExpandFixture:
    def test_spec_fixture(self):
        e = expand(parse_planar_point("(1+i; 1+4/5i)"))
        assert str(e.gamma0) == "(1+i; 1+i)"
        assert [str(g) for g in e.digits] == ["(0; 5i)"]
        assert e.terminated and not e.max_depth_hit
        assert [str(c) for c in e.convergents()] == [
            "[1 : 1+i : 1+i]",
            "[5 : 5+5i : 5+4i]",
        ]

    def test_origin(self):
        e = expand(SiegelPoint.origin())
        assert e.depth == 0 and e.terminated

    def test_final_convergent_equals_point(self):
        e = expand(parse_planar_point("(1+i; 1+4/5i)"))
        assert proj_to_planar(e.convergent(e.depth)) == e.point

    def test_max_depth(self):
        rng = random.Random(0)
        h = random_rational_point(rng, length=6)
        e = expand(h, max_depth=2)
        assert e.depth == 2 and e.max_depth_hit and not e.terminated


class TestContinuants:
    def test_unimodular(self):
        rng = random.Random(1)
        h = random_rational_point(rng, length=5)
        e = expand(h)
        for m in e.continuants:
            assert u21_check(m)

    def test_third_column_shift(self):
        rng = random.Random(2)
        h = random_rational_point(rng, length=5)
        e = expand(h)
        for n in range(1, e.depth + 1):
            q, r, p = e.first_column(n - 1)
            mq, mr, mp = e.third_column(n)
            assert (-mq, -mr, -mp) == (q, r, p)

    def test_convergents_approach_point(self):
        rng = random.Random(3)
        h = random_rational_point(rng, length=6)
        e = expand(h)
        h0 = e.iterates[0]
        dists = [
            distance(proj_to_planar(e.convergent(n)), e.point)
            for n in range(e.depth + 1)
        ]
        # strictly decreasing to exactly zero at the end
        assert dists[-1] == 0
        assert all(b < a for a, b in zip(dists, dists[1:]))


class TestRoundTrip:
    @pytest.mark.parametrize("seed", range(5))
    def test_digit_round_trip(self, seed):
        rng = random.Random(seed)
        g0, digits = random_digit_string(rng, 8)
        h = reconstruct(g0, digits)
        e = expand(h)
        assert e.gamma0 == g0
        assert e.digits == digits
        assert e.terminated

    def test_reconstruct_empty(self):
        g0 = integer_point(1, 1, 2)
        assert reconstruct(g0, []) == g0.to_siegel()

    def test_invalid_digit_string(self):
        # digit whose translate of the origin has v = 0 cannot be inverted
        with pytest.raises(InvalidDigitString):
            reconstruct(integer_point(0, 0, 0), [integer_point(0, 0, 0)])

    def test_expansion_of_reconstruction_bigfloat(self):
        rng = random.Random(9)
        g0, digits = random_digit_string(rng, 10)
        h = reconstruct(g0, digits)
        ctx = PrecisionContext(256)
        e = expand(h.to_bigfloat(ctx), max_depth=len(digits))
        assert e.gamma0 == g0
        assert e.digits == digits


class TestTailConvergents:
    def test_full_tail_is_first_column(self):
        rng = random.Random(4)
        h = random_rational_point(rng, length=5)
        e = expand(h)
        n = e.depth
        assert tail_convergents(e, 0, n) == e.first_column(n)

    def test_shift_relation(self):
        # q^(i)_n = -p^(i-1)_n: dropping one digit swaps the roles
        rng = random.Random(5)
        h = random_rational_point(rng, length=6)
        e = expand(h)
        n = e.depth
        for i in range(1, n):
            qi = tail_convergents(e, i, n)[0]
            pi_prev = tail_convergents(e, i - 1, n)[2]
            assert qi == -pi_prev


class TestOrbitConsistency:
    def test_iterates_satisfy_recursion(self):
        rng = random.Random(6)
        h = random_rational_point(rng, length=5)
        e = expand(h)
        for n in range(e.depth):
            cur, nxt = e.iterates[n], e.iterates[n + 1]
            gamma = e.digits[n]
            assert group_mul(gamma.to_siegel(), nxt) == koranyi_inversion(cur)

    def test_iterates_stay_in_domain(self):
        rng = random.Random(7)
        h = random_rational_point(rng, length=5)
        e = expand(h)
        for it in e.iterates:
            assert K.contains(it)


class TestCertifiedExpansion:
    def test_requires_depth(self):
        ctx = PrecisionContext(64)
        h = parse_planar_point("(1+i; 1+4/5i)", ctx)
        with pytest.raises(ValueError):
            expand(h)

    def test_matches_exact_digits(self):
        rng = random.Random(8)
        ctx = PrecisionContext(512)
        for _ in range(3):
            g0, digits = random_digit_string(rng, 12)
            h = reconstruct(g0, digits)
            e_big = expand(h.to_bigfloat(ctx), max_depth=12)
            assert e_big.digits == digits


class TestJsonFixture:
    def test_round_trip_schema_fields(self):
        e = expand(parse_planar_point("(1+i; 1+4/5i)"))
        rec = json.loads(expansion_to_json(e))
        assert set(rec) == {
            "point",
            "gamma0",
            "digits",
            "convergents",
            "terminated",
            "backend",
            "bits",
        }
        assert rec["backend"] == "exact" and rec["bits"] is None
