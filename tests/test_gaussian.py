from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heiscf.errors import ParseError, PointAtInfinity
from heiscf.gaussian import (
    GaussInt,
    GaussRat,
    canonical_associate,
    format_gauss_int,
    gi_gcd,
    parse_gauss_int,
    parse_gauss_rat,
    r2_count,
    r2_count_naive,
    reduce_triple,
)

gauss_ints = st.builds(
    GaussInt, st.integers(-50, 50), st.integers(-50, 50)
)
nonzero_gauss_ints = gauss_ints.filter(lambda g: not g.is_zero())


class TestGaussIntArithmetic:
    def test_basic_ops(self):
        a = GaussInt(3, -2)
        b = GaussInt(-1, 4)
        assert a + b == GaussInt(2, 2)
        assert a - b == GaussInt(4, -6)
        assert a * b == GaussInt(5, 14)
        assert a.conj() == GaussInt(3, 2)
        assert a.norm() == 13

    def test_norm_multiplicative(self):
        a, b = GaussInt(3, 5), GaussInt(-2, 7)
        assert (a * b).norm() == a.norm() * b.norm()

    @given(gauss_ints, gauss_ints)
    def test_norm_multiplicative_property(self, a, b):
        assert (a * b).norm() == a.norm() * b.norm()

    def test_round_div_nearest(self):
        # 7/2 = 3.5 rounds up (ties toward +infinity per coordinate)
        q = GaussInt(7, 0).round_div(GaussInt(2, 0))
        assert q == GaussInt(4, 0)

    @given(gauss_ints, nonzero_gauss_ints)
    def test_round_div_remainder_small(self, a, b):
        q = a.round_div(b)
        r = a - q * b
        # nearest-integer quotient leaves |r/b|^2 <= 1/2
        assert 2 * r.norm() <= b.norm()


class TestCanonicalAssociate:
    def test_quarter_plane(self):
        for g in (GaussInt(1, 1), GaussInt(-1, 1), GaussInt(-1, -1), GaussInt(1, -1)):
            c, u = canonical_associate(g)
            assert c == u * g
            assert c.re > 0 and c.im >= 0

    def test_zero(self):
        c, u = canonical_associate(GaussInt(0, 0))
        assert c.is_zero() and u == GaussInt(1, 0)

    @given(nonzero_gauss_ints)
    def test_unique(self, g):
        c, u = canonical_associate(g)
        assert c.re > 0 and c.im >= 0
        assert u.norm() == 1
        # no other associate lands in the canonical quarter-plane
        others = [w * g for w in (GaussInt(0, 1), GaussInt(-1, 0), GaussInt(0, -1))
                  for w in [w * u]]
        assert all(not (o.re > 0 and o.im >= 0) for o in others)


class TestGcd:
    def test_example(self):
        g = gi_gcd(GaussInt(4, 2), GaussInt(2, 4))
        # both divisible by 2+... gcd is an associate of 2(1+...)/..., check by norm
        assert GaussInt(4, 2).norm() % g.norm() == 0
        assert GaussInt(2, 4).norm() % g.norm() == 0
        assert g.divides(GaussInt(4, 2)) and g.divides(GaussInt(2, 4))

    @given(nonzero_gauss_ints, nonzero_gauss_ints)
    @settings(max_examples=60)
    def test_divides_both(self, a, b):
        g = gi_gcd(a, b)
        assert g.divides(a) and g.divides(b)
        # canonical output
        assert g.re > 0 and g.im >= 0

    @given(nonzero_gauss_ints, nonzero_gauss_ints, nonzero_gauss_ints)
    @settings(max_examples=40)
    def test_common_factor_detected(self, a, b, c):
        g = gi_gcd(a * c, b * c)
        assert g.norm() % canonical_associate(c)[0].norm() == 0 or c.divides(g) or g.norm() >= c.norm()


class TestReduceTriple:
    def test_common_factor(self):
        q, r, p = reduce_triple(GaussInt(2, 2), GaussInt(0, 0), GaussInt(2, 0))
        # projectively equal to input and in lowest terms with canonical q
        assert q.re > 0 and q.im >= 0
        lam_num = GaussInt(2, 2)
        # (2+2i, 0, 2) = lam * (q, r, p) for lam = (2+2i)/q
        assert q.divides(lam_num)
        lam = lam_num.exact_div(q)
        assert lam * r == GaussInt(0, 0)
        assert lam * p == GaussInt(2, 0)

    def test_zero_q_raises(self):
        with pytest.raises(PointAtInfinity):
            reduce_triple(GaussInt(0, 0), GaussInt(1, 0), GaussInt(1, 0))

    def test_already_reduced(self):
        q, r, p = reduce_triple(GaussInt(1, 0), GaussInt(1, 1), GaussInt(1, 1))
        assert (q, r, p) == (GaussInt(1, 0), GaussInt(1, 1), GaussInt(1, 1))


class TestR2Count:
    def test_small_values(self):
        assert r2_count(1) == 4
        assert r2_count(2) == 4
        assert r2_count(3) == 0
        assert r2_count(5) == 8
        assert r2_count(25) == 12

    # primes above 200 that are 1 and 3 mod 4, and their squares
    BIG_PRIMES = [211, 223, 227, 229, 233, 1009, 1019, 10007, 10009]

    @pytest.mark.parametrize(
        "n", list(range(1, 200)) + BIG_PRIMES + [p * p for p in BIG_PRIMES]
    )
    def test_against_naive(self, n):
        assert r2_count(n) == r2_count_naive(n)


class TestFormatParse:
    @pytest.mark.parametrize(
        "g,s",
        [
            (GaussInt(0, 0), "0"),
            (GaussInt(3, 0), "3"),
            (GaussInt(0, -5), "-5i"),
            (GaussInt(1, 1), "1+i"),
            (GaussInt(2, -3), "2-3i"),
            (GaussInt(-1, -1), "-1-i"),
        ],
    )
    def test_round_trip(self, g, s):
        assert format_gauss_int(g) == s
        assert parse_gauss_int(s) == g

    def test_parse_normalizes(self):
        assert parse_gauss_int("1+1i") == GaussInt(1, 1)
        assert parse_gauss_int("i") == GaussInt(0, 1)

    def test_parse_garbage(self):
        with pytest.raises(ParseError):
            parse_gauss_int("1+j")
        with pytest.raises(ParseError):
            parse_gauss_int("")

    @given(gauss_ints)
    def test_format_parse_identity(self, g):
        assert parse_gauss_int(format_gauss_int(g)) == g


class TestGaussRat:
    def test_canonical_lowest_terms(self):
        x = GaussRat.make(GaussInt(2, 2), GaussInt(4, 0))
        # (2+2i)/4 = (1+i)/2, stored with the gcd divided out
        assert x.re() == Fraction(1, 2) and x.im() == Fraction(1, 2)
        assert x.den.re > 0 and x.den.im >= 0
        assert gi_gcd(x.num, x.den).is_unit()

    def test_arithmetic(self):
        half = GaussRat.make(GaussInt(1, 0), GaussInt(2, 0))
        third = GaussRat.make(GaussInt(1, 0), GaussInt(3, 0))
        s = half + third
        assert s.re() == Fraction(5, 6) and s.im() == 0

    def test_inverse(self):
        x = GaussRat.make(GaussInt(1, 1), GaussInt(2, 0))
        one = x * x.inverse()
        assert one.re() == 1 and one.im() == 0

    def test_abs_sq(self):
        x = GaussRat.make(GaussInt(1, 1), GaussInt(2, 0))
        assert x.abs_sq() == Fraction(1, 2)

    def test_parse(self):
        x = parse_gauss_rat("(1+i)/(2-i)")
        assert x == GaussRat.make(GaussInt(1, 1), GaussInt(2, -1))

    @given(gauss_ints, nonzero_gauss_ints, gauss_ints, nonzero_gauss_ints)
    @settings(max_examples=50)
    def test_field_ops(self, a, b, c, d):
        x = GaussRat.make(a, b)
        y = GaussRat.make(c, d)
        assert (x + y) - y == x
        if not y.is_zero():
            assert (x * y) / y == x
