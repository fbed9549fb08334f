import math

import pytest

from heiscf.gaussian import r2_count
from heiscf.lab.khinchin import (
    _sieve_r2_d,
    divisor_g_r2,
    khinchin_partial_sum,
    khinchin_terms,
)


class TestDivisorSum:
    @pytest.mark.parametrize("m", [1, 2, 4, 8, 9, 12, 36, 100])
    def test_matches_brute_force(self, m):
        want = 0
        for g in range(1, m + 1):
            if m % (g * g) == 0:
                want += g * r2_count(m // (g * g))
        assert divisor_g_r2(m) == want

    def test_square_free_reduces_to_r2(self):
        for m in (1, 2, 5, 10, 13):
            assert divisor_g_r2(m) == r2_count(m)

    def test_rearranged_double_sum(self):
        # sum_{m<=M} m sum_{g^2|m} g r2(m/g^2) = sum over (g, d), g^2 d <= M,
        # of g^3 d r2(d): the two orders of summation agree
        M = 400
        lhs = sum(m * divisor_g_r2(m) for m in range(1, M + 1))
        rhs = 0
        g = 1
        while g * g <= M:
            for d in range(1, M // (g * g) + 1):
                rhs += g**3 * d * r2_count(d)
            g += 1
        assert lhs == rhs


class TestSieve:
    def test_matches_per_m_oracles(self):
        r2, D = _sieve_r2_d(20000)
        assert len(r2) == len(D) == 20001
        assert [m for m in range(1, 20001) if D[m] != divisor_g_r2(m)] == []
        assert [n for n in range(1, 20001) if r2[n] != r2_count(n)] == []


class TestTerms:
    def test_positive(self):
        for m in range(1, 50):
            assert khinchin_terms(m, 1.0, 1.0) >= 0.0

    def test_square_bonus(self):
        # squares carry an extra r2(m) m^(3/2) term
        base = 4 * 1.0 * divisor_g_r2(4) * (1.0 * 4.0 ** (-1.0)) ** 4
        got = khinchin_terms(4, 1.0, 1.0)
        assert got > base

    def test_input_validation(self):
        with pytest.raises(ValueError):
            khinchin_terms(0, 1.0, 1.0)
        with pytest.raises(ValueError):
            khinchin_terms(1, -1.0, 1.0)


class TestPartialSums:
    @pytest.mark.parametrize("C,eps", [(1.0, 1.0), (2.0, 0.3), (4.0, 0.5), (1.0, 0.2)])
    @pytest.mark.parametrize("M", [1, 2, 4, 99, 100, 2025])
    def test_bit_identical_to_summed_terms(self, C, eps, M):
        want = 0.0
        for m in range(1, M + 1):
            want += khinchin_terms(m, C, eps)
        assert khinchin_partial_sum(C, eps, M).partial == want

    @pytest.mark.parametrize(
        "C,eps,M", [(0.0, 1.0, 10), (-1.0, 1.0, 10), (1.0, 0.0, 10), (1.0, -0.5, 10),
                    (1.0, 1.0, 0), (1.0, 1.0, -3)]
    )
    def test_input_validation(self, C, eps, M):
        with pytest.raises(ValueError):
            khinchin_partial_sum(C, eps, M)

    def test_monotone_increasing(self):
        prev = 0.0
        for M in (10, 50, 100, 500, 1000):
            s = khinchin_partial_sum(1.0, 1.0, M).partial
            assert s > prev
            prev = s

    def test_tail_bound_dominates_true_tail(self):
        # the computed tail bound at M must exceed the actually summed
        # continuation up to a much larger M'
        a = khinchin_partial_sum(1.0, 1.0, 500)
        b = khinchin_partial_sum(1.0, 1.0, 5000)
        assert b.partial - a.partial <= a.tail_bound

    def test_tail_small_at_10k(self):
        s = khinchin_partial_sum(1.0, 1.0, 10_000)
        assert s.tail_bound < 1e-3 * s.partial

    def test_divergent_epsilon(self):
        s = khinchin_partial_sum(1.0, 0.2, 100)
        assert math.isinf(s.tail_bound)

    def test_scaling_in_C(self):
        # the sum scales as C^4
        s1 = khinchin_partial_sum(1.0, 1.0, 200).partial
        s2 = khinchin_partial_sum(2.0, 1.0, 200).partial
        assert math.isclose(s2, 16 * s1, rel_tol=1e-12)
