import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import heiscf.gaussian as gaussian
import heiscf.lab.enumerate as enumerate_module
from heiscf.gaussian import (
    GaussInt,
    _coprime,
    _dividing,
    _factor,
    _fold_unit,
    _prime_tests,
    _trip_key,
    gi_gcd,
)
from heiscf.lab.enumerate import (
    Region,
    _disk,
    enumerate_rationals_naive,
    enumerate_rationals_qnorm,
    kprime_region,
    qnorm_representations,
    solve_p_line,
)

REGION = kprime_region(0.0)


class TestQnormRepresentations:
    @pytest.mark.parametrize("m,count", [(1, 4), (2, 4), (3, 0), (5, 8), (25, 12)])
    def test_counts_match_r2(self, m, count):
        assert len(qnorm_representations(m)) == count

    @pytest.mark.parametrize("m", [1, 2, 4, 5, 10, 13, 50])
    def test_all_have_norm_m(self, m):
        for q in qnorm_representations(m):
            assert q.norm() == m


def disk_scan(a, b, s, bound):
    """Every (c, d) with a c + b d = s and c^2 + d^2 <= bound, by brute force."""
    lim = math.isqrt(bound)
    return {
        (c, d)
        for c in range(-lim, lim + 1)
        for d in range(-lim, lim + 1)
        if a * c + b * d == s and c * c + d * d <= bound
    }


def solve_p_line_reference(a, b, s, p_norm_max):
    """solve_p_line as first written: its base point from the inverse of a/g
    mod |b/g|, with a branch of its own for b = 0."""
    g = math.gcd(a, b)
    a, b = a // g, b // g
    s, rest = divmod(s, g)
    disc = (a * a + b * b) * p_norm_max - s * s
    if rest or disc < 0:
        return []
    if b == 0:
        c0, d0 = s * a, 0
    else:
        c0 = s * pow(a, -1, abs(b)) % abs(b)
        d0 = (s - a * c0) // b
    step, w0, w = a * a + b * b, a * d0 - b * c0, math.isqrt(disc)
    return [(c0 - b * t, d0 + a * t)
            for t in range(-((w + w0) // step), (w - w0) // step + 1)]


class TestSolvePLine:
    @pytest.mark.parametrize(
        "a,b,s,bound",
        [(1, 1, 1, 4), (2, 0, 3, 25), (2, 0, 4, 25), (0, -3, 6, 9), (-1, -1, 1, 4),
         (3, -2, 5, 100)],
    )
    def test_solutions_valid_and_complete(self, a, b, s, bound):
        assert set(solve_p_line(a, b, s, bound)) == disk_scan(a, b, s, bound)

    @given(
        st.integers(-12, 12), st.integers(-12, 12), st.integers(-150, 150),
        st.integers(0, 300),
    )
    @settings(max_examples=300)
    def test_matches_disk_scan(self, a, b, s, bound):
        assume(a or b)
        got = solve_p_line(a, b, s, bound)
        assert len(got) == len(set(got))
        assert set(got) == disk_scan(a, b, s, bound)

    @given(
        st.one_of(st.integers(-12, 12), st.integers(-(10**12), 10**12)),
        st.one_of(st.integers(-12, 12), st.integers(-(10**12), 10**12)),
        st.integers(-150, 150), st.integers(0, 300),
    )
    @example(0, 5, 10, 200)
    @example(0, -5, -10, 200)
    @example(4, 0, 8, 200)
    @example(-4, 0, 8, 200)
    @example(-2, 6, 12, 200)
    @settings(max_examples=300)
    def test_same_list_as_reference(self, a, b, s, bound):
        # the base point s (x, y) of _line's basis moves along the line only:
        # the same points, in the same order of increasing t
        assume(a or b)
        assert solve_p_line(a, b, s, bound) == solve_p_line_reference(a, b, s, bound)

    def test_large_coefficients(self):
        """The walk window is found in integers, so it holds at any size."""
        a, b = 10**30 + 7, -(3 * 10**29 + 11)
        c, d = 5 * 10**30 + 1, 2 * 10**30 - 3
        got = solve_p_line(a, b, a * c + b * d, c * c + d * d)
        assert (c, d) in got and len(got) == len(set(got))

    def test_no_solution_wrong_residue(self):
        assert solve_p_line(2, 2, 3, 100) == []

    def test_zero_q_raises(self):
        with pytest.raises(ValueError):
            solve_p_line(0, 0, 1, 10)


class TestStructuredVsNaive:
    @pytest.mark.parametrize("m", list(range(1, 50)))
    def test_match_lowest_terms(self, m):
        s = enumerate_rationals_qnorm(m, REGION)
        n = enumerate_rationals_naive(m, REGION)
        assert s.points == n.points

    @pytest.mark.parametrize("m", [1, 2, 4, 5, 8, 9, 16, 25])
    def test_match_all_terms(self, m):
        s = enumerate_rationals_qnorm(m, REGION, lowest_terms=False)
        n = enumerate_rationals_naive(m, REGION, lowest_terms=False)
        assert s.points == n.points

    @pytest.mark.parametrize("lowest_terms", [True, False])
    @pytest.mark.parametrize("delta", [0.3, 1.0])
    def test_match_in_table_regions(self, delta, lowest_terms):
        """The thickened boxes the Khinchin tables enumerate, shell by shell."""
        region = kprime_region(delta)
        bad = [m for m in range(1, 65)
               if enumerate_rationals_qnorm(m, region, lowest_terms).points
               != enumerate_rationals_naive(m, region, lowest_terms).points]
        assert bad == []

    @pytest.mark.parametrize("lowest_terms", [True, False])
    @pytest.mark.parametrize("route", [enumerate_rationals_qnorm, enumerate_rationals_naive])
    def test_points_sorted_by_trip_key(self, route, lowest_terms):
        """Each route's own order, so that a slip both routes share still shows."""
        region = kprime_region(0.3)
        for m in range(1, 65):
            points = route(m, region, lowest_terms).points
            assert points == sorted(points, key=_trip_key)


def flat(trip):
    """The flat key (q.re, q.im, r.re, r.im, p.re, p.im) of a triple."""
    return sum(_trip_key(trip), ())


def congruence_coprime(q, r, p):
    """The structured route's verdict: no Gaussian prime of q divides r and p."""
    r_tests = _dividing(_prime_tests(q, _factor(q.norm())), r.re, r.im)
    return not _dividing(r_tests, p.re, p.im)


G = GaussInt


class TestPrimeCongruences:
    """Primitivity by congruences against Gaussian Euclid (gaussian._coprime)."""

    @pytest.mark.parametrize("delta", [0.0, 0.3])
    def test_every_unreduced_triple(self, delta):
        region = kprime_region(delta)
        bad = [
            (m, trip)
            for m in range(1, 301)
            for trip in enumerate_rationals_qnorm(m, region, lowest_terms=False).points
            if congruence_coprime(*trip) != _coprime(*flat(trip))
        ]
        assert bad == []

    @pytest.mark.parametrize(
        "q,primes",
        [
            (G(5), [(5, 2), (5, 3)]),  # both primes over 5 divide q = (2+i)(2-i)
            (G(3, 4), [(5, 3)]),  # (2+i)^2: only 2+i, where i = 3 mod 5
            (G(3), [(3, None)]),  # inert
            (G(1, 1), [(2, 1)]),
            (G(2), [(2, 1)]),  # -i (1+i)^2
            (G(65), [(5, 2), (5, 3), (13, 5), (13, 8)]),
            (G(1), []),
        ],
    )
    def test_primes_of_q(self, q, primes):
        assert sorted(_prime_tests(q, _factor(q.norm()))) == primes

    @pytest.mark.parametrize(
        "q,r,p,coprime",
        [
            (G(5), G(2, 1), G(2, -1), True),  # 2+i | r, 2-i | p: no common prime
            (G(5), G(2, 1), G(1, 3), False),  # 1+3i = (1+i)(2+i)
            (G(5), G(1, 2), G(3, -4), False),  # 1+2i = i(2-i), 3-4i = (2-i)^2
            (G(3, 4), G(2, -1), G(2, -1), True),  # 2-i does not divide q
            (G(3, 4), G(2, 1), G(1, 3), False),
            (G(3), G(3), G(0, 3), False),
            (G(3), G(3, 3), G(1), True),
            (G(1, 1), G(1, 1), G(2), False),
            (G(1, 1), G(2, 0), G(1, 0), True),
            (G(2), G(1, 1), G(1, -1), False),
            (G(2), G(1), G(2), True),
            (G(65), G(2, 1), G(3, 2), True),  # primes over 5 and 13 apart
            (G(65), G(3, 2), G(1, 5), False),  # 1+5i = (1+i)(3+2i)
            (G(65), G(3, 2), G(3, -2), True),
            (G(5), G(0), G(2, 1), False),  # r = 0: every prime of q divides r
            (G(5), G(0), G(1), True),
            (G(3, 4), G(2, -1), G(0), True),  # p = 0
            (G(3, 4), G(2, 1), G(0), False),
            (G(1), G(0), G(0), True),
        ],
    )
    def test_named_triples(self, q, r, p, coprime):
        assert congruence_coprime(q, r, p) is coprime
        assert _coprime(*flat((q, r, p))) is coprime

    def test_structured_route_takes_no_gcd(self, monkeypatch):
        want = [enumerate_rationals_naive(m, REGION).points for m in range(1, 101)]
        calls = []
        for name in ("gi_gcd", "_euclid"):  # the GaussInt Euclid and its int core
            real = getattr(gaussian, name)
            monkeypatch.setattr(gaussian, name,
                                lambda *a, real=real: calls.append(a) or real(*a))
        got = [enumerate_rationals_qnorm(m, REGION).points for m in range(1, 101)]
        assert calls == []
        assert got == want


class TestNaiveOracleCoprimality:
    def test_no_congruence_test_or_line_solver(self, monkeypatch):
        # the oracle stays independent of the structured route's machinery
        want = [enumerate_rationals_naive(m, REGION).points for m in range(1, 41)]

        def refused(*args):
            raise AssertionError("the naive oracle reached the structured route")

        for name in ("_line", "_p_line", "solve_p_line", "_prime_tests", "_dividing"):
            monkeypatch.setattr(enumerate_module, name, refused)
        assert [enumerate_rationals_naive(m, REGION).points for m in range(1, 41)] == want

    def test_lowest_terms_filters_all_terms(self):
        bad = [m for m in range(1, 121)
               if enumerate_rationals_naive(m, REGION, True).points
               != [t for t in enumerate_rationals_naive(m, REGION, False).points
                   if _coprime(*flat(t))]]
        assert bad == []

    def test_one_euclid_per_distinct_folded_triple(self, monkeypatch):
        calls = []

        def counted(*key):
            calls.append(key)
            return _coprime(*key)

        monkeypatch.setattr(enumerate_module, "_coprime", counted)
        for m in range(1, 121):
            calls.clear()
            distinct = enumerate_rationals_naive(m, REGION, False).points
            assert calls == []
            enumerate_rationals_naive(m, REGION, True)
            assert sorted(calls) == list(map(flat, distinct))


def numpy_naive_points(m, region, lowest_terms):
    """The naive oracle as it was before the join: a numpy match matrix per q."""
    r_norm_max = math.floor(m * region.u_sq)
    p_norm_max = math.floor(m * region.v_sq)
    rs = list(_disk(r_norm_max))
    ps = list(_disk(p_norm_max))
    r_norm = np.array([c * c + d * d for c, d in rs], dtype=np.int64)
    pc = np.array([c for c, _ in ps], dtype=np.int64)
    pd = np.array([d for _, d in ps], dtype=np.int64)
    seen = set()
    points = []
    for q in qnorm_representations(m):
        a, b = q.re, q.im
        rhs = 2 * (a * pc + b * pd)
        match = r_norm[:, None] == rhs[None, :]
        for ri, pi in zip(*np.nonzero(match)):
            trip = _fold_unit(q, GaussInt(*rs[ri]), GaussInt(*ps[pi]))
            if lowest_terms and not _coprime(*flat(trip)):
                continue
            if trip not in seen:
                seen.add(trip)
                points.append(trip)
    points.sort(key=_trip_key)
    return points


class TestNaiveJoinVsNumpyOracle:
    """The join on |r|^2 keeps the numpy oracle's points, in its order."""

    @pytest.mark.parametrize("lowest_terms", [True, False])
    def test_kprime0(self, lowest_terms):
        bad = [m for m in range(1, 121)
               if enumerate_rationals_naive(m, REGION, lowest_terms).points
               != numpy_naive_points(m, REGION, lowest_terms)]
        assert bad == []

    @pytest.mark.parametrize("lowest_terms", [True, False])
    def test_thickened_region(self, lowest_terms):
        region = kprime_region(0.5)
        bad = [m for m in range(1, 33)
               if enumerate_rationals_naive(m, region, lowest_terms).points
               != numpy_naive_points(m, region, lowest_terms)]
        assert bad == []


class TestEnumerationInvariants:
    def test_points_satisfy_constraint(self):
        for m in (2, 5, 10):
            for q, r, p in enumerate_rationals_qnorm(m, REGION).points:
                assert r.norm() == 2 * (q.re * p.re + q.im * p.im)
                assert q.norm() == m

    def test_lowest_terms_coprime(self):
        for q, r, p in enumerate_rationals_qnorm(10, REGION).points:
            g = q
            for x in (r, p):
                if not x.is_zero():
                    g = gi_gcd(g, x)
            assert g.is_unit()

    def test_canonical_q_unique(self):
        # 25 and 65 are shells with several canonical q
        for m in (5, 25, 65):
            for lowest_terms in (True, False):
                pts = enumerate_rationals_qnorm(m, REGION, lowest_terms).points
                for q, r, p in pts:
                    assert q.re > 0 and q.im >= 0
                assert len(pts) == len(set(pts))

    def test_region_bound_respected(self):
        region = Region(Fraction(1, 2), Fraction(1, 4))
        for q, r, p in enumerate_rationals_qnorm(4, region).points:
            assert Fraction(r.norm(), q.norm()) <= region.u_sq
            assert Fraction(p.norm(), q.norm()) <= region.v_sq


class TestSquareGrowth:
    def test_counting_function_fits_power_law(self):
        # the counting function N(m) = #points with |q|^2 <= m grows like
        # C m^(3/2+eps); the prefactor should be stable at the square
        # checkpoints once the exponent is fitted
        checkpoints = [4, 16, 36, 64, 100]
        per = [enumerate_rationals_qnorm(m, REGION).count for m in range(1, 101)]
        N = np.array([sum(per[:m]) for m in checkpoints], dtype=float)
        ms = np.array(checkpoints, dtype=float)
        slope, _ = np.polyfit(np.log(ms), np.log(N), 1)
        cs = N / ms**slope
        assert 1.4 <= slope <= 2.2
        assert cs.std() / cs.mean() < 0.5
