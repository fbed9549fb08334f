import json
import math
import random
from contextlib import nullcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp

import heiscf.cf as cf
import heiscf.siegel as siegel
from heiscf.cf import (
    expand,
    gauss_map_step,
    reconstruct,
    tail_convergents,
)
from heiscf.domain import (
    DirichletDomain,
    _ranked_candidates,
    integer_point,
    nearest_float,
    reduce_into_kd,
)
from heiscf.errors import (
    AmbiguousNearestInteger,
    CertificationError,
    InternalError,
    InvalidDigitString,
)
from heiscf.gaussian import GaussInt, GaussRat, _rat
from heiscf.lab.approx import approx_quality
from heiscf.lab.identities import (
    verify_distance_formula,
    verify_expansion,
    verify_prq,
    verify_tildeprq,
)
from heiscf.lab.random_points import (
    random_bigfloat_point,
    random_digit_string,
    random_rational_point,
)
from heiscf.matrices import IDENTITY, column, digit_matrix, mat_mul, translate, u21_check
from heiscf.siegel import (
    IntegerPoint,
    PrecisionContext,
    SiegelPoint,
    distance,
    distance_pow4,
    exact_triple,
    from_heis,
    group_mul,
    koranyi_inversion,
    linear_form_terms,
    parse_heis_point,
    parse_planar_point,
    triple_to_planar,
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
        assert K.nearest(nxt).is_origin()


class TestExpandFixture:
    def test_spec_fixture(self):
        e = expand(parse_planar_point("(1+i; 1+4/5i)"))
        assert str(e.gamma0) == "(1+i; 1+i)"
        assert [str(g) for g in e.digits] == ["(0; 5i)"]
        assert e.terminated
        assert [str(c) for c in e.convergents()] == [
            "[1 : 1+i : 1+i]",
            "[5 : 5+5i : 5+4i]",
        ]

    def test_origin(self):
        e = expand(SiegelPoint.origin())
        assert e.depth == 0 and e.terminated

    def test_final_convergent_equals_point(self):
        e = expand(parse_planar_point("(1+i; 1+4/5i)"))
        assert triple_to_planar(e.convergent(e.depth)) == e.point

    def test_max_depth(self):
        rng = random.Random(0)
        h = random_rational_point(rng, length=6)
        e = expand(h, max_depth=2)
        assert e.depth == 2 and not e.terminated


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
            mq, mr, mp = column(e.continuants[n], 2)
            assert (-mq, -mr, -mp) == (q, r, p)

    def test_convergents_approach_point(self):
        rng = random.Random(3)
        h = random_rational_point(rng, length=6)
        e = expand(h)
        h0 = e.iterates[0]
        dists = [
            distance(triple_to_planar(e.convergent(n)), e.point)
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
            assert K.nearest(it).is_origin()


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

    def test_near_origin_guard(self):
        # a rational point terminates after 7 digits; at 64 bits its eighth
        # iterate keeps only rounding in v (|v| near 1.5e-13 < 4 * 2^-32)
        h = from_heis(*parse_heis_point("1/3+1/7i, 2/11"))
        exact = expand(h)
        assert exact.terminated and exact.depth == 7
        ctx = PrecisionContext(64)
        big = from_heis(*parse_heis_point("1/3+1/7i, 2/11", ctx), ctx)
        assert expand(big, max_depth=7).digits == exact.digits
        with pytest.raises(CertificationError, match="too close to the origin"):
            expand(big, max_depth=8)

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    def test_low_precision_digits_are_exact_or_refused(self):
        # the literal P of ROADMAP item 1: at 64 bits, depth 30, its digits
        # differ from the exact expansion's from index 14 on
        den = "/" + "1" + "0" * 39
        lit = ("314159265358979323846264338327950288419" + den
               + "+271828182845904523536028747135266249775" + den + "i, "
               + "141421356237309504880168872420969807856" + den)
        exact = expand(from_heis(*parse_heis_point(lit)))
        ctx = PrecisionContext(64)
        try:
            digits = expand(from_heis(*parse_heis_point(lit, ctx), ctx), max_depth=30).digits
        except CertificationError:
            return
        assert digits == exact.digits[: len(digits)]


class TestJsonFixture:
    def test_round_trip_schema_fields(self):
        e = expand(parse_planar_point("(1+i; 1+4/5i)"))
        rec = json.loads(json.dumps(e.as_dict()))
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


# ---------------------------------------------------------------------------
# The exact Gauss-map step against the planar route it replaces


def ranked_candidates_fraction(ure, uim, vim):
    """The nearest-integer kernel on Fraction coordinates, keyed by d4 itself."""
    s0 = math.floor((ure + uim) / 2)
    t0 = math.floor((ure - uim) / 2)
    ranked = []
    for s in (s0, s0 + 1):
        for t in (t0, t0 + 1):
            a, b = s + t, s - t
            du_sq = (ure - a) ** 2 + (uim - b) ** 2
            if 5 * du_sq > 8:
                continue
            delta = vim - (a * uim - b * ure)
            c0 = math.floor(delta)
            for c in (c0,) if delta == c0 else (c0, c0 + 1):
                ranked.append(((du_sq / 2) ** 2 + (delta - c) ** 2, a, b, c))
    ranked.sort()
    return ranked


def nearest_reference(h):
    _, a, b, c = ranked_candidates_fraction(h.u.re(), h.u.im(), h.v.im())[0]
    return integer_point(a, b, c)


def gauss_map_step_reference(h):
    """digit [iota h] and [iota h]^-1 iota h through the planar group law."""
    if h.is_origin():
        return IntegerPoint.origin(), h
    ih = koranyi_inversion(h)
    gamma = nearest_reference(ih)
    return gamma, group_mul(gamma.inv().to_siegel(), ih)


def expand_reference(h, max_depth=None):
    """Digits, iterates, continuants and termination, with a full mat_mul."""
    gamma0 = nearest_reference(h)
    cur = group_mul(gamma0.inv().to_siegel(), h)
    digits, iterates, continuants = [], [cur], [IDENTITY]
    while not cur.is_origin() and (max_depth is None or len(digits) < max_depth):
        gamma, cur = gauss_map_step_reference(cur)
        digits.append(gamma)
        iterates.append(cur)
        continuants.append(mat_mul(continuants[-1], digit_matrix(gamma)))
    return gamma0, digits, iterates, continuants, cur.is_origin()


fractions = st.builds(Fraction, st.integers(-300, 300), st.integers(1, 40))
heis_points = st.builds(
    lambda x, y, t: from_heis(GaussRat.from_fractions(x, y), t),
    fractions,
    fractions,
    fractions,
)
seeded_points = st.builds(
    lambda seed, length: random_rational_point(random.Random(seed), length=length),
    st.integers(0, 2**32),
    st.integers(1, 8),
)


def refuse_call(name):
    def refused(*args):
        raise AssertionError(f"the exact step called {name}")
    return refused


class TestExactStepRoute:
    @given(st.one_of(heis_points, seeded_points))
    @settings(max_examples=40, deadline=None)
    def test_exact_step_takes_no_planar_route(self, h):
        # an exact point steps on its integer triple, as expand does
        want = gauss_map_step_reference(h)
        with pytest.MonkeyPatch.context() as mp_:
            for owner, name in ((cf, "koranyi_inversion"), (siegel, "koranyi_inversion"),
                                (siegel, "group_mul"), (DirichletDomain, "nearest")):
                mp_.setattr(owner, name, refuse_call(name))
            assert gauss_map_step(h) == want
        assert not hasattr(cf, "group_mul")  # _into_kd translates big floats only


class TestExactStepDifferential:
    @given(st.one_of(heis_points, seeded_points))
    @settings(max_examples=200, deadline=None)
    def test_step_matches_planar_route(self, h):
        assert gauss_map_step(h) == gauss_map_step_reference(h)

    @given(st.integers(0, 2**32), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_step_matches_first_digit_of_expansion(self, seed, length):
        # points of K_D: gamma_0 is the origin and digit 1 is the step's
        orbit = expand(random_rational_point(random.Random(seed), length=length))
        for h in orbit.iterates:
            if h.is_origin():
                continue
            e = expand(h, max_depth=1)
            assert e.gamma0.is_origin()
            assert gauss_map_step(h) == (e.digits[0], e.iterates[1])

    @given(st.one_of(heis_points, seeded_points), st.one_of(st.none(), st.integers(0, 4)))
    @settings(max_examples=80, deadline=None)
    def test_expansion_matches_planar_route(self, h, max_depth):
        e = expand(h, max_depth=max_depth)
        gamma0, digits, iterates, continuants, terminated = expand_reference(h, max_depth)
        assert e.gamma0 == gamma0
        assert e.digits == digits
        assert e.iterates == iterates
        assert e.continuants == continuants
        assert e.terminated == terminated

    def test_contraction_check(self, monkeypatch):
        # a reduction that leaves the triple as it is does not shrink |q|:
        # the first step swaps q and p, and expand raises there
        h = parse_planar_point("(1/2; 1/8+1/3i)")
        calls = []

        def stuck(t):
            calls.append(t)
            assert len(calls) <= 2, "expand went on past a step that did not contract"
            return integer_point(0, 0, 1), t

        monkeypatch.setattr(cf, "reduce_into_kd", stuck)
        with pytest.raises(InternalError):
            expand(h)
        q, r, p = exact_triple(h)
        assert calls == [(q, r, p), (p, -r, q)]  # gamma_0, then step 1

    @given(st.one_of(heis_points, seeded_points))
    @settings(max_examples=100, deadline=None)
    def test_depth_bounded_by_denominator_bits(self, h):
        # |q|^2 at least halves at every step and stays a positive integer
        assert expand(h).depth <= exact_triple(h)[0].norm().bit_length()


def planar(ure, uim, vre, vim):
    return SiegelPoint(
        GaussRat.from_fractions(Fraction(ure), Fraction(uim)),
        GaussRat.from_fractions(Fraction(vre), Fraction(vim)),
    )


def tie_points():
    """Exact points with at least two nearest-integer candidates at equal d4.

    (1; 1/2 + ti), t an integer, is equally far from the four integer points
    over u = 0, 2, 1+i, 1-i, each with an exact integer delta (one c each);
    (0; ti) with t = k + 1/2 ties c = k and k + 1.  Left translates keep the
    ties but can reorder which tied candidate is lexicographically smallest.
    """
    base = [planar(1, 0, Fraction(1, 2), t) for t in (-2, 0, 3)]
    base += [planar(0, 0, 0, Fraction(t, 2)) for t in (-3, 1, 5)]
    shifts = [integer_point(0, 0, 0), integer_point(1, 1, -2), integer_point(-3, 1, 4),
              integer_point(2, -4, 1)]
    return [group_mul(g.to_siegel(), w) for g in shifts for w in base]


def lexicographic_nearest(h):
    """Brute force over a wide window: the least (d4, a, b, c)."""
    ur, ui = math.floor(h.u.re()), math.floor(h.u.im())
    best = None
    for a in range(ur - 3, ur + 4):
        for b in range(ui - 3, ui + 4):
            if (a + b) % 2:
                continue
            delta = h.v.im() - (a * h.u.im() - b * h.u.re())
            for c in range(math.floor(delta) - 1, math.floor(delta) + 2):
                g = integer_point(a, b, c)
                key = (distance_pow4(g.to_siegel(), h), a, b, c)
                best = key if best is None or key < best else best
    return integer_point(*best[1:])


class TestBoundaryTies:
    @pytest.mark.parametrize("w", tie_points(), ids=str)
    def test_lexicographically_smallest_wins(self, w):
        ranked = ranked_candidates_fraction(w.u.re(), w.u.im(), w.v.im())
        assert ranked[0][0] == ranked[1][0]  # a tie, resolved by (a, b, c)
        want = lexicographic_nearest(w)
        assert DirichletDomain().nearest(w) == want == nearest_reference(w)
        assert reduce_into_kd(exact_triple(w))[0] == want
        assert nearest_float(complex(w.u), complex(w.v)) == (want.u.re, want.u.im, want.v.im)
        # the step reaches w as iota h and ranks it through nearest
        h = koranyi_inversion(w)
        assert gauss_map_step(h) == gauss_map_step_reference(h)
        assert gauss_map_step(h)[0] == want

    @pytest.mark.parametrize("t", [-2, 0, 3])
    def test_integer_delta_takes_one_c(self, t):
        w = planar(1, 0, Fraction(1, 2), t)
        ranked = _ranked_candidates(1, 0, t, 1)
        assert sorted(x[1:] for x in ranked) == sorted(
            x[1:] for x in ranked_candidates_fraction(w.u.re(), w.u.im(), w.v.im())
        )
        assert len(ranked) == 4  # u = 0, 2, 1+i, 1-i, one c each
        assert {x[0] for x in ranked} == {1}  # 4 d4 = 4 (1/2)^2
        assert ranked[0][1:] == (0, 0, t)


def float_point(ure, uim, vim):
    """The exact point whose u and Im v are the given floats, read exactly."""
    x, y = Fraction(ure), Fraction(uim)
    return planar(x, y, (x * x + y * y) / 2, Fraction(vim))


def ulps(x, k):
    """x moved |k| floats up (k > 0) or down (k < 0)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


coordinates = st.floats(-1e6, 1e6, allow_nan=False)
shifted_ties = st.builds(
    lambda w, ks: tuple(ulps(float(x), k) for x, k in zip((w.u.re(), w.u.im(), w.v.im()), ks)),
    st.sampled_from(tie_points()),
    st.tuples(*[st.integers(-3, 3)] * 3),
)


class TestNearestFloatDifferential:
    @given(st.one_of(st.tuples(coordinates, coordinates, coordinates), shifted_ties))
    @settings(max_examples=300, deadline=None)
    def test_matches_exact_point(self, x):
        ure, uim, vim = x
        g = DirichletDomain().nearest(float_point(ure, uim, vim))
        # nearest_float reads only Re u, Im u and Im v
        assert nearest_float(complex(ure, uim), complex(0.0, vim)) == (g.u.re, g.u.im, g.v.im)


# ---------------------------------------------------------------------------
# The exact kernels on int parts against the GaussInt/GaussRat forms they replace


def reduce_into_kd_reference(t):
    """[x] and T_{[x]^-1} t through GaussInt products and matrices.translate."""
    q, r, p = t
    qc = q.conj()
    w = r * qc
    _, a, b, c = _ranked_candidates(w.re, w.im, (p * qc).im, q.norm())[0]
    gamma = integer_point(a, b, c)
    return gamma, translate(gamma.inv(), t)


def triple_to_planar_reference(triple):
    """(r/q, p/q) as the GaussRat quotients r / q and p / q."""
    q, r, p = (GaussRat.from_int(g) for g in triple)
    return SiegelPoint(r / q, p / q)


big_ints = st.integers(-(2**512), 2**512)
big_fractions = st.builds(Fraction, big_ints, st.integers(1, 2**512))
big_heis_points = st.builds(
    lambda x, y, t: from_heis(GaussRat.from_fractions(x, y), t),
    big_fractions,
    big_fractions,
    big_fractions,
)
# nonzero Gaussian multiples of the triples of large points: q is no longer
# real or canonical, and the entries share a factor that the kernels must reduce
big_triples = st.builds(
    lambda h, a, b: tuple(GaussInt(a, b) * g for g in exact_triple(h)),
    st.one_of(big_heis_points, heis_points),
    st.integers(1, 2**512),
    big_ints,
)
# large integer points: the ties stay ties under left translation
big_shifts = {
    "2^300": integer_point(2**300 + 1, 2**300 - 1, -(2**400)),
    "3^200": integer_point(-(3**200), 5**150, 7**180),
    "2^511": integer_point(2**511, -(2**511), 2**513 + 1),
}


class TestIntKernels:
    @given(big_triples)
    @settings(max_examples=150, deadline=None)
    def test_reduce_into_kd_matches_reference(self, t):
        assert reduce_into_kd(t) == reduce_into_kd_reference(t)

    @given(big_triples)
    @settings(max_examples=150, deadline=None)
    def test_triple_to_planar_matches_reference(self, t):
        # a GaussRat is compared field by field: each quotient is in lowest terms
        assert triple_to_planar(t) == triple_to_planar_reference(t)

    @pytest.mark.parametrize("r, p", [(GaussInt(0, 0), GaussInt(0, 0)),
                                      (GaussInt(2**600, 3), GaussInt(-1, 2**513))])
    def test_triple_to_planar_refuses_zero_q(self, r, p):
        t = (GaussInt(0, 0), r, p)
        for convert in (triple_to_planar, triple_to_planar_reference):
            with pytest.raises(ZeroDivisionError, match="division by zero Gaussian rational"):
                convert(t)

    @pytest.mark.parametrize("g", big_shifts.values(), ids=big_shifts)
    @pytest.mark.parametrize("w", tie_points(), ids=str)
    def test_ties_translated_far(self, g, w):
        h = group_mul(g.to_siegel(), w)
        t = exact_triple(h)
        ranked = ranked_candidates_fraction(h.u.re(), h.u.im(), h.v.im())
        assert ranked[0][0] == ranked[1][0]  # still a tie
        for s in (t, tuple(GaussInt(3, -2**200) * x for x in t)):
            gamma, moved = reduce_into_kd(s)
            assert (gamma, moved) == reduce_into_kd_reference(s)
            assert gamma == lexicographic_nearest(h)

    @given(st.one_of(big_heis_points, seeded_points), st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_large_expansion_matches_planar_route(self, h, max_depth):
        e = expand(h, max_depth=max_depth)
        gamma0, digits, iterates, continuants, terminated = expand_reference(h, max_depth)
        assert (e.gamma0, e.digits, e.iterates, e.continuants, e.terminated) == (
            gamma0, digits, iterates, continuants, terminated)


# ---------------------------------------------------------------------------
# One precision switch per expansion, and the continuant forms built once


def tie_preimage(ctx):
    """A big-float point whose first Gauss-map step lands on a boundary tie:
    iota of the tie (1 ; 1/2 - 2i), so [h] certifies and [iota h] cannot."""
    tie = SiegelPoint(GaussRat.from_fractions(1, 0), GaussRat.from_fractions(Fraction(1, 2), -2))
    return koranyi_inversion(tie).to_bigfloat(ctx)


def count_switches(monkeypatch) -> list:
    """Calls to mp.workprec from now on, by precision asked for."""
    calls, workprec = [], mp.workprec
    monkeypatch.setattr(mp, "workprec", lambda n: calls.append(n) or workprec(n))
    return calls


class TestPrecisionSwitch:
    def test_work_at_its_own_precision_is_free(self):
        ctx = PrecisionContext(128)
        with mp.workprec(128):
            assert isinstance(ctx.work(), nullcontext)
            with ctx.work():
                assert mp.prec == 128
            assert mp.prec == 128

    def test_work_elsewhere_sets_and_restores(self):
        ctx = PrecisionContext(128)
        before = mp.prec
        assert before != 128
        with ctx.work():
            assert mp.prec == 128
            with PrecisionContext(64).work():
                assert mp.prec == 64
            assert mp.prec == 128
        assert mp.prec == before

    def test_one_switch_per_expansion_and_per_suite(self, monkeypatch):
        h = random_bigfloat_point(random.Random(3), PrecisionContext(512))
        calls = count_switches(monkeypatch)
        e = expand(h, max_depth=12)
        assert calls == [512]
        verify_expansion(e)
        assert calls == [512, 512]

    @pytest.mark.parametrize("outer", [53, 64, 300])
    def test_expand_restores_the_precision_when_it_raises(self, outer):
        big = from_heis(*parse_heis_point("1/3+1/7i, 2/11", PrecisionContext(64)),
                        PrecisionContext(64))
        tie = tie_preimage(PrecisionContext(128))
        K.nearest(tie)  # [h] certifies: the tie is met inside the orbit
        with mp.workprec(outer):
            with pytest.raises(CertificationError):
                expand(big, max_depth=8)
            assert mp.prec == outer
            with pytest.raises(AmbiguousNearestInteger):
                expand(tie, max_depth=3)
            assert mp.prec == outer


class TestLiftedContinuants:
    @pytest.mark.parametrize("bits", [None, 64, 128, 512])
    def test_cached_forms_equal_fresh_linear_forms(self, bits):
        """forms[n][j] is (q, F, terms) of column j of Q_n at h_0, bit for bit
        on big floats; an exact F is unreduced ints, compared once reduced
        (a GaussRat has one normal form, so == is exact)."""
        raw = (lambda x: x) if bits is None else (lambda x: x._mpc_)
        for seed in range(3):
            rng = random.Random(seed)
            h = (random_rational_point(rng, length=8) if bits is None
                 else random_bigfloat_point(rng, PrecisionContext(bits)))
            e = expand(h, max_depth=15)
            h0 = e.iterates[0]
            with h0.work():
                for n in range(e.depth + 1):
                    for j, col in enumerate((e.first_column(n), e.second_column(n))):
                        q, form, terms = e.forms[n][j]
                        fresh = linear_form_terms(col, h0)
                        assert raw(q) == raw(h0.lift(col[0]))
                        assert [raw(t) for t in terms()] == [raw(t) for t in fresh]
                        t1, t2, t3 = fresh
                        assert raw(form if bits else _rat(*form)) == raw(t1 - t2 + t3)

    @pytest.mark.parametrize("verifier", [verify_prq, verify_tildeprq, verify_distance_formula])
    def test_cached_columns_keep_the_index_check(self, verifier):
        e = expand(random_bigfloat_point(random.Random(0), PrecisionContext(128)), max_depth=4)
        for n in (-1, e.depth + 1):
            with pytest.raises(IndexError):
                verifier(e, n)

    def test_exact_suite_builds_its_terms_only_when_a_float_is_read(self, monkeypatch):
        """verify_expansion and approx_quality on exact expansions decide
        everything in integers: the linear-form terms are built only when a
        report's float is read."""
        calls = []
        fresh = siegel.linear_form_terms
        monkeypatch.setattr(siegel, "linear_form_terms", lambda *a: calls.append(a) or fresh(*a))
        rng = random.Random(5)
        for length in range(1, 9):
            e = expand(reconstruct(*random_digit_string(rng, length)))
            reports = verify_expansion(e)
            for n in range(e.depth):
                approx_quality(e, n)
            assert all(r.passed for r in reports) and not calls
            reports[0].as_dict()
            assert calls
            calls.clear()
