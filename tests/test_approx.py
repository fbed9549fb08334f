import math
import random
from fractions import Fraction

import pytest
from mpmath import mp, mpf

from heiscf.cf import expand, reconstruct
from heiscf.gaussian import GaussInt, GaussRat, _coprime, _fold_unit, _trip_key
from heiscf.lab import approx
from heiscf.lab.approx import (
    DIST_BOUND,
    RAD_KD,
    RK_KD,
    approx_quality,
    best_approx_search,
    candidate_triples,
    convergent_distance,
    prop71_check,
)
from heiscf.lab.enumerate import solve_p_line
from heiscf.lab.random_points import (
    random_bigfloat_point,
    random_digit_string,
    random_rational_point,
)
from heiscf.siegel import (
    PrecisionContext,
    ProjIntPoint,
    SiegelPoint,
    distance,
    from_heis,
    parse_planar_point,
    triple_distance_pow4,
    triple_to_planar,
)


def exact_expansion(seed, length=7):
    rng = random.Random(seed)
    g0, digits = random_digit_string(rng, length)
    return expand(reconstruct(g0, digits))


def candidate_triples_all_associates(h, B, dist_fn=None):
    """Oracle: the search over every nonzero Q, unit multiples folded.

    Visits all four associates of each denominator and keeps the first
    copy of each folded triple.
    """
    uh, vh = complex(h.u), complex(h.v)
    seen = set()
    qmax2 = int(B * B + 1e-9)
    for qa in range(-int(B) - 1, int(B) + 2):
        for qb in range(-int(B) - 1, int(B) + 2):
            qn = qa * qa + qb * qb
            if qn == 0 or qn > qmax2:
                continue
            dist_q = 2.0
            if dist_fn is not None:
                dist_q = min(2.0, dist_fn(qn))
                if dist_q <= 0.0:
                    continue
            db2 = dist_q * dist_q
            u_slack = math.sqrt(2.0) * dist_q + 1e-9
            q = GaussInt(qa, qb)
            qc = complex(qa, qb)
            center = qc * uh
            rad = math.sqrt(qn) * u_slack
            u_r_max = abs(uh) + u_slack
            v_r_max = db2 + u_r_max * abs(uh) + abs(vh)
            p_norm_max = int(qn * (v_r_max * v_r_max) + 1)
            for ra in range(math.floor(center.real - rad), math.ceil(center.real + rad) + 1):
                for rb in range(math.floor(center.imag - rad), math.ceil(center.imag + rad) + 1):
                    if abs(complex(ra, rb) - center) > rad:
                        continue
                    rn = ra * ra + rb * rb
                    if rn % 2 != 0:
                        continue
                    uc = complex(ra, rb) / qc
                    for pc, pd in solve_p_line(qa, qb, rn // 2, p_norm_max):
                        vc = complex(pc, pd) / qc
                        d4f = abs(vc.conjugate() - uc.conjugate() * uh + vh) ** 2
                        if d4f > db2 * db2 * 1.000001 + 1e-9:
                            continue
                        trip = (q, GaussInt(ra, rb), GaussInt(pc, pd))
                        if not _coprime(qa, qb, ra, rb, pc, pd):
                            continue
                        trip = _fold_unit(*trip)
                        if trip not in seen:
                            seen.add(trip)
                            yield trip


def candidate_triples_reference(h, B, dist_fn=None):
    """Lowest-terms triples (Q, R, P), |Q| <= B and Q canonical, near h, each once.

    Near means gauge distance <= DIST_BOUND.  A dist_fn(q_norm)
    further tightens the search radius per denominator norm; q values
    whose radius comes back <= 0 are skipped outright.  The other three
    associates of Q would only repeat these triples: a unit multiplies
    every complex product and quotient below exactly, bit for bit.

    The search as it was before the row walk: every cell of the bounding
    squares, one solve_p_line call per even |R|^2.  The shell search must
    yield these triples, each once, in any order.
    """
    uh, vh = complex(h.u), complex(h.v)
    qmax2 = int(B * B + 1e-9)
    for qa in range(1, int(B) + 2):
        for qb in range(int(B) + 2):
            qn = qa * qa + qb * qb
            if qn > qmax2:
                continue
            dist_q = DIST_BOUND
            if dist_fn is not None:
                dist_q = min(DIST_BOUND, dist_fn(qn))
                if dist_q <= 0.0:
                    continue
            db2 = dist_q * dist_q
            u_slack = math.sqrt(2.0) * dist_q + 1e-9
            q = GaussInt(qa, qb)
            qc = complex(qa, qb)
            q_abs = math.sqrt(qn)
            center = qc * uh
            rad = q_abs * u_slack
            u_r_max = abs(uh) + u_slack
            v_r_max = db2 + u_r_max * abs(uh) + abs(vh)
            p_norm_max = int(qn * (v_r_max * v_r_max) + 1)
            for ra in range(math.floor(center.real - rad), math.ceil(center.real + rad) + 1):
                for rb in range(math.floor(center.imag - rad), math.ceil(center.imag + rad) + 1):
                    dr = complex(ra, rb) - center
                    if abs(dr) > rad:
                        continue
                    rn = ra * ra + rb * rb
                    if rn % 2 != 0:
                        continue
                    uc = complex(ra, rb) / qc
                    for pc, pd in solve_p_line(qa, qb, rn // 2, p_norm_max):
                        # float prefilter: keep only candidates plausibly
                        # within dist_q of h (exact check happens later)
                        vc = complex(pc, pd) / qc
                        d4f = abs(vc.conjugate() - uc.conjugate() * uh + vh) ** 2
                        if d4f > db2 * db2 * 1.000001 + 1e-9:
                            continue
                        trip = (q, GaussInt(ra, rb), GaussInt(pc, pd))
                        if _coprime(qa, qb, ra, rb, pc, pd):
                            yield trip


class TestConvergentDistance:
    def test_matches_direct(self):
        e = exact_expansion(0)
        for n in range(e.depth):
            d = convergent_distance(e, n)
            # measured from h_0 via the continuant columns; translating by
            # gamma_0 preserves distances, so the reduced convergent agrees
            direct = distance(triple_to_planar(e.convergent(n)), e.point)
            assert math.isclose(d, direct, rel_tol=1e-9)


    @pytest.mark.parametrize("bits", [64, 128, 512])
    def test_bigfloat_root_equals_power(self, bits):
        # two mpf square roots give the float that d^4 ** 0.25 gave
        rng = random.Random(bits)
        ctx = PrecisionContext(bits)
        for _ in range(20):
            e = expand(random_bigfloat_point(rng, ctx), max_depth=20)
            h0 = e.iterates[0]
            for n in range(e.depth):
                with h0.work():
                    want = float(triple_distance_pow4(e.first_column(n), h0) ** 0.25)
                assert convergent_distance(e, n) == want

    def test_scaled_by_power_of_two(self):
        e = expand(random_bigfloat_point(random.Random(4), PrecisionContext(512)), max_depth=20)
        for n in range(e.depth):
            d = convergent_distance(e, n)
            for k in (1, 37, 600):  # exact: two square roots scale by 2**k
                assert convergent_distance(e, n, k) == math.ldexp(d, k)
        ex = exact_expansion(5)
        for n in range(ex.depth):
            d = convergent_distance(ex, n)
            assert math.isclose(convergent_distance(ex, n, 37), math.ldexp(d, 37), rel_tol=1e-15)


def convergent_distance_fraction(e, n, k):
    """d_n * 2**k from the reduced Fraction d^4, as convergent_distance once
    rounded it."""
    d4 = triple_distance_pow4(e.first_column(n), e.iterates[0])
    return ((d4.numerator << 4 * k) / d4.denominator) ** 0.25


def same_float(e, n, k):
    """Both routes give the same float, or both find d^4 * 16**k past the
    float range."""
    outcomes = []
    for route in (convergent_distance, convergent_distance_fraction):
        try:
            outcomes.append(route(e, n, k))
        except OverflowError:
            outcomes.append(OverflowError)
    return outcomes[0] == outcomes[1]


def far_expansion(seed, bits=600):
    """The full expansion of a point over a denominator near 2**bits: its
    last |q_n| pass 2**(2 bits - 100)."""
    rng = random.Random(seed)
    den = rng.randrange(2**bits, 2**(bits + 1))
    x, y, t = (Fraction(rng.randrange(den), den) for _ in range(3))
    return expand(from_heis(GaussRat.from_fractions(x, y), t))


class TestConvergentDistanceBits:
    @pytest.mark.parametrize("seed", range(2))
    def test_equals_fraction_route(self, seed):
        e = far_expansion(seed)
        sizes = [e.first_column(n)[0].norm().bit_length() // 2 for n in range(e.depth + 1)]
        assert sizes[-1] > 1100
        # every small index, a stride through the middle and every |q_n| > 2^1100
        for n in sorted({*range(8), *range(0, e.depth + 1, 23),
                         *(n for n, b in enumerate(sizes) if b > 1100)}):
            for k in {0, 37, 600, approx._abs_gi(e.first_column(n)[0])[1]}:
                assert same_float(e, n, k), (n, k)

    def test_seeded_orbits(self):
        # the spec point's h_0 has denominator 5, so d^4 is a quotient of small ints
        for e in [expand(parse_planar_point("(1+i; 1+4/5i)"))] + [
                exact_expansion(seed, length=10) for seed in range(10)]:
            for n in range(e.depth + 1):
                for k in (0, 37, 600):
                    assert same_float(e, n, k), (e.point, n, k)


def _c_n_reference(e, n) -> float:
    """d_n |q_n| from the exact d_n^4, rooted in 200-bit mpmath."""
    d4 = triple_distance_pow4(e.first_column(n), e.iterates[0])
    with mp.workprec(200):
        return float((mpf(d4.numerator) / d4.denominator) ** 0.25
                     * mp.sqrt(e.first_column(n)[0].norm()))


class TestApproxQuality:
    @pytest.mark.parametrize("seed", range(6))
    def test_hard_bounds_hold(self, seed):
        e = exact_expansion(seed)
        for n in range(e.depth):
            rec = approx_quality(e, n)
            assert rec.passed, rec.violations

    def test_ratio_in_comparability_window(self):
        e = exact_expansion(1)
        for n in range(e.depth - 1):
            rec = approx_quality(e, n)
            assert rec.ratio_thm14 is not None
            assert 1.0 / RK_KD <= rec.ratio_thm14 <= RK_KD
            # empirically the ratio hugs 1, far from the worst case
            assert 0.01 < rec.ratio_thm14 < 100

    def test_c_n_below_empirical_ceiling(self):
        for seed in range(6):
            e = exact_expansion(seed)
            for n in range(e.depth):
                assert approx_quality(e, n).c_n <= RAD_KD * RK_KD

    def test_index_bound(self):
        e = exact_expansion(2)
        with pytest.raises(IndexError):
            approx_quality(e, e.depth)

    @pytest.mark.parametrize("seed", range(2))
    def test_beyond_float_range(self, seed):
        # 90 digits take |q_n| past 2**300, where d_n^4 leaves the float
        # range: the ratios stay exact, and so does c_n
        e = exact_expansion(seed, length=90)
        assert e.first_column(e.depth - 1)[0].norm().bit_length() > 600
        for n in range(e.depth):
            rec = approx_quality(e, n)
            assert rec.passed, (n, rec.violations)
            assert math.isclose(rec.c_n, _c_n_reference(e, n), rel_tol=1e-12)

    def test_unscaled_in_float_range(self):
        # wherever |q_n| and d_n are floats the record is today's formulas,
        # bit for bit, though the exponent split starts at |q_n|^2 = 2**500
        e = expand(random_bigfloat_point(random.Random(7), PrecisionContext(1024)), max_depth=270)
        split = 0
        for n in range(e.depth - 1):
            norm = e.first_column(n)[0].norm()
            if norm.bit_length() > 1000:
                break
            split += norm.bit_length() > 500
            rec = approx_quality(e, n)
            q_abs = math.sqrt(norm)
            d_n = convergent_distance(e, n)
            assert (rec.q_abs, rec.d_n, rec.c_n) == (q_abs, d_n, d_n * q_abs)
            assert rec.ratio_thm14 == d_n / math.sqrt(e.v_abs[n + 1] / (q_abs * q_abs))
            assert rec.relsize_n == q_abs * math.prod(e.v_abs[:n], start=1.0)
            if n >= 1:
                qprev = math.sqrt(e.first_column(n - 1)[0].norm())
                assert rec.succ_n == qprev / (e.v_abs[n] * q_abs)
        assert split > 10


def _shrink(q_norm):  # <= 0 from |Q|^2 = 16 on, as prop71's radius can be
    return 1.2 - 0.3 * q_norm**0.5


# (B, dist_fn) of the searches compared with an oracle or the reference
SEARCH_CASES = [(3, None), (5, lambda _: 1.0), (7, lambda _: 0.5), (6, _shrink)]


class TestCandidateSearch:
    def test_spec_point_best(self):
        h = parse_planar_point("(1+i; 1+4/5i)")
        best, d = best_approx_search(h, B=3.0)
        assert d <= distance(triple_to_planar(best), h) + 1e-12
        # the point itself has |q| = 5 > B, so the best is strictly farther
        assert d > 0

    def test_exact_point_found_when_in_range(self):
        h = parse_planar_point("(1+i; 1+4/5i)")
        best, d = best_approx_search(h, B=5.0)
        assert d == 0.0
        assert triple_to_planar(best) == h

    @pytest.mark.parametrize("B", [math.nan, math.inf, 0.5])
    def test_bound_must_be_finite_and_at_least_1(self, B):
        h = parse_planar_point("(1+i; 1+4/5i)")
        with pytest.raises(ValueError, match="finite and at least 1"):
            best_approx_search(h, B)

    def test_point_at_the_float_limit(self):
        # |v| = 2^49 < 2^50: the point is integral and is found
        h = parse_planar_point(f"(0; {2**49}i)")
        assert best_approx_search(h, 1.0)[1] == 0.0
        with pytest.raises(ValueError, match="too large"):
            best_approx_search(parse_planar_point(f"(0; {2**50}i)"), 1.0)

    def test_candidates_are_coprime_and_folded(self):
        h = parse_planar_point("(1/2; 1/8+1/4i)")
        trips = list(candidate_triples(h, B=2.0, dist_fn=lambda _: 1.0))
        assert trips
        for q, r, p in trips:
            assert q.re > 0 and q.im >= 0
            assert _coprime(q.re, q.im, r.re, r.im, p.re, p.im)
        assert len(set(trips)) == len(trips)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_all_associates_oracle(self, seed):
        rng = random.Random(seed)
        h = random_rational_point(rng, length=4, q_norm_max=10**8)
        for B, dist_fn in SEARCH_CASES:
            trips = list(candidate_triples(h, B, dist_fn=dist_fn))
            want = set(candidate_triples_all_associates(h, B, dist_fn=dist_fn))
            assert len(set(trips)) == len(trips)
            assert set(trips) == want

    def test_convergents_beat_all_smaller_denominators(self):
        # each convergent is at least as close as every candidate with
        # a strictly smaller denominator norm (best-approximation flavor)
        e = exact_expansion(3, length=4)
        h = e.point
        n = 1
        qn, rn, pn = e.first_column(n)
        d_n = convergent_distance(e, n)
        for trip in candidate_triples(h, B=math.sqrt(qn.norm()) * 0.5, dist_fn=lambda _: 1.5):
            d = distance(triple_to_planar(ProjIntPoint.reduced(*trip)), h)
            assert d >= d_n - 1e-9 or trip[0].norm() >= qn.norm()


def _nudged(x, ulps):
    """x moved by ulps units in the last place (down for ulps < 0)."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


def _float_point(x, y, t):
    """The exact point with u = x + iy for floats x, y (so complex(u) is
    exact) and Im v = t."""
    x, y = Fraction(x), Fraction(y)
    return SiegelPoint(GaussRat.from_fractions(x, y),
                       GaussRat.from_fractions((x * x + y * y) / 2, Fraction(t)))


def _rim_point(r, direction, dist, ulps):
    """A point on the float rim of the Q = 1 search at radius dist.

    u sits rad = sqrt(2) dist + 1e-9 from R along direction, moved by a few
    ulps, and t makes Im(conj(P) - conj(R) u + v) = 0 for P = |R|^2 / 2, so
    (1 : R : P) lies at the edge of both the R disk and the P prefilter:
    the cells that the margins of the row range and of each row exist for.
    """
    rad = math.sqrt(2.0) * dist + 1e-9
    x, y = (_nudged(c - rad * d, n) for c, d, n in zip(r, direction, ulps))
    return _float_point(x, y, r[0] * Fraction(y) - r[1] * Fraction(x))


def prop71_searches(seeds, q_range, count):
    """(h, B, dist_fn) of the first count prop71_check searches on fixtures
    drawn as `bestapprox` draws them, at the largest n with |q_n| in q_range."""
    calls = []
    lo, hi = q_range
    with pytest.MonkeyPatch.context() as m:
        m.setattr(approx, "candidate_triples",
                  lambda h, B, dist_fn=None: calls.append((h, B, dist_fn)) or iter(()))
        for seed in seeds:
            e = expand(random_rational_point(random.Random(seed), length=5, q_norm_max=10**10))
            ns = [n for n in range(1, e.depth)
                  if lo * lo <= e.first_column(n)[0].norm() <= hi * hi]
            if ns:
                prop71_check(e, max(ns))
            if len(calls) == count:
                break
    assert len(calls) == count and all(f is not None for _, _, f in calls)
    return calls


def search_point(seed, bits):
    """A random rational point, or with bits a random big-float point."""
    rng = random.Random(seed)
    return (random_bigfloat_point(rng, PrecisionContext(bits)) if bits
            else random_rational_point(rng, length=4, q_norm_max=10**8))


class TestRadiusContract:
    """dist_fn is non-increasing in q_norm; candidate_triples checks what it reads."""

    def test_rising_radius_raises_on_a_walked_shell(self):
        h = parse_planar_point("(1+i; 1+4/5i)")
        with pytest.raises(ValueError, match="non-increasing"):
            list(candidate_triples(h, 3.0, lambda q_norm: 0.5 + 0.01 * q_norm))

    def test_rising_radius_raises_on_a_lattice_shell(self):
        # h's own triple, |Q|^2 = 25, lies on the lattice of the shell 16..36
        h = parse_planar_point("(1+i; 1+4/5i)")
        with pytest.raises(ValueError, match="non-increasing"):
            list(candidate_triples(h, 6.0, lambda q_norm: 0.001 * q_norm))

    @pytest.mark.parametrize("seeds, q_range", [
        (range(40), (70, 110)),  # rational-census fixtures
        (range(800, 840), (2, 200)),  # criterion 8 fixtures
    ])
    def test_prop71_radius_non_increasing(self, seeds, q_range):
        for _, B, dist_fn in prop71_searches(seeds, q_range, 3):
            radii = [dist_fn(q_norm) for q_norm in range(1, int(B * B + 1e-9) + 1)]
            assert all(a >= b for a, b in zip(radii, radii[1:]))


class TestSearchMatchesReference:
    """The shell search yields the bounding-square scan's triples, each once.

    The order is no contract: both callers order the triples themselves."""

    @staticmethod
    def same(h, B, dist_fn=None):
        got = list(candidate_triples(h, B, dist_fn=dist_fn))
        assert len(set(got)) == len(got)
        want = sorted(candidate_triples_reference(h, B, dist_fn=dist_fn), key=_trip_key)
        assert sorted(got, key=_trip_key) == want
        return got

    @staticmethod
    def count_routes(monkeypatch):
        """Shells searched on the lattice, and shells walked."""
        ran = {"lattice": 0, "walk": 0}
        lattice, walk = approx._lattice_shell, approx._walk

        def counted_lattice(*args):
            ran["lattice"] += 1
            return lattice(*args)

        def counted_walk(*args):
            ran["walk"] += 1
            return walk(*args)

        monkeypatch.setattr(approx, "_lattice_shell", counted_lattice)
        monkeypatch.setattr(approx, "_walk", counted_walk)
        return ran

    @pytest.mark.parametrize("seed", range(3))
    def test_rational_points(self, seed):
        h = random_rational_point(random.Random(seed), length=4, q_norm_max=10**8)
        assert any(self.same(h, B, f) for B, f in SEARCH_CASES)

    @pytest.mark.parametrize("seed", range(2))
    def test_bigfloat_points(self, seed):
        h = random_bigfloat_point(random.Random(seed), PrecisionContext(512))
        assert any(self.same(h, B, f) for B, f in SEARCH_CASES)

    def test_prop71_radii(self, monkeypatch):
        # prop71_check's own dist_fn on census-style fixtures, |q_n| in [70, 110]
        searches = prop71_searches(range(40), (70, 110), 3)
        ran = self.count_routes(monkeypatch)
        for h, B, dist_fn in searches:
            self.same(h, B, dist_fn)
        assert ran["lattice"]

    def test_prop71_radii_at_large_q(self, monkeypatch):
        # criterion 8 fixtures near its largest |q_n|, in [150, 200]
        searches = prop71_searches(range(900, 960), (150, 200), 2)
        ran = self.count_routes(monkeypatch)
        for h, B, dist_fn in searches:
            self.same(h, B, dist_fn)
        assert ran["lattice"]

    @pytest.mark.parametrize("B, dist", [(30, 0.02), (45, 0.01), (60, 0.05)])
    @pytest.mark.parametrize("bits", [None, 512])
    def test_small_radii_on_the_lattice(self, monkeypatch, B, dist, bits):
        ran = self.count_routes(monkeypatch)
        self.same(search_point(B, bits), B, lambda _: dist)
        assert ran["lattice"] and not ran["walk"]

    @pytest.mark.parametrize("bits", [None, 512])
    def test_shells_on_both_routes(self, monkeypatch, bits):
        # radius 0.1 at B = 40: |Q| rho crosses LATTICE_TAU between shells
        ran = self.count_routes(monkeypatch)
        assert self.same(search_point(40, bits), 40.0, lambda _: 0.1)
        assert ran["lattice"] and ran["walk"]

    @pytest.mark.parametrize("tau", [0.0, math.inf])
    @pytest.mark.parametrize("bits", [None, 512])
    def test_each_route_on_every_shell(self, monkeypatch, tau, bits):
        # LATTICE_TAU 0 walks every shell; inf puts every shell on the
        # lattice, except where fuzz forces the walk
        monkeypatch.setattr(approx, "LATTICE_TAU", tau)
        ran = self.count_routes(monkeypatch)
        for h in (search_point(seed, bits) for seed in range(2)):
            for B, f in SEARCH_CASES:
                self.same(h, B, f)
        if tau:
            assert ran["lattice"]
        else:
            assert ran["walk"] and not ran["lattice"]

    @pytest.mark.parametrize("m", [1, 2, 5, 8, 13, 25])
    def test_bound_near_integer_square(self, m):
        # B*B within 1e-9 of m on either side, and just past it
        h = random_rational_point(random.Random(m), length=4, q_norm_max=10**8)
        root = math.sqrt(m)
        bounds = [root, math.nextafter(root, 0), math.nextafter(root, math.inf),
                  math.sqrt(m - 5e-10), math.sqrt(m + 5e-10), math.sqrt(m - 2e-9)]
        for B in bounds:
            self.same(h, B, lambda _: 0.6)

    @pytest.mark.parametrize(
        "direction", [(1, 0), (-1, 0), (0, 1), (0, -1), (0.6, 0.8), (-0.8, 0.6)])
    def test_rim_cells(self, direction):
        # dist 0.05 and 0.37 search the lattice, the others walk
        found = 0
        for r in [(1, 1), (-1, 1), (1, -3), (2, 0), (-3, 1)]:
            for dist in (0.05, 0.37, 0.84, 1.083, 1.65):
                for ulps in [(i, j) for i in range(-3, 4) for j in range(-3, 4)]:
                    h = _rim_point(r, direction, dist, ulps)
                    found += any(t[1] == GaussInt(*r) for t in self.same(h, 1.0, lambda _: dist))
        assert found

    @pytest.mark.parametrize("dist", [0.05, 0.37, 0.84, 1.083, 1.65])
    def test_p_segment_ends(self, dist):
        # u = R and Im v = +-rho, a few ulps either way: P = |R|^2 / 2 lies
        # on the prefilter's rim along the P line, at an end of its t window
        db2 = dist * dist
        rho = math.sqrt(db2 * db2 * 1.000001 + 1e-9)
        found = 0
        for r in [(1, 1), (2, 0), (-1, 3)]:
            p = GaussInt((r[0] ** 2 + r[1] ** 2) // 2, 0)
            for sign in (1, -1):
                for n in range(-3, 4):
                    h = _float_point(*r, sign * _nudged(rho, n))
                    found += any(t[2] == p for t in self.same(h, 1.0, lambda _: dist))
        assert found


class TestProp71:
    @pytest.mark.parametrize("seed", range(4))
    def test_no_violations_on_random_fixtures(self, seed):
        rng = random.Random(seed)
        h = random_rational_point(rng, length=5, q_norm_max=10**10)
        e = expand(h)
        ns = [n for n in range(1, e.depth) if e.first_column(n)[0].norm() <= 200**2]
        if not ns:
            pytest.skip("expansion too shallow")
        rep = prop71_check(e, max(ns))
        assert rep.violations_stated == []
        assert rep.violations_thm16 == []

    def test_violations_listed_in_triple_order(self, monkeypatch):
        rng = random.Random(2)
        e = expand(random_rational_point(rng, length=4, q_norm_max=10**8))
        searched = []

        def recorded(*args, **kwargs):
            searched.extend(candidate_triples(*args, **kwargs))
            return iter(searched)

        monkeypatch.setattr(approx, "candidate_triples", recorded)
        monkeypatch.setattr(approx, "RK_KD", 1.0)
        rep = prop71_check(e, 1)
        assert len(rep.violations_stated) > 1
        order = [[str(g) for g in t] for t in sorted(searched, key=_trip_key)]
        listed = [v["triple"] for v in rep.violations_stated]
        assert listed == [t for t in order if t in listed]

        def reversed_search(*args, **kwargs):
            return reversed(list(candidate_triples(*args, **kwargs)))

        monkeypatch.setattr(approx, "candidate_triples", reversed_search)
        assert prop71_check(e, 1).as_dict() == rep.as_dict()

    def test_report_fields(self):
        rng = random.Random(11)
        h = random_rational_point(rng, length=4, q_norm_max=10**8)
        e = expand(h)
        rep = prop71_check(e, 1)
        d = rep.as_dict()
        assert d["n"] == 1
        assert d["thm16_cutoff"] < 1.0  # vacuous at these sizes
        assert d["bound_proof"] is not None
