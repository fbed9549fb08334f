import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import mpf
from mpmath.libmp import from_int, mpf_div, round_nearest

from heiscf.cf import expand
from heiscf.domain import integer_point
from heiscf.errors import BackendMismatch, InversionAtOrigin, ParseError
from heiscf.gaussian import GaussInt, GaussRat, _rat
from heiscf.lab.enumerate import enumerate_rationals_qnorm, kprime_region
from heiscf.lab.random_points import random_rational_point
from heiscf.matrices import J, digit_matrix, mat_apply, mat_apply_triple
from heiscf.siegel import (
    IntegerPoint,
    PrecisionContext,
    ProjIntPoint,
    SiegelPoint,
    _linear_form,
    _rat_quotient,
    abs_sq,
    distance,
    distance_pow4,
    exact_triple,
    from_heis,
    group_inv,
    group_mul,
    koranyi_inversion,
    linear_form_terms,
    parse_heis_point,
    parse_planar_point,
    to_heis,
    triple_distance_pow4,
    triple_to_planar,
)


def rational_point(zr, zi, t):
    """Exact model point from Heisenberg coordinates."""
    z = GaussRat.from_fractions(Fraction(zr), Fraction(zi))
    return from_heis(z, Fraction(t))


def proj_point(h):
    """The lowest-terms triple of an exact point, q canonical."""
    return ProjIntPoint.reduced(*exact_triple(h))


heis_coords = st.tuples(
    st.fractions(min_value=-3, max_value=3, max_denominator=16),
    st.fractions(min_value=-3, max_value=3, max_denominator=16),
    st.fractions(min_value=-3, max_value=3, max_denominator=16),
)


class TestModelConstraint:
    def test_origin(self):
        o = SiegelPoint.origin()
        assert o.is_origin()

    def test_constraint_enforced(self):
        with pytest.raises(ValueError):
            SiegelPoint(
                GaussRat.from_int(GaussInt(1, 0)), GaussRat.from_int(GaussInt(1, 0))
            )

    @given(heis_coords)
    def test_from_heis_lands_on_model(self, c):
        h = rational_point(*c)
        # |u|^2 = 2 Re v exactly
        assert h.u.abs_sq() == 2 * h.v.re()

    @given(heis_coords)
    def test_heis_round_trip(self, c):
        h = rational_point(*c)
        assert from_heis(*to_heis(h)) == h


class TestBigFloatPoints:
    """The public big-float branches of the point API against the exact ones."""

    @pytest.mark.parametrize("bits", [64, 512])
    def test_origin(self, bits):
        ctx = PrecisionContext(bits)
        o = SiegelPoint.origin(ctx)
        assert o.is_origin() and not o.exact and o.ctx == ctx
        assert o == SiegelPoint.origin().to_bigfloat(ctx)
        assert str(o) == "(0.0; 0.0)"  # real parts alone: no imaginary part printed

    @given(heis_coords)
    @settings(max_examples=40)
    def test_heis_round_trip(self, c):
        ctx = PrecisionContext(128)
        h = rational_point(*c)
        big = h.to_bigfloat(ctx)
        z, t = to_heis(big)
        want_z, want_t = to_heis(h)
        back = from_heis(z, t, ctx)
        with ctx.work():
            tol = ctx.check_scale * max(1, abs(big.u), abs(big.v))
            assert abs(z - _rat_quotient(want_z)) <= tol
            assert abs(t - mpf(want_t.numerator) / want_t.denominator) <= tol
            assert abs(back.u - big.u) <= tol and abs(back.v - big.v) <= tol


class TestGroupLaw:
    @given(heis_coords, heis_coords)
    @settings(max_examples=60)
    def test_closure(self, c1, c2):
        a, b = rational_point(*c1), rational_point(*c2)
        ab = group_mul(a, b)
        assert ab.u.abs_sq() == 2 * ab.v.re()

    @given(heis_coords, heis_coords, heis_coords)
    @settings(max_examples=40)
    def test_associative(self, c1, c2, c3):
        a, b, c = (rational_point(*x) for x in (c1, c2, c3))
        assert group_mul(group_mul(a, b), c) == group_mul(a, group_mul(b, c))

    @given(heis_coords)
    def test_inverse(self, c):
        a = rational_point(*c)
        assert group_mul(a, group_inv(a)).is_origin()
        assert group_mul(group_inv(a), a).is_origin()

    @given(heis_coords)
    def test_identity(self, c):
        a = rational_point(*c)
        o = SiegelPoint.origin()
        assert group_mul(a, o) == a and group_mul(o, a) == a


class TestKoranyiInversion:
    @given(heis_coords.filter(lambda c: c != (0, 0, 0)))
    @settings(max_examples=60)
    def test_involution(self, c):
        a = rational_point(*c)
        if a.v.is_zero():
            return
        assert koranyi_inversion(koranyi_inversion(a)) == a

    def test_origin_raises(self):
        with pytest.raises(InversionAtOrigin):
            koranyi_inversion(SiegelPoint.origin())

    @given(heis_coords.filter(lambda c: c != (0, 0, 0)))
    @settings(max_examples=60)
    def test_norm_reciprocal(self, c):
        a = rational_point(*c)
        if a.v.is_zero():
            return
        ia = koranyi_inversion(a)
        assert ia.v.abs_sq() * a.v.abs_sq() == 1


class TestDistance:
    def test_norm_is_distance_to_origin(self):
        a = rational_point(Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))
        assert math.isclose(float(a.v.abs_sq()) ** 0.25, distance(SiegelPoint.origin(), a))

    @given(heis_coords, heis_coords)
    @settings(max_examples=60)
    def test_symmetric(self, c1, c2):
        a, b = rational_point(*c1), rational_point(*c2)
        assert distance_pow4(a, b) == distance_pow4(b, a)

    @given(heis_coords, heis_coords, heis_coords)
    @settings(max_examples=40)
    def test_left_invariant(self, c1, c2, c3):
        g, a, b = (rational_point(*x) for x in (c1, c2, c3))
        assert distance_pow4(a, b) == distance_pow4(group_mul(g, a), group_mul(g, b))

    @given(heis_coords, heis_coords, heis_coords)
    @settings(max_examples=40)
    def test_triangle_inequality(self, c1, c2, c3):
        a, b, c = (rational_point(*x) for x in (c1, c2, c3))
        assert distance(a, c) <= distance(a, b) + distance(b, c) + 1e-9

    def test_ball_volume_monte_carlo(self):
        # Vol(B_r) = (pi^2 / 2) r^4 in (z, t) coordinates: estimate the
        # unit-ball volume by sampling the box |z| <= 1, |t| <= 1
        rng = np.random.default_rng(42)
        n = 200_000
        zr = rng.uniform(-1, 1, n)
        zi = rng.uniform(-1, 1, n)
        t = rng.uniform(-1, 1, n)
        # gauge norm^4 of (z, t): |v|^2 with v = |z|^2 + ti
        r4 = (zr * zr + zi * zi) ** 2 + t * t
        vol = 8.0 * np.mean(r4 <= 1.0)
        assert abs(vol - math.pi**2 / 2) < 0.05


class TestIntegerPoints:
    def test_parity_invariant(self):
        with pytest.raises(ValueError):
            IntegerPoint(GaussInt(1, 0), GaussInt(1, 3))  # 1 + 0 odd

    def test_is_integer_point(self):
        """IntegerPoint accepts (u, v) iff 2 Re(v) = |u|^2."""
        IntegerPoint(GaussInt(1, 1), GaussInt(1, 1))
        IntegerPoint(GaussInt(0, 0), GaussInt(0, 5))
        with pytest.raises(ValueError):
            IntegerPoint(GaussInt(1, 1), GaussInt(2, 0))

    def test_group_ops(self):
        g = IntegerPoint(GaussInt(1, 1), GaussInt(1, 2))
        inv = g.inv()
        prod = g.mul(inv)
        assert prod.u.is_zero() and prod.v.is_zero()


class TestProjective:
    def test_round_trip(self):
        h = rational_point(Fraction(1, 2), Fraction(1, 3), Fraction(2, 7))
        trip = proj_point(h)
        assert triple_to_planar(trip) == h

    @given(heis_coords)
    @settings(max_examples=60)
    def test_round_trip_property(self, c):
        h = rational_point(*c)
        assert triple_to_planar(proj_point(h)) == h

    def test_constraint(self):
        with pytest.raises(ValueError):
            ProjIntPoint(GaussInt(1, 0), GaussInt(1, 0), GaussInt(1, 0))

    @pytest.mark.parametrize(
        "c",
        [
            (Fraction(1, 6), Fraction(1, 4), Fraction(5, 12)),
            (Fraction(2, 15), Fraction(-1, 10), Fraction(7, 30)),
            (Fraction(1, 4), Fraction(1, 4), Fraction(1, 8)),
            (Fraction(-3, 14), Fraction(5, 21), Fraction(1, 6)),
        ],
    )
    def test_round_trip_shared_denominators(self, c):
        h = rational_point(*c)
        assert math.gcd(h.u.d, h.v.d) > 1
        pt = proj_point(h)
        assert triple_to_planar(pt) == h
        # lowest terms with canonical q: reducing any multiple gives it back
        lam = GaussInt(2, 1)
        assert ProjIntPoint.reduced(lam * pt.q, lam * pt.r, lam * pt.p) == pt


class TestProjIntPointIsItsTriple:
    """A ProjIntPoint gives what its plain (q, r, p) tuple gives, wherever
    a triple is taken: census points and convergents of seeded expansions."""

    @pytest.mark.parametrize("seed", range(6))
    def test_same_results_as_tuple(self, seed):
        e = expand(random_rational_point(random.Random(seed), length=5))
        region = kprime_region(0.0)
        census = [t for m in (2, 4, 5) for t in enumerate_rationals_qnorm(m, region).points]
        points = [ProjIntPoint(*t) for t in census] + e.convergents()
        ctx = PrecisionContext(128)
        h, big = e.iterates[0], e.iterates[0].to_bigfloat(ctx)
        assert points
        for pt in points:
            tup = (pt.q, pt.r, pt.p)
            assert tuple(pt) == tup
            assert triple_to_planar(pt) == triple_to_planar(tup)
            assert triple_to_planar(pt, ctx) == triple_to_planar(tup, ctx)
            for x in (h, big):
                assert triple_distance_pow4(pt, x) == triple_distance_pow4(tup, x)
                with x.work():
                    assert linear_form_terms(pt, x) == linear_form_terms(tup, x)
            for m in (J, e.continuants[-1]):
                assert mat_apply_triple(m, pt) == mat_apply_triple(m, tup)


class TestTripleDistance:
    """d^4 from a raw integer triple equals the planar route's d^4."""

    @given(
        heis_coords,
        heis_coords,
        st.sampled_from([(1, 0), (-1, 0), (0, 1), (2, 1), (-3, 5), (6, 0)]),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_multiple_matches_planar_route(self, c1, c2, lam):
        pt = proj_point(rational_point(*c1))
        h = rational_point(*c2)
        want = distance_pow4(triple_to_planar(pt), h)
        lam = GaussInt(*lam)
        trip = (lam * pt.q, lam * pt.r, lam * pt.p)
        assert triple_distance_pow4(trip, h) == want
        ctx = PrecisionContext(256)
        got = triple_distance_pow4(trip, h.to_bigfloat(ctx))
        with ctx.work():
            tol = ctx.check_scale * max(1, abs(want))
            assert abs(got - mpf(want.numerator) / want.denominator) <= tol


class TestIntegerLinearForm:
    """At an exact point the linear form conj(p) - conj(r) u + conj(q) v and
    d^4 are formed in integers over the point's own triple (Q, R, P); they
    equal the GaussRat route they replaced, the terms of linear_form_terms
    added, and |.|^2 / |q|^2."""

    @staticmethod
    def gaussrat_route(triple, h) -> tuple:
        t1, t2, t3 = linear_form_terms(triple, h)
        q, _, _ = triple
        return t1 - t2 + t3, abs_sq(t1 - t2 + t3) / q.norm()

    @given(
        heis_coords,
        heis_coords,
        st.sampled_from([(1, 0), (-1, 0), (0, 1), (2, 1), (-3, 5), (6, 0)]),
    )
    @example((Fraction(1, 3), Fraction(0), Fraction(1, 5)), (0, 0, Fraction(3, 7)), (2, 1))  # u = 0
    @example((Fraction(1, 3), Fraction(0), Fraction(1, 5)), (Fraction(1, 2), 0, Fraction(1, 3)), (1, 0))
    @settings(max_examples=60, deadline=None)
    def test_matches_gaussrat_route(self, c1, c2, lam):
        pt = proj_point(rational_point(*c1))
        h = rational_point(*c2)
        lam = GaussInt(*lam)
        # a ProjIntPoint and a multiple of its triple, at one point: the
        # second round reads the triple the first computed
        triples = [pt, (lam * pt.q, lam * pt.r, lam * pt.p)]
        for trip in triples * 2:
            want_form, want_d4 = self.gaussrat_route(trip, h)
            (tq, _, _), (q, form, terms) = trip, _linear_form(trip, h)
            assert q == GaussRat.from_int(tq)
            assert _rat(*form) == want_form and terms() == linear_form_terms(trip, h)
            assert triple_distance_pow4(trip, h) == want_d4
        assert vars(h)["_triple"] == exact_triple(h)

    def test_examples_cover_zero_u_and_unequal_denominators(self):
        assert not rational_point(0, 0, Fraction(3, 7)).u
        h = rational_point(Fraction(1, 2), 0, Fraction(1, 3))
        assert (h.u.d, h.v.d) == (2, 12)

    def test_big_floats_add_the_terms(self):
        h = rational_point(Fraction(1, 3), Fraction(-2, 5), Fraction(1, 7))
        pt = proj_point(rational_point(Fraction(1, 2), 0, Fraction(1, 3)))
        big = h.to_bigfloat(PrecisionContext(128))
        with big.work():
            q, form, terms = _linear_form(pt, big)
            t1, t2, t3 = linear_form_terms(pt, big)
            assert q._mpc_ == big.lift(pt.q)._mpc_
            assert form == t1 - t2 + t3 and terms() == (t1, t2, t3)


class TestParsing:
    def test_planar(self):
        h = parse_planar_point("(1+i; 1+4/5i)")
        assert h.u == GaussRat.from_int(GaussInt(1, 1))
        assert h.v.re() == 1 and h.v.im() == Fraction(4, 5)

    def test_planar_garbage(self):
        with pytest.raises(ParseError):
            parse_planar_point("(1+i)")
        with pytest.raises(ParseError):
            parse_planar_point("nonsense")

    def test_heis_forms(self):
        assert parse_heis_point("heis(1/2; 1/3)") == parse_heis_point("1/2, 1/3")

    @given(heis_coords)
    def test_heis_literal_is_its_planar_point(self, c):
        """Exact: from_heis of a parsed heis literal is the parsed planar
        literal of the same point."""
        h = rational_point(*c)
        z, t = to_heis(h)
        assert from_heis(*parse_heis_point(f"{z}, {t}")) == parse_planar_point(str(h)) == h

    def test_str_round_trip(self):
        h = parse_planar_point("(1+i; 1+4/5i)")
        assert parse_planar_point(str(h)) == h


def term(n: int, d: int, imag: bool = False) -> str:
    """n/d as a literal term; an imaginary one carries its sign and an i."""
    if not imag:
        return f"{n}/{d}"
    return f"{'-' if n < 0 else '+'}{abs(n)}/{d}i"


def rounded_once(x: Fraction, bits: int) -> tuple:
    return mpf_div(from_int(x.numerator), from_int(x.denominator), bits, round_nearest)


# numerators wider than 512 bits, so that every tested precision rounds them
wide_fractions = st.builds(
    lambda sign, n, d: Fraction(sign * n, d),
    st.sampled_from([1, -1]),
    st.integers(2**520, 2**600),
    st.integers(1, 2**600),
)


class TestLiteralRounding:
    """A literal enters the big-float backend with each part correctly
    rounded: one division of its exact numerator by its denominator."""

    @given(wide_fractions, wide_fractions, wide_fractions, st.sampled_from([64, 128, 512]))
    @settings(max_examples=150, deadline=None)
    def test_heis_literal(self, x, y, t, bits):
        s = term(x.numerator, x.denominator) + term(y.numerator, y.denominator, True)
        z, tm = parse_heis_point(f"{s}, {term(t.numerator, t.denominator)}", PrecisionContext(bits))
        assert z._mpc_ == (rounded_once(x, bits), rounded_once(y, bits))
        assert tm._mpf_ == rounded_once(t, bits)

    @given(wide_fractions, wide_fractions, wide_fractions, st.sampled_from([64, 128, 512]))
    @settings(max_examples=150, deadline=None)
    def test_planar_literal_of_surface_point(self, x, y, t, bits):
        v_re = (x * x + y * y) / 2  # on the surface exactly
        u_s = term(x.numerator, x.denominator) + term(y.numerator, y.denominator, True)
        v_s = term(v_re.numerator, v_re.denominator) + term(t.numerator, t.denominator, True)
        ctx = PrecisionContext(bits)
        h = parse_planar_point(f"({u_s}; {v_s})", ctx)
        assert h.u._mpc_ == (rounded_once(x, bits), rounded_once(y, bits))
        assert h.v._mpc_ == (rounded_once(v_re, bits), rounded_once(t, bits))
        assert parse_planar_point(f"({u_s}; {v_s})").to_bigfloat(ctx) == h


class TestBackendMismatch:
    def test_mixed_backends_raise(self):
        ex = rational_point(Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))
        big = ex.to_bigfloat(PrecisionContext(128))
        with pytest.raises(BackendMismatch):
            group_mul(ex, big)
        with pytest.raises(BackendMismatch):
            group_mul(big, ex.to_bigfloat(PrecisionContext(256)))
        with pytest.raises(BackendMismatch):
            distance_pow4(big, ex)
        with pytest.raises(BackendMismatch):
            big.to_bigfloat(None)
        assert ex.to_bigfloat(None) is ex


class TestBigfloatBackend:
    def test_precision_context_floor(self):
        with pytest.raises(ValueError):
            PrecisionContext(32)

    def test_constraint_repair_tolerance(self):
        ctx = PrecisionContext(64)
        h = parse_planar_point("(1+i; 1+4/5i)", ctx)
        assert not h.exact
        assert h.ctx.bits == 64

    def test_group_ops_match_exact(self):
        ctx = PrecisionContext(128)
        a_ex = rational_point(Fraction(1, 2), Fraction(1, 3), Fraction(1, 5))
        b_ex = rational_point(Fraction(-1, 4), Fraction(2, 3), Fraction(-1, 7))
        ab_ex = group_mul(a_ex, b_ex)
        ab_big = group_mul(a_ex.to_bigfloat(ctx), b_ex.to_bigfloat(ctx))
        with ctx.work():
            assert abs(complex(ab_big.u) - complex(float(ab_ex.u.re()), float(ab_ex.u.im()))) < 1e-12
            assert abs(complex(ab_big.v) - complex(float(ab_ex.v.re()), float(ab_ex.v.im()))) < 1e-12
        # the same operation code on both backends: exact and 256-bit agree
        # within check_scale for group_mul, group_inv, mat_apply, distance_pow4
        ctx = PrecisionContext(256)
        a_big, b_big = a_ex.to_bigfloat(ctx), b_ex.to_bigfloat(ctx)
        m = digit_matrix(integer_point(2, 0, 3))
        pairs = [
            (group_mul(a_ex, b_ex), group_mul(a_big, b_big)),
            (group_inv(b_ex), group_inv(b_big)),
            (mat_apply(m, a_ex), mat_apply(m, a_big)),
        ]
        d4_ex = distance_pow4(a_ex, b_ex)
        d4_big = distance_pow4(a_big, b_big)
        with ctx.work():
            for ex, big in pairs:
                assert big.ctx == ctx
                want = ex.to_bigfloat(ctx)
                assert abs(big.u - want.u) <= ctx.check_scale
                assert abs(big.v - want.v) <= ctx.check_scale
            assert abs(d4_big - mpf(d4_ex.numerator) / d4_ex.denominator) <= ctx.check_scale

    def test_inversion_projects_back_to_model(self):
        ctx = PrecisionContext(64)
        h = parse_planar_point("(1+i; 1+4/5i)", ctx)
        ih = koranyi_inversion(h)
        with ctx.work():
            # constraint holds after repair
            assert abs(abs(ih.u) ** 2 - 2 * ih.v.real) < 1e-15
