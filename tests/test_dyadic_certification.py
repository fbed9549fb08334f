"""Big floats certified in exact dyadic arithmetic.

An mpf is a dyadic rational, so the nearest-integer kernel ranks big
floats as integers over one power-of-two denominator, and every
tolerance check compares exact squares.  These tests hold that machinery
to two oracles: the rounded mpf kernel the integer ranking replaced, and
exact Fractions read off each mpf with mpmath.libmp.to_rational.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc, mpf
from mpmath.libmp import (
    finf,
    fnan,
    fninf,
    fone,
    from_man_exp,
    from_rational,
    fzero,
    mpc_abs,
    mpc_div,
    mpc_neg,
    mpf_add,
    mpf_hypot,
    mpf_mul,
    mpf_neg,
    mpf_shift,
    mpf_sqrt,
    mpf_sub,
    round_nearest,
    to_rational,
)

import heiscf.cf
import heiscf.domain
from heiscf.cf import expand
from heiscf.domain import DirichletDomain, _dyadic, _ranked_candidates, integer_point
from heiscf.errors import AmbiguousNearestInteger, CertificationError
from heiscf.gaussian import GaussRat
from heiscf.lab.identities import IdentityReport
from heiscf.siegel import (
    PrecisionContext,
    SiegelPoint,
    _hypot,
    _max_sq,
    _sqrt,
    abs_sq,
    abs_sq_exact,
    group_mul,
    koranyi_inversion,
)

K = DirichletDomain()
BITS = st.sampled_from([64, 128, 512])
ODD_BITS = st.sampled_from([64, 65, 128, 512])  # check_scale at 65 bits is no power of two


def rat(x: mpf) -> Fraction:
    """The exact value of an mpf."""
    return Fraction(*to_rational(x._mpf_))


def to_mpf(x: Fraction, bits: int) -> mpf:
    """x rounded once to a bits-bit mantissa."""
    return mp.make_mpf(from_rational(x.numerator, x.denominator, bits, round_nearest))


def step(x: mpf, k: int, bits: int) -> mpf:
    """Nonzero x moved by k units in the last place of a bits-bit mantissa."""
    sign, man, exp, bc = x._mpf_
    shift = bits - bc
    m = (-man if sign else man) << shift
    return mp.make_mpf(from_man_exp(m + k, exp - shift, bits, round_nearest))


def point(ctx, ure, uim, vim, vre=None) -> SiegelPoint:
    """(ure + uim i; vre + vim i) at ctx; Re v = |u|^2 / 2 rounded if not given."""
    with ctx.work():
        u = mpc(ure, uim)
        return SiegelPoint(u, mpc(abs_sq(u) / 2 if vre is None else vre, vim), ctx)


def ulp_moved(x: Fraction, k: int, bits: int) -> Fraction:
    """Dyadic x moved by k units in the last place of a bits-bit mantissa."""
    e = abs(x.numerator).bit_length() - x.denominator.bit_length() if x else -bits
    return x + k * Fraction(2) ** (e - bits + 1)


def exact_mpf(x: Fraction) -> tuple:
    """A dyadic Fraction as a raw mpf, exactly."""
    return from_man_exp(x.numerator, 1 - x.denominator.bit_length())


def exact_sq(x) -> Fraction:
    """|x|^2 of an mpc or an mpf, in Fractions."""
    if isinstance(x, mpf):
        return rat(x) ** 2
    return rat(x.real) ** 2 + rat(x.imag) ** 2


# ---------------------------------------------------------------------------
# Oracles


def ranked_candidates_mpf(ure, uim, vim):
    """The rounded mpf kernel that ranked big floats before they entered the
    integer kernel: floored and keyed at the working precision."""
    s0, t0 = int(mp.floor((ure + uim) / 2)), int(mp.floor((ure - uim) / 2))
    ranked = []
    for s in (s0, s0 + 1):
        for t in (t0, t0 + 1):
            a, b = s + t, s - t
            du_sq = (ure - a) ** 2 + (uim - b) ** 2
            if 5 * du_sq > 8:
                continue
            delta = vim - (a * uim - b * ure)
            c0 = int(mp.floor(delta))
            for c in (c0,) if delta == c0 else (c0, c0 + 1):
                ranked.append((du_sq**2 + 4 * (delta - c) ** 2, a, b, c))
    ranked.sort()
    return ranked


def mpf_kernel(h):
    """Candidate order and ambiguity as the rounded mpf kernel decides them."""
    with h.ctx.work():
        ranked = ranked_candidates_mpf(h.u.real, h.u.imag, h.v.imag)
        tol = h.ctx.check_scale * max(mpf(1), abs(h.v))
        ambiguous = len(ranked) > 1 and ranked[1][0] - ranked[0][0] < 4 * tol
    return [x[1:] for x in ranked], ambiguous


def integer_kernel(h):
    """Candidate order of the integer kernel and whether nearest() refuses."""
    (ure, uim, vim), k = _dyadic(*h.u._mpc_, h.v._mpc_[1])
    order = [x[1:] for x in _ranked_candidates(ure, uim, vim, 1 << k)]
    try:
        K.nearest(h)
    except AmbiguousNearestInteger:
        return order, True
    return order, False


def below_scaled(x: Fraction, k: int, ctx, v_sq: Fraction) -> bool:
    """x < k check_scale max(1, |v|) for x >= 0, in Fractions."""
    bound = k * rat(ctx.check_scale)
    return x < bound or x * x < bound * bound * v_sq


def above_scaled(x: Fraction, k: int, ctx, v_sq: Fraction) -> bool:
    """x > k check_scale max(1, |v|) for x >= 0, in Fractions."""
    bound = k * rat(ctx.check_scale)
    return x > bound and x * x > bound * bound * v_sq


def rational_ranking(h):
    """(4 d4, a, b, c, delta) for each candidate, best first, in exact Fractions."""
    ure, uim, vim = (rat(x) for x in (h.u.real, h.u.imag, h.v.imag))
    s0, t0 = (ure + uim) // 2, (ure - uim) // 2
    ranked = []
    for s in (s0, s0 + 1):
        for t in (t0, t0 + 1):
            a, b = s + t, s - t
            du_sq = (ure - a) ** 2 + (uim - b) ** 2
            if 5 * du_sq > 8:
                continue
            delta = vim - (a * uim - b * ure)
            c0 = delta // 1
            for c in (c0,) if delta == c0 else (c0, c0 + 1):
                ranked.append((du_sq**2 + 4 * (delta - c) ** 2, a, b, c, delta))
    ranked.sort()
    return ranked


def rational_kernel(h):
    """Candidate order and ambiguity in exact Fractions."""
    ranked = rational_ranking(h)
    v_sq = rat(h.v.real) ** 2 + rat(h.v.imag) ** 2
    gap = ranked[1][0] - ranked[0][0] if len(ranked) > 1 else None
    return [x[1:4] for x in ranked], gap is not None and below_scaled(gap, 4, h.ctx, v_sq)


def resolved_by_rounding(h) -> bool:
    """Whether the rounded kernel sees the exact candidate list: no two keys
    and no delta and integer closer than 2^-(bits-16) relative to their size.
    Closer than that, rounding can merge keys (which then rank by (a, b, c))
    or round delta onto an integer (which then takes a single c)."""
    slack = Fraction(1, 2 ** (h.ctx.bits - 16))
    ranked = rational_ranking(h)
    keys = [x[0] for x in ranked]
    if any(k2 - k1 <= slack * (1 + k2) for k1, k2 in zip(keys, keys[1:])):
        return False
    return all(d == d // 1 or slack * (1 + abs(d)) < min(d - d // 1, d // 1 + 1 - d)
               for d in {x[4] for x in ranked})


# ---------------------------------------------------------------------------
# Points


@st.composite
def generic_points(draw):
    """Dyadic Re u, Im u, Im v with bits-bit mantissas in a box around K_D."""
    bits = draw(BITS)
    den = 2 ** (bits - 3)
    ure, uim, vim = (Fraction(draw(st.integers(-lim * den, lim * den)), den) for lim in (3, 3, 6))
    ctx = PrecisionContext(bits)
    return point(ctx, *(to_mpf(x, bits) for x in (ure, uim, vim)))


def tie_coordinates():
    """(Re u, Im u, Im v) of exact ties between nearest-integer candidates,
    left-translated so that the lexicographic winner changes."""
    base = [(Fraction(1), Fraction(0), Fraction(1, 2), Fraction(t)) for t in (-2, 0, 3)]
    base += [(Fraction(0), Fraction(0), Fraction(0), Fraction(t, 2)) for t in (-3, 1, 5)]
    shifts = [integer_point(0, 0, 0), integer_point(1, 1, -2), integer_point(-3, 1, 4)]
    out = []
    for ure, uim, vre, vim in base:
        w = SiegelPoint(GaussRat.from_fractions(ure, uim), GaussRat.from_fractions(vre, vim))
        for g in shifts:
            x = group_mul(g.to_siegel(), w)
            out.append((x.u.re(), x.u.im(), x.v.im()))
    return out


@st.composite
def near_tie_points(draw):
    """A tie moved a few ulps in each of Re u, Im u and Im v."""
    bits = draw(BITS)
    coords = draw(st.sampled_from(tie_coordinates()))
    moved = [ulp_moved(x, draw(st.integers(-4, 4)), bits) for x in coords]
    return point(PrecisionContext(bits), *(to_mpf(x, bits) for x in moved))


def gap_boundary(ctx, vre, c):
    """Im v at which the runner-up (0, 0, c + 1) trails (0, 0, c) by exactly
    4 check_scale max(1, |v|), for u near the origin and the given Re v.

    With delta = Im v the keys are |u|^4 + 4 (delta - c)^2 and
    |u|^4 + 4 (c + 1 - delta)^2, so delta = c + 1/2 - eps leaves a gap of
    8 eps whatever u is.  The bound depends on |v| in turn: three
    fixed-point rounds at four times the precision settle it.
    """
    with mp.workprec(4 * ctx.bits):
        vim = mpf(c) + mpf(1) / 2
        for _ in range(3):
            tol = ctx.check_scale * max(mpf(1), mp.sqrt(vre**2 + vim**2))
            vim = c + mpf(1) / 2 - tol / 2
        return vim


def on_surface(ctx, vre, vim) -> SiegelPoint:
    """(sqrt(2 Re v); Re v + Im v i), the root rounded once."""
    with mp.workprec(4 * ctx.bits):
        ure = to_mpf(rat(mp.sqrt(2 * vre)), ctx.bits)
    return point(ctx, ure, mpf(0), vim, vre)


@st.composite
def gap_points(draw, within_ulps):
    """Points whose certification gap lies near 4 tol: a relative 2^-8 to
    either side, or (within_ulps) one or two ulps of one coordinate from it.

    The gap 8 eps moves with Im v in steps far coarser than the rounding of
    the bound, so beyond |v| = 1, where the bound is 4 check_scale |v|, the
    points keep Im v and step Re v, which moves |v| by a fraction of an ulp.
    """
    bits = draw(BITS)
    ctx = PrecisionContext(bits)
    c = draw(st.integers(-3, 2))
    vre = to_mpf(Fraction(draw(st.integers(1, 100)), 1000), bits)
    vim = gap_boundary(ctx, vre, c)
    if not within_ulps:
        sign = draw(st.sampled_from([-1, 1]))
        with mp.workprec(4 * bits):
            eps = c + mpf(1) / 2 - vim
            vim = c + mpf(1) / 2 - eps * (1 + sign * mpf(2) ** -8)
        return on_surface(ctx, vre, to_mpf(rat(vim), bits))
    k = draw(st.integers(-2, 2))
    vim = to_mpf(rat(vim), bits)
    with mp.workprec(4 * bits):
        v_abs = 2 * (c + mpf(1) / 2 - vim) / ctx.check_scale  # 8 eps = 4 cs |v|
        if v_abs <= 1:
            vim = step(vim, k, bits)
        else:
            vre = step(to_mpf(rat(mp.sqrt(v_abs**2 - vim**2)), bits), k, bits)
    return on_surface(ctx, vre, vim)


# ---------------------------------------------------------------------------
# The integer kernel against the rounded one and the exact one


class TestIntegerKernelDifferential:
    @given(st.one_of(generic_points(), near_tie_points(), gap_points(within_ulps=False)))
    @settings(max_examples=300, deadline=None)
    def test_same_order_and_decision_as_mpf_kernel(self, h):
        order, ambiguous = integer_kernel(h)
        mpf_order, mpf_ambiguous = mpf_kernel(h)
        assert ambiguous == mpf_ambiguous
        if resolved_by_rounding(h):
            assert order == mpf_order
        elif not ambiguous:
            assert order[0] == mpf_order[0]

    @given(st.one_of(generic_points(), near_tie_points(), gap_points(within_ulps=True)))
    @settings(max_examples=300, deadline=None)
    def test_same_order_and_decision_as_fractions(self, h):
        assert integer_kernel(h) == rational_kernel(h)

    @given(gap_points(within_ulps=False))
    @settings(max_examples=60, deadline=None)
    def test_gap_points_rank_two_c_over_the_origin(self, h):
        # the gap the strategy sets is the one between the two best candidates
        order, _ = integer_kernel(h)
        assert order[0][:2] == order[1][:2] == (0, 0)

    def test_gap_points_reach_both_decisions(self):
        ctx = PrecisionContext(128)
        decisions = set()
        for c in (-3, 0, 2):
            vim = gap_boundary(ctx, mpf(0), c)
            for k in (-64, 64):
                h = point(ctx, mpf(0), mpf(0), step(to_mpf(rat(vim), 128), k, 128))
                decisions.add(integer_kernel(h)[1])
                assert resolved_by_rounding(h)
                assert integer_kernel(h) == mpf_kernel(h) == rational_kernel(h)
        assert decisions == {True, False}

    def test_dyadic_numerators(self):
        x, y, z = mpf(3) / 4, mpf(-5), mpf(0)
        assert _dyadic(x._mpf_, y._mpf_, z._mpf_) == ([3, -20, 0], 2)
        assert _dyadic(mpf(6)._mpf_) == ([6], 0)
        with pytest.raises(ValueError):
            _dyadic(mpf("inf")._mpf_)


# ---------------------------------------------------------------------------
# Magnitudes and tolerances on exact squares


@st.composite
def mpcs(draw, bits):
    parts = []
    for _ in "ri":
        man = draw(st.integers(-(2**bits) + 1, 2**bits - 1))
        parts.append(mp.make_mpf(from_man_exp(man, draw(st.integers(-bits - 8, 8)), bits)))
    return mpc(*parts)


class TestSquaredMagnitudes:
    @given(ODD_BITS.flatmap(mpcs), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_abs_sq_exact_is_the_exact_square(self, x, real):
        y = x.real if real else x
        with mp.workprec(53):  # nothing is rounded to the working precision
            got = abs_sq_exact(y)
        assert rat(got) == exact_sq(y)

    @given(BITS.flatmap(lambda bits: st.tuples(st.just(bits), mpcs(bits))))
    @settings(max_examples=200, deadline=None)
    def test_abs_sq_rounds_once(self, bits_x):
        bits, x = bits_x
        exact = rat(x.real) ** 2 + rat(x.imag) ** 2
        with PrecisionContext(bits).work():
            got = abs_sq(x)
        assert got._mpf_ == from_rational(exact.numerator, exact.denominator, bits, round_nearest)

    @given(BITS, st.integers(180, 280), st.integers(2**20, 2**21), st.permutations(range(-3, 4)))
    @settings(max_examples=200, deadline=None)
    def test_scale_is_the_largest_abs(self, bits, ratio, im_m, ks):
        # values whose |x| straddles a midpoint between two bits-bit floats:
        # with Re x / Im x in [0.18, 0.28] an ulp of Re x moves |x|^2 by 1/16
        # to 1/6 of its ulp, so abs() rounds them apart while |x|^2 rounded
        # to bits mostly ties
        with mp.workprec(4 * bits):
            im = mpf(im_m)
            a = to_mpf(rat(abs(mpc(im_m * ratio // 1000, im))), bits)
            mid = (a + step(a, 1, bits)) / 2
            re = to_mpf(rat(mp.sqrt(mid**2 - im**2)), bits)
        with PrecisionContext(bits).work():
            values = [mpc(step(re, k, bits), im) for k in ks]
            roots = [abs(v) for v in values]
        got = IdentityReport("t", 0, True, (0, 0, (), values), bits).scale
        assert got == float(max(roots))
        assert len(set(roots)) == 2

    def test_scale_on_the_exact_backend(self):
        values = [GaussRat.from_fractions(Fraction(3, 5), Fraction(4, 5)),
                  GaussRat.from_fractions(Fraction(-7, 2), Fraction(0))]

        def scale(magnitudes):  # an exact report's scale, read from its values
            return IdentityReport("t", 0, False, lambda: (0, 0, (1,), magnitudes)).scale

        assert scale(values) == 3.5
        assert scale(values[:1]) == 1.0


def constraint_boundary(ctx, ure, uim, vim, side):
    """Re v at which | |u|^2 - 2 Re v | = 8 check_scale max(1, |v|), on the
    given side of |u|^2 / 2 (fixed-point rounds at four times the precision)."""
    with mp.workprec(4 * ctx.bits):
        half = (ure**2 + uim**2) / 2
        vre = half
        for _ in range(3):
            vre = half - side * 4 * ctx.check_scale * max(mpf(1), mp.sqrt(vre**2 + vim**2))
        return vre


NAN, INF = mpf("nan"), mpf("inf")


class Unread:
    """A nonempty scale that fails the test if tol_sign reads it."""

    def __bool__(self):
        return True

    def __iter__(self):
        raise AssertionError("scale read below (k check_scale)^2")


@st.composite
def tolerance_scales(draw, bits):
    """(bits, scale): up to three mpcs or mpfs whose largest |y|^2 is below 1
    (down to one ulp under it), exactly 1, or above 1 (from one ulp over it);
    or no scale at all."""
    def value(man, exp):
        part = mp.make_mpf(from_man_exp(man, exp))
        return part if draw(st.booleans()) else mpc(*draw(st.permutations([part, mpf(0)])))

    small = [value(draw(st.integers(-(2**bits) + 1, 2**bits - 1)),
                   draw(st.integers(-bits - 8, -bits - 1)))  # |y|^2 < 1/2
             for _ in range(draw(st.integers(0, 2)))]
    largest = draw(st.sampled_from(["none", "below", "at", "above"]))
    if largest == "none":
        return bits, ()
    if largest == "below":
        man, exp = draw(st.sampled_from([(2**bits - 1, -bits), (1, -1)]))
    elif largest == "at":
        man, exp = 1, 0
    else:
        man = draw(st.integers(2 ** (bits - 1) + 1, 2**bits - 1))
        exp = draw(st.integers(-bits + 1, 8))
    top = value(draw(st.sampled_from([-1, 1])) * man, exp)
    return bits, tuple(draw(st.permutations([top, *small])))


class TestExactTolerances:
    @given(BITS, st.integers(-2**20, 2**20), st.integers(-2**20, 2**20),
           st.integers(-2**22, 2**22), st.sampled_from([-1, 1]), st.integers(-2, 2))
    @settings(max_examples=200, deadline=None)
    def test_constraint_check_decides_as_fractions(self, bits, a, b, t, side, k):
        ctx = PrecisionContext(bits)
        ure, uim, vim = (mpf(n) / 2**18 for n in (a, b, t))  # |u| < 6, |Im v| < 16
        vre = step(to_mpf(rat(constraint_boundary(ctx, ure, uim, vim, side)), bits), k, bits)
        u_sq = rat(ure) ** 2 + rat(uim) ** 2
        resid = abs(u_sq - 2 * rat(vre))
        if above_scaled(resid, 8, ctx, rat(vre) ** 2 + rat(vim) ** 2):
            with pytest.raises(ValueError):
                point(ctx, ure, uim, vim, vre)
        else:
            point(ctx, ure, uim, vim, vre)

    @given(BITS, st.integers(1, 2**16 - 1), st.integers(-2, 2))
    @settings(max_examples=150, deadline=None)
    def test_near_origin_guard_decides_as_fractions(self, bits, angle, k):
        # |v| at 4 check_scale, one ulp of Im v either side, u on the surface
        ctx = PrecisionContext(bits)
        with mp.workprec(4 * bits):
            r = 4 * ctx.check_scale
            vre = to_mpf(rat(r * mp.cos(mp.pi / 2 * angle / 2**16)), bits)
            ure = to_mpf(rat(mp.sqrt(2 * vre)), bits)
            with ctx.work():
                vre = abs_sq(mpc(ure)) / 2
            vim = step(to_mpf(rat(mp.sqrt(r**2 - vre**2)), bits), k, bits)
        h = point(ctx, ure, mpf(0), vim, vre)
        below = rat(vre) ** 2 + rat(vim) ** 2 < 16 * rat(ctx.check_scale) ** 2
        assert (ctx.tol_sign(abs_sq_exact(h.v)._mpf_, 4) < 0) == below
        try:
            expand(h, max_depth=1)
            raised = False
        except CertificationError:
            raised = True
        except AmbiguousNearestInteger:  # 1/v that large may not certify
            raised = False
        assert raised == below

    @given(ODD_BITS.flatmap(tolerance_scales),
           st.sampled_from([1, 4, 8]), st.booleans(), st.integers(-1, 1))
    @settings(max_examples=400, deadline=None)
    def test_tol_sign_as_fractions(self, bits_scale, k, full, j):
        # x^2 at, or one ulp either side of, (k cs)^2 or (k cs)^2 max(1, s^2)
        bits, scale = bits_scale
        ctx = PrecisionContext(bits)
        short = (k * rat(ctx.check_scale)) ** 2
        bound = short * max([Fraction(1)] + [exact_sq(y) for y in scale])
        x_sq = ulp_moved(bound if full else short, j, 4 * bits)
        got = ctx.tol_sign(exact_mpf(x_sq), k, Unread() if x_sq < short else scale)
        assert got == (x_sq > bound) - (x_sq < bound)

    def test_check_scale_at_odd_bits_is_not_a_power_of_two(self):
        assert rat(PrecisionContext(65).check_scale).numerator != 1
        assert rat(PrecisionContext(64).check_scale) == Fraction(1, 2**32)

    @pytest.mark.parametrize("u, v", [((NAN, 0), (0, 0)), ((0, 0), (NAN, NAN)),
                                      ((INF, 0), (INF, 0))], ids=["nan-u", "nan-v", "inf-u-v"])
    def test_non_finite_points_are_refused(self, u, v):
        ctx = PrecisionContext(128)
        with ctx.work(), pytest.raises(ValueError, match="Siegel constraint violated"):
            SiegelPoint(mpc(*u), mpc(*v), ctx)


# ---------------------------------------------------------------------------
# The raw-tuple kernels against the mpmath expressions they replaced

WIDE_BITS = st.sampled_from([64, 128, 512, 1024])


def abs_sq_exact_oracle(x) -> mpf:
    """abs_sq_exact as it was written, one branch per type."""
    if isinstance(x, mpf):
        return mp.make_mpf(mpf_mul(x._mpf_, x._mpf_))
    re, im = x._mpc_
    return mp.make_mpf(mpf_add(mpf_mul(re, re), mpf_mul(im, im)))


def accepts_oracle(u: mpc, v: mpc, ctx) -> bool:
    """The SiegelPoint check as it was written on abs_sq_exact."""
    resid = mpf_sub(abs_sq_exact_oracle(u)._mpf_, mpf_shift(v._mpc_[0], 1))
    return not (any(x[3] < 0 for x in (*u._mpc_, *v._mpc_))
                or ctx.tol_sign(mpf_mul(resid, resid), 8, (v,)) > 0)


def accepts(u: mpc, v: mpc, ctx) -> bool:
    try:
        SiegelPoint(u, v, ctx)
    except ValueError:
        return False
    return True


def koranyi_oracle(h):
    """koranyi_inversion's big-float branch as it was written on mpc objects."""
    with h.ctx.work():
        u = -h.u / h.v
        v = 1 / h.v
        v = mpc(abs(u) ** 2 / 2, v.imag)
    return u, v


def unchecked_point(u: mpc, v: mpc, ctx) -> SiegelPoint:
    """A big-float point built without the constraint check."""
    h = object.__new__(SiegelPoint)
    for name, value in (("u", u), ("v", v), ("ctx", ctx)):
        object.__setattr__(h, name, value)
    return h


def assert_inversion_as_oracle(h):
    want_u, want_v = koranyi_oracle(h)
    try:
        got = koranyi_inversion(h)
    except ValueError:
        assert not accepts_oracle(want_u, want_v, h.ctx)
    else:
        assert accepts_oracle(want_u, want_v, h.ctx)
        assert (got.u._mpc_, got.v._mpc_) == (want_u._mpc_, want_v._mpc_)


@st.composite
def surface_points(draw):
    """Points on the surface at 64 to 1024 bits, v != 0."""
    bits = draw(WIDE_BITS)
    u, w = draw(mpcs(bits)), draw(mpcs(bits))
    h = point(PrecisionContext(bits), u.real, u.imag, w.imag)
    return h if h.v else point(h.ctx, u.real, u.imag, mpf(1))


NON_FINITE = [((NAN, 0), (1, 1)), ((0, 0), (NAN, NAN)), ((INF, 0), (INF, 0)),
              ((1, 0), (0.5, INF)), ((0, INF), (1, 0)), ((1, 1), (NAN, 0))]
NON_FINITE_IDS = ["nan-u", "nan-v", "inf-u-v", "inf-im-v", "inf-im-u", "nan-re-v"]


class TestRawKernels:
    @given(surface_points())
    @settings(max_examples=200, deadline=None)
    def test_koranyi_inversion_as_mpc_expressions(self, h):
        assert_inversion_as_oracle(h)

    @pytest.mark.parametrize("u, v", NON_FINITE, ids=NON_FINITE_IDS)
    def test_koranyi_inversion_of_non_finite_parts(self, u, v):
        ctx = PrecisionContext(128)
        with ctx.work():
            h = unchecked_point(mpc(*u), mpc(*v), ctx)
        assert_inversion_as_oracle(h)

    @given(WIDE_BITS, st.integers(-2**20, 2**20), st.integers(-2**20, 2**20),
           st.integers(-2**22, 2**22), st.sampled_from([-1, 1]), st.integers(-2, 2))
    @settings(max_examples=200, deadline=None)
    def test_constraint_check_as_abs_sq_exact(self, bits, a, b, t, side, k):
        # either side of the tolerance, as test_constraint_check_decides_as_fractions
        ctx = PrecisionContext(bits)
        ure, uim, vim = (mpf(n) / 2**18 for n in (a, b, t))
        vre = step(to_mpf(rat(constraint_boundary(ctx, ure, uim, vim, side)), bits), k, bits)
        with ctx.work():
            u, v = mpc(ure, uim), mpc(vre, vim)
        assert accepts(u, v, ctx) == accepts_oracle(u, v, ctx)

    @pytest.mark.parametrize("u, v", NON_FINITE, ids=NON_FINITE_IDS)
    def test_constraint_check_of_non_finite_parts(self, u, v):
        ctx = PrecisionContext(128)
        with ctx.work():
            u, v = mpc(*u), mpc(*v)
        assert not accepts(u, v, ctx) and not accepts_oracle(u, v, ctx)

    @given(ODD_BITS.flatmap(lambda bits: st.lists(
        st.one_of(mpcs(bits), mpcs(bits).map(lambda x: x.real),
                  st.sampled_from([NAN, INF, -INF, mpc(NAN, 1), mpc(0, -INF)])),
        min_size=1, max_size=4)))
    @settings(max_examples=300, deadline=None)
    def test_max_sq_and_abs_sq_exact_as_written(self, values):
        assert [abs_sq_exact(x)._mpf_ for x in values] == [
            abs_sq_exact_oracle(x)._mpf_ for x in values]
        assert _max_sq(values) == max(map(abs_sq_exact_oracle, values))._mpf_


# ---------------------------------------------------------------------------
# The square-root kernel, the one-denominator inversion and the raw
# translation by a digit, each against the mpmath code it replaced

ROOT_PRECS = st.sampled_from([64, 65, 127, 512, 1023, 2048])


def same(f, g, *args):
    """f(*args) == g(*args) as raw tuples, or both raise the same exception type."""
    try:
        want = g(*args)
    except ValueError as e:
        with pytest.raises(type(e)):
            f(*args)
        return
    assert f(*args) == want


def sqrt_oracle(x, prec):
    return mpf_sqrt(x, prec, round_nearest)


def hypot_oracle(x, y, prec):
    return mpf_hypot(x, y, prec, round_nearest)


@st.composite
def wide_mpfs(draw):
    """A positive raw mpf of 1 to 4,100 bits at an odd or even exponent."""
    bc = draw(st.integers(1, 4100))
    man = draw(st.integers(2 ** (bc - 1), 2**bc - 1))
    return from_man_exp(man, draw(st.integers(-5000, 5000)))


@st.composite
def squares_near(draw):
    """An exact square k^2, k^2 - 1 or k^2 + 1 (k of up to 2,100 bits), or a
    power of 4, at an odd or even exponent."""
    k = draw(st.integers(1, 2**2100))
    man = draw(st.sampled_from([k * k, k * k - 1, k * k + 1, 4 ** (k.bit_length())]))
    return from_man_exp(max(man, 1), draw(st.integers(-300, 300)))


SPECIALS = [fzero, finf, fninf, fnan, from_man_exp(-3, 1)]


def koranyi_two_div_oracle(h):
    """koranyi_inversion's big-float branch as it was written: two mpc_divs,
    each forming |v|^2, and mpc_abs."""
    prec, rnd, v = h.ctx.bits, round_nearest, h.v._mpc_
    u = mpc_neg(mpc_div(h.u._mpc_, v, prec, rnd), prec, rnd)
    a = mpc_abs(u, prec, rnd)
    re = mpf_shift(mpf_mul(a, a, prec, rnd), -1)
    return u, (re, mpc_div((fone, fzero), v, prec, rnd)[1])


@st.composite
def finite_parts(draw, bits):
    """An mpc of bits-bit parts, zero or not, over exponents far apart."""
    parts = []
    for _ in "ri":
        man = draw(st.integers(-(2**bits) + 1, 2**bits - 1))
        parts.append(from_man_exp(man, draw(st.integers(-4 * bits, 4 * bits)), bits))
    return mp.make_mpc(tuple(parts))


def digits(bits_range):
    """Integer points (a, b, c) with |a|, |b|, |c| below 2^bits_range."""
    n = st.integers(-(2**bits_range), 2**bits_range)
    return st.tuples(n, n, n).map(lambda t: integer_point(t[0], t[1] + (t[0] - t[1]) % 2, t[2]))


def translated(gamma, h):
    """cf._into_kd(h) with gamma for [h]: the translated point, or None if refused."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(heiscf.cf._K_D, "nearest", lambda _: gamma)
        try:
            return heiscf.cf._into_kd(h)[1]
        except ValueError:
            return None


class TestRootsAndTranslation:
    @given(wide_mpfs(), ROOT_PRECS)
    @settings(max_examples=300, deadline=None)
    def test_sqrt_of_wide_mantissas(self, x, prec):
        same(_sqrt, sqrt_oracle, x, prec)

    @given(squares_near(), ROOT_PRECS)
    @settings(max_examples=300, deadline=None)
    def test_sqrt_of_squares_and_their_neighbours(self, x, prec):
        same(_sqrt, sqrt_oracle, x, prec)

    @pytest.mark.parametrize("prec", [64, 65, 127, 512, 1023, 2048])
    @pytest.mark.parametrize("x", SPECIALS, ids=["zero", "inf", "-inf", "nan", "-3"])
    def test_sqrt_of_zero_non_finite_and_negative(self, x, prec):
        same(_sqrt, sqrt_oracle, x, prec)

    @given(st.one_of(wide_mpfs(), squares_near(), st.sampled_from(SPECIALS)),
           st.one_of(wide_mpfs(), squares_near(), st.sampled_from(SPECIALS)),
           st.booleans(), st.booleans(), ROOT_PRECS)
    @settings(max_examples=300, deadline=None)
    def test_hypot_as_mpf_hypot(self, x, y, neg_x, neg_y, prec):
        x, y = (mpf_neg(t) if neg else t for t, neg in ((x, neg_x), (y, neg_y)))
        same(_hypot, hypot_oracle, x, y, prec)

    @pytest.mark.parametrize("u, v", NON_FINITE, ids=NON_FINITE_IDS)
    def test_hypot_of_non_finite_parts(self, u, v):
        for prec in (64, 512):
            for x in (mpc(*u), mpc(*v)):
                same(_hypot, hypot_oracle, *x._mpc_, prec)

    @given(WIDE_BITS.flatmap(finite_parts), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_abs_sq_exact_over_far_exponents(self, x, real):
        # one int sum at the lower exponent, a zero part through mpf_add
        y = x.real if real else x
        assert abs_sq_exact(y)._mpf_ == abs_sq_exact_oracle(y)._mpf_

    @given(WIDE_BITS.flatmap(lambda bits: st.tuples(
        st.just(bits), finite_parts(bits), finite_parts(bits))))
    @settings(max_examples=300, deadline=None)
    def test_one_denominator_inversion_as_two_divisions(self, args):
        # arbitrary finite parts: the inverted point is re-projected onto the surface
        bits, u, v = args
        if not v:
            return
        h = unchecked_point(u, v, PrecisionContext(bits))
        got = koranyi_inversion(h)
        assert (got.u._mpc_, got.v._mpc_) == koranyi_two_div_oracle(h)

    @given(surface_points())
    @settings(max_examples=200, deadline=None)
    def test_one_denominator_inversion_on_the_surface(self, h):
        got = koranyi_inversion(h)
        assert (got.u._mpc_, got.v._mpc_) == koranyi_two_div_oracle(h)

    @given(surface_points(), st.sampled_from([4, 40, 400]).flatmap(digits))
    @settings(max_examples=300, deadline=None)
    def test_raw_translation_as_group_mul(self, h, gamma):
        got = translated(gamma, h)
        try:
            want = group_mul(gamma.inv().to_siegel(h.ctx), h)
        except ValueError:
            assert got is None
        else:
            assert (got.u._mpc_, got.v._mpc_) == (want.u._mpc_, want.v._mpc_)

    @given(WIDE_BITS, st.integers(1, 6).flatmap(lambda m: digits(2000 * m)))
    @settings(max_examples=200, deadline=None)
    def test_digit_lifts_far_beyond_bits_keep_the_surface_bound(self, bits, gamma):
        # the check that the raw translation skips: accepted, and within the
        # bound that _into_kd's docstring proves
        ctx = PrecisionContext(bits)
        lifted = gamma.inv().to_siegel(ctx)  # raises if the check refuses it
        resid = exact_sq(lifted.u) - 2 * rat(lifted.v.real)
        assert resid * resid <= 49 * Fraction(1, 4**bits) * gamma.v.norm()
        h = point(ctx, mpf(1) / 3, mpf(1) / 5, mpf(1) / 7)
        got, want = translated(gamma, h), group_mul(lifted, h)
        assert (got.u._mpc_, got.v._mpc_) == (want.u._mpc_, want.v._mpc_)

    def test_tol_sign_bounds_leave_equality_and_hash_alone(self):
        ctx = PrecisionContext(65)
        for k in (1, 4, 8, 4):
            assert ctx.tol_sign(abs_sq_exact(ctx.check_scale)._mpf_, k) == (0 if k == 1 else -1)
        assert ctx == PrecisionContext(65) and hash(ctx) == hash(PrecisionContext(65))


# ---------------------------------------------------------------------------
# The runner-up gap, its trailing zeros shifted off in one step


class TestRunnerUpGap:
    @given(st.integers(0, 2**70), st.integers(0, 4000), BITS)
    @settings(max_examples=200, deadline=None)
    def test_gap_is_the_exact_key_difference(self, odd, zeros, bits):
        # nearest() squares the gap it forms; the keys are replaced by (0, d)
        d = (2 * odd + 1 if odd else 0) << zeros
        h = point(PrecisionContext(bits), mpf(1) / 3, mpf(1) / 5, mpf(1) / 7)
        k = _dyadic(*h.u._mpc_, h.v._mpc_[1])[1]
        gaps = []

        def record(x, y, *args):
            gaps.append(x)
            return mpf_mul(x, y, *args)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(heiscf.domain, "_ranked_candidates",
                          lambda *_: [(0, 0, 0, 0), (d, 0, 0, 1)])
            patch.setattr(heiscf.domain, "mpf_mul", record)
            try:
                K.nearest(h)
            except AmbiguousNearestInteger:
                pass
        assert gaps == [from_man_exp(d, -4 * k)]
