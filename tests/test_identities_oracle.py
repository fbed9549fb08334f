"""The identity suite against the verifiers it replaced, report for report.

The oracle below is the suite as it was written when every report built
its floats eagerly and judged every identity by one rule: `not any(diffs)`
on the exact backend, `residual <= check_scale * scale` on big floats,
with residual and scale the rounded abs() of the values.  Each report of
verify_expansion must give the oracle's verdict and, whenever they are
read, its lhs, rhs, residual and scale bit for bit.  The inputs are the
benchmark's orbit items, seeded low-precision expansions (deep enough for
the big-float digits to go wrong: ROADMAP item 1) and expansions with a
wrong closed form.  The big-float verdict at its bound, where the new rule
on exact squares and the old one on rounded roots can part, is checked
against exact rationals instead.
"""

import dataclasses
import importlib.util
import math
from fractions import Fraction
import random
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpc
from mpmath.libmp import from_man_exp, mpf_sqrt, round_nearest, to_float, to_rational

from heiscf.cf import expand, reconstruct
from heiscf.errors import HeisCFError
from heiscf.gaussian import GaussInt, GaussRat
from heiscf.lab.identities import IdentityReport, _max_sq
from heiscf.lab.identities import _report as _new_report
from heiscf.lab.identities import verify_expansion
from heiscf.lab.random_points import random_bigfloat_point, random_digit_string
from heiscf.siegel import (
    PrecisionContext,
    abs_sq,
    abs_sq_exact,
    distance_pow4,
    linear_form_terms,
    triple_to_planar,
)

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"


# ---------------------------------------------------------------------------
# The oracle: the eager reports and their verifiers


@dataclass
class OracleReport:
    identity: str
    n: int
    lhs: complex
    rhs: complex
    residual: float
    scale: float
    passed: bool

    def as_dict(self) -> dict:
        return {
            "identity": self.identity,
            "n": self.n,
            "lhs": [self.lhs.real, self.lhs.imag],
            "rhs": [self.rhs.real, self.rhs.imag],
            "residual": self.residual,
            "scale": self.scale,
            "pass": self.passed,
        }


def _scale(values: tuple):
    if isinstance(values[0], mpc):
        top = abs(max(values, key=abs_sq_exact))
    else:
        top = max(map(abs, values))
    return top if top > 1 else 1.0


def _report(e, identity, n, lhs, rhs, diffs, magnitudes) -> OracleReport:
    residual = max(map(abs, diffs))
    scale = _scale(magnitudes)
    passed = not any(diffs) if e.ctx is None else residual <= e.ctx.check_scale * scale
    return OracleReport(
        identity=identity,
        n=n,
        lhs=complex(lhs),
        rhs=complex(rhs),
        residual=float(residual),
        scale=float(scale),
        passed=bool(passed),
    )


def oracle_prq(e, n):
    with e.point.work():
        t1, t2, t3 = linear_form_terms(e.first_column(n), e.iterates[0])
        lhs, prod = t1 - t2 + t3, e.v_prefix[n + 1]
        rhs = -prod if n % 2 else prod
        return _report(e, "prq", n, lhs, rhs, (lhs - rhs,), (lhs, rhs, t1, t2, t3))


def oracle_tildeprq(e, n):
    with e.point.work():
        t1, t2, t3 = linear_form_terms(e.second_column(n), e.iterates[0])
        lhs = t1 - t2 + t3
        rhs = e.point.lift(GaussInt((-1) ** (n + 1))) * e.iterates[n].u * e.v_prefix[n]
        return _report(e, "tildeprq", n, lhs, rhs, (lhs - rhs,), (lhs, rhs, t1, t2, t3))


def _fracq_terms(e, k):
    lift, hk = e.point.lift, e.iterates[k]
    return (
        lift(e.first_column(k)[0]),
        lift(e.second_column(k)[0]) * hk.u,
        lift(e.first_column(k - 1)[0]) * hk.v,
    )


def oracle_fracq(e, n):
    if not e.v_prefix[n]:
        raise HeisCFError(f"identity undefined (v_i = 0 for some i < {n})")
    with e.point.work():
        t1, t2, t3 = _fracq_terms(e, n)
        lhs, rhs = (t1 + t2 - t3) * e.v_prefix[n], e.point.lift(GaussInt((-1) ** n))
        return _report(e, "fracq", n, lhs, rhs, (lhs - rhs,), (lhs, rhs, t1, t2, t3))


def oracle_distance(e, n):
    col = e.first_column(n)
    conv = triple_to_planar(col, e.ctx)
    h0, lift = e.iterates[0], e.point.lift
    with h0.work():
        d4 = distance_pow4(conv, h0)
        qn = lift(col[0])
        forms = [abs_sq(e.v_prefix[n + 1] / qn)]
        if n + 1 <= e.depth:
            t1, t2, t3 = _fracq_terms(e, n + 1)
            denom = qn.conjugate() * (t1 + t2 - t3)
            if denom:
                forms.append(abs_sq(lift(GaussInt(1)) / denom))
        return _report(
            e, "distance", n, float(d4) ** 0.25, float(forms[0]) ** 0.25,
            [d4 - f for f in forms], (d4, *forms),
        )


def oracle_suite(e) -> list:
    top = e.depth if e.terminated else e.depth - 1
    reports = []
    for n in range(top + 1):
        reports += [oracle_prq(e, n), oracle_tildeprq(e, n), oracle_distance(e, n)]
        if n >= 1:
            reports.append(oracle_fracq(e, n))
    return reports


# ---------------------------------------------------------------------------
# The comparison


def _fields(x):
    """What makes two values of either backend the same value."""
    return x._mpc_ if isinstance(x, mpc) else (x.a, x.b, x.d)


def assert_as_oracle(e) -> list:
    """verify_expansion(e) against the oracle; the reports, for more checks.

    The verdicts are compared before any float is read; repr tells apart
    any two distinct finite floats, -0.0 and 0.0 included.  The terms of
    each s_k the expansion keeps are the oracle's own.
    """
    got, want = verify_expansion(e), oracle_suite(e)
    assert [(r.identity, r.n, r.passed) for r in got] == [
        (r.identity, r.n, r.passed) for r in want
    ]
    for r, w in zip(got, want):
        assert repr(r.as_dict()) == repr(w.as_dict()), (r.identity, r.n)
    with e.point.work():
        want_terms = [_fracq_terms(e, k) for k in range(1, e.depth + 1)]
    assert [list(map(_fields, t)) for t in e.s_terms] == [
        list(map(_fields, t)) for t in want_terms
    ]
    return got


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("heiscf_bench_workloads", WORKLOADS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("seed", range(32))
def test_exact_orbits_items(workloads, seed):
    for g0, digits in workloads.ExactOrbits(seed).strings:
        reports = assert_as_oracle(expand(reconstruct(g0, digits)))
        assert all(r.passed and r.residual == 0.0 for r in reports)


@pytest.mark.parametrize("seed", range(32))
def test_bigfloat_orbits_items(workloads, seed):
    w = workloads.BigfloatOrbits(seed)
    for h in w.points:
        assert_as_oracle(expand(h, max_depth=w.DEPTH))


@pytest.mark.parametrize("bits", [64, 128])
def test_low_precision_expansions(bits):
    """Seeded expansions to depth 40 at 64 and 128 bits, past the index
    where the big-float digits go wrong (ROADMAP item 1).  There the
    distance identity passes with the direct d^4 and form 1 more than
    0.1 % apart; those false passes stay as they are."""
    rng, ctx = random.Random(0), PrecisionContext(bits)
    false_passes = 0
    for _ in range(10):
        for r in assert_as_oracle(expand(random_bigfloat_point(rng, ctx), max_depth=40)):
            if r.identity == "distance" and r.passed and r.lhs.real and r.rhs.real:
                false_passes += abs(r.lhs.real**4 / r.rhs.real**4 - 1) > 1e-3
    assert false_passes > 0


@pytest.mark.parametrize("bits", [128, 512])
def test_floats_ignore_the_ambient_precision(bits):
    """A big-float report's floats are rounded at its own bits, whatever
    precision is current when they are read."""
    rng, ctx = random.Random(1), PrecisionContext(bits)
    for _ in range(3):
        e = expand(random_bigfloat_point(rng, ctx), max_depth=12)
        reports = verify_expansion(e)
        with mp.workprec(53):
            low = [repr(r.as_dict()) for r in reports]
        with mp.workprec(4096):
            high = [repr(r.as_dict()) for r in reports]
        with e.point.work():
            own = [repr(r.as_dict()) for r in reports]
        assert low == high == own


def test_exact_passing_report_reads_no_values():
    g0, digits = random_digit_string(random.Random(7), 6)
    for r in verify_expansion(expand(reconstruct(g0, digits))):
        assert r.passed and r.residual == 0.0
        assert callable(vars(r)["_values"])  # not yet built


# ---------------------------------------------------------------------------
# Wrong closed forms still fail, on both backends


def _expansions() -> list:
    """A terminated exact expansion and the same point at 128 and 512 bits."""
    g0, digits = random_digit_string(random.Random(3), 8)
    h = reconstruct(g0, digits)
    return [expand(h)] + [
        expand(h.to_bigfloat(PrecisionContext(bits)), max_depth=6) for bits in (128, 512)
    ]


def _forms_hold(e, n) -> tuple[bool, bool]:
    """Whether d^4 equals form 1 and form 2 at index n of an exact expansion."""
    col = e.first_column(n)
    d4 = distance_pow4(triple_to_planar(col), e.iterates[0])
    qn = GaussRat.from_int(col[0])
    t1, t2, t3 = _fracq_terms(e, n + 1)
    form2 = 1 / abs_sq(qn.conjugate() * (t1 + t2 - t3))
    return d4 == abs_sq(e.v_prefix[n + 1] / qn), d4 == form2


def _failed(e) -> set:
    return {(r.identity, r.n) for r in assert_as_oracle(e) if not r.passed}


@pytest.mark.parametrize("k", [1, 3])
def test_scaled_v_prefix_fails(k):
    """v_prefix[k] times 1+i: at n = k - 1 form 1 of the distance formula is
    wrong while form 2 holds, and so is prq."""
    for e in _expansions():
        bad = dataclasses.replace(e)
        with e.point.work():
            vp = list(e.v_prefix)
            vp[k] *= e.point.lift(GaussInt(1, 1))
        bad.__dict__["v_prefix"] = vp  # the cached_property's slot
        if e.ctx is None:
            assert _forms_hold(bad, k - 1) == (False, True)
        assert not _failed(e)
        assert {("distance", k - 1), ("prq", k - 1)} <= _failed(bad)


@pytest.mark.parametrize("n", [0, 2])
def test_perturbed_continuant_fails(n):
    """q~_{n+1} plus 1+i in Q_{n+1}: at index n form 1 holds and form 2 is
    wrong, so the distance report fails on its second form alone."""
    for e in _expansions():
        rows = [list(row) for row in e.continuants[n + 1]]
        rows[0][1] += GaussInt(1, 1)
        bad = dataclasses.replace(e, continuants=list(e.continuants))
        bad.continuants[n + 1] = tuple(map(tuple, rows))
        if e.ctx is None:
            assert _forms_hold(bad, n) == (True, False)
        assert ("distance", n) in _failed(bad)


# ---------------------------------------------------------------------------
# The big-float verdict at its bound


def nudge(x, k: int, bits: int):
    """x moved by k units in the last place of a bits-bit mantissa; 0 stays."""
    sign, man, exp, bc = x._mpf_
    if not man:
        return x
    shift = bits - bc
    m = ((-man if sign else man) << shift) + k
    return mp.make_mpf(from_man_exp(m, exp - shift, bits, round_nearest))


@given(
    st.sampled_from([64, 65, 128, 256]),
    st.integers(1, 2**64),
    st.integers(0, 2**64),
    st.integers(-40, 40),
    st.integers(-3, 3),
    st.integers(-3, 3),
)
@settings(max_examples=300, deadline=None)
def test_big_float_verdict_at_the_bound(bits, re_m, im_m, exp, jitter_re, jitter_im):
    """|diff| = check_scale |x| within a few ulps of diff: the verdict is
    |diff|^2 <= check_scale^2 max(1, |x|^2) in exact rationals, and residual
    and scale are the floats abs() gives."""
    ctx = PrecisionContext(bits)
    with ctx.work():
        x = mpc(mp.ldexp(re_m, exp), mp.ldexp(im_m, exp))
        d = x * ctx.check_scale
        d = mpc(nudge(d.real, jitter_re, bits), nudge(d.imag, jitter_im, bits))
        r = _new_report(SimpleNamespace(ctx=ctx), "t", 0, lambda: (x, x, (d,), (x, x)))
        want_scale, want_residual = _scale((x,)), abs(d)
    def exact_sq(z) -> Fraction:
        return sum(Fraction(*to_rational(part._mpf_)) ** 2 for part in (z.real, z.imag))

    cs = Fraction(*to_rational(ctx.check_scale._mpf_))
    assert r.passed == (exact_sq(d) <= cs**2 * max(1, exact_sq(x)))
    assert (r.residual, r.scale) == (float(want_residual), float(want_scale))


def test_report_floats_round_as_abs_next_to_a_midpoint():
    """|x| just past the midpoint above Im x, with Re x tiny: there abs()
    rounds |x|^2 down to bits + 4 bits before its root, and so can differ
    from the correctly rounded root.  A report's residual and scale keep
    abs()'s digits, read at the default precision (the scale on x 2^bits,
    an exact multiple, as it is floored at 1).  Im x is any bits-bit float,
    then halfway between two doubles, where a root one ulp off abs() also
    rounds to another float."""
    rng, rng_mid = random.Random(5), random.Random(6)
    departs = float_departs = 0
    for bits in (64, 128, 512):
        ims = [rng.randrange(2 ** (bits - 1), 2**bits) for _ in range(40)]
        ims += [(2 * rng_mid.randrange(2**52, 2**53) + 1) << (bits - 54) for _ in range(40)]
        for im_man in ims:
            with mp.workprec(bits):
                im = mp.make_mpf(from_man_exp(im_man, -bits))
                half_ulp = mp.ldexp(1, -bits - 1)
            with mp.workprec(4 * bits):
                re = mp.sqrt((im + half_ulp) ** 2 - im**2)
            for k in range(-4, 5):
                with mp.workprec(bits):
                    x = mpc(nudge(+re, k, bits), im)
                    big, want = x * 2**bits, abs(x)
                    root = mpf_sqrt(_max_sq([x]), bits, round_nearest)
                r = IdentityReport("t", 0, True, (x, x, (x,), (big,)), bits)
                assert (r.residual, r.scale) == (float(want), math.ldexp(float(want), bits))
                departs += root != want._mpf_
                float_departs += to_float(root, rnd=round_nearest) != float(want)
    assert departs and float_departs
