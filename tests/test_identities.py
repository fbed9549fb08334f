import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import heiscf.lab.identities as identities
from heiscf.cf import expand, reconstruct
from heiscf.domain import integer_point
from heiscf.errors import HeisCFError
from heiscf.gaussian import GaussRat
from heiscf.lab.identities import (
    _distance_sq_parts,
    verify_distance_formula,
    verify_expansion,
    verify_fracq,
    verify_prq,
    verify_tildeprq,
)
from heiscf.lab.random_points import random_digit_string
from heiscf.siegel import (
    PrecisionContext,
    _distance_form,
    from_heis,
    group_mul,
    parse_planar_point,
    triple_to_planar,
)


def exact_expansion(seed, length=8):
    rng = random.Random(seed)
    g0, digits = random_digit_string(rng, length)
    return expand(reconstruct(g0, digits))


class TestExactResiduals:
    @pytest.mark.parametrize("seed", range(8))
    def test_all_identities_zero(self, seed):
        e = exact_expansion(seed)
        for n in range(e.depth + 1):
            assert verify_prq(e, n).passed
            assert verify_prq(e, n).residual == 0.0
            assert verify_tildeprq(e, n).passed
            assert verify_distance_formula(e, n).passed
            if n >= 1:
                assert verify_fracq(e, n).passed

    def test_known_point(self):
        e = expand(parse_planar_point("(1+i; 1+4/5i)"))
        r = verify_prq(e, 1)
        assert r.passed and r.residual == 0.0
        # rhs = -v_0 v_1; the product telescopes to the full linear form
        d = verify_distance_formula(e, 0)
        assert d.passed
        assert abs(d.lhs.real - 5.0**-0.5) < 1e-12  # d_0 = |1/ sqrt(5)|... sanity

    def test_fracq_requires_positive_index(self):
        e = exact_expansion(0)
        with pytest.raises(ValueError):
            verify_fracq(e, 0)

    def test_fracq_undefined_past_termination(self):
        e = expand(parse_planar_point("(0; 0)"))
        assert e.terminated and e.depth == 0
        with pytest.raises((HeisCFError, IndexError, ValueError)):
            verify_fracq(e, 1)


class TestBigfloatResiduals:
    @pytest.mark.parametrize("bits", [64, 256])
    def test_residuals_within_scale(self, bits):
        rng = random.Random(42)
        ctx = PrecisionContext(bits)
        g0, digits = random_digit_string(rng, 10)
        h = reconstruct(g0, digits).to_bigfloat(ctx)
        e = expand(h, max_depth=10)
        for n in range(e.depth + 1):
            for fn in (verify_prq, verify_tildeprq, verify_distance_formula):
                r = fn(e, n)
                assert r.passed, (fn.__name__, n, r.residual, r.scale)
            if n >= 1:
                r = verify_fracq(e, n)
                assert r.passed, ("fracq", n, r.residual)

    def test_residual_reported_not_zero(self):
        # big-float residuals are tiny but genuinely nonzero in general
        rng = random.Random(1)
        ctx = PrecisionContext(64)
        g0, digits = random_digit_string(rng, 8)
        h = reconstruct(g0, digits).to_bigfloat(ctx)
        e = expand(h, max_depth=8)
        residuals = [verify_prq(e, n).residual for n in range(1, e.depth + 1)]
        assert all(r >= 0.0 for r in residuals)
        assert max(residuals) < 2.0**-20  # far below any meaningful scale


class TestReportShape:
    def test_as_dict(self):
        e = exact_expansion(3)
        d = verify_prq(e, 2).as_dict()
        assert d["identity"] == "prq" and d["n"] == 2 and d["pass"] is True
        assert isinstance(d["lhs"], list) and len(d["lhs"]) == 2


class TestVerifyExpansion:
    @staticmethod
    def expected(top):
        order = [("prq", 0), ("tildeprq", 0), ("distance", 0)]
        for n in range(1, top + 1):
            order += [("prq", n), ("tildeprq", n), ("distance", n), ("fracq", n)]
        return order

    def test_order_and_count(self):
        e = exact_expansion(5, length=6)  # terminated: every index 0..depth
        reports = verify_expansion(e)
        assert e.terminated and len(reports) == 4 * e.depth + 3
        assert [(r.identity, r.n) for r in reports] == self.expected(e.depth)
        assert [r.as_dict() for r in reports[-4:]] == [
            fn(e, e.depth).as_dict()
            for fn in (verify_prq, verify_tildeprq, verify_distance_formula, verify_fracq)
        ]
        g0, digits = random_digit_string(random.Random(5), 6)
        h = reconstruct(g0, digits).to_bigfloat(PrecisionContext(128))
        e = expand(h, max_depth=4)  # cut short: the last index is left out
        reports = verify_expansion(e)
        assert not e.terminated and len(reports) == 4 * e.depth - 1
        assert [(r.identity, r.n) for r in reports] == self.expected(e.depth - 1)


def distance_verdict_reference(e, n, conv):
    """The exact distance identity at conv decided on GaussRat values, as
    Fractions: |w|^2 = |vp / q_n|^2 and, where s is defined and nonzero,
    |w|^2 = |v_0 / (conj(q_n) s)|^2, with s formed by GaussRat arithmetic."""
    h0, lift = e.iterates[0], GaussRat.from_int
    qn = lift(e.first_column(n)[0])
    d4 = _distance_form(conv, h0).abs_sq()
    passed = d4 == (e.v_prefix[n + 1] / qn).abs_sq()
    if n + 1 <= e.depth:
        h = e.iterates[n + 1]
        s = lift(e.first_column(n + 1)[0]) + lift(e.second_column(n + 1)[0]) * h.u - qn * h.v
        if s:
            passed = passed and d4 == (e.v_prefix[0] / (qn.conjugate() * s)).abs_sq()
    return passed


SHIFT = integer_point(0, 0, 2).to_siegel()  # (0; 2i): w moves by -2i, and |w| < 1


class TestDistanceVerdict:
    @pytest.mark.parametrize("seed", range(12))
    def test_matches_gaussrat_verdict(self, seed):
        e = exact_expansion(seed, length=1 + seed % 10)
        for n in range(e.depth + 1):
            passed = verify_distance_formula(e, n).passed
            assert passed is distance_verdict_reference(e, n, triple_to_planar(e.first_column(n)))
            assert passed

    @pytest.mark.parametrize("seed", range(6))
    def test_wrong_convergent_rejected_by_both(self, seed, monkeypatch):
        # the planar convergent moved off by (0; 2i): d^4 = |w - 2i|^2 != |w|^2
        e = exact_expansion(seed)
        monkeypatch.setattr(
            identities, "triple_to_planar",
            lambda col, ctx=None: group_mul(SHIFT, triple_to_planar(col, ctx)))
        for n in range(e.depth + 1):
            wrong = group_mul(SHIFT, triple_to_planar(e.first_column(n)))
            assert not distance_verdict_reference(e, n, wrong)
            assert not verify_distance_formula(e, n).passed

    @given(*[st.builds(Fraction, st.integers(-(2**300), 2**300), st.integers(1, 2**300))] * 6)
    @settings(max_examples=100, deadline=None)
    def test_unreduced_square_equals_fraction(self, x1, y1, t1, x2, y2, t2):
        h1 = from_heis(GaussRat.from_fractions(x1, y1), t1)
        h2 = from_heis(GaussRat.from_fractions(x2, y2), t2)
        for a, b in ((h1, h2), (h2, h1), (h1, h1)):
            assert Fraction(*_distance_sq_parts(a, b)) == _distance_form(a, b).abs_sq()
