"""Acceptance gate: the nine release criteria, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the summary lines.
Criteria 1-3 and 5-9 are hard; criterion 4 is report-only inside the
observed bands and only fails the build outside the wide bands.
"""

import math
import random

import numpy as np

from heiscf.cf import expand, reconstruct
from heiscf.errors import AmbiguousNearestInteger
from heiscf.lab.approx import (
    RAD_KD,
    RK_KD,
    approx_quality,
    prop71_check,
)
from heiscf.lab.enumerate import (
    enumerate_rationals_naive,
    enumerate_rationals_qnorm,
    kprime_region,
)
from heiscf.lab.identities import verify_expansion
from heiscf.lab.khinchin import khinchin_partial_sum
from heiscf.lab.random_points import (
    random_bigfloat_point,
    random_digit_string,
    random_rational_point,
)
from heiscf.lab.sampling import khinchin_experiment
from heiscf.siegel import PrecisionContext

RK_REF = 6726.7
RAD_RK_REF = 5656.5


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_constants():
    from heiscf.domain import rk_constant

    rad = 2.0**-0.25
    rk = rk_constant(rad, 1e-9)
    ok = (
        abs(rk - RK_REF) < 0.5
        and abs(rad * rk - RAD_RK_REF) < 0.5
        and math.isclose(RAD_KD, rad)
    )
    _verdict(1, ok, f"rad=2^(-1/4), R_K={rk:.1f} (ref {RK_REF}), rad*R_K={rad * rk:.1f} (ref {RAD_RK_REF})")


def test_criterion_2_exact_identity_suite():
    rng = random.Random(20260823)
    checked = 0
    failures = []
    for _ in range(1000):
        h = random_rational_point(rng, length=rng.randint(1, 10), q_norm_max=10**12)
        e = expand(h)
        for r in verify_expansion(e):
            checked += 1
            if r.residual != 0.0 or not r.passed:
                failures.append((r.identity, r.n))
    _verdict(
        2,
        not failures,
        f"{checked} residuals over 1000 rational points all exactly 0"
        + (f"; failures={failures[:5]}" if failures else ""),
    )


def test_criterion_3_certified_identity_suite():
    rng = random.Random(31)
    ctx = PrecisionContext(512)
    checked = 0
    failures = []
    for _ in range(200):
        h = random_bigfloat_point(rng, ctx)
        e = expand(h, max_depth=20)
        for r in verify_expansion(e):
            checked += 1
            # passed means residual <= 2^(-256) * scale at 512 bits
            if not r.passed:
                failures.append(("identity", r.identity, r.n, r.residual))
        for n in range(e.depth):
            rec = approx_quality(e, n)
            checked += 1
            if rec.ratio_thm14 is not None and not (
                1.0 / RK_KD <= rec.ratio_thm14 <= RK_KD
            ):
                failures.append(("thm14", n, rec.ratio_thm14))
            if not (1.0 / RK_KD <= rec.relsize_n <= RK_KD):
                failures.append(("relsize", n, rec.relsize_n))
            if rec.succ_n is not None and not (
                1.0 / RK_KD**2 <= rec.succ_n <= RK_KD**2
            ):
                failures.append(("succ", n, rec.succ_n))
    _verdict(
        3,
        not failures,
        f"{checked} checks over 200 certified 512-bit depth-20 points, "
        f"zero violations" + (f"; failures={failures[:5]}" if failures else ""),
    )


def test_criterion_4_empirical_constants():
    rng = random.Random(44)
    c_max = 0.0
    rel_min, rel_max = math.inf, 0.0
    for _ in range(1000):
        g0, digits = random_digit_string(rng, 15)
        e = expand(reconstruct(g0, digits))
        for n in range(e.depth):
            rec = approx_quality(e, n)
            c_max = max(c_max, rec.c_n)
            rel_min = min(rel_min, rec.relsize_n)
            rel_max = max(rel_max, rec.relsize_n)
    hard_ok = c_max <= 1.3 and 0.25 <= rel_min and rel_max <= 4.0
    soft_note = (
        "within observed bands"
        if c_max <= 1.3 and 0.3 <= rel_min and rel_max <= 3.5
        else "outside observed bands (report only)"
    )
    _verdict(
        4,
        hard_ok,
        f"max d_n|q_n|={c_max:.4f} (ref 1.26), relsize range "
        f"[{rel_min:.4f}, {rel_max:.4f}] (ref [0.35, 3.38]); {soft_note}",
    )


def test_criterion_5_round_trip():
    rng = random.Random(55)
    mismatches = 0
    ties = 0
    for _ in range(1000):
        g0, digits = random_digit_string(rng, rng.randint(1, 10))
        try:
            e = expand(reconstruct(g0, digits))
        except AmbiguousNearestInteger:
            ties += 1
            continue
        if e.gamma0 != g0 or e.digits != digits:
            mismatches += 1
    _verdict(
        5,
        mismatches == 0 and ties == 0,
        f"1000 digit-string round trips, {mismatches} mismatches, "
        f"{ties} boundary-tie exceptions (expected 0)",
    )


def test_criterion_6_enumeration_oracle():
    region = kprime_region(0.0)
    bad = []
    per = []
    for m in range(1, 201):
        s = enumerate_rationals_qnorm(m, region)
        n = enumerate_rationals_naive(m, region)
        if s.points != n.points:
            bad.append(m)
        s_all = enumerate_rationals_qnorm(m, region, lowest_terms=False)
        n_all = enumerate_rationals_naive(m, region, lowest_terms=False)
        if s_all.points != n_all.points:
            bad.append(-m)
        per.append(s.count)
    checkpoints = [4, 16, 36, 64, 100, 144, 196]
    N = np.array([sum(per[:m]) for m in checkpoints], dtype=float)
    ms = np.array(checkpoints, dtype=float)
    slope, _ = np.polyfit(np.log(ms), np.log(N), 1)
    cs = N / ms**slope
    cv = cs.std() / cs.mean()
    _verdict(
        6,
        not bad and cv < 0.5,
        f"structured = naive for all m <= 200; counting function fits "
        f"m^{slope:.2f} with prefactor CV={cv:.3f} (< 0.5)"
        + (f"; mismatches at {bad[:5]}" if bad else ""),
    )


def test_criterion_7_khinchin_sums():
    partials = [khinchin_partial_sum(1.0, 1.0, M).partial for M in (10, 100, 1000, 10_000)]
    monotone = all(a < b for a, b in zip(partials, partials[1:]))
    s = khinchin_partial_sum(1.0, 1.0, 10_000)
    tail_ok = s.tail_bound < 1e-3 * s.partial
    _verdict(
        7,
        monotone and tail_ok,
        f"partial sums monotone, tail bound {s.tail_bound:.2e} < 1e-3 * "
        f"partial {s.partial:.4f} at M=10^4",
    )


def test_criterion_8_best_approximation():
    fixtures = []
    seed = 0
    while len(fixtures) < 50 and seed < 500:
        rng = random.Random(800 + seed)
        seed += 1
        h = random_rational_point(rng, length=5, q_norm_max=10**10)
        e = expand(h)
        ns = [
            n
            for n in range(1, e.depth)
            if 1 < e.first_column(n)[0].norm() <= 200**2
        ]
        if ns:
            fixtures.append((e, max(ns)))
    thm16_bad = []
    stated = 0
    for e, n in fixtures:
        rep = prop71_check(e, n)
        thm16_bad.extend(rep.violations_thm16)
        for v in rep.violations_stated:
            stated += 1
            print(f"  criterion 8 stated-inequality violation: {v}")
    _verdict(
        8,
        len(fixtures) == 50 and not thm16_bad,
        f"50 fixtures with |q_n| <= 200: no closer rational below the "
        f"non-effective cutoff; {stated} stated-inequality violations logged",
    )


def test_criterion_9_dyadic_fraction_decreasing():
    votes = 0
    all_fracs = []
    for seed in (101, 202, 303):
        rep = khinchin_experiment(1.0, 1.0, (4, 8), samples=400, seed=seed)
        fr = rep.fractions()
        all_fracs.append([round(f, 3) for f in fr])
        if all(a >= b for a, b in zip(fr, fr[1:])):
            votes += 1
    _verdict(
        9,
        votes >= 2,
        f"solution-bearing fraction non-increasing over k=4..8 in "
        f"{votes}/3 seeds; fractions {all_fracs}",
    )
