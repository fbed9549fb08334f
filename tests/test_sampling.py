import random
from collections import Counter

import numpy as np
import pytest

from heiscf.domain import DirichletDomain, nearest_float
from heiscf.lab.enumerate import enumerate_rationals_qnorm, kprime_region
from heiscf.lab.khinchin import phi
from heiscf.lab.sampling import (
    _draw,
    _range_point_arrays,
    khinchin_experiment,
    sample_K_floats,
)

K = DirichletDomain()


class TestNearestFloat:
    def test_matches_certified(self):
        # the float fast path agrees with the certified nearest map away
        # from boundaries
        from fractions import Fraction

        from heiscf.gaussian import GaussRat
        from heiscf.siegel import from_heis

        rng = random.Random(0)
        for _ in range(300):
            zr = Fraction(rng.randint(-96, 96), 64)
            zi = Fraction(rng.randint(-96, 96), 64)
            t = Fraction(rng.randint(-96, 96), 64)
            h = from_heis(GaussRat.from_fractions(zr, zi), t)
            a, b, c = nearest_float(
                complex(float(h.u.re()), float(h.u.im())),
                complex(float(h.v.re()), float(h.v.im())),
            )
            g = K.nearest(h)
            assert (g.u.re, g.u.im, g.v.im) == (a, b, c)


class TestSampleK:
    def test_samples_lie_in_domain(self):
        rng = random.Random(1)
        for _ in range(200):
            u, v = sample_K_floats(rng)
            assert nearest_float(u, v) == (0, 0, 0)
            assert abs(v) ** 0.5 <= 2.0**-0.25 + 1e-12

    def test_reproducible(self):
        a = sample_K_floats(random.Random(7))
        b = sample_K_floats(random.Random(7))
        assert a == b

    def test_acceptance_rate(self):
        # box volume 4 in (z, t) coordinates vs domain volume 1
        rng, tried, kept = random.Random(3), 0, []
        while len(kept) < 4000:
            tried += 1
            if (uv := _draw(rng)) is not None:
                kept.append(uv)
        assert abs(len(kept) / tried - 0.25) < 0.03
        assert max(abs(v) for _, v in kept) ** 0.5 <= 2.0**-0.25 + 1e-12


class TestKhinchinExperiment:
    def test_reproducible_and_shaped(self):
        a = khinchin_experiment(1.0, 1.0, (1, 3), samples=50, seed=9)
        b = khinchin_experiment(1.0, 1.0, (1, 3), samples=50, seed=9)
        assert a.as_dict() == b.as_dict()
        assert list(a.as_dict()) == ["C", "eps", "samples", "seed", "ranges"]
        assert [r["k"] for r in a.ranges] == [1, 2, 3]
        for r in a.ranges:
            assert 0.0 <= r["fraction"] <= 1.0

    def test_bigger_C_more_hits(self):
        small = khinchin_experiment(0.5, 1.0, (1, 2), samples=60, seed=4)
        big = khinchin_experiment(2.0, 1.0, (1, 2), samples=60, seed=4)
        for rs, rb in zip(small.ranges, big.ranges):
            assert rb["hits"] >= rs["hits"]


def numpy_full_scan_hits(tables, samples, seed):
    """Hits per range by the numpy scan of every table point, as before the window."""
    arrays = [
        (k, np.array([p[0] for p in points], dtype=np.complex128),
         np.array([p[1] for p in points], dtype=np.complex128),
         np.array([p[2] for p in points], dtype=np.float64))
        for k, points in tables
    ]
    master = random.Random(seed)
    sub_seeds = [master.getrandbits(64) for _ in range(samples)]
    hits = {k: 0 for k, *_ in arrays}
    for s in sub_seeds:
        u, v = sample_K_floats(random.Random(s))
        for k, us, vs, thr4 in arrays:
            if len(us) == 0:
                continue
            w = np.conj(vs) - np.conj(us) * u + v
            d4 = np.abs(w) ** 2
            if bool(np.any(d4 <= thr4)):
                hits[k] += 1
    return [hits[k] for k, *_ in arrays]


class TestWindowVsNumpyFullScan:
    """The scan of a window sorted by Re u_s finds every hit the full scan finds.

    `points` per range is pinned to the table sizes before the window.
    """

    @pytest.mark.parametrize(
        "C,eps,k_range,samples,seeds,points",
        [
            # the rational-census bench experiment
            (1.0, 1.0, (3, 5), 200, range(6), [156, 936, 2928]),
            # criterion 9 (on a prefix of its 400 samples)
            (1.0, 1.0, (4, 8), 100, (101, 202, 303),
             [696, 2196, 10502, 36624, 163164]),
            # phi(2) = 1.5 caps delta at 1
            (3.0, 1.0, (1, 5), 100, (1, 2, 3), [56, 546, 2214, 11992, 37406]),
            # most samples hit in every range
            (4.0, 0.5, (4, 6), 300, (5,), [3346, 10588, 50690]),
        ],
    )
    def test_same_points_and_hits(self, C, eps, k_range, samples, seeds, points):
        tables = _range_point_arrays(*k_range, C, eps)
        for seed in seeds:
            rep = khinchin_experiment(C, eps, k_range, samples, seed)
            assert [r["points"] for r in rep.ranges] == points
            assert [r["hits"] for r in rep.ranges] == numpy_full_scan_hits(
                tables, samples, seed)

    def test_tables_sorted_by_re_u(self):
        for _, points in _range_point_arrays(3, 5, 1.0, 1.0):
            keys = [p[0].real for p in points]
            assert keys == sorted(keys)


def gauss_int_tables(k_lo, k_hi, C, eps):
    """The tables as built from GaussInt points: complex(r) / complex(q)."""
    region = kprime_region(min(1.0, phi(2.0**k_lo, C, eps)))
    out = []
    for k in range(k_lo, k_hi + 1):
        points = []
        for m in range(2**k, 2 ** (k + 1)):
            phi4 = phi(m, C, eps) ** 4
            for q, r, p in enumerate_rationals_qnorm(m, region).points:
                points.append((complex(r) / complex(q), complex(p) / complex(q), phi4))
        out.append((k, points))
    return out


def bits(points):
    """The multiset of points, each float by its exact bits (-0.0 apart from 0.0)."""
    return Counter(tuple(x.hex() for x in (u.real, u.imag, v.real, v.imag, t4))
                   for u, v, t4 in points)


class TestTablesFromIntKeys:
    """Tables from the walk's int keys hold the GaussInt tables' points, bit for bit."""

    # (10, 1) has phi(8) = 1.25, so delta clamps to 1
    @pytest.mark.parametrize("C,eps", [(1.0, 1.0), (4.0, 0.5), (10.0, 1.0)])
    def test_same_points_bit_for_bit(self, C, eps):
        want = gauss_int_tables(3, 5, C, eps)
        got = _range_point_arrays(3, 5, C, eps)
        assert [k for k, _ in got] == [k for k, _ in want] == [3, 4, 5]
        for (_, points), (_, ref) in zip(got, want):
            assert bits(points) == bits(ref)
            keys = [p[0].real for p in points]
            assert keys == sorted(keys)


class TestKhinchinSignal:
    """A (C, eps) where most samples hit, so the trend rests on hundreds of hits."""

    def test_fraction_does_not_increase(self):
        rep = khinchin_experiment(4.0, 0.5, (4, 6), samples=300, seed=5)
        assert [r["hits"] for r in rep.ranges] == [300, 298, 296]
        fr = rep.fractions()
        assert all(a >= b for a, b in zip(fr, fr[1:]))
