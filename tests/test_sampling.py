import random


from heiscf.domain import DirichletDomain, nearest_float
from heiscf.lab.sampling import (
    acceptance_stats,
    khinchin_experiment,
    sample_K,
    sample_K_floats,
)
from heiscf.siegel import PrecisionContext

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

    def test_certified_sample(self):
        rng = random.Random(2)
        h = sample_K(rng, ctx=PrecisionContext(64))
        assert not h.exact
        assert K.nearest(h).u.is_zero()

    def test_reproducible(self):
        a = sample_K_floats(random.Random(7))
        b = sample_K_floats(random.Random(7))
        assert a == b

    def test_acceptance_rate(self):
        # box volume 4 in (z, t) coordinates vs domain volume 1
        st = acceptance_stats(random.Random(3), 4000)
        assert abs(st["acceptance_rate"] - 0.25) < 0.03
        assert st["max_gauge_norm"] <= 2.0**-0.25 + 1e-12


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
