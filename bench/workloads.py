"""The benchmark's three seeded workloads.

A workload turns a seed into a fixed list of tasks.  Each task's ``run``
is the timed library work; its ``check`` is untimed and returns the
task's exact results (for the output digest) and the problems an
independent check found.  Float residuals and timings stay out of the
exact results, so a legitimate change in rounding is not a failure.

The library is reached through module attributes looked up at call time,
never through names bound here, so the spans of a traced run see every
call.
"""

from __future__ import annotations

import math
import random
from typing import Callable, NamedTuple

import heiscf.cf as cf
import heiscf.gaussian as gaussian
import heiscf.lab.approx as approx
import heiscf.lab.enumerate as enumerate_
import heiscf.lab.identities as identities
import heiscf.lab.khinchin as khinchin
import heiscf.lab.random_points as random_points
import heiscf.lab.sampling as sampling
from heiscf.siegel import PrecisionContext


class Task(NamedTuple):
    label: str
    item: bool  # one item of the workload; other tasks count in wall_s only
    run: Callable[[], object]
    check: Callable[[object], tuple[object, list[str]]]


def _identity_suite(e) -> list:
    """All four verifiers at every index, as ``heiscf verify`` runs them."""
    top = e.depth if e.terminated else e.depth - 1
    reports = []
    for n in range(top + 1):
        reports += [
            identities.verify_prq(e, n),
            identities.verify_tildeprq(e, n),
            identities.verify_distance_formula(e, n),
        ]
        if n >= 1:
            reports.append(identities.verify_fracq(e, n))
    return reports


def _orbit_item(e) -> tuple:
    """Identity suite and approx_quality at every index, as verify and measure."""
    return e, _identity_suite(e), [approx.approx_quality(e, n) for n in range(e.depth)]


def _orbit_record(result) -> tuple[dict, list[str]]:
    e, reports, quality = result
    problems = [f"identity {r.identity} failed at n={r.n}" for r in reports if not r.passed]
    problems += [v for rec in quality for v in rec.violations]
    record = {
        "gamma0": str(e.gamma0),
        "digits": [str(g) for g in e.digits],
        "terminated": e.terminated,
        "convergents": [str(c) for c in e.convergents()],
        "identities": [[r.identity, r.n, r.passed] for r in reports],
        "quality": [rec.passed for rec in quality],
    }
    return record, problems


class ExactOrbits:
    """Seeded digit strings through reconstruct, expand, verifiers, approx_quality.

    Each length 1..10 occurs ITEMS // 10 times in seeded order, so the
    work per seed varies little.
    """

    ITEMS = 100

    def __init__(self, seed: int):
        rng = random.Random(seed)
        lengths = [1 + i % 10 for i in range(self.ITEMS)]
        rng.shuffle(lengths)
        self.strings = [random_points.random_digit_string(rng, n) for n in lengths]

    def reset(self) -> None:
        pass

    def tasks(self) -> list[Task]:
        return [
            Task(f"orbit-{i}", True, self._runner(g0, digits), self._checker(g0, digits))
            for i, (g0, digits) in enumerate(self.strings)
        ]

    @staticmethod
    def _runner(g0, digits):
        return lambda: _orbit_item(cf.expand(cf.reconstruct(g0, digits)))

    @staticmethod
    def _checker(g0, digits):
        def check(result):
            record, problems = _orbit_record(result)
            if record["gamma0"] != str(g0) or record["digits"] != [str(g) for g in digits]:
                problems.append("expansion does not round-trip the digit string")
            if not record["terminated"]:
                problems.append("rational expansion did not terminate")
            return record, problems

        return check


class BigfloatOrbits:
    """Certified 512-bit orbits to depth 20: criterion 3's settings.

    512 bits, because random_bigfloat_point raises OverflowError at 1024
    bits or more; the benchmark leaves that defect visible, not bypassed.
    """

    ITEMS = 40
    BITS = 512
    DEPTH = 20

    def __init__(self, seed: int):
        rng = random.Random(seed)
        ctx = PrecisionContext(self.BITS)
        self.points = [random_points.random_bigfloat_point(rng, ctx) for _ in range(self.ITEMS)]

    def reset(self) -> None:
        pass

    def tasks(self) -> list[Task]:
        return [Task(f"orbit-{i}", True, self._runner(h), self._check)
                for i, h in enumerate(self.points)]

    def _runner(self, h):
        return lambda: _orbit_item(cf.expand(h, max_depth=self.DEPTH))

    def _check(self, result):
        record, problems = _orbit_record(result)
        if len(record["digits"]) != self.DEPTH:
            problems.append(f"expected {self.DEPTH} certified digits")
        return record, problems


def _triples(points) -> list:
    return [[[g.re, g.im] for g in t] for t in points]


class RationalCensus:
    """Rational points by shell and near a point: enumeration, tables, fixtures.

    Items are all shells m <= M_MAX with r2(m) > 0, as ``heiscf count``
    runs them.  Each pass also runs one Khinchin partial sum, one Khinchin
    experiment with cold tables and FIXTURES prop71 fixtures whose |q_n|
    lies in FIXTURE_Q, so that their search regions are alike in size
    whatever the seed.
    """

    M_MAX = 80
    PARTIAL_SUM_M = 10000
    K_RANGE = (3, 5)
    SAMPLES = 200
    FIXTURES = 2
    FIXTURE_Q = (70, 110)
    C, EPS = 1.0, 1.0

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.shells = [m for m in range(1, self.M_MAX + 1) if gaussian.r2_count(m) > 0]
        self.experiment_seed = rng.getrandbits(32)
        self.region = enumerate_.kprime_region(0.0)
        lo, hi = self.FIXTURE_Q
        self.fixtures = []
        while len(self.fixtures) < self.FIXTURES:
            sub_seed = rng.getrandbits(32)
            e = cf.expand(self._fixture_point(sub_seed))
            ns = [n for n in range(1, e.depth)
                  if lo * lo <= e.first_column(n)[0].norm() <= hi * hi]
            if ns:
                self.fixtures.append((sub_seed, max(ns)))

    @staticmethod
    def _fixture_point(sub_seed: int):
        """A rational point as ``heiscf bestapprox`` draws its fixtures."""
        return random_points.random_rational_point(
            random.Random(sub_seed), length=5, q_norm_max=10**10)

    def reset(self) -> None:
        # each pass pays for the tables, as one `heiscf khinchin` run does
        sampling._range_point_arrays.cache_clear()

    def tasks(self) -> list[Task]:
        tasks = [Task(f"shell-{m}", True, self._shell_runner(m), self._check_shell)
                 for m in self.shells]
        tasks.append(Task("khinchin_partial_sum", False, self._partial_sum, self._check_sum))
        tasks.append(Task("khinchin_experiment", False, self._experiment, self._check_experiment))
        tasks += [Task(f"prop71-{i}", False, self._fixture_runner(s, n), self._check_fixture)
                  for i, (s, n) in enumerate(self.fixtures)]
        return tasks

    def _shell_runner(self, m):
        def run():
            return (
                m,
                enumerate_.enumerate_rationals_qnorm(m, self.region),
                enumerate_.enumerate_rationals_qnorm(m, self.region, lowest_terms=False),
                enumerate_.enumerate_rationals_naive(m, self.region),
            )

        return run

    @staticmethod
    def _check_shell(result):
        m, lowest, all_terms, naive = result
        problems = []
        if lowest.points != naive.points:
            problems.append(f"structured != naive at m={m}")
        if not set(lowest.points) <= set(all_terms.points):
            problems.append(f"lowest-terms points missing from all terms at m={m}")
        record = {"m": m, "lowest": _triples(lowest.points),
                  "naive": _triples(naive.points), "all_terms": _triples(all_terms.points)}
        return record, problems

    def _partial_sum(self):
        return khinchin.khinchin_partial_sum(self.C, self.EPS, self.PARTIAL_SUM_M)

    @staticmethod
    def _check_sum(ks):
        problems = []
        if not (math.isfinite(ks.partial) and ks.partial > 0):
            problems.append(f"partial sum {ks.partial} is not finite and positive")
        if not (math.isfinite(ks.tail_bound) and ks.tail_bound >= 0):
            problems.append(f"tail bound {ks.tail_bound} is not finite")
        return {"M": ks.M}, problems

    def _experiment(self):
        return sampling.khinchin_experiment(
            self.C, self.EPS, self.K_RANGE, self.SAMPLES, self.experiment_seed)

    def _check_experiment(self, ex):
        rows = [[r["k"], r["points"], r["hits"]] for r in ex.ranges]
        problems = []
        if [r[0] for r in rows] != list(range(self.K_RANGE[0], self.K_RANGE[1] + 1)):
            problems.append("experiment did not report every dyadic range")
        problems += [f"range k={k} has no points or too many hits"
                     for k, points, hits in rows if points <= 0 or not 0 <= hits <= self.SAMPLES]
        return rows, problems

    def _fixture_runner(self, sub_seed, n):
        def run():
            e = cf.expand(self._fixture_point(sub_seed))
            return e, approx.prop71_check(e, n)

        return run

    @staticmethod
    def _check_fixture(result):
        e, report = result

        def triples(entries):
            return [entry["triple"] for entry in entries]

        record = {
            "digits": [str(g) for g in e.digits],
            "convergent": str(e.convergent(report.n)),
            "candidates_checked": report.candidates_checked,
            "violations_stated": triples(report.violations_stated),
            "violations_proof": triples(report.violations_proof),
            "violations_thm16": triples(report.violations_thm16),
        }
        problems = [f"thm16 violated by {t}" for t in record["violations_thm16"]]
        return record, problems


WORKLOADS = {
    "exact-orbits": ExactOrbits,
    "bigfloat-orbits": BigfloatOrbits,
    "rational-census": RationalCensus,
}
