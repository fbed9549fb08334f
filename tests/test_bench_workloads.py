"""The benchmark's orbit workloads run the identity suite that `heiscf verify` runs.

bench/workloads.py keeps its own copy of the suite's loop; this pins it to
``verify_expansion``, report for report.  Every workload that
BENCHMARK.json declares also runs one pass here, so a change that breaks
something the bench reaches fails here, not only in the bench gate.  The
file is loaded from its path and not modified.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from heiscf.cf import expand, reconstruct
from heiscf.lab.identities import verify_expansion

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "bench" / "workloads.py"
DECLARED = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("heiscf_bench_workloads", WORKLOADS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def assert_same_suite(workloads, e):
    bench = [r.as_dict() for r in workloads._identity_suite(e)]
    assert bench == [r.as_dict() for r in verify_expansion(e)]
    return bench


def test_exact_orbits_suite_is_verify_expansion(workloads):
    for g0, digits in workloads.ExactOrbits(0).strings[:6]:
        e = expand(reconstruct(g0, digits))
        assert e.terminated
        assert len(assert_same_suite(workloads, e)) == 4 * e.depth + 3


def test_bigfloat_orbits_suite_is_verify_expansion(workloads):
    w = workloads.BigfloatOrbits(0)
    assert (w.BITS, w.DEPTH) == (512, 20)
    for h in w.points[:3]:
        e = expand(h, max_depth=w.DEPTH)
        assert not e.terminated and e.depth == w.DEPTH
        assert len(assert_same_suite(workloads, e)) == 4 * e.depth - 1


@pytest.mark.parametrize("name", DECLARED)
def test_one_pass_reports_no_problem(workloads, name):
    w = workloads.WORKLOADS[name](0)
    w.reset()
    for task in w.tasks():
        _, problems = task.check(task.run())
        assert problems == [], task.label
