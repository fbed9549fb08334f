"""Printed Gaussian rationals and drawn fixtures against recordings.

``tests/data/pinned/*.txt`` hold, one value a line, the output of the
generators below as printed by the Gaussian-lowest-terms ``GaussRat`` that
preceded the integer-denominator one.  A change to how a Gaussian rational
is stored must leave every printed point and every drawn fixture as it was:
in particular the bound ``den.norm() <= q_norm_max`` in
``random_rational_point`` keeps its Gaussian meaning, which the draws with
``q_norm_max=10**4`` (where trailing digits are dropped) pin down.

Re-record with ``PYTHONPATH=src python tests/test_pinned_rationals.py``
only for a change that means to alter these strings.
"""

import random
from pathlib import Path

import pytest

from heiscf.gaussian import GaussInt, GaussRat
from heiscf.lab.random_points import random_rational_point

PINNED = Path(__file__).parent / "data" / "pinned"


def rational_point_strs() -> list[str]:
    """Seeds 0..19 with q_norm_max=10**10, then 5 seeds with 10**4, where
    trailing digits are dropped."""
    out = [
        str(random_rational_point(random.Random(s), length=5, q_norm_max=10**10))
        for s in range(20)
    ]
    out += [
        str(random_rational_point(random.Random(s), length=5, q_norm_max=10**4))
        for s in range(5)
    ]
    return out


def _gauss_int(rng: random.Random, lo: int, hi: int, nonzero: bool = False) -> GaussInt:
    while True:
        g = GaussInt(rng.randint(lo, hi), rng.randint(lo, hi))
        if not (nonzero and g.is_zero()):
            return g


def gaussian_den_values() -> list[GaussRat]:
    """50 seeded values built from Gaussian numerators and denominators:
    25 quotients num/den, then 25 results of + - * / on two of them."""
    rng = random.Random(20131)
    make = lambda: GaussRat.make(_gauss_int(rng, -30, 30), _gauss_int(rng, -12, 12, True))
    out = [make() for _ in range(25)]
    ops = (
        lambda x, y: x + y,
        lambda x, y: x - y,
        lambda x, y: x * y,
        lambda x, y: x / y if y else x * y,
    )
    for k in range(25):
        out.append(ops[k % 4](make(), make()))
    return out


RECORDINGS = {
    "random_rational_points": rational_point_strs,
    "gaussian_den_rationals": lambda: [str(x) for x in gaussian_den_values()],
}


@pytest.mark.parametrize("name", sorted(RECORDINGS))
def test_strings_match_recording(name):
    recorded = (PINNED / f"{name}.txt").read_text().splitlines()
    assert RECORDINGS[name]() == recorded


if __name__ == "__main__":
    PINNED.mkdir(parents=True, exist_ok=True)
    for name, fn in RECORDINGS.items():
        (PINNED / f"{name}.txt").write_text("".join(s + "\n" for s in fn()))
