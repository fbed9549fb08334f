"""Seeded sampling of the fundamental domain and the Khinchin experiment.

Sampling is by rejection from the box |z| <= 2^(-1/4), |t| <= 2^(-1/2)
in C x R coordinates, which provably contains the Dirichlet domain.
The experiment machinery runs in machine floats: margins are O(1), so
double precision is ample.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import asdict, dataclass, field
from functools import lru_cache
from typing import Optional

from ..domain import nearest_float
from .enumerate import _qnorm_keys, kprime_region
from .khinchin import phi

__all__ = [
    "sample_K_floats",
    "KhinchinExperimentReport",
    "khinchin_experiment",
]

_Z_BOUND = 2.0**-0.25
_T_BOUND = 2.0**-0.5


def _draw(rng: random.Random) -> Optional[tuple[complex, complex]]:
    """One try of the rejection sampler: float (u, v) if it lands in K_D."""
    zr = rng.uniform(-_Z_BOUND, _Z_BOUND)
    zi = rng.uniform(-_Z_BOUND, _Z_BOUND)
    if zr * zr + zi * zi > _Z_BOUND * _Z_BOUND:
        return None
    t = rng.uniform(-_T_BOUND, _T_BOUND)
    z = complex(zr, zi)
    u = z * complex(1.0, 1.0)
    v = complex(abs(z) ** 2, t)
    return (u, v) if nearest_float(u, v) == (0, 0, 0) else None


def sample_K_floats(rng: random.Random) -> tuple[complex, complex]:
    """One uniform sample of K_D as float (u, v) Siegel coordinates."""
    while (uv := _draw(rng)) is None:
        pass
    return uv


@dataclass
class KhinchinExperimentReport:
    C: float
    eps: float
    samples: int
    seed: int
    ranges: list[dict] = field(default_factory=list)

    def fractions(self) -> list[float]:
        return [r["fraction"] for r in self.ranges]

    def as_dict(self) -> dict:
        return asdict(self)


@lru_cache(maxsize=8)
def _range_point_arrays(k_lo: int, k_hi: int, C: float, eps: float):
    """Per dyadic range k, the float points (u_s, v_s, phi(m)^4) sorted by Re u_s.

    Rational points are enumerated over the K' box (K thickened by the
    largest relevant phi) in lowest terms, as the structured walk's unsorted
    flat keys: u_s = r/q and v_s = p/q are complex quotients of int pairs,
    the same bits as complex(r) / complex(q), and each range is sorted once.
    Points tied on Re u_s keep no fixed order; no hit count depends on it.
    Cached: the tables depend only on the parameters, not the seed.
    """
    delta = min(1.0, phi(2.0**k_lo, C, eps))
    region = kprime_region(delta)
    out = []
    for k in range(k_lo, k_hi + 1):
        points = []
        for m in range(2**k, 2 ** (k + 1)):
            phi4 = phi(m, C, eps) ** 4
            for qa, qb, ra, rb, pa, pb in _qnorm_keys(m, region, True):
                qc = complex(qa, qb)
                points.append((complex(ra, rb) / qc, complex(pa, pb) / qc, phi4))
        points.sort(key=lambda point: point[0].real)
        out.append((k, points))
    return tuple(out)


def khinchin_experiment(
    C: float,
    eps: float,
    k_range: tuple[int, int],
    samples: int,
    seed: int,
) -> KhinchinExperimentReport:
    """Fraction of sampled h in K with a phi-good rational in each dyadic range.

    A sample counts for range k if some lowest-terms rational point with
    |q|^2 in [2^k, 2^(k+1)) lies within C |q|^(-1-eps) of it.  Sampling is
    reproducible: each sample uses a sub-seed derived from the master seed.

    Only points with |Re u_s - Re u| <= sqrt(2) max phi + 1e-6 are tested.
    No hit is lost: on the model |u - u_s|^2 = 2 Re w <= 2 |w| = 2 d^2, with
    w = conj(v_s) - conj(u_s) u + v, and float rounding adds < 1e-12 to 2 d^2.
    """
    k_lo, k_hi = k_range
    tables = _range_point_arrays(k_lo, k_hi, C, eps)
    windows = [
        (k, points, [p[0].real for p in points], 2**0.5 * max(p[2] for p in points) ** 0.25)
        for k, points in tables
        if points
    ]
    master = random.Random(seed)
    sub_seeds = [master.getrandbits(64) for _ in range(samples)]
    hits = {k: 0 for k, _ in tables}
    for s in sub_seeds:
        u, v = sample_K_floats(random.Random(s))
        for k, points, re_us, half in windows:
            lo = bisect_left(re_us, u.real - half - 1e-6)
            hi = bisect_right(re_us, u.real + half + 1e-6)
            for us, vs, t4 in points[lo:hi]:
                if abs(vs.conjugate() - us.conjugate() * u + v) ** 2 <= t4:
                    hits[k] += 1
                    break
    report = KhinchinExperimentReport(C=C, eps=eps, samples=samples, seed=seed)
    for k, points in tables:
        report.ranges.append(
            {
                "k": k,
                "m_lo": 2**k,
                "m_hi": 2 ** (k + 1) - 1,
                "points": len(points),
                "hits": hits[k],
                "fraction": hits[k] / samples if samples else 0.0,
            }
        )
    return report
