"""Experimental side of the package: identity checks, enumeration,
approximation quality, convergence sums, and seeded sampling."""

from . import approx, enumerate, identities, khinchin, random_points, sampling
from .approx import *  # noqa: F403
from .enumerate import *  # noqa: F403
from .identities import *  # noqa: F403
from .khinchin import *  # noqa: F403
from .random_points import *  # noqa: F403
from .sampling import *  # noqa: F403

__all__ = [
    name
    for module in (approx, enumerate, identities, khinchin, random_points, sampling)
    for name in module.__all__
]
