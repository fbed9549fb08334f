"""Continued fractions and diophantine approximation on the Heisenberg group."""

from . import cf, domain, gaussian, matrices, siegel
from .gaussian import *  # noqa: F403
from .siegel import *  # noqa: F403
from .matrices import *  # noqa: F403
from .domain import *  # noqa: F403
from .cf import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (gaussian, siegel, matrices, domain, cf)
    for name in module.__all__
]
