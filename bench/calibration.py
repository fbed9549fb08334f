"""The calibration chunk that bench/run.py scales every time by.

On a shared host the CPU speed can change by a third within seconds and
over minutes, and differ between vCPUs; process CPU time changes with it.
A fixed chunk of pure-Python Fraction arithmetic, outside heiscf, does
what the library does most (big-int gcds, small objects, calls), so its
time follows the host's speed and not the program's.  A time t next to
chunks of median time c is reported as t * CAL_REF_S / c: the time on a
host where one chunk takes CAL_REF_S.
"""

from fractions import Fraction
from time import perf_counter

CAL_REF_S = 1e-3


def calibration_chunk() -> float:
    """Time one fixed piece of Fraction arithmetic, in seconds."""
    t0 = perf_counter()
    x, a = Fraction(0), Fraction(355, 113)
    for i in range(1, 61):
        x = (x + a / i) * Fraction(i, i + 3)
        a = a * Fraction(2 * i + 1, 3 * i + 2) + 1
    return perf_counter() - t0
