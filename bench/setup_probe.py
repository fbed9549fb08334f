"""One set-up, timed by run.py from a fresh interpreter.

Imports heiscf, heiscf.lab and heiscf.cli (which computes RK_KD at import
time), generates the workload's seeded inputs, then prints "ready".  After
that, untimed, it prints the median of CHUNKS calibration chunks run in
this process, by which run.py scales the set-up time.

    python3 bench/setup_probe.py <workload> <seed>
"""

import os
import statistics
import sys

sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import heiscf  # noqa: E402
import heiscf.cli  # noqa: E402,F401
import heiscf.lab  # noqa: E402,F401
import workloads  # noqa: E402
from calibration import calibration_chunk  # noqa: E402

CHUNKS = 9

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2])).tasks()
print("ready", flush=True)
print(statistics.median(calibration_chunk() for _ in range(CHUNKS)), flush=True)
