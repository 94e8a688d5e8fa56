"""Time one fresh-process set-up: import posevote and build a workload's models.

    python3 bench/setup_probe.py <workload>

Prints the seconds taken. ``run.py`` starts this several times per run and
reports the median as ``setup_s``; the probes inherit its one-thread
BLAS/OpenMP environment.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402  (imports numpy, scipy, posevote)

WORKLOADS[sys.argv[1]].build_models()
print(time.perf_counter() - START)
