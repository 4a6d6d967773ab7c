"""Fixed calibration kernel, run between the ops of every workload.

The kernel does the kinds of work the program's hot path does: a
QUADPACK integral of a Python callback that calls ``scipy.special.ive``
and ``math`` functions, scalar ``ive`` calls, numpy operations on
one-element arrays, and dict building and sorting in the interpreter.
It never imports chientropy, so no change to the program can change its
cost; only the host's speed can.  Dividing op time by kernel time
therefore cancels the slow and fast phases of a shared host.  A mix of
several kinds of work was chosen because, measured in separate
processes, it tracked the ops' speed more closely (1.8 % relative
standard deviation of the ratio) than any one of its parts (2.1 to
4.6 %).

The CLI workload's ops are child processes whose time goes mostly to
interpreter start and imports, and on a shared host their speed does
not follow that of computation in one process.  They are calibrated with
``process_kernel``, a fresh interpreter that imports numpy and
scipy.special: over five 18-s runs of one CLI call, the call's time
over the process kernel's varied 2 %, against 7 % over ``kernel``.

Do not edit this file: every ``wall_rel`` figure is in units of these
kernels' run times, and any change rescales all of them.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln, ive

# Reference run times of the two kernels, about their medians on the
# 2-core machine the benchmark was defined on.  op_ms_p50 rescales op
# times from the run's host speed to this reference speed.
KERNEL_REFERENCE_S = 0.005
PROCESS_KERNEL_REFERENCE_S = 0.5

_ARGS = tuple((0.25 * (i % 9) - 0.75, 0.05 + 0.61 * i) for i in range(120))


def _density(x: float) -> float:
    return math.exp(-0.5 * x + 0.3 * math.log(x) + math.log(ive(0.7, math.sqrt(3.0 * x))))


def kernel() -> float:
    """One fixed unit of work; returns a checksum so nothing is elided."""
    table = {}
    for i in range(600):
        table[str(i)] = i * 0.5
    s = sorted(table.items(), key=lambda kv: -kv[1])[0][1]
    for nu, x in _ARGS * 3:
        s += math.log(ive(nu, x)) + x
    for nu, x in _ARGS:
        a = np.atleast_1d(np.asarray(x, dtype=float))
        if np.any(~np.isfinite(a)) or np.any(a <= 0.0):
            raise ValueError("kernel arguments must be positive")
        s += float((-0.5 * a + 0.3 * np.log(a) + np.log(ive(nu, np.sqrt(a)))
                    - gammaln(1.5))[0])
    s += quad(_density, 0.0, 10.0, limit=200)[0]
    s += quad(_density, 10.0, np.inf, limit=200)[0]
    return s


def timed_kernel(reps: int) -> float:
    """Wall seconds of ``reps`` kernel runs."""
    t0 = time.perf_counter()
    for _ in range(reps):
        kernel()
    return time.perf_counter() - t0


def timed_process_kernel() -> float:
    """Wall seconds of one fresh interpreter importing numpy and scipy.special."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy, scipy.special"],
                   check=True, capture_output=True)
    return time.perf_counter() - t0
