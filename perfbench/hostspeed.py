"""Host speed, measured beside the work, so that timings can be scaled to it.

On a shared host the speed of this process drifts by up to about 2x for
seconds to tens of minutes at a time, while the CPU time it is given stays
whole: neighbours on the same machine slow every instruction.  No statistic taken
inside one run can see past a slow phase that outlasts the run.  So each
timed operation is preceded by one run of a fixed kernel, and the
operation's time is reported at nominal speed:

    t * NOMINAL_S / median(kernel times of the WINDOW samples on each side)

The kernel uses the standard library only: exact `Fraction` elimination on
a fixed matrix, a dict of tuple keys and a small-int loop, about 40/30/30
of its time.  coxarith never runs it, so a change to the program moves the
operation times and leaves the kernel alone.  On the 2-vCPU machine the
benchmark was tuned on, a four-minute recording of warm census passes cut
into 10 s windows gave, against the census's per-diagram times, elasticity
0.82 for the elimination alone, 0.94 for the dict and 1.25 for the loop;
this mix comes to about 1.0, with correlation 0.98.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

NOMINAL_S = 1.0e-3  # a round figure near the kernel's median on the tuning machine
WINDOW = 12  # kernel samples on each side of an operation that set its speed

_N = 6
_MATRIX = [[Fraction(1, i + j + 1) + (Fraction(3, 2) if i == j else 0) for j in range(_N)]
           for i in range(_N)]
_KEYS = 1100
_LOOP = 3500


def _kernel() -> int:
    a = [row[:] for row in _MATRIX]
    for k in range(_N):
        for i in range(k + 1, _N):
            f = a[i][k] / a[k][k]
            for j in range(k, _N):
                a[i][j] -= f * a[k][j]
    table = {(i, i % 13): str(i) for i in range(_KEYS)}
    s = 0
    for i in range(_LOOP):
        s += i * i % 7
    return a[-1][-1].denominator + len(table) + s


def sample() -> float:
    """Seconds of one kernel run, with the cyclic collector held off so that
    a collection the program's garbage has made due is not billed here."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _kernel()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scaled(samples: list[tuple]) -> list[tuple]:
    """(key, seconds at nominal speed) for each (key, seconds, kernel seconds)
    of `samples`, which are in the order they were taken, each kernel run
    just before its operation."""
    kernels = [k for _key, _t, k in samples]
    print(f"host speed: kernel median {1e6 * statistics.median(kernels):.0f} us over "
          f"{len(kernels)} samples, nominal {1e6 * NOMINAL_S:.0f} us")
    out = []
    for i, (key, t, _k) in enumerate(samples):
        local = statistics.median(kernels[max(0, i - WINDOW):i + WINDOW + 1])
        out.append((key, t * NOMINAL_S / local))
    return out
