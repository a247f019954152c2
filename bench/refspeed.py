"""Reference-speed timing: timings scaled by how fast the machine runs right now.

On a shared virtual machine, single-threaded work runs at one of a few
speeds (the probe below takes about 2.7, 4.1 or 8 ms) for tens of seconds at
a time, and interpreted code, small LAPACK calls and memory-bound numpy shift
together. A run of 30 s then reads whatever state the host was in. So a fixed
reference op, the probe, is timed between short stretches of work (a lap:
after every unit, and between the cases of a table2 unit), and each timing
taken between two probes is scaled by REF_S / (mean of the two probe times).
The result is seconds at reference speed: what the time would have been had
the machine run the probe in REF_S.

The probe mixes a pure-Python loop, small single-threaded LAPACK and BLAS
calls (30 x 30) and an elementwise pass over 400 KB. It calls no threaded BLAS
routine and nothing in the package, so a change to the program, its thread
policy included, moves the program's times and not the probe's.

Two-thread BLAS work on large blocks does not follow the probe: a repeated
identical field unit kept within 4-8% raw while the probe moved 2.7-4.7 ms,
so scaling only added noise there. Such a workload sets `scaled = False`.
"""

from __future__ import annotations

import time

import numpy as np

# probe time, median of REPEATS, on the 2-core VM (OpenBLAS 0.3.31) the benchmark was tuned on
REF_S = 0.003
REPEATS = 5


class Probe:
    def __init__(self):
        rng = np.random.default_rng(0)
        r = rng.random((30, 30))
        self.spd = r @ r.T + 30.0 * np.eye(30)
        self.vec = rng.random(50_000)
        self.samples: list[float] = []
        for _ in range(REPEATS):  # first calls pay for lazy set-up in numpy and LAPACK
            self._once()

    def _once(self) -> None:
        s = 0
        for i in range(20_000):
            s += i * i % 7
        for _ in range(60):
            np.linalg.cholesky(self.spd)
            self.spd @ self.spd
        for _ in range(10):
            np.exp(self.vec)

    def measure(self) -> float:
        """The probe's time now: the median of REPEATS timings."""
        ts = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            self._once()
            ts.append(time.perf_counter() - t0)
        ts.sort()
        t = ts[REPEATS // 2]
        self.samples.append(t)
        return t


def factor(before: float, after: float) -> float:
    """Scale for a timing taken between probes that read `before` and `after`."""
    return REF_S / (0.5 * (before + after))
