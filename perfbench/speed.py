"""How fast the machine runs plain Python right now, measured in-process.

Shared machines drift in speed over seconds to minutes, by as much as a
quarter, and that drift would otherwise dominate the run-to-run spread of
every timing.  The meter times a fixed reference workload every
``INTERVAL_S`` of wall time from a SIGALRM handler, in the worker's own
thread, so the samples see the same slowdowns as the checks around them.
Timings are then reported at reference speed: multiplied by
``NOMINAL_REF_S / median sample``.  The reference does integer arithmetic
and dict lookups on a fixed table only, so it allocates no object the
garbage collector tracks, and the verifier's heap cannot slow it down.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

INTERVAL_S = 0.1
# The reference workload takes about this long at reference speed.
NOMINAL_REF_S = 0.001
_ITERATIONS = 10_000
_TABLE = {i: i * 31 % 101 for i in range(97)}


def reference() -> int:
    total = 0
    for i in range(_ITERATIONS):
        total += _TABLE[i % 97] * i % 7
    return total


class SpeedMeter:
    """Samples the reference while entered; ``busy_s`` is the time it took."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.busy_s = 0.0

    def sample(self, *_) -> None:
        start = perf_counter()
        reference()
        elapsed = perf_counter() - start
        self.samples.append(elapsed)
        self.busy_s += elapsed

    def __enter__(self) -> SpeedMeter:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def factor(self) -> float:
        """Multiply a time measured while sampling by this to get it at reference speed."""
        return NOMINAL_REF_S / statistics.median(self.samples)
