"""The reference kernel that measures how fast the host runs Python right now.

On a shared machine the same pure-Python work can take 1.7 times as long
in one minute as in the next, because of load from other tenants.  The
benchmark times a fixed kernel around its timings and scales each timing
by ``REFERENCE_S / measured kernel time``.  Timings are thus in seconds at
a fixed reference speed, and host drift cancels.  The kernel is the
benchmark's own code and never calls coalgkit, so a change to the library
moves the scaled timings, and a change of host speed does not.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# Median kernel time on an uncontended core of the 2-vCPU Intel Xeon VM
# (Python 3.11) on which the benchmark was defined; the scale is about one there.
REFERENCE_S = 0.0055


def _kernel() -> list:
    """Exact elimination on a fixed sparse 14 x 14 rational matrix held as dicts.

    The same mix of work as coalgkit's: Fraction arithmetic, dict updates
    and small allocations.
    """
    n = 14
    rows = [
        {j: Fraction((i * 7 + j * 3) % 11 - 5, (i + j) % 4 + 1) for j in range(n) if (i + 2 * j) % 3}
        for i in range(n)
    ]
    for col in range(n):
        pivot = next((r for r in rows if col in r and min(r) == col), None)
        if pivot is None:
            continue
        pv = pivot[col]
        for r in rows:
            if r is not pivot and col in r:
                f = r[col] / pv
                for c, v in pivot.items():
                    s = r.get(c, 0) - f * v
                    if s:
                        r[c] = s
                    else:
                        r.pop(c, None)
    return rows


def reference_seconds(repeats: int = 5) -> float:
    """Median time of the reference kernel over a few repeats, in seconds."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)
