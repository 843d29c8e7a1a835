"""Host-speed calibration: a fixed piece of exact arithmetic, timed.

The benchmark runs on shared cores whose speed drifts by up to 2x over tens
of seconds.  Workers time ``kernel()`` before every request and after the
last one; run.py divides each request's time by the local calibration time
(the median of the nearest samples) and multiplies by REFERENCE_S.  A
latency then reads as the wall time the request would take on a host that
runs the kernel in REFERENCE_S, and host drift cancels as far as it slows
the kernel and the program alike.

The kernel is pure standard library and imports nothing of weightpoly, so
no change to the program moves it.  It does the kind of work the program
does: Fraction elimination, tuple hashing, dict and list traffic.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# Seconds kernel() takes on an unloaded reference host (2 cores, Python
# 3.11).  A constant, so calibrated values compare across runs and commits.
REFERENCE_S = 0.004
# Calibration samples on each side of a request that set its local speed.
WINDOW = 2
# Samples right after set-up that set the speed set-up time is scaled by.
SETUP_SAMPLES = 3

_N = 6


def _eliminate(k: int) -> int:
    rows = [[Fraction((3 * i + 5 * j + k) % 7 + 1, (i + 2 * j) % 4 + 1) for j in range(_N)]
            for i in range(_N)]
    for c in range(_N):
        p = next(r for r in range(c, _N) if rows[r][c] != 0)
        rows[c], rows[p] = rows[p], rows[c]
        for r in range(c + 1, _N):
            f = rows[r][c] / rows[c][c]
            rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    seen: dict[tuple[int, int], int] = {}
    for i in range(3000):
        key = (i % 61, i % 37)
        seen[key] = seen.get(key, 0) + i
    return len(seen) + sorted(seen.values())[-1] % 7 + rows[-1][-1].denominator


def kernel() -> int:
    return sum(_eliminate(k) for k in range(3))


def sample() -> float:
    # With the collector off, the kernel's time does not grow with the
    # program's heap (a collection scans every live object), so a change
    # that only grows the heap cannot make calibrated times read lower.
    gc.disable()
    try:
        t0 = time.perf_counter()
        kernel()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def local_speed(cal: list[float], i: int) -> float:
    """Calibration time around request i, which ran between cal[i] and cal[i+1]."""
    lo = max(0, i + 1 - WINDOW)
    return statistics.median(cal[lo:i + 1 + WINDOW])


def calibrated_setup(setup_s: float, cal: list[float]) -> float:
    """Set-up time scaled by the speed measured right after it."""
    return setup_s * REFERENCE_S / statistics.median(cal[:SETUP_SAMPLES])


def calibrated(latencies: list[float], cal: list[float]) -> list[float]:
    """Each latency scaled to the reference host speed."""
    return [t * REFERENCE_S / local_speed(cal, i) for i, t in enumerate(latencies)]
