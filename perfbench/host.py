"""Host calibration: a fixed pure-Python loop and a NumPy streaming bandwidth.

Both are recorded beside each traced result so that figures taken on
different hosts can be read against each other; neither is gated.

The streaming array is sized at four times the last-level cache, so the
bandwidth is main memory's, not the cache's. Python cannot ask the
hardware for its cache size without reading system files outside the
checkout, so the cache size is a stated constant: ``LLC_MB`` is the L3 of
the 2-core Xeon host the benchmark was calibrated on (``lscpu``: 300 MiB).
"""

from __future__ import annotations

import time

import numpy as np

#: Last-level cache assumed for sizing the stream (MiB).
LLC_MB = 300
#: Stream array size: at least four times the last-level cache (MiB).
STREAM_MB = 4 * LLC_MB
PY_LOOP_ITERATIONS = 2_000_000
REPS = 3


def py_loop_s() -> float:
    """Best-of-``REPS`` seconds for a fixed pure-Python integer loop."""
    best = float("inf")
    for _ in range(REPS):
        t0 = time.perf_counter()
        acc = 0
        for i in range(PY_LOOP_ITERATIONS):
            acc += i * i
        best = min(best, time.perf_counter() - t0)
    return best


def numpy_stream_gbs(megabytes: int = STREAM_MB) -> float:
    """Best-of-``REPS`` in-place scale bandwidth in GB/s (read + write).

    One float64 array of ``megabytes`` MiB is scaled in place, moving
    twice its size per pass; a single array keeps the footprint at the
    stated size.
    """
    a = np.ones(megabytes * 2**20 // 8)
    moved = 2 * a.nbytes
    best = float("inf")
    for _ in range(REPS):
        t0 = time.perf_counter()
        np.multiply(a, 1.0000001, out=a)
        best = min(best, time.perf_counter() - t0)
    return moved / best / 1e9


def calibrate(smoke: bool = False) -> dict:
    """The host metrics as ``{name: (value, unit)}``."""
    megabytes = 64 if smoke else STREAM_MB
    return {
        "host.py_loop_s": (py_loop_s(), "s"),
        "host.numpy_stream_gbs": (numpy_stream_gbs(megabytes), "GB/s"),
        "host.stream_array_mb": (float(megabytes), "MB"),
        "host.llc_mb": (float(LLC_MB), "MB"),
    }
