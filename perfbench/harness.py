"""Shared pieces of the benchmark: solve records, digests, timing loops.

A *solve* is one ``run_async``, ``run_sync``, model run or service
request. Every workload reports its work as a list of :class:`Solve`
records, one per solve, carrying a digest of the solve's trajectory
(final iterate, recorded times, residual history), the simulated row
relaxations it performed, and whether it reached its residual target.

Closed-loop workloads alternate set-ups with repeats of a fixed *pass*
of solves until the measured time is used up (:func:`run_closed`); the open-loop ``service-mix``
workload drives its own schedule. Both end in a :class:`Measurement`,
from which :func:`end_to_end` derives the end-to-end metrics.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

#: Committed per-seed trajectory digests (see ``python3 perfbench/run.py
#: --write-reference``).
REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: Fresh set-ups per end-to-end run: at least ``SETUP_REPS``, and more
#: (up to ``SETUP_MAX_REPS``) until ``SETUP_MIN_S`` seconds were spent
#: setting up; ``setup_s`` is their median.
SETUP_REPS = 3
SETUP_MIN_S = 2.0
SETUP_MAX_REPS = 100

#: A closed-loop run times at least this many passes per round (one round
#: per set-up), however long.
MIN_ROUND_PASSES = 2


@dataclass
class Solve:
    """One solve's outcome, as the correctness checks and metrics see it."""

    name: str
    digest: str
    rows: int
    seconds: float = 0.0
    ok: bool = True  # reached its residual target (True when it has none)
    iters: int = 0  # iterations/steps to the target (0 when it has none)
    bytes: float = 0.0  # relax-kernel bytes computed from array sizes


@dataclass
class Measurement:
    """What one end-to-end run measured, before metrics are derived."""

    wall_s: float  # wall seconds of the fixed work below
    solves: int  # solves completed in ``wall_s``
    rows: int  # simulated row relaxations in ``wall_s``
    latencies_s: list  # every timed solve's latency
    attempted: int  # operations attempted (timed solves/requests)
    failed: int  # shed, expired, errored or failing a correctness check
    goodput_rps: float  # correct solves per second within the latency limit
    notes: dict = field(default_factory=dict)  # shown in the report only


def digest_arrays(*arrays) -> str:
    """Short hex digest of float64 arrays (the bytes, in order)."""
    h = hashlib.sha256()
    for arr in arrays:
        a = np.ascontiguousarray(np.asarray(arr, dtype=np.float64))
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def trajectory_digest(res) -> str:
    """Digest of a result's final ``x``, ``times`` and ``residual_norms``.

    Accepts simulator/model result objects and the service's result
    dicts alike.
    """
    get = res.get if isinstance(res, dict) else lambda k: getattr(res, k)
    return digest_arrays(get("x"), get("times"), get("residual_norms"))


def inputs_digest(inputs: dict) -> str:
    """Digest of a workload's generated inputs (arrays and plain values)."""
    h = hashlib.sha256()
    for key in sorted(inputs):
        value = inputs[key]
        h.update(key.encode())
        if isinstance(value, np.ndarray):
            h.update(str(value.dtype).encode() + str(value.shape).encode())
            h.update(np.ascontiguousarray(value).tobytes())
        else:
            h.update(json.dumps(value, sort_keys=True, default=repr).encode())
    return h.hexdigest()


def bytes_per_row(A) -> float:
    """Computed bytes one row relaxation touches, from array sizes.

    Per stored nonzero: the value, its column index and the gathered
    ``x`` entry (8 bytes each); per row: ``b``, the diagonal scale and
    the written ``x`` entry. These are bytes *computed* from the data
    layout, not measured memory traffic.
    """
    return 24.0 * A.nnz / A.nrows + 24.0


def timed(fn):
    """Run ``fn()``; return its result and the elapsed wall seconds."""
    t0 = time.perf_counter()
    out = fn()
    return out, time.perf_counter() - t0


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MB (Linux: KiB units)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile of ``values`` (NaN when empty)."""
    if not values:
        return float("nan")
    return float(np.percentile(np.asarray(values, dtype=np.float64), p))


def load_reference() -> dict:
    """The committed reference digests (empty when the file is absent)."""
    if not REFERENCE_PATH.exists():
        return {}
    return json.loads(REFERENCE_PATH.read_text())


def reference_for(workload: str, size: str, seed: int):
    """Committed per-solve digests for one workload/size/seed, or None."""
    return load_reference().get(workload, {}).get(size, {}).get(str(seed))


def check_pass(solves: list, expected: list) -> None:
    """Mark every solve whose digest differs from ``expected`` as failed.

    A pass with a different number of solves than expected fails every
    solve: the work itself changed.
    """
    if len(solves) != len(expected):
        expected = [None] * len(solves)
    for s, want in zip(solves, expected):
        if s.digest != want:
            s.ok = False


def run_setups(build, reps: int = SETUP_REPS, min_s: float = SETUP_MIN_S):
    """Call ``build()`` at least ``reps`` times and until ``min_s`` seconds
    were spent (at most ``SETUP_MAX_REPS`` times); return the last state
    and the times.

    The native-kernel probe is reset before each set-up, so a set-up that
    loads the compiled kernels pays the load from the warm on-disk cache.
    """
    from repro.perf import native

    times = []
    state = None
    while len(times) < reps or (sum(times) < min_s and len(times) < SETUP_MAX_REPS):
        state = None  # let the previous state go before building the next
        native._reset_probe_cache()
        t0 = time.perf_counter()
        state = build()
        times.append(time.perf_counter() - t0)
    return state, times


def run_closed(workload, build, seconds: float, expected_for):
    """Set up and measure a closed loop in ``workload.SETUP_ROUNDS``
    rounds; check every pass. Returns the :class:`Measurement` and the
    set-up times.

    Each round sets the workload up afresh with ``build()`` (timed: its
    share of at least ``SETUP_REPS`` set-ups and of ``SETUP_MIN_S``), runs
    one untimed warm-up pass, then times passes for its share of
    ``seconds`` (at least ``MIN_ROUND_PASSES``). A workload whose set-up
    is long sets up in several rounds: alternating set-up and measurement
    spreads the timed samples over the whole run, so the host's slow
    stretches weigh on fewer of them.

    ``expected_for(state)`` gives the per-solve digests every pass must
    reproduce (from the committed reference or the workload's oracle; it
    is called once, outside the timed passes); each pass must also equal
    the first warm-up pass.

    Every solve of every pass is timed. A solve's latency is the median
    of its times over the passes, and the wall time of the fixed work is
    the sum of those latencies plus the median of the pass time outside
    the solves (tracing, replay, bookkeeping): a slow stretch of the host
    lengthens a few samples of each, not the estimate. Each pass starts
    from a collected heap. Every pass is checked, and every failed solve
    of every pass counts.
    """
    setup_times, passes = [], []
    expected = warm_digests = None
    rounds = workload.SETUP_ROUNDS
    for _ in range(rounds):
        state = None  # let the previous round's state go first
        state, times = run_setups(
            build, reps=math.ceil(SETUP_REPS / rounds), min_s=SETUP_MIN_S / rounds
        )
        setup_times += times
        if expected is None:
            expected = expected_for(state)
        warm = workload.run_pass(state)
        if warm_digests is None:
            warm_digests = [s.digest for s in warm]
        start = time.perf_counter()
        for n in itertools.count(1):
            gc.collect()
            t0 = time.perf_counter()
            solves = workload.run_pass(state)
            passes.append((time.perf_counter() - t0, solves))
            if n >= MIN_ROUND_PASSES and time.perf_counter() - start >= seconds / rounds:
                break
    for _, solves in passes:
        check_pass(solves, expected)
        check_pass(solves, warm_digests)
    runs = [solves for _, solves in passes]
    latencies = [statistics.median(s.seconds for s in col) for col in zip(*runs)]
    outside = statistics.median(w - sum(s.seconds for s in solves) for w, solves in passes)
    wall = sum(latencies) + outside
    limit = workload.LATENCY_LIMIT_S
    good = sum(
        1 for lat, col in zip(latencies, zip(*runs)) if lat <= limit and all(s.ok for s in col)
    )
    per_pass = runs[0]
    m = Measurement(
        wall_s=wall,
        solves=len(per_pass),
        rows=sum(s.rows for s in per_pass),
        latencies_s=latencies,
        attempted=sum(len(s) for s in runs),
        failed=sum(1 for solves in runs for s in solves if not s.ok),
        goodput_rps=good / wall,
        notes={"passes": len(passes), "latency_limit_s": limit},
    )
    return m, setup_times


def end_to_end(m: Measurement, setup_times: list) -> dict:
    """The gated end-to-end metrics of one run, as ``{name: (value, unit)}``.

    ``p99_ms`` is reported beside them but not gated: host stalls move it
    by more than the largest bound between runs (see the README).
    """
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "wall_s": (m.wall_s, "s"),
        "solves_per_s": (m.solves / m.wall_s, "1/s"),
        "relax_rows_per_s": (m.rows / m.wall_s, "rows/s"),
        "p50_ms": (percentile(m.latencies_s, 50) * 1e3, "ms"),
        "goodput_rps": (m.goodput_rps, "1/s"),
        "success_share": ((m.attempted - m.failed) / m.attempted, "fraction"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def finite(value: float) -> float:
    """``value`` when finite, else 0.0 (JSON has no NaN/inf)."""
    return float(value) if math.isfinite(value) else 0.0
