"""``scale-stencil``: a 1e5-row stencil at 256 and 1024 simulated ranks.

Closed loop, one client: each pass runs, at 256 and then 1024 ranks, one
asynchronous run with a fixed iteration budget and one synchronous run
with the same budget, on a 316x316 five-point stencil with the default
BFS partition, one straggler rank that sleeps 2 ms per iteration, and
``relax_backend="auto"`` (the compiled kernels when ``cc`` is present).

The relax and commit kernels, message delivery and the event queue do the
work. Set-up is dominated by the partitioner. The 1024-rank point runs the
event queue that ``queue_backend="auto"`` selects there; the 256-rank
point never selects the calendar queue, so it is the no-change control
for a queue change.
"""

from __future__ import annotations

import numpy as np

from perfbench.harness import Solve, bytes_per_row, timed, trajectory_digest
from repro.matrices import laplacian
from repro.perf import native
from repro.runtime import distributed
from repro.runtime.delays import ConstantDelay

NAME = "scale-stencil"
LOOP = "closed"
WHY = (
    "1e5-row stencil at 256 and 1024 ranks with a 2 ms straggler: relax/commit "
    "kernels, delivery and the event queue do the work; set-up is the partitioner."
)
LATENCY_LIMIT_S = 10.0
#: Set-ups are long (the partitioner), so they alternate with the timed
#: passes (see ``harness.run_closed``).
SETUP_ROUNDS = 3

STRAGGLER_DELAY_S = 2e-3
TOL_NEVER = 1e-30
FULL = {"grid": (316, 316), "ranks": (256, 1024), "budget": 8}
SMOKE = {"grid": (40, 40), "ranks": (16, 64), "budget": 4}


def make_inputs(seed: int, smoke: bool) -> dict:
    """Every generated input of the workload, derived from ``seed`` alone."""
    size = SMOKE if smoke else FULL
    n = size["grid"][0] * size["grid"][1]
    rng = np.random.default_rng([seed, 5])
    return {
        "b": rng.standard_normal(n),
        "x0": rng.standard_normal(n),
        "sim_seeds": [int(s) for s in rng.integers(0, 2**31, size=len(size["ranks"]))],
    }


def setup(seed: int, smoke: bool) -> dict:
    """Build the stencil, one partitioned simulator per rank count, and
    load the compiled relax kernels."""
    size = SMOKE if smoke else FULL
    inp = make_inputs(seed, smoke)
    native.native_kernels()
    A = laplacian.fd_laplacian_2d(*size["grid"])
    sims = [
        distributed.DistributedJacobi(
            A, inp["b"], n_ranks=r, seed=s,
            delay=ConstantDelay({r // 2: STRAGGLER_DELAY_S}),
        )
        for r, s in zip(size["ranks"], inp["sim_seeds"])
    ]
    return {"size": size, "inputs": inp, "A": A, "sims": sims}


def run_async(state: dict, sim, **kwargs):
    """The workload's asynchronous run on one simulator."""
    return sim.run_async(
        x0=state["inputs"]["x0"], tol=TOL_NEVER,
        max_iterations=state["size"]["budget"], observe_every=sim.n_ranks,
        **kwargs,
    )


def run_sync(state: dict, sim, **kwargs):
    """The workload's synchronous run on one simulator."""
    return sim.run_sync(
        x0=state["inputs"]["x0"], tol=TOL_NEVER,
        max_iterations=state["size"]["budget"], **kwargs,
    )


def run_pass(state: dict, probe=None) -> list:
    """One pass of the fixed work; returns one :class:`Solve` per solve."""
    instrument = probe is not None and probe.instrument
    bpr = bytes_per_row(state["A"])
    out = []
    for sim in state["sims"]:
        for mode, fn in (
            ("async", lambda: run_async(state, sim, instrument=instrument)),
            ("sync", lambda: run_sync(state, sim)),
        ):
            res, dt = timed(fn)
            rows = int(res.relaxation_counts[-1])
            out.append(
                Solve(f"{mode}.r{sim.n_ranks}", trajectory_digest(res), rows, dt, bytes=rows * bpr)
            )
            if probe is not None:
                probe.result(res, "distributed", mode=mode)
    return out


def trace_extras(state: dict) -> dict:
    """The event-queue gap at the largest rank count.

    Times the asynchronous run with the queue ``"auto"`` selects against
    the binary heap, alternating twice and keeping each arm's best; the
    trajectories are identical, only the queue differs.
    """
    sim = state["sims"][-1]
    best = {"auto": float("inf"), "heap": float("inf")}
    for _ in range(2):
        for queue in best:
            best[queue] = min(best[queue], timed(lambda: run_async(state, sim, queue_backend=queue))[1])
    return {"engine.queue_auto_over_heap": (best["auto"] / best["heap"], "ratio")}


def oracle(state: dict) -> list:
    """Expected per-solve digests from independent reference paths.

    The asynchronous runs repeat on the pure-NumPy block relax backend
    (bit-identical to the compiled kernels); the synchronous runs repeat
    on the pre-engine loop (``legacy_engine=True``).
    """
    digests = []
    for sim in state["sims"]:
        digests.append(trajectory_digest(run_async(state, sim, relax_backend="block")))
        digests.append(trajectory_digest(run_sync(state, sim, legacy_engine=True)))
    return digests
