"""``paper-sweep``: the paper's Figs 3/4 and Fig 8 experiments, serially.

Closed loop, one client: each pass runs

* the Figs 3/4 shared-memory delay sweep — ``paper_fd_matrix`` with 68
  rows on 68 simulated KNL threads, one constant-delay thread mid-domain
  at four delays, a fixed 250-iteration budget;
* the Fig 8 distributed grid — a 63x63 FD Laplacian at 4, 16, 64 and 256
  ranks, synchronous and asynchronous, each to a 10x residual reduction;
* the Fig 3 model sweep — every ``MODEL_DELAYS`` point, synchronous and
  delayed-row schedules, through ``BatchedAsyncJacobiModel`` with four
  trials.

The problems are tiny, so per-event Python dispatch in the simulators does
the work and the relax kernel does little.
"""

from __future__ import annotations

import numpy as np

from perfbench.harness import Solve, bytes_per_row, digest_arrays, timed, trajectory_digest
from repro.core import model as core_model
from repro.core.schedules import DelayedRowsSchedule, SynchronousSchedule
from repro.experiments.fig3 import DELAYED_ROW, MODEL_DELAYS
from repro.matrices import laplacian
from repro.perf import batched, native
from repro.runtime import distributed, shared
from repro.runtime.delays import ConstantDelay
from repro.runtime.machine import KNL
from repro.util.norms import relative_residual_norm

NAME = "paper-sweep"
LOOP = "closed"
WHY = (
    "What a reader reproducing Figs 3/4 and 8 runs; tiny problems, so "
    "per-event Python dispatch in the simulators does the work."
)
#: A solve slower than this misses the workload's latency limit.
LATENCY_LIMIT_S = 1.0
#: Set-ups are short: all of them come before the timed passes.
SETUP_ROUNDS = 1

SHARED_DELAYS_US = (0, 250, 1000, 3000)
SHARED_BUDGET = 250
TOL_NEVER = 1e-30
FIG8_RANKS = (4, 16, 64, 256)
FIG8_REDUCTION = 10.0
MODEL_TRIALS = 16
MODEL_TOL = 1e-3

#: Smoke size: fewer delays, ranks and trials (seconds, not minutes).
SMOKE = {
    "rows": 40,
    "delays": (0, 1000),
    "budget": 40,
    "grid": (15, 15),
    "ranks": (4, 16),
    "model_delays": (0, 10),
    "trials": 2,
}
FULL = {
    "rows": 68,
    "delays": SHARED_DELAYS_US,
    "budget": SHARED_BUDGET,
    "grid": (63, 63),
    "ranks": FIG8_RANKS,
    "model_delays": MODEL_DELAYS,
    "trials": MODEL_TRIALS,
}


def make_inputs(seed: int, smoke: bool) -> dict:
    """Every generated input of the workload, derived from ``seed`` alone."""
    size = SMOKE if smoke else FULL
    rng = np.random.default_rng([seed, 3])
    n = size["rows"]
    n8 = size["grid"][0] * size["grid"][1]
    seeds = rng.integers(0, 2**31, size=len(size["delays"]) + len(size["ranks"]))
    return {
        "shared_b": rng.uniform(-1, 1, n),
        "shared_x0": rng.uniform(-1, 1, n),
        "fig8_b": rng.uniform(-1, 1, n8),
        "model_B": rng.uniform(-1, 1, (n, size["trials"])),
        "model_X0": rng.uniform(-1, 1, (n, size["trials"])),
        "sim_seeds": [int(s) for s in seeds],
    }


def setup(seed: int, smoke: bool) -> dict:
    """Build matrices, partitions, simulators and the batched model, and
    load the compiled relax kernels."""
    size = SMOKE if smoke else FULL
    inp = make_inputs(seed, smoke)
    native.native_kernels()
    n = size["rows"]
    A = laplacian.paper_fd_matrix(n)
    delayed = DELAYED_ROW if n > DELAYED_ROW else n // 2
    sims = []
    for d, sim_seed in zip(size["delays"], inp["sim_seeds"]):
        kwargs = {"delay": ConstantDelay({delayed: d * 1e-6})} if d else {}
        sims.append(
            shared.SharedMemoryJacobi(
                A, inp["shared_b"], n_threads=n, machine=KNL, seed=sim_seed, **kwargs
            )
        )
    A8 = laplacian.fd_laplacian_2d(*size["grid"])
    b8 = inp["fig8_b"]
    target = relative_residual_norm(A8, np.zeros(A8.nrows), b8) / FIG8_REDUCTION
    dists = [
        distributed.DistributedJacobi(A8, b8, n_ranks=r, seed=s)
        for r, s in zip(size["ranks"], inp["sim_seeds"][len(size["delays"]) :])
    ]
    return {
        "size": size,
        "inputs": inp,
        "A": A,
        "A8": A8,
        "delayed_row": delayed,
        "shared": sims,
        "dist": dists,
        "fig8_tol": target * 0.9,
        "model": batched.BatchedAsyncJacobiModel(A, inp["model_B"]),
    }


def _model_schedules(n: int, delay: int, delayed_row: int):
    sync = SynchronousSchedule(n, delay=float(max(delay, 1)))
    if delay <= 1:
        return sync, SynchronousSchedule(n, delay=1.0)
    return sync, DelayedRowsSchedule(n, {delayed_row: int(delay)})


def _batched_digest(res) -> str:
    parts = []
    for t in range(res.n_trials):
        parts += [res.x[:, t], res.times[t], res.residual_norms[t]]
    return digest_arrays(*parts)


def run_pass(state: dict, probe=None) -> list:
    """One pass of the fixed work; returns one :class:`Solve` per solve."""
    size, inp = state["size"], state["inputs"]
    instrument = probe is not None and probe.instrument
    out = []
    bpr = bytes_per_row(state["A"])
    for d, sim in zip(size["delays"], state["shared"]):
        res, dt = timed(
            lambda: sim.run_async(
                x0=inp["shared_x0"], tol=TOL_NEVER, max_iterations=size["budget"],
                observe_every=sim.n_threads, instrument=instrument,
            )
        )
        rows = int(res.relaxation_counts[-1])
        out.append(Solve(f"shared.d{d}", trajectory_digest(res), rows, dt, bytes=rows * bpr))
        if probe is not None:
            probe.result(res, "shared")
    tol = state["fig8_tol"]
    bpr = bytes_per_row(state["A8"])
    for sim in state["dist"]:
        runs = (
            ("sync", lambda: sim.run_sync(tol=tol, max_iterations=5000)),
            (
                "async",
                lambda: sim.run_async(
                    tol=tol, max_iterations=5000, observe_every=sim.n_ranks,
                    instrument=instrument,
                ),
            ),
        )
        for mode, fn in runs:
            res, dt = timed(fn)
            rows = int(res.relaxation_counts[-1])
            out.append(
                Solve(
                    f"fig8.{mode}.r{sim.n_ranks}", trajectory_digest(res), rows, dt,
                    ok=bool(res.converged), iters=int(np.max(res.iterations)),
                    bytes=rows * bpr,
                )
            )
            if probe is not None:
                probe.result(res, "distributed", mode=mode)
    n = state["A"].nrows
    bpr = bytes_per_row(state["A"])
    for delay in size["model_delays"]:
        for label, sched in zip(("sync", "async"), _model_schedules(n, delay, state["delayed_row"])):
            res, dt = timed(
                lambda: state["model"].run(
                    sched, X0=inp["model_X0"], tol=MODEL_TOL, max_steps=200_000,
                    instrument=instrument,
                )
            )
            rows = int(np.sum(res.relaxations))
            out.append(
                Solve(
                    f"model.{label}.d{delay}", _batched_digest(res), rows, dt,
                    ok=bool(np.all(res.converged)), iters=int(np.sum(res.steps)),
                    bytes=rows * bpr,
                )
            )
            if probe is not None:
                probe.result(res, "model")
    return out


def oracle(state: dict) -> list:
    """Expected per-solve digests from independent reference paths.

    The simulators rerun on the pre-engine loops (``legacy_engine=True``)
    and the batched model is replaced by one sequential
    ``AsyncJacobiModel`` run per trial; all are bit-identical to the fast
    paths by contract.
    """
    size, inp = state["size"], state["inputs"]
    digests = []
    for sim in state["shared"]:
        res = sim.run_async(
            x0=inp["shared_x0"], tol=TOL_NEVER, max_iterations=size["budget"],
            observe_every=sim.n_threads, legacy_engine=True,
        )
        digests.append(trajectory_digest(res))
    tol = state["fig8_tol"]
    for sim in state["dist"]:
        rs = sim.run_sync(tol=tol, max_iterations=5000, legacy_engine=True)
        ra = sim.run_async(
            tol=tol, max_iterations=5000, observe_every=sim.n_ranks, legacy_engine=True
        )
        digests += [trajectory_digest(rs), trajectory_digest(ra)]
    A, n = state["A"], state["A"].nrows
    for delay in size["model_delays"]:
        for which in (0, 1):
            parts = []
            for t in range(size["trials"]):
                sched = _model_schedules(n, delay, state["delayed_row"])[which]
                res = core_model.AsyncJacobiModel(A, inp["model_B"][:, t]).run(
                    sched, x0=inp["model_X0"][:, t], tol=MODEL_TOL, max_steps=200_000
                )
                parts += [res.x, res.times, res.residual_norms]
            digests.append(digest_arrays(*parts))
    return digests
