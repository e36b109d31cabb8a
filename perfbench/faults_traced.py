"""``faults-traced``: the fault-tolerance scenario, fully traced and replayed.

Closed loop, one client: each pass runs

* a clean asynchronous run of a 2-D FD Laplacian on six simulated ranks,
  whose simulated duration scales the fault plan;
* the ``repro.experiments.faults.build_plan`` scenario — rank 3 crashes,
  ranks {0, 1} are partitioned for a window, a drop burst — with reliable
  puts, heartbeat detection, ``recovery="adopt"`` and
  ``termination="detect"``, recorded to a ``Tracer`` with an unbounded
  ring buffer, a ``Metrics`` registry and a ``JSONLSink``;
* ``replay_report`` over the captured events (Theorem 1 on the real
  interleaving);
* a traced shared-memory Fig 3 run (68 threads, one delayed thread).

Every run has a fixed iteration budget, so the work barely depends on the
seed, and a residual target it must reach within that budget. This is the
only workload on which the general fault and trace loop does the work
instead of the fast dispatcher, and the only one that exercises
``faults`` and ``observability``.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from perfbench.harness import Solve, bytes_per_row, timed, trajectory_digest
from repro.experiments.faults import build_plan
from repro.matrices import laplacian
from repro.observability import replay
from repro.observability.metrics import Metrics
from repro.observability.sinks import JSONLSink, RingBufferSink
from repro.observability.tracer import Tracer
from repro.runtime import distributed, shared
from repro.runtime.delays import ConstantDelay
from repro.runtime.machine import KNL

NAME = "faults-traced"
LOOP = "closed"
WHY = (
    "Crash, partition and drop burst with reliable puts, detection and adoption, "
    "traced to ring+JSONL and replayed: the only run of faults and observability."
)
LATENCY_LIMIT_S = 5.0
#: Set-ups are short: all of them come before the timed passes.
SETUP_ROUNDS = 1

CRASHED_RANK = 3
TOL_NEVER = 1e-30
#: Iteration budget per rank (distributed) or per thread (shared).
BUDGET = 100
#: Relative residual each run must reach within its budget; the worst of
#: twenty seeds measured about a quarter of each (7.5e-3 and 2.2e-2).
DIST_TARGET = 3e-2
SHARED_TARGET = 1e-1
FULL = {"grid": (10, 10), "ranks": 6, "shared_rows": 68, "budget": BUDGET}
SMOKE = {"grid": (6, 6), "ranks": 4, "shared_rows": 40, "budget": 120}
SHARED_DELAY_S = 250e-6


def make_inputs(seed: int, smoke: bool) -> dict:
    """Every generated input of the workload, derived from ``seed`` alone."""
    size = SMOKE if smoke else FULL
    n = size["grid"][0] * size["grid"][1]
    rng = np.random.default_rng([seed, 7])
    seeds = rng.integers(0, 2**31, size=3)
    return {
        "b": rng.uniform(-1, 1, n),
        "shared_b": rng.uniform(-1, 1, size["shared_rows"]),
        "shared_x0": rng.uniform(-1, 1, size["shared_rows"]),
        "sim_seed": int(seeds[0]),
        "fault_seed": int(seeds[1]),
        "shared_seed": int(seeds[2]),
    }


def setup(seed: int, smoke: bool) -> dict:
    """Build the matrices, the clean simulator and the shared simulator."""
    size = SMOKE if smoke else FULL
    inp = make_inputs(seed, smoke)
    A = laplacian.fd_laplacian_2d(*size["grid"])
    clean = distributed.DistributedJacobi(
        A, inp["b"], n_ranks=size["ranks"], seed=inp["sim_seed"]
    )
    n = size["shared_rows"]
    As = laplacian.paper_fd_matrix(n)
    sim_shared = shared.SharedMemoryJacobi(
        As, inp["shared_b"], n_threads=n, machine=KNL, seed=inp["shared_seed"],
        delay=ConstantDelay({n // 2: SHARED_DELAY_S}),
    )
    return {
        "size": size,
        "inputs": inp,
        "A": A,
        "As": As,
        "clean": clean,
        "shared": sim_shared,
        "trace_dir": Path(tempfile.mkdtemp(prefix="faults-")),
        "last": {},
    }


def run_clean(state: dict, **kwargs):
    """The clean asynchronous run whose duration scales the fault plan."""
    return state["clean"].run_async(
        tol=TOL_NEVER, max_iterations=state["size"]["budget"], observe_every=1, **kwargs
    )


def protected_sim(state: dict, plan):
    """The scenario's protected simulator for one fault plan."""
    inp = state["inputs"]
    return distributed.DistributedJacobi(
        state["A"], inp["b"], n_ranks=state["size"]["ranks"], seed=inp["sim_seed"],
        fault_plan=plan, fault_seed=inp["fault_seed"], reliable=True,
        recovery="adopt",
    )


def run_protected(state: dict, sim, tracer=None, **kwargs):
    """The protected run, with detect termination."""
    return sim.run_async(
        tol=TOL_NEVER, max_iterations=state["size"]["budget"], observe_every=1,
        termination="detect", tracer=tracer, **kwargs,
    )


def run_shared(state: dict, tracer=None, **kwargs):
    """The traced shared-memory Fig 3 run."""
    sim = state["shared"]
    return sim.run_async(
        x0=state["inputs"]["shared_x0"], tol=TOL_NEVER,
        max_iterations=state["size"]["budget"], observe_every=sim.n_threads,
        tracer=tracer, **kwargs,
    )


def make_tracer(path, ring=True, jsonl=True, metrics=True) -> Tracer:
    """A read-capturing tracer to a ring buffer, a JSONL file and metrics."""
    sinks = []
    if ring:
        sinks.append(RingBufferSink())
    if jsonl:
        sinks.append(JSONLSink(path))
    return Tracer(sinks=sinks, metrics=Metrics() if metrics else None, trace_reads=True)


def run_pass(state: dict, probe=None) -> list:
    """One pass of the fixed work; returns one :class:`Solve` per solve."""
    instrument = probe is not None and probe.instrument
    A, inp = state["A"], state["inputs"]
    bpr = bytes_per_row(A)
    out = []
    clean, dt = timed(lambda: run_clean(state, instrument=instrument))
    rows = int(clean.relaxation_counts[-1])
    out.append(
        Solve("clean", trajectory_digest(clean), rows, dt,
              ok=clean.final_residual <= DIST_TARGET, bytes=rows * bpr)
    )
    jsonl_path = state["trace_dir"] / "protected.jsonl"
    jsonl_path.unlink(missing_ok=True)
    tracer = make_tracer(jsonl_path)
    sim = protected_sim(state, build_plan(clean.total_time))
    res, dt = timed(lambda: run_protected(state, sim, tracer, instrument=instrument))
    tracer.close()
    events = tracer.events()
    report = replay.replay_report(events, A, inp["b"])
    tm = res.telemetry
    detected = any(r == CRASHED_RANK for r, _ in tm.failures_detected)
    rows = int(res.relaxation_counts[-1])
    out.append(
        Solve(
            "protected", trajectory_digest(res), rows, dt,
            ok=(res.final_residual <= DIST_TARGET and detected and report.monotone
                and report.valid_sequence),
            bytes=rows * bpr,
        )
    )
    state["last"] = {
        "events": len(events),
        "jsonl_bytes": jsonl_path.stat().st_size,
        "telemetry": tm,
        "crash_time": 0.30 * clean.total_time,
    }
    tracer_s = make_tracer(None, jsonl=False)
    res, dt = timed(lambda: run_shared(state, tracer_s, instrument=instrument))
    rows = int(res.relaxation_counts[-1])
    out.append(
        Solve("shared.traced", trajectory_digest(res), rows, dt,
              ok=res.final_residual <= SHARED_TARGET and len(tracer_s.events()) > 0,
              bytes=rows * bytes_per_row(state["As"]))
    )
    if probe is not None:
        probe.result(clean, "distributed", mode="async")
        probe.result(res, "shared")
    return out


def trace_extras(state: dict) -> dict:
    """Fault and trace counters of the last pass, and tracing overheads.

    The overheads time the protected run bare, with a ring-buffer-only
    tracer and with a JSONL-only tracer (read capture on in both),
    alternating twice and keeping each arm's best.
    """
    last = state["last"]
    tm = last["telemetry"]
    sim = protected_sim(state, build_plan(run_clean(state).total_time))
    path = state["trace_dir"] / "overhead.jsonl"
    best = {"none": float("inf"), "ring": float("inf"), "jsonl": float("inf")}
    for _ in range(2):
        for arm in best:
            path.unlink(missing_ok=True)
            tracer = None if arm == "none" else make_tracer(
                path, ring=arm == "ring", jsonl=arm == "jsonl", metrics=False
            )
            best[arm] = min(best[arm], timed(lambda: run_protected(state, sim, tracer))[1])
            if tracer is not None:
                tracer.close()
    latency = tm.detection_latency(last["crash_time"], rank=CRASHED_RANK)
    return {
        "trace.events": (float(last["events"]), "count"),
        "trace.jsonl_bytes": (float(last["jsonl_bytes"]), "bytes"),
        "trace.overhead_ring": (best["ring"] / best["none"] - 1.0, "fraction"),
        "trace.overhead_jsonl": (best["jsonl"] / best["none"] - 1.0, "fraction"),
        "faults.retries": (float(tm.retries), "count"),
        "faults.puts_dropped": (float(tm.puts_dropped), "count"),
        "faults.detection_latency_sim_s": (latency, "s"),
    }


def oracle(state: dict) -> list:
    """Expected per-solve digests from the pre-engine loops.

    ``legacy_engine=True`` reruns each solve — the clean run, the
    protected run under the same fault plan and tracer, and the traced
    shared run — on the oracle loops kept in ``repro.runtime.legacy``.
    """
    clean = run_clean(state, legacy_engine=True)
    sim = protected_sim(state, build_plan(clean.total_time))
    protected = run_protected(state, sim, make_tracer(None, jsonl=False), legacy_engine=True)
    shared_res = run_shared(state, make_tracer(None, jsonl=False), legacy_engine=True)
    return [trajectory_digest(r) for r in (clean, protected, shared_res)]
