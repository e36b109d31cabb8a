"""Deterministic scenario generation for the chaos campaign.

A *scenario spec* is a plain-JSON dict describing one adversarial run:
which executor (shared-memory simulator, distributed simulator, or the
exact-information model with its batched twin), which matrix, which iteration
method (any kind from :mod:`repro.methods` — absent means Jacobi at the
spec's ``omega``), which fault plan, which delay model or schedule, and
every knob the executor takes.
Specs are pure data — they can be cached by
:func:`repro.perf.runner.run_cells`, shipped to worker processes, archived
as shrunk reproducers, and re-run bit-identically years later.

Generation is deterministic: ``generate_spec(seed, index)`` derives every
choice from ``SeedSequence((CHAOS_SALT, seed, index))``, so a campaign is
reproducible from ``(seed, budget)`` alone and two campaigns with the same
seed agree scenario for scenario.

The generator only emits scenarios the property harness can judge: matrix
families are weakly diagonally dominant (Theorem 1's hypothesis), fault
plans satisfy :class:`~repro.faults.FaultPlan` validation by construction
(at most one crash per agent), and every executor-specific constraint
(crash ids below the agent count, message faults only where messages
exist) holds by construction rather than by rejection sampling.
"""

from __future__ import annotations

import numpy as np

#: Salt mixed into every scenario's seed sequence so chaos streams never
#: collide with experiment seeds derived from the same small integers.
CHAOS_SALT = 987143

#: Per-family ladders of matrix-generator arguments, ordered small to
#: large. The generator samples from the full ladder; the shrinker walks
#: a failing scenario down it one rung at a time.
MATRIX_LADDERS = {
    "fd_1d": [{"n": 8}, {"n": 12}, {"n": 16}, {"n": 24}, {"n": 32}],
    "fd_2d": [
        {"nx": 3, "ny": 3},
        {"nx": 4, "ny": 4},
        {"nx": 5, "ny": 5},
        {"nx": 5, "ny": 7},
        {"nx": 6, "ny": 6},
    ],
    "fd_3d": [{"nx": 2, "ny": 2, "nz": 2}, {"nx": 3, "ny": 3, "nz": 3}],
    "nine_point": [{"nx": 3, "ny": 3}, {"nx": 4, "ny": 4}, {"nx": 5, "ny": 5}],
    "variable_coefficient": [
        # An unseeded variable-coefficient matrix draws a fresh random
        # field per build; the pinned seed keeps specs pure data.
        {"nx": 4, "ny": 4, "seed": 7},
        {"nx": 5, "ny": 5, "seed": 7},
    ],
    "anisotropic": [{"nx": 4, "ny": 4}, {"nx": 5, "ny": 5}],
}

#: Simulated-time horizon inside which fault events are scheduled. Runs at
#: the generated sizes finish within a few of these; events landing past
#: the end of a run are legal (they are simply inert).
HORIZONS = {"shared": 6e-5, "distributed": 2.5e-4}

_EXECUTORS = ("shared", "distributed", "model")
_EXECUTOR_WEIGHTS = (0.30, 0.45, 0.25)


def _matrix_rows(family: str, args: dict) -> int:
    """Row count of a family/args pair without building the matrix."""
    if family == "fd_1d":
        return int(args["n"])
    dims = [int(v) for k, v in sorted(args.items()) if k != "seed"]
    return int(np.prod(dims))


def scenario_rng(seed: int, index: int) -> np.random.Generator:
    """The generator that decides every choice of scenario ``index``."""
    return np.random.default_rng(
        np.random.SeedSequence((CHAOS_SALT, int(seed), int(index)))
    )


def _pick_matrix(rng) -> tuple:
    """Choose a (family, args, n) triple from the ladders."""
    family = str(rng.choice(list(MATRIX_LADDERS)))
    ladder = MATRIX_LADDERS[family]
    args = ladder[int(rng.integers(len(ladder)))]
    return family, dict(args), _matrix_rows(family, args)


def _time_in(rng, horizon: float, zero_p: float = 0.1) -> float:
    """A nonnegative event time, occasionally exactly zero."""
    if rng.random() < zero_p:
        return 0.0
    return float(rng.uniform(0.0, horizon))


def _crash_events(rng, n_agents: int, horizon: float, count: int) -> list:
    """Crash specs on ``count`` distinct agents (never overlapping)."""
    agents = rng.choice(n_agents, size=min(count, n_agents), replace=False)
    events = []
    for agent in agents:
        ev = {"kind": "crash", "agent": int(agent), "at": _time_in(rng, horizon)}
        if rng.random() < 0.5:
            ev["restart_after"] = float(rng.uniform(0.1, 0.8) * horizon)
        events.append(ev)
    return events


def _burst_event(rng, kind: str, n_agents: int, horizon: float) -> dict:
    """One drop/corrupt burst spec."""
    duration = 0.0 if rng.random() < 0.05 else float(rng.uniform(0.0, 0.6) * horizon)
    ev = {
        "kind": kind,
        "start": _time_in(rng, horizon),
        "duration": duration,
        "probability": 1.0 if rng.random() < 0.1 else float(rng.uniform(0.05, 0.9)),
    }
    if rng.random() < 0.4:
        size = int(rng.integers(1, n_agents + 1))
        ev["agents"] = sorted(
            int(a) for a in rng.choice(n_agents, size=size, replace=False)
        )
    return ev


def _partition_event(rng, n_agents: int, horizon: float) -> dict:
    """One partition-window spec (nonempty proper subset when possible)."""
    hi = max(2, n_agents)
    size = int(rng.integers(1, hi))
    group = sorted(int(a) for a in rng.choice(n_agents, size=size, replace=False))
    duration = 0.0 if rng.random() < 0.05 else float(rng.uniform(0.0, 0.5) * horizon)
    return {
        "kind": "partition",
        "group": group,
        "start": _time_in(rng, horizon),
        "duration": duration,
    }


def _fault_plan(rng, executor: str, n_agents: int, horizon: float) -> dict:
    """A plan spec whose event kinds match what the executor can inject.

    The shared-memory simulator rejects message-level faults (there are no
    messages), and the exact-information model only sees crashes and drop
    bursts through :class:`~repro.faults.FaultMaskedSchedule`.
    """
    if executor == "shared":
        kinds = ["crash"]
    elif executor == "model":
        kinds = ["crash", "drop"]
    else:
        kinds = ["crash", "partition", "drop", "corrupt"]
    n_events = int(rng.choice([0, 1, 2, 3, 4], p=[0.15, 0.25, 0.3, 0.2, 0.1]))
    events = []
    n_crashes = 0
    for _ in range(n_events):
        kind = str(rng.choice(kinds))
        if kind == "crash":
            n_crashes += 1
        elif kind == "partition":
            events.append(_partition_event(rng, n_agents, horizon))
        else:
            events.append(_burst_event(rng, kind, n_agents, horizon))
    events.extend(_crash_events(rng, n_agents, horizon, n_crashes))
    return {"events": events, "seed": int(rng.integers(2**31))}


def _delay_spec(rng, n_agents: int) -> dict:
    """A delay-model spec for the machine simulators."""
    kind = str(
        rng.choice(
            ["none", "constant", "straggler", "stochastic", "hang"],
            p=[0.45, 0.2, 0.15, 0.1, 0.1],
        )
    )
    if kind == "none":
        return {"kind": "none"}
    agent = int(rng.integers(n_agents))
    if kind == "constant":
        return {"kind": "constant", "delays": [[agent, float(rng.uniform(1e-7, 2e-5))]]}
    if kind == "straggler":
        return {"kind": "straggler", "factors": [[agent, float(rng.uniform(1.5, 8.0))]]}
    if kind == "stochastic":
        return {
            "kind": "stochastic",
            "prob": float(rng.uniform(0.02, 0.3)),
            "mean_stall": float(rng.uniform(1e-7, 1e-5)),
            "agents": [agent],
        }
    return {"kind": "hang", "hang_times": [[agent, float(rng.uniform(0.0, 5e-5))]]}


def _schedule_spec(rng, n: int, n_agents: int, has_plan: bool) -> dict:
    """A schedule spec for the model executor."""
    if has_plan:
        # A plan only acts on the model through the fault-masked schedule.
        return {"kind": "fault_masked", "dt": 1.0, "seed": int(rng.integers(2**31))}
    kind = str(
        rng.choice(
            ["random_subset", "overlapped", "delayed_rows", "synchronous"],
            p=[0.4, 0.3, 0.2, 0.1],
        )
    )
    if kind == "random_subset":
        return {
            "kind": "random_subset",
            "fraction": float(rng.uniform(0.2, 1.0)),
            "seed": int(rng.integers(2**31)),
        }
    if kind == "overlapped":
        return {
            "kind": "overlapped",
            "concurrency": int(rng.integers(1, n_agents + 1)),
            "seed": int(rng.integers(2**31)),
        }
    if kind == "delayed_rows":
        n_delayed = int(rng.integers(1, max(2, n // 4)))
        rows = rng.choice(n, size=n_delayed, replace=False)
        delays = []
        for row in rows:
            d = None if rng.random() < 0.2 else int(rng.integers(2, 9))
            delays.append([int(row), d])
        return {"kind": "delayed_rows", "delays": delays}
    return {"kind": "synchronous", "delay": 1.0}


def _method_spec(rng, omega: float) -> dict:
    """An iteration-method spec legal for every executor at this ``omega``.

    The generated matrix families are unit-diagonal and weakly diagonally
    dominant, so ``alpha = omega <= 1`` keeps Richardson inside the
    generalized Theorem-1 row condition; the harness gates each norm
    check on the method's own :meth:`~repro.methods.Method.guarantee`
    anyway (momentum asserts nothing).
    """
    kind = str(
        rng.choice(
            ["jacobi", "damped_jacobi", "richardson", "richardson2", "sor"],
            p=[0.5, 0.125, 0.125, 0.125, 0.125],
        )
    )
    if kind == "richardson":
        return {"kind": "richardson", "alpha": omega}
    if kind == "richardson2":
        return {
            "kind": "richardson2",
            "alpha": omega,
            "beta": float(rng.choice([0.1, 0.3, 0.5])),
        }
    return {"kind": kind, "omega": omega}


def generate_spec(seed: int, index: int) -> dict:
    """Scenario ``index`` of the campaign keyed by ``seed`` (pure data)."""
    rng = scenario_rng(seed, index)
    executor = str(rng.choice(_EXECUTORS, p=_EXECUTOR_WEIGHTS))
    family, args, n = _pick_matrix(rng)
    n_agents = int(rng.integers(2, min(6, n) + 1))
    omega = float(rng.choice([1.0, 1.0, 1.0, 0.75, 0.5]))
    spec = {
        "id": f"chaos-s{seed}-i{index}",
        "executor": executor,
        "matrix": {"family": family, "args": args},
        "agents": n_agents,
        "omega": omega,
        "b_seed": int(rng.integers(2**31)),
        "seed": int(rng.integers(2**31)),
        "tol": float(10.0 ** -rng.uniform(3.5, 5.5)),
        "max_iterations": int(rng.integers(50, 161)),
    }
    if executor == "model":
        spec["max_iterations"] = int(rng.integers(80, 401))
        spec["plan"] = _fault_plan(rng, "model", n_agents, float(spec["max_iterations"]))
        spec["schedule"] = _schedule_spec(rng, n, n_agents, bool(spec["plan"]["events"]))
        spec["batch_trials"] = int(rng.integers(2, 4))
        # Drawn last so every pre-method choice of a (seed, index) pair —
        # executor, matrix, plan, knobs — is unchanged from older
        # campaigns; only the method key is new.
        spec["method"] = _method_spec(rng, omega)
        return spec
    horizon = HORIZONS[executor]
    spec["plan"] = _fault_plan(rng, executor, n_agents, horizon)
    spec["delay"] = _delay_spec(rng, n_agents)
    if executor == "distributed":
        has_message_faults = any(
            ev["kind"] != "crash" for ev in spec["plan"]["events"]
        )
        delivery = str(rng.choice(["auto", "batched", "event"]))
        # Block relaxes require batched delivery, so the backend is drawn
        # from the legal set for the delivery mode just chosen — the
        # constraint holds by construction, not by rejection.
        backends = (
            ["auto", "event", "block"] if delivery != "event" else ["auto", "event"]
        )
        spec["distributed"] = {
            "eager": bool(rng.random() < 0.25),
            "termination": str(rng.choice(["count", "detect"], p=[0.7, 0.3])),
            "reliable": bool(rng.random() < (0.6 if has_message_faults else 0.3)),
            "recovery": str(rng.choice(["freeze", "adopt", "none"], p=[0.4, 0.4, 0.2])),
            "drop_probability": float(rng.choice([0.0, 0.0, 0.02, 0.08])),
            "duplicate_probability": float(rng.choice([0.0, 0.0, 0.0, 0.05])),
            "partition_method": str(rng.choice(["bfs", "contiguous"])),
            "delivery": delivery,
            "relax_backend": str(rng.choice(backends)),
        }
    spec["method"] = _method_spec(rng, omega)
    if executor == "distributed":
        # Appended after every legacy draw so the whole pre-native stream
        # of a (seed, index) pair is unchanged from older campaigns. The
        # coin itself is flipped unconditionally (stream-stable); whether
        # it lands depends on the toolchain probe, so a machine without a
        # C compiler simply never sees the backend, and SOR — whose local
        # sweeps are sequential and therefore native-illegal — keeps its
        # legacy draw.
        wants_native = bool(rng.random() < 0.25)
        from repro.perf.native import native_available

        if (
            wants_native
            and spec["method"]["kind"] != "sor"
            and native_available()
        ):
            spec["distributed"]["relax_backend"] = "native"
    return spec


def generate_specs(seed: int, budget: int) -> list:
    """The first ``budget`` scenario specs of campaign ``seed``."""
    if budget < 0:
        raise ValueError(f"budget must be nonnegative, got {budget}")
    return [generate_spec(seed, i) for i in range(int(budget))]
