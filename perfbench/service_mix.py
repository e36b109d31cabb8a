"""``service-mix``: an open-loop request stream into one ``SolverService``.

Open loop at a fixed mean arrival rate: request send times come from a
seeded schedule (jittered gaps, see ``ARRIVAL_JITTER``), and each request
is timed from its *due* send time, so a stall also delays every request
due during it. The mix:

* coalescible classes — one ``group_key`` (matrix and schedule
  realization), many right-hand sides (``b_seed``);
* singletons — a class of their own;
* about one third exact duplicates of a recent request, which the service
  answers by joining the in-flight twin or from its cache;
* a small share with a tight deadline.

The service runs with ``singleton_workers=0`` and one executor thread,
behind a fresh on-disk ``ExperimentCache`` per run, so cache writes happen
beside cache reads. This is the only workload that exercises ``service``,
``perf.cache`` and ``perf.batched`` through the service path; it never
touches ``runtime.*``.
"""

from __future__ import annotations

import asyncio
import math
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from perfbench.harness import Measurement, trajectory_digest
from repro.perf.cache import ExperimentCache
from repro.service import executor
from repro.service.requests import SolveRequest, spec_key
from repro.service.server import SolverService

NAME = "service-mix"
LOOP = "open"
#: Mean arrival rate (requests per second) and the latency limit of
#: ``goodput_rps``; both are quoted in BENCHMARK.json.
RATE_RPS = 40.0
LATENCY_LIMIT_S = 0.25
WHY = (
    f"Open loop at {RATE_RPS:.0f} rps, {LATENCY_LIMIT_S * 1e3:.0f} ms limit: coalescible "
    "classes, singletons, 1/3 duplicates, tight deadlines; the only run of service and cache."
)

#: Inter-arrival gaps are uniform in ``[1 - j, 1 + j] / RATE_RPS``: a
#: seeded schedule at a fixed mean rate, burstier than a metronome but
#: without a Poisson stream's seed-to-seed swings in queueing.
ARRIVAL_JITTER = 0.5
DUPLICATE_SHARE = 1 / 3
COALESCIBLE_SHARE = 0.6  # of the non-duplicates; the rest are singletons
TIGHT_DEADLINE_SHARE = 0.05
TIGHT_DEADLINE_S = 1.0
N_CLASSES = 8
GRIDS = (4, 6, 8)
#: Dispatcher batching window: long enough that same-class requests
#: arriving together coalesce.
BATCH_WINDOW_S = 0.02
DUPLICATE_WINDOW = 40  # a duplicate copies one of the last this-many requests
CHECK_SAMPLE = 48  # unique requests re-run directly for the identity check
WARMUP_REQUESTS = 40
MIN_REQUESTS = 1000
SMOKE_REQUESTS = 60


def _request(grid: int, schedule: dict, b_seed: int, deadline=None) -> SolveRequest:
    return SolveRequest(
        matrix={"family": "fd_2d", "args": {"nx": grid, "ny": grid}},
        schedule=schedule,
        b_seed=b_seed,
        tol=1e-4,
        max_steps=4000,
        record_every=8,
        deadline=deadline,
    )


def n_requests(seconds: float, smoke: bool) -> int:
    """Requests per run: the rate times the measured seconds, at least 1000."""
    if smoke:
        return SMOKE_REQUESTS
    return max(MIN_REQUESTS, math.ceil(RATE_RPS * seconds))


def make_inputs(seed: int, smoke: bool, seconds: float = 20.0) -> dict:
    """The seeded request stream: due times and request specs."""
    rng = np.random.default_rng([seed, 11])
    count = n_requests(seconds, smoke)
    gaps = rng.uniform(1 - ARRIVAL_JITTER, 1 + ARRIVAL_JITTER, count) / RATE_RPS
    due = np.cumsum(gaps) - gaps[0]
    classes = [(GRIDS[c % len(GRIDS)], int(rng.integers(0, 2**31))) for c in range(N_CLASSES)]
    singletons = 0
    specs = []
    for i in range(count):
        u = rng.random()
        tight = rng.random() < TIGHT_DEADLINE_SHARE
        if i > 0 and u < DUPLICATE_SHARE:
            src = int(rng.integers(max(0, i - DUPLICATE_WINDOW), i))
            specs.append(dict(specs[src], tight=tight))
            continue
        if rng.random() < COALESCIBLE_SHARE:
            grid, sched_seed = classes[int(rng.integers(N_CLASSES))]
        else:  # a singleton: a schedule realization of its own
            grid, sched_seed = GRIDS[singletons % len(GRIDS)], int(rng.integers(0, 2**31))
            singletons += 1
        specs.append(
            {"grid": grid, "sched_seed": sched_seed,
             "b_seed": int(rng.integers(0, 2**31)), "tight": tight}
        )
    return {"due": due, "specs": specs}


def _to_request(spec: dict) -> SolveRequest:
    schedule = {"kind": "random_subset", "fraction": 0.5, "seed": spec["sched_seed"]}
    deadline = TIGHT_DEADLINE_S if spec["tight"] else None
    return _request(spec["grid"], schedule, spec["b_seed"], deadline)


def make_service(cache_root: Path) -> SolverService:
    """One service behind a fresh on-disk cache."""
    return SolverService(
        cache=ExperimentCache(cache_root, enabled=True),
        use_cache=True,
        max_queue=1024,
        batch_window=BATCH_WINDOW_S,
        singleton_workers=0,
    )


def setup(seed: int, smoke: bool, seconds: float = 20.0) -> dict:
    """Generate the request stream and construct the service."""
    inp = make_inputs(seed, smoke, seconds)
    requests = [_to_request(s) for s in inp["specs"]]
    keys = [r.key() for r in requests]
    root = Path(tempfile.mkdtemp(prefix="service-"))
    return {
        "inputs": inp,
        "requests": requests,
        "keys": keys,
        "root": root,
        "service": make_service(root / "cache"),
        "warm_service": make_service(root / "warm-cache"),
    }


async def _drive(service: SolverService, requests: list, due) -> dict:
    """Send every request at its due time; collect outcomes and timings."""
    loop = asyncio.get_running_loop()
    loop.set_default_executor(ThreadPoolExecutor(max_workers=1))
    outcomes = [None] * len(requests)
    lag = np.zeros(len(requests))

    async def one(i: int, t_due: float):
        try:
            result = await service.submit(requests[i])
        except Exception as exc:  # typed ServiceError: shed, expired, error
            outcomes[i] = (time.perf_counter() - t_due, exc)
        else:
            outcomes[i] = (time.perf_counter() - t_due, result)

    async with service:
        t0 = time.perf_counter()
        tasks = []
        for i, offset in enumerate(due):
            t_due = t0 + float(offset)
            wait = t_due - time.perf_counter()
            if wait > 0:
                await asyncio.sleep(wait)
            lag[i] = time.perf_counter() - t_due
            tasks.append(asyncio.create_task(one(i, t_due)))
        await asyncio.gather(*tasks)
        wall = time.perf_counter() - t0
        stats = service.stats()
    return {"outcomes": outcomes, "lag": lag, "wall": wall, "stats": stats}


def drive(service, requests, due) -> dict:
    """Run :func:`_drive` on a fresh event loop."""
    return asyncio.run(_drive(service, requests, due))


def warm_up(state: dict) -> None:
    """Untimed burst against a separate service and cache."""
    count = min(WARMUP_REQUESTS, len(state["requests"]))
    due = np.asarray(state["inputs"]["due"][:count])
    drive(state["warm_service"], state["requests"][:count], due)


def expected_sample(state: dict, seed: int) -> dict:
    """Direct executor results for a seeded sample of unique requests.

    Members of a coalescible class are recomputed together through
    ``executor.run_group``; singletons through ``executor.run_single``.
    Returns ``{key: digest}``.
    """
    first = {}
    for i, key in enumerate(state["keys"]):
        first.setdefault(key, i)
    keys = sorted(first)
    rng = np.random.default_rng([seed, 13])
    picked = rng.choice(len(keys), size=min(CHECK_SAMPLE, len(keys)), replace=False)
    groups = {}
    for k in sorted(keys[int(j)] for j in picked):
        req = state["requests"][first[k]]
        groups.setdefault(req.group_key(), []).append(req.spec())
    out = {}
    for specs in groups.values():
        results = (
            executor.run_group(specs) if len(specs) > 1 else [executor.run_single(specs[0])]
        )
        for spec, res in zip(specs, results):
            out[spec_key(spec)] = trajectory_digest(res)
    return out


def check(state: dict, run: dict, expected: dict) -> list:
    """Per-request failure reasons ('' for a correct response).

    A request fails when it raised (shed, expired, errored), did not
    reach its tolerance, differs from the direct executor's result for a
    sampled key, or differs from the first response to the same key.
    """
    reasons = []
    first_digest = {}
    for key, (_, out) in zip(state["keys"], run["outcomes"]):
        if isinstance(out, Exception):
            reasons.append(type(out).__name__)
            continue
        digest = trajectory_digest(out)
        if not out["converged"]:
            reasons.append("not converged")
        elif key in expected and expected[key] != digest:
            reasons.append("differs from direct executor")
        elif first_digest.setdefault(key, digest) != digest:
            reasons.append("duplicate differs from original")
        else:
            reasons.append("")
    return reasons


def drive_stream(state: dict) -> dict:
    """The timed run: the whole seeded stream into the measured service."""
    return drive(state["service"], state["requests"], state["inputs"]["due"])


def evaluate(state: dict, run: dict, seed: int) -> Measurement:
    """Check a driven stream and derive its measurement."""
    expected = expected_sample(state, seed)
    reasons = check(state, run, expected)
    latencies, good, rows, seen = [], 0, 0, set()
    for key, (lat, out), why in zip(state["keys"], run["outcomes"], reasons):
        if isinstance(out, Exception):
            continue
        latencies.append(lat)
        if not why and lat <= LATENCY_LIMIT_S:
            good += 1
        if key not in seen:
            seen.add(key)
            rows += int(out["relaxations"])
    failed = sum(1 for why in reasons if why)
    wall = run["wall"]
    return Measurement(
        wall_s=wall,
        solves=len(latencies),
        rows=rows,
        latencies_s=latencies,
        attempted=len(reasons),
        failed=failed,
        goodput_rps=good / wall,
        notes={
            "rate_rps": RATE_RPS,
            "latency_limit_s": LATENCY_LIMIT_S,
            "requests": len(reasons),
            "generator_lag_p99_ms": float(np.percentile(run["lag"], 99) * 1e3),
            "generator_lag_max_ms": float(np.max(run["lag"]) * 1e3),
            "failures": sorted({w for w in reasons if w}),
            "stats": run["stats"],
        },
    )
