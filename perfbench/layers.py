"""The traced run: spans around layer boundaries, and per-layer metrics.

Spans are recorded from outside the program: :func:`install` replaces
each boundary function or method, wherever a ``repro`` module binds it,
with a wrapper that records ``(name, start, end, parent, attrs)`` into a
:class:`Spans` buffer kept in memory. Parents come from a per-thread
stack; coroutine spans (``SolverService.submit``) have no parent and
carry the request key instead, and so do the service's compute spans, so
the spans of one request share an identifier. :func:`uninstall` puts the
originals back.

The traced run also reads counters the program already returns —
``PerfCounters`` from an ``instrument=True`` pass, ``FaultTelemetry``,
``SolverService.stats()`` — through a :class:`Probe`. None of this runs
in the end-to-end run.
"""

from __future__ import annotations

import functools
import json
import statistics
import sys
import threading
import time
from pathlib import Path

import numpy as np

from perfbench.harness import percentile

#: Per-layer metric names and units, in report order (BENCHMARK.json's
#: ``per_layer`` lists the same names).
PER_LAYER = {
    "matrices.build_s": "s",
    "partition.s": "s",
    "partition.edge_cut": "count",
    "distributed.init_s": "s",
    "distributed.run_async_s": "s",
    "distributed.run_sync_s": "s",
    "distributed.commits": "count",
    "distributed.commits_per_s": "1/s",
    "engine.events": "count",
    "engine.dispatch_s": "s",
    "engine.instrument_overhead": "fraction",
    "engine.queue_auto_over_heap": "ratio",
    "relax.s": "s",
    "relax.calls": "count",
    "relax.rows": "rows",
    "relax.bytes_computed": "bytes",
    "relax.gbs_computed": "GB/s",
    "relax.ops_per_byte": "flop/byte",
    "native.load_s": "s",
    "native.build_ms": "ms",
    "delivery.puts_coalesced": "count",
    "delivery.flushes": "count",
    "delivery.edges_flushed": "count",
    "observe.s": "s",
    "observe.evals": "count",
    "observe.full_recomputes": "count",
    "shared.run_async_s": "s",
    "shared.relaxations": "rows",
    "shared.relax_per_s": "rows/s",
    "model.run_s": "s",
    "batched.run_s": "s",
    "batched.trials": "count",
    "solver.iterations_to_tol": "count",
    "faults.run_async_s": "s",
    "faults.retries": "count",
    "faults.puts_dropped": "count",
    "faults.detection_latency_sim_s": "s",
    "trace.events": "count",
    "trace.jsonl_bytes": "bytes",
    "trace.overhead_ring": "fraction",
    "trace.overhead_jsonl": "fraction",
    "replay.s": "s",
    "cache.lookups": "count",
    "cache.hits": "count",
    "cache.hit_rate": "fraction",
    "cache.lookup_ms": "ms",
    "cache.store_ms": "ms",
    "service.queue_wait_ms_p50": "ms",
    "service.queue_wait_ms_p99": "ms",
    "service.compute_s": "s",
    "service.executions": "count",
    "service.coalescing_factor": "ratio",
    "service.batch_size_mean": "count",
    "service.single_flight_joins": "count",
    "service.shed": "count",
    "service.expired": "count",
    "service.max_pending": "count",
    "loadgen.lag_ms": "ms",
    "bench.span_overhead": "fraction",
    "bench.spans": "count",
    "host.py_loop_s": "s",
    "host.numpy_stream_gbs": "GB/s",
    "host.stream_array_mb": "MB",
    "host.llc_mb": "MB",
}

#: Bytes per relaxed row are 24 per stored nonzero plus 24 (see
#: ``harness.bytes_per_row``); flops are 2 per nonzero plus 2, so the
#: computed intensity is a constant of the kernel's data layout.
OPS_PER_BYTE = 1.0 / 12.0


class Spans:
    """In-memory span buffer; recording is on only while :attr:`active`."""

    def __init__(self):
        self.active = False
        self.records = []  # [name, start, end, parent index or -1, attrs]
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str, parent: bool = True) -> int:
        stack = self._stack()
        rec = [name, time.perf_counter(), 0.0, stack[-1] if stack and parent else -1, {}]
        with self._lock:
            self.records.append(rec)
            idx = len(self.records) - 1
        if parent:
            stack.append(idx)
        return idx

    def _close(self, idx: int, parent: bool = True) -> list:
        rec = self.records[idx]
        rec[2] = time.perf_counter()
        if parent:
            self._stack().pop()
        return rec

    def wrap(self, name, fn, describe=None):
        """``fn`` wrapped to record one span per call while active.

        ``name`` may be a callable of the call's arguments; ``describe``
        maps ``(args, kwargs, result)`` to the span's attributes and runs
        after the span has closed.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._open(name(args) if callable(name) else name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                rec = self._close(idx)
                if describe is not None:
                    rec[4] = describe(args, kwargs, result)

        return wrapper

    def wrap_async(self, name: str, fn, describe=None):
        """Coroutine-function variant of :meth:`wrap` (no parent tracking)."""

        @functools.wraps(fn)
        async def wrapper(*args, **kwargs):
            if not self.active:
                return await fn(*args, **kwargs)
            attrs = describe(args, kwargs, None) if describe else {}
            idx = self._open(name, parent=False)
            try:
                return await fn(*args, **kwargs)
            finally:
                self._close(idx, parent=False)[4] = attrs

        return wrapper

    def self_times(self) -> list:
        """Each span's duration minus the time its child spans cover."""
        own = [r[2] - r[1] for r in self.records]
        for r in self.records:
            if r[3] >= 0:
                own[r[3]] -= r[2] - r[1]
        return own

    def by_name(self) -> dict:
        """``{name: (self seconds, records)}`` over all spans."""
        out = {}
        for rec, own in zip(self.records, self.self_times()):
            total, recs = out.get(rec[0], (0.0, []))
            recs.append(rec)
            out[rec[0]] = (total + own, recs)
        return out

    def dump(self, path: Path) -> None:
        """Write the spans as JSON lines (name, start, end, parent, keys)."""
        with open(path, "w") as fh:
            for name, start, end, parent, attrs in self.records:
                row = {"name": name, "start": start, "end": end, "parent": parent}
                if "keys" in attrs:
                    row["keys"] = attrs["keys"]
                fh.write(json.dumps(row) + "\n")

    def overhead_per_span(self, calls: int = 20000) -> float:
        """Calibrated seconds one recorded span adds to a call."""

        def noop():
            return None

        wrapped = self.wrap("calibration", noop)
        saved, self.records = self.records, []
        was, self.active = self.active, True
        try:
            t0 = time.perf_counter()
            for _ in range(calls):
                wrapped()
            traced = time.perf_counter() - t0
            t0 = time.perf_counter()
            for _ in range(calls):
                noop()
            bare = time.perf_counter() - t0
        finally:
            self.records, self.active = saved, was
        return max(0.0, (traced - bare) / calls)


def _rebind(original, replacement, patches: list) -> None:
    """Replace ``original`` wherever a loaded ``repro`` module binds it."""
    for name, mod in list(sys.modules.items()):
        if not name.startswith("repro") or mod is None:
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                patches.append((mod, attr, original))


def _patch_method(cls, attr: str, replacement, patches: list) -> None:
    patches.append((cls, attr, cls.__dict__[attr]))
    setattr(cls, attr, replacement)


def _keys_of(specs) -> list:
    from repro.service.requests import spec_key

    return [spec_key(s)[:12] for s in specs]


def install(spans: Spans) -> list:
    """Wrap every layer boundary; returns the patches for :func:`uninstall`."""
    from repro.core.model import AsyncJacobiModel
    from repro.matrices import laplacian
    from repro.observability import replay
    from repro.partition import partitioner
    from repro.perf import native
    from repro.perf.batched import BatchedAsyncJacobiModel
    from repro.perf.cache import ExperimentCache
    from repro.runtime.distributed import DistributedJacobi
    from repro.runtime.shared import SharedMemoryJacobi
    from repro.service import batching, executor
    from repro.service.server import SolverService

    patches = []
    for fn_name in ("fd_laplacian_1d", "fd_laplacian_2d", "fd_laplacian_3d", "paper_fd_matrix"):
        fn = getattr(laplacian, fn_name)
        _rebind(fn, spans.wrap("matrices.build", fn), patches)
    for fn_name in ("bfs_bisection_partition", "contiguous_partition"):
        fn = getattr(partitioner, fn_name)
        _rebind(
            fn,
            spans.wrap("partition.build", fn, lambda a, k, r: {"labels": r, "A": a[0]}),
            patches,
        )
    _rebind(native.native_kernels, spans.wrap("native.load", native.native_kernels), patches)
    _rebind(replay.replay_report, spans.wrap("replay.report", replay.replay_report), patches)
    _rebind(batching.coalesce, spans.wrap("service.coalesce", batching.coalesce), patches)
    for fn_name in ("run_group", "run_single"):
        fn = getattr(executor, fn_name)
        describe = (
            (lambda a, k, r: {"keys": _keys_of(a[0])}) if fn_name == "run_group"
            else (lambda a, k, r: {"keys": _keys_of([a[0]])})
        )
        _rebind(fn, spans.wrap("service.compute", fn, describe), patches)

    def dist_name(args):
        return "faults.run_async" if args[0].fault_plan else "distributed.run_async"

    _patch_method(DistributedJacobi, "__init__",
                  spans.wrap("distributed.init", DistributedJacobi.__init__), patches)
    _patch_method(DistributedJacobi, "run_async",
                  spans.wrap(dist_name, DistributedJacobi.run_async), patches)
    _patch_method(DistributedJacobi, "run_sync",
                  spans.wrap("distributed.run_sync", DistributedJacobi.run_sync), patches)
    _patch_method(SharedMemoryJacobi, "run_async",
                  spans.wrap("shared.run_async", SharedMemoryJacobi.run_async), patches)
    _patch_method(AsyncJacobiModel, "run",
                  spans.wrap("model.run", AsyncJacobiModel.run), patches)
    _patch_method(BatchedAsyncJacobiModel, "run",
                  spans.wrap("batched.run", BatchedAsyncJacobiModel.run,
                             lambda a, k, r: {"trials": int(r.n_trials) if r else 0}),
                  patches)
    _patch_method(ExperimentCache, "lookup",
                  spans.wrap("cache.lookup", ExperimentCache.lookup,
                             lambda a, k, r: {"hit": bool(r and r[0])}),
                  patches)
    _patch_method(ExperimentCache, "store",
                  spans.wrap("cache.store", ExperimentCache.store), patches)
    _patch_method(SolverService, "submit",
                  spans.wrap_async("service.submit", SolverService.submit,
                                   lambda a, k, r: {"keys": [a[1].key()[:12]]}),
                  patches)
    return patches


def uninstall(patches: list) -> None:
    """Restore every original the matching :func:`install` replaced."""
    for owner, attr, original in reversed(patches):
        setattr(owner, attr, original)


class Probe:
    """Counters the program already returns, read only in the traced run."""

    def __init__(self, instrument: bool = False):
        self.instrument = instrument
        self.perf = []
        self.commits = 0
        self.shared_rows = 0
        self.service_run = None  # the driven service stream, when there is one

    def result(self, res, kind: str, mode=None) -> None:
        """Fold one solve's returned counters in."""
        if getattr(res, "perf", None) is not None:
            self.perf.append(res.perf)
        if kind == "distributed" and mode == "async":
            self.commits += int(np.sum(res.iterations))
        elif kind == "shared":
            self.shared_rows += int(res.relaxation_counts[-1])


def _sum_perf(perfs, attr: str) -> float:
    return float(sum(getattr(p, attr) for p in perfs))


def per_layer(spans: Spans, probe: Probe, perfs: list, solves: list, extra: dict) -> dict:
    """Per-layer metrics ``{name: (value, unit)}`` from one traced run.

    ``probe`` and ``solves`` come from the traced pass; ``perfs`` are the
    ``PerfCounters`` of a separate ``instrument=True`` pass, so the spans
    never time instrumented code. ``extra`` holds metrics measured outside
    the spans (host calibration, overheads, workload-specific counters).
    Layers a workload does not exercise read 0.
    """
    from repro.partition.partitioner import edge_cut

    named = spans.by_name()

    def self_s(name):
        return named.get(name, (0.0, []))[0]

    def recs(name):
        return named.get(name, (0.0, []))[1]

    v = dict.fromkeys(PER_LAYER, 0.0)
    v["matrices.build_s"] = self_s("matrices.build")
    v["partition.s"] = self_s("partition.build")
    v["partition.edge_cut"] = float(sum(
        edge_cut(r[4]["A"], r[4]["labels"]) for r in recs("partition.build") if "labels" in r[4]
    ))
    v["distributed.init_s"] = self_s("distributed.init")
    v["distributed.run_async_s"] = self_s("distributed.run_async")
    v["distributed.run_sync_s"] = self_s("distributed.run_sync")
    v["distributed.commits"] = float(probe.commits)
    if v["distributed.run_async_s"]:
        v["distributed.commits_per_s"] = probe.commits / v["distributed.run_async_s"]
    v["engine.events"] = _sum_perf(perfs, "events")
    v["engine.dispatch_s"] = _sum_perf(perfs, "dispatch_seconds")
    v["relax.s"] = _sum_perf(perfs, "spmv_seconds")
    v["relax.calls"] = _sum_perf(perfs, "spmv_calls")
    v["relax.rows"] = float(sum(s.rows for s in solves))
    v["relax.bytes_computed"] = float(sum(s.bytes for s in solves))
    if v["relax.s"]:
        v["relax.gbs_computed"] = v["relax.bytes_computed"] / v["relax.s"] / 1e9
    if v["relax.bytes_computed"]:
        v["relax.ops_per_byte"] = OPS_PER_BYTE
    v["native.load_s"] = self_s("native.load")
    v["delivery.puts_coalesced"] = _sum_perf(perfs, "puts_coalesced")
    v["delivery.flushes"] = _sum_perf(perfs, "delivery_flushes")
    v["delivery.edges_flushed"] = _sum_perf(perfs, "delivery_edges_flushed")
    v["observe.s"] = _sum_perf(perfs, "residual_seconds")
    v["observe.evals"] = _sum_perf(perfs, "residual_evals")
    v["observe.full_recomputes"] = _sum_perf(perfs, "full_recomputes")
    v["shared.run_async_s"] = self_s("shared.run_async")
    v["shared.relaxations"] = float(probe.shared_rows)
    if v["shared.run_async_s"]:
        v["shared.relax_per_s"] = probe.shared_rows / v["shared.run_async_s"]
    v["model.run_s"] = self_s("model.run")
    v["batched.run_s"] = self_s("batched.run")
    v["batched.trials"] = float(sum(r[4].get("trials", 0) for r in recs("batched.run")))
    v["solver.iterations_to_tol"] = float(sum(s.iters for s in solves))
    v["faults.run_async_s"] = self_s("faults.run_async")
    v["replay.s"] = self_s("replay.report")
    lookups = recs("cache.lookup")
    v["cache.lookups"] = float(len(lookups))
    v["cache.hits"] = float(sum(1 for r in lookups if r[4].get("hit")))
    if lookups:
        v["cache.hit_rate"] = v["cache.hits"] / len(lookups)
        v["cache.lookup_ms"] = statistics.fmean(r[2] - r[1] for r in lookups) * 1e3
    if recs("cache.store"):
        v["cache.store_ms"] = statistics.fmean(r[2] - r[1] for r in recs("cache.store")) * 1e3
    compute = recs("service.compute")
    v["service.compute_s"] = float(sum(r[2] - r[1] for r in compute))
    if probe.service_run is not None:
        v.update(_service_metrics(recs("service.submit"), compute, probe.service_run))
    v["bench.spans"] = float(len(spans.records))
    v.update({k: val for k, (val, _) in extra.items()})
    return {k: (float(val), PER_LAYER[k]) for k, val in v.items()}


def _service_metrics(submits: list, compute: list, run: dict) -> dict:
    """Queue wait from the spans; counters from ``SolverService.stats()``."""
    submitted = {}
    for r in submits:
        submitted.setdefault(r[4]["keys"][0], r[1])
    started = {}
    for r in compute:
        for key in r[4]["keys"]:
            started.setdefault(key, r[1])
    waits = [(started[k] - t) * 1e3 for k, t in submitted.items() if k in started]
    stats = run["stats"]
    return {
        "service.queue_wait_ms_p50": percentile(waits, 50) if waits else 0.0,
        "service.queue_wait_ms_p99": percentile(waits, 99) if waits else 0.0,
        "service.executions": stats["executions"],
        "service.coalescing_factor": stats["coalescing_factor"],
        "service.batch_size_mean": (
            stats["batched_requests"] / stats["batches"] if stats["batches"] else 0.0
        ),
        "service.single_flight_joins": stats["single_flight_joins"],
        "service.shed": stats["rejected"],
        "service.expired": stats["expired"],
        "service.max_pending": stats["max_pending_seen"],
        "loadgen.lag_ms": float(np.percentile(run["lag"], 99) * 1e3),
    }
