"""Compiled relax kernels (``relax_backend="native"``): identity and fallback.

The native backend's contract is the strongest the repo offers: at small n
it must be *bit-identical* to the legacy oracle across the same feature
matrix the engine-equivalence suite covers (methods, delivery modes, fault
plans, tracing), at turbo scale bit-identical to the block backend, and at
10^4 rows statistically equivalent to the event backend by the ensemble
helpers. When the toolchain probe fails — no ``cc``, or
``REPRO_NO_NATIVE=1`` — every entry point must fall back silently and
reproduce the NumPy trajectories exactly.

Tests that need the compiled library skip (not fail) on machines without a
C compiler, so the suite stays green in toolchain-less environments.
"""

import os

import numpy as np
import pytest

from repro.matrices.laplacian import fd_laplacian_2d
from repro.methods import make_method
from repro.perf import native
from repro.runtime.delays import ConstantDelay
from repro.runtime.distributed import DistributedJacobi
from repro.util.rng import as_rng
from tests.runtime.equivalence import (
    assert_envelopes_agree,
    assert_times_comparable,
    run_ensemble,
)
from tests.runtime.test_engine_equivalence import (
    DIST_ASYNC_CASES,
    A,
    B,
    assert_results_identical,
)

needs_native = pytest.mark.skipif(
    not native.native_available(),
    reason="no C toolchain (or REPRO_NO_NATIVE set): compiled kernels absent",
)

#: Every engine-equivalence async case the native backend legally covers —
#: the whole matrix minus Gauss-Seidel, whose sequential dot products the
#: backend refuses (BLAS accumulation order is not reproducible in C).
NATIVE_CASES = {k: v for k, v in DIST_ASYNC_CASES.items() if k != "gauss_seidel"}


def _run_pair(kwargs, run_kwargs):
    """(native run, legacy-oracle run) for one configuration."""
    run_kwargs = dict({"tol": 1e-6, "max_iterations": 40}, **run_kwargs)
    native_run = DistributedJacobi(A, B, n_ranks=8, seed=3, **kwargs).run_async(
        relax_backend="native", **run_kwargs
    )
    legacy_run = DistributedJacobi(A, B, n_ranks=8, seed=3, **kwargs).run_async(
        legacy_engine=True, **run_kwargs
    )
    return native_run, legacy_run


@needs_native
@pytest.mark.parametrize("case", NATIVE_CASES)
def test_native_bit_identical_to_legacy(case):
    kwargs, run_kwargs = NATIVE_CASES[case]
    assert_results_identical(*_run_pair(kwargs, run_kwargs))


@needs_native
@pytest.mark.parametrize(
    "method",
    ["damped_jacobi", "richardson", "richardson2"],
)
def test_native_bit_identical_all_legal_methods(method):
    """Scaled and momentum method kinds run the compiled kernels bitwise."""
    kwargs = {"method": make_method(method)}
    assert_results_identical(*_run_pair(kwargs, {}))


@needs_native
@pytest.mark.parametrize("delivery", ["batched", "event"])
def test_native_bit_identical_both_delivery_modes(delivery):
    assert_results_identical(*_run_pair({}, {"delivery": delivery}))


@needs_native
def test_native_traced_run_matches_untraced_trajectory():
    """A traced native run yields the same trajectory as the oracle's.

    Tracing forces the general event loop; the native relax closure must
    keep the bitwise contract there too.
    """
    from repro.observability import RingBufferSink, Tracer

    run_kwargs = {"tol": 1e-6, "max_iterations": 30}
    streams = []
    results = []
    for setup in ({"relax_backend": "native"}, {"legacy_engine": True}):
        sink = RingBufferSink(capacity=200_000)
        tracer = Tracer(sinks=[sink], trace_reads=True)
        sim = DistributedJacobi(A, B, n_ranks=8, seed=3)
        results.append(sim.run_async(tracer=tracer, **setup, **run_kwargs))
        streams.append(
            [(e.kind, e.time, e.seq, e.agent) for e in sink._ring]
        )
    assert len(streams[0]) > 0
    assert streams[0] == streams[1]
    assert_results_identical(*results)


TURBO_A = fd_laplacian_2d(16, 16)
TURBO_RANKS = 128  # >= _TURBO_MIN_RANKS: the precomputed-timeline engine


def _turbo_run(relax_backend, **extra):
    b = as_rng(7).uniform(-1, 1, TURBO_A.shape[0])
    sim = DistributedJacobi(
        TURBO_A, b, n_ranks=TURBO_RANKS, partition="contiguous", seed=7
    )
    return sim.run_async(
        tol=1e-8,
        max_iterations=60,
        observe_every=TURBO_RANKS,
        relax_backend=relax_backend,
        **extra,
    )


@needs_native
@pytest.mark.parametrize("extra", [{}, {"residual_mode": "full"}])
def test_native_turbo_bit_identical_to_block(extra):
    """At turbo rank counts the fused batch kernel matches block bitwise."""
    assert_results_identical(_turbo_run("native", **extra), _turbo_run("block", **extra))


#: Turbo-regime grids for the oracle comparison: (grid side, ranks,
#: iterations). 40x40 at 1024 ranks covers the large-fleet regime of the
#: Fig 8 rank sweeps at a size the legacy oracle can still afford.
TURBO_ORACLE_GRIDS = {"16x16-r128": (16, 128, 60), "40x40-r1024": (40, 1024, 4)}


@pytest.mark.parametrize("residual_mode", ["incremental", "full"])
@pytest.mark.parametrize("straggler", [False, True], ids=["plain", "straggler"])
@pytest.mark.parametrize("grid", TURBO_ORACLE_GRIDS)
def test_turbo_bit_identical_to_legacy(grid, straggler, residual_mode):
    """The turbo engine (native or NumPy) and the block and event loops all
    reproduce the legacy oracle bitwise at turbo rank counts.

    ``"auto"`` runs turbo on the compiled kernels when they load and on
    NumPy otherwise; ``"block"`` runs NumPy turbo; ``"event"`` the two-event
    dispatcher. A 2 ms straggler on rank 64 skews the timelines apart.
    """
    side, ranks, iterations = TURBO_ORACLE_GRIDS[grid]
    A_t = fd_laplacian_2d(side, side)
    b = as_rng(7).uniform(-1, 1, A_t.shape[0])
    delay = {"delay": ConstantDelay({64: 2e-3})} if straggler else {}

    def run(**kwargs):
        sim = DistributedJacobi(
            A_t, b, n_ranks=ranks, partition="contiguous", seed=7, **delay
        )
        return sim.run_async(
            tol=1e-8,
            max_iterations=iterations,
            observe_every=ranks,
            residual_mode=residual_mode,
            **kwargs,
        )

    oracle = run(legacy_engine=True)
    for backend in ("auto", "block", "event"):
        assert_results_identical(run(relax_backend=backend), oracle)


@needs_native
def test_auto_upgrades_to_native_at_turbo_scale():
    res = _turbo_run("auto", instrument=True)
    assert res.perf.backend == "native"
    assert_results_identical(res, _turbo_run("block", instrument=True))


@needs_native
def test_native_counters_populated_on_instrumented_run():
    sim = DistributedJacobi(A, B, n_ranks=8, seed=3)
    res = sim.run_async(
        tol=1e-6, max_iterations=40, instrument=True, relax_backend="native"
    )
    perf = res.perf
    assert perf.backend == "native"
    assert perf.native_calls > 0
    assert perf.native_rows_relaxed >= perf.native_calls
    assert "native" in perf.summary()
    assert "kernel calls" in perf.native_summary()


SEEDS = (1, 2, 3)
LARGE_A = fd_laplacian_2d(100, 100)  # 10^4 rows
LARGE_RANKS = 128


def _large_runner(relax_backend):
    def run_one(seed):
        b = as_rng(seed).uniform(-1, 1, LARGE_A.shape[0])
        sim = DistributedJacobi(
            LARGE_A, b, n_ranks=LARGE_RANKS, partition="contiguous", seed=seed
        )
        tol = sim.run_sync(max_iterations=1).residual_norms[0] / 10.0
        result = sim.run_async(
            tol=tol,
            max_iterations=400,
            observe_every=LARGE_RANKS,
            relax_backend=relax_backend,
        )
        result.tol = tol
        return result

    return run_one


@needs_native
def test_native_statistically_equivalent_at_large_n():
    """10^4 rows, 128 ranks: native traces the event backend's envelope.

    Bit-identity against the legacy oracle is unaffordable here; the
    ensemble contract (envelope overlap + comparable time-to-tolerance)
    is the paper-scale check, and per-seed bit-identity against the block
    backend rides along because it is nearly free.
    """
    nat = run_ensemble(_large_runner("native"), SEEDS)
    ev = run_ensemble(_large_runner("event"), SEEDS)
    assert_envelopes_agree(nat, ev, slack=0.02)
    tol = min(r.tol for r in nat)
    assert_times_comparable(nat, ev, tol, ratio=1.05)
    bl = run_ensemble(_large_runner("block"), SEEDS)
    for r_nat, r_bl in zip(nat, bl):
        assert_results_identical(r_nat, r_bl)


class TestFallbackAndValidation:
    def test_env_knob_disables_and_falls_back_bitwise(self, monkeypatch):
        """REPRO_NO_NATIVE=1: relax_backend="native" silently runs NumPy."""
        reference = DistributedJacobi(A, B, n_ranks=8, seed=3).run_async(
            tol=1e-6, max_iterations=40, relax_backend="block"
        )
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        native._reset_probe_cache()
        try:
            assert native.native_available() is False
            res = DistributedJacobi(A, B, n_ranks=8, seed=3).run_async(
                tol=1e-6,
                max_iterations=40,
                relax_backend="native",
                instrument=True,
            )
            assert res.perf.backend == "block"
            assert res.perf.native_calls == 0
            assert_results_identical(res, reference)
        finally:
            monkeypatch.delenv("REPRO_NO_NATIVE")
            native._reset_probe_cache()

    def test_gauss_seidel_sweep_rejects_native(self):
        sim = DistributedJacobi(A, B, n_ranks=8, seed=3, local_sweep="gauss_seidel")
        with pytest.raises(Exception, match="relax_backend"):
            sim.run_async(tol=1e-6, max_iterations=5, relax_backend="native")

    def test_sor_method_rejects_native(self):
        sim = DistributedJacobi(A, B, n_ranks=8, seed=3, method=make_method("sor"))
        with pytest.raises(Exception, match="relax_backend"):
            sim.run_async(tol=1e-6, max_iterations=5, relax_backend="native")

    def test_unknown_backend_error_lists_legal_values(self):
        sim = DistributedJacobi(A, B, n_ranks=8, seed=3)
        with pytest.raises(Exception, match="'auto'.*'event'.*'block'"):
            sim.run_async(tol=1e-6, max_iterations=5, relax_backend="bogus")


class TestBuildMachinery:
    def test_probe_is_memoized_and_resettable(self):
        first = native.native_kernels()
        assert native.native_kernels() is first
        native._reset_probe_cache()
        again = native.native_kernels()
        assert (again is None) == (first is None)

    def test_build_info_shape(self):
        info = native.build_info()
        assert set(info) >= {
            "available", "disabled", "compiler", "cache_dir",
            "source_hash", "library", "build_ms",
        }
        assert len(native.source_hash()) == 16

    @needs_native
    def test_clean_cache_dir_rebuild(self, tmp_path, monkeypatch):
        """A cold cache dir compiles from scratch and logs the build."""
        monkeypatch.setenv("REPRO_NATIVE_DIR", str(tmp_path))
        native._reset_probe_cache()
        try:
            kernels = native.native_kernels()
            assert kernels is not None
            assert kernels.build_ms > 0.0  # actually compiled, not cached
            assert str(kernels.path).startswith(str(tmp_path))
            assert (tmp_path / "build.log").exists()
            # Same content hash -> second probe reuses the library.
            native._reset_probe_cache()
            warm = native.native_kernels()
            assert warm is not None and warm.build_ms == 0.0
        finally:
            monkeypatch.delenv("REPRO_NATIVE_DIR")
            native._reset_probe_cache()

    def test_disabled_env_values(self, monkeypatch):
        for value, disabled in (("1", True), ("0", False), ("", False)):
            monkeypatch.setenv("REPRO_NO_NATIVE", value)
            assert native._disabled() is disabled
        monkeypatch.delenv("REPRO_NO_NATIVE")
        assert native._disabled() is False


def test_module_import_has_no_side_effects():
    """Importing repro.perf.native never compiles; only the probe does."""
    # The memo list is the only module state; importing again is a no-op.
    import importlib

    assert isinstance(native._cache, list) and len(native._cache) == 2
    assert importlib.import_module("repro.perf.native") is native
