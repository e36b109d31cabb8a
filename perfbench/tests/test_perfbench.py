"""Self-tests of the benchmark: metric names, seeds, output checks, smoke runs.

Run from the repository root with ``python -m pytest perfbench/tests -q``.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import faults_traced, harness, layers, paper_sweep, scale_stencil, service_mix
from perfbench.run import WORKLOADS
from repro.runtime.distributed import DistributedJacobi
from repro.runtime.shared import SharedMemoryJacobi
from repro.service.requests import DeadlineExceededError

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"[A-Za-z0-9_.-]{1,64}")
CLOSED = (paper_sweep, scale_stencil, faults_traced)
ALL = CLOSED + (service_mix,)
#: Workloads BENCHMARK.json gates; paper-sweep runs by name only (see README).
GATED = ("scale-stencil", "faults-traced", "service-mix")


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _e2e_units() -> dict:
    m = harness.Measurement(
        wall_s=1.0, solves=1, rows=1, latencies_s=[0.1], attempted=1, failed=0, goodput_rps=1.0
    )
    return {name: unit for name, (_, unit) in harness.end_to_end(m, [1.0]).items()}


def test_metric_names_are_well_formed():
    bench = _benchmark()
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    names += list(layers.PER_LAYER) + list(_e2e_units())
    for name in names:
        assert NAME.fullmatch(name), name


def test_benchmark_json_matches_the_code():
    bench = _benchmark()
    whys = {m.NAME: m.WHY for m in ALL}
    assert [w["name"] for w in bench["workloads"]] == [n for n in WORKLOADS if n in GATED]
    assert {w["name"]: w["why"] for w in bench["workloads"]} == {n: whys[n] for n in GATED}
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == _e2e_units()
    assert [m["name"] for m in bench["per_layer"]] == list(layers.PER_LAYER)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == layers.PER_LAYER


@pytest.mark.parametrize("smoke", (True, False), ids=("smoke", "full"))
@pytest.mark.parametrize("w", ALL, ids=lambda w: w.NAME)
def test_inputs_follow_the_seed(w, smoke):
    first = harness.inputs_digest(w.make_inputs(5, smoke))
    assert first == harness.inputs_digest(w.make_inputs(5, smoke))
    assert first != harness.inputs_digest(w.make_inputs(6, smoke))


def _corrupt(monkeypatch, cls, method: str) -> None:
    """Make ``cls.method`` return results whose ``x`` is off by one ulp."""
    original = getattr(cls, method)

    def corrupted(self, *args, **kwargs):
        res = original(self, *args, **kwargs)
        res.x.flat[0] = np.nextafter(res.x.flat[0], np.inf)
        return res

    monkeypatch.setattr(cls, method, corrupted)


@pytest.mark.parametrize(
    "w, cls, method",
    [
        (paper_sweep, SharedMemoryJacobi, "run_async"),
        (scale_stencil, DistributedJacobi, "run_sync"),
        (faults_traced, SharedMemoryJacobi, "run_async"),
    ],
    ids=lambda v: getattr(v, "NAME", getattr(v, "__name__", v)),
)
def test_closed_loop_check_fails_on_corrupted_output(monkeypatch, w, cls, method):
    state = w.setup(0, True)
    expected = [s.digest for s in w.run_pass(state)]
    clean = harness.run_closed(w, lambda: state, 0.0, lambda _: expected)[0]
    assert clean.failed == 0
    _corrupt(monkeypatch, cls, method)
    m = harness.run_closed(w, lambda: state, 0.0, lambda _: expected)[0]
    assert 0 < m.failed < m.attempted


def test_closed_loop_check_fails_on_missed_target(monkeypatch):
    state = faults_traced.setup(0, True)
    expected = [s.digest for s in faults_traced.run_pass(state)]
    monkeypatch.setattr(faults_traced, "DIST_TARGET", 1e-30)
    m = harness.run_closed(faults_traced, lambda: state, 0.0, lambda _: expected)[0]
    assert m.failed == 2 * m.notes["passes"]  # the clean and protected runs


def test_service_check_fails_on_corrupted_output():
    state = service_mix.setup(0, True)
    run = service_mix.drive_stream(state)
    assert service_mix.evaluate(state, run, 0).failed == 0

    def corrupt(i):
        lat, out = run["outcomes"][i]
        bad = dict(out, x=out["x"].copy())
        bad["x"][0] = np.nextafter(bad["x"][0], np.inf)
        run["outcomes"][i] = (lat, bad)

    sampled = next(iter(service_mix.expected_sample(state, 0)))
    corrupt(state["keys"].index(sampled))
    assert service_mix.evaluate(state, run, 0).failed == 1
    keys = state["keys"]
    repeat = next(i for i, k in enumerate(keys) if k != sampled and k in keys[:i])
    corrupt(repeat)
    assert service_mix.evaluate(state, run, 0).failed == 2
    run["outcomes"][0] = (0.0, DeadlineExceededError("late"))
    assert service_mix.evaluate(state, run, 0).failed == 3


@pytest.mark.parametrize("w", CLOSED, ids=lambda w: w.NAME)
def test_committed_reference_matches_the_oracle(w):
    ref = harness.reference_for(w.NAME, "smoke", 0)
    assert ref is not None, "no committed smoke reference for seed 0"
    assert w.oracle(w.setup(0, True)) == ref


def _run(*args, cwd=ROOT, timeout=120):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize("name", WORKLOADS)
def test_smoke_run_prints_every_end_to_end_metric(name):
    proc = _run("--workload", name, "--smoke", "--seed", "3", "--seconds", "0.2", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in _benchmark()["end_to_end"]]
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_smoke_traced_run_prints_every_per_layer_metric():
    proc = _run("--workload", "paper-sweep", "--smoke", "--seed", "3", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in _benchmark()["per_layer"]]
    assert result["metrics"]["bench.span_overhead"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "paper-sweep", "--seed", "0", "--seconds", "1", "--trace", "0",
                cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
