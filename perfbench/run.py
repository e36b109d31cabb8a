#!/usr/bin/env python3
"""Run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload scale-stencil --seed 1 --seconds 20 --trace 0

``--workload`` takes one name, a comma-separated list, or ``all``.
``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` runs the separate traced run and prints the per-layer metrics. The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; with several
workloads each metric name is prefixed by its workload's.

``--smoke`` runs tiny sizes in seconds (used by the self-tests).
``--write-reference A:B`` recomputes the committed trajectory digests of
seeds ``A`` to ``B - 1`` for the chosen workloads.

The benchmark builds nothing outside the checkout: the compiled relax
kernels, the experiment cache and temporary files live under
``.bench_build/`` at the root.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
WORKLOADS = ("paper-sweep", "scale-stencil", "faults-traced", "service-mix")


def _prepare() -> Path:
    """Point imports and every cache at the checkout; return a temp dir."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source under {ROOT / 'src'}; run from a full checkout")
    here = str(Path(__file__).resolve().parent)
    sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != here]
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    os.environ["REPRO_NO_CACHE"] = "1"
    os.environ["REPRO_CACHE_DIR"] = str(BUILD / "cache")
    os.environ["REPRO_NATIVE_DIR"] = str(BUILD / "native")
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=BUILD / "tmp"))
    tempfile.tempdir = str(tmp)
    return tmp


def _workloads() -> dict:
    from perfbench import faults_traced, paper_sweep, scale_stencil, service_mix

    mods = (paper_sweep, scale_stencil, faults_traced, service_mix)
    return {m.NAME: m for m in mods}


def _build_native() -> None:
    """Compile the relax kernels into the checkout's cache if missing.

    This is the benchmark's build step: the first run in a checkout pays
    it, and every set-up afterwards loads from the warm on-disk cache.
    """
    from repro.perf import native

    native.native_kernels()


def _setup(w, seed: int, smoke: bool, seconds: float):
    if w.LOOP == "open":
        return lambda: w.setup(seed, smoke, seconds)
    return lambda: w.setup(seed, smoke)


def _expected(w, state, seed: int, smoke: bool):
    from perfbench.harness import reference_for

    ref = reference_for(w.NAME, "smoke" if smoke else "full", seed)
    if ref is not None:
        return ref, "committed reference"
    return w.oracle(state), "oracle recomputation"


def end_to_end_run(w, seed: int, seconds: float, smoke: bool) -> dict:
    """One end-to-end run of workload ``w`` (tracing off)."""
    from perfbench import harness

    build = _setup(w, seed, smoke, seconds)
    if w.LOOP == "open":
        state, setup_times = harness.run_setups(build)
        w.warm_up(state)
        m = w.evaluate(state, w.drive_stream(state), seed)
        source = "direct executor sample"
    else:
        sources = []

        def expected_for(state):
            expected, source = _expected(w, state, seed, smoke)
            sources.append(source)
            return expected

        m, setup_times = harness.run_closed(w, build, seconds, expected_for)
        source = sources[0]
    notes = dict(m.notes, checked_against=source,
                 setups=f"{len(setup_times)}, {min(setup_times):.4g} to "
                 f"{max(setup_times):.4g} s",
                 p99_ms=harness.percentile(m.latencies_s, 99) * 1e3)
    return {
        "metrics": harness.end_to_end(m, setup_times),
        "attempted": m.attempted,
        "failed": m.failed,
        "notes": notes,
    }


def _native_build_ms() -> float:
    """Milliseconds to compile the relax kernels into an empty cache."""
    from repro.perf import native

    saved = os.environ["REPRO_NATIVE_DIR"]
    os.environ["REPRO_NATIVE_DIR"] = tempfile.mkdtemp(prefix="native-")
    native._reset_probe_cache()
    try:
        kernels = native.native_kernels()
        return kernels.build_ms if kernels is not None else 0.0
    finally:
        os.environ["REPRO_NATIVE_DIR"] = saved
        native._reset_probe_cache()


def traced_run(w, seed: int, seconds: float, smoke: bool) -> dict:
    """The separate traced run of workload ``w``: per-layer metrics."""
    from perfbench import harness, host, layers

    extra = host.calibrate(smoke)
    extra["native.build_ms"] = (_native_build_ms(), "ms")
    spans = layers.Spans()
    patches = layers.install(spans)
    try:
        spans.active = True
        state, _ = harness.run_setups(_setup(w, seed, smoke, seconds), reps=1, min_s=0.0)
        spans.active = False
        setup_spans = len(spans.records)
        if w.LOOP == "open":
            w.warm_up(state)
            spans.active = True
            run, traced_wall = harness.timed(lambda: w.drive_stream(state))
            spans.active = False
            m = w.evaluate(state, run, seed)
            probe = layers.Probe()
            probe.service_run = run
            solves, perfs = [], []
            extra["relax.rows"] = (float(m.rows), "rows")
            attempted, failed = m.attempted, m.failed
        else:
            expected, _ = _expected(w, state, seed, smoke)
            w.run_pass(state)  # warm-up
            plain, instr, perfs = [], [], []
            for _ in range(2):
                plain.append(harness.timed(lambda: w.run_pass(state))[1])
                probe_i = layers.Probe(instrument=True)
                instr.append(harness.timed(lambda: w.run_pass(state, probe_i))[1])
                perfs = probe_i.perf
            extra["engine.instrument_overhead"] = (min(instr) / min(plain) - 1.0, "fraction")
            probe = layers.Probe()
            spans.active = True
            solves, traced_wall = harness.timed(lambda: w.run_pass(state, probe))
            spans.active = False
            harness.check_pass(solves, expected)
            attempted, failed = len(solves), sum(1 for s in solves if not s.ok)
            if hasattr(w, "trace_extras"):
                extra.update(w.trace_extras(state))
    finally:
        spans.active = False
        layers.uninstall(patches)
    traced_spans = len(spans.records) - setup_spans
    extra["bench.span_overhead"] = (spans.overhead_per_span() * traced_spans / traced_wall,
                                    "fraction")
    (BUILD / "spans").mkdir(parents=True, exist_ok=True)
    spans.dump(BUILD / "spans" / f"{w.NAME}-seed{seed}.jsonl")
    return {
        "metrics": layers.per_layer(spans, probe, perfs, solves, extra),
        "attempted": attempted,
        "failed": failed,
        "notes": {"traced_wall_s": traced_wall},
    }


def _print_report(name: str, out: dict) -> None:
    print(f"== {name}")
    for key, (value, unit) in out["metrics"].items():
        print(f"   {key:<32} {value:>16.6g} {unit}")
    share = out["failed"] / out["attempted"]
    print(f"   {'error_share':<32} {share:>16.6g} fraction "
          f"({out['failed']} failed of {out['attempted']} attempted)")
    for key, value in out["notes"].items():
        print(f"   note {key}: {value}")
    sys.stdout.flush()


def write_reference(names: list, seeds: range, mods: dict) -> None:
    """Recompute the committed per-solve digests for ``seeds``.

    Each seed's expected digests come from the workload's oracle, and are
    written only if one pass of the fast path agrees with them.
    """
    from perfbench import harness

    new = {}
    for name in names:
        w = mods[name]
        if w.LOOP == "open":
            continue
        for smoke in (True, False):
            size = "smoke" if smoke else "full"
            for seed in seeds:
                state = w.setup(seed, smoke)
                digests = [s.digest for s in w.run_pass(state)]
                if digests != w.oracle(state):
                    sys.exit(f"{name} seed {seed} ({size}): fast path differs from oracle")
                new.setdefault(name, {}).setdefault(size, {})[str(seed)] = digests
                print(f"{name} {size} seed {seed}: {len(digests)} digests", flush=True)
    ref = harness.load_reference()  # re-read: merge with concurrent writers' entries
    for name, sizes in new.items():
        for size, by_seed in sizes.items():
            ref.setdefault(name, {}).setdefault(size, {}).update(by_seed)
    harness.REFERENCE_PATH.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    """Parse arguments, run the chosen workloads, print the result line."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--write-reference", metavar="A:B")
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else args.workload.split(",")
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; choose from {', '.join(WORKLOADS)}")
    tmp = _prepare()
    try:
        mods = _workloads()
        _build_native()
        if args.write_reference:
            lo, hi = (int(x) for x in args.write_reference.split(":"))
            write_reference(names, range(lo, hi), mods)
            return 0
        run = traced_run if args.trace else end_to_end_run
        results = {}
        for name in names:
            results[name] = out = run(mods[name], args.seed, args.seconds, args.smoke)
            _print_report(name, out)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    from perfbench.harness import finite

    single = len(names) == 1
    metrics = {
        (key if single else f"{name}.{key}"): {"value": finite(value), "unit": unit}
        for name, out in results.items()
        for key, (value, unit) in out["metrics"].items()
    }
    attempted = sum(o["attempted"] for o in results.values())
    failed = sum(o["failed"] for o in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
