"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root: ``PYTHONPATH=src python -m pytest bench -q``.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

from bench import ROOT, report
from bench.runner import _traced_pass, layer_report, run_workload
from bench.trace import HOOKS, Tracer
from bench.clock import Clock
from bench.workloads import Checker, fingerprint

TINY = {
    "adapt-highp": {"mesh_n": 4, "phases": 2, "solver_iters": 2, "procs": (4,)},
    "scenario-p8": {"mesh_n": 4, "phases": 2, "solver_iters": 1, "seeds_per_class": 1, "nprocs": 4},
    "nbody-highp": {"n": 32, "steps": 2, "procs": (4,)},
    "sweep-serve": {"mesh_n": 4, "phases": 2, "solver_iters": 2, "grid": 16,
                    "jacobi_iters": 2, "procs": (4,), "lookups": 40},
}

#: rows each workload was chosen to exercise; a hook the code bypasses
#: leaves its row at zero calls and fails here
EXERCISES = {
    "adapt-highp": (
        "sim", "machine.setup", "machine.network", "machine.directory", "machine.cache",
        "models.launch", "models.mpi", "models.mpi.match", "models.shmem", "models.sas",
        "models.hybrid", "apps.program", "apps.build", "mesh", "partition", "plum",
        "solver", "workloads",
    ),
    "scenario-p8": ("apps.build", "mesh", "partition", "plum", "solver", "workloads"),
    "nbody-highp": (
        "sim", "machine.network", "machine.directory", "machine.cache", "models.mpi",
        "models.shmem", "models.sas", "apps.program", "apps.reference", "workloads",
    ),
    "sweep-serve": ("serving.run_cells", "serving.pool", "serving.get", "serving.put", "apps.reference"),
}

SUBSTRATE = ("apps.build", "mesh", "partition", "plum", "solver")


def _workload(name, tmp_path):
    from bench.workloads import WORKLOADS

    sizes = dict(TINY[name])
    if name == "sweep-serve":
        sizes["root"] = tmp_path
    return WORKLOADS[name](0, **sizes)


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One untraced and one traced pass of every tiny workload."""
    out = {}
    for name in TINY:
        tmp = tmp_path_factory.mktemp(name)
        wl = _workload(name, tmp)
        untraced = wl.run_pass(Clock())
        tracer = Tracer()
        clock = Clock(tracer)
        with tracer.installed():
            t0 = perf_counter()
            answers = wl.run_pass(clock)
            wall = perf_counter() - t0
        out[name] = (untraced, answers, tracer, clock, wall)
    return out


def test_self_rows_and_unattributed_sum_to_traced_wall(traced):
    for name, (_, answers, tracer, clock, wall) in traced.items():
        rep = layer_report(tracer, clock, answers, wall, [1.0])
        rows = rep["rows"]
        un = rep["metrics"]["unattributed_s"]["value"]
        assert all(r["self_s"] >= 0.0 for r in rows.values()), name
        assert un >= 0.0, name
        assert sum(r["self_s"] for r in rows.values()) + un == pytest.approx(wall, rel=1e-12)


def test_each_hook_fires_on_the_workload_meant_to_exercise_it(traced):
    for name, rows in EXERCISES.items():
        tracer = traced[name][2]
        assert [r for r in rows if tracer.calls[r] == 0] == [], name
    assert all(traced["nbody-highp"][2].calls[r] == 0 for r in SUBSTRATE)
    # every hook named one by one (not by a ``*`` or ``[]`` pattern) fires
    # on some workload
    named = {t if "." in t else f"{m}.{t}" for _, m, t in HOOKS if not t.endswith(("*", "[]"))}
    called = {label for run in traced.values() for label, n in run[2].target_calls.items() if n}
    assert sorted(named - called) == []


def test_traced_fingerprints_equal_untraced(traced):
    for name, (untraced, answers, *_) in traced.items():
        first = {}
        for a in untraced:
            first.setdefault(a.label, fingerprint(a.result))
        assert {a.label: fingerprint(a.result) for a in answers} == first, name


def test_traced_pass_keeps_the_profiler_off(tmp_path):
    from repro.sim.profile import PROFILER

    wl = _workload("nbody-highp", tmp_path)
    assert PROFILER.enabled is False
    _traced_pass(wl, Checker({}), 1.0, [1.0], tmp_path)
    assert PROFILER.enabled is False
    PROFILER.enable()
    try:
        with pytest.raises(RuntimeError, match="profiler"):
            _traced_pass(wl, Checker({}), 1.0, [1.0], tmp_path)
    finally:
        PROFILER.disable()


def test_perturbed_golden_raises_fail_frac(tmp_path):
    sizes = TINY["nbody-highp"]
    golden = run_workload("nbody-highp", 0, record=True, sizes=sizes, out=tmp_path)["record"]
    clean = run_workload("nbody-highp", 0, golden=golden, sizes=sizes, out=tmp_path)
    assert (clean["failed"], clean["unpinned"]) == (0, 0)
    label = sorted(golden)[0]
    bad = {**golden, label: {**golden[label], "elapsed_ns": golden[label]["elapsed_ns"] + 1.0}}
    res = run_workload("nbody-highp", 0, golden=bad, sizes=sizes, out=tmp_path)
    assert res["failed"] / res["attempted"] > 0
    assert all(f.startswith(label) for f in res["failures"])


def test_verdicts():
    parent = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    assert report.verdict(parent, parent, "lower", 0.1) == "unchanged"
    assert report.verdict(parent, [v * 0.8 for v in parent], "lower", 0.1) == "better"
    assert report.verdict(parent, [v * 1.2 for v in parent], "lower", 0.1) == "worse"
    assert report.verdict(parent, [v * 1.2 for v in parent], "higher", 0.1) == "better"
    noisy = [0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4, 0.8, 1.2, 1.0]
    assert report.verdict(noisy, noisy, "lower", 0.1) == "unresolved"


def test_fails_without_the_simulator_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__", "history.jsonl"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "-m", "bench", "--workload", "adapt-highp", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not Path(tmp_path, "bench", "history.jsonl").exists()
