"""The host profiler (``run --profile``) runs exactly the unprofiled code.

``repro.sim.profile.PROFILER`` wraps :mod:`cProfile`; nothing in the
simulator checks it.  The identity tests run each cell with the profiler
off and on and require the same simulated results and the same engine and
network counters, so a profiled run cannot take a second code path (a
separate drain loop, or spawned transfer generators instead of the timer
path).  The layer-table tests check the per-module report.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

import repro.__main__ as cli
from repro.apps.adapt import ADAPT_PROGRAMS, AdaptConfig, build_script
from repro.faults import resolve_profile
from repro.machine import Machine, MachineConfig
from repro.machine.cache import CacheModel
from repro.models.registry import run_program
from repro.sim.engine import Engine
from repro.sim.profile import OUTSIDE, PROFILER, Profiler

_SMALL = AdaptConfig(mesh_n=8, phases=3, solver_iters=6)  # ``-s small``

#: ``(model, P, fault profile)``; ``bursty-links`` faults cube dimension 1,
#: which P=8 never crosses, so that cell runs at P=16 where links drop
CELLS = {
    "adapt-mpi/8": ("mpi", 8, None),
    "adapt-shmem/8": ("shmem", 8, None),
    "adapt-sas/8": ("sas", 8, None),
    "adapt-mpi/16/bursty-links": ("mpi", 16, "bursty-links"),
}


@pytest.fixture(autouse=True)
def _profiler_off():
    """Tests share the process-global PROFILER; leave it off and empty."""
    PROFILER.reset()
    yield
    PROFILER.reset()


def _run(model: str, nprocs: int, faults, profiled: bool):
    machine = Machine(
        MachineConfig(nprocs=nprocs),
        faults=resolve_profile(faults, seed=3) if faults else None,
    )
    script = build_script(_SMALL, nprocs)
    if profiled:
        PROFILER.enable()
    try:
        result = run_program(model, ADAPT_PROGRAMS[model], nprocs, script, machine=machine)
    finally:
        PROFILER.disable()
    eng = machine.engine.counters()
    return {
        "elapsed_ns": result.elapsed_ns,
        "rank_results": result.rank_results,
        "fault_summary": result.fault_summary,
        "events": eng["events"],
        "cohorts_drained": eng["cohorts_drained"],
        "timer_calls": eng["timer_calls"],
        "timer_fast_transfers": machine.network.timer_fast_transfers,
    }


@pytest.mark.parametrize("cell", list(CELLS))
def test_profiled_run_is_identical(cell):
    plain = _run(*CELLS[cell], profiled=False)
    profiled = _run(*CELLS[cell], profiled=True)
    assert profiled == plain
    assert PROFILER.total() > 0.0
    if plain["fault_summary"] is not None:
        assert plain["fault_summary"]["total_retries"] > 0


@pytest.fixture(scope="module")
def layer_tables():
    """Layer tables of one profiled CC-SAS and one MPI adapt cell."""
    tables = {}
    for model in ("sas", "mpi"):
        PROFILER.reset()
        _run(model, 8, None, profiled=True)
        tables[model] = (PROFILER.layers(), PROFILER.total())
    PROFILER.reset()
    return tables


def test_layer_rows_sum_to_total(layer_tables):
    for rows, total in layer_tables.values():
        assert total > 0.0
        assert sum(rows.values()) == pytest.approx(total, rel=1e-9)
        assert all(secs >= -1e-12 for secs in rows.values())
        assert OUTSIDE in rows


def test_layers_are_module_paths(layer_tables):
    rows, _ = layer_tables["sas"]
    assert "sim.engine" in rows and "apps.adapt" in rows
    assert not any(name.startswith("repro") for name in rows)


def test_sas_run_charges_directory_and_cache(layer_tables):
    rows, _ = layer_tables["sas"]
    assert rows["machine.directory"] > 0.0
    assert rows["machine.cache"] > 0.0


def test_mpi_run_charges_matching_and_network(layer_tables):
    rows, _ = layer_tables["mpi"]
    assert rows["models.mpi"] > 0.0
    assert rows["machine.network"] > 0.0


class _Stats:
    """Hand-built ``cProfile.Profile.getstats()`` entries."""

    def __init__(self, entries):
        self.entries = entries

    def getstats(self):
        return self.entries


def _entry(code, totaltime, inlinetime, calls=()):
    return SimpleNamespace(code=code, totaltime=totaltime, inlinetime=inlinetime, calls=list(calls))


def test_outside_time_follows_caller_edges():
    """NumPy/builtin time splits over the calling layers by edge time.

    ``engine`` (sim.engine) and ``cache`` (machine.cache) call a function
    outside the package, ``helper``; ``helper`` and ``cache`` call a
    builtin; one builtin has no caller at all.
    """
    engine = Engine.run.__code__
    cache = CacheModel.access.__code__
    helper = json.dumps.__code__
    builtin, orphan = "<built-in method numpy.sort>", "<built-in method time.sleep>"
    prof = Profiler()
    prof._prof = _Stats([
        _entry(engine, 4.0, 1.0, [_entry(helper, 3.0, 1.0)]),
        _entry(cache, 3.5, 2.0, [_entry(helper, 1.0, 1.0), _entry(builtin, 0.5, 0.5)]),
        _entry(helper, 4.0, 2.0, [_entry(builtin, 2.0, 2.0)]),
        _entry(builtin, 2.5, 2.5),
        _entry(orphan, 0.25, 0.25),
    ])
    rows = prof.layers()
    # helper: 3/4 engine, 1/4 cache; builtin: 4/5 via helper, 1/5 cache
    assert rows == pytest.approx({
        "sim.engine": 1.0 + 2.0 * 0.75 + 2.5 * 0.8 * 0.75,
        "machine.cache": 2.0 + 2.0 * 0.25 + 2.5 * (0.8 * 0.25 + 0.2),
        OUTSIDE: 0.25,
    })
    assert list(rows) == ["sim.engine", "machine.cache", OUTSIDE]
    assert sum(rows.values()) == pytest.approx(prof.total())


def test_outside_cycles_still_reach_the_layer():
    """Mutually recursive outside functions (the import machinery) add no remainder."""
    engine = Engine.run.__code__
    a, b = json.dumps.__code__, json.loads.__code__
    prof = Profiler()
    prof._prof = _Stats([
        _entry(engine, 3.0, 1.0, [_entry(a, 2.0, 0.8)]),
        _entry(a, 2.0, 1.0, [_entry(b, 1.0, 1.0)]),
        _entry(b, 1.0, 1.0, [_entry(a, 0.5, 0.2)]),
    ])
    rows = prof.layers()
    assert rows["sim.engine"] == pytest.approx(3.0)
    assert rows[OUTSIDE] == pytest.approx(0.0, abs=1e-12)


def test_reset_drops_the_record():
    assert Profiler().enabled is False
    _run("mpi", 8, None, profiled=True)
    assert PROFILER.total() > 0.0
    PROFILER.reset()
    assert PROFILER.total() == 0.0
    assert PROFILER.layers() == {OUTSIDE: 0.0}


def test_cli_profile_leaves_the_profiler_off(capsys):
    assert PROFILER.enabled is False
    rc = cli.main(["run", "adapt", "mpi", "-p", "4", "-s", "small", "--profile"])
    assert rc == 0
    assert PROFILER.enabled is False
    out = capsys.readouterr().out
    assert "models.mpi" in out and OUTSIDE in out and "total" in out


def test_cli_profile_off_after_a_failed_run(monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("run failed")

    monkeypatch.setattr(cli, "run_app", boom)
    with pytest.raises(RuntimeError, match="run failed"):
        cli.main(["run", "adapt", "mpi", "-p", "4", "-s", "small", "--profile"])
    assert PROFILER.enabled is False
