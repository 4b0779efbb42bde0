"""Running applications under models and collecting sweep results.

``run_app("adapt", "mpi", 8)`` runs one configuration; ``sweep`` produces
the rows behind every speedup figure in EXPERIMENTS.md.  Workload
trajectories (the adapt script) are deterministic, so they are cached
in-process — keyed on the *full* run signature (app, config, nprocs,
placement, fault profile), not just (config, nprocs): two runs that
differ only in placement or injected faults must never alias one cached
script object, or state carried on the script could leak between
configurations.  For the ``"scenario"`` app the config component of that
signature is the scenario spec's sha256 content hash, so sweep cells
from two generated scenarios — however similar their knobs — can never
collide.  The script cache is a bounded LRU (:data:`SCRIPT_CACHE_MAX`
entries, evictions counted in ``evictions``), so a long sweep
cycles it instead of growing without bound.

Beyond the in-process cache sits the serving layer: ``run_app(...,
store=...)`` serves a repeat run from the content-addressed on-disk
result store, and ``sweep(..., jobs=N, store=...)`` shards the misses of
a sweep across worker processes — see :mod:`repro.serving` and
``docs/serving.md``.  Every sweep-shaped harness serves its cells through
``serve_cells`` (which raises on the first failed cell) and writes its
record with ``write_record``.
"""

from __future__ import annotations

import functools
import json
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence

from repro.machine.config import link_stats_on
from repro.models.base import ProgramResult
from repro.models.registry import MODEL_NAMES, run_program

__all__ = [
    "APPS", "APP_MODELS", "BENCH_FILES", "SCRIPT_CACHE_MAX", "SweepRow",
    "check_models", "run_app", "serve_cells", "sweep", "write_record",
]

#: default bound on the in-process script cache (scripts are a few MB each;
#: a thousand-cell sweep must not grow memory without bound or signal)
SCRIPT_CACHE_MAX = 64


class _ScriptCache(OrderedDict):
    """Bounded LRU over built adapt scripts.

    Reads refresh recency; inserts evict the least-recently-used entry
    once ``maxsize`` is exceeded, counting each one in ``evictions`` so a
    long sweep that cycles workloads leaves a visible trail instead of
    silently rebuilding — or silently growing.  The dict surface (``in``, ``[]``, ``get``,
    ``clear``) is unchanged, so callers treat it as a plain cache.
    """

    def __init__(self, maxsize: int = SCRIPT_CACHE_MAX):
        super().__init__()
        self.maxsize = maxsize
        self.evictions = 0

    def __getitem__(self, key):
        value = super().__getitem__(key)
        self.move_to_end(key)
        return value

    def get(self, key, default=None):
        try:
            return self[key]
        except KeyError:
            return default

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        self.move_to_end(key)
        while len(self) > self.maxsize:
            self.popitem(last=False)
            self.evictions += 1


_script_cache: Dict[Any, Any] = _ScriptCache()


def _run_key(
    kind: str, cfg: Any, nprocs: int, placement: Any, faults: Any,
    machine_profile: Any = None,
) -> tuple:
    """Cache key covering everything that distinguishes one run setup.

    Fault profiles are folded in by ``repr`` (profiles are small frozen
    value objects; ``None`` stays ``None``) so an unhashable profile can
    never poison the key, and distinct profiles never collide.  Hardware
    profiles fold in by their signature — the registry name when the
    overlay matches the registered entry, the full ``repr`` otherwise —
    so two profiles differing in a single cost constant get distinct
    entries.
    """
    from repro.machine.profiles import machine_profile_signature

    return (
        kind, cfg, nprocs, str(placement),
        None if faults is None else repr(faults),
        machine_profile_signature(machine_profile),
    )


def _programs(app: str) -> Dict[str, Any]:
    """The app's program registry (``adapt3d`` and ``scenario`` run the adapt programs)."""
    if app == "nbody":
        from repro.apps.nbody import NBODY_PROGRAMS

        return NBODY_PROGRAMS
    if app == "jacobi":
        from repro.apps.jacobi import JACOBI_PROGRAMS

        return JACOBI_PROGRAMS
    from repro.apps.adapt import ADAPT_PROGRAMS

    return ADAPT_PROGRAMS


def check_models(app: str, models: Iterable[str]) -> tuple:
    """``models`` as a tuple, or a ValueError naming the apps or the
    models ``app`` runs.

    Sweep commands call this before any cell runs, so a typo in an app
    or a model list fails at once instead of after the valid cells.
    """
    if app not in APPS:
        raise ValueError(f"unknown app {app!r}; choose from {sorted(APPS)}")
    models = tuple(models)
    known = APP_MODELS[app]
    for model in models:
        if model not in known:
            raise ValueError(
                f"unknown model {model!r} for app {app!r}; "
                f"choose from {sorted(known)}"
            )
    return models


def _machine_config(nprocs: int, derived: Optional[Dict[str, Any]]):
    """Config for a run that overrides ``derived`` switches (else default)."""
    if not derived:
        return None
    from repro.machine.config import MachineConfig

    return MachineConfig(nprocs=nprocs, derived=dict(derived))


def _adapt_runner(app, model, nprocs, workload, placement, trace=False, faults=None, derived=None, machine_profile=None) -> ProgramResult:
    """Run the 2-D (``app="adapt"``) or 3-D (``"adapt3d"``) adaptive application."""
    from repro.apps.adapt import AdaptConfig, build_script
    from repro.apps.adapt3d import Adapt3DConfig

    cfg = workload or (Adapt3DConfig() if app == "adapt3d" else AdaptConfig())
    key = _run_key(app, cfg, nprocs, placement, faults, machine_profile)
    script = _script_cache.get(key)
    if script is None:
        # faults/machine_profile reach the builder so a fault-aware profile
        # can steer PLUM; the cache key above already distinguishes them
        script = build_script(cfg, nprocs, faults=faults, machine_profile=machine_profile)
        _script_cache[key] = script
    return run_program(model, _programs(app)[model], nprocs, script, placement=placement, trace=trace, faults=faults, config=_machine_config(nprocs, derived), profile=machine_profile)


def _scenario_runner(model, nprocs, workload, placement, trace=False, faults=None, derived=None, machine_profile=None) -> ProgramResult:
    """Run a generated scenario spec through the adapt machinery.

    ``workload`` is a :class:`repro.workloads.synth.ScenarioSpec` or a
    path to one on disk.  The cached trajectory is keyed on the spec's
    *content hash* (not its name or config object), so distinct generated
    scenarios can never alias one script.
    """
    from repro.workloads.synth import ScenarioSpec, load_spec, spec_config

    if workload is None:
        raise ValueError(
            "app 'scenario' needs a workload: a ScenarioSpec or a path to a "
            "*.scenario.json (see `repro scenarios generate`)"
        )
    spec = workload if isinstance(workload, ScenarioSpec) else load_spec(workload)
    key = _run_key("scenario", spec.content_hash(), nprocs, placement, faults, machine_profile)
    script = _script_cache.get(key)
    if script is None:
        from repro.apps.adapt import build_script

        script = build_script(
            spec_config(spec), nprocs, faults=faults, machine_profile=machine_profile
        )
        _script_cache[key] = script
    return run_program(model, _programs("scenario")[model], nprocs, script, placement=placement, trace=trace, faults=faults, config=_machine_config(nprocs, derived), profile=machine_profile)


def _nbody_runner(model, nprocs, workload, placement, trace=False, faults=None, derived=None, machine_profile=None) -> ProgramResult:
    from repro.apps.nbody import NBodyConfig

    cfg = workload or NBodyConfig()
    return run_program(model, _programs("nbody")[model], nprocs, cfg, placement=placement, trace=trace, faults=faults, config=_machine_config(nprocs, derived), profile=machine_profile)


def _jacobi_runner(model, nprocs, workload, placement, trace=False, faults=None, derived=None, machine_profile=None) -> ProgramResult:
    from repro.apps.jacobi import JacobiConfig

    cfg = workload or JacobiConfig()
    return run_program(model, _programs("jacobi")[model], nprocs, cfg, placement=placement, trace=trace, faults=faults, config=_machine_config(nprocs, derived), profile=machine_profile)


APPS = {
    "adapt": functools.partial(_adapt_runner, "adapt"),
    "adapt3d": functools.partial(_adapt_runner, "adapt3d"),
    "nbody": _nbody_runner,
    "jacobi": _jacobi_runner,
    "scenario": _scenario_runner,
}

#: the models each app runs; ``check_models`` reads this, so checking a
#: sweep or serve spec imports no rank program (a test pins it to each
#: app's program registry)
APP_MODELS: Dict[str, tuple] = {
    "adapt": MODEL_NAMES,
    "adapt3d": MODEL_NAMES,
    "nbody": ("mpi", "shmem", "sas"),
    "jacobi": ("mpi", "shmem", "sas"),
    "scenario": MODEL_NAMES,
}


def run_app(
    app: str,
    model: str,
    nprocs: int,
    workload: Any = None,
    placement: str = "first-touch",
    trace: bool = False,
    faults: Any = None,
    derived: Optional[Dict[str, Any]] = None,
    store: Any = None,
    machine_profile: Any = None,
):
    """Run one (app, model, nprocs) configuration on a fresh machine.

    Args:
        app: application name — one of :data:`APPS`
            (``"adapt"``, ``"adapt3d"``, ``"nbody"``, ``"jacobi"``,
            ``"scenario"``).
        model: programming model (``"mpi"``, ``"shmem"``, ``"sas"``,
            ``"hybrid"``).
        nprocs: number of ranks/CPUs.
        workload: app-specific config object (e.g. ``AdaptConfig``; for
            ``"scenario"`` a :class:`repro.workloads.synth.ScenarioSpec`
            or a path to one — required, there is no default scenario);
            ``None`` uses the app's default workload.
        placement: page-placement policy for shared data.
        trace: record structured communication events (returned on
            ``ProgramResult.events``) without changing simulated time
            or results.
        faults: fault-injection profile — a name from
            :data:`repro.faults.PROFILES`, a
            :class:`repro.faults.FaultProfile`, or ``None`` for the
            fault-free machine (see ``docs/faults.md``).
        derived: extra ``MachineConfig.derived`` switches for this run
            (e.g. ``{"link_stats": "on"}`` to collect per-link
            contention counters) — ``None`` keeps the machine defaults.
        store: a :class:`repro.serving.ResultStore` for store-first
            serving — a run whose full signature is already on disk
            returns its stored :class:`repro.serving.ResultSummary`
            (bit-identical elapsed time, rank results and aggregate
            statistics) without simulating; a miss simulates, writes
            back, and returns the live result.  Traced and link-stats
            runs always simulate and store nothing (event streams and
            per-link counters are not stored).
        machine_profile: hardware profile — a name from
            :data:`repro.machine.profiles.PROFILES` (e.g.
            ``"fat-tree-cluster"``), a
            :class:`~repro.machine.profiles.MachineProfile`, or ``None``
            for the Origin2000 default.  The profile is part of the run
            signature, so stored results never alias across hardware.

    Returns:
        The :class:`ProgramResult` of the run, or — on a store hit — the
        stored :class:`repro.serving.ResultSummary` (same read surface
        for sweep consumers: ``elapsed_ns``/``elapsed_ms``,
        ``rank_results``, ``phase_ns``, ``fault_summary``, aggregate
        ``stats``).
    """
    check_models(app, (model,))
    runner = APPS[app]
    if store is not None and not trace and not link_stats_on(derived):
        from repro.serving.scheduler import Cell
        from repro.serving.store import (
            resolve_workload,
            summarize_result,
            summary_from_payload,
        )

        workload = resolve_workload(app, workload)
        sig, key, identity = Cell(
            app, model, nprocs, workload, placement, faults, derived,
            machine_profile,
        ).signed()
        payload = store.get(key)
        if payload is not None:
            return summary_from_payload(payload)
        result = runner(model, nprocs, workload, placement, trace=trace, faults=faults, derived=derived, machine_profile=machine_profile)
        store.put(key, sig, summarize_result(result), identity=identity)
        return result
    return runner(model, nprocs, workload, placement, trace=trace, faults=faults, derived=derived, machine_profile=machine_profile)


@dataclass(frozen=True)
class SweepRow:
    """One (app, model, P) measurement."""

    app: str
    model: str
    nprocs: int
    elapsed_ms: float
    speedup: float
    efficiency: float


def sweep(
    app: str,
    models: Sequence[str] = ("mpi", "shmem", "sas"),
    nprocs_list: Iterable[int] = (1, 2, 4, 8),
    workload: Any = None,
    placement: str = "first-touch",
    baseline_model: Optional[str] = None,
    jobs: int = 1,
    store: Any = None,
    machine_profile: Any = None,
) -> List[SweepRow]:
    """Run the full cross product; speedups are vs each model's own P=1
    time (or vs ``baseline_model``'s P=1 time when given — the paper-style
    normalisation to a common uniprocessor baseline).

    Args:
        app / models / nprocs_list / workload / placement /
        baseline_model: the sweep axes, as before.
        jobs: shard the cells over this many worker processes (each
            simulation is single-threaded and cells are independent, so
            ``jobs=4`` produces bit-identical rows to ``jobs=1``).
        store: a :class:`repro.serving.ResultStore` — cells whose
            signature is already on disk are served without simulating.
        machine_profile: hardware profile name or
            :class:`~repro.machine.profiles.MachineProfile` for every
            cell of the sweep (``None``: the Origin2000 default).

    Returns:
        One :class:`SweepRow` per (model, P), in model-major order.
    """
    from repro.serving import Cell

    nprocs_list = list(nprocs_list)
    cells = [
        Cell(app, model, n, workload, placement, machine_profile=machine_profile)
        for model in models
        for n in nprocs_list
    ]
    results = {
        (c.model, c.nprocs): summary
        for c, summary in zip(cells, serve_cells(cells, store=store, jobs=jobs))
    }
    rows: List[SweepRow] = []
    for model in models:
        base_model = baseline_model or model
        base = results.get((base_model, 1))
        base_ms = base.elapsed_ms if base is not None else results[(model, nprocs_list[0])].elapsed_ms
        for n in nprocs_list:
            r = results[(model, n)]
            sp = base_ms / r.elapsed_ms if r.elapsed_ms > 0 else 0.0
            rows.append(
                SweepRow(
                    app=app,
                    model=model,
                    nprocs=n,
                    elapsed_ms=r.elapsed_ms,
                    speedup=sp,
                    efficiency=sp / n,
                )
            )
    return rows


def serve_cells(cells: Sequence[Any], store: Any = None, jobs: int = 1) -> List[Any]:
    """Serve every cell through :func:`repro.serving.run_cells`.

    Returns the cells' result summaries in input order, or raises a
    RuntimeError naming the first failed cell, so no record is ever
    built from a partial sweep.
    """
    from repro.serving import run_cells

    served = run_cells(cells, store=store, jobs=jobs)
    failed = [r for r in served if r.summary is None]
    if failed:
        raise RuntimeError(
            f"sweep cell {failed[0].cell.label()} failed: {failed[0].error} "
            f"({len(failed)} of {len(served)} cells failed)"
        )
    return [r.summary for r in served]


#: each bench record's default file, by its ``benchmark`` field
BENCH_FILES = {
    "fault-recovery": "BENCH_FAULTS.json",
    "scenario-sweep": "BENCH_SCENARIOS.json",
    "profile-sweep": "BENCH_PROFILES.json",
}


def write_record(record: Dict[str, Any], path: Optional[str] = None) -> str:
    """Write a bench record as sorted-key JSON; returns the path.

    ``path`` defaults to the record's ``BENCH_*.json`` (:data:`BENCH_FILES`).
    """
    path = path or BENCH_FILES[record["benchmark"]]
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
