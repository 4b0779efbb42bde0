"""Ranking-flip sweeps: the paper's question over named axes.

The paper asks how MPI, SHMEM and CC-SAS rank, and where the ranking
changes.  :func:`rank_sweep` asks it over any grid of named axes: it
serves one cell per (grid point, model) through the result store, ranks
the models at every point by simulated elapsed time, and lists each
adjacent pair of settings along each axis whose ranking differs (the
*ranking flips*), flagging those where the best model changes.  Two
presets drive it: :func:`run_scenario_bench` (scenario class ×
intensity × P, ``BENCH_SCENARIOS.json``) and :func:`run_profile_bench`
(hardware profile × P on one scenario, ``BENCH_PROFILES.json``).

Times are simulated, so a sweep is deterministic: the same knobs give
the same rankings and flips, and a warm pass served from the store
writes a byte-identical record.
"""

from __future__ import annotations

from itertools import product
from typing import Any, Callable, Dict, Iterable, List, Sequence, Tuple

from repro.harness.experiment import serve_cells

__all__ = [
    "DEFAULT_CLASSES",
    "DEFAULT_PROFILES",
    "find_flips",
    "rank_sweep",
    "run_scenario_bench",
    "run_profile_bench",
    "format_rank_sweep",
]

DEFAULT_CLASSES = (
    "multi_front",
    "refinement_storm",
    "imbalance_wave",
    "hotspot_drift",
)

#: every registered hardware profile, Origin2000 first (the baseline)
DEFAULT_PROFILES = ("origin2000", "numa-epyc", "fat-tree-cluster", "dragonfly")

Axes = Sequence[Tuple[str, Sequence[Any]]]

#: how an axis setting reads in ranking keys (``multi_front/i0.2/P8``);
#: other axes use the setting itself
_LABELS = {"intensity": "i{:g}".format, "nprocs": "P{}".format}

#: each ranking bench's axes, outermost first: (axis, record field of its settings)
_RECORD_AXES = {
    "scenario-sweep": (
        ("scenario_class", "classes"), ("intensity", "intensities"),
        ("nprocs", "nprocs_list"),
    ),
    "profile-sweep": (("machine_profile", "profile_order"), ("nprocs", "nprocs_list")),
}

_INSIGHTS = (
    "final_elements",
    "comm_volume_bytes",
    "adaptation_rate",
    "migration_fraction",
    "peak_imbalance",
)


def _label(axis: str, setting: Any) -> str:
    return _LABELS.get(axis, str)(setting)


def find_flips(axes: Axes, ranks: Dict[tuple, Sequence[str]]) -> List[Dict[str, Any]]:
    """Adjacent-setting ranking changes along every axis.

    ``ranks`` maps each grid point (one setting per axis, in ``axes``
    order) to its model ranking.  Axes are walked innermost first; along
    each, the other axes' settings are walked in grid order and every
    adjacent pair of settings with different rankings is one flip.
    """
    flips: List[Dict[str, Any]] = []
    for i in reversed(range(len(axes))):
        axis, settings = axes[i]
        others = list(axes[:i]) + list(axes[i + 1:])
        for fixed in product(*(values for _, values in others)):
            for a, b in zip(settings, settings[1:]):
                r1 = ranks[fixed[:i] + (a,) + fixed[i:]]
                r2 = ranks[fixed[:i] + (b,) + fixed[i:]]
                if r1 != r2:
                    flips.append({
                        "axis": axis,
                        "fixed": {name: v for (name, _), v in zip(others, fixed)},
                        "from_setting": a,
                        "to_setting": b,
                        "from_ranking": list(r1),
                        "to_ranking": list(r2),
                        "best_changed": r1[0] != r2[0],
                    })
    return flips


def rank_sweep(
    axes: Axes,
    models: Sequence[str],
    cell_of: Callable[[Dict[str, Any], str], Any],
    store: Any = None,
    jobs: int = 1,
) -> Dict[str, Any]:
    """Serve model × grid, rank the models at each point, find the flips.

    Args:
        axes: ``[(name, settings), ...]``, outermost first.
        models: programming models to rank.
        cell_of: ``cell_of(point, model)`` -> the :class:`repro.serving.Cell`
            of one grid point (``{axis name: setting}``) under one model.
        store / jobs: serve the cells from this result store, sharding
            misses over ``jobs`` worker processes.

    Returns:
        The ranking fields of a bench record: ``models``, ``cells`` (grid
        points), one row per (point, model), a ``ranking`` and ``best``
        model per point (keyed like ``multi_front/i0.2/P8``), ``flips``,
        ``best_flips`` (the subset where first place changes), and
        ``axes_with_flips`` / ``axes_with_best_flips``.
    """
    names = [name for name, _ in axes]
    points = list(product(*(settings for _, settings in axes)))
    summaries = iter(serve_cells(
        [cell_of(dict(zip(names, point)), model) for point in points for model in models],
        store=store, jobs=jobs,
    ))
    rows: List[Dict[str, Any]] = []
    ranks: Dict[tuple, List[str]] = {}
    for point in points:
        times: Dict[str, int] = {}
        for model in models:
            ns = times[model] = next(summaries).elapsed_ns
            rows.append({**dict(zip(names, point)), "model": model,
                         "elapsed_ns": ns, "elapsed_ms": ns / 1e6})
        ranks[point] = sorted(models, key=times.__getitem__)
    keys = {p: "/".join(map(_label, names, p)) for p in points}
    flips = find_flips(axes, ranks)
    best_flips = [f for f in flips if f["best_changed"]]
    return {
        "models": list(models),
        "cells": len(points),
        "rows": rows,
        "ranking": {keys[p]: r for p, r in ranks.items()},
        "best": {keys[p]: r[0] for p, r in ranks.items()},
        "flips": flips,
        "best_flips": best_flips,
        "axes_with_flips": sorted({f["axis"] for f in flips}),
        "axes_with_best_flips": sorted({f["axis"] for f in best_flips}),
    }


def _scenario(cls: str, intensity: float, seed: int, mesh_n: int, phases: int, solver_iters: int):
    from repro.workloads.synth import generate_scenario

    return generate_scenario(
        cls, seed=seed, name=f"{cls}-{_label('intensity', intensity)}-s{seed}",
        mesh_n=mesh_n, phases=phases, solver_iters=solver_iters, intensity=intensity,
    )


def run_scenario_bench(
    classes: Sequence[str] = DEFAULT_CLASSES,
    models: Sequence[str] = ("mpi", "shmem", "sas"),
    nprocs_list: Iterable[int] = (2, 8, 32),
    intensities: Sequence[float] = (0.2, 1.0),
    seed: int = 7,
    mesh_n: int = 8,
    phases: int = 4,
    solver_iters: int = 6,
    placement: str = "first-touch",
    include_insights: bool = True,
    store: Any = None,
    jobs: int = 1,
) -> Dict[str, Any]:
    """Rank the models over scenario class × intensity × P.

    Every (class, intensity) gets one generated scenario with the given
    seed and base shape (``mesh_n``, ``phases``, ``solver_iters``);
    ``include_insights`` attaches each spec's trajectory
    characterisation.  ``store`` / ``jobs`` are as in :func:`rank_sweep`.

    Returns:
        The BENCH_SCENARIOS record: the :func:`rank_sweep` fields (each
        row also names its ``variant``, e.g. ``i0.2``), the sweep's
        settings, and one spec entry (name, hash, knobs, insights) per
        (class, intensity).
    """
    from repro.serving import Cell
    from repro.workloads.synth import characterise

    classes, intensities, nprocs_list = list(classes), list(intensities), list(nprocs_list)
    specs, entries = {}, {}
    for cls in classes:
        for inten in intensities:
            spec = specs[cls, inten] = _scenario(cls, inten, seed, mesh_n, phases, solver_iters)
            entry = entries[f"{cls}/{_label('intensity', inten)}"] = {
                "name": spec.name,
                "content_hash": spec.content_hash(),
                "knobs": spec.knob_dict,
            }
            if include_insights:
                ins = characterise(spec, max(nprocs_list))
                entry["insights"] = {k: ins[k] for k in _INSIGHTS}
    record = rank_sweep(
        [("scenario_class", classes), ("intensity", intensities), ("nprocs", nprocs_list)],
        models,
        lambda pt, model: Cell("scenario", model, pt["nprocs"],
                               specs[pt["scenario_class"], pt["intensity"]], placement),
        store=store, jobs=jobs,
    )
    for row in record["rows"]:
        row["variant"] = _label("intensity", row["intensity"])
    record.update({
        "benchmark": "scenario-sweep",
        "seed": seed,
        "classes": classes,
        "nprocs_list": nprocs_list,
        "intensities": intensities,
        "workload": {"mesh_n": mesh_n, "phases": phases, "solver_iters": solver_iters},
        "placement": placement,
        "specs": entries,
    })
    return record


def run_profile_bench(
    profiles: Sequence[str] = DEFAULT_PROFILES,
    models: Sequence[str] = ("mpi", "shmem", "sas"),
    nprocs_list: Iterable[int] = (2, 8, 32),
    scenario_class: str = "multi_front",
    intensity: float = 1.0,
    seed: int = 7,
    mesh_n: int = 8,
    phases: int = 4,
    solver_iters: int = 6,
    placement: str = "first-touch",
    store: Any = None,
    jobs: int = 1,
) -> Dict[str, Any]:
    """Rank the models over hardware profile × P on one fixed scenario.

    ``profiles`` are checked against :data:`repro.machine.profiles.PROFILES`
    before any cell runs.  The scenario defaults match one cell of the
    scenario sweep, so the ``origin2000`` rankings reproduce
    ``BENCH_SCENARIOS.json``.  ``store`` / ``jobs`` are as in
    :func:`rank_sweep`; the profile is part of each cell's signature.

    Returns:
        The BENCH_PROFILES record: the :func:`rank_sweep` fields, each
        profile's description and override count, and the scenario.
    """
    from repro.machine.profiles import PROFILES, resolve_machine_profile
    from repro.serving import Cell

    profiles = [resolve_machine_profile(p).name for p in profiles]
    nprocs_list = list(nprocs_list)
    spec = _scenario(scenario_class, intensity, seed, mesh_n, phases, solver_iters)
    record = rank_sweep(
        [("machine_profile", profiles), ("nprocs", nprocs_list)],
        models,
        lambda pt, model: Cell("scenario", model, pt["nprocs"], spec, placement,
                               machine_profile=pt["machine_profile"]),
        store=store, jobs=jobs,
    )
    record.update({
        "benchmark": "profile-sweep",
        "seed": seed,
        "profiles": {
            p: {"description": PROFILES[p].description, "overrides": len(PROFILES[p].overrides)}
            for p in profiles
        },
        "profile_order": profiles,
        "nprocs_list": nprocs_list,
        "scenario": {
            "class": scenario_class,
            "intensity": intensity,
            "name": spec.name,
            "content_hash": spec.content_hash(),
            "mesh_n": mesh_n,
            "phases": phases,
            "solver_iters": solver_iters,
        },
        "placement": placement,
    })
    return record


def format_rank_sweep(record: Dict[str, Any]) -> str:
    """Human-readable table of a ranking-bench record plus its flip report."""
    axes = [(axis, record[field]) for axis, field in _RECORD_AXES[record["benchmark"]]]
    names = [axis for axis, _ in axes]
    widths = [max(len(str(v)) for v in [axis, *settings]) for axis, settings in axes]
    head = (f"{record['benchmark'].replace('-', ' ')}: {record['cells']} cells ("
            + " x ".join(f"{len(settings)} {axis}" for axis, settings in axes)
            + f"), seed {record['seed']}")
    if "scenario" in record:
        head += f", scenario {record['scenario']['name']}"
    lines = [
        head,
        " ".join(f"{axis:>{w}}" for axis, w in zip(names, widths)) + " "
        + " ".join(f"{m + ' ms':>12}" for m in record["models"]) + "   ranking",
    ]
    by_point: Dict[tuple, Dict[str, float]] = {}
    for r in record["rows"]:
        by_point.setdefault(tuple(r[axis] for axis in names), {})[r["model"]] = r["elapsed_ms"]
    for point, times in by_point.items():
        order = record["ranking"]["/".join(map(_label, names, point))]
        lines.append(
            " ".join(f"{str(v):>{w}}" for v, w in zip(point, widths)) + " "
            + " ".join(f"{times[m]:>12.3f}" for m in record["models"])
            + f"   {'>'.join(order)}"
        )
    if not record["flips"]:
        lines.append("ranking flips: none — the model ranking is stable "
                     "across this sweep")
        return "\n".join(lines)
    lines.append(f"ranking flips ({len(record['flips'])}) along "
                 f"axes: {', '.join(record['axes_with_flips'])}")
    for f in record["flips"]:
        fixed = ", ".join(f"{k}={v}" for k, v in f["fixed"].items())
        mark = "  BEST CHANGES" if f["best_changed"] else ""
        lines.append(
            f"  [{f['axis']}] {fixed}: {'>'.join(f['from_ranking'])} -> "
            f"{'>'.join(f['to_ranking'])} between {f['axis']}="
            f"{f['from_setting']} and {f['axis']}={f['to_setting']}{mark}"
        )
    if record["best_flips"]:
        lines.append(
            f"best-model flips ({len(record['best_flips'])}) along "
            f"axes: {', '.join(record['axes_with_best_flips'])}"
        )
    else:
        champion = next(iter(record["best"].values()))
        lines.append(
            f"best model never changes in this sweep ({champion} holds "
            "first place); flips are in the runner-up order"
        )
    return "\n".join(lines)
