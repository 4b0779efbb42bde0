"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``     one (app, model, P) configuration, with breakdown and views
``sweep``   app × model × P sweep with speedup table and ASCII chart
``micro``   the machine microbenchmarks (latency ladder, messaging)
``bench-faults`` per-model fault-recovery overhead (retries, goodput)
``bench-scenarios`` model × P × scenario-class ranking-flip sweep
``bench-profiles`` model × P × hardware-profile ranking-flip sweep
``scenarios`` generate / describe / list synthetic scenario specs
``profiles``  list / describe the named hardware profiles
``serve``   serve a JSON sweep spec from the result store, incrementally
``cache``   administer the on-disk result store (stats / gc / verify)
``effort``  the programming-effort (LoC) table
``describe`` the simulated machine for a given processor count
``paper``   regenerate every experiment table/figure (R-F*/R-T*)

``run --profile`` runs the simulation under :mod:`cProfile` and prints
the host time of each ``repro`` module layer after the run, with an
``(outside repro)`` remainder row; the profiled run executes the same
code.  ``run --trace [PATH]`` records structured communication events
(simulated time is bit-identical with tracing on or off) and optionally
exports them; ``--check-sync`` runs the trace-based synchronization
checker on the event stream.  The views ``--summary`` (events per kind),
``--phases`` (traffic per adaptation phase) and ``--comm-matrix [UNITS]``
(per-pair traffic) trace the run too and print after it.
``run --scenario SPEC`` runs a generated scenario (a ``*.scenario.json``
path or a scenario class name) under any model, including ``hybrid``.

Hardware profiles (see ``docs/machines.md``): ``run``, ``sweep``,
``micro``, ``describe``, and ``bench-faults`` accept ``--machine-profile
NAME`` to run on a different machine (``repro profiles list``);
``bench-profiles`` sweeps all of them.  ``run --link-stats`` additionally
collects per-link contention counters and prints the hottest links.

Serving (see ``docs/serving.md``): the sweep-shaped commands (``sweep``,
``bench-faults``, ``bench-scenarios``, ``bench-profiles``, ``serve``)
consult the content-addressed result store by default — ``--no-cache``
opts out, ``--cache-dir`` relocates it, ``-j/--jobs N`` shards uncached
cells over N worker processes.  ``run`` opts *in* with ``--serve``.

``run`` and ``serve`` build every cell through one checked resolver,
:func:`_cell`, and every sweep command checks its ``-m`` list before any
cell runs.  Flags several commands share are declared once, in
``_SHARED_FLAGS``.
"""

from __future__ import annotations

import argparse
import sys

from repro.harness import (
    ascii_chart,
    check_models,
    effort_table,
    format_table,
    run_app,
    sweep,
    write_record,
)
from repro.harness.breakdown import aggregate_breakdown, comm_stats_rows
from repro.harness.experiment import APP_MODELS
from repro.harness.tables import format_dict_table
from repro.machine import Machine, MachineConfig

_MODELS = ("mpi", "shmem", "sas")
_APPS = ("adapt", "adapt3d", "nbody", "jacobi")
_SIZES = ("small", "medium", "large")

#: hypercube depth ceiling: 128 CPUs = 32 routers = a dimension-5 cube
_MAX_NPROCS = 128


def _check_nprocs(n: int) -> int:
    """Validate a processor count before it reaches the machine model.

    The bristled hypercube is only routable at power-of-two processor
    counts (otherwise the router count is not a power of two and e-cube
    routing has missing links), and the directory/topology models are
    sized for at most 128 CPUs.  Reject bad counts (and a spec's ``2.7``
    or ``true``) here with a clear message, not a deep routing error.
    """
    if not (type(n) is int and 1 <= n <= _MAX_NPROCS and n & (n - 1) == 0):
        raise ValueError(
            f"invalid processor count {n!r}: -p/--nprocs must be a "
            f"power of two between 1 and {_MAX_NPROCS} (the bristled "
            "hypercube network is only routable at power-of-two counts)"
        )
    return n


def _check_procs_list(spec: str) -> list:
    """Parse and validate a comma-separated ``-p`` sweep list."""
    try:
        plist = [int(p) for p in spec.split(",") if p.strip()]
    except ValueError:
        raise ValueError(f"invalid processor list {spec!r}") from None
    if not plist:
        raise ValueError("empty processor list")
    return [_check_nprocs(p) for p in plist]


def _workload(app: str, size: str):
    """Small/medium/large presets per (non-scenario) application."""
    i = _SIZES.index(size)
    if app == "adapt":
        from repro.apps.adapt import AdaptConfig

        return AdaptConfig(mesh_n=(8, 16, 24)[i], phases=(3, 4, 5)[i],
                           solver_iters=(6, 10, 12)[i])
    if app == "adapt3d":
        from repro.apps.adapt3d import Adapt3DConfig

        return Adapt3DConfig(mesh_n=(2, 3, 4)[i], phases=(3, 4, 5)[i],
                             solver_iters=(4, 8, 10)[i])
    if app == "nbody":
        from repro.apps.nbody import NBodyConfig

        return NBodyConfig(n=(128, 384, 768)[i], steps=(2, 3, 3)[i])
    from repro.apps.jacobi import JacobiConfig

    return JacobiConfig(nx=(64, 128, 256)[i], ny=(64, 128, 256)[i], iters=(10, 15, 15)[i])


def _resolve_scenario(spec_arg: str):
    """A ``--scenario`` argument -> ScenarioSpec (path, else class name)."""
    import os

    from repro.workloads.synth import SCENARIO_CLASSES, generate_scenario, load_spec

    if os.path.exists(spec_arg):
        try:
            return load_spec(spec_arg)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ValueError(f"cannot load scenario spec {spec_arg!r}: {exc}") from None
    if spec_arg in SCENARIO_CLASSES:
        return generate_scenario(spec_arg)
    raise ValueError(
        f"unknown scenario {spec_arg!r}: not a spec file on disk and "
        f"not a scenario class (classes: {', '.join(sorted(SCENARIO_CLASSES))}; "
        "generate specs with `repro scenarios generate`)"
    )


def _machine_config(nprocs: int, machine_profile=None) -> MachineConfig:
    """The config a run on ``machine_profile`` gets (checks the profile)."""
    from repro.machine.profiles import resolve_machine_profile

    cfg = MachineConfig(nprocs=nprocs)
    profile = resolve_machine_profile(machine_profile)
    return cfg if profile is None else profile.apply(cfg)


def _cell(app, model, nprocs, size=None, scenario=None, faults=None,
          fault_seed=None, placement="first-touch", derived=None,
          machine_profile=None):
    """One checked configuration: a :class:`repro.serving.Cell`, or ValueError.

    ``run`` and every ``serve`` spec entry build their cells here, so a
    bad app, model, processor count, size, scenario, placement, fault
    spec or machine profile fails before anything runs.  ``size`` picks
    the app's preset workload (``None``: the app's default); the
    ``scenario`` app runs ``scenario`` (a spec path or class name)
    instead, and no other app takes one.
    """
    from repro.faults import resolve_profile
    from repro.machine.memory import MemorySystem
    from repro.serving import Cell

    check_models(app, (model,))
    _check_nprocs(nprocs)
    if size is not None and size not in _SIZES:
        raise ValueError(f"unknown size {size!r}; choose from {', '.join(_SIZES)}")
    if (app == "scenario") != (scenario is not None):
        raise ValueError(
            f"app {app!r} with scenario {scenario!r}: the 'scenario' app, and only "
            "it, runs a scenario (a *.scenario.json path or a scenario class "
            "name; see `repro scenarios list`)"
        )
    if scenario is not None:
        workload = _resolve_scenario(scenario)
    else:
        workload = None if size is None else _workload(app, size)
    # the memory system's own placement check, against the run's node count
    # (a non-string placement fails it too)
    MemorySystem(_machine_config(nprocs, machine_profile), str(placement))
    if derived is not None and not isinstance(derived, dict):
        raise ValueError(f"derived must be a dict of switches, got {derived!r}")
    if fault_seed is not None and type(fault_seed) is not int:
        raise ValueError(f"fault_seed must be an integer, got {fault_seed!r}")
    return Cell(app, model, nprocs, workload, placement,
                faults=resolve_profile(faults, seed=fault_seed) if faults else None,
                derived=derived, machine_profile=machine_profile)


def _store_from_args(args: argparse.Namespace, default_on: bool):
    """The :class:`~repro.serving.ResultStore` a command's flags ask for.

    Sweep-shaped commands serve by default (``default_on=True``, opt out
    with ``--no-cache``); host-time benches and ``run`` opt in with
    ``--serve``.  Returns ``None`` when serving is off.
    """
    if default_on:
        if getattr(args, "no_cache", False):
            return None
    elif not getattr(args, "serve", False):
        return None
    from repro.serving import ResultStore

    return ResultStore(getattr(args, "cache_dir", None))


def _print_store_report(store) -> None:
    if store is not None:
        print(f"  {store.report_line()}")


def _print_trace(args: argparse.Namespace, cell, events) -> int:
    """A traced ``run``'s output: the export, the sync check, the views.

    Returns the exit code: 1 when ``--check-sync`` finds a violation.
    """
    from repro.obs import (check_sync, comm_matrix, format_matrix, format_violations,
                           phase_breakdown, sas_home_matrix, summarize, to_jsonl,
                           write_perfetto)

    kinds = sorted({ev.kind for ev in events})
    print(f"  trace          : {len(events)} events ({', '.join(kinds)})")
    if isinstance(args.trace, str):  # .jsonl => compact JSONL, else Perfetto
        if args.trace.endswith(".jsonl"):
            to_jsonl(events, args.trace)
            print(f"  wrote {args.trace} ({len(events)} events, JSONL)")
        else:
            n = write_perfetto(events, args.trace, cell.nprocs)
            print(f"  wrote {args.trace} ({n} trace_event entries, Perfetto JSON)")
    violations = check_sync(events, cell.nprocs) if args.check_sync else []
    if args.check_sync:
        print(format_violations(violations))
    if args.summary:
        print("\n" + format_table(["kind", "count", "bytes", "dur_us"], [
            [kind, int(row["count"]), int(row["bytes"]), row["dur_ns"] / 1e3]
            for kind, row in sorted(summarize(events).items())]))
    if args.phases:
        print("\n" + format_table(["phase", "events", "bytes"], [
            [name, int(row["events"]), int(row["bytes"])]
            for name, row in sorted(phase_breakdown(events).items())],
            title="per-phase traffic"))
    rc = 1 if violations else 0
    units = args.comm_matrix
    if units is None:
        return rc
    print()
    if cell.model == "sas":
        # CC-SAS communication is the coherence traffic: rank x home-node
        # bytes pulled through the protocol (rank-to-rank flow is empty by
        # construction); the run's profile sets the node count
        cfg = _machine_config(cell.nprocs, cell.machine_profile)
        m = sas_home_matrix(events, cell.nprocs, cfg.nnodes, cfg.line_bytes)
        if units == "messages":  # one line fetch ~ one protocol message
            m = m // cfg.line_bytes
            units = "line fetches"
        print(f"  coherence fetch matrix, {units} (rank x home node):")
        print(format_matrix(m, row_label="rank", col_label="home"))
    else:
        m = comm_matrix(events, cell.nprocs, units=units)
        print(f"  flow matrix, {units} (src rank x dst rank):")
        print(format_matrix(m))
    print(f"  total: {int(m.sum())} {units}")
    return rc


def cmd_run(args: argparse.Namespace) -> int:
    app = args.app or args.app_pos
    model = args.model or args.model_pos
    if args.scenario is not None:
        # `run mpi --scenario X` puts the model in the app slot
        if model is None and app in APP_MODELS["scenario"]:
            app, model = "scenario", app
        app = app or "scenario"
    if app is None or model is None:
        raise ValueError("app and model are required (positionally or via --app/--model)")
    cell = _cell(
        app, model, args.nprocs, size=args.size, scenario=args.scenario,
        faults=args.faults, fault_seed=args.fault_seed, placement=args.placement,
        derived={"link_stats": "on"} if args.link_stats else None,
        machine_profile=args.machine_profile,
    )
    traced = any((args.trace, args.check_sync, args.summary, args.phases, args.comm_matrix))
    store = _store_from_args(args, default_on=False)
    kwargs = dict(cell.run_kwargs(), trace=traced, store=store)
    if args.profile:
        from repro.sim.profile import PROFILER

        PROFILER.reset().enable()
    try:
        result = run_app(**kwargs)
    finally:
        if args.profile:
            PROFILER.disable()
    agg = aggregate_breakdown(result)
    what = (f"scenario {cell.workload.name}" if app == "scenario"
            else f"{args.size} workload")
    if args.machine_profile:
        what += f", profile {args.machine_profile}"
    print(f"{app} under {model} on {args.nprocs} CPUs ({what})")
    print(f"  simulated time : {result.elapsed_ms:.3f} ms")
    print(f"  checksum       : {result.rank_results[0]}")
    print(
        f"  breakdown      : compute {agg['compute_pct']:.1f}%  comm {agg['comm_pct']:.1f}%"
        f"  sync {agg['sync_pct']:.1f}%  stall {agg['stall_pct']:.1f}%"
    )
    stats = comm_stats_rows(result)
    print(
        f"  traffic        : {stats['messages']} msgs / {stats['puts']} puts /"
        f" {stats['remote_misses'] + stats['dirty_misses']} coherence misses"
    )
    if result.fault_summary is not None:
        c = result.fault_summary["counters"]
        print(
            f"  faults         : profile {result.fault_summary['profile']} "
            f"(seed {result.fault_summary['seed']}) — {c['drop']} drops / "
            f"{c['dup']} dups / {c['delay']} delays / {c['nack']} nacks, "
            f"{result.fault_summary['total_retries']} recoveries"
        )
    rc = _print_trace(args, cell, result.events or []) if traced else 0
    if args.link_stats:
        from repro.obs import format_link_contention

        print("\nper-link contention (hottest first):")
        print(format_link_contention(result.stats.links))
    if args.profile:
        print("\n" + PROFILER.report())
    _print_store_report(store)
    return rc


def _finish_bench(args: argparse.Namespace, store, record, text: str, error) -> int:
    """The bench commands' shared tail: print, write, then the gates.

    ``error`` is the command's own gate failure (``None`` when it
    passes); the ``--min-hit-rate`` serving floor is checked after it.
    """
    print(text)
    _print_store_report(store)
    print(f"  wrote {write_record(record, args.output)}")
    floor = args.min_hit_rate
    if not error and store is not None and 0 < floor and store.hit_rate < floor:
        error = (f"store hit rate {100 * store.hit_rate:.0f}% below the required "
                 f"{100 * floor:.0f}% ({store.hits}/{store.lookups} lookups served)")
    if error:
        print(f"ERROR: {error}", file=sys.stderr)
        return 1
    return 0


def cmd_bench_faults(args: argparse.Namespace) -> int:
    from repro.harness import format_fault_bench, run_fault_bench

    profile, models = args.profile, args.models
    if args.correlated:
        # correlated mode defaults to the burst preset and adds hybrid
        if profile == "lossy":
            profile = "bursty-links"
        if models == ",".join(_MODELS):
            models += ",hybrid"
    models = check_models(args.app, models.split(","))
    store = _store_from_args(args, default_on=True)
    record = run_fault_bench(
        app=args.app,
        models=models,
        nprocs_list=_check_procs_list(args.procs),
        profile=profile,
        seed=args.seed,
        workload=_workload(args.app, args.size),
        verify=not args.no_verify,
        store=store,
        jobs=args.jobs,
        machine_profile=args.machine_profile,
        correlated=args.correlated,
    )
    lacking = [
        f"{r['model']} P={r['nprocs']}"
        for r in record["rows"]
        if r["nprocs"] > 1 and r["retries"] == 0
    ]
    best = record.get("correlated", {}).get("best_recovered_pct", 0.0)
    error = None
    if args.require_retries and lacking:
        error = f"no recoveries exercised for: {', '.join(lacking)}"
    elif args.require_recovery > 0 and best < args.require_recovery:
        error = (f"best fault-aware recovery {best:.1f}% below the "
                 f"required {args.require_recovery:.1f}%")
    return _finish_bench(args, store, record, format_fault_bench(record), error)


def _parse_knobs(pairs) -> dict:
    """``["intensity=0.8", ...]`` -> ``{"intensity": 0.8, ...}``."""
    knobs = {}
    for pair in pairs:
        name, eq, value = pair.partition("=")
        if not eq:
            raise SystemExit(f"error: knob {pair!r} is not NAME=VALUE")
        try:
            knobs[name.strip()] = float(value)
        except ValueError:
            raise SystemExit(f"error: knob {pair!r} has a non-numeric value") from None
    return knobs


def cmd_scenarios_generate(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.workloads.synth import generate_scenario, insights_path, write_insights

    spec = generate_scenario(
        args.scenario_class,
        seed=args.seed,
        name=args.name,
        mesh_n=args.mesh_n,
        phases=args.phases,
        solver_iters=args.solver_iters,
        **_parse_knobs(args.knob),
    )
    spec_path = spec.save(Path(args.out_dir) / spec.default_filename())
    print(f"wrote {spec_path} (class {spec.scenario_class}, seed {spec.seed}, "
          f"hash {spec.content_hash()[:12]})")
    if not args.no_insights:
        ipath = write_insights(spec, insights_path(spec_path), nprocs=args.nprocs)
        print(f"wrote {ipath} (characterised at P={args.nprocs})")
    print(f"run it: python -m repro run mpi --scenario {spec_path}")
    return 0


def cmd_scenarios_describe(args: argparse.Namespace) -> int:
    from repro.workloads.synth import characterise

    _check_nprocs(args.nprocs)
    spec = _resolve_scenario(args.spec)
    ins = characterise(spec, args.nprocs)
    print(f"scenario {spec.name} (class {spec.scenario_class}, seed {spec.seed}, "
          f"v{spec.version}, hash {ins['spec']['content_hash'][:12]})")
    print(f"  mesh_n {spec.mesh_n}, {len(spec.schedule)} phases, "
          f"{spec.solver_iters} solver iters; knobs: "
          + ", ".join(f"{k}={v:g}" for k, v in spec.knob_dict.items()))
    print(f"  characterised at P={args.nprocs}:")
    print(f"    final elements   : {ins['final_elements']}")
    print(f"    comm volume      : {ins['comm_volume_bytes']:,} B "
          f"(halo {ins['halo_bytes']:,} B, migration {ins['migration_bytes']:,} B)")
    print(f"    adaptation rate  : {ins['adaptation_rate']:.3f} "
          f"(migration fraction {ins['migration_fraction']:.3f})")
    print(f"    peak imbalance   : {ins['peak_imbalance']:.3f}")
    rows = [
        [p["phase"], p["nels"], p["refined_families"], p["coarsened_families"],
         p["migrated_elements"], f"{p['imbalance_before']:.2f}",
         f"{p['imbalance_after']:.2f}"]
        for p in ins["per_phase"]
    ]
    print(format_table(
        ["phase", "elements", "refined", "coarsened", "migrated", "imb_pre", "imb_post"],
        rows,
    ))
    return 0


def cmd_scenarios_list(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.workloads.synth import SCENARIO_CLASSES, SPEC_SUFFIX, load_spec

    print("scenario classes (use with `repro scenarios generate`):")
    for cls, (_, defaults) in sorted(SCENARIO_CLASSES.items()):
        knobs = ", ".join(f"{k}={v:g}" for k, v in sorted(defaults.items()))
        print(f"  {cls:<18} knobs: {knobs}")
    found = sorted(Path(args.dir).rglob(f"*{SPEC_SUFFIX}"))
    if found:
        print(f"specs under {args.dir}:")
        for path in found:
            try:
                spec = load_spec(path)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                print(f"  {path}  [unreadable: {exc}]")
                continue
            print(f"  {path}  class {spec.scenario_class}, seed {spec.seed}, "
                  f"hash {spec.content_hash()[:12]}")
    else:
        print(f"no *{SPEC_SUFFIX} specs under {args.dir}")
    return 0


def cmd_bench_scenarios(args: argparse.Namespace) -> int:
    from repro.harness import format_rank_sweep, run_scenario_bench

    try:
        intensities = [float(x) for x in args.intensities.split(",") if x.strip()]
    except ValueError:
        raise SystemExit(
            f"error: invalid intensity list {args.intensities!r}"
        ) from None
    models = check_models("scenario", args.models.split(","))
    store = _store_from_args(args, default_on=True)
    record = run_scenario_bench(
        classes=tuple(args.classes.split(",")),
        models=models,
        nprocs_list=_check_procs_list(args.procs),
        intensities=intensities,
        seed=args.seed,
        mesh_n=args.mesh_n,
        phases=args.phases,
        solver_iters=args.solver_iters,
        placement=args.placement,
        include_insights=not args.no_insights,
        store=store,
        jobs=args.jobs,
    )
    error = None
    if args.require_report and not record["flips"]:
        error = ("the sweep found no ranking flips — the flip report is "
                 "empty (widen the P or intensity range)")
    return _finish_bench(args, store, record, format_rank_sweep(record), error)


def cmd_bench_profiles(args: argparse.Namespace) -> int:
    from repro.harness import format_rank_sweep, run_profile_bench

    models = check_models("scenario", args.models.split(","))
    store = _store_from_args(args, default_on=True)
    record = run_profile_bench(
        profiles=tuple(args.profiles.split(",")),
        models=models,
        nprocs_list=_check_procs_list(args.procs),
        scenario_class=args.scenario_class,
        intensity=args.intensity,
        seed=args.seed,
        mesh_n=args.mesh_n,
        phases=args.phases,
        solver_iters=args.solver_iters,
        placement=args.placement,
        store=store,
        jobs=args.jobs,
    )
    error = None
    if args.require_flip and not record["best_flips"]:
        error = ("no hardware profile changed the best model — the "
                 "cross-hardware flip report is empty (add profiles or widen P)")
    return _finish_bench(args, store, record, format_rank_sweep(record), error)


def cmd_profiles_list(args: argparse.Namespace) -> int:
    from repro.machine.profiles import PROFILES

    print("hardware profiles (use with --machine-profile / bench-profiles):")
    for name, prof in sorted(PROFILES.items()):
        print(f"  {name:<18} {len(prof.overrides):>2} overrides  {prof.description}")
    return 0


def cmd_profiles_describe(args: argparse.Namespace) -> int:
    from repro.machine.profiles import resolve_machine_profile

    print(resolve_machine_profile(args.name).describe())
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    wl = _workload(args.app, args.size)
    plist = _check_procs_list(args.procs)
    models = check_models(args.app, args.models.split(","))
    store = _store_from_args(args, default_on=True)
    rows = sweep(
        args.app, models=models, nprocs_list=plist, workload=wl,
        store=store, jobs=args.jobs, machine_profile=args.machine_profile,
    )
    title = f"{args.app} ({args.size}) sweep"
    if args.machine_profile:
        title += f" on {args.machine_profile}"
    print(
        format_table(
            ["model", "P", "time_ms", "speedup", "efficiency"],
            [[r.model, r.nprocs, r.elapsed_ms, r.speedup, r.efficiency] for r in rows],
            title=title,
        )
    )
    series: dict = {}
    for r in rows:
        series.setdefault(r.model, []).append((r.nprocs, r.speedup))
    print()
    print(ascii_chart(series, title="speedup", xlabel="processors", ylabel="speedup"))
    _print_store_report(store)
    return 0


def cmd_micro(args: argparse.Namespace) -> int:
    _check_nprocs(args.nprocs)
    machine = Machine(MachineConfig(nprocs=args.nprocs),
                      profile=args.machine_profile)
    d = machine.directory
    # use lines in distinct pages so first-touch homes them independently
    lines = [0, 200, 400, 600]
    d.transaction(0, lines[0], False, 0.0)
    hit, _ = d.transaction(0, lines[0], False, 0.0)
    local, _ = d.transaction(0, lines[1], False, 0.0)
    far_cpu = args.nprocs - 1
    d.transaction(far_cpu, lines[2], False, 0.0)
    remote, _ = d.transaction(0, lines[2], False, 1e6)
    d.transaction(far_cpu, lines[3], True, 0.0)
    dirty, _ = d.transaction(0, lines[3], False, 2e6)
    print(
        format_table(
            ["access", "latency_ns"],
            [["L2 hit", hit], ["local miss", local], ["remote miss", remote], ["dirty miss", dirty]],
            title=machine.describe(),
        )
    )
    return 0


def cmd_effort(args: argparse.Namespace) -> int:
    print(
        format_dict_table(
            effort_table(),
            keys=["app", "mpi", "shmem", "sas"],
            title="programming effort (logical LoC)",
        )
    )
    return 0


def cmd_paper(args: argparse.Namespace) -> int:
    """Run the full benchmark suite, writing benchmarks/results/*.txt."""
    import subprocess
    from pathlib import Path

    bench_dir = Path(__file__).resolve().parent.parent.parent / "benchmarks"
    if not bench_dir.exists():
        print("benchmarks/ directory not found (installed without the repo?)")
        return 1
    cmd = [sys.executable, "-m", "pytest", str(bench_dir), "--benchmark-disable", "-q"]
    print("+", " ".join(cmd))
    rc = subprocess.call(cmd)
    results = bench_dir / "results"
    if results.exists():
        print("\nexperiment outputs:")
        for f in sorted(results.glob("*.txt")):
            print(f"  {f}")
    return rc


#: the fields a ``serve`` spec entry takes: ``run``'s options, with a
#: ``models`` list and a list of ``nprocs`` as sweep axes
_SPEC_FIELDS = ("app", "model", "models", "nprocs", "size", "scenario",
                "placement", "faults", "fault_seed", "derived", "machine_profile")


def _spec_cells(entry) -> list:
    """One ``serve`` spec entry's cells, P-major and model-minor."""
    if not isinstance(entry, dict) or "app" not in entry:
        raise ValueError("needs at least an 'app'")
    unknown = sorted(set(entry) - set(_SPEC_FIELDS))
    if unknown:
        raise ValueError(f"unknown field(s) {', '.join(map(repr, unknown))}; "
                         f"a cell takes {', '.join(_SPEC_FIELDS)}")
    fields = dict(entry)
    model = fields.pop("model", "mpi")
    models = fields.pop("models", None) or [model]
    procs = fields.pop("nprocs", 8)
    if not isinstance(models, list):
        raise ValueError(f"'models' must be a list, got {models!r}")
    return [_cell(model=m, nprocs=n, **fields)
            for n in (procs if isinstance(procs, list) else [procs])
            for m in models]


def _serve_cells_from_spec(path: str) -> list:
    """Parse a ``serve`` spec file into scheduler cells, in file order.

    The file is a JSON list of cell entries (or ``{"cells": [...]}``);
    each entry names at least an ``app`` and takes only the
    :data:`_SPEC_FIELDS`.  Every cell is built through :func:`_cell`
    before any runs, so a bad entry fails the whole spec instead of
    running the valid cells first.
    """
    import json as _json

    try:
        with open(path) as fh:
            doc = _json.load(fh)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"error: cannot read serve spec {path!r}: {exc}") from None
    entries = doc.get("cells") if isinstance(doc, dict) else doc
    if not isinstance(entries, list) or not entries:
        raise SystemExit(
            f"error: serve spec {path!r} must be a JSON list of cells or "
            '{"cells": [...]} (see docs/serving.md)'
        )
    cells = []
    for i, entry in enumerate(entries):
        try:
            cells += _spec_cells(entry)
        except (ValueError, TypeError) as exc:  # TypeError: a value of the wrong type
            raise SystemExit(f"error: serve spec cell #{i}: {exc}") from None
    return cells


def cmd_serve(args: argparse.Namespace) -> int:
    """Serve a batch sweep spec incrementally from the result store."""
    import json as _json

    from repro.serving import ResultStore, plan, refresh

    cells = _serve_cells_from_spec(args.spec)
    store = ResultStore(args.cache_dir)
    ahead = plan(cells, store)
    results, report = refresh(
        cells, store, jobs=args.jobs, timeout=args.timeout,
        gc_stale=args.gc_stale,
    )
    rows = [
        {
            "cell": r.cell.label(),
            "identity": r.cell.identity(),
            "source": r.source,
            "elapsed_ms": r.summary.elapsed_ms if r.summary else None,
            "error": r.error,
        }
        for r in results
    ]
    if args.json:
        print(_json.dumps(
            {"plan": ahead.counts(), "report": report, "rows": rows},
            indent=2, sort_keys=True,
        ))
    else:
        print(f"serve: {report['cells']} cells from {args.spec} "
              f"(planned: {len(ahead.hits)} cached, {len(ahead.misses)} to compute)")
        for row in rows:
            outcome = (f"{row['elapsed_ms']:.3f} ms" if row["elapsed_ms"] is not None
                       else row["error"])
            print(f"  {row['cell']:<24} [{row['source']:>8}] {outcome}")
        print(f"  hits {report['hits']} / misses {report['misses']} / "
              f"invalidated {report['invalidated']} "
              f"(stale removed: {report['stale_removed']})")
        print(f"  {store.report_line()}")
    return 1 if report["errors"] else 0


def cmd_cache_stats(args: argparse.Namespace) -> int:
    from repro.serving import ResultStore

    st = ResultStore(args.cache_dir).stats()
    print(f"result store at {st['root']}: {st['entries']} entries, "
          f"{st['bytes'] / 1024:.1f} KiB ({st['unreadable']} unreadable)")
    for app, count in sorted(st["by_app"].items()):
        print(f"  app {app:<16} {count} entries")
    for eng, count in sorted(st["by_engine"].items()):
        print(f"  engine {eng:<13} {count} entries")
    for prof, count in sorted(st["by_profile"].items()):
        print(f"  profile {prof:<12} {count} entries")
    if st["superseded_files"]:
        print(f"  older layouts: {st['superseded_files']} files, "
              f"{st['superseded_bytes'] / 1024:.1f} KiB (cache gc --outdated "
              f"removes them)")
    return 0


def cmd_cache_verify(args: argparse.Namespace) -> int:
    from repro.serving import ResultStore

    store = ResultStore(args.cache_dir)
    entries, problems = store.verify()
    if problems:
        print(f"result store at {store.root}: {len(problems)} problem(s)")
        for problem in problems:
            print(f"  {problem}")
        return 1
    print(f"result store at {store.root}: all {entries} entries verify")
    return 0


def cmd_cache_gc(args: argparse.Namespace) -> int:
    from repro.serving import ResultStore

    if not (args.older_than or args.outdated or args.all or args.corrupt):
        raise SystemExit(
            "error: cache gc needs a criterion: --older-than DAYS, "
            "--outdated, --corrupt, or --all"
        )
    store = ResultStore(args.cache_dir)
    removed = store.gc(
        older_than_days=args.older_than,
        outdated=args.outdated,
        everything=args.all,
        corrupt=args.corrupt,
    )
    print(f"removed {removed} entries from {store.root}")
    return 0


def cmd_describe(args: argparse.Namespace) -> int:
    _check_nprocs(args.nprocs)
    machine = Machine(MachineConfig(nprocs=args.nprocs),
                      profile=args.machine_profile)
    print(machine.describe())
    cfg = machine.config
    print(f"  clock {cfg.clock_mhz:.0f} MHz, L2 {cfg.l2_bytes // 1024} KiB, "
          f"{cfg.line_bytes} B lines, {cfg.page_bytes // 1024} KiB pages")
    print(f"  local {cfg.local_mem_ns:.0f} ns, +{cfg.remote_hop_ns:.0f} ns/hop, "
          f"link {cfg.link_bandwidth_bpns * 1000:.0f} MB/s")
    print(f"  MPI o_s/o_r {cfg.mpi_os_ns / 1000:.0f}/{cfg.mpi_or_ns / 1000:.0f} µs, "
          f"SHMEM op {cfg.shmem_op_ns / 1000:.1f} µs")
    return 0


#: flags several commands share, declared once: name -> (option strings,
#: ``add_argument`` keywords); a command overrides a default with
#: ``set_defaults``
_SHARED_FLAGS = {
    "procs": (("-p", "--procs"), {
        "help": "comma-separated processor counts (powers of two)"}),
    "models": (("-m", "--models"), {
        "default": ",".join(_MODELS), "help": "comma-separated programming models"}),
    "size": (("-s", "--size"), {
        "choices": _SIZES, "default": "small"}),
    "seed": (("--seed",), {
        "type": int, "default": None,
        "help": "scenario generator seed (bench-faults: overrides the "
                "fault profile's seed)"}),
    "mesh_n": (("--mesh-n",), {"type": int, "default": 8}),
    "phases": (("--phases",), {"type": int, "default": 4}),
    "solver_iters": (("--solver-iters",), {"type": int, "default": 6}),
    "placement": (("--placement",), {"default": "first-touch"}),
    "machine_profile": (("--machine-profile",), {
        "default": None, "metavar": "NAME",
        "help": "run on a named hardware profile "
                "(see `repro profiles list`; default: Origin2000)"}),
    "output": (("-o", "--output"), {
        "default": None, "metavar": "PATH",
        "help": "record path (default: the command's BENCH_*.json)"}),
    "min_hit_rate": (("--min-hit-rate",), {
        "type": float, "default": 0.0, "metavar": "RATE",
        "help": "fail when the store hit rate is below RATE (warm-cache CI gate)"}),
    "cache_dir": (("--cache-dir",), {
        "default": None, "metavar": "DIR",
        "help": "result-store root (default: $REPRO_CACHE_DIR or ./.repro-cache)"}),
    "no_cache": (("--no-cache",), {
        "action": "store_true",
        "help": "bypass the result store: compute every cell live"}),
    "serve": (("--serve",), {
        "action": "store_true",
        "help": "consult the content-addressed result store"}),
    "jobs": (("-j", "--jobs"), {
        "type": int, "default": 1,
        "help": "shard uncached cells over N worker processes"}),
}

#: the flags of every sweep-shaped command, and of every bench record
_SWEEP_FLAGS = ("procs", "models", "cache_dir", "no_cache", "jobs")
_BENCH_FLAGS = _SWEEP_FLAGS + ("output", "min_hit_rate")
_SCENARIO_FLAGS = ("seed", "mesh_n", "phases", "solver_iters")


def _flags(*names: str) -> argparse.ArgumentParser:
    """A parent parser declaring the named :data:`_SHARED_FLAGS`.

    Built fresh for each command, so one command's ``set_defaults``
    never reaches another command's copy of a flag.
    """
    parent = argparse.ArgumentParser(add_help=False)
    for name in names:
        opts, kwargs = _SHARED_FLAGS[name]
        parent.add_argument(*opts, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    """The full ``repro`` argument parser.

    Exposed separately from :func:`main` so tooling (``tools/
    check_docs.py``) can introspect the real subcommands and option
    strings and fail on stale CLI invocations in the docs.
    """
    from repro.harness.rankings import DEFAULT_CLASSES, DEFAULT_PROFILES

    parser = argparse.ArgumentParser(
        prog="repro", description="Origin2000 three-programming-models reproduction"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one configuration", parents=[_flags(
        "size", "placement", "machine_profile", "cache_dir", "serve")])
    # free-form app/model: _cell checks them (the app slot must also take
    # a model name when --scenario names the app)
    p.add_argument("app_pos", nargs="?", metavar="app",
                   help=f"application: {', '.join(APP_MODELS)} (or use --app)")
    p.add_argument("model_pos", nargs="?", metavar="model",
                   help=f"programming model: {', '.join(APP_MODELS['scenario'])} "
                        "(or use --model)")
    p.add_argument("--app", help=argparse.SUPPRESS)
    p.add_argument("--model", help=argparse.SUPPRESS)
    p.add_argument("-n", "-p", "--nprocs", type=int, default=8)
    p.add_argument("--scenario", default=None, metavar="SPEC",
                   help="run a generated scenario: a *.scenario.json path or a "
                        "scenario class name (implies app 'scenario')")
    p.add_argument("--profile", action="store_true",
                   help="profile host time with cProfile and print it per module layer")
    p.add_argument("--trace", nargs="?", const=True, default=None, metavar="PATH",
                   help="record communication events; with PATH, export them "
                        "(.jsonl => JSONL, otherwise Perfetto trace_event JSON)")
    p.add_argument("--check-sync", action="store_true",
                   help="run the trace-based synchronization checker")
    p.add_argument("--faults", default=None, metavar="PROFILE",
                   help="inject faults using a named profile "
                        "(drizzle, lossy, stress, nacky, flaky-links, "
                        "bursty-links, bursty-router, bursty-dir) or a "
                        "'gilbert:p=...,r=...,domains=link:cube:1+router:0' "
                        "spec for correlated bursts; add ',aware=1' to feed "
                        "the expected fault cost into PLUM's repartitioner")
    p.add_argument("--fault-seed", type=int, default=None,
                   help="override the fault profile's seed")
    p.add_argument("--link-stats", action="store_true",
                   help="collect per-link contention counters and print the "
                        "hottest links (simulated time is unchanged)")
    p.add_argument("--summary", action="store_true",
                   help="trace the run and print its events per kind")
    p.add_argument("--phases", action="store_true",
                   help="trace the run and print its per-adaptation-phase traffic")
    p.add_argument("--comm-matrix", nargs="?", const="bytes", default=None,
                   choices=("bytes", "messages"), metavar="UNITS",
                   help="trace the run and print its per-pair traffic in UNITS "
                        "(default bytes): rank x rank, or rank x home node under sas")
    p.set_defaults(fn=cmd_run, size="medium")

    p = sub.add_parser("sweep", help="app x model x P sweep", parents=[_flags(
        *_SWEEP_FLAGS, "size", "machine_profile")])
    p.add_argument("app", choices=_APPS)
    p.set_defaults(fn=cmd_sweep, procs="1,2,4,8")

    p = sub.add_parser("micro", help="machine latency microbenchmarks",
                       parents=[_flags("machine_profile")])
    p.add_argument("-n", "--nprocs", type=int, default=16)
    p.set_defaults(fn=cmd_micro)

    p = sub.add_parser("bench-faults",
                       help="per-model fault-recovery overhead benchmark",
                       parents=[_flags(*_BENCH_FLAGS, "size", "seed", "machine_profile")])
    p.add_argument("--app", choices=_APPS, default="adapt")
    p.add_argument("--profile", default="lossy",
                   help="fault profile (drizzle, lossy, stress, nacky, "
                        "flaky-links, bursty-links, bursty-router, bursty-dir, "
                        "or a gilbert:k=v,... spec)")
    p.add_argument("--correlated", action="store_true",
                   help="three-arm correlated-burst comparison: fault-free, "
                        "fault-blind, and fault-aware PLUM (defaults the "
                        "profile to bursty-links and adds hybrid to -m)")
    p.add_argument("--no-verify", action="store_true",
                   help="skip the determinism double-run of each faulted config")
    p.add_argument("--require-retries", action="store_true",
                   help="fail unless every model at P>1 exercised recovery (CI)")
    p.add_argument("--require-recovery", type=float, default=0.0, metavar="PCT",
                   help="with --correlated: fail unless some (model, P) cell "
                        "recovers at least PCT%% of the fault-blind penalty (CI)")
    p.set_defaults(fn=cmd_bench_faults, procs="1,4,8")

    p = sub.add_parser("bench-scenarios",
                       help="model x P x scenario-class ranking-flip sweep",
                       parents=[_flags(*_BENCH_FLAGS, *_SCENARIO_FLAGS, "placement")])
    p.add_argument("--classes", default=",".join(DEFAULT_CLASSES),
                   help="comma-separated scenario classes")
    p.add_argument("--intensities", default="0.2,1.0",
                   help="comma-separated intensity knob settings (a sweep axis)")
    p.add_argument("--no-insights", action="store_true",
                   help="skip the per-spec trajectory characterisation")
    p.add_argument("--require-report", action="store_true",
                   help="fail unless the sweep finds ranking flips (CI)")
    p.set_defaults(fn=cmd_bench_scenarios, procs="2,8,32", seed=7)

    p = sub.add_parser("bench-profiles",
                       help="model x P x hardware-profile ranking-flip sweep",
                       parents=[_flags(*_BENCH_FLAGS, *_SCENARIO_FLAGS, "placement")])
    p.add_argument("--profiles", default=",".join(DEFAULT_PROFILES),
                   help="comma-separated hardware profile names (`repro profiles list`)")
    p.add_argument("--scenario-class", default="multi_front",
                   help="the fixed scenario workload's class")
    p.add_argument("--intensity", type=float, default=1.0)
    p.add_argument("--require-flip", action="store_true",
                   help="fail unless some profile changes the best model (CI)")
    p.set_defaults(fn=cmd_bench_profiles, procs="2,8,32", seed=7)

    p = sub.add_parser("profiles",
                       help="list / describe the named hardware profiles")
    psub = p.add_subparsers(dest="profiles_command", required=True)

    q = psub.add_parser("list", help="list the registered hardware profiles")
    q.set_defaults(fn=cmd_profiles_list)

    q = psub.add_parser("describe",
                        help="one profile's overrides vs the Origin2000 defaults")
    q.add_argument("name", metavar="NAME",
                   help="profile name (see `repro profiles list`)")
    q.set_defaults(fn=cmd_profiles_describe)

    p = sub.add_parser("scenarios",
                       help="generate / describe / list synthetic scenario specs")
    ssub = p.add_subparsers(dest="scenarios_command", required=True)

    g = ssub.add_parser("generate", help="generate a scenario spec on disk",
                        parents=[_flags(*_SCENARIO_FLAGS)])
    g.add_argument("scenario_class", metavar="class",
                   help="scenario class (see `repro scenarios list`)")
    g.add_argument("--name", default=None,
                   help="spec name (default: class-seed-knobs slug)")
    g.add_argument("-k", "--knob", action="append", default=[], metavar="NAME=VALUE",
                   help="set a class knob, e.g. -k intensity=0.8 (repeatable)")
    g.add_argument("-o", "--out-dir", default="scenarios",
                   help="directory for the spec (and insights) files")
    g.add_argument("-n", "--nprocs", type=int, default=8,
                   help="processor count for the insights characterisation")
    g.add_argument("--no-insights", action="store_true",
                   help="skip writing the sibling *.insights.json")
    g.set_defaults(fn=cmd_scenarios_generate, seed=0, phases=5)

    d = ssub.add_parser("describe",
                        help="characterise a spec: knobs, schedule, trajectory")
    d.add_argument("spec", metavar="SPEC",
                   help="path to a *.scenario.json or a scenario class name")
    d.add_argument("-n", "--nprocs", type=int, default=8)
    d.set_defaults(fn=cmd_scenarios_describe)

    l = ssub.add_parser("list", help="list scenario classes and on-disk specs")
    l.add_argument("--dir", default=".",
                   help="directory searched (recursively) for *.scenario.json")
    l.set_defaults(fn=cmd_scenarios_list)

    p = sub.add_parser("serve",
                       help="serve a JSON sweep spec from the result store",
                       parents=[_flags("cache_dir", "jobs")])
    p.add_argument("spec", metavar="SPEC.json",
                   help="JSON list of cells (or {\"cells\": [...]}); each cell "
                        "takes run's fields: app, model(s), nprocs, size/scenario, "
                        "placement, faults, fault_seed, derived, machine_profile")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-cell deadline in seconds (pool mode only)")
    p.add_argument("--gc-stale", action="store_true",
                   help="also delete store entries this sweep invalidated "
                        "(same cell identity, superseded content)")
    p.add_argument("--json", action="store_true",
                   help="emit the plan/report/rows as JSON instead of text")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser("cache",
                       help="administer the on-disk result store")
    csub = p.add_subparsers(dest="cache_command", required=True)

    c = csub.add_parser("stats", help="store inventory: entries, bytes, apps",
                        parents=[_flags("cache_dir")])
    c.set_defaults(fn=cmd_cache_stats)

    c = csub.add_parser("verify",
                        help="re-derive every entry's key from its signature "
                             "and check the identity index",
                        parents=[_flags("cache_dir")])
    c.set_defaults(fn=cmd_cache_verify)

    c = csub.add_parser("gc", help="remove store entries by age/version/state "
                                   "and re-file the identity index",
                        parents=[_flags("cache_dir")])
    c.add_argument("--older-than", type=float, default=None, metavar="DAYS",
                   help="drop entries older than this many days")
    c.add_argument("--outdated", action="store_true",
                   help="drop entries from other engine versions and the "
                        "trees of older store layouts (never hit)")
    c.add_argument("--corrupt", action="store_true",
                   help="drop unreadable, damaged or mis-keyed entries")
    c.add_argument("--all", action="store_true", help="drop every entry")
    c.set_defaults(fn=cmd_cache_gc)

    p = sub.add_parser("effort", help="programming-effort (LoC) table")
    p.set_defaults(fn=cmd_effort)

    p = sub.add_parser("describe", help="describe the simulated machine",
                       parents=[_flags("machine_profile")])
    p.add_argument("-n", "--nprocs", type=int, default=8)
    p.set_defaults(fn=cmd_describe)

    p = sub.add_parser("paper", help="regenerate every experiment (R-F*/R-T*)")
    p.set_defaults(fn=cmd_paper)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        # harness/generator errors (unknown app, model, class, knob) carry
        # their own choose-from lists; surface them without a traceback
        raise SystemExit(f"error: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
