"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``run``     one (app, model, P) configuration, with breakdown
``trace``   traced run: event summary, trace export, optional sync check
``comm-matrix`` per-pair communication matrices across the models
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

``run --profile`` enables the wall-clock profiler and prints a host-time
breakdown by simulator subsystem after the run.  ``run --trace [PATH]``
records structured communication events (simulated time is bit-identical
with tracing on or off) and optionally exports them; ``--check-sync``
runs the trace-based synchronization checker on the event stream.
``run --scenario SPEC`` runs a generated scenario (a ``*.scenario.json``
path or a scenario class name) under any model, including ``hybrid``.

Hardware profiles (see ``docs/machines.md``): ``run``, ``sweep``,
``micro``, ``describe``, and ``bench-faults`` accept ``--machine-profile
NAME`` to run on a different machine (``repro profiles list``);
``bench-profiles`` sweeps all of them.  ``run --link-stats`` additionally
collects per-link contention counters and prints the hottest links.

Serving (see ``docs/serving.md``): the sweep-shaped commands (``sweep``,
``bench-faults``, ``bench-scenarios``, ``serve``) consult the
content-addressed result store by default — ``--no-cache`` opts out,
``--cache-dir`` relocates it, ``-j/--jobs N`` shards uncached cells over
N worker processes.  ``run`` opts *in* with ``--serve``.
"""

from __future__ import annotations

import argparse
import sys

from repro.harness import ascii_chart, effort_table, format_table, run_app, sweep
from repro.harness.breakdown import aggregate_breakdown, comm_stats_rows
from repro.harness.tables import format_dict_table
from repro.machine import Machine, MachineConfig

_MODELS = ("mpi", "shmem", "sas")
_ALL_MODELS = ("mpi", "shmem", "sas", "hybrid")
_APPS = ("adapt", "adapt3d", "nbody", "jacobi")
_DEFAULT_CLASSES = "multi_front,refinement_storm,imbalance_wave,hotspot_drift"

#: hypercube depth ceiling: 128 CPUs = 32 routers = a dimension-5 cube
_MAX_NPROCS = 128


def _check_nprocs(n: int) -> int:
    """Validate a CLI processor count before it reaches the machine model.

    The bristled hypercube is only routable at power-of-two processor
    counts (otherwise the router count is not a power of two and e-cube
    routing has missing links), and the directory/topology models are
    sized for at most 128 CPUs.  Reject bad counts here with a clear
    message instead of a deep routing error.
    """
    if n < 1 or n > _MAX_NPROCS or (n & (n - 1)) != 0:
        raise SystemExit(
            f"error: invalid processor count {n}: -p/--nprocs must be a "
            f"power of two between 1 and {_MAX_NPROCS} (the bristled "
            "hypercube network is only routable at power-of-two counts)"
        )
    return n


def _check_procs_list(spec: str) -> list:
    """Parse and validate a comma-separated ``-p`` sweep list."""
    try:
        plist = [int(p) for p in spec.split(",") if p.strip()]
    except ValueError:
        raise SystemExit(f"error: invalid processor list {spec!r}")
    if not plist:
        raise SystemExit("error: empty processor list")
    return [_check_nprocs(p) for p in plist]


def _workload(app: str, size: str):
    """Small/medium/large presets per application."""
    if app == "adapt":
        from repro.apps.adapt import AdaptConfig

        return {
            "small": AdaptConfig(mesh_n=8, phases=3, solver_iters=6),
            "medium": AdaptConfig(mesh_n=16, phases=4, solver_iters=10),
            "large": AdaptConfig(mesh_n=24, phases=5, solver_iters=12),
        }[size]
    if app == "adapt3d":
        from repro.apps.adapt3d import Adapt3DConfig

        return {
            "small": Adapt3DConfig(mesh_n=2, phases=3, solver_iters=4),
            "medium": Adapt3DConfig(mesh_n=3, phases=4, solver_iters=8),
            "large": Adapt3DConfig(mesh_n=4, phases=5, solver_iters=10),
        }[size]
    if app == "nbody":
        from repro.apps.nbody import NBodyConfig

        return {
            "small": NBodyConfig(n=128, steps=2),
            "medium": NBodyConfig(n=384, steps=3),
            "large": NBodyConfig(n=768, steps=3),
        }[size]
    from repro.apps.jacobi import JacobiConfig

    return {
        "small": JacobiConfig(nx=64, ny=64, iters=10),
        "medium": JacobiConfig(nx=128, ny=128, iters=15),
        "large": JacobiConfig(nx=256, ny=256, iters=15),
    }[size]


def _resolve_app_model(args: argparse.Namespace) -> tuple:
    """Accept app/model positionally or as ``--app``/``--model`` flags."""
    app = args.app or getattr(args, "app_pos", None)
    model = args.model or getattr(args, "model_pos", None)
    if app is None:
        raise SystemExit("error: app is required (positionally or via --app)")
    return app, model


def _export_trace(events, path: str, nprocs: int) -> None:
    """Write ``events`` to ``path`` (.jsonl => compact JSONL, else Perfetto)."""
    from repro.obs import to_jsonl, write_perfetto

    if path.endswith(".jsonl"):
        to_jsonl(events, path)
        print(f"  wrote {path} ({len(events)} events, JSONL)")
    else:
        n = write_perfetto(events, path, nprocs)
        print(f"  wrote {path} ({n} trace_event entries, Perfetto JSON)")


def _print_sync_check(events, nprocs: int) -> int:
    from repro.obs import check_sync, format_violations

    violations = check_sync(events, nprocs)
    print(format_violations(violations))
    return 1 if violations else 0


def _resolve_scenario(spec_arg: str):
    """A ``--scenario`` argument -> ScenarioSpec (path, else class name)."""
    import os

    from repro.workloads.synth import SCENARIO_CLASSES, generate_scenario, load_spec

    if os.path.exists(spec_arg):
        try:
            return load_spec(spec_arg)
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise SystemExit(
                f"error: cannot load scenario spec {spec_arg!r}: {exc}"
            ) from None
    if spec_arg in SCENARIO_CLASSES:
        return generate_scenario(spec_arg)
    raise SystemExit(
        f"error: unknown scenario {spec_arg!r}: not a spec file on disk and "
        f"not a scenario class (classes: {', '.join(sorted(SCENARIO_CLASSES))}; "
        "generate specs with `repro scenarios generate`)"
    )


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


def _check_hit_rate(store, min_hit_rate: float) -> int:
    """CI gate: fail when the session's serving ratio is below the floor."""
    if store is None or min_hit_rate <= 0:
        return 0
    if store.hit_rate < min_hit_rate:
        print(
            f"ERROR: store hit rate {100 * store.hit_rate:.0f}% below the "
            f"required {100 * min_hit_rate:.0f}% "
            f"({store.hits}/{store.lookups} lookups served)",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    app = args.app or getattr(args, "app_pos", None)
    model = args.model or getattr(args, "model_pos", None)
    if args.scenario is not None:
        # `run mpi --scenario X` puts the model in the app slot
        if model is None and app in _ALL_MODELS:
            app, model = "scenario", app
        app = app or "scenario"
        if app != "scenario":
            raise SystemExit(
                f"error: --scenario runs the 'scenario' app, not {app!r}; "
                "drop the app argument or pass 'scenario'"
            )
    if app is None:
        raise SystemExit("error: app is required (positionally or via --app)")
    if app != "scenario" and app not in _APPS:
        raise SystemExit(
            f"error: unknown app {app!r}; choose from {', '.join(_APPS)}, or "
            "run a generated scenario with --scenario SPEC"
        )
    if model is None:
        raise SystemExit("error: model is required (positionally or via --model)")
    if model not in _ALL_MODELS:
        raise SystemExit(
            f"error: unknown model {model!r}; choose from {', '.join(_ALL_MODELS)}"
        )
    _check_nprocs(args.nprocs)
    if app == "scenario":
        if args.scenario is None:
            raise SystemExit(
                "error: app 'scenario' needs --scenario SPEC (a *.scenario.json "
                "path or a scenario class name; see `repro scenarios list`)"
            )
        wl = _resolve_scenario(args.scenario)
    else:
        wl = _workload(app, args.size)
    if args.profile:
        from repro.harness.profile import PROFILER

        PROFILER.reset().enable()
    traced = bool(args.trace) or args.check_sync
    faults = None
    if args.faults:
        from repro.faults import resolve_profile

        faults = resolve_profile(args.faults, seed=args.fault_seed)
    derived = {"link_stats": "on"} if args.link_stats else None
    store = _store_from_args(args, default_on=False)
    result = run_app(
        app, model, args.nprocs, wl, placement=args.placement, trace=traced,
        faults=faults, derived=derived, store=store,
        machine_profile=args.machine_profile,
    )
    agg = aggregate_breakdown(result)
    what = f"scenario {wl.name}" if app == "scenario" else f"{args.size} workload"
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
    rc = 0
    if traced:
        events = result.events or []
        kinds = sorted({ev.kind for ev in events})
        print(f"  trace          : {len(events)} events ({', '.join(kinds)})")
        if isinstance(args.trace, str):
            _export_trace(events, args.trace, args.nprocs)
        if args.check_sync:
            rc = _print_sync_check(events, args.nprocs)
    if args.link_stats:
        from repro.obs import format_link_contention

        links = getattr(getattr(result, "stats", None), "links", [])
        print()
        print("per-link contention (hottest first):")
        print(format_link_contention(links))
    if args.profile:
        from repro.harness.profile import PROFILER

        PROFILER.disable()
        print()
        print(PROFILER.report())
    _print_store_report(store)
    return rc


def cmd_trace(args: argparse.Namespace) -> int:
    """Traced run with per-kind summary, export, and optional sync check."""
    from repro.obs import phase_breakdown, summarize

    app, model = _resolve_app_model(args)
    if model is None:
        raise SystemExit("error: model is required (positionally or via --model)")
    _check_nprocs(args.nprocs)
    wl = _workload(app, args.size)
    result = run_app(app, model, args.nprocs, wl, trace=True)
    events = result.events or []
    print(f"{app} under {model} on {args.nprocs} CPUs ({args.size} workload): "
          f"{len(events)} events in {result.elapsed_ms:.3f} simulated ms")
    summary = summarize(events)
    rows = [
        [kind, int(row["count"]), int(row["bytes"]), row["dur_ns"] / 1e3]
        for kind, row in sorted(summary.items())
    ]
    print(format_table(["kind", "count", "bytes", "dur_us"], rows))
    if args.phases:
        print()
        breakdown = phase_breakdown(events)
        prows = [
            [name, int(row["events"]), int(row["bytes"])]
            for name, row in sorted(breakdown.items())
        ]
        print(format_table(["phase", "events", "bytes"], prows, title="per-phase traffic"))
    if args.output:
        _export_trace(events, args.output, args.nprocs)
    if args.check_sync:
        return _print_sync_check(events, args.nprocs)
    return 0


def cmd_comm_matrix(args: argparse.Namespace) -> int:
    """Per-pair traffic matrices for each model at one (app, P)."""
    from repro.obs import comm_matrix, format_matrix, sas_home_matrix

    app, _ = _resolve_app_model(args)
    _check_nprocs(args.nprocs)
    wl = _workload(app, args.size)
    cfg = MachineConfig(nprocs=args.nprocs)
    models = (args.model,) if args.model else _MODELS
    for model in models:
        result = run_app(app, model, args.nprocs, wl, trace=True)
        events = result.events or []
        print(f"{app} under {model} on {args.nprocs} CPUs ({args.size} workload)")
        if model == "sas":
            # CC-SAS communication is the coherence traffic: rank x home-node
            # bytes pulled through the protocol (rank-to-rank flow is empty
            # by construction under a shared address space)
            m = sas_home_matrix(events, args.nprocs, cfg.nnodes, cfg.line_bytes)
            units = args.units
            if units == "messages":  # one line fetch ~ one protocol message
                m = m // cfg.line_bytes
                units = "line fetches"
            print(f"  coherence fetch matrix, {units} (rank x home node):")
            print(format_matrix(m, row_label="rank", col_label="home"))
        else:
            units = args.units
            m = comm_matrix(events, args.nprocs, units=units)
            print(f"  flow matrix, {units} (src rank x dst rank):")
            print(format_matrix(m))
        print(f"  total: {int(m.sum())} {units}")
        print()
    return 0


def cmd_bench_faults(args: argparse.Namespace) -> int:
    from repro.harness.faultbench import (
        format_fault_bench,
        run_fault_bench,
        write_fault_bench_json,
    )

    store = _store_from_args(args, default_on=True)
    profile = args.profile
    models = args.models
    if args.correlated:
        # correlated mode defaults to the burst preset and adds hybrid
        if profile == "lossy":
            profile = "bursty-links"
        if models == "mpi,shmem,sas":
            models = "mpi,shmem,sas,hybrid"
    record = run_fault_bench(
        app=args.app,
        models=tuple(models.split(",")),
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
    print(format_fault_bench(record))
    _print_store_report(store)
    path = write_fault_bench_json(record, args.output)
    print(f"  wrote {path}")
    if args.require_retries:
        lacking = [
            f"{r['model']} P={r['nprocs']}"
            for r in record["rows"]
            if r["nprocs"] > 1 and r["retries"] == 0
        ]
        if lacking:
            print(
                f"ERROR: no recoveries exercised for: {', '.join(lacking)}",
                file=sys.stderr,
            )
            return 1
    if args.require_recovery > 0:
        best = record.get("correlated", {}).get("best_recovered_pct", 0.0)
        if best < args.require_recovery:
            print(
                f"ERROR: best fault-aware recovery {best:.1f}% below the "
                f"required {args.require_recovery:.1f}%",
                file=sys.stderr,
            )
            return 1
    return _check_hit_rate(store, args.min_hit_rate)


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
    from repro.harness.scenariobench import (
        format_scenario_bench,
        run_scenario_bench,
        write_scenario_bench_json,
    )

    try:
        intensities = [float(x) for x in args.intensities.split(",") if x.strip()]
    except ValueError:
        raise SystemExit(
            f"error: invalid intensity list {args.intensities!r}"
        ) from None
    store = _store_from_args(args, default_on=True)
    record = run_scenario_bench(
        classes=tuple(args.classes.split(",")),
        models=tuple(args.models.split(",")),
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
    print(format_scenario_bench(record))
    _print_store_report(store)
    path = write_scenario_bench_json(record, args.output)
    print(f"  wrote {path}")
    if args.require_report and not record["flips"]:
        print(
            "ERROR: the sweep found no ranking flips — the flip report is "
            "empty (widen the P or intensity range)",
            file=sys.stderr,
        )
        return 1
    return _check_hit_rate(store, args.min_hit_rate)


def cmd_bench_profiles(args: argparse.Namespace) -> int:
    from repro.harness.profilebench import (
        format_profile_bench,
        run_profile_bench,
        write_profile_bench_json,
    )

    store = _store_from_args(args, default_on=True)
    record = run_profile_bench(
        profiles=tuple(args.profiles.split(",")),
        models=tuple(args.models.split(",")),
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
    print(format_profile_bench(record))
    _print_store_report(store)
    path = write_profile_bench_json(record, args.output)
    print(f"  wrote {path}")
    if args.require_flip and not record["best_flips"]:
        print(
            "ERROR: no hardware profile changed the best model — the "
            "cross-hardware flip report is empty (add profiles or widen P)",
            file=sys.stderr,
        )
        return 1
    return _check_hit_rate(store, args.min_hit_rate)


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
    store = _store_from_args(args, default_on=True)
    rows = sweep(
        args.app, models=args.models.split(","), nprocs_list=plist, workload=wl,
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
    import sys as _sys
    from pathlib import Path

    bench_dir = Path(__file__).resolve().parent.parent.parent / "benchmarks"
    if not bench_dir.exists():
        print("benchmarks/ directory not found (installed without the repo?)")
        return 1
    cmd = [_sys.executable, "-m", "pytest", str(bench_dir), "--benchmark-disable", "-q"]
    print("+", " ".join(cmd))
    rc = subprocess.call(cmd)
    results = bench_dir / "results"
    if results.exists():
        print("\nexperiment outputs:")
        for f in sorted(results.glob("*.txt")):
            print(f"  {f}")
    return rc


def _serve_cells_from_spec(path: str) -> list:
    """Parse a ``serve`` spec file into scheduler cells, in file order.

    The file is a JSON list of cell entries (or ``{"cells": [...]}``);
    each entry names at least an ``app`` and may carry ``model`` or a
    ``models`` list, ``nprocs`` (int or list), ``size``, ``scenario``,
    ``placement``, ``faults`` (+ ``fault_seed``), and ``derived``.  List
    fields cross-product in P-major, model-minor order.
    """
    import json as _json

    from repro.serving import Cell

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
        if not isinstance(entry, dict) or "app" not in entry:
            raise SystemExit(f"error: serve spec cell #{i} needs at least an 'app'")
        app = entry["app"]
        models = entry.get("models") or [entry.get("model", "mpi")]
        procs = entry.get("nprocs", 8)
        procs = procs if isinstance(procs, list) else [procs]
        if entry.get("scenario"):
            workload = _resolve_scenario(entry["scenario"])
        elif entry.get("size"):
            workload = _workload(app, entry["size"])
        else:
            workload = None
        faults = entry.get("faults")
        if faults:
            from repro.faults import resolve_profile

            faults = resolve_profile(faults, seed=entry.get("fault_seed"))
        for n in procs:
            _check_nprocs(int(n))
            for model in models:
                cells.append(Cell(
                    app, model, int(n), workload,
                    entry.get("placement", "first-touch"),
                    faults=faults, derived=entry.get("derived"),
                ))
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
    return 0


def cmd_cache_verify(args: argparse.Namespace) -> int:
    from repro.serving import ResultStore

    store = ResultStore(args.cache_dir)
    problems = store.verify()
    entries = store.stats()["entries"]
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


def build_parser() -> argparse.ArgumentParser:
    """The full ``repro`` argument parser.

    Exposed separately from :func:`main` so tooling (``tools/
    check_docs.py``) can introspect the real subcommands and option
    strings and fail on stale CLI invocations in the docs.
    """
    parser = argparse.ArgumentParser(
        prog="repro", description="Origin2000 three-programming-models reproduction"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def _add_serving(p, default_on, jobs=True):
        """The serving-layer flags (see docs/serving.md)."""
        p.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="result-store root (default: $REPRO_CACHE_DIR "
                            "or ./.repro-cache)")
        if default_on:
            p.add_argument("--no-cache", action="store_true",
                           help="bypass the result store: compute every cell live")
        else:
            p.add_argument("--serve", action="store_true",
                           help="consult the content-addressed result store")
        if jobs:
            p.add_argument("-j", "--jobs", type=int, default=1,
                           help="shard uncached cells over N worker processes")

    def _add_machine_profile(p):
        p.add_argument("--machine-profile", default=None, metavar="NAME",
                       help="run on a named hardware profile "
                            "(see `repro profiles list`; default: Origin2000)")

    def _add_app_model(p, need_model=True):
        """app/model as positionals or flags (``run adapt mpi`` == ``run --app adapt --model mpi``)."""
        p.add_argument("app_pos", nargs="?", choices=_APPS, metavar="app",
                       help="application (or use --app)")
        if need_model:
            p.add_argument("model_pos", nargs="?", choices=_MODELS, metavar="model",
                           help="programming model (or use --model)")
        p.add_argument("--app", choices=_APPS, help=argparse.SUPPRESS)
        p.add_argument("--model", choices=_ALL_MODELS,
                       help=argparse.SUPPRESS if need_model else "restrict to one model")
        p.add_argument("-n", "-p", "--nprocs", type=int, default=8)

    p = sub.add_parser("run", help="run one configuration")
    # free-form app/model: cmd_run validates with a helpful list (the app
    # slot must also accept 'scenario' and, with --scenario, a model name)
    p.add_argument("app_pos", nargs="?", metavar="app",
                   help=f"application: {', '.join(_APPS)}, scenario (or use --app)")
    p.add_argument("model_pos", nargs="?", metavar="model",
                   help=f"programming model: {', '.join(_ALL_MODELS)} (or use --model)")
    p.add_argument("--app", help=argparse.SUPPRESS)
    p.add_argument("--model", help=argparse.SUPPRESS)
    p.add_argument("-n", "-p", "--nprocs", type=int, default=8)
    p.add_argument("--scenario", default=None, metavar="SPEC",
                   help="run a generated scenario: a *.scenario.json path or a "
                        "scenario class name (implies app 'scenario')")
    p.add_argument("-s", "--size", choices=("small", "medium", "large"), default="medium")
    p.add_argument("--placement", default="first-touch")
    p.add_argument("--profile", action="store_true",
                   help="measure host time per simulator subsystem")
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
    _add_machine_profile(p)
    _add_serving(p, default_on=False, jobs=False)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("trace", help="traced run: event summary + export")
    _add_app_model(p)
    p.add_argument("-s", "--size", choices=("small", "medium", "large"), default="small")
    p.add_argument("-o", "--output", default=None, metavar="PATH",
                   help="export the trace (.jsonl => JSONL, else Perfetto JSON)")
    p.add_argument("--phases", action="store_true",
                   help="print the per-adaptation-phase traffic breakdown")
    p.add_argument("--check-sync", action="store_true",
                   help="run the trace-based synchronization checker")
    p.set_defaults(fn=cmd_trace)

    p = sub.add_parser("comm-matrix", help="per-pair communication matrices")
    _add_app_model(p, need_model=False)
    p.add_argument("-s", "--size", choices=("small", "medium", "large"), default="small")
    p.add_argument("--units", choices=("bytes", "messages"), default="bytes")
    p.set_defaults(fn=cmd_comm_matrix)

    p = sub.add_parser("sweep", help="app x model x P sweep")
    p.add_argument("app", choices=_APPS)
    p.add_argument("-p", "--procs", default="1,2,4,8")
    p.add_argument("-m", "--models", default="mpi,shmem,sas")
    p.add_argument("-s", "--size", choices=("small", "medium", "large"), default="small")
    _add_machine_profile(p)
    _add_serving(p, default_on=True)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("micro", help="machine latency microbenchmarks")
    p.add_argument("-n", "--nprocs", type=int, default=16)
    _add_machine_profile(p)
    p.set_defaults(fn=cmd_micro)

    p = sub.add_parser("bench-faults",
                       help="per-model fault-recovery overhead benchmark")
    p.add_argument("--app", choices=_APPS, default="adapt")
    p.add_argument("-s", "--size", choices=("small", "medium", "large"), default="small")
    p.add_argument("-p", "--procs", default="1,4,8")
    p.add_argument("-m", "--models", default="mpi,shmem,sas")
    p.add_argument("--profile", default="lossy",
                   help="fault profile (drizzle, lossy, stress, nacky, "
                        "flaky-links, bursty-links, bursty-router, bursty-dir, "
                        "or a gilbert:k=v,... spec)")
    p.add_argument("--seed", type=int, default=None,
                   help="override the profile's seed")
    p.add_argument("--correlated", action="store_true",
                   help="three-arm correlated-burst comparison: fault-free, "
                        "fault-blind, and fault-aware PLUM (defaults the "
                        "profile to bursty-links and adds hybrid to -m)")
    p.add_argument("-o", "--output", default=None, help="BENCH_FAULTS.json path")
    p.add_argument("--no-verify", action="store_true",
                   help="skip the determinism double-run of each faulted config")
    p.add_argument("--require-retries", action="store_true",
                   help="fail unless every model at P>1 exercised recovery (CI)")
    p.add_argument("--require-recovery", type=float, default=0.0, metavar="PCT",
                   help="with --correlated: fail unless some (model, P) cell "
                        "recovers at least PCT%% of the fault-blind penalty (CI)")
    p.add_argument("--min-hit-rate", type=float, default=0.0, metavar="RATE",
                   help="fail when the store hit rate is below RATE (CI warm pass)")
    _add_machine_profile(p)
    _add_serving(p, default_on=True)
    p.set_defaults(fn=cmd_bench_faults)

    p = sub.add_parser("bench-scenarios",
                       help="model x P x scenario-class ranking-flip sweep")
    p.add_argument("-p", "--procs", default="2,8,32")
    p.add_argument("-m", "--models", default="mpi,shmem,sas")
    p.add_argument("--classes", default=_DEFAULT_CLASSES,
                   help="comma-separated scenario classes")
    p.add_argument("--intensities", default="0.2,1.0",
                   help="comma-separated intensity knob settings (a sweep axis)")
    p.add_argument("--seed", type=int, default=7,
                   help="generator seed shared by every spec of the sweep")
    p.add_argument("--mesh-n", type=int, default=8)
    p.add_argument("--phases", type=int, default=4)
    p.add_argument("--solver-iters", type=int, default=6)
    p.add_argument("--placement", default="first-touch")
    p.add_argument("--no-insights", action="store_true",
                   help="skip the per-spec trajectory characterisation")
    p.add_argument("-o", "--output", default=None, help="BENCH_SCENARIOS.json path")
    p.add_argument("--require-report", action="store_true",
                   help="fail unless the sweep finds ranking flips (CI)")
    p.add_argument("--min-hit-rate", type=float, default=0.0,
                   help="fail unless this fraction of lookups is served "
                        "from the store (warm-cache CI gate)")
    _add_serving(p, default_on=True)
    p.set_defaults(fn=cmd_bench_scenarios)

    p = sub.add_parser("bench-profiles",
                       help="model x P x hardware-profile ranking-flip sweep")
    p.add_argument("--profiles", default=",".join(
        ("origin2000", "numa-epyc", "fat-tree-cluster", "dragonfly")),
        help="comma-separated hardware profile names (`repro profiles list`)")
    p.add_argument("-p", "--procs", default="2,8,32")
    p.add_argument("-m", "--models", default="mpi,shmem,sas")
    p.add_argument("--scenario-class", default="multi_front",
                   help="the fixed scenario workload's class")
    p.add_argument("--intensity", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=7,
                   help="generator seed of the fixed scenario workload")
    p.add_argument("--mesh-n", type=int, default=8)
    p.add_argument("--phases", type=int, default=4)
    p.add_argument("--solver-iters", type=int, default=6)
    p.add_argument("--placement", default="first-touch")
    p.add_argument("-o", "--output", default=None, help="BENCH_PROFILES.json path")
    p.add_argument("--require-flip", action="store_true",
                   help="fail unless some profile changes the best model (CI)")
    p.add_argument("--min-hit-rate", type=float, default=0.0,
                   help="fail unless this fraction of lookups is served "
                        "from the store (warm-cache CI gate)")
    _add_serving(p, default_on=True)
    p.set_defaults(fn=cmd_bench_profiles)

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

    g = ssub.add_parser("generate", help="generate a scenario spec on disk")
    g.add_argument("scenario_class", metavar="class",
                   help="scenario class (see `repro scenarios list`)")
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--name", default=None,
                   help="spec name (default: class-seed-knobs slug)")
    g.add_argument("--mesh-n", type=int, default=8)
    g.add_argument("--phases", type=int, default=5)
    g.add_argument("--solver-iters", type=int, default=6)
    g.add_argument("-k", "--knob", action="append", default=[], metavar="NAME=VALUE",
                   help="set a class knob, e.g. -k intensity=0.8 (repeatable)")
    g.add_argument("-o", "--out-dir", default="scenarios",
                   help="directory for the spec (and insights) files")
    g.add_argument("-n", "--nprocs", type=int, default=8,
                   help="processor count for the insights characterisation")
    g.add_argument("--no-insights", action="store_true",
                   help="skip writing the sibling *.insights.json")
    g.set_defaults(fn=cmd_scenarios_generate)

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
                       help="serve a JSON sweep spec from the result store")
    p.add_argument("spec", metavar="SPEC.json",
                   help="JSON list of cells (or {\"cells\": [...]}); each cell "
                        "names an app plus model(s), nprocs, size/scenario, "
                        "placement, faults, derived")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="result-store root (default: $REPRO_CACHE_DIR "
                        "or ./.repro-cache)")
    p.add_argument("-j", "--jobs", type=int, default=1,
                   help="shard uncached cells over N worker processes")
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

    c = csub.add_parser("stats", help="store inventory: entries, bytes, apps")
    c.add_argument("--cache-dir", default=None, metavar="DIR")
    c.set_defaults(fn=cmd_cache_stats)

    c = csub.add_parser("verify",
                        help="re-derive every entry's key from its signature")
    c.add_argument("--cache-dir", default=None, metavar="DIR")
    c.set_defaults(fn=cmd_cache_verify)

    c = csub.add_parser("gc", help="remove store entries by age/version/state")
    c.add_argument("--cache-dir", default=None, metavar="DIR")
    c.add_argument("--older-than", type=float, default=None, metavar="DAYS",
                   help="drop entries older than this many days")
    c.add_argument("--outdated", action="store_true",
                   help="drop entries from other engine versions (never hit)")
    c.add_argument("--corrupt", action="store_true",
                   help="drop unreadable or mis-keyed entries")
    c.add_argument("--all", action="store_true", help="drop every entry")
    c.set_defaults(fn=cmd_cache_gc)

    p = sub.add_parser("effort", help="programming-effort (LoC) table")
    p.set_defaults(fn=cmd_effort)

    p = sub.add_parser("describe", help="describe the simulated machine")
    p.add_argument("-n", "--nprocs", type=int, default=8)
    _add_machine_profile(p)
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
