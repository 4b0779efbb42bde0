"""Host-time tracer for the benchmark's traced pass.

The traced pass measures the program from outside. It swaps the functions
named in :data:`HOOKS` for timing wrappers, runs one pass, and puts the
originals back. No file under ``src/`` changes, and the simulator's own
profiler (``repro.sim.profile.PROFILER``) stays off, so the traced pass
runs the same engine loop and network paths as the timed passes.

Every wrapper pushes a span onto one stack. When a span closes, its
duration minus the time its child spans covered is booked to its row as
self time, so the rows never double-count. A call that returns a
generator (each model primitive, each rank program, ``Network.transfer``)
is also timed per resume, the way ``repro.sim.profile.profile_generator``
does it, so a rank suspended in the engine is never billed for the work
of other ranks. Time outside every span is the ``unattributed`` remainder.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from contextlib import contextmanager
from time import perf_counter
from types import GeneratorType
from typing import Any, Callable, Dict, Iterator, List, Tuple

__all__ = ["HOOKS", "ROWS", "COARSE", "Tracer"]

#: ``(row, module, target)``. A target is ``Class.method``, ``Class.*``
#: (every public function in the class body), ``function``, ``*`` (every
#: name in the module's ``__all__``) or ``REGISTRY[]`` (every value of a
#: module-level dict). A function is replaced wherever a ``repro`` or
#: ``bench`` module has bound it, so ``from x import f`` callers see the
#: wrapper too.
HOOKS: Tuple[Tuple[str, str, str], ...] = (
    ("sim", "repro.machine.machine", "Machine.run"),
    ("machine.setup", "repro.machine.machine", "Machine.__init__"),
    ("machine.network", "repro.machine.network", "Network.transfer"),
    ("machine.network", "repro.machine.network", "Network.transfer_async"),
    # the timer legs carry the uncontended fast path; without them the
    # network's share of the batched engine would land in ``sim``
    ("machine.network", "repro.machine.network", "Network._start_transfer"),
    ("machine.network", "repro.machine.network", "Network._finish_remote"),
    ("machine.network", "repro.machine.network", "Network._finish_local"),
    ("machine.directory", "repro.machine.directory", "Directory.transaction"),
    ("machine.directory", "repro.machine.directory", "Directory.transaction_batch"),
    ("machine.cache", "repro.machine.cache", "CacheModel.access"),
    ("machine.cache", "repro.machine.cache", "CacheModel.access_batch"),
    ("models.launch", "repro.models.registry", "run_program"),
    ("models.mpi", "repro.models.mpi.context", "MpiContext.*"),
    ("models.mpi", "repro.models.mpi.context", "MpiWorld.post_message"),
    ("models.mpi", "repro.models.mpi.context", "MpiWorld.post_recv"),
    ("models.mpi", "repro.models.mpi.context", "MpiWorld.deliver"),
    ("models.mpi", "repro.models.mpi.requests", "Request.wait"),
    ("models.mpi", "repro.models.mpi.requests", "Request.waitall"),
    ("models.mpi.match", "repro.models.mpi.matchq", "MatchQueue.append"),
    ("models.mpi.match", "repro.models.mpi.matchq", "MatchQueue.pop_first"),
    ("models.shmem", "repro.models.shmem.context", "ShmemContext.*"),
    ("models.sas", "repro.models.sas.context", "SasContext.*"),
    ("models.hybrid", "repro.models.hybrid", "HybridContext.*"),
    ("apps.program", "repro.apps.adapt", "ADAPT_PROGRAMS[]"),
    ("apps.program", "repro.apps.nbody", "NBODY_PROGRAMS[]"),
    ("apps.program", "repro.apps.jacobi", "JACOBI_PROGRAMS[]"),
    ("apps.build", "repro.apps.adapt.script", "build_script"),
    ("apps.reference", "repro.apps.nbody.common", "reference_checksum"),
    ("apps.reference", "repro.apps.jacobi.common", "reference_checksum"),
    ("mesh", "repro.mesh.generator", "structured_mesh"),
    ("mesh", "repro.mesh.refine", "dissolve_green_families"),
    ("mesh", "repro.mesh.refine", "hanging_edge_marks"),
    ("mesh", "repro.mesh.refine", "close_marks"),
    ("mesh", "repro.mesh.refine", "refine_cascade"),
    ("mesh", "repro.mesh.coarsen", "coarsen"),
    ("mesh", "repro.mesh.error", "distance_band_marks"),
    ("mesh", "repro.mesh.mesh2d", "TriMesh.validate"),
    ("mesh", "repro.mesh.mesh2d", "TriMesh.edges"),
    ("partition", "repro.partition", "PARTITIONERS[]"),
    ("partition", "repro.partition", "mesh_dual_graph"),
    ("plum", "repro.plum.balancer", "PlumBalancer.initial_partition"),
    ("plum", "repro.plum.balancer", "PlumBalancer.rebalance"),
    ("plum", "repro.plum.balancer", "PlumBalancer.loads"),
    ("plum", "repro.plum.balancer", "inherit_ownership"),
    ("plum", "repro.plum.cost", "remap_cost"),
    ("solver", "repro.solver.kernels", "*"),
    ("workloads", "repro.workloads.synth", "generate_scenario"),
    ("workloads", "repro.workloads.synth", "spec_config"),
    ("workloads", "repro.workloads.shock", "MovingShock.*"),
    ("workloads", "repro.workloads.synth.workload", "SyntheticWorkload.*"),
    ("workloads", "repro.workloads.plummer", "plummer_bodies"),
    ("serving.run_cells", "repro.serving.scheduler", "run_cells"),
    ("serving.pool", "repro.serving.scheduler", "run_tasks"),
    ("serving.get", "repro.serving.store", "ResultStore.get"),
    ("serving.put", "repro.serving.store", "ResultStore.put"),
)

#: every row, in report order
ROWS: Tuple[str, ...] = tuple(dict.fromkeys(row for row, _, _ in HOOKS))

#: targets whose calls are also kept as spans for the Chrome trace (label
#: -> span name); the hot functions are aggregate-only
COARSE = {
    "repro.apps.adapt.script.build_script": "build_script",
    "repro.models.registry.run_program": "run_program",
    "repro.serving.scheduler.run_cells": "run_cells",
    "ResultStore.get": "ResultStore.get",
    "ResultStore.put": "ResultStore.put",
}

#: module prefixes searched when rebinding a function
_PREFIXES = ("repro", "bench")


class Tracer:
    """Span-stack recorder; :meth:`installed` hooks it into the program.

    ``self_s[row]`` and ``calls[row]`` aggregate per row,
    ``target_calls[label]`` per wrapped function, ``counts`` holds the
    engine/network/matching/cache counters of every machine that ran, and
    ``events`` the coarse spans as ``(name, start, duration)``.
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = {row: 0.0 for row in ROWS}
        self.calls: Dict[str, int] = {row: 0 for row in ROWS}
        self.target_calls: Dict[str, int] = {}
        self.counts: Dict[str, int] = {}
        self.events: List[Tuple[str, float, float]] = []
        self._stack: List[list] = []

    # -- spans ----------------------------------------------------------------

    def _enter(self, row: str, name: Any = None) -> None:
        self._stack.append([row, perf_counter(), 0.0, name])

    def _exit(self) -> None:
        row, t0, child, name = self._stack.pop()
        dur = perf_counter() - t0
        self.self_s[row] += dur - child
        if self._stack:
            self._stack[-1][2] += dur
        if name is not None:
            self.events.append((name, t0, dur))

    def event(self, name: str, start: float, duration: float) -> None:
        """Keep a benchmark-level span (a cell, a set-up step) for the trace."""
        self.events.append((name, start, duration))

    def _resumes(self, row: str, gen: GeneratorType) -> Iterator[Any]:
        value = None
        while True:
            self._enter(row)
            try:
                request = gen.send(value)
            except StopIteration as stop:
                return stop.value
            finally:
                self._exit()
            value = yield request

    def _wrap(self, row: str, label: str, fn: Callable) -> Callable:
        coarse = COARSE.get(label)
        calls = self.target_calls
        calls.setdefault(label, 0)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[label] += 1
            self.calls[row] += 1
            self._enter(row, coarse)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._exit()
            if type(out) is GeneratorType:
                return self._resumes(row, out)
            return out

        return traced

    # -- counters -------------------------------------------------------------

    def _count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + int(n)

    def count_machine(self, machine: Any) -> None:
        """Add one finished machine's engine, network, matching and cache counters."""
        eng = machine.engine.counters()
        self._count("sim.events", eng["events"])
        self._count("sim.cohorts_drained", eng["cohorts_drained"])
        self._count("sim.timer_calls", eng["timer_calls"])
        self._count("machine.network.timer_transfers", machine.network.timer_fast_transfers)
        self._count("machine.network.messages", machine.stats.network_messages)
        world = getattr(machine, "mpi_world", None)
        if world is not None:
            for key, n in world.match_counters().items():
                self._count(f"models.mpi.{key}", n)
        for cache in machine.caches:
            self._count("machine.cache.hits", cache.hits)
            self._count("machine.cache.misses", cache.misses)

    # -- installation -----------------------------------------------------------

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Hook every target in :data:`HOOKS` for the ``with`` body."""
        undo: List[Tuple[Any, str, Any]] = []
        try:
            for row, module, target in HOOKS:
                for owner, name, raw, label in _resolve(module, target):
                    self._hook(row, label, owner, name, raw, undo)
            self._hook_machine_counts(undo)
            yield self
        finally:
            for owner, name, raw in reversed(undo):
                if isinstance(owner, dict):
                    owner[name] = raw
                else:
                    setattr(owner, name, raw)

    def _hook(self, row, label, owner, name, raw, undo) -> None:
        if isinstance(owner, type):
            fn = raw.__func__ if isinstance(raw, staticmethod) else raw
            wrapped = self._wrap(row, label, fn)
            undo.append((owner, name, raw))
            setattr(owner, name, staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)
            return
        wrapped = self._wrap(row, label, raw)
        for scope in _scopes():
            for key in [k for k, v in scope.items() if v is raw]:
                undo.append((scope, key, raw))
                scope[key] = wrapped
        if isinstance(owner, dict) and owner.get(name) is raw:
            undo.append((owner, name, raw))
            owner[name] = wrapped

    def _hook_machine_counts(self, undo) -> None:
        from repro.machine.machine import Machine

        run = Machine.run

        @functools.wraps(run)
        def run_and_count(machine):
            out = run(machine)
            self.count_machine(machine)
            return out

        undo.append((Machine, "run", run))
        Machine.run = run_and_count


def _resolve(module: str, target: str) -> List[Tuple[Any, str, Any, str]]:
    """``(owner, name, raw object, label)`` for every function a target names."""
    mod = importlib.import_module(module)
    if target == "*":
        return [
            (mod, n, getattr(mod, n), f"{module}.{n}")
            for n in mod.__all__ if inspect.isfunction(getattr(mod, n))
        ]
    if target.endswith("[]"):
        registry = getattr(mod, target[:-2])
        return [(registry, key, fn, f"{target[:-2]}[{key}]") for key, fn in registry.items()]
    if "." not in target:
        return [(mod, target, getattr(mod, target), f"{module}.{target}")]
    cls_name, attr = target.split(".", 1)
    cls = getattr(mod, cls_name)
    if attr == "*":
        names = [
            n for n, v in vars(cls).items()
            if not n.startswith("_") and (inspect.isfunction(v) or isinstance(v, staticmethod))
        ]
    else:
        names = [attr]
    return [(cls, n, vars(cls)[n], f"{cls_name}.{n}") for n in names]


def _scopes() -> List[dict]:
    """The namespaces of every loaded ``repro``/``bench`` module."""
    return [
        vars(mod) for name, mod in list(sys.modules.items())
        if mod is not None and name.split(".", 1)[0] in _PREFIXES
    ]
