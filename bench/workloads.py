"""The benchmark's four workloads and the checks on their answers.

A workload turns a seed into inputs and runs one *pass* over its cells,
returning one :class:`Answer` per cell result. The pass times itself
through a :class:`~bench.clock.Clock`, from outside the program:

* ``setup``: scenario generation, trajectory builds (``build_script``),
  reference checksums and ``Machine(...)`` construction;
* ``sim``: the ``run_program`` calls, or on ``sweep-serve`` the cold
  ``run_cells`` that simulates every cell and stores it;
* ``serve``: served single-cell lookups (``sweep-serve`` only).

Sizes are set so that a pass takes a few seconds on a 2-core host; the
tests pass smaller sizes to the same classes. The seed changes the inputs
but not, or barely, their size, so runs with different seeds measure
the same amount of work.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from bench.clock import Clock
from repro.apps.adapt import ADAPT_PROGRAMS, AdaptConfig, build_script
from repro.apps.jacobi import JACOBI_PROGRAMS, JacobiConfig
from repro.apps.jacobi import reference_checksum as jacobi_reference
from repro.apps.nbody import NBODY_PROGRAMS, NBodyConfig
from repro.apps.nbody import reference_checksum as nbody_reference
from repro.machine.config import MachineConfig
from repro.machine.machine import Machine
from repro.models.registry import run_program
from repro.serving import Cell, ResultStore, run_cells
from repro.workloads.shock import MovingShock
from repro.workloads.synth import SCENARIO_CLASSES, generate_scenario, spec_config

__all__ = [
    "Answer", "Checker", "WORKLOADS", "fingerprint",
    "AdaptHighP", "ScenarioP8", "NBodyHighP", "SweepServe",
]

MODELS = ("mpi", "shmem", "sas", "hybrid")

#: a rank result may differ from the sequential reference by this much
CHECKSUM_TOL = 1e-9


@dataclass
class Answer:
    """One cell result and the checksum every rank of it must return.

    ``result`` is a ``ProgramResult`` or a served ``ResultSummary``, and
    ``None`` with ``error`` set when the cell raised.
    """

    label: str
    result: Any
    reference: float
    error: Optional[str] = None


def adapt_config(seed: int, mesh_n: int, phases: int, solver_iters: int) -> AdaptConfig:
    """The adapt workload for ``seed``: the shock's tanh width is 0.04 ± 25%.

    The width only shapes the forcing the solver relaxes toward, so every
    checksum changes with the seed while the trajectory (refinement,
    partitions, messages) and hence the work stay the same.
    """
    width = 0.04 * (1.0 + 0.25 * (2.0 * np.random.default_rng(seed).random() - 1.0))
    return AdaptConfig(
        mesh_n=mesh_n, phases=phases, solver_iters=solver_iters,
        shock=MovingShock(thickness=round(width, 6)),
    )


def _run_models(
    clock: Clock, prefix: str, programs: Dict[str, Any], models: Sequence[str],
    nprocs: int, workload: Any, reference: float,
) -> List[Answer]:
    """Run ``workload`` under each model on a fresh ``nprocs``-CPU machine."""
    out = []
    for model in models:
        label = f"{prefix}/{model}/P{nprocs}"
        with clock.step("setup"):
            machine = Machine(MachineConfig(nprocs=nprocs))
        try:
            with clock.step("sim", label):
                result = run_program(model, programs[model], nprocs, workload, machine=machine)
        except Exception:  # a failing cell is counted and the pass goes on
            out.append(Answer(label, None, reference, traceback.format_exc()))
            continue
        out.append(Answer(label, result, reference))
    return out


class AdaptHighP:
    """The paper's headline app on the largest machines, under all four models."""

    name = "adapt-highp"

    def __init__(self, seed: int, mesh_n: int = 10, phases: int = 2,
                 solver_iters: int = 3, procs: Sequence[int] = (64, 128)) -> None:
        self.config = adapt_config(seed, mesh_n, phases, solver_iters)
        self.procs = tuple(procs)

    def run_pass(self, clock: Clock) -> List[Answer]:
        answers: List[Answer] = []
        for nprocs in self.procs:
            with clock.step("setup"):
                script = build_script(self.config, nprocs)
            answers += _run_models(
                clock, "adapt", ADAPT_PROGRAMS, MODELS, nprocs, script,
                script.reference_checksum,
            )
        return answers


class ScenarioP8:
    """Generated scenarios of every class at P=8: substrate-bound set-up."""

    name = "scenario-p8"

    def __init__(self, seed: int, mesh_n: int = 12, phases: int = 3,
                 solver_iters: int = 2, seeds_per_class: int = 2, nprocs: int = 8) -> None:
        self.seeds = range(seed, seed + seeds_per_class)
        self.shape = {"mesh_n": mesh_n, "phases": phases, "solver_iters": solver_iters}
        self.nprocs = nprocs

    def run_pass(self, clock: Clock) -> List[Answer]:
        answers: List[Answer] = []
        for cls in sorted(SCENARIO_CLASSES):
            for s in self.seeds:
                with clock.step("setup"):
                    spec = generate_scenario(cls, seed=s, **self.shape)
                    script = build_script(spec_config(spec), self.nprocs)
                answers += _run_models(
                    clock, f"scenario/{spec.name}", ADAPT_PROGRAMS, MODELS,
                    self.nprocs, script, script.reference_checksum,
                )
        return answers


class NBodyHighP:
    """Barnes-Hut at high P: no mesh, partitioner or PLUM in sight.

    The seed sets the time step (1e-3 ± 2%) over one fixed Plummer
    cluster. A new cluster per seed, or a wider step range, moved the
    host time and the peak memory by up to 9% from seed to seed, through
    the shape of the tree.
    """

    name = "nbody-highp"

    def __init__(self, seed: int, n: int = 192, steps: int = 2,
                 procs: Sequence[int] = (32, 64)) -> None:
        dt = 1e-3 * (1.0 + 0.02 * (2.0 * np.random.default_rng(seed).random() - 1.0))
        self.config = NBodyConfig(n=n, steps=steps, dt=round(dt, 9))
        self.procs = tuple(procs)

    def run_pass(self, clock: Clock) -> List[Answer]:
        with clock.step("setup"):
            reference = nbody_reference(self.config)
        answers: List[Answer] = []
        for nprocs in self.procs:
            answers += _run_models(
                clock, "nbody", NBODY_PROGRAMS, ("mpi", "shmem", "sas"), nprocs,
                self.config, reference,
            )
        return answers


class SweepServe:
    """A cold sweep into a fresh store, then served single-cell lookups.

    The fault cells use the small adapt mesh: adapt ``mesh_n=16`` under
    SHMEM at P=16 with ``bursty-links`` raises ``FaultRecoveryError``.
    The cold sweep runs inline (``jobs=1``): on a shared 2-vCPU host a
    2-worker pool more than doubled its run-to-run spread (16% against
    7%), which the benchmark's bounds cannot absorb.
    """

    name = "sweep-serve"

    def __init__(self, seed: int, mesh_n: int = 8, phases: int = 3, solver_iters: int = 6,
                 grid: int = 128, jacobi_iters: int = 10, procs: Sequence[int] = (8, 16),
                 lookups: int = 6000, root: Optional[Path] = None) -> None:
        self.seed = seed
        self.adapt_shape = (mesh_n, phases, solver_iters)
        self.jacobi = JacobiConfig(nx=grid, ny=grid, iters=jacobi_iters)
        self.procs = tuple(procs)
        self.lookups = lookups
        self.root = root

    def _cells(self):
        adapt = adapt_config(self.seed, *self.adapt_shape)
        cells = [
            (Cell("adapt", model, p, adapt, faults=faults), "adapt")
            for faults in (None, "bursty-links") for model in MODELS for p in self.procs
        ]
        cells += [
            (Cell("jacobi", model, p, self.jacobi), "jacobi")
            for model in ("mpi", "shmem", "sas") for p in self.procs
        ]
        # the adapt reference checksum does not depend on P or the fault plane
        references = {
            "adapt": build_script(adapt, self.procs[0]).reference_checksum,
            "jacobi": jacobi_reference(self.jacobi),
        }
        return [(cell, references[app]) for cell, app in cells]

    @staticmethod
    def _label(cell: Cell) -> str:
        return f"{cell.label()}/{cell.faults or 'none'}"

    def run_pass(self, clock: Clock) -> List[Answer]:
        root = tempfile.mkdtemp(prefix="store-", dir=self.root)
        try:
            with clock.step("setup"):
                store = ResultStore(root)
                cells = self._cells()
            with clock.step("sim"):
                cold = run_cells([c for c, _ in cells], store)
            answers = [
                Answer(self._label(c), r.summary, ref, r.error)
                for (c, ref), r in zip(cells, cold)
            ]
            hits = 0
            for _ in range(math.ceil(self.lookups / len(cells))):
                for cell, ref in cells:
                    label = self._label(cell)
                    with clock.step("serve", label):
                        served = run_cells([cell], store)[0]
                    hits += served.source == "store"
                    answers.append(Answer(label, served.summary, ref, served.error))
            clock.counts["serving.warm_lookups"] = len(answers) - len(cells)
            clock.counts["serving.warm_hits"] = hits
        finally:
            shutil.rmtree(root, ignore_errors=True)
        return answers


WORKLOADS = {w.name: w for w in (AdaptHighP, ScenarioP8, NBodyHighP, SweepServe)}


# -- output checks -------------------------------------------------------------


def fingerprint(result: Any) -> Dict[str, Any]:
    """Simulated elapsed ns and the sha256 of the machine-statistics summary."""
    summary = json.dumps(result.stats.summary(), sort_keys=True, default=float)
    return {
        "elapsed_ns": result.elapsed_ns,
        "summary_sha256": hashlib.sha256(summary.encode()).hexdigest(),
    }


class Checker:
    """Checks answers against references, the golden file and each other.

    An answer fails when its cell raised, when any rank's result is off
    the sequential reference checksum, when its fingerprint differs from
    the golden entry for its label, or when it differs from the first
    fingerprint this run saw for the label (so a traced pass, a later
    pass or a served lookup that disagrees with the first computed
    answer also fails). Labels without a golden entry are ``unpinned``.
    """

    def __init__(self, golden: Dict[str, Dict[str, Any]]) -> None:
        self.golden = golden
        self.seen: Dict[str, Dict[str, Any]] = {}
        self.unpinned: set = set()
        self.attempted = 0
        self.failures: List[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, answers: Sequence[Answer]) -> None:
        for a in answers:
            self.attempted += 1
            problem = self._problem(a)
            if problem is not None:
                self.failures.append(f"{a.label}: {problem}")

    def _problem(self, a: Answer) -> Optional[str]:
        if a.result is None:
            return f"raised {(a.error or '').strip().splitlines()[-1:]}"
        off = [r for r in a.result.rank_results if not abs(r - a.reference) <= CHECKSUM_TOL]
        if off:
            return f"rank checksum {off[0]!r} != reference {a.reference!r}"
        fp = fingerprint(a.result)
        first = self.seen.setdefault(a.label, fp)
        if fp != first:
            return f"fingerprint {fp} != first answer {first}"
        if a.label not in self.golden:
            self.unpinned.add(a.label)
        elif fp != self.golden[a.label]:
            return f"fingerprint {fp} != golden {self.golden[a.label]}"
        return None
