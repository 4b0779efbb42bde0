"""Shared machinery for the three programming-model contexts.

A *context* is the per-rank handle application code receives.  It provides:

* ``compute(ns)`` / ``compute_units(n, unit_ns)`` — charge computation time,
* virtual-time reading (``now``) and per-category accounting into
  :class:`repro.machine.stats.CpuStats`,
* a phase timer used by the harness to build compute/comm/sync breakdowns.

Model-specific contexts add their communication primitives on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional

from repro.machine.machine import Machine
from repro.machine.stats import CpuStats
from repro.sim.engine import Delay

__all__ = ["BaseContext", "ProgramResult"]


@dataclass
class ProgramResult:
    """Everything an experiment needs from one simulated run."""

    model: str
    nprocs: int
    elapsed_ns: float
    rank_results: List[Any]
    stats: "object"  # MachineStats
    phase_ns: Dict[str, float] = field(default_factory=dict)
    events: Optional[List[Any]] = None  # obs.Event stream when traced
    #: fault-plane counter snapshot (None when fault injection was off)
    fault_summary: Optional[Dict[str, Any]] = None

    @property
    def elapsed_ms(self) -> float:
        return self.elapsed_ns / 1e6


class BaseContext:
    """Per-rank runtime handle (subclassed by each model)."""

    model_name = "base"

    def __init__(self, machine: Machine, rank: int, nprocs: int):
        if not 0 <= rank < nprocs <= machine.nprocs:
            raise ValueError(
                f"bad rank/nprocs ({rank}, {nprocs}) for machine with {machine.nprocs} CPUs"
            )
        self.machine = machine
        self.rank = rank
        self.nprocs = nprocs
        self._obs = machine.obs
        self.stats: CpuStats = machine.stats.per_cpu[rank]
        self.node = machine.config.node_of_cpu(rank)
        self._phase_start: Optional[float] = None
        self._phase_name: Optional[str] = None
        self.phase_ns: Dict[str, float] = {}
        # when set, all charges are redirected to this category (used by
        # collectives to attribute their internal messaging to "sync")
        self._charge_category: Optional[str] = None

    # -- time ----------------------------------------------------------------

    @property
    def now(self) -> float:
        """Current virtual time (ns)."""
        return self.machine.engine.now

    def compute(self, ns: float) -> Generator:
        """Charge ``ns`` of pure computation."""
        if ns < 0:
            raise ValueError(f"negative compute time {ns}")
        self.stats.compute_ns += ns
        yield Delay(ns)

    def compute_units(self, n: int, unit_ns: float) -> Generator:
        """Charge ``n`` work units of ``unit_ns`` each (the common idiom)."""
        yield from self.compute(n * unit_ns)

    def _charge(self, category: str, ns: float) -> None:
        """Account ``ns`` to a breakdown category (honouring the override)."""
        # hand-inlined CpuStats.charge: this is the hottest accounting call
        # in every model runtime (two per message minimum)
        cat = self._charge_category or category
        stats = self.stats
        if cat == "comm":
            stats.comm_ns += ns
        elif cat == "compute":
            stats.compute_ns += ns
        elif cat == "sync":
            stats.sync_ns += ns
        else:
            stats.charge(cat, ns)

    def charged_delay(self, category: str, ns: float) -> Generator:
        """Suspend for ``ns`` charging it to a breakdown category."""
        self._charge(category, ns)
        yield Delay(ns)

    # -- phase timing ------------------------------------------------------------

    def phase_begin(self, name: str) -> None:
        """Start attributing elapsed time to phase ``name`` (rank-local)."""
        self._flush_phase()
        self._phase_name = name
        self._phase_start = self.now

    def phase_end(self) -> None:
        self._flush_phase()

    def _flush_phase(self) -> None:
        if self._phase_name is not None and self._phase_start is not None:
            self.phase_ns[self._phase_name] = (
                self.phase_ns.get(self._phase_name, 0.0) + self.now - self._phase_start
            )
            if self._obs.enabled:
                self._obs.emit(
                    "phase", self._phase_start, self.rank,
                    dur=self.now - self._phase_start,
                    attrs={"name": self._phase_name},
                )
        self._phase_name = None
        self._phase_start = None

    # -- misc ----------------------------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} rank={self.rank}/{self.nprocs}>"
