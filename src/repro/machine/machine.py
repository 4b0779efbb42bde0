"""The assembled machine: engine + topology + network + memory hierarchy.

One :class:`Machine` instance is one simulation run.  The runtimes in
:mod:`repro.models` attach to it, spawn one coroutine process per simulated
CPU, and the engine advances virtual time until every rank's program
returns.
"""

from __future__ import annotations

from typing import Callable, Generator, List, Optional, Union

from repro.faults import FaultPlane, FaultProfile, resolve_profile
from repro.machine.cache import CacheModel
from repro.machine.config import MachineConfig
from repro.machine.directory import Directory
from repro.machine.memory import MemorySystem
from repro.machine.network import Network
from repro.machine.node import Node, build_nodes
from repro.machine.profiles import MachineProfile, resolve_machine_profile
from repro.machine.stats import MachineStats
from repro.machine.topology import build_topology
from repro.obs.events import EventLog
from repro.sim.engine import Engine, Process
from repro.sim.trace import Tracer

__all__ = ["Machine"]


class Machine:
    """A simulated Origin2000 ready to run SPMD programs.

    Args:
        config: machine structure and cost parameters (default: the
            published Origin2000 numbers at ``nprocs=8``).
        placement: NUMA page-placement policy for the memory system
            (``"first-touch"``, ``"round-robin"``, or a node number).
        trace: enable the legacy line tracer (``machine.tracer``);
            structured observability uses ``machine.obs`` instead.
        faults: a fault profile name, :class:`~repro.faults.FaultProfile`,
            or ``None`` (default).  When given and non-inert, the machine's
            fault plane injects seeded link/directory faults and the model
            runtimes recover; when ``None`` the plane is disabled and every
            hot path pays a single boolean check.
        profile: a hardware profile name from
            :mod:`repro.machine.profiles`, a
            :class:`~repro.machine.profiles.MachineProfile`, or ``None``
            (default).  A profile overlays hardware constants (and
            possibly the topology) on ``config`` before the machine is
            built; ``nprocs`` and ``derived`` are preserved.
            ``profile="origin2000"`` is bit-identical to ``None``.

    One instance is one simulation run: attach a model runtime from
    :mod:`repro.models`, :meth:`spawn_rank` one coroutine per simulated
    CPU, then :meth:`run` to advance virtual time to completion.
    """

    def __init__(
        self,
        config: Optional[MachineConfig] = None,
        placement: str = "first-touch",
        trace: bool = False,
        faults: Union[None, str, FaultProfile] = None,
        profile: Union[None, str, MachineProfile] = None,
    ):
        self.profile = resolve_machine_profile(profile)
        cfg = config or MachineConfig()
        if self.profile is not None:
            cfg = self.profile.apply(cfg)
        self.config = cfg
        self.engine = Engine()
        self.topology = build_topology(self.config)
        self.stats = MachineStats.for_nprocs(self.config.nprocs)
        self.obs = EventLog()
        self.faults = FaultPlane(resolve_profile(faults))
        # correlated profiles resolve their failure domains against the
        # actual links of this run's topology (no-op otherwise)
        self.faults.bind_topology(self.topology)
        self.network = Network(
            self.engine, self.topology, self.stats, obs=self.obs, faults=self.faults
        )
        self.memory = MemorySystem(self.config, policy=placement)
        self.caches: List[CacheModel] = [
            CacheModel(
                sets=self.config.l2_sets,
                assoc=self.config.l2_assoc,
                line_bytes=self.config.line_bytes,
                name=f"L2.cpu{cpu}",
            )
            for cpu in range(self.config.nprocs)
        ]
        self.directory = Directory(
            self.config, self.topology, self.memory, self.caches, self.stats,
            obs=self.obs, faults=self.faults,
        )
        # when link stats are on, coherence line movements attribute their
        # bytes to the same per-link counters as explicit transfers (the
        # two share one list, so conservation holds machine-wide)
        self.directory.link_bytes = self.network.link_bytes
        self.nodes: List[Node] = build_nodes(self.config)
        self.tracer = Tracer(enabled=trace)
        self._finish_ns: List[Optional[float]] = [None] * self.config.nprocs
        self._procs: List[Optional[Process]] = [None] * self.config.nprocs

    # -- program execution -------------------------------------------------------

    @property
    def nprocs(self) -> int:
        return self.config.nprocs

    def spawn_rank(self, rank: int, gen: Generator) -> Process:
        """Register the coroutine of one simulated CPU."""
        if not 0 <= rank < self.nprocs:
            raise ValueError(f"rank {rank} out of range [0, {self.nprocs})")
        if self._procs[rank] is not None:
            raise RuntimeError(f"rank {rank} already spawned")

        def wrapper() -> Generator:
            result = yield from gen
            self._finish_ns[rank] = self.engine.now
            return result

        proc = self.engine.spawn(wrapper(), name=f"rank{rank}")
        self._procs[rank] = proc
        return proc

    def run(self) -> float:
        """Advance virtual time until all ranks complete; returns wall ns."""
        self.engine.run()
        missing = [r for r, t in enumerate(self._finish_ns) if t is None and self._procs[r] is not None]
        if missing:  # pragma: no cover - engine.run would have raised Deadlock
            raise RuntimeError(f"ranks did not finish: {missing}")
        if self.network.link_bytes is not None:
            # snapshot per-link contention counters onto the stats object so
            # harness/obs consumers see them without holding the machine
            self.stats.links = self.network.link_stats()
        return self.elapsed_ns()

    def elapsed_ns(self) -> float:
        """Parallel wall time: the latest rank completion."""
        times = [t for t in self._finish_ns if t is not None]
        return max(times) if times else self.engine.now

    def rank_finish_ns(self, rank: int) -> float:
        t = self._finish_ns[rank]
        if t is None:
            raise RuntimeError(f"rank {rank} has not finished")
        return t

    def results(self) -> List[object]:
        """Per-rank program return values."""
        return [p.result if p is not None else None for p in self._procs]

    def describe(self) -> str:
        text = self.topology.describe() + f", placement={self.memory.policy}"
        if self.profile is not None:
            text += f", profile={self.profile.name}"
        return text
