"""SAS context: shared arrays, charged memory accesses, locks, barriers.

Every ``sread``/``swrite`` walks the touched cache lines through this CPU's
L2 model and the directory, accumulating the protocol latency, then suspends
for that long (charged to the *stall* category — under CC-SAS,
"communication" is invisible memory-stall time, which is exactly how the
paper's breakdowns report it).
"""

from __future__ import annotations

import operator
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence

import numpy as np

from repro.machine.directory import TRANSACTION_KINDS
from repro.machine.machine import Machine
from repro.models.base import BaseContext
from repro.models.sas.shared import SharedArray
from repro.sim.engine import Delay, Event, WaitEvent

__all__ = ["SasWorld", "SasContext"]

#: below this many lines the scalar loop beats the NumPy batch setup cost
#: (sync primitives touch 1-2 lines; both paths are bit-identical anyway)
_BATCH_MIN = 16


class SasWorld:
    """Shared state of one SAS job: the heap, locks, barrier, scratch."""

    def __init__(self, machine: Machine, nprocs: int):
        self.machine = machine
        self.nprocs = nprocs
        self.heap: Dict[str, SharedArray] = {}
        self._locks: Dict[str, Optional[int]] = {}
        self._lock_queues: Dict[str, List] = {}
        # centralized barrier: counter + sense words live on node 0
        self.barrier_words = SharedArray("__barrier", machine, (2,), np.int64, place=0)
        self._barrier_count = 0
        self._barrier_release: Event = machine.engine.event(name="sas-barrier")
        #: completed global-barrier episodes (captured at arrival by tracing)
        self.barrier_epoch = 0
        self._group_epochs: Dict[Any, int] = {}
        self._reduce_slots: List[Any] = [None] * nprocs
        self._reduce_scratch: Dict[int, SharedArray] = {}
        self._reduce_result: Any = None
        # group barriers: name -> [count, release_event]
        self._group_barriers: Dict[Any, List] = {}

    def allocate(
        self, name: str, shape, dtype, place: Optional[int] = None
    ) -> SharedArray:
        arr = self.heap.get(name)
        if arr is None:
            arr = SharedArray(name, self.machine, tuple(np.atleast_1d(shape)), dtype, place)
            self.heap[name] = arr
        else:
            if arr.shape != tuple(np.atleast_1d(shape)) or arr.data.dtype != np.dtype(dtype):
                raise ValueError(f"conflicting re-allocation of shared array {name!r}")
        return arr

    def scratch_for(self, slot_bytes: int) -> SharedArray:
        """Reduction scratch region: one cache-line-padded slot per rank."""
        line = self.machine.config.line_bytes
        padded = max(-(-slot_bytes // line) * line, line)
        arr = self._reduce_scratch.get(padded)
        if arr is None:
            arr = SharedArray(
                f"__reduce{padded}", self.machine, (self.nprocs * padded,), np.uint8
            )
            self._reduce_scratch[padded] = arr
        return arr

    def contexts(self) -> List["SasContext"]:
        return [SasContext(self.machine, rank, self.nprocs, self) for rank in range(self.nprocs)]


class SasContext(BaseContext):
    """The per-rank shared-address-space handle.

    Provides charged reads/writes over :class:`SharedArray` heaps
    (:meth:`sread`, :meth:`swrite`, scattered ``*_idx`` variants and the
    raw :meth:`stouch` chargers), named locks, global/group barriers and
    :meth:`reduce_all`.  All methods are generators — drive them with
    ``yield from`` inside a rank program.

    Under fault injection the directory may NACK transactions that visit
    it (misses and ownership upgrades); the cache controller retries in
    bounded hardware time (``nack_retry_ns`` per bounce, at most
    ``max_nacks`` bounces), which surfaces here as extra charged latency
    on the affected access — no API change, exactly like real CC-NUMA
    hardware.  With the fault plane off the cost model is bit-identical
    to the NACK-free one.
    """

    model_name = "sas"

    def __init__(self, machine: Machine, rank: int, nprocs: int, world: SasWorld):
        super().__init__(machine, rank, nprocs)
        self.world = world
        self.cfg = machine.config

    # -- allocation -----------------------------------------------------------

    def shalloc(self, name: str, shape, dtype=np.float64, place: Optional[int] = None) -> SharedArray:
        """Get-or-create a shared array (every rank calls with same args)."""
        return self.world.allocate(name, shape, dtype, place)

    # -- charged memory access ---------------------------------------------------

    def _touch_lines(
        self,
        lines,
        write: bool,
        coherence_only: bool = False,
        label: Optional[str] = None,
        span: Optional[tuple] = None,
    ) -> float:
        """Run lines through cache+directory; returns total latency.

        With ``coherence_only=True`` (application data accesses), hits and
        local misses charge nothing extra: that cost is already inside the
        application's per-work-unit compute constants — identically to how
        the MPI/SHMEM programs account their private-array accesses — so
        only the *coherence* costs (remote, dirty, upgrade) remain as the
        SAS model's distinguishing overhead.  Synchronisation primitives
        (locks, barriers, work queues) always charge the full latency.

        When tracing, one aggregated ``coherence`` event is emitted per
        call (``label``/``span`` name the touched array and element range);
        the scalar protocol path is used so per-line kinds and home nodes
        can be collected — it is bit-identical in simulated nanoseconds to
        the batched path, so traced and untraced runs agree exactly.
        """
        directory = self.machine.directory
        stats = self.stats
        now = self.now
        traced = self._obs.enabled
        if not traced and isinstance(lines, np.ndarray) and lines.size >= _BATCH_MIN:
            total, counts = directory.transaction_batch(
                self.rank, lines, write, now, coherence_only=coherence_only
            )
            stats.l2_hits += counts["hit"]
            stats.local_misses += counts["local"]
            stats.remote_misses += counts["remote"] + counts["upgrade"]
            stats.dirty_misses += counts["dirty"]
            stats.lines_touched += int(lines.size)
            return total
        if traced:
            kind_counts = dict.fromkeys(TRANSACTION_KINDS, 0)
            homes: Dict[str, int] = {}
            memory = self.machine.memory
            line_bytes = self.cfg.line_bytes
            nlines = 0
            nacks_before = (
                self.machine.faults.counters["nack"]
                if self.machine.faults.enabled else 0
            )
        if isinstance(lines, np.ndarray):
            lines = lines.tolist()  # Python ints for the scalar protocol path
        total = 0.0
        for line in lines:
            latency, kind = directory.transaction(self.rank, line, write, now + total)
            if kind == "hit":
                stats.l2_hits += 1
                if coherence_only:
                    latency = 0.0
            elif kind == "local":
                stats.local_misses += 1
                if coherence_only:
                    latency = 0.0
            elif kind == "remote":
                stats.remote_misses += 1
            elif kind == "dirty":
                stats.dirty_misses += 1
            else:  # upgrade
                stats.remote_misses += 1
            total += latency
            stats.lines_touched += 1
            if traced:
                nlines += 1
                kind_counts[kind] += 1
                if kind == "remote" or kind == "dirty":
                    # idempotent after the transaction assigned the home
                    home = memory.home_of_line(line, line_bytes, self.node)
                    key = str(home)
                    homes[key] = homes.get(key, 0) + 1
        if traced:
            moved = kind_counts["remote"] + kind_counts["dirty"]
            attrs: Dict[str, Any] = {"write": bool(write), "lines": nlines}
            if label is not None:
                attrs["label"] = label
            if span is not None:
                attrs["lo"] = int(span[0])
                attrs["hi"] = int(span[1])
            attrs.update(kind_counts)
            if homes:
                attrs["homes"] = homes
            self._obs.emit(
                "coherence", now, self.rank, -1, moved * self.cfg.line_bytes,
                dur=total, attrs=attrs,
            )
            if self.machine.faults.enabled:
                bounces = self.machine.faults.counters["nack"] - nacks_before
                if bounces:
                    nack_attrs: Dict[str, Any] = {"bounces": bounces}
                    if label is not None:
                        nack_attrs["label"] = label
                    self._obs.emit(
                        "fault_nack", now, self.rank, -1,
                        dur=bounces * self.machine.faults.profile.nack_retry_ns,
                        attrs=nack_attrs,
                    )
        return total

    def stouch(self, arr: SharedArray, lo: int = 0, hi: Optional[int] = None, write: bool = False) -> Generator:
        """Charge the cost of touching flat range ``[lo, hi)`` of ``arr``.

        Use this when application code manipulates ``arr.data`` directly
        (e.g. a vectorised NumPy kernel) and the access pattern is a range.
        """
        n = arr.size
        if hi is None:
            hi = n
        if not 0 <= lo <= hi <= n:
            raise IndexError(f"bad touch range [{lo}, {hi}) for {arr.name!r} of size {n}")
        if write:
            self.stats.stores += hi - lo
        else:
            self.stats.loads += hi - lo
        ns = self._touch_lines(
            arr.line_array(lo, hi), write, coherence_only=True,
            label=arr.name, span=(lo, hi),
        )
        yield from self.charged_delay("stall", ns)

    def stouch_idx(self, arr: SharedArray, indices: Sequence[int], write: bool = False) -> Generator:
        """Charge scattered (indexed) accesses — the irregular-app pattern.

        Every index must lie in ``[0, arr.size)``; otherwise an
        ``IndexError`` names the array and the indices' range before any
        counter moves.
        """
        indices = np.asarray(indices, dtype=np.int64)
        span = (0, 0)
        if indices.size:
            # one max over the unsigned view checks both ends: a negative
            # index reads as a value past any array size
            bad = int(indices.view(np.uint64).max()) >= arr.size
            if bad or self._obs.enabled:
                span = (int(indices.min()), int(indices.max()) + 1)
            if bad:
                raise IndexError(
                    f"touch indices [{span[0]}, {span[1] - 1}] out of range "
                    f"for {arr.name!r} of size {arr.size}"
                )
        if write:
            self.stats.stores += int(indices.size)
        else:
            self.stats.loads += int(indices.size)
        # dedupe consecutive same-line touches cheaply while preserving order
        lines = arr.lines_of(indices)
        if lines.size > 1:
            keep = np.empty(lines.size, dtype=bool)
            keep[0] = True
            np.not_equal(lines[1:], lines[:-1], out=keep[1:])
            lines = lines[keep]
        ns = self._touch_lines(
            lines, write, coherence_only=True, label=arr.name, span=span
        )
        yield from self.charged_delay("stall", ns)

    def sread(self, arr: SharedArray, lo: int = 0, hi: Optional[int] = None) -> Generator:
        """Charged read; returns a *copy* of the flat slice ``[lo, hi)``."""
        if hi is None:
            hi = arr.size
        yield from self.stouch(arr, lo, hi, write=False)
        return arr.data.reshape(-1)[lo:hi].copy()

    def swrite(self, arr: SharedArray, values, lo: int = 0) -> Generator:
        """Charged write of ``values`` into the flat slice starting at ``lo``."""
        values = np.asarray(values, dtype=arr.data.dtype)
        hi = lo + values.size
        yield from self.stouch(arr, lo, hi, write=True)
        arr.data.reshape(-1)[lo:hi] = values.reshape(-1)

    def sread_idx(self, arr: SharedArray, indices) -> Generator:
        """Charged gather: returns a copy of ``arr`` at scattered indices."""
        indices = np.asarray(indices, dtype=np.int64)
        yield from self.stouch_idx(arr, indices, write=False)
        return arr.data.reshape(-1)[indices].copy()

    def swrite_idx(self, arr: SharedArray, indices, values) -> Generator:
        """Charged scatter of ``values`` into ``arr`` at scattered indices."""
        indices = np.asarray(indices, dtype=np.int64)
        values = np.asarray(values, dtype=arr.data.dtype)
        if values.size != indices.size:
            raise ValueError(
                f"scatter size mismatch: {indices.size} indices, {values.size} values"
            )
        yield from self.stouch_idx(arr, indices, write=True)
        arr.data.reshape(-1)[indices] = values.reshape(-1)

    # -- locks ---------------------------------------------------------------------

    def lock(self, name: str) -> Generator:
        """Acquire a named lock (LL/SC pair on the lock word + FIFO queue)."""
        t_issue = self.now
        yield from self.charged_delay("sync", self.cfg.lock_rmw_ns)
        world = self.world
        owner = world._locks.get(name)
        if owner is None:
            world._locks[name] = self.rank
        else:
            gate = self.machine.engine.event(name=f"sas-lock:{name}:{self.rank}")
            world._lock_queues.setdefault(name, []).append((self.rank, gate))
            t0 = self.now
            yield WaitEvent(gate)
            self.stats.sync_ns += self.now - t0
        if self._obs.enabled:
            self._obs.emit(
                "lock", t_issue, self.rank, dur=self.now - t_issue,
                attrs={"name": name, "op": "acquire"},
            )

    def unlock(self, name: str) -> Generator:
        if self.world._locks.get(name) != self.rank:
            raise RuntimeError(f"rank {self.rank} releasing lock {name!r} it does not hold")
        t_issue = self.now
        yield from self.charged_delay("sync", self.cfg.lock_rmw_ns)
        if self._obs.enabled:
            self._obs.emit(
                "lock", t_issue, self.rank, dur=self.now - t_issue,
                attrs={"name": name, "op": "release"},
            )
        queue = self.world._lock_queues.get(name)
        if queue:
            # direct handoff: ownership transfers before the waiter wakes, so
            # no third rank can sneak in at the same virtual instant
            next_rank, gate = queue.pop(0)
            self.world._locks[name] = next_rank
            gate.fire()
        else:
            self.world._locks.pop(name, None)

    # -- barrier ----------------------------------------------------------------------

    def barrier(self, kind: Optional[str] = None) -> Generator:
        """Global barrier.

        ``kind="central"`` is the naive centralised sense-reversing barrier:
        every arrival is an atomic increment of one shared counter word (the
        directory charges the queueing and invalidations that make it cost
        O(P) serialised transactions).  ``kind="tree"`` is the tuned
        combining-tree barrier (⌈log2 P⌉ stages of pairwise flag
        writes/reads).  The default comes from
        ``machine.config.derived["sas_barrier"]`` (``"tree"`` if unset) —
        experiment R-T7 ablates the two.
        """
        kind = kind or self.cfg.derived.get("sas_barrier", "tree")
        if kind == "central":
            yield from self._barrier_central()
        elif kind == "tree":
            yield from self._barrier_tree()
        else:
            raise ValueError(f"unknown barrier kind {kind!r}")

    def _barrier_central(self) -> Generator:
        world = self.world
        words = world.barrier_words
        t0 = self.now
        gen = world.barrier_epoch  # same for every rank of this episode
        # atomic increment on the counter word
        ns = self._touch_lines([words.line_of(0)], write=True)
        ns += self.cfg.lock_rmw_ns
        yield Delay(ns)
        world._barrier_count += 1
        if world._barrier_count == self.nprocs:
            world._barrier_count = 0
            world.barrier_epoch += 1
            release = world._barrier_release
            world._barrier_release = self.machine.engine.event(
                name=f"sas-barrier:{self.now}"
            )
            ns = self._touch_lines([words.line_of(1)], write=True)
            yield Delay(ns)
            release.fire()
        else:
            yield WaitEvent(world._barrier_release)
            # observe the flipped sense word (invalidation -> miss)
            ns = self._touch_lines([words.line_of(1)], write=False)
            yield Delay(ns)
        self.stats.sync_ns += self.now - t0
        if self._obs.enabled:
            self._obs.emit(
                "barrier", t0, self.rank, dur=self.now - t0,
                attrs={"gen": gen, "name": "all", "kind": "central"},
            )

    def barrier_group(self, name: Any, size: int) -> Generator:
        """Barrier over a named subgroup of ``size`` ranks.

        Every member calls with the same ``name`` and ``size`` (e.g. the
        CPUs of one node in a hybrid program).  Tree-cost model scaled to
        the group size.
        """
        if size < 1:
            raise ValueError(f"group size must be >= 1, got {size}")
        if size == 1:
            return
        world = self.world
        state = world._group_barriers.get(name)
        if state is None:
            state = [0, self.machine.engine.event(name=f"sas-gbar:{name}")]
            world._group_barriers[name] = state
        t0 = self.now
        gen = world._group_epochs.get(name, 0)
        state[0] += 1
        if state[0] == size:
            world._group_epochs[name] = gen + 1
            world._group_barriers[name] = [
                0,
                self.machine.engine.event(name=f"sas-gbar:{name}:{self.now}"),
            ]
            rounds = max((size - 1).bit_length(), 1)
            stage = self.cfg.lock_rmw_ns + self.cfg.local_mem_ns + 2 * self.cfg.remote_hop_ns
            yield Delay(rounds * stage)
            state[1].fire()
        else:
            yield WaitEvent(state[1])
        self.stats.sync_ns += self.now - t0
        if self._obs.enabled:
            self._obs.emit(
                "barrier", t0, self.rank, dur=self.now - t0,
                attrs={"gen": gen, "name": str(name), "kind": "group"},
            )

    def _barrier_tree(self) -> Generator:
        """Combining tree: stages overlap across CPUs instead of serialising."""
        world = self.world
        t0 = self.now
        gen = world.barrier_epoch  # same for every rank of this episode
        world._barrier_count += 1
        if world._barrier_count == self.nprocs:
            world._barrier_count = 0
            world.barrier_epoch += 1
            release = world._barrier_release
            world._barrier_release = self.machine.engine.event(
                name=f"sas-tree-barrier:{self.now}"
            )
            rounds = max((self.nprocs - 1).bit_length(), 1)
            stage = self.cfg.lock_rmw_ns + self.cfg.local_mem_ns + 2 * self.cfg.remote_hop_ns
            yield Delay(rounds * stage)
            release.fire()
        else:
            yield WaitEvent(world._barrier_release)
        self.stats.sync_ns += self.now - t0
        if self._obs.enabled:
            self._obs.emit(
                "barrier", t0, self.rank, dur=self.now - t0,
                attrs={"gen": gen, "name": "all", "kind": "tree"},
            )

    # -- reductions -------------------------------------------------------------------

    def reduce_all(self, value: Any, op: Optional[Callable] = None) -> Generator:
        """All-reduce through a shared scratch region (the SAS idiom).

        Each rank writes its contribution to a padded slot, rank 0 combines
        after a barrier, everyone reads the result after a second barrier.
        """
        fn: Callable = operator.add if op is None else op
        world = self.world
        if self.nprocs == 1:
            return value
        slot_bytes = int(np.asarray(value).nbytes) if not np.isscalar(value) else 8
        scratch = world.scratch_for(max(slot_bytes, 8))
        pad = scratch.size // self.nprocs
        world._reduce_slots[self.rank] = value
        yield from self.stouch(scratch, self.rank * pad, self.rank * pad + max(slot_bytes, 8), write=True)
        yield from self.barrier()
        if self.rank == 0:
            yield from self.stouch(scratch, 0, self.nprocs * pad, write=False)
            result = world._reduce_slots[0]
            for r in range(1, self.nprocs):
                result = fn(result, world._reduce_slots[r])
            world._reduce_result = result
            yield from self.stouch(scratch, 0, max(slot_bytes, 8), write=True)
        yield from self.barrier()
        if self.rank != 0:
            yield from self.stouch(scratch, 0, max(slot_bytes, 8), write=False)
        return world._reduce_result
