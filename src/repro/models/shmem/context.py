"""SHMEM context: puts, gets, quiet/fence, barrier_all, and collectives.

Completion semantics follow the SGI library:

* ``put`` returns as soon as the source data is handed to the network
  (the local buffer is reusable); delivery is asynchronous.  ``quiet``
  blocks until every outstanding put of this rank is globally visible.
* ``get`` is blocking: a small request travels to the target and the data
  travels back.
* ``barrier_all`` implies ``quiet`` on every rank (as the standard
  requires), so after a barrier all previously issued puts are visible.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional, Tuple

import numpy as np

from repro.faults import FaultRecoveryError
from repro.machine.machine import Machine
from repro.models.base import BaseContext
from repro.models.shmem.symmetric import SymmetricArray, SymmetricHeap
from repro.sim.engine import AllOf, Delay, Event, WaitEvent

__all__ = ["ShmemWorld", "ShmemContext"]

_REQUEST_BYTES = 64  # wire size of a get request / atomic op descriptor


class _BarrierState:
    """Centralised sense-reversing barrier shared by all ranks."""

    def __init__(self, machine: Machine, nprocs: int):
        self.machine = machine
        self.nprocs = nprocs
        self.count = 0
        self.release: Event = machine.engine.event(name="shmem-barrier")
        self.generation = 0

    def arrive(self) -> Tuple[Event, bool]:
        """Returns (release_event, is_last)."""
        self.count += 1
        if self.count == self.nprocs:
            self.count = 0
            release = self.release
            self.release = self.machine.engine.event(
                name=f"shmem-barrier:{self.generation + 1}"
            )
            self.generation += 1
            return release, True
        return self.release, False


class ShmemWorld:
    """Shared state of one SHMEM job: heap, barrier, signal mailboxes."""

    def __init__(self, machine: Machine, nprocs: int):
        self.machine = machine
        self.nprocs = nprocs
        self.heap = SymmetricHeap(machine, nprocs)
        self.barrier = _BarrierState(machine, nprocs)
        # signal mailboxes for collective internals: (dst, tag) -> Event
        self._signals: dict = {}
        self._lock_owner: dict = {}
        self._lock_queue: dict = {}

    def contexts(self) -> List["ShmemContext"]:
        return [ShmemContext(self.machine, rank, self.nprocs, self) for rank in range(self.nprocs)]

    # signal channel used by collective algorithms (models a put + flag spin)
    def signal(self, dst: int, tag: Any, value: Any) -> None:
        key = (dst, tag)
        ev = self._signals.pop(key, None)
        if ev is not None:
            ev.fire(value)
        else:
            done = self.machine.engine.event(name=f"sig:{key}")
            done.fire(value)
            self._signals[key] = done

    def wait_signal(self, dst: int, tag: Any) -> Event:
        key = (dst, tag)
        ev = self._signals.get(key)
        if ev is not None and ev.fired:
            del self._signals[key]
            return ev
        if ev is None:
            ev = self.machine.engine.event(name=f"sig:{key}")
            self._signals[key] = ev
        return ev


class ShmemContext(BaseContext):
    """The per-rank SHMEM handle.

    One-sided data movement (:meth:`put`, :meth:`get`, :meth:`iput`,
    :meth:`iget`), remote atomics (:meth:`atomic_fetch_add`,
    :meth:`atomic_cswap`, :meth:`atomic_finc`), distributed locks,
    ordering (:meth:`quiet`, :meth:`fence`), :meth:`barrier_all` and
    the SGI collective suite.  All methods are generators — drive them
    with ``yield from`` inside a rank program.

    When the machine's fault plane is active every remote operation
    becomes *delivery-verified*: puts wait for a small acknowledgement
    from the target and retransmit on loss, so an outstanding put's
    completion event only fires once the data is really there — which
    is exactly what makes :meth:`quiet`/:meth:`fence` (and therefore
    :meth:`barrier_all`) honest under message loss.  Gets and atomics
    retry their request/response round trips the same way (see
    :meth:`_with_retries`).  With the plane off the protocol is
    bit-identical to the ack-free fault-free model.
    """

    model_name = "shmem"

    def __init__(self, machine: Machine, rank: int, nprocs: int, world: ShmemWorld):
        super().__init__(machine, rank, nprocs)
        self.world = world
        self.cfg = machine.config
        self._outstanding: List[Event] = []
        self._coll_seq = 0
        # what issuing a put or an iput costs, as one shared request
        self._op_delay = Delay(self.cfg.shmem_op_ns)

    # -- loss recovery -------------------------------------------------------

    def _with_retries(self, legs, what: str, peer: int, nbytes: int) -> Generator:
        """Run a sequence of wire legs, retrying the lot until all deliver.

        ``legs`` is a list of ``(src_node, dst_node, leg_bytes)`` transfers
        that together form one logical operation (e.g. put data + ack, or
        get request + response).  If any leg is dropped by the fault plane
        the whole sequence is retransmitted after an exponentially
        backed-off timeout — the initiator cannot tell *which* leg died,
        only that no acknowledgement came back.  Raises
        :class:`FaultRecoveryError` once ``max_retries`` is exhausted.
        """
        net = self.machine.network.transfer
        ok = True
        for src_node, dst_node, leg_bytes in legs:
            delivered = yield from net(src_node, dst_node, leg_bytes)
            ok = ok and delivered
        if ok:
            return
        faults = self.machine.faults
        timeout = faults.profile.retry_timeout_ns
        for attempt in range(1, faults.profile.max_retries + 1):
            yield Delay(timeout)
            faults.note_retry("shmem", timeout)
            if self._obs.enabled:
                self._obs.emit(
                    "retry", self.now, self.rank, peer, nbytes,
                    attrs={
                        "model": "shmem",
                        "attempt": attempt,
                        "what": what,
                        "wait_ns": timeout,
                    },
                )
            timeout *= faults.profile.retry_backoff
            ok = True
            for src_node, dst_node, leg_bytes in legs:
                delivered = yield from net(src_node, dst_node, leg_bytes)
                ok = ok and delivered
            if ok:
                return
        raise FaultRecoveryError(
            f"shmem: {what} {self.rank}->{peer} ({nbytes} B) undeliverable "
            f"after {faults.profile.max_retries} retransmissions"
        )

    # -- symmetric heap ------------------------------------------------------

    def salloc(self, name: str, shape, dtype=np.float64) -> SymmetricArray:
        """Symmetric allocation (must be called by every rank, same args)."""
        return self.world.heap.allocate(name, tuple(np.atleast_1d(shape)), dtype)

    # -- one-sided data movement -----------------------------------------------

    def put(
        self,
        sym: SymmetricArray,
        target_rank: int,
        data: np.ndarray,
        offset: int = 0,
    ) -> Generator:
        """Write ``data`` into ``sym`` on ``target_rank`` at ``offset``.

        Returns when the local buffer is reusable; use :meth:`quiet` or a
        barrier before relying on remote visibility.
        """
        if not 0 <= target_rank < self.nprocs:
            raise ValueError(f"bad target rank {target_rank}")
        data = np.ascontiguousarray(data, dtype=sym.dtype)
        if data.ndim != 1:
            data = data.reshape(-1)
        count = data.size
        dest = sym.flat[target_rank]
        if offset < 0 or offset + count > dest.size:
            raise IndexError(
                f"put of {count} elems at offset {offset} overflows {sym.name!r}"
                f" (size {dest.size})"
            )
        nbytes = count * sym.itemsize
        self.stats.puts += 1
        self.stats.put_bytes += nbytes
        if self._obs.enabled:
            self._obs.emit(
                "put", self.now, self.rank, target_rank, nbytes,
                attrs={"sym": sym.name, "lo": offset, "hi": offset + count},
            )
        cfg = self.cfg
        self._charge("comm", cfg.shmem_op_ns)
        yield self._op_delay
        snapshot = data.copy()  # source buffer reusable after return
        if target_rank == self.rank:
            copy_ns = nbytes / cfg.shmem_copy_bpns
            self._charge("comm", copy_ns)
            yield Delay(copy_ns)
            dest[offset : offset + count] = snapshot
            if self._obs.enabled:
                self._obs.emit(
                    "put_done", self.now, self.rank, self.rank, nbytes,
                    attrs={"sym": sym.name, "lo": offset, "hi": offset + count},
                )
            return
        engine = self.machine.engine
        done = Event(engine, "shmem-put")
        self._outstanding.append(done)
        # timer path: deliver by network callback instead of spawning a
        # per-put coroutine; transfer_async keeps spawn-slot seq parity, so
        # the simulated timeline is bit-identical (see Network.transfer_async)
        arg = (sym, target_rank, snapshot, offset, done)
        if not self.machine.network.transfer_async(
            self.node, target_rank // cfg.cpus_per_node, nbytes, self._put_delivered, arg
        ):
            engine.spawn(
                self._verified_transfer("put", target_rank, nbytes, self._put_delivered, arg),
                name=f"shmem-put:{self.rank}->{target_rank}",
            )

    def _put_delivered(self, arg) -> None:
        """Write a delivered put into the target's copy and complete it."""
        sym, target_rank, snapshot, offset, done = arg
        count = snapshot.size
        sym.flat[target_rank][offset : offset + count] = snapshot
        if self._obs.enabled:
            self._obs.emit(
                "put_done", self.now, self.rank, target_rank, int(snapshot.nbytes),
                attrs={"sym": sym.name, "lo": offset, "hi": offset + count},
            )
        done.fire()

    def _verified_transfer(
        self, what: str, target_rank: int, nbytes: int, deliver, arg
    ) -> Generator:
        """Spawned put/iput transfer, for a machine whose fault plane is active.

        Delivery-verified: data leg + ack leg, retried on loss, so the
        put's completion event (and hence quiet/fence) means the data
        arrived.  Then ``deliver(arg)``, as ``transfer_async`` would.
        """
        target_node = self.cfg.node_of_cpu(target_rank)
        yield from self._with_retries(
            [
                (self.node, target_node, nbytes),
                (target_node, self.node, self.machine.faults.profile.ack_bytes),
            ],
            what, target_rank, nbytes,
        )
        deliver(arg)

    def get(
        self,
        sym: SymmetricArray,
        source_rank: int,
        offset: int = 0,
        count: Optional[int] = None,
    ) -> Generator:
        """Blocking read of ``count`` elements from ``sym`` on ``source_rank``."""
        if not 0 <= source_rank < self.nprocs:
            raise ValueError(f"bad source rank {source_rank}")
        flat = sym.flat[source_rank]
        if count is None:
            count = flat.size - offset
        if offset < 0 or offset + count > flat.size:
            raise IndexError(
                f"get of {count} elems at offset {offset} overflows {sym.name!r}"
            )
        nbytes = count * sym.itemsize
        self.stats.gets += 1
        self.stats.get_bytes += nbytes
        t_issue = self.now
        yield from self.charged_delay("comm", self.cfg.shmem_op_ns)
        if source_rank != self.rank:
            t0 = self.now
            src_node = self.cfg.node_of_cpu(source_rank)
            if self.machine.faults.enabled:
                yield from self._with_retries(
                    [
                        (self.node, src_node, _REQUEST_BYTES),
                        (src_node, self.node, nbytes),
                    ],
                    "get", source_rank, nbytes,
                )
            else:
                yield from self.machine.network.transfer(self.node, src_node, _REQUEST_BYTES)
                yield from self.machine.network.transfer(src_node, self.node, nbytes)
            self._charge("comm", self.now - t0)
        else:
            yield from self.charged_delay("comm", nbytes / self.cfg.shmem_copy_bpns)
        if self._obs.enabled:
            # flow convention: src = the rank whose copy supplied the data
            self._obs.emit(
                "get", t_issue, source_rank, self.rank, nbytes,
                dur=self.now - t_issue,
                attrs={"sym": sym.name, "lo": offset, "hi": offset + count},
            )
        return flat[offset : offset + count].copy()

    def quiet(self) -> Generator:
        """Block until all outstanding puts from this rank are delivered."""
        pending = [ev for ev in self._outstanding if not ev.fired]
        self._outstanding.clear()
        t0 = self.now
        if pending:
            yield AllOf(pending)
            self._charge("comm", self.now - t0)
        if self._obs.enabled:
            self._obs.emit(
                "fence", t0, self.rank, dur=self.now - t0, attrs={"op": "quiet"}
            )

    def fence(self) -> Generator:
        """Order puts to each target (same-cost as quiet in this model)."""
        yield from self.quiet()

    # -- synchronisation ------------------------------------------------------

    def barrier_all(self) -> Generator:
        """Global barrier (implies quiet), dissemination-cost model."""
        yield from self.quiet()
        t0 = self.now
        # all ranks of one episode capture the same generation: the counter
        # only advances when the last arriver shows up, after this read
        gen = self.world.barrier.generation
        release, is_last = self.world.barrier.arrive()
        if is_last:
            # the dissemination rounds everyone pays after the last arrival
            rounds = max(1, (self.nprocs - 1).bit_length()) if self.nprocs > 1 else 0
            stage_ns = self.cfg.shmem_op_ns + self.machine.network.pipe_ns(
                0, min(1, self.cfg.nnodes - 1), _REQUEST_BYTES
            )
            yield Delay(rounds * stage_ns)
            release.fire()
        else:
            yield WaitEvent(release)
        self.stats.sync_ns += self.now - t0
        if self._obs.enabled:
            self._obs.emit(
                "barrier", t0, self.rank, dur=self.now - t0,
                attrs={"gen": gen, "name": "all"},
            )

    # -- atomics & locks (implemented in atomics.py) -------------------------------

    def atomic_fetch_add(self, sym: SymmetricArray, target_rank: int, index: int, value) -> Generator:
        from repro.models.shmem import atomics

        result = yield from atomics.fetch_add(self, sym, target_rank, index, value)
        return result

    def atomic_cswap(self, sym: SymmetricArray, target_rank: int, index: int, cond, value) -> Generator:
        from repro.models.shmem import atomics

        result = yield from atomics.cswap(self, sym, target_rank, index, cond, value)
        return result

    def set_lock(self, name: str) -> Generator:
        from repro.models.shmem import atomics

        yield from atomics.set_lock(self, name)

    def clear_lock(self, name: str) -> Generator:
        from repro.models.shmem import atomics

        yield from atomics.clear_lock(self, name)

    # -- collectives (implemented in collectives.py) ---------------------------------

    def _next_coll_tag(self) -> int:
        self._coll_seq += 1
        return self._coll_seq

    def broadcast(self, value: Any, root: int = 0) -> Generator:
        from repro.models.shmem import collectives

        result = yield from collectives.broadcast(self, value, root)
        return result

    def collect(self, value: Any) -> Generator:
        from repro.models.shmem import collectives

        result = yield from collectives.collect(self, value)
        return result

    def to_all(self, value: Any, op=None) -> Generator:
        from repro.models.shmem import collectives

        result = yield from collectives.to_all(self, value, op)
        return result

    def sum_to_all(self, value: Any) -> Generator:
        result = yield from self.to_all(value, None)
        return result

    def max_to_all(self, value: Any) -> Generator:
        result = yield from self.to_all(value, max)
        return result

    def min_to_all(self, value: Any) -> Generator:
        result = yield from self.to_all(value, min)
        return result

    # -- strided transfers (shmem_iput / shmem_iget) -----------------------------

    def iput(
        self,
        sym: SymmetricArray,
        target_rank: int,
        data: np.ndarray,
        target_stride: int,
        offset: int = 0,
    ) -> Generator:
        """Strided put: element ``i`` lands at ``offset + i*target_stride``.

        Models ``shmem_iput``: same completion semantics as :meth:`put`
        (local buffer reusable on return; ``quiet`` for remote visibility),
        but the non-unit-stride transfer pays the full element count as
        separate line-sized writes (no large-message pipelining).
        """
        if target_stride < 1:
            raise ValueError(f"target_stride must be >= 1, got {target_stride}")
        if target_stride == 1:
            yield from self.put(sym, target_rank, data, offset=offset)
            return
        data = np.ascontiguousarray(data, dtype=sym.dtype)
        count = int(data.size)
        flat = sym.flat[target_rank]
        last = offset + (count - 1) * target_stride if count else offset
        if offset < 0 or last >= flat.size:
            raise IndexError(
                f"iput of {count} elems stride {target_stride} at {offset} "
                f"overflows {sym.name!r} (size {flat.size})"
            )
        self.stats.puts += 1
        self.stats.put_bytes += count * sym.itemsize
        if self._obs.enabled:
            self._obs.emit(
                "put", self.now, self.rank, target_rank, count * sym.itemsize,
                attrs={"sym": sym.name, "lo": offset, "hi": last + 1,
                       "stride": target_stride},
            )
        self._charge("comm", self.cfg.shmem_op_ns)
        yield self._op_delay
        snapshot = data.copy()
        indices = offset + np.arange(count) * target_stride
        # strided remote stores: one line-granular transfer per element
        nbytes = count * self.cfg.line_bytes
        if target_rank == self.rank:
            yield from self.charged_delay("comm", count * sym.itemsize / self.cfg.shmem_copy_bpns)
            flat[indices] = snapshot.reshape(-1)
            if self._obs.enabled:
                self._obs.emit(
                    "put_done", self.now, self.rank, self.rank, count * sym.itemsize,
                    attrs={"sym": sym.name, "lo": offset, "hi": last + 1},
                )
            return
        done = self.machine.engine.event(name=f"iput:{self.rank}->{target_rank}")
        self._outstanding.append(done)
        arg = (sym, target_rank, snapshot, indices, done)
        if not self.machine.network.transfer_async(
            self.node, self.cfg.node_of_cpu(target_rank), nbytes, self._iput_delivered, arg
        ):
            self.machine.engine.spawn(
                self._verified_transfer("iput", target_rank, nbytes, self._iput_delivered, arg),
                name=f"shmem-iput:{self.rank}->{target_rank}",
            )

    def _iput_delivered(self, arg) -> None:
        """Write a delivered strided put into the target's copy and complete it."""
        sym, target_rank, snapshot, indices, done = arg
        sym.flat[target_rank][indices] = snapshot.reshape(-1)
        if self._obs.enabled:
            self._obs.emit(
                "put_done", self.now, self.rank, target_rank,
                int(snapshot.size) * sym.itemsize,
                attrs={"sym": sym.name, "lo": int(indices[0]) if indices.size else 0,
                       "hi": (int(indices[-1]) + 1) if indices.size else 0},
            )
        done.fire()

    def iget(
        self,
        sym: SymmetricArray,
        source_rank: int,
        source_stride: int,
        count: int,
        offset: int = 0,
    ) -> Generator:
        """Strided blocking get of ``count`` elements (``shmem_iget``)."""
        if source_stride < 1 or count < 0:
            raise ValueError(f"bad iget args stride={source_stride} count={count}")
        flat = sym.flat[source_rank]
        last = offset + (count - 1) * source_stride if count else offset
        if offset < 0 or (count and last >= flat.size):
            raise IndexError(
                f"iget of {count} elems stride {source_stride} at {offset} "
                f"overflows {sym.name!r}"
            )
        self.stats.gets += 1
        self.stats.get_bytes += count * sym.itemsize
        t_issue = self.now
        yield from self.charged_delay("comm", self.cfg.shmem_op_ns)
        indices = offset + np.arange(count) * source_stride
        if source_rank != self.rank:
            t0 = self.now
            src_node = self.cfg.node_of_cpu(source_rank)
            wire_bytes = count * self.cfg.line_bytes
            if self.machine.faults.enabled:
                yield from self._with_retries(
                    [
                        (self.node, src_node, _REQUEST_BYTES),
                        (src_node, self.node, wire_bytes),
                    ],
                    "iget", source_rank, wire_bytes,
                )
            else:
                yield from self.machine.network.transfer(self.node, src_node, _REQUEST_BYTES)
                yield from self.machine.network.transfer(src_node, self.node, wire_bytes)
            self._charge("comm", self.now - t0)
        else:
            yield from self.charged_delay(
                "comm", count * sym.itemsize / self.cfg.shmem_copy_bpns
            )
        if self._obs.enabled:
            self._obs.emit(
                "get", t_issue, source_rank, self.rank, count * sym.itemsize,
                dur=self.now - t_issue,
                attrs={"sym": sym.name, "lo": offset, "hi": last + 1,
                       "stride": source_stride},
            )
        return flat[indices].copy()

    def atomic_finc(self, sym: SymmetricArray, target_rank: int, index: int) -> Generator:
        """Fetch-and-increment (``shmem_finc``); returns the old value."""
        old = yield from self.atomic_fetch_add(sym, target_rank, index, 1)
        return old
