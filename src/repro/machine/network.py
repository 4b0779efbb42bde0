"""Contended interconnect: messages occupy the links of their route.

A transfer acquires every directed link on its (dimension-ordered) route in
path order, holds them all for the pipelined transfer time, then releases.
Because link acquisition order is strictly increasing in the global link
ranking (hub-out < cube dim 0 < cube dim 1 < ... < hub-in), circular waits
are impossible and the network cannot deadlock.

Cost of an uncontended transfer of ``n`` bytes over ``h`` router hops
(``d`` of them in deep hypercube dimensions, which exist only past 8
routers / 32 CPUs)::

    2*hub + h*router_hop + d*deep_hop_extra + n / link_bandwidth   (inter-node)
    n / intra_node_copy_bandwidth                                  (same node)

Contention appears as queueing delay on busy links.

Two implementations share these semantics.  :meth:`Network.transfer` is a
generator: every link of a free route is claimed inline (an uncontended
``Resource.acquire`` never yields) and the transfer sleeps once; a busy
link is waited for through ``Resource.acquire``.  Faulted transfers and
blocking callers (SHMEM ``get``, MPI rendezvous) use it.
:meth:`Network.transfer_async` runs the same claim sequence from engine
timers and calls the caller back on delivery: a busy link queues a
callback waiter in the same FIFO as blocked coroutines, which
``Resource.release`` resumes with the same single zero-delay entry.  Both
are bit-identical in simulated time and statistics, per-link queueing
included (``tests/golden/timelines.json``).
"""

from __future__ import annotations

from typing import Dict, Generator, List, Optional, Tuple

from repro.faults import FaultPlane
from repro.machine.config import MachineConfig
from repro.machine.stats import MachineStats
from repro.machine.topology import Topology
from repro.obs.events import EventLog
from repro.sim.engine import Delay, Engine
from repro.sim.resources import Resource

__all__ = ["Network"]


class Network:
    """The machine's interconnect: one FIFO resource per directed link."""

    def __init__(
        self,
        engine: Engine,
        topology: Topology,
        stats: MachineStats,
        obs: Optional[EventLog] = None,
        faults: Optional[FaultPlane] = None,
    ):
        self.engine = engine
        self.topology = topology
        self.config: MachineConfig = topology.config
        self.stats = stats
        self.obs = obs if obs is not None else EventLog()
        self.faults = faults if faults is not None else FaultPlane()
        self.link_resources: List[Resource] = [
            Resource(engine, capacity=1, name=repr(link))
            for link in topology.links
        ]
        # transfers whose whole route was free and claimed inline, on either
        # path (contended timer transfers are not counted)
        self.batch_fast_transfers = 0
        # transfers completed by an engine timer, contended ones included
        self.timer_fast_transfers = 0
        # per-link byte counters, allocated only when link stats are on
        # (derived["link_stats"] = "on") — the default pays nothing beyond
        # one is-None check per transfer
        self.link_bytes: Optional[List[int]] = (
            [0] * len(topology.links)
            if str(self.config.derived.get("link_stats", "off")).lower()
            in ("on", "1", "true")
            else None
        )
        # per-route (resources, router hops, static pipe ns, link indices) —
        # the hot-path view of the routing table
        self._route_cache: Dict[
            Tuple[int, int], Tuple[Tuple[Resource, ...], int, float, Tuple[int, ...]]
        ] = {}

    # -- cost helpers ---------------------------------------------------------

    def _route_entry(
        self, src_node: int, dst_node: int
    ) -> Tuple[Tuple[Resource, ...], int, float, Tuple[int, ...]]:
        key = (src_node, dst_node)
        entry = self._route_cache.get(key)
        if entry is None:
            info = self.topology.route_info(src_node, dst_node)
            entry = (
                tuple(self.link_resources[i] for i in info.links),
                info.hops,
                self.topology.route_static_ns(info),
                info.links,
            )
            self._route_cache[key] = entry
        return entry

    def pipe_ns(self, src_node: int, dst_node: int, nbytes: int) -> float:
        """Uncontended transfer time (used by analytic estimates and tests)."""
        if src_node == dst_node:
            return nbytes / self.config.intra_node_copy_bpns
        _, _, static_ns, _ = self._route_entry(src_node, dst_node)
        return static_ns + nbytes / self.config.link_bandwidth_bpns

    # -- the transfer primitive ---------------------------------------------------

    def transfer(self, src_node: int, dst_node: int, nbytes: int) -> Generator:
        """Generator: completes when the last byte arrives at ``dst_node``.

        Returns ``True`` when the payload was delivered.  With fault
        injection enabled the transfer may be dropped in flight (returns
        ``False``), stalled (a transient per-hop delay while the links are
        held), or duplicated (the links carry the same bytes twice); with
        the fault plane disabled it always returns ``True`` and is
        bit-identical to the fault-free model.
        """
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        self.stats.network_messages += 1
        t0 = self.engine.now if self.obs.enabled else 0.0
        if src_node == dst_node:
            yield Delay(nbytes / self.config.intra_node_copy_bpns)
            if self.obs.enabled:
                self.obs.emit(
                    "net", t0, src_node, dst_node, nbytes,
                    dur=self.engine.now - t0,
                )
            return True
        self.stats.network_bytes += nbytes
        resources, hops, static_ns, link_idxs = self._route_entry(src_node, dst_node)
        if self.link_bytes is not None:
            for i in link_idxs:
                self.link_bytes[i] += nbytes
        pipe_ns = static_ns + nbytes / self.config.link_bandwidth_bpns
        if not self.faults.enabled and all(
            r.in_use < r.capacity and not r._waiters for r in resources
        ):
            # batched fast path: every hop of the route is contention-free, so
            # claim the whole sequence inline (an uncontended acquire never
            # yields — see Resource.acquire) and sleep exactly once.  Releases
            # go through Resource.release so a waiter that arrived during the
            # transfer gets the same FIFO handoff as on the per-link path.
            self.batch_fast_transfers += 1
            for r in resources:
                r.total_acquires += 1
                r._account()
                r.in_use += 1
            try:
                yield Delay(pipe_ns)
            finally:
                for r in reversed(resources):
                    r.release()
            if self.obs.enabled:
                self.obs.emit(
                    "net", t0, src_node, dst_node, nbytes, dur=self.engine.now - t0
                )
            return True
        dropped = False
        extra_ns = 0.0
        duplicated = False
        if self.faults.enabled:
            dropped, extra_ns, duplicated = self.faults.link_verdict(
                src_node, dst_node, hops, self.engine.now, link_idxs
            )
        held: List[Resource] = []
        try:
            for res in resources:
                yield from res.acquire()
                held.append(res)
            yield Delay(pipe_ns + extra_ns)
            if duplicated:
                # the spurious copy follows back-to-back on the same route;
                # the receiver filters it, but the links pay for it
                self.stats.network_bytes += nbytes
                if self.link_bytes is not None:
                    for i in link_idxs:
                        self.link_bytes[i] += nbytes
                yield Delay(pipe_ns)
        finally:
            for res in reversed(held):
                res.release()
        if self.obs.enabled:
            self.obs.emit(
                "net", t0, src_node, dst_node, nbytes, dur=self.engine.now - t0
            )
            if dropped:
                self.obs.emit("fault_drop", t0, src_node, dst_node, nbytes)
            if duplicated:
                self.obs.emit("fault_dup", t0, src_node, dst_node, nbytes)
            if extra_ns > 0.0:
                self.obs.emit(
                    "fault_delay", t0, src_node, dst_node, nbytes,
                    dur=extra_ns,
                )
        return not dropped

    def transfer_async(
        self, src_node: int, dst_node: int, nbytes: int, on_delivered, arg
    ) -> bool:
        """Timer path: deliver ``on_delivered(arg)`` without a transfer coroutine.

        The transfer is one :class:`_Transfer` record, started by a
        zero-delay engine handoff (:meth:`_start_transfer`) that occupies
        exactly the seq slot an ``engine.spawn`` start entry of the
        caller's transfer generator would, so completion ties between
        concurrent transfers order identically either way.  At that slot
        the route's links are claimed in order; a busy link queues the
        record's continuation as a callback waiter in its FIFO, and
        :meth:`Resource.release` resumes the claim with the one
        zero-delay entry a blocked coroutine's wake would take.  Once the
        whole route is held, one arrival timer completes the transfer.
        Returns ``False`` without side effects when the caller must spawn
        its transfer generator instead, which fault injection needs.
        Either way the simulated timeline is bit-identical.
        """
        if self.faults.enabled:
            return False
        if nbytes < 0:
            raise ValueError(f"negative transfer size {nbytes}")
        engine = self.engine
        engine.timer_calls += 1
        engine.handoff((
            self._start_transfer,
            (_Transfer(src_node, dst_node, nbytes, on_delivered, arg, engine.now),),
        ))
        return True

    def _start_transfer(self, xfer: "_Transfer") -> None:
        """Start-slot leg of :meth:`transfer_async`, and its link-wait continuation.

        Claims the route's links from ``xfer.next`` on, the steps, counters
        and seqs of :meth:`transfer`'s per-link ``Resource.acquire`` loop.
        A busy link queues this method again with the record, and once the
        link is handed over the claim resumes at the next one.  One entry
        point for both keeps all of a timer transfer's host work inside its
        three timer legs, where a host-time tracer hooking them
        (``bench/trace.py``) finds it.
        """
        engine = self.engine
        now = engine.now
        resources = xfer.resources
        if resources is None:
            # the start slot
            stats = self.stats
            stats.network_messages += 1
            nbytes = xfer.nbytes
            if xfer.src == xfer.dst:
                self.batch_fast_transfers += 1
                self.timer_fast_transfers += 1
                engine.call_after(
                    nbytes / self.config.intra_node_copy_bpns, self._finish_local, (xfer,)
                )
                return
            stats.network_bytes += nbytes
            resources, _hops, xfer.static_ns, link_idxs = self._route_entry(
                xfer.src, xfer.dst
            )
            xfer.resources = resources
            if self.link_bytes is not None:
                link_bytes = self.link_bytes
                for i in link_idxs:
                    link_bytes[i] += nbytes
            k = 0
        else:
            # Resource.release just handed over link ``xfer.next``
            k = xfer.next
            resources[k].total_wait_ns += now - xfer.queued_at
            k += 1
        for k in range(k, len(resources)):
            r = resources[k]
            r.total_acquires += 1
            # a link has capacity 1, and a link nobody holds has no waiters
            if r.in_use:
                r.waited_acquires += 1
                xfer.next = k
                xfer.queued_at = now
                r._waiters.append((self._start_transfer, (xfer,)))
                return
            # claiming a free link adds no busy time
            r._last_change = now
            r.in_use = 1
        if xfer.queued_at is None:
            # every link was free at the start slot
            self.batch_fast_transfers += 1
        self.timer_fast_transfers += 1
        engine.call_after(
            xfer.static_ns + xfer.nbytes / self.config.link_bandwidth_bpns,
            self._finish_remote,
            (xfer,),
        )

    def _finish_local(self, xfer: "_Transfer") -> None:
        if self.obs.enabled:
            self._emit_net(xfer)
        xfer.on_delivered(xfer.arg)

    def _finish_remote(self, xfer: "_Transfer") -> None:
        # same completion order as the generator path: release the route
        # (FIFO handoff to any waiter that queued up mid-flight), then the
        # observation, then the delivery callback
        for r in reversed(xfer.resources):
            r.release()
        if self.obs.enabled:
            self._emit_net(xfer)
        xfer.on_delivered(xfer.arg)

    def _emit_net(self, xfer: "_Transfer") -> None:
        t0 = xfer.t0
        self.obs.emit(
            "net", t0, xfer.src, xfer.dst, xfer.nbytes, dur=self.engine.now - t0
        )

    def link_utilisations(self) -> List[float]:
        """Per-link utilisation over the run so far (diagnostics)."""
        horizon = max(self.engine.now, 1e-9)
        return [r.utilisation(horizon) for r in self.link_resources]

    def link_stats(self) -> List["LinkStats"]:
        """Per-link contention snapshot (requires ``derived["link_stats"]="on"``).

        One :class:`~repro.machine.stats.LinkStats` per directed link, keyed
        on the stable ``(kind, src, dst)`` link identity, covering the run so
        far: bytes carried, claims, claim waits, queued ns, busy ns, and the
        saturation fraction (busy time over elapsed time).  Raises
        ``RuntimeError`` when link stats were not enabled — the counters
        would silently read zero otherwise.
        """
        from repro.machine.stats import LinkStats

        if self.link_bytes is None:
            raise RuntimeError(
                'per-link stats are off; enable with derived["link_stats"] = "on" '
                "(CLI: run --link-stats)"
            )
        horizon = max(self.engine.now, 1e-9)
        plane = self.faults
        correlated = plane.link_drops is not None
        out: List[LinkStats] = []
        for i, (link, res, nbytes) in enumerate(
            zip(self.topology.links, self.link_resources, self.link_bytes)
        ):
            out.append(
                LinkStats(
                    kind=link.kind,
                    src=link.src,
                    dst=link.dst,
                    dim=link.dim,
                    bytes=nbytes,
                    acquires=res.total_acquires,
                    claim_waits=res.waited_acquires,
                    queued_ns=res.total_wait_ns,
                    busy_ns=res.busy_ns,
                    saturation=res.utilisation(horizon),
                    # fault-plane exposure: per-link burst counters under a
                    # correlated profile, zeros otherwise
                    fault_drops=plane.link_drops[i] if correlated else 0,
                    ge_bad=plane.link_ge_bad[i] if correlated else 0,
                    fault_stall_ns=plane.link_stall_ns[i] if correlated else 0.0,
                )
            )
        return out


class _Transfer:
    """One in-flight :meth:`Network.transfer_async` transfer.

    ``resources`` is ``None`` until the start slot resolves the route
    (and sets ``static_ns``); ``next`` is the link the claim waits on and
    ``queued_at`` when it began waiting (``None`` while no link has been
    busy).
    """

    __slots__ = (
        "src", "dst", "nbytes", "on_delivered", "arg", "t0",
        "resources", "static_ns", "next", "queued_at",
    )

    def __init__(self, src: int, dst: int, nbytes: int, on_delivered, arg, t0: float):
        self.src = src
        self.dst = dst
        self.nbytes = nbytes
        self.on_delivered = on_delivered
        self.arg = arg
        self.t0 = t0
        self.resources: Optional[Tuple[Resource, ...]] = None
        self.queued_at: Optional[float] = None
