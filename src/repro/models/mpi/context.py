"""MPI context: two-sided matching, eager/rendezvous protocols.

Matching preserves MPI's non-overtaking rule: messages are enqueued at their
destination in *send-initiation* order and receives scan that queue in
order, so two messages from the same sender with matching tags can never be
received out of order even if the simulated network reorders their arrival.
"""

from __future__ import annotations

import weakref
from typing import Any, Generator, List, Optional

from repro.faults import FaultRecoveryError
from repro.machine.machine import Machine
from repro.models.base import BaseContext
from repro.models.mpi.matchq import MatchQueue
from repro.models.mpi.requests import Request, Status, _copy_out, _fill_status
from repro.models.payload import checked_nbytes, nbytes_of
from repro.sim.engine import Delay, Event, Hop, SimError, WaitEvent

__all__ = ["ANY_SOURCE", "ANY_TAG", "MpiWorld", "MpiContext"]

ANY_SOURCE = -1
ANY_TAG = -1

_COLL_TAG_BASE = 1 << 20

# constant hot-path event names — per-message f-strings cost real host time
# at P=128 and only ever surface in deadlock diagnostics
_SEND_EVT = "send"
_RECV_EVT = "recv"


class _Msg:
    """In-flight message descriptor."""

    __slots__ = (
        "src",
        "dst",
        "tag",
        "payload",
        "nbytes",
        "eager",
        "seq",
        "arrived",
        "matched",
        "bound",
    )

    def __init__(self, src: int, dst: int, tag: int, payload: Any, nbytes: int, eager: bool):
        self.src = src
        self.dst = dst
        self.tag = tag
        self.payload = payload
        self.nbytes = nbytes
        self.eager = eager
        self.seq = 0                  # per-(src, dst) channel sequence number
        self.arrived = False          # payload physically at receiver
        self.matched: Optional[Event] = None  # rendezvous: recv posted
        self.bound: Optional[Event] = None    # recv completion to fire on arrival

    def matches(self, source: int, tag: int) -> bool:
        return (source == ANY_SOURCE or source == self.src) and (
            tag == ANY_TAG or tag == self.tag
        )


class _PendingRecv:
    __slots__ = ("source", "tag", "completion")

    def __init__(self, source: int, tag: int, completion: Event):
        self.source = source
        self.tag = tag
        self.completion = completion


class _FusedRecv:
    """Completion slot for the fused blocking receive.

    Duck-types the only part of :class:`~repro.sim.engine.Event` the
    matching layer uses — ``fire(msg)`` — but instead of waking a waiter
    list it walks the exact seq-allocation sequence ``irecv`` + ``wait``
    would: one zero-delay entry (the ``WaitEvent`` resume), then the
    receiver-side copy delay that resumes the parked rank with the
    message (:func:`~repro.models.mpi.requests._copy_out`).  Charges land
    at the same instants, in the same order, with the same amounts as
    ``Request.wait`` + ``_finish_recv``.
    """

    __slots__ = ("ctx", "proc", "t0", "fired")

    def __init__(self, ctx: "MpiContext", proc, t0: float):
        self.ctx = ctx
        self.proc = proc
        self.t0 = t0      # when the wait began (post instant, = call + or_ns)
        self.fired = False

    def fire(self, msg: "_Msg") -> None:
        if self.fired:
            raise SimError(f"fused recv on rank {self.ctx.rank} fired twice")
        self.fired = True
        # seq parity: Event.fire() schedules the waiter's zero-delay resume
        # here; the copy delay is allocated when that resume runs
        self.ctx.machine.engine._schedule(
            0.0, None, (_copy_out, (self.proc, self.ctx, [msg], self.t0))
        )


def _isend_hop(proc, ctx: "MpiContext", msg: "_Msg") -> None:
    """Timer leg of the fused eager isend: runs at send-initiation + os_ns.

    Mirrors the coroutine resume at the same instant: match the message, then
    charge and schedule the sender-side buffer copy (one seq, allocated
    here exactly as ``charged_delay`` would).
    """
    ctx.world.post_message(msg)
    copy_ns = msg.nbytes / ctx.cfg.mpi_copy_bpns
    ctx._charge("comm", copy_ns)
    ctx.machine.engine._schedule(copy_ns, proc, None)


def _recv_hop(proc, ctx: "MpiContext", source: int, tag: int) -> None:
    """Timer leg of the fused blocking recv: runs at call + or_ns."""
    ctx.world.post_recv(
        ctx.rank, source, tag,
        _FusedRecv(ctx, proc, ctx.machine.engine.now),
    )


class MpiWorld:
    """Shared matching state for one MPI job (one per Machine run)."""

    def __init__(self, machine: Machine, nprocs: int):
        # weak: the machine holds its world (below), and a strong back
        # reference would make every MPI run a reference cycle
        self._machine = weakref.ref(machine)
        self.nprocs = nprocs
        # indexed/vectorised first-match queues (see repro.models.mpi.matchq)
        self.mailbox: List[MatchQueue] = [MatchQueue() for _ in range(nprocs)]
        self.pending: List[MatchQueue] = [MatchQueue() for _ in range(nprocs)]
        # rank -> home node, precomputed: node_of_cpu is a per-message cost
        self.node_of: List[int] = [
            machine.config.node_of_cpu(r) for r in range(nprocs)
        ]
        self._comm_ids: dict = {}
        self._next_comm_id = 0
        machine.mpi_world = self  # benches/tests inspect queue counters post-run

    def match_counters(self) -> dict:
        """Aggregate matching statistics over every mailbox/pending queue."""
        out = {"head_hits": 0, "index_hits": 0, "vector_scans": 0, "scalar_scans": 0}
        for q in self.mailbox + self.pending:
            out["head_hits"] += q.head_hits
            out["index_hits"] += q.index_hits
            out["vector_scans"] += q.vector_scans
            out["scalar_scans"] += q.scalar_scans
        return out

    def abandon(self) -> None:
        """Drop the unmatched messages and posted receives of a failed run.

        Its ranks never resume, and a posted receive holds its rank's
        context, which holds the machine that holds this world: a
        reference cycle.
        """
        for queue in self.mailbox + self.pending:
            queue.clear()

    def comm_id_for(self, split_seq: int, color) -> int:
        """Stable unique id per (split call, color) across all ranks."""
        key = (split_seq, color)
        if key not in self._comm_ids:
            self._comm_ids[key] = self._next_comm_id
            self._next_comm_id += 1
        return self._comm_ids[key]

    def contexts(self) -> List["MpiContext"]:
        machine = self._machine()
        return [MpiContext(machine, rank, self.nprocs, self) for rank in range(self.nprocs)]

    # -- matching ------------------------------------------------------------

    def post_message(self, msg: _Msg) -> None:
        """Called at send-initiation; binds to an already-posted recv if any."""
        recv = self.pending[msg.dst].pop_first(msg.src, msg.tag)
        if recv is not None:
            self._bind(msg, recv.completion)
            return
        self.mailbox[msg.dst].append(msg, msg.src, msg.tag)

    def post_recv(self, dst: int, source: int, tag: int, completion: Event) -> None:
        msg = self.mailbox[dst].pop_first(source, tag)
        if msg is not None:
            self._bind(msg, completion)
            return
        self.pending[dst].append(_PendingRecv(source, tag, completion), source, tag)

    @staticmethod
    def _bind(msg: _Msg, completion: Event) -> None:
        if msg.matched is not None and not msg.matched.fired:
            msg.matched.fire()  # releases a blocked rendezvous sender
        if msg.arrived:
            completion.fire(msg)
        else:
            msg.bound = completion

    @staticmethod
    def deliver(msg: _Msg) -> None:
        """Payload physically arrived at the receiver."""
        msg.arrived = True
        bound = msg.bound
        if bound is not None:
            # the completion's value becomes msg: keeping msg.bound too
            # would make every matched message a reference cycle
            msg.bound = None
            bound.fire(msg)


class MpiContext(BaseContext):
    """The per-rank MPI handle (mpi4py-flavoured lower-case API).

    Exposes blocking/nonblocking point-to-point (:meth:`send`,
    :meth:`isend`, :meth:`recv`, :meth:`irecv`, :meth:`sendrecv`), the
    full collective suite (:meth:`barrier` ... :meth:`reduce_scatter`)
    and communicator splitting (:meth:`comm_split`).  All methods are
    generators driven by the simulation engine — call them with
    ``yield from`` inside a rank program.

    Messages below ``mpi_eager_bytes`` use the eager protocol (sender
    buffers and returns); larger ones rendezvous (sender blocks until
    the receive is posted).  When the machine's fault plane is active,
    every inter-node transfer is covered by sequence-numbered
    retransmission with exponential backoff (see
    :meth:`_transfer_with_recovery`), so the API contract is unchanged
    under message loss.
    """

    model_name = "mpi"

    def __init__(self, machine: Machine, rank: int, nprocs: int, world: MpiWorld):
        super().__init__(machine, rank, nprocs)
        self.world = world
        self.cfg = machine.config
        self._coll_seq = 0
        self._split_seq = 0
        self._send_seq: dict = {}  # dst rank -> next channel sequence number
        # pin this rank's buffers to its own node (MPI processes are
        # single-node entities; all their memory is local)
        base = machine.memory.alloc(machine.config.page_bytes, page_aligned=True)
        machine.memory.place(base, machine.config.page_bytes, self.node)

    # -- point to point ----------------------------------------------------------

    def send(self, payload: Any, dest: int, tag: int = 0, nbytes: Optional[int] = None) -> Generator:
        """Blocking send (buffered below the eager threshold)."""
        req = yield from self.isend(payload, dest, tag, nbytes)
        yield from req.wait()

    def isend(self, payload: Any, dest: int, tag: int = 0, nbytes: Optional[int] = None) -> Generator:
        """Nonblocking send; returns a :class:`Request`."""
        if not 0 <= dest < self.nprocs:
            raise ValueError(f"bad destination rank {dest}")
        size = nbytes_of(payload) if nbytes is None else checked_nbytes(nbytes)
        t0 = self.now
        self.stats.msgs_sent += 1
        self.stats.bytes_sent += size
        engine = self.machine.engine
        eager = size <= self.cfg.mpi_eager_bytes
        if eager:
            # fused path: one parked yield instead of two suspensions.  The
            # os-leg timer (_isend_hop) matches the message and schedules the
            # buffer copy at exactly the instants/seqs of the plain coroutine
            # sequence (os charge, post, copy), so the timeline is identical
            # to it — only the host-side resume count drops.
            self._charge("comm", self.cfg.mpi_os_ns)
            msg = _Msg(self.rank, dest, tag, payload, size, True)
            msg.seq = self._send_seq.get(dest, 0)
            self._send_seq[dest] = msg.seq + 1
            yield Hop(self.cfg.mpi_os_ns, _isend_hop, (self, msg))
            completion = Event(engine, _SEND_EVT)
            if not self.machine.network.transfer_async(
                self.node,
                self.world.node_of[dest],
                msg.nbytes,
                MpiWorld.deliver,
                msg,
            ):
                # fault injection active: spawned generator path
                engine.spawn(
                    self._eager_transfer(msg), name=f"mpi-xfer:{self.rank}->{dest}"
                )
            completion.fire()
            if self._obs.enabled:
                self._obs.emit(
                    "msg_send", t0, self.rank, dest, size, dur=self.now - t0,
                    attrs={"tag": tag, "eager": True, "coll": tag >= _COLL_TAG_BASE},
                )
            return Request("send", completion, self)
        # rendezvous: the receiver's match releases the transfer
        yield from self.charged_delay("comm", self.cfg.mpi_os_ns)
        msg = _Msg(self.rank, dest, tag, payload, size, False)
        msg.seq = self._send_seq.get(dest, 0)
        self._send_seq[dest] = msg.seq + 1
        completion = engine.event(name=_SEND_EVT)
        # the matched event must exist before the message becomes
        # matchable, or a pre-posted receive would bind past it
        msg.matched = engine.event(name=f"rdv:{self.rank}->{dest}")
        self.world.post_message(msg)
        engine.spawn(
            self._rendezvous_transfer(msg, completion),
            name=f"mpi-rdv:{self.rank}->{dest}",
        )
        if self._obs.enabled:
            self._obs.emit(
                "msg_send", t0, self.rank, dest, size, dur=self.now - t0,
                attrs={"tag": tag, "eager": False, "coll": tag >= _COLL_TAG_BASE},
            )
        return Request("send", completion, self)

    def _transfer_with_recovery(self, msg: _Msg) -> Generator:
        """Move ``msg`` over the wire, retransmitting until it arrives.

        Fault-free (the common case, and always when the fault plane is
        off) this is exactly one ``network.transfer``.  When the plane
        drops the message, the sender times out (``retry_timeout_ns``,
        doubled by ``retry_backoff`` each attempt, as a real sliding-
        window NIC would) and resends the same sequence number; the
        receiver-side filter makes duplicates harmless.  Gives up with
        :class:`FaultRecoveryError` after ``max_retries`` resends.

        Collective-tree messages (``tag >= _COLL_TAG_BASE``) recover by
        *subtree re-subscribe* instead (:meth:`_coll_resubscribe`): the
        child knows the collective's schedule, so it detects the gap after
        ``coll_detect_ns`` and pulls a retransmission with a small request
        — no exponential backoff, which is what keeps a binomial tree at
        P>=64 from compounding one lost level into a full timeout ladder.
        """
        src_node = self.cfg.node_of_cpu(msg.src)
        dst_node = self.cfg.node_of_cpu(msg.dst)
        delivered = yield from self.machine.network.transfer(
            src_node, dst_node, msg.nbytes
        )
        if delivered:
            return
        faults = self.machine.faults
        if msg.tag >= _COLL_TAG_BASE and faults.profile.coll_resubscribe:
            yield from self._coll_resubscribe(msg, src_node, dst_node)
            return
        timeout = faults.profile.retry_timeout_ns
        for attempt in range(1, faults.profile.max_retries + 1):
            yield Delay(timeout)
            faults.note_retry("mpi", timeout)
            if self._obs.enabled:
                self._obs.emit(
                    "retry", self.now, msg.src, msg.dst, msg.nbytes,
                    attrs={
                        "model": "mpi",
                        "attempt": attempt,
                        "seq": msg.seq,
                        "wait_ns": timeout,
                    },
                )
            timeout *= faults.profile.retry_backoff
            delivered = yield from self.machine.network.transfer(
                src_node, dst_node, msg.nbytes
            )
            if delivered:
                return
        raise FaultRecoveryError(
            f"mpi: message {msg.src}->{msg.dst} seq={msg.seq} tag={msg.tag} "
            f"({msg.nbytes} B) undeliverable after "
            f"{faults.profile.max_retries} retransmissions"
        )

    def _coll_resubscribe(self, msg: _Msg, src_node: int, dst_node: int) -> Generator:
        """Collective-aware recovery: the subtree root pulls the resend.

        Point-to-point recovery is sender-driven — a timeout ladder with
        exponential backoff, because the receiver has no idea a message
        existed.  Inside a collective the *child does know*: the tree
        schedule tells it exactly which parent owes it data.  So after a
        fixed ``coll_detect_ns`` gap it re-subscribes — sends an
        ``ack_bytes`` request up the tree edge — and the parent resends.
        Each attempt costs detection + request + retransmit; the request
        itself crosses the faulty network and may need further rounds.
        """
        faults = self.machine.faults
        p = faults.profile
        for attempt in range(1, p.max_retries + 1):
            yield Delay(p.coll_detect_ns)
            faults.note_retry("coll", p.coll_detect_ns)
            if self._obs.enabled:
                self._obs.emit(
                    "retry", self.now, msg.src, msg.dst, msg.nbytes,
                    attrs={
                        "model": "coll",
                        "attempt": attempt,
                        "seq": msg.seq,
                        "wait_ns": p.coll_detect_ns,
                    },
                )
            # the child's re-subscribe request travels against the tree edge;
            # if it is lost the child simply detects the gap again
            requested = yield from self.machine.network.transfer(
                dst_node, src_node, p.ack_bytes
            )
            if not requested:
                continue
            delivered = yield from self.machine.network.transfer(
                src_node, dst_node, msg.nbytes
            )
            if delivered:
                return
        raise FaultRecoveryError(
            f"mpi: collective message {msg.src}->{msg.dst} seq={msg.seq} "
            f"tag={msg.tag} ({msg.nbytes} B) undeliverable after "
            f"{p.max_retries} re-subscribes"
        )

    def _eager_transfer(self, msg: _Msg) -> Generator:
        yield from self._transfer_with_recovery(msg)
        MpiWorld.deliver(msg)

    def _rendezvous_transfer(self, msg: _Msg, completion: Event) -> Generator:
        yield WaitEvent(msg.matched)
        yield Delay(self.cfg.mpi_rendezvous_ns)
        yield from self._transfer_with_recovery(msg)
        MpiWorld.deliver(msg)
        completion.fire()

    def irecv(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> Generator:
        """Nonblocking receive; returns a :class:`Request`."""
        yield from self.charged_delay("comm", self.cfg.mpi_or_ns)
        completion = self.machine.engine.event(name=_RECV_EVT)
        self.world.post_recv(self.rank, source, tag, completion)
        return Request("recv", completion, self)

    def recv(
        self, source: int = ANY_SOURCE, tag: int = ANY_TAG, status: Optional[Status] = None
    ) -> Generator:
        """Blocking receive; returns the payload."""
        # fused path: park once; the or-leg timer posts the receive and the
        # match/arrival callbacks (see _FusedRecv) replay the wait/copy seq
        # allocations of irecv + wait exactly, so the timeline and per-rank
        # charges are identical to that coroutine sequence
        self._charge("comm", self.cfg.mpi_or_ns)
        msg, t0 = yield Hop(self.cfg.mpi_or_ns, _recv_hop, (self, source, tag))
        if status is not None:
            _fill_status(status, msg)
        self._emit_recv(msg, t0)
        return msg.payload

    def _finish_recv(self, msg: _Msg, status: Status) -> Generator:
        """Receiver-side copy out of the system buffer; fills the status."""
        _fill_status(status, msg)
        t0 = self.now
        yield from self.charged_delay("comm", msg.nbytes / self.cfg.mpi_copy_bpns)
        self._emit_recv(msg, t0)
        return msg.payload

    def _emit_recv(self, msg: _Msg, t0: float) -> None:
        """Trace a receive whose copy out started at ``t0`` and ends now."""
        if self._obs.enabled:
            # flow convention: src = sender, dst = the receiving rank (self)
            self._obs.emit(
                "msg_recv", t0, msg.src, self.rank, msg.nbytes,
                dur=self.now - t0, attrs={"tag": msg.tag},
            )

    def sendrecv(
        self,
        payload: Any,
        dest: int,
        source: int,
        sendtag: int = 0,
        recvtag: int = ANY_TAG,
        nbytes: Optional[int] = None,
    ) -> Generator:
        """Simultaneous send and receive (deadlock-free exchange)."""
        if nbytes is not None:
            checked_nbytes(nbytes)  # refuse a bad size before the receive posts
        rreq = yield from self.irecv(source, recvtag)
        sreq = yield from self.isend(payload, dest, sendtag, nbytes)
        results = yield from Request.waitall(self, [rreq, sreq])
        return results[0]

    def waitall(self, requests: List[Request]) -> Generator:
        out = yield from Request.waitall(self, requests)
        return out

    def waitany(self, requests: List[Request]) -> Generator:
        out = yield from Request.waitany(self, requests)
        return out

    def iprobe(self, source: int = ANY_SOURCE, tag: int = ANY_TAG) -> bool:
        """Nonblocking check for a matchable arrived message."""
        return any(
            m.matches(source, tag) and m.arrived for m in self.world.mailbox[self.rank]
        )

    # -- collectives (implemented in collectives.py) --------------------------------

    def _next_coll_tag(self) -> int:
        self._coll_seq += 1
        return _COLL_TAG_BASE + self._coll_seq

    def barrier(self) -> Generator:
        from repro.models.mpi import collectives

        yield from collectives.barrier(self)

    def bcast(self, payload: Any, root: int = 0) -> Generator:
        from repro.models.mpi import collectives

        result = yield from collectives.bcast(self, payload, root)
        return result

    def reduce(self, value: Any, op=None, root: int = 0) -> Generator:
        from repro.models.mpi import collectives

        result = yield from collectives.reduce(self, value, op, root)
        return result

    def allreduce(self, value: Any, op=None) -> Generator:
        from repro.models.mpi import collectives

        result = yield from collectives.allreduce(self, value, op)
        return result

    def gather(self, value: Any, root: int = 0) -> Generator:
        from repro.models.mpi import collectives

        result = yield from collectives.gather(self, value, root)
        return result

    def allgather(self, value: Any) -> Generator:
        from repro.models.mpi import collectives

        result = yield from collectives.allgather(self, value)
        return result

    def scatter(self, values: Optional[List[Any]], root: int = 0) -> Generator:
        from repro.models.mpi import collectives

        result = yield from collectives.scatter(self, values, root)
        return result

    def alltoall(self, values: List[Any]) -> Generator:
        from repro.models.mpi import collectives

        result = yield from collectives.alltoall(self, values)
        return result

    def scan(self, value: Any, op=None) -> Generator:
        from repro.models.mpi import collectives

        result = yield from collectives.scan(self, value, op)
        return result

    def reduce_scatter(self, values: List[Any], op=None) -> Generator:
        from repro.models.mpi import collectives

        result = yield from collectives.reduce_scatter(self, values, op)
        return result

    # -- communicators --------------------------------------------------------------

    def comm_split(self, color, key: int = 0) -> Generator:
        """Collective split into sub-communicators (cf. ``MPI_Comm_split``).

        Ranks sharing ``color`` form one group, ordered by ``(key, world
        rank)``.  ``color=None`` opts out (returns None).  Must be called
        by every rank.
        """
        from repro.models.mpi.comm import MpiComm

        trio = yield from self.allgather((color, key, self.rank))
        seq = self._split_seq
        self._split_seq += 1
        if color is None:
            return None
        members = [
            r for (c, k, r) in sorted(trio, key=lambda t: (t[1], t[2])) if c == color
        ]
        return MpiComm(self, members, self.world.comm_id_for(seq, color))
