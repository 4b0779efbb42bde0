"""Nonblocking-communication request handles and receive status."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Optional

from repro.sim.engine import AllOf, AnyOf, Event, WaitEvent

__all__ = ["Request", "Status"]


def _copy_out(proc, ctx, msgs: list, t0: float, i: int = 0, prev_start: float = 0.0) -> None:
    """Copy received ``msgs`` out of the system buffer, one timer each.

    Entered with ``i=0`` in the slot where the rank, waiting since ``t0``,
    would resume: charge the wait, then copy each message in turn,
    emitting the previous one's ``msg_recv`` as the next copy starts —
    the seqs, charges and emits of resuming and running
    ``_finish_recv`` per message.  The last copy's delay resumes the rank
    with ``(msg, copy start)``.
    """
    engine = ctx.machine.engine
    if i == 0:
        ctx._charge("comm", engine.now - t0)
    else:
        ctx._emit_recv(msgs[i - 1], prev_start)
    msg = msgs[i]
    copy_ns = msg.nbytes / ctx.cfg.mpi_copy_bpns
    ctx._charge("comm", copy_ns)
    if i + 1 < len(msgs):
        engine._schedule(copy_ns, None, (_copy_out, (proc, ctx, msgs, t0, i + 1, engine.now)))
    else:
        engine._schedule(copy_ns, proc, (msg, engine.now))


def _fill_status(status: "Status", msg) -> None:
    """Record a received message's source, tag and size in ``status``."""
    status.source = msg.src
    status.tag = msg.tag
    status.nbytes = msg.nbytes


def _waitall_done(proc, ctx, recvs: list, t0: float) -> None:
    """``AllOf`` continuation of a ``waitall`` with receives."""
    _copy_out(proc, ctx, [r._completion.value for r in recvs], t0)


@dataclass
class Status:
    """Source/tag/size of a completed receive (cf. ``MPI_Status``)."""

    source: int = -1
    tag: int = -1
    nbytes: int = 0


class Request:
    """Handle for an outstanding ``isend``/``irecv``.

    ``yield from req.wait()`` blocks until completion and returns the
    received payload (receives) or ``None`` (sends).  ``req.test()`` is a
    non-blocking completion check.
    """

    __slots__ = ("kind", "_completion", "_context", "_status")

    def __init__(self, kind: str, completion: Event, context: "object"):
        self.kind = kind  # "send" | "recv"
        self._completion = completion
        self._context = context
        # Status is built on first access: send requests never touch it,
        # and at P=128 the dataclass construction alone is measurable
        self._status: Optional[Status] = None

    @property
    def status(self) -> Status:
        if self._status is None:
            self._status = Status()
        return self._status

    @property
    def completed(self) -> bool:
        return self._completion.fired

    def test(self) -> bool:
        return self._completion.fired

    def wait(self) -> Generator:
        """Block until complete; waiting time is charged as communication."""
        ctx = self._context
        t0 = ctx.now
        value = yield WaitEvent(self._completion)
        ctx._charge("comm", ctx.now - t0)
        if self.kind == "recv":
            payload = yield from ctx._finish_recv(value, self.status)
            return payload
        return None

    @staticmethod
    def waitall(context: "object", requests: list) -> Generator:
        """Wait for every request; returns payloads (None for sends).

        ``context`` is the world :class:`MpiContext` (a sub-communicator
        passes its parent).  With receives in the list the rank parks
        once: when the last request completes, :func:`_copy_out` charges
        the wait and copies the receives as timers, and the last copy
        resumes the rank.  A sends-only list resumes from the ``AllOf``.
        """
        t0 = context.now
        completions = [r._completion for r in requests]
        recvs = [r for r in requests if r.kind == "recv"]
        if not recvs:
            yield AllOf(completions)
            context._charge("comm", context.now - t0)
            return [None] * len(requests)
        last, start = yield AllOf(completions, _waitall_done, (context, recvs, t0))
        context._emit_recv(last, start)
        out = []
        for r in requests:
            if r.kind == "recv":
                msg = r._completion.value
                _fill_status(r.status, msg)
                out.append(msg.payload)
            else:
                out.append(None)
        return out

    @staticmethod
    def waitany(context: "object", requests: list) -> Generator:
        """Wait until one request completes; returns (index, payload)."""
        t0 = context.now
        idx, value = yield AnyOf([r._completion for r in requests])
        context._charge("comm", context.now - t0)
        req = requests[idx]
        if req.kind == "recv":
            payload = yield from context._finish_recv(value, req.status)
            return idx, payload
        return idx, None
