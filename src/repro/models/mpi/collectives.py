"""MPI collective operations built on the point-to-point layer.

Algorithms (all correct for any ``nprocs``, not just powers of two):

=============  =====================================================
barrier        dissemination (⌈log2 n⌉ rounds of token exchange)
bcast          binomial tree rooted at ``root``
reduce         binomial tree (mirror of bcast)
allreduce      reduce to 0 + bcast
gather         binomial subtree merge
allgather      gather + bcast
scatter        root sends directly (star) — small-n regime
alltoall       ring shift with ``sendrecv`` (n-1 steps)
scan           linear chain (inclusive prefix)
=============  =====================================================

Time spent inside ``barrier`` is charged to the *sync* category; data
collectives charge *comm*, as the breakdown tables expect.
"""

from __future__ import annotations

import functools
import operator
from typing import Any, Callable, Generator, List, Optional

from repro.models.mpi.requests import Status
from repro.models.payload import nbytes_of

__all__ = [
    "barrier",
    "reduce_scatter",
    "bcast",
    "reduce",
    "allreduce",
    "gather",
    "allgather",
    "scatter",
    "alltoall",
    "scan",
]

_TOKEN = b"\x00"  # 1-byte barrier token


def _resolve_op(op: Optional[Callable]) -> Callable:
    return operator.add if op is None else op


def _observed(op: str):
    """Wrap a collective so it emits one ``collective`` event when traced.

    Works for both :class:`MpiContext` and :class:`MpiComm` (the latter
    reports its parent's *world* rank so one stream covers all groups).
    Nested building blocks (e.g. the reduce+bcast inside allreduce) emit
    their own events too — the trace shows the algorithm's structure.
    """

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(ctx, *args, **kwargs) -> Generator:
            obs = getattr(ctx, "_obs", None)
            if obs is None or not obs.enabled:
                result = yield from fn(ctx, *args, **kwargs)
                return result
            t0 = ctx.now
            result = yield from fn(ctx, *args, **kwargs)
            obs.emit(
                "collective", t0, getattr(ctx, "parent", ctx).rank,
                dur=ctx.now - t0, attrs={"op": op, "model": "mpi"},
            )
            return result

        return wrapper

    return deco


@_observed("barrier")
def barrier(ctx) -> Generator:
    """Dissemination barrier; elapsed time accounted as synchronisation."""
    n = ctx.nprocs
    if n == 1:
        return
    ctx._charge_category = "sync"
    try:
        k = 1
        while k < n:
            tag = ctx._next_coll_tag()
            dest = (ctx.rank + k) % n
            src = (ctx.rank - k) % n
            yield from ctx.sendrecv(_TOKEN, dest, src, sendtag=tag, recvtag=tag)
            k <<= 1
    finally:
        ctx._charge_category = None


@_observed("bcast")
def bcast(ctx, payload: Any, root: int = 0) -> Generator:
    """Binomial-tree broadcast; every rank returns the payload.

    The payload is sized once per rank: by the root, and by every other
    rank from the received status, for all of its forwards.
    """
    n = ctx.nprocs
    tag = ctx._next_coll_tag()
    if n == 1:
        return payload
    vrank = (ctx.rank - root) % n
    nbytes = nbytes_of(payload) if vrank == 0 else 0
    mask = 1
    while mask < n:
        if vrank & mask:
            src = ((vrank ^ mask) + root) % n
            status = Status()
            payload = yield from ctx.recv(src, tag, status)
            nbytes = status.nbytes
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        child = vrank + mask
        if child < n:
            yield from ctx.send(payload, (child + root) % n, tag, nbytes)
        mask >>= 1
    return payload


@_observed("reduce")
def reduce(ctx, value: Any, op: Optional[Callable] = None, root: int = 0) -> Generator:
    """Binomial-tree reduction; the result is returned at ``root`` only."""
    n = ctx.nprocs
    fn = _resolve_op(op)
    tag = ctx._next_coll_tag()
    if n == 1:
        return value
    vrank = (ctx.rank - root) % n
    result = value
    mask = 1
    while mask < n:
        if vrank & mask:
            parent = ((vrank ^ mask) + root) % n
            yield from ctx.send(result, parent, tag)
            break
        partner = vrank | mask
        if partner < n:
            other = yield from ctx.recv((partner + root) % n, tag)
            result = fn(result, other)
        mask <<= 1
    return result if ctx.rank == root else None


@_observed("allreduce")
def allreduce(ctx, value: Any, op: Optional[Callable] = None) -> Generator:
    """Reduce to rank 0 then broadcast; every rank returns the result."""
    partial = yield from reduce(ctx, value, op, root=0)
    result = yield from bcast(ctx, partial, root=0)
    return result


@_observed("gather")
def gather(ctx, value: Any, root: int = 0) -> Generator:
    """Binomial gather; ``root`` returns the rank-ordered list."""
    n = ctx.nprocs
    tag = ctx._next_coll_tag()
    if n == 1:
        return [value]
    vrank = (ctx.rank - root) % n
    data = {ctx.rank: value}
    mask = 1
    while mask < n:
        if vrank & mask:
            parent = ((vrank ^ mask) + root) % n
            yield from ctx.send(data, parent, tag)
            break
        partner = vrank | mask
        if partner < n:
            sub = yield from ctx.recv((partner + root) % n, tag)
            data.update(sub)
        mask <<= 1
    if ctx.rank == root:
        return [data[i] for i in range(n)]
    return None


@_observed("allgather")
def allgather(ctx, value: Any) -> Generator:
    """Gather to rank 0, then broadcast the assembled list."""
    collected = yield from gather(ctx, value, root=0)
    result = yield from bcast(ctx, collected, root=0)
    return result


@_observed("scatter")
def scatter(ctx, values: Optional[List[Any]], root: int = 0) -> Generator:
    """Root sends element ``i`` to rank ``i``; returns the local element."""
    n = ctx.nprocs
    tag = ctx._next_coll_tag()
    if ctx.rank == root:
        if values is None or len(values) != n:
            raise ValueError(f"scatter root needs a list of {n} values")
        requests = []
        for dest in range(n):
            if dest == root:
                continue
            req = yield from ctx.isend(values[dest], dest, tag)
            requests.append(req)
        if requests:
            yield from ctx.waitall(requests)
        return values[root]
    result = yield from ctx.recv(root, tag)
    return result


@_observed("alltoall")
def alltoall(ctx, values: List[Any]) -> Generator:
    """Personalised all-to-all via ring shifts; returns received list."""
    n = ctx.nprocs
    if values is None or len(values) != n:
        raise ValueError(f"alltoall needs a list of {n} values")
    received: List[Any] = [None] * n
    received[ctx.rank] = values[ctx.rank]
    for shift in range(1, n):
        tag = ctx._next_coll_tag()
        dest = (ctx.rank + shift) % n
        src = (ctx.rank - shift) % n
        got = yield from ctx.sendrecv(values[dest], dest, src, sendtag=tag, recvtag=tag)
        received[src] = got
    return received


@_observed("scan")
def scan(ctx, value: Any, op: Optional[Callable] = None) -> Generator:
    """Inclusive prefix scan along the rank chain."""
    fn = _resolve_op(op)
    tag = ctx._next_coll_tag()
    result = value
    if ctx.rank > 0:
        prefix = yield from ctx.recv(ctx.rank - 1, tag)
        result = fn(prefix, value)
    if ctx.rank < ctx.nprocs - 1:
        yield from ctx.send(result, ctx.rank + 1, tag)
    return result


@_observed("reduce_scatter")
def reduce_scatter(ctx, values: List[Any], op: Optional[Callable] = None) -> Generator:
    """Element-wise reduce of per-destination contributions, scattered.

    Each rank supplies ``values[d]`` destined for rank ``d``; rank ``d``
    returns the reduction of every rank's ``values[d]``.  Implemented as
    reduce-to-0 of the whole vector followed by scatter — the simple
    algorithm small clusters used.
    """
    n = ctx.nprocs
    if values is None or len(values) != n:
        raise ValueError(f"reduce_scatter needs a list of {n} values")
    fn = _resolve_op(op)

    def combine(a: List[Any], b: List[Any]) -> List[Any]:
        return [fn(x, y) for x, y in zip(a, b)]

    combined = yield from reduce(ctx, list(values), combine, root=0)
    result = yield from scatter(ctx, combined, root=0)
    return result
