"""SHMEM collectives built from puts and completion flags.

The real library implements these over pSync flag arrays: a rank puts its
contribution into a partner's staging buffer, then sets a flag the partner
spins on.  Here the "put + flag" pair is one :func:`_send`; the spin is a
wait on the matching signal event, charged to synchronisation time.

The staging transfer runs on ``Network.transfer_async`` timers and sets
the flag from its delivery callback; only the fault plane spawns a
:func:`_deliver` coroutine, which retransmits lost flag lines.  In
``to_all``'s recursive-doubling step, a send followed by the wait on the
partner's flag is one parked yield (:func:`_exchange`).

``to_all`` (the reduction family) uses recursive doubling with the standard
fold for non-power-of-two rank counts; ``broadcast`` is a binomial tree;
``collect`` reuses ``to_all`` with dictionary merge.
"""

from __future__ import annotations

import functools
from typing import Any, Callable, Generator, Optional

from repro.models.payload import nbytes_of
from repro.sim.engine import Delay, Hop, WaitEvent

__all__ = ["broadcast", "collect", "to_all"]


def _observed(op: str):
    """Emit one ``collective`` event per traced call (cf. the MPI twin)."""

    def deco(fn):
        @functools.wraps(fn)
        def wrapper(ctx, *args, **kwargs) -> Generator:
            if not ctx._obs.enabled:
                result = yield from fn(ctx, *args, **kwargs)
                return result
            t0 = ctx.now
            result = yield from fn(ctx, *args, **kwargs)
            ctx._obs.emit(
                "collective", t0, ctx.rank, dur=ctx.now - t0,
                attrs={"op": op, "model": "shmem"},
            )
            return result

        return wrapper

    return deco


def _issue(ctx, dst: int, value: Any) -> int:
    """Count and trace a staging put, charge its issue; returns its size."""
    size = nbytes_of(value)
    ctx.stats.puts += 1
    ctx.stats.put_bytes += size
    if ctx._obs.enabled:
        # emitted as coll_xfer (not "put"): staging-buffer traffic carries
        # its own completion flag, so the sync checker must not demand a
        # fence for it
        ctx._obs.emit(
            "coll_xfer", ctx.now, ctx.rank, dst, size, attrs={"wire": size + 8}
        )
    ctx._charge("comm", ctx.cfg.shmem_op_ns)
    return size


def _launch(ctx, dst: int, tag, value: Any, size: int) -> None:
    """Start the data + flag line transfer; its arrival sets the flag.

    ``transfer_async`` takes the seq slot a spawned transfer's start
    would; with the fault plane on, :func:`_deliver` is spawned instead.
    """
    if not ctx.machine.network.transfer_async(
        ctx.node, ctx.cfg.node_of_cpu(dst), size + 8, _flag_set, (ctx.world, dst, tag, value)
    ):
        ctx.machine.engine.spawn(
            _deliver(ctx, dst, tag, value, size), name=f"shmem-coll:{ctx.rank}->{dst}"
        )


def _flag_set(arg) -> None:
    world, dst, tag, value = arg
    world.signal(dst, tag, value)


def _send(ctx, dst: int, tag, value: Any) -> Generator:
    """Model of 'put data into partner's staging buffer, then set flag'."""
    size = _issue(ctx, dst, value)
    yield Delay(ctx.cfg.shmem_op_ns)
    _launch(ctx, dst, tag, value, size)


def _deliver(ctx, dst: int, tag, value: Any, size: int) -> Generator:
    """Fault-plane transfer: the partner spins on the flag, so a lost
    staging put would hang the collective — retransmit until it lands."""
    wire = size + 8  # data + flag line
    dst_node = ctx.cfg.node_of_cpu(dst)
    yield from ctx._with_retries([(ctx.node, dst_node, wire)], "coll", dst, wire)
    ctx.world.signal(dst, tag, value)


def _recv(ctx, tag) -> Generator:
    """Spin on the flag: blocked time counts as synchronisation."""
    ev = ctx.world.wait_signal(ctx.rank, tag)
    t0 = ctx.now
    value = yield WaitEvent(ev)
    ctx.stats.sync_ns += ctx.now - t0
    return value


def _exchange(ctx, partner: int, tag, value: Any) -> Generator:
    """:func:`_send` then :func:`_recv` of the same ``tag``, parked once.

    The issue timer (:func:`_exchange_hop`) starts the transfer and
    waits on the flag at the instant the send's resume would have, so
    the seqs are those of the two calls.
    """
    size = _issue(ctx, partner, value)
    op_ns = float(ctx.cfg.shmem_op_ns)
    t0 = ctx.now + op_ns  # the flag wait begins when the issue completes
    other = yield Hop(op_ns, _exchange_hop, (ctx, partner, tag, value, size))
    ctx.stats.sync_ns += ctx.now - t0
    return other


def _exchange_hop(proc, ctx, partner: int, tag, value: Any, size: int) -> None:
    _launch(ctx, partner, tag, value, size)
    ctx.machine.engine._wait_event(proc, ctx.world.wait_signal(ctx.rank, tag))


@_observed("broadcast")
def broadcast(ctx, value: Any, root: int = 0) -> Generator:
    """Binomial-tree broadcast; every rank returns the value."""
    n = ctx.nprocs
    seq = ctx._next_coll_tag()
    if n == 1:
        return value
    vrank = (ctx.rank - root) % n
    mask = 1
    while mask < n:
        if vrank & mask:
            value = yield from _recv(ctx, ("bc", seq, vrank))
            break
        mask <<= 1
    mask >>= 1
    while mask > 0:
        child = vrank + mask
        if child < n:
            yield from _send(ctx, (child + root) % n, ("bc", seq, child), value)
        mask >>= 1
    return value


@_observed("to_all")
def to_all(ctx, value: Any, op: Optional[Callable] = None) -> Generator:
    """Reduction-to-all via recursive doubling (with non-power-of-2 fold)."""
    import operator

    fn: Callable = operator.add if op is None else op
    n = ctx.nprocs
    seq = ctx._next_coll_tag()
    if n == 1:
        return value
    p2 = 1 << (n.bit_length() - 1)  # largest power of two <= n
    extras = n - p2
    rank = ctx.rank
    result = value
    # fold: the top `extras` ranks send their value down
    if rank >= p2:
        yield from _send(ctx, rank - p2, ("fold", seq), result)
    else:
        if rank < extras:
            other = yield from _recv(ctx, ("fold", seq))
            result = fn(result, other)
        # recursive doubling among the power-of-two group
        mask = 1
        while mask < p2:
            partner = rank ^ mask
            other = yield from _exchange(ctx, partner, ("rd", seq, mask), result)
            result = fn(result, other)
            mask <<= 1
        if rank < extras:
            yield from _send(ctx, rank + p2, ("unfold", seq), result)
    if rank >= p2:
        result = yield from _recv(ctx, ("unfold", seq))
    return result


def _merge(a: dict, b: dict) -> dict:
    out = dict(a)
    out.update(b)
    return out


@_observed("collect")
def collect(ctx, value: Any) -> Generator:
    """All-gather: every rank returns the rank-ordered list of values."""
    table = yield from to_all(ctx, {ctx.rank: value}, _merge)
    return [table[i] for i in range(ctx.nprocs)]
