"""FIFO resources and channels built on the event kernel.

These are the contention primitives: a network link is a ``Resource`` with
capacity 1 that a message holds for its transfer time; a mailbox is a
``Channel``.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Generator, List, Tuple, Union

from repro.sim.engine import Engine, Event, SimError, WaitEvent

__all__ = ["Resource", "Mutex", "Channel"]


class Resource:
    """A counted FIFO resource.

    ``yield from res.acquire()`` blocks until a unit is free; ``res.release()``
    hands the unit to the longest-waiting acquirer.  Statistics are kept for
    utilisation accounting (busy time integrates ``in_use`` over virtual
    time).

    The FIFO also holds *callback waiters*: ``(fn, args)`` pairs queued by
    callers that claim units inline (:class:`repro.machine.network.Network`).
    :meth:`release` hands one the unit by running ``fn(*args)`` from one
    :meth:`Engine.handoff` entry, the single ``seq`` a blocked acquirer's
    wake takes; the callback adds its queued time to ``total_wait_ns``
    itself.
    """

    def __init__(self, engine: Engine, capacity: int = 1, name: str = ""):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.engine = engine
        self.capacity = capacity
        self.name = name
        self.in_use = 0
        # acquire() gates and (fn, args) callback waiters, in arrival order
        self._waiters: Deque[Union[Event, Tuple[Callable, tuple]]] = deque()
        # statistics
        self.total_acquires = 0
        self.waited_acquires = 0   # acquires that found the resource busy
        self.total_wait_ns = 0.0
        self.busy_ns = 0.0
        self._last_change = 0.0

    def _account(self) -> None:
        now = self.engine.now
        self.busy_ns += self.in_use * (now - self._last_change)
        self._last_change = now

    def acquire(self) -> Generator:
        """Generator primitive: blocks until a unit is granted."""
        self.total_acquires += 1
        start = self.engine.now
        if self.in_use < self.capacity and not self._waiters:
            self._account()
            self.in_use += 1
            return
            yield  # pragma: no cover - makes this a generator
        gate = self.engine.event(name=f"res:{self.name}")
        self.waited_acquires += 1
        self._waiters.append(gate)
        yield WaitEvent(gate)
        self.total_wait_ns += self.engine.now - start

    def release(self) -> None:
        in_use = self.in_use
        if in_use <= 0:
            raise SimError(f"release of idle resource {self.name!r}")
        now = self.engine.now
        self.busy_ns += in_use * (now - self._last_change)
        self._last_change = now
        if self._waiters:
            # hand the unit directly to the next waiter: in_use stays flat
            waiter = self._waiters.popleft()
            if type(waiter) is tuple:
                self.engine.handoff(waiter)
            else:
                waiter.fire()
        else:
            self.in_use = in_use - 1

    def using(self, hold_ns: float) -> Generator:
        """Acquire, hold for ``hold_ns``, release — the common pattern."""
        from repro.sim.engine import Delay

        yield from self.acquire()
        try:
            yield Delay(hold_ns)
        finally:
            self.release()

    def utilisation(self, horizon_ns: float) -> float:
        """Fraction of capacity-time in use over ``[0, horizon_ns]``."""
        if horizon_ns <= 0:
            return 0.0
        self._account()
        return self.busy_ns / (self.capacity * horizon_ns)


class Mutex(Resource):
    """A capacity-1 resource."""

    def __init__(self, engine: Engine, name: str = ""):
        super().__init__(engine, capacity=1, name=name)


class Channel:
    """Unbounded FIFO channel between processes.

    ``put`` never blocks; ``yield from ch.get()`` blocks until an item is
    available.  Items are delivered in put order; blocked getters are served
    in arrival order.
    """

    def __init__(self, engine: Engine, name: str = ""):
        self.engine = engine
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[Event] = deque()
        self.total_puts = 0

    def put(self, item: Any) -> None:
        self.total_puts += 1
        if self._getters:
            self._getters.popleft().fire(item)
        else:
            self._items.append(item)

    def get(self) -> Generator:
        if self._items:
            return self._items.popleft()
            yield  # pragma: no cover - makes this a generator
        gate = self.engine.event(name=f"chan:{self.name}")
        self._getters.append(gate)
        item = yield WaitEvent(gate)
        return item

    def __len__(self) -> int:
        return len(self._items)

    def peek_all(self) -> List[Any]:
        """Snapshot of queued items (no removal) — for tests and matching."""
        return list(self._items)
