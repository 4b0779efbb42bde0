"""Deterministic discrete-event engine with coroutine processes.

A *process* is a generator.  It communicates with the engine by yielding
request objects:

``Delay(ns)``
    Suspend for ``ns`` simulated nanoseconds.
``WaitEvent(event)`` (or the :class:`Event` itself)
    Suspend until ``event.fire(value)``; the yield expression evaluates to
    ``value``.
``AllOf(events)``
    Suspend until every event has fired; evaluates to the list of values.
    ``AllOf(events, fn, args)`` instead runs ``fn(proc, *args)`` as a timer
    in the slot the resume would take, and leaves the resume to ``fn``.
``AnyOf(events)``
    Suspend until at least one event has fired; evaluates to
    ``(index, value)`` of the first event (in list order) that fired.
``Hop(ns, fn, args)``
    Park; run ``fn(proc, *args)`` as a timer after ``ns`` and let it
    resume the process (see :class:`Hop`).

Processes may also yield *sub-generators* indirectly via ``yield from``,
which is the idiom every runtime primitive in :mod:`repro.models` uses.

Queue structure
---------------

The engine orders work by ``(time, seq)`` where ``seq`` is a monotonically
increasing tie-breaker, so events scheduled for the same virtual time fire
in FIFO order and every simulation run is exactly reproducible.  The run
loop is a calendar/heap hybrid that drains same-timestamp *event cohorts*
in one pass.  Wakes scheduled for the current instant go to a FIFO *zero
lane* (no heap traffic at all); future wakes go to an array-backed *delay
lane* that buffers pushes and bulk-sorts them through NumPy
(``np.lexsort`` + sorted-run merge) when cohorts are large, falling back
to a small heap when they are not.

The cohort drain fires entries in exactly the ``(time, seq)`` order of a
one-entry-at-a-time binary heap, the loop it replaced.  Fingerprints
recorded from that heap loop (``tests/golden/timelines.json``) lock this
across all programming models at P up to 128.

:meth:`Engine.call_after` is a lightweight timer that invokes a plain
callback instead of resuming a coroutine.  The machine layers use it to
run network transfers, contended ones included, without paying a full
``Process`` (generator frames, end event, two heap round-trips) per
in-flight message.  :meth:`Engine.handoff` is its zero-delay form, the
one zero-lane entry that starts a timer transfer and hands a released
link to a callback waiter.

An :class:`Event` waiter is a process or a *callback waiter*, an
``(fn, args)`` pair that :meth:`Event.fire` runs as ``fn(*args, value)``
from the zero-delay entry a process wake takes.  ``AllOf`` and ``AnyOf``
wait through callback waiters: a scan timer (``AllOf``) or one watch
timer per event (``AnyOf``, losers included) takes each seq slot of the
helper process it replaced, so rank programs and spawned transfers are
the only processes.  ``counters()["resumes"]`` counts their steps.

The runtimes fold resume → bookkeeping → re-suspend sequences that never
return to program code into ``Hop`` and ``AllOf`` continuations: MPI
eager ``isend`` and blocking ``recv``; MPI ``waitall`` with receives
(copies as timers); SHMEM ``put``/``iput`` and collective legs on
``Network.transfer_async``, and ``to_all``'s send-then-wait step.
"""

from __future__ import annotations

import gc
import heapq
import math
from collections import deque
from typing import Any, Callable, Generator, Iterable, List, Optional, Tuple

import numpy as np

__all__ = [
    "SimError",
    "Deadlock",
    "Delay",
    "Event",
    "WaitEvent",
    "AllOf",
    "AnyOf",
    "Hop",
    "Process",
    "Engine",
]

_INF = math.inf


class SimError(Exception):
    """Base class for simulation-kernel errors."""


class Deadlock(SimError):
    """Raised when the event queue drains while processes are still blocked."""


class Delay:
    """Request: resume the yielding process after ``ns`` simulated ns."""

    __slots__ = ("ns",)

    def __init__(self, ns: float):
        ns = float(ns)
        # ``not (ns >= 0)`` also catches NaN, which compares False both ways
        # and would otherwise silently corrupt the queue's time ordering.
        if not ns >= 0.0 or ns == _INF:
            raise ValueError(f"delay must be finite and >= 0, got {ns}")
        self.ns = ns

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Delay({self.ns})"


class Event:
    """One-shot signal carrying a value.

    Any number of processes may wait on an event; when it fires they are all
    resumed at the current virtual time (in the order they began waiting).
    A waiter may also be an ``(fn, args)`` callback waiter, run as
    ``fn(*args, value)`` from the zero-delay entry a process wake takes.
    Firing twice is an error unless the event was created with
    ``reusable=True``, in which case each :meth:`fire` wakes the *current*
    waiters and re-arms.
    """

    __slots__ = ("engine", "name", "fired", "value", "_waiters", "reusable")

    def __init__(self, engine: "Engine", name: str = "", reusable: bool = False):
        self.engine = engine
        self.name = name
        self.fired = False
        self.value: Any = None
        self._waiters: List[Any] = []  # processes and (fn, args) pairs
        self.reusable = reusable

    def fire(self, value: Any = None) -> None:
        if self.fired and not self.reusable:
            raise SimError(f"event {self.name!r} fired twice")
        self.fired = True
        self.value = value
        waiters = self._waiters
        if waiters:
            self._waiters = []
            schedule = self.engine._schedule
            for waiter in waiters:
                if type(waiter) is tuple:
                    schedule(0.0, None, (waiter[0], waiter[1] + (value,)))
                else:
                    schedule(0.0, waiter, value)
        if self.reusable:
            self.fired = False

    def _add_waiter(self, proc: "Process") -> None:
        self._waiters.append(proc)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Event({self.name!r}, fired={self.fired})"


class WaitEvent:
    """Request: suspend until ``event`` fires; evaluates to its value."""

    __slots__ = ("event",)

    def __init__(self, event: Event):
        self.event = event


class AllOf:
    """Request: suspend until *all* events fire; evaluates to their values.

    With ``fn``, the slot that would resume the process runs the timer
    ``fn(proc, *args)`` instead, which must resume ``proc`` itself (as a
    :class:`Hop` callback does).
    """

    __slots__ = ("events", "fn", "args")

    def __init__(self, events: Iterable[Event], fn: Optional[Callable] = None, args: tuple = ()):
        self.events = list(events)
        self.fn = fn
        self.args = args


class AnyOf:
    """Request: suspend until *any* event fires; evaluates to (index, value)."""

    __slots__ = ("events",)

    def __init__(self, events: Iterable[Event]):
        self.events = list(events)
        if not self.events:
            raise ValueError("AnyOf requires at least one event")


class Hop:
    """Request: park, run ``fn`` later, resume on cue.

    ``yield Hop(ns, fn, args)`` suspends the yielding process and arranges
    for ``fn(proc, *args)`` to run after ``ns`` simulated ns as an engine
    timer.  The callback — or a callback chain it starts — is responsible
    for eventually resuming ``proc`` via ``Engine._schedule(delay, proc,
    value)``; the yield expression evaluates to that ``value``.

    This is the engine's fused-protocol primitive: a runtime can collapse
    a multi-suspension sequence (resume, bookkeeping, re-suspend) into one
    parked yield plus timers, *provided* the callbacks allocate exactly
    the ``seq`` numbers, at exactly the instants, that the plain coroutine
    sequence would — that is what keeps the fused timeline bit-identical
    to the coroutine one.  Users: the MPI eager ``isend`` (post and copy
    legs), the blocking ``recv`` (post leg, then the match callbacks),
    and SHMEM ``to_all``'s send-then-wait step, whose timer starts the
    transfer and parks the rank on the partner's flag event.  ``AllOf(events, fn, args)`` is the same contract entered
    when the last event fires (MPI ``waitall`` with receives).
    """

    __slots__ = ("ns", "fn", "args")

    def __init__(self, ns: float, fn: Callable, args: tuple = ()):
        ns = float(ns)
        if not ns >= 0.0 or ns == _INF:
            raise ValueError(f"hop delay must be finite and >= 0, got {ns}")
        self.ns = ns
        self.fn = fn
        self.args = args


class Process:
    """A running coroutine inside the engine."""

    __slots__ = (
        "gen",
        "pid",
        "name",
        "finished",
        "result",
        "end_event",
        "_blocked_on",
        "_all_of",
    )

    def __init__(self, engine: "Engine", gen: Generator, pid: int, name: str):
        self.gen = gen
        self.pid = pid
        self.name = name
        self.finished = False
        self.result: Any = None
        #: fires (with the process return value) when the generator returns
        self.end_event = Event(engine, name=f"end:{name}")
        self._blocked_on: Optional[str] = None
        #: the ``AllOf`` this process waits on; its event waiters name only
        #: the process, so a wait that never ends is no reference cycle
        self._all_of: Optional["AllOf"] = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.finished else (self._blocked_on or "ready")
        return f"Process({self.name!r}, {state})"


_EMPTY_T = np.empty(0, dtype=np.float64)
_EMPTY_S = np.empty(0, dtype=np.int64)


class _DelayLane:
    """Hybrid future-wake queue: a heap plus parallel NumPy wake arrays.

    Fine-grained pushes go straight onto ``_heap`` as ``(wake, seq, proc,
    value)`` tuples — the cost of a plain heap queue.  While
    the run loop drains a *large* cohort it instead stages the cohort's
    pushes in ``_buf`` (see ``Engine._stage``); the post-cohort flush sorts
    the whole batch with ``np.lexsort`` and merges it into the sorted
    parallel ``(wake_time, seq)`` arrays in one vectorised pass, so N
    same-pass wakes cost
    one kernel call instead of N heap round-trips.  Every staged entry
    carries a globally increasing ``seq`` larger than any already-merged
    entry's, so the equal-time merge order (existing entries first) is
    exactly the heap's FIFO order; across the heap and the arrays, peeks
    and pops interleave entries by ``(time, seq)``.

    Array-side entry payloads — ``(process, value)`` resume pairs or
    ``(None, (callback, args))`` timers — live in a dict keyed by ``seq``
    so the arrays stay primitive.
    """

    __slots__ = (
        "_times", "_seqs", "_head", "_payload", "_buf", "_heap", "nlive",
        "bulk_flushes", "heap_flushes",
    )

    #: buffered pushes at or above this go through the vectorised merge
    BULK = 16

    def __init__(self) -> None:
        self._times = _EMPTY_T
        self._seqs = _EMPTY_S
        self._head = 0                       # first live slot in the arrays
        self._payload: dict = {}             # seq -> (proc, value), array side only
        self._buf: List[tuple] = []          # staged (wake, seq, proc, value)
        self._heap: List[tuple] = []         # (wake, seq, proc, value)
        self.nlive = 0                       # live array entries (run-loop check)
        self.bulk_flushes = 0
        self.heap_flushes = 0

    def __len__(self) -> int:
        return (self._times.size - self._head) + len(self._buf) + len(self._heap)

    def clear(self) -> None:
        """Drop every queued entry (the heap list itself is kept: the
        engine holds a direct reference to it)."""
        self._times = _EMPTY_T
        self._seqs = _EMPTY_S
        self._head = 0
        self.nlive = 0
        self._payload.clear()
        self._buf.clear()
        self._heap.clear()

    def _flush(self) -> None:
        buf = self._buf
        n = len(buf)
        if not n:
            return
        if n < self.BULK:
            # small cohort: plain heap entries, no payload indirection
            heap = self._heap
            for entry in buf:
                heapq.heappush(heap, entry)
            self.heap_flushes += 1
        else:
            bt = np.array([e[0] for e in buf], dtype=np.float64)
            bs = np.array([e[1] for e in buf], dtype=np.int64)
            payload = self._payload
            for e in buf:
                payload[e[1]] = (e[2], e[3])
            order = np.lexsort((bs, bt))
            bt = bt[order]
            bs = bs[order]
            t1 = self._times[self._head:]
            if t1.size == 0:
                self._times = bt
                self._seqs = bs
            else:
                # every buffered seq is newer than every flushed one, so for
                # equal times the existing run sorts first: searchsorted
                # side="right" over times alone is the exact (time, seq) merge
                pos = np.searchsorted(t1, bt, side="right")
                self._times = np.insert(t1, pos, bt)
                self._seqs = np.insert(self._seqs[self._head:], pos, bs)
            self._head = 0
            self.nlive = self._times.size
            self.bulk_flushes += 1
        buf.clear()

    def peek(self) -> Optional[Tuple[float, int]]:
        """``(time, seq)`` of the earliest entry, or None; flushes the buffer."""
        self._flush()
        times = self._times
        head = self._head
        if head < times.size:
            t = times[head]
            s = self._seqs[head]
            if self._heap:
                entry = self._heap[0]
                if entry[0] < t or (entry[0] == t and entry[1] < s):
                    return entry[0], entry[1]
            return float(t), int(s)
        if self._heap:
            entry = self._heap[0]
            return entry[0], entry[1]
        return None

    def pop_time(self, when: float) -> List[Any]:
        """Remove and return every ``(proc, value)`` with wake time == ``when``.

        Returned in seq (FIFO) order.  Callers must have called :meth:`peek`
        (which flushes) and pass its returned time, so the buffer is empty
        and ``when`` is the queue minimum.
        """
        heap = self._heap
        times = self._times
        i = self._head
        n = times.size
        if i >= n or times[i] != when:
            # heap-only cohort: the common fine-grained case
            out: List[Any] = []
            while heap and heap[0][0] == when:
                e = heapq.heappop(heap)
                out.append((e[2], e[3]))
            return out
        seqs = self._seqs
        arr: List[int] = []
        while i < n and times[i] == when:
            arr.append(int(seqs[i]))
            i += 1
        self._head = i
        self.nlive -= len(arr)
        if i >= n:
            self._times = _EMPTY_T
            self._seqs = _EMPTY_S
            self._head = 0
        payload = self._payload
        if not heap or heap[0][0] != when:
            return [payload.pop(s) for s in arr]
        # both sides hold entries at ``when``: merge the ascending seq runs
        out = []
        a = 0
        na = len(arr)
        while True:
            heap_live = heap and heap[0][0] == when
            if a < na and heap_live:
                if arr[a] < heap[0][1]:
                    out.append(payload.pop(arr[a]))
                    a += 1
                else:
                    e = heapq.heappop(heap)
                    out.append((e[2], e[3]))
            elif a < na:
                out.append(payload.pop(arr[a]))
                a += 1
            elif heap_live:
                e = heapq.heappop(heap)
                out.append((e[2], e[3]))
            else:
                break
        return out


class Engine:
    """Deterministic event-driven simulator.

    Typical use::

        eng = Engine()
        def program():
            yield Delay(10)
            return 42
        proc = eng.spawn(program(), name="p0")
        eng.run()
        assert eng.now == 10 and proc.result == 42
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._zero: deque = deque()
        self._lane = _DelayLane()
        # direct reference to the lane's heap list (never reassigned):
        # _schedule runs once per event, the attribute chain adds up
        self._lheap = self._lane._heap
        self._stage = False
        self._seq: int = 0
        self._procs: List[Process] = []
        self._live: int = 0
        # run-loop statistics (the repo benchmark's traced pass reads these)
        self.zero_lane_hits = 0
        self.cohorts_drained = 0
        self.max_cohort = 0
        self.timer_calls = 0
        self.resumes = 0

    # -- process management -------------------------------------------------

    def spawn(self, gen: Generator, name: str = "") -> Process:
        """Register a generator as a process, to start at the current time."""
        if not hasattr(gen, "send"):
            raise TypeError(f"spawn() needs a generator, got {type(gen).__name__}")
        proc = Process(self, gen, pid=len(self._procs), name=name or f"proc{len(self._procs)}")
        self._procs.append(proc)
        self._live += 1
        self._schedule(0.0, proc, None)
        return proc

    def event(self, name: str = "", reusable: bool = False) -> Event:
        """Create a fresh event bound to this engine."""
        return Event(self, name=name, reusable=reusable)

    # -- scheduling core ----------------------------------------------------

    def _schedule(self, delay: float, proc: Optional[Process], value: Any) -> None:
        now = self.now
        wake = now + delay
        if not wake < _INF:  # rejects NaN and +inf wake times in one branch
            raise ValueError(
                f"non-finite wake time {wake} (now={now}, delay={delay})"
            )
        self._seq += 1
        if wake == now:
            self._zero.append((proc, value))
        elif self._stage:
            # a large cohort is mid-drain: stage for one vectorised merge
            self._lane._buf.append((wake, self._seq, proc, value))
        else:
            heapq.heappush(self._lheap, (wake, self._seq, proc, value))

    def call_after(self, delay: float, fn: Callable, args: tuple = ()) -> None:
        """Invoke ``fn(*args)`` after ``delay`` simulated ns.

        A timer consumes one ``seq`` exactly like a scheduled process
        resume, so callbacks interleave with coroutine wakes in FIFO
        order at equal timestamps.
        """
        if not delay >= 0.0 or delay == _INF:
            raise ValueError(f"delay must be finite and >= 0, got {delay}")
        self.timer_calls += 1
        self._schedule(delay, None, (fn, args))

    def handoff(self, timer: Tuple[Callable, tuple]) -> None:
        """Run ``fn(*args)`` of ``timer = (fn, args)`` now, after the entries already due.

        The zero-delay entry of ``_schedule(0.0, None, timer)``: it takes
        the next seq and joins the zero lane.  It is not counted in
        ``timer_calls``; a caller that stands for a timer counts it there.
        """
        self._seq += 1
        self._zero.append((None, timer))

    def _step(self, proc: Process, value: Any) -> None:
        if proc.finished:
            raise SimError(f"resuming finished process {proc.name!r}")
        proc._blocked_on = None
        self.resumes += 1
        try:
            request = proc.gen.send(value)
        except StopIteration as stop:
            proc.finished = True
            proc.result = stop.value
            self._live -= 1
            end = proc.end_event
            end.fire(stop.value)
            # a fired one-shot event never schedules again: dropping its
            # engine breaks the engine -> _procs -> proc -> end_event cycle
            end.engine = None
            return
        except BaseException:
            proc.finished = True
            self._live -= 1
            raise
        if type(request) is Delay:
            proc._blocked_on = "delay"
            self._schedule(request.ns, proc, None)
        else:
            self._dispatch(proc, request)

    def _dispatch(self, proc: Process, request: Any) -> None:
        if isinstance(request, Delay):
            proc._blocked_on = "delay"
            self._schedule(request.ns, proc, None)
        elif type(request) is Hop:
            proc._blocked_on = "hop"
            self._schedule(request.ns, None, (request.fn, (proc,) + request.args))
        elif isinstance(request, Event):
            self._wait_event(proc, request)
        elif isinstance(request, WaitEvent):
            self._wait_event(proc, request.event)
        elif isinstance(request, AllOf):
            self._wait_all(proc, request)
        elif isinstance(request, AnyOf):
            self._wait_any(proc, request.events)
        else:
            raise SimError(
                f"process {proc.name!r} yielded unsupported request {request!r}; "
                "did you forget 'yield from' on a runtime primitive?"
            )

    def _wait_event(self, proc: Process, event: Event) -> None:
        if event.fired:
            self._schedule(0.0, proc, event.value)
        else:
            proc._blocked_on = f"event:{event.name}"
            event._add_waiter(proc)

    def _wait_all(self, proc: Process, request: AllOf) -> None:
        proc._blocked_on = "all-of"
        for ev in request.events:
            if not ev.fired:
                proc._all_of = request
                # the scan timer takes the slot a helper process's start took
                self._schedule(0.0, None, (self._all_scan, (proc, 0)))
                return
        self._all_done(proc, request)

    def _all_scan(self, proc: Process, start: int, _value: Any = None) -> None:
        """Register on the next unfired event of ``proc._all_of`` from
        ``start``, or finish.

        Runs at the scan timer's slot and then as the callback waiter of
        each event it waited on, resuming after that event, as the helper
        generator's ``for ev in events`` loop did.
        """
        request = proc._all_of
        events = request.events
        for i in range(start, len(events)):
            ev = events[i]
            if not ev.fired:
                ev._waiters.append((self._all_scan, (proc, i + 1)))
                return
        proc._all_of = None
        self._all_done(proc, request)

    def _all_done(self, proc: Process, request: AllOf) -> None:
        if request.fn is None:
            self._schedule(0.0, proc, [ev.value for ev in request.events])
        else:
            self._schedule(0.0, None, (request.fn, (proc,) + request.args))

    def _wait_any(self, proc: Process, events: List[Event]) -> None:
        for idx, ev in enumerate(events):
            if ev.fired:
                self._schedule(0.0, proc, (idx, ev.value))
                return
        proc._blocked_on = "any-of"
        race = [proc]  # the first watcher to fire takes the process
        for idx, ev in enumerate(events):
            # each watch timer takes the slot a watcher process's start took
            self._schedule(0.0, None, (self._any_watch, (race, idx, ev)))

    def _any_watch(self, race: List[Process], idx: int, ev: Event) -> None:
        if ev.fired:
            self._schedule(0.0, None, (self._any_fired, (race, idx, ev.value)))
        else:
            ev._waiters.append((self._any_fired, (race, idx)))

    def _any_fired(self, race: List[Process], idx: int, value: Any) -> None:
        if race:
            self._schedule(0.0, race.pop(), (idx, value))

    # -- run loop -------------------------------------------------------------

    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains, or virtual time would pass ``until``.

        Returns the final virtual time.  Raises :class:`Deadlock` if
        non-finished processes remain but no event can ever wake them.

        The ``until`` boundary is **inclusive-exclusive**: every event
        with timestamp ``<= until`` fires — including events scheduled
        for exactly ``until`` while the boundary cohort is being drained —
        and events strictly after ``until`` stay queued for the next
        :meth:`run` call.  On an early return ``self.now == until``
        (virtual time advances to the boundary even if no event fired
        there), so a subsequent ``run`` can never re-fire an event at a
        time the caller has already observed.  Calling with
        ``until < self.now`` is a no-op — time never moves backwards.
        """
        if until is not None and until < self.now:
            return self.now
        # A run makes no reference cycles (tests/test_gc_free.py), so the
        # cyclic collector would find nothing: pause it for the drain and
        # give the caller back the setting it had.
        collecting = gc.isenabled()
        gc.disable()
        try:
            self._run_batched(until)
        except BaseException:
            self._abandon()
            raise
        finally:
            if collecting:
                gc.enable()
        if self._live > 0 and not self._queued():
            blocked = [p for p in self._procs if not p.finished]
            names = ", ".join(f"{p.name}({p._blocked_on})" for p in blocked[:12])
            message = f"{len(blocked)} process(es) blocked forever: {names}"
            self._abandon()
            raise Deadlock(message)
        return self.now

    def _abandon(self) -> None:
        """Let go of a run that ended in an exception or a deadlock.

        Its unfinished processes never resume.  Their generator frames
        hold the contexts and events that hold them, a process's pending
        ``AllOf`` holds events whose waiters name it, queued entries hold
        processes and callbacks, and an unfired end event holds the
        engine: all reference cycles.  Closing the generators first (their
        ``finally`` blocks may still queue entries), then emptying the
        queues and dropping the end events' engine leaves none.
        """
        for proc in self._procs:
            if not proc.finished:
                proc.gen = proc._all_of = None
        self._zero.clear()
        self._lane.clear()
        for proc in self._procs:
            proc.end_event.engine = None

    def _queued(self) -> bool:
        """True when any entry is still waiting to fire (early ``until`` return)."""
        return bool(self._zero) or len(self._lane) > 0

    def _run_batched(self, until: Optional[float]) -> None:
        """Cohort drain: zero lane first, then whole same-timestamp cohorts."""
        zero = self._zero
        lane = self._lane
        lheap = lane._heap
        lbuf = lane._buf
        heappop = heapq.heappop
        step = self._step
        bulk = lane.BULK
        zero_hits = 0
        cohorts = 0
        max_cohort = self.max_cohort
        try:
            while True:
                while zero:
                    proc, value = zero.popleft()
                    zero_hits += 1
                    if proc is None:
                        fn, args = value
                        fn(*args)
                    else:
                        step(proc, value)
                if lbuf or lane.nlive:
                    # array path: staged pushes and/or merged wake arrays live
                    nxt = lane.peek()
                    if nxt is None:
                        return
                    t = nxt[0]
                    if until is not None and t > until:
                        self.now = until
                        return
                    self.now = t
                    cohort = lane.pop_time(t)
                elif lheap:
                    entry = lheap[0]
                    t = entry[0]
                    if until is not None and t > until:
                        self.now = until
                        return
                    self.now = t
                    heappop(lheap)
                    cohorts += 1
                    if not lheap or lheap[0][0] != t:
                        # singleton cohort: the fine-grained common case,
                        # exactly one heap pop
                        if max_cohort == 0:
                            max_cohort = 1
                        proc = entry[2]
                        if proc is None:
                            fn, args = entry[3]
                            fn(*args)
                        else:
                            step(proc, entry[3])
                        continue
                    cohort = [(entry[2], entry[3])]
                    while lheap and lheap[0][0] == t:
                        e = heappop(lheap)
                        cohort.append((e[2], e[3]))
                    cohorts -= 1  # counted again below
                else:
                    return
                n = len(cohort)
                cohorts += 1
                if n > max_cohort:
                    max_cohort = n
                if n >= bulk:
                    # big cohort: stage its wake pushes for one bulk merge
                    self._stage = True
                    try:
                        for proc, value in cohort:
                            if proc is None:
                                fn, args = value
                                fn(*args)
                            else:
                                step(proc, value)
                    finally:
                        self._stage = False
                    lane._flush()
                else:
                    for proc, value in cohort:
                        if proc is None:
                            fn, args = value
                            fn(*args)
                        else:
                            step(proc, value)
        finally:
            self.zero_lane_hits += zero_hits
            self.cohorts_drained += cohorts
            self.max_cohort = max_cohort

    # -- introspection ---------------------------------------------------------

    def counters(self) -> dict:
        """Run-loop statistics for benchmarks."""
        return {
            "events": self._seq,
            "zero_lane_hits": self.zero_lane_hits,
            "cohorts_drained": self.cohorts_drained,
            "max_cohort": self.max_cohort,
            "timer_calls": self.timer_calls,
            "resumes": self.resumes,
            "lane_bulk_flushes": self._lane.bulk_flushes,
            "lane_heap_flushes": self._lane.heap_flushes,
        }
