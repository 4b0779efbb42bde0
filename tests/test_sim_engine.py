"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim import AllOf, AnyOf, Deadlock, Delay, Engine, SimError
from repro.sim.engine import WaitEvent, _DelayLane


def test_delay_advances_time():
    eng = Engine()

    def prog():
        yield Delay(5)
        yield Delay(7)
        return "done"

    proc = eng.spawn(prog())
    eng.run()
    assert eng.now == 12
    assert proc.result == "done"
    assert proc.finished


def test_zero_delay_allowed():
    eng = Engine()

    def prog():
        yield Delay(0)
        return 1

    proc = eng.spawn(prog())
    eng.run()
    assert eng.now == 0
    assert proc.result == 1


def test_negative_delay_rejected():
    with pytest.raises(ValueError):
        Delay(-1)


def test_fifo_tie_breaking_is_deterministic():
    order = []

    def prog(tag):
        yield Delay(10)
        order.append(tag)

    eng = Engine()
    for tag in range(5):
        eng.spawn(prog(tag))
    eng.run()
    assert order == [0, 1, 2, 3, 4]


def test_event_carries_value():
    eng = Engine()
    ev = eng.event("x")

    def producer():
        yield Delay(3)
        ev.fire(99)

    def consumer():
        value = yield WaitEvent(ev)
        return value

    eng.spawn(producer())
    cons = eng.spawn(consumer())
    eng.run()
    assert cons.result == 99
    assert eng.now == 3


def test_event_already_fired_resumes_immediately():
    eng = Engine()
    ev = eng.event("pre")
    ev.fire("early")

    def consumer():
        value = yield WaitEvent(ev)
        return value

    cons = eng.spawn(consumer())
    eng.run()
    assert cons.result == "early"


def test_event_double_fire_is_error():
    eng = Engine()
    ev = eng.event("once")
    ev.fire()
    with pytest.raises(SimError):
        ev.fire()


def test_reusable_event_refires():
    eng = Engine()
    ev = eng.event("re", reusable=True)
    seen = []

    def consumer():
        for _ in range(2):
            value = yield WaitEvent(ev)
            seen.append(value)

    def producer():
        yield Delay(1)
        ev.fire("a")
        yield Delay(1)
        ev.fire("b")

    eng.spawn(consumer())
    eng.spawn(producer())
    eng.run()
    assert seen == ["a", "b"]


def test_yielding_raw_event_works():
    eng = Engine()
    ev = eng.event()

    def consumer():
        value = yield ev
        return value

    def producer():
        yield Delay(2)
        ev.fire(7)

    cons = eng.spawn(consumer())
    eng.spawn(producer())
    eng.run()
    assert cons.result == 7


def test_all_of_waits_for_every_event():
    eng = Engine()
    evs = [eng.event(str(i)) for i in range(3)]

    def firer(i, t):
        yield Delay(t)
        evs[i].fire(i * 10)

    def waiter():
        values = yield AllOf(evs)
        return values

    for i, t in enumerate((5, 1, 3)):
        eng.spawn(firer(i, t))
    w = eng.spawn(waiter())
    eng.run()
    assert w.result == [0, 10, 20]
    assert eng.now == 5


def test_all_of_empty_and_prefired():
    eng = Engine()
    evs = [eng.event(str(i)) for i in range(2)]
    for i, ev in enumerate(evs):
        ev.fire(i)

    def waiter():
        values = yield AllOf(evs)
        return values

    w = eng.spawn(waiter())
    eng.run()
    assert w.result == [0, 1]


def test_any_of_returns_first():
    eng = Engine()
    evs = [eng.event(str(i)) for i in range(3)]

    def firer(i, t):
        yield Delay(t)
        evs[i].fire(f"v{i}")

    def waiter():
        idx, value = yield AnyOf(evs)
        return idx, value

    for i, t in enumerate((5, 2, 9)):
        eng.spawn(firer(i, t))
    w = eng.spawn(waiter())
    eng.run()
    assert w.result == (1, "v1")


def test_any_of_requires_events():
    with pytest.raises(ValueError):
        AnyOf([])


def test_deadlock_detected():
    eng = Engine()
    ev = eng.event("never")

    def stuck():
        yield WaitEvent(ev)

    eng.spawn(stuck())
    with pytest.raises(Deadlock):
        eng.run()


def test_process_exception_propagates():
    eng = Engine()

    def bad():
        yield Delay(1)
        raise RuntimeError("boom")

    eng.spawn(bad())
    with pytest.raises(RuntimeError, match="boom"):
        eng.run()


def test_unsupported_yield_raises():
    eng = Engine()

    def bad():
        yield 42

    eng.spawn(bad())
    with pytest.raises(SimError, match="unsupported request"):
        eng.run()


def test_spawn_requires_generator():
    eng = Engine()
    with pytest.raises(TypeError):
        eng.spawn(lambda: None)


def test_run_until_stops_early():
    eng = Engine()

    def prog():
        yield Delay(100)

    eng.spawn(prog())
    eng.run(until=50)
    assert eng.now == 50


def test_end_event_fires_with_result():
    eng = Engine()

    def prog():
        yield Delay(1)
        return "finished"

    proc = eng.spawn(prog())

    def watcher():
        value = yield WaitEvent(proc.end_event)
        return value

    w = eng.spawn(watcher())
    eng.run()
    assert w.result == "finished"


def test_nested_yield_from_composition():
    eng = Engine()

    def inner():
        yield Delay(4)
        return 2

    def outer():
        a = yield from inner()
        b = yield from inner()
        return a + b

    proc = eng.spawn(outer())
    eng.run()
    assert proc.result == 4
    assert eng.now == 8


def test_any_of_losing_watchers_do_not_deadlock():
    """Internal any-of watcher helpers must not count toward liveness.

    After an ``AnyOf`` race is decided, the watchers for the *losing* events
    stay blocked forever.  If those helpers counted as live processes, the
    run loop would raise :class:`Deadlock` even though every user process
    finished — the regression this pins down.
    """
    eng = Engine()
    evs = [eng.event(name=f"e{i}") for i in range(3)]

    def racer():
        idx, value = yield AnyOf(evs)
        return idx

    def firer():
        yield Delay(5)
        evs[1].fire("won")
        # evs[0] and evs[2] are never fired: their watchers stay blocked

    proc = eng.spawn(racer())
    eng.spawn(firer())
    eng.run()  # must complete without Deadlock
    assert proc.result == 1
    assert eng.now == 5


def test_sequential_any_of_races_accumulate_stale_watchers():
    """Many decided races leave many dead watchers; still no false deadlock."""
    eng = Engine()

    def driver():
        for i in range(10):
            winner = eng.event(name=f"win{i}")
            loser = eng.event(name=f"lose{i}")
            eng.spawn(_fire_later(winner))
            idx, _ = yield AnyOf([loser, winner])
            assert idx == 1
        return "done"

    def _fire_later(ev):
        yield Delay(1)
        ev.fire()

    proc = eng.spawn(driver())
    eng.run()
    assert proc.result == "done"


# -- batched engine core ---------------------------------------------------------


class _BulkLane(_DelayLane):
    """A delay lane that sends every staged cohort through the array merge."""

    __slots__ = ()
    BULK = 1


def _engine(force_bulk: bool) -> Engine:
    """An engine whose delay lane, with ``force_bulk``, always takes the array path.

    Both lane representations must produce the same timeline, so tests
    parametrised over this run once per representation.
    """
    eng = Engine()
    if force_bulk:
        eng._lane = _BulkLane()
        eng._lheap = eng._lane._heap
    return eng


def test_delay_rejects_non_finite():
    for bad in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(ValueError):
            Delay(bad)


def test_schedule_rejects_non_finite_wake():
    eng = Engine()
    with pytest.raises(ValueError, match="non-finite wake"):
        eng._schedule(float("inf"), None, None)
    with pytest.raises(ValueError, match="non-finite wake"):
        eng._schedule(float("nan"), None, None)


@pytest.mark.parametrize("force_bulk", [True, False])
def test_run_until_boundary_is_inclusive(force_bulk):
    """An event scheduled exactly at ``until`` fires; later ones stay queued."""
    eng = _engine(force_bulk)
    fired = []

    def prog():
        yield Delay(10)
        fired.append("at-10")
        yield Delay(5)
        fired.append("at-15")

    eng.spawn(prog())
    eng.run(until=10)
    assert fired == ["at-10"]
    assert eng.now == 10
    eng.run()
    assert fired == ["at-10", "at-15"]
    assert eng.now == 15


@pytest.mark.parametrize("force_bulk", [True, False])
def test_run_until_advances_time_without_events(force_bulk):
    eng = _engine(force_bulk)

    def prog():
        yield Delay(100)

    eng.spawn(prog())
    eng.run(until=40)  # nothing fires at 40, but time reaches the boundary
    assert eng.now == 40
    eng.run(until=100)
    assert eng.now == 100


@pytest.mark.parametrize("force_bulk", [True, False])
def test_run_until_in_the_past_is_a_noop(force_bulk):
    eng = _engine(force_bulk)

    def prog():
        yield Delay(20)
        return "ok"

    proc = eng.spawn(prog())
    eng.run(until=30)
    assert eng.now == 20 or eng.now == 30  # queue drained at 20, clamp <= 30
    t = eng.run(until=5)  # must not move time backwards or re-fire anything
    assert t == eng.now
    assert proc.result == "ok"


@pytest.mark.parametrize("force_bulk", [True, False])
def test_run_until_never_refires_boundary_events(force_bulk):
    """Events at the boundary fire exactly once across successive runs."""
    eng = _engine(force_bulk)
    hits = []

    def prog():
        yield Delay(10)
        hits.append(1)

    eng.spawn(prog())
    eng.run(until=10)
    eng.run(until=10)
    eng.run()
    assert hits == [1]


def test_hop_rejects_bad_delay():
    from repro.sim.engine import Hop

    with pytest.raises(ValueError):
        Hop(-1.0, lambda proc: None, ())
    with pytest.raises(ValueError):
        Hop(float("nan"), lambda proc: None, ())


def test_hop_runs_callback_and_callback_resumes_process():
    from repro.sim.engine import Hop

    eng = Engine()
    log = []

    def leg(proc, tag):
        log.append((tag, eng.now))
        eng._schedule(3.0, proc, "resumed")

    def prog():
        value = yield Hop(5.0, leg, ("hop",))
        log.append((value, eng.now))

    eng.spawn(prog())
    eng.run()
    assert log == [("hop", 5.0), ("resumed", 8.0)]


def test_call_after_interleaves_fifo_with_process_wakes():
    eng = Engine()
    order = []

    def prog(tag):
        yield Delay(10)
        order.append(tag)

    eng.spawn(prog("a"))
    eng.call_after(10.0, order.append, ("timer",))
    eng.spawn(prog("b"))
    eng.run()
    # seq order: the timer was scheduled at t=0 before either process had
    # reached its Delay (spawn only queues the start entry), so it fires
    # first in the t=10 cohort
    assert order == ["timer", "a", "b"]


def test_handoff_is_a_zero_delay_entry_without_a_timer_count():
    """``handoff`` takes one seq in the zero lane, after entries already due."""
    eng = Engine()
    order = []

    def prog(tag):
        yield Delay(0)
        order.append((tag, eng.now))

    def first():
        yield Delay(4)
        eng.spawn(prog("woken"))
        eng.call_after(0.0, order.append, (("timer", eng.now),))
        eng.handoff((order.append, (("handoff", eng.now),)))

    eng.spawn(first())
    eng.run()
    assert order == [("timer", 4.0), ("handoff", 4.0), ("woken", 4.0)]
    counters = eng.counters()
    assert counters["timer_calls"] == 1
    # two spawns, two delays, one call_after, one handoff
    assert counters["events"] == 6


def test_batched_and_scalar_timelines_identical():
    """A process soup reproduces the (now, order) the scalar heap loop recorded."""

    def workload(eng, order, tag, delays):
        def prog():
            for d in delays:
                yield Delay(d)
                order.append((tag, eng.now))

        return prog()

    eng = Engine()
    order = []
    for tag, delays in (("a", [3, 0, 4]), ("b", [3, 4]), ("c", [7, 0, 0])):
        eng.spawn(workload(eng, order, tag, delays))
    eng.run()
    # recorded from the one-entry-at-a-time (time, seq) heap loop
    assert (eng.now, order) == (7.0, [
        ("a", 3.0), ("b", 3.0), ("a", 3.0), ("c", 7.0),
        ("b", 7.0), ("a", 7.0), ("c", 7.0), ("c", 7.0),
    ])


def test_bulk_merge_keeps_equal_wake_times_in_seq_order():
    """A wake staged onto an array entry's exact time fires after it (FIFO by seq)."""
    eng = _engine(force_bulk=True)
    order = []

    def prog(tag, delays):
        for d in delays:
            yield Delay(d)
        order.append((tag, eng.now))

    # at t=1 both wake in one cohort: a's wake for t=5 is merged into the
    # arrays; at t=3 b stages another t=5 wake, with a later seq
    eng.spawn(prog("a", [1, 4]))
    eng.spawn(prog("b", [1, 2, 2]))
    eng.run()
    assert eng.counters()["lane_bulk_flushes"] >= 2
    assert order == [("a", 5.0), ("b", 5.0)]


def test_engine_counters_report_batched_activity():
    eng = Engine()

    def prog():
        yield Delay(1)
        yield Delay(0)

    eng.spawn(prog())
    eng.run()
    c = eng.counters()
    assert c["events"] > 0
    assert c["zero_lane_hits"] >= 1


# -- AnyOf losing watchers under the cohort drain -----------------------------


@pytest.mark.parametrize("force_bulk", [True, False])
def test_any_of_late_loser_does_not_resurrect_process(force_bulk):
    """A losing event firing *after* the race must not resume the racer."""
    eng = _engine(force_bulk)
    winner = eng.event("winner")
    loser = eng.event("loser")
    resumes = []

    def racer():
        idx, value = yield AnyOf([winner, loser])
        resumes.append((idx, value, eng.now))
        yield Delay(10)
        resumes.append(("after", eng.now))
        return "done"

    def firer():
        yield Delay(1)
        winner.fire("w")
        yield Delay(2)
        loser.fire("l")  # decided race: must be swallowed by the dead watcher

    proc = eng.spawn(racer())
    eng.spawn(firer())
    eng.run()
    assert proc.result == "done"
    assert resumes == [(0, "w", 1.0), ("after", 11.0)]


@pytest.mark.parametrize("force_bulk", [True, False])
def test_any_of_same_instant_cohort_picks_lowest_index(force_bulk):
    """Two events firing in one same-timestamp cohort: first fire wins,
    and the loser's watcher dies without a second resume."""
    eng = _engine(force_bulk)
    evs = [eng.event(f"e{i}") for i in range(2)]

    def firer(i):
        yield Delay(5)
        evs[i].fire(f"v{i}")

    def racer():
        idx, value = yield AnyOf(evs)
        return idx, value, eng.now

    # both fire at t=5 in one cohort; spawn order fixes the winner
    eng.spawn(firer(0))
    eng.spawn(firer(1))
    proc = eng.spawn(racer())
    eng.run()
    assert proc.result == (0, "v0", 5.0)


@pytest.mark.parametrize("force_bulk", [True, False])
def test_nested_any_of_inside_all_of_under_cohort_drain(force_bulk):
    """AllOf over end-events of AnyOf racers, all deciding in one cohort."""
    eng = _engine(force_bulk)
    n = 4
    winners = [eng.event(f"w{i}") for i in range(n)]
    losers = [eng.event(f"l{i}") for i in range(n)]

    def racer(i):
        idx, value = yield AnyOf([losers[i], winners[i]])
        return (i, idx, value)

    def firer():
        yield Delay(3)
        for i in range(n):  # every race decides in the same cohort
            winners[i].fire(f"win{i}")
        yield Delay(1)
        losers[0].fire("late")  # and one loser fires after the fact

    racers = [eng.spawn(racer(i)) for i in range(n)]

    def collector():
        values = yield AllOf([r.end_event for r in racers])
        return values

    c = eng.spawn(collector())
    eng.spawn(firer())
    eng.run()
    assert c.result == [(i, 1, f"win{i}") for i in range(n)]


# -- callback waiters: AllOf/AnyOf run without helper processes ---------------


def test_all_of_and_any_of_create_no_processes():
    """The waits register callback waiters; only the spawned programs run."""
    eng = Engine()
    evs = [eng.event(f"e{i}") for i in range(3)]

    def firer():
        for i, ev in enumerate(evs):
            yield Delay(i + 1)
            ev.fire(i)

    def waiter():
        first = yield AnyOf(evs)
        values = yield AllOf(evs)
        return first, values

    w = eng.spawn(waiter())
    eng.spawn(firer())
    eng.run()
    assert w.result == ((0, 0), [0, 1, 2])
    assert len(eng._procs) == 2
    # firer: start and three delay wakes; waiter: start and one wake per wait
    assert eng.counters()["resumes"] == 7


def test_all_of_continuation_runs_in_the_resume_slot():
    """``AllOf(events, fn, args)`` calls ``fn(proc, *args)`` when the last fires."""
    eng = Engine()
    evs = [eng.event(f"e{i}") for i in range(2)]
    seen = []

    def cont(proc, tag):
        seen.append((tag, eng.now, [ev.value for ev in evs]))
        eng._schedule(0.0, proc, "resumed")

    def waiter():
        value = yield AllOf(evs, cont, ("t",))
        return value

    def firer():
        yield Delay(2)
        evs[1].fire("b")
        yield Delay(3)
        evs[0].fire("a")

    w = eng.spawn(waiter())
    eng.spawn(firer())
    eng.run()
    assert seen == [("t", 5.0, ["a", "b"])]
    assert w.result == "resumed"


def test_any_of_and_all_of_keep_the_helper_process_slots():
    """Same-instant interleaving and seq count of the helper-process engine.

    The expected log and seq count were recorded from the engine whose
    ``AllOf``/``AnyOf`` spawned helper processes: a watcher that finds
    its event already fired, a scan that resumes after several events,
    and a losing watcher firing late must each take that engine's slots.
    """
    eng = Engine()
    a, b, c, d = (eng.event(n) for n in "abcd")
    log = []

    def racer():
        idx, v = yield AnyOf([a, b, d])
        log.append(("any", idx, v, eng.now))
        vals = yield AllOf([b, c, a])
        log.append(("all", vals, eng.now))
        idx, v = yield AnyOf([d, c])
        log.append(("any2", idx, v, eng.now))

    def firer():
        a.fire("A")  # same instant, before the watchers start
        yield Delay(0)
        log.append(("f0", eng.now))
        b.fire("B")
        yield Delay(0)
        log.append(("f1", eng.now))
        yield Delay(1)
        c.fire("C")
        d.fire("D")  # a loser of the first race fires late
        yield Delay(0)
        log.append(("f2", eng.now))

    def bystander():
        for i in range(8):
            log.append(("by", i, eng.now))
            yield Delay(0)

    eng.spawn(racer())
    eng.spawn(firer())
    eng.spawn(bystander())
    eng.run()
    assert log == [
        ("by", 0, 0.0), ("f0", 0.0), ("by", 1, 0.0), ("f1", 0.0), ("by", 2, 0.0),
        ("any", 0, "A", 0.0), ("by", 3, 0.0), ("by", 4, 0.0), ("by", 5, 0.0),
        ("by", 6, 0.0), ("by", 7, 0.0), ("f2", 1.0), ("all", ["B", "C", "A"], 1.0),
        ("any2", 0, "D", 1.0),
    ]
    assert eng.counters()["events"] == 26
