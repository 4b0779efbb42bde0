"""A simulated run makes no reference cycles, and ``Engine.run`` pauses the collector.

``Engine.run`` switches Python's cyclic garbage collector off while its
queue drains and restores the caller's setting afterwards.  That is only
free if a run leaves the collector nothing to find: every object a run
makes must be freed by reference counting.  These tests hold both halves:

* under ``gc.DEBUG_SAVEALL`` a ``gc.collect()`` finds no cyclic garbage
  right after a run (machine and result still held; this also sees any
  cycle made and dropped mid-run) and again once both are dropped;
* a run that ends in a ``Deadlock`` or a rank's exception leaves none
  either: its blocked ranks' frames, queued entries and posted receives
  are let go;
* ``Engine.run`` leaves ``gc.isenabled()`` as it found it however the
  run ends, and no collection fires while it drains.

Each checked run follows a warm-up run of the same cell at P=2, because a
module's first import can leave type-object cycles that are not the run's.
"""

from __future__ import annotations

import functools
import gc
import itertools
from collections import Counter
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.apps.adapt import AdaptConfig, build_script
from repro.apps.adapt3d import Adapt3DConfig
from repro.apps.jacobi import JacobiConfig
from repro.apps.nbody import NBodyConfig
from repro.harness.experiment import APP_MODELS, _programs
from repro.machine import Machine, MachineConfig
from repro.models.registry import run_program
from repro.sim.engine import Deadlock, Delay, Engine
from repro.workloads.synth import SCENARIO_CLASSES, generate_scenario, spec_config

FAULTS = ("none", "bursty-links", "lossy")

WORKLOADS = {
    "adapt": AdaptConfig(mesh_n=6, phases=3, solver_iters=4),
    "adapt3d": Adapt3DConfig(mesh_n=2, phases=3, solver_iters=4),
    "scenario": spec_config(
        generate_scenario("multi_front", seed=3, mesh_n=6, phases=3, solver_iters=4)
    ),
    "jacobi": JacobiConfig(nx=32, ny=32, iters=6),
    "nbody": NBodyConfig(n=128, steps=2),
}


@functools.lru_cache(maxsize=32)
def _script(cfg, nprocs: int, faults: str):
    return build_script(cfg, nprocs, faults=faults)


def _inputs(app: str, cfg, nprocs: int, faults: str):
    """The rank programs' argument: a built trajectory for the adapt apps."""
    if app in ("adapt", "adapt3d", "scenario"):
        return _script(cfg, nprocs, faults)
    return cfg


def _launch(app: str, model: str, nprocs: int, faults: str, trace: bool, cfg=None):
    cfg = WORKLOADS[app] if cfg is None else cfg
    arg = _inputs(app, cfg, nprocs, faults)
    machine = Machine(MachineConfig(nprocs=nprocs), faults=faults)
    result = run_program(
        model, _programs(app)[model], nprocs, arg, machine=machine, trace=trace
    )
    return machine, result


def _cyclic_garbage() -> Counter:
    """Types of the objects a full collection finds unreachable (then forgets them)."""
    gc.collect()
    found = Counter(type(obj).__name__ for obj in gc.garbage)
    gc.garbage.clear()
    return found


@contextmanager
def _save_all():
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        yield
    finally:
        gc.set_debug(0)
        gc.garbage.clear()


def assert_run_is_cycle_free(app, model, nprocs, faults, trace, cfg=None):
    _launch(app, model, 2, faults, trace, cfg)  # warm: first imports, lazy tables
    _inputs(app, WORKLOADS[app] if cfg is None else cfg, nprocs, faults)
    with _save_all():
        machine, result = _launch(app, model, nprocs, faults, trace, cfg)
        during = _cyclic_garbage()
        assert result.elapsed_ns > 0
        del machine, result
        after = _cyclic_garbage()
    assert not during, f"cyclic garbage right after the run: {during.most_common(8)}"
    assert not after, f"cyclic garbage once the run was dropped: {after.most_common(8)}"


CELLS = [
    (app, model, faults, trace)
    for app in WORKLOADS
    for model in APP_MODELS[app]
    for faults, trace in itertools.product(FAULTS, (False, True))
]


@pytest.mark.parametrize(
    "app,model,faults,trace", CELLS,
    ids=[f"{a}-{m}-{f}-{'traced' if t else 'untraced'}" for a, m, f, t in CELLS],
)
def test_run_leaves_no_cyclic_garbage(app, model, faults, trace):
    assert_run_is_cycle_free(app, model, 8, faults, trace)


HIGH_P = [
    (app, model, faults)
    for app in ("adapt", "nbody")
    for model in APP_MODELS[app]
    for faults in ("none", "bursty-links")
]


@pytest.mark.nightly
@pytest.mark.parametrize(
    "app,model,faults", HIGH_P, ids=[f"{a}-{m}-{f}" for a, m, f in HIGH_P]
)
def test_high_p_run_leaves_no_cyclic_garbage(app, model, faults):
    assert_run_is_cycle_free(app, model, 64, faults, False)


@settings(
    max_examples=12, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    cls=st.sampled_from(sorted(SCENARIO_CLASSES)),
    seed=st.integers(0, 2**16),
    model=st.sampled_from(APP_MODELS["scenario"]),
    nprocs=st.sampled_from((2, 4, 8)),
    faults=st.sampled_from(FAULTS),
)
def test_generated_scenarios_leave_no_cyclic_garbage(cls, seed, model, nprocs, faults):
    spec = generate_scenario(cls, seed=seed, mesh_n=6, phases=3, solver_iters=4)
    assert_run_is_cycle_free("scenario", model, nprocs, faults, False, spec_config(spec))


# -- runs that fail -----------------------------------------------------------------

def _waitall(ctx):
    request = yield from ctx.irecv(1)
    yield from ctx.waitall([request])


#: wait name -> (model, a wait on rank 1 that rank 1 never satisfies,
#: what the Deadlock message says rank 0 is blocked on)
WAITS = {
    "mpi-recv": ("mpi", lambda ctx: ctx.recv(1), "hop"),
    "mpi-waitall": ("mpi", _waitall, "all-of"),
    "shmem-broadcast": ("shmem", lambda ctx: ctx.broadcast(None, root=1),
                        "event:sig:(0, ('bc', 1, 1))"),
    "sas-barrier": ("sas", lambda ctx: ctx.barrier(), "event:sas-barrier"),
}

FAILURES = [(wait, ending) for wait in WAITS for ending in ("deadlock", "raise")]


def _failing_program(wait: str, ending: str):
    """Rank 0 blocks in ``WAITS[wait]``; rank 1 returns, or raises."""
    _, wait, _ = WAITS[wait]

    def program(ctx):
        if ctx.rank == 0:
            yield from wait(ctx)
        yield Delay(5)
        if ending == "raise":
            raise KeyError("rank failed")
        return ctx.rank

    return program


def _run_failing(model: str, program, nprocs: int = 2, arg=None,
                 faults: str = "none"):
    """``(machine, what the run raised)``; the exception itself is dropped."""
    machine = Machine(MachineConfig(nprocs=nprocs), faults=faults)
    try:
        run_program(model, program, nprocs, *([] if arg is None else [arg]),
                    machine=machine)
    except Exception as exc:  # noqa: BLE001 - returned for the caller to check
        return machine, (type(exc), str(exc))
    return machine, None


def _assert_failure_is_cycle_free(*launch):
    """Run a failing cell twice (warm, then checked); returns what it raised."""
    _run_failing(*launch)
    with _save_all():
        machine, raised = _run_failing(*launch)
        during = _cyclic_garbage()
        del machine
        after = _cyclic_garbage()
    assert not during, f"cyclic garbage right after the run: {during.most_common(8)}"
    assert not after, f"cyclic garbage once the run was dropped: {after.most_common(8)}"
    return raised


@pytest.mark.parametrize(
    "wait,ending", FAILURES, ids=[f"{w}-{e}" for w, e in FAILURES]
)
def test_failed_run_leaves_no_cyclic_garbage(wait, ending):
    raised = _assert_failure_is_cycle_free(WAITS[wait][0], _failing_program(wait, ending))
    if ending == "raise":
        assert raised == (KeyError, "'rank failed'")
    else:
        blocked_on = WAITS[wait][2]
        assert raised == (Deadlock, f"1 process(es) blocked forever: rank0({blocked_on})")


def test_failed_fault_recovery_leaves_no_cyclic_garbage():
    # this cell gives up retransmitting under bursty-links while ranks
    # wait in AllOfs and spawned SHMEM put and collective processes
    cfg = AdaptConfig(mesh_n=16)
    script = _script(cfg, 16, "bursty-links")
    raised = _assert_failure_is_cycle_free(
        "shmem", _programs("adapt")["shmem"], 16, script, "bursty-links")
    assert raised[0].__name__ == "FaultRecoveryError"


# -- the collector's state around Engine.run -------------------------------------


def _gc_state_after(run):
    """``(gc.isenabled() after run(), what run() raised or None)``.

    The collector is on beforehand and switched back on afterwards, so a
    failed check cannot leak a disabled collector into other tests.
    """
    assert gc.isenabled()
    raised = None
    try:
        run()
    except Exception as exc:
        raised = exc
    state = gc.isenabled()
    gc.enable()
    return state, raised


def _ticker(n: int = 3, ns: float = 10.0):
    for _ in range(n):
        yield Delay(ns)
    return n


class TestCollectorState:
    def test_clean_run_restores(self):
        eng = Engine()
        eng.spawn(_ticker())
        assert _gc_state_after(eng.run) == (True, None)

    def test_deadlock_restores(self):
        eng = Engine()

        def stuck():
            yield eng.event("never")

        eng.spawn(stuck(), name="stuck")
        state, raised = _gc_state_after(eng.run)
        assert isinstance(raised, Deadlock)
        assert state is True

    def test_raising_rank_restores(self):
        eng = Engine()

        def bad():
            yield Delay(5)
            raise KeyError("rank failed")

        eng.spawn(bad())
        state, raised = _gc_state_after(eng.run)
        assert isinstance(raised, KeyError)
        assert state is True

    def test_run_until_steps_restore(self):
        eng = Engine()
        proc = eng.spawn(_ticker(5))
        for until in (15.0, 25.0, 35.0, None):
            assert _gc_state_after(functools.partial(eng.run, until)) == (True, None)
        assert proc.result == 5 and eng.now == 50.0

    def test_caller_disabled_stays_disabled(self):
        eng = Engine()
        eng.spawn(_ticker())
        gc.disable()
        try:
            eng.run()
            assert not gc.isenabled()
        finally:
            gc.enable()

    def test_no_collection_while_draining(self):
        # each step keeps thousands of fresh containers alive, enough to
        # trigger several gen-0 collections were the collector on
        keep = []

        def hoard():
            for _ in range(20):
                keep.append([[i] for i in range(2000)])
                yield Delay(1)

        eng = Engine()
        eng.spawn(hoard())
        fired = []
        callback = lambda phase, info: fired.append((phase, info["generation"]))
        gc.callbacks.append(callback)
        try:
            eng.run()
        finally:
            gc.callbacks.remove(callback)
        assert len(keep) == 20
        assert fired == []
