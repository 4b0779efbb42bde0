"""Fault-injection subsystem: determinism, recovery, and zero-cost-off.

The contract under test (see docs/faults.md):

* faults off — bit-identical to a machine built with no fault plane at
  all (``faults=None`` vs ``faults="none"`` vs the profile-less default);
* faults on — two runs with the same seed and profile are bit-identical
  in simulated time, per-rank results, counters *and* event streams;
* every model actually recovers (nonzero retries under "lossy" at P=4);
* the knobs behave: windows gate injection, ``drop_rate=1.0`` exhausts
  retries into :class:`FaultRecoveryError`, NACK bounces are bounded.
"""

import pytest

from repro.faults import (
    COUNTER_KEYS,
    FaultPlane,
    FaultProfile,
    FaultRecoveryError,
    PROFILES,
    resolve_profile,
)
from repro.harness.experiment import run_app
from repro.harness.faultbench import run_fault_bench
from repro.models.registry import run_program

MODELS = ("mpi", "shmem", "sas")


def _adapt(model, faults=None, nprocs=4, trace=False):
    from repro.apps.adapt import AdaptConfig

    wl = AdaptConfig(mesh_n=8, phases=3, solver_iters=6)
    return run_app("adapt", model, nprocs, wl, trace=trace, faults=faults)


def _fingerprint(result):
    events = (
        [e.to_dict() for e in result.events] if result.events is not None else None
    )
    return (
        result.elapsed_ns,
        repr(result.rank_results),
        result.stats.summary(),
        result.fault_summary,
        events,
    )


# -- profiles -----------------------------------------------------------------


def test_profiles_resolve():
    for name in PROFILES:
        prof = resolve_profile(name)
        assert prof.name == name
    assert resolve_profile(None).name == "none"
    assert not resolve_profile(None).any_faults
    assert resolve_profile("lossy").any_faults
    custom = FaultProfile(name="x", drop_rate=0.5)
    assert resolve_profile(custom) is custom
    reseeded = resolve_profile("lossy", seed=99)
    assert reseeded.seed == 99 and reseeded.drop_rate == PROFILES["lossy"].drop_rate


@pytest.mark.parametrize("seed", ["x", 1.0, True])
def test_resolve_refuses_a_non_integer_seed(seed):
    with pytest.raises(ValueError, match=repr(seed).replace(".", r"\.")):
        resolve_profile("lossy", seed=seed)


def test_profile_validation():
    with pytest.raises(ValueError):
        FaultProfile(name="bad", drop_rate=1.5)
    with pytest.raises(ValueError):
        FaultProfile(name="bad", max_retries=-1)
    with pytest.raises(ValueError):
        resolve_profile("no-such-profile")


def test_plane_counters_schema():
    plane = FaultPlane(resolve_profile("lossy"))
    assert plane.enabled
    assert set(plane.counters) == set(COUNTER_KEYS)
    assert FaultPlane().enabled is False


# -- zero-cost when off -------------------------------------------------------


@pytest.mark.parametrize("model", MODELS)
def test_faults_off_bit_identical(model):
    """faults=None, faults="none" and the default machine agree exactly."""
    plain = _fingerprint(_adapt(model))
    named_off = _fingerprint(_adapt(model, faults="none"))
    assert plain == named_off


# -- determinism under injection ----------------------------------------------


@pytest.mark.parametrize("model", MODELS)
def test_seeded_faults_deterministic(model):
    """Same seed + profile => bit-identical runs, events included."""
    a = _fingerprint(_adapt(model, faults="lossy", trace=True))
    b = _fingerprint(_adapt(model, faults="lossy", trace=True))
    assert a == b


@pytest.mark.parametrize("model", MODELS)
def test_tracing_does_not_change_faulted_time(model):
    traced = _adapt(model, faults="lossy", trace=True)
    untraced = _adapt(model, faults="lossy")
    assert traced.elapsed_ns == untraced.elapsed_ns
    assert traced.fault_summary == untraced.fault_summary


def test_different_seeds_differ():
    a = _adapt("mpi", faults=resolve_profile("lossy", seed=1))
    b = _adapt("mpi", faults=resolve_profile("lossy", seed=2))
    assert a.fault_summary["counters"] != b.fault_summary["counters"]


# -- recovery actually exercised ----------------------------------------------


@pytest.mark.parametrize("model", MODELS)
def test_lossy_profile_forces_recovery(model):
    result = _adapt(model, faults="lossy")
    summary = result.fault_summary
    assert summary is not None and summary["enabled"]
    assert summary["total_retries"] > 0
    if model == "sas":
        assert summary["counters"]["nack"] > 0
    else:
        key = "retry_mpi" if model == "mpi" else "retry_shmem"
        assert summary["counters"][key] > 0
        # recovery costs simulated time vs the fault-free run
        base = _adapt(model)
        assert result.elapsed_ns > base.elapsed_ns


def test_retry_events_in_trace():
    result = _adapt("mpi", faults="lossy", trace=True)
    kinds = {e.kind for e in result.events}
    assert "fault_drop" in kinds and "retry" in kinds
    retries = [e for e in result.events if e.kind == "retry"]
    assert all(e.attrs["attempt"] >= 1 for e in retries)
    models = {e.attrs["model"] for e in retries}
    assert "mpi" in models  # point-to-point retransmission
    # dropped collective-tree messages recover via subtree re-subscribe
    assert models <= {"mpi", "coll"}


def test_nack_events_in_trace():
    result = _adapt("sas", faults="nacky", trace=True)
    nacks = [e for e in result.events if e.kind == "fault_nack"]
    assert nacks and all(e.attrs["bounces"] >= 1 for e in nacks)


# -- knob semantics -----------------------------------------------------------


def test_window_gates_injection():
    closed = PROFILES["lossy"].with_(name="closed", window_ns=(0.0, 0.0))
    faulted = _adapt("mpi", faults=closed)
    counters = faulted.fault_summary["counters"]
    assert all(counters[k] == 0 for k in ("drop", "dup", "delay", "nack"))
    assert faulted.elapsed_ns == _adapt("mpi").elapsed_ns


def test_total_loss_raises_recovery_error():
    """drop_rate=1.0: every retransmission dies too => FaultRecoveryError."""
    black_hole = FaultProfile(
        name="black-hole", drop_rate=1.0, max_retries=2, retry_timeout_ns=100.0
    )

    def program(ctx):
        # rank 0 -> last rank crosses nodes (same-node copies can't drop)
        last = ctx.nprocs - 1
        if ctx.rank == 0:
            yield from ctx.send(1.0, dest=last, tag=7)
        elif ctx.rank == last:
            yield from ctx.recv(source=0, tag=7)

    with pytest.raises(FaultRecoveryError):
        run_program("mpi", program, 4, faults=black_hole)


def test_nack_bounces_bounded():
    prof = FaultProfile(name="all-nack", nack_rate=1.0, max_nacks=3)
    plane = FaultPlane(prof)
    for _ in range(200):
        assert plane.nack_bounces(0, 0.0) <= 3
    assert plane.counters["nack"] > 0


def test_fault_bench_smoke():
    record = run_fault_bench(
        app="jacobi", models=("mpi",), nprocs_list=(2,), profile="stress",
        verify=True,
    )
    row = record["rows"][0]
    assert row["model"] == "mpi" and row["verified_deterministic"]
    assert row["faulted_ns"] >= row["baseline_ns"]
