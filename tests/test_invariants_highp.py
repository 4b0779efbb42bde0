"""Cross-model conservation & determinism invariants at P ∈ {32, 64, 128}.

The high-P scaling work (deep hypercube routing, coarse sharer vectors,
batched network transfers, vectorised MPI matching) is locked down here by
invariants that must hold for *every* model at *every* processor count:

* **Flow conservation** — replaying each traced ``net`` event over the
  routing tables, every router's inbound bytes equal its outbound bytes
  (Kirchhoff's law for the hypercube), and the event stream's total bytes
  and message count agree with the machine's own statistics counters.
* **Matching conservation** — every MPI ``msg_send`` has exactly one
  ``msg_recv`` with the same per-pair byte total; every SHMEM ``put`` has
  exactly one ``put_done``.
* **Barrier monotonicity** — per-rank barrier ``gen`` numbers are strictly
  increasing (shmem/sas), and the trace-based synchronization checker
  finds no violations in any model's stream.
* **Determinism** — running the same configuration twice on fresh
  machines is bit-identical: elapsed nanoseconds, per-rank results, and
  the full statistics summary (also under fault injection).
* **Golden equivalence** — the batched network transfers and indexed
  MPI matching reproduce the fingerprints recorded from their scalar
  twins (``tests/golden/timelines.json``), and the run demonstrably took
  the fast paths.

P=128 cases carry the ``nightly`` marker so the tier-1 run stays fast;
the scheduled CI matrix runs them with ``-m nightly``.
"""

from __future__ import annotations

import random
from functools import lru_cache

import pytest

from repro.apps.adapt import AdaptConfig
from repro.harness.experiment import run_app
from repro.machine import Machine, MachineConfig
from repro.machine.sharers import (
    CoarseSharers,
    ExactSharers,
    LimitedPointerSharers,
    sharer_scheme_from_config,
)
from repro.machine.topology import Topology
from repro.models.mpi.matchq import ANY, MatchQueue
from repro.models.registry import run_program
from repro.obs import check_sync
from tests.reference import ListScanQueue, assert_matches_recording

MODELS = ("mpi", "shmem", "sas", "hybrid")

# P=32 and P=64 run in tier-1; the P=128 column is nightly-only
PROCS = [32, 64, pytest.param(128, marks=pytest.mark.nightly)]

_WL = AdaptConfig(mesh_n=8, phases=2, solver_iters=2)


@lru_cache(maxsize=None)
def _traced(model: str, nprocs: int):
    """One traced run per (model, P), shared by the conservation checks."""
    return run_app("adapt", model, nprocs, _WL, trace=True)


# ---------------------------------------------------------------------------
# flow conservation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("nprocs", PROCS)
@pytest.mark.parametrize("model", MODELS)
def test_router_flow_conservation(model, nprocs):
    """Bytes into every router == bytes out of it, per the traced stream.

    Each ``net`` event is replayed over the topology's routing table; a
    router accumulates inflow from hub-out and inbound cube links and
    outflow to hub-in and outbound cube links.  Any broken or
    non-contiguous route (a regression in the deep-hypercube tables)
    breaks the balance.
    """
    result = _traced(model, nprocs)
    topo = Topology(MachineConfig(nprocs=nprocs))
    inflow = [0] * topo.nrouters
    outflow = [0] * topo.nrouters
    for ev in result.events:
        if ev.kind != "net":
            continue
        for li in topo.route(ev.src, ev.dst):
            link = topo.links[li]
            if link.kind == "hub-out":
                inflow[link.dst] += ev.nbytes
            elif link.kind == "hub-in":
                outflow[link.src] += ev.nbytes
            else:  # cube
                outflow[link.src] += ev.nbytes
                inflow[link.dst] += ev.nbytes
    assert inflow == outflow


@pytest.mark.parametrize("nprocs", PROCS)
@pytest.mark.parametrize("model", ("mpi", "shmem"))
def test_net_events_match_machine_stats(model, nprocs):
    """The traced stream and the machine's counters agree on totals.

    Intra-node copies (``src == dst``) count as messages but never touch
    a network link, so only inter-node events carry billable bytes.
    """
    result = _traced(model, nprocs)
    nets = [ev for ev in result.events if ev.kind == "net"]
    assert len(nets) == result.stats.network_messages
    inter = sum(ev.nbytes for ev in nets if ev.src != ev.dst)
    assert inter == result.stats.network_bytes


@pytest.mark.parametrize("nprocs", PROCS)
def test_sas_bytes_billed_by_directory(nprocs):
    """CC-SAS traffic is coherence-billed: line fetches, no packet events.

    The byte counter must equal the traced per-home line fetches times the
    line size — the directory and the event stream agree independently.
    """
    result = _traced("sas", nprocs)
    assert not [ev for ev in result.events if ev.kind == "net"]
    assert result.stats.network_messages == 0
    cfg = MachineConfig(nprocs=nprocs)
    line = cfg.line_bytes
    moved_bytes = fetched = remote_fetched = 0
    for ev in result.events:
        if ev.kind != "coherence":
            continue
        moved_bytes += ev.nbytes
        homes = ev.attrs.get("homes", {})
        fetched += sum(homes.values())
        node = cfg.node_of_cpu(ev.src)
        remote_fetched += sum(c for h, c in homes.items() if int(h) != node)
    # every traced access bills exactly its per-home line fetches ...
    assert moved_bytes == fetched * line and moved_bytes > 0
    # ... and the machine's byte counter covers at least the truly remote
    # ones (it additionally bills upgrades and writebacks, which the
    # compact trace schema does not attribute to homes)
    assert result.stats.network_bytes >= remote_fetched * line > 0


# ---------------------------------------------------------------------------
# matching conservation
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("nprocs", PROCS)
def test_mpi_send_recv_conservation(nprocs):
    """Every MPI send is received: per-pair counts and bytes balance."""
    result = _traced("mpi", nprocs)
    sends: dict = {}
    recvs: dict = {}
    for ev in result.events:
        if ev.kind == "msg_send":
            c, b = sends.get((ev.src, ev.dst), (0, 0))
            sends[(ev.src, ev.dst)] = (c + 1, b + ev.nbytes)
        elif ev.kind == "msg_recv":
            c, b = recvs.get((ev.src, ev.dst), (0, 0))
            recvs[(ev.src, ev.dst)] = (c + 1, b + ev.nbytes)
    assert sends and sends == recvs


@pytest.mark.parametrize("nprocs", PROCS)
def test_shmem_put_delivery_conservation(nprocs):
    """Every SHMEM put is delivered: one put_done per put, bytes equal."""
    result = _traced("shmem", nprocs)
    puts: dict = {}
    dones: dict = {}
    for ev in result.events:
        if ev.kind == "put":
            c, b = puts.get((ev.src, ev.dst), (0, 0))
            puts[(ev.src, ev.dst)] = (c + 1, b + ev.nbytes)
        elif ev.kind == "put_done":
            c, b = dones.get((ev.src, ev.dst), (0, 0))
            dones[(ev.src, ev.dst)] = (c + 1, b + ev.nbytes)
    assert puts and puts == dones


# ---------------------------------------------------------------------------
# barrier / synchronization invariants
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("nprocs", PROCS)
@pytest.mark.parametrize("model", ("shmem", "sas"))
def test_barrier_generation_monotonic(model, nprocs):
    """Per-rank barrier episode numbers strictly increase in trace order."""
    result = _traced(model, nprocs)
    per_rank: dict = {}
    for ev in result.events:
        if ev.kind == "barrier":
            per_rank.setdefault(ev.src, []).append(ev.attrs["gen"])
    assert per_rank, "expected barrier events in the trace"
    assert set(per_rank) == set(range(nprocs))
    for rank, gens in per_rank.items():
        assert gens == sorted(gens), f"rank {rank} barrier gens not monotone"
        assert len(set(gens)) == len(gens), f"rank {rank} repeated a barrier gen"


@pytest.mark.parametrize("nprocs", PROCS)
@pytest.mark.parametrize("model", MODELS)
def test_sync_checker_clean(model, nprocs):
    """The trace-based synchronization checker accepts every stream."""
    result = _traced(model, nprocs)
    assert check_sync(result.events, nprocs) == []


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------


def _fingerprint(result):
    return (result.elapsed_ns, result.rank_results, result.stats.summary())


@pytest.mark.parametrize("nprocs", PROCS)
@pytest.mark.parametrize("model", MODELS)
def test_double_run_bit_identical(model, nprocs):
    """Two fresh runs of one configuration are bit-identical."""
    a = _traced(model, nprocs)
    b = run_app("adapt", model, nprocs, _WL, trace=True)
    assert _fingerprint(a) == _fingerprint(b)
    assert len(a.events) == len(b.events)


@pytest.mark.parametrize("model,nprocs", [("mpi", 32), ("sas", 64), ("hybrid", 32)])
def test_faulted_double_run_bit_identical(model, nprocs):
    """Fault injection is deterministic per seed at high P too."""
    from repro.faults import resolve_profile

    runs = [
        run_app("adapt", model, nprocs, _WL, faults=resolve_profile("drizzle", seed=7))
        for _ in range(2)
    ]
    assert _fingerprint(runs[0]) == _fingerprint(runs[1])
    assert runs[0].fault_summary == runs[1].fault_summary


@pytest.mark.parametrize("profile", ["stress", "bursty-links"])
def test_hybrid_recovery_exercised(profile):
    """Hybrid inherits both runtimes' recovery paths and actually uses them.

    Under i.i.d. loss *and* correlated dim-1 bursts the hybrid run must
    survive (bit-deterministic results) while its fault counters show the
    MPI retransmission/re-subscribe machinery fired.
    """
    from repro.faults import resolve_profile

    result = run_app(
        "adapt", "hybrid", 32, _WL, faults=resolve_profile(profile, seed=7)
    )
    summary = result.fault_summary
    assert summary is not None and summary["total_retries"] > 0
    clean = run_app("adapt", "hybrid", 32, _WL)
    assert result.rank_results == clean.rank_results  # recovery is transparent


# ---------------------------------------------------------------------------
# golden scalar-vs-batched equivalence for the new fast paths
# ---------------------------------------------------------------------------


def _adapt_mpi_run(nprocs: int, derived: dict):
    from repro.apps.adapt import ADAPT_PROGRAMS, build_script

    machine = Machine(MachineConfig(nprocs=nprocs, derived=derived))
    script = build_script(_WL, nprocs)
    result = run_program("mpi", ADAPT_PROGRAMS["mpi"], nprocs, script, machine=machine)
    return result, machine


@lru_cache(maxsize=None)
def _golden_adapt_mpi(nprocs: int) -> Machine:
    """adapt under MPI, checked against its recording; the machine, for counters."""
    machine = Machine(MachineConfig(nprocs=nprocs))
    assert_matches_recording(f"adapt-mpi/{nprocs}", machine=machine)
    return machine


@pytest.mark.parametrize("nprocs", [64, pytest.param(128, marks=pytest.mark.nightly)])
def test_net_batch_golden_equivalence(nprocs):
    """Batched network transfers reproduce the recorded scalar pipeline."""
    assert _golden_adapt_mpi(nprocs).network.batch_fast_transfers > 0


@pytest.mark.parametrize("nprocs", [64, pytest.param(128, marks=pytest.mark.nightly)])
def test_mpi_match_batch_golden_equivalence(nprocs):
    """Indexed match queues reproduce the recorded list scan, bit for bit."""
    counters = _golden_adapt_mpi(nprocs).mpi_world.match_counters()
    assert counters["head_hits"] + counters["index_hits"] > 0


@pytest.mark.parametrize("derived", [{"dir_sharers": "coarse"}], ids=["forced-coarse"])
def test_combined_derived_overrides_accepted(derived):
    """Override combinations run and stay self-consistent at P=64."""
    result, _ = _adapt_mpi_run(64, dict(derived))
    assert result.elapsed_ns > 0


@pytest.mark.parametrize("key", ["engine_batch", "net_batch", "mpi_match_batch", "sas_batch"])
def test_retired_scalar_switches_rejected(key):
    """The removed reference-path switches fail loudly instead of being ignored."""
    with pytest.raises(ValueError, match=f"derived\\['{key}'\\] was removed"):
        MachineConfig(nprocs=8, derived={key: "off"})


def test_wildcard_flood_matches_recording():
    """ANY_SOURCE probes over deep queues take the vector route, bit-identically."""
    machine = Machine(MachineConfig(nprocs=8))
    assert_matches_recording("wildcard-flood/8", machine=machine)
    assert machine.mpi_world.match_counters()["vector_scans"] > 0


# ---------------------------------------------------------------------------
# MatchQueue unit equivalence (randomised, against a plain list scan)
# ---------------------------------------------------------------------------


def _random_ops(seed: int, n: int):
    rng = random.Random(seed)
    ops = []
    for i in range(n):
        if rng.random() < 0.6:
            src = rng.choice([ANY, rng.randrange(8)])
            tag = rng.choice([ANY, rng.randrange(6)])
            ops.append(("append", i, src, tag))
        else:
            src = rng.choice([ANY, ANY, rng.randrange(8)])
            tag = rng.choice([ANY, rng.randrange(6)])
            ops.append(("pop", src, tag))
    return ops


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_match_queue_vector_equals_scalar(seed):
    """Random wildcard workloads: the vector route and a list scan stay in lockstep."""
    fast, slow = MatchQueue(), ListScanQueue()
    for op in _random_ops(seed, 600):
        if op[0] == "append":
            _, item, src, tag = op
            fast.append(item, src, tag)
            slow.append(item, src, tag)
        else:
            _, src, tag = op
            assert fast.pop_first(src, tag) == slow.pop_first(src, tag)
        assert len(fast) == len(slow)
    assert list(fast) == list(slow)
    assert fast.vector_scans > 0


def test_match_queue_wildcard_free_fast_case():
    """The concrete-key routes match FIFO-first-match exactly."""
    fast, slow = MatchQueue(), ListScanQueue()
    for i in range(200):
        fast.append(i, i % 7, i % 5)
        slow.append(i, i % 7, i % 5)
    for i in reversed(range(200)):
        assert fast.pop_first(i % 7, i % 5) == slow.pop_first(i % 7, i % 5)
    assert len(fast) == 0 and len(slow) == 0


# ---------------------------------------------------------------------------
# sharer-scheme units
# ---------------------------------------------------------------------------


def test_exact_scheme_width_checked():
    with pytest.raises(ValueError, match="dir_exact_width"):
        sharer_scheme_from_config(
            MachineConfig(nprocs=128, derived={"dir_sharers": "exact"})
        )


def test_auto_scheme_selection():
    assert isinstance(
        sharer_scheme_from_config(MachineConfig(nprocs=64)), ExactSharers
    )
    scheme = sharer_scheme_from_config(MachineConfig(nprocs=128))
    assert isinstance(scheme, CoarseSharers)
    assert scheme.group == 2 and scheme.bits == 64


def test_coarse_scheme_bills_whole_groups():
    import numpy as np

    scheme = CoarseSharers(group=4, nprocs=16)
    row = np.zeros(16, dtype=bool)
    row[5] = True  # one sharer in group 1 -> the whole group is billed
    assert scheme.billable(row, cpu=0, exact_k=1) == 4
    # the writer's own slot is never billed
    assert scheme.billable(row, cpu=4, exact_k=1) == 3


def test_limited_pointer_broadcast_on_overflow():
    import numpy as np

    scheme = LimitedPointerSharers(pointers=2, nprocs=16)
    row = np.zeros(16, dtype=bool)
    row[[1, 2]] = True
    assert scheme.billable(row, cpu=0, exact_k=2) == 2  # fits the pointers
    row[[3, 4]] = True
    assert scheme.billable(row, cpu=0, exact_k=4) == 15  # overflow: broadcast


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError, match="unknown dir_sharers"):
        sharer_scheme_from_config(
            MachineConfig(nprocs=8, derived={"dir_sharers": "bogus"})
        )


# ---------------------------------------------------------------------------
# experiment-cache regression: full run signature in the key
# ---------------------------------------------------------------------------


def test_script_cache_keys_on_full_run_signature():
    """Placement/fault variants must not alias one cached script object."""
    from repro.harness import experiment

    experiment._script_cache.clear()
    run_app("adapt", "mpi", 8, _WL)
    run_app("adapt", "mpi", 8, _WL, placement="round-robin")
    from repro.faults import resolve_profile

    run_app("adapt", "mpi", 8, _WL, faults=resolve_profile("drizzle", seed=3))
    keys = list(experiment._script_cache)
    assert len(keys) == 3, keys  # distinct placement/faults -> distinct keys
    run_app("adapt", "mpi", 8, _WL)  # identical signature -> cache hit
    assert len(experiment._script_cache) == 3
