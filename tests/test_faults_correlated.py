"""Correlated-fault plane: statistical, differential and plumbing tests.

The Gilbert–Elliott chain has closed forms — stationary bad-state
occupancy ``p / (p + r)``, stationary loss ``(1 - pi_B) * loss_good +
pi_B * loss_bad``, mean burst length ``1 / r`` — and the statistical
tests here check the *empirical* injection against them across several
seeds, so a biased step rule or a draw-key collision cannot ship.  The
differential tests lock the determinism story: one seed is one byte-wise
fault schedule, app runs double-run bit-identical, and the fault-aware
switch changes the faulted timeline while leaving fault-free runs alone
(the faults-off side lives in ``test_faults_off_golden.py``).
"""

from __future__ import annotations

import pytest

from repro.apps.adapt import AdaptConfig, build_script
from repro.apps.adapt3d import Adapt3DConfig
from repro.faults import FaultPlane, parse_domain, resolve_profile
from repro.harness.experiment import run_app
from repro.machine import MachineConfig
from repro.machine.topology import Topology

_WL = AdaptConfig(mesh_n=8, phases=3, solver_iters=6)
_WL3D = Adapt3DConfig(mesh_n=2, phases=3, solver_iters=4)


def _bound_plane(profile, nprocs=16):
    plane = FaultPlane(profile)
    plane.bind_topology(Topology(MachineConfig(nprocs=nprocs)))
    return plane


def _a_flaky_link(plane) -> int:
    assert plane._flaky_links, "profile's domains matched no link"
    return min(plane._flaky_links)


# ---------------------------------------------------------------------------
# statistics: empirical chain behaviour vs the closed forms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_ge_stationary_occupancy_and_burst_length(seed):
    """Bad-state fraction ~ p/(p+r); mean burst ~ 1/r (15% tolerance)."""
    prof = resolve_profile("bursty-links", seed=seed)
    plane = _bound_plane(prof)
    link = _a_flaky_link(plane)
    n = 40_000
    bad_steps = sum(plane._ge_step(0, link) for _ in range(n))
    occupancy = bad_steps / n
    expect = prof.ge_stationary_bad
    assert occupancy == pytest.approx(expect, rel=0.15), (occupancy, expect)
    bursts = plane.counters["ge_bursts"]
    assert bursts > 100  # the chain actually toggles
    mean_burst = bad_steps / bursts
    assert mean_burst == pytest.approx(prof.ge_mean_burst, rel=0.15)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_ge_stationary_loss_rate(seed):
    """Drop fraction over many traversals ~ the closed-form loss rate.

    ``bursty-links`` has no i.i.d. faults, so every drop reported by
    ``link_verdict`` on a flaky link comes from the chain's loss draws.
    """
    prof = resolve_profile("bursty-links", seed=seed)
    plane = _bound_plane(prof)
    link = _a_flaky_link(plane)
    n = 40_000
    drops = 0
    for _ in range(n):
        dropped, _, _ = plane.link_verdict(0, 2, 2, 0.0, link_idxs=(link,))
        drops += dropped
    expect = prof.ge_stationary_loss
    assert expect > 0
    assert drops / n == pytest.approx(expect, rel=0.15), (drops / n, expect)


def test_ge_chains_are_independent_per_element():
    """Two flaky links step two distinct chains, not one shared stream."""
    prof = resolve_profile("bursty-links", seed=5)
    plane = _bound_plane(prof)
    links = sorted(plane._flaky_links)[:2]
    assert len(links) == 2
    a = [plane._ge_step(0, links[0]) for _ in range(2000)]
    b = [plane._ge_step(0, links[1]) for _ in range(2000)]
    assert a != b  # same length, same parameters, different schedule


# ---------------------------------------------------------------------------
# determinism: one seed == one byte-wise schedule
# ---------------------------------------------------------------------------


def _verdict_schedule(seed: int, n=2000):
    prof = resolve_profile("bursty-links", seed=seed)
    plane = _bound_plane(prof)
    link = _a_flaky_link(plane)
    out = [plane.link_verdict(0, 2, 2, 0.0, link_idxs=(link,)) for _ in range(n)]
    return out, dict(plane.counters)


def test_identical_seed_byte_identical_schedule():
    s1, c1 = _verdict_schedule(11)
    s2, c2 = _verdict_schedule(11)
    assert s1 == s2 and c1 == c2


def test_different_seeds_differ():
    s1, _ = _verdict_schedule(11)
    s2, _ = _verdict_schedule(12)
    assert s1 != s2


def test_app_double_run_bit_identical_under_gilbert():
    """Whole-app runs with a correlated profile are double-run identical."""
    prof = resolve_profile(
        "gilbert:p=0.05,r=0.25,loss=0.6,stall=4000,domains=link:cube:1", seed=9
    )
    runs = [run_app("adapt", "mpi", 16, _WL, faults=prof) for _ in range(2)]
    assert runs[0].elapsed_ns == runs[1].elapsed_ns
    assert runs[0].rank_results == runs[1].rank_results
    assert runs[0].fault_summary == runs[1].fault_summary
    assert runs[0].fault_summary["counters"]["ge_bad"] > 0


# ---------------------------------------------------------------------------
# fault-aware repartitioning: changes faulted runs, only faulted runs
# ---------------------------------------------------------------------------


def test_fault_aware_changes_faulted_timeline_only():
    blind = resolve_profile("bursty-links", seed=1)
    aware = blind.with_(fault_aware=True)
    r_blind = run_app("adapt", "mpi", 16, _WL, faults=blind)
    r_aware = run_app("adapt", "mpi", 16, _WL, faults=aware)
    # the steering must actually reroute traffic off the flaky dim-1 links
    assert r_aware.elapsed_ns != r_blind.elapsed_ns
    # both recover to the same application answer; the aware mapping owns
    # elements in a different order, so reductions may differ by ulps
    assert r_aware.rank_results == pytest.approx(r_blind.rank_results, rel=1e-9)
    # blind remains deterministic alongside (cache-key separation)
    again = run_app("adapt", "mpi", 16, _WL, faults=blind)
    assert again.elapsed_ns == r_blind.elapsed_ns


def test_fault_aware_steers_adapt3d_like_adapt():
    """The harness hands the fault profile to the 3-D build too."""
    blind = resolve_profile("bursty-links", seed=1)
    aware = blind.with_(fault_aware=True)
    r_blind = run_app("adapt3d", "mpi", 16, _WL3D, faults=blind)
    r_aware = run_app("adapt3d", "mpi", 16, _WL3D, faults=aware)
    assert r_aware.elapsed_ns != r_blind.elapsed_ns
    assert r_aware.rank_results == pytest.approx(r_blind.rank_results, rel=1e-9)
    # the aware profile steers the trajectory; a blind one leaves it as
    # the faults-off build
    plain = _trajectory(build_script(_WL3D, 16))
    assert _trajectory(build_script(_WL3D, 16, faults=aware)) != plain
    assert _trajectory(build_script(_WL3D, 16, faults=blind)) == plain


def _trajectory(script):
    """Per phase: elements per rank, element count and migrated elements."""
    return [
        (plan.elems_per_rank.tolist(), plan.nels,
         {pair: elems.tolist() for pair, elems in plan.migration_elems.items()})
        for plan in script.phases
    ]


def test_rank_penalty_matrix_shape_and_gating():
    from repro.plum import rank_penalty_matrix

    prof = resolve_profile("bursty-links", seed=1)
    pen = rank_penalty_matrix(prof, 16)
    assert pen is not None and pen.shape == (16, 16)
    assert (pen >= 0).all() and (pen == pen.T).all()
    assert pen.max() > 0
    # below 16 CPUs there are no dim-1 cube links: nothing to penalise
    assert rank_penalty_matrix(prof, 8) is None
    # non-correlated profiles never produce a matrix
    assert rank_penalty_matrix(resolve_profile("lossy"), 16) is None


# ---------------------------------------------------------------------------
# domains and exposure
# ---------------------------------------------------------------------------


def test_parse_domain_accepts_and_rejects():
    assert parse_domain("router:3") == ("router", 3)
    assert parse_domain("link:cube:1") == ("link", "cube", 1)
    assert parse_domain("link:hub-out") == ("link", "hub-out", None)
    assert parse_domain("dir:5") == ("dir", 5)
    for bad in ("router:x", "link:", "dir:", "cpu:1", "router:1:2"):
        with pytest.raises(ValueError):
            parse_domain(bad)


def test_router_domain_excludes_node_addressed_links():
    prof = resolve_profile("bursty-router", seed=1)
    plane = _bound_plane(prof)
    topo = Topology(MachineConfig(nprocs=16))
    node_kinds = ("hub-out", "hub-in", "up", "down")
    assert plane._flaky_links
    for i in plane._flaky_links:
        link = topo.links[i]
        assert link.kind not in node_kinds
        assert 0 in (link.src, link.dst)


def test_unmatched_domain_injects_nothing():
    """A selector that matches no element is legal and inert."""
    prof = resolve_profile("gilbert:p=0.5,r=0.5,loss=1.0,domains=router:99", seed=1)
    clean = run_app("adapt", "mpi", 8, _WL)
    faulted = run_app("adapt", "mpi", 8, _WL, faults=prof)
    assert faulted.elapsed_ns == clean.elapsed_ns
    assert faulted.fault_summary["counters"]["ge_bad"] == 0


def test_link_stats_expose_fault_counters():
    """``derived["link_stats"]`` rows carry the per-link burst counters."""
    from repro.obs import link_contention_rows

    prof = resolve_profile("bursty-links", seed=1)
    result = run_app(
        "adapt", "mpi", 16, _WL, faults=prof, derived={"link_stats": "on"}
    )
    rows = link_contention_rows(result.stats.links, busy_only=False)
    flaky = [r for r in rows if r["kind"] == "cube" and r["ge_bad"] > 0]
    assert flaky, "expected bad-state traversals on the dim-1 cube links"
    assert sum(r["fault_drops"] for r in flaky) == \
        result.fault_summary["counters"]["drop"]
    clean_kinds = {r["kind"] for r in rows if r["ge_bad"] or r["fault_drops"]}
    assert clean_kinds == {"cube"}  # faults stay inside the declared domain


def test_nack_domain_drives_directory_bursts():
    """A ``dir:`` domain makes the named homes NACK in bursts (sas model)."""
    prof = resolve_profile("bursty-dir", seed=3)
    result = run_app("adapt", "sas", 8, _WL, faults=prof)
    counters = result.fault_summary["counters"]
    assert counters["ge_bad"] > 0
    assert counters["nack"] > 0
