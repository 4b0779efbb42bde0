"""Tests for the per-link contention statistics (``derived["link_stats"]``).

Contracts:

* **Zero cost when off** — the default run allocates nothing and leaves
  ``MachineStats.links == []``; simulated time is bit-identical with the
  counters on or off (observation must not perturb the experiment).
* **Conservation** — every inter-node transfer crosses exactly one
  node-egress link and one node-ingress link, so summing bytes over
  either class reproduces ``stats.network_bytes`` exactly, per model and
  per topology.
* **Attribution** — a deliberately contended pattern (many ranks sending
  through one destination) shows nonzero ``claim_waits``/``queued_ns``
  on the contended links and zero on untouched ones.
"""

import pytest

from repro.apps.adapt import AdaptConfig
from repro.harness import run_app
from repro.machine import Machine, MachineConfig
from repro.obs import format_link_contention, link_contention_rows

SMALL = AdaptConfig(mesh_n=8, phases=3, solver_iters=6)
LINK_ON = {"link_stats": "on"}

#: node-egress / node-ingress link kinds per topology
EGRESS = ("hub-out", "up")
INGRESS = ("hub-in", "down")


# ------------------------------------------------------------ off by default


def test_links_empty_and_unallocated_by_default():
    m = Machine(MachineConfig(nprocs=8))
    assert m.network.link_bytes is None
    result = run_app("adapt", "mpi", 8, SMALL)
    assert result.stats.links == []


def test_link_stats_do_not_change_simulated_time():
    for model in ("mpi", "shmem", "sas"):
        off = run_app("adapt", model, 8, SMALL)
        on = run_app("adapt", model, 8, SMALL, derived=LINK_ON)
        assert on.elapsed_ns == off.elapsed_ns, model
        assert on.rank_results == off.rank_results, model
        assert off.stats.links == [] and on.stats.links != []


# ------------------------------------------------------------- conservation


@pytest.mark.parametrize("model", ("mpi", "shmem", "sas", "hybrid"))
def test_link_bytes_conserve_network_totals(model):
    result = run_app("adapt", model, 8, SMALL, derived=LINK_ON)
    links = result.stats.links
    egress = sum(ls.bytes for ls in links if ls.kind in EGRESS)
    ingress = sum(ls.bytes for ls in links if ls.kind in INGRESS)
    assert egress == result.stats.network_bytes
    assert ingress == result.stats.network_bytes


@pytest.mark.parametrize("profile", ("fat-tree-cluster", "dragonfly"))
def test_link_bytes_conserve_on_other_topologies(profile):
    result = run_app("adapt", "mpi", 8, SMALL, derived=LINK_ON,
                     machine_profile=profile)
    links = result.stats.links
    egress = sum(ls.bytes for ls in links if ls.kind in EGRESS)
    ingress = sum(ls.bytes for ls in links if ls.kind in INGRESS)
    assert egress == result.stats.network_bytes
    assert ingress == result.stats.network_bytes


def test_link_identity_is_stable_and_unique():
    result = run_app("adapt", "mpi", 8, SMALL, derived=LINK_ON)
    idents = [ls.ident for ls in result.stats.links]
    assert len(idents) == len(set(idents))
    again = run_app("adapt", "mpi", 8, SMALL, derived=LINK_ON)
    assert idents == [ls.ident for ls in again.stats.links]
    assert [ls.bytes for ls in result.stats.links] == \
        [ls.bytes for ls in again.stats.links]


# -------------------------------------------------------------- attribution


def _flood_one_destination(nprocs=8, nbytes=1 << 16, rounds=4):
    """Every rank simultaneously ships a large block to node 0."""
    m = Machine(MachineConfig(
        nprocs=nprocs, derived={"link_stats": "on"},
    ))

    def sender(src_node):
        for _ in range(rounds):
            yield from m.network.transfer(src_node, 0, nbytes)

    for r in range(nprocs):
        node = m.config.node_of_cpu(r)
        if node != 0:
            m.engine.spawn(sender(node))
    m.engine.run()
    return m


def test_contended_links_show_queueing():
    m = _flood_one_destination()
    links = m.network.link_stats()
    by_ident = {ls.ident: ls for ls in links}
    # node 0's ingress is the shared bottleneck: everyone funnels into it
    hot = by_ident[("hub-in", 0, 0)]
    assert hot.claim_waits > 0
    assert hot.queued_ns > 0.0
    assert hot.saturation > 0.0
    # an egress link of a node that only ever sends once per round never
    # competes with anyone for its own private hub-out
    for ls in links:
        if ls.kind == "hub-out" and ls.src != 0 and ls.acquires:
            assert ls.bytes > 0
    # links that carried nothing report all-zero counters
    for ls in links:
        if ls.acquires == 0:
            assert ls.bytes == 0 and ls.claim_waits == 0
            assert ls.queued_ns == 0.0 and ls.busy_ns == 0.0


def test_uncontended_single_transfer_has_no_waits():
    m = Machine(MachineConfig(nprocs=4, derived={"link_stats": "on"}))

    def prog():
        yield from m.network.transfer(0, 1, 4096)

    m.engine.spawn(prog())
    m.engine.run()
    links = m.network.link_stats()
    assert sum(ls.bytes for ls in links if ls.kind == "hub-out") == 4096
    assert all(ls.claim_waits == 0 for ls in links)
    assert all(ls.queued_ns == 0.0 for ls in links)


def test_link_stats_raises_when_disabled():
    m = Machine(MachineConfig(nprocs=4))
    with pytest.raises(RuntimeError, match="link_stats"):
        m.network.link_stats()


# ------------------------------------------------------------ obs analyses


def test_link_contention_rows_sort_and_truncate():
    result = run_app("adapt", "shmem", 8, SMALL, derived=LINK_ON)
    rows = link_contention_rows(result.stats.links)
    queued = [r["queued_ns"] for r in rows]
    assert queued == sorted(queued, reverse=True)
    assert all(r["acquires"] > 0 for r in rows)  # busy_only default
    top3 = link_contention_rows(result.stats.links, top=3)
    assert len(top3) == 3 and top3 == rows[:3]


def test_link_contention_rows_reject_empty_snapshot():
    with pytest.raises(ValueError, match="link_stats"):
        link_contention_rows([])


def test_format_link_contention_renders_table():
    result = run_app("adapt", "mpi", 8, SMALL, derived=LINK_ON)
    text = format_link_contention(result.stats.links, top=5)
    lines = text.splitlines()
    assert "queued_ms" in lines[0]
    assert len(lines) <= 6
    assert any("hub-out" in ln or "hub-in" in ln or "cube" in ln
               for ln in lines[1:])


def test_served_link_stats_run_simulates_every_time(tmp_path, capsys):
    """The store keeps no per-link counters, so a warm store serves none."""
    from repro.__main__ import main

    argv = ["run", "jacobi", "mpi", "-n", "4", "-s", "small", "--link-stats",
            "--serve", "--cache-dir", str(tmp_path / "store")]
    for _ in range(2):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "per-link contention (hottest first):" in out
        assert "hub-in 0->0" in out
