"""Exhaustive property tests for deep-hypercube routing, P = 2 .. 128.

These replace the hand-enumerated route cases that previously lived in
``test_machine_topology.py``: every invariant below is checked for *every*
ordered node pair at *every* power-of-two processor count, so the P=64/128
deepening (dimension-4/5 cubes, routing tables, deep-hop accounting) is
covered by construction rather than by example.
"""

import pytest

from repro.machine.config import MachineConfig
from repro.machine.machine import Machine
from repro.machine.topology import Topology

POWERS = [2, 4, 8, 16, 32, 64, 128]


@pytest.fixture(scope="module", params=POWERS, ids=lambda p: f"P{p}")
def topo(request):
    return Topology(MachineConfig(nprocs=request.param))


def _pairs(topo):
    for a in range(topo.nnodes):
        for b in range(topo.nnodes):
            yield a, b


def _routers(topo, a, b):
    cfg = topo.config
    return cfg.router_of_node(a), cfg.router_of_node(b)


def test_route_length_is_two_plus_popcount(topo):
    """Every route is hub-out + one cube link per differing dimension + hub-in."""
    for a, b in _pairs(topo):
        info = topo.route_info(a, b)
        if a == b:
            assert info == ((), 0, 0)
            continue
        ra, rb = _routers(topo, a, b)
        pop = bin(ra ^ rb).count("1")
        assert len(info.links) == 2 + pop
        assert info.hops == pop == topo.router_hops(a, b)


def test_deep_hops_count_high_dimensions(topo):
    """deep_hops == popcount of the XOR above ``deep_dim_start``."""
    start = topo.config.deep_dim_start
    saw_deep = False
    for a, b in _pairs(topo):
        ra, rb = _routers(topo, a, b)
        expect = bin((ra ^ rb) >> start).count("1")
        assert topo.deep_hops(a, b) == expect
        assert topo.route_info(a, b).deep_hops == expect
        saw_deep = saw_deep or expect > 0
    # only machines deeper than 8 routers have long-cable hops at all —
    # that is exactly what keeps P<=32 bit-identical to the seed model
    assert saw_deep == (topo.nrouters > 8)


def test_route_endpoints_and_contiguity(topo):
    """Routes start at the source hub, walk connected routers, end at dst."""
    cfg = topo.config
    for a, b in _pairs(topo):
        if a == b:
            continue
        links = [topo.links[i] for i in topo.route(a, b)]
        assert links[0].kind == "hub-out" and links[0].src == a
        assert links[-1].kind == "hub-in" and links[-1].dst == b
        cur = cfg.router_of_node(a)
        for link in links[1:-1]:
            assert link.kind == "cube"
            assert link.src == cur
            cur = link.dst
        assert cur == cfg.router_of_node(b)


def test_route_symmetry(topo):
    """a->b and b->a traverse the same dimensions, hence the same costs."""
    for a, b in _pairs(topo):
        fwd = topo.route_info(a, b)
        rev = topo.route_info(b, a)
        assert len(fwd.links) == len(rev.links)
        assert (fwd.hops, fwd.deep_hops) == (rev.hops, rev.deep_hops)
        fdims = [topo.links[i].dim for i in fwd.links if topo.links[i].kind == "cube"]
        rdims = [topo.links[i].dim for i in rev.links if topo.links[i].kind == "cube"]
        assert fdims == rdims  # e-cube: dimensions in increasing order


def test_no_self_loops_or_repeated_routers(topo):
    """No cube link loops back; no route visits a router twice."""
    for link in topo.links:
        if link.kind == "cube":
            assert link.src != link.dst
    for a, b in _pairs(topo):
        if a == b:
            continue
        seen = {topo.config.router_of_node(a)}
        for i in topo.route(a, b):
            link = topo.links[i]
            if link.kind == "cube":
                assert link.dst not in seen, "route revisited a router"
                seen.add(link.dst)


def test_link_ranks_strictly_increase(topo):
    """The deadlock-freedom invariant, for every pair at every depth."""
    for a, b in _pairs(topo):
        ranks = [topo.links[i].rank for i in topo.route(a, b)]
        assert ranks == sorted(ranks)
        assert len(set(ranks)) == len(ranks)


@pytest.mark.parametrize("p", POWERS, ids=lambda p: f"P{p}")
def test_routes_built_on_first_use(p):
    """A fresh machine holds no routes; each pair is built once, then cached."""
    topo = Machine(MachineConfig(nprocs=p)).topology
    assert len(topo._routes) == 0
    # cached entries are returned by identity (cheap repeated lookups)
    assert topo.route(0, topo.nnodes - 1) is topo.route(0, topo.nnodes - 1)
    for a, b in _pairs(topo):
        topo.route_info(a, b)
    assert len(topo._routes) == topo.nnodes * topo.nnodes


def test_link_keys_stable_across_depths():
    """Growing the machine only *adds* links; existing keys never change.

    The (kind, src, dst) identity of every link at P is present at every
    larger power-of-two P' — so per-link statistics keyed this way stay
    comparable across the sweep axis.
    """
    keys = {}
    for p in POWERS:
        topo = Topology(MachineConfig(nprocs=p))
        keys[p] = set(topo._link_index)
    for small, big in zip(POWERS, POWERS[1:]):
        assert keys[small] <= keys[big]


def test_unroutable_router_count_raises_clearly():
    """Non-power-of-two router counts fail with guidance, not a KeyError.

    nprocs=12 gives 3 routers; e-cube from router 2 to router 1 needs the
    dimension-0 link 2->3, which does not exist.  Node 4 (router 2) to
    node 2 (router 1) must therefore raise the explanatory ValueError.
    """
    topo = Topology(MachineConfig(nprocs=12))
    with pytest.raises(ValueError, match="power of two"):
        topo.route(4, 2)
    # pairs that never need a missing link still route fine
    assert len(topo.route(0, 2)) >= 2
