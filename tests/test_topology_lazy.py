"""Routes built on first use and the vectorised router-hop table.

``Topology`` builds no route at construction: each ``RouteInfo`` is
computed by the first ``route_info`` for its pair and cached.  The
directory's hop table comes from ``Topology.hop_matrix()`` instead of a
per-pair ``router_hops`` loop.  These tests pin that both views agree
with the per-pair answers on every registered profile, and that the
order in which a run first touches its pairs cannot change a route.
"""

import random

import numpy as np
import pytest

from repro.machine.config import MachineConfig
from repro.machine.machine import Machine
from repro.machine.profiles import PROFILES
from repro.machine.topology import build_topology

PROFILE_NAMES = ["origin2000", "numa-epyc", "fat-tree-cluster", "dragonfly"]


def _topology(name, nprocs):
    return build_topology(PROFILES[name].apply(MachineConfig(nprocs=nprocs)))


def _per_pair_hops(topo):
    n = topo.nnodes
    return np.array(
        [[topo.router_hops(a, b) for b in range(n)] for a in range(n)], dtype=np.int64
    )


# nprocs=24 puts 12 nodes on 6 origin2000 routers: a router count that is
# not a power of two, where some e-cube hops have no link
@pytest.mark.parametrize("nprocs", [2, 8, 24, 64, 128])
@pytest.mark.parametrize("name", PROFILE_NAMES)
def test_hop_matrix_matches_router_hops(name, nprocs):
    topo = _topology(name, nprocs)
    hops = topo.hop_matrix()
    assert hops.dtype == np.int64
    assert np.array_equal(hops, _per_pair_hops(topo))


@pytest.mark.parametrize("nprocs", [8, 128])
@pytest.mark.parametrize("name", PROFILE_NAMES)
def test_machine_construction_builds_no_route(name, nprocs):
    machine = Machine(MachineConfig(nprocs=nprocs), profile=name)
    assert len(machine.topology._routes) == 0
    assert np.array_equal(machine.directory._hop_matrix, _per_pair_hops(machine.topology))


@pytest.mark.parametrize("nprocs", [8, 64, 128])
@pytest.mark.parametrize("name", PROFILE_NAMES)
def test_route_order_does_not_change_routes(name, nprocs):
    """Routes first built in a shuffled pair order equal row-major ones."""
    row_major = _topology(name, nprocs)
    shuffled = _topology(name, nprocs)
    pairs = [(a, b) for a in range(row_major.nnodes) for b in range(row_major.nnodes)]
    order = list(pairs)
    random.Random(nprocs).shuffle(order)
    for a, b in order:
        shuffled.route_info(a, b)
    for a, b in pairs:
        assert row_major.route_info(a, b) == shuffled.route_info(a, b)
    assert row_major._routes == shuffled._routes


def test_route_of_unknown_node_rejected():
    topo = _topology("origin2000", 8)
    for src, dst in [(-1, 0), (0, topo.nnodes)]:
        with pytest.raises(ValueError, match="out of range"):
            topo.route_info(src, dst)
    assert len(topo._routes) == 0
