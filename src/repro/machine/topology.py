"""Interconnect topologies and deterministic deadlock-free routing.

The Origin2000 attaches two nodes (hubs) to each router; routers form a
binary hypercube.  Routing between routers is dimension-ordered ("e-cube"),
which visits hypercube dimensions in increasing order and is therefore
deadlock-free even when a message holds all its links for the duration of the
transfer (the acquisition order of any path is strictly increasing in a
global link ranking — see :mod:`repro.machine.network`).

Two further structures exist for the hardware profiles in
:mod:`repro.machine.profiles` (``config.topology`` selects one, the
:func:`build_topology` factory instantiates it):

* :class:`StarTopology` (``"fattree"``) — a commodity cluster collapsed to
  its core switch: every node owns one ``up`` and one ``down`` link, every
  remote route is ``up(src) -> down(dst)`` (uniform two-hop latency, per-node
  injection/ejection serialisation as at a NIC).
* :class:`DragonflyTopology` (``"dragonfly"``) — routers in all-to-all
  *groups* with one global link per ordered group pair (diameter <= 3
  router hops).  Minimal routing is local -> global -> local; the two local
  legs use distinct virtual channels (``local0`` before the global hop,
  ``local1`` after) so link acquisition stays strictly rank-increasing.
  Global hops are counted in ``RouteInfo.deep_hops`` — they are the long
  cables — and pay ``deep_hop_extra_ns``.

Every route acquires links in strictly increasing :attr:`Link.rank`, and a
route holds at most one link of any rank class, so a cycle of waiting
transfers would need ranks to increase strictly around the cycle —
impossible.  ``tests/test_profiles.py`` asserts the monotone-rank invariant
for every pair under every topology.

Subclasses may also override :meth:`Topology.route_static_ns` — the static
(byte-free) cost of a route — when a profile's cost structure is not
expressible as ``2*hub + hops*router_hop + deep_hops*deep_hop_extra``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Tuple, Type

import numpy as np

from repro.machine.config import MachineConfig

__all__ = [
    "Link",
    "RouteInfo",
    "Topology",
    "StarTopology",
    "DragonflyTopology",
    "TOPOLOGIES",
    "build_topology",
]


class RouteInfo(NamedTuple):
    """One routing-table entry (built on first use, then cached).

    ``links`` are link indices in traversal order; ``hops`` counts the
    router-to-router hops among them and ``deep_hops`` the subset that are
    long cables: hypercube dimensions >= ``config.deep_dim_start`` (only
    machines with more than 8 routers have any) or dragonfly global links.
    Both surcharge classes pay ``deep_hop_extra_ns``.
    """

    links: Tuple[int, ...]
    hops: int
    deep_hops: int


@dataclass(frozen=True)
class Link:
    """A directed channel, identified by its stable ``(kind, src, dst)``.

    ``kind`` is topology-specific: ``"hub-out"``/``"hub-in"`` (node ↔
    router), ``"cube"`` (hypercube router hop, across dimension ``dim``),
    ``"up"``/``"down"`` (fat-tree node ↔ core switch), or
    ``"local0"``/``"global"``/``"local1"`` (dragonfly local virtual
    channel before the global hop / global cable / local virtual channel
    after it).  ``rank`` orders links so every route acquires links in
    strictly increasing rank, guaranteeing deadlock freedom.
    """

    kind: str
    src: int
    dst: int
    dim: int = -1

    @property
    def rank(self) -> int:
        if self.kind == "hub-out":
            return 0
        if self.kind == "cube":
            return self.dim + 1
        if self.kind in ("up", "local0"):
            return 1
        if self.kind == "global":
            return 2
        if self.kind in ("down", "local1"):
            return 3
        return 1_000_000  # hub-in: always last

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Link({self.kind},{self.src}->{self.dst},dim={self.dim})"


class Topology:
    """Routes between node pairs, built on first use (hypercube base).

    Construction builds only the link list; each :class:`RouteInfo` is
    computed by the first :meth:`route_info` for its pair and cached on
    this instance, so a run pays for the routes it touches.
    :meth:`hop_matrix` gives the whole router-hop table without building
    any route.
    """

    kind = "hypercube"

    def __init__(self, config: MachineConfig):
        self.config = config
        self.nnodes = config.nnodes
        self.nrouters = config.nrouters
        self.dim = max(self.nrouters - 1, 0).bit_length()
        self._router_of: Tuple[int, ...] = tuple(
            config.router_of_node(node) for node in range(self.nnodes)
        )
        self.links: List[Link] = []
        self._link_index: Dict[Tuple[str, int, int], int] = {}
        self._build_links()
        self._routes: Dict[Tuple[int, int], RouteInfo] = {}

    # -- construction -------------------------------------------------------

    def _add_link(self, link: Link) -> None:
        self._link_index[(link.kind, link.src, link.dst)] = len(self.links)
        self.links.append(link)

    def _add_hub_links(self) -> None:
        for node, router in enumerate(self._router_of):
            self._add_link(Link("hub-out", node, router))
            self._add_link(Link("hub-in", router, node))

    def _build_links(self) -> None:
        self._add_hub_links()
        for router in range(self.nrouters):
            for d in range(self.dim):
                peer = router ^ (1 << d)
                if peer < self.nrouters:
                    self._add_link(Link("cube", router, peer, dim=d))

    # -- queries ------------------------------------------------------------

    def router_hops(self, node_a: int, node_b: int) -> int:
        """Number of router-to-router hops between two nodes."""
        ra = self.config.router_of_node(node_a)
        rb = self.config.router_of_node(node_b)
        return bin(ra ^ rb).count("1")

    def deep_hops(self, node_a: int, node_b: int) -> int:
        """Long-cable hops (dims >= ``deep_dim_start``) between two nodes."""
        ra = self.config.router_of_node(node_a)
        rb = self.config.router_of_node(node_b)
        return bin((ra ^ rb) >> self.config.deep_dim_start).count("1")

    def hop_matrix(self) -> np.ndarray:
        """``router_hops`` for every ordered node pair, as int64 nnodes².

        Builds no route: the hypercube hop count is the popcount of the
        XOR of the two router indices.
        """
        routers = np.asarray(self._router_of, dtype=np.int64)
        return np.bitwise_count(routers[:, None] ^ routers[None, :]).astype(np.int64)

    def route_static_ns(self, info: RouteInfo) -> float:
        """Static (byte-free) cost of an inter-node route.

        The cost hook of the topology layer: the network charges
        ``route_static_ns(info) + nbytes / link_bandwidth_bpns`` per
        uncontended transfer.  The base formula covers all built-in
        topologies (``deep_hops`` counts the surcharge class — deep
        hypercube dimensions or dragonfly global cables); profile authors
        can subclass and override for other cost structures.
        """
        cfg = self.config
        return (
            2 * cfg.hub_ns
            + info.hops * cfg.router_hop_ns
            + info.deep_hops * cfg.deep_hop_extra_ns
        )

    def route_info(self, src_node: int, dst_node: int) -> RouteInfo:
        """The routing-table entry for ``src -> dst`` (built once, cached)."""
        key = (src_node, dst_node)
        cached = self._routes.get(key)
        if cached is not None:
            return cached
        for node in key:
            if not 0 <= node < self.nnodes:
                raise ValueError(f"node {node} out of range [0, {self.nnodes})")
        info = self._compute_route(src_node, dst_node)
        self._routes[key] = info
        return info

    def _compute_route(self, src_node: int, dst_node: int) -> RouteInfo:
        if src_node == dst_node:
            return RouteInfo((), 0, 0)
        cur = self._router_of[src_node]
        target = self._router_of[dst_node]
        path: List[int] = [self._link_index[("hub-out", src_node, cur)]]
        deep_start = self.config.deep_dim_start
        hops = deep = 0
        for d in range(self.dim):  # dimension-order routing
            if (cur ^ target) & (1 << d):
                nxt = cur ^ (1 << d)
                idx = self._link_index.get(("cube", cur, nxt))
                if idx is None:
                    raise ValueError(
                        f"unroutable node pair {src_node}->{dst_node}: the e-cube "
                        f"hop router {cur}->router {nxt} does not exist because "
                        f"{self.nrouters} routers is not a power of two; use a "
                        "power-of-two processor count (1..128)"
                    )
                path.append(idx)
                cur = nxt
                hops += 1
                if d >= deep_start:
                    deep += 1
        path.append(self._link_index[("hub-in", target, dst_node)])
        return RouteInfo(tuple(path), hops, deep)

    def route(self, src_node: int, dst_node: int) -> Tuple[int, ...]:
        """Link indices along the deterministic path ``src -> dst``.

        Empty for ``src == dst`` (intra-node traffic never enters the
        network).  Routes are built on first use and cached.
        """
        return self.route_info(src_node, dst_node).links

    def describe(self) -> str:
        """Human-readable summary, used by examples and the harness."""
        return (
            f"Origin2000 model: {self.config.nprocs} CPUs on {self.nnodes} node(s), "
            f"{self.nrouters} router(s), hypercube dim {self.dim}, "
            f"{len(self.links)} directed links"
        )


class StarTopology(Topology):
    """A fat-tree cluster collapsed to its core switch.

    Every node has one ``up`` link into the core and one ``down`` link out
    of it; every remote route is ``up(src) -> down(dst)`` — two router
    hops, the same for every pair (the uniform remote latency of a
    non-blocking fat tree).  Contention appears where it does on a real
    cluster: at each node's injection (``up``) and ejection (``down``)
    port.  Ranks: up(1) < down(3), so routes are monotone.
    """

    kind = "fattree"

    def _build_links(self) -> None:
        for node in range(self.nnodes):
            self._add_link(Link("up", node, 0))
            self._add_link(Link("down", 0, node))

    def router_hops(self, node_a: int, node_b: int) -> int:
        return 0 if node_a == node_b else 2

    def deep_hops(self, node_a: int, node_b: int) -> int:
        return 0

    def hop_matrix(self) -> np.ndarray:
        hops = np.full((self.nnodes, self.nnodes), 2, dtype=np.int64)
        np.fill_diagonal(hops, 0)
        return hops

    def _compute_route(self, src_node: int, dst_node: int) -> RouteInfo:
        if src_node == dst_node:
            return RouteInfo((), 0, 0)
        return RouteInfo(
            (
                self._link_index[("up", src_node, 0)],
                self._link_index[("down", 0, dst_node)],
            ),
            2,
            0,
        )

    def describe(self) -> str:
        return (
            f"fat-tree model: {self.config.nprocs} CPUs on {self.nnodes} node(s) "
            f"behind one core switch, {len(self.links)} directed links, "
            "uniform 2-hop remote routes"
        )


class DragonflyTopology(Topology):
    """Dragonfly: all-to-all router groups joined by global cables.

    Routers are grouped ``dragonfly_group`` at a time; within a group every
    ordered router pair has a local channel, and every ordered *group* pair
    shares exactly one directed global link between deterministic gateway
    routers.  Minimal routes are at most local -> global -> local (diameter
    3).  The two local legs use distinct virtual channels: ``local0``
    (rank 1) before the global hop (rank 2), ``local1`` (rank 3) after it —
    without the split, the post-global local hop would break the monotone
    link ranking that makes hold-the-route transfers deadlock-free.  Global
    hops are the long cables: they are counted in ``RouteInfo.deep_hops``
    and pay ``deep_hop_extra_ns``.
    """

    kind = "dragonfly"

    def __init__(self, config: MachineConfig):
        self.group = config.dragonfly_group
        super().__init__(config)

    # -- group helpers -------------------------------------------------------

    @property
    def ngroups(self) -> int:
        return -(-self.nrouters // self.group)

    def group_of(self, router: int) -> int:
        return router // self.group

    def _group_routers(self, group: int) -> range:
        return range(group * self.group, min((group + 1) * self.group, self.nrouters))

    def _gateway(self, group: int, peer_group: int) -> int:
        """The router in ``group`` carrying traffic to/from ``peer_group``."""
        routers = self._group_routers(group)
        return routers[peer_group % len(routers)]

    # -- construction --------------------------------------------------------

    def _build_links(self) -> None:
        self._add_hub_links()
        for r in range(self.nrouters):
            for s in self._group_routers(self.group_of(r)):
                if s != r:
                    self._add_link(Link("local0", r, s))
                    self._add_link(Link("local1", r, s))
        for ga in range(self.ngroups):
            for gb in range(self.ngroups):
                if ga != gb:
                    self._add_link(
                        Link("global", self._gateway(ga, gb), self._gateway(gb, ga))
                    )

    # -- queries -------------------------------------------------------------

    def router_hops(self, node_a: int, node_b: int) -> int:
        return self.route_info(node_a, node_b).hops

    def deep_hops(self, node_a: int, node_b: int) -> int:
        return self.route_info(node_a, node_b).deep_hops

    def hop_matrix(self) -> np.ndarray:
        """Router hops from one uncached route per router pair.

        A route's hop count depends only on its two routers, so the
        first node of each router stands in for all of them.
        """
        first = [r * self.config.nodes_per_router for r in range(self.nrouters)]
        by_router = np.array(
            [[self._compute_route(a, b).hops for b in first] for a in first],
            dtype=np.int64,
        )
        routers = np.asarray(self._router_of, dtype=np.int64)
        return by_router[routers[:, None], routers[None, :]]

    def _compute_route(self, src_node: int, dst_node: int) -> RouteInfo:
        if src_node == dst_node:
            return RouteInfo((), 0, 0)
        r = self._router_of[src_node]
        s = self._router_of[dst_node]
        path: List[int] = [self._link_index[("hub-out", src_node, r)]]
        hops = deep = 0
        if r != s:
            ga_grp, gb_grp = self.group_of(r), self.group_of(s)
            if ga_grp == gb_grp:
                path.append(self._link_index[("local0", r, s)])
                hops += 1
            else:
                ga = self._gateway(ga_grp, gb_grp)
                gb = self._gateway(gb_grp, ga_grp)
                if r != ga:
                    path.append(self._link_index[("local0", r, ga)])
                    hops += 1
                path.append(self._link_index[("global", ga, gb)])
                hops += 1
                deep += 1
                if gb != s:
                    path.append(self._link_index[("local1", gb, s)])
                    hops += 1
        path.append(self._link_index[("hub-in", s, dst_node)])
        return RouteInfo(tuple(path), hops, deep)

    def describe(self) -> str:
        return (
            f"dragonfly model: {self.config.nprocs} CPUs on {self.nnodes} node(s), "
            f"{self.nrouters} router(s) in {self.ngroups} group(s) of "
            f"{self.group}, {len(self.links)} directed links, diameter <= 3"
        )


#: topology classes by ``MachineConfig.topology`` value
TOPOLOGIES: Dict[str, Type[Topology]] = {
    "hypercube": Topology,
    "fattree": StarTopology,
    "dragonfly": DragonflyTopology,
}


def build_topology(config: MachineConfig) -> Topology:
    """Instantiate the topology ``config.topology`` names."""
    try:
        cls = TOPOLOGIES[config.topology]
    except KeyError:
        raise ValueError(
            f"unknown topology {config.topology!r}; choose from {sorted(TOPOLOGIES)}"
        ) from None
    return cls(config)
