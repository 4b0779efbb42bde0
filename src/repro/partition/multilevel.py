"""Multilevel graph bisection (METIS-style): heavy-edge matching coarsening,
greedy graph-growing initial partition, and KL/FM boundary refinement during
uncoarsening.  K-way partitions come from recursive bisection with
proportional weight targets.

Everything works on the CSR arrays: the sequential sweeps (matching, BFS
growth) walk plain Python lists, the rest is NumPy.  Every floating-point
sum adds in CSR order starting from 0.0, as a scalar loop would
(``np.bincount`` accumulates that way; ``np.add.reduce`` and
``np.add.reduceat`` sum pairwise), so partitions do not change with
non-integer weights either.
"""

from __future__ import annotations

from collections import deque
from typing import List, Tuple

import numpy as np

from repro.partition.graph import Graph
from repro.sim.profile import PROFILER

__all__ = ["multilevel", "heavy_edge_matching", "coarsen_graph", "fm_refine"]

_COARSEST = 48       # stop coarsening below this many vertices
_MIN_SHRINK = 0.9    # or when a level shrinks less than this factor
_FM_PASSES = 6
_BALANCE_TOL = 1.04  # allowed part-weight overshoot during refinement


def heavy_edge_matching(graph: Graph, seed: int = 0) -> np.ndarray:
    """Match each vertex with its heaviest unmatched neighbour.

    Returns ``match`` with ``match[v] == u`` (and ``match[u] == v``);
    unmatched vertices map to themselves.  Visit order is randomised (but
    seeded) to avoid systematic bias; ties go to the first neighbour in
    CSR order.
    """
    xadj, adjncy, ewgt = graph.xadj.tolist(), graph.adjncy.tolist(), graph.ewgt.tolist()
    match = [-1] * graph.num_vertices
    for v in np.random.default_rng(seed).permutation(graph.num_vertices).tolist():
        if match[v] != -1:
            continue
        best, best_w = v, -np.inf
        for i in range(xadj[v], xadj[v + 1]):
            u = adjncy[i]
            if match[u] == -1 and u != v and ewgt[i] > best_w:
                best, best_w = u, ewgt[i]
        match[v] = best
        match[best] = v
    return np.asarray(match, dtype=np.int64)


def coarsen_graph(graph: Graph, match: np.ndarray) -> Tuple[Graph, np.ndarray]:
    """Contract matched pairs; returns (coarse graph, fine->coarse map).

    Coarse vertices are numbered in order of their lowest fine vertex;
    each coarse row lists its neighbours in ascending order, and parallel
    fine edges are summed in fine CSR order.
    """
    n = graph.num_vertices
    reps, cmap = np.unique(np.minimum(np.arange(n), match), return_inverse=True)
    cmap = cmap.astype(np.int64)
    nc = len(reps)
    vwgt = np.zeros(nc)
    np.add.at(vwgt, cmap, graph.vwgt)
    coords = None
    if graph.coords is not None:
        coords = np.zeros((nc, graph.coords.shape[1]))
        counts = np.zeros(nc)
        np.add.at(coords, cmap, graph.coords)
        np.add.at(counts, cmap, 1.0)
        coords /= counts[:, None]
    cv = cmap[graph.sources()]
    cu = cmap[graph.adjncy]
    cross = cv != cu
    keys, slot = np.unique(cv[cross] * nc + cu[cross], return_inverse=True)
    ewgt = np.bincount(slot, weights=graph.ewgt[cross], minlength=len(keys))
    xadj = np.concatenate(([0], np.cumsum(np.bincount(keys // nc, minlength=nc))))
    return Graph(xadj, keys % nc, vwgt, ewgt, coords), cmap


def _greedy_grow(graph: Graph, target: float, seed: int) -> np.ndarray:
    """Initial bisection: BFS-grow part 0 from a pseudo-peripheral vertex."""
    n = graph.num_vertices
    part = np.ones(n, dtype=np.int64)
    if n == 0:
        return part
    xadj, adjncy = graph.xadj.tolist(), graph.adjncy.tolist()
    start = int(np.random.default_rng(seed).integers(n))
    # pseudo-peripheral: walk to the farthest vertex from a random start
    for _ in range(2):
        dist = _bfs_dist(xadj, adjncy, start)
        start = dist.index(max(dist))
    vwgt = graph.vwgt.tolist()
    grown = 0.0
    frontier = deque([start])
    in_zero = [False] * n
    while frontier and grown < target:
        v = frontier.popleft()
        if in_zero[v]:
            continue
        in_zero[v] = True
        grown += vwgt[v]
        frontier.extend(u for u in adjncy[xadj[v] : xadj[v + 1]] if not in_zero[u])
    for v in range(n):  # disconnected graph: top up with any vertices
        if grown >= target:
            break
        if not in_zero[v]:
            in_zero[v] = True
            grown += vwgt[v]
    part[np.asarray(in_zero)] = 0
    return part


def _bfs_dist(xadj: List[int], adjncy: List[int], start: int) -> List[int]:
    """Hop distance from ``start``; -1 for unreachable vertices."""
    dist = [-1] * (len(xadj) - 1)
    dist[start] = 0
    queue = deque([start])
    while queue:
        v = queue.popleft()
        for u in adjncy[xadj[v] : xadj[v + 1]]:
            if dist[u] < 0:
                dist[u] = dist[v] + 1
                queue.append(u)
    return dist


def fm_refine(
    graph: Graph,
    part: np.ndarray,
    targets: Tuple[float, float],
    passes: int = _FM_PASSES,
) -> np.ndarray:
    """Boundary KL/FM refinement of a bisection (in place, also returned).

    Greedy gain passes: move the best-gain movable boundary vertex whose
    move keeps both sides within ``_BALANCE_TOL`` of target, lock it, and
    repeat; a pass with no accepted positive-or-balancing move ends the
    refinement.  Ties go to the lowest vertex id.

    Gains are computed for every vertex at the start of a pass; after a
    move only the moved vertex's neighbours are recomputed, each from its
    own row so the sums match a fresh computation bit for bit.
    """
    n = graph.num_vertices
    if n == 0:
        return part
    xadj, adjncy, ewgt = graph.xadj.tolist(), graph.adjncy.tolist(), graph.ewgt.tolist()
    vwgt = graph.vwgt
    rows = graph.sources()
    weights = np.zeros(2)
    np.add.at(weights, part, vwgt)
    limits = np.array(targets) * _BALANCE_TOL

    for _ in range(passes):
        side = part.tolist()
        same = part[rows] == part[graph.adjncy]
        internal = np.bincount(rows, weights=np.where(same, graph.ewgt, 0.0), minlength=n)
        external = np.bincount(rows, weights=np.where(same, 0.0, graph.ewgt), minlength=n)
        # gain of moving each vertex; -inf marks locked and interior vertices
        gain = np.where((external == 0.0) & (internal > 0.0), -np.inf, external - internal)
        locked = [False] * n
        dest = 1 - part
        improved = False
        while True:
            movable = np.where(weights[dest] + vwgt <= limits[dest], gain, -np.inf)
            v = int(np.argmax(movable))
            best_gain = movable[v]
            if best_gain < 0:
                break
            src = side[v]
            if best_gain == 0 and weights[src] <= targets[src]:
                break  # zero-gain move with nothing to rebalance
            part[v] = dest[v] = side[v] = 1 - src
            weights[src] -= vwgt[v]
            weights[1 - src] += vwgt[v]
            locked[v] = True
            gain[v] = -np.inf
            improved = True
            for u in adjncy[xadj[v] : xadj[v + 1]]:
                if locked[u]:
                    continue
                ext = int_ = 0.0
                for i in range(xadj[u], xadj[u + 1]):
                    if side[adjncy[i]] == side[u]:
                        int_ += ewgt[i]
                    else:
                        ext += ewgt[i]
                gain[u] = -np.inf if ext == 0.0 and int_ > 0.0 else ext - int_
        if not improved:
            break
    return part


def _multilevel_bisect(graph: Graph, target_frac: float, seed: int) -> np.ndarray:
    """Bisect ``graph`` into parts of weight ≈ (target_frac, 1-target_frac)."""
    total = graph.total_weight()
    targets = (target_frac * total, (1 - target_frac) * total)

    # coarsening ladder: levels[i + 1] is levels[i] contracted through cmaps[i]
    levels, cmaps = [graph], []
    while levels[-1].num_vertices > _COARSEST:
        current = levels[-1]
        match = heavy_edge_matching(current, seed=seed + len(levels))
        coarse, cmap = coarsen_graph(current, match)
        if coarse.num_vertices >= _MIN_SHRINK * current.num_vertices:
            break
        levels.append(coarse)
        cmaps.append(cmap)

    # initial partition on the coarsest level
    part = _greedy_grow(levels[-1], targets[0], seed)
    part = fm_refine(levels[-1], part, targets)

    # uncoarsen + refine
    for fine, cmap in zip(reversed(levels[:-1]), reversed(cmaps)):
        part = fm_refine(fine, part[cmap], targets)
    return part


def multilevel(graph: Graph, nparts: int, seed: int = 0) -> np.ndarray:
    """K-way partition by recursive multilevel bisection."""
    if nparts < 1:
        raise ValueError(f"nparts must be >= 1, got {nparts}")
    part = np.zeros(graph.num_vertices, dtype=np.int64)
    if nparts == 1 or graph.num_vertices == 0:
        return part
    with PROFILER.section("partition"):
        _recurse(graph, np.arange(graph.num_vertices), 0, nparts, part, seed)
    return part


def _recurse(
    root: Graph, ids: np.ndarray, first_part: int, nparts: int, out: np.ndarray, seed: int
) -> None:
    if nparts == 1 or len(ids) == 0:
        out[ids] = first_part
        return
    left = nparts // 2
    right = nparts - left
    sub, orig = root.subgraph(ids)
    bisection = _multilevel_bisect(sub, left / nparts, seed)
    left_ids = orig[bisection == 0]
    right_ids = orig[bisection == 1]
    if len(left_ids) == 0 or len(right_ids) == 0:
        # degenerate bisection (tiny graph): fall back to a weight split
        order = orig
        cum = np.cumsum(root.vwgt[order])
        split = int(np.searchsorted(cum, (left / nparts) * cum[-1])) + 1
        split = max(1, min(split, len(order) - 1))
        left_ids, right_ids = order[:split], order[split:]
    _recurse(root, left_ids, first_part, left, out, seed + 1)
    _recurse(root, right_ids, first_part + left, right, out, seed + 2)
