"""Multilevel graph bisection (METIS-style): heavy-edge matching coarsening,
greedy graph-growing initial partition, and KL/FM boundary refinement during
uncoarsening.  K-way partitions come from recursive bisection with
proportional weight targets.

Work is split by size.  A subgraph of at most ``_COARSEST`` vertices is
its own coarsest level, and nearly every bisection of a high-P
repartition is one: the recursion builds it straight from the root's
CSR as Python lists and bisects it with no ``Graph`` and no NumPy call
but the seeded draw.  A larger subgraph is cut out with
``Graph.subgraph`` and coarsened with NumPy (matching and BFS growth walk
lists; contraction and the gains a level starts from are array code),
and only its coarsest level runs on lists.

Refinement keeps each side's movable vertices in a heap of
``(-gain, vertex)`` entries, so a pick costs a few heap operations
instead of a scan over every vertex.

Every floating-point sum adds in CSR order starting from 0.0, as a scalar
loop would (``np.bincount`` accumulates that way; ``np.add.reduce`` and
``np.add.reduceat`` sum pairwise), so partitions do not change with
non-integer weights either, whichever side of the split computes them.
The one pairwise sum, a subgraph's total weight, is repeated in NumPy's
order by :func:`_pairwise_sum`.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from heapq import heapify, heappop, heappush
from itertools import accumulate
from typing import List, Sequence, Tuple

import numpy as np

from repro.partition.graph import Graph, check_nparts

__all__ = ["multilevel", "heavy_edge_matching", "coarsen_graph", "fm_refine"]

_COARSEST = 48       # stop coarsening below this many vertices
_MIN_SHRINK = 0.9    # or when a level shrinks less than this factor
_FM_PASSES = 6
_BALANCE_TOL = 1.04  # allowed part-weight overshoot during refinement
_NEG_INF = float("-inf")

# one level's CSR as lists: (xadj, adjncy, ewgt, vwgt)
Lists = Tuple[List[int], List[int], List[float], List[float]]


def _as_lists(graph: Graph) -> Lists:
    return graph.xadj.tolist(), graph.adjncy.tolist(), graph.ewgt.tolist(), graph.vwgt.tolist()


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
        best, best_w = v, _NEG_INF
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
    return _contract(graph, match, with_coords=True)


def _contract(graph: Graph, match: np.ndarray, with_coords: bool) -> Tuple[Graph, np.ndarray]:
    """:func:`coarsen_graph`; the ladder leaves out the coarse coordinates."""
    ids = np.arange(graph.num_vertices)
    # a pair's lower vertex represents it; representatives keep their order
    rank = np.cumsum(match >= ids, dtype=np.int64) - 1
    cmap = rank[np.minimum(ids, match)]
    nc = int(rank[-1]) + 1 if len(rank) else 0
    vwgt = np.bincount(cmap, weights=graph.vwgt, minlength=nc)
    coords = None
    if with_coords and graph.coords is not None:
        counts = np.bincount(cmap, minlength=nc).astype(np.float64)
        coords = np.column_stack([np.bincount(cmap, weights=c, minlength=nc) for c in graph.coords.T])
        coords /= counts[:, None]
    cv = cmap[graph.sources()]
    cu = cmap[graph.adjncy]
    cross = cv != cu
    keys, slot = np.unique(cv[cross] * nc + cu[cross], return_inverse=True)
    ewgt = np.bincount(slot, weights=graph.ewgt[cross], minlength=len(keys))
    xadj = np.concatenate(([0], np.cumsum(np.bincount(keys // nc, minlength=nc))))
    return Graph(xadj, keys % nc, vwgt, ewgt, coords), cmap


def _pairwise_sum(values: Sequence[float]) -> float:
    """``float(np.sum(values))`` for a contiguous float64 array, in Python.

    NumPy sums a run of fewer than 8 values left to right from 0.0, a run
    of up to 128 in eight interleaved lanes, and splits a longer run in
    two at a multiple of 8.
    """
    n = len(values)
    if n < 8:
        total = 0.0
        for x in values:
            total += x
        return total
    if n > 128:
        half = n // 2
        half -= half % 8
        return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])
    lanes = list(values[:8])
    body = n - n % 8
    for i in range(8, body, 8):
        for j in range(8):
            lanes[j] += values[i + j]
    total = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]))
    for x in values[body:]:
        total += x
    return total


def _greedy_grow(lists: Lists, target: float, seed: int) -> List[int]:
    """Initial bisection: BFS-grow part 0 from a pseudo-peripheral vertex."""
    xadj, adjncy, _, vwgt = lists
    n = len(vwgt)
    if n == 0:
        return []
    start = int(np.random.default_rng(seed).integers(n))
    # pseudo-peripheral: walk to the farthest vertex from a random start
    for _ in range(2):
        dist = _bfs_dist(xadj, adjncy, start)
        start = dist.index(max(dist))
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
    return [0 if z else 1 for z in in_zero]


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


def _row_gain(xadj: List[int], adjncy: List[int], ewgt: List[float], side: List[int], u: int) -> float:
    """Gain of moving ``u`` across, from its row; -inf for an interior vertex."""
    s = side[u]
    ext = int_ = 0.0
    for i in range(xadj[u], xadj[u + 1]):
        if side[adjncy[i]] == s:
            int_ += ewgt[i]
        else:
            ext += ewgt[i]
    return _NEG_INF if ext == 0.0 and int_ > 0.0 else ext - int_


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

    The starting gains come from ``np.bincount`` over the CSR arrays,
    once per call.  The passes then run on Python lists, picking each
    move from one heap of ``(-gain, vertex)`` per source side rather than
    by an argmax over every vertex (see :func:`_fm`), and the final sides
    are written back into ``part``.
    """
    n = graph.num_vertices
    if n == 0:
        return part
    rows = graph.sources()
    same = part[rows] == part[graph.adjncy]
    internal = np.bincount(rows, weights=np.where(same, graph.ewgt, 0.0), minlength=n)
    external = np.bincount(rows, weights=np.where(same, 0.0, graph.ewgt), minlength=n)
    gain = np.where((external == 0.0) & (internal > 0.0), -np.inf, external - internal)
    side = part.tolist()
    _fm(_as_lists(graph), side, gain.tolist(), targets, passes)
    part[:] = side
    return part


def _fm(
    lists: Lists, side: List[int], gain: List[float], targets: Tuple[float, float], passes: int
) -> None:
    """The passes of :func:`fm_refine` on lists; ``side`` is moved in place.

    ``gain[v]`` is the gain of moving ``v`` (-inf for interior vertices),
    each summed over its own row in CSR order, which is what
    ``np.bincount`` adds too.  A move re-derives its unlocked neighbours'
    rows; a locked vertex's row goes stale and is re-derived when the
    next pass starts, so gains carry across passes.

    Each side's unlocked vertices of finite gain sit in a heap of
    ``(-gain, v)``; an entry whose gain has changed since is skipped when
    it surfaces.  A pick takes each heap's best entry whose move fits the
    other side's limit, setting aside (and then pushing back) the tops
    that are too heavy to move, and keeps the better of the two: the
    highest gain, then the lowest id, as an argmax over all vertices
    would.  A best gain below zero ends the pass, and so does a zero-gain
    move while the source side is within its target.
    """
    xadj, adjncy, ewgt, vwgt = lists
    n = len(side)
    weights = [0.0, 0.0]
    for s, w in zip(side, vwgt):
        weights[s] += w
    limits = (targets[0] * _BALANCE_TOL, targets[1] * _BALANCE_TOL)
    moved: List[int] = []
    for _ in range(passes):
        for v in moved:
            gain[v] = _row_gain(xadj, adjncy, ewgt, side, v)
        heaps: Tuple[list, list] = ([], [])
        for v, g in enumerate(gain):
            if g != _NEG_INF:
                heaps[side[v]].append((-g, v))
        for heap in heaps:
            heapify(heap)
        locked = [False] * n
        moved = []
        while True:
            pick = None
            for src, heap in enumerate(heaps):
                room = limits[1 - src]
                dest_w = weights[1 - src]
                aside = []
                while heap:
                    neg, v = heap[0]
                    if locked[v] or gain[v] != -neg:
                        heappop(heap)  # stale entry
                    elif neg > 0.0:
                        break  # this side's best gain is below zero
                    elif dest_w + vwgt[v] <= room:
                        if pick is None or (neg, v) < pick:
                            pick = (neg, v)
                        break
                    else:
                        aside.append(heappop(heap))
                for entry in aside:
                    heappush(heap, entry)
            if pick is None:
                break
            neg, v = pick
            src = side[v]
            if neg == 0.0 and weights[src] <= targets[src]:
                break  # zero-gain move with nothing to rebalance
            side[v] = 1 - src
            weights[src] -= vwgt[v]
            weights[1 - src] += vwgt[v]
            locked[v] = True
            moved.append(v)
            for u in adjncy[xadj[v] : xadj[v + 1]]:
                if locked[u]:
                    continue
                g = _row_gain(xadj, adjncy, ewgt, side, u)
                if g != gain[u]:
                    gain[u] = g
                    if g != _NEG_INF:
                        heappush(heaps[side[u]], (-g, u))
        if not moved:
            break


def _bisect_lists(lists: Lists, targets: Tuple[float, float], seed: int) -> List[int]:
    """Initial partition of a coarsest level: BFS growth, then FM."""
    xadj, adjncy, ewgt, _ = lists
    side = _greedy_grow(lists, targets[0], seed)
    gain = [_row_gain(xadj, adjncy, ewgt, side, u) for u in range(len(side))]
    _fm(lists, side, gain, targets, _FM_PASSES)
    return side


def _multilevel_bisect(graph: Graph, target_frac: float, seed: int) -> np.ndarray:
    """Bisect ``graph`` into parts of weight ≈ (target_frac, 1-target_frac)."""
    total = graph.total_weight()
    targets = (target_frac * total, (1 - target_frac) * total)

    # coarsening ladder: levels[i + 1] is levels[i] contracted through cmaps[i]
    levels, cmaps = [graph], []
    while levels[-1].num_vertices > _COARSEST:
        current = levels[-1]
        match = heavy_edge_matching(current, seed=seed + len(levels))
        coarse, cmap = _contract(current, match, with_coords=False)
        if coarse.num_vertices >= _MIN_SHRINK * current.num_vertices:
            break
        levels.append(coarse)
        cmaps.append(cmap)

    part = np.asarray(_bisect_lists(_as_lists(levels[-1]), targets, seed), dtype=np.int64)

    # uncoarsen + refine
    for fine, cmap in zip(reversed(levels[:-1]), reversed(cmaps)):
        part = fm_refine(fine, part[cmap], targets)
    return part


def multilevel(graph: Graph, nparts: int, seed: int = 0) -> np.ndarray:
    """K-way partition by recursive multilevel bisection."""
    nparts = check_nparts(nparts)
    n = graph.num_vertices
    if nparts == 1 or n == 0:
        return np.zeros(n, dtype=np.int64)
    out = [0] * n
    _recurse(graph, _as_lists(graph), list(range(n)), 0, nparts, out, seed)
    return np.asarray(out, dtype=np.int64)


def _induced(root: Lists, ids: List[int]) -> Lists:
    """The subgraph on ``ids`` as lists, entry for entry ``Graph.subgraph``."""
    rx, ra, re, rv = root
    local = {v: i for i, v in enumerate(ids)}
    xadj, adjncy, ewgt = [0], [], []
    for v in ids:
        for i in range(rx[v], rx[v + 1]):
            u = local.get(ra[i])
            if u is not None:
                adjncy.append(u)
                ewgt.append(re[i])
        xadj.append(len(adjncy))
    return xadj, adjncy, ewgt, [rv[v] for v in ids]


def _recurse(
    graph: Graph, root: Lists, ids: List[int], first_part: int, nparts: int, out: List[int], seed: int
) -> None:
    if nparts == 1 or not ids:
        for v in ids:
            out[v] = first_part
        return
    left = nparts // 2
    right = nparts - left
    frac = left / nparts
    if len(ids) <= _COARSEST:
        sub = _induced(root, ids)
        total = _pairwise_sum(sub[3])
        side = _bisect_lists(sub, (frac * total, (1 - frac) * total), seed)
    else:
        side = _multilevel_bisect(graph.subgraph(np.asarray(ids))[0], frac, seed).tolist()
    left_ids = [v for v, s in zip(ids, side) if s == 0]
    right_ids = [v for v, s in zip(ids, side) if s == 1]
    if not left_ids or not right_ids:
        # degenerate bisection (tiny graph): fall back to a weight split
        cum = list(accumulate(root[3][v] for v in ids))
        split = bisect_left(cum, frac * cum[-1]) + 1
        split = max(1, min(split, len(ids) - 1))
        left_ids, right_ids = ids[:split], ids[split:]
    _recurse(graph, root, left_ids, first_part, left, out, seed + 1)
    _recurse(graph, root, right_ids, first_part + left, right, out, seed + 2)
