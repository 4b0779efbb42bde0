"""Recursive coordinate bisection (geometric partitioning).

Splits along the widest coordinate direction at the weighted median,
recursing with proportional target sizes so any ``nparts`` (not just powers
of two) comes out balanced.  Requires ``graph.coords``.
"""

from __future__ import annotations

import numpy as np

from repro.partition.graph import Graph, check_nparts

__all__ = ["rcb"]


def rcb(graph: Graph, nparts: int) -> np.ndarray:
    """Partition into ``nparts``; returns the per-vertex part array."""
    nparts = check_nparts(nparts)
    if graph.coords is None:
        raise ValueError("rcb requires vertex coordinates")
    part = np.zeros(graph.num_vertices, dtype=np.int64)
    if nparts == 1 or graph.num_vertices == 0:
        return part
    _rcb_recurse(
        graph.coords, graph.vwgt, np.arange(graph.num_vertices), 0, nparts, part
    )
    return part


def _rcb_recurse(
    coords: np.ndarray,
    vwgt: np.ndarray,
    ids: np.ndarray,
    first_part: int,
    nparts: int,
    out: np.ndarray,
) -> None:
    if nparts == 1 or len(ids) == 0:
        out[ids] = first_part
        return
    left_parts = nparts // 2
    right_parts = nparts - left_parts
    target_frac = left_parts / nparts

    pts = coords[ids]
    spans = pts.max(axis=0) - pts.min(axis=0) if len(ids) else np.zeros(2)
    dim = int(np.argmax(spans))
    order = ids[np.argsort(pts[:, dim], kind="stable")]

    weights = vwgt[order]
    cum = np.cumsum(weights)
    total = cum[-1]
    # split index: smallest prefix reaching the target weight fraction
    split = int(np.searchsorted(cum, target_frac * total, side="left")) + 1
    split = max(1, min(split, len(order) - 1)) if len(order) > 1 else 1

    _rcb_recurse(coords, vwgt, order[:split], first_part, left_parts, out)
    _rcb_recurse(coords, vwgt, order[split:], first_part + left_parts, right_parts, out)
