"""Error indicators that drive edge marking.

Two drivers are provided:

* :func:`gradient_indicator` — solution-based: an edge's error is the jump
  of a vertex field across it (the classic CFD indicator),
* :func:`distance_band_marks` — geometry-based: mark edges within a band of
  a moving front (the synthetic stand-in for the paper's shock workload;
  see ``repro.workloads.shock``).
"""

from __future__ import annotations

from typing import Callable, Dict, Set

import numpy as np

from repro.mesh.mesh2d import EdgeKey, TriMesh, edge_set, unpack_edge_keys

__all__ = ["gradient_indicator", "mark_by_threshold", "distance_band_marks"]


def gradient_indicator(mesh: TriMesh, vertex_values: np.ndarray) -> Dict[EdgeKey, float]:
    """Per-edge error: |field jump| scaled by edge length."""
    values = np.asarray(vertex_values, dtype=np.float64)
    if values.shape[0] < mesh.num_vertices:
        raise ValueError(
            f"need a value per vertex ({mesh.num_vertices}), got {values.shape[0]}"
        )
    verts = mesh.verts_array()
    lo, hi = unpack_edge_keys(mesh.edges().key)
    d = verts[lo] - verts[hi]
    err = np.abs(values[lo] - values[hi]) * np.hypot(d[:, 0], d[:, 1])
    return dict(zip(zip(lo.tolist(), hi.tolist()), err.tolist()))


def mark_by_threshold(errors: Dict[EdgeKey, float], threshold: float) -> Set[EdgeKey]:
    """Edges whose indicator exceeds ``threshold``."""
    return {e for e, err in errors.items() if err > threshold}


def distance_band_marks(
    mesh: TriMesh,
    distance_fn: Callable[[np.ndarray, np.ndarray], np.ndarray],
    band: float,
    max_level: int = 10,
) -> Set[EdgeKey]:
    """Mark alive edges whose midpoint is within ``band`` of a front.

    ``distance_fn(x, y)`` returns the signed/unsigned distance to the
    feature; it is called once, elementwise on arrays of edge-midpoint
    coordinates.  Edges of triangles already at ``max_level`` are skipped
    so refinement depth stays bounded.
    """
    if band <= 0:
        raise ValueError(f"band must be positive, got {band}")
    table = mesh.edges()
    level = mesh.level
    first, second = table.tris[:, 0], table.tris[:, 1]
    open_ = (level[first] < max_level) | (
        (second >= 0) & (level[np.maximum(second, 0)] < max_level)
    )
    keys = table.key[open_]
    lo, hi = unpack_edge_keys(keys)
    verts = mesh.verts_array()
    mx = (verts[lo, 0] + verts[hi, 0]) / 2.0
    my = (verts[lo, 1] + verts[hi, 1]) / 2.0
    near = np.abs(np.asarray(distance_fn(mx, my), dtype=np.float64)) <= band
    return edge_set(keys[near])
