"""Vectorised solver kernels (NumPy; no Python-level inner loops).

The application "solve" is weighted-Jacobi relaxation of a vertex field on
the mesh graph toward a forcing profile — the standard stand-in for an
explicit edge-based CFD smoother.  Jacobi is order-independent, so the
parallel decomposition produces *bit-identical* results to the sequential
sweep under every programming model: the cross-model correctness check the
test suite relies on.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.mesh.mesh2d import EdgeTable, TriMesh, unpack_edge_keys

__all__ = ["vertex_csr", "jacobi_sweep", "residual_norm", "interpolate_new_vertices"]


def vertex_csr(mesh: TriMesh) -> Tuple[np.ndarray, np.ndarray]:
    """CSR adjacency (xadj, adjncy) of the alive vertex graph.

    Rows cover vertex ids ``0 .. mesh.num_vertices-1``; vertices not on any
    alive edge get empty rows.  Works for a :class:`TriMesh` and, through
    its ``edges()``, a :class:`~repro.mesh.mesh3d.TetMesh`.
    """
    nv = mesh.num_vertices
    edges = mesh.edges()
    if isinstance(edges, EdgeTable):
        lo, hi = unpack_edge_keys(edges.key)
    else:
        lo, hi = np.asarray(list(edges), dtype=np.int64).reshape(-1, 2).T
    src = np.concatenate([lo, hi])
    dst = np.concatenate([hi, lo])
    order = np.lexsort((dst, src))
    xadj = np.zeros(nv + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=nv), out=xadj[1:])
    return xadj, dst[order]


def jacobi_sweep(
    u: np.ndarray,
    xadj: np.ndarray,
    adjncy: np.ndarray,
    row_ids: np.ndarray,
    forcing: np.ndarray,
    omega: float = 0.7,
) -> np.ndarray:
    """One weighted-Jacobi update of the vertices ``row_ids``.

    ``xadj`` is a *local* CSR over exactly ``len(row_ids)`` rows (in order);
    ``adjncy`` holds *global* neighbour vertex ids into ``u``.  Returns the
    new values for the rows only — callers scatter them back (the
    owner-computes idiom).  ``forcing`` holds per-row target values the
    field relaxes toward.
    """
    row_ids = np.asarray(row_ids, dtype=np.int64)
    n = len(row_ids)
    if n == 0:
        return np.zeros(0)
    if len(xadj) != n + 1:
        raise ValueError(f"xadj covers {len(xadj) - 1} rows, expected {n}")
    deg = np.diff(xadj)
    seg = np.repeat(np.arange(n), deg)
    sums = np.zeros(n)
    np.add.at(sums, seg, u[adjncy])
    means = np.where(deg > 0, sums / np.maximum(deg, 1), u[row_ids])
    relaxed = (1.0 - omega) * u[row_ids] + omega * means
    # pull toward the forcing profile (keeps the field anchored to the shock)
    return 0.5 * (relaxed + forcing)


def residual_norm(u_new: np.ndarray, u_old: np.ndarray) -> float:
    """L2 norm of the update — the convergence measure ranks all-reduce."""
    d = np.asarray(u_new) - np.asarray(u_old)
    return float(np.sqrt((d * d).sum()))


def interpolate_new_vertices(
    u: np.ndarray, triples: Sequence[Tuple[int, int, int]], new_size: int
) -> np.ndarray:
    """Extend the field to refined meshes: midpoint ← mean of edge ends.

    ``triples`` is ``(mid, a, b)`` per new vertex; ``new_size`` the vertex
    count after refinement.  Triples must be ordered so parents precede
    children (the mesh creates them in that order).
    """
    out = np.zeros(new_size)
    out[: len(u)] = u
    for mid, a, b in triples:
        out[mid] = 0.5 * (out[a] + out[b])
    return out
