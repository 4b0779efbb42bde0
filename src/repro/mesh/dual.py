"""Dual graph of the mesh (elements = nodes) for partitioning, plus
partition-boundary queries used by the halo-exchange layers."""

from __future__ import annotations

from typing import Dict, List, Tuple

import numpy as np

from repro.mesh.mesh2d import EdgeKey, TriMesh

__all__ = ["dual_graph", "dual_csr", "partition_boundary_edges"]


def dual_csr(mesh: TriMesh) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Element adjacency of a 2-D mesh in CSR form: ``(tids, xadj, adjncy)``.

    Node ``i`` is alive triangle ``tids[i]`` (ascending); its neighbours,
    the triangles across its interior edges, are node ids in ascending
    order.
    """
    table = mesh.edges()
    a, b = table.pos[table.count == 2].T
    src = np.concatenate([a, b])
    dst = np.concatenate([b, a])
    order = np.lexsort((dst, src))
    xadj = np.zeros(len(table.tids) + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=len(table.tids)), out=xadj[1:])
    return table.tids, xadj, dst[order]


def dual_graph(mesh) -> Tuple[List[int], Dict[int, List[int]]]:
    """Element adjacency: shared edges in 2-D, shared faces in 3-D.

    Returns ``(tids, adj)`` where ``tids`` is the alive-element list and
    ``adj`` maps each alive element to its (sorted) neighbours.  Works for
    :class:`~repro.mesh.mesh2d.TriMesh` and, by duck-typing on
    ``tet_faces``, :class:`~repro.mesh.mesh3d.TetMesh`.
    """
    if not hasattr(mesh, "tet_faces"):
        tids, xadj, adjncy = dual_csr(mesh)
        nbrs = tids[adjncy].tolist()
        bounds = xadj.tolist()
        ids = tids.tolist()
        return ids, {t: nbrs[bounds[i] : bounds[i + 1]] for i, t in enumerate(ids)}
    tids = mesh.alive_tris()
    adj: Dict[int, List[int]] = {t: [] for t in tids}
    for _key, ts in mesh.faces().items():
        if len(ts) == 2:
            a, b = ts
            adj[a].append(b)
            adj[b].append(a)
    for t in adj:
        adj[t].sort()
    return tids, adj


def partition_boundary_edges(
    mesh: TriMesh, owner: Dict[int, int]
) -> Dict[Tuple[int, int], List[EdgeKey]]:
    """Edges straddling partitions: ``(part_a, part_b) -> [edges]``, a < b.

    ``owner`` maps alive triangle id -> partition.  The result drives ghost
    exchange: parts a and b must exchange data across exactly these edges.
    """
    out: Dict[Tuple[int, int], List[EdgeKey]] = {}
    for e, ts in mesh.edges().items():
        if len(ts) != 2:
            continue
        pa, pb = owner[ts[0]], owner[ts[1]]
        if pa == pb:
            continue
        key = (pa, pb) if pa < pb else (pb, pa)
        out.setdefault(key, []).append(e)
    for key in out:
        out[key].sort()
    return out
