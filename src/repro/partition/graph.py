"""Weighted undirected graph in CSR form, built from the mesh dual."""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.mesh.mesh2d import TriMesh

__all__ = ["Graph", "check_nparts", "mesh_dual_graph"]


def check_nparts(nparts) -> int:
    """``nparts`` as an ``int``; a ``ValueError`` names anything but an integer >= 1."""
    if isinstance(nparts, bool) or not isinstance(nparts, (int, np.integer)) or nparts < 1:
        raise ValueError(f"nparts must be an integer >= 1, got {nparts!r}")
    return int(nparts)


class Graph:
    """CSR graph with vertex weights, edge weights, and coordinates."""

    def __init__(
        self,
        xadj: np.ndarray,
        adjncy: np.ndarray,
        vwgt: Optional[np.ndarray] = None,
        ewgt: Optional[np.ndarray] = None,
        coords: Optional[np.ndarray] = None,
    ):
        self.xadj = np.asarray(xadj, dtype=np.int64)
        self.adjncy = np.asarray(adjncy, dtype=np.int64)
        n = len(self.xadj) - 1
        if n < 0:
            raise ValueError("xadj must have at least one entry")
        if self.xadj[0] != 0 or self.xadj[-1] != len(self.adjncy):
            raise ValueError("inconsistent CSR structure")
        if np.any(np.diff(self.xadj) < 0):
            raise ValueError("xadj must be non-decreasing")
        self.vwgt = (
            np.ones(n, dtype=np.float64) if vwgt is None else np.asarray(vwgt, dtype=np.float64)
        )
        self.ewgt = (
            np.ones(len(self.adjncy), dtype=np.float64)
            if ewgt is None
            else np.asarray(ewgt, dtype=np.float64)
        )
        if len(self.vwgt) != n or len(self.ewgt) != len(self.adjncy):
            raise ValueError("weight arrays do not match graph size")
        self.coords = coords if coords is None else np.asarray(coords, dtype=np.float64)

    @property
    def num_vertices(self) -> int:
        return len(self.xadj) - 1

    @property
    def num_edges(self) -> int:
        return len(self.adjncy) // 2

    def neighbors(self, v: int) -> np.ndarray:
        return self.adjncy[self.xadj[v] : self.xadj[v + 1]]

    def neighbor_weights(self, v: int) -> np.ndarray:
        return self.ewgt[self.xadj[v] : self.xadj[v + 1]]

    def sources(self) -> np.ndarray:
        """Source vertex of every CSR entry (the row each entry sits in)."""
        return np.repeat(np.arange(self.num_vertices, dtype=np.int64), np.diff(self.xadj))

    def degree(self, v: int) -> int:
        return int(self.xadj[v + 1] - self.xadj[v])

    def total_weight(self) -> float:
        return float(self.vwgt.sum())

    def subgraph(self, vertices: np.ndarray) -> Tuple["Graph", np.ndarray]:
        """Induced subgraph; returns (graph, original-ids of its vertices).

        Vertex ``i`` of the subgraph is ``vertices[i]``; each row keeps the
        surviving entries of the original row, in their original order.
        """
        vertices = np.asarray(vertices, dtype=np.int64)
        remap = np.full(self.num_vertices, -1, dtype=np.int64)
        remap[vertices] = np.arange(len(vertices))
        lens = np.diff(self.xadj)[vertices]
        row = np.repeat(np.arange(len(vertices)), lens)
        # CSR positions of the selected rows, row after row
        entry = np.arange(len(row)) + np.repeat(self.xadj[vertices] - (np.cumsum(lens) - lens), lens)
        target = remap[self.adjncy[entry]]
        keep = target >= 0
        xadj = np.concatenate(([0], np.cumsum(np.bincount(row[keep], minlength=len(vertices)))))
        coords = None if self.coords is None else self.coords[vertices]
        return (
            Graph(xadj, target[keep], self.vwgt[vertices], self.ewgt[entry[keep]], coords),
            vertices,
        )

    @classmethod
    def from_adjacency(
        cls,
        adj: Dict[int, List[int]],
        vwgt: Optional[np.ndarray] = None,
        coords: Optional[np.ndarray] = None,
    ) -> "Graph":
        """Build from a dict of sorted adjacency lists keyed 0..n-1."""
        n = len(adj)
        xadj = [0]
        adjncy: List[int] = []
        for v in range(n):
            adjncy.extend(adj[v])
            xadj.append(len(adjncy))
        return cls(np.asarray(xadj), np.asarray(adjncy), vwgt=vwgt, coords=coords)


def mesh_dual_graph(mesh: TriMesh, weights: Optional[Dict[int, float]] = None) -> Tuple[Graph, List[int]]:
    """Dual graph of the alive mesh; returns (graph, tids in node order).

    Node ``i`` is element ``tids[i]`` at its centroid; its neighbours are
    listed in ascending node order.  Works for 2-D and 3-D meshes.
    """
    from repro.mesh.dual import dual_csr, dual_graph

    if hasattr(mesh, "tet_faces"):
        tids, adj = dual_graph(mesh)
        lens = [len(adj[t]) for t in tids]
        # tids ascend and every adjacency list is sorted, so node ids are too
        adjncy = np.searchsorted(
            tids, np.fromiter(itertools.chain.from_iterable(adj[t] for t in tids), np.int64, sum(lens))
        )
        xadj = np.concatenate(([0], np.cumsum(lens)))
        corners = np.asarray([mesh.tri_verts(t) for t in tids], dtype=np.int64)
    else:
        ids, xadj, adjncy = dual_csr(mesh)
        tids = ids.tolist()
        corners = mesh.edges().verts
    coords = mesh.verts_array()[corners].mean(axis=1)
    vwgt = None if weights is None else np.asarray([weights.get(t, 1.0) for t in tids], dtype=np.float64)
    return Graph(xadj, adjncy, vwgt=vwgt, coords=coords), tids
