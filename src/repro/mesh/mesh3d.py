"""3-D tetrahedral mesh with dynamic adaptation support.

The paper's real meshes (rotor-blade CFD) were tetrahedral; this is the
3-D analogue of :mod:`repro.mesh.mesh2d`: tets are never deleted —
refinement kills a parent and appends children, midpoint vertices are
memoised per undirected edge (which keeps refinement conforming across
faces), and green (bisection) families are recorded for per-phase
dissolution.  The alive mesh's edge table is cached until the next
:meth:`TetMesh.add_tet`, :meth:`TetMesh.kill` or :meth:`TetMesh.revive`,
the only writers of ``tets`` and ``alive``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.mesh.mesh2d import edge_keys_of

__all__ = ["TetMesh", "edge_key3", "tet_edges_of"]

EdgeKey = Tuple[int, int]
FaceKey = Tuple[int, int, int]


def edge_key3(a: int, b: int) -> EdgeKey:
    """Canonical undirected edge key."""
    return (a, b) if a < b else (b, a)


def tet_edges_of(verts: Sequence[int]) -> Tuple[EdgeKey, ...]:
    """The six undirected edges of a tetrahedron's vertex tuple."""
    a, b, c, d = verts
    return (
        edge_key3(a, b),
        edge_key3(a, c),
        edge_key3(a, d),
        edge_key3(b, c),
        edge_key3(b, d),
        edge_key3(c, d),
    )


class TetMesh:
    """A tetrahedral mesh supporting red (1:8) / green (1:2) adaptation."""

    def __init__(self, verts: np.ndarray, tets: Sequence[Tuple[int, int, int, int]]):
        verts = np.asarray(verts, dtype=np.float64)
        if verts.ndim != 2 or verts.shape[1] != 3:
            raise ValueError(f"verts must be (nv, 3), got {verts.shape}")
        self._verts: List[Tuple[float, float, float]] = [tuple(v) for v in verts]
        self.tets: List[Tuple[int, int, int, int]] = []
        self.alive: List[bool] = []
        self.parent: List[int] = []
        self.children: Dict[int, Tuple[int, ...]] = {}
        self.level: List[int] = []
        self.green: Set[int] = set()
        self.edge_midpoint: Dict[EdgeKey, int] = {}
        self._edges: Optional[Dict[EdgeKey, List[int]]] = None
        for t in tets:
            self.add_tet(*t)
        self._check_initial()
        # element-protocol aliases: the partitioning / PLUM / trajectory
        # machinery is written against the 2-D names (tris, alive_tris,
        # tri_verts); a TetMesh satisfies the same protocol, with dual-graph
        # adjacency over faces instead of edges (see repro.mesh.dual)
        self.tris = self.tets  # same list object, kept in sync by add_tet

    # -- construction -----------------------------------------------------------

    def _check_initial(self) -> None:
        nv = len(self._verts)
        for t, tet in enumerate(self.tets):
            if len(set(tet)) != 4:
                raise ValueError(f"degenerate tet {t}: {tet}")
            if any(not 0 <= v < nv for v in tet):
                raise ValueError(f"tet {t} references missing vertex: {tet}")

    def add_vertex(self, x: float, y: float, z: float) -> int:
        self._verts.append((float(x), float(y), float(z)))
        return len(self._verts) - 1

    def add_tet(self, a: int, b: int, c: int, d: int, parent: int = -1) -> int:
        tid = len(self.tets)
        self._edges = None
        self.tets.append((a, b, c, d))
        self.alive.append(True)
        self.parent.append(parent)
        self.level.append(0 if parent < 0 else self.level[parent] + 1)
        return tid

    # -- queries ------------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self._verts)

    @property
    def num_tets(self) -> int:
        return sum(self.alive)

    @property
    def num_all_tets(self) -> int:
        return len(self.tets)

    def vert(self, vid: int) -> Tuple[float, float, float]:
        return self._verts[vid]

    def verts_array(self) -> np.ndarray:
        return np.asarray(self._verts, dtype=np.float64)

    def alive_tets(self) -> List[int]:
        return [t for t, a in enumerate(self.alive) if a]

    # element-protocol aliases (see __init__)
    def alive_tris(self) -> List[int]:
        return self.alive_tets()

    def tri_verts(self, tid: int) -> Tuple[int, int, int, int]:
        return self.tets[tid]

    def tet_verts(self, tid: int) -> Tuple[int, int, int, int]:
        return self.tets[tid]

    def tet_edges(self, tid: int) -> Tuple[EdgeKey, ...]:
        return tet_edges_of(self.tets[tid])

    def tet_faces(self, tid: int) -> Tuple[FaceKey, ...]:
        a, b, c, d = self.tets[tid]
        return (
            tuple(sorted((a, b, c))),
            tuple(sorted((a, b, d))),
            tuple(sorted((a, c, d))),
            tuple(sorted((b, c, d))),
        )

    def edges(self) -> Dict[EdgeKey, List[int]]:
        """Undirected edge -> alive tets using it, cached until a mutation.

        Callers share the cached table and must not modify it.
        """
        if self._edges is None:
            table: Dict[EdgeKey, List[int]] = {}
            for tid in self.alive_tets():
                for e in tet_edges_of(self.tets[tid]):
                    table.setdefault(e, []).append(tid)
            self._edges = table
        return self._edges

    def faces(self) -> Dict[FaceKey, List[int]]:
        """Face -> alive tets sharing it (1 boundary, 2 interior)."""
        table: Dict[FaceKey, List[int]] = {}
        for tid in self.alive_tets():
            for f in self.tet_faces(tid):
                table.setdefault(f, []).append(tid)
        return table

    # -- refinement support ---------------------------------------------------------

    def midpoint(self, e: EdgeKey) -> int:
        vid = self.edge_midpoint.get(e)
        if vid is None:
            p0 = self._verts[e[0]]
            p1 = self._verts[e[1]]
            vid = self.add_vertex(
                (p0[0] + p1[0]) / 2.0, (p0[1] + p1[1]) / 2.0, (p0[2] + p1[2]) / 2.0
            )
            self.edge_midpoint[e] = vid
        return vid

    def midpoint_table(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every memoised midpoint: ``(edge keys ascending, vertex ids)``.

        Keys are packed as :class:`~repro.mesh.mesh2d.TriMesh` packs them
        (``a << 32 | b``), so one code path reads either mesh's table.
        """
        keys = edge_keys_of(self.edge_midpoint)
        vids = np.fromiter(self.edge_midpoint.values(), np.int64, len(keys))
        order = np.argsort(keys)
        return keys[order], vids[order]

    def kill(self, tid: int) -> None:
        if not self.alive[tid]:
            raise ValueError(f"tet {tid} already dead")
        self._edges = None
        self.alive[tid] = False

    def revive(self, tid: int) -> None:
        if self.alive[tid]:
            raise ValueError(f"tet {tid} already alive")
        self._edges = None
        self.alive[tid] = True

    # -- integrity -------------------------------------------------------------------

    def validate(self) -> None:
        """Raise unless the alive mesh is conforming and non-degenerate.

        Checks: every face borders at most 2 alive tets; every alive tet
        has positive volume; no alive edge has its memoised midpoint in
        use (hanging node).
        """
        for f, ts in self.faces().items():
            if len(ts) > 2:
                raise AssertionError(f"face {f} shared by {len(ts)} tets: {ts}")
        tids = np.flatnonzero(self.alive)
        rows = np.asarray(self.tets, dtype=np.int64).reshape(-1, 4)[tids]
        vols = _signed_volumes(self.verts_array().reshape(-1, 3)[rows])
        degenerate = np.flatnonzero(np.abs(vols) < 1e-16)
        if len(degenerate):
            at = degenerate[0]
            raise AssertionError(f"tet {tids[at]} degenerate (volume {float(vols[at])})")
        used = set(rows.ravel().tolist())
        for e in self.edges():
            mid = self.edge_midpoint.get(e)
            if mid is not None and mid in used:
                raise AssertionError(
                    f"hanging node: midpoint {mid} of alive edge {e} is in use"
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TetMesh({self.num_vertices} verts, {self.num_tets} alive tets, "
            f"{self.num_all_tets} total)"
        )


def _signed_volumes(corners: np.ndarray) -> np.ndarray:
    """Signed volume of each ``(4, 3)`` corner block of ``corners``: one
    batched determinant of the edge vectors from corner 0, over 6."""
    return np.linalg.det(corners[:, 1:] - corners[:, :1]) / 6.0
