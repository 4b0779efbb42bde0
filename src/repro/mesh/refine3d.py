"""Tetrahedral refinement: Bey's red (1:8) subdivision with the full green
closure pattern set, under the same red-green discipline as the 2-D engine.

Supported mark configurations per tet (after closure):

==========================  =============================================
marks                       pattern
==========================  =============================================
none                        untouched
1 edge                      **green 1:2** — bisect toward the opposite edge
2 edges sharing a vertex    **green 1:3** — the 2-D 1:3 of their common
                            face, coned to the apex
3 edges forming one face    **green 1:4** — the 2-D 1:4 of that face,
                            coned to the apex
all 6 edges                 **red 1:8** — Bey's regular subdivision
anything else               *unsupported*: closure promotes to all 6
==========================  =============================================

Why this conforms: a red tet fully marks each of its faces, so a
face-sharing neighbour sees a fully marked face — a supported green 1:4 —
and both sides split the face into the same four triangles.  Every green
pattern splits each of its faces either not at all, in two (through one
edge midpoint and the opposite face corner), or in four — always the
same way its neighbour does, because face splits are determined purely by
which of the face's edges are marked.

The red child set follows Bey: four corner tets plus four interior tets
splitting the inner octahedron along its **shortest diagonal**
(deterministic tie-break), which bounds element quality over repeated
refinement.  All greens are recorded in ``mesh.green`` and dissolved at
the start of the next phase (they are never themselves refined).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

import numpy as np

from repro.mesh.mesh3d import EdgeKey, TetMesh, edge_key3, tet_edges_of

__all__ = [
    "Refinement3DReport",
    "classify_marks3d",
    "close_marks3d",
    "refine3d",
    "dissolve_green_families3d",
    "hanging_edge_marks3d",
    "refine_cascade3d",
    "refine_closed3d",
]


@dataclass
class Refinement3DReport:
    refined_1to8: int = 0
    refined_1to4: int = 0
    refined_1to3: int = 0
    refined_1to2: int = 0
    new_tets: List[int] = field(default_factory=list)
    new_vertices: int = 0
    cascade_rounds: int = 0
    families: Dict[int, Tuple[int, ...]] = field(default_factory=dict)

    @property
    def refined(self) -> int:
        return self.refined_1to8 + self.refined_1to4 + self.refined_1to3 + self.refined_1to2

    @property
    def greens(self) -> int:
        return self.refined_1to4 + self.refined_1to3 + self.refined_1to2

    def absorb(self, other: "Refinement3DReport") -> None:
        """Add ``other``'s counts, new tets, rounds and families to this report."""
        self.refined_1to8 += other.refined_1to8
        self.refined_1to4 += other.refined_1to4
        self.refined_1to3 += other.refined_1to3
        self.refined_1to2 += other.refined_1to2
        self.new_tets.extend(other.new_tets)
        self.new_vertices += other.new_vertices
        self.cascade_rounds += other.cascade_rounds
        self.families.update(other.families)


def classify_marks3d(tet: Tuple[int, int, int, int], marked: Set[EdgeKey]):
    """Classify a tet's marks; returns (kind, detail).

    kind in {"none", "green2", "green3", "green4", "red", "promote"}.
    """
    edges = [e for e in tet_edges_of(tet) if e in marked]
    k = len(edges)
    if k == 0:
        return ("none", None)
    if k == 6:
        return ("red", None)
    if k == 1:
        return ("green2", edges[0])
    if k == 2:
        shared = set(edges[0]) & set(edges[1])
        if shared:
            return ("green3", (edges[0], edges[1], shared.pop()))
        return ("promote", None)
    if k == 3:
        face = set(edges[0]) | set(edges[1]) | set(edges[2])
        if len(face) == 3:
            return ("green4", tuple(sorted(face)))
        return ("promote", None)
    return ("promote", None)


def close_marks3d(mesh: TetMesh, marked: Set[EdgeKey]) -> Set[EdgeKey]:
    """Promote every unsupported configuration to fully marked (fixpoint)."""
    marked = set(marked)
    changed = True
    while changed:
        changed = False
        for tid in mesh.alive_tets():
            tet = mesh.tet_verts(tid)
            kind, _ = classify_marks3d(tet, marked)
            if kind == "promote":
                for e in tet_edges_of(tet):
                    if e not in marked:
                        marked.add(e)
                        changed = True
    return marked


def _octahedron_children(mesh: TetMesh, tid: int, mids: Dict[EdgeKey, int]):
    """The four interior tets, split along the shortest octahedron diagonal."""
    a, b, c, d = mesh.tet_verts(tid)
    mab = mids[edge_key3(a, b)]
    mac = mids[edge_key3(a, c)]
    mad = mids[edge_key3(a, d)]
    mbc = mids[edge_key3(b, c)]
    mbd = mids[edge_key3(b, d)]
    mcd = mids[edge_key3(c, d)]
    # only the six midpoints are read, one float64 row each
    verts = {v: np.asarray(mesh.vert(v), dtype=np.float64)
             for v in (mab, mac, mad, mbc, mbd, mcd)}

    def d2(u: int, v: int) -> float:
        diff = verts[u] - verts[v]
        return float(diff @ diff)

    options = [
        (d2(mab, mcd), (mab, mcd), (mac, mad, mbd, mbc)),
        (d2(mac, mbd), (mac, mbd), (mab, mad, mcd, mbc)),
        (d2(mad, mbc), (mad, mbc), (mab, mbd, mcd, mac)),
    ]
    options.sort(key=lambda o: (o[0], o[1]))
    _, (x, y), eq = options[0]
    return [(x, y, eq[i], eq[(i + 1) % 4]) for i in range(4)]


def refine3d(mesh: TetMesh, marked: Set[EdgeKey]) -> Refinement3DReport:
    """Subdivide per the closed marks (every tet must classify cleanly)."""
    report = Refinement3DReport()
    nv_before = mesh.num_vertices
    for tid in list(mesh.alive_tets()):
        tet = mesh.tet_verts(tid)
        kind, detail = classify_marks3d(tet, marked)
        if kind == "none":
            continue
        if kind == "promote":
            raise ValueError(
                f"tet {tid} has an unsupported mark pattern; run close_marks3d first"
            )
        a, b, c, d = tet
        if kind == "red":
            edges = tet_edges_of(tet)
            mids = {e: mesh.midpoint(e) for e in edges}
            mab = mids[edge_key3(a, b)]
            mac = mids[edge_key3(a, c)]
            mad = mids[edge_key3(a, d)]
            mbc = mids[edge_key3(b, c)]
            mbd = mids[edge_key3(b, d)]
            mcd = mids[edge_key3(c, d)]
            kids = [
                mesh.add_tet(a, mab, mac, mad, parent=tid),
                mesh.add_tet(mab, b, mbc, mbd, parent=tid),
                mesh.add_tet(mac, mbc, c, mcd, parent=tid),
                mesh.add_tet(mad, mbd, mcd, d, parent=tid),
            ]
            for child in _octahedron_children(mesh, tid, mids):
                kids.append(mesh.add_tet(*child, parent=tid))
            report.refined_1to8 += 1
        elif kind == "green2":
            e = detail
            others = [v for v in tet if v not in e]
            m = mesh.midpoint(e)
            kids = [
                mesh.add_tet(e[0], m, others[0], others[1], parent=tid),
                mesh.add_tet(m, e[1], others[0], others[1], parent=tid),
            ]
            mesh.green.add(tid)
            report.refined_1to2 += 1
        elif kind == "green3":
            e1, e2, shared = detail
            x = e1[0] if e1[1] == shared else e1[1]
            y = e2[0] if e2[1] == shared else e2[1]
            apex = next(v for v in tet if v not in (x, shared, y))
            m1 = mesh.midpoint(edge_key3(x, shared))
            m2 = mesh.midpoint(edge_key3(shared, y))
            # the 2-D 1:3 of face (x, shared, y), coned to the apex
            kids = [
                mesh.add_tet(x, m1, m2, apex, parent=tid),
                mesh.add_tet(m1, shared, m2, apex, parent=tid),
                mesh.add_tet(x, m2, y, apex, parent=tid),
            ]
            mesh.green.add(tid)
            report.refined_1to3 += 1
        else:  # green4: one fully marked face coned to the apex
            fa, fb, fc = detail
            apex = next(v for v in tet if v not in detail)
            m_ab = mesh.midpoint(edge_key3(fa, fb))
            m_bc = mesh.midpoint(edge_key3(fb, fc))
            m_ca = mesh.midpoint(edge_key3(fc, fa))
            kids = [
                mesh.add_tet(fa, m_ab, m_ca, apex, parent=tid),
                mesh.add_tet(m_ab, fb, m_bc, apex, parent=tid),
                mesh.add_tet(m_ca, m_bc, fc, apex, parent=tid),
                mesh.add_tet(m_ab, m_bc, m_ca, apex, parent=tid),
            ]
            mesh.green.add(tid)
            report.refined_1to4 += 1
        mesh.kill(tid)
        mesh.children[tid] = tuple(kids)
        report.families[tid] = tuple(kids)
        report.new_tets.extend(kids)
    report.new_vertices = mesh.num_vertices - nv_before
    return report


def dissolve_green_families3d(mesh: TetMesh) -> Dict[int, Tuple[int, ...]]:
    """Undo every green split (greens never persist across phases).

    Returns the dissolved families (``parent -> children``) for the
    dissolution handoff (see the trajectory builders).
    """
    dissolved: Dict[int, Tuple[int, ...]] = {}
    for parent in sorted(mesh.green):
        children = mesh.children.get(parent)
        if children is None:
            mesh.green.discard(parent)
            continue
        if any(not mesh.alive[c] for c in children):
            raise AssertionError(
                f"green child of tet {parent} was refined; red-green violated"
            )
        for child in children:
            mesh.kill(child)
        mesh.revive(parent)
        del mesh.children[parent]
        dissolved[parent] = children
    mesh.green.clear()
    return dissolved


def hanging_edge_marks3d(mesh: TetMesh) -> Set[EdgeKey]:
    """Alive edges whose memoised midpoint is in use: they must refine."""
    used: Set[int] = set()
    for tid in mesh.alive_tets():
        used.update(mesh.tet_verts(tid))
    marks: Set[EdgeKey] = set()
    for e in mesh.edges():
        mid = mesh.edge_midpoint.get(e)
        if mid is not None and mid in used:
            marks.add(e)
    return marks


def refine_cascade3d(mesh: TetMesh, marked: Set[EdgeKey]) -> Refinement3DReport:
    """Refine until no alive tet holds a whole marked edge (multilevel
    sub-edge cascade, with the green-conversion rule)."""
    marked = set(marked)
    total = Refinement3DReport()
    while True:
        total.cascade_rounds += 1
        marked = close_marks3d(mesh, marked)
        converted = False
        for parent in sorted(mesh.green):
            children = mesh.children.get(parent, ())
            if not any(
                e in marked
                for child in children
                if mesh.alive[child]
                for e in tet_edges_of(mesh.tet_verts(child))
            ):
                continue
            for child in children:
                mesh.kill(child)
            mesh.revive(parent)
            del mesh.children[parent]
            mesh.green.discard(parent)
            for e in mesh.tet_edges(parent):
                marked.add(e)
            converted = True
        if converted:
            continue
        report = refine3d(mesh, marked)
        total.absorb(report)
        if report.refined == 0:
            return total


def refine_closed3d(mesh: TetMesh, marked: Set[EdgeKey]) -> Refinement3DReport:
    """:func:`refine_cascade3d`, then the hanging-node closure to a fixpoint.

    A cascade can create tets whose new edges coincide with historically
    refined edges whose midpoints are still in use elsewhere, so the
    closure repeats (depth-bounded by the history).  The report sums every
    cascade, rounds included.
    """
    total = refine_cascade3d(mesh, marked)
    for _ in range(16):
        extra = hanging_edge_marks3d(mesh)
        if not extra:
            return total
        total.absorb(refine_cascade3d(mesh, extra))
    raise AssertionError("3-D hanging-node closure did not converge")
