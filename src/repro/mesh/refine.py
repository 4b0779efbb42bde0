"""Edge-marking refinement (Biswas & Strawn, "Tetrahedral and hexahedral
mesh adaptation for CFD problems" — here the 2-D triangular analogue).

The flow is: an error indicator marks edges → :func:`close_marks` promotes
any triangle with 2+ marked edges to fully marked (so only the 1:4 and 1:2
patterns occur and the mesh stays conforming) → :func:`refine` subdivides:

* 3 marked edges → **1:4 isotropic**: four similar children (quality
  preserved exactly),
* 1 marked edge  → **1:2 bisection**: two children across the marked edge
  ("green" closure triangles).

Midpoints are memoised per edge by the mesh, so neighbouring triangles
agree on shared midpoints and no hanging nodes appear.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

import numpy as np

from repro.mesh.mesh2d import EdgeKey, TriMesh, edge_set
from repro.sim.profile import profiled

__all__ = [
    "RefinementReport",
    "close_marks",
    "refine",
    "dissolve_green_families",
    "hanging_edge_marks",
]


@dataclass
class RefinementReport:
    """What one refinement pass did (consumed by PLUM and the harness)."""

    refined_1to4: int = 0
    refined_1to3: int = 0
    refined_1to2: int = 0
    new_triangles: List[int] = field(default_factory=list)
    new_vertices: int = 0
    #: closure/refine iterations a cascade took (1 = single pass)
    cascade_rounds: int = 0
    #: parent -> children ids
    families: Dict[int, Tuple[int, ...]] = field(default_factory=dict)

    @property
    def refined(self) -> int:
        return self.refined_1to4 + self.refined_1to3 + self.refined_1to2


def close_marks(mesh: TriMesh, marked: Set[EdgeKey], mode: str = "red-green") -> Set[EdgeKey]:
    """Closure of an edge-mark set.

    ``mode="red-green"`` (default) promotes any triangle with 2 marked
    edges to fully marked, so only the 1:4 and 1:2 patterns occur — the
    conservative scheme with the best element quality.  ``mode="mixed"``
    leaves 2-marked triangles alone (they subdivide 1:3), producing fewer
    elements per phase at some quality cost — the Biswas-Strawn pattern
    set.  Terminates because marks only grow and are bounded by the edge
    count.  Promotion is monotone, so the closure does not depend on the
    order triangles are visited in: each pass promotes every triangle
    with 2+ marked edges at once.
    """
    if mode not in ("red-green", "mixed"):
        raise ValueError(f"unknown closure mode {mode!r}")
    marked = set(marked)
    if mode == "mixed":
        return marked
    table = mesh.edges()
    given = table.mask(marked)
    closed = given.copy()
    while True:
        promote = table.slots[closed[table.slots].sum(axis=1) >= 2]
        if closed[promote].all():
            break
        closed[promote] = True
    marked |= edge_set(table.key[closed & ~given])
    return marked


# child triangles of each pattern, as indices into the row
# (ra, rb, rc, m0, m1, m2) of a triangle's rotated corners and the
# midpoints it requested, in request order; -1 pads unused children
_CHILDREN = np.full((4, 4, 3), -1, dtype=np.int64)
_CHILDREN[1, :2] = [(0, 3, 2), (3, 1, 2)]                        # 1:2
_CHILDREN[2, :3] = [(0, 3, 4), (3, 1, 4), (0, 4, 2)]             # 1:3
_CHILDREN[3] = [(0, 3, 5), (3, 1, 4), (5, 4, 2), (3, 4, 5)]      # 1:4
_NUM_CHILDREN = np.array([0, 2, 3, 4])


@profiled("mesh")
def refine(mesh: TriMesh, marked: Set[EdgeKey], mode: str = "red-green") -> RefinementReport:
    """Subdivide every alive triangle touched by closed marks ``marked``.

    Under ``mode="red-green"`` the marks must be closed (each triangle has
    0, 1 or 3 marked edges — :func:`close_marks` guarantees that) and a
    2-mark triangle raises.  Under ``mode="mixed"`` a 2-mark triangle
    subdivides 1:3 (an anisotropic "green" pattern, dissolved next phase
    like 1:2).

    Triangles refine in ascending id order.  Each rotates its corners so
    the pattern starts at a fixed slot (1:2 at the marked edge, 1:3 just
    after the unmarked one) and requests its midpoints from there on; a
    new midpoint vertex gets the next id at its first request, and the
    children are appended triangle by triangle.
    """
    report = RefinementReport()
    table = mesh.edges()
    flags = table.mask(marked)[table.slots]
    count = flags.sum(axis=1)
    if mode != "mixed" and (count == 2).any():
        tid = table.tids[np.argmax(count == 2)]
        raise ValueError(f"triangle {tid} has exactly 2 marked edges; run close_marks first")
    sel = np.flatnonzero(count)
    if not len(sel):
        return report
    nv_before = mesh.num_vertices
    tids, count, flags = table.tids[sel], count[sel], flags[sel]
    # rotation: 1:2 starts at the marked edge, 1:3 after the unmarked one
    rot = np.where(
        count == 1, np.argmax(flags, axis=1),
        np.where(count == 2, (np.argmax(~flags, axis=1) + 1) % 3, 0),
    )
    turn = (rot[:, None] + np.arange(3)) % 3
    rows = np.arange(len(sel))[:, None]
    corners = table.verts[sel][rows, turn]
    keys = table.key[table.slots[sel]][rows, turn]
    # a triangle with c marked edges requests the midpoints of its first c
    # rotated edges (1:3 rotates its two marked edges to the front)
    asks = np.arange(3) < count[:, None]
    mids = np.zeros((len(sel), 3), dtype=np.int64)
    mids[asks] = mesh._midpoints_for(keys[asks])
    pattern = _CHILDREN[count]
    local = np.concatenate([corners, mids], axis=1)
    kids = np.take_along_axis(local, np.maximum(pattern, 0).reshape(len(sel), -1), axis=1)
    kids = kids.reshape(len(sel), 4, 3)[pattern[:, :, 0] >= 0]
    nkids = _NUM_CHILDREN[count]
    mesh._set_alive(tids, False)
    first = int(mesh._append_tris(kids, np.repeat(tids, nkids))[0])
    ends = first + np.cumsum(nkids)
    for tid, c, n, end in zip(tids.tolist(), count.tolist(), nkids.tolist(), ends.tolist()):
        children = tuple(range(end - n, end))
        mesh.children[tid] = children
        report.families[tid] = children
        if c != 3:
            mesh.green.add(tid)  # 1:2 and 1:3 are dissolved next phase
    report.refined_1to4 = int((count == 3).sum())
    report.refined_1to3 = int((count == 2).sum())
    report.refined_1to2 = int((count == 1).sum())
    report.new_triangles = list(range(first, int(ends[-1])))
    report.new_vertices = mesh.num_vertices - nv_before
    return report


@profiled("mesh")
def dissolve_green_families(mesh: TriMesh) -> Dict[int, Tuple[int, ...]]:
    """Undo every 1:2 ("green") split, reviving the parents.

    Green triangles exist only to close one adaptation phase; the red-green
    discipline dissolves them before the next phase so they are never
    themselves refined (repeated bisection would degrade element quality
    without bound).  The mesh is *temporarily non-conforming* afterwards —
    the hanging nodes this exposes are returned to the marking step by
    :func:`hanging_edge_marks` and re-closed by the subsequent refinement.

    Returns the dissolved families (``parent -> children``) so callers can
    hand vertex data from the children's owners to the revived parent's
    owner (the dissolution handoff).
    """
    dissolved = {p: mesh.children[p] for p in sorted(mesh.green) if p in mesh.children}
    if dissolved:
        kids = np.fromiter(itertools.chain.from_iterable(dissolved.values()), np.int64)
        dead = [p for p, fam in dissolved.items() if not mesh.alive[list(fam)].all()]
        if dead:
            raise AssertionError(
                f"green child of parent {dead[0]} was refined; red-green "
                "discipline violated (dissolve greens before refining)"
            )
        mesh._set_alive(kids, False)
        mesh._set_alive(np.fromiter(dissolved, np.int64, len(dissolved)), True)
        for parent in dissolved:
            del mesh.children[parent]
    mesh.green.clear()
    return dissolved


def hanging_edge_marks(mesh: TriMesh) -> Set[EdgeKey]:
    """Alive edges whose memoised midpoint is in use: they *must* refine.

    After :func:`dissolve_green_families` (or any partial coarsening) an
    alive triangle may border a refined neighbour across an edge whose
    midpoint vertex is still in use — a hanging node.  Marking those edges
    (and closing) restores conformity on the next :func:`refine`.
    """
    return edge_set(mesh.hanging_edges())


@profiled("mesh")
def refine_cascade(mesh: TriMesh, marked: Set[EdgeKey], mode: str = "red-green") -> RefinementReport:
    """Refine until no alive triangle holds a whole marked edge.

    A single closure+refine pass is not enough on a multi-level mesh: when a
    coarse triangle refines 1:4, its children inherit *half-edges* that may
    themselves be marked (a finer neighbour asked for them), which triangle-
    granularity closure cannot see.  This driver loops — and if a marked
    edge lands on a green child created earlier in the cascade, the green
    family is dissolved and its parent fully marked (the red-green "a green
    may never be refined" rule).

    Terminates: each iteration either refines at least one triangle whose
    marked edges come from the finite ``marked`` set (each such triangle is
    killed and its children hold strictly shorter sub-edges), or converts a
    green family to red (greens are finite and conversion only happens for
    marked families).
    """
    marked = set(marked)
    total = RefinementReport()
    while True:
        total.cascade_rounds += 1
        marked = close_marks(mesh, marked, mode=mode)
        # red-green rule: a marked green child forces its parent to go 1:4
        converted = False
        for parent in sorted(mesh.green):
            children = mesh.children.get(parent, ())
            if not any(
                e in marked for c in children if mesh.alive[c] for e in mesh.tri_edges(c)
            ):
                continue
            mesh._set_alive(np.asarray(children, dtype=np.int64), False)
            mesh.revive(parent)
            del mesh.children[parent]
            mesh.green.discard(parent)
            marked.update(mesh.tri_edges(parent))
            converted = True
        if converted:
            continue
        report = refine(mesh, marked, mode=mode)
        total.refined_1to4 += report.refined_1to4
        total.refined_1to3 += report.refined_1to3
        total.refined_1to2 += report.refined_1to2
        total.new_triangles.extend(report.new_triangles)
        total.new_vertices += report.new_vertices
        total.families.update(report.families)
        if report.refined == 0:
            return total
