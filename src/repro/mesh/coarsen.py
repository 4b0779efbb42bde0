"""Coarsening: reviving refinement families behind the moving feature.

A *family* (a killed parent plus its live children) is eligible when

1. every child is alive (none was refined further),
2. every child is in the requested coarsening set, and
3. the parent is not a green (1:2) family — those are dissolved by
   :func:`repro.mesh.refine.dissolve_green_families` instead.

Eligible families are then filtered as a **batch**: a family survives only
if each of its midpoint vertices is used exclusively by children of other
surviving families (so that when the whole batch coarsens together, no
hanging node remains).  The filter iterates to a fixpoint because removing
one family can expose midpoints of its neighbours.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, Set, Tuple

import numpy as np

from repro.mesh.mesh2d import TriMesh

__all__ = ["CoarseningReport", "coarsen"]


@dataclass
class CoarseningReport:
    families_merged: int = 0
    triangles_removed: int = 0
    triangles_revived: int = 0
    #: parent -> children that were merged away (for ownership handoff)
    families: Dict[int, Tuple[int, ...]] = field(default_factory=dict)


def coarsen(mesh: TriMesh, candidates: Set[int]) -> CoarseningReport:
    """Coarsen every family whose children are all in ``candidates``.

    ``candidates`` holds *child* triangle ids the error indicator deems
    over-resolved.  One call removes one refinement level; call again for
    deeper coarsening.  The mesh stays conforming.
    """
    report = CoarseningReport()
    alive, parent = mesh.alive, mesh.parent

    # group alive candidate children by parent; keep only complete families
    cand = np.fromiter(candidates, np.int64, len(candidates))
    cand = cand[(cand >= 0) & (cand < mesh.num_all_triangles)]
    cand = cand[alive[cand]]
    by_parent: Dict[int, Set[int]] = {}
    for tid, p in zip(cand.tolist(), parent[cand].tolist()):
        if p >= 0 and p not in mesh.green:
            by_parent.setdefault(p, set()).add(tid)

    eligible: Dict[int, Tuple[int, ...]] = {}
    for p, kids in by_parent.items():
        family = mesh.children.get(p)
        if family is None or set(family) != kids:
            continue
        eligible[p] = family

    if not eligible:
        return report

    # vertex usage by all alive triangles vs by eligible-family children
    nv = mesh.num_vertices
    tris = mesh.tris
    usage = np.bincount(tris[alive].ravel(), minlength=nv)
    kids = {p: tris[list(family)] for p, family in eligible.items()}
    eligible_usage = np.bincount(
        np.concatenate([k.ravel() for k in kids.values()]), minlength=nv
    )
    midpoints: Dict[int, np.ndarray] = {
        p: np.setdiff1d(k, tris[p]) for p, k in kids.items()
    }

    # fixpoint filter: a family is blocked if any midpoint has usage from
    # outside the current eligible batch
    changed = True
    while changed:
        changed = False
        for p in sorted(eligible):
            m = midpoints[p]
            if (usage[m] > eligible_usage[m]).any():
                np.subtract.at(eligible_usage, kids[p].ravel(), 1)
                del eligible[p]
                changed = True

    if not eligible:
        return report
    merged = sorted(eligible)
    kids_merged = itertools.chain.from_iterable(eligible[p] for p in merged)
    mesh._set_alive(np.fromiter(kids_merged, np.int64), False)
    mesh._set_alive(np.asarray(merged, dtype=np.int64), True)
    for p in merged:
        family = eligible[p]
        del mesh.children[p]
        report.families[p] = family
        report.families_merged += 1
        report.triangles_removed += len(family)
        report.triangles_revived += 1
    return report
