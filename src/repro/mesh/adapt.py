"""One full adaptation phase under the red-green discipline.

The canonical sequence the applications drive (and the order matters):

1. **dissolve** all green (1:2) families — greens never persist across
   phases, so repeated bisection can never degrade quality;
2. **coarsen** families whose children all fall below the coarsening
   threshold (batch-filtered for conformity);
3. **mark** edges from the error indicator, *plus* every edge left with a
   hanging midpoint by steps 1–2;
4. **close** the marks (0/1/3 per triangle) and **refine**.

After step 4 the mesh is conforming again (``validate()`` passes).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Set

from repro.mesh.coarsen import CoarseningReport, coarsen
from repro.mesh.mesh2d import EdgeKey, TriMesh
from repro.mesh.refine import (
    RefinementReport,
    dissolve_green_families,
    hanging_edge_marks,
    refine_cascade,
)

__all__ = ["AdaptationReport", "adapt_phase"]


@dataclass
class AdaptationReport:
    """Everything one adaptation phase did."""

    greens_dissolved: int
    coarsening: CoarseningReport
    refinement: RefinementReport
    marked_edges: int
    triangles_before: int
    triangles_after: int

    @property
    def growth(self) -> float:
        return self.triangles_after / max(self.triangles_before, 1)


def adapt_phase(
    mesh: TriMesh,
    mark_fn: Callable[[TriMesh], Set[EdgeKey]],
    coarsen_fn: Optional[Callable[[TriMesh], Set[int]]] = None,
    validate: bool = False,
    mode: str = "red-green",
) -> AdaptationReport:
    """Run one dissolve → coarsen → mark → refine cycle on ``mesh``.

    ``mark_fn(mesh)`` returns the indicator-marked edge set evaluated on
    the *dissolved+coarsened* mesh; ``coarsen_fn(mesh)`` (optional) returns
    candidate triangle ids evaluated on the dissolved mesh.
    """
    before = mesh.num_triangles
    greens = len(dissolve_green_families(mesh))
    coarsening = coarsen(mesh, coarsen_fn(mesh)) if coarsen_fn else CoarseningReport()
    marks = set(mark_fn(mesh))
    marks |= hanging_edge_marks(mesh)
    refinement = refine_cascade(mesh, marks, mode=mode)
    for _ in range(16):
        extra = hanging_edge_marks(mesh)
        if not extra:
            break
        rep2 = refine_cascade(mesh, extra, mode=mode)
        refinement.refined_1to4 += rep2.refined_1to4
        refinement.refined_1to3 += rep2.refined_1to3
        refinement.refined_1to2 += rep2.refined_1to2
        refinement.new_triangles.extend(rep2.new_triangles)
        refinement.new_vertices += rep2.new_vertices
        refinement.families.update(rep2.families)
    else:
        raise AssertionError("hanging-node closure did not converge")
    if validate:
        mesh.validate()
    return AdaptationReport(
        greens_dissolved=greens,
        coarsening=coarsening,
        refinement=refinement,
        marked_edges=len(marks),
        triangles_before=before,
        triangles_after=mesh.num_triangles,
    )
