"""One full 3-D adaptation phase (the tetrahedral analogue of
:mod:`repro.mesh.adapt`): dissolve greens → coarsen (iterated) → mark →
cascade refine, conforming afterwards."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Set

from repro.mesh.coarsen3d import Coarsening3DReport, coarsen3d
from repro.mesh.mesh3d import EdgeKey, TetMesh
from repro.mesh.refine3d import (
    Refinement3DReport,
    dissolve_green_families3d,
    hanging_edge_marks3d,
    refine_closed3d,
)

__all__ = ["Adaptation3DReport", "adapt_phase3d"]


@dataclass
class Adaptation3DReport:
    greens_dissolved: int
    families_merged: int
    refinement: Refinement3DReport
    tets_before: int
    tets_after: int

    @property
    def growth(self) -> float:
        return self.tets_after / max(self.tets_before, 1)


def adapt_phase3d(
    mesh: TetMesh,
    mark_fn: Callable[[TetMesh], Set[EdgeKey]],
    coarsen_fn: Optional[Callable[[TetMesh], Set[int]]] = None,
    validate: bool = False,
    coarsen_passes: int = 3,
) -> Adaptation3DReport:
    """Run one dissolve → coarsen → mark → refine cycle on ``mesh``.

    Coarsening iterates up to ``coarsen_passes`` times (one level per
    pass), re-evaluating ``coarsen_fn`` as families merge.
    """
    before = mesh.num_tets
    greens = len(dissolve_green_families3d(mesh))
    merged = 0
    if coarsen_fn is not None:
        for _ in range(coarsen_passes):
            # non-strict: interface hanging nodes are re-closed by the
            # refinement cascade below, within this same phase
            report = coarsen3d(mesh, set(coarsen_fn(mesh)), strict=False)
            merged += report.families_merged
            if report.families_merged == 0:
                break
    marks = set(mark_fn(mesh))
    marks |= hanging_edge_marks3d(mesh)
    refinement = refine_closed3d(mesh, marks)
    if validate:
        mesh.validate()
    return Adaptation3DReport(
        greens_dissolved=greens,
        families_merged=merged,
        refinement=refinement,
        tets_before=before,
        tets_after=mesh.num_tets,
    )
