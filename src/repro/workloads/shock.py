"""A planar shock front sweeping the unit square.

The front position at phase ``k`` is ``x0 + k * speed``; the solution field
is a smoothed step (tanh) across the front, so the gradient error indicator
and the geometric band indicator agree on where to refine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Set

import numpy as np

from repro.mesh.error import distance_band_marks
from repro.mesh.mesh2d import EdgeKey, TriMesh
from repro.mesh.quality import triangle_centroids

__all__ = ["MovingShock"]


@dataclass(frozen=True)
class MovingShock:
    """Workload parameters for the adaptive-mesh application."""

    x0: float = 0.15
    speed: float = 0.12
    band: float = 0.05
    coarsen_distance: float = 0.2
    max_level: int = 2
    thickness: float = 0.04  # tanh width of the field profile

    def front(self, phase: int) -> float:
        return self.x0 + self.speed * phase

    def distance(self, phase: int, x: float, y: float) -> float:
        return x - self.front(phase)

    def field(self, phase: int, coords: np.ndarray) -> np.ndarray:
        """The 'solution' the solver relaxes toward: a step at the front."""
        coords = np.atleast_2d(coords)
        return np.tanh((coords[:, 0] - self.front(phase)) / self.thickness)

    def marks(self, mesh: TriMesh, phase: int) -> Set[EdgeKey]:
        """Edges to refine at this phase."""
        front = self.front(phase)
        return distance_band_marks(
            mesh, lambda x, y, f=front: x - f, band=self.band, max_level=self.max_level
        )

    def coarsen_candidates(self, mesh: TriMesh, phase: int) -> Set[int]:
        """Triangles far from the front (over-resolved)."""
        front = self.front(phase)
        far = np.abs(triangle_centroids(mesh)[:, 0] - front) > self.coarsen_distance
        return set(mesh.edges().tids[far].tolist())
