"""Replaying a scenario schedule as an adaptive-mesh workload.

:class:`SyntheticWorkload` presents the same duck-typed surface as
:class:`repro.workloads.shock.MovingShock` — ``field``, ``marks``,
``coarsen_candidates`` — so :func:`repro.apps.adapt.build_script`
consumes a generated scenario exactly like the hand-written shock, and
every model program (MPI, SHMEM, CC-SAS, hybrid) runs it unchanged.
It is a frozen dataclass over the spec's schedule tuple, hence hashable:
an :class:`~repro.apps.adapt.AdaptConfig` carrying it stays a valid
experiment-cache key component.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Set, Tuple

import numpy as np

from repro.apps.adapt.common import AdaptConfig
from repro.mesh.error import distance_band_marks
from repro.mesh.mesh2d import EdgeKey, TriMesh
from repro.mesh.quality import triangle_centroids
from repro.workloads.synth.spec import Feature, PhaseSpec, ScenarioSpec

__all__ = ["SyntheticWorkload", "spec_workload", "spec_config"]


def _feature_distance(f: Feature, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Signed distance of points (x, y) to one feature, elementwise."""
    if f.kind == "front":
        return (x - f.cx) * f.nx + (y - f.cy) * f.ny
    return np.hypot(x - f.cx, y - f.cy) - f.radius


@dataclass(frozen=True)
class SyntheticWorkload:
    """Schedule replay with the MovingShock interface (no RNG at run time)."""

    schedule: Tuple[PhaseSpec, ...]

    def _phase(self, phase: int) -> PhaseSpec:
        # clamp: build_script only asks for phases < len(schedule), but a
        # ragged caller should see the final state, not an IndexError
        return self.schedule[min(max(phase, 0), len(self.schedule) - 1)]

    def field(self, phase: int, coords: np.ndarray) -> np.ndarray:
        """Forcing the solver relaxes toward: superposed feature profiles."""
        ph = self._phase(phase)
        coords = np.atleast_2d(coords)
        x, y = coords[:, 0], coords[:, 1]
        out = np.zeros(len(coords))
        for f in ph.features:
            if f.kind == "front":
                d = (x - f.cx) * f.nx + (y - f.cy) * f.ny
            else:
                d = np.hypot(x - f.cx, y - f.cy) - f.radius
            out += f.amplitude * np.tanh(d / ph.thickness)
        return out

    def marks(self, mesh: TriMesh, phase: int) -> Set[EdgeKey]:
        """Edges within the phase's band of *any* feature."""
        ph = self._phase(phase)
        marked: Set[EdgeKey] = set()
        for f in ph.features:
            marked |= distance_band_marks(
                mesh,
                lambda x, y, f=f: _feature_distance(f, x, y),
                band=ph.band,
                max_level=ph.max_level,
            )
        return marked

    def coarsen_candidates(self, mesh: TriMesh, phase: int) -> Set[int]:
        """Triangles whose centroid is far from every feature."""
        ph = self._phase(phase)
        tids, (cx, cy) = mesh.edges().tids, triangle_centroids(mesh).T
        far = np.ones(len(tids), dtype=bool)
        for f in ph.features:
            far &= np.abs(_feature_distance(f, cx, cy)) > ph.coarsen_distance
        return set(tids[far].tolist())


def spec_workload(spec: ScenarioSpec) -> SyntheticWorkload:
    """The runnable workload of a spec."""
    return SyntheticWorkload(schedule=spec.schedule)


def spec_config(spec: ScenarioSpec) -> AdaptConfig:
    """The :class:`AdaptConfig` that runs ``spec`` through ``apps/adapt``."""
    return AdaptConfig(
        mesh_n=spec.mesh_n,
        phases=spec.phases,
        solver_iters=spec.solver_iters,
        shock=spec_workload(spec),
        seed=spec.seed,
    )
