"""Mesh quality metrics: areas, angles, aspect ratios, summary statistics."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.mesh.mesh2d import TriMesh

__all__ = [
    "triangle_areas",
    "triangle_angles",
    "triangle_centroids",
    "aspect_ratios",
    "MeshQuality",
    "mesh_quality",
]


def triangle_centroids(mesh: TriMesh) -> np.ndarray:
    """``(n_alive, 2)`` centroids of the alive triangles (ascending id)."""
    p = mesh.verts_array()[mesh.edges().verts]
    return (p[:, 0] + p[:, 1] + p[:, 2]) / 3.0


def triangle_areas(mesh: TriMesh) -> np.ndarray:
    """Unsigned areas of the alive triangles (ascending id)."""
    verts = mesh.verts_array()
    tris = mesh.edges().verts
    if len(tris) == 0:
        return np.zeros(0)
    p0, p1, p2 = verts[tris[:, 0]], verts[tris[:, 1]], verts[tris[:, 2]]
    cross = (p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1]) - (p2[:, 0] - p0[:, 0]) * (
        p1[:, 1] - p0[:, 1]
    )
    return 0.5 * np.abs(cross)


def triangle_angles(mesh: TriMesh) -> np.ndarray:
    """(n_alive, 3) interior angles in degrees."""
    verts = mesh.verts_array()
    tris = mesh.edges().verts
    if len(tris) == 0:
        return np.zeros((0, 3))
    p = verts[tris]  # (n, 3, 2)
    angles = np.zeros((len(tris), 3))
    for k in range(3):
        u = p[:, (k + 1) % 3] - p[:, k]
        v = p[:, (k + 2) % 3] - p[:, k]
        cosang = np.einsum("ij,ij->i", u, v) / (
            np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1)
        )
        angles[:, k] = np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0)))
    return angles


def aspect_ratios(mesh: TriMesh) -> np.ndarray:
    """Longest edge / (2 * inradius); 1.1547 for an equilateral triangle."""
    verts = mesh.verts_array()
    tris = mesh.edges().verts
    if len(tris) == 0:
        return np.zeros(0)
    p = verts[tris]
    e = np.stack(
        [
            np.linalg.norm(p[:, 1] - p[:, 0], axis=1),
            np.linalg.norm(p[:, 2] - p[:, 1], axis=1),
            np.linalg.norm(p[:, 0] - p[:, 2], axis=1),
        ],
        axis=1,
    )
    s = e.sum(axis=1) / 2.0
    area = np.sqrt(np.maximum(s * (s - e[:, 0]) * (s - e[:, 1]) * (s - e[:, 2]), 0.0))
    inradius = np.where(s > 0, area / np.maximum(s, 1e-300), 0.0)
    return e.max(axis=1) / np.maximum(2.0 * inradius, 1e-300)


@dataclass(frozen=True)
class MeshQuality:
    n_triangles: int
    n_vertices: int
    min_angle_deg: float
    max_angle_deg: float
    min_area: float
    total_area: float
    worst_aspect: float
    mean_aspect: float


def mesh_quality(mesh: TriMesh) -> MeshQuality:
    """Summary quality statistics of the alive mesh."""
    areas = triangle_areas(mesh)
    angles = triangle_angles(mesh)
    aspects = aspect_ratios(mesh)
    if len(areas) == 0:
        return MeshQuality(0, mesh.num_vertices, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    return MeshQuality(
        n_triangles=len(areas),
        n_vertices=mesh.num_vertices,
        min_angle_deg=float(angles.min()),
        max_angle_deg=float(angles.max()),
        min_area=float(areas.min()),
        total_area=float(areas.sum()),
        worst_aspect=float(aspects.max()),
        mean_aspect=float(aspects.mean()),
    )
