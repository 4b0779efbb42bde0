"""Saving and loading the *alive* mesh as compact NumPy archives."""

from __future__ import annotations

import numpy as np

from repro.mesh.mesh2d import TriMesh

__all__ = ["save_mesh", "load_mesh", "save_tet_mesh", "load_tet_mesh"]


def save_mesh(mesh: TriMesh, path: str) -> None:
    """Write the alive portion of ``mesh`` to ``path`` (.npz).

    Only the current alive surface is kept: the refinement history does not
    survive a round trip (reloaded meshes are fresh level-0 meshes).
    Unused vertices are compacted away.
    """
    used, tris = np.unique(mesh.edges().verts, return_inverse=True)
    verts = mesh.verts_array()[used]
    np.savez_compressed(path, verts=verts, tris=tris.reshape(-1, 3).astype(np.int64))


def load_mesh(path: str) -> TriMesh:
    """Read a mesh previously written by :func:`save_mesh`."""
    with np.load(path) as data:
        return TriMesh(data["verts"], data["tris"])


def save_tet_mesh(mesh, path: str) -> None:
    """Write the alive portion of a :class:`~repro.mesh.mesh3d.TetMesh`.

    Same contract as :func:`save_mesh`: only the current alive surface
    survives the round trip (fresh level-0 mesh on load), unused vertices
    are compacted away.
    """
    alive = mesh.alive_tets()
    used = sorted({v for t in alive for v in mesh.tet_verts(t)})
    remap = {v: i for i, v in enumerate(used)}
    verts = mesh.verts_array()[used]
    tets = np.asarray(
        [[remap[v] for v in mesh.tet_verts(t)] for t in alive], dtype=np.int64
    )
    np.savez_compressed(path, verts=verts, tets=tets)


def load_tet_mesh(path: str):
    """Read a mesh previously written by :func:`save_tet_mesh`."""
    from repro.mesh.mesh3d import TetMesh

    with np.load(path) as data:
        verts = data["verts"]
        tets = [tuple(int(v) for v in row) for row in data["tets"]]
    return TetMesh(verts, tets)
