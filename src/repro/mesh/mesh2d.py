"""The triangular mesh data structure (array-backed, hierarchy-aware).

Triangles are never deleted: refinement *kills* a parent and appends its
children, recording the family so coarsening can revive the parent later.
Midpoint vertices are memoised per undirected edge, which is what keeps
refinement conforming — two triangles sharing a refined edge automatically
share the midpoint vertex.

Storage is a set of growable arrays: an ``(n, 3)`` int32 triangle array
with ``alive``, ``parent`` and ``level`` beside it, and an ``(nv, 2)``
coordinate array.  An undirected edge ``(a, b)``, ``a < b``, is the int64
key ``a << 32 | b`` wherever edges are handled in bulk (the tuple
:data:`EdgeKey` stays the public currency of mark sets).  The alive
mesh's edges live in an :class:`EdgeTable`, built by one sorted pass and
cached until the next mutation; :meth:`TriMesh.edges` is its one accessor.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Collection, Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

__all__ = [
    "TriMesh",
    "EdgeTable",
    "edge_key",
    "unpack_edge_keys",
    "edge_keys_of",
    "edge_set",
]

EdgeKey = Tuple[int, int]

_LOW = (1 << 32) - 1


def edge_key(a: int, b: int) -> EdgeKey:
    """Canonical undirected edge key."""
    return (a, b) if a < b else (b, a)


def edge_keys_of(edges: Collection[EdgeKey]) -> np.ndarray:
    """int64 keys of a collection of canonical ``(a, b)`` edges."""
    return np.fromiter(((a << 32) | b for a, b in edges), np.int64, len(edges))


def unpack_edge_keys(keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(lo, hi)`` vertex arrays of int64 edge keys."""
    keys = np.asarray(keys, dtype=np.int64)
    return keys >> 32, keys & _LOW


def edge_set(keys: np.ndarray) -> Set[EdgeKey]:
    """The ``(a, b)`` tuples of int64 edge keys."""
    lo, hi = unpack_edge_keys(keys)
    return set(zip(lo.tolist(), hi.tolist()))


class EdgeTable(Mapping):
    """The undirected edges of the alive mesh, built in one sorted pass.

    ``tids`` are the alive triangle ids (ascending) and ``verts`` their
    vertex rows; an alive triangle's *position* indexes both.  Edge ``i``
    has key ``key[i]`` (ascending), borders ``count[i]`` alive triangles,
    the first two at positions ``pos[i]`` (``-1`` pads a boundary edge;
    the lower triangle id comes first).  ``slots[j]`` holds the edge ids
    of position ``j``'s edges ``(v0, v1)``, ``(v1, v2)``, ``(v2, v0)``.

    It is also a read-only mapping ``(a, b) -> [alive triangle ids]``
    (ascending), iterated in order of first use by the alive triangles:
    ascending triangle id, edge slots in order.
    """

    def __init__(self, tids: np.ndarray, verts: np.ndarray):
        self.tids = tids
        self.verts = verts
        m = len(tids)
        lo = np.minimum(verts, verts[:, [1, 2, 0]])
        hi = np.maximum(verts, verts[:, [1, 2, 0]])
        flat = ((lo << 32) | hi).ravel()
        # a stable sort keeps each edge's triangles in ascending-id order
        order = np.argsort(flat, kind="stable")
        ordered = flat[order]
        new = np.ones(len(flat), dtype=bool)
        new[1:] = ordered[1:] != ordered[:-1]
        starts = np.flatnonzero(new)
        self.key = ordered[starts]
        self.count = np.diff(np.append(starts, len(flat)))
        self.slots = np.empty(len(flat), dtype=np.int64)
        self.slots[order] = np.cumsum(new) - 1
        self.slots = self.slots.reshape(m, 3)
        self._order = order
        self._starts = starts
        pos = np.full((len(starts), 2), -1, dtype=np.int64)
        pos[:, 0] = order[starts] // 3
        two = self.count > 1
        pos[two, 1] = order[starts[two] + 1] // 3
        self.pos = pos
        self.tris = np.where(pos >= 0, tids[np.maximum(pos, 0)], -1)

    def __getitem__(self, e: EdgeKey) -> List[int]:
        i = int(self.lookup(edge_keys_of([e]))[0])
        if i < 0:
            raise KeyError(e)
        return self.edge_tids(i)

    def __iter__(self) -> Iterator[EdgeKey]:
        first_use = np.argsort(self._order[self._starts], kind="stable")
        lo, hi = unpack_edge_keys(self.key[first_use])
        return zip(lo.tolist(), hi.tolist())

    def __len__(self) -> int:
        return len(self.key)

    def lookup(self, keys: np.ndarray) -> np.ndarray:
        """Edge id of each key, ``-1`` where the key is no alive edge."""
        return _search(self.key, keys)

    def mask(self, edges: Collection[EdgeKey]) -> np.ndarray:
        """Boolean per edge id: is the edge in ``edges``?"""
        out = np.zeros(len(self.key), dtype=bool)
        ids = self.lookup(edge_keys_of(edges))
        out[ids[ids >= 0]] = True
        return out

    def edge_tids(self, i: int) -> List[int]:
        """Every alive triangle on edge ``i``, ascending."""
        s = self._starts[i]
        return self.tids[self._order[s : s + self.count[i]] // 3].tolist()

    def used_vertices(self, nv: int) -> np.ndarray:
        """Boolean per vertex id: is it a corner of an alive triangle?"""
        used = np.zeros(nv, dtype=bool)
        used[self.verts.ravel()] = True
        return used


class TriMesh:
    """A 2-D triangular mesh supporting refinement and coarsening."""

    def __init__(self, verts: np.ndarray, tris: Sequence[Tuple[int, int, int]]):
        verts = np.asarray(verts, dtype=np.float64)
        if verts.ndim != 2 or verts.shape[1] != 2:
            raise ValueError(f"verts must be (nv, 2), got {verts.shape}")
        rows = np.asarray(tris, dtype=np.int64).reshape(-1, 3)
        _check_initial(rows, len(verts))
        self._xy = verts.copy()
        self._nv = len(verts)
        n = len(rows)
        self._tri = rows.astype(np.int32)
        self._alive = np.ones(n, dtype=bool)
        self._parent = np.full(n, -1, dtype=np.int32)
        self._level = np.zeros(n, dtype=np.int32)
        self._nt = n
        self._nalive = n
        self.children: Dict[int, Tuple[int, ...]] = {}
        #: parents refined with the 1:2 "green" pattern (dissolved each phase)
        self.green: Set[int] = set()
        #: edge key (``a << 32 | b``) -> midpoint vertex id
        self._mid: Dict[int, int] = {}
        self._mid_sorted: Optional[Tuple[np.ndarray, np.ndarray]] = None
        self._table: Optional[EdgeTable] = None

    # -- construction -----------------------------------------------------------

    def _touch(self) -> None:
        """Drop the cached edge table (every mutation calls this)."""
        self._table = None

    def add_vertex(self, x: float, y: float) -> int:
        return int(self._append_verts(np.asarray([[x, y]], dtype=np.float64))[0])

    def _append_verts(self, xy: np.ndarray) -> np.ndarray:
        """Append coordinate rows; returns their new vertex ids."""
        n = len(xy)
        if self._nv + n > len(self._xy):
            grown = np.empty((max(2 * len(self._xy), self._nv + n, 16), 2))
            grown[: self._nv] = self._xy[: self._nv]
            self._xy = grown
        self._xy[self._nv : self._nv + n] = xy
        self._nv += n
        self._touch()
        return np.arange(self._nv - n, self._nv)

    def add_triangle(self, v0: int, v1: int, v2: int, parent: int = -1) -> int:
        rows = np.asarray([[v0, v1, v2]], dtype=np.int64)
        return int(self._append_tris(rows, np.asarray([parent], dtype=np.int64))[0])

    def _append_tris(self, rows: np.ndarray, parents: np.ndarray) -> np.ndarray:
        """Append alive triangles with their parents; returns their ids."""
        n = len(rows)
        nt = self._nt
        if nt + n > len(self._tri):
            cap = max(2 * len(self._tri), nt + n, 16)
            for name in ("_tri", "_alive", "_parent", "_level"):
                old = getattr(self, name)
                grown = np.empty((cap,) + old.shape[1:], dtype=old.dtype)
                grown[:nt] = old[:nt]
                setattr(self, name, grown)
        self._tri[nt : nt + n] = rows
        self._alive[nt : nt + n] = True
        self._parent[nt : nt + n] = parents
        self._level[nt : nt + n] = np.where(
            parents < 0, 0, self._level[np.maximum(parents, 0)] + 1
        )
        self._nt += n
        self._nalive += n
        self._touch()
        return np.arange(nt, nt + n)

    # -- basic queries ------------------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return self._nv

    @property
    def num_triangles(self) -> int:
        """Count of *alive* triangles."""
        return self._nalive

    @property
    def num_all_triangles(self) -> int:
        return self._nt

    @property
    def tris(self) -> np.ndarray:
        """``(n, 3)`` vertex ids of every triangle ever made (read-only)."""
        return _frozen(self._tri[: self._nt])

    @property
    def alive(self) -> np.ndarray:
        return _frozen(self._alive[: self._nt])

    @property
    def parent(self) -> np.ndarray:
        return _frozen(self._parent[: self._nt])

    @property
    def level(self) -> np.ndarray:
        return _frozen(self._level[: self._nt])

    def vert(self, vid: int) -> Tuple[float, float]:
        x, y = self._xy[vid].tolist()
        return (x, y)

    def verts_array(self) -> np.ndarray:
        """``(nv, 2)`` vertex coordinates (read-only)."""
        return _frozen(self._xy[: self._nv])

    def alive_tris(self) -> List[int]:
        return np.flatnonzero(self._alive[: self._nt]).tolist()

    def tri_verts(self, tid: int) -> Tuple[int, int, int]:
        a, b, c = self._tri[tid].tolist()
        return (a, b, c)

    def tri_edges(self, tid: int) -> Tuple[EdgeKey, EdgeKey, EdgeKey]:
        a, b, c = self._tri[tid].tolist()
        return (edge_key(a, b), edge_key(b, c), edge_key(c, a))

    def edges(self) -> EdgeTable:
        """The alive mesh's :class:`EdgeTable`, cached until a mutation.

        As a mapping it is the undirected edge -> alive triangles using it
        (1 boundary, 2 interior), in order of first use.
        """
        if self._table is None:
            tids = np.flatnonzero(self._alive[: self._nt])
            self._table = EdgeTable(tids, self._tri[tids].astype(np.int64))
        return self._table

    def boundary_edges(self) -> Set[EdgeKey]:
        table = self.edges()
        return edge_set(table.key[table.count == 1])

    # -- refinement support ----------------------------------------------------------

    def midpoint(self, e: EdgeKey) -> int:
        """Get-or-create the midpoint vertex of edge ``e`` (memoised)."""
        return int(self._midpoints_for(edge_keys_of([e]))[0])

    def has_midpoint(self, e: EdgeKey) -> bool:
        return ((e[0] << 32) | e[1]) in self._mid

    def midpoint_table(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every memoised midpoint: ``(edge keys ascending, vertex ids)``."""
        if self._mid_sorted is None:
            keys = np.fromiter(self._mid.keys(), np.int64, len(self._mid))
            vids = np.fromiter(self._mid.values(), np.int64, len(self._mid))
            order = np.argsort(keys)
            self._mid_sorted = (keys[order], vids[order])
        return self._mid_sorted

    def midpoints_of(self, keys: np.ndarray) -> np.ndarray:
        """Memoised midpoint of each edge key, ``-1`` where there is none."""
        mkeys, mvids = self.midpoint_table()
        at = _search(mkeys, keys)
        out = np.full(len(at), -1, dtype=np.int64)
        out[at >= 0] = mvids[at[at >= 0]]
        return out

    def _midpoints_for(self, keys: np.ndarray) -> np.ndarray:
        """Get-or-create the midpoints of ``keys``, creating in key order.

        A missing midpoint gets the next vertex id the first time its key
        appears in ``keys`` — the order a one-edge-at-a-time loop would
        create them in.
        """
        mid = self._mid
        out = np.fromiter((mid.get(k, -1) for k in keys.tolist()), np.int64, len(keys))
        missing = out < 0
        if missing.any():
            uniq, first, inv = np.unique(keys[missing], return_index=True, return_inverse=True)
            rank = np.empty(len(uniq), dtype=np.int64)
            rank[np.argsort(first)] = np.arange(len(uniq))
            created = uniq[np.argsort(first)]
            lo, hi = unpack_edge_keys(created)
            vids = self._append_verts((self._xy[lo] + self._xy[hi]) / 2.0)
            mid.update(zip(created.tolist(), vids.tolist()))
            self._mid_sorted = None
            out[missing] = vids[0] + rank[inv]
        return out

    def kill(self, tid: int) -> None:
        if not self._alive[tid]:
            raise ValueError(f"triangle {tid} already dead")
        self._alive[tid] = False
        self._nalive -= 1
        self._touch()

    def revive(self, tid: int) -> None:
        if self._alive[tid]:
            raise ValueError(f"triangle {tid} already alive")
        self._alive[tid] = True
        self._nalive += 1
        self._touch()

    def _set_alive(self, tids: np.ndarray, alive: bool) -> None:
        """Bulk :meth:`kill` / :meth:`revive` (each must change state)."""
        if np.any(self._alive[tids] == alive):
            raise ValueError(f"triangles already {'alive' if alive else 'dead'}")
        self._alive[tids] = alive
        self._nalive += len(tids) if alive else -len(tids)
        self._touch()

    # -- integrity -----------------------------------------------------------------------

    def validate(self) -> None:
        """Raise if the alive mesh is non-conforming or degenerate.

        Checks: every edge borders at most 2 alive triangles; every alive
        triangle has positive area; no alive triangle references a
        midpoint of one of its own (unrefined) edges — that would mean a
        hanging node.
        """
        table = self.edges()
        crowded = np.flatnonzero(table.count > 2)
        if len(crowded):
            i = int(crowded[0])
            raise AssertionError(
                f"edge {edge_set(table.key[i : i + 1]).pop()} shared by "
                f"{table.count[i]} triangles: {table.edge_tids(i)}"
            )
        p0, p1, p2 = (self._xy[table.verts[:, k]] for k in range(3))
        area = 0.5 * (
            (p1[:, 0] - p0[:, 0]) * (p2[:, 1] - p0[:, 1])
            - (p2[:, 0] - p0[:, 0]) * (p1[:, 1] - p0[:, 1])
        )
        flat = np.flatnonzero(np.abs(area) < 1e-14)
        if len(flat):
            j = int(flat[0])
            raise AssertionError(f"triangle {table.tids[j]} degenerate (area {area[j]})")
        # hanging-node check: a midpoint vertex of an alive edge must not be
        # used by any alive triangle unless the edge's sides were refined
        hanging = self.hanging_edges()
        if len(hanging):
            k = hanging[:1]
            raise AssertionError(
                f"hanging node: midpoint {self.midpoints_of(k)[0]} of alive edge "
                f"{edge_set(k).pop()} is in use"
            )

    def hanging_edges(self) -> np.ndarray:
        """Keys of alive edges whose memoised midpoint an alive triangle uses."""
        table = self.edges()
        mids = self.midpoints_of(table.key)
        used = table.used_vertices(self._nv)
        return table.key[(mids >= 0) & used[np.maximum(mids, 0)]]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TriMesh({self.num_vertices} verts, {self.num_triangles} alive tris, "
            f"{self.num_all_triangles} total)"
        )


def _search(sorted_keys: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Index of each of ``keys`` in ``sorted_keys``, ``-1`` where absent."""
    keys = np.asarray(keys, dtype=np.int64)
    if not len(sorted_keys):
        return np.full(len(keys), -1, dtype=np.int64)
    at = np.minimum(np.searchsorted(sorted_keys, keys), len(sorted_keys) - 1)
    return np.where(sorted_keys[at] == keys, at, -1)


def _frozen(view: np.ndarray) -> np.ndarray:
    view.flags.writeable = False
    return view


def _check_initial(rows: np.ndarray, nv: int) -> None:
    a, b, c = rows.T
    degenerate = (a == b) | (b == c) | (a == c)
    missing = ((rows < 0) | (rows >= nv)).any(axis=1)
    bad = np.flatnonzero(degenerate | missing)
    if len(bad):
        t = int(bad[0])
        what = "degenerate triangle" if degenerate[t] else "triangle references missing vertex"
        raise ValueError(f"{what} {t}: {tuple(rows[t].tolist())}")
