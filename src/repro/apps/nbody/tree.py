"""Canonical Barnes–Hut quadtree.

*Canonical* means deterministic and insertion-order independent: the region
quadtree's structure is a function of the body positions alone (each body
sinks to its own cell, splitting on collision up to a depth cap), and the
mass/centre-of-mass sums are computed in a bottom-up pass that accumulates
bodies and children in fixed index order.  Two processes building the tree
from the same positions — in any insertion order — get bit-identical
results, which is what lets the three programming-model implementations be
cross-checked exactly.  (Node *ids* follow allocation order, so they are
fixed only for a fixed insertion order; :meth:`QuadTree.build` always
inserts in index order.)
"""

from __future__ import annotations

from typing import List, Optional, Set, Tuple

import numpy as np

__all__ = ["QuadTree"]

_MAX_DEPTH = 40


class QuadTree:
    """Region quadtree over ``[x0, x0+size] × [y0, y0+size]``."""

    # (key, tree) of the last replicated() build
    _last: Optional[Tuple[tuple, "QuadTree"]] = None

    def __init__(self, x0: float = 0.0, y0: float = 0.0, size: float = 1.0):
        if size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        self.x0 = x0
        self.y0 = y0
        self.size = size
        # parallel node arrays
        self.cx: List[float] = []
        self.cy: List[float] = []
        self.half: List[float] = []
        self.children: List[Optional[List[int]]] = []  # None for leaves
        self.bodies: List[List[int]] = []              # leaf body lists
        self.depth: List[int] = []
        self.mass: List[float] = []
        self.comx: List[float] = []
        self.comy: List[float] = []
        self.pos: Optional[np.ndarray] = None
        self.m: Optional[np.ndarray] = None
        self._new_node(x0 + size / 2, y0 + size / 2, size / 2, 0)

    def _new_node(self, cx: float, cy: float, half: float, depth: int) -> int:
        self.cx.append(cx)
        self.cy.append(cy)
        self.half.append(half)
        self.children.append(None)
        self.bodies.append([])
        self.depth.append(depth)
        self.mass.append(0.0)
        self.comx.append(0.0)
        self.comy.append(0.0)
        return len(self.cx) - 1

    @property
    def num_nodes(self) -> int:
        return len(self.cx)

    # -- construction ----------------------------------------------------------

    def insert(self, i: int, x: float, y: float) -> int:
        """Insert body ``i``; returns nodes created (for cost accounting)."""
        created = 0
        node = 0
        while True:
            if self.children[node] is None:
                holder = self.bodies[node]
                if not holder or self.depth[node] >= _MAX_DEPTH:
                    holder.append(i)
                    return created
                # split: push existing bodies and the new one down
                created += self._split(node)
                continue
            node = self.children[node][self._quadrant(node, x, y)]

    def _quadrant(self, node: int, x: float, y: float) -> int:
        return (1 if x >= self.cx[node] else 0) | (2 if y >= self.cy[node] else 0)

    def _split(self, node: int) -> int:
        h = self.half[node] / 2
        kids = []
        for q in range(4):
            qx = self.cx[node] + (h if q & 1 else -h)
            qy = self.cy[node] + (h if q & 2 else -h)
            kids.append(self._new_node(qx, qy, h, self.depth[node] + 1))
        moved = self.bodies[node]
        self.bodies[node] = []
        self.children[node] = kids
        for b in moved:
            x, y = self._body_xy(b)
            self.bodies[kids[self._quadrant(node, x, y)]].append(b)
        return 4

    def _body_xy(self, b: int) -> Tuple[float, float]:
        assert self.pos is not None
        return float(self.pos[b, 0]), float(self.pos[b, 1])

    def build(self, pos: np.ndarray, mass: np.ndarray) -> int:
        """Insert all bodies (index order) and finalize; returns node count."""
        pos = np.asarray(pos, dtype=np.float64)
        mass = np.asarray(mass, dtype=np.float64)
        if pos.ndim != 2 or pos.shape[1] != 2 or len(pos) != len(mass):
            raise ValueError("pos must be (n,2) and mass (n,)")
        self.pos = pos
        self.m = mass
        for i in range(len(pos)):
            x, y = float(pos[i, 0]), float(pos[i, 1])
            if not (self.x0 <= x <= self.x0 + self.size and self.y0 <= y <= self.y0 + self.size):
                raise ValueError(f"body {i} at ({x}, {y}) outside the tree bounds")
            self.insert(i, x, y)
        self.finalize()
        return self.num_nodes

    @staticmethod
    def replicated(pos: np.ndarray, mass: np.ndarray) -> Tuple["QuadTree", int]:
        """The unit-square tree of ``pos``/``mass`` and its node count, shared.

        The tree is a pure function of the arrays' bytes, so the most recent
        one is kept, keyed on the exact float64 bytes and shapes, and handed
        back to every caller with equal arrays.  It owns copies of them:
        in-place writes to the caller's arrays never reach it.  Treat the
        returned tree as read-only.
        """
        pos = np.asarray(pos, dtype=np.float64)
        mass = np.asarray(mass, dtype=np.float64)
        key = (pos.shape, pos.tobytes(), mass.shape, mass.tobytes())
        last = QuadTree._last
        if last is None or last[0] != key:
            tree = QuadTree()
            tree.build(pos.copy(), mass.copy())
            last = QuadTree._last = (key, tree)
        return last[1], last[1].num_nodes

    def finalize(self) -> None:
        """Bottom-up mass / centre-of-mass in canonical (index) order."""
        for node in range(self.num_nodes - 1, -1, -1):
            m = sx = sy = 0.0
            for b in sorted(self.bodies[node]):
                m += float(self.m[b])
                sx += float(self.m[b]) * float(self.pos[b, 0])
                sy += float(self.m[b]) * float(self.pos[b, 1])
            if self.children[node] is not None:
                for c in self.children[node]:
                    m += self.mass[c]
                    sx += self.mass[c] * self.comx[c]
                    sy += self.mass[c] * self.comy[c]
            self.mass[node] = m
            if m > 0:
                self.comx[node] = sx / m
                self.comy[node] = sy / m

    # -- force evaluation -----------------------------------------------------------

    def accel(
        self,
        i: int,
        theta: float = 0.7,
        eps: float = 1e-3,
        visited: Optional[Set[int]] = None,
    ) -> Tuple[float, float, int]:
        """Acceleration on body ``i``; returns (ax, ay, interactions)."""
        assert self.pos is not None
        xi, yi = float(self.pos[i, 0]), float(self.pos[i, 1])
        ax = ay = 0.0
        count = 0
        stack = [0]
        while stack:
            node = stack.pop()
            if visited is not None:
                visited.add(node)
            m = self.mass[node]
            if m == 0.0:
                continue
            dx = self.comx[node] - xi
            dy = self.comy[node] - yi
            dist2 = dx * dx + dy * dy
            if self.children[node] is None:
                for b in sorted(self.bodies[node]):
                    if b == i:
                        continue
                    bx = float(self.pos[b, 0]) - xi
                    by = float(self.pos[b, 1]) - yi
                    r2 = bx * bx + by * by + eps * eps
                    w = float(self.m[b]) / (r2 * np.sqrt(r2))
                    ax += w * bx
                    ay += w * by
                    count += 1
            elif (2 * self.half[node]) ** 2 < theta * theta * dist2:
                r2 = dist2 + eps * eps
                w = m / (r2 * np.sqrt(r2))
                ax += w * dx
                ay += w * dy
                count += 1
            else:
                # fixed push order keeps the walk (and its rounding) canonical
                stack.extend(reversed(self.children[node]))
        return ax, ay, count
